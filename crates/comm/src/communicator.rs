//! The per-rank communication endpoint.

use crate::deadlock::{WaitKind, WaitRegistry};
use crate::error::{CommError, FaultOp};
use crate::faults::{self, FaultLane};
use crate::message::{checksum64, Envelope};
use crate::nonblocking::Request;
use crate::stats::{SharedCounters, TrafficStats};
use crate::Result;
use qse_util::Bytes;
use qse_util::mailbox::{deadline_after, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Poll slice for blocked receives: each expiry re-runs the wait-for-graph
/// deadlock detector, so a protocol bug is diagnosed within a few slices
/// instead of after the full receive deadline.
const DEADLOCK_POLL: Duration = Duration::from_millis(25);

/// One rank's endpoint into the universe.
///
/// Owned by exactly one thread. All sends are *eager*: the payload is copied
/// into the peer's mailbox immediately and the call returns (matching an MPI
/// implementation's eager protocol for buffered messages). Receives match on
/// `(source, tag)` and buffer out-of-order arrivals, like MPI's unexpected-
/// message queue.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    rx: Receiver<Envelope>,
    pending: VecDeque<Envelope>,
    barrier: Arc<Barrier>,
    counters: SharedCounters,
    all_counters: Arc<Vec<SharedCounters>>,
    recv_timeout: Duration,
    registry: Arc<WaitRegistry>,
    /// Deterministic fault stream for this rank, if the universe was
    /// constructed with a [`crate::faults::FaultPlan`]. `None` is the
    /// zero-overhead path: no checksums, no delays, no extra branches
    /// beyond this option check.
    lane: Option<FaultLane>,
}

impl Communicator {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Arc<Vec<Sender<Envelope>>>,
        rx: Receiver<Envelope>,
        barrier: Arc<Barrier>,
        counters: SharedCounters,
        all_counters: Arc<Vec<SharedCounters>>,
        recv_timeout: Duration,
        registry: Arc<WaitRegistry>,
        lane: Option<FaultLane>,
    ) -> Self {
        Communicator {
            rank,
            size,
            senders,
            rx,
            pending: VecDeque::new(),
            barrier,
            counters,
            all_counters,
            recv_timeout,
            registry,
            lane,
        }
    }

    /// True when this rank runs under an injected fault plan.
    pub fn faults_active(&self) -> bool {
        self.lane.is_some()
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Deadline applied to blocking receives before reporting a deadlock.
    pub fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// Sends `payload` to `dst` with `tag`, copying it once. Returns as soon
    /// as the message is enqueued in the destination mailbox.
    pub fn send(&mut self, dst: usize, tag: u64, payload: &[u8]) -> Result<()> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(payload))
    }

    /// Sends an already-owned payload without copying.
    ///
    /// Under an injected fault plan the send may be transiently failed
    /// (retried internally with deterministic backoff, surfacing
    /// [`CommError::Transient`] past the retry budget), delayed, or
    /// preceded by corrupted copies that the receiver's checksum
    /// validation will discard.
    pub fn send_bytes(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<()> {
        self.check_rank(dst)?;
        if self.lane.is_some() {
            return self.send_bytes_faulty(dst, tag, payload);
        }
        self.enqueue(dst, Envelope::from_bytes(self.rank, tag, payload))
    }

    /// Counts the message in flight, pushes it into `dst`'s mailbox, and
    /// records the traffic. The in-flight count precedes the enqueue: the
    /// deadlock detector must never observe a queued message with a zero
    /// counter.
    fn enqueue(&self, dst: usize, env: Envelope) -> Result<()> {
        let len = env.len();
        self.registry.msg_sent(dst);
        if self.senders[dst].send(env).is_err() {
            self.registry.msg_unsent(dst);
            return Err(CommError::Disconnected { peer: dst });
        }
        self.counters.record_send(len);
        Ok(())
    }

    /// The fault-lane send path: draws this send's fault decisions in
    /// program order, models transient failures as retried attempts,
    /// stamps every copy with a checksum and the drawn delivery delay,
    /// and delivers corrupted copies ahead of the pristine payload (the
    /// eager-transport collapse of detect → reject → retransmit).
    fn send_bytes_faulty(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<()> {
        let (plan, budget) = match &mut self.lane {
            Some(lane) => (lane.plan_send(), lane.retry_budget()),
            None => return self.enqueue(dst, Envelope::from_bytes(self.rank, tag, payload)),
        };
        for _ in 0..plan.injected_events {
            self.counters.record_fault_injected();
        }
        if plan.transient_attempts > 0 {
            self.counters.record_retries(plan.transient_attempts as u64);
            if plan.transient_attempts > budget {
                return Err(CommError::Transient {
                    op: FaultOp::Send,
                    peer: dst,
                    attempts: plan.transient_attempts,
                });
            }
            for attempt in 0..plan.transient_attempts {
                faults::backoff(attempt);
            }
        }
        let checksum = Some(checksum64(&payload));
        for _ in 0..plan.corrupt_copies {
            let bad = match &mut self.lane {
                Some(lane) => lane.corrupt_payload(&payload),
                None => payload.clone(),
            };
            let mut env = Envelope::from_bytes(self.rank, tag, bad);
            env.checksum = checksum;
            env.delay_slices = plan.delay_slices;
            self.enqueue(dst, env)?;
        }
        if plan.drop_pristine {
            // Permanent corruption: the good copy never makes it out.
            return Ok(());
        }
        let mut env = Envelope::from_bytes(self.rank, tag, payload);
        env.checksum = checksum;
        env.delay_slices = plan.delay_slices;
        self.enqueue(dst, env)
    }

    /// Blocking receive matching `(src, tag)` exactly.
    ///
    /// Out-of-order arrivals for other `(src, tag)` pairs are buffered and
    /// delivered to their own matching `recv` calls later. While blocked,
    /// the rank is registered in the universe's wait-for graph and wakes
    /// every [`DEADLOCK_POLL`] to run the deadlock detector: a protocol
    /// bug (mismatched tags, one-sided exchange, wait cycle) returns
    /// [`CommError::Deadlock`] with a per-rank diagnostic in well under a
    /// second instead of burning the whole receive deadline.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes> {
        self.check_rank(src)?;
        // Fault decisions are drawn before any arrival-dependent branch
        // so the per-rank stream stays in program order.
        self.fault_recv_entry(src)?;
        // First consult the unexpected-message queue.
        if let Some(env) = self.take_pending(src, tag) {
            self.counters.record_recv(env.len());
            return Ok(env.payload);
        }
        self.registry
            .begin_wait(self.rank, WaitKind::Recv { src, tag }, self.pending.len());
        let result = self.blocking_wait(src, tag, |env| {
            (env.src == src && env.tag == tag).then_some(0)
        });
        self.registry.end_wait(self.rank);
        result.map(|(_, payload)| payload)
    }

    /// Applies this receive entry's injected transient failures: retried
    /// with deterministic backoff inside the budget, surfaced as
    /// [`CommError::Transient`] beyond it.
    fn fault_recv_entry(&mut self, peer: usize) -> Result<()> {
        let Some(lane) = &mut self.lane else {
            return Ok(());
        };
        let forced = lane.plan_recv();
        if forced == 0 {
            return Ok(());
        }
        let budget = lane.retry_budget();
        lane.tick(forced as u64);
        self.counters.record_fault_injected();
        self.counters.record_retries(forced as u64);
        if forced > budget {
            return Err(CommError::Transient {
                op: FaultOp::Recv,
                peer,
                attempts: forced,
            });
        }
        for attempt in 0..forced {
            faults::backoff(attempt);
        }
        Ok(())
    }

    /// Removes and returns the first buffered envelope matching
    /// `(src, tag)`, keeping the registry's queue-depth diagnostic fresh.
    fn take_pending(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        let pos = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)?;
        let env = self.pending.remove(pos)?;
        self.registry.set_pending_depth(self.rank, self.pending.len());
        Some(env)
    }

    /// The shared blocked phase of [`Self::recv`] and [`Self::wait_any`]:
    /// poll-sliced mailbox waits with deadlock detection at each slice
    /// expiry. `matcher` returns the completed request index for an
    /// envelope this wait can consume; non-matching arrivals are buffered.
    ///
    /// Without a fault lane the deadline is wall-clock, exactly as before.
    /// With one, the deadline is *modelled*: it counts empty poll slices,
    /// so an injected delivery delay of D slices meets a timeout of T
    /// slices deterministically — due releases are processed before the
    /// deadline check, so a message arriving at the boundary is delivered
    /// (`D <= T`) and only `D > T` times out — instead of racing the
    /// host's scheduler. Held (delayed) envelopes stay counted as
    /// in-flight until released, which keeps the deadlock detector sound:
    /// a rank whose wake-up message is merely delayed is never reported.
    fn blocking_wait<M>(&mut self, err_src: usize, err_tag: u64, matcher: M) -> Result<(usize, Bytes)>
    where
        M: Fn(&Envelope) -> Option<usize>,
    {
        let deadline = deadline_after(Instant::now(), self.recv_timeout);
        let slice_budget = self
            .lane
            .as_ref()
            .map(|_| Self::timeout_slices(self.recv_timeout));
        let mut slices_used: u64 = 0;
        loop {
            if let Some(out) = self.process_due_held(&matcher)? {
                return Ok(out);
            }
            let wait = match slice_budget {
                Some(budget) => {
                    if slices_used >= budget {
                        return Err(CommError::RecvTimeout {
                            src: err_src,
                            tag: err_tag,
                            waited: self.recv_timeout,
                        });
                    }
                    DEADLOCK_POLL
                }
                None => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(CommError::RecvTimeout {
                            src: err_src,
                            tag: err_tag,
                            waited: self.recv_timeout,
                        });
                    }
                    remaining.min(DEADLOCK_POLL)
                }
            };
            match self.rx.recv_timeout(wait) {
                Ok(env) => {
                    if let Some(lane) = &mut self.lane {
                        // Every poll event advances the modelled clock, so
                        // held releases keep pace even under arrival storms.
                        lane.tick(1);
                        if env.delay_slices > 0 {
                            // Held without msg_delivered: the in-flight
                            // count keeps suppressing deadlock detection.
                            lane.hold(env);
                            continue;
                        }
                    }
                    self.registry.msg_delivered(self.rank);
                    if let Some(out) = self.admit(env, &matcher)? {
                        return Ok(out);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(lane) = &mut self.lane {
                        lane.tick(1);
                    }
                    slices_used += 1;
                    if let Some(report) = self.registry.detect(self.rank) {
                        return Err(CommError::Deadlock {
                            rank: self.rank,
                            stuck: report.stuck.clone(),
                            detail: report.render(),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: err_src })
                }
            }
        }
    }

    /// Number of deadlock-poll slices the receive deadline spans, for the
    /// modelled timeout used when a fault lane is active.
    fn timeout_slices(timeout: Duration) -> u64 {
        let slice_ms = DEADLOCK_POLL.as_millis().max(1) as u64;
        (timeout.as_millis() as u64).div_ceil(slice_ms).max(1)
    }

    /// Releases and processes every due held (delayed) envelope. Returns
    /// a completion if one of them satisfies the current wait.
    fn process_due_held<M>(&mut self, matcher: &M) -> Result<Option<(usize, Bytes)>>
    where
        M: Fn(&Envelope) -> Option<usize>,
    {
        loop {
            let Some(env) = self.lane.as_mut().and_then(|lane| lane.pop_due()) else {
                return Ok(None);
            };
            // Only now does the delayed message count as delivered.
            self.registry.msg_delivered(self.rank);
            if let Some(out) = self.admit(env, matcher)? {
                return Ok(Some(out));
            }
        }
    }

    /// Validates and routes one dequeued (or released) envelope: corrupt
    /// payloads are discarded — giving up with [`CommError::Corrupt`]
    /// once a link's consecutive discards exhaust the retry budget —
    /// matching envelopes complete the wait, and everything else is
    /// buffered for a later receive.
    fn admit<M>(&mut self, env: Envelope, matcher: &M) -> Result<Option<(usize, Bytes)>>
    where
        M: Fn(&Envelope) -> Option<usize>,
    {
        if !env.checksum_ok() {
            self.counters.record_corruption_detected();
            if let Some(lane) = &mut self.lane {
                let discarded = lane.note_corrupt_discard(env.src, env.tag);
                if discarded > lane.retry_budget() {
                    return Err(CommError::Corrupt {
                        src: env.src,
                        tag: env.tag,
                        discarded,
                    });
                }
            }
            return Ok(None);
        }
        if env.checksum.is_some() {
            if let Some(lane) = &mut self.lane {
                lane.note_valid_delivery(env.src, env.tag);
            }
        }
        if let Some(idx) = matcher(&env) {
            self.counters.record_recv(env.len());
            return Ok(Some((idx, env.payload)));
        }
        self.pending.push_back(env);
        self.registry.set_pending_depth(self.rank, self.pending.len());
        Ok(None)
    }

    /// Combined send + receive, the workhorse of QuEST's distributed gates
    /// (`MPI_Sendrecv`). The send is eager so this cannot deadlock even when
    /// both partners call it simultaneously.
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u64,
        payload: &[u8],
        src: usize,
        recv_tag: u64,
    ) -> Result<Bytes> {
        self.send(dst, send_tag, payload)?;
        self.recv(src, recv_tag)
    }

    /// Non-blocking send. With an eager transport the operation completes
    /// immediately; the returned request exists so call sites read like
    /// their MPI counterparts and can be passed to [`Self::wait_all`].
    pub fn isend(&mut self, dst: usize, tag: u64, payload: &[u8]) -> Result<Request> {
        self.send(dst, tag, payload)?;
        Ok(Request::SendDone)
    }

    /// Non-blocking receive: registers interest in `(src, tag)` and returns
    /// a request to be completed by [`Self::wait`] / [`Self::wait_all`].
    pub fn irecv(&self, src: usize, tag: u64) -> Result<Request> {
        self.check_rank(src)?;
        Ok(Request::Recv { src, tag })
    }

    /// Completes one request, returning its payload (empty for sends).
    pub fn wait(&mut self, request: Request) -> Result<Bytes> {
        match request {
            Request::SendDone => Ok(Bytes::new()),
            Request::Recv { src, tag } => self.recv(src, tag),
        }
    }

    /// Completes a batch of requests in order, returning their payloads.
    ///
    /// Because arrivals are buffered by `(src, tag)`, completion order does
    /// not depend on network arrival order — exactly the property the
    /// paper's non-blocking rewrite of QuEST exploits.
    pub fn wait_all(&mut self, requests: Vec<Request>) -> Result<Vec<Bytes>> {
        requests.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Completes *whichever* request in `requests` finishes first,
    /// returning its index and payload — the `MPI_Waitany` analogue that
    /// lets a streamed exchange process chunks in completion order.
    ///
    /// Send requests are already complete on an eager transport and are
    /// returned immediately (with an empty payload). Among receives, a
    /// buffered out-of-order arrival wins in its arrival order; otherwise
    /// the call blocks like [`Self::recv`], registered in the wait-for
    /// graph as a `wait_any` over the set so the deadlock detector can
    /// diagnose a stuck streamed exchange in ~50 ms. Non-matching
    /// arrivals are buffered for later receives exactly as in `recv`.
    ///
    /// Returns `CommError::InvalidConfig` for an empty request set.
    pub fn wait_any(&mut self, requests: &[Request]) -> Result<(usize, Bytes)> {
        if requests.is_empty() {
            return Err(CommError::InvalidConfig("wait_any needs at least one request"));
        }
        if let Some(i) = requests.iter().position(|r| r.is_send()) {
            return Ok((i, Bytes::new()));
        }
        // Drawn before the arrival-dependent pending scan so the fault
        // stream stays in program order (the request set is deterministic;
        // what has already arrived is not).
        let entry_peer = match requests[0] {
            Request::Recv { src, .. } => src,
            Request::SendDone => self.rank,
        };
        self.fault_recv_entry(entry_peer)?;
        // Oldest buffered arrival matching any request wins, mirroring
        // completion order on a real network.
        if let Some((pos, idx)) = self.pending.iter().enumerate().find_map(|(pos, env)| {
            Self::match_request(requests, env).map(|idx| (pos, idx))
        }) {
            let env = self.pending.remove(pos).ok_or(CommError::InvalidConfig(
                "pending queue changed underfoot", // unreachable: single-threaded access
            ))?;
            self.registry.set_pending_depth(self.rank, self.pending.len());
            self.counters.record_recv(env.len());
            return Ok((idx, env.payload));
        }
        let (src0, multi_source) = match requests[0] {
            Request::Recv { src, .. } => (
                src,
                requests
                    .iter()
                    .any(|r| !matches!(r, Request::Recv { src: s, .. } if *s == src)),
            ),
            Request::SendDone => (0, false), // unreachable: sends returned above
        };
        self.registry.begin_wait(
            self.rank,
            WaitKind::RecvAny {
                src: src0,
                outstanding: requests.len(),
                multi_source,
            },
            self.pending.len(),
        );
        let (err_src, err_tag) = match requests[0] {
            Request::Recv { src, tag } => (src, tag),
            Request::SendDone => (self.rank, 0),
        };
        let result = self.blocking_wait(err_src, err_tag, |env| {
            Self::match_request(requests, env)
        });
        self.registry.end_wait(self.rank);
        result
    }

    /// Index of the first request in `requests` matching `env`, if any.
    fn match_request(requests: &[Request], env: &Envelope) -> Option<usize> {
        requests
            .iter()
            .position(|r| matches!(r, Request::Recv { src, tag } if *src == env.src && *tag == env.tag))
    }

    /// Synchronises all ranks. The wait is registered in the wait-for
    /// graph so other ranks' deadlock diagnostics can name barrier-blocked
    /// peers, but a barrier itself cannot be interrupted.
    pub fn barrier(&self) {
        self.registry
            .begin_wait(self.rank, WaitKind::Barrier, self.pending.len());
        self.barrier.wait();
        self.registry.end_wait(self.rank);
    }

    /// Records `chunks` completed chunks of one streamed exchange in this
    /// rank's traffic counters.
    pub fn record_exchange_chunks(&self, chunks: u64) {
        self.counters.record_exchange_chunks(chunks);
    }

    /// Records `bytes` of amplitude payload this rank sent as part of a
    /// statevector exchange (pairwise chunked exchange or batched
    /// permutation) — the subset of `bytes_sent` that transpiler
    /// ablations compare.
    pub fn record_exchange_bytes(&self, bytes: u64) {
        self.counters.record_exchange_bytes(bytes);
    }

    /// Accounts `bytes` of exchange memory held (by the streamed chunk
    /// driver: a packed-but-unsent chunk, or the payload under its
    /// kernel), updating the high-water mark.
    pub fn scratch_acquire(&self, bytes: u64) {
        self.counters.scratch_acquire(bytes);
    }

    /// Releases `bytes` of exchange memory previously accounted via
    /// [`Self::scratch_acquire`].
    pub fn scratch_release(&self, bytes: u64) {
        self.counters.scratch_release(bytes);
    }

    /// This rank's traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.counters.snapshot()
    }

    /// Snapshot of every rank's counters (for aggregate reporting).
    pub fn all_stats(&self) -> Vec<TrafficStats> {
        self.all_counters.iter().map(|c| c.snapshot()).collect()
    }

    /// Resets this rank's counters (e.g. between benchmark phases).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A dropped rank can never send again; recording that lets the
        // global-starvation rule diagnose one-sided exchanges where the
        // peer has already returned.
        self.registry.mark_done(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::Universe;
    use crate::CommError;

    #[test]
    fn rank_and_size_are_exposed() {
        let sizes = Universe::new(4).run(|c| (c.rank(), c.size()));
        assert_eq!(sizes, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn invalid_rank_rejected() {
        Universe::new(2).run(|c| {
            let err = c.send(5, 0, &[]).unwrap_err();
            assert_eq!(err, CommError::InvalidRank { rank: 5, size: 2 });
            let err = c.recv(9, 0).unwrap_err();
            assert_eq!(err, CommError::InvalidRank { rank: 9, size: 2 });
        });
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 10, b"first").unwrap();
                c.send(1, 20, b"second").unwrap();
            } else {
                // Receive in the opposite order to the sends.
                let b = c.recv(0, 20).unwrap();
                let a = c.recv(0, 10).unwrap();
                assert_eq!(&a[..], b"first");
                assert_eq!(&b[..], b"second");
            }
        });
    }

    #[test]
    fn messages_from_different_sources_do_not_cross() {
        Universe::new(3).run(|c| match c.rank() {
            0 => c.send(2, 7, b"from0").unwrap(),
            1 => c.send(2, 7, b"from1").unwrap(),
            2 => {
                let from1 = c.recv(1, 7).unwrap();
                let from0 = c.recv(0, 7).unwrap();
                assert_eq!(&from0[..], b"from0");
                assert_eq!(&from1[..], b"from1");
            }
            _ => unreachable!(),
        });
    }

    #[test]
    fn simultaneous_sendrecv_does_not_deadlock() {
        let out = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let payload = vec![c.rank() as u8; 1024];
            let got = c.sendrecv(peer, 3, &payload, peer, 3).unwrap();
            got[0]
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn recv_timeout_reports_deadlock() {
        let out = Universe::with_timeout(2, std::time::Duration::from_millis(120)).run(|c| {
            if c.rank() == 0 {
                // Nobody ever sends tag 99.
                c.recv(1, 99).unwrap_err()
            } else {
                CommError::InvalidConfig("placeholder")
            }
        });
        // Once rank 1 returns, the wait-for graph proves nobody can send
        // tag 99 and the receive fails with a diagnosis; if the detector's
        // poll loses the race with the deadline, a plain timeout is also
        // acceptable.
        match &out[0] {
            CommError::Deadlock { rank: 0, stuck, .. } => assert_eq!(stuck, &vec![0]),
            CommError::RecvTimeout { src: 1, tag: 99, .. } => {}
            other => panic!("expected deadlock diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn nonblocking_roundtrip() {
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let reqs = vec![
                c.irecv(peer, 1).unwrap(),
                c.isend(peer, 1, &[c.rank() as u8]).unwrap(),
            ];
            let payloads = c.wait_all(reqs).unwrap();
            assert_eq!(payloads[0][0] as usize, peer);
            assert!(payloads[1].is_empty());
        });
    }

    #[test]
    fn wait_any_completes_in_arrival_order() {
        Universe::new(2).run(|c| {
            if c.rank() == 0 {
                // Send tags out of request order so completion order and
                // posting order differ.
                for tag in [2u64, 0, 1] {
                    c.send(1, tag, &[tag as u8]).unwrap();
                }
            } else {
                let mut reqs: Vec<_> =
                    (0..3u64).map(|t| c.irecv(0, t).unwrap()).collect();
                let mut tags_seen = Vec::new();
                while !reqs.is_empty() {
                    let (i, payload) = c.wait_any(&reqs).unwrap();
                    tags_seen.push(payload[0]);
                    reqs.swap_remove(i);
                }
                tags_seen.sort_unstable();
                assert_eq!(tags_seen, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn wait_any_prefers_completed_sends_and_rejects_empty_sets() {
        Universe::new(2).run(|c| {
            let err = c.wait_any(&[]).unwrap_err();
            assert!(matches!(err, CommError::InvalidConfig(_)));
            let peer = 1 - c.rank();
            let reqs = vec![
                c.irecv(peer, 7).unwrap(),
                c.isend(peer, 7, &[9]).unwrap(),
            ];
            // The eager send is already complete: index 1, empty payload.
            let (i, payload) = c.wait_any(&reqs).unwrap();
            assert_eq!(i, 1);
            assert!(payload.is_empty());
            // The receive then completes normally.
            let (i, payload) = c.wait_any(&reqs[..1]).unwrap();
            assert_eq!(i, 0);
            assert_eq!(&payload[..], &[9]);
        });
    }

    #[test]
    fn wait_any_buffers_non_matching_arrivals() {
        Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 50, b"other").unwrap();
                c.send(1, 40, b"match").unwrap();
            } else {
                // Only tag 40 is in the set; tag 50 must be buffered and
                // remain available to a later plain recv.
                let reqs = vec![c.irecv(0, 40).unwrap()];
                let (i, payload) = c.wait_any(&reqs).unwrap();
                assert_eq!(i, 0);
                assert_eq!(&payload[..], b"match");
                let other = c.recv(0, 50).unwrap();
                assert_eq!(&other[..], b"other");
            }
        });
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let stats = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            c.sendrecv(peer, 0, &[0u8; 100], peer, 0).unwrap();
            c.barrier();
            c.stats()
        });
        for s in stats {
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 100);
            assert_eq!(s.messages_received, 1);
            assert_eq!(s.bytes_received, 100);
        }
    }

    #[test]
    fn reset_stats_clears_counts() {
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            c.sendrecv(peer, 0, &[0u8; 8], peer, 0).unwrap();
            c.reset_stats();
            assert_eq!(c.stats().messages_sent, 0);
        });
    }

    #[test]
    fn all_stats_sees_every_rank() {
        let out = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            c.sendrecv(peer, 0, &[0u8; 8], peer, 0).unwrap();
            c.barrier();
            c.all_stats().len()
        });
        assert_eq!(out, vec![2, 2]);
    }
}

#[cfg(test)]
mod fault_tests {
    use crate::faults::FaultConfig;
    use crate::universe::Universe;
    use crate::{CommError, FaultOp, TrafficStats};
    use std::time::Duration;

    /// Plenty of head-room for the modelled waits in these tests; wall
    /// time stays tiny because delays are counted in 25 ms poll slices.
    const ROOMY: Duration = Duration::from_secs(20);

    #[test]
    fn recoverable_faults_preserve_every_payload() {
        for seed in [1u64, 2, 3, 7, 1234] {
            let cfg = FaultConfig {
                p_delay: 0.4,
                max_delay_slices: 2,
                ..FaultConfig::recoverable(seed)
            };
            let stats = Universe::with_timeout_and_faults(2, ROOMY, cfg)
                .unwrap()
                .run(|c| {
                    let peer = 1 - c.rank();
                    for round in 0..20u64 {
                        let payload = vec![(round as u8) ^ (c.rank() as u8); 96];
                        let got = c.sendrecv(peer, round, &payload, peer, round).unwrap();
                        let want = vec![(round as u8) ^ (peer as u8); 96];
                        assert_eq!(&got[..], &want[..], "seed {seed} round {round}");
                    }
                    c.barrier();
                    c.stats()
                });
            let total = TrafficStats::total(&stats);
            assert!(
                total.faults_injected > 0,
                "seed {seed}: 40 sends under a recoverable plan should inject something"
            );
            assert!(total.messages_received >= 40);
        }
    }

    #[test]
    fn fault_free_runs_take_the_zero_overhead_path() {
        let stats = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            for round in 0..8u64 {
                c.sendrecv(peer, round, &[7u8; 64], peer, round).unwrap();
            }
            assert!(!c.faults_active());
            c.stats()
        });
        for s in stats {
            assert_eq!(s.faults_injected, 0);
            assert_eq!(s.retries, 0);
            assert_eq!(s.corruptions_detected, 0);
        }
    }

    #[test]
    fn delay_at_the_timeout_boundary_is_delivered() {
        // timeout 100 ms over 25 ms slices → a modelled budget of exactly
        // 4 slices; a 4-slice delay releases at the boundary and due
        // releases are processed before the deadline check, so the
        // message must be delivered — deterministically, not by racing
        // the scheduler.
        let mut cfg = FaultConfig::disabled(11);
        cfg.p_delay = 1.0;
        cfg.max_delay_slices = 4;
        let out = Universe::with_timeout_and_faults(2, Duration::from_millis(100), cfg)
            .unwrap()
            .run(|c| {
                if c.rank() == 1 {
                    c.send(0, 5, b"boundary").unwrap();
                    c.barrier();
                    Vec::new()
                } else {
                    c.barrier(); // the message is in the mailbox before recv
                    c.recv(1, 5).unwrap().to_vec()
                }
            });
        assert_eq!(out[0], b"boundary");
    }

    #[test]
    fn delay_past_the_timeout_boundary_times_out() {
        // One slice beyond the 4-slice budget → a deterministic
        // RecvTimeout naming the awaited (src, tag).
        let mut cfg = FaultConfig::disabled(11);
        cfg.p_delay = 1.0;
        cfg.max_delay_slices = 5;
        let out = Universe::with_timeout_and_faults(2, Duration::from_millis(100), cfg)
            .unwrap()
            .run(|c| {
                if c.rank() == 1 {
                    c.send(0, 5, b"late").unwrap();
                    c.barrier();
                    None
                } else {
                    c.barrier();
                    Some(c.recv(1, 5).unwrap_err())
                }
            });
        match out[0].as_ref().unwrap() {
            CommError::RecvTimeout { src: 1, tag: 5, .. } => {}
            other => panic!("expected deterministic timeout, got {other:?}"),
        }
    }

    #[test]
    fn permanent_corruption_surfaces_a_typed_error() {
        let errs = Universe::with_timeout_and_faults(2, ROOMY, FaultConfig::permanent_corruption(3))
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                c.sendrecv(peer, 9, &[1u8; 128], peer, 9).unwrap_err()
            });
        for (rank, err) in errs.iter().enumerate() {
            match err {
                CommError::Corrupt { src, tag: 9, discarded } => {
                    assert_eq!(*src, 1 - rank);
                    assert!(*discarded > 2, "gave up only past the retry budget");
                }
                other => panic!("rank {rank}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausted_send_retries_surface_transient() {
        let errs = Universe::with_timeout_and_faults(2, ROOMY, FaultConfig::exhausted_retries(3))
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                c.send(peer, 0, &[0u8; 16]).unwrap_err()
            });
        for err in errs {
            match err {
                CommError::Transient {
                    op: FaultOp::Send,
                    attempts,
                    ..
                } => assert!(attempts > 2),
                other => panic!("expected Transient send failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausted_recv_retries_surface_transient() {
        let mut cfg = FaultConfig::disabled(4);
        cfg.p_recv_fail = 1.0;
        cfg.max_fail_burst = cfg.retry_budget + 2;
        let errs = Universe::with_timeout_and_faults(1, ROOMY, cfg)
            .unwrap()
            .run(|c| c.recv(0, 0).unwrap_err());
        match &errs[0] {
            CommError::Transient {
                op: FaultOp::Recv,
                peer: 0,
                attempts,
            } => assert!(*attempts > 3),
            other => panic!("expected Transient recv failure, got {other:?}"),
        }
    }

    #[test]
    fn within_budget_recv_failures_recover() {
        let mut cfg = FaultConfig::disabled(4);
        cfg.p_recv_fail = 1.0;
        cfg.max_fail_burst = cfg.retry_budget; // every recv retried, none fatal
        let stats = Universe::with_timeout_and_faults(2, ROOMY, cfg)
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                let got = c.sendrecv(peer, 1, &[c.rank() as u8], peer, 1).unwrap();
                assert_eq!(got[0] as usize, peer);
                c.barrier();
                c.stats()
            });
        assert!(TrafficStats::total(&stats).retries >= 2);
    }

    #[test]
    fn detector_stays_silent_while_every_message_is_delayed() {
        // Every message delayed by 3 slices: ranks sit recv-blocked with
        // their wake-up held back. Held messages stay counted in flight,
        // so the deadlock detector must not fire, and the ring must
        // complete with correct data.
        let mut cfg = FaultConfig::disabled(8);
        cfg.p_delay = 1.0;
        cfg.max_delay_slices = 3;
        let n = 4;
        let out = Universe::with_timeout_and_faults(n, ROOMY, cfg)
            .unwrap()
            .run(|c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                let mut seen = Vec::new();
                for round in 0..4u64 {
                    c.send(next, round, &[c.rank() as u8]).unwrap();
                    seen.push(c.recv(prev, round).unwrap()[0] as usize);
                }
                seen
            });
        for (rank, seen) in out.iter().enumerate() {
            let prev = (rank + n - 1) % n;
            assert_eq!(seen, &vec![prev; 4]);
        }
    }

    #[test]
    fn stalled_rank_slows_but_completes() {
        let mut cfg = FaultConfig::disabled(2);
        cfg.stall_rank = Some(0);
        cfg.stall_window = (0, 8);
        cfg.stall_extra_slices = 2;
        let stats = Universe::with_timeout_and_faults(2, ROOMY, cfg)
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                for round in 0..4u64 {
                    let got = c.sendrecv(peer, round, &[round as u8], peer, round).unwrap();
                    assert_eq!(got[0], round as u8);
                }
                c.barrier();
                c.stats()
            });
        assert!(stats[0].faults_injected >= 4, "rank 0's sends all stalled");
        assert_eq!(stats[1].faults_injected, 0, "rank 1 is unaffected");
    }
}
