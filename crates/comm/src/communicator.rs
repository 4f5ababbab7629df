//! The per-rank communication endpoint.

use crate::error::{CommError, FaultOp};
use crate::failstop::FailStop;
use crate::faults::{self, FaultLane};
use crate::message::{checksum64, Envelope};
use crate::nonblocking::Request;
use crate::stats::{SharedCounters, TrafficStats};
use crate::Result;
use qse_util::mailbox::{deadline_after, Receiver, RecvTimeoutError, Sender};
use qse_util::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tick of the fault lane's modelled clock: under an injected fault
/// plan a blocked receive waits in slices of this length, and delays and
/// the receive deadline are counted in them. The fault-free path never
/// slices its wait.
const FAULT_SLICE: Duration = Duration::from_millis(25);

/// One rank's endpoint into the universe.
///
/// Owned by exactly one thread. All sends are *eager*: the payload is copied
/// into the peer's mailbox immediately and the call returns (matching an MPI
/// implementation's eager protocol for buffered messages). Receives match on
/// `(source, tag)` and buffer out-of-order arrivals, like MPI's unexpected-
/// message queue.
///
/// The universe is fail-stop (see [`crate::failstop`]): a transport error
/// leaving any of this endpoint's calls, or a panic unwinding through the
/// thread that owns it, aborts the universe, and from then on every
/// rank's communication calls return [`CommError::Aborted`].
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    rx: Receiver<Envelope>,
    pending: VecDeque<Envelope>,
    fail_stop: Arc<FailStop>,
    counters: SharedCounters,
    recv_timeout: Duration,
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
        fail_stop: Arc<FailStop>,
        counters: SharedCounters,
        recv_timeout: Duration,
        lane: Option<FaultLane>,
    ) -> Self {
        Communicator {
            rank,
            size,
            senders,
            rx,
            pending: VecDeque::new(),
            fail_stop,
            counters,
            recv_timeout,
            lane,
        }
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

    /// Deadline of a blocking receive: past it the receive returns
    /// [`CommError::RecvTimeout`] (and aborts the universe). Wall-clock on
    /// the fault-free path; counted in 25 ms slices of the modelled clock
    /// under a fault plan.
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

    /// `Err(Aborted)` once the universe has aborted: the entry check of
    /// every communication call.
    fn live(&self) -> Result<()> {
        self.fail_stop.aborted().map_or(Ok(()), Err)
    }

    /// The fail-stop exit of a transport error: aborts the universe with
    /// `err` (unless it already has) and hands `err` back to the caller.
    pub(crate) fn fail(&self, err: CommError) -> CommError {
        if !matches!(err, CommError::Aborted { .. }) {
            self.abort(Some(err.clone()));
        }
        err
    }

    /// Writes the abort cell (`cause: None` for a panicking rank) and, if
    /// this call wrote it, pushes one wake envelope into every other
    /// rank's mailbox so a blocked receive returns at once. Wake
    /// envelopes are never matched or counted: a receiver checks the
    /// cell before it looks at anything it dequeues.
    fn abort(&self, cause: Option<CommError>) {
        if self.fail_stop.abort(self.rank, cause) {
            for (dst, mailbox) in self.senders.iter().enumerate() {
                if dst != self.rank {
                    // A peer that already dropped its mailbox needs no wake.
                    let _ = mailbox.send(Envelope::from_bytes(self.rank, 0, Bytes::new()));
                }
            }
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
        self.live()?;
        let sent = if self.lane.is_some() {
            self.send_bytes_faulty(dst, tag, payload)
        } else {
            self.enqueue(dst, Envelope::from_bytes(self.rank, tag, payload))
        };
        sent.map_err(|e| self.fail(e))
    }

    /// Pushes the message into `dst`'s mailbox and records the traffic.
    /// A mailbox is only gone once its rank has returned; if that rank
    /// failed, the send reports the abort, not the disconnection.
    fn enqueue(&self, dst: usize, env: Envelope) -> Result<()> {
        let len = env.len();
        if self.senders[dst].send(env).is_err() {
            let gone = CommError::Disconnected { peer: dst };
            return Err(self.fail_stop.aborted().unwrap_or(gone));
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
    /// delivered to their own matching `recv` calls later. The call ends
    /// with the message, with [`CommError::RecvTimeout`] at the deadline,
    /// or with [`CommError::Aborted`] as soon as another rank fails.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes> {
        self.check_rank(src)?;
        self.live()?;
        self.recv_matching(src, tag).map_err(|e| self.fail(e))
    }

    fn recv_matching(&mut self, src: usize, tag: u64) -> Result<Bytes> {
        // Fault decisions are drawn before any arrival-dependent branch
        // so the per-rank stream stays in program order.
        self.fault_recv_entry(src)?;
        // First consult the unexpected-message queue.
        let pos = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag);
        if let Some(env) = pos.and_then(|pos| self.pending.remove(pos)) {
            self.counters.record_recv(env.len());
            return Ok(env.payload);
        }
        let matcher = |env: &Envelope| (env.src == src && env.tag == tag).then_some(0);
        let (_, payload) = self.blocking_wait(src, tag, matcher)?;
        Ok(payload)
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

    /// The shared blocked phase of [`Self::recv`] and [`Self::wait_any`].
    /// `matcher` returns the completed request index for an envelope this
    /// wait can consume; non-matching arrivals are buffered. The cell is
    /// checked before anything dequeued is looked at, so another rank's
    /// abort (and its wake envelope) ends the wait with
    /// [`CommError::Aborted`].
    ///
    /// Without a fault lane the wait is one mailbox wait up to the
    /// wall-clock deadline. With one, the deadline is *modelled*: the
    /// wait runs in [`FAULT_SLICE`]s and counts the empty ones, so an
    /// injected delivery delay of D slices meets a timeout of T slices
    /// deterministically — due releases are processed before the
    /// deadline check, so a message arriving at the boundary is delivered
    /// (`D <= T`) and only `D > T` times out — instead of racing the
    /// host's scheduler.
    fn blocking_wait<M>(&mut self, src: usize, tag: u64, matcher: M) -> Result<(usize, Bytes)>
    where
        M: Fn(&Envelope) -> Option<usize>,
    {
        let timed_out = CommError::RecvTimeout {
            src,
            tag,
            waited: self.recv_timeout,
        };
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
                Some(budget) if slices_used >= budget => return Err(timed_out),
                Some(_) => FAULT_SLICE,
                None => deadline.saturating_duration_since(Instant::now()),
            };
            match self.rx.recv_timeout(wait) {
                Ok(env) => {
                    self.live()?;
                    if let Some(lane) = &mut self.lane {
                        // Every dequeue advances the modelled clock, so
                        // held releases keep pace even under arrival storms.
                        lane.tick(1);
                        if env.delay_slices > 0 {
                            lane.hold(env);
                            continue;
                        }
                    }
                    if let Some(out) = self.admit(env, &matcher)? {
                        return Ok(out);
                    }
                }
                Err(RecvTimeoutError::Timeout) => match &mut self.lane {
                    Some(lane) => {
                        lane.tick(1);
                        slices_used += 1;
                    }
                    None => return Err(timed_out),
                },
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: src })
                }
            }
        }
    }

    /// Number of [`FAULT_SLICE`]s the receive deadline spans, for the
    /// modelled timeout used when a fault lane is active.
    fn timeout_slices(timeout: Duration) -> u64 {
        let slice_ms = FAULT_SLICE.as_millis().max(1) as u64;
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
    /// the call blocks like [`Self::recv`] (and ends like it: timeout,
    /// abort, or a completion). Non-matching arrivals are buffered for
    /// later receives exactly as in `recv`.
    ///
    /// Returns `CommError::InvalidConfig` for an empty request set.
    pub fn wait_any(&mut self, requests: &[Request]) -> Result<(usize, Bytes)> {
        if requests.is_empty() {
            return Err(CommError::InvalidConfig(
                "wait_any needs at least one request",
            ));
        }
        if let Some(i) = requests.iter().position(|r| r.is_send()) {
            return Ok((i, Bytes::new()));
        }
        self.live()?;
        self.wait_any_recv(requests).map_err(|e| self.fail(e))
    }

    /// [`Self::wait_any`] over a set of receives only.
    fn wait_any_recv(&mut self, requests: &[Request]) -> Result<(usize, Bytes)> {
        let (src, tag) = match requests[0] {
            Request::Recv { src, tag } => (src, tag),
            Request::SendDone => (self.rank, 0), // unreachable: sends returned above
        };
        // Drawn before the arrival-dependent pending scan so the fault
        // stream stays in program order (the request set is deterministic;
        // what has already arrived is not).
        self.fault_recv_entry(src)?;
        // Oldest buffered arrival matching any request wins, mirroring
        // completion order on a real network.
        if let Some((pos, idx)) = self
            .pending
            .iter()
            .enumerate()
            .find_map(|(pos, env)| Self::match_request(requests, env).map(|idx| (pos, idx)))
        {
            let env = self.pending.remove(pos).ok_or(CommError::InvalidConfig(
                "pending queue changed underfoot", // unreachable: single-threaded access
            ))?;
            self.counters.record_recv(env.len());
            return Ok((idx, env.payload));
        }
        self.blocking_wait(src, tag, |env| Self::match_request(requests, env))
    }

    /// Index of the first request in `requests` matching `env`, if any.
    fn match_request(requests: &[Request], env: &Envelope) -> Option<usize> {
        requests.iter().position(
            |r| matches!(r, Request::Recv { src, tag } if *src == env.src && *tag == env.tag),
        )
    }

    /// Synchronises all ranks: returns once every rank has arrived, or as
    /// soon as the universe aborts — then without synchronising, and the
    /// rank's next communication call returns [`CommError::Aborted`].
    pub fn barrier(&self) {
        self.fail_stop.barrier();
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
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A rank unwinding from a panic aborts the universe before its
        // mailbox goes, so no peer waits on it or sees `Disconnected`.
        if std::thread::panicking() {
            self.abort(None);
        }
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
    fn recv_timeout_names_the_awaited_pair() {
        let out = Universe::with_timeout(2, std::time::Duration::from_millis(120)).run(|c| {
            if c.rank() == 0 {
                // Nobody ever sends tag 99.
                c.recv(1, 99).unwrap_err()
            } else {
                CommError::InvalidConfig("placeholder")
            }
        });
        match &out[0] {
            CommError::RecvTimeout {
                src: 1, tag: 99, ..
            } => {}
            other => panic!("expected a timeout naming (1, 99), got {other:?}"),
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
                let mut reqs: Vec<_> = (0..3u64).map(|t| c.irecv(0, t).unwrap()).collect();
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
            let reqs = vec![c.irecv(peer, 7).unwrap(), c.isend(peer, 7, &[9]).unwrap()];
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
}

#[cfg(test)]
mod fault_tests {
    use crate::faults::FaultConfig;
    use crate::universe::Universe;
    use crate::{CommError, FaultOp, TrafficStats};
    use std::time::Duration;

    /// Plenty of head-room for the modelled waits in these tests; wall
    /// time stays tiny because delays are counted in 25 ms slices.
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

    /// Fail-stop outcome of a run in which every rank fails with an error
    /// `own` accepts: each rank reports its own such error, or `Aborted`
    /// by a rank that did, carrying that rank's error as the cause.
    pub(crate) fn assert_fail_stop(errs: &[CommError], own: impl Fn(usize, &CommError) -> bool) {
        for (rank, err) in errs.iter().enumerate() {
            match err {
                CommError::Aborted {
                    by,
                    cause: Some(cause),
                } => {
                    assert_eq!(
                        &errs[*by], &**cause,
                        "rank {rank}: cause is rank {by}'s error"
                    );
                    assert!(own(*by, cause), "rank {by}: unexpected error {cause:?}");
                }
                other => assert!(own(rank, other), "rank {rank}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn permanent_corruption_surfaces_a_typed_error() {
        let errs =
            Universe::with_timeout_and_faults(2, ROOMY, FaultConfig::permanent_corruption(3))
                .unwrap()
                .run(|c| {
                    let peer = 1 - c.rank();
                    c.sendrecv(peer, 9, &[1u8; 128], peer, 9).unwrap_err()
                });
        // Past the retry budget, from the peer, on the exchanged tag.
        assert_fail_stop(&errs, |rank, err| {
            matches!(err, CommError::Corrupt { src, tag: 9, discarded }
                if *src == 1 - rank && *discarded > 2)
        });
    }

    #[test]
    fn exhausted_send_retries_surface_transient() {
        let errs = Universe::with_timeout_and_faults(2, ROOMY, FaultConfig::exhausted_retries(3))
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                c.send(peer, 0, &[0u8; 16]).unwrap_err()
            });
        assert_fail_stop(
            &errs,
            |_, err| matches!(err, CommError::Transient { op: FaultOp::Send, attempts, .. } if *attempts > 2),
        );
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
    fn ring_completes_while_every_message_is_delayed() {
        // Every message delayed by 3 slices: ranks sit recv-blocked with
        // their wake-up held back. Nothing may end the wait early, and
        // the ring must complete with correct data.
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
                    let got = c
                        .sendrecv(peer, round, &[round as u8], peer, round)
                        .unwrap();
                    assert_eq!(got[0], round as u8);
                }
                c.barrier();
                c.stats()
            });
        assert!(stats[0].faults_injected >= 4, "rank 0's sends all stalled");
        assert_eq!(stats[1].faults_injected, 0, "rank 1 is unaffected");
    }

    #[test]
    fn retrying_and_delayed_ranks_complete() {
        // Every message is delayed (held invisible at the receiver) and
        // most sends need backoff retries, so both ranks spend most of
        // their time waiting on traffic that exists but is not yet
        // visible. Every round must deliver the exact payload.
        let mut plan = FaultConfig::recoverable(21);
        plan.p_delay = 1.0;
        plan.max_delay_slices = 2;
        plan.p_send_fail = 0.8;
        let out = Universe::with_timeout_and_faults(2, ROOMY, plan)
            .unwrap()
            .run(|c| {
                let peer = 1 - c.rank();
                for round in 0..6u64 {
                    let sent = [c.rank() as u8, round as u8];
                    let got = c.sendrecv(peer, round, &sent, peer, round)?;
                    assert_eq!(&got[..], &[peer as u8, round as u8]);
                }
                Ok::<_, CommError>(())
            });
        for (rank, r) in out.into_iter().enumerate() {
            r.unwrap_or_else(|e| panic!("rank {rank} falsely failed: {e}"));
        }
    }

    #[test]
    fn a_receive_outwaits_a_late_sender() {
        // The receiver blocks long before the sender sends; nothing but
        // the message may end the wait.
        let (ready, go) = std::sync::mpsc::channel();
        let go = std::sync::Mutex::new(go);
        let out = Universe::with_timeout(2, ROOMY).run(|c| {
            if c.rank() == 0 {
                ready.send(()).unwrap();
                c.recv(1, 3).map(|b| b.len())
            } else {
                go.lock().unwrap().recv().unwrap();
                std::thread::sleep(Duration::from_millis(120));
                c.send(0, 3, &[1, 2, 3]).map(|_| 0)
            }
        });
        assert_eq!(out, vec![Ok(3), Ok(0)]);
    }
}

#[cfg(test)]
mod failstop_tests {
    use super::Communicator;
    use crate::faults::FaultConfig;
    use crate::universe::Universe;
    use crate::{CommError, Result};
    use qse_util::sync::{self, ScheduleHook, SyncOp};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Wall-clock bound on every run below.
    const BOUND: Duration = Duration::from_secs(2);

    /// A receive deadline past [`BOUND`]: a run that ends within the bound
    /// was ended by the abort, and a broken abort fails here rather than
    /// hangs.
    const LONG: Duration = Duration::from_secs(5);

    fn is_corrupt_from_1(err: &CommError) -> bool {
        matches!(err, CommError::Corrupt { src: 1, tag: 9, .. })
    }

    #[test]
    fn a_panic_releases_a_peer_parked_at_the_barrier() {
        let t0 = Instant::now();
        let (done, finished) = mpsc::channel();
        // Off the test thread, so a barrier that never releases fails the
        // test at the bound instead of hanging it.
        std::thread::spawn(move || {
            let seen = Mutex::new(None);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                Universe::with_timeout(2, LONG).run(|c| {
                    if c.rank() == 0 {
                        while c.fail_stop.parked() == 0 {
                            std::thread::yield_now();
                        }
                        panic!("rank 0 gave up");
                    }
                    c.barrier();
                    // Released without synchronising: the next call says why.
                    *seen.lock().unwrap() = Some(c.send(0, 1, &[]));
                })
            }));
            let _ = done.send((caught.err(), seen.into_inner().unwrap()));
        });
        let (payload, seen) = finished
            .recv_timeout(BOUND)
            .expect("the barrier never released");
        let payload = payload.expect("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 0 gave up"));
        assert_eq!(seen, Some(Err(CommError::Aborted { by: 0, cause: None })));
        assert!(t0.elapsed() < BOUND, "took {:?}", t0.elapsed());
    }

    /// A schedule hook with one participant, the thread that enrolls: it
    /// reports that thread's first mailbox wait — past every entry check,
    /// about to park — and otherwise waits and wakes like the condvar it
    /// stands in for, in 25 ms slices like the fault lane's.
    struct ParkHook {
        participant: Mutex<Option<std::thread::ThreadId>>,
        parking: Mutex<Option<mpsc::Sender<()>>>,
        /// Channels notified since their waiter last looked.
        notified: Mutex<HashSet<u64>>,
        wake: Condvar,
    }

    impl ParkHook {
        fn enroll(&self) {
            *self.participant.lock().unwrap() = Some(std::thread::current().id());
        }
    }

    impl ScheduleHook for ParkHook {
        fn is_participant(&self) -> bool {
            *self.participant.lock().unwrap() == Some(std::thread::current().id())
        }

        fn sync_point(&self, op: SyncOp) {
            if let SyncOp::MailboxRecv { .. } = op {
                if let Some(parking) = self.parking.lock().unwrap().take() {
                    parking.send(()).unwrap();
                }
            }
        }

        fn wait_channel(&self, chan: u64) -> bool {
            let notified = self.notified.lock().unwrap();
            let slice = Duration::from_millis(25);
            let (mut notified, _) = self
                .wake
                .wait_timeout_while(notified, slice, |n| !n.contains(&chan))
                .unwrap();
            notified.remove(&chan)
        }

        fn notify_channel(&self, chan: u64, _all: bool) {
            self.notified.lock().unwrap().insert(chan);
            self.wake.notify_all();
        }
    }

    /// Rank 0 fails with `Corrupt` (every copy rank 1 sends is corrupted)
    /// once rank 1 has entered its mailbox wait in `park`, waiting on a
    /// message rank 0 never sends.
    fn corrupt_while_peer_parks(park: fn(&mut Communicator) -> Result<()>) -> Vec<Result<()>> {
        // The hook is process-wide: one such run at a time.
        static HOOKED: Mutex<()> = Mutex::new(());
        let _one = HOOKED.lock().unwrap_or_else(|e| e.into_inner());
        // Rank 1's hook tells rank 0 it has parked: the failure is
        // ordered after the park, not by sleeping.
        let (parking, parked) = mpsc::channel();
        let parked = Mutex::new(parked);
        let hook = Arc::new(ParkHook {
            participant: Mutex::new(None),
            parking: Mutex::new(Some(parking)),
            notified: Mutex::new(HashSet::new()),
            wake: Condvar::new(),
        });
        sync::install(hook.clone());
        let t0 = Instant::now();
        let universe =
            Universe::with_timeout_and_faults(2, LONG, FaultConfig::permanent_corruption(3));
        let out = universe.unwrap().run(|c| {
            if c.rank() == 0 {
                parked.lock().unwrap().recv().unwrap();
                return c.recv(1, 9).map(|_| ());
            }
            hook.enroll();
            c.send(0, 9, &[1u8; 64])?;
            park(c)
        });
        sync::uninstall();
        assert!(t0.elapsed() < BOUND, "took {:?}", t0.elapsed());
        match &out[0] {
            Err(err) if is_corrupt_from_1(err) => {}
            other => panic!("rank 0: expected Corrupt, got {other:?}"),
        }
        out
    }

    fn assert_aborted_by_corrupt(out: &Result<()>) {
        match out {
            Err(CommError::Aborted {
                by: 0,
                cause: Some(cause),
            }) if is_corrupt_from_1(cause) => {}
            other => panic!("rank 1: expected Aborted by 0 with Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_rank_aborts_a_peer_parked_in_recv() {
        let out = corrupt_while_peer_parks(|c| c.recv(0, 10).map(|_| ()));
        assert_aborted_by_corrupt(&out[1]);
    }

    #[test]
    fn a_failed_rank_aborts_a_peer_parked_in_wait_any() {
        let out = corrupt_while_peer_parks(|c| {
            let reqs = [c.irecv(0, 10)?, c.irecv(0, 11)?];
            c.wait_any(&reqs).map(|_| ())
        });
        assert_aborted_by_corrupt(&out[1]);
    }

    #[test]
    fn a_send_to_a_failed_peer_is_aborted_not_disconnected() {
        // Rank 1 times out and returns; its mailbox is gone.
        let mut comms = Universe::with_timeout(2, Duration::from_millis(10)).into_communicators();
        let mut failed = comms.pop().unwrap();
        let cause = failed.recv(0, 5).unwrap_err();
        assert!(matches!(
            cause,
            CommError::RecvTimeout { src: 0, tag: 5, .. }
        ));
        drop(failed);
        let aborted = CommError::Aborted {
            by: 1,
            cause: Some(Box::new(cause)),
        };
        assert_eq!(comms[0].send(1, 5, b"late"), Err(aborted));

        // Rank 1 panics; its communicator drops while it unwinds.
        let mut comms = Universe::new(2).into_communicators();
        let failed = comms.pop().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(move || {
            let _held = failed;
            panic!("rank 1 died");
        }));
        assert!(caught.is_err());
        let aborted = CommError::Aborted { by: 1, cause: None };
        assert_eq!(comms[0].send(1, 5, b"late"), Err(aborted));

        // A peer that returned normally is a protocol bug, not a failure.
        let mut comms = Universe::new(2).into_communicators();
        drop(comms.pop());
        assert_eq!(
            comms[0].send(1, 5, b"late"),
            Err(CommError::Disconnected { peer: 1 })
        );
    }

    /// A rank program and, for each rank it leaves stuck, the `(peer,
    /// tag)` that rank awaits for ever.
    struct Stuck {
        name: &'static str,
        ranks: usize,
        faults: bool,
        program: fn(&mut Communicator) -> Result<()>,
        awaits: &'static [(usize, (usize, u64))],
    }

    /// The runtime side of the shapes `qse-check`'s static verifier
    /// rejects: under a 200 ms deadline every stuck rank ends typed —
    /// with its own timeout, or aborted by a rank that timed out — well
    /// within [`BOUND`], and every other rank completes.
    #[test]
    fn stuck_shapes_end_typed_on_every_rank() {
        let shapes = [
            Stuck {
                name: "mismatched tags",
                ranks: 4,
                faults: false,
                program: |c| match c.rank() {
                    0 => c.sendrecv(1, 10, b"ping", 1, 99).map(|_| ()),
                    1 => c.sendrecv(0, 20, b"pong", 0, 88).map(|_| ()),
                    _ => Ok(()),
                },
                awaits: &[(0, (1, 99)), (1, (0, 88))],
            },
            Stuck {
                name: "one-sided receive",
                ranks: 2,
                faults: false,
                program: |c| {
                    if c.rank() == 1 {
                        c.recv(0, 7).map(|_| ())
                    } else {
                        Ok(())
                    }
                },
                awaits: &[(1, (0, 7))],
            },
            Stuck {
                name: "one-sided receive under a fault lane",
                ranks: 2,
                faults: true,
                program: |c| {
                    if c.rank() == 1 {
                        c.recv(0, 7).map(|_| ())
                    } else {
                        Ok(())
                    }
                },
                awaits: &[(1, (0, 7))],
            },
            Stuck {
                name: "3-rank cycle",
                ranks: 3,
                faults: false,
                program: |c| c.recv((c.rank() + 1) % 3, 5).map(|_| ()),
                awaits: &[(0, (1, 5)), (1, (2, 5)), (2, (0, 5))],
            },
            Stuck {
                name: "buffered but unmatched",
                ranks: 2,
                faults: false,
                program: |c| {
                    let peer = 1 - c.rank();
                    c.send(peer, 40 + c.rank() as u64, b"noise")?;
                    c.recv(peer, 1234).map(|_| ())
                },
                awaits: &[(0, (1, 1234)), (1, (0, 1234))],
            },
            Stuck {
                name: "streamed group never sent",
                ranks: 2,
                faults: false,
                program: |c| {
                    if c.rank() == 1 {
                        return Ok(());
                    }
                    let reqs = [c.irecv(1, 5)?, c.irecv(1, 6)?];
                    c.wait_any(&reqs).map(|_| ())
                },
                awaits: &[(0, (1, 5))],
            },
        ];
        let deadline = Duration::from_millis(200);
        for shape in &shapes {
            let t0 = Instant::now();
            let universe = if shape.faults {
                Universe::with_timeout_and_faults(
                    shape.ranks,
                    deadline,
                    FaultConfig::recoverable(4),
                )
                .unwrap()
            } else {
                Universe::with_timeout(shape.ranks, deadline)
            };
            let out = universe.run(shape.program);
            assert!(
                t0.elapsed() < BOUND,
                "{}: took {:?}",
                shape.name,
                t0.elapsed()
            );
            let awaited = |rank: usize| shape.awaits.iter().find(|(r, _)| *r == rank).map(|a| a.1);
            let timed_out = |rank: usize, err: &CommError| {
                matches!((err, awaited(rank)), (CommError::RecvTimeout { src, tag, .. }, Some(a))
                    if (*src, *tag) == a)
            };
            for (rank, res) in out.iter().enumerate() {
                let ok = match (res, awaited(rank)) {
                    (Ok(()), None) => true,
                    (
                        Err(CommError::Aborted {
                            by,
                            cause: Some(cause),
                        }),
                        Some(_),
                    ) => timed_out(*by, cause) && out[*by].as_ref().err() == Some(&**cause),
                    (Err(err), Some(_)) => timed_out(rank, err),
                    _ => false,
                };
                assert!(ok, "{}: rank {rank} ended {res:?}", shape.name);
            }
        }
    }
}
