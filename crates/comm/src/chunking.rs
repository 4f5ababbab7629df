//! Chunked pairwise exchange — the heart of a distributed gate.
//!
//! QuEST exchanges the *entire local statevector* with a single pair rank
//! for every distributed gate: 64 GB per process on ARCHER2. "Due to
//! limitations of some implementations of MPI, individual messages cannot
//! be larger than 2 GB, so the communication cannot be done in a single
//! message. Instead, 32 messages are exchanged per distributed gate"
//! (§2.1). This module reproduces that structure with a configurable cap:
//!
//! * [`ExchangeMode::Blocking`] — QuEST's original scheme: one blocking
//!   `sendrecv` per chunk, strictly serialised;
//! * [`ExchangeMode::NonBlocking`] — the paper's improvement: post every
//!   receive up front, send every chunk, then complete the receives in
//!   order, letting chunks fly concurrently;
//! * [`ExchangeMode::Streamed`] — one step further than the paper: chunks
//!   are *consumed in completion order* via
//!   [`crate::Communicator::wait_any`] while later chunks are still in
//!   flight.
//!
//! All three are orderings of one chunk driver, [`drive`], stated once by
//! [`ChunkedExchange::ops`]: the driver runs that list and the static
//! verifier traces it. The sender packs each chunk straight from its
//! state into an owned buffer that becomes the message, and the receiver
//! consumes each payload where it arrived — one write and one read per
//! exchanged byte, nothing staged but the chunks in flight. All strategies
//! deliver identical bytes; the thread-cluster benchmarks measure the
//! wall-clock difference, and the analytic model assigns them different
//! effective bandwidths calibrated from the paper's Table 1.

use crate::error::CommError;
use crate::nonblocking::Request;
use crate::Communicator;
use crate::Result;
use qse_util::Bytes;
use std::collections::VecDeque;
use std::ops::Range;

/// Exchange options for a distributed run: the engine executes them and
/// the static verifier traces them, so both read this one struct.
/// Nothing here shapes local work — the engine applies each run of local
/// gates in one blocked pass whatever the exchange options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Blocking sendrecv (QuEST default), the paper's non-blocking
    /// rewrite, or the streamed chunk-pipelined exchange that overlaps
    /// each chunk's combine with the remaining communication.
    pub exchange_mode: ExchangeMode,
    /// Per-message size cap; ARCHER2's is 2 GiB, tests use small values
    /// to force multi-chunk exchanges.
    pub chunk_policy: ChunkPolicy,
    /// Use the half exchange for distributed SWAPs (§4 future work).
    pub half_exchange_swaps: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            exchange_mode: ExchangeMode::Blocking,
            chunk_policy: ChunkPolicy {
                max_message_bytes: 1 << 20,
            },
            half_exchange_swaps: false,
        }
    }
}

/// Message-size policy for chunked transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Maximum bytes per message. The paper's machines cap at 2 GiB; tests
    /// and benches use small values to force multi-chunk behaviour.
    pub max_message_bytes: usize,
}

impl ChunkPolicy {
    /// The paper's production cap: 2 GiB per MPI message.
    pub const ARCHER2: ChunkPolicy = ChunkPolicy {
        max_message_bytes: 2 * 1024 * 1024 * 1024,
    };

    /// Creates a policy, rejecting a zero cap.
    pub fn new(max_message_bytes: usize) -> Result<Self> {
        if max_message_bytes == 0 {
            return Err(CommError::InvalidConfig("max_message_bytes must be > 0"));
        }
        Ok(ChunkPolicy { max_message_bytes })
    }

    /// Number of messages needed for `total` bytes (0 bytes → 0 messages).
    pub fn num_chunks(&self, total: usize) -> usize {
        total.div_ceil(self.max_message_bytes)
    }

    /// Byte range of chunk `i` out of `total` bytes, or `None` past the end.
    ///
    /// Saturating arithmetic: for any `total <= usize::MAX` every start
    /// offset `i * cap` is `< total` and cannot overflow; the saturation
    /// keeps a future refactor from silently wrapping on pathological
    /// `(total, cap)` combinations without putting a panic on the
    /// library path.
    pub fn chunk_range(&self, i: usize, total: usize) -> Option<Range<usize>> {
        if i >= self.num_chunks(total) {
            return None;
        }
        let start = i.saturating_mul(self.max_message_bytes);
        Some(start..usize::min(start.saturating_add(self.max_message_bytes), total))
    }

    /// Derives a policy whose chunk boundaries fall on multiples of
    /// `align_bytes` (a gate kernel's orbit size), by rounding the cap
    /// *down* to the nearest multiple — or up to exactly `align_bytes`
    /// when the cap is smaller. Streamed exchanges need this so every
    /// chunk, consumed in arrival order, maps to a whole number of kernel
    /// orbits; both partners derive the same policy from the same config,
    /// keeping tags and counts matched.
    pub fn aligned(&self, align_bytes: usize) -> ChunkPolicy {
        assert!(align_bytes > 0, "alignment must be positive");
        let cap = (self.max_message_bytes / align_bytes).max(1) * align_bytes;
        ChunkPolicy {
            max_message_bytes: cap,
        }
    }
}

/// Base tags must leave the low 32 bits for chunk indices.
const CHUNK_TAG_SHIFT: u64 = 32;

/// Exclusive bound on a base tag [`chunk_tag`] accepts.
const BASE_TAG_BOUND: u64 = 1 << 31;

/// Modulus of the exchange tag sequence ([`TagSeq`]): every reduced tag is
/// a valid [`chunk_tag`] base.
const TAG_MOD: u64 = 1 << 30;

const _: () = assert!(
    TAG_MOD <= BASE_TAG_BOUND,
    "reduced tags must be valid base tags"
);

/// The exchange tag sequence a rank walks step by step. Every rank takes
/// each communicating step's tags — spectators included — so partners
/// agree on wire tags whatever their participation history. The
/// statevector engine and the static verifier both walk it, so the
/// verifier's tags are the engine's.
#[derive(Debug, Default)]
pub struct TagSeq {
    taken: u64,
}

impl TagSeq {
    /// Takes the next `n` tags for one step; the returned map gives the
    /// step's tag `k < n`, a valid [`chunk_tag`] base.
    pub fn take(&mut self, n: u32) -> impl Fn(u32) -> u64 {
        let first = self.taken + 1;
        self.taken += u64::from(n);
        move |k| (first + u64::from(k)) % TAG_MOD
    }
}

/// Builds the wire tag for chunk `idx` of an exchange tagged `base`.
///
/// # Panics
/// Panics if `base >= 2^31` or `idx >= 2^32`; exchanges never get near
/// either bound, and colliding tags would corrupt message matching.
#[inline]
pub fn chunk_tag(base: u64, idx: usize) -> u64 {
    assert!(base < BASE_TAG_BOUND, "exchange base tag too large: {base}");
    assert!((idx as u64) < (1 << 32), "chunk index too large: {idx}");
    (base << CHUNK_TAG_SHIFT) | idx as u64
}

/// Strategy selector shared by the statevector engine and benchmarks:
/// three orderings ([`ChunkedExchange::ops`]) of the same steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// QuEST's original blocking `MPI_Sendrecv` sequence: send chunk
    /// `i`, receive chunk `i`, in lockstep.
    #[default]
    Blocking,
    /// The paper's non-blocking rewrite (`Isend`/`Irecv` + `Waitall`):
    /// post everything, then complete the receives in posted order.
    NonBlocking,
    /// Chunk-pipelined streaming: a ring of sends stays ahead of the
    /// receives, which complete in arrival order (`wait_any`).
    Streamed,
}

impl ExchangeMode {
    /// The cap of an exchange whose consumer works on whole `unit_bytes`
    /// units: `policy`, aligned to the unit ([`ChunkPolicy::aligned`]) in
    /// the streamed mode, whose chunks complete out of order.
    pub fn policy(self, policy: ChunkPolicy, unit_bytes: usize) -> ChunkPolicy {
        match self {
            ExchangeMode::Streamed => policy.aligned(unit_bytes),
            ExchangeMode::Blocking | ExchangeMode::NonBlocking => policy,
        }
    }

    /// Sends kept ahead of the receives by the mode that completes them
    /// in arrival order ([`DEFAULT_RING_DEPTH`]); `None` for the others.
    pub fn ring_depth(self) -> Option<usize> {
        (self == ExchangeMode::Streamed).then_some(DEFAULT_RING_DEPTH)
    }
}

/// Sends the streamed mode keeps ahead of its receives: one chunk in
/// flight while the previous one is being consumed.
pub const DEFAULT_RING_DEPTH: usize = 2;

/// The ordering of a one-sided exchange (a `Permute` step's block sends,
/// then its block receives) whatever the configured mode: lockstep with
/// one side empty — eager sends, then receives in ascending order.
pub const ONE_SIDED_MODE: ExchangeMode = ExchangeMode::Blocking;

/// One step of a rank's side of a chunked exchange ([`ChunkedExchange::ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOp {
    /// Post the receive of incoming chunk `i` (`irecv`); never blocks.
    Post(usize),
    /// Send outgoing chunk `i`.
    Send(usize),
    /// Wait for incoming chunk `i` — its posted receive after a `Post(i)`,
    /// a blocking `recv` otherwise — and consume it.
    Recv(usize),
    /// Wait for *any* posted receive not yet completed (`wait_any`), and
    /// consume it.
    RecvAny,
}

/// One rank's side of a chunked pairwise exchange: `send_total` bytes go
/// to `peer` and `recv_total` come back, each cut by `policy` into
/// chunks tagged [`chunk_tag`]`(base_tag, i)`. The two totals may differ
/// (one of them may be zero); each direction is chunked independently.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedExchange {
    /// The rank on the other side.
    pub peer: usize,
    /// Exchange tag; chunk `i` travels under `chunk_tag(base_tag, i)`.
    pub base_tag: u64,
    /// Message-size cap. Both sides must use the same one.
    pub policy: ChunkPolicy,
    /// Bytes this rank sends.
    pub send_total: usize,
    /// Bytes this rank expects.
    pub recv_total: usize,
}

impl ChunkedExchange {
    /// This rank's side of the exchange under `mode`: the one statement
    /// of the three orderings, which [`drive`] runs and the static
    /// verifier traces. Blocking is lockstep (`Send(i)`, `Recv(i)`);
    /// non-blocking posts every receive, sends every chunk, then waits in
    /// posted order; streamed posts every receive, primes
    /// [`DEFAULT_RING_DEPTH`] sends, then per receive sends one more and
    /// waits for any, then flushes. Each direction is chunked on its own,
    /// so asymmetric and one-sided totals need no case of their own.
    ///
    /// The list orders the *blocking points*: `drive` may send a chunk
    /// earlier than it says (outgoing chunk `i` leaves before incoming
    /// chunk `i` is consumed, which a streamed receive can reach first),
    /// never later. The streamed ordering cannot deadlock against a
    /// symmetric peer: once both partners have completed `k` receives
    /// each has sent at least `min(ring + k, n)` chunks, ahead of what the
    /// peer waits on; the flush lets a partner that expects more than it
    /// sends complete.
    pub fn ops(&self, mode: ExchangeMode) -> Vec<ChunkOp> {
        let n_send = self.policy.num_chunks(self.send_total);
        let n_recv = self.policy.num_chunks(self.recv_total);
        let mut ops = Vec::with_capacity(2 * n_recv + n_send);
        match mode {
            ExchangeMode::Blocking => {
                for i in 0..usize::max(n_send, n_recv) {
                    ops.extend((i < n_send).then_some(ChunkOp::Send(i)));
                    ops.extend((i < n_recv).then_some(ChunkOp::Recv(i)));
                }
            }
            ExchangeMode::NonBlocking => {
                ops.extend((0..n_recv).map(ChunkOp::Post));
                ops.extend((0..n_send).map(ChunkOp::Send));
                ops.extend((0..n_recv).map(ChunkOp::Recv));
            }
            ExchangeMode::Streamed => {
                ops.extend((0..n_recv).map(ChunkOp::Post));
                let primed = DEFAULT_RING_DEPTH.min(n_send);
                ops.extend((0..primed).map(ChunkOp::Send));
                for k in 0..n_recv {
                    ops.extend((primed + k < n_send).then_some(ChunkOp::Send(primed + k)));
                    ops.push(ChunkOp::RecvAny);
                }
                ops.extend((primed + n_recv..n_send).map(ChunkOp::Send));
            }
        }
        ops
    }
}

/// When outgoing chunks leave the state relative to incoming chunks
/// landing on it — the *pack-before-overwrite* rule. Consuming may
/// overwrite the very bytes a later outgoing chunk is packed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackOrder {
    /// Chunk `i` is packed when it is sent — no later than incoming
    /// chunk `i` is consumed. Sound only when consuming incoming bytes
    /// `[a, b)` writes nothing that outgoing bytes at or beyond `b` are
    /// packed from.
    Lazy,
    /// Every outgoing chunk is packed before the first incoming one is
    /// consumed: for consumers that write outside their own chunk's
    /// range. Holds the whole outgoing payload in chunk buffers.
    Eager,
}

/// The chunk driver — the one implementation behind every
/// [`ExchangeMode`] and every distributed gate. It runs
/// [`ChunkedExchange::ops`]`(mode)`, which decides the ordering.
///
/// `pack(state, range, out)` appends bytes `range` of the outgoing
/// payload to the empty `out`, which then *is* the message
/// ([`Communicator::send_bytes`]: no further copy).
/// `consume(state, range, payload)` gets bytes `range` of the incoming
/// payload where they arrived (a consumer that needs them past the call
/// keeps a [`Bytes::slice`], not a copy). Every exchanged byte is
/// written once and read once; the only staging is the chunks in flight.
/// The buffers themselves go round: a payload no consumer kept a view of
/// gives its allocation to the next outgoing chunk, so once both sides of
/// a symmetric exchange have a chunk in hand neither allocates again —
/// an exchange costs the same whatever state the allocator is in.
/// A chunk whose length differs from what `policy` assigns it is refused
/// with [`CommError::ChunkLength`] before `consume` sees it, and aborts
/// the universe like any transport error.
///
/// In streamed mode the in-flight gauge
/// ([`crate::TrafficStats::peak_inflight_bytes`]) counts what the driver
/// holds: packed-but-unsent chunks plus the payload being consumed — two
/// chunks at most under [`PackOrder::Lazy`], the whole outgoing payload
/// under [`PackOrder::Eager`]. Payloads the peer has sent ahead wait in
/// the transport's mailbox, which the ring keeps to a few chunks.
pub fn drive<T: ?Sized>(
    comm: &mut Communicator,
    mode: ExchangeMode,
    ex: ChunkedExchange,
    order: PackOrder,
    state: &mut T,
    pack: impl FnMut(&T, Range<usize>, &mut Vec<u8>),
    consume: impl FnMut(&mut T, Range<usize>, &Bytes),
) -> Result<()> {
    let n_send = ex.policy.num_chunks(ex.send_total);
    let streamed = mode == ExchangeMode::Streamed;
    let mut d = Driver {
        comm,
        ex,
        state,
        pack,
        consume,
        packed: VecDeque::new(),
        spare: None,
        next_pack: 0,
        next_send: 0,
        n_send,
        gauged: streamed,
    };
    if order == PackOrder::Eager {
        d.pack_through(n_send);
    }
    // Posted receives not yet completed, and the chunk each one brings.
    let (mut reqs, mut req_chunks): (Vec<Request>, Vec<usize>) = (Vec::new(), Vec::new());
    for op in ex.ops(mode) {
        match op {
            ChunkOp::Post(i) => {
                reqs.push(d.comm.irecv(ex.peer, chunk_tag(ex.base_tag, i))?);
                req_chunks.push(i);
            }
            ChunkOp::Send(i) => {
                while d.next_send <= i {
                    d.send_next()?;
                }
            }
            ChunkOp::Recv(i) => {
                let payload = match req_chunks.iter().position(|&c| c == i) {
                    Some(k) => {
                        req_chunks.remove(k);
                        d.comm.wait(reqs.remove(k))?
                    }
                    None => d.comm.recv(ex.peer, chunk_tag(ex.base_tag, i))?,
                };
                d.consume(i, payload)?;
            }
            ChunkOp::RecvAny => {
                let (k, payload) = d.comm.wait_any(&reqs)?;
                reqs.swap_remove(k);
                d.consume(req_chunks.swap_remove(k), payload)?;
            }
        }
    }
    if streamed {
        // The larger direction, so a half-exchange still reports its full
        // pipeline depth.
        let chunks = usize::max(n_send, ex.policy.num_chunks(ex.recv_total)) as u64;
        if chunks > 0 {
            d.comm.record_exchange_chunks(chunks);
        }
    }
    if ex.send_total > 0 {
        d.comm.record_exchange_bytes(ex.send_total as u64);
    }
    Ok(())
}

/// [`drive`]'s working set: the outbox of packed-but-unsent chunks and
/// the cursors over it.
struct Driver<'a, T: ?Sized, P, C> {
    comm: &'a mut Communicator,
    ex: ChunkedExchange,
    state: &'a mut T,
    pack: P,
    consume: C,
    /// Chunks `next_send..next_pack`, packed and waiting for their turn
    /// on the wire.
    packed: VecDeque<Vec<u8>>,
    /// The buffer of the last consumed payload, when the consumer kept
    /// no view of it: it carries the next outgoing chunk. Empty capacity,
    /// not data in flight, so the gauge does not count it.
    spare: Option<Vec<u8>>,
    next_pack: usize,
    next_send: usize,
    n_send: usize,
    /// Whether held chunks count towards the in-flight gauge.
    gauged: bool,
}

impl<T, P, C> Driver<'_, T, P, C>
where
    T: ?Sized,
    P: FnMut(&T, Range<usize>, &mut Vec<u8>),
    C: FnMut(&mut T, Range<usize>, &Bytes),
{
    /// Moves the in-flight gauge as the driver starts (`held`) or stops
    /// holding a chunk of `len` bytes.
    fn gauge(&self, len: usize, held: bool) {
        if self.gauged && held {
            self.comm.scratch_acquire(len as u64);
        } else if self.gauged {
            self.comm.scratch_release(len as u64);
        }
    }

    /// Packs outgoing chunks up to (not including) `end`.
    fn pack_through(&mut self, end: usize) {
        while self.next_pack < end.min(self.n_send) {
            let range = self
                .ex
                .policy
                .chunk_range(self.next_pack, self.ex.send_total)
                .unwrap_or(0..0); // unreachable: next_pack < n_send
            let mut buf = self.spare.take().unwrap_or_default();
            buf.clear();
            buf.reserve_exact(range.len());
            (self.pack)(self.state, range.clone(), &mut buf);
            assert_eq!(buf.len(), range.len(), "packer filled the wrong length");
            self.gauge(buf.len(), true);
            self.packed.push_back(buf);
            self.next_pack += 1;
        }
    }

    /// Sends the next unsent chunk, if any, handing its buffer over.
    fn send_next(&mut self) -> Result<()> {
        if self.next_send == self.n_send {
            return Ok(());
        }
        self.pack_through(self.next_send + 1);
        let buf = self.packed.pop_front().unwrap_or_default(); // packed just above
        self.gauge(buf.len(), false);
        let tag = chunk_tag(self.ex.base_tag, self.next_send);
        self.next_send += 1;
        self.comm.send_bytes(self.ex.peer, tag, Bytes::from(buf))
    }

    /// Hands incoming chunk `idx` to the consumer — after checking its
    /// length, and after outgoing chunk `idx` has left the state (a
    /// streamed chunk can complete before this rank sent its own).
    fn consume(&mut self, idx: usize, payload: Bytes) -> Result<()> {
        let range = self
            .ex
            .policy
            .chunk_range(idx, self.ex.recv_total)
            .unwrap_or(0..0); // unreachable: idx < n_recv
        if payload.len() != range.len() {
            return Err(self.comm.fail(CommError::ChunkLength {
                src: self.ex.peer,
                tag: chunk_tag(self.ex.base_tag, idx),
                expected: range.len(),
                got: payload.len(),
            }));
        }
        self.gauge(payload.len(), true);
        while self.next_send < usize::min(idx + 1, self.n_send) {
            self.send_next()?;
        }
        (self.consume)(self.state, range, &payload);
        self.gauge(payload.len(), false);
        self.spare = payload.into_unique_vec().or(self.spare.take());
        Ok(())
    }
}

/// Pairwise exchange of byte buffers under `mode`: ships `send_buf`,
/// assembles the peer's `expected_recv` bytes into `recv_buf`. A thin
/// caller of [`drive`] for transport benchmarks and tests; the
/// statevector engine packs from and consumes into its storage instead.
#[allow(clippy::too_many_arguments)]
pub fn exchange(
    mode: ExchangeMode,
    comm: &mut Communicator,
    peer: usize,
    base_tag: u64,
    send_buf: &[u8],
    recv_buf: &mut Vec<u8>,
    expected_recv: usize,
    policy: ChunkPolicy,
) -> Result<()> {
    // Every byte is overwritten below, so a reused buffer is not re-zeroed.
    recv_buf.resize(expected_recv, 0);
    let ex = ChunkedExchange {
        peer,
        base_tag,
        policy,
        send_total: send_buf.len(),
        recv_total: expected_recv,
    };
    drive(
        comm,
        mode,
        ex,
        PackOrder::Lazy,
        recv_buf,
        |_, range, out| out.extend_from_slice(&send_buf[range]),
        |buf, range, payload| buf[range].copy_from_slice(payload),
    )
}

/// [`exchange`] in [`ExchangeMode::Blocking`]: one `sendrecv` per chunk,
/// strictly serialised.
pub fn exchange_blocking(
    comm: &mut Communicator,
    peer: usize,
    base_tag: u64,
    send_buf: &[u8],
    recv_buf: &mut Vec<u8>,
    expected_recv: usize,
    policy: ChunkPolicy,
) -> Result<()> {
    let mode = ExchangeMode::Blocking;
    exchange(
        mode,
        comm,
        peer,
        base_tag,
        send_buf,
        recv_buf,
        expected_recv,
        policy,
    )
}

/// [`exchange`] in [`ExchangeMode::NonBlocking`]: all sends and receives
/// posted up front.
pub fn exchange_nonblocking(
    comm: &mut Communicator,
    peer: usize,
    base_tag: u64,
    send_buf: &[u8],
    recv_buf: &mut Vec<u8>,
    expected_recv: usize,
    policy: ChunkPolicy,
) -> Result<()> {
    let mode = ExchangeMode::NonBlocking;
    exchange(
        mode,
        comm,
        peer,
        base_tag,
        send_buf,
        recv_buf,
        expected_recv,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    /// Delay-only fault plan: heavy jitter, nothing else, so chunk
    /// delivery order is scrambled without any retry machinery engaging.
    fn delay_jitter(seed: u64) -> crate::FaultConfig {
        let mut cfg = crate::FaultConfig::disabled(seed);
        cfg.p_delay = 0.6;
        cfg.max_delay_slices = 3;
        cfg
    }

    #[test]
    fn policy_rejects_zero() {
        assert!(ChunkPolicy::new(0).is_err());
        assert!(ChunkPolicy::new(1).is_ok());
    }

    /// Byte ranges of every chunk of `total` bytes, in order.
    fn ranges(p: ChunkPolicy, total: usize) -> Vec<Range<usize>> {
        (0..p.num_chunks(total))
            .map(|i| p.chunk_range(i, total).unwrap())
            .collect()
    }

    #[test]
    fn chunk_counts_and_ranges() {
        let p = ChunkPolicy::new(10).unwrap();
        assert_eq!(p.num_chunks(0), 0);
        assert_eq!(p.num_chunks(10), 1);
        assert_eq!(p.num_chunks(11), 2);
        assert_eq!(p.num_chunks(95), 10);
        assert_eq!(ranges(p, 25), vec![0..10, 10..20, 20..25]);
        assert_eq!(p.chunk_range(3, 25), None);
        assert_eq!(p.chunk_range(0, 0), None);
    }

    #[test]
    fn tag_sequence_numbers_steps_from_one_and_wraps() {
        let mut seq = TagSeq::default();
        assert_eq!(seq.take(1)(0), 1);
        // A step that takes no tag leaves the sequence where it was.
        let _ = seq.take(0);
        let three = seq.take(3);
        assert_eq!([three(0), three(1), three(2)], [2, 3, 4]);
        assert_eq!(seq.take(1)(0), 5);
        let mut seq = TagSeq { taken: TAG_MOD - 2 };
        let wrap = seq.take(3);
        assert_eq!([wrap(0), wrap(1), wrap(2)], [TAG_MOD - 1, 0, 1]);
        chunk_tag(wrap(0), 0);
    }

    #[test]
    fn aligned_policy_rounds_down_with_floor() {
        let p = ChunkPolicy::new(100).unwrap();
        assert_eq!(p.aligned(16).max_message_bytes, 96);
        assert_eq!(p.aligned(100).max_message_bytes, 100);
        // A cap smaller than the alignment is rounded *up* to one orbit.
        assert_eq!(p.aligned(128).max_message_bytes, 128);
        // Already aligned caps are untouched.
        assert_eq!(
            ChunkPolicy::new(256).unwrap().aligned(64).max_message_bytes,
            256
        );
    }

    #[test]
    fn boundary_totals_zero_cap_and_cap_plus_one() {
        let cap = 64;
        let p = ChunkPolicy::new(cap).unwrap();
        // total = 0: no chunks, no ranges.
        assert_eq!(p.num_chunks(0), 0);
        assert_eq!(ranges(p, 0), vec![]);
        // total = cap: exactly one full chunk.
        assert_eq!(p.num_chunks(cap), 1);
        assert_eq!(ranges(p, cap), vec![0..cap]);
        // total = cap + 1: a full chunk plus a one-byte tail.
        assert_eq!(p.num_chunks(cap + 1), 2);
        assert_eq!(ranges(p, cap + 1), vec![0..cap, cap..cap + 1]);
    }

    #[test]
    fn ranges_near_usize_max_do_not_wrap() {
        // The last chunk's nominal end (start + cap) would exceed
        // usize::MAX; the saturating add must clamp to `total` instead of
        // wrapping around to a tiny range.
        let cap = usize::MAX / 2 + 1; // 2^63 on 64-bit targets
        let total = usize::MAX;
        let p = ChunkPolicy::new(cap).unwrap();
        assert_eq!(p.num_chunks(total), 2);
        assert_eq!(ranges(p, total), vec![0..cap, cap..total]);
    }

    #[test]
    fn archer2_policy_matches_paper() {
        // 64 GB local statevector / 2 GB cap = 32 messages (paper §2.1).
        let local_bytes = 64usize * 1024 * 1024 * 1024;
        assert_eq!(ChunkPolicy::ARCHER2.num_chunks(local_bytes), 32);
    }

    #[test]
    fn chunk_tags_unique_across_chunks_and_bases() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for idx in 0..8usize {
                assert!(seen.insert(chunk_tag(base, idx)));
            }
        }
    }

    #[test]
    fn chunk_tags_unique_at_documented_bounds() {
        // The extreme corners of the documented domain (base < 2^31,
        // idx < 2^32) must still map to distinct tags.
        let bases = [0u64, 1, (1 << 31) - 1];
        let idxs = [0usize, 1, (1usize << 32) - 1];
        let mut seen = std::collections::HashSet::new();
        for &base in &bases {
            for &idx in &idxs {
                assert!(
                    seen.insert(chunk_tag(base, idx)),
                    "collision at ({base}, {idx})"
                );
            }
        }
        assert_eq!(seen.len(), bases.len() * idxs.len());
    }

    #[test]
    fn chunk_tag_round_trips_base_and_index() {
        let tag = chunk_tag((1 << 31) - 1, (1usize << 32) - 1);
        assert_eq!(tag >> CHUNK_TAG_SHIFT, (1 << 31) - 1);
        assert_eq!(tag & 0xFFFF_FFFF, (1u64 << 32) - 1);
    }

    #[test]
    #[should_panic(expected = "base tag too large")]
    fn oversized_base_tag_panics() {
        chunk_tag(1 << 31, 0);
    }

    #[test]
    #[should_panic(expected = "chunk index too large")]
    fn oversized_chunk_index_panics() {
        chunk_tag(0, 1usize << 32);
    }

    const MODES: [ExchangeMode; 3] = [
        ExchangeMode::Blocking,
        ExchangeMode::NonBlocking,
        ExchangeMode::Streamed,
    ];

    /// Cap of the op-list tests.
    const CAP: usize = 16;

    /// Bytes of an `n`-chunk direction under [`CAP`], the last chunk short.
    fn total(n: usize) -> usize {
        (n * CAP).saturating_sub(CAP / 2)
    }

    /// An op list rendered `P`ost, `S`end, `R`ecv and `A`(ny).
    fn render(ops: &[ChunkOp]) -> String {
        let op = |op: &ChunkOp| match *op {
            ChunkOp::Post(i) => format!("P{i}"),
            ChunkOp::Send(i) => format!("S{i}"),
            ChunkOp::Recv(i) => format!("R{i}"),
            ChunkOp::RecvAny => "A".to_string(),
        };
        ops.iter().map(op).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn ops_pin_each_ordering_for_each_shape() {
        // (outgoing, incoming chunks) → blocking, non-blocking, streamed.
        let table = [
            (
                (3, 3),
                [
                    "S0 R0 S1 R1 S2 R2",
                    "P0 P1 P2 S0 S1 S2 R0 R1 R2",
                    "P0 P1 P2 S0 S1 S2 A A A",
                ],
            ),
            // One chunk, fewer than the ring depth.
            ((1, 1), ["S0 R0", "P0 S0 R0", "P0 S0 A"]),
            ((3, 0), ["S0 S1 S2", "S0 S1 S2", "S0 S1 S2"]),
            ((0, 3), ["R0 R1 R2", "P0 P1 P2 R0 R1 R2", "P0 P1 P2 A A A"]),
            // Asymmetric: the side that sends more, then its partner.
            (
                (7, 4),
                [
                    "S0 R0 S1 R1 S2 R2 S3 R3 S4 S5 S6",
                    "P0 P1 P2 P3 S0 S1 S2 S3 S4 S5 S6 R0 R1 R2 R3",
                    "P0 P1 P2 P3 S0 S1 S2 A S3 A S4 A S5 A S6",
                ],
            ),
            (
                (4, 7),
                [
                    "S0 R0 S1 R1 S2 R2 S3 R3 R4 R5 R6",
                    "P0 P1 P2 P3 P4 P5 P6 S0 S1 S2 S3 R0 R1 R2 R3 R4 R5 R6",
                    "P0 P1 P2 P3 P4 P5 P6 S0 S1 S2 A S3 A A A A A A",
                ],
            ),
            ((0, 0), ["", "", ""]),
        ];
        for ((sends, recvs), want) in table {
            let ex = ChunkedExchange {
                peer: 1,
                base_tag: 0,
                policy: ChunkPolicy::new(CAP).unwrap(),
                send_total: total(sends),
                recv_total: total(recvs),
            };
            for (mode, want) in MODES.into_iter().zip(want) {
                assert_eq!(render(&ex.ops(mode)), want, "{mode:?} {sends}/{recvs}");
            }
        }
    }

    #[test]
    fn drive_packs_and_consumes_in_the_order_of_its_op_list() {
        // Under lazy packing a chunk is packed as it is sent, so on a
        // fault-free universe (no chunk overtakes another, no catch-up
        // send) the callbacks replay the list: `Send(i)` as pack `i`,
        // `Recv(i)` as consume `i`. A streamed receive is `RecvAny`.
        let policy = ChunkPolicy::new(CAP).unwrap();
        for (sends, recvs) in [(3, 3), (1, 1), (3, 0), (7, 4), (0, 0)] {
            for mode in MODES {
                Universe::new(2).run(|c| {
                    let (mine, theirs) = if c.rank() == 0 {
                        (sends, recvs)
                    } else {
                        (recvs, sends)
                    };
                    let ex = ChunkedExchange {
                        peer: 1 - c.rank(),
                        base_tag: 6,
                        policy,
                        send_total: total(mine),
                        recv_total: total(theirs),
                    };
                    let seen = std::cell::RefCell::new(Vec::new());
                    let chunk = |range: Range<usize>| range.start / CAP;
                    drive(
                        c,
                        mode,
                        ex,
                        PackOrder::Lazy,
                        &mut (),
                        |_, range, out| {
                            out.resize(range.len(), 0);
                            seen.borrow_mut().push(ChunkOp::Send(chunk(range)));
                        },
                        |_, range, _| {
                            let op = match mode {
                                ExchangeMode::Streamed => ChunkOp::RecvAny,
                                _ => ChunkOp::Recv(chunk(range)),
                            };
                            seen.borrow_mut().push(op);
                        },
                    )
                    .unwrap();
                    let mut want = ex.ops(mode);
                    want.retain(|op| !matches!(op, ChunkOp::Post(_)));
                    let seen = render(&seen.into_inner());
                    assert_eq!(seen, render(&want), "{mode:?} {mine}/{theirs}");
                });
            }
        }
    }

    #[test]
    fn every_mode_roundtrips_every_payload_shape() {
        // Many chunks, exactly one chunk, one byte of spillover, a payload
        // far below the cap, and the empty exchange (legal).
        for (len, cap) in [(1000usize, 64usize), (64, 64), (65, 64), (1, 1024), (0, 16)] {
            let policy = ChunkPolicy::new(cap).unwrap();
            for mode in MODES {
                Universe::new(2).run(|c| {
                    let peer = 1 - c.rank();
                    let send: Vec<u8> = (0..len).map(|i| (i + c.rank() * 7) as u8).collect();
                    let mut recv = Vec::new();
                    exchange(mode, c, peer, 3, &send, &mut recv, len, policy).unwrap();
                    let expected: Vec<u8> = (0..len).map(|i| (i + peer * 7) as u8).collect();
                    assert_eq!(recv, expected, "{mode:?} len {len} cap {cap}");
                });
            }
        }
    }

    /// Drives a symmetric `total`-byte exchange, returning the order
    /// chunks were consumed in and the reassembled peer payload.
    fn drive_recording(
        c: &mut Communicator,
        mode: ExchangeMode,
        order: PackOrder,
        send: &[u8],
        policy: ChunkPolicy,
    ) -> (Vec<usize>, Vec<u8>) {
        let total = send.len();
        let ex = ChunkedExchange {
            peer: 1 - c.rank(),
            base_tag: 4,
            policy,
            send_total: total,
            recv_total: total,
        };
        let mut got = (Vec::new(), vec![0u8; total]);
        drive(
            c,
            mode,
            ex,
            order,
            &mut got,
            |_, range, out| out.extend_from_slice(&send[range]),
            |(seen, assembled), range, payload| {
                seen.push(range.start / policy.max_message_bytes);
                assembled[range].copy_from_slice(payload);
            },
        )
        .unwrap();
        got
    }

    #[test]
    fn every_mode_and_pack_order_yields_every_chunk_exactly_once() {
        let policy = ChunkPolicy::new(32).unwrap();
        for mode in MODES {
            for order in [PackOrder::Lazy, PackOrder::Eager] {
                Universe::new(2).run(|c| {
                    let peer = 1 - c.rank();
                    let send: Vec<u8> = (0..300).map(|i| (i + c.rank() * 11) as u8).collect();
                    let (mut seen, assembled) = drive_recording(c, mode, order, &send, policy);
                    seen.sort_unstable();
                    assert_eq!(seen, (0..policy.num_chunks(300)).collect::<Vec<_>>());
                    let expected: Vec<u8> = (0..300).map(|i| (i + peer * 11) as u8).collect();
                    assert_eq!(assembled, expected, "{mode:?} {order:?}");
                });
            }
        }
    }

    #[test]
    fn lazy_packing_reads_the_state_no_later_than_its_chunk_is_overwritten() {
        // The state is one buffer that is both packed from and consumed
        // into, chunk for chunk (the shape of a distributed 1q combine).
        // Under delay jitter the streamed mode completes chunks the rank
        // has not sent yet; the driver must pack them first.
        let total = 480usize;
        let policy = ChunkPolicy::new(16).unwrap();
        let trade = |c: &mut Communicator, mode: ExchangeMode| {
            let mut state: Vec<u8> = (0..total).map(|i| (i * 3 + c.rank() * 17) as u8).collect();
            let ex = ChunkedExchange {
                peer: 1 - c.rank(),
                base_tag: 8,
                policy,
                send_total: total,
                recv_total: total,
            };
            drive(
                c,
                mode,
                ex,
                PackOrder::Lazy,
                &mut state,
                |st, range, out| out.extend_from_slice(&st[range]),
                |st, range, payload| st[range].copy_from_slice(payload),
            )
            .unwrap();
            let peer = 1 - c.rank();
            let expected: Vec<u8> = (0..total).map(|i| (i * 3 + peer * 17) as u8).collect();
            assert_eq!(state, expected, "{mode:?} rank {}", c.rank());
        };
        for mode in [ExchangeMode::Blocking, ExchangeMode::NonBlocking] {
            Universe::new(2).run(|c| trade(c, mode));
        }
        for seed in [11u64, 23, 47, 101] {
            let universe = Universe::with_faults(2, delay_jitter(seed)).unwrap();
            universe.run(|c| trade(c, ExchangeMode::Streamed));
        }
    }

    #[test]
    fn a_short_chunk_is_a_typed_error_before_the_consumer_runs() {
        // Rank 1 cuts its payload under a different cap, so rank 0's
        // second chunk arrives 8 bytes long where 16 are expected.
        for mode in MODES {
            let out = Universe::new(2).run(|c| {
                if c.rank() == 1 {
                    c.send(0, chunk_tag(5, 0), &[1u8; 16]).unwrap();
                    c.send(0, chunk_tag(5, 1), &[2u8; 8]).unwrap();
                    return None;
                }
                let ex = ChunkedExchange {
                    peer: 1,
                    base_tag: 5,
                    policy: ChunkPolicy::new(16).unwrap(),
                    send_total: 0,
                    recv_total: 32,
                };
                let mut consumed = Vec::new();
                let err = drive(
                    c,
                    mode,
                    ex,
                    PackOrder::Lazy,
                    &mut consumed,
                    |_, _, _| {},
                    |seen, range, _| seen.push(range),
                )
                .unwrap_err();
                Some((err, consumed))
            });
            let (err, consumed) = out[0].clone().unwrap();
            assert_eq!(
                err,
                CommError::ChunkLength {
                    src: 1,
                    tag: chunk_tag(5, 1),
                    expected: 16,
                    got: 8,
                },
                "{mode:?}"
            );
            assert!(
                !consumed.contains(&(16..32)),
                "{mode:?}: short chunk consumed"
            );
        }
    }

    #[test]
    fn asymmetric_exchange_sizes() {
        // One side sends 100 bytes, the other 50 (half-exchange pattern):
        // no mode may deadlock once the shorter direction runs out.
        for mode in MODES {
            Universe::new(2).run(|c| {
                let peer = 1 - c.rank();
                let my_len = if c.rank() == 0 { 100 } else { 50 };
                let peer_len = if c.rank() == 0 { 50 } else { 100 };
                let send = vec![c.rank() as u8; my_len];
                let mut recv = Vec::new();
                let policy = ChunkPolicy::new(16).unwrap();
                exchange(mode, c, peer, 9, &send, &mut recv, peer_len, policy).unwrap();
                assert_eq!(recv, vec![peer as u8; peer_len], "{mode:?}");
            });
        }
    }

    #[test]
    fn exchange_counters_match_policy_in_every_mode() {
        for mode in MODES {
            let stats = Universe::new(2).run(|c| {
                let peer = 1 - c.rank();
                let send = vec![0u8; 256];
                let mut recv = Vec::new();
                let policy = ChunkPolicy::new(64).unwrap();
                exchange(mode, c, peer, 0, &send, &mut recv, 256, policy).unwrap();
                c.barrier();
                c.stats()
            });
            for s in stats {
                assert_eq!(s.messages_sent, 4, "{mode:?}"); // 256 / 64
                assert_eq!(s.bytes_sent, 256);
                assert_eq!(s.bytes_received, 256);
                assert_eq!(s.bytes_exchanged, 256, "exchange payload tracked");
                // Only the streamed ordering reports its pipeline.
                let streamed = mode == ExchangeMode::Streamed;
                assert_eq!(s.exchange_chunks, if streamed { 4 } else { 0 });
                assert_eq!(s.peak_inflight_bytes > 0, streamed);
                assert!(s.peak_inflight_bytes <= 2 * 64, "{mode:?}");
            }
        }
    }

    #[test]
    fn streamed_completion_order_shuffles_under_delay_jitter() {
        // Held-back chunks let later chunks overtake them, so wait_any
        // hands chunks back out of posting order; the per-chunk byte
        // ranges must still compose into exactly the peer's buffer.
        let total = 600usize;
        let policy = ChunkPolicy::new(16).unwrap();
        let mut saw_reorder = false;
        for seed in [11u64, 23, 47, 101] {
            let universe = Universe::with_faults(2, delay_jitter(seed)).unwrap();
            let orders = universe.run(|c| {
                let peer = 1 - c.rank();
                let send: Vec<u8> = (0..total).map(|i| (i * 3 + c.rank() * 17) as u8).collect();
                let (order, assembled) =
                    drive_recording(c, ExchangeMode::Streamed, PackOrder::Lazy, &send, policy);
                let expected: Vec<u8> = (0..total).map(|i| (i * 3 + peer * 17) as u8).collect();
                assert_eq!(assembled, expected, "seed {seed} reassembly broke");
                order
            });
            for order in orders {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..policy.num_chunks(total)).collect::<Vec<_>>());
                if order.windows(2).any(|w| w[0] > w[1]) {
                    saw_reorder = true;
                }
            }
        }
        assert!(
            saw_reorder,
            "delay jitter never reordered a chunk on any seed"
        );
    }

    #[test]
    fn every_mode_survives_recoverable_faults() {
        // Full fault cocktail (delay + corruption + transient failures),
        // recoverable by construction: each strategy must deliver exactly
        // the fault-free bytes.
        for mode in MODES {
            for seed in [5u64, 9, 31] {
                let universe =
                    Universe::with_faults(2, crate::FaultConfig::recoverable(seed)).unwrap();
                let out = universe.run(|c| {
                    let peer = 1 - c.rank();
                    let send: Vec<u8> = (0..500).map(|i| (i * 7 + c.rank()) as u8).collect();
                    let mut recv = Vec::new();
                    let policy = ChunkPolicy::new(64).unwrap();
                    exchange(mode, c, peer, 2, &send, &mut recv, 500, policy).unwrap();
                    c.barrier();
                    (recv, c.stats().faults_injected)
                });
                let mut injected_total = 0;
                for (rank, (recv, injected)) in out.into_iter().enumerate() {
                    let peer = 1 - rank;
                    let expected: Vec<u8> = (0..500).map(|i| (i * 7 + peer) as u8).collect();
                    assert_eq!(recv, expected, "mode {mode:?} seed {seed} rank {rank}");
                    injected_total += injected;
                }
                assert!(injected_total > 0, "plan {seed} never fired a fault");
            }
        }
    }
}
