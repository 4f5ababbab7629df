//! Static plan & protocol verifier: prove exchange schedules safe
//! *before* they run.
//!
//! At run time the universe is only fail-stop ([`qse_comm::failstop`]): a
//! mismatched tag or an over-budget streamed ring would still cost a
//! receive timeout on the machine that hits it, and nothing at run time
//! names which ranks are stuck on what. This module proves such schedules
//! absent before they run by abstractly interpreting a compiled execution
//! plan — circuits, transpiled [`Plan`] /
//! [`PlanStep`] permutations, and all three [`ExchangeMode`]s — and
//! symbolically deriving every rank's communication trace (ordered
//! sends / receives with peer, tag, and byte size) for a given rank
//! count, **without executing anything**. It consumes the engine's own
//! lowering ([`qse_circuit::lower`]): each distributed gate's per-rank
//! exchange list and each `Permute` step's block map, under the shared
//! [`TagSeq`] (every rank takes each step's tags, spectators included),
//! and the chunk driver's own statement of each exchange
//! ([`ChunkedExchange::ops`]): it builds the `ChunkedExchange` the engine
//! drives and turns that list into trace events, so it has no ordering
//! of its own.
//!
//! Four properties are proved over the derived traces:
//!
//! 1. **Protocol matching** — every posted send has exactly one matching
//!    receive with identical tag and byte size (and no wire tag is ever
//!    posted twice on the same edge).
//! 2. **Deadlock freedom** — a scheduler simulation over trace prefixes
//!    (sends buffer, receives block) always drains; a stuck state is
//!    reported with a per-rank wait-for diagnosis naming the plan step.
//! 3. **Buffer bounds** — streamed-mode peak in-flight receive bytes
//!    never exceed `ring_depth × chunk_size`, and permutation staging
//!    writes every destination slot exactly once (no scratch aliasing),
//!    proved once per `Permute` step as injectivity of its n-bit map —
//!    O(n), at every slice size.
//! 4. **Layout soundness** — the qubit permutation tracked through
//!    `comm_avoid` plan steps composes to exactly [`Plan::layout`] (the
//!    identity after `with_layout_restored`), replayed independently of
//!    the transpiler, so measurement indices are provably correct.
//!
//! The byte totals of the symbolic trace are exact, not estimates: the
//! per-rank [`predicted `bytes_exchanged``](RankTrace::predicted_exchanged)
//! must equal the runtime [`qse_comm::TrafficStats::bytes_exchanged`]
//! bit-for-bit, and the statevector property suites pin that equality.

use qse_circuit::classify::{GateClass, Layout, BYTES_PER_AMP};
use qse_circuit::lower::{lower_gate, BlockMap};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::{Circuit, Gate, Permutation};
use qse_comm::chunking::{
    chunk_tag, ChunkOp, ChunkedExchange, DistConfig, ExchangeMode, TagSeq, ONE_SIDED_MODE,
};
use std::fmt;

/// One symbolic communication operation in a rank's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Buffered send of `bytes` to `peer` under wire tag `tag`.
    Send { peer: usize, tag: u64, bytes: usize },
    /// Blocking receive of `bytes` from `peer` under wire tag `tag`.
    Recv { peer: usize, tag: u64, bytes: usize },
    /// Streamed `wait_any`: completes when *any* not-yet-received chunk
    /// of receive group `group` (see [`RankTrace::groups`]) arrives.
    RecvAny { peer: usize, group: usize },
}

/// A trace operation tagged with the plan step that generated it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index into [`TraceSet::step_labels`] (plan step index).
    pub step: usize,
    pub op: TraceOp,
}

/// The chunk set a streamed exchange posts up front: `wait_any` may
/// complete its members in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvGroup {
    pub peer: usize,
    /// `(wire tag, bytes)` of every posted receive chunk.
    pub chunks: Vec<(u64, usize)>,
}

/// A streamed exchange's scratch obligation: the receive ring cycles
/// `ring_depth` slots over these chunk payloads, so peak in-flight bytes
/// are the sum of the `ring_depth` largest chunks and must stay within
/// `ring_depth × cap_bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedWindow {
    pub rank: usize,
    pub step: usize,
    pub ring_depth: usize,
    /// The aligned per-chunk byte cap in force for this exchange.
    pub cap_bytes: usize,
    pub chunk_bytes: Vec<usize>,
}

/// One rank's derived trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTrace {
    pub events: Vec<TraceEvent>,
    pub groups: Vec<RecvGroup>,
    /// Exact prediction of this rank's
    /// [`qse_comm::TrafficStats::bytes_exchanged`] after running the
    /// plan (the runtime records the *sent* side of every exchange).
    pub predicted_exchanged: u64,
}

/// Every rank's symbolic trace plus the buffer-bound obligations,
/// ready for [`check_traces`]. Fields are public so tests and the CLI
/// can fabricate deliberately broken trace sets and watch them bounce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    pub n_ranks: usize,
    /// Human-readable label per plan step, indexed by `TraceEvent::step`.
    /// Empty in derived sets: [`verify_plan`] labels a diagnosis from the
    /// plan only when it returns one.
    pub step_labels: Vec<String>,
    pub ranks: Vec<RankTrace>,
    pub windows: Vec<StreamedWindow>,
}

/// A rank blocked at a specific trace position, for deadlock diagnoses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRank {
    pub rank: usize,
    pub step: usize,
    pub label: String,
    /// What the rank is waiting on, e.g. `recv(peer=2, tag=12884901888)`.
    pub waiting_on: String,
}

/// A proof obligation that failed, with enough structure for tests to
/// assert on and a [`fmt::Display`] that names the offending plan step.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The same wire tag was posted twice on one directed edge.
    TagCollision {
        src: usize,
        dst: usize,
        tag: u64,
        first_step: usize,
        second_step: usize,
        label: String,
    },
    /// A send has no matching receive on the destination rank.
    UnmatchedSend {
        src: usize,
        dst: usize,
        tag: u64,
        bytes: usize,
        step: usize,
        label: String,
    },
    /// A posted receive that no send ever satisfies.
    UnmatchedRecv {
        dst: usize,
        src: usize,
        tag: u64,
        bytes: usize,
        step: usize,
        label: String,
    },
    /// Send and receive match on tag but disagree on byte size.
    SizeMismatch {
        src: usize,
        dst: usize,
        tag: u64,
        sent: usize,
        expected: usize,
        step: usize,
        label: String,
    },
    /// The scheduler simulation got stuck: per-rank wait-for diagnosis.
    Deadlock { blocked: Vec<BlockedRank> },
    /// A streamed exchange's peak in-flight bytes exceed the ring budget.
    RingOverrun {
        rank: usize,
        step: usize,
        peak_bytes: usize,
        budget_bytes: usize,
        label: String,
    },
    /// Permutation staging would write a destination slot twice (or miss
    /// one): scratch aliases live amplitude ranges.
    ScratchAlias {
        rank: usize,
        step: usize,
        detail: String,
        label: String,
    },
    /// The permutations in the plan do not compose to `Plan::layout`.
    LayoutDrift { expected: Vec<u32>, found: Vec<u32> },
    /// Lockstep replay of the original circuit disagrees with a plan
    /// gate step (or gates were dropped / invented).
    GateMismatch { step: usize, detail: String },
    /// The plan uses a construct the engine (and hence the verifier)
    /// does not support — e.g. a gate operand out of range.
    Unsupported { step: usize, detail: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TagCollision {
                src,
                dst,
                tag,
                first_step,
                second_step,
                label,
            } => write!(
                f,
                "tag collision on edge {src}→{dst}: wire tag {tag} posted by both \
                 step {first_step} and step {second_step} ({label})"
            ),
            VerifyError::UnmatchedSend {
                src,
                dst,
                tag,
                bytes,
                step,
                label,
            } => write!(
                f,
                "unmatched send: rank {src} sends {bytes} B to rank {dst} with tag {tag} \
                 at step {step} ({label}) but rank {dst} never posts a matching receive"
            ),
            VerifyError::UnmatchedRecv {
                dst,
                src,
                tag,
                bytes,
                step,
                label,
            } => write!(
                f,
                "unmatched receive: rank {dst} expects {bytes} B from rank {src} with \
                 tag {tag} at step {step} ({label}) but rank {src} never sends it"
            ),
            VerifyError::SizeMismatch {
                src,
                dst,
                tag,
                sent,
                expected,
                step,
                label,
            } => write!(
                f,
                "size mismatch on edge {src}→{dst} tag {tag}: {sent} B sent but \
                 {expected} B expected, step {step} ({label})"
            ),
            VerifyError::Deadlock { blocked } => {
                write!(f, "static deadlock: no rank can make progress;")?;
                for b in blocked {
                    write!(
                        f,
                        " rank {} blocked on {} at step {} ({});",
                        b.rank, b.waiting_on, b.step, b.label
                    )?;
                }
                Ok(())
            }
            VerifyError::RingOverrun {
                rank,
                step,
                peak_bytes,
                budget_bytes,
                label,
            } => write!(
                f,
                "streamed ring overrun on rank {rank}: peak in-flight {peak_bytes} B \
                 exceeds ring budget {budget_bytes} B at step {step} ({label})"
            ),
            VerifyError::ScratchAlias {
                rank,
                step,
                detail,
                label,
            } => write!(
                f,
                "permutation scratch aliasing on rank {rank} at step {step} ({label}): {detail}"
            ),
            VerifyError::LayoutDrift { expected, found } => write!(
                f,
                "layout drift: plan permutations compose to {found:?} but Plan::layout \
                 declares {expected:?} — measurement indices would be wrong"
            ),
            VerifyError::GateMismatch { step, detail } => {
                write!(f, "gate mismatch at step {step}: {detail}")
            }
            VerifyError::Unsupported { step, detail } => {
                write!(f, "unsupported construct at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Summary of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    pub n_ranks: usize,
    /// Total trace events across all ranks.
    pub events: usize,
    /// Distributed (communicating) gate steps interpreted.
    pub distributed_gates: usize,
    /// Global `Permute` steps that actually hit the wire.
    pub wire_permutes: usize,
    /// Total bytes posted on the wire across all ranks.
    pub bytes_on_wire: u64,
    /// Exact per-rank prediction of `TrafficStats.bytes_exchanged`.
    pub predicted_exchanged: Vec<u64>,
}

// ---------------------------------------------------------------------
// Trace derivation: the abstract interpreter.
// ---------------------------------------------------------------------

struct RankDeriver<'a> {
    rank: u64,
    layout: Layout,
    plan: &'a Plan,
    opts: &'a DistConfig,
    tags: TagSeq,
    step: usize,
    trace: RankTrace,
    windows: Vec<StreamedWindow>,
    /// Distributed gates and wire `Permute` steps met so far — the same
    /// on every rank, since every rank lowers every step.
    counts: StepCounts,
}

/// How many steps of a plan communicate.
#[derive(Debug, Clone, Copy, Default)]
struct StepCounts {
    distributed_gates: usize,
    wire_permutes: usize,
}

impl<'a> RankDeriver<'a> {
    fn new(rank: u64, layout: Layout, plan: &'a Plan, opts: &'a DistConfig) -> Self {
        RankDeriver {
            rank,
            layout,
            plan,
            opts,
            tags: TagSeq::default(),
            step: 0,
            trace: RankTrace::default(),
            windows: Vec::new(),
            counts: StepCounts::default(),
        }
    }

    fn push(&mut self, op: TraceOp) {
        self.trace.events.push(TraceEvent {
            step: self.step,
            op,
        });
    }

    /// Traces this rank's side `ex` of one chunked exchange under `mode`:
    /// the driver's own list ([`ChunkedExchange::ops`]), one event per
    /// send and blocking receive. A posted receive does not block; the
    /// receives a mode with a ring posts become the exchange's
    /// [`RecvGroup`], which its `RecvAny`s wait on, and its
    /// [`StreamedWindow`].
    fn exchange(&mut self, mode: ExchangeMode, ex: ChunkedExchange) {
        let peer = ex.peer;
        // `(wire tag, bytes)` of chunk `i` of a `total`-byte direction.
        let chunk = |i, total| {
            let bytes = ex.policy.chunk_range(i, total).map_or(0, |r| r.len());
            (chunk_tag(ex.base_tag, i), bytes)
        };
        let group = self.trace.groups.len();
        let mut posted = Vec::new();
        for op in ex.ops(mode) {
            match op {
                ChunkOp::Post(i) => posted.push(chunk(i, ex.recv_total)),
                ChunkOp::Send(i) => {
                    let (tag, bytes) = chunk(i, ex.send_total);
                    self.push(TraceOp::Send { peer, tag, bytes });
                }
                ChunkOp::Recv(i) => {
                    let (tag, bytes) = chunk(i, ex.recv_total);
                    self.push(TraceOp::Recv { peer, tag, bytes });
                }
                ChunkOp::RecvAny => self.push(TraceOp::RecvAny { peer, group }),
            }
        }
        if let Some(ring_depth) = mode.ring_depth() {
            self.windows.push(StreamedWindow {
                rank: self.rank as usize,
                step: self.step,
                ring_depth,
                cap_bytes: ex.policy.max_message_bytes,
                chunk_bytes: posted.iter().map(|&(_, b)| b).collect(),
            });
            self.trace.groups.push(RecvGroup {
                peer,
                chunks: posted,
            });
        }
        self.trace.predicted_exchanged += ex.send_total as u64;
    }

    /// Turns the engine's lowering of `g` on this rank into trace events.
    fn gate(&mut self, g: &Gate) -> Result<(), VerifyError> {
        let lowered = lower_gate(g, &self.layout, self.rank, self.opts.half_exchange_swaps)
            .map_err(|e| VerifyError::Unsupported {
                step: self.step,
                detail: e.to_string(),
            })?;
        self.counts.distributed_gates += usize::from(lowered.class == GateClass::Distributed);
        let tag = self.tags.take(lowered.tags);
        let (mode, policy) = (self.opts.exchange_mode, self.opts.chunk_policy);
        for ex in lowered.exchanges() {
            let bytes = (ex.amps * BYTES_PER_AMP) as usize;
            let unit_bytes = (ex.unit * BYTES_PER_AMP) as usize;
            let ex = ChunkedExchange {
                peer: ex.peer as usize,
                base_tag: tag(ex.tag),
                policy: mode.policy(policy, unit_bytes),
                send_total: bytes,
                recv_total: bytes,
            };
            self.exchange(mode, ex);
        }
        Ok(())
    }

    /// Turns the engine's block map of `perm` into trace events: eager
    /// sends of every peer block, chunked, then the receives — each half
    /// under [`ONE_SIDED_MODE`] with one side empty, as the engine drives
    /// it. A step that moves no rank bit consumes no tag.
    fn permute(&mut self, perm: &Permutation) -> Result<(), VerifyError> {
        if perm.len() != self.layout.n_qubits() {
            return Err(VerifyError::Unsupported {
                step: self.step,
                detail: format!(
                    "permutation width {} does not match register width {}",
                    perm.len(),
                    self.layout.n_qubits()
                ),
            });
        }
        let l = self.layout.local_qubits();
        if self.rank == 0 {
            // Rank-independent, so proved once per step.
            let images: Vec<u32> = (0..perm.len()).map(|q| perm.apply(q)).collect();
            check_write_once(&images, l, self.step, || step_label(self.plan, self.step))?;
        }
        let blocks = BlockMap::new(perm, l);
        if blocks.tags() == 0 {
            return Ok(());
        }
        self.counts.wire_permutes += 1;
        let tag = self.tags.take(blocks.tags())(0);
        let bytes = (blocks.block_amps() * BYTES_PER_AMP) as usize;
        let half = |peer: u64, send_total, recv_total| ChunkedExchange {
            peer: peer as usize,
            base_tag: tag,
            policy: self.opts.chunk_policy,
            send_total,
            recv_total,
        };
        let (me, ranks) = (self.rank, self.layout.n_ranks());
        for (v, _) in blocks.sends(me, ranks) {
            self.exchange(ONE_SIDED_MODE, half(v, bytes, 0));
        }
        for (w, _) in blocks.receives(me, ranks) {
            self.exchange(ONE_SIDED_MODE, half(w, 0, bytes));
        }
        Ok(())
    }
}

/// The write-once proof for one `Permute` step, over its raw image list
/// (bit `q` of an amplitude index moves to bit `images[q]`), so tests
/// can pass maps [`Permutation::from_map`] refuses to build.
///
/// [`Permutation::permute_index`] maps [0, 2ⁿ) one-to-one onto itself —
/// the in-place exchange writes every slot of every rank's slice exactly
/// once — exactly when the bit map is injective on `0..n` with images
/// below `n`. An n-bit occupancy mask proves that in O(n) at any slice
/// size; a failure names the first offending bit (or pair of bits) and
/// the rank owning index `1 << bit`, the first index it breaks.
fn check_write_once(
    images: &[u32],
    local_qubits: u32,
    step: usize,
    label: impl FnOnce() -> String,
) -> Result<(), VerifyError> {
    let n = images.len() as u32;
    let mut occupied = 0u64;
    for (q, &image) in (0u32..).zip(images) {
        let (bit, detail) = if image >= n {
            (
                q,
                format!("bit {q} maps to bit {image}, outside the {n}-qubit register"),
            )
        } else if (occupied >> image) & 1 == 1 {
            let first = images.iter().position(|&i| i == image).unwrap_or(0);
            let slot = (1u64 << image) & ((1u64 << local_qubits) - 1);
            let twice = format!("slice slot {slot} written twice");
            (
                image,
                format!("bits {first} and {q} both map to bit {image}: {twice}"),
            )
        } else {
            occupied |= 1 << image;
            continue;
        };
        let rank = ((1u64 << bit) >> local_qubits) as usize;
        return Err(VerifyError::ScratchAlias {
            rank,
            step,
            detail,
            label: label(),
        });
    }
    Ok(())
}

/// The label a diagnosis gives plan step `step`, built on the error path
/// only (formatting every gate up front, unitary matrices included, cost
/// more than deriving the traces).
fn step_label(plan: &Plan, step: usize) -> String {
    match plan.steps.get(step) {
        Some(PlanStep::Gate(g)) => format!("plan step {step}: gate {g:?}"),
        Some(PlanStep::Permute(p)) => {
            format!("plan step {step}: permute {:?}", p.as_transpositions())
        }
        None => format!("step {step}"),
    }
}

/// Derives every rank's symbolic trace for `plan` at `n_ranks` ranks.
///
/// `n_ranks` must be a power of two at most `2^n_qubits` (the engine's
/// own layout constraint).
pub fn derive_traces(
    plan: &Plan,
    n_ranks: u64,
    opts: &DistConfig,
) -> Result<TraceSet, VerifyError> {
    derive(plan, n_ranks, opts).map(|(ts, _)| ts)
}

/// [`derive_traces`], counting the plan's communicating steps on the way.
fn derive(
    plan: &Plan,
    n_ranks: u64,
    opts: &DistConfig,
) -> Result<(TraceSet, StepCounts), VerifyError> {
    let layout =
        Layout::try_new(plan.n_qubits(), n_ranks).map_err(|_| VerifyError::Unsupported {
            step: 0,
            detail: format!(
                "{n_ranks} ranks is not a power of two within 2^{}",
                plan.n_qubits()
            ),
        })?;
    let mut ts = TraceSet {
        n_ranks: n_ranks as usize,
        step_labels: Vec::new(),
        ranks: Vec::with_capacity(n_ranks as usize),
        windows: Vec::new(),
    };
    let mut counts = StepCounts::default();
    for rank in 0..n_ranks {
        let mut d = RankDeriver::new(rank, layout, plan, opts);
        // Step by step, as `run_plan` executes the plan: a run of local
        // gates the engine applies in one pass communicates no more than
        // its gates one at a time — nothing.
        for (i, step) in plan.steps.iter().enumerate() {
            d.step = i;
            match step {
                PlanStep::Gate(g) => d.gate(g)?,
                PlanStep::Permute(p) => d.permute(p)?,
            }
        }
        ts.windows.extend(d.windows);
        ts.ranks.push(d.trace);
        counts = d.counts;
    }
    Ok((ts, counts))
}

// ---------------------------------------------------------------------
// Property 1: protocol matching.
// ---------------------------------------------------------------------

/// A posted send, or a posted receive (a `Recv` or a streamed group's
/// chunk), keyed `(src, dst, tag)`. Kept small: the lists are as long as
/// the trace, and on long traces touching fresh pages costs more than
/// sorting them.
#[derive(Clone, Copy)]
struct Post {
    key: (usize, usize, u64),
    bytes: usize,
    /// Posting order over the set: the collision reported is the first.
    seq: usize,
    /// Index of the posting event in the posting rank's trace.
    at: usize,
}

/// Property 1 as one merge: sends and receive posts sorted by `(src, dst,
/// tag)` are walked side by side. Returns what the deadlock simulation
/// needs: per rank and event, the index in the peer's trace of the send
/// a receive waits for.
fn check_protocol(
    ts: &TraceSet,
    label: &dyn Fn(usize) -> String,
) -> Result<Vec<Vec<usize>>, VerifyError> {
    let events = ts.ranks.iter().map(|tr| tr.events.len()).sum();
    let (mut sends, mut recvs) = (Vec::with_capacity(events), Vec::with_capacity(events));
    let mut seq = 0;
    for (rank, tr) in ts.ranks.iter().enumerate() {
        let mut posted = vec![false; tr.groups.len()];
        for (at, ev) in tr.events.iter().enumerate() {
            let mut post = |list: &mut Vec<Post>, key, bytes| {
                list.push(Post {
                    key,
                    bytes,
                    seq,
                    at,
                });
                seq += 1;
            };
            match ev.op {
                TraceOp::Send { peer, tag, bytes } => post(&mut sends, (rank, peer, tag), bytes),
                TraceOp::Recv { peer, tag, bytes } => post(&mut recvs, (peer, rank, tag), bytes),
                TraceOp::RecvAny { peer, group } => {
                    // A group's chunks are posted once, at its first
                    // wait; later waits reference the same posts.
                    if !std::mem::replace(&mut posted[group], true) {
                        for &(tag, bytes) in &tr.groups[group].chunks {
                            post(&mut recvs, (peer, rank, tag), bytes);
                        }
                    }
                }
            }
        }
    }
    // Unique sort keys, so equal edge tags stay in posting order without
    // a stable sort's scratch buffer.
    sends.sort_unstable_by_key(|p| (p.key, p.seq));
    recvs.sort_unstable_by_key(|p| (p.key, p.seq));
    // Sends are posted by `src`, receives by `dst`.
    let event = |p: &Post, sent: bool| &ts.ranks[if sent { p.key.0 } else { p.key.1 }].events[p.at];

    let collision = [(&sends, true), (&recvs, false)]
        .into_iter()
        .flat_map(|(posts, sent)| {
            let dups = posts.windows(2).filter(|w| w[0].key == w[1].key);
            dups.map(move |w| (w, sent))
        })
        .min_by_key(|(w, _)| w[1].seq);
    if let Some(([first, second], sent)) = collision {
        let (src, dst, tag) = second.key;
        let (first_step, second_step) = (event(first, sent).step, event(second, sent).step);
        let label = label(second_step);
        return Err(VerifyError::TagCollision {
            src,
            dst,
            tag,
            first_step,
            second_step,
            label,
        });
    }

    let mut waits: Vec<Vec<usize>> = ts.ranks.iter().map(|tr| vec![0; tr.events.len()]).collect();
    let mut group_sends: Vec<Vec<Vec<usize>>> = ts
        .ranks
        .iter()
        .map(|tr| vec![Vec::new(); tr.groups.len()])
        .collect();
    // Send-side violations are reported before receive-side ones.
    let mut unmatched_recv = None;
    let (mut si, mut ri) = (0, 0);
    while si < sends.len() || ri < recvs.len() {
        match (sends.get(si), recvs.get(ri)) {
            (Some(s), Some(r)) if s.key == r.key => {
                let ((src, dst, tag), recv) = (s.key, event(r, false));
                if s.bytes != r.bytes {
                    return Err(VerifyError::SizeMismatch {
                        src,
                        dst,
                        tag,
                        sent: s.bytes,
                        expected: r.bytes,
                        step: recv.step,
                        label: label(event(s, true).step),
                    });
                }
                match recv.op {
                    TraceOp::RecvAny { group, .. } => group_sends[dst][group].push(s.at),
                    _ => waits[dst][r.at] = s.at,
                }
                (si, ri) = (si + 1, ri + 1);
            }
            (Some(s), r) if r.is_none_or(|r| s.key < r.key) => {
                let ((src, dst, tag), bytes, step) = (s.key, s.bytes, event(s, true).step);
                let label = label(step);
                return Err(VerifyError::UnmatchedSend {
                    src,
                    dst,
                    tag,
                    bytes,
                    step,
                    label,
                });
            }
            (_, r) => {
                unmatched_recv = unmatched_recv.or(r.copied());
                ri += 1;
            }
        }
    }
    if let Some(r) = unmatched_recv {
        let ((src, dst, tag), bytes, step) = (r.key, r.bytes, event(&r, false).step);
        let label = label(step);
        return Err(VerifyError::UnmatchedRecv {
            dst,
            src,
            tag,
            bytes,
            step,
            label,
        });
    }
    // The peer sends a group's chunks in trace order, so the group's k-th
    // wait completes once the k-th of them has left (never, past the last).
    for ((tr, waits), groups) in ts.ranks.iter().zip(&mut waits).zip(&mut group_sends) {
        groups.iter_mut().for_each(|g| g.sort_unstable());
        let mut next = vec![0; groups.len()];
        for (wait, ev) in waits.iter_mut().zip(&tr.events) {
            if let TraceOp::RecvAny { group, .. } = ev.op {
                *wait = groups[group]
                    .get(next[group])
                    .copied()
                    .unwrap_or(usize::MAX);
                next[group] += 1;
            }
        }
    }
    Ok(waits)
}

// ---------------------------------------------------------------------
// Property 2: deadlock freedom (scheduler simulation).
// ---------------------------------------------------------------------

/// Runs every rank as far as it can, round after round, over a trace set
/// that passed [`check_protocol`]: sends buffer and never block; a
/// receive completes once the peer has executed the send it `waits` for.
fn check_deadlock_freedom(
    ts: &TraceSet,
    waits: &[Vec<usize>],
    label: &dyn Fn(usize) -> String,
) -> Result<(), VerifyError> {
    let mut pc = vec![0usize; ts.ranks.len()];
    loop {
        let mut progressed = false;
        for r in 0..ts.ranks.len() {
            let events = &ts.ranks[r].events;
            while let Some(ev) = events.get(pc[r]) {
                match ev.op {
                    TraceOp::Send { .. } => {}
                    TraceOp::Recv { peer, .. } | TraceOp::RecvAny { peer, .. } => {
                        if pc[peer] <= waits[r][pc[r]] {
                            break;
                        }
                    }
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if pc
            .iter()
            .enumerate()
            .all(|(r, &p)| p == ts.ranks[r].events.len())
        {
            return Ok(());
        }
        if !progressed {
            let blocked = pc
                .iter()
                .enumerate()
                .filter(|&(r, &p)| p < ts.ranks[r].events.len())
                .map(|(r, &p)| {
                    let ev = &ts.ranks[r].events[p];
                    let waiting_on = match ev.op {
                        TraceOp::Send { peer, tag, .. } => {
                            format!("send(peer={peer}, tag={tag})")
                        }
                        TraceOp::Recv { peer, tag, .. } => {
                            format!("recv(peer={peer}, tag={tag})")
                        }
                        TraceOp::RecvAny { peer, group } => {
                            format!("recv_any(peer={peer}, group={group})")
                        }
                    };
                    BlockedRank {
                        rank: r,
                        step: ev.step,
                        label: label(ev.step),
                        waiting_on,
                    }
                })
                .collect();
            return Err(VerifyError::Deadlock { blocked });
        }
    }
}

// ---------------------------------------------------------------------
// Property 3: buffer bounds (streamed ring windows).
// ---------------------------------------------------------------------

fn check_buffer_bounds(ts: &TraceSet, label: &dyn Fn(usize) -> String) -> Result<(), VerifyError> {
    for w in &ts.windows {
        let budget = w.ring_depth * w.cap_bytes;
        // The receive ring cycles `ring_depth` slots round-robin, so the
        // worst simultaneous footprint is the `ring_depth` largest chunks.
        let mut sorted: Vec<usize> = w.chunk_bytes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let peak: usize = sorted.iter().take(w.ring_depth).sum();
        if peak > budget || w.chunk_bytes.iter().any(|&c| c > w.cap_bytes) {
            return Err(VerifyError::RingOverrun {
                rank: w.rank,
                step: w.step,
                peak_bytes: peak.max(*w.chunk_bytes.iter().max().unwrap_or(&0)),
                budget_bytes: budget,
                label: label(w.step),
            });
        }
    }
    Ok(())
}

/// Checks properties 1–3 over an already-derived (or fabricated) trace
/// set: protocol matching, deadlock freedom, buffer bounds. Diagnoses
/// take their labels from [`TraceSet::step_labels`].
pub fn check_traces(ts: &TraceSet) -> Result<(), VerifyError> {
    check_traces_labelled(ts, &|step| match ts.step_labels.get(step) {
        Some(label) => label.clone(),
        None => format!("step {step}"),
    })
}

/// [`check_traces`], labelling a diagnosis's step with `label` — called
/// only once a check has failed.
fn check_traces_labelled(
    ts: &TraceSet,
    label: &dyn Fn(usize) -> String,
) -> Result<(), VerifyError> {
    let waits = check_protocol(ts, label)?;
    check_deadlock_freedom(ts, &waits, label)?;
    check_buffer_bounds(ts, label)
}

// ---------------------------------------------------------------------
// Property 4: layout soundness (independent lockstep replay).
// ---------------------------------------------------------------------

fn transposition(n: u32, a: u32, b: u32) -> Permutation {
    let mut t = Permutation::identity(n);
    t.swap(a, b);
    t
}

/// Replays `plan` against `original` (when given) and proves the layout
/// bookkeeping sound: every `Permute` composes onto the tracked layout,
/// every emitted gate equals the matching original gate relabelled
/// through that layout (input SWAPs may be absorbed virtually), and the
/// final layout equals [`Plan::layout`] — the identity for plans built
/// with `with_layout_restored`, so measurement indices are correct.
pub fn verify_layout(plan: &Plan, original: Option<&Circuit>) -> Result<(), VerifyError> {
    let n = plan.n_qubits();
    let mut l = Permutation::identity(n);
    match original {
        None => {
            for step in &plan.steps {
                if let PlanStep::Permute(p) = step {
                    l = p.compose(&l);
                }
            }
        }
        Some(c) => {
            if c.n_qubits() != n {
                return Err(VerifyError::GateMismatch {
                    step: 0,
                    detail: format!("original circuit has {} qubits, plan has {n}", c.n_qubits()),
                });
            }
            let gates = c.gates();
            let mut oi = 0usize;
            for (si, step) in plan.steps.iter().enumerate() {
                match step {
                    PlanStep::Permute(p) => l = p.compose(&l),
                    PlanStep::Gate(g) => loop {
                        let Some(og) = gates.get(oi) else {
                            return Err(VerifyError::GateMismatch {
                                step: si,
                                detail: format!(
                                    "plan emits {g:?} but the original circuit is exhausted"
                                ),
                            });
                        };
                        let want = og.remap(&|q| l.apply(q));
                        if want == *g {
                            oi += 1;
                            break;
                        }
                        if let Gate::Swap(a, b) = *og {
                            // Absorbed as a virtual relabel by the
                            // transpiler: fold into the layout and retry.
                            l = l.compose(&transposition(n, a, b));
                            oi += 1;
                            continue;
                        }
                        return Err(VerifyError::GateMismatch {
                            step: si,
                            detail: format!(
                                "plan step {si} emits {g:?} but original gate {oi} \
                                 relabels to {want:?}"
                            ),
                        });
                    },
                }
            }
            while let Some(og) = gates.get(oi) {
                let Gate::Swap(a, b) = *og else {
                    return Err(VerifyError::GateMismatch {
                        step: plan.steps.len(),
                        detail: format!("original gate {oi} ({og:?}) never executed by the plan"),
                    });
                };
                l = l.compose(&transposition(n, a, b));
                oi += 1;
            }
        }
    }
    if l != plan.layout {
        return Err(VerifyError::LayoutDrift {
            expected: (0..n).map(|q| plan.layout.apply(q)).collect(),
            found: (0..n).map(|q| l.apply(q)).collect(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Statically verifies `plan` at `n_ranks` ranks under `opts`: layout
/// soundness (against `original` when given), then protocol matching,
/// deadlock freedom, and buffer bounds over the derived traces.
pub fn verify_plan(
    plan: &Plan,
    original: Option<&Circuit>,
    n_ranks: u64,
    opts: &DistConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_layout(plan, original)?;
    let (ts, counts) = derive(plan, n_ranks, opts)?;
    check_traces_labelled(&ts, &|step| step_label(plan, step))?;
    let mut events = 0usize;
    let mut bytes_on_wire = 0u64;
    for tr in &ts.ranks {
        events += tr.events.len();
        for ev in &tr.events {
            if let TraceOp::Send { bytes, .. } = ev.op {
                bytes_on_wire += bytes as u64;
            }
        }
    }
    Ok(VerifyReport {
        n_ranks: n_ranks as usize,
        events,
        distributed_gates: counts.distributed_gates,
        wire_permutes: counts.wire_permutes,
        bytes_on_wire,
        predicted_exchanged: ts.ranks.iter().map(|r| r.predicted_exchanged).collect(),
    })
}

/// Verifies a plain circuit (no transpilation) as the trivial plan.
pub fn verify_circuit(
    circuit: &Circuit,
    n_ranks: u64,
    opts: &DistConfig,
) -> Result<VerifyReport, VerifyError> {
    let plan = Plan::from_circuit(circuit, Permutation::identity(circuit.n_qubits()));
    verify_plan(&plan, Some(circuit), n_ranks, opts)
}

// ---------------------------------------------------------------------
// Deliberately broken fixtures: the verifier must bite on these.
// ---------------------------------------------------------------------

/// A trace set with a wire-tag collision on edge 0→1 (two sends, one
/// matching receive): property 1 must reject it.
pub fn broken_fixture_tag_collision() -> TraceSet {
    let tag = chunk_tag(7, 0);
    TraceSet {
        n_ranks: 2,
        step_labels: vec![
            "plan step 0: gate H(3)".into(),
            "plan step 1: gate CNot { control: 0, target: 3 }".into(),
        ],
        ranks: vec![
            RankTrace {
                events: vec![
                    TraceEvent {
                        step: 0,
                        op: TraceOp::Send {
                            peer: 1,
                            tag,
                            bytes: 128,
                        },
                    },
                    TraceEvent {
                        step: 1,
                        op: TraceOp::Send {
                            peer: 1,
                            tag,
                            bytes: 128,
                        },
                    },
                ],
                groups: Vec::new(),
                predicted_exchanged: 256,
            },
            RankTrace {
                events: vec![TraceEvent {
                    step: 0,
                    op: TraceOp::Recv {
                        peer: 0,
                        tag,
                        bytes: 128,
                    },
                }],
                groups: Vec::new(),
                predicted_exchanged: 0,
            },
        ],
        windows: Vec::new(),
    }
}

/// A trace set whose streamed window exceeds `ring_depth × chunk_size`:
/// property 3 must reject it.
pub fn broken_fixture_ring_overrun() -> TraceSet {
    TraceSet {
        n_ranks: 2,
        step_labels: vec!["plan step 0: gate H(9) (streamed)".into()],
        ranks: vec![RankTrace::default(), RankTrace::default()],
        windows: vec![StreamedWindow {
            rank: 1,
            step: 0,
            ring_depth: 2,
            cap_bytes: 1 << 10,
            // Three over-cap chunks: peak 2 × 4096 > budget 2 × 1024.
            chunk_bytes: vec![4096, 4096, 4096],
        }],
    }
}

/// A plan whose trailing permutation fails to restore the layout it
/// declares: property 4 must reject it.
pub fn broken_fixture_unrestored_layout() -> Plan {
    let mut c = Circuit::new(4);
    c.h(0).cnot(0, 3);
    let mut plan = Plan::from_circuit(&c, Permutation::identity(4));
    // Claim the identity layout but leave a live bit-reversal permute in
    // the step list — measurement indices would silently be wrong.
    plan.steps.push(PlanStep::Permute(Permutation::reversal(4)));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::hash::Fnv1a;
    use qse_circuit::qft::qft;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};
    use qse_comm::chunking::ChunkPolicy;

    fn opts_for(mode: ExchangeMode) -> DistConfig {
        DistConfig {
            exchange_mode: mode,
            ..DistConfig::default()
        }
    }

    #[test]
    fn qft_traces_verify_in_every_mode() {
        let c = qft(6);
        for mode in [
            ExchangeMode::Blocking,
            ExchangeMode::NonBlocking,
            ExchangeMode::Streamed,
        ] {
            for ranks in [1u64, 2, 4, 8] {
                let report = verify_circuit(&c, ranks, &opts_for(mode)).unwrap();
                if ranks == 1 {
                    assert_eq!(report.events, 0, "single rank never communicates");
                }
            }
        }
    }

    #[test]
    fn random_circuits_verify_across_ranks() {
        for seed in 0..4 {
            let c = random_circuit(7, 50, GatePool::Full, seed);
            let plan = Plan::from_circuit(&c, Permutation::identity(7));
            for ranks in [1u64, 2, 4, 8] {
                verify_plan(&plan, Some(&c), ranks, &DistConfig::default()).unwrap();
            }
        }
    }

    #[test]
    fn spectator_ranks_stay_silent_but_consume_tags() {
        // A globally-controlled gate: ranks with the control bit clear
        // must post nothing, yet later distributed gates must still
        // pair up (tag sequence shared by all ranks).
        let mut c = Circuit::new(5);
        c.cnot(3, 4); // global control (qubit 3), global target: Distributed
        c.h(3); // distributed afterwards
        let ts = derive_traces(
            &Plan::from_circuit(&c, Permutation::identity(5)),
            4,
            &DistConfig::default(),
        )
        .unwrap();
        // Ranks 0 and 2 (control bit clear) spectate the CNot; ranks 1
        // and 3 exchange. Everyone exchanges for the H.
        let sends = |r: usize| {
            ts.ranks[r]
                .events
                .iter()
                .filter(|e| matches!(e.op, TraceOp::Send { .. }))
                .count()
        };
        assert_eq!(sends(0), sends(1) - 1);
        assert_eq!(sends(2), sends(3) - 1);
        check_traces(&ts).unwrap();
    }

    #[test]
    fn both_global_unitary2_decomposes_into_three_exchanges() {
        let m = qse_math::Matrix4::swap();
        let mut c = Circuit::new(6);
        c.push(Gate::Unitary2 {
            a: 4,
            b: 5,
            matrix: m,
        });
        let report = verify_circuit(&c, 4, &DistConfig::default()).unwrap();
        // Three pairwise exchanges per rank (swap, unitary, swap).
        assert_eq!(report.distributed_gates, 1);
        let full = 16u64 * (1 << 4); // local_amps × BYTES_PER_AMP
        assert_eq!(report.predicted_exchanged, vec![3 * full; 4]);
    }

    #[test]
    fn half_exchange_swaps_halve_predicted_traffic() {
        let mut c = Circuit::new(6);
        c.swap(0, 5);
        let full = verify_circuit(&c, 4, &DistConfig::default()).unwrap();
        let half = verify_circuit(
            &c,
            4,
            &DistConfig {
                half_exchange_swaps: true,
                ..DistConfig::default()
            },
        )
        .unwrap();
        for (f, h) in full
            .predicted_exchanged
            .iter()
            .zip(&half.predicted_exchanged)
        {
            assert_eq!(*f, 2 * h);
        }
    }

    #[test]
    fn comm_avoid_plans_verify_with_layout_restored() {
        let c = qft(7);
        for strategy in [Strategy::Greedy, Strategy::beam()] {
            let layout = Layout::new(7, 4);
            let plan = comm_avoid(&c, &layout, strategy, &ByteOracle).with_layout_restored();
            for mode in [
                ExchangeMode::Blocking,
                ExchangeMode::NonBlocking,
                ExchangeMode::Streamed,
            ] {
                verify_plan(&plan, Some(&c), 4, &opts_for(mode)).unwrap();
            }
        }
    }

    #[test]
    fn permutation_block_model_matches_exhaustive_check() {
        // Any valid permutation must pass the write-once proof (the
        // enumeration oracle below covers small slices exhaustively).
        let mut c = Circuit::new(6);
        c.h(0);
        let mut plan = Plan::from_circuit(&c, Permutation::identity(6));
        plan.steps.push(PlanStep::Permute(Permutation::reversal(6)));
        plan.steps.push(PlanStep::Permute(Permutation::reversal(6)));
        // The two reversals cancel: layout stays identity, so the plan
        // is still sound — and each permute must tile staging exactly.
        verify_plan(&plan, None, 8, &DistConfig::default()).unwrap();
    }

    #[test]
    fn streamed_small_chunks_stay_within_ring_budget() {
        let c = qft(7);
        let opts = DistConfig {
            exchange_mode: ExchangeMode::Streamed,
            chunk_policy: ChunkPolicy::new(128).unwrap(),
            ..DistConfig::default()
        };
        let ts =
            derive_traces(&Plan::from_circuit(&c, Permutation::identity(7)), 4, &opts).unwrap();
        assert!(!ts.windows.is_empty(), "streamed exchanges create windows");
        check_traces(&ts).unwrap();
    }

    #[test]
    fn broken_tag_collision_is_rejected() {
        let err = check_traces(&broken_fixture_tag_collision()).unwrap_err();
        match err {
            VerifyError::TagCollision { src: 0, dst: 1, .. } => {}
            other => panic!("expected TagCollision, got {other}"),
        }
        assert!(err.to_string().contains("plan step 1"));
    }

    #[test]
    fn broken_ring_overrun_is_rejected() {
        let err = check_traces(&broken_fixture_ring_overrun()).unwrap_err();
        match err {
            VerifyError::RingOverrun {
                rank: 1,
                budget_bytes,
                ..
            } => {
                assert_eq!(budget_bytes, 2048);
            }
            other => panic!("expected RingOverrun, got {other}"),
        }
    }

    #[test]
    fn broken_layout_is_rejected() {
        let plan = broken_fixture_unrestored_layout();
        let err = verify_plan(&plan, None, 4, &DistConfig::default()).unwrap_err();
        match err {
            VerifyError::LayoutDrift { .. } => {}
            other => panic!("expected LayoutDrift, got {other}"),
        }
    }

    #[test]
    fn dropped_recv_becomes_unmatched_send_and_deadlock() {
        // Derive a correct trace, then drop one rank's receive: protocol
        // matching must flag the orphaned send.
        let mut c = Circuit::new(5);
        c.h(4);
        let mut ts = derive_traces(
            &Plan::from_circuit(&c, Permutation::identity(5)),
            2,
            &DistConfig::default(),
        )
        .unwrap();
        let pos = ts.ranks[1]
            .events
            .iter()
            .position(|e| matches!(e.op, TraceOp::Recv { .. }))
            .unwrap();
        ts.ranks[1].events.remove(pos);
        match check_traces(&ts).unwrap_err() {
            VerifyError::UnmatchedSend { dst: 1, .. } => {}
            other => panic!("expected UnmatchedSend, got {other}"),
        }
    }

    #[test]
    fn stuck_rank_shapes_are_rejected_statically() {
        // Rank programs that can never complete, as fabricated traces
        // (one step, 4-byte messages). Each must be rejected before it
        // runs, naming the stuck ranks and the (peer, tag) they await —
        // or, where protocol matching catches it first, the orphaned
        // message. The crossed and buffered shapes match every send, so
        // only the scheduler simulation can catch them.
        use TraceOp::{Recv, RecvAny, Send};
        let recv = |peer, tag| Recv {
            peer,
            tag,
            bytes: 4,
        };
        let send = |peer, tag| Send {
            peer,
            tag,
            bytes: 4,
        };
        let rank = |ops: Vec<TraceOp>, groups: Vec<RecvGroup>| RankTrace {
            events: ops
                .into_iter()
                .map(|op| TraceEvent { step: 0, op })
                .collect(),
            groups,
            predicted_exchanged: 0,
        };
        let set = |ranks: Vec<RankTrace>| TraceSet {
            n_ranks: ranks.len(),
            ranks,
            ..TraceSet::default()
        };
        let blocked = |stuck: &[(usize, usize, u64)]| VerifyError::Deadlock {
            blocked: stuck
                .iter()
                .map(|&(rank, peer, tag)| BlockedRank {
                    rank,
                    step: 0,
                    label: "step 0".into(),
                    waiting_on: format!("recv(peer={peer}, tag={tag})"),
                })
                .collect(),
        };
        let label = String::from("step 0");
        let shapes: [(&str, TraceSet, VerifyError, &[usize]); 6] = [
            (
                "crossed blocking receives",
                set(vec![
                    rank(vec![recv(1, 1), send(1, 1)], vec![]),
                    rank(vec![recv(0, 1), send(0, 1)], vec![]),
                ]),
                blocked(&[(0, 1, 1), (1, 0, 1)]),
                &[0, 1],
            ),
            (
                "mismatched tags",
                set(vec![
                    rank(vec![send(1, 10), recv(1, 99)], vec![]),
                    rank(vec![send(0, 20), recv(0, 88)], vec![]),
                    rank(vec![], vec![]),
                    rank(vec![], vec![]),
                ]),
                VerifyError::UnmatchedSend {
                    src: 0,
                    dst: 1,
                    tag: 10,
                    bytes: 4,
                    step: 0,
                    label: label.clone(),
                },
                &[0, 1],
            ),
            (
                "one-sided receive",
                set(vec![rank(vec![], vec![]), rank(vec![recv(0, 7)], vec![])]),
                VerifyError::UnmatchedRecv {
                    dst: 1,
                    src: 0,
                    tag: 7,
                    bytes: 4,
                    step: 0,
                    label: label.clone(),
                },
                &[1],
            ),
            (
                "3-rank cycle",
                set((0..3)
                    .map(|r| rank(vec![recv((r + 1) % 3, 5), send((r + 2) % 3, 5)], vec![]))
                    .collect()),
                blocked(&[(0, 1, 5), (1, 2, 5), (2, 0, 5)]),
                &[0, 1, 2],
            ),
            (
                "buffered but unmatched",
                // The noise each rank sends first is buffered at its
                // peer but matches no receive until after the stuck one.
                set((0..2)
                    .map(|r| {
                        let peer = 1 - r;
                        let noise = 40 + r as u64;
                        let late = recv(peer, 41 - r as u64);
                        rank(
                            vec![send(peer, noise), recv(peer, 1234), late, send(peer, 1234)],
                            vec![],
                        )
                    })
                    .collect()),
                blocked(&[(0, 1, 1234), (1, 0, 1234)]),
                &[0, 1],
            ),
            (
                "streamed group never sent",
                set(vec![
                    rank(
                        vec![RecvAny { peer: 1, group: 0 }, RecvAny { peer: 1, group: 0 }],
                        vec![RecvGroup {
                            peer: 1,
                            chunks: vec![(5, 4), (6, 4)],
                        }],
                    ),
                    rank(vec![], vec![]),
                ]),
                VerifyError::UnmatchedRecv {
                    dst: 0,
                    src: 1,
                    tag: 5,
                    bytes: 4,
                    step: 0,
                    label,
                },
                &[0],
            ),
        ];
        for (name, ts, want, stuck) in shapes {
            let err = check_traces(&ts).expect_err(name);
            assert_eq!(err, want, "{name}");
            let text = err.to_string();
            for r in stuck {
                assert!(text.contains(&format!("rank {r}")), "{name}: {text}");
            }
        }
    }

    #[test]
    fn tampered_plan_gate_is_a_gate_mismatch() {
        let c = qft(6);
        let layout = Layout::new(6, 4);
        let mut plan =
            comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle).with_layout_restored();
        // Flip one emitted gate's target.
        let idx = plan
            .steps
            .iter()
            .position(|s| matches!(s, PlanStep::Gate(Gate::H(_))))
            .unwrap();
        if let PlanStep::Gate(Gate::H(q)) = &mut plan.steps[idx] {
            *q = (*q + 1) % 6;
        }
        match verify_plan(&plan, Some(&c), 4, &DistConfig::default()).unwrap_err() {
            VerifyError::GateMismatch { .. } | VerifyError::LayoutDrift { .. } => {}
            other => panic!("expected GateMismatch, got {other}"),
        }
    }

    /// Where `images` sends amplitude index `x`: bit `q` to bit
    /// `images[q]` — `Permutation::permute_index` over a raw image list.
    fn permute_bits(images: &[u32], x: u64) -> u64 {
        (0u32..)
            .zip(images)
            .fold(0, |d, (q, &image)| d | ((x >> q) & 1) << image)
    }

    /// The write-once proof `check_write_once` replaced, kept as its
    /// oracle: every rank enumerates all 2ⁿ source indices and marks the
    /// slots of its own slice they land on — O(R · 2ⁿ). `Err(Some((rank,
    /// slot)))` names the first slot written twice, lowest rank first;
    /// `Err(None)` a slice left partly unwritten.
    fn write_once_by_enumeration(images: &[u32], ranks: u64) -> Result<(), Option<(usize, u64)>> {
        let n = images.len() as u32;
        let l = n - ranks.trailing_zeros();
        let mask = (1u64 << l) - 1;
        let mut seen = vec![false; 1 << n];
        for me in 0..ranks {
            for x in 0..1u64 << n {
                let d = permute_bits(images, x);
                if d >> l == me {
                    if seen[d as usize] {
                        return Err(Some((me as usize, d & mask)));
                    }
                    seen[d as usize] = true;
                }
            }
        }
        if seen.contains(&false) {
            return Err(None);
        }
        Ok(())
    }

    /// Runs the O(n) proof and the oracle on one image list at `ranks`
    /// ranks: same verdict, and for a map with exactly one colliding pair
    /// of bits, the same rank and slice slot.
    fn assert_proof_matches_oracle(images: &[u32], ranks: u64) {
        let n = images.len() as u32;
        let l = n - ranks.trailing_zeros();
        let fast = check_write_once(images, l, 3, || "plan step 3".into());
        let slow = write_once_by_enumeration(images, ranks);
        assert_eq!(
            fast.is_ok(),
            slow.is_ok(),
            "{images:?} at R={ranks}: {fast:?} vs {slow:?}"
        );
        let mut sorted = images.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let one_collision = sorted.len() + 1 == images.len() && images.iter().all(|&i| i < n);
        if let (true, Err(Some((rank, slot)))) = (one_collision, slow) {
            match fast {
                Err(VerifyError::ScratchAlias {
                    rank: r,
                    step: 3,
                    detail,
                    label,
                }) => {
                    assert_eq!(r, rank, "{images:?} at R={ranks}");
                    assert!(
                        detail.ends_with(&format!("slice slot {slot} written twice")),
                        "{detail}"
                    );
                    assert_eq!(label, "plan step 3");
                }
                other => panic!("{images:?} at R={ranks}: expected ScratchAlias, got {other:?}"),
            }
        }
    }

    #[test]
    fn write_once_proof_matches_enumeration_on_every_small_map() {
        // Every image list over 0..=n for n ≤ 4: bijections, collisions,
        // and images outside the register (value n), at every rank count.
        for n in 1..=4u32 {
            let lists = (n + 1).pow(n);
            for code in 0..lists {
                let images: Vec<u32> = (0..n).map(|q| code / (n + 1).pow(q) % (n + 1)).collect();
                for r in 0..=n {
                    assert_proof_matches_oracle(&images, 1 << r);
                }
            }
        }
    }

    #[test]
    fn write_once_proof_matches_enumeration_on_random_maps() {
        use qse_util::rng::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(32);
        for n in 1..=12u32 {
            for ranks in [1u64, 2, 4, 8].into_iter().filter(|&r| r <= 1 << n) {
                for _ in 0..3 {
                    let mut images: Vec<u32> = (0..n).collect();
                    for i in (1..images.len()).rev() {
                        images.swap(i, rng.random_range(0..=i));
                    }
                    let perm = Permutation::from_map(images.clone());
                    for _ in 0..8 {
                        let x = rng.random_range(0..1u64 << n);
                        assert_eq!(permute_bits(&images, x), perm.permute_index(x));
                    }
                    assert_proof_matches_oracle(&images, ranks);
                    if n >= 2 {
                        let a = rng.random_range(0..n) as usize;
                        let b = (a + rng.random_range(1..n) as usize) % n as usize;
                        let mut collided = images.clone();
                        collided[a] = images[b];
                        assert_proof_matches_oracle(&collided, ranks);
                    }
                    let mut outside = images.clone();
                    outside[rng.random_range(0..n) as usize] = n;
                    assert_proof_matches_oracle(&outside, ranks);
                }
            }
        }
    }

    #[test]
    fn wide_permute_is_proved_write_once() {
        // n = 20 at R = 2: a 2^19-amplitude slice, past the size the
        // enumeration could afford. The wire permute is proved anyway.
        let mut c = Circuit::new(20);
        c.h(0);
        let mut plan = Plan::from_circuit(&c, Permutation::identity(20));
        plan.steps
            .push(PlanStep::Permute(Permutation::reversal(20)));
        plan.steps
            .push(PlanStep::Permute(Permutation::reversal(20)));
        let report = verify_plan(&plan, None, 2, &DistConfig::default()).unwrap();
        assert_eq!(report.wire_permutes, 2);
        // A non-injective map at that width (one `Permutation::from_map`
        // refuses to build): bits 0 and 19 both land on bit 0.
        let mut images: Vec<u32> = (0..20).rev().collect();
        images[0] = 0;
        match check_write_once(&images, 19, 1, || step_label(&plan, 1)) {
            Err(VerifyError::ScratchAlias {
                rank: 0,
                step: 1,
                detail,
                label,
            }) => {
                assert_eq!(
                    detail,
                    "bits 0 and 19 both map to bit 0: slice slot 1 written twice"
                );
                assert!(
                    label.starts_with("plan step 1: permute [(0, 19)"),
                    "{label}"
                );
            }
            other => panic!("expected ScratchAlias, got {other:?}"),
        }
    }

    /// Folds every field a derivation fills in: events, receive groups,
    /// byte predictions and streamed windows.
    fn fold_traces(h: &mut Fnv1a, ts: &TraceSet) {
        fn word(h: &mut Fnv1a, x: usize) {
            h.update(&(x as u64).to_le_bytes());
        }
        word(h, ts.n_ranks);
        for tr in &ts.ranks {
            word(h, tr.events.len());
            for ev in &tr.events {
                word(h, ev.step);
                let (kind, peer, tag, bytes) = match ev.op {
                    TraceOp::Send { peer, tag, bytes } => (0, peer, tag as usize, bytes),
                    TraceOp::Recv { peer, tag, bytes } => (1, peer, tag as usize, bytes),
                    TraceOp::RecvAny { peer, group } => (2, peer, group, 0),
                };
                [kind, peer, tag, bytes]
                    .into_iter()
                    .for_each(|x| word(h, x));
            }
            word(h, tr.groups.len());
            for g in &tr.groups {
                word(h, g.peer);
                word(h, g.chunks.len());
                for &(tag, bytes) in &g.chunks {
                    word(h, tag as usize);
                    word(h, bytes);
                }
            }
            word(h, tr.predicted_exchanged as usize);
        }
        word(h, ts.windows.len());
        for w in &ts.windows {
            [
                w.rank,
                w.step,
                w.ring_depth,
                w.cap_bytes,
                w.chunk_bytes.len(),
            ]
            .into_iter()
            .chain(w.chunk_bytes.iter().copied())
            .for_each(|x| word(h, x));
        }
    }

    #[test]
    fn corpus_traces_are_pinned() {
        let mut h = Fnv1a::new();
        for case in crate::corpus::standard_corpus() {
            let ts = derive_traces(&case.plan, case.n_ranks, &case.opts)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            fold_traces(&mut h, &ts);
        }
        assert_eq!(h.digest(), CORPUS_TRACE_DIGEST, "{:#018x}", h.digest());
    }

    /// FNV-1a of [`fold_traces`] over `derive_traces` of every
    /// `standard_corpus()` plan, recorded from the derivation that
    /// re-stated the engine's decisions before both shared one lowering.
    const CORPUS_TRACE_DIGEST: u64 = 0x269f_2dca_66bf_dee1;

    #[test]
    fn lazy_step_labels_match_the_eager_format() {
        let m = qse_math::Matrix4::swap();
        let mut c = Circuit::new(6);
        c.h(5).push(Gate::Unitary2 {
            a: 4,
            b: 5,
            matrix: m,
        });
        let mut plan = Plan::from_circuit(&c, Permutation::identity(6));
        plan.steps.push(PlanStep::Permute(Permutation::reversal(6)));
        plan.steps.push(PlanStep::Permute(Permutation::reversal(6)));
        // The format `derive_traces` used to build for every step.
        for (i, s) in plan.steps.iter().enumerate() {
            let eager = match s {
                PlanStep::Gate(g) => format!("plan step {i}: gate {g:?}"),
                PlanStep::Permute(p) => {
                    format!("plan step {i}: permute {:?}", p.as_transpositions())
                }
            };
            assert_eq!(step_label(&plan, i), eager);
        }
        // A diagnosis of a derived trace takes its label from the plan.
        let mut ts = derive_traces(&plan, 2, &DistConfig::default()).unwrap();
        assert!(ts.step_labels.is_empty());
        let pos = ts.ranks[1]
            .events
            .iter()
            .position(|e| matches!(e.op, TraceOp::Recv { .. }))
            .unwrap();
        ts.ranks[1].events.remove(pos);
        match check_traces_labelled(&ts, &|step| step_label(&plan, step)).unwrap_err() {
            VerifyError::UnmatchedSend { step: 0, label, .. } => {
                assert_eq!(label, "plan step 0: gate H(5)")
            }
            other => panic!("expected UnmatchedSend at step 0, got {other}"),
        }
    }
}
