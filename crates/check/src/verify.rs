//! Static plan & protocol verifier: prove exchange schedules safe
//! *before* they run.
//!
//! The runtime deadlock detector ([`qse_comm::deadlock`]) only sees
//! schedules that actually executed; a mismatched tag or an over-budget
//! streamed ring still costs a timeout on the machine that hits it. This
//! module closes that gap by abstractly interpreting a compiled execution
//! plan — circuits, transpiled [`Plan`] /
//! [`PlanStep`] permutations, and all three [`ExchangeMode`]s — and
//! symbolically deriving every rank's communication trace (ordered
//! sends / receives with peer, tag, and byte size) for a given rank
//! count, **without executing anything**. The abstraction mirrors
//! `statevec::dist` operation for operation: same tag sequence (one
//! [`next_tag`](TraceDeriver::next_tag) per distributed gate on every
//! rank, spectators included), same chunk boundaries, same eager-send
//! permutation lowering.
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
//!    writes every destination slot exactly once (no scratch aliasing).
//! 4. **Layout soundness** — the qubit permutation tracked through
//!    `comm_avoid` plan steps composes to exactly [`Plan::layout`] (the
//!    identity after `with_layout_restored`), replayed independently of
//!    the transpiler, so measurement indices are provably correct.
//!
//! The byte totals of the symbolic trace are exact, not estimates: the
//! per-rank [`predicted `bytes_exchanged``](RankTrace::predicted_exchanged)
//! must equal the runtime [`qse_comm::TrafficStats::bytes_exchanged`]
//! bit-for-bit, and the statevector property suites pin that equality.

use qse_circuit::classify::{classify, GateClass, Layout, BYTES_PER_AMP};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::{Circuit, Gate, Permutation};
use qse_comm::chunking::{chunk_tag, ChunkPolicy, ExchangeMode, DEFAULT_RING_DEPTH};
use std::collections::HashMap;
use std::fmt;

/// User exchange tags stay below `2^31`; mirrors the private constant in
/// `statevec::dist` (the verifier must reproduce the exact tag stream).
const TAG_MOD: u64 = 1 << 30;

/// Exhaustive per-slot permutation alias checking is quadratic-ish in the
/// slice; above this many local amplitudes the closed-form counting check
/// (still exact for block *sizes*) stands alone.
const ALIAS_EXHAUSTIVE_MAX_AMPS: u64 = 1 << 16;

/// Exchange options the abstraction must honour — the statically
/// relevant subset of `statevec::dist::DistConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Pairwise exchange lowering to derive traces for.
    pub exchange_mode: ExchangeMode,
    /// Message-size cap; identical chunk boundaries to the runtime.
    pub chunk_policy: ChunkPolicy,
    /// Model the half exchange for one-global distributed SWAPs.
    pub half_exchange_swaps: bool,
    /// Streamed receive-ring depth (the engine uses
    /// [`DEFAULT_RING_DEPTH`]).
    pub ring_depth: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            exchange_mode: ExchangeMode::Blocking,
            chunk_policy: ChunkPolicy {
                max_message_bytes: 1 << 20,
            },
            half_exchange_swaps: false,
            ring_depth: DEFAULT_RING_DEPTH,
        }
    }
}

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
    pub step_labels: Vec<String>,
    pub ranks: Vec<RankTrace>,
    pub windows: Vec<StreamedWindow>,
}

impl TraceSet {
    fn label(&self, step: usize) -> String {
        self.step_labels
            .get(step)
            .cloned()
            .unwrap_or_else(|| format!("step {step}"))
    }
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
    LayoutDrift {
        expected: Vec<u32>,
        found: Vec<u32>,
    },
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
    opts: &'a VerifyOptions,
    seq: u64,
    step: usize,
    trace: RankTrace,
    windows: Vec<StreamedWindow>,
}

impl<'a> RankDeriver<'a> {
    fn new(rank: u64, layout: Layout, opts: &'a VerifyOptions) -> Self {
        RankDeriver {
            rank,
            layout,
            opts,
            seq: 0,
            step: 0,
            trace: RankTrace::default(),
            windows: Vec::new(),
        }
    }

    /// Mirrors `DistributedState::next_tag`: advanced once per
    /// distributed gate on every rank, spectators included.
    fn next_tag(&mut self) -> u64 {
        self.seq += 1;
        self.seq % TAG_MOD
    }

    fn rank_bit_value(&self, q: u32) -> u64 {
        (self.rank >> self.layout.rank_bit(q)) & 1
    }

    fn push(&mut self, op: TraceOp) {
        self.trace.events.push(TraceEvent {
            step: self.step,
            op,
        });
    }

    /// Lowers one symmetric pairwise exchange (both sides send and
    /// expect `bytes`) under the configured exchange mode, mirroring
    /// the three orderings of `comm::chunking::drive` chunk for chunk.
    fn pair_exchange(&mut self, peer: usize, tag: u64, bytes: usize, align_amps: usize) {
        match self.opts.exchange_mode {
            ExchangeMode::Blocking => {
                // Lockstep: send chunk i, then receive chunk i.
                for (i, range) in self.opts.chunk_policy.ranges(bytes).enumerate() {
                    self.push(TraceOp::Send {
                        peer,
                        tag: chunk_tag(tag, i),
                        bytes: range.len(),
                    });
                    self.push(TraceOp::Recv {
                        peer,
                        tag: chunk_tag(tag, i),
                        bytes: range.len(),
                    });
                }
            }
            ExchangeMode::NonBlocking => {
                // All isends fly first (irecv posting never blocks), then
                // the rank awaits its receives in posted order.
                for (i, range) in self.opts.chunk_policy.ranges(bytes).enumerate() {
                    self.push(TraceOp::Send {
                        peer,
                        tag: chunk_tag(tag, i),
                        bytes: range.len(),
                    });
                }
                for (i, range) in self.opts.chunk_policy.ranges(bytes).enumerate() {
                    self.push(TraceOp::Recv {
                        peer,
                        tag: chunk_tag(tag, i),
                        bytes: range.len(),
                    });
                }
            }
            ExchangeMode::Streamed => {
                // The streamed ordering aligns chunks to whole kernel
                // orbits, posts every irecv, primes `ring_depth` sends;
                // each round sends one more chunk then waits for *any*
                // outstanding receive.
                let policy = self.opts.chunk_policy.aligned(align_amps * 16);
                let chunks: Vec<(u64, usize)> = policy
                    .ranges(bytes)
                    .enumerate()
                    .map(|(i, r)| (chunk_tag(tag, i), r.len()))
                    .collect();
                let n = chunks.len();
                let group = self.trace.groups.len();
                self.trace.groups.push(RecvGroup {
                    peer,
                    chunks: chunks.clone(),
                });
                self.windows.push(StreamedWindow {
                    rank: self.rank as usize,
                    step: self.step,
                    ring_depth: self.opts.ring_depth,
                    cap_bytes: policy.max_message_bytes,
                    chunk_bytes: chunks.iter().map(|&(_, b)| b).collect(),
                });
                let primed = self.opts.ring_depth.min(n);
                for &(t, b) in &chunks[..primed] {
                    self.push(TraceOp::Send { peer, tag: t, bytes: b });
                }
                for k in 0..n {
                    if let Some(&(t, b)) = chunks.get(primed + k) {
                        self.push(TraceOp::Send { peer, tag: t, bytes: b });
                    }
                    self.push(TraceOp::RecvAny { peer, group });
                }
            }
        }
        self.trace.predicted_exchanged += bytes as u64;
    }

    fn gate(&mut self, g: &Gate) -> Result<(), VerifyError> {
        if g.max_qubit() >= self.layout.n_qubits() {
            return Err(VerifyError::Unsupported {
                step: self.step,
                detail: format!(
                    "gate operand {} out of range for {} qubits",
                    g.max_qubit(),
                    self.layout.n_qubits()
                ),
            });
        }
        match classify(g, &self.layout) {
            GateClass::FullyLocal | GateClass::LocalMemory => Ok(()),
            GateClass::Distributed => {
                let tag = self.next_tag();
                match *g {
                    Gate::Swap(a, b) => self.dist_swap(a, b, tag),
                    Gate::Unitary2 { a, b, .. } => self.dist_unitary2(a, b, tag),
                    ref g1 => {
                        self.dist_1q(g1.target(), g1.control(), tag);
                        Ok(())
                    }
                }
            }
        }
    }

    fn dist_1q(&mut self, target: u32, control: Option<u32>, tag: u64) {
        if let Some(c) = control {
            // Global control with the bit clear: spectator rank (the pair
            // shares the control bit, so neither side exchanges).
            if !self.layout.is_local(c) && self.rank_bit_value(c) == 0 {
                return;
            }
        }
        let pair = self.layout.pair_rank(self.rank, target) as usize;
        let bytes = (self.layout.local_amps() * BYTES_PER_AMP) as usize;
        self.pair_exchange(pair, tag, bytes, 1);
    }

    fn dist_unitary2(&mut self, a: u32, b: u32, tag: u64) -> Result<(), VerifyError> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.layout.is_local(lo) {
            let pair = self.layout.pair_rank(self.rank, hi) as usize;
            let bytes = (self.layout.local_amps() * BYTES_PER_AMP) as usize;
            // Streamed chunks must cover whole |hi lo⟩ orbits.
            self.pair_exchange(pair, tag, bytes, 1usize << (lo + 1));
            Ok(())
        } else {
            // Both global: SWAP `lo` against local qubit 0, apply the
            // one-global form, SWAP back — three exchanges, three tags,
            // identical sequencing on every rank.
            if self.layout.local_qubits() == 0 {
                return Err(VerifyError::Unsupported {
                    step: self.step,
                    detail: "both-global Unitary2 needs at least one local qubit".into(),
                });
            }
            let temp = 0u32;
            self.dist_swap(temp, lo, tag)?;
            let tag2 = self.next_tag();
            self.dist_unitary2(temp, hi, tag2)?;
            let tag3 = self.next_tag();
            self.dist_swap(temp, lo, tag3)
        }
    }

    fn dist_swap(&mut self, a: u32, b: u32, tag: u64) -> Result<(), VerifyError> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let local_amps = self.layout.local_amps();
        if self.layout.is_local(lo) {
            let pair = self.layout.pair_rank(self.rank, hi) as usize;
            if self.opts.half_exchange_swaps {
                // Each side ships only the half the peer needs.
                let bytes = (local_amps * BYTES_PER_AMP / 2) as usize;
                self.pair_exchange(pair, tag, bytes, 1);
            } else {
                let bytes = (local_amps * BYTES_PER_AMP) as usize;
                self.pair_exchange(pair, tag, bytes, 1);
            }
        } else {
            // Both global: equal-address-bit ranks are spectators.
            let x = self.rank_bit_value(lo);
            let y = self.rank_bit_value(hi);
            if x == y {
                return Ok(());
            }
            let mask =
                (1u64 << self.layout.rank_bit(lo)) | (1u64 << self.layout.rank_bit(hi));
            let pair = (self.rank ^ mask) as usize;
            let bytes = (local_amps * BYTES_PER_AMP) as usize;
            self.pair_exchange(pair, tag, bytes, 1);
        }
        Ok(())
    }

    /// Mirrors `apply_global_permutation`: identity and purely-local
    /// permutations never touch the wire (and consume no tag); anything
    /// else packs per-destination blocks, eagerly sends them ascending
    /// (chunked), then receives each source block ascending.
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
        if perm.is_identity() {
            return Ok(());
        }
        let l = self.layout.local_qubits();
        let n = self.layout.n_qubits();
        if (l..n).all(|p| perm.apply(p) == p) {
            return Ok(()); // purely local reorder, zero wire bytes
        }
        let tag = self.next_tag();
        let ranks = self.layout.n_ranks();
        let local_amps = self.layout.local_amps();
        let me = self.rank;

        // Closed-form block sizes (same derivation as
        // `permutation_traffic`): destination rank bit `p` is sourced
        // from bit `perm⁻¹(L+p)` of the current index — local source
        // bits are free (each of the 2^m combinations gets an equal
        // share), global source bits pin a (dest, src) constraint.
        let inv = perm.inverse();
        let mut m = 0u32;
        let mut constraints: Vec<(u32, u32)> = Vec::new();
        for p in l..n {
            let src = inv.apply(p);
            if src < l {
                m += 1;
            } else {
                constraints.push((p - l, src - l));
            }
        }
        let block_amps = |u: u64, v: u64| -> u64 {
            if constraints
                .iter()
                .all(|&(d, s)| (v >> d) & 1 == (u >> s) & 1)
            {
                local_amps >> m
            } else {
                0
            }
        };

        // Eager ascending sends (skip self and empty blocks) …
        let mut sent_bytes = 0u64;
        for v in 0..ranks {
            if v == me {
                continue;
            }
            let bytes = (block_amps(me, v) * BYTES_PER_AMP) as usize;
            if bytes == 0 {
                continue;
            }
            sent_bytes += bytes as u64;
            for (idx, range) in self.opts.chunk_policy.ranges(bytes).enumerate() {
                self.push(TraceOp::Send {
                    peer: v as usize,
                    tag: chunk_tag(tag, idx),
                    bytes: range.len(),
                });
            }
        }
        self.trace.predicted_exchanged += sent_bytes;

        // … then ascending receives of every non-empty source block.
        for w in 0..ranks {
            if w == me {
                continue;
            }
            let bytes = (block_amps(w, me) * BYTES_PER_AMP) as usize;
            if bytes == 0 {
                continue;
            }
            for (idx, range) in self.opts.chunk_policy.ranges(bytes).enumerate() {
                self.push(TraceOp::Recv {
                    peer: w as usize,
                    tag: chunk_tag(tag, idx),
                    bytes: range.len(),
                });
            }
        }

        // Scratch-alias obligation: incoming blocks plus the stay-put
        // block must tile this rank's staging buffer exactly once.
        let covered: u64 = (0..ranks).map(|u| block_amps(u, me)).sum();
        if covered != local_amps {
            return Err(VerifyError::ScratchAlias {
                rank: me as usize,
                step: self.step,
                detail: format!(
                    "incoming blocks cover {covered} of {local_amps} staging slots"
                ),
                label: String::new(),
            });
        }
        if local_amps <= ALIAS_EXHAUSTIVE_MAX_AMPS {
            // Small slices: prove write-once per destination slot, not
            // just the counting argument.
            let mask = local_amps - 1;
            let mut seen = vec![false; local_amps as usize];
            for u in 0..ranks {
                for sl in 0..local_amps {
                    let d = perm.permute_index((u << l) | sl);
                    if d >> l == me {
                        let slot = (d & mask) as usize;
                        if seen[slot] {
                            return Err(VerifyError::ScratchAlias {
                                rank: me as usize,
                                step: self.step,
                                detail: format!("staging slot {slot} written twice"),
                                label: String::new(),
                            });
                        }
                        seen[slot] = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Derives every rank's symbolic trace for `plan` at `n_ranks` ranks.
///
/// `n_ranks` must be a power of two at most `2^n_qubits` (the engine's
/// own layout constraint).
pub fn derive_traces(
    plan: &Plan,
    n_ranks: u64,
    opts: &VerifyOptions,
) -> Result<TraceSet, VerifyError> {
    if n_ranks == 0 || !n_ranks.is_power_of_two() || n_ranks > (1u64 << plan.n_qubits()) {
        return Err(VerifyError::Unsupported {
            step: 0,
            detail: format!(
                "{n_ranks} ranks is not a power of two within 2^{}",
                plan.n_qubits()
            ),
        });
    }
    let layout = Layout::new(plan.n_qubits(), n_ranks);
    let step_labels: Vec<String> = plan
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            PlanStep::Gate(g) => format!("plan step {i}: gate {g:?}"),
            PlanStep::Permute(p) => format!("plan step {i}: permute {:?}", p.as_transpositions()),
        })
        .collect();
    let mut ts = TraceSet {
        n_ranks: n_ranks as usize,
        step_labels,
        ranks: Vec::with_capacity(n_ranks as usize),
        windows: Vec::new(),
    };
    for rank in 0..n_ranks {
        let mut d = RankDeriver::new(rank, layout, opts);
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
    }
    // Fill in step labels on derivation-time errors' behalf: alias
    // errors constructed inside the deriver carry an empty label.
    Ok(ts)
}

// ---------------------------------------------------------------------
// Property 1: protocol matching.
// ---------------------------------------------------------------------

fn check_protocol(ts: &TraceSet) -> Result<(), VerifyError> {
    // (src, dst) → tag → (bytes, step)
    let mut sends: HashMap<(usize, usize), HashMap<u64, (usize, usize)>> = HashMap::new();
    let mut recvs: HashMap<(usize, usize), HashMap<u64, (usize, usize)>> = HashMap::new();
    for (rank, tr) in ts.ranks.iter().enumerate() {
        for ev in &tr.events {
            match ev.op {
                TraceOp::Send { peer, tag, bytes } => {
                    let edge = sends.entry((rank, peer)).or_default();
                    if let Some(&(_, first)) = edge.get(&tag) {
                        return Err(VerifyError::TagCollision {
                            src: rank,
                            dst: peer,
                            tag,
                            first_step: first,
                            second_step: ev.step,
                            label: ts.label(ev.step),
                        });
                    }
                    edge.insert(tag, (bytes, ev.step));
                }
                TraceOp::Recv { peer, tag, bytes } => {
                    let edge = recvs.entry((peer, rank)).or_default();
                    if let Some(&(_, first)) = edge.get(&tag) {
                        return Err(VerifyError::TagCollision {
                            src: peer,
                            dst: rank,
                            tag,
                            first_step: first,
                            second_step: ev.step,
                            label: ts.label(ev.step),
                        });
                    }
                    edge.insert(tag, (bytes, ev.step));
                }
                TraceOp::RecvAny { peer, group } => {
                    // A group's obligations are registered once, at its
                    // first wait; later waits reference the same posts.
                    let g = &ts.ranks[rank].groups[group];
                    debug_assert_eq!(g.peer, peer);
                    let edge = recvs.entry((peer, rank)).or_default();
                    for &(tag, bytes) in &g.chunks {
                        match edge.get(&tag) {
                            Some(&(b, s)) if (b, s) == (bytes, ev.step) => {} // same group, later wait
                            Some(&(_, first)) if first != ev.step => {
                                return Err(VerifyError::TagCollision {
                                    src: peer,
                                    dst: rank,
                                    tag,
                                    first_step: first,
                                    second_step: ev.step,
                                    label: ts.label(ev.step),
                                });
                            }
                            _ => {
                                edge.insert(tag, (bytes, ev.step));
                            }
                        }
                    }
                }
            }
        }
    }
    for (&(src, dst), tags) in &sends {
        for (&tag, &(bytes, step)) in tags {
            match recvs.get(&(src, dst)).and_then(|m| m.get(&tag)) {
                None => {
                    return Err(VerifyError::UnmatchedSend {
                        src,
                        dst,
                        tag,
                        bytes,
                        step,
                        label: ts.label(step),
                    })
                }
                Some(&(expected, rstep)) if expected != bytes => {
                    return Err(VerifyError::SizeMismatch {
                        src,
                        dst,
                        tag,
                        sent: bytes,
                        expected,
                        step: rstep,
                        label: ts.label(step),
                    })
                }
                Some(_) => {}
            }
        }
    }
    for (&(src, dst), tags) in &recvs {
        for (&tag, &(bytes, step)) in tags {
            if sends.get(&(src, dst)).and_then(|m| m.get(&tag)).is_none() {
                return Err(VerifyError::UnmatchedRecv {
                    dst,
                    src,
                    tag,
                    bytes,
                    step,
                    label: ts.label(step),
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Property 2: deadlock freedom (scheduler simulation).
// ---------------------------------------------------------------------

fn check_deadlock_freedom(ts: &TraceSet) -> Result<(), VerifyError> {
    // In-flight buffered messages per directed edge: tag → count (tags
    // are unique after check_protocol, but stay robust for fabricated
    // traces that collide).
    let mut inflight: HashMap<(usize, usize), HashMap<u64, usize>> = HashMap::new();
    let mut pc = vec![0usize; ts.ranks.len()];
    // Per (rank, group): set of chunk tags not yet consumed.
    let mut group_left: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    for (r, tr) in ts.ranks.iter().enumerate() {
        for (gi, g) in tr.groups.iter().enumerate() {
            group_left.insert((r, gi), g.chunks.iter().map(|&(t, _)| t).collect());
        }
    }
    loop {
        let mut progressed = false;
        for r in 0..ts.ranks.len() {
            let events = &ts.ranks[r].events;
            while pc[r] < events.len() {
                match events[pc[r]].op {
                    TraceOp::Send { peer, tag, .. } => {
                        // Buffered transport: sends never block.
                        *inflight.entry((r, peer)).or_default().entry(tag).or_insert(0) += 1;
                    }
                    TraceOp::Recv { peer, tag, .. } => {
                        let Some(count) =
                            inflight.get_mut(&(peer, r)).and_then(|m| m.get_mut(&tag))
                        else {
                            break;
                        };
                        if *count == 0 {
                            break;
                        }
                        *count -= 1;
                    }
                    TraceOp::RecvAny { peer, group } => {
                        let left = group_left.get_mut(&(r, group)).expect("group exists");
                        let Some(pos) = left.iter().position(|t| {
                            inflight
                                .get(&(peer, r))
                                .and_then(|m| m.get(t))
                                .is_some_and(|&c| c > 0)
                        }) else {
                            break;
                        };
                        let tag = left.swap_remove(pos);
                        *inflight
                            .get_mut(&(peer, r))
                            .and_then(|m| m.get_mut(&tag))
                            .expect("matched above") -= 1;
                    }
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if pc.iter().enumerate().all(|(r, &p)| p == ts.ranks[r].events.len()) {
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
                        label: ts.label(ev.step),
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

fn check_buffer_bounds(ts: &TraceSet) -> Result<(), VerifyError> {
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
                label: ts.label(w.step),
            });
        }
    }
    Ok(())
}

/// Checks properties 1–3 over an already-derived (or fabricated) trace
/// set: protocol matching, deadlock freedom, buffer bounds.
pub fn check_traces(ts: &TraceSet) -> Result<(), VerifyError> {
    check_protocol(ts)?;
    check_deadlock_freedom(ts)?;
    check_buffer_bounds(ts)
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
                    detail: format!(
                        "original circuit has {} qubits, plan has {n}",
                        c.n_qubits()
                    ),
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
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    verify_layout(plan, original)?;
    let ts = derive_traces(plan, n_ranks, opts)?;
    check_traces(&ts)?;
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
    // Distributed-gate / permute counts are identical across ranks by
    // construction; re-derive rank 0 cheaply for the report.
    let layout = Layout::new(plan.n_qubits(), n_ranks);
    let mut distributed = 0usize;
    let mut permutes = 0usize;
    for step in &plan.steps {
        match step {
            PlanStep::Gate(g) => {
                if classify(g, &layout) == GateClass::Distributed {
                    distributed += 1;
                }
            }
            PlanStep::Permute(p) => {
                let l = layout.local_qubits();
                let n = layout.n_qubits();
                if !p.is_identity() && !(l..n).all(|q| p.apply(q) == q) {
                    permutes += 1;
                }
            }
        }
    }
    Ok(VerifyReport {
        n_ranks: n_ranks as usize,
        events,
        distributed_gates: distributed,
        wire_permutes: permutes,
        bytes_on_wire,
        predicted_exchanged: ts.ranks.iter().map(|r| r.predicted_exchanged).collect(),
    })
}

/// Verifies a plain circuit (no transpilation) as the trivial plan.
pub fn verify_circuit(
    circuit: &Circuit,
    n_ranks: u64,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let plan = Plan::from_circuit(circuit, Permutation::identity(circuit.n_qubits()));
    verify_plan(&plan, Some(circuit), n_ranks, opts)
}

/// Verifies `plan` at every power-of-two rank count `1, 2, 4, …` up to
/// `min(2^n_qubits, max_ranks)` — the "for all R" form of the protocol
/// proof. Returns the report of the largest R.
pub fn verify_plan_all_ranks(
    plan: &Plan,
    original: Option<&Circuit>,
    max_ranks: u64,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let cap = max_ranks.min(1u64 << plan.n_qubits().min(63));
    let mut r = 1u64;
    let mut last = verify_plan(plan, original, r, opts)?;
    while r * 2 <= cap {
        r *= 2;
        last = verify_plan(plan, original, r, opts)?;
    }
    Ok(last)
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
                        op: TraceOp::Send { peer: 1, tag, bytes: 128 },
                    },
                    TraceEvent {
                        step: 1,
                        op: TraceOp::Send { peer: 1, tag, bytes: 128 },
                    },
                ],
                groups: Vec::new(),
                predicted_exchanged: 256,
            },
            RankTrace {
                events: vec![TraceEvent {
                    step: 0,
                    op: TraceOp::Recv { peer: 0, tag, bytes: 128 },
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
    use qse_circuit::qft::qft;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};

    fn opts_for(mode: ExchangeMode) -> VerifyOptions {
        VerifyOptions {
            exchange_mode: mode,
            ..VerifyOptions::default()
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
            verify_plan_all_ranks(
                &Plan::from_circuit(&c, Permutation::identity(7)),
                Some(&c),
                8,
                &VerifyOptions::default(),
            )
            .unwrap();
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
            &VerifyOptions::default(),
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
        c.push(Gate::Unitary2 { a: 4, b: 5, matrix: m });
        let report = verify_circuit(&c, 4, &VerifyOptions::default()).unwrap();
        // Three pairwise exchanges per rank (swap, unitary, swap).
        assert_eq!(report.distributed_gates, 1);
        let full = 16u64 * (1 << 4); // local_amps × BYTES_PER_AMP
        assert_eq!(report.predicted_exchanged, vec![3 * full; 4]);
    }

    #[test]
    fn half_exchange_swaps_halve_predicted_traffic() {
        let mut c = Circuit::new(6);
        c.swap(0, 5);
        let full = verify_circuit(&c, 4, &VerifyOptions::default()).unwrap();
        let half = verify_circuit(
            &c,
            4,
            &VerifyOptions {
                half_exchange_swaps: true,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        for (f, h) in full.predicted_exchanged.iter().zip(&half.predicted_exchanged) {
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
        // Any valid permutation must pass the exhaustive write-once
        // check (exercised because local_amps is tiny here).
        let mut c = Circuit::new(6);
        c.h(0);
        let mut plan = Plan::from_circuit(&c, Permutation::identity(6));
        plan.steps.push(PlanStep::Permute(Permutation::reversal(6)));
        plan.steps
            .push(PlanStep::Permute(Permutation::reversal(6)));
        // The two reversals cancel: layout stays identity, so the plan
        // is still sound — and each permute must tile staging exactly.
        verify_plan(&plan, None, 8, &VerifyOptions::default()).unwrap();
    }

    #[test]
    fn streamed_small_chunks_stay_within_ring_budget() {
        let c = qft(7);
        let opts = VerifyOptions {
            exchange_mode: ExchangeMode::Streamed,
            chunk_policy: ChunkPolicy::new(128).unwrap(),
            ..VerifyOptions::default()
        };
        let ts = derive_traces(
            &Plan::from_circuit(&c, Permutation::identity(7)),
            4,
            &opts,
        )
        .unwrap();
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
            VerifyError::RingOverrun { rank: 1, budget_bytes, .. } => {
                assert_eq!(budget_bytes, 2048);
            }
            other => panic!("expected RingOverrun, got {other}"),
        }
    }

    #[test]
    fn broken_layout_is_rejected() {
        let plan = broken_fixture_unrestored_layout();
        let err = verify_plan(&plan, None, 4, &VerifyOptions::default()).unwrap_err();
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
            &VerifyOptions::default(),
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
    fn crossed_blocking_recvs_deadlock_statically() {
        // Two ranks that each recv before sending: a textbook deadlock
        // the scheduler simulation must catch (protocol matching alone
        // cannot — every send has a matching recv).
        let mk = |peer: usize| RankTrace {
            events: vec![
                TraceEvent {
                    step: 0,
                    op: TraceOp::Recv { peer, tag: 1, bytes: 64 },
                },
                TraceEvent {
                    step: 0,
                    op: TraceOp::Send { peer, tag: 1, bytes: 64 },
                },
            ],
            groups: Vec::new(),
            predicted_exchanged: 64,
        };
        let ts = TraceSet {
            n_ranks: 2,
            step_labels: vec!["plan step 0: crossed recv".into()],
            ranks: vec![mk(1), mk(0)],
            windows: Vec::new(),
        };
        match check_traces(&ts).unwrap_err() {
            VerifyError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked[0].waiting_on.starts_with("recv("));
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    fn tampered_plan_gate_is_a_gate_mismatch() {
        let c = qft(6);
        let layout = Layout::new(6, 4);
        let mut plan = comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle)
            .with_layout_restored();
        // Flip one emitted gate's target.
        let idx = plan
            .steps
            .iter()
            .position(|s| matches!(s, PlanStep::Gate(Gate::H(_))))
            .unwrap();
        if let PlanStep::Gate(Gate::H(q)) = &mut plan.steps[idx] {
            *q = (*q + 1) % 6;
        }
        match verify_plan(&plan, Some(&c), 4, &VerifyOptions::default()).unwrap_err() {
            VerifyError::GateMismatch { .. } | VerifyError::LayoutDrift { .. } => {}
            other => panic!("expected GateMismatch, got {other}"),
        }
    }
}
