//! The exchange lowering: what one distributed step does on one rank.
//!
//! QuEST pairs each rank with `rank XOR 2^{q−(n−r)}` for a distributed
//! gate and ships its whole slice (§2.1). This module decides, once, every
//! fact of that schedule a rank needs — the tags a step consumes, the
//! peer, the amplitudes each way, the streamed alignment and which
//! combine runs on the peer's payload — and, for a batched `Permute`
//! step, which contiguous blocks travel between which ranks. Two
//! consumers read the same answer: the statevector engine executes it,
//! and the static verifier (`qse-check`) turns it into symbolic traces
//! and proves them safe. The machine model prices a gate from its
//! lowering on every rank ([`gate_traffic`]), and the transpiler's
//! traffic model folds the same block map.
//!
//! Tags are counted per step on *every* rank: a spectator rank (a
//! globally controlled gate whose control bit it lacks, a both-global
//! SWAP whose two address bits it has equal) consumes the step's tags
//! and exchanges nothing, so partners agree on wire tags whatever their
//! participation history.

use crate::circuit::Circuit;
use crate::classify::{classify, GateClass, Layout, BYTES_PER_AMP};
use crate::gate::Gate;
use crate::permutation::Permutation;
use std::fmt;

/// The combine a pairwise exchange runs on the peer's payload. `bit` is
/// always this rank's address bit of the global qubit the exchange pairs
/// ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Single-target row combine `new = M[b][b]·mine + M[b][1−b]·theirs`
    /// (`b = bit`), masked by the gate's control when it is local.
    Row { bit: u64, control: Option<u32> },
    /// Two-qubit combine over whole `|hi lo⟩` orbits of local qubit `lo`.
    /// `swapped` conjugates the gate matrix by SWAP: the gate names its
    /// qubits in the other order.
    Orbit { lo: u32, bit: u64, swapped: bool },
    /// One-global SWAP, half exchange: only the amplitudes whose local
    /// bit `lo` is `1 − bit` travel, and the peer's land in their slots.
    HalfSwap { lo: u32, bit: u64 },
    /// One-global SWAP, full exchange: the peer's amplitude `i` lands at
    /// `i ^ 2^lo` where local bit `lo` equals `bit`.
    Swap { lo: u32, bit: u64 },
    /// Both-global SWAP: the peer's slice replaces this one.
    Replace,
}

/// One symmetric pairwise exchange of a lowered step on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// Which of the step's tags it travels under (`0..tags`).
    pub tag: u32,
    /// The rank on the other side.
    pub peer: u64,
    /// Payload amplitudes, each way.
    pub amps: u64,
    /// The kernel's unit in amplitudes: streamed chunks cover whole units.
    pub unit: u64,
    pub kernel: Kernel,
}

/// One gate lowered for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLowering {
    /// The paper's locality class; only `Distributed` gates take tags.
    pub class: GateClass,
    /// Tags the gate consumes on every rank: 0, 1, or 3 for a both-global
    /// `Unitary2`.
    pub tags: u32,
    exchanges: [Option<Exchange>; 3],
}

impl GateLowering {
    /// This rank's exchanges, in execution order (none on a spectator).
    pub fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.exchanges.iter().flatten()
    }
}

/// A gate the layout cannot lower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A gate operand beyond the register.
    OperandOutOfRange { operand: u32, n_qubits: u32 },
    /// A both-global `Unitary2` on a layout with no local qubit to swap
    /// one of its qubits through.
    NoLocalQubit,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::OperandOutOfRange { operand, n_qubits } => {
                write!(
                    f,
                    "gate operand {operand} out of range for {n_qubits} qubits"
                )
            }
            LowerError::NoLocalQubit => {
                write!(f, "both-global Unitary2 needs at least one local qubit")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers `gate` for `rank` under `layout`. A distributed gate pairs on
/// the global qubit its data crosses; a both-global `Unitary2` becomes
/// QuEST's decomposition — SWAP its lower qubit with local qubit 0, the
/// one-global combine, SWAP back — three exchanges under three tags.
pub fn lower_gate(
    gate: &Gate,
    layout: &Layout,
    rank: u64,
    half_exchange_swaps: bool,
) -> Result<GateLowering, LowerError> {
    if gate.max_qubit() >= layout.n_qubits() {
        return Err(LowerError::OperandOutOfRange {
            operand: gate.max_qubit(),
            n_qubits: layout.n_qubits(),
        });
    }
    let class = classify(gate, layout);
    let mut out = GateLowering {
        class,
        tags: 0,
        exchanges: [None; 3],
    };
    if class != GateClass::Distributed {
        return Ok(out);
    }
    let on = OnRank {
        layout,
        rank,
        half_exchange_swaps,
    };
    out.tags = 1;
    match *gate {
        Gate::Swap(a, b) => out.exchanges[0] = on.swap(a, b, 0),
        Gate::Unitary2 { a, b, .. } => {
            let (lo, hi) = (a.min(b), a.max(b));
            if layout.is_local(lo) {
                out.exchanges[0] = Some(on.orbit(lo, hi, a != lo, 0));
            } else if layout.local_qubits() == 0 {
                return Err(LowerError::NoLocalQubit);
            } else {
                out.tags = 3;
                let combine = on.orbit(0, hi, a != lo, 1);
                out.exchanges = [on.swap(0, lo, 0), Some(combine), on.swap(0, lo, 2)];
            }
        }
        ref g => {
            // A global control gates participation: its pair rank shares
            // the control bit, so a rank with it clear and its pair both
            // sit the gate out.
            let (joins, control) = match g.control() {
                Some(c) if !layout.is_local(c) => (on.bit(c) == 1, None),
                control => (true, control),
            };
            if joins {
                let kernel = Kernel::Row {
                    bit: on.bit(g.target()),
                    control,
                };
                out.exchanges[0] = Some(on.pair(g.target(), kernel, 0));
            }
        }
    }
    Ok(out)
}

/// One gate lowered on every rank: what it moves, summed over the ranks
/// that take part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTraffic {
    /// A participating rank's lowering (rank 0's when none exchanges).
    /// Every participating rank runs the same kernels on the same amounts.
    pub lowering: GateLowering,
    /// Ranks that run at least one exchange.
    pub participants: u64,
    /// Amplitudes sent, summed over every rank's exchanges.
    pub amps_sent: u64,
}

impl GateTraffic {
    /// Bytes one participating rank sends.
    pub fn rank_bytes(&self) -> u64 {
        self.lowering.exchanges().map(|e| e.amps).sum::<u64>() * BYTES_PER_AMP
    }

    /// Bytes all ranks send together.
    pub fn bytes_sent(&self) -> u64 {
        self.amps_sent * BYTES_PER_AMP
    }
}

/// Lowers `gate` on every rank of `layout` — the engine's own decision,
/// folded over ranks for the models and reports that price or count it.
pub fn gate_traffic(
    gate: &Gate,
    layout: &Layout,
    half_exchange_swaps: bool,
) -> Result<GateTraffic, LowerError> {
    let lowering = lower_gate(gate, layout, 0, half_exchange_swaps)?;
    let mut t = GateTraffic {
        lowering,
        participants: 0,
        amps_sent: 0,
    };
    if lowering.class != GateClass::Distributed {
        return Ok(t);
    }
    for rank in 0..layout.n_ranks() {
        let on_rank = lower_gate(gate, layout, rank, half_exchange_swaps)?;
        let amps: u64 = on_rank.exchanges().map(|e| e.amps).sum();
        if amps > 0 {
            if t.participants == 0 {
                t.lowering = on_rank;
            }
            t.participants += 1;
            t.amps_sent += amps;
        }
    }
    Ok(t)
}

/// [`gate_traffic`] of every gate of `circuit`, in order.
pub fn circuit_traffic(
    circuit: &Circuit,
    layout: &Layout,
    half_exchange_swaps: bool,
) -> Result<Vec<GateTraffic>, LowerError> {
    circuit
        .gates()
        .iter()
        .map(|g| gate_traffic(g, layout, half_exchange_swaps))
        .collect()
}

/// One rank's view of a layout, for [`lower_gate`].
struct OnRank<'a> {
    layout: &'a Layout,
    rank: u64,
    half_exchange_swaps: bool,
}

impl OnRank<'_> {
    /// This rank's address bit of global qubit `q`.
    fn bit(&self, q: u32) -> u64 {
        (self.rank >> self.layout.rank_bit(q)) & 1
    }

    /// A whole-slice exchange with the pair rank of global qubit `q`.
    fn pair(&self, q: u32, kernel: Kernel, tag: u32) -> Exchange {
        Exchange {
            tag,
            peer: self.layout.pair_rank(self.rank, q),
            amps: self.layout.local_amps(),
            unit: 1,
            kernel,
        }
    }

    /// The one-global combine of local `lo` and global `hi`.
    fn orbit(&self, lo: u32, hi: u32, swapped: bool, tag: u32) -> Exchange {
        let kernel = Kernel::Orbit {
            lo,
            bit: self.bit(hi),
            swapped,
        };
        Exchange {
            unit: 1 << (lo + 1),
            ..self.pair(hi, kernel, tag)
        }
    }

    /// A distributed SWAP; `None` on a rank the swap leaves alone.
    fn swap(&self, a: u32, b: u32, tag: u32) -> Option<Exchange> {
        let (lo, hi) = (a.min(b), a.max(b));
        let bit = self.bit(hi);
        if self.layout.is_local(lo) {
            return Some(if self.half_exchange_swaps {
                let half = self.pair(hi, Kernel::HalfSwap { lo, bit }, tag);
                Exchange {
                    amps: half.amps / 2,
                    ..half
                }
            } else {
                self.pair(hi, Kernel::Swap { lo, bit }, tag)
            });
        }
        // Both global: ranks whose two address bits differ trade whole
        // slices; equal-bit ranks are untouched.
        if self.bit(lo) == bit {
            return None;
        }
        let peer = self
            .layout
            .pair_rank(self.layout.pair_rank(self.rank, lo), hi);
        Some(Exchange {
            peer,
            ..self.pair(hi, Kernel::Replace, tag)
        })
    }
}

/// G of a `Permute` step's factoring `P = L2 ∘ G ∘ L1` (see
/// [`PermuteLowering`]) as a map of contiguous blocks: block `t` of rank
/// `u`'s slice — amplitudes `[t·2^(l−m), (t+1)·2^(l−m))` once L1 has run
/// — goes whole to one rank, and lands in one block there. Cheap to build
/// (O(n), no L1 sweeps or L2 permutation, no allocation): the traffic
/// model and the verifier need only this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    /// Per destination rank bit `p`: the source rank bit it copies, or
    /// `TRADED + j` when top local bit `l − m + j` goes up to it.
    from: [u8; RANK_BITS],
    /// Per top local bit `l − m + j`: the rank bit that comes down to it.
    down: [u8; RANK_BITS],
    /// Rank bits `n − l`: the entries of `from` in use.
    rank_bits: u32,
    /// Local bits G trades for rank bits.
    m: u32,
    /// Local bits below the traded ones: a block is `2^window` amplitudes.
    window: u32,
}

/// Rank bits a layout can have (rank counts are `u64`).
const RANK_BITS: usize = 64;

/// [`BlockMap::from`]'s mark of a traded local bit.
const TRADED: u8 = RANK_BITS as u8;

/// The traded window `l − m` of `perm` over `l` local bits, and every
/// local bit `perm` sends to a rank position with the top slot `j` L1
/// gives it (local bit `l − m + j`): a bit already in the top `m` keeps
/// its place, and each one below is paired, ascending, with the next top
/// slot whose bit stays local — the transpositions of L1.
fn traded_slots(perm: &Permutation, l: u32) -> (u32, impl Iterator<Item = (u32, u32)> + '_) {
    let goes_up = move |q: u32| q < l && perm.apply(q) >= l;
    let window = l - (0..l).map(|q| u32::from(goes_up(q))).sum::<u32>();
    let mut free = (window..l).filter(move |&w| !goes_up(w));
    let slots = (0..l).filter(move |&q| goes_up(q)).map(move |s| {
        if s >= window {
            return (s, s - window);
        }
        let Some(w) = free.next() else {
            unreachable!("the window has a free slot per bit below it")
        };
        (s, w - window)
    });
    (window, slots)
}

impl BlockMap {
    /// The block map of `perm` over `l` local bits.
    ///
    /// Which rank bit comes down to slot `j` is what keeps G in place: it
    /// is the end of the chain `P(s), P(P(s)), …` through staying rank
    /// bits from the bit `s` that went up from slot `j`. A rank that keeps
    /// a block has equal bits along every such chain, so its stay-put
    /// block's slot is the one it came from.
    pub fn new(perm: &Permutation, l: u32) -> Self {
        let (window, slots) = traded_slots(perm, l);
        let rank_bits = perm.len() - l;
        assert!(rank_bits as usize <= RANK_BITS, "{rank_bits} rank bits");
        let (from, down) = ([0; RANK_BITS], [0; RANK_BITS]);
        let mut g = BlockMap {
            from,
            down,
            rank_bits,
            m: l - window,
            window,
        };
        for q in l..perm.len() {
            if perm.apply(q) >= l {
                g.from[(perm.apply(q) - l) as usize] = (q - l) as u8;
            }
        }
        let chain_end = |mut p: u32| {
            while perm.apply(p) >= l {
                p = perm.apply(p);
            }
            p
        };
        for (s, j) in slots {
            g.from[(perm.apply(s) - l) as usize] = TRADED + j as u8;
            g.down[j as usize] = (chain_end(perm.apply(s)) - l) as u8;
        }
        g
    }

    /// `(p, from[p])` for every destination rank bit `p`.
    fn sources(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        (0..self.rank_bits).zip(self.from.iter().copied())
    }

    /// Tags the step consumes on every rank: one when G moves anything
    /// between ranks, none when the step is local sweeps only.
    pub fn tags(&self) -> u32 {
        u32::from(self.sources().any(|(p, f)| u32::from(f) != p))
    }

    /// Amplitudes per block.
    pub fn block_amps(&self) -> u64 {
        1 << self.window
    }

    /// Whether rank `u` sends rank `v` a block: the rank bits that stay
    /// must carry `u`'s values to `v`.
    fn feeds(&self, u: u64, v: u64) -> bool {
        self.sources()
            .all(|(p, f)| f >= TRADED || (u >> f) & 1 == (v >> p) & 1)
    }

    /// The block of rank `u`'s slice that goes to rank `v`, or `None`
    /// when `u` sends `v` nothing.
    fn sent_block(&self, u: u64, v: u64) -> Option<u64> {
        let traded = self.sources().filter(|&(_, f)| f >= TRADED);
        let t = traded.fold(0, |t, (p, f)| t | ((v >> p) & 1) << (f - TRADED));
        self.feeds(u, v).then_some(t)
    }

    /// The block of rank `v`'s slice that rank `w`'s block lands in, or
    /// `None` when `w` sends `v` nothing.
    fn source_block(&self, w: u64, v: u64) -> Option<u64> {
        let down = self.down[..self.m as usize].iter();
        let t = down
            .enumerate()
            .fold(0, |t, (j, &d)| t | ((w >> d) & 1) << j);
        self.feeds(w, v).then_some(t)
    }

    /// Blocks rank `u` puts on the wire: all `2^m`, less the one it keeps
    /// when it keeps one.
    pub fn blocks_sent(&self, u: u64) -> u64 {
        (1 << self.m) - u64::from(self.feeds(u, u))
    }

    /// Rank `me`'s sends in wire order — `(peer, block)`, ascending peer:
    /// every one leaves before the first receive, so each incoming block
    /// lands in a slot whose contents have already gone.
    pub fn sends(&self, me: u64, n_ranks: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..n_ranks)
            .filter(move |&v| v != me)
            .filter_map(move |v| self.sent_block(me, v).map(|t| (v, t)))
    }

    /// Rank `me`'s receives in wire order — `(peer, block)`, ascending
    /// peer. The stay-put block's slot is nobody else's.
    pub fn receives(&self, me: u64, n_ranks: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..n_ranks)
            .filter(move |&w| w != me)
            .filter_map(move |w| self.source_block(w, me).map(|t| (w, t)))
    }
}

/// The factoring `P = L2 ∘ G ∘ L1` of an index-bit permutation over `l`
/// local and `n − l` rank bits (state maps: L1 first). Of the `m` local
/// bits P sends to rank positions:
///
/// * L1 swaps each one below the top `m` local positions with a top
///   position P keeps local — disjoint transpositions, at most `m`;
/// * G ([`BlockMap`]) sends top local bit `l − m + j` to a rank bit,
///   brings a rank bit down to it, and moves the rank bits that stay rank
///   bits as P does. The low `l − m` bits do not move, so a block of
///   `2^(l−m)` amplitudes stays contiguous and in order;
/// * L2 is what is left, a permutation of the local bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermuteLowering {
    pub l1: Vec<(u32, u32)>,
    pub blocks: BlockMap,
    pub l2: Permutation,
}

impl PermuteLowering {
    /// Factors `perm` over `l` local bits.
    pub fn new(perm: &Permutation, l: u32) -> Self {
        let n = perm.len();
        let blocks = BlockMap::new(perm, l);
        let (window, slots) = traded_slots(perm, l);
        // G ∘ L1 as a bit map: a traded bit lands where P sends it, the
        // free slot L1 swapped it with drops to its place, the rank bit
        // that comes down to slot `j` lands there, and every other bit
        // stays local or moves as P moves it. Then L2 = P ∘ (G ∘ L1)⁻¹.
        let mut g_l1: Vec<u32> = (0..n)
            .map(|q| if q < l { q } else { perm.apply(q) })
            .collect();
        let mut l1 = Vec::new();
        for (s, j) in slots {
            let w = window + j;
            if s != w {
                l1.push((s, w));
                g_l1[w as usize] = s;
            }
            g_l1[s as usize] = perm.apply(s);
            g_l1[(l + u32::from(blocks.down[j as usize])) as usize] = w;
        }
        let l2 = perm.compose(&Permutation::from_map(g_l1).inverse());
        debug_assert!((l..n).all(|p| l2.apply(p) == p), "L2 must be local");
        PermuteLowering { l1, blocks, l2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::Matrix4;

    fn lowered(gate: Gate, layout: &Layout, rank: u64, half: bool) -> (u32, Vec<Exchange>) {
        let g = lower_gate(&gate, layout, rank, half).unwrap();
        (g.tags, g.exchanges().copied().collect())
    }

    #[test]
    fn local_gates_take_no_tag() {
        let layout = Layout::new(6, 4);
        let cnot = Gate::CNot {
            control: 5,
            target: 0,
        };
        for gate in [Gate::H(3), Gate::Z(5), Gate::Swap(0, 3), cnot] {
            for rank in 0..4 {
                let g = lower_gate(&gate, &layout, rank, false).unwrap();
                assert_ne!(g.class, GateClass::Distributed, "{gate:?}");
                assert_eq!((g.tags, g.exchanges().count()), (0, 0), "{gate:?}");
            }
        }
    }

    #[test]
    fn spectators_consume_tags_but_exchange_nothing() {
        // Qubits 4 and 5 are rank bits 0 and 1 of four ranks.
        let layout = Layout::new(6, 4);
        let cnot = Gate::CNot {
            control: 4,
            target: 5,
        };
        for rank in 0..4 {
            let (tags, ex) = lowered(cnot.clone(), &layout, rank, false);
            assert_eq!(tags, 1);
            if rank & 1 == 0 {
                assert!(ex.is_empty(), "rank {rank} has the control bit clear");
            } else {
                let kernel = Kernel::Row {
                    bit: rank >> 1,
                    control: None,
                };
                assert_eq!(
                    ex,
                    [Exchange {
                        tag: 0,
                        peer: rank ^ 2,
                        amps: 16,
                        unit: 1,
                        kernel
                    }]
                );
            }
        }
        // Both-global SWAP: equal address bits sit it out.
        for rank in 0..4 {
            let (tags, ex) = lowered(Gate::Swap(4, 5), &layout, rank, false);
            assert_eq!(tags, 1);
            let differ = (rank & 1) != (rank >> 1);
            assert_eq!(ex.len(), usize::from(differ), "rank {rank}");
            if differ {
                let kernel = Kernel::Replace;
                assert_eq!(
                    ex,
                    [Exchange {
                        tag: 0,
                        peer: rank ^ 3,
                        amps: 16,
                        unit: 1,
                        kernel
                    }]
                );
            }
        }
    }

    #[test]
    fn both_global_unitary2_is_swap_combine_swap() {
        let layout = Layout::new(6, 4);
        let gate = Gate::Unitary2 {
            a: 5,
            b: 4,
            matrix: Matrix4::swap(),
        };
        for half in [false, true] {
            for rank in 0..4u64 {
                let (tags, ex) = lowered(gate.clone(), &layout, rank, half);
                assert_eq!(tags, 3);
                let lo_bit = rank & 1;
                let (amps, swap) = if half {
                    (8, Kernel::HalfSwap { lo: 0, bit: lo_bit })
                } else {
                    (16, Kernel::Swap { lo: 0, bit: lo_bit })
                };
                let swap_at = |tag| Exchange {
                    tag,
                    peer: rank ^ 1,
                    amps,
                    unit: 1,
                    kernel: swap,
                };
                let combine = Exchange {
                    tag: 1,
                    peer: rank ^ 2,
                    amps: 16,
                    unit: 2,
                    kernel: Kernel::Orbit {
                        lo: 0,
                        bit: rank >> 1,
                        swapped: true,
                    },
                };
                assert_eq!(
                    ex,
                    [swap_at(0), combine, swap_at(2)],
                    "rank {rank} half={half}"
                );
            }
        }
    }

    #[test]
    fn half_swap_ships_half_the_slice() {
        let layout = Layout::new(6, 4);
        for rank in 0..4 {
            let (_, full) = lowered(Gate::Swap(1, 5), &layout, rank, false);
            let (_, half) = lowered(Gate::Swap(1, 5), &layout, rank, true);
            assert_eq!(full[0].amps, layout.local_amps());
            assert_eq!(half[0].amps, layout.local_amps() / 2);
            assert_eq!(
                half[0].kernel,
                Kernel::HalfSwap {
                    lo: 1,
                    bit: rank >> 1
                }
            );
            assert_eq!((half[0].peer, half[0].unit), (full[0].peer, 1));
        }
    }

    #[test]
    fn one_global_unitary2_combines_orbits_of_its_local_qubit() {
        let layout = Layout::new(6, 4);
        for (a, b, swapped) in [(2, 5, false), (5, 2, true)] {
            let gate = Gate::Unitary2 {
                a,
                b,
                matrix: Matrix4::swap(),
            };
            let (tags, ex) = lowered(gate, &layout, 3, false);
            assert_eq!(tags, 1);
            let kernel = Kernel::Orbit {
                lo: 2,
                bit: 1,
                swapped,
            };
            assert_eq!(
                ex,
                [Exchange {
                    tag: 0,
                    peer: 1,
                    amps: 16,
                    unit: 8,
                    kernel
                }]
            );
        }
    }

    #[test]
    fn unlowerable_gates_are_typed_errors() {
        // Two qubits on four ranks: no local qubit to swap through.
        let layout = Layout::new(2, 4);
        let gate = Gate::Unitary2 {
            a: 0,
            b: 1,
            matrix: Matrix4::swap(),
        };
        let err = lower_gate(&gate, &layout, 0, false).unwrap_err();
        assert_eq!(err, LowerError::NoLocalQubit);
        assert_eq!(gate_traffic(&gate, &layout, false), Err(err.clone()));
        assert_eq!(
            err.to_string(),
            "both-global Unitary2 needs at least one local qubit"
        );
        let err = lower_gate(&Gate::H(6), &Layout::new(6, 2), 0, false).unwrap_err();
        assert_eq!(err.to_string(), "gate operand 6 out of range for 6 qubits");
    }

    #[test]
    fn traffic_folds_the_lowering_over_ranks() {
        // Ten qubits over eight ranks: qubits 7..9 are rank bits and a
        // slice is 128 amplitudes, 2 048 B.
        let layout = Layout::new(10, 8);
        let u2 = Gate::Unitary2 {
            a: 8,
            b: 9,
            matrix: Matrix4::swap(),
        };
        let cnot = Gate::CNot {
            control: 8,
            target: 9,
        };
        // (gate, half swaps, participants, exchanges each, bytes over all ranks)
        let table = [
            (u2.clone(), false, 8, 3, 49_152),
            (u2, true, 8, 3, 32_768),
            (cnot, false, 4, 1, 8_192),
            (Gate::Swap(8, 9), false, 4, 1, 8_192),
            (Gate::Swap(8, 9), true, 4, 1, 8_192),
            (Gate::Swap(0, 9), true, 8, 1, 8_192),
            (Gate::H(9), false, 8, 1, 16_384),
            (Gate::H(0), false, 0, 0, 0),
        ];
        for (gate, half, participants, exchanges, bytes) in table {
            let t = gate_traffic(&gate, &layout, half).unwrap();
            let got = (
                t.participants,
                t.lowering.exchanges().count(),
                t.bytes_sent(),
            );
            assert_eq!(got, (participants, exchanges, bytes), "{gate} half={half}");
            assert_eq!(
                t.rank_bytes() * t.participants,
                t.bytes_sent(),
                "{gate} half={half}"
            );
        }
    }

    #[test]
    fn qft_traffic_at_paper_scale() {
        use crate::qft::{cache_blocked_qft, qft};
        // 38 qubits over 64 ranks: six rank qubits.
        let layout = Layout::new(38, 64);
        let slices = |k: u64| k * 64 * layout.local_amps() * BYTES_PER_AMP;
        let count = |c: &Circuit, half| {
            let t = circuit_traffic(c, &layout, half).unwrap();
            let of = |class| t.iter().filter(|t| t.lowering.class == class).count();
            let bytes = t.iter().map(GateTraffic::bytes_sent).sum::<u64>();
            (of(GateClass::FullyLocal), of(GateClass::Distributed), bytes)
        };
        // Six H and six SWAPs exchange; every controlled phase is local.
        assert_eq!(count(&qft(38), false), (38 * 37 / 2, 12, slices(12)));
        // Cache blocking leaves the six SWAPs, and half-exchange SWAPs
        // halve their bytes again (§4).
        let blocked = cache_blocked_qft(38, 30);
        let (_, distributed, bytes) = count(&blocked, false);
        assert_eq!((distributed, bytes), (6, slices(6)));
        assert_eq!(count(&blocked, true).2, slices(3));
    }

    /// The rank and slot that global index `i` occupies after `perm`.
    fn placed(perm: &Permutation, l: u32, i: u64) -> (u64, u64) {
        let d = perm.permute_index(i);
        (d >> l, d & ((1 << l) - 1))
    }

    #[test]
    fn block_map_moves_every_amplitude_where_the_permutation_puts_it() {
        // After L1, block t of rank u lands in block source_block(u, v) of
        // v = the rank sent_block names; L2 then only permutes local bits,
        // so every amplitude's destination rank must agree with P's.
        let perms = [
            Permutation::reversal(6),
            Permutation::from_map(vec![5, 0, 1, 2, 3, 4]),
            Permutation::from_map(vec![0, 4, 2, 5, 1, 3]),
            Permutation::from_map(vec![1, 0, 2, 3, 5, 4]),
        ];
        for perm in &perms {
            for ranks in [1u64, 2, 4, 8] {
                let l = 6 - ranks.trailing_zeros();
                let lw = PermuteLowering::new(perm, l);
                let g = &lw.blocks;
                assert!((l..6).all(|p| lw.l2.apply(p) == p), "L2 is local");
                let block = g.block_amps();
                let l1 = {
                    let mut p = Permutation::identity(6);
                    lw.l1.iter().for_each(|&(a, b)| p.swap(a, b));
                    p
                };
                for u in 0..ranks {
                    let mut sent = 0;
                    for v in 0..ranks {
                        let Some(t) = g.sent_block(u, v) else {
                            continue;
                        };
                        sent += u64::from(u != v);
                        assert!(g.source_block(u, v).is_some());
                        // Every amplitude of that block belongs on rank v.
                        for k in 0..block {
                            let before_l1 = l1.permute_index((u << l) | (t * block + k));
                            assert_eq!(placed(perm, l, before_l1).0, v, "{perm:?} R={ranks}");
                        }
                    }
                    assert_eq!(sent, g.blocks_sent(u));
                    assert_eq!(g.sends(u, ranks).count() as u64, g.blocks_sent(u));
                }
                assert_eq!(g.tags(), u32::from(!(l..6).all(|p| perm.apply(p) == p)));
            }
        }
    }
}
