//! Comm-avoiding transpilation: cost-model-driven placement search with
//! batched global swaps.
//!
//! The cache-blocking pass ([`super::cache_blocking`]) evicts greedily,
//! one offender at a time, and lowers every layout change to a pairwise
//! SWAP — k layout changes cost k full exchanges. mpiQulacs showed that
//! rank-local relabeling plus *batched* global swaps collapses many
//! distributed exchanges into a few large ones. This pass closes that gap
//! in two ways:
//!
//! 1. **Search.** Instead of committing to the first legal eviction, the
//!    pass looks ahead over the gate stream, enumerates candidate batched
//!    placements (greedy-LRU baseline, lookahead-window beam search) and
//!    scores each candidate with a pluggable [`ExchangeOracle`] — the
//!    machine crate's calibrated time/energy model implements the trait,
//!    making it a compile-time oracle rather than a reporting tool.
//!    Schedules are ordered by modeled exchange bytes first
//!    ([`StepCost::better_than`]), modeled seconds and joules as
//!    tie-breaks.
//! 2. **Batching.** Layout changes are emitted as [`PlanStep::Permute`]
//!    steps — whole index-bit permutations, adjacent changes coalesced by
//!    composition — which the statevector engine lowers to *one* global
//!    exchange that moves each amplitude block exactly once. A batched
//!    permutation mixing k rank bits moves `1 − 2^-k` of each slice, so
//!    even a single swap-in costs half of what the engine's full pairwise
//!    exchange moves.
//!
//! Both passes, and the beam's rollout, place gates through one step
//! (`Tracker::place`) and one LRU victim rule; they differ only in how a
//! batch is chosen and what is done with it.
//!
//! ## Contract
//!
//! Same shape as cache-blocking: for input circuit `C` the pass returns a
//! [`Plan`] whose steps, applied in order (a `Permute(p)` acting as the
//! index-bit permutation `Π(p)`), equal `Π(layout) · C` as operators.
//! Running the plan and un-permuting through `layout` reproduces `C`
//! amplitude-for-amplitude; the statevector property suite pins this.

use crate::circuit::Circuit;
use crate::classify::{Layout, BYTES_PER_AMP};
use crate::gate::Gate;
use crate::lower::BlockMap;
use crate::permutation::Permutation;

/// Modeled cost of one (or several, accumulated) communication steps.
///
/// Ordered lexicographically: exchange bytes dominate, modeled wall-clock
/// seconds and then energy break ties — the e-graph joint-cost idiom with
/// bytes as the primary objective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    /// Total payload bytes sent across all ranks.
    pub bytes: u64,
    /// Modeled wall-clock seconds (driven by the busiest rank).
    pub seconds: f64,
    /// Modeled energy in joules.
    pub joules: f64,
}

impl StepCost {
    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: StepCost) {
        self.bytes += other.bytes;
        self.seconds += other.seconds;
        self.joules += other.joules;
    }

    /// Strict schedule ordering: fewer bytes wins; equal bytes fall back
    /// to modeled seconds, then joules.
    pub fn better_than(&self, other: &StepCost) -> bool {
        if self.bytes != other.bytes {
            return self.bytes < other.bytes;
        }
        if self.seconds != other.seconds {
            return self.seconds < other.seconds;
        }
        self.joules < other.joules
    }
}

/// Payload moved by lowering one index-bit permutation to a batched
/// global exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PermTraffic {
    /// Bytes sent summed over all ranks.
    pub total_bytes: u64,
    /// Bytes sent by the busiest rank (sets the step's wall-clock).
    pub max_rank_bytes: u64,
}

/// Compile-time communication oracle: prices one batched exchange step.
///
/// Defined here (the transpiler's crate) so the pass has no dependency on
/// the machine crate; `qse-machine` implements it over the calibrated
/// ARCHER2 model and hands it back down as a trait object.
pub trait ExchangeOracle {
    /// Scores one exchange step with the given traffic shape.
    fn exchange(&self, traffic: PermTraffic) -> StepCost;
}

/// Byte-counting oracle: the in-crate default when no machine model is
/// wired in. Seconds are a nominal 1 GiB/s so tie-breaks stay monotone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByteOracle;

impl ExchangeOracle for ByteOracle {
    fn exchange(&self, traffic: PermTraffic) -> StepCost {
        StepCost {
            bytes: traffic.total_bytes,
            seconds: traffic.max_rank_bytes as f64 / (1u64 << 30) as f64,
            joules: 0.0,
        }
    }
}

/// Exact traffic of applying index-bit permutation `perm` (over the full
/// register) as one batched exchange under `layout`: each rank's sent
/// bytes folded over the engine's [`BlockMap`]. A rank sends every block
/// of its slice but the one it keeps, so a permutation touching no rank
/// bit costs zero network traffic.
pub fn permutation_traffic(perm: &Permutation, layout: &Layout) -> PermTraffic {
    assert_eq!(perm.len(), layout.n_qubits(), "permutation/layout width");
    let blocks = BlockMap::new(perm, layout.local_qubits());
    let block_bytes = blocks.block_amps() * BYTES_PER_AMP;
    (0..layout.n_ranks()).fold(PermTraffic::default(), |t, u| {
        let sent = blocks.blocks_sent(u) * block_bytes;
        PermTraffic {
            total_bytes: t.total_bytes + sent,
            max_rank_bytes: t.max_rank_bytes.max(sent),
        }
    })
}

/// One step of a comm-avoiding schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// A physical gate, all non-diagonal operands inside the local window.
    Gate(Gate),
    /// A batched layout change: state index bit `q` moves to bit
    /// `perm.apply(q)`, lowered to a single multi-qubit global exchange.
    Permute(Permutation),
}

/// A comm-avoiding schedule: the tentpole output of [`comm_avoid`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    n_qubits: u32,
    /// Steps in application order.
    pub steps: Vec<PlanStep>,
    /// Final layout: logical qubit `q` ends at physical position
    /// `layout.apply(q)` (same contract as cache-blocking).
    pub layout: Permutation,
}

impl Plan {
    /// Wraps a plain physical circuit and its final layout (no permutes).
    pub fn from_circuit(circuit: &Circuit, layout: Permutation) -> Plan {
        assert_eq!(circuit.n_qubits(), layout.len(), "circuit/layout width");
        Plan {
            n_qubits: circuit.n_qubits(),
            steps: circuit
                .gates()
                .iter()
                .cloned()
                .map(PlanStep::Gate)
                .collect(),
            layout,
        }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of gate steps.
    pub fn gate_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Gate(_)))
            .count()
    }

    /// Number of batched-permutation steps.
    pub fn permute_count(&self) -> usize {
        self.steps.len() - self.gate_count()
    }

    /// Modeled exchange cost of every `Permute` step under `layout`,
    /// scored by `oracle` — the compile-time estimate reported next to
    /// the measured `bytes_exchanged`.
    pub fn price(&self, layout: &Layout, oracle: &dyn ExchangeOracle) -> StepCost {
        let mut cost = StepCost::default();
        for step in &self.steps {
            if let PlanStep::Permute(p) = step {
                cost.accumulate(oracle.exchange(permutation_traffic(p, layout)));
            }
        }
        cost
    }

    /// Appends the single batched permutation that restores the identity
    /// layout, making the plan strictly equivalent to the original
    /// circuit (one exchange, however many transpositions the layout
    /// decomposes into). Coalesces with a trailing `Permute` step.
    pub fn with_layout_restored(&self) -> Plan {
        let mut out = self.clone();
        if !out.layout.is_identity() {
            let inverse = out.layout.inverse();
            push_permute(&mut out.steps, inverse);
            out.layout = Permutation::identity(out.n_qubits);
        }
        out
    }
}

/// Placement-search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The cache-blocking rule: one offender at a time, LRU victim.
    /// Batching happens only through adjacency coalescing (e.g. a
    /// both-global two-qubit unitary still becomes one permutation).
    Greedy,
    /// Lookahead-window beam search: at each decision point, candidate
    /// batches cover the next few upcoming offenders at once, with up to
    /// `width` victim-set variants per batch size, each scored by a
    /// greedy rollout over the window.
    Beam {
        /// Victim-set variants considered per batch size.
        width: usize,
        /// Gates of lookahead for offender collection and rollout.
        lookahead: usize,
    },
}

impl Strategy {
    /// The default beam configuration used by the CLI.
    pub fn beam() -> Strategy {
        Strategy::Beam {
            width: 4,
            lookahead: 48,
        }
    }
}

/// Coalesces a layout change into the step list: composes with a
/// trailing `Permute`, drops identities (including a pair that cancels).
fn push_permute(steps: &mut Vec<PlanStep>, perm: Permutation) {
    if perm.is_identity() {
        return;
    }
    if let Some(PlanStep::Permute(prev)) = steps.last_mut() {
        // `prev` is applied first, then `perm`: combined = perm ∘ prev.
        let combined = perm.compose(prev);
        if combined.is_identity() {
            steps.pop();
        } else {
            *prev = combined;
        }
        return;
    }
    steps.push(PlanStep::Permute(perm));
}

/// The layout and its placement rule, shared by both passes and the
/// beam rollout: [`Tracker::place`] is the one placement step,
/// [`Tracker::lru_swap_in`] the one greedy (LRU) victim choice.
#[derive(Debug, Clone)]
pub(crate) struct Tracker {
    phys_of: Vec<u32>,  // logical -> physical
    log_of: Vec<u32>,   // physical -> logical
    last_use: Vec<u64>, // by physical slot
}

impl Tracker {
    pub(crate) fn new(n: u32) -> Tracker {
        Tracker {
            phys_of: (0..n).collect(),
            log_of: (0..n).collect(),
            last_use: vec![0; n as usize],
        }
    }

    /// Final layout: logical qubit `q` sits at physical `apply(q)`.
    pub(crate) fn into_layout(self) -> Permutation {
        Permutation::from_map(self.phys_of)
    }

    /// Absorbs an input SWAP into the layout (no emitted step).
    fn virtual_swap(&mut self, a: u32, b: u32, clock: u64) {
        let (pa, pb) = (self.phys_of[a as usize], self.phys_of[b as usize]);
        self.phys_of.swap(a as usize, b as usize);
        self.log_of.swap(pa as usize, pb as usize);
        self.last_use[pa as usize] = clock;
        self.last_use[pb as usize] = clock;
    }

    /// Applies a batch of disjoint (victim, offender) physical-position
    /// transpositions to the layout.
    fn apply_batch(&mut self, batch: &[(u32, u32)], clock: u64) {
        for &(victim, offender) in batch {
            let (la, lb) = (self.log_of[victim as usize], self.log_of[offender as usize]);
            self.phys_of.swap(la as usize, lb as usize);
            self.log_of.swap(victim as usize, offender as usize);
            self.last_use[victim as usize] = clock;
        }
    }

    fn remap(&self, gate: &Gate) -> Gate {
        gate.remap(&|q: u32| self.phys_of[q as usize])
    }

    /// One placement step for input gate `gate` at `clock` (1-based gate
    /// index). An input SWAP is absorbed into the layout and `None`
    /// returned. Otherwise, while the physical gate has non-diagonal
    /// operands outside the `local` window, `batch_for` is handed the
    /// layout, the physical gate and its offenders (in operand order)
    /// and returns the (victim, offender) batch to apply — the caller
    /// emits or prices it there. Returns the localised physical gate.
    pub(crate) fn place<B: AsRef<[(u32, u32)]>>(
        &mut self,
        gate: &Gate,
        clock: u64,
        local: u32,
        mut batch_for: impl FnMut(&Tracker, &Gate, &[u32]) -> B,
    ) -> Option<Gate> {
        if let Gate::Swap(a, b) = *gate {
            self.virtual_swap(a, b, clock);
            return None;
        }
        let mut physical = self.remap(gate);
        loop {
            let offs = offenders(&physical, local);
            if offs.is_empty() {
                break;
            }
            let batch = batch_for(self, &physical, &offs);
            self.apply_batch(batch.as_ref(), clock);
            physical = self.remap(gate);
        }
        for p in physical.qubits() {
            self.last_use[p as usize] = clock;
        }
        Some(physical)
    }

    /// The greedy batch: the first offender swaps with the
    /// least-recently-used local slot the gate does not touch.
    pub(crate) fn lru_swap_in(&self, physical: &Gate, offs: &[u32], local: u32) -> [(u32, u32); 1] {
        let in_gate = physical.qubits();
        let victim = (0..local)
            .filter(|p| !in_gate.contains(p))
            .min_by_key(|&p| self.last_use[p as usize])
            .expect("local window big enough for a victim slot");
        [(victim, offs[0])]
    }
}

/// Physical positions a gate needs inside the local window: both qubits
/// for a general two-qubit unitary (its orbits pair on both), the target
/// otherwise, nothing for diagonals (fully local at any position).
fn needs_local(physical: &Gate) -> Vec<u32> {
    if physical.is_diagonal() {
        return Vec::new();
    }
    match *physical {
        Gate::Unitary2 { a, b, .. } => vec![a, b],
        ref g => vec![g.target()],
    }
}

fn offenders(physical: &Gate, local: u32) -> Vec<u32> {
    needs_local(physical)
        .into_iter()
        .filter(|&p| p >= local)
        .collect()
}

/// Builds the permutation realising a batch of disjoint transpositions.
fn batch_permutation(n: u32, batch: &[(u32, u32)]) -> Permutation {
    let mut p = Permutation::identity(n);
    for &(a, b) in batch {
        p.swap(a, b);
    }
    p
}

/// Shared read-only context for the search.
struct Ctx<'a> {
    gates: &'a [Gate],
    /// Per-logical-qubit gate indices (1-based clocks), ascending.
    uses: Vec<Vec<u64>>,
    local: u32,
    layout: &'a Layout,
    oracle: &'a dyn ExchangeOracle,
}

impl Ctx<'_> {
    /// Bélády distance: the next clock at which `logical` is used.
    fn next_use(&self, logical: u32, now: u64) -> u64 {
        let u = &self.uses[logical as usize];
        match u.partition_point(|&t| t <= now) {
            i if i < u.len() => u[i],
            _ => u64::MAX,
        }
    }

    /// Modeled cost of one batch lowered to a single batched exchange.
    fn price(&self, batch: &[(u32, u32)]) -> StepCost {
        let perm = batch_permutation(self.layout.n_qubits(), batch);
        self.oracle
            .exchange(permutation_traffic(&perm, self.layout))
    }
}

/// Runs the comm-avoiding pass.
///
/// `layout` fixes the rank geometry (how many qubits are global) and the
/// traffic model; `oracle` prices candidate exchanges. The returned plan
/// satisfies the module-level contract.
pub fn comm_avoid(
    circuit: &Circuit,
    layout: &Layout,
    strategy: Strategy,
    oracle: &dyn ExchangeOracle,
) -> Plan {
    let n = circuit.n_qubits();
    assert_eq!(
        layout.n_qubits(),
        n,
        "layout geometry must match the circuit"
    );
    let local = layout.local_qubits();
    assert!(local >= 1, "at least one local qubit is required");

    let uses = {
        let mut uses = vec![Vec::new(); n as usize];
        for (i, g) in circuit.gates().iter().enumerate() {
            for q in g.qubits() {
                uses[q as usize].push(i as u64 + 1);
            }
        }
        uses
    };
    let ctx = Ctx {
        gates: circuit.gates(),
        uses,
        local,
        layout,
        oracle,
    };

    let mut tr = Tracker::new(n);
    let mut steps: Vec<PlanStep> = Vec::new();
    for (i, gate) in ctx.gates.iter().enumerate() {
        let placed = tr.place(gate, i as u64 + 1, local, |tr, physical, offs| {
            let batch = match strategy {
                Strategy::Greedy => tr.lru_swap_in(physical, offs, local).to_vec(),
                Strategy::Beam { width, lookahead } => {
                    search_batch(&ctx, tr, i, offs, physical, width.max(1), lookahead)
                }
            };
            push_permute(&mut steps, batch_permutation(n, &batch));
            batch
        });
        if let Some(physical) = placed {
            steps.push(PlanStep::Gate(physical));
        }
    }

    Plan {
        n_qubits: n,
        steps,
        layout: tr.into_layout(),
    }
}

/// Distinct global physical positions needed within the window, in
/// first-need order, scanned with the layout frozen (input SWAPs are
/// still absorbed). The current gate is scanned first, so its offenders
/// form a prefix of the result.
fn upcoming_offenders(ctx: &Ctx<'_>, tr: &Tracker, i: usize, window: usize) -> Vec<u32> {
    let mut t = tr.clone();
    let mut out: Vec<u32> = Vec::new();
    let end = usize::min(ctx.gates.len(), i + usize::max(window, 1));
    for (j, g) in ctx.gates.iter().enumerate().take(end).skip(i) {
        if let Gate::Swap(a, b) = *g {
            t.virtual_swap(a, b, j as u64 + 1);
            continue;
        }
        for p in offenders(&t.remap(g), ctx.local) {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    out
}

/// Beam candidate search: enumerate batch sizes covering the current
/// offenders plus 0.. upcoming ones, pair each size with victim sets,
/// score every candidate (immediate exchange + greedy rollout over the
/// window) and keep the best by [`StepCost::better_than`].
fn search_batch(
    ctx: &Ctx<'_>,
    tr: &Tracker,
    i: usize,
    offs: &[u32],
    physical: &Gate,
    width: usize,
    lookahead: usize,
) -> Vec<(u32, u32)> {
    let in_gate = physical.qubits();
    let eligible: Vec<u32> = (0..ctx.local).filter(|p| !in_gate.contains(p)).collect();
    assert!(
        eligible.len() >= offs.len(),
        "local window big enough for a victim slot"
    );
    let clock = i as u64 + 1;
    let upcoming = upcoming_offenders(ctx, tr, i, lookahead);
    debug_assert!(upcoming.starts_with(offs), "current offenders lead");
    let max_batch = usize::min(upcoming.len(), eligible.len());

    // Victims ranked best-first: furthest next use of the occupant
    // (Bélády), least-recently-used slot breaking ties.
    let mut ranked: Vec<u32> = eligible.clone();
    ranked.sort_by_key(|&p| {
        (
            std::cmp::Reverse(ctx.next_use(tr.log_of[p as usize], clock)),
            tr.last_use[p as usize],
            p,
        )
    });
    let mut lru: Vec<u32> = eligible;
    lru.sort_by_key(|&p| (tr.last_use[p as usize], p));

    let mut best: Option<(StepCost, Vec<(u32, u32)>)> = None;
    for k in usize::max(offs.len(), 1)..=max_batch {
        let batch_offs = &upcoming[..k];
        for victims in victim_sets(&ranked, &lru, k, width) {
            let batch: Vec<(u32, u32)> = victims
                .iter()
                .copied()
                .zip(batch_offs.iter().copied())
                .collect();
            let cost = score_batch(ctx, tr, i, &batch, lookahead);
            let is_better = match &best {
                None => true,
                Some((b, _)) => cost.better_than(b),
            };
            if is_better {
                best = Some((cost, batch));
            }
        }
    }
    best.expect("at least one candidate batch exists").1
}

/// Victim-set candidates of size `k`: the Bélády-ranked prefix, the LRU
/// prefix, then tail perturbations of the ranked prefix, up to `width`
/// sets.
fn victim_sets(ranked: &[u32], lru: &[u32], k: usize, width: usize) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let push = |s: Vec<u32>, sets: &mut Vec<Vec<u32>>| {
        let mut key = s.clone();
        key.sort_unstable();
        if !sets.iter().any(|e| {
            let mut ek = e.clone();
            ek.sort_unstable();
            ek == key
        }) {
            sets.push(s);
        }
    };
    push(ranked[..k].to_vec(), &mut sets);
    push(lru[..k].to_vec(), &mut sets);
    // Perturb the ranked prefix: swap its last pick for the next-ranked.
    let mut alt = 0usize;
    while sets.len() < width && k + alt < ranked.len() {
        let mut s = ranked[..k].to_vec();
        s[k - 1] = ranked[k + alt];
        push(s, &mut sets);
        alt += 1;
    }
    sets.truncate(width.max(1));
    sets
}

/// Scores a candidate batch: its own exchange cost plus a greedy
/// rollout over the lookahead window, each rollout swap-in priced as its
/// own single-transposition permutation.
fn score_batch(
    ctx: &Ctx<'_>,
    tr: &Tracker,
    i: usize,
    batch: &[(u32, u32)],
    lookahead: usize,
) -> StepCost {
    let mut cost = ctx.price(batch);
    let mut t = tr.clone();
    t.apply_batch(batch, i as u64 + 1);
    let end = usize::min(ctx.gates.len(), i + usize::max(lookahead, 1));
    for (j, g) in ctx.gates.iter().enumerate().take(end).skip(i) {
        t.place(g, j as u64 + 1, ctx.local, |t, physical, offs| {
            let swap_in = t.lru_swap_in(physical, offs, ctx.local);
            cost.accumulate(ctx.price(&swap_in));
            swap_in
        });
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qft::qft;
    use crate::random::{random_circuit, GatePool};

    fn geometry(n: u32, ranks: u64) -> Layout {
        Layout::new(n, ranks)
    }

    /// Brute-force traffic: enumerate every amplitude index, count the
    /// ones whose destination rank differs from their source rank.
    fn brute_traffic(perm: &Permutation, layout: &Layout) -> PermTraffic {
        let l = layout.local_qubits();
        let mut sent = vec![0u64; layout.n_ranks() as usize];
        for s in 0..(1u64 << layout.n_qubits()) {
            let d = perm.permute_index(s);
            if s >> l != d >> l {
                sent[(s >> l) as usize] += BYTES_PER_AMP;
            }
        }
        PermTraffic {
            total_bytes: sent.iter().sum(),
            max_rank_bytes: sent.iter().copied().max().unwrap_or(0),
        }
    }

    #[test]
    fn traffic_matches_brute_force() {
        let cases: Vec<(u32, u64, Vec<u32>)> = vec![
            (4, 4, vec![0, 1, 2, 3]),       // identity
            (4, 4, vec![3, 1, 2, 0]),       // local<->global transposition
            (4, 4, vec![2, 3, 0, 1]),       // both globals swapped in
            (4, 4, vec![0, 1, 3, 2]),       // global<->global
            (5, 8, vec![4, 3, 2, 1, 0]),    // full reversal
            (5, 8, vec![1, 0, 2, 3, 4]),    // purely local: zero traffic
            (6, 4, vec![5, 1, 2, 3, 0, 4]), // 3-cycle through the globals
        ];
        for (n, ranks, map) in cases {
            let layout = geometry(n, ranks);
            let p = Permutation::from_map(map);
            assert_eq!(
                permutation_traffic(&p, &layout),
                brute_traffic(&p, &layout),
                "mismatch for {p:?} at R={ranks}"
            );
        }
    }

    /// The closed form `permutation_traffic` had before it folded the
    /// block map, kept as its oracle: rank-address bit `p` of an
    /// amplitude's destination is sourced from bit `perm⁻¹(L+p)` of its
    /// current index. A *local* source bit varies over the slice — each
    /// rank keeps only the `2^-m` fraction whose m such bits match its
    /// own address — while a *global* source bit pins a constraint on the
    /// rank address: ranks violating any constraint keep nothing.
    fn closed_form_traffic(perm: &Permutation, layout: &Layout) -> PermTraffic {
        let l = layout.local_qubits();
        let local_amps = layout.local_amps();
        let inv = perm.inverse();
        let mut m = 0u32;
        let mut constraints: Vec<(u32, u32)> = Vec::new(); // (dest rank bit, src rank bit)
        for p in l..layout.n_qubits() {
            let src = inv.apply(p);
            if src < l {
                m += 1;
            } else if src != p {
                constraints.push((p - l, src - l));
            }
        }
        let mut total_bytes = 0u64;
        let mut max_rank_bytes = 0u64;
        for u in 0..layout.n_ranks() {
            let stays = constraints
                .iter()
                .all(|&(d, s)| (u >> d) & 1 == (u >> s) & 1);
            let stay_amps = if stays { local_amps >> m } else { 0 };
            let sent = (local_amps - stay_amps) * BYTES_PER_AMP;
            total_bytes += sent;
            max_rank_bytes = max_rank_bytes.max(sent);
        }
        PermTraffic {
            total_bytes,
            max_rank_bytes,
        }
    }

    /// Every permutation of `0..n`, by Heap's algorithm.
    fn all_permutations(n: u32) -> Vec<Permutation> {
        fn heap(k: usize, map: &mut Vec<u32>, out: &mut Vec<Permutation>) {
            if k <= 1 {
                out.push(Permutation::from_map(map.clone()));
                return;
            }
            for i in 0..k {
                heap(k - 1, map, out);
                map.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n as usize, &mut (0..n).collect(), &mut out);
        out
    }

    #[test]
    fn block_map_fold_matches_the_closed_form() {
        for n in 1..=5u32 {
            let perms = all_permutations(n);
            assert_eq!(perms.len(), (1..=n as usize).product::<usize>());
            for ranks in [1u64, 2, 4, 8].into_iter().filter(|&r| r <= 1 << n) {
                let layout = geometry(n, ranks);
                for p in &perms {
                    let want = closed_form_traffic(p, &layout);
                    assert_eq!(permutation_traffic(p, &layout), want, "{p:?} at R={ranks}");
                }
            }
        }
        use qse_util::rng::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        for n in 6..=12u32 {
            for ranks in [1u64, 2, 4, 8, 64] {
                let layout = geometry(n, ranks);
                for _ in 0..20 {
                    let mut map: Vec<u32> = (0..n).collect();
                    for i in (1..map.len()).rev() {
                        map.swap(i, rng.random_range(0..=i));
                    }
                    let p = Permutation::from_map(map);
                    let want = closed_form_traffic(&p, &layout);
                    assert_eq!(permutation_traffic(&p, &layout), want, "{p:?} at R={ranks}");
                }
            }
        }
    }

    #[test]
    fn local_permutation_is_free() {
        let layout = geometry(6, 4);
        let mut p = Permutation::identity(6);
        p.swap(0, 3);
        p.swap(1, 2);
        assert_eq!(permutation_traffic(&p, &layout).total_bytes, 0);
    }

    #[test]
    fn single_swap_in_moves_half_of_each_slice() {
        // One local<->global transposition: every rank keeps the half of
        // its slice whose routing bit matches, versus the engine's full
        // pairwise exchange.
        let layout = geometry(6, 4);
        let mut p = Permutation::identity(6);
        p.swap(0, 5);
        let t = permutation_traffic(&p, &layout);
        let half_slice = layout.local_amps() / 2 * BYTES_PER_AMP;
        assert_eq!(t.max_rank_bytes, half_slice);
        assert_eq!(t.total_bytes, layout.n_ranks() * half_slice);
    }

    #[test]
    fn batched_double_swap_beats_two_singles() {
        let layout = geometry(6, 4);
        let mut batched = Permutation::identity(6);
        batched.swap(0, 4);
        batched.swap(1, 5);
        let mut single = Permutation::identity(6);
        single.swap(0, 4);
        let two_singles = 2 * permutation_traffic(&single, &layout).total_bytes;
        let one_batch = permutation_traffic(&batched, &layout).total_bytes;
        assert!(
            one_batch < two_singles,
            "batched {one_batch} vs sequential {two_singles}"
        );
    }

    #[test]
    fn step_cost_orders_bytes_first() {
        let a = StepCost {
            bytes: 10,
            seconds: 9.0,
            joules: 9.0,
        };
        let b = StepCost {
            bytes: 11,
            seconds: 0.0,
            joules: 0.0,
        };
        assert!(a.better_than(&b));
        let c = StepCost {
            bytes: 10,
            seconds: 1.0,
            joules: 0.0,
        };
        assert!(c.better_than(&a));
    }

    #[test]
    fn push_permute_coalesces_and_cancels() {
        let mut steps = Vec::new();
        let mut p1 = Permutation::identity(4);
        p1.swap(0, 3);
        push_permute(&mut steps, p1.clone());
        assert_eq!(steps.len(), 1);
        // Composing with itself cancels (transpositions are involutions).
        push_permute(&mut steps, p1.clone());
        assert!(steps.is_empty());
        // Distinct transpositions merge into one step.
        let mut p2 = Permutation::identity(4);
        p2.swap(1, 2);
        push_permute(&mut steps, p1);
        push_permute(&mut steps, p2);
        assert_eq!(steps.len(), 1);
        let PlanStep::Permute(ref merged) = steps[0] else {
            panic!("expected a permute step");
        };
        assert_eq!(merged.apply(0), 3);
        assert_eq!(merged.apply(1), 2);
    }

    #[test]
    fn local_circuit_passes_through() {
        let mut c = Circuit::new(6);
        c.h(0).cnot(1, 2).t(3);
        let layout = geometry(6, 4);
        for strategy in [Strategy::Greedy, Strategy::beam()] {
            let plan = comm_avoid(&c, &layout, strategy, &ByteOracle);
            assert_eq!(plan.permute_count(), 0);
            assert_eq!(plan.gate_count(), 3);
            assert!(plan.layout.is_identity());
        }
    }

    #[test]
    fn greedy_matches_cache_blocking_decisions() {
        // Same LRU rule, so the emitted gate stream equals cache_block's
        // with each inserted SWAP lowered to a Permute step.
        let c = random_circuit(8, 80, GatePool::Full, 42);
        let layout = geometry(8, 8);
        let plan = comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle);
        let t = crate::transpile::cache_block(&c, layout.local_qubits());
        let plan_gates: Vec<&Gate> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Gate(g) => Some(g),
                PlanStep::Permute(_) => None,
            })
            .collect();
        let blocked_gates: Vec<&Gate> = t
            .circuit
            .gates()
            .iter()
            .filter(|g| !matches!(g, Gate::Swap(..)))
            .collect();
        assert_eq!(plan_gates, blocked_gates);
        assert_eq!(plan.layout, t.layout);
    }

    #[test]
    fn emitted_gates_are_local() {
        let c = random_circuit(9, 150, GatePool::Full, 7);
        let layout = geometry(9, 16);
        for strategy in [Strategy::Greedy, Strategy::beam()] {
            let plan = comm_avoid(&c, &layout, strategy, &ByteOracle);
            for step in &plan.steps {
                if let PlanStep::Gate(g) = step {
                    for p in offenders(g, layout.local_qubits()) {
                        panic!("global operand {p} leaked from {g} under {strategy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn gate_multiset_preserved() {
        let c = random_circuit(8, 120, GatePool::Full, 99);
        let layout = geometry(8, 8);
        for strategy in [Strategy::Greedy, Strategy::beam()] {
            let plan = comm_avoid(&c, &layout, strategy, &ByteOracle);
            let mut before = c.gate_counts();
            before.remove("Swap");
            let mut after = std::collections::BTreeMap::new();
            for step in &plan.steps {
                if let PlanStep::Gate(g) = step {
                    *after.entry(g.name()).or_insert(0usize) += 1;
                }
            }
            let before: Vec<_> = before.into_iter().collect();
            let after: Vec<_> = after.into_iter().collect();
            assert_eq!(before, after, "strategy {strategy:?}");
        }
    }

    #[test]
    fn beam_coalesces_qft_swap_ins() {
        // QFT at R=4: the two global qubits are both needed within the
        // lookahead window, so beam brings them in with a single batched
        // permutation; greedy needs one permutation each.
        let n = 12u32;
        let layout = geometry(n, 4);
        let greedy = comm_avoid(&qft(n), &layout, Strategy::Greedy, &ByteOracle);
        let beam = comm_avoid(&qft(n), &layout, Strategy::beam(), &ByteOracle);
        assert_eq!(greedy.permute_count(), 2);
        assert_eq!(beam.permute_count(), 1);
        let gb = greedy.price(&layout, &ByteOracle).bytes;
        let bb = beam.price(&layout, &ByteOracle).bytes;
        assert!(bb < gb, "beam {bb} vs greedy {gb} modeled bytes");
    }

    #[test]
    fn beam_never_models_more_bytes_than_greedy() {
        for seed in 0..10u64 {
            let c = random_circuit(9, 60, GatePool::Full, seed + 1000);
            let layout = geometry(9, 8);
            let g = comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle).with_layout_restored();
            let b = comm_avoid(&c, &layout, Strategy::beam(), &ByteOracle).with_layout_restored();
            let gb = g.price(&layout, &ByteOracle).bytes;
            let bb = b.price(&layout, &ByteOracle).bytes;
            assert!(bb <= gb, "seed {seed}: beam {bb} > greedy {gb}");
        }
    }

    #[test]
    fn restore_appends_one_permute_step() {
        let mut c = Circuit::new(6);
        c.swap(0, 5).h(5); // virtual swap leaves a non-identity layout
        let layout = geometry(6, 4);
        let plan = comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle);
        assert!(!plan.layout.is_identity());
        let restored = plan.with_layout_restored();
        assert!(restored.layout.is_identity());
        assert_eq!(restored.permute_count(), plan.permute_count() + 1);
        // The appended step is the inverse of the unrestored layout.
        let PlanStep::Permute(ref last) = restored.steps[restored.steps.len() - 1] else {
            panic!("restore must end in a permute step");
        };
        assert_eq!(last.compose(&plan.layout), Permutation::identity(6));
    }
}
