//! The execution schedule of the dense engines: a circuit or a transpiled
//! plan lowered, once per execution, to the steps every rank then walks.
//!
//! There is one lowering. Each maximal run of consecutive *local* gates —
//! gates whose every amplitude update stays inside an aligned block of
//! `2^`[`local_block_bits`] amplitudes — becomes one [`Step::Local`],
//! which the storage applies block by block
//! ([`SoaStorage::apply_local_run`]), so the run costs one pass over the
//! slice however long it is. Everything else is a step of its own.
//!
//! Lowering borrows the gates it schedules (nothing is cloned into
//! per-segment circuits) and compiles each run exactly once; the ranks of
//! an execution share the result by reference.
//!
//! [`SoaStorage::apply_local_run`]: crate::storage::SoaStorage::apply_local_run

use crate::diagonal::CompiledDiagonal;
use crate::storage::local_block_bits;
use qse_circuit::classify::{GateClass, Layout};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::{Circuit, Gate, Permutation};
use qse_math::Matrix2;

/// One step of a [`Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum Step<'a> {
    /// One gate on its own, dispatched on its locality class: a
    /// distributed gate, a non-diagonal `Unitary2`, or a local gate that
    /// reaches at or above the block bit.
    Gate(&'a Gate),
    /// A maximal run of consecutive local gates, applied one cache block
    /// at a time.
    Local(LocalRun),
    /// A batched global index-bit permutation (transpiled plans only).
    Permute(&'a Permutation),
}

/// One op of a [`LocalRun`].
#[derive(Debug, Clone, PartialEq)]
pub enum LocalOp {
    /// Consecutive diagonal gates, compiled together.
    Diagonal(CompiledDiagonal),
    /// A single-target gate: `matrix` on every amplitude pair of
    /// `target`, only where `control` (if any) is set. A control at or
    /// above the slice width is a rank bit (see [`Self::pair_control`]).
    Pairs {
        /// Target qubit.
        target: u32,
        /// The 2×2 matrix applied to each pair.
        matrix: Matrix2,
        /// Control qubit, local or global.
        control: Option<u32>,
    },
    /// A SWAP of two local qubits.
    Swap(u32, u32),
}

impl LocalOp {
    /// How a pair op with `control` applies to a slice of
    /// `2^slice_bits` amplitudes whose first has global index `offset`:
    /// `Some(c)` to sweep with local control `c` (`None`: every pair),
    /// or `None` when the control is a rank bit that is clear here, so
    /// the op selects nothing on this slice.
    pub fn pair_control(control: Option<u32>, slice_bits: u32, offset: u64) -> Option<Option<u32>> {
        match control {
            Some(c) if c >= slice_bits => ((offset >> c) & 1 == 1).then_some(None),
            local => Some(local),
        }
    }
}

/// A run of consecutive local gates, in program order.
///
/// Every op moves amplitudes only between indices that differ below
/// [`Self::span_bits`], so each aligned block of at least `2^span_bits`
/// amplitudes can be taken through the whole run before the next block
/// is touched. Each amplitude then sees exactly the pair updates and
/// phase multiplies of gate-at-a-time execution, in the same order:
/// the two are bit-for-bit identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalRun {
    ops: Vec<LocalOp>,
    span_bits: u32,
}

impl LocalRun {
    /// Whether `gate` may join a local run whose blocks are
    /// `2^block_bits` amplitudes of a slice at least that large: a
    /// diagonal gate on any qubits, a SWAP of two qubits below the block
    /// bit, or a single-target gate whose target is below it (controls
    /// anywhere).
    pub fn admits(gate: &Gate, block_bits: u32) -> bool {
        if gate.is_diagonal() {
            return true;
        }
        match *gate {
            Gate::Swap(a, b) => a < block_bits && b < block_bits,
            Gate::Unitary2 { .. } => false,
            ref g => g.target() < block_bits,
        }
    }

    /// Appends `gate` to the end of the run.
    ///
    /// # Panics
    /// Panics on a non-diagonal `Unitary2`, which no run admits.
    pub fn push(&mut self, gate: &Gate) {
        if gate.is_diagonal() {
            if let Some(LocalOp::Diagonal(d)) = self.ops.last_mut() {
                d.push(gate);
            } else {
                self.ops
                    .push(LocalOp::Diagonal(CompiledDiagonal::compile([gate])));
            }
            return;
        }
        let (op, reach) = match *gate {
            Gate::Swap(a, b) => (LocalOp::Swap(a, b), a.max(b)),
            ref g => {
                let Some(matrix) = g.matrix1() else {
                    unreachable!("{g}: no run admits a non-diagonal Unitary2")
                };
                let op = LocalOp::Pairs {
                    target: g.target(),
                    matrix,
                    control: g.control(),
                };
                (op, g.target())
            }
        };
        self.span_bits = self.span_bits.max(reach + 1);
        self.ops.push(op);
    }

    /// The ops, in program order.
    pub fn ops(&self) -> &[LocalOp] {
        &self.ops
    }

    /// Number of gates in the run.
    pub fn len(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                LocalOp::Diagonal(d) => d.len(),
                _ => 1,
            })
            .sum()
    }

    /// True for an empty run.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// One more than the highest qubit a pair or SWAP op moves
    /// amplitudes across (0 for a diagonal-only run): the smallest block
    /// that holds every amplitude a run op reads with the one it writes.
    pub fn span_bits(&self) -> u32 {
        self.span_bits
    }

    /// The locality class a profile books the run under: fully local
    /// when every gate is diagonal, local-memory otherwise.
    pub fn class(&self) -> GateClass {
        if self.ops.iter().all(|op| matches!(op, LocalOp::Diagonal(_))) {
            GateClass::FullyLocal
        } else {
            GateClass::LocalMemory
        }
    }
}

/// What [`crate::DistributedState::run_schedule`] and
/// [`crate::SingleState::run`] execute.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<'a> {
    layout: Layout,
    steps: Vec<Step<'a>>,
}

impl<'a> Schedule<'a> {
    /// Schedules `circuit` for `n_ranks` ranks.
    pub fn for_circuit(circuit: &'a Circuit, n_ranks: u64) -> Self {
        let layout = Layout::new(circuit.n_qubits(), n_ranks);
        Schedule::lower(layout, circuit.gates().iter().map(Step::Gate))
    }

    /// Schedules `plan` for `n_ranks` ranks: `Permute` steps stay where
    /// they are, so no local run spans one.
    pub fn for_plan(plan: &'a Plan, n_ranks: u64) -> Self {
        let layout = Layout::new(plan.n_qubits(), n_ranks);
        Schedule::lower(
            layout,
            plan.steps.iter().map(|s| match s {
                PlanStep::Gate(g) => Step::Gate(g),
                PlanStep::Permute(p) => Step::Permute(p),
            }),
        )
    }

    /// Folds each maximal run of admitted gates among `steps` into one
    /// [`Step::Local`]; every other step stays as it is.
    fn lower(layout: Layout, steps: impl Iterator<Item = Step<'a>>) -> Self {
        let block_bits = local_block_bits(layout.local_qubits());
        let mut lowered = Vec::new();
        let mut run = LocalRun::default();
        for step in steps {
            if let Step::Gate(g) = step {
                if LocalRun::admits(g, block_bits) {
                    run.push(g);
                    continue;
                }
            }
            if !run.is_empty() {
                lowered.push(Step::Local(std::mem::take(&mut run)));
            }
            lowered.push(step);
        }
        if !run.is_empty() {
            lowered.push(Step::Local(run));
        }
        Schedule {
            layout,
            steps: lowered,
        }
    }

    /// The register/rank layout the schedule was lowered for.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step<'a>] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::classify::classify;
    use qse_circuit::qft::qft;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};

    /// Gates per step, `0` for a `Permute`.
    fn step_gates(s: &Schedule<'_>) -> Vec<usize> {
        s.steps()
            .iter()
            .map(|s| match s {
                Step::Gate(_) => 1,
                Step::Local(run) => run.len(),
                Step::Permute(_) => 0,
            })
            .collect()
    }

    #[test]
    fn one_rank_qft_is_one_local_run() {
        // Every gate of a 6-qubit QFT is local at R = 1: one pass.
        let c = qft(6);
        let s = Schedule::for_circuit(&c, 1);
        assert_eq!(step_gates(&s), vec![c.len()]);
    }

    #[test]
    fn distributed_gates_end_local_runs() {
        // QFT-6 over 4 ranks: the H on each of the two global qubits is
        // distributed, and so are the final SWAPs touching them.
        let c = qft(6);
        let layout = Layout::new(6, 4);
        let s = Schedule::for_circuit(&c, 4);
        for step in s.steps() {
            match step {
                Step::Gate(g) => assert_eq!(classify(g, &layout), GateClass::Distributed, "{g}"),
                Step::Local(run) => assert!(run.span_bits() <= layout.local_qubits()),
                Step::Permute(_) => unreachable!(),
            }
        }
        assert_eq!(step_gates(&s).iter().sum::<usize>(), c.len());
        // Runs are maximal: no two local runs are adjacent.
        assert!(s
            .steps()
            .windows(2)
            .all(|w| !matches!(w, [Step::Local(_), Step::Local(_)])));
    }

    #[test]
    fn targets_at_the_block_bit_end_a_run() {
        // 18 local qubits: the block bit is 16, so an H on 16 or a SWAP
        // reaching 16 are steps of their own; controls anywhere are not.
        let block_bits = crate::storage::LOCAL_BLOCK.trailing_zeros();
        let mut c = Circuit::new(block_bits + 3);
        c.h(0)
            .cnot(block_bits + 1, 3)
            .h(block_bits)
            .cphase(0, block_bits + 2, 0.5)
            .swap(1, block_bits - 1)
            .swap(1, block_bits)
            .x(2);
        let s = Schedule::for_circuit(&c, 2);
        assert_eq!(step_gates(&s), vec![2, 1, 2, 1, 1]);
        assert!(matches!(s.steps()[1], Step::Gate(Gate::H(_))));
        assert!(matches!(s.steps()[3], Step::Gate(Gate::Swap(..))));
        let Step::Local(run) = &s.steps()[2] else {
            panic!("expected a local run");
        };
        assert_eq!(run.span_bits(), block_bits);
        assert_eq!(run.ops().len(), 2);
    }

    #[test]
    fn pool_sized_slices_keep_two_blocks() {
        // 15 local qubits is a pool-sized slice: blocks of 2^14, so an H
        // on the top local qubit is a step of its own.
        let mut c = Circuit::new(16);
        c.h(13).h(14).h(13);
        let s = Schedule::for_circuit(&c, 2);
        assert_eq!(step_gates(&s), vec![1, 1, 1]);
        assert!(matches!(s.steps()[1], Step::Gate(Gate::H(14))));
    }

    #[test]
    fn small_slices_admit_every_local_target() {
        // A slice below LOCAL_BLOCK is one block: every local target
        // joins, and consecutive diagonal gates compile into one op.
        let mut c = Circuit::new(8);
        c.h(6).t(1).cphase(2, 7, 0.3).swap(0, 6).h(7);
        let s = Schedule::for_circuit(&c, 2);
        assert_eq!(step_gates(&s), vec![4, 1]);
        let Step::Local(run) = &s.steps()[0] else {
            panic!("expected a local run");
        };
        assert_eq!(run.ops().len(), 3);
        assert_eq!(run.class(), GateClass::LocalMemory);
    }

    #[test]
    fn unitary2_is_a_step_of_its_own() {
        let c = random_circuit(6, 120, GatePool::Full, 4);
        let s = Schedule::for_circuit(&c, 1);
        for step in s.steps() {
            if let Step::Gate(g) = step {
                assert!(matches!(g, Gate::Unitary2 { .. }), "{g}");
            }
        }
        assert_eq!(step_gates(&s).iter().sum::<usize>(), c.len());
    }

    #[test]
    fn plan_schedule_covers_every_step_and_never_runs_across_a_permute() {
        let c = qft(8);
        let plan = comm_avoid(&c, &Layout::new(8, 4), Strategy::Greedy, &ByteOracle)
            .with_layout_restored();
        assert!(plan.permute_count() > 0);
        let s = Schedule::for_plan(&plan, 4);
        let mut plan_steps = plan.steps.iter();
        for step in s.steps() {
            match step {
                Step::Gate(g) => assert_eq!(plan_steps.next(), Some(&PlanStep::Gate((*g).clone()))),
                Step::Permute(p) => {
                    assert_eq!(plan_steps.next(), Some(&PlanStep::Permute((*p).clone())))
                }
                Step::Local(run) => {
                    for _ in 0..run.len() {
                        assert!(matches!(plan_steps.next(), Some(PlanStep::Gate(_))));
                    }
                }
            }
        }
        assert!(plan_steps.next().is_none());
    }

    #[test]
    fn rank_bit_controls_resolve_from_the_offset() {
        // Slice of 2^4 amplitudes: qubit 5 is rank bit 1.
        assert_eq!(LocalOp::pair_control(Some(5), 4, 0b10_0000), Some(None));
        assert_eq!(LocalOp::pair_control(Some(5), 4, 0b01_0000), None);
        assert_eq!(LocalOp::pair_control(Some(3), 4, 0), Some(Some(3)));
        assert_eq!(LocalOp::pair_control(None, 4, 0), Some(None));
    }
}
