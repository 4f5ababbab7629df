//! The execution schedule of the distributed engine: a circuit or a
//! transpiled plan lowered, once per execution, to the steps every rank
//! then walks.
//!
//! Lowering borrows the gates it schedules (nothing is cloned into
//! per-segment circuits) and compiles each fused diagonal run exactly
//! once; the ranks of an execution share the result by reference.

use crate::diagonal::CompiledDiagonal;
use qse_circuit::transpile::fusion::{fused_schedule_in, ScheduleStep};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::{Circuit, Gate, Permutation};

/// One step of a [`Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum Step<'a> {
    /// One gate on its own, dispatched on its locality class.
    Gate(&'a Gate),
    /// A run of consecutive diagonal gates applied as one sweep.
    Fused(CompiledDiagonal),
    /// A batched global index-bit permutation (transpiled plans only).
    Permute(&'a Permutation),
}

/// What [`crate::DistributedState::run_schedule`] executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<'a> {
    n_qubits: u32,
    steps: Vec<Step<'a>>,
}

impl<'a> Schedule<'a> {
    /// Schedules `circuit`, fusing maximal diagonal runs of at least
    /// `min_fuse` gates (`None`: one step per gate).
    pub fn for_circuit(circuit: &'a Circuit, min_fuse: Option<usize>) -> Self {
        let mut schedule = Schedule {
            n_qubits: circuit.n_qubits(),
            steps: Vec::with_capacity(circuit.len()),
        };
        schedule.push_segment(&circuit.gates().iter().collect::<Vec<_>>(), min_fuse);
        schedule
    }

    /// Schedules `plan`: `Permute` steps stay where they are and each
    /// gate segment between them is fused like a circuit — the same
    /// segmentation `qse_check::verify` walks.
    pub fn for_plan(plan: &'a Plan, min_fuse: Option<usize>) -> Self {
        let mut schedule = Schedule {
            n_qubits: plan.n_qubits(),
            steps: Vec::with_capacity(plan.steps.len()),
        };
        let mut segment: Vec<&'a Gate> = Vec::new();
        for step in &plan.steps {
            match step {
                PlanStep::Gate(g) => segment.push(g),
                PlanStep::Permute(p) => {
                    schedule.push_segment(&segment, min_fuse);
                    segment.clear();
                    schedule.steps.push(Step::Permute(p));
                }
            }
        }
        schedule.push_segment(&segment, min_fuse);
        schedule
    }

    fn push_segment(&mut self, gates: &[&'a Gate], min_fuse: Option<usize>) {
        let Some(min_fuse) = min_fuse else {
            self.steps.extend(gates.iter().map(|&g| Step::Gate(g)));
            return;
        };
        for step in fused_schedule_in(gates, min_fuse) {
            self.steps.push(match step {
                ScheduleStep::Single(i) => Step::Gate(gates[i]),
                ScheduleStep::Fused(run) => Step::Fused(CompiledDiagonal::compile(
                    gates[run.start..run.end].iter().copied(),
                )),
            });
        }
    }

    /// Register width the schedule was built for.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step<'a>] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::classify::Layout;
    use qse_circuit::qft::qft;
    use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};

    #[test]
    fn unfused_schedule_is_one_step_per_gate() {
        let c = qft(6);
        let s = Schedule::for_circuit(&c, None);
        assert_eq!(s.steps().len(), c.len());
        assert!(s.steps().iter().all(|s| matches!(s, Step::Gate(_))));
    }

    #[test]
    fn qft_fuses_into_its_cphase_blocks() {
        let c = qft(6);
        let s = Schedule::for_circuit(&c, Some(2));
        let fused: Vec<usize> = s
            .steps()
            .iter()
            .filter_map(|s| match s {
                Step::Fused(run) => Some(run.len()),
                _ => None,
            })
            .collect();
        assert_eq!(fused, vec![5, 4, 3, 2]); // the length-1 block stays a gate
    }

    #[test]
    fn plan_schedule_covers_every_step_and_never_fuses_across_a_permute() {
        let c = qft(8);
        let layout = Layout::new(8, 4);
        let plan = comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle).with_layout_restored();
        assert!(plan.permute_count() > 0);
        let s = Schedule::for_plan(&plan, Some(2));
        let mut plan_steps = plan.steps.iter();
        for step in s.steps() {
            match step {
                Step::Gate(g) => assert_eq!(plan_steps.next(), Some(&PlanStep::Gate((*g).clone()))),
                Step::Permute(p) => {
                    assert_eq!(plan_steps.next(), Some(&PlanStep::Permute((*p).clone())))
                }
                Step::Fused(run) => {
                    for _ in 0..run.len() {
                        assert!(
                            matches!(plan_steps.next(), Some(PlanStep::Gate(g)) if g.is_diagonal())
                        );
                    }
                }
            }
        }
        assert!(plan_steps.next().is_none());
    }
}
