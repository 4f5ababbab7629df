//! Diagonal-gate run segmentation ("fusion").
//!
//! Diagonal gates commute with each other and each one multiplies every
//! amplitude by an index-dependent phase. A run of `k` consecutive
//! diagonal gates can therefore be applied in a *single* sweep over the
//! statevector — one read and one write per amplitude instead of `k`.
//! QuEST exploits this for the QFT's controlled phases ("the controlled
//! phase gates are applied more efficiently", §3.2); the cost model
//! prices these run descriptors. (The statevector engine goes further:
//! it applies every run of local gates, diagonal or not, in one pass —
//! `qse_statevec::schedule`.)

use crate::circuit::Circuit;

/// A maximal run `[start, end)` of consecutive diagonal gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagonalRun {
    /// First gate index of the run.
    pub start: usize,
    /// One past the last gate index.
    pub end: usize,
}

impl DiagonalRun {
    /// Number of gates fused.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Runs are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Finds every maximal run of ≥ `min_len` consecutive diagonal gates.
pub fn diagonal_runs(circuit: &Circuit, min_len: usize) -> Vec<DiagonalRun> {
    let gates = circuit.gates();
    let min_len = min_len.max(1);
    let mut runs = Vec::new();
    let mut start = None;
    for (i, g) in gates.iter().enumerate() {
        match (g.is_diagonal(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                if i - s >= min_len {
                    runs.push(DiagonalRun { start: s, end: i });
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        let end = gates.len();
        if end - s >= min_len {
            runs.push(DiagonalRun { start: s, end });
        }
    }
    runs
}

/// An execution schedule: each step is either one gate or a fused run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleStep {
    /// Apply gate `index` on its own.
    Single(usize),
    /// Apply gates `[start, end)` as one fused diagonal sweep.
    Fused(DiagonalRun),
}

/// Builds a full execution schedule with runs of ≥ `min_len` fused.
pub fn fused_schedule(circuit: &Circuit, min_len: usize) -> Vec<ScheduleStep> {
    let runs = diagonal_runs(circuit, min_len);
    let mut steps = Vec::new();
    let mut next_run = 0;
    let mut i = 0;
    while i < circuit.len() {
        if next_run < runs.len() && runs[next_run].start == i {
            steps.push(ScheduleStep::Fused(runs[next_run]));
            i = runs[next_run].end;
            next_run += 1;
        } else {
            steps.push(ScheduleStep::Single(i));
            i += 1;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qft::qft;
    use crate::random::{random_circuit, GatePool};

    #[test]
    fn empty_circuit_has_no_runs() {
        let c = Circuit::new(3);
        assert!(diagonal_runs(&c, 1).is_empty());
        assert!(fused_schedule(&c, 1).is_empty());
    }

    #[test]
    fn all_diagonal_is_one_run() {
        let c = random_circuit(5, 50, GatePool::DiagonalOnly, 1);
        let runs = diagonal_runs(&c, 1);
        assert_eq!(runs, vec![DiagonalRun { start: 0, end: 50 }]);
        assert_eq!(runs[0].len(), 50);
    }

    #[test]
    fn runs_split_at_non_diagonal_gates() {
        let mut c = Circuit::new(3);
        c.z(0).s(1).h(2).t(0).cphase(0, 1, 0.1).h(1).z(2);
        let runs = diagonal_runs(&c, 1);
        assert_eq!(
            runs,
            vec![
                DiagonalRun { start: 0, end: 2 },
                DiagonalRun { start: 3, end: 5 },
                DiagonalRun { start: 6, end: 7 },
            ]
        );
    }

    #[test]
    fn min_len_filters_short_runs() {
        let mut c = Circuit::new(3);
        c.z(0).h(1).t(0).s(1).h(2);
        let runs = diagonal_runs(&c, 2);
        assert_eq!(runs, vec![DiagonalRun { start: 2, end: 4 }]);
    }

    #[test]
    fn qft_runs_are_the_cphase_blocks() {
        // In the QFT each H is followed by a block of CPhases: the runs
        // are exactly those blocks (n−1 blocks have ≥1 CPhase).
        let n = 6;
        let runs = diagonal_runs(&qft(n), 1);
        assert_eq!(runs.len(), (n - 1) as usize);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        assert_eq!(total, (n * (n - 1) / 2) as usize);
    }

    #[test]
    fn schedule_covers_every_gate_exactly_once() {
        let c = random_circuit(6, 80, GatePool::Full, 9);
        let steps = fused_schedule(&c, 2);
        let mut covered = vec![false; c.len()];
        for s in steps {
            match s {
                ScheduleStep::Single(i) => {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
                ScheduleStep::Fused(r) => {
                    for slot in covered[r.start..r.end].iter_mut() {
                        assert!(!*slot);
                        *slot = true;
                    }
                }
            }
        }
        assert!(covered.into_iter().all(|b| b));
    }

    #[test]
    fn schedule_with_huge_min_len_is_all_singles() {
        let c = random_circuit(5, 30, GatePool::Full, 2);
        let steps = fused_schedule(&c, 1000);
        assert_eq!(steps.len(), 30);
        assert!(steps.iter().all(|s| matches!(s, ScheduleStep::Single(_))));
    }
}
