//! General cache-blocking transpiler.
//!
//! Keeps a *layout* (logical qubit → physical position) and rewrites the
//! circuit so that every communication-requiring gate is preceded by a
//! SWAP that drags its target into the local window. Input SWAP gates are
//! absorbed into the layout for free ("virtual swaps"), which is exactly
//! why the QFT cache-blocks so well — its trailing SWAP network costs
//! nothing, and only the physical SWAPs inserted for formerly-global
//! targets communicate.
//!
//! ## Contract
//!
//! For input circuit `C` the pass returns a physical circuit `T` and a
//! final layout `π` such that, as operators, `T = Π(π) · C`, where `Π(π)`
//! permutes qubit `q` to position `π(q)`. Equivalently: running `T` and
//! then un-permuting through `π` reproduces `C` exactly. Integration
//! tests in the statevector crate verify this amplitude-for-amplitude.

use crate::circuit::Circuit;
use crate::permutation::Permutation;
use crate::transpile::comm_avoid::{Plan, Tracker};

/// Result of the cache-blocking pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Transpiled {
    /// The rewritten (physical) circuit.
    pub circuit: Circuit,
    /// Final layout: logical qubit `q` ends at physical position
    /// `layout.apply(q)`.
    pub layout: Permutation,
}

impl Transpiled {
    /// Restores the identity layout through the batched-permutation
    /// lowering: the result is a [`Plan`] whose steps are the transpiled
    /// gates followed by a *single* `Permute` step, strictly equivalent
    /// to the original circuit. Earlier versions emitted one SWAP gate
    /// per transposition — k distributed exchanges where one batched
    /// exchange suffices.
    pub fn with_layout_restored(&self) -> Plan {
        Plan::from_circuit(&self.circuit, self.layout.clone()).with_layout_restored()
    }
}

/// Runs the cache-blocking pass for a rank layout with `local_qubits`
/// local positions.
///
/// Gates whose physical target already sits in the local window pass
/// through; a gate with a global physical target gets a SWAP inserted
/// that exchanges the target with the least-recently-used local position
/// the gate does not touch. Diagonal gates never trigger SWAPs — they
/// are "fully local" at any position. The placement is
/// [`Strategy::Greedy`]'s, gate for gate: only the lowering of each
/// swap-in differs (a SWAP gate here, a `Permute` step there).
///
/// [`Strategy::Greedy`]: crate::transpile::Strategy::Greedy
pub fn cache_block(circuit: &Circuit, local_qubits: u32) -> Transpiled {
    let n = circuit.n_qubits();
    assert!(
        local_qubits >= 1 && local_qubits <= n,
        "local window must be within the register"
    );
    let mut tr = Tracker::new(n);
    let mut out = Circuit::new(n);
    for (i, gate) in circuit.gates().iter().enumerate() {
        let placed = tr.place(gate, i as u64 + 1, local_qubits, |tr, physical, offs| {
            let swap_in = tr.lru_swap_in(physical, offs, local_qubits);
            let [(victim, offender)] = swap_in;
            out.swap(victim, offender);
            swap_in
        });
        if let Some(physical) = placed {
            out.push(physical);
        }
    }
    Transpiled {
        circuit: out,
        layout: tr.into_layout(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, GateClass, Layout};
    use crate::gate::Gate;
    use crate::lower::{circuit_traffic, Kernel};
    use crate::qft::qft;
    use crate::random::{random_circuit, GatePool};

    #[test]
    fn local_circuit_passes_through_unchanged() {
        let mut c = Circuit::new(6);
        c.h(0).cnot(1, 2).t(3);
        let t = cache_block(&c, 6);
        assert_eq!(t.circuit, c);
        assert!(t.layout.is_identity());
    }

    #[test]
    fn swaps_are_virtualised() {
        let mut c = Circuit::new(4);
        c.swap(0, 3).h(3); // after the swap, logical 3 sits at physical 0
        let t = cache_block(&c, 2);
        // No swap emitted; the H lands on physical 0.
        assert_eq!(t.circuit.gates(), &[Gate::H(0)]);
        assert_eq!(t.layout.apply(3), 0);
        assert_eq!(t.layout.apply(0), 3);
    }

    #[test]
    fn global_target_triggers_one_swap() {
        let mut c = Circuit::new(4);
        c.h(3);
        let t = cache_block(&c, 2); // physical locals: 0, 1
        let gates = t.circuit.gates();
        assert_eq!(gates.len(), 2);
        assert!(matches!(gates[0], Gate::Swap(_, 3)));
        assert!(matches!(gates[1], Gate::H(p) if p < 2));
    }

    #[test]
    fn repeated_gates_amortise_the_swap() {
        // 50 H's on a global qubit: one swap then 50 local H's — the
        // paper's "it can be compensated if the target is frequently
        // acted on" (§2.2).
        let c = crate::benchmarks::hadamard_benchmark(8, 7, 50);
        let t = cache_block(&c, 4);
        let layout = Layout::new(8, 16);
        let distributed = t
            .circuit
            .gates()
            .iter()
            .filter(|g| classify(g, &layout) == GateClass::Distributed)
            .count();
        assert_eq!(distributed, 1);
        assert_eq!(t.circuit.gate_counts()["H"], 50);
        assert_eq!(t.circuit.gate_counts()["Swap"], 1);
    }

    #[test]
    fn diagonal_gates_never_trigger_swaps() {
        let mut c = Circuit::new(6);
        c.cphase(4, 5, 0.3).z(5).s(4).phase(5, 0.1);
        let t = cache_block(&c, 2);
        assert_eq!(t.circuit.gate_counts().get("Swap"), None);
        assert!(t.layout.is_identity());
    }

    #[test]
    fn qft_cache_blocks_to_swap_only_communication() {
        // Matches the hand construction: on the QFT, the general pass
        // leaves exactly the rank-qubit count of distributed SWAPs.
        let n = 12;
        let layout = Layout::new(n, 8); // 9 local, 3 global
        let t = cache_block(&qft(n), layout.local_qubits());
        let kernels = |c: &Circuit| -> Vec<Kernel> {
            let traffic = circuit_traffic(c, &layout, false).unwrap();
            traffic
                .iter()
                .flat_map(|t| t.lowering.exchanges().map(|e| e.kernel))
                .collect()
        };
        let after = kernels(&t.circuit);
        assert_eq!(after.len(), 3);
        assert!(
            after.iter().all(|k| matches!(k, Kernel::Swap { .. })),
            "{after:?}"
        );
        // Far fewer than the untranspiled circuit.
        assert_eq!(kernels(&qft(n)).len(), 6); // 3 H + 3 swaps
    }

    #[test]
    fn controls_may_stay_global() {
        let mut c = Circuit::new(4);
        c.cnot(3, 0); // global control, local target: no swap needed
        let t = cache_block(&c, 2);
        assert_eq!(
            t.circuit.gates(),
            &[Gate::CNot {
                control: 3,
                target: 0
            }]
        );
    }

    #[test]
    fn layout_restoration_appends_one_permute_step() {
        use crate::transpile::comm_avoid::PlanStep;
        let mut c = Circuit::new(4);
        c.swap(0, 3).h(1);
        let t = cache_block(&c, 2);
        assert!(!t.layout.is_identity());
        let restored = t.with_layout_restored();
        assert!(restored.layout.is_identity());
        assert_eq!(restored.permute_count(), 1, "batched restore: one exchange");
        let PlanStep::Permute(ref p) = restored.steps[restored.steps.len() - 1] else {
            panic!("restore must end in a permute step");
        };
        assert_eq!(p.compose(&t.layout), Permutation::identity(4));
    }

    #[test]
    fn gate_multiset_preserved_modulo_swaps() {
        // The pass may add/remove Swap gates but never touches others.
        let c = random_circuit(8, 120, GatePool::Full, 99);
        let t = cache_block(&c, 5);
        let mut before = c.gate_counts();
        let mut after = t.circuit.gate_counts();
        before.remove("Swap");
        after.remove("Swap");
        assert_eq!(before, after);
    }

    #[test]
    fn all_emitted_nonswap_gates_have_local_targets() {
        let c = random_circuit(9, 200, GatePool::Full, 5);
        let local = 5;
        let t = cache_block(&c, local);
        for g in t.circuit.gates() {
            if !matches!(g, Gate::Swap(..)) && !g.is_diagonal() {
                assert!(g.target() < local, "global target leaked: {g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "local window")]
    fn zero_window_rejected() {
        cache_block(&Circuit::new(3), 0);
    }
}
