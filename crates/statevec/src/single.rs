//! Single-address-space statevector engine.
//!
//! The production kernels without distribution: used by the examples, the
//! kernel/fusion benchmarks, and the reference experiments on one "node".

use crate::diagonal::CompiledDiagonal;
use crate::schedule::{Schedule, Step};
use crate::storage::SoaStorage;
use qse_circuit::{Circuit, Gate};
use qse_math::Complex64;

/// A full statevector in one address space.
#[derive(Debug, Clone)]
pub struct SingleState {
    n_qubits: u32,
    amps: SoaStorage,
}

impl SingleState {
    /// |00…0⟩ on `n_qubits`.
    pub fn zero_state(n_qubits: u32) -> Self {
        Self::basis_state(n_qubits, 0)
    }

    /// Computational basis state |index⟩.
    pub fn basis_state(n_qubits: u32, index: u64) -> Self {
        assert!(
            n_qubits <= 30,
            "single-process register capped at 30 qubits (16 GiB)"
        );
        let amps = SoaStorage::basis(1usize << n_qubits, 0, index);
        SingleState { n_qubits, amps }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Immutable access to the raw storage.
    pub fn storage(&self) -> &SoaStorage {
        &self.amps
    }

    /// Mutable access to the raw storage (measurement collapse, tests).
    pub fn storage_mut(&mut self) -> &mut SoaStorage {
        &mut self.amps
    }

    /// Reads one amplitude.
    pub fn amplitude(&self, index: u64) -> Complex64 {
        self.amps.get(crate::ix(index))
    }

    /// All amplitudes as complex values (tests; O(2^n) allocation).
    pub fn to_vec(&self) -> Vec<Complex64> {
        self.amps.to_complex_vec()
    }

    /// Σ|amp|² — must stay 1 under unitary circuits.
    pub fn norm_sqr(&self) -> f64 {
        self.amps.norm_sqr_sum()
    }

    /// Applies a single gate.
    pub fn apply(&mut self, gate: &Gate) {
        assert!(gate.max_qubit() < self.n_qubits, "gate out of range");
        match *gate {
            ref g if g.is_diagonal() => {
                self.amps
                    .apply_fused_diagonal(0, &CompiledDiagonal::compile([g]));
            }
            Gate::Swap(a, b) => self.amps.swap_local(a, b),
            Gate::Unitary2 { a, b, ref matrix } => self.amps.apply_orbit4(a, b, matrix),
            ref g => {
                let Some(m) = g.matrix1() else {
                    unreachable!("all remaining gate kinds are single-target")
                };
                // CNot / CUnitary carry a control; everything else is plain.
                self.amps.apply_pairs(g.target(), &m, g.control());
            }
        }
    }

    /// Runs a circuit through the engine's one lowering (the
    /// distributed engine's at one rank, [`Schedule`]): each run of local
    /// gates is one blocked pass over the register. Bit-for-bit identical
    /// to [`Self::run_unfused`].
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for step in Schedule::for_circuit(circuit, 1).steps() {
            match step {
                Step::Gate(g) => self.apply(g),
                Step::Local(run) => self.amps.apply_local_run(0, run),
                Step::Permute(_) => unreachable!("a circuit lowers without permutations"),
            }
        }
    }

    /// Runs a circuit gate by gate — one sweep per gate. The oracle
    /// [`Self::run`] is held to, and the baseline of the measured-fusion
    /// ablation.
    pub fn run_unfused(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for g in circuit.gates() {
            self.apply(g);
        }
    }

    /// Probability that measuring `qubit` yields 1.
    pub fn prob_one(&self, qubit: u32) -> f64 {
        assert!(qubit < self.n_qubits);
        let mut p = 0.0;
        let mask = 1u64 << qubit;
        for i in 0..self.amps.len() as u64 {
            if i & mask != 0 {
                p += self.amps.get(crate::ix(i)).norm_sqr();
            }
        }
        p
    }

    /// Convenience: simulate from |0…0⟩.
    pub fn simulate(circuit: &Circuit) -> Self {
        let mut s = SingleState::zero_state(circuit.n_qubits());
        s.run(circuit);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceState;
    use qse_circuit::qft::qft;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_math::approx::{assert_close, assert_slices_close};

    fn assert_matches_reference(n: u32, gates: usize, pool: GatePool, seed: u64) {
        let c = random_circuit(n, gates, pool, seed);
        let mut got = SingleState::zero_state(n);
        got.run(&c);
        let want = ReferenceState::simulate(&c);
        assert_slices_close(&got.to_vec(), want.amplitudes(), 1e-9);
    }

    #[test]
    fn matches_reference_on_random_circuits() {
        for seed in 0..6 {
            assert_matches_reference(6, 100, GatePool::Full, seed);
        }
    }

    #[test]
    fn qft_like_circuits_match_reference() {
        for seed in 0..4 {
            assert_matches_reference(7, 120, GatePool::QftLike, seed);
        }
    }

    #[test]
    fn qft_matches_reference() {
        let c = qft(8);
        let mut got: SingleState = SingleState::basis_state(8, 137);
        got.run(&c);
        let mut want = ReferenceState::basis_state(8, 137);
        want.run(&c);
        assert_slices_close(&got.to_vec(), want.amplitudes(), 1e-9);
    }

    #[test]
    fn run_is_bitwise_identical_to_unfused() {
        // `run` executes local runs in blocked passes; the contract is
        // bit-for-bit equality with gate-at-a-time execution, not mere
        // closeness.
        for seed in 0..8 {
            let pool = if seed % 2 == 0 {
                GatePool::QftLike
            } else {
                GatePool::Full
            };
            let c = random_circuit(7, 200, pool, seed + 300);
            let mut fused: SingleState = SingleState::basis_state(7, 45);
            fused.run(&c);
            let mut plain: SingleState = SingleState::basis_state(7, 45);
            plain.run_unfused(&c);
            for (i, (f, p)) in fused.to_vec().iter().zip(plain.to_vec()).enumerate() {
                assert_eq!(f.re.to_bits(), p.re.to_bits(), "re at {i} seed {seed}");
                assert_eq!(f.im.to_bits(), p.im.to_bits(), "im at {i} seed {seed}");
            }
        }
    }

    #[test]
    fn norm_preserved() {
        let c = random_circuit(8, 200, GatePool::Full, 77);
        let mut s: SingleState = SingleState::zero_state(8);
        s.run(&c);
        assert_close(s.norm_sqr(), 1.0, 1e-9);
    }

    #[test]
    fn prob_one_on_plus_state() {
        let mut s: SingleState = SingleState::zero_state(3);
        s.apply(&Gate::H(1));
        assert_close(s.prob_one(1), 0.5, 1e-12);
        assert_close(s.prob_one(0), 0.0, 1e-12);
    }

    #[test]
    fn inverse_restores_basis_state() {
        let c = random_circuit(7, 80, GatePool::Full, 5);
        let mut s: SingleState = SingleState::basis_state(7, 99);
        s.run(&c);
        s.run(&c.inverse());
        assert_close(s.amplitude(99).re, 1.0, 1e-9);
        assert_close(s.norm_sqr(), 1.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_rejected() {
        let c = Circuit::new(3);
        let mut s: SingleState = SingleState::zero_state(4);
        s.run(&c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_gate_rejected() {
        let mut s: SingleState = SingleState::zero_state(2);
        s.apply(&Gate::H(2));
    }
}
