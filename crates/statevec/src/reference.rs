//! A deliberately naïve dense simulator — the correctness oracle.
//!
//! Implemented independently of the production kernels: out-of-place
//! updates, explicit per-index loops, no storage abstraction, no rayon, no
//! bit tricks beyond direct shifts. Every production path (local kernels,
//! the distributed engine, the transpiler) is validated
//! against this on random circuits. Usable up to ~20 qubits in tests.

use qse_circuit::{Circuit, Gate};
use qse_math::Complex64;

/// Full `2^n` amplitude vector evolved gate by gate.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceState {
    n_qubits: u32,
    amps: Vec<Complex64>,
}

impl ReferenceState {
    /// |00…0⟩.
    pub fn zero_state(n_qubits: u32) -> Self {
        Self::basis_state(n_qubits, 0)
    }

    /// Computational basis state |index⟩.
    pub fn basis_state(n_qubits: u32, index: u64) -> Self {
        assert!(n_qubits <= 24, "reference simulator capped at 24 qubits");
        let dim = 1usize << n_qubits;
        assert!(crate::ix(index) < dim, "basis index out of range");
        let mut amps = vec![Complex64::ZERO; dim];
        amps[crate::ix(index)] = Complex64::ONE;
        ReferenceState { n_qubits, amps }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Σ|amp|².
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Probability that measuring `qubit` yields 1.
    pub fn prob_one(&self, qubit: u32) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i >> qubit) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Applies one gate, out of place.
    // Index arithmetic (bit twiddling on `i`) is the whole point here;
    // iterator adapters would obscure it.
    #[allow(clippy::needless_range_loop)]
    pub fn apply(&mut self, gate: &Gate) {
        let dim = self.amps.len();
        let mut next = vec![Complex64::ZERO; dim];
        match *gate {
            Gate::Swap(a, b) => {
                for (i, amp) in self.amps.iter().enumerate() {
                    let j = crate::ix(qse_math::bits::swap_bits(i as u64, a, b));
                    next[j] = *amp;
                }
            }
            ref g if g.is_diagonal() => {
                for (i, amp) in self.amps.iter().enumerate() {
                    next[i] = *amp * crate::diagonal::diagonal_phase(g, i as u64);
                }
            }
            Gate::Unitary2 { a, b, ref matrix } => {
                for i in 0..dim {
                    let row = (((i >> b) & 1) << 1) | ((i >> a) & 1);
                    let base = i & !(1 << a) & !(1 << b);
                    let mut acc = Complex64::ZERO;
                    for col in 0..4usize {
                        let src = base | ((col & 1) << a) | (((col >> 1) & 1) << b);
                        acc += matrix.at(row, col) * self.amps[src];
                    }
                    next[i] = acc;
                }
            }
            ref g => {
                let Some(m) = g.matrix1() else {
                    unreachable!("all remaining gate kinds are single-target")
                };
                let t = g.target();
                let control = g.control();
                for i in 0..dim {
                    if let Some(c) = control {
                        if (i >> c) & 1 == 0 {
                            next[i] = self.amps[i];
                            continue;
                        }
                    }
                    let bit = (i >> t) & 1;
                    let partner = i ^ (1 << t);
                    let (a_this, a_other) = (self.amps[i], self.amps[partner]);
                    // row `bit` of the matrix combines (amp with bit=0, bit=1)
                    let a0 = if bit == 0 { a_this } else { a_other };
                    let a1 = if bit == 0 { a_other } else { a_this };
                    next[i] = m.at(bit, 0) * a0 + m.at(bit, 1) * a1;
                }
            }
        }
        self.amps = next;
    }

    /// Runs a whole circuit.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "register width mismatch");
        for g in circuit.gates() {
            self.apply(g);
        }
    }

    /// Convenience: simulate `circuit` from |0…0⟩.
    pub fn simulate(circuit: &Circuit) -> Self {
        let mut s = ReferenceState::zero_state(circuit.n_qubits());
        s.run(circuit);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::qft::{cache_blocked_qft, qft};
    use qse_math::approx::{assert_close, assert_complex_close, assert_slices_close};
    use qse_math::bits;
    use std::f64::consts::PI;

    #[test]
    fn zero_state_is_normalised() {
        let s = ReferenceState::zero_state(4);
        assert_close(s.norm_sqr(), 1.0, 1e-15);
        assert_eq!(s.amplitudes()[0], Complex64::ONE);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut s = ReferenceState::zero_state(3);
        s.apply(&Gate::X(1));
        assert_complex_close(s.amplitudes()[0b010], Complex64::ONE, 1e-15);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = ReferenceState::simulate(&c);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert_complex_close(s.amplitudes()[0b00], Complex64::real(r), 1e-12);
        assert_complex_close(s.amplitudes()[0b11], Complex64::real(r), 1e-12);
        assert_complex_close(s.amplitudes()[0b01], Complex64::ZERO, 1e-12);
        assert_close(s.prob_one(0), 0.5, 1e-12);
        assert_close(s.prob_one(1), 0.5, 1e-12);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = ReferenceState::basis_state(3, 0b001);
        s.apply(&Gate::Swap(0, 2));
        assert_complex_close(s.amplitudes()[0b100], Complex64::ONE, 1e-15);
    }

    #[test]
    fn cnot_truth_table() {
        for (input, expect) in [(0b00u64, 0b00u64), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            let mut s = ReferenceState::basis_state(2, input);
            s.apply(&Gate::CNot {
                control: 0,
                target: 1,
            });
            assert_complex_close(
                s.amplitudes()[expect as usize],
                Complex64::ONE,
                1e-15,
            );
        }
    }

    #[test]
    fn circuit_inverse_restores_state() {
        use qse_circuit::random::{random_circuit, GatePool};
        let c = random_circuit(5, 60, GatePool::Full, 31);
        let mut s = ReferenceState::basis_state(5, 13);
        s.run(&c);
        s.run(&c.inverse());
        let expect = ReferenceState::basis_state(5, 13);
        assert_slices_close(s.amplitudes(), expect.amplitudes(), 1e-9);
    }

    /// The semantics test pinning the QFT convention: with the circuit of
    /// fig 1a (qubit 0 processed first, trailing SWAPs), the operator is
    /// the DFT in *big-endian* bit order:
    /// `QFT|x⟩ = N^{-1/2} Σ_k ω^{rev(x)·rev(k)} |k⟩`, ω = e^{2πi/N}.
    #[test]
    fn qft_matches_dft_bit_reversed() {
        let n = 5u32;
        let dim = 1u64 << n;
        for &x in &[0u64, 1, 7, 19, dim - 1] {
            let mut s = ReferenceState::basis_state(n, x);
            s.run(&qft(n));
            let scale = 1.0 / (dim as f64).sqrt();
            for k in 0..dim {
                let phase =
                    2.0 * PI * (bits::reverse_bits(x, n) as f64) * (bits::reverse_bits(k, n) as f64)
                        / dim as f64;
                let expect = Complex64::cis(phase).scale(scale);
                assert_complex_close(s.amplitudes()[k as usize], expect, 1e-9);
            }
        }
    }

    #[test]
    fn qft_inverse_qft_is_identity() {
        let n = 6;
        let mut s = ReferenceState::basis_state(n, 45);
        s.run(&qft(n));
        s.run(&qse_circuit::qft::inverse_qft(n));
        let expect = ReferenceState::basis_state(n, 45);
        assert_slices_close(s.amplitudes(), expect.amplitudes(), 1e-9);
    }

    /// The paper's correctness claim for fig 1b: the cache-blocked QFT is
    /// the *same operator* as the standard QFT, for every valid split.
    #[test]
    fn cache_blocked_qft_equals_standard() {
        let n = 7;
        let standard = ReferenceState::simulate(&{
            let mut c = Circuit::new(n);
            // start from a non-trivial superposition
            for q in 0..n {
                c.h(q);
                c.phase(q, 0.3 * q as f64);
            }
            c.extend(&qft(n));
            c
        });
        for split in 0..=n {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
                c.phase(q, 0.3 * q as f64);
            }
            c.extend(&cache_blocked_qft(n, split));
            let blocked = ReferenceState::simulate(&c);
            assert_slices_close(blocked.amplitudes(), standard.amplitudes(), 1e-9);
        }
    }

    #[test]
    fn norm_is_preserved_by_random_circuits() {
        use qse_circuit::random::{random_circuit, GatePool};
        for seed in 0..5 {
            let c = random_circuit(6, 80, GatePool::Full, seed);
            let s = ReferenceState::simulate(&c);
            assert_close(s.norm_sqr(), 1.0, 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "capped at 24")]
    fn size_cap_enforced() {
        ReferenceState::zero_state(30);
    }
}
