//! Observables: inner products, fidelity and Pauli-string expectations.
//!
//! The statevector method's selling point (§1) is that *all* amplitudes
//! survive the run, so any observable can be evaluated afterwards without
//! re-execution. This module provides the standard ones.

use crate::single::SingleState;
use qse_circuit::Gate;
use qse_math::Complex64;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// σ_x.
    X,
    /// σ_y.
    Y,
    /// σ_z.
    Z,
}

/// ⟨a|b⟩ over full statevectors of equal width.
pub fn inner_product(a: &SingleState, b: &SingleState) -> Complex64 {
    assert_eq!(a.n_qubits(), b.n_qubits(), "width mismatch");
    let mut acc = Complex64::ZERO;
    for i in 0..a.storage().len() {
        acc += a.storage().get(i).conj() * b.storage().get(i);
    }
    acc
}

/// Fidelity `|⟨a|b⟩|²` between two pure states.
pub fn fidelity(a: &SingleState, b: &SingleState) -> f64 {
    inner_product(a, b).norm_sqr()
}

/// Expectation value ⟨ψ| P |ψ⟩ of a Pauli string (a set of single-qubit
/// Paulis on distinct qubits). Evaluated as `⟨ψ, Pψ⟩`; the result of a
/// Hermitian observable is real, so only the real part is returned (the
/// imaginary part is ≤ rounding noise and asserted small in debug
/// builds).
pub fn pauli_expectation(state: &SingleState, string: &[(u32, Pauli)]) -> f64 {
    {
        let mut seen = std::collections::HashSet::new();
        for (q, _) in string {
            assert!(*q < state.n_qubits(), "qubit {q} out of range");
            assert!(seen.insert(*q), "duplicate qubit {q} in Pauli string");
        }
    }
    let mut transformed = state.clone();
    for &(q, p) in string {
        let gate = match p {
            Pauli::X => Gate::X(q),
            Pauli::Y => Gate::Y(q),
            Pauli::Z => Gate::Z(q),
        };
        transformed.apply(&gate);
    }
    let e = inner_product(state, &transformed);
    debug_assert!(e.im.abs() < 1e-9, "non-real expectation: {e}");
    e.re
}

/// Convenience: ⟨Z_q⟩ = P(0) − P(1).
pub fn z_expectation(state: &SingleState, qubit: u32) -> f64 {
    pauli_expectation(state, &[(qubit, Pauli::Z)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::algorithms::ghz;
    use qse_circuit::Circuit;
    use qse_math::approx::{assert_close, assert_complex_close};

    fn plus_state(n: u32) -> SingleState {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        SingleState::simulate(&c)
    }

    #[test]
    fn inner_product_with_self_is_norm() {
        let s = plus_state(4);
        assert_complex_close(inner_product(&s, &s), Complex64::ONE, 1e-12);
        assert_close(fidelity(&s, &s), 1.0, 1e-12);
    }

    #[test]
    fn orthogonal_basis_states() {
        let a: SingleState = SingleState::basis_state(3, 1);
        let b: SingleState = SingleState::basis_state(3, 5);
        assert_complex_close(inner_product(&a, &b), Complex64::ZERO, 1e-15);
        assert_close(fidelity(&a, &b), 0.0, 1e-15);
    }

    #[test]
    fn z_on_basis_states() {
        let zero: SingleState = SingleState::basis_state(2, 0);
        assert_close(z_expectation(&zero, 0), 1.0, 1e-12);
        let one: SingleState = SingleState::basis_state(2, 1);
        assert_close(z_expectation(&one, 0), -1.0, 1e-12);
        assert_close(z_expectation(&one, 1), 1.0, 1e-12);
    }

    #[test]
    fn x_on_plus_state() {
        let s = plus_state(2);
        assert_close(pauli_expectation(&s, &[(0, Pauli::X)]), 1.0, 1e-12);
        assert_close(pauli_expectation(&s, &[(0, Pauli::Y)]), 0.0, 1e-12);
        assert_close(z_expectation(&s, 0), 0.0, 1e-12);
    }

    #[test]
    fn ghz_correlations() {
        // GHZ: ⟨Z_i⟩ = 0 but ⟨Z_i Z_j⟩ = 1, and ⟨X⊗X⊗X⟩ = 1 for 3 qubits.
        let s = SingleState::simulate(&ghz(3));
        for q in 0..3 {
            assert_close(z_expectation(&s, q), 0.0, 1e-12);
        }
        assert_close(
            pauli_expectation(&s, &[(0, Pauli::Z), (1, Pauli::Z)]),
            1.0,
            1e-12,
        );
        assert_close(
            pauli_expectation(&s, &[(0, Pauli::X), (1, Pauli::X), (2, Pauli::X)]),
            1.0,
            1e-12,
        );
    }

    #[test]
    fn fidelity_of_rotated_state() {
        // |⟨0|Ry(θ)|0⟩|² = cos²(θ/2)
        let theta = 0.8f64;
        let mut c = Circuit::new(1);
        c.push(Gate::Ry { target: 0, theta });
        let rotated = SingleState::simulate(&c);
        let zero: SingleState = SingleState::basis_state(1, 0);
        assert_close(
            fidelity(&zero, &rotated),
            (theta / 2.0).cos().powi(2),
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_pauli_rejected() {
        let s = plus_state(2);
        pauli_expectation(&s, &[(0, Pauli::X), (0, Pauli::Z)]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_rejected() {
        let a = plus_state(2);
        let b = plus_state(3);
        inner_product(&a, &b);
    }
}
