//! The gate set.
//!
//! Mirrors the slice of QuEST's API the paper exercises, plus the generic
//! single-qubit unitary QuEST also provides. Every variant knows its
//! matrix, its adjoint, whether it is diagonal in the computational basis
//! (the paper's *fully local* class), and how to relabel its qubits — the
//! primitive the cache-blocking transpiler is built on.

use qse_math::{Complex64, Matrix2, Matrix4};
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, FRAC_PI_4};
use std::fmt;

/// A quantum gate instance bound to specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(u32),
    /// Pauli-X (NOT).
    X(u32),
    /// Pauli-Y.
    Y(u32),
    /// Pauli-Z (diagonal).
    Z(u32),
    /// Phase gate S = diag(1, i) (diagonal).
    S(u32),
    /// S†.
    Sdg(u32),
    /// T = diag(1, e^{iπ/4}) (diagonal).
    T(u32),
    /// T†.
    Tdg(u32),
    /// Phase shift diag(1, e^{iθ}) (diagonal).
    Phase {
        /// Target qubit.
        target: u32,
        /// Phase angle in radians.
        theta: f64,
    },
    /// Z-rotation diag(e^{-iθ/2}, e^{iθ/2}) (diagonal).
    Rz {
        /// Target qubit.
        target: u32,
        /// Rotation angle in radians.
        theta: f64,
    },
    /// X-rotation.
    Rx {
        /// Target qubit.
        target: u32,
        /// Rotation angle in radians.
        theta: f64,
    },
    /// Y-rotation.
    Ry {
        /// Target qubit.
        target: u32,
        /// Rotation angle in radians.
        theta: f64,
    },
    /// Arbitrary single-qubit unitary.
    Unitary1 {
        /// Target qubit.
        target: u32,
        /// The 2×2 unitary to apply.
        matrix: Matrix2,
    },
    /// Controlled NOT.
    CNot {
        /// Control qubit.
        control: u32,
        /// Target qubit.
        target: u32,
    },
    /// Controlled Z (diagonal, symmetric in its qubits).
    CZ(u32, u32),
    /// Controlled phase diag(1,1,1,e^{iθ}) (diagonal, symmetric) — the
    /// workhorse of the QFT.
    CPhase {
        /// First qubit (order irrelevant).
        a: u32,
        /// Second qubit.
        b: u32,
        /// Phase applied to |11⟩.
        theta: f64,
    },
    /// SWAP of two qubits — the gate cache-blocking is built from.
    Swap(u32, u32),
    /// Multi-controlled phase: multiplies the amplitude by `e^{iθ}` when
    /// **every** listed qubit is 1 (diagonal, fully symmetric). The
    /// building block of Grover oracles and diffusion operators.
    MCPhase {
        /// The participating qubits (≥ 1, all distinct).
        qubits: Vec<u32>,
        /// Phase applied to the all-ones subspace.
        theta: f64,
    },
    /// Controlled application of an arbitrary single-qubit unitary.
    CUnitary {
        /// Control qubit.
        control: u32,
        /// Target qubit.
        target: u32,
        /// The 2×2 unitary applied when the control is 1.
        matrix: Matrix2,
    },
    /// Arbitrary two-qubit unitary. The matrix acts on the basis
    /// `|b a⟩` — column/row index `(bit_b << 1) | bit_a`.
    Unitary2 {
        /// Low-order orbit qubit.
        a: u32,
        /// High-order orbit qubit.
        b: u32,
        /// The 4×4 unitary.
        matrix: Matrix4,
    },
}

impl Gate {
    /// The qubits this gate touches, in a stable order.
    pub fn qubits(&self) -> Vec<u32> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q) => vec![q],
            Gate::Phase { target, .. }
            | Gate::Rz { target, .. }
            | Gate::Rx { target, .. }
            | Gate::Ry { target, .. }
            | Gate::Unitary1 { target, .. } => vec![target],
            Gate::CNot { control, target } => vec![control, target],
            Gate::CZ(a, b) | Gate::Swap(a, b) => vec![a, b],
            Gate::CPhase { a, b, .. } => vec![a, b],
            Gate::MCPhase { ref qubits, .. } => qubits.clone(),
            Gate::CUnitary {
                control, target, ..
            } => vec![control, target],
            Gate::Unitary2 { a, b, .. } => vec![a, b],
        }
    }

    /// Highest qubit index used (for validation); 0 for an `MCPhase`
    /// over no qubits, which [`crate::Circuit::push`] refuses.
    pub fn max_qubit(&self) -> u32 {
        self.qubits().into_iter().max().unwrap_or(0)
    }

    /// True when the gate's matrix is diagonal in the computational basis —
    /// the paper's *fully local* class: "each amplitude can be updated
    /// without accessing other amplitudes" (§2.1).
    pub fn is_diagonal(&self) -> bool {
        match self {
            Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Phase { .. }
            | Gate::Rz { .. }
            | Gate::CZ(..)
            | Gate::CPhase { .. }
            | Gate::MCPhase { .. } => true,
            Gate::Unitary1 { matrix, .. } => matrix.is_diagonal(1e-14),
            Gate::CUnitary { matrix, .. } => matrix.is_diagonal(1e-14),
            Gate::Unitary2 { matrix, .. } => matrix.is_diagonal(1e-14),
            _ => false,
        }
    }

    /// For single-qubit (possibly controlled) gates: the 2×2 matrix applied
    /// to the target. `None` for SWAP, which is handled as a permutation.
    pub fn matrix1(&self) -> Option<Matrix2> {
        let h = Complex64::real(FRAC_1_SQRT_2);
        Some(match *self {
            Gate::H(_) => Matrix2::new(h, h, h, -h),
            Gate::X(_) | Gate::CNot { .. } => Matrix2::new(
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ONE,
                Complex64::ZERO,
            ),
            Gate::Y(_) => Matrix2::new(
                Complex64::ZERO,
                -Complex64::I,
                Complex64::I,
                Complex64::ZERO,
            ),
            Gate::Z(_) | Gate::CZ(..) => Matrix2::diagonal(Complex64::ONE, Complex64::real(-1.0)),
            Gate::S(_) => Matrix2::diagonal(Complex64::ONE, Complex64::I),
            Gate::Sdg(_) => Matrix2::diagonal(Complex64::ONE, -Complex64::I),
            Gate::T(_) => Matrix2::diagonal(Complex64::ONE, Complex64::cis(FRAC_PI_4)),
            Gate::Tdg(_) => Matrix2::diagonal(Complex64::ONE, Complex64::cis(-FRAC_PI_4)),
            Gate::Phase { theta, .. } | Gate::CPhase { theta, .. } => {
                Matrix2::diagonal(Complex64::ONE, Complex64::cis(theta))
            }
            Gate::Rz { theta, .. } => {
                Matrix2::diagonal(Complex64::cis(-theta / 2.0), Complex64::cis(theta / 2.0))
            }
            Gate::Rx { theta, .. } => {
                let c = Complex64::real((theta / 2.0).cos());
                let s = Complex64::new(0.0, -(theta / 2.0).sin());
                Matrix2::new(c, s, s, c)
            }
            Gate::Ry { theta, .. } => {
                let c = Complex64::real((theta / 2.0).cos());
                let s = (theta / 2.0).sin();
                Matrix2::new(c, Complex64::real(-s), Complex64::real(s), c)
            }
            Gate::Unitary1 { matrix, .. } | Gate::CUnitary { matrix, .. } => matrix,
            Gate::MCPhase { theta, .. } => Matrix2::diagonal(Complex64::ONE, Complex64::cis(theta)),
            Gate::Swap(..) | Gate::Unitary2 { .. } => return None,
        })
    }

    /// The control qubit, for controlled gates.
    pub fn control(&self) -> Option<u32> {
        match *self {
            Gate::CNot { control, .. } | Gate::CUnitary { control, .. } => Some(control),
            // CZ/CPhase are symmetric; by convention the first qubit
            // is reported as the control.
            Gate::CZ(a, _) => Some(a),
            Gate::CPhase { a, .. } => Some(a),
            _ => None,
        }
    }

    /// The target qubit — the qubit whose amplitude pairing matters for
    /// distribution. For symmetric diagonal two-qubit gates this is the
    /// second qubit (irrelevant in practice: diagonal gates never
    /// communicate).
    pub fn target(&self) -> u32 {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q) => q,
            Gate::Phase { target, .. }
            | Gate::Rz { target, .. }
            | Gate::Rx { target, .. }
            | Gate::Ry { target, .. }
            | Gate::Unitary1 { target, .. } => target,
            Gate::CNot { target, .. } | Gate::CUnitary { target, .. } => target,
            Gate::CZ(_, b) => b,
            Gate::CPhase { b, .. } => b,
            Gate::Swap(_, b) => b,
            // Diagonal — the notion of a target never matters for it,
            // but return a stable choice (0 over no qubits, as `max_qubit`).
            Gate::MCPhase { ref qubits, .. } => qubits.last().copied().unwrap_or(0),
            Gate::Unitary2 { b, .. } => b,
        }
    }

    /// The adjoint (inverse) gate.
    pub fn dagger(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Phase { target, theta } => Gate::Phase {
                target,
                theta: -theta,
            },
            Gate::Rz { target, theta } => Gate::Rz {
                target,
                theta: -theta,
            },
            Gate::Rx { target, theta } => Gate::Rx {
                target,
                theta: -theta,
            },
            Gate::Ry { target, theta } => Gate::Ry {
                target,
                theta: -theta,
            },
            Gate::CPhase { a, b, theta } => Gate::CPhase {
                a,
                b,
                theta: -theta,
            },
            Gate::Unitary1 { target, matrix } => Gate::Unitary1 {
                target,
                matrix: matrix.adjoint(),
            },
            Gate::MCPhase { ref qubits, theta } => Gate::MCPhase {
                qubits: qubits.clone(),
                theta: -theta,
            },
            Gate::CUnitary {
                control,
                target,
                matrix,
            } => Gate::CUnitary {
                control,
                target,
                matrix: matrix.adjoint(),
            },
            Gate::Unitary2 { a, b, matrix } => Gate::Unitary2 {
                a,
                b,
                matrix: matrix.adjoint(),
            },
            // Self-inverse gates.
            ref g @ (Gate::H(_)
            | Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::CNot { .. }
            | Gate::CZ(..)
            | Gate::Swap(..)) => g.clone(),
        }
    }

    /// Relabels every qubit through `f` — the primitive behind the paper's
    /// "gates to the right of the swaps need to be vertically flipped".
    pub fn remap(&self, f: &dyn Fn(u32) -> u32) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Phase { target, theta } => Gate::Phase {
                target: f(target),
                theta,
            },
            Gate::Rz { target, theta } => Gate::Rz {
                target: f(target),
                theta,
            },
            Gate::Rx { target, theta } => Gate::Rx {
                target: f(target),
                theta,
            },
            Gate::Ry { target, theta } => Gate::Ry {
                target: f(target),
                theta,
            },
            Gate::Unitary1 { target, matrix } => Gate::Unitary1 {
                target: f(target),
                matrix,
            },
            Gate::CNot { control, target } => Gate::CNot {
                control: f(control),
                target: f(target),
            },
            Gate::CZ(a, b) => Gate::CZ(f(a), f(b)),
            Gate::CPhase { a, b, theta } => Gate::CPhase {
                a: f(a),
                b: f(b),
                theta,
            },
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::MCPhase { ref qubits, theta } => Gate::MCPhase {
                qubits: qubits.iter().map(|&q| f(q)).collect(),
                theta,
            },
            Gate::CUnitary {
                control,
                target,
                matrix,
            } => Gate::CUnitary {
                control: f(control),
                target: f(target),
                matrix,
            },
            Gate::Unitary2 { a, b, matrix } => Gate::Unitary2 {
                a: f(a),
                b: f(b),
                matrix,
            },
        }
    }

    /// Short mnemonic for display and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "H",
            Gate::X(_) => "X",
            Gate::Y(_) => "Y",
            Gate::Z(_) => "Z",
            Gate::S(_) => "S",
            Gate::Sdg(_) => "Sdg",
            Gate::T(_) => "T",
            Gate::Tdg(_) => "Tdg",
            Gate::Phase { .. } => "Phase",
            Gate::Rz { .. } => "Rz",
            Gate::Rx { .. } => "Rx",
            Gate::Ry { .. } => "Ry",
            Gate::Unitary1 { .. } => "U1q",
            Gate::CNot { .. } => "CNot",
            Gate::CZ(..) => "CZ",
            Gate::CPhase { .. } => "CPhase",
            Gate::Swap(..) => "Swap",
            Gate::MCPhase { .. } => "MCPhase",
            Gate::CUnitary { .. } => "CU1q",
            Gate::Unitary2 { .. } => "U2q",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::CPhase { a, b, theta } => write!(f, "CPhase({a},{b},{theta:.4})"),
            Gate::Swap(a, b) => write!(f, "Swap({a},{b})"),
            Gate::CNot { control, target } => write!(f, "CNot({control}->{target})"),
            g => write!(f, "{}({})", g.name(), g.target()),
        }
    }
}

/// The QFT's controlled phase between two qubits at distance `d = |b − a|`:
/// `θ = π / 2^d` (the textbook `R_{d+1}` rotation), so nearest neighbours
/// get `π/2`, next-nearest `π/4`, and so on.
pub fn qft_cphase(a: u32, b: u32) -> Gate {
    let d = a.abs_diff(b);
    Gate::CPhase {
        a,
        b,
        theta: FRAC_PI_2 / (1u64 << (d - 1)) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_complex_close;

    fn all_sample_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::X(1),
            Gate::Y(2),
            Gate::Z(3),
            Gate::S(0),
            Gate::Sdg(1),
            Gate::T(2),
            Gate::Tdg(3),
            Gate::Phase {
                target: 0,
                theta: 0.7,
            },
            Gate::Rz {
                target: 1,
                theta: 0.3,
            },
            Gate::Rx {
                target: 2,
                theta: 1.1,
            },
            Gate::Ry {
                target: 3,
                theta: -0.4,
            },
            Gate::CNot {
                control: 0,
                target: 1,
            },
            Gate::CZ(2, 3),
            Gate::CPhase {
                a: 0,
                b: 3,
                theta: 0.9,
            },
            Gate::Swap(1, 2),
        ]
    }

    #[test]
    fn qubits_and_max() {
        assert_eq!(Gate::H(5).qubits(), vec![5]);
        assert_eq!(
            Gate::CNot {
                control: 2,
                target: 7
            }
            .qubits(),
            vec![2, 7]
        );
        assert_eq!(Gate::Swap(3, 1).max_qubit(), 3);
        // An `MCPhase` over no qubits (which `Circuit::push` refuses)
        // reads qubit 0 instead of panicking.
        let empty = Gate::MCPhase {
            qubits: vec![],
            theta: 0.5,
        };
        assert_eq!((empty.max_qubit(), empty.target()), (0, 0));
    }

    #[test]
    fn diagonal_classification_matches_matrices() {
        for g in all_sample_gates() {
            if let Some(m) = g.matrix1() {
                // For uncontrolled single-qubit gates the flag must agree
                // with the matrix; controlled gates are diagonal iff their
                // target matrix is diagonal.
                assert_eq!(
                    g.is_diagonal(),
                    m.is_diagonal(1e-14),
                    "flag mismatch for {g}"
                );
            }
        }
        // SWAP is a permutation, not diagonal.
        assert!(!Gate::Swap(0, 1).is_diagonal());
    }

    #[test]
    fn all_matrices_are_unitary() {
        for g in all_sample_gates() {
            if let Some(m) = g.matrix1() {
                assert!(m.is_unitary(1e-12), "{g} matrix not unitary");
            }
        }
    }

    #[test]
    fn dagger_composes_to_identity() {
        for g in all_sample_gates() {
            let (Some(m), Some(md)) = (g.matrix1(), g.dagger().matrix1()) else {
                continue;
            };
            let prod = md.matmul(&m);
            let id = Matrix2::identity();
            for (a, b) in prod.m.iter().zip(id.m.iter()) {
                assert_complex_close(*a, *b, 1e-12);
            }
        }
    }

    #[test]
    fn dagger_of_swap_is_swap() {
        assert_eq!(Gate::Swap(1, 2).dagger(), Gate::Swap(1, 2));
    }

    #[test]
    fn remap_relabels_all_qubits() {
        let flip = |n: u32| move |q: u32| n - 1 - q;
        let g = Gate::CNot {
            control: 1,
            target: 6,
        };
        assert_eq!(
            g.remap(&flip(8)),
            Gate::CNot {
                control: 6,
                target: 1
            }
        );
        assert_eq!(Gate::Swap(0, 7).remap(&flip(8)), Gate::Swap(7, 0));
        // remap twice with an involution restores the gate
        for g in all_sample_gates() {
            assert_eq!(g.remap(&flip(8)).remap(&flip(8)), g);
        }
    }

    #[test]
    fn controls_and_targets() {
        assert_eq!(
            Gate::CNot {
                control: 3,
                target: 1
            }
            .control(),
            Some(3)
        );
        assert_eq!(Gate::H(4).control(), None);
        assert_eq!(Gate::CZ(2, 5).target(), 5);
        assert_eq!(
            Gate::Phase {
                target: 9,
                theta: 0.1
            }
            .target(),
            9
        );
    }

    #[test]
    fn s_equals_phase_pi_2() {
        let s = Gate::S(0).matrix1().unwrap();
        let p = Gate::Phase {
            target: 0,
            theta: std::f64::consts::FRAC_PI_2,
        }
        .matrix1()
        .unwrap();
        for (a, b) in s.m.iter().zip(p.m.iter()) {
            assert_complex_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn t_squared_equals_s() {
        let t = Gate::T(0).matrix1().unwrap();
        let s = Gate::S(0).matrix1().unwrap();
        let t2 = t.matmul(&t);
        for (a, b) in t2.m.iter().zip(s.m.iter()) {
            assert_complex_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Gate::H(3).to_string(), "H(3)");
        assert_eq!(
            Gate::CNot {
                control: 1,
                target: 2
            }
            .to_string(),
            "CNot(1->2)"
        );
        assert_eq!(Gate::Swap(4, 5).to_string(), "Swap(4,5)");
    }
}
