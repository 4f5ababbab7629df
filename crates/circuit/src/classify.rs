//! Gate locality classification — the paper's §2.1 taxonomy.
//!
//! With the statevector split evenly across `2^r` ranks, the low
//! `n − r` qubits are *local* (their amplitude pairs live within one rank)
//! and the top `r` qubits are *global* (pairs span two ranks). Every gate
//! then falls into one of three classes:
//!
//! * **fully local** — diagonal matrices: "each amplitude can be updated
//!   without accessing other amplitudes";
//! * **local memory** — block-diagonal with blocks no larger than a rank's
//!   share: updates combine amplitudes on the same process;
//! * **distributed** — "new amplitudes depend on amplitudes from other
//!   processes": requires a pairwise exchange of the local statevector.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::hash::canonical_gate;
use std::f64::consts::{FRAC_PI_2, PI};

/// How the register is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    n_qubits: u32,
    rank_qubits: u32,
}

/// A rank count no register can be split over ([`Layout::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// QuEST splits a register over `2^r` ranks only.
    NotPowerOfTwo {
        /// The rank count asked for.
        n_ranks: u64,
    },
    /// More ranks than amplitudes: each rank needs at least one.
    TooManyRanks {
        /// The rank count asked for.
        n_ranks: u64,
        /// The register width.
        n_qubits: u32,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LayoutError::NotPowerOfTwo { n_ranks } => {
                write!(f, "{n_ranks} is not a power of two")
            }
            LayoutError::TooManyRanks { n_ranks, n_qubits } => write!(
                f,
                "{n_ranks} ranks need at least {} qubits, have {n_qubits}",
                n_ranks.trailing_zeros()
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

impl Layout {
    /// Builds a layout for `n_qubits` over `n_ranks` ranks: a power of
    /// two, as QuEST requires, and at most `2^n_qubits`.
    pub fn try_new(n_qubits: u32, n_ranks: u64) -> Result<Self, LayoutError> {
        if !n_ranks.is_power_of_two() {
            return Err(LayoutError::NotPowerOfTwo { n_ranks });
        }
        let rank_qubits = n_ranks.trailing_zeros();
        if rank_qubits > n_qubits {
            return Err(LayoutError::TooManyRanks { n_ranks, n_qubits });
        }
        Ok(Layout {
            n_qubits,
            rank_qubits,
        })
    }

    /// [`Self::try_new`] for a rank count known to be valid.
    ///
    /// # Panics
    /// Panics with the [`LayoutError`] when it is not.
    pub fn new(n_qubits: u32, n_ranks: u64) -> Self {
        // qse-lint: allow — the documented panic of `new`; input-facing callers use `try_new`
        Self::try_new(n_qubits, n_ranks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of ranks (`2^r`).
    #[inline]
    pub fn n_ranks(&self) -> u64 {
        1u64 << self.rank_qubits
    }

    /// Number of global ("rank") qubits `r`.
    #[inline]
    pub fn rank_qubits(&self) -> u32 {
        self.rank_qubits
    }

    /// Number of local qubits `n − r`.
    #[inline]
    pub fn local_qubits(&self) -> u32 {
        self.n_qubits - self.rank_qubits
    }

    /// Amplitudes held by each rank.
    #[inline]
    pub fn local_amps(&self) -> u64 {
        1u64 << self.local_qubits()
    }

    /// True when qubit `q`'s amplitude pairs stay within one rank.
    #[inline]
    pub fn is_local(&self, q: u32) -> bool {
        q < self.local_qubits()
    }

    /// For a global qubit, the rank-address bit it corresponds to.
    ///
    /// The pair rank for a distributed gate on qubit `q` is
    /// `rank XOR (1 << rank_bit(q))` (§2.1's pairwise communication).
    #[inline]
    pub fn rank_bit(&self, q: u32) -> u32 {
        debug_assert!(!self.is_local(q), "qubit {q} is local");
        q - self.local_qubits()
    }

    /// The communication partner of `rank` for a gate on global qubit `q`.
    #[inline]
    pub fn pair_rank(&self, rank: u64, q: u32) -> u64 {
        rank ^ (1u64 << self.rank_bit(q))
    }
}

/// The paper's three operator classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// Diagonal matrix; no amplitude ever reads another amplitude.
    FullyLocal,
    /// Amplitude pairs combine within one rank; memory traffic only.
    LocalMemory,
    /// Amplitude pairs span ranks; requires pairwise exchange.
    Distributed,
}

/// Classifies one gate under a layout.
pub fn classify(gate: &Gate, layout: &Layout) -> GateClass {
    if gate.is_diagonal() {
        return GateClass::FullyLocal;
    }
    match *gate {
        Gate::Swap(a, b) => {
            if layout.is_local(a) && layout.is_local(b) {
                GateClass::LocalMemory
            } else {
                GateClass::Distributed
            }
        }
        // A general two-qubit unitary mixes amplitudes across both of its
        // qubits' pairings, so both must be local to avoid communication.
        Gate::Unitary2 { a, b, .. } => {
            if layout.is_local(a) && layout.is_local(b) {
                GateClass::LocalMemory
            } else {
                GateClass::Distributed
            }
        }
        // For every remaining gate (plain or controlled single-target),
        // only the target's pairing matters: a global *control* merely
        // masks which ranks participate, it never moves data.
        ref g => {
            if layout.is_local(g.target()) {
                GateClass::LocalMemory
            } else {
                GateClass::Distributed
            }
        }
    }
}

/// Bytes per amplitude: two `f64`s.
pub const BYTES_PER_AMP: u64 = 16;

// ---------------------------------------------------------------------------
// Engine choice — which simulation backend fits a circuit's structure.
//
// The dense statevector pays 16·2ⁿ bytes regardless of what the circuit
// does with them. Two structural properties open cheaper engines:
//
// * **Clifford-only** gate streams are simulable in O(n²) tableau space
//   (Gottesman–Knill), thousands of qubits on a laptop;
// * **low-branching** gate streams keep the number of nonzero
//   amplitudes far below 2ⁿ, so a sparse map of nonzeros wins.
//
// Both analyses run on the *canonical* gate form (`hash::canonical_gate`)
// so denotationally-equal submissions classify identically: a `-0.0`
// phase angle is angle `0`, symmetric operands are sorted. Angle matching
// is then by exact bit pattern — `canon_f64` already collapsed the only
// equal-comparing distinct patterns (the two zeros), so bit equality
// after canonicalisation is semantic equality for the angles we accept.
// ---------------------------------------------------------------------------

/// One generator-set operation of the Clifford group — the instruction
/// set of the stabilizer tableau engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CliffordOp {
    /// Hadamard.
    H(u32),
    /// Phase gate `diag(1, i)`.
    S(u32),
    /// Inverse phase gate `diag(1, -i)`.
    Sdg(u32),
    /// Pauli X.
    X(u32),
    /// Pauli Y.
    Y(u32),
    /// Pauli Z.
    Z(u32),
    /// Controlled-NOT (control, target).
    Cnot(u32, u32),
    /// Controlled-Z.
    Cz(u32, u32),
    /// Qubit exchange.
    Swap(u32, u32),
}

/// Decomposes one gate into Clifford-group operations, or `None` when
/// the gate is outside the group (T, generic rotations, arbitrary
/// unitaries). An identity gate (zero-angle phase) decomposes into the
/// empty sequence.
///
/// The gate is canonicalised first, so `Phase { theta: -0.0 }` is the
/// identity and symmetric operands arrive sorted — the cache-key
/// analysis and the engine analysis can never disagree about a circuit.
///
/// Rotation angles are accepted at the exact Clifford points only
/// (`0`, `±π/2`, `±π` for single-qubit phases; `0`, `±π` for
/// controlled phases): `Rz` at those points equals the named gate *up
/// to global phase*, which no measurement distribution observes.
pub fn clifford_ops(gate: &Gate) -> Option<Vec<CliffordOp>> {
    let bits_eq = |theta: f64, want: f64| theta.to_bits() == want.to_bits();
    // theta is already canon_f64'd: -0.0 arrives as 0.0.
    let phase_ops = |q: u32, theta: f64| -> Option<Vec<CliffordOp>> {
        if bits_eq(theta, 0.0) {
            Some(vec![])
        } else if bits_eq(theta, FRAC_PI_2) {
            Some(vec![CliffordOp::S(q)])
        } else if bits_eq(theta, -FRAC_PI_2) {
            Some(vec![CliffordOp::Sdg(q)])
        } else if bits_eq(theta, PI) || bits_eq(theta, -PI) {
            Some(vec![CliffordOp::Z(q)])
        } else {
            None
        }
    };
    match canonical_gate(gate) {
        Gate::H(q) => Some(vec![CliffordOp::H(q)]),
        Gate::X(q) => Some(vec![CliffordOp::X(q)]),
        Gate::Y(q) => Some(vec![CliffordOp::Y(q)]),
        Gate::Z(q) => Some(vec![CliffordOp::Z(q)]),
        Gate::S(q) => Some(vec![CliffordOp::S(q)]),
        Gate::Sdg(q) => Some(vec![CliffordOp::Sdg(q)]),
        Gate::CNot { control, target } => Some(vec![CliffordOp::Cnot(control, target)]),
        Gate::CZ(a, b) => Some(vec![CliffordOp::Cz(a, b)]),
        Gate::Swap(a, b) => Some(vec![CliffordOp::Swap(a, b)]),
        Gate::Phase { target, theta } => phase_ops(target, theta),
        // Rz(θ) = e^{-iθ/2}·Phase(θ): same operator up to global phase.
        Gate::Rz { target, theta } => phase_ops(target, theta),
        Gate::CPhase { a, b, theta } => {
            if bits_eq(theta, 0.0) {
                Some(vec![])
            } else if bits_eq(theta, PI) || bits_eq(theta, -PI) {
                Some(vec![CliffordOp::Cz(a, b)])
            } else {
                None
            }
        }
        Gate::MCPhase { ref qubits, theta } => match qubits.as_slice() {
            _ if bits_eq(theta, 0.0) => Some(vec![]),
            [q] => phase_ops(*q, theta),
            [a, b] if bits_eq(theta, PI) || bits_eq(theta, -PI) => {
                Some(vec![CliffordOp::Cz(*a, *b)])
            }
            _ => None,
        },
        Gate::T(_)
        | Gate::Tdg(_)
        | Gate::Rx { .. }
        | Gate::Ry { .. }
        | Gate::Unitary1 { .. }
        | Gate::CUnitary { .. }
        | Gate::Unitary2 { .. } => None,
    }
}

/// True when every gate of `circuit` is in the Clifford group (after
/// canonicalisation).
pub fn is_clifford_circuit(circuit: &Circuit) -> bool {
    circuit.gates().iter().all(|g| clifford_ops(g).is_some())
}

/// Upper bound on the number of nonzero amplitudes after running
/// `circuit` from a basis state, saturating at `2ⁿ`.
///
/// Walks the gate stream tracking how each gate can grow the support:
/// diagonal gates and permutations (X, CNOT, SWAP) preserve it,
/// branching single-qubit gates at most double it, and a general
/// two-qubit unitary at most quadruples it. Collapses (measurements)
/// are not part of the gate stream, so the bound is monotone — the
/// final value is the peak.
pub fn support_estimate(circuit: &Circuit) -> u64 {
    let cap = if circuit.n_qubits() >= 63 {
        u64::MAX
    } else {
        1u64 << circuit.n_qubits()
    };
    let mut support: u64 = 1;
    for g in circuit.gates() {
        let factor: u64 = match g {
            _ if g.is_diagonal() => 1,
            Gate::X(_) | Gate::Y(_) | Gate::CNot { .. } | Gate::Swap(..) => 1,
            Gate::Unitary2 { .. } => 4,
            // H, Rx, Ry, Unitary1, CUnitary: one qubit branches.
            _ => 2,
        };
        support = support.saturating_mul(factor).min(cap);
    }
    support
}

/// Which simulation engine a circuit should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Dense statevector — single address space or distributed.
    Dense,
    /// Sparse statevector — nonzero amplitudes in a map.
    Sparse,
    /// Clifford stabilizer tableau.
    Stabilizer,
}

impl EngineChoice {
    /// Stable lowercase label (CLI values, JSON fields, cache tags).
    pub fn label(self) -> &'static str {
        match self {
            EngineChoice::Dense => "dense",
            EngineChoice::Sparse => "sparse",
            EngineChoice::Stabilizer => "stabilizer",
        }
    }
}

/// A sparse run must beat dense by at least this support ratio: the
/// estimated peak support must fit in `2ⁿ / 8` before the map's
/// per-amplitude overhead (key + hashing) is worth paying.
pub const SPARSE_ADVANTAGE: u64 = 8;

/// Picks the engine for `circuit`: Clifford-only streams take the
/// tableau (O(n²) space at any width), streams whose support bound
/// stays under `2ⁿ / `[`SPARSE_ADVANTAGE`] take the sparse map, and
/// everything else pays the dense sweep.
///
/// The choice never affects results, only cost — the conformance suite
/// (`qse-core/tests/engine_conformance.rs`) holds all three engines to
/// the same distributions on their overlapping domains.
pub fn choose_engine(circuit: &Circuit) -> EngineChoice {
    if is_clifford_circuit(circuit) {
        return EngineChoice::Stabilizer;
    }
    let n = circuit.n_qubits();
    let dense_amps = if n >= 63 { u64::MAX } else { 1u64 << n };
    if support_estimate(circuit) <= dense_amps / SPARSE_ADVANTAGE {
        return EngineChoice::Sparse;
    }
    EngineChoice::Dense
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qft::qft;

    #[test]
    fn layout_arithmetic() {
        let l = Layout::new(38, 64);
        assert_eq!(l.rank_qubits(), 6);
        assert_eq!(l.local_qubits(), 32);
        assert_eq!(l.local_amps(), 1u64 << 32);
        assert!(l.is_local(31));
        assert!(!l.is_local(32));
        assert_eq!(l.rank_bit(32), 0);
        assert_eq!(l.rank_bit(37), 5);
    }

    #[test]
    fn pair_rank_is_xor() {
        let l = Layout::new(10, 8); // 7 local qubits
        assert_eq!(l.pair_rank(0, 7), 1);
        assert_eq!(l.pair_rank(5, 8), 7); // 0b101 ^ 0b010
        assert_eq!(l.pair_rank(l.pair_rank(3, 9), 9), 3); // involution
    }

    #[test]
    #[should_panic(expected = "ranks need at least")]
    fn too_many_ranks_rejected() {
        Layout::new(2, 8);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_pow2_ranks_rejected() {
        Layout::new(10, 6);
    }

    #[test]
    fn try_new_types_every_invalid_rank_count() {
        for n_ranks in [0, 3, 6, u64::MAX] {
            assert_eq!(
                Layout::try_new(10, n_ranks),
                Err(LayoutError::NotPowerOfTwo { n_ranks })
            );
        }
        assert_eq!(
            Layout::try_new(4, 64),
            Err(LayoutError::TooManyRanks {
                n_ranks: 64,
                n_qubits: 4
            })
        );
        assert_eq!(Layout::try_new(6, 64).map(|l| l.local_qubits()), Ok(0));
        assert_eq!(
            Layout::try_new(200, 1 << 63).map(|l| l.rank_qubits()),
            Ok(63)
        );
    }

    #[test]
    fn single_rank_everything_at_worst_local_memory() {
        let l = Layout::new(5, 1);
        for g in [
            Gate::H(4),
            Gate::X(0),
            Gate::Swap(0, 4),
            Gate::CNot {
                control: 4,
                target: 3,
            },
        ] {
            assert_ne!(classify(&g, &l), GateClass::Distributed, "{g}");
        }
    }

    #[test]
    fn diagonal_gates_are_fully_local_even_on_global_qubits() {
        let l = Layout::new(8, 16); // 4 local
        for g in [
            Gate::Z(7),
            Gate::S(6),
            Gate::T(5),
            Gate::Phase {
                target: 7,
                theta: 0.4,
            },
            Gate::CPhase {
                a: 6,
                b: 7,
                theta: 0.2,
            },
            Gate::CZ(4, 7),
            Gate::Rz {
                target: 7,
                theta: 1.0,
            },
        ] {
            assert_eq!(classify(&g, &l), GateClass::FullyLocal, "{g}");
        }
    }

    #[test]
    fn nondiagonal_follow_target_locality() {
        let l = Layout::new(8, 16); // local: 0..3
        assert_eq!(classify(&Gate::H(3), &l), GateClass::LocalMemory);
        assert_eq!(classify(&Gate::H(4), &l), GateClass::Distributed);
        assert_eq!(classify(&Gate::X(7), &l), GateClass::Distributed);
        // global control, local target: no communication
        assert_eq!(
            classify(
                &Gate::CNot {
                    control: 7,
                    target: 0
                },
                &l
            ),
            GateClass::LocalMemory
        );
        // local control, global target: distributed
        assert_eq!(
            classify(
                &Gate::CNot {
                    control: 0,
                    target: 7
                },
                &l
            ),
            GateClass::Distributed
        );
    }

    #[test]
    fn swap_locality() {
        let l = Layout::new(8, 16);
        assert_eq!(classify(&Gate::Swap(0, 3), &l), GateClass::LocalMemory);
        assert_eq!(classify(&Gate::Swap(0, 4), &l), GateClass::Distributed);
        assert_eq!(classify(&Gate::Swap(5, 7), &l), GateClass::Distributed);
    }

    // --- engine choice ---

    #[test]
    fn named_clifford_gates_decompose() {
        use CliffordOp::*;
        let cases: Vec<(Gate, Vec<CliffordOp>)> = vec![
            (Gate::H(3), vec![H(3)]),
            (Gate::X(0), vec![X(0)]),
            (Gate::Y(1), vec![Y(1)]),
            (Gate::Z(2), vec![Z(2)]),
            (Gate::S(4), vec![S(4)]),
            (Gate::Sdg(5), vec![Sdg(5)]),
            (
                Gate::CNot {
                    control: 1,
                    target: 0,
                },
                vec![Cnot(1, 0)],
            ),
            // Symmetric operands arrive sorted by canonicalisation.
            (Gate::CZ(3, 1), vec![Cz(1, 3)]),
            (Gate::Swap(4, 2), vec![Swap(2, 4)]),
        ];
        for (gate, want) in cases {
            assert_eq!(clifford_ops(&gate).as_deref(), Some(&want[..]), "{gate}");
        }
    }

    #[test]
    fn clifford_angles_match_at_exact_points_only() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        let phase = |theta| Gate::Phase { target: 0, theta };
        assert_eq!(clifford_ops(&phase(0.0)).as_deref(), Some(&[][..]));
        assert_eq!(
            clifford_ops(&phase(FRAC_PI_2)).as_deref(),
            Some(&[CliffordOp::S(0)][..])
        );
        assert_eq!(
            clifford_ops(&phase(-FRAC_PI_2)).as_deref(),
            Some(&[CliffordOp::Sdg(0)][..])
        );
        assert_eq!(
            clifford_ops(&phase(PI)).as_deref(),
            Some(&[CliffordOp::Z(0)][..])
        );
        assert_eq!(clifford_ops(&phase(FRAC_PI_4)), None);
        assert_eq!(clifford_ops(&phase(FRAC_PI_2 + 1e-12)), None);
        // Rz at Clifford points equals the named gate up to global phase.
        assert_eq!(
            clifford_ops(&Gate::Rz {
                target: 2,
                theta: -PI
            })
            .as_deref(),
            Some(&[CliffordOp::Z(2)][..])
        );
        // T is the canonical non-Clifford gate.
        assert_eq!(clifford_ops(&Gate::T(0)), None);
        assert_eq!(clifford_ops(&Gate::Tdg(0)), None);
        // CPhase(π) is CZ; CPhase(π/2) (the CS gate) is not Clifford.
        assert_eq!(
            clifford_ops(&Gate::CPhase {
                a: 2,
                b: 0,
                theta: PI
            })
            .as_deref(),
            Some(&[CliffordOp::Cz(0, 2)][..])
        );
        assert_eq!(
            clifford_ops(&Gate::CPhase {
                a: 0,
                b: 1,
                theta: FRAC_PI_2
            }),
            None
        );
        // MCPhase degenerates by arity; CCZ (3 qubits, π) is not Clifford.
        assert_eq!(
            clifford_ops(&Gate::MCPhase {
                qubits: vec![2],
                theta: FRAC_PI_2
            })
            .as_deref(),
            Some(&[CliffordOp::S(2)][..])
        );
        assert_eq!(
            clifford_ops(&Gate::MCPhase {
                qubits: vec![0, 1, 2],
                theta: PI
            }),
            None
        );
    }

    /// The bite test for the canonicalisation bugfix: a `-0.0` phase
    /// angle is the identity and must NOT demote a circuit from the
    /// Clifford class. Raw bit-pattern matching (without `canon_f64`)
    /// would see `0x8000…` ≠ `0x0000…` and misclassify — the analysis
    /// must run on the `qse_circuit::hash` canonical form.
    #[test]
    fn negative_zero_phase_does_not_demote_clifford() {
        let neg_zero = -0.0f64;
        assert_ne!(neg_zero.to_bits(), 0.0f64.to_bits(), "test premise");
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).phase(2, neg_zero).push(Gate::CZ(3, 1));
        assert!(is_clifford_circuit(&c));
        assert_eq!(choose_engine(&c), EngineChoice::Stabilizer);
        assert_eq!(
            clifford_ops(&Gate::Phase {
                target: 2,
                theta: neg_zero
            })
            .as_deref(),
            Some(&[][..]),
            "-0.0 phase is the identity"
        );
        // Same for Rz and CPhase, and for -0.0 reached through MCPhase.
        for g in [
            Gate::Rz {
                target: 0,
                theta: neg_zero,
            },
            Gate::CPhase {
                a: 0,
                b: 1,
                theta: neg_zero,
            },
            Gate::MCPhase {
                qubits: vec![1, 0, 3],
                theta: neg_zero,
            },
        ] {
            assert_eq!(clifford_ops(&g).as_deref(), Some(&[][..]), "{g}");
        }
    }

    #[test]
    fn support_estimate_tracks_branching() {
        // GHZ: one H then CNOTs — support stays 2 at any width.
        let mut ghz = Circuit::new(20);
        ghz.h(0);
        for q in 1..20 {
            ghz.cnot(q - 1, q);
        }
        assert_eq!(support_estimate(&ghz), 2);
        // A full H layer saturates at 2ⁿ.
        let mut dense = Circuit::new(6);
        for q in 0..6 {
            dense.h(q);
        }
        dense.h(0).h(1); // extra branches cannot exceed the cap
        assert_eq!(support_estimate(&dense), 64);
        // Diagonals and permutations never grow it.
        let mut c = Circuit::new(8);
        c.h(0).t(0).x(1).swap(0, 3).cphase(0, 1, 0.3).cnot(3, 4);
        assert_eq!(support_estimate(&c), 2);
    }

    #[test]
    fn choose_engine_by_structure() {
        // Clifford-only → tableau, even when also sparse-friendly (GHZ).
        let mut ghz = Circuit::new(12);
        ghz.h(0);
        for q in 1..12 {
            ghz.cnot(q - 1, q);
        }
        assert_eq!(choose_engine(&ghz), EngineChoice::Stabilizer);
        // Low-branching non-Clifford → sparse (GHZ seasoned with T).
        let mut sparse = Circuit::new(12);
        sparse.h(0);
        for q in 1..12 {
            sparse.cnot(q - 1, q);
        }
        sparse.t(3).phase(5, 0.3);
        assert_eq!(choose_engine(&sparse), EngineChoice::Sparse);
        // QFT branches on every qubit → dense.
        assert_eq!(choose_engine(&qft(10)), EngineChoice::Dense);
        assert_eq!(EngineChoice::Dense.label(), "dense");
        assert_eq!(EngineChoice::Sparse.label(), "sparse");
        assert_eq!(EngineChoice::Stabilizer.label(), "stabilizer");
    }
}
