//! Clifford/stabilizer engine: bit-packed tableau simulation.
//!
//! Dense statevector simulation costs `16·2ⁿ` bytes regardless of what
//! the circuit does, capping the local engine near n ≈ 24. Circuits
//! built only from Clifford gates (H, S, S†, X, Y, Z, CNOT, CZ, SWAP)
//! never leave the stabilizer group, so their state is fully described
//! by `2n` Pauli generators — an `O(n²)`-bit tableau in the
//! Aaronson–Gottesman (CHP) representation. This crate simulates such
//! circuits at thousands of qubits: each gate is an `O(n)` column
//! update over bit-packed rows, and single-qubit measurement is at
//! worst `O(n²/64)` word operations.
//!
//! The engine plugs in behind the same instruction set the rest of the
//! system uses: [`qse_circuit::classify::clifford_ops`] lowers IR gates
//! to [`CliffordOp`](qse_circuit::classify::CliffordOp)s (rejecting
//! non-Clifford gates with `None`), and [`Tableau::run`] turns a whole
//! circuit into a final tableau.
//! Sampling reproduces the dense engine's fixed-seed histograms: the
//! support of a stabilizer state is an affine subspace of basis states
//! with exactly equal probabilities, which [`Tableau::sampler`]
//! enumerates once into the same prepared `qse_util::cdf::Cdf` that
//! `qse_statevec::sample_counts_amps` draws from.
//!
//! Everything returns typed [`StabError`]s — this crate is held to the
//! no-panic rule (R1) alongside comm and statevec.

// Source rules R1, R5, R6 (DESIGN §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        unsafe_code,
        clippy::undocumented_unsafe_blocks,
        clippy::cast_possible_truncation
    )
)]

mod tableau;

pub use tableau::{Outcome, StabError, Support, Tableau, MAX_SUPPORT_QUBITS};

/// `u64 → usize` for indexing, audited once.
///
/// Centralising the conversion keeps raw `as usize` out of the
/// tableau's index arithmetic (source rule R6).
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "bounded by an existing allocation; debug-checked"
)]
pub(crate) fn ix(i: u64) -> usize {
    debug_assert!(usize::try_from(i).is_ok(), "index {i} exceeds usize");
    i as usize
}
