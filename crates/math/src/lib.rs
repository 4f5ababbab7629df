//! Foundational numerics for statevector simulation.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! every other layer of the reproduction:
//!
//! * [`Complex64`] — a from-scratch double-precision complex number. QuEST
//!   stores amplitudes as *separate* real and imaginary arrays; the paper's
//!   future-work section proposes switching to an interleaved complex type
//!   (measured slower on this engine's kernels; see `qse_statevec::storage`).
//! * [`Matrix2`] / [`Matrix4`] — dense complex matrices for one- and
//!   two-qubit gates, with unitarity checks used by tests and the circuit IR.
//! * [`bits`] — bit-index utilities: the entire distributed-simulation
//!   algebra of the paper (local vs global qubits, pair ranks, amplitude
//!   pairing) is bit manipulation on amplitude indices.
//! * [`approx`] — tolerant floating-point comparison helpers used across the
//!   test suites.

pub mod approx;
pub mod bits;
pub mod complex;
pub mod matrix;

pub use complex::Complex64;
pub use matrix::{Matrix2, Matrix4};
