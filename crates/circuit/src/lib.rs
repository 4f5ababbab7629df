//! Quantum circuit IR, builders, locality analysis and transpilation.
//!
//! This crate is the "front end" of the reproduction: it defines the gate
//! set QuEST exposes (as far as the paper exercises it), builds the three
//! circuits the paper benchmarks — the Quantum Fourier Transform (fig 1a),
//! its cache-blocked variant (fig 1b), and the Hadamard/SWAP stress
//! circuits (§2.3) — and implements the transformations of §2.2:
//!
//! * [`classify`] — the paper's three operator classes: *fully local*
//!   (diagonal matrices), *local memory* (block-diagonal within a rank) and
//!   *distributed* (requires pairwise exchange);
//! * [`transpile::cache_blocking`] — a general cache-blocking pass in the
//!   style of Doi & Horii (the paper's reference \[3\]) plus the
//!   QFT-specific SWAP-shifting construction the paper uses;
//! * [`transpile::fusion`] — diagonal-gate fusion, modelling QuEST's
//!   "controlled phase gates applied more efficiently" (§3.2).
//!
//! ## Qubit convention
//!
//! Amplitude index bit `q` stores qubit `q` (little-endian storage, QuEST
//! layout): qubit 0 varies fastest, and with `2^r` ranks the *top* `r`
//! qubits select the owning rank. The QFT builders follow the paper's
//! figure, which processes qubit 0 first and ends with SWAPs — under this
//! layout, qubit 0 is the most significant bit *of the transform*, so
//! `QFT |x⟩ = N^{-1/2} Σ_k ω^{rev(x)·rev(k)} |k⟩` with bit-reversed indices
//! (see `qft` module tests for the exact statement).

pub mod algorithms;
pub mod benchmarks;
pub mod circuit;
pub mod classify;
pub mod gate;
pub mod hash;
pub mod lower;
pub mod named;
pub mod permutation;
pub mod qft;
pub mod random;
pub mod transpile;

pub use circuit::{Circuit, MAX_QUBITS};
pub use classify::{GateClass, Layout};
pub use gate::Gate;
pub use permutation::Permutation;
