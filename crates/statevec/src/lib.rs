//! Local and distributed quantum statevector engine.
//!
//! This crate is the reproduction's QuEST: a Schrödinger-style simulator
//! that keeps all `2^n` amplitudes in memory and evolves them gate by gate
//! (§1 of the paper). It exists in two forms sharing the same kernels:
//!
//! * [`single::SingleState`] — one address space, used by the reference
//!   experiments, the examples and the kernel benchmarks;
//! * [`dist::DistributedState`] — the statevector split evenly over `2^r`
//!   communicator ranks exactly as QuEST splits it over MPI processes:
//!   the low `n − r` qubits are local, the top `r` select the rank, and
//!   distributed gates exchange the whole local vector with a single pair
//!   rank (§2.1).
//!
//! Amplitudes are stored as QuEST stores them ([`storage`]): separate
//! real and imaginary arrays (structure-of-arrays). The paper's future
//! work proposes an interleaved complex type for better locality (§4);
//! measured against these kernels it was slower on most of them, so the
//! engine keeps the SoA layout alone (DESIGN.md §11).
//!
//! The communication layer supports the paper's three exchange regimes:
//! blocking chunked sendrecv (QuEST's default), the non-blocking rewrite
//! (§3.2), and the half-exchange SWAP (§4 future work) which moves only
//! the amplitudes a SWAP actually displaces.
//!
//! [`reference::ReferenceState`] is an independent, deliberately naïve
//! out-of-place simulator used as the correctness oracle for everything
//! else.

/// Converts a `u64` amplitude/rank index to `usize`.
///
/// Every index routed through here is bounded by an allocation this
/// process already holds (`local_amps`-sized `Vec`s, rank counts), so
/// it fits `usize` on any host that can run the simulation at all.
/// Centralising the conversion keeps raw `as usize` out of index
/// arithmetic (lint R6) while documenting the invariant once, and the
/// debug assertion makes the bound self-checking.
#[inline]
pub(crate) fn ix(i: u64) -> usize {
    debug_assert!(usize::try_from(i).is_ok(), "index {i} exceeds usize");
    i as usize // qse-lint: allow — bounded by an existing allocation; debug-checked above
}

pub mod diagonal;
pub mod digest;
pub mod dist;
pub mod measure;
pub mod reference;
pub mod schedule;
pub mod single;
pub mod sparse;
pub mod storage;

pub use dist::{DistConfig, DistributedState, ReadOut};
pub use schedule::{LocalOp, LocalRun, Schedule, Step};
pub use single::SingleState;
pub use sparse::{SparseState, DEFAULT_PRUNE_EPSILON, MAX_SPARSE_QUBITS};
pub use storage::SoaStorage;
