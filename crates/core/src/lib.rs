//! Simulator facade: executors, profiling and the experiment harness.
//!
//! This crate glues the reproduction together. A circuit can be run three
//! ways behind one interface:
//!
//! * [`executor::LocalExecutor`] — single address space, production
//!   kernels ([`qse_statevec::SingleState`]);
//! * [`executor::ThreadClusterExecutor`] — genuinely distributed over
//!   thread ranks with real message passing, measuring wall-clock time
//!   and traffic ([`qse_statevec::DistributedState`]);
//! * [`executor::ModelExecutor`] — the calibrated ARCHER2 model
//!   ([`qse_machine`]), used at the paper's 33–44-qubit scale.
//!
//! [`experiment`] renders the paper's tables (plain text in the same
//! shape as the publication) and writes machine-readable JSON next to
//! them, which is what `EXPERIMENTS.md` records.

pub mod config;
pub mod executor;
pub mod experiment;
pub mod profile;
pub mod scaling;

pub use config::{
    basis_fits, check_ranks, check_width, EngineMode, RankError, SimConfig, TranspileMode,
    MAX_DENSE_QUBITS, MAX_RANKS, PASS_LOCAL_QUBITS,
};
pub use executor::{
    comm_avoid_plan, EngineError, EngineExecutor, EngineRun, EngineState, LocalExecutor,
    ModelExecutor, SampledRun, ThreadClusterExecutor,
};
pub use profile::{ClassProfile, ProfiledRun};
