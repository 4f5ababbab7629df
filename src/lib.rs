//! # qse — Quantum Statevector Energy
//!
//! A from-scratch Rust reproduction of *Energy Efficiency of Quantum
//! Statevector Simulation at Scale* (Adamski, Richings, Brown — SC-W
//! 2023): a QuEST-style distributed statevector simulator, a thread-rank
//! message-passing substrate, a cache-blocking circuit transpiler, and a
//! calibrated ARCHER2 performance/energy model that regenerates every
//! table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use qse::circuit::qft::qft;
//! use qse::core::{LocalExecutor, ModelExecutor, SimConfig};
//! use qse::machine::archer2;
//!
//! // Exact simulation of a 10-qubit QFT (single address space):
//! let state = LocalExecutor::run(&qft(10));
//! assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
//!
//! // Modelled runtime/energy of the 38-qubit QFT on 64 ARCHER2 nodes:
//! let machine = archer2();
//! let estimate = ModelExecutor::new(&machine).run(&qft(38), &SimConfig::default_for(64));
//! assert!(estimate.runtime_s > 0.0);
//! ```
//!
//! The crates compose bottom-up; see `DESIGN.md` for the full map:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`math`] | `qse-math` | complex numbers, bit-index algebra |
//! | [`comm`] | `qse-comm` | thread-rank message passing ("virtual MPI"), fail-stop on any rank's error |
//! | [`circuit`] | `qse-circuit` | IR, QFT builders, locality classes, transpiler |
//! | [`statevec`] | `qse-statevec` | local + distributed statevector engine |
//! | [`machine`] | `qse-machine` | calibrated ARCHER2 time/energy model |
//! | [`core`] | `qse-core` | executors, profiling, experiment harness |
//! | [`util`] | `qse-util` | std-only PRNG, JSON, thread pool, channels |
//! | [`check`] | `qse-check` | static plan verifier |
//!
//! The workspace is hermetic: every dependency is an in-tree path crate,
//! so a cold-cache `cargo build --offline` succeeds with no registry
//! access.

// Source rule R5 (DESIGN §8).
#![cfg_attr(not(test), deny(unsafe_code, clippy::undocumented_unsafe_blocks))]

pub use qse_check as check;
pub use qse_circuit as circuit;
pub use qse_comm as comm;
pub use qse_core as core;
pub use qse_machine as machine;
pub use qse_math as math;
pub use qse_statevec as statevec;
pub use qse_util as util;

/// Convenience re-exports covering the typical session.
pub mod prelude {
    pub use qse_circuit::algorithms::{bernstein_vazirani, ghz, grover, qpe};
    pub use qse_circuit::benchmarks::{hadamard_benchmark, swap_benchmark};
    pub use qse_circuit::classify::{classify, GateClass, Layout};
    pub use qse_circuit::lower::{circuit_traffic, GateTraffic};
    pub use qse_circuit::qft::{cache_blocked_qft, default_split, inverse_qft, qft};
    pub use qse_circuit::transpile::cache_blocking::cache_block;
    pub use qse_circuit::{Circuit, Gate};
    pub use qse_comm::chunking::ExchangeMode;
    pub use qse_comm::Universe;
    pub use qse_core::{
        LocalExecutor, ModelExecutor, SimConfig, ThreadClusterExecutor, TranspileMode,
    };
    pub use qse_machine::{archer2, CpuFrequency, ModelConfig, NodeKind};
    pub use qse_math::Complex64;
    pub use qse_statevec::{DistConfig, DistributedState, SingleState};
}
