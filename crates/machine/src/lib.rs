//! ARCHER2-like machine model: nodes, frequency scaling, network, power,
//! energy accounting and capacity planning.
//!
//! The paper measures wall-clock time with SLURM and energy with node
//! power counters plus an analytic switch estimate
//! (`E_net = n_s · P̄_s · Δt`, §2.4). This crate substitutes for that
//! hardware: a calibrated cost model converts a circuit execution plan
//! into per-gate time and energy at full 33–44-qubit scale, which is how
//! every figure and table of the paper is regenerated (see DESIGN.md §1).
//!
//! Calibration anchors (all from the paper, encoded in [`archer2`](mod@archer2)):
//!
//! * local Hadamard on 64 nodes / 38 qubits: ≈ 0.5 s and ≈ 15 kJ per gate
//!   (Table 1, qubits ≤ 29);
//! * NUMA-penalised sweeps at the top two local qubits: 0.59 s / 0.80 s
//!   (Table 1, qubits 30–31);
//! * distributed Hadamard: 9.63 s / 191 kJ blocking, 8.82 s / 179 kJ
//!   non-blocking (Table 1, qubit 32);
//! * one switch per 8 nodes at 235 W (§2.4);
//! * 2.25 GHz ≈ 5–10 % faster and ≈ 25 % more energy than 2.00 GHz
//!   (§3.1); 1.50 GHz slower at roughly equal energy.

// Source rules R1, R2, R5 (DESIGN §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_methods,
        unsafe_code,
        clippy::undocumented_unsafe_blocks
    )
)]

pub mod archer2;
pub mod cost;
pub mod cu;
pub mod energy;
pub mod frequency;
pub mod memory;
pub mod network;
pub mod node;
pub mod perf;
pub mod power;
pub mod trace;
pub mod variants;

pub use archer2::archer2;
pub use cost::{CommMode, GateCost, ModelConfig, ModelOracle};
pub use energy::EnergyBreakdown;
pub use frequency::CpuFrequency;
pub use node::{NodeKind, NodeSpec};
pub use perf::{estimate, RunEstimate};
