//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index), printing a publication-shaped
//! text table and writing a JSON twin under `results/`.

// Source rule R5 (DESIGN §8).
#![cfg_attr(not(test), deny(unsafe_code, clippy::undocumented_unsafe_blocks))]

use qse_circuit::Circuit;
use qse_core::experiment::{results_dir, write_json};
use qse_core::{ModelExecutor, SimConfig};
use qse_machine::archer2::Machine;
use qse_machine::perf::RunEstimate;
use qse_util::json::{Json, ToJson};

/// One modelled data point, as serialised for EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct ModelPoint {
    /// Series label (e.g. "standard-medium", "built-in", "blocking").
    pub series: String,
    /// Register width.
    pub n_qubits: u32,
    /// Nodes used.
    pub n_nodes: u64,
    /// Modelled wall-clock, seconds.
    pub runtime_s: f64,
    /// Modelled total energy (nodes + switches), joules.
    pub energy_j: f64,
    /// CU charge.
    pub cu: f64,
    /// Fraction of runtime in communication.
    pub comm_fraction: f64,
    /// Fraction in memory sweeps.
    pub memory_fraction: f64,
    /// Fraction in compute.
    pub compute_fraction: f64,
}

impl ModelPoint {
    /// Builds a point from an estimate.
    pub fn from_estimate(series: impl Into<String>, est: &RunEstimate) -> Self {
        ModelPoint {
            series: series.into(),
            n_qubits: est.n_qubits,
            n_nodes: est.n_nodes,
            runtime_s: est.runtime_s,
            energy_j: est.total_energy_j(),
            cu: est.cu,
            comm_fraction: est.comm_fraction(),
            memory_fraction: est.memory_fraction(),
            compute_fraction: est.compute_fraction(),
        }
    }
}

impl ToJson for ModelPoint {
    fn to_json(&self) -> Json {
        Json::object([
            ("series", self.series.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("n_nodes", self.n_nodes.to_json()),
            ("runtime_s", self.runtime_s.to_json()),
            ("energy_j", self.energy_j.to_json()),
            ("cu", self.cu.to_json()),
            ("comm_fraction", self.comm_fraction.to_json()),
            ("memory_fraction", self.memory_fraction.to_json()),
            ("compute_fraction", self.compute_fraction.to_json()),
        ])
    }
}

/// Runs the model and wraps the result as a point.
pub fn model_point(
    machine: &Machine,
    series: impl Into<String>,
    circuit: &Circuit,
    config: &SimConfig,
) -> ModelPoint {
    let est = ModelExecutor::new(machine).run(circuit, config);
    ModelPoint::from_estimate(series, &est)
}

/// Writes the figure's JSON record under `results/<name>.json`.
pub fn save_points(name: &str, points: &[ModelPoint]) {
    let path = results_dir().join(format!("{name}.json"));
    write_json(&path, &points).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\n[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::qft::qft;
    use qse_machine::archer2;

    #[test]
    fn model_point_captures_estimate_fields() {
        let m = archer2();
        let p = model_point(&m, "test", &qft(34), &SimConfig::default_for(4));
        assert_eq!(p.series, "test");
        assert_eq!(p.n_qubits, 34);
        assert_eq!(p.n_nodes, 4);
        assert!(p.runtime_s > 0.0);
        assert!(p.energy_j > 0.0);
        let frac_sum = p.comm_fraction + p.memory_fraction + p.compute_fraction;
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}
