//! Ablation — diagonal-gate fusion (QuEST's efficient controlled-phase
//! application, and this repository's generalisation of it).
//!
//! QuEST applies each controlled phase as a partial sweep touching only
//! the affected quarter of the statevector. Fusing a *run* of diagonal
//! gates into one full sweep wins once the run is long enough (a full
//! sweep costs four quarter-sweeps). The QFT's phase blocks shrink from
//! n−1 gates to 1 across the circuit, so the fusion threshold matters:
//! this ablation sweeps it.

use qse_circuit::qft::qft;
use qse_core::experiment::TextTable;
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::format_energy;
use qse_repro::{model_point, save_points, ModelPoint};

fn main() {
    let machine = archer2();
    let n = 38u32;
    let nodes = 64u64;
    let circuit = qft(n);

    let mut table = TextTable::new(vec!["Fusion threshold", "Runtime", "Energy"]);
    let mut points: Vec<ModelPoint> = Vec::new();

    let mut cfg = SimConfig::default_for(nodes);
    let base = model_point(&machine, "no-fusion", &circuit, &cfg);
    table.row(vec![
        "off (QuEST built-in)".to_string(),
        format!("{:.0} s", base.runtime_s),
        format_energy(base.energy_j),
    ]);
    points.push(base);

    for threshold in [2usize, 4, 8, 16, 32] {
        cfg.fuse_diagonals = Some(threshold);
        let p = model_point(&machine, format!("fuse>={threshold}"), &circuit, &cfg);
        table.row(vec![
            format!(">= {threshold} gates"),
            format!("{:.0} s", p.runtime_s),
            format_energy(p.energy_j),
        ]);
        points.push(p);
    }

    println!("Ablation — diagonal fusion threshold, 38-qubit QFT on 64 nodes");
    println!("{}", table.render());
    println!("Check: small thresholds over-fuse short runs (a full sweep costs");
    println!("4 quarter-sweeps); the optimum sits around >= 4.");
    save_points("ablation_fusion", &points);
}
