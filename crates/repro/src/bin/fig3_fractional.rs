//! Figure 3 — fractional runtime and energy of each setup against the
//! ARCHER2 default (standard nodes, medium frequency).
//!
//! Expected shape (§3.1): standard-high is consistently 5–10 % faster but
//! ≈ 25 % more energy; high-memory setups drastically increase runtime;
//! high frequency on high-memory needs 20–40 % more energy.

use qse_repro::{model_point, save_points, ModelPoint};
use qse_circuit::qft::qft;
use qse_core::experiment::{fmt_delta, TextTable};
use qse_core::scaling::nodes_for;
use qse_core::SimConfig;
use qse_machine::{archer2, CpuFrequency, NodeKind};

fn main() {
    let machine = archer2();
    let mut runtime_table = TextTable::new(vec![
        "Qubits", "std-high", "hm-med", "hm-high",
    ]);
    let mut energy_table = TextTable::new(vec![
        "Qubits", "std-high", "hm-med", "hm-high",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for n in 33..=44u32 {
        let circuit = qft(n);
        let std_nodes = nodes_for(&machine, NodeKind::Standard, n).expect("fits standard");
        let baseline = model_point(
            &machine,
            "standard-medium",
            &circuit,
            &SimConfig::default_for(std_nodes),
        );
        points.push(baseline.clone());

        let mut rt_cells = vec![n.to_string()];
        let mut en_cells = vec![n.to_string()];
        for (label, kind, freq) in [
            ("standard-high", NodeKind::Standard, CpuFrequency::High),
            ("highmem-medium", NodeKind::HighMem, CpuFrequency::Medium),
            ("highmem-high", NodeKind::HighMem, CpuFrequency::High),
        ] {
            match nodes_for(&machine, kind, n) {
                Some(nodes) => {
                    let mut cfg = SimConfig::default_for(nodes);
                    cfg.node_kind = kind;
                    cfg.frequency = freq;
                    let p = model_point(&machine, label, &circuit, &cfg);
                    rt_cells.push(fmt_delta(p.runtime_s / baseline.runtime_s));
                    en_cells.push(fmt_delta(p.energy_j / baseline.energy_j));
                    points.push(p);
                }
                None => {
                    rt_cells.push("-".into());
                    en_cells.push("-".into());
                }
            }
        }
        runtime_table.row(rt_cells);
        energy_table.row(en_cells);
    }

    println!("Figure 3 — runtime relative to the standard-medium default");
    println!("{}", runtime_table.render());
    println!("Figure 3 — energy relative to the standard-medium default");
    println!("{}", energy_table.render());
    println!("Check: standard-high ≈ -4..-8 % runtime at ≈ +20..30 % energy;");
    println!("high-memory runtimes rise steeply (<2x), with mixed energy.");
    save_points("fig3_fractional", &points);
}
