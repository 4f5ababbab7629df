//! Figure 2 — runtimes of QFT circuit simulations by register size.
//!
//! "We ran a QFT circuit at register sizes from 33 to 44 qubits, using
//! the minimum possible number of nodes to fit the statevector" (§3),
//! across four setups: standard/high-memory nodes × medium/high CPU
//! frequency. Expected shape (paper §3.1): runtimes scale linearly with
//! register size (distributed gates rise linearly even though total
//! gates rise quadratically); high-memory nodes are slower but less than
//! twice as slow; high frequency is 5–10 % faster.

use qse_repro::{model_point, save_points, ModelPoint};
use qse_circuit::qft::qft;
use qse_core::experiment::{fmt_seconds, TextTable};
use qse_core::scaling::nodes_for;
use qse_core::SimConfig;
use qse_machine::{archer2, CpuFrequency, NodeKind};

fn main() {
    let machine = archer2();
    let setups = [
        ("standard-medium", NodeKind::Standard, CpuFrequency::Medium),
        ("standard-high", NodeKind::Standard, CpuFrequency::High),
        ("highmem-medium", NodeKind::HighMem, CpuFrequency::Medium),
        ("highmem-high", NodeKind::HighMem, CpuFrequency::High),
    ];

    let mut table = TextTable::new(vec![
        "Qubits", "Nodes(std)", "std-med", "std-high", "Nodes(hm)", "hm-med", "hm-high",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for n in 33..=44u32 {
        let circuit = qft(n);
        let mut cells = vec![n.to_string()];
        for kind in [NodeKind::Standard, NodeKind::HighMem] {
            match nodes_for(&machine, kind, n) {
                Some(nodes) => {
                    cells.push(nodes.to_string());
                    for (label, k, freq) in setups.iter().filter(|(_, k, _)| *k == kind) {
                        let mut cfg = SimConfig::default_for(nodes);
                        cfg.node_kind = *k;
                        cfg.frequency = *freq;
                        let p = model_point(&machine, *label, &circuit, &cfg);
                        cells.push(fmt_seconds(p.runtime_s));
                        points.push(p);
                    }
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        table.row(cells);
    }

    println!("Figure 2 — QFT runtime by register size (modelled ARCHER2)");
    println!("{}", table.render());
    println!("Check: multi-node runtimes grow linearly with register size (node count");
    println!("doubles per qubit, so per-node work is flat and distributed gates +2);");
    println!("high-memory < 2x slower than standard at equal qubits; the 33-qubit");
    println!("standard and 34-qubit high-memory points are single-node runs.");
    save_points("fig2_qft_runtimes", &points);
}
