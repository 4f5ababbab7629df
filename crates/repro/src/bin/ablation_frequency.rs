//! Ablation — the full CPU-frequency sweep, including the 1.50 GHz level
//! the paper measured but omitted from its figures ("the lowest frequency
//! available on ARCHER2 (1.5 GHz) was not of benefit in either case due
//! to a large increase in runtime", §3.1).

use qse_repro::{model_point, save_points, ModelPoint};
use qse_circuit::qft::qft;
use qse_core::experiment::{fmt_delta, TextTable};
use qse_core::scaling::nodes_for;
use qse_core::SimConfig;
use qse_machine::{archer2, CpuFrequency, NodeKind};

fn main() {
    let machine = archer2();
    let mut table = TextTable::new(vec![
        "Qubits", "Freq", "Runtime Δ", "Energy Δ",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for n in [36u32, 38, 40, 42, 44] {
        let nodes = nodes_for(&machine, NodeKind::Standard, n).expect("fits");
        let circuit = qft(n);
        let baseline = model_point(
            &machine,
            format!("medium-{n}"),
            &circuit,
            &SimConfig::default_for(nodes),
        );
        for freq in CpuFrequency::all() {
            let mut cfg = SimConfig::default_for(nodes);
            cfg.frequency = freq;
            let p = model_point(&machine, format!("{}-{n}", freq.label()), &circuit, &cfg);
            table.row(vec![
                n.to_string(),
                freq.label().to_string(),
                fmt_delta(p.runtime_s / baseline.runtime_s),
                fmt_delta(p.energy_j / baseline.energy_j),
            ]);
            points.push(p);
        }
    }

    println!("Ablation — CPU frequency sweep (QFT, minimum standard nodes)");
    println!("{}", table.render());
    println!("Check (§3.1/§4): 2.25 GHz ≈ -4..-8 % runtime at +20..30 % energy;");
    println!("1.50 GHz ≈ +10 % runtime at roughly flat energy — no benefit.");
    save_points("ablation_frequency", &points);
}
