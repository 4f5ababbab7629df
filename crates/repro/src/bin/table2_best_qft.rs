//! Table 2 — runtime and energy of the large QFT runs: built-in vs the
//! "Fast" configuration (cache-blocked circuit + non-blocking exchange).
//!
//! Paper values: 43 qubits / 2,048 nodes: 417 s / 294 MJ built-in vs
//! 270 s / 206 MJ fast; 44 qubits / 4,096 nodes: 476 s / 664 MJ vs
//! 285 s / 431 MJ — "35 % and 40 % improvements in runtime, along with
//! 30 % and 35 % reductions in energy" (§3.3).

use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_core::experiment::TextTable;
use qse_core::scaling::nodes_for;
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::{format_energy, joules_to_kwh};
use qse_machine::NodeKind;
use qse_repro::{model_point, save_points, ModelPoint};

fn main() {
    let machine = archer2();
    let mut table = TextTable::new(vec![
        "Qubits", "Nodes", "Variant", "Runtime", "Energy", "CU",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for n in [43u32, 44] {
        let nodes = nodes_for(&machine, NodeKind::Standard, n).expect("fits");
        let layout_local = n - (nodes.trailing_zeros());
        let built_in = model_point(
            &machine,
            format!("built-in-{n}"),
            &qft(n),
            &SimConfig::default_for(nodes),
        );
        let fast = model_point(
            &machine,
            format!("fast-{n}"),
            &cache_blocked_qft(n, default_split(n, layout_local)),
            &SimConfig::fast_for(nodes),
        );
        for (variant, p) in [("built-in", &built_in), ("fast", &fast)] {
            table.row(vec![
                n.to_string(),
                nodes.to_string(),
                variant.to_string(),
                format!("{:.0} s", p.runtime_s),
                format_energy(p.energy_j),
                format!("{:.0}", p.cu),
            ]);
        }
        let dt = 1.0 - fast.runtime_s / built_in.runtime_s;
        let de = 1.0 - fast.energy_j / built_in.energy_j;
        println!(
            "{n} qubits: fast is {:.0} % faster, {:.0} % less energy ({} saved ≈ {:.0} kWh)",
            dt * 100.0,
            de * 100.0,
            format_energy(built_in.energy_j - fast.energy_j),
            joules_to_kwh(built_in.energy_j - fast.energy_j),
        );
        points.push(built_in);
        points.push(fast);
    }

    println!("\nTable 2 — large QFT runs, built-in vs fast (modelled ARCHER2)");
    println!("{}", table.render());
    println!("Paper: 417/270 s and 294/206 MJ at 43 q; 476/285 s and 664/431 MJ at 44 q.");
    save_points("table2_best_qft", &points);
}
