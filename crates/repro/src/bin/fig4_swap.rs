//! Figure 4 — energy consumption of the SWAP benchmark.
//!
//! Setting (§3.2): 50 SWAP gates between each of 5 local targets
//! {0, 4, 8, 12, 16} and 3 distributed targets {35, 36, 37}, on 64
//! standard nodes with a 38-qubit register. Paper values per gate:
//! 9.0–9.75 s and 180–195 kJ blocking; 8.25–9.0 s and 160–180 kJ
//! non-blocking.

use qse_circuit::benchmarks::{paper_swap_targets, swap_benchmark, swap_benchmark_grid};
use qse_core::experiment::TextTable;
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::format_energy;
use qse_repro::{model_point, save_points, ModelPoint};

const N_QUBITS: u32 = 38;
const N_NODES: u64 = 64;
const GATES: usize = 50;

fn main() {
    let machine = archer2();
    let (locals, globals) = paper_swap_targets();
    let mut table = TextTable::new(vec![
        "Targets",
        "Blk time",
        "Blk energy",
        "NB time",
        "NB energy",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for (l, g) in swap_benchmark_grid(&locals, &globals) {
        let circuit = swap_benchmark(N_QUBITS, l, g, GATES);
        let blocking = model_point(
            &machine,
            format!("blocking-{l}-{g}"),
            &circuit,
            &SimConfig::default_for(N_NODES),
        );
        let nonblocking = model_point(
            &machine,
            format!("nonblocking-{l}-{g}"),
            &circuit,
            &SimConfig::fast_for(N_NODES),
        );
        table.row(vec![
            format!("({l},{g})"),
            format!("{:.2} s", blocking.runtime_s / GATES as f64),
            format_energy(blocking.energy_j / GATES as f64),
            format!("{:.2} s", nonblocking.runtime_s / GATES as f64),
            format_energy(nonblocking.energy_j / GATES as f64),
        ]);
        points.push(blocking);
        points.push(nonblocking);
    }

    println!("Figure 4 — SWAP benchmark per-gate time/energy (modelled)");
    println!("(38 qubits, 64 standard nodes, 50 SWAPs per pair)");
    println!("{}", table.render());
    println!("Paper bands: blocking 9.0-9.75 s / 180-195 kJ; non-blocking");
    println!("8.25-9.0 s / 160-180 kJ per gate.");
    save_points("fig4_swap", &points);
}
