//! Table 1 — time and energy per gate in the Hadamard benchmark on
//! qubits 29–32, blocking vs non-blocking MPI.
//!
//! Setting (§3.2): 38-qubit register, 64 standard nodes, 50 Hadamard
//! gates per target qubit. Paper values: ≈ 0.5 s / 15 kJ per gate up to
//! qubit 29; rising through the NUMA tiers at 30–31; jumping twenty-fold
//! to 9.63 s / 191 kJ (blocking) and 8.82 s / 179 kJ (non-blocking) at
//! qubit 32 — the first global qubit.

use qse_repro::{model_point, save_points, ModelPoint};
use qse_circuit::benchmarks::hadamard_benchmark;
use qse_core::experiment::TextTable;
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::format_energy;

const N_QUBITS: u32 = 38;
const N_NODES: u64 = 64;
const GATES: usize = 50;

fn main() {
    let machine = archer2();
    let mut table = TextTable::new(vec![
        "Qubit", "Blk time", "Blk energy", "NB time", "NB energy",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    // The paper sweeps 0–37 and prints 29–32; we print the same window
    // but record the full sweep in the JSON.
    for q in 0..N_QUBITS {
        let circuit = hadamard_benchmark(N_QUBITS, q, GATES);
        let blocking = model_point(
            &machine,
            format!("blocking-q{q}"),
            &circuit,
            &SimConfig::default_for(N_NODES),
        );
        let nonblocking = model_point(
            &machine,
            format!("nonblocking-q{q}"),
            &circuit,
            &SimConfig::fast_for(N_NODES),
        );
        if (29..=32).contains(&q) {
            table.row(vec![
                q.to_string(),
                format!("{:.2} s", blocking.runtime_s / GATES as f64),
                format_energy(blocking.energy_j / GATES as f64),
                format!("{:.2} s", nonblocking.runtime_s / GATES as f64),
                format_energy(nonblocking.energy_j / GATES as f64),
            ]);
        }
        points.push(blocking);
        points.push(nonblocking);
    }

    println!("Table 1 — per-gate time/energy, Hadamard benchmark, qubits 29-32");
    println!("(38 qubits, 64 standard nodes, 50 gates per run; per-gate values)");
    println!("{}", table.render());
    println!("Paper: 0.5 s/15 kJ flat to qubit 29; NUMA bumps at 30-31;");
    println!("9.63 s/191 kJ blocking vs 8.82 s/179 kJ non-blocking at qubit 32.");
    save_points("table1_hadamard", &points);
}
