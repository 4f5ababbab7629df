//! Figure 5 — runtime profiles of the Hadamard worst case and the two
//! QFT variants.
//!
//! "In the Hadamard benchmark MPI completely dominates the runtime. The
//! QFT gates are mostly local, so communication only takes up to 43 % of
//! runtime, and the rest is split roughly 2:1 between memory access and
//! computation. By applying our optimisation, we managed to reduce
//! communication to 25 %." (§3.2)
//!
//! The binary prints the modelled profile at paper scale and, as a
//! cross-check, a *measured* profile from the thread-cluster engine at
//! laptop scale (distributed-gate share of wall-clock).

use qse_circuit::benchmarks::hadamard_benchmark;
use qse_circuit::qft::{cache_blocked_qft, qft};
use qse_core::experiment::TextTable;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_machine::archer2;
use qse_repro::{model_point, save_points, ModelPoint};

const N_QUBITS: u32 = 38;
const N_NODES: u64 = 64;

fn main() {
    let machine = archer2();
    let runs = [
        (
            "hadamard-worst",
            hadamard_benchmark(N_QUBITS, N_QUBITS - 1, 50),
        ),
        ("qft-built-in", qft(N_QUBITS)),
        ("qft-cache-blocked", cache_blocked_qft(N_QUBITS, 30)),
    ];

    let mut table = TextTable::new(vec!["Run", "MPI %", "Memory %", "Compute %", "Runtime"]);
    let mut points: Vec<ModelPoint> = Vec::new();
    for (label, circuit) in &runs {
        let cfg = if *label == "qft-cache-blocked" {
            SimConfig::fast_for(N_NODES)
        } else {
            SimConfig::default_for(N_NODES)
        };
        let p = model_point(&machine, *label, circuit, &cfg);
        table.row(vec![
            label.to_string(),
            format!("{:.0} %", p.comm_fraction * 100.0),
            format!("{:.0} %", p.memory_fraction * 100.0),
            format!("{:.0} %", p.compute_fraction * 100.0),
            format!("{:.0} s", p.runtime_s),
        ]);
        points.push(p);
    }

    println!("Figure 5 — modelled profiles at paper scale (38 q, 64 nodes)");
    println!("{}", table.render());
    println!("Paper: Hadamard ~all MPI; built-in QFT ≈ 43 % MPI, rest 2:1");
    println!("memory:compute; cache-blocked QFT ≈ 25 % MPI.\n");

    // Measured cross-check on the thread cluster (16 qubits, 8 ranks):
    // the distributed-gate share of wall-clock is the measured "MPI" bar.
    let mut measured = TextTable::new(vec!["Run", "Distributed-gate share", "Wall"]);
    for (label, builder) in [
        ("hadamard-worst", hadamard_benchmark(16, 15, 20)),
        ("qft-built-in", qft(16)),
        ("qft-cache-blocked", cache_blocked_qft(16, 11)),
    ] {
        let run = ThreadClusterExecutor::run(&builder, &SimConfig::default_for(8), 0, false);
        measured.row(vec![
            label.to_string(),
            format!(
                "{:.0} %",
                run.profiled.profile.distributed_fraction() * 100.0
            ),
            format!("{:.3} s", run.profiled.wall_s),
        ]);
    }
    println!("Measured cross-check — thread cluster (16 q, 8 ranks)");
    println!("{}", measured.render());
    println!("Expected ordering matches the figure: hadamard ≫ built-in > blocked.");
    save_points("fig5_profiles", &points);
}
