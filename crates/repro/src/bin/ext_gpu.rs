//! Extension B (paper §4, future work) — the multi-GPU port, as a model
//! study.
//!
//! "Finally, we will explore the impact on performance and energy usage
//! of porting QuEST to multiple GPUs." The GPU machine preset
//! (`qse_machine::variants::gpu_machine`) models A100-class nodes on the
//! same switch fabric; this binary compares the 34–38-qubit QFT across
//! CPU and GPU machines, with and without cache blocking.

use qse_repro::{model_point, save_points, ModelPoint};
use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_core::experiment::TextTable;
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::format_energy;
use qse_machine::memory::{min_nodes, BufferRegime};
use qse_machine::variants::gpu_machine;
use qse_machine::NodeKind;

fn main() {
    let cpu = archer2();
    let gpu = gpu_machine();
    let mut table = TextTable::new(vec![
        "Qubits", "Machine", "Nodes", "Variant", "Runtime", "Energy", "MPI %",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    for n in [34u32, 36, 38] {
        for (name, machine) in [("cpu", &cpu), ("gpu", &gpu)] {
            let Some(nodes) = min_nodes(n, machine.node(NodeKind::Standard), BufferRegime::Full)
            else {
                continue;
            };
            let local = n - nodes.trailing_zeros();
            for (variant, circuit, cfg) in [
                ("built-in", qft(n), SimConfig::default_for(nodes)),
                (
                    "fast",
                    cache_blocked_qft(n, default_split(n, local)),
                    SimConfig::fast_for(nodes),
                ),
            ] {
                let p = model_point(machine, format!("{name}-{variant}-{n}"), &circuit, &cfg);
                table.row(vec![
                    n.to_string(),
                    name.to_string(),
                    nodes.to_string(),
                    variant.to_string(),
                    format!("{:.1} s", p.runtime_s),
                    format_energy(p.energy_j),
                    format!("{:.0} %", p.comm_fraction * 100.0),
                ]);
                points.push(p);
            }
        }
    }

    println!("Extension B — GPU-node machine model (paper §4 future work)");
    println!("{}", table.render());
    println!("Check: GPU nodes are several times faster but communication-dominated");
    println!("(MPI share rises sharply), so cache blocking buys proportionally more —");
    println!("the regime shift Faj et al. (paper ref [4]) report for multi-GPU runs.");
    save_points("ext_gpu", &points);
}
