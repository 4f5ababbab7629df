//! Extension A (paper §4, future work) — the half-exchange SWAP.
//!
//! "If SWAP gates are the only distributed operations, communication
//! could potentially be halved, as swapping only modifies half of the
//! statevector. With this improvement, ARCHER2 could possibly simulate
//! up to 45 qubits."
//!
//! This binary demonstrates both halves of the claim on the model:
//! (1) the communication halving on the cache-blocked 44-qubit QFT, and
//! (2) the capacity win — 45 qubits fitting on 4,096 standard nodes once
//! the exchange buffer shrinks to half the local slice.

use qse_circuit::qft::{cache_blocked_qft, default_split};
use qse_core::experiment::TextTable;
use qse_core::scaling::{nodes_for, nodes_for_half_buffers};
use qse_core::SimConfig;
use qse_machine::archer2;
use qse_machine::energy::format_energy;
use qse_machine::NodeKind;
use qse_repro::{save_points, ModelPoint};

fn main() {
    let machine = archer2();
    let mut table = TextTable::new(vec![
        "Qubits",
        "Nodes",
        "Variant",
        "Runtime",
        "Energy",
        "Comm bytes/rank",
    ]);
    let mut points: Vec<ModelPoint> = Vec::new();

    // (1) Communication halving at 44 qubits.
    let n = 44u32;
    let nodes = nodes_for(&machine, NodeKind::Standard, n).expect("44 fits");
    let local = n - nodes.trailing_zeros();
    let circuit = cache_blocked_qft(n, default_split(n, local));
    for (variant, half) in [
        ("fast (full exchange)", false),
        ("fast + half exchange", true),
    ] {
        let mut cfg = SimConfig::fast_for(nodes);
        cfg.half_exchange_swaps = half;
        let est = qse_core::ModelExecutor::new(&machine).run(&circuit, &cfg);
        table.row(vec![
            n.to_string(),
            nodes.to_string(),
            variant.to_string(),
            format!("{:.0} s", est.runtime_s),
            format_energy(est.total_energy_j()),
            format!("{:.1} GB", est.breakdown.comm_bytes as f64 / 1e9),
        ]);
        points.push(ModelPoint::from_estimate(variant, &est));
    }

    // (2) Capacity: 45 qubits only fit with half buffers.
    println!("Extension A — half-exchange SWAPs (paper §4 future work)\n");
    println!(
        "45-qubit fit, full buffers: {:?}",
        nodes_for(&machine, NodeKind::Standard, 45)
    );
    println!(
        "45-qubit fit, half buffers: {:?}",
        nodes_for_half_buffers(&machine, NodeKind::Standard, 45)
    );

    let n45 = 45u32;
    if let Some(nodes45) = nodes_for_half_buffers(&machine, NodeKind::Standard, n45) {
        let local45 = n45 - nodes45.trailing_zeros();
        let c45 = cache_blocked_qft(n45, default_split(n45, local45));
        let mut cfg = SimConfig::fast_for(nodes45);
        cfg.half_exchange_swaps = true;
        let est = qse_core::ModelExecutor::new(&machine).run(&c45, &cfg);
        table.row(vec![
            n45.to_string(),
            nodes45.to_string(),
            "fast + half exchange".into(),
            format!("{:.0} s", est.runtime_s),
            format_energy(est.total_energy_j()),
            format!("{:.1} GB", est.breakdown.comm_bytes as f64 / 1e9),
        ]);
        points.push(ModelPoint::from_estimate("45q-half-exchange", &est));
    }

    println!("\n{}", table.render());
    println!("Check: comm bytes halve at 44 q; 45 q becomes feasible on 4,096 nodes.");
    save_points("ext_45_qubits", &points);
}
