//! Cache-blocking walkthrough — the paper's headline optimisation.
//!
//! Shows (a) the fig 1b QFT construction, (b) the general transpiler on
//! an arbitrary circuit, and (c) the measured communication savings on
//! the thread cluster.
//!
//! ```sh
//! cargo run --release --example cache_blocking
//! ```

use qse::circuit::transpile::cache_blocking::cache_block;
use qse::prelude::*;

fn main() {
    let n = 16u32;
    let ranks = 8u64;
    let layout = Layout::new(n, ranks);
    println!(
        "{n}-qubit register over {ranks} ranks: qubits 0..{} local, {}..{} global\n",
        layout.local_qubits() - 1,
        layout.local_qubits(),
        n - 1
    );

    // (a) The QFT-specific construction of fig 1b.
    let built_in = qft(n);
    let split = default_split(n, layout.local_qubits());
    let blocked = cache_blocked_qft(n, split);
    let (d1, b1) = summary(&built_in, &layout, false);
    let (d2, b2) = summary(&blocked, &layout, false);
    println!("built-in QFT:      {d1} distributed gates");
    println!("cache-blocked QFT: {d2} distributed gates, split after H #{split}");
    println!(
        "exchange volume per rank: {b1} -> {b2} bytes ({}x), half-exchange swaps -> {} bytes\n",
        b1 / b2.max(1),
        summary(&blocked, &layout, true).1,
    );

    // (b) The general pass on an arbitrary circuit: 30 Hadamards on a
    // global qubit cost one SWAP instead of 30 exchanges.
    let mut hot_global = Circuit::new(n);
    for _ in 0..30 {
        hot_global.h(n - 1);
    }
    let transpiled = cache_block(&hot_global, layout.local_qubits());
    println!(
        "general pass on 30x H(q{}): {} -> {} distributed gates (final layout {:?})\n",
        n - 1,
        summary(&hot_global, &layout, false).0,
        summary(&transpiled.circuit, &layout, false).0,
        (0..n)
            .map(|q| transpiled.layout.apply(q))
            .collect::<Vec<_>>()
    );

    // (c) Measure it for real on the thread cluster.
    let cfg = SimConfig::fast_for(ranks);
    let run_a = ThreadClusterExecutor::run(&built_in, &cfg, 0, false);
    let run_b = ThreadClusterExecutor::run(&blocked, &cfg, 0, false);
    println!(
        "measured bytes over the wire: built-in {} vs cache-blocked {} ({:.1}x less)",
        run_a.profiled.bytes_sent,
        run_b.profiled.bytes_sent,
        run_a.profiled.bytes_sent as f64 / run_b.profiled.bytes_sent as f64
    );
    println!(
        "measured wall-clock: {:.3} s vs {:.3} s",
        run_a.profiled.wall_s, run_b.profiled.wall_s
    );
}

/// Distributed gates of `circuit`, and the bytes one participating rank
/// sends running them, from the engine's own lowering.
fn summary(circuit: &Circuit, layout: &Layout, half_exchange_swaps: bool) -> (usize, u64) {
    let traffic = circuit_traffic(circuit, layout, half_exchange_swaps).expect("lowerable");
    let distributed = traffic
        .iter()
        .filter(|t| t.lowering.class == GateClass::Distributed);
    (
        distributed.count(),
        traffic.iter().map(GateTraffic::rank_bytes).sum(),
    )
}
