//! Built-in vs cache-blocked QFT end to end on the thread cluster — the
//! laptop-scale Table 2.
//!
//! The cache-blocked variant halves the number of distributed gates, so
//! its advantage grows with the cost of an exchange.

use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_util::bench::BenchGroup;
use std::hint::black_box;

const N_QUBITS: u32 = 16;
const RANKS: u64 = 4;

fn bench_qft_variants() {
    let mut group = BenchGroup::new("qft_end_to_end_16q_4ranks");
    group.sample_size(10);
    let local = N_QUBITS - 2;
    let built_in = qft(N_QUBITS);
    let blocked = cache_blocked_qft(N_QUBITS, default_split(N_QUBITS, local));

    let cfg = SimConfig::default_for(RANKS);
    group.bench("built_in_blocking", || {
        black_box(ThreadClusterExecutor::run(&built_in, &cfg, 0, false));
    });
    let cfg = SimConfig::fast_for(RANKS);
    group.bench("built_in_nonblocking", || {
        black_box(ThreadClusterExecutor::run(&built_in, &cfg, 0, false));
    });
    group.bench("cache_blocked_fast", || {
        black_box(ThreadClusterExecutor::run(&blocked, &cfg, 0, false));
    });
    group.finish();
}

fn main() {
    bench_qft_variants();
}
