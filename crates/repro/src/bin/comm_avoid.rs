//! Measured ablation — the comm-avoiding transpiler.
//!
//! Runs QFT and seeded random circuits through the thread cluster at
//! R ∈ {4, 8} with the transpiler off, greedy and beam, recording for
//! each configuration the measured amplitude payload exchanged
//! (`TrafficStats.bytes_exchanged` summed over ranks) and the
//! end-to-end wall-clock. The pass must never increase traffic, and on
//! QFT at n = 20 / R = 4 it must cut it by at least 25 % — the run
//! aborts loudly if either invariant fails. The timings land in
//! `results/bench_comm_avoid.json`, which is not committed.

use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_core::{SimConfig, ThreadClusterExecutor, TranspileMode};
use qse_util::bench::BenchGroup;
use std::hint::black_box;

const RANKS: [u64; 2] = [4, 8];
const MODES: [(&str, TranspileMode); 3] = [
    ("off", TranspileMode::Off),
    ("greedy", TranspileMode::Greedy),
    ("beam", TranspileMode::Beam),
];

fn config(ranks: u64, transpile: TranspileMode) -> SimConfig {
    let mut cfg = SimConfig::default_for(ranks);
    cfg.transpile = transpile;
    cfg
}

fn circuits(n: u32) -> Vec<(String, Circuit)> {
    vec![
        (format!("qft{n}"), qft(n)),
        (
            format!("random{n}"),
            random_circuit(n, 10 * n as usize, GatePool::Full, 7),
        ),
    ]
}

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("qubit count"))
        .unwrap_or(20);

    let mut group = BenchGroup::new("comm_avoid");
    group.sample_size(5);
    for (name, circuit) in circuits(n) {
        for ranks in RANKS {
            let mut baseline = None;
            for (mode_name, mode) in MODES {
                let cfg = config(ranks, mode);
                group.bench(format!("{name}_r{ranks}_{mode_name}"), || {
                    black_box(ThreadClusterExecutor::run(&circuit, &cfg, 0, false));
                });
                let bytes = ThreadClusterExecutor::run(&circuit, &cfg, 0, false)
                    .profiled
                    .bytes_exchanged;
                let off_bytes = *baseline.get_or_insert(bytes);
                assert!(
                    bytes <= off_bytes,
                    "{name} r{ranks} {mode_name}: transpile increased traffic \
                     ({bytes} > {off_bytes})"
                );
                let drop_pct = if off_bytes == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - bytes as f64 / off_bytes as f64)
                };
                if name.starts_with("qft") && n == 20 && ranks == 4 && mode != TranspileMode::Off {
                    assert!(
                        drop_pct >= 25.0,
                        "{mode_name} dropped only {drop_pct:.1} % on qft20 r4"
                    );
                }
                println!(
                    "{name} r{ranks} {mode_name}: {bytes} exchanged bytes \
                     ({drop_pct:.1} % below off)"
                );
            }
        }
    }
    group.finish();
}
