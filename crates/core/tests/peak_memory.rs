//! Peak memory levels off when one thread runs the same job again and
//! again, as a serve worker or a benchmark loop does.
//!
//! One test in a binary of its own: `VmHWM` is the whole process's
//! peak, so a test running beside it would move the figures compared.

use qse_circuit::algorithms::ghz;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_statevec::measure::sample_counts_amps;
use qse_util::rng::StdRng;

/// The process's peak resident set (`VmHWM`) in KiB, where the platform
/// reports one.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Ten gathered, sampled two-rank runs of a 19-qubit register from this
/// thread. The second run has paid every one-time cost (the helper
/// thread, its malloc arena, glibc raising its mmap threshold to the
/// gathered copy's size), so from there on the peak must stay put.
/// Rank threads spawned fresh for every run instead inherit whichever
/// arena a previous run released, and the peak climbed by a whole
/// 4 MiB slice between run 2 and run 10; the bound is half of that, one
/// of the slice's two component arrays.
#[test]
fn peak_memory_levels_off_over_repeated_runs() {
    let n = 19;
    let circuit = ghz(n);
    let cfg = SimConfig::default_for(2);
    let mut peaks = Vec::new();
    for run in 0..10u64 {
        let state = ThreadClusterExecutor::try_run(&circuit, &cfg, 0, true)
            .expect("the run succeeds")
            .state
            .expect("gathered");
        let mut rng = StdRng::seed_from_u64(run);
        let counts = sample_counts_amps(&state, &mut rng, 100).expect("sampled");
        assert_eq!(counts.values().sum::<usize>(), 100);
        drop(state);
        match peak_rss_kib() {
            Some(kib) => peaks.push(kib),
            None => return,
        }
    }
    let slice_kib = (16u64 << n) / 2 / 1024;
    let growth = peaks[9].saturating_sub(peaks[1]);
    assert!(
        growth <= slice_kib / 2,
        "peak grew {growth} KiB from run 2 to run 10 (slice {slice_kib} KiB): {peaks:?}"
    );
}
