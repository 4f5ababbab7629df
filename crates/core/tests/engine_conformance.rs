//! Cross-engine conformance: the dense, sparse and stabilizer engines
//! must be indistinguishable on their overlapping domains, and engine
//! auto-selection must never change results — only cost.
//!
//! Three pillars, together covering 60+ seeded cases:
//!
//! 1. **Histogram equality** — 30 seeded Clifford circuits (n ∈
//!    {4, 8, 12}) sampled at 10 000 fixed-seed shots return *bitwise
//!    identical* histograms from all three engines. All engines follow
//!    the same inclusive-prefix-sum CDF contract, so equal states mean
//!    equal draws, not merely statistically close ones.
//! 2. **Amplitude agreement** — the sparse engine matches every dense
//!    configuration (one address space, thread clusters at R ∈
//!    {1, 2, 4}) to ≤ 1e-9 on generic random circuits.
//! 3. **Auto-invariance** — a property loop over circuits that auto
//!    routes to each of the three engines, proving `--engine auto`
//!    returns exactly what `--engine dense` returns, read out through
//!    `EngineExecutor::run_sampled`, the serve path.

use qse_circuit::classify::EngineChoice;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_core::{EngineExecutor, EngineMode, SampledRun, SimConfig, ThreadClusterExecutor};
use qse_math::approx::assert_slices_close;
use qse_statevec::measure::sample_counts_amps;
use qse_statevec::{SingleState, SparseState};
use qse_util::cdf::Shots;
use qse_util::rng::{Rng, StdRng};
use std::collections::BTreeMap;

fn engine_cfg(mode: EngineMode) -> SimConfig {
    let mut cfg = SimConfig::default_for(1);
    cfg.engine = mode;
    cfg
}

fn dense_histogram(c: &Circuit, seed: u64, shots: usize) -> BTreeMap<u64, usize> {
    let amps = SingleState::simulate(c).to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    sample_counts_amps(&amps, &mut rng, shots).expect("dense sampling")
}

// ---------------------------------------------------------------------
// 1. Fixed-seed histogram equality, 30 Clifford circuits
// ---------------------------------------------------------------------

/// Dense, sparse and stabilizer draw *the same* 10k-shot histogram for
/// the same seed on 30 seeded Clifford circuits — not statistically
/// compatible, bitwise equal (the PR-6 histogram pattern, now held
/// across engines).
#[test]
fn clifford_histograms_are_bitwise_identical_across_engines() {
    const SHOTS: usize = 10_000;
    for n in [4u32, 8, 12] {
        for seed in 0..10u64 {
            let c = random_circuit(n, 60, GatePool::Clifford, 1000 * u64::from(n) + seed);
            let shot_seed = 77 * seed + u64::from(n);
            let dense = dense_histogram(&c, shot_seed, SHOTS);

            let sparse_state = SparseState::simulate(&c);
            let mut rng = StdRng::seed_from_u64(shot_seed);
            let sparse = sparse_state
                .sample_counts(&mut rng, SHOTS)
                .expect("sparse sampling");

            let tableau = qse_stabilizer::Tableau::run(&c).expect("Clifford circuit");
            let mut rng = StdRng::seed_from_u64(shot_seed);
            let stab = tableau
                .sample_counts(&mut rng, SHOTS)
                .expect("stabilizer sampling");

            assert_eq!(
                dense, sparse,
                "n={n} seed={seed}: sparse histogram diverged"
            );
            assert_eq!(
                dense, stab,
                "n={n} seed={seed}: stabilizer histogram diverged"
            );
            assert_eq!(dense.values().sum::<usize>(), SHOTS);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Sparse vs every dense configuration, ≤ 1e-9
// ---------------------------------------------------------------------

/// The sparse engine agrees with the dense engine to ≤ 1e-9 in one
/// address space and distributed over R ∈ {1, 2, 4} — 8 seeded generic
/// circuits × 4 dense configurations.
#[test]
fn sparse_matches_dense_across_rank_counts() {
    for seed in 0..8u64 {
        let n = 7;
        let c = random_circuit(n, 70, GatePool::Full, 500 + seed);
        let sparse = SparseState::simulate(&c).to_vec();

        let single = SingleState::simulate(&c).to_vec();
        assert_slices_close(&sparse, &single, 1e-9);

        for ranks in [1u64, 2, 4] {
            let run = ThreadClusterExecutor::try_run(&c, &SimConfig::default_for(ranks), 0, true)
                .expect("cluster run");
            assert_slices_close(&sparse, &run.state.expect("gathered"), 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// 3. Auto-selection never changes results
// ---------------------------------------------------------------------

/// `c` prepared and run under `mode`, read out with 2000 shots from
/// `shot_seed` (and a request of none).
fn sampled(c: &Circuit, mode: EngineMode, shot_seed: u64) -> SampledRun {
    let cfg = engine_cfg(mode);
    let plan = EngineExecutor::prepare(c, &cfg).expect("admitted");
    let shots = [
        Shots {
            seed: shot_seed,
            count: 2000,
        },
        Shots {
            seed: shot_seed,
            count: 0,
        },
    ];
    EngineExecutor::run_sampled(c, &cfg, 0, plan.as_ref(), &shots).expect("run")
}

/// One auto-vs-dense comparison: both runs must produce the identical
/// fixed-seed histogram, and auto must have resolved to `expect`.
fn assert_auto_invariant(c: &Circuit, expect: EngineChoice, shot_seed: u64) {
    let auto = sampled(c, EngineMode::Auto, shot_seed);
    assert_eq!(auto.engine, expect, "auto resolved unexpectedly");
    let dense = sampled(c, EngineMode::Dense, shot_seed);
    let counts = auto.counts.expect("auto sampling");
    assert_eq!(counts[0].values().sum::<usize>(), 2000);
    assert!(counts[1].is_empty(), "a request of no shots draws none");
    assert_eq!(
        Ok(counts),
        dense.counts,
        "auto changed the measured distribution"
    );
}

/// `--engine auto` is result-invariant: 24 seeded circuits spanning all
/// three resolution targets (Clifford → stabilizer, low-branching →
/// sparse, generic → dense) return exactly the dense path's histograms.
#[test]
fn auto_selection_is_result_invariant() {
    // Clifford circuits: auto must pick the tableau.
    for seed in 0..8u64 {
        let n = 4 + 2 * (seed % 3) as u32; // 4, 6, 8
        let c = random_circuit(n, 40, GatePool::Clifford, 9000 + seed);
        assert_auto_invariant(&c, EngineChoice::Stabilizer, 11 + seed);
    }
    // GHZ spines with non-Clifford diagonal tails: Clifford-only fails,
    // but branching stays tiny — auto must pick sparse.
    for seed in 0..8u64 {
        let n = 5 + (seed % 4) as u32; // 5..8
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cnot(q - 1, q);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for q in 0..n {
            c.t(q % n);
            c.phase(q, rng.random_range(0.0..1.5));
        }
        assert_auto_invariant(&c, EngineChoice::Sparse, 29 + seed);
    }
    // Generic branching circuits: auto must stay dense.
    for seed in 0..8u64 {
        let c = random_circuit(6, 50, GatePool::Full, 3000 + seed);
        assert_auto_invariant(&c, EngineChoice::Dense, 47 + seed);
    }
}
