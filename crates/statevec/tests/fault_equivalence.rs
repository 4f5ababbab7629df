//! The fault-equivalence property suite — the acceptance bar for the
//! deterministic fault-injection layer in `qse-comm`.
//!
//! Under **any recoverable fault plan** (every fault burst fits inside
//! the retry budget) the simulation must produce a **bit-for-bit**
//! identical statevector to the fault-free run, in all three exchange
//! modes, on QFT and random circuits, at R ∈ {2, 4, 8}. Corruption is detected by checksum and healed by the
//! pristine retransmission; transient failures are retried with
//! deterministic backoff; delay jitter only reorders chunk completions,
//! which compose over disjoint amplitude ranges. None of it may change a
//! single ULP.
//!
//! Unrecoverable plans must surface a typed [`CommError`] from
//! `DistributedState::run` on every rank — the rank's own, or the
//! fail-stop `Aborted` carrying a peer's — never a hang, never a panic.
//!
//! Every seeded check embeds its seed in the panic message, so a failure
//! is replayable with `qse run --faults seed=N` or by rerunning the
//! suite.

use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::{CommError, FaultConfig, TrafficStats, Universe};
use qse_math::Complex64;
use qse_statevec::{DistConfig, DistributedState};
use std::time::Duration;

/// Small chunks force every distributed gate through multi-chunk
/// exchanges, so corruption/retransmission and reordering hit the
/// chunked paths, not just whole-buffer messages.
const TINY_CHUNK: usize = 128;

fn dist_config(mode: ExchangeMode) -> DistConfig {
    DistConfig {
        exchange_mode: mode,
        chunk_policy: ChunkPolicy::new(TINY_CHUNK).unwrap(),
        ..DistConfig::default()
    }
}

/// Runs `circuit` over `ranks` ranks (optionally under a fault plan) and
/// returns the gathered state plus per-rank traffic stats. Only for
/// plans that must succeed — a rank error propagates out as `Err`.
fn simulate(
    circuit: &Circuit,
    ranks: usize,
    config: DistConfig,
    faults: Option<FaultConfig>,
) -> Result<(Vec<Complex64>, Vec<TrafficStats>), CommError> {
    let universe = match faults {
        Some(fc) => Universe::with_faults(ranks, fc).expect("plan must validate"),
        None => Universe::new(ranks),
    };
    let out = universe.run(|comm| -> Result<_, CommError> {
        let mut st = DistributedState::basis_state(comm, circuit.n_qubits(), 1, config);
        st.run(circuit)?;
        st.barrier();
        let stats = st.stats();
        Ok((st.gather()?, stats))
    });
    let mut state = None;
    let mut stats = Vec::new();
    for r in out {
        let (s, t) = r?;
        if let Some(s) = s {
            state = Some(s);
        }
        stats.push(t);
    }
    Ok((state.expect("rank 0 gathered"), stats))
}

/// Runs a circuit expected to *fail*: no barrier or gather after the
/// error, just each rank's `DistributedState::run` verdict in rank
/// order. A short receive deadline bounds the run even if a rank ends up
/// waiting on a peer that already erred out.
fn run_collect_errors(
    circuit: &Circuit,
    ranks: usize,
    config: DistConfig,
    faults: FaultConfig,
) -> Vec<Result<(), CommError>> {
    let universe = Universe::with_timeout_and_faults(ranks, Duration::from_secs(5), faults)
        .expect("plan must validate");
    universe.run(|comm| {
        let mut st = DistributedState::basis_state(comm, circuit.n_qubits(), 1, config);
        st.run(circuit)
    })
}

/// True for an error `want` accepts, or for the fail-stop `Aborted` a
/// peer's such error left on this rank.
fn is_or_caused_by(err: &CommError, want: impl Fn(&CommError) -> bool) -> bool {
    match err {
        CommError::Aborted { cause: Some(cause), .. } => want(cause),
        other => want(other),
    }
}

fn assert_bits_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// The per-seed recoverable plan. Delay jitter costs real poll slices
/// (25 ms each when a held message is the only traffic), so it is
/// sampled on every fifth seed rather than paid on all fifty; the other
/// seeds run the full corruption + transient-failure cocktail, which is
/// wall-clock cheap.
fn recoverable_plan(seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::recoverable(seed);
    if seed % 5 == 0 {
        cfg.max_delay_slices = 1;
    } else {
        cfg.p_delay = 0.0;
        cfg.max_delay_slices = 0;
    }
    assert!(cfg.is_recoverable());
    cfg
}

/// One seed's full check: fault-free baseline, then all three exchange
/// modes under the seeded plan, each bit-for-bit against the baseline.
fn check_seed(seed: u64, circuit: &Circuit, ranks: usize, what: &str) {
    let plan = recoverable_plan(seed);
    let (baseline, base_stats) =
        simulate(circuit, ranks, dist_config(ExchangeMode::Blocking), None)
            .unwrap_or_else(|e| panic!("seed {seed} {what}: fault-free run failed: {e}"));
    for (rank, s) in base_stats.iter().enumerate() {
        assert_eq!(s.faults_injected, 0, "seed {seed} rank {rank}: clean run injected");
        assert_eq!(s.retries, 0, "seed {seed} rank {rank}: clean run retried");
        assert_eq!(s.corruptions_detected, 0, "seed {seed} rank {rank}: clean run corrupted");
    }
    let mut injected_total = 0u64;
    for mode in [
        ExchangeMode::Blocking,
        ExchangeMode::NonBlocking,
        ExchangeMode::Streamed,
    ] {
        let (state, stats) = simulate(circuit, ranks, dist_config(mode), Some(plan))
            .unwrap_or_else(|e| {
                panic!("seed {seed} {what} mode {mode:?}: recoverable plan errored: {e}")
            });
        assert_bits_equal(&state, &baseline, &format!("seed {seed} {what} mode {mode:?}"));
        injected_total += stats.iter().map(|s| s.faults_injected).sum::<u64>();
    }
    assert!(injected_total > 0, "seed {seed} {what}: plan never injected a fault");
}

/// Runs one bucket of the 50-seed campaign. Seeds rotate rank count and
/// circuit family, so every combination in the acceptance matrix is
/// exercised across the full sweep.
fn run_seed_bucket(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let ranks = [2usize, 4, 8][(seed % 3) as usize];
        let circuit = if seed % 4 < 2 {
            qft(7)
        } else {
            random_circuit(7, 40, GatePool::Full, seed)
        };
        check_seed(seed, &circuit, ranks, &format!("R={ranks}"));
    }
}

// The 50-seed campaign, split into buckets so the harness runs them in
// parallel. Together: 50 recoverable plans × 3 modes, each bit-for-bit
// against the fault-free baseline.
#[test]
fn fault_equivalence_seeds_00_to_09() {
    run_seed_bucket(0..10);
}

#[test]
fn fault_equivalence_seeds_10_to_19() {
    run_seed_bucket(10..20);
}

#[test]
fn fault_equivalence_seeds_20_to_29() {
    run_seed_bucket(20..30);
}

#[test]
fn fault_equivalence_seeds_30_to_39() {
    run_seed_bucket(30..40);
}

#[test]
fn fault_equivalence_seeds_40_to_49() {
    run_seed_bucket(40..50);
}

#[test]
fn streamed_chunks_reordered_by_jitter_compose_bitwise() {
    // Delay-only jitter scrambles wait_any completion order; the
    // per-chunk range kernels must still compose to the exact clean
    // state. Heavier jitter than the campaign plans, streamed mode only.
    let circuit = qft(7);
    let mut plan = FaultConfig::disabled(77);
    plan.p_delay = 0.7;
    plan.max_delay_slices = 2;
    for ranks in [2usize, 4] {
        let (baseline, _) =
            simulate(&circuit, ranks, dist_config(ExchangeMode::Blocking), None)
                .expect("clean run");
        let (jittered, stats) = simulate(
            &circuit,
            ranks,
            dist_config(ExchangeMode::Streamed),
            Some(plan),
        )
        .expect("delay-only plan is recoverable");
        assert_bits_equal(&jittered, &baseline, &format!("jittered streamed R={ranks}"));
        assert!(stats.iter().map(|s| s.faults_injected).sum::<u64>() > 0);
    }
}

#[test]
fn heavy_retries_recover_bit_for_bit() {
    // Near-constant transient failures (but within budget) exercise the
    // retry/backoff loop on almost every operation. The run must succeed
    // with the exact clean state while ranks sit in backoff.
    let circuit = qft(6);
    let mut plan = FaultConfig::disabled(13);
    plan.p_send_fail = 0.9;
    plan.p_recv_fail = 0.5;
    plan.max_fail_burst = 2;
    plan.retry_budget = 3;
    assert!(plan.is_recoverable());
    let (baseline, _) =
        simulate(&circuit, 4, dist_config(ExchangeMode::NonBlocking), None)
            .expect("clean run");
    let (state, stats) = simulate(
        &circuit,
        4,
        dist_config(ExchangeMode::NonBlocking),
        Some(plan),
    )
    .unwrap_or_else(|e| panic!("recoverable retry storm errored (seed 13): {e}"));
    assert_bits_equal(&state, &baseline, "retry storm");
    assert!(stats.iter().map(|s| s.retries).sum::<u64>() > 0, "no retry ever ran");
}

#[test]
fn unrecoverable_corruption_errors_on_every_rank() {
    let circuit = qft(6);
    for &mode in &[ExchangeMode::Blocking, ExchangeMode::Streamed] {
        let out = run_collect_errors(
            &circuit,
            4,
            dist_config(mode),
            FaultConfig::permanent_corruption(3),
        );
        assert_eq!(out.len(), 4);
        for (rank, r) in out.into_iter().enumerate() {
            let err = r.err()
                .unwrap_or_else(|| panic!("rank {rank} mode {mode:?} should have failed"));
            assert!(
                is_or_caused_by(&err, |e| matches!(e, CommError::Corrupt { .. })),
                "rank {rank} mode {mode:?}: unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn exhausted_retries_error_on_every_rank() {
    let circuit = qft(6);
    let out = run_collect_errors(
        &circuit,
        4,
        dist_config(ExchangeMode::NonBlocking),
        FaultConfig::exhausted_retries(5),
    );
    assert_eq!(out.len(), 4);
    for (rank, r) in out.into_iter().enumerate() {
        let err = r.err().unwrap_or_else(|| panic!("rank {rank} should have failed"));
        assert!(
            is_or_caused_by(&err, |e| matches!(e, CommError::Transient { .. })),
            "rank {rank}: unexpected error {err:?}"
        );
    }
}

#[test]
fn soak_16_qubit_qft_over_seeded_plans() {
    // Tier-1 slice of the soak campaign (the bench binary runs more
    // seeds): each seeded recoverable plan over the 16-qubit QFT at R=4
    // must complete bitwise-correct; a failure names the seed so it can
    // be replayed with `--faults seed=N`.
    let circuit = qft(16);
    // Default (1 MiB) chunks: a 16-qubit exchange is one message, which
    // keeps fifty-odd distributed gates affordable under delay jitter.
    let config = DistConfig {
        exchange_mode: ExchangeMode::Streamed,
        ..DistConfig::default()
    };
    let (baseline, _) = simulate(&circuit, 4, config, None).expect("clean run");
    for seed in [101u64, 202, 303] {
        let plan = FaultConfig::recoverable(seed);
        let (state, stats) = simulate(&circuit, 4, config, Some(plan))
            .unwrap_or_else(|e| panic!("soak seed {seed}: recoverable plan errored: {e}"));
        assert_bits_equal(&state, &baseline, &format!("soak seed {seed}"));
        assert!(
            stats.iter().map(|s| s.faults_injected).sum::<u64>() > 0,
            "soak seed {seed}: plan never fired"
        );
    }
}

#[test]
fn fault_free_runs_take_the_zero_overhead_path() {
    // Acceptance criterion: with faults disabled, no checksums are
    // stamped and every fault counter stays zero across all modes.
    let circuit = random_circuit(7, 30, GatePool::Full, 9);
    for mode in [
        ExchangeMode::Blocking,
        ExchangeMode::NonBlocking,
        ExchangeMode::Streamed,
    ] {
        let (_, stats) =
            simulate(&circuit, 4, dist_config(mode), None).expect("clean run");
        for (rank, s) in stats.iter().enumerate() {
            assert_eq!(s.faults_injected, 0, "rank {rank} mode {mode:?}");
            assert_eq!(s.retries, 0, "rank {rank} mode {mode:?}");
            assert_eq!(s.corruptions_detected, 0, "rank {rank} mode {mode:?}");
        }
    }
}
