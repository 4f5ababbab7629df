//! The serve acceptance suite — the contracts the multi-tenant service
//! sells, checked through the in-process API and a real localhost
//! socket:
//!
//! - **Cache transparency**: a cache-hit execution is bit-for-bit
//!   identical to the cold path for the same seed (property-tested over
//!   random circuits and every transpile strategy), and Zipf-skewed
//!   repeat traffic stays ≥ 90 % warm.
//! - **Batch transparency**: jobs coalesced into one execution return
//!   exactly what each would have returned run alone, given the same
//!   per-job seeds — on every engine, and with jobs that draw no shots
//!   in the batch. A batch compiles once; a cold burst (no cache,
//!   distinct bases) never hits and never batches.
//! - **Canonical keys**: `-0.0` angles and reordered disjoint gates land
//!   on the same cache entry with identical fingerprints.
//! - **Admission**: over-budget and over-capacity submissions are
//!   rejected with typed errors while admitted work completes; shutdown
//!   fails queued jobs typed, never silently.
//! - **Wire smoke**: 20 mixed jobs over TCP all complete and the cache
//!   records hits.

use qse_circuit::algorithms::ghz;
use qse_circuit::gate::Gate;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_core::config::{EngineMode, TranspileMode};
use qse_serve::{JobResponse, JobResult, JobSpec, ServeConfig, Server, ServeError};
use qse_util::check::check;
use qse_util::mailbox::Receiver;
use qse_util::rng::{Rng, StdRng};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// A plain job spec: `circuit` at `ranks`, measured with `shots` draws
/// from `seed`.
fn spec(id: &str, circuit: Circuit, ranks: u64, shots: usize, seed: u64) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        circuit,
        ranks,
        transpile: TranspileMode::Off,
        shots,
        seed,
        basis: 0,
        faults: None,
        engine: EngineMode::Dense,
    }
}

fn wait(rx: &Receiver<JobResponse>) -> JobResponse {
    rx.recv_timeout(WAIT).expect("job response within deadline")
}

fn wait_ok(rx: &Receiver<JobResponse>) -> JobResult {
    wait(rx).expect("job succeeds")
}

/// A heavy job that pins the single worker long enough for everything
/// submitted after it to be sitting in the queue together.
fn plug() -> Circuit {
    qft(16)
}

// ---------------------------------------------------------------------
// Cache transparency
// ---------------------------------------------------------------------

/// For the same seed, a warm (cache-hit) execution must return the same
/// statevector fingerprint and the same measurement histogram as the
/// cold path — across random circuits and all three transpile
/// strategies. The hit skips classify → transpile → verify entirely, so
/// this is the proof the skipped work was genuinely redundant.
#[test]
fn cache_hit_execution_is_bit_identical_to_cold_path() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let case = std::cell::Cell::new(0u64);
    check(12, |rng| {
        case.set(case.get() + 1);
        let case = case.get();
        let n = 4 + rng.random_range(0u32..4); // 4..8 qubits
        let gates = 8 + rng.random_range(0usize..24);
        let circuit_seed = rng.random_range(0u64..1 << 32);
        let shot_seed = rng.random_range(0u64..1 << 32);
        let circuit = random_circuit(n, gates, GatePool::Full, circuit_seed);
        let mode = [TranspileMode::Off, TranspileMode::Greedy, TranspileMode::Beam]
            [rng.random_range(0usize..3)];
        let ranks = 1u64 << rng.random_range(0u32..3);

        let submit = |tag: &str| {
            let s = JobSpec {
                transpile: mode,
                ..spec(
                    &format!("case-{case}-{tag}"),
                    circuit.clone(),
                    ranks,
                    100,
                    shot_seed,
                )
            };
            wait_ok(&server.submit(s).expect("admitted"))
        };
        let cold = submit("cold");
        let warm = submit("warm");
        assert!(!cold.cache_hit, "first submission must be a miss");
        assert!(warm.cache_hit, "second submission must be a hit");
        assert_eq!(
            cold.state_fnv, warm.state_fnv,
            "seed={circuit_seed}: warm state diverged from cold ({mode:?}, R={ranks})"
        );
        assert_eq!(
            cold.counts, warm.counts,
            "seed={circuit_seed}: warm counts diverged from cold ({mode:?}, R={ranks})"
        );
    });
    let stats = server.stats();
    assert_eq!(stats.cache.misses, case.get(), "one miss per case");
    assert_eq!(stats.cache.hits, stats.cache.misses, "one hit per case");
    server.shutdown();

    // Repeat traffic: a closed-loop tenant drawing from a four-circuit
    // pool with popularity 1/(r+1)² compiles each circuit once, so at
    // least 90 % of its 80 lookups hit.
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let pool: Vec<Circuit> = (0..4u64)
        .map(|i| match i {
            0 => qft(12),
            _ => random_circuit(12, 60, GatePool::Full, 0xC0FFEE + i),
        })
        .collect();
    // Cumulative shares of the popularity weights 1/(r+1)².
    let cumulative = [0.702, 0.878, 0.956];
    let mut rng = StdRng::seed_from_u64(7);
    for j in 0..80u64 {
        let draw = rng.random_range(0.0..1.0);
        let r = cumulative.iter().filter(|&&c| draw >= c).count();
        let job = JobSpec {
            transpile: TranspileMode::Beam,
            ..spec(&format!("zipf-{j}"), pool[r].clone(), 4, 100, j)
        };
        wait_ok(&server.submit(job).expect("admitted"));
    }
    let cache = server.stats().cache;
    let hit_rate = cache.hits as f64 / (cache.hits + cache.misses) as f64;
    assert!(hit_rate >= 0.90, "zipf traffic must stay ≥ 90 % warm: {cache:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Batch transparency
// ---------------------------------------------------------------------

/// Submits the plug job, then `jobs` back to back, so the single
/// worker finds them all queued together; returns their results in
/// submission order.
fn submit_batch(server: &Server, jobs: Vec<JobSpec>) -> Vec<JobResult> {
    let plug_rx = server.submit(spec("plug", plug(), 1, 0, 0)).expect("plug");
    let rxs: Vec<_> = jobs
        .into_iter()
        .map(|job| server.submit(job).expect("admitted"))
        .collect();
    wait_ok(&plug_rx);
    rxs.iter().map(wait_ok).collect()
}

/// A GHZ state with a CPhase ladder on top: two nonzero amplitudes, but
/// not Clifford, so `auto` resolves it to the sparse engine.
fn ghz_cphase_ladder(n: u32) -> Circuit {
    let mut c = ghz(n);
    for q in 1..n {
        c.cphase(q - 1, q, 0.3 * f64::from(q));
    }
    c
}

/// Concurrent submissions of the same circuit coalesce into one
/// execution on every engine, and each job's fingerprint and counts are
/// bit-for-bit what a solo run with the same seed returns. The plug job
/// keeps the single worker busy so the whole batch is queued together,
/// making the coalesce deterministic.
#[test]
fn batched_jobs_match_individually_executed_jobs_bit_for_bit() {
    const BATCH: usize = 4;
    let cases = [
        (
            "dense",
            random_circuit(9, 30, GatePool::Full, 42),
            EngineMode::Dense,
        ),
        ("sparse", ghz_cphase_ladder(12), EngineMode::Auto),
        ("stabilizer", ghz(10), EngineMode::Stabilizer),
    ];
    for (engine, circuit, mode) in cases {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let job = |id: String, i: usize| JobSpec {
            engine: mode,
            ..spec(&id, circuit.clone(), 2, 500, 1000 + i as u64)
        };
        let batched = submit_batch(
            &server,
            (0..BATCH).map(|i| job(format!("batch-{i}"), i)).collect(),
        );
        for r in &batched {
            assert_eq!(
                r.batched, BATCH,
                "{engine}: all {BATCH} jobs must share one execution, {} reports batch {}",
                r.id, r.batched
            );
            assert_eq!(r.engine, engine, "{}: ran on the wrong engine", r.id);
        }

        // The solo baselines: same specs, submitted one at a time so each
        // runs alone, as a cache hit (already proven identical to cold
        // above).
        for (i, from_batch) in batched.iter().enumerate() {
            let solo = wait_ok(
                &server
                    .submit(job(format!("solo-{i}"), i))
                    .expect("admitted"),
            );
            assert_eq!(solo.batched, 1, "{engine}: baseline must run alone");
            assert_eq!(
                from_batch.state_fnv, solo.state_fnv,
                "{engine}: batched job {i} saw a different state than its solo run"
            );
            assert_eq!(
                from_batch.counts, solo.counts,
                "{engine}: batched job {i} drew different shots than its solo run"
            );
        }

        let stats = server.stats();
        assert_eq!(stats.batched_jobs, BATCH as u64, "{engine}");
        assert_eq!(stats.max_batch, BATCH as u64, "{engine}");
        // plug + one batch + BATCH solos.
        assert_eq!(stats.executions, 2 + BATCH as u64, "{engine}");
        // Only the plug and the batch compile; every warm solo hits.
        assert_eq!(stats.cache.misses, 2, "{engine}");
        assert_eq!(stats.cache.hits, BATCH as u64, "{engine}");
        server.shutdown();
    }
}

/// A `shots: 0` job batched with jobs that draw shots gets no counts but
/// the shared fingerprint, and the jobs that draw still match their
/// solo runs; a batch in which no job draws returns no counts at all.
/// (That such a batch builds no sampler is the server's unit test
/// `a_batch_without_shots_builds_no_sampler`.)
#[test]
fn mixed_shot_batches_draw_only_for_jobs_that_ask() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let circuit = random_circuit(8, 24, GatePool::Full, 7);
    let shots = [300, 0, 500, 0];
    let job = |id: String, shots: usize, seed: u64| spec(&id, circuit.clone(), 2, shots, seed);
    let batched = submit_batch(
        &server,
        shots
            .iter()
            .enumerate()
            .map(|(i, &n)| job(format!("mixed-{i}"), n, 50 + i as u64))
            .collect(),
    );
    for (r, &n) in batched.iter().zip(&shots) {
        assert_eq!(r.batched, shots.len(), "{} must share the execution", r.id);
        assert_eq!(r.state_fnv, batched[0].state_fnv, "{}: one state", r.id);
        assert_eq!(r.counts.is_some(), n > 0, "{}: counts iff shots", r.id);
    }
    for (i, (r, &n)) in batched.iter().zip(&shots).enumerate() {
        if n > 0 {
            let solo = wait_ok(
                &server
                    .submit(job(format!("solo-{i}"), n, 50 + i as u64))
                    .expect("admitted"),
            );
            assert_eq!(solo.batched, 1, "baseline must run alone");
            assert_eq!(r.counts, solo.counts, "job {i} drew different shots solo");
        }
    }

    let silent = submit_batch(
        &server,
        (0..3).map(|i| job(format!("silent-{i}"), 0, i)).collect(),
    );
    for r in &silent {
        assert_eq!(r.batched, 3, "{} must share the execution", r.id);
        assert_eq!(r.counts, None, "{}: no shots, no counts", r.id);
        assert_eq!(r.state_fnv, batched[0].state_fnv, "{}: same state", r.id);
    }
    server.shutdown();
}

/// Jobs with different bases or fault plans must *not* share an
/// execution even when the circuit matches — a batch is one identical
/// run, not one similar run.
#[test]
fn different_basis_or_faults_never_batch_together() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let circuit = qft(8);
    let plug_rx = server.submit(spec("plug", plug(), 1, 0, 0)).expect("plug");
    let a = server
        .submit(spec("basis-0", circuit.clone(), 1, 50, 1))
        .expect("admitted");
    let b = server
        .submit(JobSpec {
            basis: 5,
            ..spec("basis-5", circuit.clone(), 1, 50, 1)
        })
        .expect("admitted");
    let c = server
        .submit(JobSpec {
            faults: Some(qse_comm::FaultConfig::recoverable(3)),
            ..spec("faulted", circuit.clone(), 1, 50, 1)
        })
        .expect("admitted");
    wait_ok(&plug_rx);
    let (ra, rb, rc) = (wait_ok(&a), wait_ok(&b), wait_ok(&c));
    assert_eq!(ra.batched, 1, "different bases must run separately");
    assert_eq!(rb.batched, 1, "different bases must run separately");
    assert_eq!(rc.batched, 1, "different fault plans must run separately");
    assert_ne!(
        ra.state_fnv, rb.state_fnv,
        "QFT of distinct basis states must differ"
    );
    assert_eq!(
        ra.state_fnv, rc.state_fnv,
        "recoverable faults must not change the state"
    );
    server.shutdown();

    // A cold burst: no plan cache and a distinct basis per job, so every
    // job compiles and executes alone.
    let cold = Server::start(ServeConfig {
        workers: 1,
        cache_cap_bytes: 0,
        ..ServeConfig::default()
    });
    let burst = submit_batch(
        &cold,
        (0..4)
            .map(|i| JobSpec {
                basis: i,
                ..spec(&format!("cold-{i}"), circuit.clone(), 2, 50, i)
            })
            .collect(),
    );
    assert!(burst.iter().all(|r| r.batched == 1 && !r.cache_hit));
    let stats = cold.stats();
    assert_eq!(stats.cache.hits, 0, "a cold burst must never hit");
    assert_eq!(stats.batched_jobs, 0, "a cold burst must never batch");
    cold.shutdown();
}

// ---------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------

/// Submissions that differ only by `-0.0` vs `0.0` angles or by the
/// order of adjacent gates on disjoint qubits are the same circuit;
/// they must share one cache entry and return identical fingerprints.
#[test]
fn equivalent_submissions_share_one_cache_entry() {
    let base = {
        let mut c = Circuit::new(6);
        c.push(Gate::H(0));
        c.push(Gate::Rz {
            target: 1,
            theta: 0.0,
        });
        c.push(Gate::X(4));
        c.push(Gate::CNot {
            control: 0,
            target: 1,
        });
        c.push(Gate::CPhase {
            a: 2,
            b: 3,
            theta: 0.75,
        });
        c
    };
    let negative_zero = {
        let mut c = Circuit::new(6);
        c.push(Gate::H(0));
        c.push(Gate::Rz {
            target: 1,
            theta: -0.0,
        });
        c.push(Gate::X(4));
        c.push(Gate::CNot {
            control: 0,
            target: 1,
        });
        c.push(Gate::CPhase {
            a: 3, // symmetric operands, swapped
            b: 2,
            theta: 0.75,
        });
        c
    };
    let reordered = {
        let mut c = Circuit::new(6);
        c.push(Gate::X(4)); // disjoint from H(0) and Rz(1): order is noise
        c.push(Gate::Rz {
            target: 1,
            theta: 0.0,
        });
        c.push(Gate::H(0));
        c.push(Gate::CNot {
            control: 0,
            target: 1,
        });
        c.push(Gate::CPhase {
            a: 2,
            b: 3,
            theta: 0.75,
        });
        c
    };

    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let first = wait_ok(&server.submit(spec("base", base, 1, 100, 9)).expect("ok"));
    let second = wait_ok(
        &server
            .submit(spec("neg-zero", negative_zero, 1, 100, 9))
            .expect("ok"),
    );
    let third = wait_ok(
        &server
            .submit(spec("reordered", reordered, 1, 100, 9))
            .expect("ok"),
    );
    assert!(!first.cache_hit, "first form compiles");
    assert!(second.cache_hit, "-0.0 form must reuse the plan");
    assert!(third.cache_hit, "reordered form must reuse the plan");
    assert_eq!(first.state_fnv, second.state_fnv);
    assert_eq!(first.state_fnv, third.state_fnv);
    assert_eq!(first.counts, second.counts);
    assert_eq!(first.counts, third.counts);
    let stats = server.stats();
    assert_eq!(stats.cache.entries, 1, "one entry for all three forms");
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, 2);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Engine modes
// ---------------------------------------------------------------------

/// `--engine auto` and `--engine dense` on the same circuit must return
/// identical results but key *distinct* cache entries: the requested
/// mode is part of the key, so each mode pays one miss and then hits its
/// own entry. QFT resolves dense under auto, making the runs literally
/// the same execution path.
#[test]
fn auto_and_dense_agree_bitwise_but_key_distinct_cache_entries() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let circuit = qft(6);
    let submit = |id: &str, engine: EngineMode| {
        wait_ok(
            &server
                .submit(JobSpec {
                    engine,
                    ..spec(id, circuit.clone(), 1, 200, 9)
                })
                .expect("admitted"),
        )
    };
    let auto_cold = submit("auto-cold", EngineMode::Auto);
    let dense_cold = submit("dense-cold", EngineMode::Dense);
    assert!(!auto_cold.cache_hit, "auto's first run compiles its entry");
    assert!(
        !dense_cold.cache_hit,
        "dense must not reuse auto's cache entry"
    );
    assert_eq!(auto_cold.engine, "dense", "auto resolves dense for QFT");
    assert_eq!(dense_cold.engine, "dense");
    assert_eq!(auto_cold.state_fnv, dense_cold.state_fnv);
    assert_eq!(auto_cold.counts, dense_cold.counts);
    let auto_warm = submit("auto-warm", EngineMode::Auto);
    let dense_warm = submit("dense-warm", EngineMode::Dense);
    assert!(auto_warm.cache_hit, "auto re-request hits auto's entry");
    assert!(dense_warm.cache_hit, "dense re-request hits dense's entry");
    assert_eq!(auto_warm.state_fnv, auto_cold.state_fnv);
    assert_eq!(dense_warm.counts, dense_cold.counts);
    let stats = server.stats();
    assert_eq!(stats.cache.entries, 2, "one entry per requested mode");
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.cache.hits, 2);
    server.shutdown();
}

/// Sparse and stabilizer submissions execute for real and draw the same
/// fixed-seed histograms as the dense engine; dense-only options are
/// rejected typed, and a non-Clifford circuit on the tableau fails with
/// a typed execution error naming the gate.
#[test]
fn sparse_and_stabilizer_jobs_match_dense_histograms() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let circuit = ghz(8);
    let submit = |id: &str, engine: EngineMode| {
        wait_ok(
            &server
                .submit(JobSpec {
                    engine,
                    ..spec(id, circuit.clone(), 1, 500, 4)
                })
                .expect("admitted"),
        )
    };
    let dense = submit("ghz-dense", EngineMode::Dense);
    let sparse = submit("ghz-sparse", EngineMode::Sparse);
    let stab = submit("ghz-stab", EngineMode::Stabilizer);
    assert_eq!(dense.engine, "dense");
    assert_eq!(sparse.engine, "sparse");
    assert_eq!(stab.engine, "stabilizer");
    assert_eq!(dense.counts, sparse.counts, "same seed, same histogram");
    assert_eq!(dense.counts, stab.counts, "same seed, same histogram");

    // Dense-only options bounce synchronously, typed.
    let Err(err) = server.submit(JobSpec {
        engine: EngineMode::Stabilizer,
        faults: Some(qse_comm::FaultConfig::recoverable(3)),
        ..spec("stab-faults", circuit.clone(), 1, 10, 1)
    }) else {
        panic!("faults are a dense-path concept; the submission must bounce")
    };
    assert!(matches!(err, ServeError::BadRequest { .. }), "{err:?}");

    // A non-Clifford circuit forced onto the tableau fails typed.
    let rx = server
        .submit(JobSpec {
            engine: EngineMode::Stabilizer,
            ..spec("stab-qft", qft(6), 1, 10, 1)
        })
        .expect("admitted — the failure is an execution error");
    let err = wait(&rx).expect_err("QFT is not Clifford");
    assert!(matches!(err.error, ServeError::Exec { .. }), "{err:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// With a budget that fits exactly one n=16 job, the second concurrent
/// submission is rejected `OverBudget` with honest accounting — and the
/// admitted job still completes. Once it finishes and releases its
/// reservation, the same submission is admitted.
#[test]
fn over_budget_submissions_are_rejected_while_in_flight_jobs_complete() {
    let footprint = qse_serve::job_footprint_bytes(16);
    let server = Server::start(ServeConfig {
        workers: 1,
        mem_budget_bytes: footprint,
        ..ServeConfig::default()
    });
    let admitted = server.submit(spec("fits", qft(16), 2, 10, 1)).expect("fits");
    let Err(err) = server.submit(spec("too-much", qft(16), 2, 10, 2)) else {
        panic!("budget is fully reserved; the submission must bounce")
    };
    match err {
        ServeError::OverBudget {
            required_bytes,
            budget_bytes,
            in_use_bytes,
        } => {
            assert_eq!(required_bytes, footprint);
            assert_eq!(budget_bytes, footprint);
            assert_eq!(in_use_bytes, footprint);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    // A smaller job also doesn't fit — the bound is bytes, not slots.
    assert!(matches!(
        server.submit(spec("small", qft(12), 1, 0, 0)),
        Err(ServeError::OverBudget { .. })
    ));

    let done = wait_ok(&admitted);
    assert_eq!(done.id, "fits");

    // Reservation released: the once-rejected spec is now admitted.
    let retry = wait_ok(
        &server
            .submit(spec("too-much", qft(16), 2, 10, 2))
            .expect("budget free again"),
    );
    assert_eq!(retry.id, "too-much");
    assert_eq!(server.stats().rejected_over_budget, 2);
    assert_eq!(server.stats().reserved_bytes, 0);
    server.shutdown();
}

/// With `queue_cap = 1` and the worker pinned by the plug, the second
/// queued submission bounces with a typed `QueueFull` while the first
/// queued job still completes.
#[test]
fn queue_backpressure_rejects_with_queue_full() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let plug_rx = server.submit(spec("plug", plug(), 1, 0, 0)).expect("plug");
    // Wait until the worker has popped the plug, so the queue is
    // observably empty before we fill it.
    let deadline = std::time::Instant::now() + WAIT;
    while server.stats().queue_depth > 0 {
        assert!(std::time::Instant::now() < deadline, "worker never popped");
        std::thread::yield_now();
    }
    let queued = server.submit(spec("queued", qft(8), 1, 10, 1)).expect("fits");
    let Err(err) = server.submit(spec("bounced", qft(9), 1, 10, 1)) else {
        panic!("queue is at capacity; the submission must bounce")
    };
    assert_eq!(err, ServeError::QueueFull { capacity: 1 });
    wait_ok(&plug_rx);
    assert_eq!(wait_ok(&queued).id, "queued");
    assert_eq!(server.stats().rejected_queue_full, 1);
    server.shutdown();
}

/// Shutdown fails queued jobs with a typed `Shutdown` error (never a
/// dropped reply), completes the in-flight execution, and rejects new
/// submissions.
#[test]
fn shutdown_fails_queued_jobs_typed_and_finishes_in_flight_work() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let plug_rx = server.submit(spec("plug", plug(), 1, 10, 1)).expect("plug");
    // Wait for the worker to pop the plug: shutdown must find it *in
    // flight* (to be finished) and the next job *queued* (to be failed).
    let deadline = std::time::Instant::now() + WAIT;
    while server.stats().queue_depth > 0 {
        assert!(std::time::Instant::now() < deadline, "worker never popped");
        std::thread::yield_now();
    }
    let queued_rx = server.submit(spec("queued", qft(8), 1, 10, 1)).expect("fits");
    server.shutdown();
    // The in-flight plug ran to completion…
    assert_eq!(wait_ok(&plug_rx).id, "plug");
    // …the queued job was failed typed…
    let err = wait(&queued_rx).expect_err("queued job fails on shutdown");
    assert_eq!(err.id, "queued");
    assert_eq!(err.error, ServeError::Shutdown);
    // …and the door is closed.
    assert!(matches!(
        server.submit(spec("late", qft(8), 1, 0, 0)),
        Err(ServeError::Shutdown)
    ));
    assert_eq!(server.stats().reserved_bytes, 0);
}

// ---------------------------------------------------------------------
// Wire smoke
// ---------------------------------------------------------------------

/// The acceptance smoke from the issue: 20 mixed jobs over a real
/// localhost socket, every one answered, cache hit-rate > 0. One warmup
/// round-trip first so repeats genuinely exercise the warm path rather
/// than coalescing into the cold batch.
#[test]
fn twenty_mixed_jobs_over_tcp_all_complete_with_cache_hits() {
    use qse_serve::BoundedLineReader;
    use qse_util::json::Json;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    let server = Arc::new(Server::start(ServeConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            qse_serve::serve_tcp(server, listener, qse_serve::NetConfig::default())
        });
    }

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(WAIT)).expect("timeout");
    let mut reader = BoundedLineReader::new(conn.try_clone().expect("clone"), 1 << 20);

    // Warmup: compile the repeated circuit once, synchronously.
    conn.write_all(
        b"{\"op\":\"submit\",\"id\":\"warmup\",\"shots\":20,\"seed\":0,\
          \"circuit\":{\"name\":\"qft\",\"qubits\":8}}\n",
    )
    .expect("write");
    let line = reader.next_line().expect("read").expect("warmup answered");
    assert_eq!(
        Json::parse(&line).expect("json").get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // 20 mixed jobs in one burst: repeats of the warm QFT, GHZ states,
    // an explicit gate list, and a multi-rank beam-transpiled QFT.
    let mut expected = Vec::new();
    for i in 0..20 {
        let (id, line) = match i % 4 {
            0 | 1 => (
                format!("qft-{i}"),
                format!(
                    "{{\"op\":\"submit\",\"id\":\"qft-{i}\",\"shots\":50,\"seed\":{i},\
                     \"circuit\":{{\"name\":\"qft\",\"qubits\":8}}}}"
                ),
            ),
            2 => (
                format!("ghz-{i}"),
                format!(
                    "{{\"op\":\"submit\",\"id\":\"ghz-{i}\",\"shots\":50,\"seed\":{i},\
                     \"circuit\":{{\"name\":\"ghz\",\"qubits\":10}}}}"
                ),
            ),
            _ => (
                format!("mix-{i}"),
                format!(
                    "{{\"op\":\"submit\",\"id\":\"mix-{i}\",\"shots\":25,\"seed\":{i},\
                     \"ranks\":2,\"transpile\":\"beam\",\
                     \"circuit\":{{\"qubits\":6,\"gates\":[[\"h\",0],[\"cnot\",0,3],\
                     [\"rz\",2,0.5],[\"swap\",1,4],[\"cphase\",3,5,0.25]]}}}}"
                ),
            ),
        };
        expected.push(id);
        conn.write_all(line.as_bytes()).expect("write");
        conn.write_all(b"\n").expect("write");
    }

    let mut answered = Vec::new();
    for _ in 0..20 {
        let line = reader.next_line().expect("read").expect("a response");
        let json = Json::parse(&line).expect("response is JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "job failed: {line}"
        );
        answered.push(json.get("id").and_then(Json::as_str).expect("id").to_string());
    }
    answered.sort();
    expected.sort();
    assert_eq!(answered, expected, "every job answered exactly once");

    conn.write_all(b"{\"op\":\"stats\"}\n").expect("write");
    let line = reader.next_line().expect("read").expect("stats");
    let stats = Json::parse(&line).expect("stats JSON");
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(21));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    let hits = stats.get("cache_hits").and_then(Json::as_u64).expect("hits");
    assert!(hits > 0, "warm QFT repeats must hit the cache: {line}");
    drop(conn);
    server.shutdown();
}
