//! The fault soak: PR-5's deterministic fault injection, replayed
//! through the multi-tenant server.
//!
//! The service contract under faults is the simulator's contract, per
//! client: a job whose fault plan is recoverable completes bit-for-bit
//! identical to the fault-free run; a job whose plan is unrecoverable
//! gets a typed `exec_failed` back on *its own* reply path; and neither
//! outcome leaks into a neighbouring job — concurrent traffic with
//! mixed fault plans shows no cross-job corruption.

use qse_circuit::hash::canonicalize;
use qse_circuit::qft::qft;
use qse_comm::FaultConfig;
use qse_core::config::TranspileMode;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_serve::protocol::state_fingerprint;
use qse_serve::{JobResponse, JobResult, JobSpec, ServeConfig, ServeError, Server};
use qse_statevec::measure::sample_counts_amps;
use qse_util::mailbox::Receiver;
use qse_util::rng::StdRng;
use std::collections::BTreeMap;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// The soak workload: a QFT wide enough that its top qubits are global
/// at R=4, so every job crosses the faulted exchange paths.
const SOAK_QUBITS: u32 = 8;
const SOAK_RANKS: u64 = 4;

fn soak_spec(id: &str, seed: u64, faults: Option<FaultConfig>) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        circuit: qft(SOAK_QUBITS),
        ranks: SOAK_RANKS,
        transpile: TranspileMode::Off,
        shots: 200,
        seed,
        basis: 0,
        faults,
        engine: qse_core::config::EngineMode::Dense,
    }
}

fn wait_ok(rx: &Receiver<JobResponse>) -> JobResult {
    rx.recv_timeout(WAIT)
        .expect("job response within deadline")
        .expect("job succeeds")
}

/// A fault plan every exchange survives: bursts fit the retry budget.
fn recoverable(seed: u64) -> FaultConfig {
    let cfg = FaultConfig::parse_spec(&format!("seed={seed}")).expect("valid spec");
    assert!(cfg.is_recoverable());
    cfg
}

/// A fault plan no retry budget survives: every send delivers only
/// corrupted copies, nine deep against a budget of one.
fn unrecoverable(seed: u64) -> FaultConfig {
    let cfg = FaultConfig::parse_spec(&format!("seed={seed},corrupt=1.0,corrupt_burst=9,budget=1"))
        .expect("valid spec");
    assert!(!cfg.is_recoverable());
    cfg
}

/// Recoverable fault plans — any seed — must return the same
/// statevector fingerprint and the same per-seed measurement histogram
/// as the fault-free run. Corruption is healed by retransmission,
/// transients are retried, delays only reorder disjoint chunk writes;
/// none of it may move a ULP, even through the cache and batch layers.
#[test]
fn recoverable_fault_jobs_complete_bit_for_bit_under_the_server() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let clean = wait_ok(
        &server
            .submit(soak_spec("clean", 7, None))
            .expect("admitted"),
    );

    let faulted: Vec<_> = (0..6u64)
        .map(|fault_seed| {
            server
                .submit(soak_spec(
                    &format!("fault-{fault_seed}"),
                    7, // same measurement seed as the clean baseline
                    Some(recoverable(fault_seed)),
                ))
                .expect("admitted")
        })
        .collect();
    for (fault_seed, rx) in faulted.iter().enumerate() {
        let r = wait_ok(rx);
        assert_eq!(
            r.state_fnv, clean.state_fnv,
            "fault seed {fault_seed}: recoverable faults changed the state"
        );
        assert_eq!(
            r.counts, clean.counts,
            "fault seed {fault_seed}: recoverable faults changed the draws"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.failed, 0);
    // Faults are a runtime condition, not part of the plan: every
    // faulted job reuses the clean job's compiled plan.
    assert_eq!(stats.cache.misses, 1);
    assert!(stats.cache.hits >= 1);
    server.shutdown();
}

/// A dense reply is read out where the amplitudes live, and it is still
/// the gathered state's: clean and under recoverable fault plans — which
/// also hit the read-out's own carries, broadcast and merge — the
/// fingerprint and the seeded histogram equal a solo run's gathered to
/// rank 0 and sampled there.
#[test]
fn faulted_and_clean_replies_equal_the_gathered_solo_run() {
    let circuit = canonicalize(&qft(SOAK_QUBITS));
    let solo =
        ThreadClusterExecutor::try_run(&circuit, &SimConfig::default_for(SOAK_RANKS), 0, true)
            .expect("solo run");
    let amps = solo.state.expect("gathered");
    let counts = sample_counts_amps(&amps, &mut StdRng::seed_from_u64(11), 200).expect("sampled");
    let server = Server::start(ServeConfig::default());
    for faults in [None, Some(recoverable(21)), Some(recoverable(22))] {
        let r = wait_ok(
            &server
                .submit(soak_spec("read-out", 11, faults))
                .expect("admitted"),
        );
        assert_eq!(r.state_fnv, state_fingerprint(&amps), "{faults:?}");
        assert_eq!(r.counts.as_ref(), Some(&counts), "{faults:?}");
    }
    server.shutdown();
}

/// Mixed concurrent traffic: clean jobs, recoverable-fault jobs and
/// unrecoverable-fault jobs in flight together, for several rounds.
/// Every clean/recoverable job must land bit-for-bit on its solo
/// baseline; every unrecoverable job must fail with a typed
/// `exec_failed` addressed to its own id. No outcome may bleed across
/// jobs.
#[test]
fn unrecoverable_faults_surface_typed_errors_without_cross_job_corruption() {
    let server = Server::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });

    // Solo baselines first: one per measurement seed, run alone.
    let mut baseline: BTreeMap<u64, JobResult> = BTreeMap::new();
    for seed in 0..3u64 {
        let r = wait_ok(
            &server
                .submit(soak_spec(&format!("baseline-{seed}"), seed, None))
                .expect("admitted"),
        );
        baseline.insert(seed, r);
    }

    let mut good = Vec::new();
    let mut bad = Vec::new();
    for round in 0..3u64 {
        for seed in 0..3u64 {
            let id = format!("good-{round}-{seed}");
            let faults = if round % 2 == 0 {
                None
            } else {
                Some(recoverable(round * 100 + seed))
            };
            good.push((
                id.clone(),
                seed,
                server
                    .submit(soak_spec(&id, seed, faults))
                    .expect("admitted"),
            ));
            let id = format!("bad-{round}-{seed}");
            bad.push((
                id.clone(),
                server
                    .submit(soak_spec(
                        &id,
                        seed,
                        Some(unrecoverable(round * 100 + seed)),
                    ))
                    .expect("admitted"),
            ));
        }
    }

    for (id, seed, rx) in &good {
        let r = wait_ok(rx);
        assert_eq!(&r.id, id, "reply landed on the wrong client");
        let base = &baseline[seed];
        assert_eq!(
            r.state_fnv, base.state_fnv,
            "{id}: state corrupted by neighbouring faulted jobs"
        );
        assert_eq!(
            r.counts, base.counts,
            "{id}: draws corrupted by neighbouring faulted jobs"
        );
    }
    for (id, rx) in &bad {
        let err = rx
            .recv_timeout(WAIT)
            .expect("job response within deadline")
            .expect_err("unrecoverable faults must fail the job");
        assert_eq!(&err.id, id, "error landed on the wrong client");
        assert!(
            matches!(err.error, ServeError::Exec { .. }),
            "{id}: expected a typed execution error, got {:?}",
            err.error
        );
        assert_eq!(err.error.code(), "exec_failed");
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 3 + good.len() as u64);
    assert_eq!(stats.failed, bad.len() as u64);
    assert_eq!(stats.reserved_bytes, 0, "every reservation released");
    server.shutdown();
}
