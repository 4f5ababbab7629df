//! The serve workloads: an in-process `Server` with one worker, driven
//! by closed-loop clients — each blocks on its replies before it submits
//! again, as `qse submit` clients do.

use super::calibrate::Calibrator;
use super::workload::{
    cold_entry, derive, zipf_index, zipf_pool, Entry, Workload, SERVE_SHOTS, ZIPF_BURST,
};
use super::{Budget, RunOpts, SetupClock};
use qse_circuit::hash::canonicalize;
use qse_core::{EngineExecutor, EngineState, ThreadClusterExecutor};
use qse_serve::cache::plan_cost_bytes;
use qse_serve::protocol::state_fingerprint;
use qse_serve::{JobResult, ServeConfig, Server, StatsSnapshot};
use qse_util::rng::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients of both serve workloads.
pub const CLIENTS: usize = 2;

/// How long a client waits for one reply before the job counts as
/// timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Cold workload: one job in sixteen is re-run solo after the window
/// and its state fingerprint compared with the reply's.
const COLD_VERIFY_STRIDE: u64 = 16;

/// One job as its client saw it.
pub struct JobRecord {
    /// Pool index (zipf) or job number (cold) of the circuit submitted.
    pub key: u64,
    /// When the client called `Server::submit`.
    pub submitted_at: Instant,
    /// Seconds inside `Server::submit`.
    pub submit_s: f64,
    /// Seconds from the call into `Server::submit` to the reply.
    pub latency_s: f64,
    /// `latency_s` with the host's speed divided out (see
    /// [`Calibrator`]); filled in when the job's segment ends.
    pub calibrated_s: f64,
    /// The reply, or why there is none.
    pub reply: Result<Reply, JobFailure>,
}

/// Why a job has no reply to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// `Server::submit` refused the job.
    Rejected(String),
    /// No reply within [`REPLY_TIMEOUT`].
    TimedOut,
    /// The server replied with a typed execution error.
    Errored(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Rejected(why) => write!(f, "rejected: {why}"),
            JobFailure::TimedOut => write!(f, "timed out"),
            JobFailure::Errored(why) => write!(f, "errored: {why}"),
        }
    }
}

/// What the checks need of a `JobResult`. The histogram itself is
/// dropped at once: a window is thousands of jobs, and keeping every
/// reply whole would make the benchmark's own bookkeeping the largest
/// part of `peak_rss_mib`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Job id, for failure messages.
    pub id: String,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Fingerprint of the final state.
    pub state_fnv: u64,
    /// Engine that ran the job.
    pub engine: &'static str,
    /// Sum of the histogram's counts.
    pub shots: usize,
}

impl From<JobResult> for Reply {
    fn from(r: JobResult) -> Self {
        Reply {
            shots: r.counts.iter().flat_map(|c| c.values()).sum(),
            id: r.id,
            cache_hit: r.cache_hit,
            state_fnv: r.state_fnv,
            engine: r.engine,
        }
    }
}

/// What a solo execution of an entry produces: the reference every
/// served reply for that entry is held to, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Fingerprint of the final state.
    pub state_fnv: u64,
    /// Engine that ran it.
    pub engine: &'static str,
}

/// Runs `entry` alone through `EngineExecutor::run` (which is
/// `ThreadClusterExecutor::try_run` for dense entries) on the canonical
/// circuit the server would execute, and fingerprints the result the
/// way the server does.
pub fn solo(entry: &Entry) -> Result<Expect, String> {
    let run = EngineExecutor::run(&canonicalize(&entry.circuit), &entry.sim_config(), 0, true)
        .map_err(|e| e.to_string())?;
    let state_fnv = match &run.state {
        EngineState::Dense(Some(amps)) => state_fingerprint(amps),
        EngineState::Dense(None) => return Err("dense run did not gather".into()),
        EngineState::Sparse(s) => state_fingerprint(&s.to_vec()),
        EngineState::Tableau(t) => t.fingerprint(),
    };
    Ok(Expect {
        state_fnv,
        engine: run.engine.label(),
    })
}

/// Checks one reply against what the workload guarantees.
fn verdict(rec: &JobRecord, expect: Option<Expect>, cache_hit: bool) -> Result<(), String> {
    let r = rec.reply.as_ref().map_err(ToString::to_string)?;
    if r.shots != SERVE_SHOTS {
        return Err(format!(
            "job {}: counts sum to {}, not {SERVE_SHOTS}",
            r.id, r.shots
        ));
    }
    if r.cache_hit != cache_hit {
        return Err(format!("job {}: cache_hit is {}", r.id, r.cache_hit));
    }
    if let Some(e) = expect {
        if r.engine != e.engine {
            return Err(format!(
                "job {}: ran on {}, expected {}",
                r.id, r.engine, e.engine
            ));
        }
        if r.state_fnv != e.state_fnv {
            return Err(format!(
                "job {}: state fingerprint differs from the solo run",
                r.id
            ));
        }
    }
    Ok(())
}

/// Submits `burst` back to back and waits for every reply, in order.
pub fn submit_burst(
    server: &Server,
    burst: Vec<(u64, qse_serve::JobSpec)>,
    out: &mut Vec<JobRecord>,
) {
    let pending: Vec<_> = burst
        .into_iter()
        .map(|(key, spec)| {
            let submitted_at = Instant::now();
            let rx = server.submit(spec);
            (key, submitted_at, submitted_at.elapsed().as_secs_f64(), rx)
        })
        .collect();
    for (key, submitted_at, submit_s, rx) in pending {
        let reply = match rx {
            Err(e) => Err(JobFailure::Rejected(e.to_string())),
            Ok(rx) => match rx.recv_timeout(REPLY_TIMEOUT) {
                Err(_) => Err(JobFailure::TimedOut),
                Ok(Err(e)) => Err(JobFailure::Errored(format!("job {}: {}", e.id, e.error))),
                Ok(Ok(r)) => Ok(Reply::from(r)),
            },
        };
        out.push(JobRecord {
            key,
            submitted_at,
            submit_s,
            latency_s: submitted_at.elapsed().as_secs_f64(),
            calibrated_s: f64::NAN,
            reply,
        });
    }
}

/// Seconds of one segment of a timed window: the clients pause between
/// segments while the calibration runs.
const SEGMENT_S: f64 = 2.5;

/// Runs [`CLIENTS`] closed-loop clients until `spent(b)` says burst `b`
/// must not start. Bursts are numbered from the shared counter `next`
/// and `burst(b)` builds burst `b` from the seed alone, so the jobs
/// submitted do not depend on which client got there first. Returns the
/// records and the seconds the clients ran.
fn drive(
    server: &Server,
    next: &AtomicU64,
    spent: &(dyn Fn(u64) -> bool + Sync),
    burst: &(dyn Fn(u64) -> Vec<(u64, qse_serve::JobSpec)> + Sync),
) -> (Vec<JobRecord>, f64) {
    let start = Instant::now();
    let records = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let b = next.load(Ordering::Relaxed);
                        if spent(b) {
                            return out;
                        }
                        if next
                            .compare_exchange(b, b + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            submit_burst(server, burst(b), &mut out);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    (records, start.elapsed().as_secs_f64())
}

/// How many of `records`' replies report a plan-cache hit, and how many
/// a miss. Counted per job at the client, so — unlike the server's
/// per-execution cache counters — the pair does not depend on how the
/// worker happened to batch.
pub fn hits_and_misses<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> (u64, u64) {
    records
        .into_iter()
        .filter_map(|r| r.reply.as_ref().ok())
        .fold(
            (0, 0),
            |(h, m), r| if r.cache_hit { (h + 1, m) } else { (h, m + 1) },
        )
}

/// What a serve workload's window produced.
pub struct ServeOutcome {
    /// Process start to first timed job, reference computation excluded,
    /// calibrated.
    pub setup_s: f64,
    /// The same as measured.
    pub setup_raw_s: f64,
    /// The warm-up jobs of set-up.
    pub warm: Vec<JobRecord>,
    /// Every job of the window.
    pub records: Vec<JobRecord>,
    /// Seconds the clients ran, calibrated segment by segment.
    pub calibrated_window_s: f64,
    /// Every reading of the calibration: one before each segment and one
    /// after the last.
    pub calibrations: Vec<f64>,
    /// `VmHWM` at the end of the window, MiB.
    pub peak_rss_mib: f64,
    /// The server's counters at the end of the window.
    pub stats: StatsSnapshot,
    /// Why each failed operation failed (jobs and reference checks).
    pub failures: Vec<String>,
    /// How many of the failures are typed execution errors the server
    /// replied with — failed operations, but not wrong answers.
    pub errored: u64,
    /// Jobs plus reference checks attempted.
    pub attempted: u64,
}

/// Sets the serve workload `opts` names up, runs its window
/// (`opts.budget`) and checks every reply.
pub fn run(opts: &RunOpts, clock: &mut SetupClock) -> Result<ServeOutcome, String> {
    let zipf = opts.workload == Workload::ServeZipfWarm;
    let RunOpts {
        workload,
        seed,
        smoke,
        ..
    } = *opts;
    let spoil = |e: Expect| Expect {
        state_fnv: e.state_fnv ^ u64::from(opts.corrupt_reference),
        ..e
    };
    let pool = if zipf {
        zipf_pool(seed, smoke)
    } else {
        Vec::new()
    };
    let expected: Vec<Expect> = if opts.setup_only {
        Vec::new()
    } else {
        clock.exclude(|| {
            pool.iter()
                .map(|e| solo(e).map(spoil))
                .collect::<Result<_, _>>()
        })?
    };

    let mut cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    if !zipf {
        // Room for sixteen plans of the workload's shape, so inserts
        // evict from the second dozen jobs on.
        let typical = cold_entry(seed, smoke, 0);
        let circuit = canonicalize(&typical.circuit);
        let plan = ThreadClusterExecutor::prepare(&circuit, &typical.sim_config())
            .map_err(|e| e.to_string())?;
        cfg.cache_cap_bytes = 16 * plan_cost_bytes(&circuit, plan.as_ref());
    }
    let server = Server::start(cfg);

    // Warm-up: fills the cache with every pool entry (zipf) or spins the
    // worker and thread pool up on one throw-away job (cold). Misses.
    let mut warm = Vec::new();
    let warm_jobs: Vec<_> = if zipf {
        pool.iter()
            .enumerate()
            .map(|(i, e)| (i as u64, e.spec(format!("warm-{i}"), derive(seed, 3))))
            .collect()
    } else {
        vec![(
            0,
            cold_entry(seed, smoke, 0).spec("warm-0".into(), derive(seed, 3)),
        )]
    };
    for job in warm_jobs {
        submit_burst(&server, vec![job], &mut warm);
    }
    let mut failures: Vec<String> = warm
        .iter()
        .filter_map(|r| verdict(r, expected.get(r.key as usize).copied(), false).err())
        .collect();
    let setup_raw_s = clock.elapsed_s();
    let cal = Calibrator::for_workload(workload, smoke);
    let mut calibrations = vec![cal.seconds()];
    let setup_s = cal.calibrated(setup_raw_s, calibrations[0], calibrations[0]);
    if opts.setup_only {
        server.shutdown();
        return Ok(ServeOutcome {
            setup_s,
            setup_raw_s,
            attempted: warm.len() as u64,
            warm,
            records: Vec::new(),
            calibrated_window_s: 0.0,
            calibrations,
            peak_rss_mib: super::host::peak_rss_mib(),
            stats: server.stats(),
            failures,
            errored: 0,
        });
    }

    let zipf_burst = |b: u64| {
        let idx = zipf_index(
            &mut StdRng::seed_from_u64(derive(seed, 1 << 40 | b)),
            pool.len(),
        );
        (0..ZIPF_BURST as u64)
            .map(|j| {
                (
                    idx as u64,
                    pool[idx].spec(format!("z{b}-{j}"), derive(seed, b << 8 | j)),
                )
            })
            .collect()
    };
    let cold_burst = |b: u64| {
        let i = b + 1; // job 0 was the warm-up
        vec![(
            i,
            cold_entry(seed, smoke, i).spec(format!("c{i}"), derive(seed, b << 8)),
        )]
    };
    let (burst, burst_len): (&(dyn Fn(u64) -> _ + Sync), u64) = if zipf {
        (&zipf_burst, ZIPF_BURST as u64)
    } else {
        (&cold_burst, 1)
    };

    // The window, in segments with the calibration read between them.
    let next = AtomicU64::new(0);
    let window = Instant::now();
    let mut records = Vec::new();
    let mut calibrated_window_s = 0.0;
    loop {
        let segment = Instant::now();
        let done = |b: u64| match opts.budget {
            Budget::Ops(n) => b * burst_len >= n,
            Budget::Seconds(s) => window.elapsed().as_secs_f64() >= s,
        };
        if done(next.load(Ordering::Relaxed)) {
            break;
        }
        let spent = |b: u64| done(b) || segment.elapsed().as_secs_f64() >= SEGMENT_S;
        let (mut jobs, seconds) = drive(&server, &next, &spent, burst);
        let before = calibrations[calibrations.len() - 1];
        let after = cal.seconds();
        for job in &mut jobs {
            job.calibrated_s = cal.calibrated(job.latency_s, before, after);
        }
        calibrated_window_s += cal.calibrated(seconds, before, after);
        calibrations.push(after);
        records.append(&mut jobs);
    }
    let peak_rss_mib = super::host::peak_rss_mib();
    let stats = server.stats();
    server.shutdown();

    let mut attempted = (warm.len() + records.len()) as u64;
    for r in &records {
        let checked = if zipf {
            verdict(r, Some(expected[r.key as usize]), true)
        } else {
            verdict(r, None, false)
        };
        failures.extend(checked.err());
    }
    if !zipf {
        let pick = derive(seed, 4) % COLD_VERIFY_STRIDE;
        let sampled = |r: &&JobRecord| r.reply.is_ok() && r.key % COLD_VERIFY_STRIDE == pick;
        for r in records.iter().filter(sampled) {
            attempted += 1;
            let want = solo(&cold_entry(seed, smoke, r.key)).map(spoil)?;
            failures.extend(verdict(r, Some(want), false).err());
        }
    }
    Ok(ServeOutcome {
        setup_s,
        setup_raw_s,
        warm,
        calibrated_window_s,
        calibrations,
        peak_rss_mib,
        stats,
        failures,
        errored: records
            .iter()
            .filter(|r| matches!(r.reply, Err(JobFailure::Errored(_))))
            .count() as u64,
        attempted,
        records,
    })
}
