//! The performance ledger: four fixed workloads, four end-to-end metrics
//! measured with tracing off, and a traced pass that breaks each
//! workload down by layer from outside the crates it measures.
//!
//! [`run_workload`] is the whole of one measuring process; the
//! `qse-bench` binary wraps it in one child process per workload,
//! because `QSE_THREADS` and the FMA latch are read once per process and
//! peak memory must be per workload.

pub mod calibrate;
pub mod compare;
pub mod dense;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workload;

use calibrate::Calibrator;
use dense::{closed_form_bytes_exchanged, product_run};
use qse_statevec::reference::ReferenceState;
use report::Outcome;
use std::time::{Duration, Instant};
use workload::{Case, Workload};

/// How long a timed window lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start operations until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many operations (smoke sizes and the traced pass).
    Ops(u64),
}

/// Measures set-up: time since process start, less what the benchmark
/// spent computing its own reference answers.
#[derive(Debug, Clone, Copy)]
pub struct SetupClock {
    started: Instant,
    excluded: Duration,
}

impl SetupClock {
    /// A clock that started at `started` (take it first thing in `main`).
    pub fn since(started: Instant) -> Self {
        SetupClock {
            started,
            excluded: Duration::ZERO,
        }
    }

    /// Runs `f` off the clock.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    /// Seconds on the clock so far.
    pub fn elapsed_s(&self) -> f64 {
        (self.started.elapsed() - self.excluded).as_secs_f64()
    }
}

/// What one measuring process is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the untraced window.
    pub budget: Budget,
    /// Traced pass (per-layer metrics) instead of the untraced window
    /// (end-to-end metrics).
    pub traced: bool,
    /// Smoke sizes: small registers, seconds in total.
    pub smoke: bool,
    /// Stop after set-up and report `setup_s` only.
    pub setup_only: bool,
    /// Test hook: spoil the reference answers, so that every comparison
    /// against them must fail.
    pub corrupt_reference: bool,
}

impl RunOpts {
    /// The options `--smoke` selects: 3 iterations / 40 jobs.
    pub fn smoke(workload: Workload, seed: u64, traced: bool) -> Self {
        RunOpts {
            workload,
            seed,
            budget: Budget::Ops(if workload.is_serve() { 40 } else { 3 }),
            traced,
            smoke: true,
            setup_only: false,
            corrupt_reference: false,
        }
    }
}

/// Runs one workload in this process: the untraced window, or with
/// `opts.traced` the traced pass.
pub fn run_workload(opts: &RunOpts, clock: SetupClock) -> Result<Outcome, String> {
    if opts.traced {
        trace::traced_pass(opts)
    } else if opts.workload.is_serve() {
        end_to_end_serve(opts, clock)
    } else {
        end_to_end_dense(opts, clock)
    }
}

/// Compares a gathered state with the independent reference simulator
/// or, for the Hadamard benchmark, with the basis state an even number
/// of Hadamards on one qubit must return to.
fn check_against_reference(
    workload: Workload,
    case: &Case,
    state: &[qse_math::Complex64],
) -> Result<(), String> {
    let mut reference = ReferenceState::basis_state(case.circuit.n_qubits(), case.basis);
    if workload != Workload::Hadamard22Global {
        reference.run(&case.circuit);
    }
    let deviation = qse_math::approx::max_deviation(state, reference.amplitudes());
    let norm: f64 = state.iter().map(|a| a.norm_sqr()).sum();
    if deviation > 1e-9 {
        return Err(format!("max |Δamp| against the reference is {deviation:e}"));
    }
    if (norm - 1.0).abs() > 1e-9 {
        return Err(format!("norm is {norm}"));
    }
    Ok(())
}

fn end_to_end_dense(opts: &RunOpts, clock: SetupClock) -> Result<Outcome, String> {
    let case = workload::case(opts.workload, opts.seed, opts.smoke);
    let mut out = Outcome::new(opts);

    // Warm-up: first touch of the statevector pages, thread-pool
    // spin-up, lazy latches. Its outputs are what every timed iteration
    // must repeat bit for bit.
    let first = product_run(&case)?;
    let first_fnv = first
        .state_fnv()
        .map(|f| f ^ u64::from(opts.corrupt_reference));
    let first_counts = first.counts;
    drop(first.state);
    let setup_s = clock.elapsed_s();
    let cal = Calibrator::for_workload(opts.workload, opts.smoke);
    let mut before = cal.seconds();
    out.push("setup_s", cal.calibrated(setup_s, before, before));
    out.sample("setup_raw_s", &[setup_s]);
    if opts.setup_only {
        return Ok(out);
    }

    let want_bytes = closed_form_bytes_exchanged(&case) ^ u64::from(opts.corrupt_reference);
    let (mut raw, mut times, mut calibrations) = (Vec::new(), Vec::new(), vec![before]);
    let window = Instant::now();
    loop {
        let spent = match opts.budget {
            Budget::Ops(n) => raw.len() as u64 >= n,
            // Start an iteration only if one like the last still fits;
            // never fewer than three.
            Budget::Seconds(s) => {
                raw.len() >= 3 && window.elapsed().as_secs_f64() + raw[raw.len() - 1] > s
            }
        };
        if spent {
            break;
        }
        let run = product_run(&case)?;
        let repeats = run.state_fnv() == first_fnv && run.counts == first_counts;
        let (seconds, bytes) = (run.seconds, run.profiled.bytes_exchanged);
        // The gathered state goes before the calibration allocates, so
        // the peak stays the workload's own.
        drop(run);
        let after = cal.seconds();
        raw.push(seconds);
        times.push(cal.calibrated(seconds, before, after));
        calibrations.push(after);
        before = after;
        out.attempt(if !repeats {
            Err(format!(
                "iteration {}: state or histogram differs from the first",
                raw.len()
            ))
        } else if bytes != want_bytes {
            Err(format!(
                "iteration {}: bytes_exchanged is {bytes}, closed form {want_bytes}",
                raw.len()
            ))
        } else {
            Ok(())
        });
    }
    out.push("peak_rss_mib", host::peak_rss_mib());

    // Outside the window: one gathered state against the reference.
    let state = product_run(&Case {
        gather: true,
        ..case.clone()
    })?
    .state
    .ok_or("gathered run returned no state")?;
    let mut checked = check_against_reference(opts.workload, &case, &state);
    if opts.corrupt_reference && checked.is_ok() {
        checked = Err("reference deliberately spoiled".into());
    }
    out.attempt(checked);

    let ok = times.len() as f64;
    out.push("op_p50_s", stats::median(&times));
    out.push("ops_per_s", ok / times.iter().sum::<f64>());
    out.sample("op_s", &times);
    out.sample("op_raw_s", &raw);
    out.sample("calibration_s", &calibrations);
    out.host = Some(host::Fingerprint::measure());
    Ok(out)
}

fn end_to_end_serve(opts: &RunOpts, mut clock: SetupClock) -> Result<Outcome, String> {
    let mut out = Outcome::new(opts);
    let served = serve::run(opts, &mut clock)?;
    out.push("setup_s", served.setup_s);
    out.sample("setup_raw_s", &[served.setup_raw_s]);
    out.attempted = served.attempted;
    out.failed = served.failures.len() as u64;
    out.errored = served.errored;
    out.failures = served.failures;
    if opts.setup_only {
        return Ok(out);
    }
    let ok = || served.records.iter().filter(|r| r.reply.is_ok());
    let latencies: Vec<f64> = ok().map(|r| r.calibrated_s).collect();
    if latencies.is_empty() {
        return Err("no job of the window succeeded".into());
    }
    out.push("op_p50_s", stats::median(&latencies));
    out.push(
        "ops_per_s",
        latencies.len() as f64 / served.calibrated_window_s,
    );
    out.push("peak_rss_mib", served.peak_rss_mib);
    out.sample("op_s", &latencies);
    out.sample("op_raw_s", &ok().map(|r| r.latency_s).collect::<Vec<_>>());
    out.sample("calibration_s", &served.calibrations);
    out.host = Some(host::Fingerprint::measure());
    Ok(out)
}
