//! `qse-bench` — runs the ledger's workloads, one process each.
//!
//! ```text
//! qse-bench [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--trace-out <path>]
//! qse-bench all [--seed <u64>] [--seconds <n>] [--runs <k>] [--smoke] [--out <path>]
//! qse-bench compare <a.json> <b.json>
//! ```
//!
//! `run` is the benchmark contract's command: it prints every metric by
//! name with its unit and ends its standard output with one JSON line of
//! `correct`, `attempted`, `failed` and `metrics`. It measures in child
//! processes of this same binary — `QSE_THREADS` and the FMA latch are
//! read once per process, peak memory must be per workload, and set-up
//! can only be timed again by starting again.

use qse_ledger::ledger::report::{contract_line, render};
use qse_ledger::ledger::stats::median;
use qse_ledger::ledger::workload::Workload;
use qse_ledger::ledger::{compare, metrics, run_workload, Budget, RunOpts, SetupClock};
use qse_util::json::{Json, ToJson};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-up is measured again in extra processes that stop after set-up —
/// two at least, and up to eight while they have together taken under
/// three seconds, so a set-up of milliseconds is sampled more often than
/// one of seconds. `setup_s` is the median over them and the measuring
/// process.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 2..=8;
/// See [`SETUP_REPEATS`].
const SETUP_REPEAT_BUDGET_S: f64 = 3.0;

/// Kernel threads of every measuring process unless the environment
/// says otherwise: the two cores of the host the bounds were set on.
const DEFAULT_QSE_THREADS: &str = "2";

const USAGE: &str = "usage: qse-bench [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--trace-out <path>]
       qse-bench all [--seed <u64>] [--seconds <n>] [--runs <k>] [--smoke] [--out <path>]
       qse-bench compare <a.json> <b.json>
workloads: qft20_dense hadamard22_global serve_zipf_warm serve_unique_cold";

/// `--flag value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const BARE: [&'static str; 2] = ["--smoke", "--setup-only"];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = if Self::BARE.contains(&flag.as_str()) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                        .clone(),
                )
            };
            out.push((flag.clone(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number")),
        }
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seed = self.number("--seed", 1u64)?;
        let traced = match self.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is not 0 or 1")),
        };
        let seconds: f64 = self.number("--seconds", 10.0)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds: {seconds} is outside (0, 600]"));
        }
        Ok(if self.has("--smoke") {
            RunOpts::smoke(workload, seed, traced)
        } else {
            RunOpts {
                workload,
                seed,
                budget: Budget::Seconds(seconds),
                traced,
                smoke: false,
                setup_only: false,
                corrupt_reference: false,
            }
        })
    }
}

/// One measuring process: runs the workload here and prints its outcome
/// as the last line of standard output.
fn child(flags: &Flags, started: Instant) -> Result<(), String> {
    let mut opts = flags.run_opts()?;
    opts.setup_only = flags.has("--setup-only");
    let outcome = run_workload(&opts, SetupClock::since(started))?;
    if let Some(trace) = &outcome.trace {
        let path = match flags.get("--trace-out") {
            Some(p) => std::path::PathBuf::from(p),
            None => std::path::Path::new("target/qse-bench")
                .join(format!("{}-trace.json", opts.workload.name())),
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, trace.to_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.to_json().to_string());
    Ok(())
}

/// Starts this binary again as `child` with `args`, waits for it, and
/// parses the outcome it printed last.
fn spawn_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if std::env::var_os("QSE_THREADS").is_none() {
        cmd.env("QSE_THREADS", DEFAULT_QSE_THREADS);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a measuring process: {e}"))?;
    if !output.status.success() {
        return Err(format!("measuring process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("measuring process printed nothing")?;
    Json::parse(last).map_err(|e| format!("measuring process printed no outcome: {e}"))
}

fn metric_value(outcome: &Json, name: &str) -> Option<f64> {
    outcome.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Measures one workload: the measuring process, and for the untraced
/// window the extra set-up processes whose median replaces `setup_s`.
fn measure(args: &[String], traced: bool) -> Result<Json, String> {
    let mut outcome = spawn_child(args)?;
    if traced {
        return Ok(outcome);
    }
    let mut setups = vec![metric_value(&outcome, "setup_s").ok_or("outcome has no setup_s")?];
    let mut setup_args = args.to_vec();
    setup_args.push("--setup-only".into());
    let repeating = Instant::now();
    for i in 0..*SETUP_REPEATS.end() {
        if i >= *SETUP_REPEATS.start() && repeating.elapsed().as_secs_f64() > SETUP_REPEAT_BUDGET_S
        {
            break;
        }
        let only = spawn_child(&setup_args)?;
        setups.push(metric_value(&only, "setup_s").ok_or("set-up process reported no setup_s")?);
    }
    let Json::Obj(fields) = &mut outcome else {
        return Err("outcome is not an object".into());
    };
    let setup = fields
        .iter_mut()
        .find(|(key, _)| key == "metrics")
        .and_then(|(_, metrics)| match metrics {
            Json::Obj(metrics) => metrics.iter_mut().find(|(name, _)| name == "setup_s"),
            _ => None,
        })
        .ok_or("outcome has no setup_s")?;
    setup.1 = Json::object([
        ("value", median(&setups).to_json()),
        ("unit", "s".to_json()),
    ]);
    fields.push(("setup_samples_s".into(), setups.to_json()));
    Ok(outcome)
}

/// Checks an outcome carries exactly the metrics its pass must.
fn check_complete(outcome: &Json, traced: bool) -> Result<(), String> {
    let expected: &[metrics::MetricDef] = if traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    for m in expected {
        match metric_value(outcome, m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {} is {v}", m.name)),
            None => return Err(format!("metric {} is missing", m.name)),
        }
    }
    Ok(())
}

fn run(flags: &Flags, args: &[String]) -> Result<(), String> {
    let opts = flags.run_opts()?;
    let outcome = measure(args, opts.traced)?;
    check_complete(&outcome, opts.traced)?;
    print!("{}", render(&outcome));
    for why in outcome
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        eprintln!(
            "qse-bench: failed operation: {}",
            why.as_str().unwrap_or("?")
        );
    }
    println!("{}", contract_line(&outcome));
    Ok(())
}

/// Runs every workload `--runs` times, untraced and traced, and writes
/// one merged report: per workload and metric, the unit and the values
/// of all runs — the input of `compare`.
fn all(flags: &Flags) -> Result<(), String> {
    let seed = flags.number("--seed", 1u64)?;
    let seconds: f64 = flags.number("--seconds", 15.0)?;
    let runs: usize = flags.number("--runs", 1)?;
    let mut outcomes: Vec<Json> = Vec::new();
    for r in 0..runs {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let mut args: Vec<String> = vec![
                    "--workload".into(),
                    workload.name().into(),
                    "--seed".into(),
                    seed.to_string(),
                    "--seconds".into(),
                    seconds.to_string(),
                    "--trace".into(),
                    u8::from(traced).to_string(),
                ];
                if flags.has("--smoke") {
                    args.push("--smoke".into());
                }
                let outcome = measure(&args, traced)?;
                check_complete(&outcome, traced)?;
                eprint!("[run {}/{runs}] {}", r + 1, render(&outcome));
                outcomes.push(outcome);
            }
        }
    }
    let of = |workload: Workload, traced: bool| {
        outcomes.iter().filter(move |o| {
            o.get("workload").and_then(Json::as_str) == Some(workload.name())
                && o.get("traced").and_then(Json::as_bool) == Some(traced)
        })
    };
    let section = |workload: Workload, traced: bool, defs: &[metrics::MetricDef]| {
        Json::object(defs.iter().map(|m| {
            let values: Vec<f64> = of(workload, traced)
                .filter_map(|o| metric_value(o, m.name))
                .collect();
            (
                m.name,
                Json::object([("unit", m.unit.to_json()), ("values", values.to_json())]),
            )
        }))
    };
    let mut any_failed = false;
    let workloads = Workload::ALL.map(|workload| {
        let total = |key: &str| -> u64 {
            [false, true]
                .into_iter()
                .flat_map(|t| of(workload, t))
                .filter_map(|o| o.get(key)?.as_u64())
                .sum()
        };
        let (attempted, failed) = (total("attempted"), total("failed"));
        any_failed |= failed > 0;
        (
            workload.name(),
            Json::object([
                ("attempted", attempted.to_json()),
                ("failed", failed.to_json()),
                (
                    "failed_frac",
                    (failed as f64 / attempted.max(1) as f64).to_json(),
                ),
                ("end_to_end", section(workload, false, &metrics::END_TO_END)),
                ("per_layer", section(workload, true, &metrics::PER_LAYER)),
            ]),
        )
    });
    let report = Json::object([
        ("seed", seed.to_json()),
        ("runs", runs.to_json()),
        (
            "host",
            outcomes
                .last()
                .and_then(|o| o.get("host"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        ("workloads", Json::object(workloads)),
    ]);
    match flags.get("--out") {
        Some(path) => std::fs::write(path, report.pretty()).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{}", report.pretty()),
    }
    if any_failed {
        return Err("some operations failed; see failed_frac in the report".into());
    }
    Ok(())
}

fn compare_reports(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two report files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match compare::compare(&load(a)?, &load(b)?) {
        Err(why) => {
            eprintln!("warning: {why}");
            Ok(true)
        }
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            Ok(!rows.iter().any(|r| r.verdict == compare::Verdict::Breach))
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "compare" | "child")) => (c, &args[1..]),
        // The contract's command line carries no subcommand.
        _ => ("run", &args[..]),
    };
    let result = match command {
        "compare" => compare_reports(rest),
        _ => Flags::parse(rest)
            .and_then(|flags| match command {
                "child" => child(&flags, started),
                "all" => all(&flags),
                _ => run(&flags, rest),
            })
            .map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("qse-bench: {why}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
