//! What a measuring process reports, and the three renderings of it:
//! the JSON a child hands its supervisor, the table a person reads, and
//! the one-line result the benchmark contract ends every run with.

use super::host::Fingerprint;
use super::metrics;
use super::spans::Recorder;
use super::stats::{percentile, summarize, tail_percentile};
use super::workload::Workload;
use super::RunOpts;
use qse_util::json::{Json, ToJson};

/// The result of one workload in one process.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload measured.
    pub workload: Workload,
    /// Seed its inputs were generated from.
    pub seed: u64,
    /// Whether this is the traced pass (per-layer metrics).
    pub traced: bool,
    /// Named metrics, in the order measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample count and quartiles behind the timing metrics.
    pub samples: Vec<(&'static str, Json)>,
    /// Operations attempted: runs, jobs and reference checks.
    pub attempted: u64,
    /// Operations rejected, errored, timed out or wrong.
    pub failed: u64,
    /// How many of `failed` are typed execution errors a served job came
    /// back with, as opposed to wrong answers.
    pub errored: u64,
    /// Why, for each failed operation.
    pub failures: Vec<String>,
    /// Observations that are not failures: timing sanity bounds, shares.
    pub notes: Vec<String>,
    /// The host, once measured (after the window, so its buffers do not
    /// count into peak memory).
    pub host: Option<Fingerprint>,
    /// The traced pass's spans.
    pub trace: Option<Recorder>,
}

impl Outcome {
    /// An empty outcome for `opts`.
    pub fn new(opts: &RunOpts) -> Self {
        Outcome {
            workload: opts.workload,
            seed: opts.seed,
            traced: opts.traced,
            metrics: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            errored: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            host: None,
            trace: None,
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    /// Panics on a name the registry does not define — a typo in the
    /// benchmark, not a condition of the run.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::find(name).is_some(),
            "metric `{name}` is not in the registry"
        );
        self.metrics.push((name, value));
    }

    /// Counts one operation, failed if `result` is an error.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Records the sample count, quartiles and — where the count
    /// supports one — tail percentile behind a timing.
    pub fn sample(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        let tail = tail_percentile(s.n);
        self.samples.push((
            name,
            Json::object([
                ("n", s.n.to_json()),
                ("q1", s.q1.to_json()),
                ("median", s.median.to_json()),
                ("q3", s.q3.to_json()),
                ("tail_percentile", tail.to_json()),
                ("tail", tail.map(|p| percentile(samples, p)).to_json()),
            ]),
        ));
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Whether the run's outputs are correct: no wrong answer and no
    /// failed check at all, and at most one served job in a thousand
    /// answered with a typed error. The tolerance exists because the
    /// runtime deadlock detector is known to condemn a healthy run now
    /// and then under CPU contention (ROADMAP item 4a; seen once in some
    /// 70 000 `serve_unique_cold` jobs): such a job is counted in
    /// `failed`, but one of them must not fail a whole run — and with it
    /// whatever change happened to be under test.
    pub fn correct(&self) -> bool {
        self.failed == self.errored && self.errored * 1000 <= self.attempted
    }
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            (
                name,
                Json::object([("value", value.to_json()), ("unit", unit.to_json())]),
            )
        });
        Json::object([
            ("workload", self.workload.name().to_json()),
            ("seed", self.seed.to_json()),
            ("traced", self.traced.to_json()),
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::object(metrics)),
            ("samples", Json::object(self.samples.iter().cloned())),
            ("failures", self.failures.to_json()),
            ("notes", self.notes.to_json()),
            ("host", self.host.as_ref().map(ToJson::to_json).to_json()),
        ])
    }
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`, taken from an outcome document.
pub fn contract_line(outcome: &Json) -> String {
    let keys = ["correct", "attempted", "failed", "metrics"];
    Json::object(keys.map(|k| (k, outcome.get(k).cloned().unwrap_or(Json::Null)))).to_string()
}

/// A table of an outcome document for people: every metric by name with
/// its value and unit, then samples, notes and failures.
pub fn render(outcome: &Json) -> String {
    let text = |k: &str| {
        outcome
            .get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let number = |k: &str| outcome.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut out = format!(
        "{} (seed {}, {}): {} attempted, {} failed\n",
        text("workload"),
        number("seed"),
        if outcome.get("traced").and_then(Json::as_bool) == Some(true) {
            "traced pass"
        } else {
            "untraced window"
        },
        number("attempted"),
        number("failed"),
    );
    for (name, m) in outcome.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        out += &format!("  {name:<38} {value:>16.6e} {unit}\n");
    }
    for (name, s) in outcome.get("samples").and_then(Json::as_obj).unwrap_or(&[]) {
        out += &format!("  samples {name}: {}\n", s.to_string());
    }
    if let Some(host) = outcome.get("host").filter(|h| **h != Json::Null) {
        out += &format!("  host: {}\n", host.to_string());
    }
    for key in ["notes", "failures"] {
        for line in outcome.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            out += &format!(
                "  {}: {}\n",
                &key[..key.len() - 1],
                line.as_str().unwrap_or("?")
            );
        }
    }
    out
}
