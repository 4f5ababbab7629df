//! `qse-bench compare <a.json> <b.json>`: two reports written by
//! `qse-bench all`, side by side, against the benchmark's own bounds.
//!
//! One row per workload × end-to-end metric: both medians, the relative
//! change in the metric's worse direction, and a verdict. A pair whose
//! own run-to-run spread (interquartile distance over median, either
//! side) exceeds the bound is `unresolved`, never `ok`; a change for
//! the worse beyond the bound is a `BREACH` and makes the exit code
//! nonzero. Reports from different hosts are not compared at all.

use super::metrics::{Better, END_TO_END};
use super::stats::summarize;
use super::workload::Workload;
use qse_util::json::Json;

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is small enough to say so.
    Ok,
    /// The runs disagree with themselves by more than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Breach,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Median of report A's runs.
    pub a: f64,
    /// Median of report B's runs.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The larger of the two reports' spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn values(report: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("report has no values for {workload} / {metric}"))
}

/// The host fields two reports must share to be comparable; the memcpy
/// ceiling may differ by a fifth, the rest must be equal.
fn host_difference(a: &Json, b: &Json) -> Option<String> {
    let (ha, hb) = (a.get("host")?, b.get("host")?);
    for key in ["nproc", "qse_threads", "fma"] {
        if ha.get(key) != hb.get(key) {
            return Some(format!(
                "{key} differs: {:?} vs {:?}",
                ha.get(key),
                hb.get(key)
            ));
        }
    }
    let ceiling = |h: &Json| h.get("memcpy_gib_s").and_then(Json::as_f64);
    match (ceiling(ha), ceiling(hb)) {
        (Some(x), Some(y)) if (x / y - 1.0).abs() > 0.20 => {
            Some(format!("memcpy ceiling differs: {x:.1} vs {y:.1} GiB/s"))
        }
        _ => None,
    }
}

/// Compares report `b` (the change) with report `a` (the parent).
/// `Err` carries the reason the two cannot be compared.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    if let Some(why) = host_difference(a, b) {
        return Err(format!("host fingerprints differ, not comparing: {why}"));
    }
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let sa = summarize(&values(a, workload.name(), metric.name)?);
            let sb = summarize(&values(b, workload.name(), metric.name)?);
            let change = (sb.median - sa.median) / sa.median;
            let worse_by = match metric.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = sa.spread().max(sb.spread());
            let verdict = if worse_by > metric.bound {
                Verdict::Breach
            } else if spread > metric.bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.name(),
                metric: metric.name,
                a: sa.median,
                b: sb.median,
                worse_by,
                spread,
                bound: metric.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<13} {:>13} {:>13} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Breach => "BREACH",
        };
        out += &format!(
            "{:<18} {:<13} {:>13.6} {:>13.6} {:>8.2}% {:>7.2}% {:>5.0}%  {verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_util::json::ToJson;

    /// A report in which every metric of every workload reads `values`,
    /// except `op_p50_s` of `qft20_dense`, which reads `special`.
    fn report(values: &[f64], special: &[f64], nproc: u64) -> Json {
        let workloads = Workload::ALL.map(|w| {
            let metrics = END_TO_END.map(|m| {
                let v = if w == Workload::Qft20Dense && m.name == "op_p50_s" {
                    special
                } else {
                    values
                };
                (
                    m.name,
                    Json::object([("unit", m.unit.to_json()), ("values", v.to_json())]),
                )
            });
            (
                w.name(),
                Json::object([("end_to_end", Json::object(metrics))]),
            )
        });
        Json::object([
            (
                "host",
                Json::object([("nproc", nproc.to_json()), ("memcpy_gib_s", 20.0.to_json())]),
            ),
            ("workloads", Json::object(workloads)),
        ])
    }

    fn row<'a>(rows: &'a [Row], workload: &str, metric: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap()
    }

    #[test]
    fn identical_reports_are_ok_everywhere() {
        let r = report(&[1.0, 1.01, 0.99], &[1.0, 1.01, 0.99], 2);
        let rows = compare(&r, &r).unwrap();
        assert_eq!(rows.len(), Workload::ALL.len() * END_TO_END.len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_a_breach_and_a_speedup_is_not() {
        let base = report(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], 2);
        let slow = report(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0], 2);
        let rows = compare(&base, &slow).unwrap();
        assert_eq!(
            row(&rows, "qft20_dense", "op_p50_s").verdict,
            Verdict::Breach
        );
        assert_eq!(row(&rows, "qft20_dense", "setup_s").verdict, Verdict::Ok);
        let rows = compare(&slow, &base).unwrap();
        assert_eq!(row(&rows, "qft20_dense", "op_p50_s").verdict, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let base = report(&[10.0; 3], &[1.0; 3], 2);
        let fewer = report(&[5.0; 3], &[1.0; 3], 2);
        let rows = compare(&base, &fewer).unwrap();
        let r = row(&rows, "serve_zipf_warm", "ops_per_s");
        assert!((r.worse_by - 0.5).abs() < 1e-12 && r.verdict == Verdict::Breach);
        // The same drop in a lower-is-better metric is an improvement.
        assert_eq!(
            row(&rows, "serve_zipf_warm", "peak_rss_mib").verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_ok() {
        let base = report(&[1.0; 3], &[0.5, 1.0, 1.5], 2);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(
            row(&rows, "qft20_dense", "op_p50_s").verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn different_hosts_are_not_compared() {
        let a = report(&[1.0; 3], &[1.0; 3], 2);
        let b = report(&[1.0; 3], &[1.0; 3], 8);
        assert!(compare(&a, &b).unwrap_err().contains("nproc"));
    }
}
