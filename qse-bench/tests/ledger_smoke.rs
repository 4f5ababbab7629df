//! Runs every workload at smoke size in this process, both passes, and
//! holds the ledger to its own rules: every named metric present and
//! finite, counts exact for a seed, parts summing to the wall-clock, and
//! a spoiled reference showing up as failed operations.

use qse_ledger::ledger::metrics::{MetricDef, END_TO_END, PER_LAYER};
use qse_ledger::ledger::report::{contract_line, Outcome};
use qse_ledger::ledger::workload::{case, Workload};
use qse_ledger::ledger::{run_workload, RunOpts, SetupClock};
use qse_util::json::{Json, ToJson};
use std::time::Instant;

fn run(opts: RunOpts) -> Outcome {
    run_workload(&opts, SetupClock::since(Instant::now())).expect("smoke run completes")
}

fn assert_complete(out: &Outcome, expected: &[MetricDef]) {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.name).collect();
    let mut sorted = (names.clone(), want.clone());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    assert_eq!(sorted.0, sorted.1, "{}: metric names", out.workload.name());
    for &(name, value) in &out.metrics {
        assert!(
            value.is_finite(),
            "{}: {name} is {value}",
            out.workload.name()
        );
    }
    assert_eq!(out.failed, 0, "{}: {:?}", out.workload.name(), out.failures);
    assert!(out.attempted >= 1);
}

/// Per-layer metrics that must repeat exactly for a seed: counts, bytes
/// and the modeled golden numbers — but not the host's description, nor
/// the tallies that depend on how two racing clients happened to batch.
fn exact(m: &MetricDef) -> bool {
    const TIMING_DEPENDENT: [&str; 4] = [
        "serve.cache_evictions",
        "serve.executions",
        "serve.batched_jobs",
        "serve.max_batch",
    ];
    let counted = matches!(m.unit, "count" | "B" | "modeled_s" | "modeled_J")
        || m.name == "serve.cache_hit_ratio";
    counted && !m.name.starts_with("host.") && !TIMING_DEPENDENT.contains(&m.name)
}

#[test]
fn untraced_window_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let out = run(RunOpts::smoke(workload, 11, false));
        assert_complete(&out, &END_TO_END);
        assert!(
            out.metrics.iter().all(|&(_, v)| v > 0.0),
            "end-to-end metrics are never 0"
        );
        // The contract's last line: exactly four keys, every metric with
        // its value and its unit.
        let line = Json::parse(&contract_line(&out.to_json())).expect("contract line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for m in &END_TO_END {
            let entry = line
                .get("metrics")
                .and_then(|x| x.get(m.name))
                .expect("metric in contract line");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
        }
    }
}

#[test]
fn traced_pass_counts_repeat_for_a_seed_and_parts_sum_to_the_wall() {
    for workload in Workload::ALL {
        let a = run(RunOpts::smoke(workload, 11, true));
        let b = run(RunOpts::smoke(workload, 11, true));
        let c = run(RunOpts::smoke(workload, 12, true));
        for out in [&a, &b, &c] {
            assert_complete(out, &PER_LAYER);
            let unattributed = out.get("trace.unattributed_frac").unwrap();
            assert!(
                unattributed <= 0.10,
                "{}: unattributed {unattributed}",
                workload.name()
            );
            assert!(out.trace.as_ref().is_some_and(|t| !t.spans().is_empty()));
        }
        for m in PER_LAYER.iter().filter(|m| exact(m)) {
            assert_eq!(
                a.get(m.name),
                b.get(m.name),
                "{}: {} must repeat exactly",
                workload.name(),
                m.name
            );
        }
        // Another seed: other inputs, same schema.
        let (x, y) = (case(workload, 11, true), case(workload, 12, true));
        assert!(
            (&x.circuit, x.basis, x.shot_seed) != (&y.circuit, y.basis, y.shot_seed),
            "{}: seed must change the inputs",
            workload.name()
        );
        let names = |o: &Outcome| o.metrics.iter().map(|m| m.0).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&c));
    }
}

#[test]
fn a_spoiled_reference_counts_as_failed_operations() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = run(RunOpts {
                corrupt_reference: true,
                ..RunOpts::smoke(workload, 11, traced)
            });
            assert!(
                out.failed > 0 && !out.correct(),
                "{} traced={traced}",
                workload.name()
            );
            assert!(out.failed <= out.attempted);
        }
    }
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate"))
        .unwrap();
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .to_vec()
    };
    let text = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}"))
            .to_owned()
    };

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (j, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(
            (text(j, "name"), text(j, "why")),
            (w.name().to_owned(), w.why().to_owned())
        );
    }
    for (key, defs, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (j, m) in listed.iter().zip(defs) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(j, "better"), m.better.label(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                bounded.then_some(m.bound),
                "{}",
                m.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}
