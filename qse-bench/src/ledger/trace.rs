//! The traced pass: a shortened workload re-run with a span around every
//! call into a layer, plus one probe per layer, giving all per-layer
//! metrics. Counts are fixed ([`trace_sizes`]), so every count reported
//! repeats exactly for a seed; end-to-end metrics never come from here.

use super::dense::{prepared_run, traced_run, DenseRun, GATE_DISTRIBUTED, GATE_LOCAL};
use super::host::Fingerprint;
use super::probes::{self, median_of, time};
use super::report::Outcome;
use super::serve::{self, JobRecord};
use super::spans::Recorder;
use super::stats::{median, percentile};
use super::workload::{self, sparse_entry, stabilizer_entry, trace_sizes, Case, TraceSizes};
use super::{Budget, RunOpts, SetupClock};
use qse_circuit::hash::canonical_hash;
use qse_circuit::qft::qft;
use qse_circuit::transpile::Plan;
use qse_comm::TrafficStats;
use qse_core::{comm_avoid_plan, ModelExecutor, SimConfig, ThreadClusterExecutor};
use qse_math::Complex64;
use qse_serve::protocol::state_fingerprint;
use qse_serve::{ServeConfig, Server, StatsSnapshot};
use qse_statevec::SparseState;
use std::time::Instant;

const GIB: f64 = (1u64 << 30) as f64;

/// The modeled runtime and energy of QFT-38 on 64 standard nodes at
/// medium frequency. A change that only makes the simulator faster must
/// leave the calibrated ARCHER2 model's answers identical, to the bit.
const GOLDEN_QFT38_RUNTIME_S: f64 = 220.20518002817954;
/// See [`GOLDEN_QFT38_RUNTIME_S`].
const GOLDEN_QFT38_ENERGY_J: f64 = 5703514.797237339;

/// Repeats of each prepare-side call (hash, transpile, verify, prepare,
/// model): milliseconds each at most, and the median is reported.
const PREPARE_REPS: usize = 5;

/// Runs the traced pass of `opts.workload`.
pub fn traced_pass(opts: &RunOpts) -> Result<Outcome, String> {
    let sizes = trace_sizes(opts.workload, opts.smoke);
    let case = workload::case(opts.workload, opts.seed, opts.smoke);
    let mut out = Outcome::new(opts);
    let mut rec = Recorder::new();

    let plan = prepare_side(&case, &mut rec, &mut out)?;
    let direct = executions(&case, plan.as_ref(), sizes, opts, &mut rec, &mut out)?;
    layer_probes(&case, opts.smoke, &mut out);
    serve_side(&case, &direct, opts, sizes, &mut rec, &mut out)?;

    let host = Fingerprint::measure();
    out.push("host.memcpy_gib_s", host.memcpy_gib_s);
    out.push("host.nproc", host.nproc as f64);
    out.push("host.qse_threads", host.qse_threads as f64);
    out.host = Some(host);
    out.trace = Some(rec);
    Ok(out)
}

/// `qse-circuit`, `qse-check`, `qse-machine` and `qse-core::prepare`:
/// everything a cache miss pays before execution, each call under its
/// own span. Returns the plan the executions below run.
fn prepare_side(
    case: &Case,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<Option<Plan>, String> {
    let (circuit, cfg) = (&case.circuit, &case.cfg);
    let plan = comm_avoid_plan(circuit, cfg);
    let machine = qse_machine::archer2();
    let model = ModelExecutor::new(&machine);
    for i in 0..PREPARE_REPS {
        rec.set_run(i as u32);
        rec.span("canonical_hash", None, || {
            canonical_hash(circuit, cfg.n_ranks, 0)
        });
        rec.span("transpile", None, || comm_avoid_plan(circuit, cfg));
        rec.span("verify", None, || {
            ThreadClusterExecutor::verify_plan_checked(circuit, cfg, plan.as_ref())
        })
        .map_err(|e| e.to_string())?;
        rec.span("prepare", None, || {
            ThreadClusterExecutor::prepare(circuit, cfg)
        })
        .map_err(|e| e.to_string())?;
        rec.span("model_eval", None, || model.run(circuit, cfg));
    }
    let p50 = |name: &str| median(&rec.durations(name));
    let (transpile, verify, prepare) = (p50("transpile"), p50("verify"), p50("prepare"));
    out.push("circuit.canonical_hash_s", p50("canonical_hash"));
    out.push("circuit.transpile_s", transpile);
    out.push(
        "circuit.plan_steps",
        plan.as_ref().map_or(circuit.len(), |p| p.steps.len()) as f64,
    );
    out.push(
        "circuit.plan_permutes",
        plan.as_ref().map_or(0, Plan::permute_count) as f64,
    );
    out.push("check.verify_s", verify);
    out.push("core.prepare_s", prepare);
    out.push("machine.model_eval_s", p50("model_eval"));
    if plan.is_some() && ((transpile + verify) / prepare - 1.0).abs() > 0.10 {
        out.notes.push(format!(
            "transpile + verify = {:.3e} s is not within 10% of prepare = {prepare:.3e} s",
            transpile + verify
        ));
    }

    let golden = model.run(&qft(38), &SimConfig::default_for(64));
    out.push("machine.model_qft38_runtime_s", golden.runtime_s);
    out.push("machine.model_qft38_energy_j", golden.total_energy_j());
    let exact = golden.runtime_s == GOLDEN_QFT38_RUNTIME_S
        && golden.total_energy_j() == GOLDEN_QFT38_ENERGY_J;
    out.attempt(exact.then_some(()).ok_or_else(|| {
        format!(
            "modeled QFT-38 is {:?} s / {:?} J, golden {GOLDEN_QFT38_RUNTIME_S:?} s / {GOLDEN_QFT38_ENERGY_J:?} J",
            golden.runtime_s,
            golden.total_energy_j()
        )
    }));
    Ok(plan)
}

/// What the executions of the case established: the answer served jobs
/// must reproduce bit for bit, and the direct-call time serve's latency
/// is held against.
struct Direct {
    /// Fingerprint of the gathered state after the case's circuit.
    state_fnv: u64,
    /// Seconds of a gathered and sampled direct run: the untraced
    /// median where the workload gathers, else the untraced median plus
    /// the traced gather and sample.
    gathered_op_s: f64,
}

/// `qse-core`, `qse-comm` and `qse-statevec::dist`: the prepared plan
/// through `try_run_prepared`, timed from outside with the executor's
/// own profile beside it, alternating with the benchmark's own rank
/// closure, one span per step — so host drift falls on both alike.
/// Reports the paper's Table 1 split, local against distributed
/// per-gate time, and how much of a run no span accounts for.
fn executions(
    case: &Case,
    plan: Option<&Plan>,
    sizes: TraceSizes,
    opts: &RunOpts,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<Direct, String> {
    // One untimed gathered run first: it touches the pages and spins the
    // pool up, and its state is what every later run must reproduce.
    let state_fnv = prepared_run(
        &Case {
            gather: true,
            ..case.clone()
        },
        plan,
    )?
    .state_fnv()
    .ok_or("gathered run returned no state")?;
    let want = state_fnv ^ u64::from(opts.corrupt_reference);
    let same_state = |state: Option<&[Complex64]>, what: &str| match state {
        Some(amps) if state_fingerprint(amps) != want => {
            Err(format!("{what}: state differs from the reference run's"))
        }
        _ => Ok(()),
    };

    let first_span = rec.spans().len();
    let mut direct: Vec<DenseRun> = Vec::new();
    let mut walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut traffic = TrafficStats::default();
    // Where the workload does not gather, one extra gathered traced run
    // gives `gather_s` and `sample_s` and a state to check.
    let extra = usize::from(!case.gather);
    for i in 0..sizes.untraced.max(sizes.traced + extra) {
        if i < sizes.untraced {
            let run = prepared_run(case, plan)?;
            out.attempt(same_state(run.state.as_deref(), "untraced run"));
            direct.push(run);
        }
        if i < sizes.traced + extra {
            rec.set_run(i as u32);
            let gather = case.gather || i == sizes.traced;
            let run = traced_run(case, plan, gather, rec)?;
            out.attempt(same_state(run.state.as_deref(), "traced run"));
            if i < sizes.traced {
                let wall = rec.spans()[run.top].seconds();
                unattributed.push((rec.self_seconds(run.top) + rec.self_seconds(run.rank0)) / wall);
                walls.push(wall);
            }
            traffic = run.traffic;
        }
    }

    let p50 = |f: &dyn Fn(&DenseRun) -> f64| median(&direct.iter().map(f).collect::<Vec<_>>());
    let direct_op_s = p50(&|r| r.seconds);
    out.push("core.execute_s", p50(&|r| r.execute_s));
    out.push(
        "core.execute_overhead_s",
        p50(&|r| r.execute_s - r.profiled.wall_s),
    );
    out.push(
        "core.profile_local_s",
        p50(&|r| r.profiled.profile.fully_local_s + r.profiled.profile.local_memory_s),
    );
    out.push(
        "core.profile_distributed_s",
        p50(&|r| r.profiled.profile.distributed_s),
    );
    let counters = &direct[0].profiled;
    out.push("comm.bytes_exchanged", counters.bytes_exchanged as f64);
    out.push("comm.messages_sent", counters.messages_sent as f64);
    out.push("comm.exchange_chunks", counters.exchange_chunks as f64);
    out.push(
        "comm.peak_inflight_bytes",
        counters.peak_inflight_bytes as f64,
    );
    let exact = direct.iter().all(|r| {
        (
            r.profiled.bytes_exchanged,
            r.profiled.messages_sent,
            r.counts.as_ref(),
        ) == (
            counters.bytes_exchanged,
            counters.messages_sent,
            direct[0].counts.as_ref(),
        )
    }) && traffic.bytes_exchanged == counters.bytes_exchanged;
    out.attempt(
        exact
            .then_some(())
            .ok_or_else(|| "counts differ between runs of one case".to_owned()),
    );

    let spans = &rec.spans()[first_span..];
    let on_rank0 = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.name == name && s.rank.unwrap_or(0) == 0)
    };
    // Rank 0's chain, summed per run; per-gate times as the slower rank's.
    let per_run = |name: &'static str| -> Vec<f64> {
        (0..sizes.traced as u32)
            .map(|run| {
                on_rank0(name)
                    .filter(|s| s.run_id == run)
                    .fold(0.0, |sum, s| sum + s.seconds())
            })
            .collect()
    };
    let gate_p50 = |name: &'static str| -> f64 {
        let mut slowest: Vec<f64> = on_rank0(name).map(|s| s.seconds()).collect();
        for rank in 1..case.cfg.n_ranks as u32 {
            let peers = spans
                .iter()
                .filter(|s| s.name == name && s.rank == Some(rank));
            for (t, s) in slowest.iter_mut().zip(peers) {
                *t = t.max(s.seconds());
            }
        }
        if slowest.is_empty() {
            0.0
        } else {
            median(&slowest)
        }
    };
    let gates_per_run = |name: &'static str| on_rank0(name).filter(|s| s.run_id == 0).count();
    let anywhere =
        |name: &'static str| median(&on_rank0(name).map(|s| s.seconds()).collect::<Vec<_>>());

    let local = median(&per_run(GATE_LOCAL));
    let distributed = median(&per_run(GATE_DISTRIBUTED));
    let distributed_gates = gates_per_run(GATE_DISTRIBUTED);
    let distributed_p50 = gate_p50(GATE_DISTRIBUTED);
    out.push("statevec.dist_init_s", median(&per_run("dist_init")));
    out.push("statevec.dist_local_s", local);
    out.push(
        "statevec.dist_local_gates",
        gates_per_run(GATE_LOCAL) as f64,
    );
    out.push("statevec.dist_local_gate_p50_s", gate_p50(GATE_LOCAL));
    out.push("statevec.dist_distributed_s", distributed);
    out.push("statevec.dist_distributed_gates", distributed_gates as f64);
    out.push("statevec.dist_distributed_gate_p50_s", distributed_p50);
    // Bytes as computed: what one rank sends per distributed step.
    let bytes_per_step =
        traffic.bytes_exchanged as f64 / case.cfg.n_ranks as f64 / distributed_gates.max(1) as f64;
    out.push(
        "statevec.dist_exchange_gib_s",
        if distributed_p50 > 0.0 {
            bytes_per_step / distributed_p50 / GIB
        } else {
            0.0
        },
    );
    let (gather_s, sample_s) = (anywhere("gather"), anywhere("sample"));
    out.push("statevec.gather_s", gather_s);
    out.push("statevec.sample_s", sample_s);

    let wall = median(&walls);
    out.push("trace.unattributed_frac", median(&unattributed));
    out.push("trace.overhead_frac", (wall - direct_op_s) / direct_op_s);
    out.sample(
        "untraced_run_s",
        &direct.iter().map(|r| r.seconds).collect::<Vec<_>>(),
    );
    out.sample("traced_run_s", &walls);
    out.notes.push(format!(
        "shares of the traced run: local gates {:.3}, distributed gates {:.3}",
        local / wall,
        distributed / wall
    ));
    for name in ["trace.unattributed_frac", "trace.overhead_frac"] {
        if out.get(name).is_some_and(|v| v > 0.10) {
            out.notes.push(format!("{name} is above 0.10"));
        }
    }
    Ok(Direct {
        state_fnv,
        gathered_op_s: direct_op_s
            + if case.gather {
                0.0
            } else {
                gather_s + sample_s
            },
    })
}

/// One probe per remaining layer, on the case's shapes.
fn layer_probes(case: &Case, smoke: bool, out: &mut Outcome) {
    let n = case.circuit.n_qubits();
    let ranks = case.cfg.n_ranks as usize;
    out.push("util.pool_dispatch_s", probes::pool_dispatch_s());
    out.push("util.mailbox_roundtrip_s", probes::mailbox_roundtrip_s());
    out.push("comm.universe_spinup_s", probes::universe_spinup_s(ranks));
    out.push("comm.barrier_s", probes::barrier_s(ranks));
    out.push("comm.pingpong_64b_s", probes::pingpong_64b_s());
    let slice = case.slice_bytes() as usize;
    out.push(
        "comm.exchange_blocking_gib_s",
        probes::exchange_gib_s(slice, false),
    );
    out.push(
        "comm.exchange_nonblocking_gib_s",
        probes::exchange_gib_s(slice, true),
    );
    let [h, cphase, swap] = probes::sweep_gates(n);
    out.push(
        "statevec.h_sweep_amps_per_s",
        probes::sweep_amps_per_s(n, &h),
    );
    out.push(
        "statevec.cphase_sweep_amps_per_s",
        probes::sweep_amps_per_s(n, &cphase),
    );
    out.push(
        "statevec.swap_sweep_amps_per_s",
        probes::sweep_amps_per_s(n, &swap),
    );
    out.push(
        "statevec.single_fused_run_s",
        probes::single_run_s(case, true, 3),
    );
    out.push(
        "statevec.single_unfused_run_s",
        probes::single_run_s(case, false, 3),
    );
    let ghz_n = if smoke { 12 } else { 20 };
    let sparse = sparse_entry(ghz_n).circuit;
    out.push(
        "statevec.sparse_run_s",
        median_of(9, || time(|| SparseState::simulate(&sparse))),
    );
    let clifford = stabilizer_entry(ghz_n).circuit;
    out.push(
        "stabilizer.run_s",
        median_of(9, || time(|| qse_stabilizer::Tableau::run(&clifford))),
    );
}

/// Adds `job` → `submit` spans for served jobs.
fn job_spans(records: &[JobRecord], first_run: u32, rec: &mut Recorder) {
    for (i, r) in records.iter().enumerate() {
        rec.set_run(first_run + i as u32);
        let job = rec.record("job", None, r.submitted_at, r.latency_s);
        rec.record("submit", Some(job), r.submitted_at, r.submit_s);
    }
}

/// `qse-serve`, from outside: a probe server that takes the case and
/// one job per other engine from a single client — serve's latency per
/// engine and its self time over a direct call — and, for the serve
/// workloads, the shortened window whose `Server::stats()` give the
/// cache and batching counts.
fn serve_side(
    case: &Case,
    direct: &Direct,
    opts: &RunOpts,
    sizes: TraceSizes,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let ghz_n = if opts.smoke { 12 } else { 20 };
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut probe: Vec<JobRecord> = Vec::new();
    let mut warm_p50 =
        |label: &str, spec: &dyn Fn(String) -> qse_serve::JobSpec, want_fnv: Option<u64>| {
            let first = probe.len();
            // One cold job fills the cache; the warm ones are measured.
            for j in 0..=sizes.probe_jobs {
                serve::submit_burst(
                    &server,
                    vec![(0, spec(format!("probe-{label}-{j}")))],
                    &mut probe,
                );
            }
            for r in &probe[first..] {
                out.attempt(match &r.reply {
                    Err(e) => Err(e.to_string()),
                    Ok(reply) if reply.engine != label => {
                        Err(format!("probe job ran on {}, not {label}", reply.engine))
                    }
                    Ok(reply) if want_fnv.is_some_and(|f| f != reply.state_fnv) => {
                        Err(format!("served {label} state differs from the direct run"))
                    }
                    Ok(_) => Ok(()),
                });
            }
            median(
                &probe[first + 1..]
                    .iter()
                    .map(|r| r.latency_s)
                    .collect::<Vec<_>>(),
            )
        };
    // The server runs the canonical form of what it is sent. A serve
    // workload's case already is canonical, so the served state must
    // equal the direct run's bit for bit; a dense workload's is not.
    let want = opts
        .workload
        .is_serve()
        .then_some(direct.state_fnv ^ u64::from(opts.corrupt_reference));
    let dense_p50 = warm_p50("dense", &|id| case.spec(id), want);
    let sparse = sparse_entry(ghz_n);
    let sparse_p50 = warm_p50("sparse", &|id| sparse.spec(id, opts.seed), None);
    let stabilizer = stabilizer_entry(ghz_n);
    let stabilizer_p50 = warm_p50("stabilizer", &|id| stabilizer.spec(id, opts.seed), None);
    let probe_stats = server.stats();
    server.shutdown();
    job_spans(&probe, 0, rec);
    out.push("serve.latency_p50_s.dense", dense_p50);
    out.push("serve.latency_p50_s.sparse", sparse_p50);
    out.push("serve.latency_p50_s.stabilizer", stabilizer_p50);
    out.push("serve.overhead_s", dense_p50 - direct.gathered_op_s);

    // Counts and the latency tail: the workload's own window on the
    // serve workloads, the probe server's on the dense ones.
    let (records, (hits, misses), stats): (Vec<JobRecord>, (u64, u64), StatsSnapshot) =
        if opts.workload.is_serve() {
            let served = serve::run(
                &RunOpts {
                    budget: Budget::Ops(sizes.serve_jobs),
                    ..*opts
                },
                &mut SetupClock::since(Instant::now()),
            )?;
            out.attempted += served.attempted;
            out.failed += served.failures.len() as u64;
            out.errored += served.errored;
            out.failures.extend(served.failures);
            job_spans(&served.records, probe.len() as u32, rec);
            let hit_miss = serve::hits_and_misses(served.warm.iter().chain(&served.records));
            (served.records, hit_miss, served.stats)
        } else {
            let hit_miss = serve::hits_and_misses(&probe);
            (probe, hit_miss, probe_stats)
        };
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    let submits: Vec<f64> = records.iter().map(|r| r.submit_s).collect();
    out.push("serve.submit_s", median(&submits));
    out.push("serve.latency_p95_s", percentile(&latencies, 95.0));
    out.sample("serve_latency_s", &latencies);
    out.push("serve.cache_hits", hits as f64);
    out.push("serve.cache_misses", misses as f64);
    out.push(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.push(
        "serve.rejected",
        (stats.rejected_over_budget + stats.rejected_queue_full) as f64,
    );
    out.push("serve.cache_evictions", stats.cache.evictions as f64);
    out.push("serve.executions", stats.executions as f64);
    out.push("serve.batched_jobs", stats.batched_jobs as f64);
    out.push("serve.max_batch", stats.max_batch as f64);
    Ok(())
}
