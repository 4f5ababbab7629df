//! The CLI subcommands.

use crate::args::{ArgError, Args};
use qse_check::{Ctl, Explorer};
use qse_circuit::classify::{EngineChoice, GateClass, Layout};
use qse_circuit::lower::{circuit_traffic, GateTraffic};
use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_circuit::transpile::cache_blocking::cache_block;
use qse_circuit::{named, Circuit, MAX_QUBITS};
use qse_comm::chunking::ExchangeMode;
use qse_core::experiment::{fmt_seconds, TextTable};
use qse_core::scaling::nodes_for;
use qse_core::{
    check_ranks, check_width, EngineError, EngineExecutor, EngineMode, EngineState, ModelExecutor,
    SimConfig, ThreadClusterExecutor, TranspileMode, PASS_LOCAL_QUBITS,
};
use qse_machine::energy::{format_energy, joules_to_kwh};
use qse_machine::memory::statevector_bytes;
use qse_machine::trace::SacctRecord;
use qse_machine::variants::gpu_machine;
use qse_machine::{archer2, CpuFrequency, NodeKind};

/// Runs the parsed command, returning the text to print.
pub fn dispatch(args: &Args) -> Result<String, ArgError> {
    match args.command.as_str() {
        "help" => Ok(help_text()),
        "info" => info(args),
        "run" => run(args),
        "model" => model(args),
        "sweep" => sweep(args),
        "transpile" => transpile(args),
        "check" => check(args),
        "serve" => serve(args),
        "submit" => submit(args),
        other => Err(ArgError(format!(
            "unknown command `{other}`; try `qse help`"
        ))),
    }
}

/// The help screen.
pub fn help_text() -> String {
    "qse — quantum statevector simulation & energy modelling\n\
     \n\
     USAGE: qse <command> [flags]\n\
     \n\
     COMMANDS\n\
       help                         this screen\n\
       info  [--gpu]                machine description\n\
       run   --qubits N [--ranks R] [--circuit qft|qft-blocked|ghz|grover|bv]\n\
             [--engine auto|dense|sparse|stabilizer]\n\
             [--non-blocking] [--streamed] [--half-swaps] [--basis B]\n\
             [--transpile off|greedy|beam]\n\
             [--faults seed=N[,delay=P][,corrupt=P][,fail=P][,budget=K]...]\n\
                                    execute on the thread cluster (measured);\n\
                                    --engine picks the simulation backend\n\
                                    (dense ≤ 24 qubits, sparse ≤ 40,\n\
                                    stabilizer ≤ 4096 Clifford-only; auto\n\
                                    chooses from the gate stream — results\n\
                                    never depend on the choice);\n\
                                    --ranks: a power of two ≤ 16 leaving\n\
                                    one local qubit, two under --transpile\n\
                                    (default 4 dense, 1 otherwise);\n\
                                    --transpile runs the comm-avoiding pass\n\
                                    first (batched global swaps, cost-model\n\
                                    scored) and reports measured vs modeled\n\
                                    exchange bytes; --faults injects a seeded\n\
                                    deterministic fault plan (replay a soak\n\
                                    failure by seed)\n\
       model --qubits N [--nodes M] [--node-kind standard|highmem]\n\
             [--freq low|medium|high] [--circuit ...] [--fast] [--streamed] [--gpu]\n\
             [--half-swaps] [--fuse K]\n\
                                    ARCHER2 model estimate (runtime/energy/CU);\n\
                                    --fuse K prices runs of >= K diagonal\n\
                                    gates as one sweep (the engine always\n\
                                    runs local gates one pass per run)\n\
                                    plus modeled exchange payload, with a\n\
                                    measured comparison when the setup fits\n\
                                    in one process (N ≤ 20, nodes ≤ 8)\n\
       sweep [--from A] [--to B] [--fast] [--gpu]\n\
                                    fig-2-style QFT sweep at minimum node counts\n\
       transpile --qubits N --ranks R [--circuit ...]\n\
                                    cache-block a circuit, show communication\n\
                                    (R leaves at least two local qubits)\n\
       check [--root PATH] [--seed N] [--plans]\n\
                                    self-check: source lint, fail-stop abort,\n\
                                    schedule explorer (all must pass);\n\
                                    --plans instead statically verifies the\n\
                                    standard plan corpus (protocol matching,\n\
                                    deadlock freedom, buffer bounds, layout\n\
                                    soundness) and proves broken fixtures\n\
                                    are rejected\n\
       serve [--port P | --stdin] [--workers W] [--queue-cap Q]\n\
             [--mem-budget-mb M] [--cache-mb C] [--max-line-bytes B]\n\
             [--read-timeout-s S]\n\
                                    multi-tenant simulation service: line-\n\
                                    delimited JSON jobs over TCP (--port) or\n\
                                    stdin/stdout (--stdin, exits at EOF), with\n\
                                    a verified compiled-plan cache, shot\n\
                                    batching, and memory-budget admission\n\
       submit --port P [--circuit qft|qft-blocked|ghz|grover|bv --qubits N]\n\
             [--shots K] [--seed S] [--ranks R] [--transpile off|greedy|beam]\n\
             [--engine auto|dense|sparse|stabilizer]\n\
             [--basis B] [--repeat K] [--stdin]\n\
                                    client: submit jobs to a running server\n\
                                    and print response lines; --stdin forwards\n\
                                    raw request lines instead of generating\n"
        .to_string()
}

/// `--qubits`, within the widths the circuit IR accepts.
fn register_width(args: &Args) -> Result<u32, ArgError> {
    let n: u32 = args.required("qubits")?;
    if !(1..=MAX_QUBITS).contains(&n) {
        return Err(ArgError(format!(
            "--qubits {n} is outside 1..={MAX_QUBITS}"
        )));
    }
    Ok(n)
}

/// The `--circuit` named circuit (default `qft`) at `n` qubits.
fn named_circuit(args: &Args, n: u32) -> Result<Circuit, ArgError> {
    named::build(&args.string("circuit", "qft"), n).map_err(|e| ArgError(e.to_string()))
}

fn engine_mode(args: &Args) -> Result<EngineMode, ArgError> {
    let s = args.string("engine", "dense");
    EngineMode::parse(&s).ok_or_else(|| {
        ArgError(format!(
            "unknown engine `{s}` (auto, dense, sparse, stabilizer)"
        ))
    })
}

fn transpile_mode(args: &Args) -> Result<TranspileMode, ArgError> {
    let s = args.string("transpile", "off");
    TranspileMode::parse(&s)
        .ok_or_else(|| ArgError(format!("unknown transpile mode `{s}` (off, greedy, beam)")))
}

fn parse_freq(s: &str) -> Result<CpuFrequency, ArgError> {
    Ok(match s {
        "low" => CpuFrequency::Low,
        "medium" | "med" => CpuFrequency::Medium,
        "high" => CpuFrequency::High,
        other => return Err(ArgError(format!("unknown frequency `{other}`"))),
    })
}

/// The exchange two switches select: `streamed` wins over `non_blocking`
/// (`--non-blocking` on `run`, `--fast` on `model`) when both are given.
fn exchange_mode(non_blocking: bool, streamed: bool) -> ExchangeMode {
    match (non_blocking, streamed) {
        (_, true) => ExchangeMode::Streamed,
        (true, false) => ExchangeMode::NonBlocking,
        (false, false) => ExchangeMode::Blocking,
    }
}

fn parse_kind(s: &str) -> Result<NodeKind, ArgError> {
    Ok(match s {
        "standard" | "std" => NodeKind::Standard,
        "highmem" | "hm" => NodeKind::HighMem,
        other => return Err(ArgError(format!("unknown node kind `{other}`"))),
    })
}

fn pick_machine(args: &Args) -> qse_machine::archer2::Machine {
    if args.switch("gpu") {
        gpu_machine()
    } else {
        archer2()
    }
}

fn info(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["gpu"])?;
    let m = pick_machine(args);
    let mut out = format!("{}\n", m.name);
    for kind in [NodeKind::Standard, NodeKind::HighMem] {
        let n = m.node(kind);
        out += &format!(
            "  {:8} node: {} GiB RAM ({} usable), sweep {} GB/s, {} available\n",
            kind.label(),
            n.memory_bytes >> 30,
            n.usable_bytes() >> 30,
            (n.sweep_bandwidth / 1e9) as u64,
            n.available,
        );
    }
    out += &format!(
        "  network: 1 switch per {} nodes at {} W; exchange {}/{} GB/s (blocking/non-blocking); {} MiB max message\n",
        m.network.nodes_per_switch,
        m.network.switch_power_w,
        (m.network.exchange_bw_blocking / 1e9).round(),
        (m.network.exchange_bw_nonblocking / 1e9).round(),
        m.network.max_message_bytes >> 20,
    );
    Ok(out)
}

fn run(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "qubits",
        "ranks",
        "circuit",
        "engine",
        "non-blocking",
        "streamed",
        "half-swaps",
        "basis",
        "faults",
        "transpile",
    ])?;
    let n = register_width(args)?;
    let mut cfg = SimConfig::default_for(1);
    cfg.engine = engine_mode(args)?;
    cfg.exchange = exchange_mode(args.switch("non-blocking"), args.switch("streamed"));
    cfg.half_exchange_swaps = args.switch("half-swaps");
    cfg.transpile = transpile_mode(args)?;
    if let Some(spec) = args.optional::<String>("faults")? {
        cfg.faults = Some(qse_comm::FaultConfig::parse_spec(&spec).map_err(ArgError)?);
    }
    let basis: u64 = args.value("basis", 0)?;
    // A fixed engine's width cap bites before the circuit is built.
    if let Some(engine) = cfg.engine.fixed() {
        check_width(n, engine).map_err(|e| run_error(e, &cfg))?;
    }
    let circuit = named_circuit(args, n)?;
    // Only the dense engine distributes: the others default to one rank.
    let dense = cfg.engine.resolve(&circuit) == EngineChoice::Dense;
    cfg.n_ranks = args.value("ranks", if dense { 4 } else { 1 })?;
    let fail = |e| run_error(e, &cfg);
    let resolved = cfg.admit(&circuit, basis).map_err(fail)?;
    let plan = EngineExecutor::prepare(&circuit, &cfg).map_err(fail)?;
    let run =
        EngineExecutor::run_prepared(&circuit, &cfg, basis, false, plan.as_ref()).map_err(fail)?;
    let p = &run.profiled;
    // One address space has no rank traffic to report: the sparse and
    // tableau engines print their own size story (map occupancy, tableau
    // rows) instead.
    let one_space_header = || {
        let auto = match cfg.engine {
            EngineMode::Auto => format!(" (auto-selected {})", resolved.label()),
            _ => String::new(),
        };
        format!(
            "ran {} gates on {} qubits with the {} engine in {:.3} s{auto}\n",
            p.gate_count, p.n_qubits, p.engine, p.wall_s,
        )
    };
    let mut out = match &run.state {
        EngineState::Dense(_) => format!(
            "ran {} gates on {} qubits over {} ranks in {:.3} s\n\
             distributed-gate share: {:.0} % of wall-clock\n\
             traffic: {} bytes in {} messages ({} bytes/rank)\n\
             exchange: {} chunks, peak scratch {} bytes, {} payload bytes\n",
            p.gate_count,
            p.n_qubits,
            p.n_ranks,
            p.wall_s,
            p.profile.distributed_fraction() * 100.0,
            p.bytes_sent,
            p.messages_sent,
            p.bytes_per_rank(),
            p.exchange_chunks,
            p.peak_inflight_bytes,
            p.bytes_exchanged,
        ),
        EngineState::Sparse(s) => format!(
            "{}sparse map: {} nonzero amplitude(s) of 2^{} basis states\n",
            one_space_header(),
            s.n_nonzero(),
            p.n_qubits,
        ),
        EngineState::Tableau(t) => format!(
            "{}stabilizer tableau: {} generator rows over {} qubits\n",
            one_space_header(),
            2 * t.n_qubits(),
            t.n_qubits(),
        ),
    };
    if let Some(plan) = &plan {
        let machine = archer2();
        let oracle = qse_machine::ModelOracle::new(&machine, cfg.to_model_config());
        let modeled = plan.price(&Layout::new(n, cfg.n_ranks), &oracle);
        out += &format!(
            "transpile: {} plan steps, {} batched exchange(s); \
             exchange payload {} bytes measured vs {} modeled\n",
            plan.steps.len(),
            plan.permute_count(),
            p.bytes_exchanged,
            modeled.bytes,
        );
    }
    if let Some(fc) = cfg.faults {
        out += &format!(
            "faults: seed {} — {} injected, {} retries, {} corruptions detected (recovered)\n",
            fc.seed, p.faults_injected, p.retries, p.corruptions_detected,
        );
    }
    Ok(out)
}

/// What `qse run` prints for `e`: an admission refusal names the flag
/// it is about; anything else failed the run itself.
fn run_error(e: EngineError, cfg: &SimConfig) -> ArgError {
    ArgError(match e {
        EngineError::TooWide { engine, .. } if cfg.engine == EngineMode::Auto => {
            format!(
                "--engine auto resolved to the {} engine: {e}",
                engine.label()
            )
        }
        EngineError::TooWide { .. } => format!("{e}; try another --engine or `qse model`"),
        EngineError::Ranks(why) => format!("--ranks {}: {why}", cfg.n_ranks),
        EngineError::BasisOutOfRange { basis, n } => {
            format!("--basis {basis} is not a basis state of {n} qubits")
        }
        EngineError::DenseOnly { .. } => e.to_string(),
        e => format!("run failed: {e}"),
    })
}

fn model(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "qubits",
        "nodes",
        "node-kind",
        "freq",
        "circuit",
        "fast",
        "streamed",
        "gpu",
        "half-swaps",
        "fuse",
    ])?;
    let n = register_width(args)?;
    let machine = pick_machine(args);
    let kind = parse_kind(&args.string("node-kind", "standard"))?;
    let nodes = match args.optional::<u64>("nodes")? {
        Some(nodes) => nodes,
        None => nodes_for(&machine, kind, n).ok_or_else(|| {
            ArgError(format!(
                "{n} qubits do not fit any {} allocation",
                kind.label()
            ))
        })?,
    };
    let layout =
        Layout::try_new(n, nodes).map_err(|e| ArgError(format!("--nodes {nodes}: {e}")))?;
    if statevector_bytes(layout.local_qubits()).is_none() {
        return Err(ArgError(format!(
            "--nodes {nodes}: each node's slice of {n} qubits (2^{} amplitudes) \
             overflows a 64-bit byte count",
            layout.local_qubits()
        )));
    }
    let circuit = if args.switch("fast") {
        cache_blocked_qft(n, default_split(n, layout.local_qubits()))
    } else {
        named_circuit(args, n)?
    };
    let mut cfg = SimConfig::default_for(nodes);
    cfg.node_kind = kind;
    cfg.frequency = parse_freq(&args.string("freq", "medium"))?;
    cfg.exchange = exchange_mode(args.switch("fast"), args.switch("streamed"));
    cfg.half_exchange_swaps = args.switch("half-swaps");
    cfg.fuse_diagonals = args.optional::<usize>("fuse")?;
    let est = ModelExecutor::new(&machine).run(&circuit, &cfg);
    let sacct = SacctRecord::from_estimate(format!("{}q", n), &est);
    let mut out = format!(
        "{}\n\
         runtime {:.1} s | energy {} ({:.1} kWh) | {:.1} CU\n\
         profile: {:.0} % MPI / {:.0} % memory / {:.0} % compute\n",
        sacct.render(),
        est.runtime_s,
        format_energy(est.total_energy_j()),
        joules_to_kwh(est.total_energy_j()),
        est.cu,
        est.comm_fraction() * 100.0,
        est.memory_fraction() * 100.0,
        est.compute_fraction() * 100.0,
    );
    // Modeled exchange payload, with a measured thread-cluster comparison
    // whenever the same configuration fits in one process — the honesty
    // check that the model's traffic inputs are exact.
    let traffic = circuit_traffic(&circuit, &layout, cfg.half_exchange_swaps)
        .map_err(|e| ArgError(e.to_string()))?;
    let modeled: u64 = traffic.iter().map(GateTraffic::bytes_sent).sum();
    out += &format!("exchange payload (modeled): {modeled} bytes");
    if n <= 20 && nodes <= 8 {
        let run = ThreadClusterExecutor::try_run(&circuit, &cfg, 0, false)
            .map_err(|e| ArgError(format!("measurement run failed: {e}")))?;
        out += &format!(" | measured: {} bytes", run.profiled.bytes_exchanged);
    }
    out += "\n";
    Ok(out)
}

fn sweep(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["from", "to", "fast", "gpu"])?;
    let from: u32 = args.value("from", 33)?;
    let to: u32 = args.value("to", 44)?;
    if from > to {
        return Err(ArgError(format!("--from {from} exceeds --to {to}")));
    }
    let machine = pick_machine(args);
    let mut table = TextTable::new(vec!["Qubits", "Nodes", "Runtime", "Energy", "CU"]);
    for n in from..=to {
        let Some(nodes) = nodes_for(&machine, NodeKind::Standard, n) else {
            table.row(vec![
                n.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let (circuit, cfg) = if args.switch("fast") {
            let local = n - nodes.trailing_zeros();
            (
                cache_blocked_qft(n, default_split(n, local)),
                SimConfig::fast_for(nodes),
            )
        } else {
            (qft(n), SimConfig::default_for(nodes))
        };
        let est = ModelExecutor::new(&machine).run(&circuit, &cfg);
        table.row(vec![
            n.to_string(),
            nodes.to_string(),
            fmt_seconds(est.runtime_s),
            format_energy(est.total_energy_j()),
            format!("{:.1}", est.cu),
        ]);
    }
    Ok(table.render())
}

fn transpile(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["qubits", "ranks", "circuit"])?;
    let n = register_width(args)?;
    let ranks: u64 = args.required("ranks")?;
    // The run rule's rank clause without its thread cap: nothing here
    // starts a rank.
    let layout = check_ranks(n, ranks, u64::MAX, PASS_LOCAL_QUBITS)
        .map_err(|e| ArgError(format!("--ranks {ranks}: {e}")))?;
    let circuit = named_circuit(args, n)?;
    // Distributed gates and bytes one participating rank sends.
    let summary = |c: &Circuit| -> Result<(usize, u64), ArgError> {
        let traffic = circuit_traffic(c, &layout, false).map_err(|e| ArgError(e.to_string()))?;
        let distributed = traffic
            .iter()
            .filter(|t| t.lowering.class == GateClass::Distributed);
        Ok((
            distributed.count(),
            traffic.iter().map(GateTraffic::rank_bytes).sum(),
        ))
    };
    let before = summary(&circuit)?;
    let t = cache_block(&circuit, layout.local_qubits());
    let after = summary(&t.circuit)?;
    Ok(format!(
        "{} gates on {} qubits over {} ranks ({} local qubits)\n\
         before: {} distributed gates, {} bytes/rank exchanged\n\
         after:  {} distributed gates, {} bytes/rank exchanged ({:.1}x less)\n\
         final layout is {}identity\n",
        circuit.len(),
        n,
        ranks,
        layout.local_qubits(),
        before.0,
        before.1,
        after.0,
        after.1,
        before.1 as f64 / after.1.max(1) as f64,
        if t.layout.is_identity() {
            "the "
        } else {
            "NOT "
        },
    ))
}

/// Instrumented lost-update fixture for the schedule-explorer smoke: two
/// workers race a read-modify-write, so some interleaving must fail.
fn racy_counter_fixture(ctl: &Ctl) {
    use qse_util::sync::{sync_point, SyncOp};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let (tx, rx) = qse_util::mailbox::unbounded::<()>();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let counter = Arc::clone(&counter);
        let tx = tx.clone();
        ctl.spawn(move || {
            let v = counter.load(Ordering::SeqCst);
            sync_point(SyncOp::User("between load and store"));
            counter.store(v + 1, Ordering::SeqCst);
            let _ = tx.send(());
        });
    }
    drop(tx);
    for _ in 0..2 {
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("worker done");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
}

/// `qse check` step 2: rank 0 panics once rank 1 is about to block in
/// `recv` and rank 2 at the barrier; both must come back `Aborted` by
/// rank 0, and the panic must reach the caller.
fn fail_stop_smoke() -> Result<String, ArgError> {
    use qse_comm::{CommError, Universe};
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};
    let (parking, parked) = mpsc::channel::<()>();
    let parked = Mutex::new(parked);
    let seen: Mutex<Vec<(usize, Result<(), CommError>)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Universe::with_timeout(3, Duration::from_secs(300)).run(|c| {
            let result = match c.rank() {
                0 => {
                    let parked = parked.lock().unwrap_or_else(|e| e.into_inner());
                    for _ in 0..2 {
                        let _ = parked.recv();
                    }
                    panic!("rank 0 panics on purpose");
                }
                1 => {
                    let _ = parking.send(());
                    c.recv(0, 9).map(|_| ())
                }
                _ => {
                    let _ = parking.send(());
                    c.barrier();
                    c.send(0, 9, &[])
                }
            };
            seen.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((c.rank(), result));
        })
    }));
    std::panic::set_hook(quiet);
    let elapsed = t0.elapsed();
    if run.is_ok() {
        return Err(ArgError(
            "fail-stop: rank 0's panic never reached the caller".into(),
        ));
    }
    let mut seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());
    seen.sort_by_key(|(rank, _)| *rank);
    let aborted = Err(CommError::Aborted { by: 0, cause: None });
    if seen != [(1, aborted.clone()), (2, aborted)] {
        return Err(ArgError(format!(
            "fail-stop: the peers of a panicking rank did not both abort: {seen:?}"
        )));
    }
    Ok(format!(
        "fail-stop: rank 0 panicked; rank 1 (in recv) and rank 2 (at barrier) \
         returned Aborted{{by: 0}} in {elapsed:?}\n"
    ))
}

fn check(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["root", "seed", "plans"])?;
    if args.switch("plans") {
        return check_plans();
    }
    let mut out = String::new();

    // 1. Source lint over the workspace tree.
    let root = match args.optional::<std::path::PathBuf>("root")? {
        Some(p) => p,
        None => {
            let cwd =
                std::env::current_dir().map_err(|e| ArgError(format!("cannot read cwd: {e}")))?;
            qse_check::lint::find_workspace_root(&cwd).ok_or_else(|| {
                ArgError("no workspace root above the cwd; pass --root PATH".into())
            })?
        }
    };
    let violations =
        qse_check::lint_tree(&root).map_err(|e| ArgError(format!("lint walk failed: {e}")))?;
    if !violations.is_empty() {
        let list = violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n  ");
        return Err(ArgError(format!(
            "lint: {} violation(s)\n  {list}",
            violations.len()
        )));
    }
    out += &format!("lint: clean ({})\n", root.display());

    // 2. Fail-stop smoke: a rank that panics must release one peer
    // parked in a receive and one parked at the barrier, both told who
    // aborted the universe. The deadline is far off, so only the abort
    // can end their waits.
    out += &fail_stop_smoke()?;

    // 3. Schedule explorer smoke: the seeded lost update must be found.
    match Explorer::exhaustive().explore(racy_counter_fixture) {
        Err(failure) => out += &format!("schedule: lost update found ({failure})\n"),
        Ok(n) => {
            return Err(ArgError(format!(
                "schedule: explorer missed the seeded lost update over {n} schedules"
            )))
        }
    }
    if let Some(seed) = args.optional::<u64>("seed")? {
        match Explorer::random(seed, 200).explore(racy_counter_fixture) {
            Err(failure) => {
                out += &format!("schedule: random mode (seed {seed}) found it too ({failure})\n")
            }
            Ok(n) => {
                return Err(ArgError(format!(
                    "schedule: random mode (seed {seed}) missed the bug over {n} schedules"
                )))
            }
        }
    }
    out += "check: all engines passed\n";
    Ok(out)
}

/// `qse check --plans`: statically verify the standard plan corpus
/// (circuits × rank counts × exchange modes × transpile strategies),
/// then prove the verifier still has teeth by feeding it three
/// deliberately broken fixtures that must each be rejected with a
/// diagnosis naming the offending plan step.
fn check_plans() -> Result<String, ArgError> {
    use qse_check::verify::{
        broken_fixture_ring_overrun, broken_fixture_tag_collision,
        broken_fixture_unrestored_layout, check_traces, verify_plan,
    };
    let mut out = String::new();

    let cases = qse_check::standard_corpus();
    let total = cases.len();
    let mut gates = 0u64;
    let mut bytes = 0u64;
    for case in &cases {
        let report = verify_plan(&case.plan, Some(&case.original), case.n_ranks, &case.opts)
            .map_err(|e| ArgError(format!("plans: {} FAILED verification: {e}", case.name)))?;
        gates += report.distributed_gates as u64;
        bytes += report.bytes_on_wire;
    }
    out += &format!(
        "plans: verified {total}/{total} corpus plans clean \
         ({gates} distributed gates, {bytes} bytes on the wire, symbolically)\n"
    );

    // Seeded-broken fixtures: each must be rejected, and the diagnosis
    // must carry enough detail to act on.
    let fixtures: [(&str, Result<(), qse_check::verify::VerifyError>); 3] = [
        (
            "tag collision",
            check_traces(&broken_fixture_tag_collision()),
        ),
        ("ring overrun", check_traces(&broken_fixture_ring_overrun())),
        (
            "unrestored layout",
            verify_plan(
                &broken_fixture_unrestored_layout(),
                None,
                4,
                &qse_comm::chunking::DistConfig::default(),
            )
            .map(|_| ()),
        ),
    ];
    for (name, result) in fixtures {
        match result {
            Err(e) => out += &format!("plans: broken fixture ({name}) rejected: {e}\n"),
            Ok(()) => {
                return Err(ArgError(format!(
                    "plans: broken fixture ({name}) passed verification — the verifier is blind"
                )))
            }
        }
    }
    out += "plans: corpus proved safe; all broken fixtures rejected\n";
    Ok(out)
}

fn serve(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "port",
        "stdin",
        "workers",
        "queue-cap",
        "mem-budget-mb",
        "cache-mb",
        "max-line-bytes",
        "read-timeout-s",
    ])?;
    let cfg = qse_serve::ServeConfig {
        workers: args.value("workers", 2usize)?.max(1),
        queue_cap: args.value("queue-cap", 64usize)?.max(1),
        mem_budget_bytes: args.value("mem-budget-mb", 2048u64)? << 20,
        cache_cap_bytes: args.value("cache-mb", 16usize)? << 20,
    };
    let max_line = args.value("max-line-bytes", qse_serve::protocol::DEFAULT_MAX_LINE)?;
    let port: Option<u16> = args.optional("port")?;
    let server = std::sync::Arc::new(qse_serve::Server::start(cfg));
    match (port, args.switch("stdin")) {
        (Some(port), false) => {
            let listener = std::net::TcpListener::bind(("127.0.0.1", port))
                .map_err(|e| ArgError(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
            let addr = listener.local_addr().map_err(|e| ArgError(e.to_string()))?;
            eprintln!("qse serve: listening on {addr}");
            let net = qse_serve::net::NetConfig {
                max_line,
                read_timeout: std::time::Duration::from_secs(
                    args.value("read-timeout-s", 300u64)?.max(1),
                ),
            };
            qse_serve::net::serve_tcp(std::sync::Arc::clone(&server), listener, net);
            server.shutdown();
            Ok(String::new())
        }
        (None, _) => {
            qse_serve::net::serve_stdin(&server, max_line);
            server.shutdown(); // joins workers so the counters are final
            let stats = server.stats();
            eprintln!(
                "qse serve: {} submitted, {} completed, {} failed; cache {} hit / {} miss",
                stats.submitted,
                stats.completed,
                stats.failed,
                stats.cache.hits,
                stats.cache.misses
            );
            Ok(String::new())
        }
        (Some(_), true) => Err(ArgError("--port and --stdin are exclusive".into())),
    }
}

/// The request lines `qse submit` generates from its flags (`--repeat`
/// copies, consecutive seeds). Every value spliced into the JSON is a
/// number or a name checked against its closed set first, so no flag can
/// inject a field.
fn submit_lines(args: &Args) -> Result<Vec<String>, ArgError> {
    let name = args.string("circuit", "qft");
    let n: u32 = args.required("qubits")?;
    named::check(&name, n).map_err(|e| ArgError(e.to_string()))?;
    let shots: u64 = args.value("shots", 0u64)?;
    let seed: u64 = args.value("seed", 0u64)?;
    let ranks: u64 = args.value("ranks", 1u64)?;
    let basis: u64 = args.value("basis", 0u64)?;
    let transpile = transpile_mode(args)?.label();
    let engine = engine_mode(args)?.label();
    let repeat: usize = args.value("repeat", 1usize)?.max(1);
    Ok((0..repeat)
        .map(|i| {
            format!(
                "{{\"op\":\"submit\",\"id\":\"job-{i}\",\"circuit\":{{\"name\":\"{name}\",\"qubits\":{n}}},\
                 \"shots\":{shots},\"seed\":{},\"ranks\":{ranks},\"transpile\":\"{transpile}\",\
                 \"engine\":\"{engine}\",\"basis\":{basis}}}",
                seed + i as u64
            )
        })
        .collect())
}

fn submit(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "port",
        "circuit",
        "qubits",
        "shots",
        "seed",
        "ranks",
        "transpile",
        "engine",
        "basis",
        "repeat",
        "stdin",
    ])?;
    let port: u16 = args.required("port")?;
    // Generated jobs are built, and every flag spliced into them
    // validated, before anything is sent.
    let jobs = if args.switch("stdin") {
        None
    } else {
        Some(submit_lines(args)?)
    };
    let stream = std::net::TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| ArgError(format!("cannot connect to 127.0.0.1:{port}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(600)))
        .map_err(|e| ArgError(e.to_string()))?;
    let mut write_half = stream.try_clone().map_err(|e| ArgError(e.to_string()))?;
    use std::io::Write;
    let mut sent = 0usize;
    let mut send = |line: &str| {
        sent += 1;
        write_half
            .write_all(line.as_bytes())
            .and_then(|()| write_half.write_all(b"\n"))
            .map_err(|e| ArgError(format!("send failed: {e}")))
    };
    match jobs {
        Some(lines) => {
            for line in &lines {
                send(line)?;
            }
        }
        None => {
            // Forward raw request lines from stdin.
            let mut reader = qse_serve::BoundedLineReader::new(
                std::io::stdin(),
                qse_serve::protocol::DEFAULT_MAX_LINE,
            );
            while let Ok(Some(line)) = reader.next_line() {
                if line.trim().is_empty() {
                    continue;
                }
                send(&line)?;
            }
        }
    }
    write_half.flush().map_err(|e| ArgError(e.to_string()))?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reader =
        qse_serve::BoundedLineReader::new(stream, qse_serve::protocol::DEFAULT_MAX_LINE);
    let mut out = String::new();
    let mut received = 0usize;
    while received < sent {
        match reader.next_line() {
            Ok(Some(line)) => {
                out.push_str(&line);
                out.push('\n');
                received += 1;
            }
            Ok(None) => break,
            Err(e) => return Err(ArgError(format!("read failed: {e}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(tokens: &[&str]) -> Result<String, ArgError> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()))?;
        dispatch(&args)
    }

    #[test]
    fn help_lists_commands() {
        let out = run_cli(&["help"]).unwrap();
        for cmd in ["run", "model", "sweep", "transpile", "info", "check"] {
            assert!(out.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&["frobnicate"]).is_err());
    }

    #[test]
    fn info_describes_machines() {
        let cpu = run_cli(&["info"]).unwrap();
        assert!(cpu.contains("ARCHER2"));
        assert!(cpu.contains("switch per 8 nodes"));
        let gpu = run_cli(&["info", "--gpu"]).unwrap();
        assert!(gpu.contains("GPU"));
    }

    #[test]
    fn run_executes_small_qft() {
        let out = run_cli(&["run", "--qubits", "8", "--ranks", "4"]).unwrap();
        assert!(out.contains("over 4 ranks"));
        assert!(out.contains("distributed-gate share"));
    }

    #[test]
    fn run_rejects_oversized_registers() {
        let err = run_cli(&["run", "--qubits", "30"]).unwrap_err();
        assert!(err.0.contains("qse model"));
    }

    #[test]
    fn run_all_circuit_kinds() {
        for circuit in ["qft", "qft-blocked", "ghz", "grover", "bv"] {
            let out = run_cli(&["run", "--qubits", "6", "--ranks", "2", "--circuit", circuit]);
            assert!(out.is_ok(), "{circuit}: {out:?}");
        }
        assert!(run_cli(&["run", "--qubits", "6", "--circuit", "nope"]).is_err());
    }

    #[test]
    fn run_streamed_flag_accepted_and_reports_chunks() {
        let out = run_cli(&["run", "--qubits", "8", "--ranks", "4", "--streamed"]).unwrap();
        assert!(out.contains("exchange:"), "{out}");
        assert!(out.contains("peak scratch"), "{out}");
    }

    #[test]
    fn streamed_takes_precedence_over_non_blocking() {
        let exchange_line = |flags: &[&str]| {
            let mut tokens = vec!["run", "--qubits", "8", "--ranks", "4"];
            tokens.extend_from_slice(flags);
            let out = run_cli(&tokens).unwrap();
            out.lines()
                .find(|l| l.starts_with("exchange:"))
                .map(str::to_string)
                .expect("exchange line present")
        };
        // Only the streamed exchange counts chunks.
        assert!(exchange_line(&["--non-blocking"]).starts_with("exchange: 0 chunks"));
        let both = exchange_line(&["--non-blocking", "--streamed"]);
        assert!(!both.starts_with("exchange: 0 chunks"), "{both}");
        assert_eq!(both, exchange_line(&["--streamed"]));

        let model = |flags: &[&str]| {
            let mut tokens = vec!["model", "--qubits", "38"];
            tokens.extend_from_slice(flags);
            run_cli(&tokens).unwrap()
        };
        assert_ne!(model(&["--fast", "--streamed"]), model(&["--fast"]));
        assert_eq!(exchange_mode(true, true), ExchangeMode::Streamed);
    }

    #[test]
    fn run_faults_flag_reports_recovery_and_replays_by_seed() {
        let args = &[
            "run", "--qubits", "7", "--ranks", "4", "--faults", "seed=42",
        ];
        let first = run_cli(args).unwrap();
        assert!(first.contains("faults: seed 42"), "{first}");
        assert!(first.contains("(recovered)"), "{first}");
        let fault_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("faults:"))
                .map(str::to_string)
                .expect("fault line present")
        };
        // Same seed → identical injected/retry/corruption counters.
        let second = run_cli(args).unwrap();
        assert_eq!(
            fault_line(&first),
            fault_line(&second),
            "seed replay drifted"
        );
    }

    #[test]
    fn run_unrecoverable_faults_surface_a_typed_error() {
        let err = run_cli(&[
            "run",
            "--qubits",
            "6",
            "--ranks",
            "2",
            "--faults",
            "seed=1,fail=1,fail_burst=9,budget=2,delay=0,corrupt=0",
        ])
        .unwrap_err();
        assert!(err.0.contains("transient"), "{}", err.0);
    }

    #[test]
    fn run_rejects_malformed_fault_specs() {
        for spec in ["delay=0.5", "seed=x", "seed=1,bogus=3", "seed=1,corrupt=7"] {
            let err = run_cli(&["run", "--qubits", "6", "--faults", spec]).unwrap_err();
            assert!(err.0.contains("fault"), "spec {spec}: {}", err.0);
        }
    }

    #[test]
    fn run_transpile_flag_reports_measured_vs_modeled() {
        for mode in ["greedy", "beam"] {
            let out =
                run_cli(&["run", "--qubits", "10", "--ranks", "4", "--transpile", mode]).unwrap();
            assert!(out.contains("transpile:"), "{out}");
            assert!(out.contains("measured vs"), "{out}");
            // All communication in a transpiled plan flows through batched
            // permutations, which the oracle prices exactly — measured and
            // modeled payloads must agree to the byte.
            let tail = out.lines().find(|l| l.starts_with("transpile:")).unwrap();
            let nums: Vec<u64> = tail
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            let (measured, modeled) = (nums[nums.len() - 2], nums[nums.len() - 1]);
            assert_eq!(measured, modeled, "{tail}");
            assert!(measured > 0, "{tail}");
        }
        assert!(run_cli(&["run", "--qubits", "8", "--transpile", "nope"]).is_err());
    }

    #[test]
    fn run_transpile_cuts_exchange_payload() {
        let payload = |out: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with("exchange:"))
                .and_then(|l| {
                    l.split(',')
                        .find(|part| part.contains("payload"))?
                        .split_whitespace()
                        .find_map(|w| w.parse().ok())
                })
                .expect("payload figure present")
        };
        let off = run_cli(&["run", "--qubits", "12", "--ranks", "4"]).unwrap();
        let beam = run_cli(&[
            "run",
            "--qubits",
            "12",
            "--ranks",
            "4",
            "--transpile",
            "beam",
        ])
        .unwrap();
        assert!(
            payload(&beam) < payload(&off),
            "beam {} !< off {}",
            payload(&beam),
            payload(&off)
        );
    }

    #[test]
    fn run_engine_flag_selects_backends() {
        // GHZ is Clifford → auto routes to the stabilizer tableau.
        let auto = run_cli(&[
            "run",
            "--qubits",
            "8",
            "--circuit",
            "ghz",
            "--engine",
            "auto",
        ])
        .unwrap();
        assert!(auto.contains("stabilizer engine"), "{auto}");
        assert!(auto.contains("(auto-selected stabilizer)"), "{auto}");
        // Forced stabilizer at a width no dense engine could touch.
        let big = run_cli(&[
            "run",
            "--qubits",
            "200",
            "--circuit",
            "ghz",
            "--engine",
            "stabilizer",
        ])
        .unwrap();
        assert!(big.contains("200 qubits"), "{big}");
        assert!(big.contains("400 generator rows"), "{big}");
        // Sparse reports its map occupancy: GHZ keeps two amplitudes.
        let sparse = run_cli(&[
            "run",
            "--qubits",
            "30",
            "--circuit",
            "ghz",
            "--engine",
            "sparse",
        ])
        .unwrap();
        assert!(sparse.contains("sparse engine"), "{sparse}");
        assert!(sparse.contains("2 nonzero amplitude(s)"), "{sparse}");
        // Default stays the dense thread-cluster path with traffic stats.
        let dense = run_cli(&["run", "--qubits", "8", "--ranks", "4"]).unwrap();
        assert!(dense.contains("over 4 ranks"), "{dense}");
    }

    #[test]
    fn run_engine_flag_rejects_bad_values_and_widths() {
        let err = run_cli(&["run", "--qubits", "8", "--engine", "tensor"]).unwrap_err();
        assert!(err.0.contains("unknown engine"), "{}", err.0);
        // Per-engine caps bite before any allocation.
        let err = run_cli(&["run", "--qubits", "30", "--engine", "dense"]).unwrap_err();
        assert!(err.0.contains("dense engine (max 24)"), "{}", err.0);
        let err = run_cli(&[
            "run",
            "--qubits",
            "50",
            "--circuit",
            "ghz",
            "--engine",
            "sparse",
        ])
        .unwrap_err();
        assert!(err.0.contains("sparse engine (max 40)"), "{}", err.0);
        // Auto on a non-Clifford wide circuit resolves dense → typed error.
        let err = run_cli(&["run", "--qubits", "30", "--engine", "auto"]).unwrap_err();
        assert!(err.0.contains("resolved to the dense engine"), "{}", err.0);
        // T gates are not Clifford: the tableau refuses with the gate index.
        let err = run_cli(&["run", "--qubits", "8", "--engine", "stabilizer"]).unwrap_err();
        assert!(err.0.contains("run failed"), "{}", err.0);
        // Fault injection and transpilation are dense-path concepts.
        let err = run_cli(&[
            "run",
            "--qubits",
            "8",
            "--circuit",
            "ghz",
            "--engine",
            "stabilizer",
            "--faults",
            "seed=1",
        ])
        .unwrap_err();
        assert!(err.0.contains("do not apply"), "{}", err.0);
    }

    #[test]
    fn model_reports_modeled_vs_measured_exchange_when_feasible() {
        let out = run_cli(&["model", "--qubits", "12", "--nodes", "8"]).unwrap();
        assert!(out.contains("exchange payload (modeled):"), "{out}");
        assert!(out.contains("| measured:"), "{out}");
        let line = out
            .lines()
            .find(|l| l.starts_with("exchange payload"))
            .unwrap();
        let nums: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        assert_eq!(nums.len(), 2, "{line}");
        assert_eq!(nums[0], nums[1], "modeled and measured disagree: {line}");
        // At full scale the measurement is infeasible: modeled only.
        let big = run_cli(&["model", "--qubits", "38"]).unwrap();
        assert!(big.contains("exchange payload (modeled):"), "{big}");
        assert!(!big.contains("| measured:"), "{big}");
    }

    #[test]
    fn model_streamed_flag_changes_result() {
        let nb = run_cli(&["model", "--qubits", "38", "--fast"]).unwrap();
        let streamed = run_cli(&["model", "--qubits", "38", "--streamed"]).unwrap();
        assert_ne!(nb, streamed);
    }

    #[test]
    fn model_reports_sacct_line() {
        let out = run_cli(&["model", "--qubits", "38"]).unwrap();
        assert!(out.contains("AllocNodes=64"));
        assert!(out.contains("CU"));
        assert!(out.contains("% MPI"));
    }

    #[test]
    fn model_fast_flag_changes_result() {
        let plain = run_cli(&["model", "--qubits", "38"]).unwrap();
        let fast = run_cli(&["model", "--qubits", "38", "--fast"]).unwrap();
        assert_ne!(plain, fast);
    }

    #[test]
    fn model_rejects_infeasible() {
        let err = run_cli(&["model", "--qubits", "45"]).unwrap_err();
        assert!(err.0.contains("do not fit"));
        let err = run_cli(&["model", "--qubits", "42", "--node-kind", "highmem"]).unwrap_err();
        assert!(err.0.contains("do not fit"));
    }

    /// Runs `tokens`, expecting a typed error (not a panic) whose text
    /// contains `needle`.
    fn assert_typed_error(tokens: &[&str], needle: &str) {
        let err = run_cli(tokens).expect_err(&tokens.join(" "));
        assert!(err.0.contains(needle), "{}: {}", tokens.join(" "), err.0);
    }

    #[test]
    fn model_rejects_non_power_of_two_nodes() {
        assert_typed_error(
            &["model", "--qubits", "10", "--nodes", "3"],
            "3 is not a power of two",
        );
    }

    #[test]
    fn transpile_rejects_non_power_of_two_ranks() {
        assert_typed_error(
            &["transpile", "--qubits", "8", "--ranks", "3"],
            "3 is not a power of two",
        );
    }

    #[test]
    fn transpile_rejects_more_ranks_than_amplitudes() {
        assert_typed_error(
            &["transpile", "--qubits", "4", "--ranks", "64"],
            "64 ranks need at least 6 qubits",
        );
    }

    #[test]
    fn run_rejects_ranks_that_do_not_lay_out_on_every_engine() {
        for engine in ["dense", "sparse"] {
            assert_typed_error(
                &["run", "--qubits", "8", "--ranks", "3", "--engine", engine],
                "--ranks 3: 3 is not a power of two",
            );
            assert_typed_error(
                &["run", "--qubits", "4", "--ranks", "64", "--engine", engine],
                "64 ranks need at least 6 qubits",
            );
        }
        // Without `--ranks`, a non-dense engine has no layout to check.
        assert!(run_cli(&[
            "run",
            "--qubits",
            "1",
            "--circuit",
            "ghz",
            "--engine",
            "sparse"
        ])
        .is_ok());
    }

    #[test]
    fn run_rejects_zero_qubits() {
        assert_typed_error(&["run", "--qubits", "0"], "--qubits 0");
    }

    #[test]
    fn model_rejects_zero_qubits() {
        assert_typed_error(&["model", "--qubits", "0"], "--qubits 0");
    }

    #[test]
    fn submit_refuses_a_bad_width_typed() {
        for n in ["0", "5000"] {
            assert_typed_error(
                &["submit", "--port", "1", "--qubits", n],
                &format!("circuit `qft` takes 1..=4096 qubits, got {n}"),
            );
        }
        assert_typed_error(
            &["submit", "--port", "1", "--qubits", "64", "--circuit", "bv"],
            "takes 1..=63 qubits",
        );
        // The server builds `qft-blocked` from the same table.
        let tokens = ["submit", "--qubits", "6", "--circuit", "qft-blocked"];
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(submit_lines(&args).map(|l| l.len()), Ok(1));
    }

    #[test]
    fn run_and_transpile_refuse_ranks_that_leave_no_local_qubit() {
        for mode in ["greedy", "beam"] {
            assert_typed_error(
                &["run", "--qubits", "3", "--ranks", "8", "--transpile", mode],
                "--ranks 8: 0 local qubits, needs 2",
            );
        }
        assert_typed_error(
            &["transpile", "--qubits", "3", "--ranks", "8"],
            "--ranks 8: 0 local qubits, needs 2",
        );
        // `transpile` starts no rank, so no thread cap applies.
        assert!(run_cli(&["transpile", "--qubits", "38", "--ranks", "64"]).is_ok());
    }

    #[test]
    fn run_refuses_more_ranks_than_the_thread_cap() {
        assert_typed_error(
            &["run", "--qubits", "10", "--ranks", "32"],
            "--ranks 32: at most 16 ranks run, one thread each",
        );
        assert!(run_cli(&["run", "--qubits", "10", "--ranks", "16"]).is_ok());
    }

    /// `qse run` and `Server::submit` accept or refuse exactly when
    /// `SimConfig::admit` does, and refuse with its error, on every case
    /// of `qse-core`'s admission table with at most 24 qubits and 32 ranks.
    /// The server has no memory budget, so a job the rule admits stops at
    /// `OverBudget` and never runs.
    #[test]
    fn run_and_serve_admit_exactly_what_the_rule_admits() {
        use qse_serve::{JobSpec, ServeConfig, ServeError, Server};
        let server = Server::start(ServeConfig {
            workers: 1,
            mem_budget_bytes: 0,
            ..ServeConfig::default()
        });
        let fault_spec = "seed=1";
        for n in [1u32, 2, 3, 4, 24] {
            let ranks = [1u64, 2, 3, 16, 32, 1 << (n - 1), 1 << n];
            let bases = [0, (1u64 << n) - 1, 1 << n];
            for name in ["qft", "ghz"] {
                let circuit = named::build(name, n).unwrap();
                for mode in ["auto", "dense", "sparse", "stabilizer"] {
                    for (r, b) in ranks
                        .iter()
                        .filter(|&&r| r <= 32)
                        .flat_map(|&r| bases.map(|b| (r, b)))
                    {
                        for (faults, t) in [
                            (false, "off"),
                            (false, "beam"),
                            (true, "off"),
                            (true, "beam"),
                        ] {
                            let mut cfg = SimConfig::default_for(r);
                            cfg.engine = EngineMode::parse(mode).unwrap();
                            cfg.transpile = TranspileMode::parse(t).unwrap();
                            cfg.faults = faults
                                .then(|| qse_comm::FaultConfig::parse_spec(fault_spec).unwrap());
                            let rule = cfg.admit(&circuit, b);
                            let case = format!("{name}({n}) --engine {mode} --ranks {r} --basis {b} --transpile {t} faults={faults}");
                            let served = server.submit(JobSpec {
                                id: "case".into(),
                                circuit: circuit.clone(),
                                ranks: r,
                                transpile: cfg.transpile,
                                shots: 0,
                                seed: 0,
                                basis: b,
                                faults: cfg.faults,
                                engine: cfg.engine,
                            });
                            match (&rule, served.err()) {
                                (Ok(_), Some(ServeError::OverBudget { .. })) => {}
                                (Err(e), Some(ServeError::BadRequest { detail })) => {
                                    assert_eq!(detail, e.to_string(), "{case}")
                                }
                                (rule, served) => panic!("{case}: rule {rule:?}, serve {served:?}"),
                            }
                            // An admitted run executes: at 24 qubits only GHZ
                            // off the dense engine is cheap (a dense run or a
                            // sparse QFT holds 2^24 amplitudes).
                            let cheap =
                                n < 24 || (name == "ghz" && rule != Ok(EngineChoice::Dense));
                            if rule.is_ok() && !cheap {
                                continue;
                            }
                            let (n, r, b) = (n.to_string(), r.to_string(), b.to_string());
                            let mut tokens = vec![
                                "run",
                                "--qubits",
                                &n,
                                "--ranks",
                                &r,
                                "--basis",
                                &b,
                                "--circuit",
                                name,
                                "--engine",
                                mode,
                                "--transpile",
                                t,
                            ];
                            if faults {
                                tokens.extend(["--faults", fault_spec]);
                            }
                            let ran = run_cli(&tokens);
                            match rule {
                                Ok(_) => assert!(
                                    ran.as_ref()
                                        .map_or_else(|e| e.0.starts_with("run failed"), |_| true),
                                    "{case}: {ran:?}"
                                ),
                                Err(e) => assert_eq!(ran, Err(run_error(e, &cfg)), "{case}"),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpile_rejects_zero_qubits() {
        assert_typed_error(
            &["transpile", "--qubits", "0", "--ranks", "1"],
            "--qubits 0",
        );
    }

    #[test]
    fn run_rejects_a_basis_outside_the_register() {
        for engine in ["dense", "sparse", "stabilizer"] {
            assert_typed_error(
                &[
                    "run", "--qubits", "8", "--ranks", "2", "--basis", "999", "--engine", engine,
                ],
                "--basis 999",
            );
        }
        assert!(run_cli(&["run", "--qubits", "8", "--ranks", "2", "--basis", "255"]).is_ok());
    }

    #[test]
    fn model_reports_registers_past_u64_bytes_as_not_fitting() {
        for n in ["60", "64", "70"] {
            assert_typed_error(&["model", "--qubits", n], "do not fit");
        }
    }

    #[test]
    fn model_rejects_explicit_nodes_whose_slice_overflows() {
        for nodes in ["1", "1024"] {
            assert_typed_error(&["model", "--qubits", "70", "--nodes", nodes], "overflows");
        }
    }

    #[test]
    fn sweep_renders_table() {
        let out = run_cli(&["sweep", "--from", "33", "--to", "35"]).unwrap();
        assert!(out.contains("33"));
        assert!(out.contains("35"));
        assert!(run_cli(&["sweep", "--from", "40", "--to", "34"]).is_err());
    }

    #[test]
    fn transpile_reports_reduction() {
        let out = run_cli(&["transpile", "--qubits", "12", "--ranks", "8"]).unwrap();
        assert!(out.contains("before:"));
        assert!(out.contains("after:"));
        assert!(out.contains("x less"));
    }

    #[test]
    fn check_runs_all_engines() {
        let out = run_cli(&["check", "--seed", "7"]).unwrap();
        assert!(out.contains("lint: clean"), "{out}");
        assert!(out.contains("fail-stop: rank 0 panicked"), "{out}");
        assert!(out.contains("returned Aborted{by: 0}"), "{out}");
        assert!(out.contains("schedule: lost update found"), "{out}");
        assert!(out.contains("seed 7"), "{out}");
        assert!(out.contains("all engines passed"), "{out}");
    }

    #[test]
    fn check_plans_proves_the_corpus_and_bites_on_fixtures() {
        let out = run_cli(&["check", "--plans"]).unwrap();
        assert!(out.contains("verified 216/216 corpus plans clean"), "{out}");
        assert!(
            out.contains("broken fixture (tag collision) rejected"),
            "{out}"
        );
        assert!(
            out.contains("broken fixture (ring overrun) rejected"),
            "{out}"
        );
        assert!(
            out.contains("broken fixture (unrestored layout) rejected"),
            "{out}"
        );
        assert!(out.contains("all broken fixtures rejected"), "{out}");
    }

    #[test]
    fn check_rejects_a_missing_root() {
        let err = run_cli(&["check", "--root", "/nonexistent/nowhere"]).unwrap_err();
        assert!(err.0.contains("lint walk failed"), "{}", err.0);
    }

    #[test]
    fn submit_rejects_a_transpile_value_that_would_inject_fields() {
        // Spliced raw, this value would close the string and add fields.
        let injected = "beam\",\"shots\":999999,\"x\":\"";
        let err = run_cli(&[
            "submit",
            "--port",
            "1",
            "--qubits",
            "4",
            "--transpile",
            injected,
        ])
        .unwrap_err();
        assert!(err.0.contains("unknown transpile mode"), "{}", err.0);
        // A valid value reaches the request as exactly that field.
        let tokens = [
            "submit",
            "--qubits",
            "4",
            "--transpile",
            "beam",
            "--repeat",
            "2",
        ];
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        let lines = submit_lines(&args).unwrap();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let req = qse_util::json::Json::parse(line).unwrap();
            assert_eq!(req.get("transpile").and_then(|t| t.as_str()), Some("beam"));
        }
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        assert!(run_cli(&["info", "--qubits", "3"]).is_err());
        assert!(run_cli(&["sweep", "--qubits", "3"]).is_err());
    }
}
