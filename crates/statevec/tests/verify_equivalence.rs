//! Cross-validation of the static plan verifier (`qse-check::verify`)
//! against the running engine: the symbolic trace's per-rank byte totals
//! must equal the measured `TrafficStats.bytes_exchanged` **bit-for-bit**
//! on every run — across rank counts, exchange modes,
//! half-exchange SWAPs and transpile strategies — as must its per-rank
//! send count and send bytes the measured `messages_sent` and
//! `bytes_sent`, which holds the verifier's chunk expansion to the chunk
//! driver's; and every plan the equivalence suites execute must verify
//! statically before it runs.

use qse_check::verify::{derive_traces, verify_plan, TraceOp, VerifyOptions};
use qse_circuit::classify::Layout;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{comm_avoid, ByteOracle, Plan, Strategy};
use qse_circuit::{Circuit, Permutation};
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::Universe;
use qse_statevec::{DistConfig, DistributedState};

const MODES: [ExchangeMode; 3] = [
    ExchangeMode::Blocking,
    ExchangeMode::NonBlocking,
    ExchangeMode::Streamed,
];

fn dist_config(mode: ExchangeMode, chunk: usize, half: bool) -> DistConfig {
    DistConfig {
        exchange_mode: mode,
        chunk_policy: ChunkPolicy::new(chunk).unwrap(),
        half_exchange_swaps: half,
    }
}

fn verify_opts(config: DistConfig) -> VerifyOptions {
    VerifyOptions {
        exchange_mode: config.exchange_mode,
        chunk_policy: config.chunk_policy,
        half_exchange_swaps: config.half_exchange_swaps,
    }
}

/// Runs `plan` on `ranks` ranks and returns each rank's measured
/// `(bytes_exchanged, messages_sent, bytes_sent)`, in rank order.
fn measured_traffic(plan: &Plan, ranks: usize, config: DistConfig) -> Vec<(u64, u64, u64)> {
    Universe::new(ranks).run(|comm| {
        let mut st = DistributedState::basis_state(comm, plan.n_qubits(), 1, config);
        st.run_plan(plan).unwrap();
        st.barrier();
        let stats = st.stats();
        (stats.bytes_exchanged, stats.messages_sent, stats.bytes_sent)
    })
}

fn plan_for(circuit: &Circuit, ranks: u64, strategy: Option<Strategy>) -> Plan {
    match strategy {
        None => Plan::from_circuit(circuit, Permutation::identity(circuit.n_qubits())),
        Some(s) => {
            let layout = Layout::new(circuit.n_qubits(), ranks);
            comm_avoid(circuit, &layout, s, &ByteOracle).with_layout_restored()
        }
    }
}

/// The property: symbolic per-rank byte totals equal the runtime's
/// measured `bytes_exchanged` exactly, and the trace's `Send` events are
/// the messages the runtime sent — as many, and as many bytes.
fn check_bytes_match(
    circuit: &Circuit,
    ranks: u64,
    strategy: Option<Strategy>,
    config: DistConfig,
    what: &str,
) {
    let plan = plan_for(circuit, ranks, strategy);
    let opts = verify_opts(config);
    verify_plan(&plan, Some(circuit), ranks, &opts)
        .unwrap_or_else(|e| panic!("{what}: plan failed static verification: {e}"));
    let ts = derive_traces(&plan, ranks, &opts).unwrap();
    let measured = measured_traffic(&plan, ranks as usize, config);
    let predicted: Vec<u64> = ts.ranks.iter().map(|r| r.predicted_exchanged).collect();
    let exchanged: Vec<u64> = measured.iter().map(|m| m.0).collect();
    assert_eq!(
        predicted, exchanged,
        "{what}: symbolic trace bytes diverge from measured TrafficStats"
    );
    for (rank, (tr, &(_, messages, bytes))) in ts.ranks.iter().zip(&measured).enumerate() {
        let sends = tr.events.iter().filter_map(|e| match e.op {
            TraceOp::Send { bytes, .. } => Some(bytes as u64),
            _ => None,
        });
        let (count, sum) = sends.fold((0, 0), |(c, s), b| (c + 1, s + b));
        assert_eq!(
            (count, sum),
            (messages, bytes),
            "{what}: rank {rank}'s trace sends (messages, bytes) differ from measured"
        );
    }
}

#[test]
fn symbolic_bytes_match_measured_qft() {
    let c = qft(8);
    for ranks in [2u64, 4, 8] {
        for mode in MODES {
            for strategy in [None, Some(Strategy::Greedy), Some(Strategy::beam())] {
                check_bytes_match(
                    &c,
                    ranks,
                    strategy,
                    dist_config(mode, 1 << 20, false),
                    &format!("qft8 R={ranks} {mode:?} {strategy:?}"),
                );
            }
        }
    }
}

#[test]
fn symbolic_bytes_match_measured_random() {
    for (seed, ranks) in [(0u64, 2u64), (1, 4), (2, 8)] {
        let c = random_circuit(7, 40, GatePool::Full, seed);
        for mode in MODES {
            for strategy in [None, Some(Strategy::Greedy), Some(Strategy::beam())] {
                check_bytes_match(
                    &c,
                    ranks,
                    strategy,
                    dist_config(mode, 1 << 20, false),
                    &format!("rand7s{seed} R={ranks} {mode:?} {strategy:?}"),
                );
            }
        }
    }
}

#[test]
fn symbolic_bytes_match_measured_small_chunks_and_half_exchange() {
    // Small chunks force multi-chunk lowering; half-exchange SWAPs halve
    // the one-global swap payload — both must stay exact.
    let c = qft(7);
    for ranks in [2u64, 4] {
        for mode in MODES {
            for half in [false, true] {
                check_bytes_match(
                    &c,
                    ranks,
                    None,
                    dist_config(mode, 256, half),
                    &format!("qft7 chunked R={ranks} {mode:?} half={half}"),
                );
            }
        }
    }
}

/// Every plan the equivalence suites execute (`transpile_equivalence`,
/// `fused_equivalence`, `streamed_equivalence` circuit families) must
/// pass static verification for every rank count and mode those suites
/// sweep — the tier-1 pre-flight form of the proof.
#[test]
fn every_equivalence_suite_plan_verifies_statically() {
    let mut circuits: Vec<(String, Circuit)> = vec![("qft9".into(), qft(9))];
    for seed in 0..5 {
        circuits.push((
            format!("rand8s{seed}"),
            random_circuit(8, 60, GatePool::Full, seed),
        ));
    }
    for seed in 10..12 {
        circuits.push((
            format!("qftlike{seed}"),
            random_circuit(8, 60, GatePool::QftLike, seed),
        ));
    }
    let mut verified = 0usize;
    for (name, c) in &circuits {
        for ranks in [1u64, 2, 4, 8] {
            for strategy in [None, Some(Strategy::Greedy), Some(Strategy::beam())] {
                let plan = plan_for(c, ranks, strategy);
                for mode in MODES {
                    let opts = verify_opts(dist_config(mode, 1 << 20, false));
                    verify_plan(&plan, Some(c), ranks, &opts).unwrap_or_else(|e| {
                        panic!("{name} R={ranks} {mode:?} {strategy:?}: {e}")
                    });
                    verified += 1;
                }
            }
        }
    }
    assert!(verified >= 200, "suite sweep covered {verified} plans");
}
