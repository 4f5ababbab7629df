//! The thread-cluster executor against a hand-rolled gate-at-a-time loop.
//!
//! The executor walks the engine's schedule, one blocked pass per run of
//! local gates; the loop here calls `DistributedState::apply` /
//! `apply_global_permutation` once per circuit gate or plan step, which
//! is also what `qse-bench`'s traced pass does. The two must leave the
//! same state **bit for bit** under every configuration that shapes the
//! schedule, and the executor's counters must not notice the runs.

use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::PlanStep;
use qse_circuit::Circuit;
use qse_comm::Universe;
use qse_core::config::TranspileMode;
use qse_core::executor::comm_avoid_plan;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_math::Complex64;
use qse_statevec::DistributedState;

const N: u32 = 9;
const BASIS: u64 = 0b1_0110_1001;
const RANKS: [u64; 3] = [1, 2, 4];
const TRANSPILE: [TranspileMode; 3] = [
    TranspileMode::Off,
    TranspileMode::Greedy,
    TranspileMode::Beam,
];

fn circuits() -> [(&'static str, Circuit); 3] {
    [
        ("qft", qft(N)),
        ("qft_like", random_circuit(N, 90, GatePool::QftLike, 17)),
        ("full", random_circuit(N, 90, GatePool::Full, 23)),
    ]
}

/// The circuit's gates, or its transpiled plan's steps, one by one.
fn steps(circuit: &Circuit, cfg: &SimConfig) -> Vec<PlanStep> {
    match comm_avoid_plan(circuit, cfg) {
        Some(plan) => plan.steps,
        None => circuit
            .gates()
            .iter()
            .cloned()
            .map(PlanStep::Gate)
            .collect(),
    }
}

/// Gathered state and summed `bytes_exchanged` of the gate-at-a-time loop.
fn hand_rolled(circuit: &Circuit, cfg: &SimConfig, steps: &[PlanStep]) -> (Vec<Complex64>, u64) {
    let dist_config = cfg.to_dist_config();
    let per_rank = Universe::new(cfg.n_ranks as usize).run(|comm| {
        let mut st: DistributedState =
            DistributedState::basis_state(comm, circuit.n_qubits(), BASIS, dist_config);
        for step in steps {
            match step {
                PlanStep::Gate(g) => st.apply(g).expect("gate"),
                PlanStep::Permute(p) => st.apply_global_permutation(p).expect("permute"),
            }
        }
        st.barrier();
        (st.stats().bytes_exchanged, st.gather().expect("gather"))
    });
    let bytes = per_rank.iter().map(|(b, _)| b).sum();
    let state = per_rank
        .into_iter()
        .find_map(|(_, s)| s)
        .expect("rank 0 gathered");
    (state, bytes)
}

fn assert_bits_equal(got: &[Complex64], want: &[Complex64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{ctx}: amplitude {i} differs: {g:?} vs {w:?}"
        );
    }
}

/// The executor and the hand-rolled loop on `cfg`: bitwise equal states,
/// the same step count and the same exchanged bytes.
fn assert_executor_matches_loop(circuit: &Circuit, cfg: &SimConfig, ctx: &str) {
    let steps = steps(circuit, cfg);
    let (want, want_bytes) = hand_rolled(circuit, cfg, &steps);
    let run = ThreadClusterExecutor::try_run(circuit, cfg, BASIS, true)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_bits_equal(&run.state.expect("gathered"), &want, ctx);
    assert_eq!(run.profiled.gate_count, steps.len(), "{ctx}");
    assert_eq!(run.profiled.bytes_exchanged, want_bytes, "{ctx}");
}

#[test]
fn executor_matches_gate_at_a_time_loop_bit_for_bit() {
    for (name, circuit) in circuits() {
        for ranks in RANKS {
            for transpile in TRANSPILE {
                for (non_blocking, streamed) in [(false, false), (true, false), (false, true)] {
                    let mut cfg = SimConfig::default_for(ranks);
                    cfg.transpile = transpile;
                    cfg.non_blocking = non_blocking;
                    cfg.streamed = streamed;
                    let ctx = format!(
                        "{name} R={ranks} {transpile:?} nb={non_blocking} streamed={streamed}"
                    );
                    assert_executor_matches_loop(&circuit, &cfg, &ctx);
                }
            }
        }
    }
}

/// Slices of 2^17 and 2^18 amplitudes span several cache blocks, so the
/// runs go block by block through the pool, and gates reaching the block
/// bit (the top Hadamards, the SWAPs) end runs.
#[test]
fn executor_matches_gate_at_a_time_loop_across_blocks() {
    const WIDE: u32 = 18;
    let circuits = [
        ("qft", qft(WIDE)),
        (
            "qft_blocked",
            cache_blocked_qft(WIDE, default_split(WIDE, WIDE - 1)),
        ),
        ("qft_like", random_circuit(WIDE, 90, GatePool::QftLike, 41)),
        ("full", random_circuit(WIDE, 90, GatePool::Full, 43)),
    ];
    for (name, circuit) in &circuits {
        for ranks in [1u64, 2] {
            let ctx = format!("{name} n={WIDE} R={ranks}");
            assert_executor_matches_loop(circuit, &SimConfig::default_for(ranks), &ctx);
        }
    }
}

/// `(gate_count, bytes_exchanged)` of the executor before it ran local
/// runs, per circuit × ranks × transpile mode in the order of
/// [`circuits`], [`RANKS`] and [`TRANSPILE`] — recorded from the
/// gate-at-a-time executor. Neither depends on the exchange mode or on
/// how local gates are grouped.
const PARENT_COUNTERS: [[[(usize, u64); 3]; 3]; 3] = [
    [
        [(49, 0), (46, 0), (46, 0)],
        [(49, 16384), (47, 4096), (47, 8192)],
        [(49, 32768), (48, 12288), (47, 12288)],
    ],
    [
        [(90, 0), (61, 0), (61, 0)],
        [(90, 122880), (66, 24576), (63, 12288)],
        [(90, 188416), (67, 30720), (65, 22528)],
    ],
    [
        [(90, 0), (84, 0), (84, 0)],
        [(90, 73728), (87, 16384), (87, 16384)],
        [(90, 126976), (93, 43008), (89, 32768)],
    ],
];

#[test]
fn counters_match_the_gate_at_a_time_executor() {
    for (ci, (name, circuit)) in circuits().into_iter().enumerate() {
        for (ri, ranks) in RANKS.into_iter().enumerate() {
            for (ti, transpile) in TRANSPILE.into_iter().enumerate() {
                let mut cfg = SimConfig::default_for(ranks);
                cfg.transpile = transpile;
                let run = ThreadClusterExecutor::try_run(&circuit, &cfg, BASIS, false).unwrap();
                assert_eq!(
                    (run.profiled.gate_count, run.profiled.bytes_exchanged),
                    PARENT_COUNTERS[ci][ri][ti],
                    "{name} R={ranks} {transpile:?}"
                );
            }
        }
    }
}
