//! Model-vs-measurement cross-validation.
//!
//! The analytic model's absolute constants describe ARCHER2, not this
//! host — but its *orderings* (which variant wins) must agree with what
//! the thread-cluster engine actually measures here, otherwise the model
//! is rationalising rather than predicting. Wall-clock assertions use
//! generous margins and deterministic byte counts wherever possible to
//! stay robust on noisy CI machines.

use qse_circuit::benchmarks::hadamard_benchmark;
use qse_circuit::classify::Layout;
use qse_circuit::lower::{circuit_traffic, GateTraffic};
use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_core::{ModelExecutor, SimConfig, ThreadClusterExecutor};
use qse_machine::archer2;
use qse_machine::archer2::Machine;
use qse_util::check::check;
use qse_util::rng::Rng;

/// The bytes the engine measures, against the lowering folded over ranks
/// and against the model's per-gate bytes × participating ranks.
fn assert_traffic_exact(machine: &Machine, circuit: &Circuit, ranks: u64, half: bool) {
    let mut cfg = SimConfig::default_for(ranks);
    cfg.half_exchange_swaps = half;
    let measured = ThreadClusterExecutor::run(circuit, &cfg, 0, false)
        .profiled
        .bytes_sent;
    let at = format!("n={} R={ranks} half={half}", circuit.n_qubits());
    let layout = Layout::new(circuit.n_qubits(), ranks);
    let traffic = circuit_traffic(circuit, &layout, half).unwrap();
    let folded: u64 = traffic.iter().map(GateTraffic::bytes_sent).sum();
    assert_eq!(folded, measured, "fold, {at}");
    let est = ModelExecutor::new(machine).run(circuit, &cfg);
    let modeled: u64 = est
        .gates
        .iter()
        .map(|g| g.cost.comm_bytes * (g.cost.participation * ranks as f64) as u64)
        .sum();
    assert_eq!(modeled, measured, "model, {at}");
}

/// The model's traffic is exact: over random circuits of every gate kind
/// (global controls, both-global SWAPs and `Unitary2`s included), every
/// rank count and both SWAP exchanges, and over the QFT and its
/// cache-blocked form, which the model says halves the traffic.
#[test]
fn model_traffic_equals_measured_traffic() {
    let machine = archer2();
    check(32, |rng| {
        let n = rng.random_range(6u32..=10);
        let circuit = random_circuit(n, 30, GatePool::Full, rng.random_range(0u64..1 << 32));
        for ranks in [1u64, 2, 4, 8] {
            for half in [false, true] {
                assert_traffic_exact(&machine, &circuit, ranks, half);
            }
        }
    });
    for n in [9u32, 10] {
        let blocked = cache_blocked_qft(n, default_split(n, n - 3));
        for circuit in [qft(n), blocked] {
            for half in [false, true] {
                assert_traffic_exact(&machine, &circuit, 8, half);
            }
        }
    }
}

/// Ordering agreement on the worst-case-vs-local contrast: the model says
/// a distributed Hadamard costs far more than a local one; measured
/// wall-clock on the thread cluster must at least preserve the ordering.
#[test]
fn model_and_measurement_agree_on_locality_ordering() {
    let n = 16u32;
    let ranks = 4u64;
    let machine = archer2();
    let gates = 12usize;
    let local_c = hadamard_benchmark(n, 0, gates);
    let dist_c = hadamard_benchmark(n, n - 1, gates);

    let model_local = ModelExecutor::new(&machine).run(&local_c, &SimConfig::default_for(ranks));
    let model_dist = ModelExecutor::new(&machine).run(&dist_c, &SimConfig::default_for(ranks));
    assert!(model_dist.runtime_s > 5.0 * model_local.runtime_s);

    // Measure with a couple of retries to ride out scheduler noise.
    let mut agreed = false;
    for _ in 0..3 {
        let run_local =
            ThreadClusterExecutor::run(&local_c, &SimConfig::default_for(ranks), 0, false);
        let run_dist =
            ThreadClusterExecutor::run(&dist_c, &SimConfig::default_for(ranks), 0, false);
        if run_dist.profiled.wall_s > run_local.profiled.wall_s {
            agreed = true;
            break;
        }
    }
    assert!(agreed, "measured ordering never matched the model");
}

/// The model's profile fractions match the engine's measured per-class
/// attribution in ordering: worst-case > built-in QFT > cache-blocked.
#[test]
fn profile_orderings_agree() {
    let n = 14u32;
    let ranks = 4u64;
    let machine = archer2();
    let layout = Layout::new(n, ranks);
    let circuits = [
        hadamard_benchmark(n, n - 1, 10),
        qft(n),
        cache_blocked_qft(n, default_split(n, layout.local_qubits())),
    ];
    let model_fracs: Vec<f64> = circuits
        .iter()
        .map(|c| {
            ModelExecutor::new(&machine)
                .run(c, &SimConfig::default_for(ranks))
                .comm_fraction()
        })
        .collect();
    let measured_fracs: Vec<f64> = circuits
        .iter()
        .map(|c| {
            ThreadClusterExecutor::run(c, &SimConfig::default_for(ranks), 0, false)
                .profiled
                .profile
                .distributed_fraction()
        })
        .collect();
    assert!(model_fracs[0] > model_fracs[1] && model_fracs[1] > model_fracs[2]);
    assert!(
        measured_fracs[0] > measured_fracs[2],
        "measured: {measured_fracs:?}"
    );
}
