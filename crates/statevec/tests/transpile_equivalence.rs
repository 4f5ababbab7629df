//! Property tests for the comm-avoiding transpiler: on every circuit
//! family, rank count and exchange mode, executing the
//! transpiled plan (placement search + batched global permutations) must
//! reproduce the untranspiled distributed run **bit-for-bit** — the
//! permutation steps move amplitudes without arithmetic, and a relocated
//! single-target gate's two-term combine `m·a + m'·b` is commutative, so
//! the local and distributed kernels agree to the last ULP — and must
//! never exchange more amplitude payload than the untranspiled run.
//!
//! The one exception is `Gate::Unitary2`: its four-term combine
//! associates differently in the local orbit kernel than in the
//! exchange-then-combine distributed path, so circuits drawing from
//! `GatePool::Full` are held to 1e-9 closeness instead of bit equality.

use qse_circuit::classify::Layout;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{comm_avoid, ByteOracle, Plan, Strategy};
use qse_circuit::Circuit;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::Universe;
use qse_math::Complex64;
use qse_statevec::{DistConfig, DistributedState};

const MODES: [ExchangeMode; 3] = [
    ExchangeMode::Blocking,
    ExchangeMode::NonBlocking,
    ExchangeMode::Streamed,
];

fn config(mode: ExchangeMode) -> DistConfig {
    DistConfig {
        exchange_mode: mode,
        chunk_policy: ChunkPolicy::new(1 << 20).unwrap(),
        ..DistConfig::default()
    }
}

/// Runs the untranspiled circuit and returns the gathered state plus the
/// total amplitude payload exchanged across ranks.
fn run_plain(circuit: &Circuit, ranks: usize, config: DistConfig) -> (Vec<Complex64>, u64) {
    let out = Universe::new(ranks).run(|comm| {
        let mut st = DistributedState::basis_state(comm, circuit.n_qubits(), 1, config);
        st.run(circuit).unwrap();
        st.barrier();
        let exchanged = st.stats().bytes_exchanged;
        (st.gather().unwrap(), exchanged)
    });
    collect(out)
}

/// Runs a transpiled plan and returns the gathered state plus the total
/// amplitude payload exchanged across ranks.
fn run_plan(plan: &Plan, ranks: usize, config: DistConfig) -> (Vec<Complex64>, u64) {
    let out = Universe::new(ranks).run(|comm| {
        let mut st = DistributedState::basis_state(comm, plan.n_qubits(), 1, config);
        st.run_plan(plan).unwrap();
        st.barrier();
        let exchanged = st.stats().bytes_exchanged;
        (st.gather().unwrap(), exchanged)
    });
    collect(out)
}

fn collect(out: Vec<(Option<Vec<Complex64>>, u64)>) -> (Vec<Complex64>, u64) {
    let mut state = None;
    let mut exchanged = 0;
    for (s, e) in out {
        if let Some(s) = s {
            state = Some(s);
        }
        exchanged += e;
    }
    (state.expect("rank 0 gathered"), exchanged)
}

/// Asserts two states are identical down to the bit pattern.
fn assert_bits_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// How close the transpiled state must sit to the untranspiled one.
#[derive(Clone, Copy)]
enum Bar {
    /// Bit-for-bit: gate set limited to two-term (commutative) combines.
    Bitwise,
    /// 1e-9 closeness: circuits with `Unitary2` four-term combines.
    Close,
}

/// The property: for each strategy and exchange mode, the restored-layout
/// plan reproduces the untranspiled run (to `bar`) and exchanges no more
/// payload.
fn check_equivalence(circuit: &Circuit, ranks: usize, bar: Bar, what: &str) {
    let layout = Layout::new(circuit.n_qubits(), ranks as u64);
    for (name, strategy) in [("greedy", Strategy::Greedy), ("beam", Strategy::beam())] {
        let plan = comm_avoid(circuit, &layout, strategy, &ByteOracle).with_layout_restored();
        for mode in MODES {
            let tag = format!("{what} {name} {mode:?}");
            let (want, plain_bytes) = run_plain(circuit, ranks, config(mode));
            let (got, plan_bytes) = run_plan(&plan, ranks, config(mode));
            match bar {
                Bar::Bitwise => assert_bits_equal(&got, &want, &tag),
                Bar::Close => {
                    qse_math::approx::assert_slices_close(&got, &want, 1e-9);
                }
            }
            assert!(
                plan_bytes <= plain_bytes,
                "{tag}: transpiled exchanged more ({plan_bytes} > {plain_bytes})"
            );
        }
    }
}

#[test]
fn qft_transpiled_bitwise_equal() {
    for ranks in [1usize, 2, 4, 8] {
        check_equivalence(&qft(9), ranks, Bar::Bitwise, &format!("qft R={ranks}"));
    }
}

#[test]
fn random_circuits_transpiled_close() {
    for ranks in [1usize, 2, 4, 8] {
        for seed in 0..5 {
            let c = random_circuit(8, 60, GatePool::Full, seed);
            check_equivalence(&c, ranks, Bar::Close, &format!("seed {seed} R={ranks}"));
        }
    }
}

#[test]
fn qft_like_random_circuits_transpiled_bitwise_equal() {
    // The QftLike pool is diagonal-heavy — the transpiler's best case,
    // where most offenders are phase gates it can leave in place.
    for ranks in [4usize, 8] {
        for seed in 10..12 {
            let c = random_circuit(8, 60, GatePool::QftLike, seed);
            check_equivalence(
                &c,
                ranks,
                Bar::Bitwise,
                &format!("qftlike {seed} R={ranks}"),
            );
        }
    }
}

/// The acceptance regression: on QFT n=20 at R=4, the comm-avoiding pass
/// must cut measured exchange payload by at least 25 % — for both search
/// strategies — while reproducing the state exactly.
#[test]
fn qft_n20_r4_exchanged_bytes_drop_at_least_25_percent() {
    let n = 20u32;
    let ranks = 4usize;
    let circuit = qft(n);
    let layout = Layout::new(n, ranks as u64);
    let (want, plain_bytes) = run_plain(&circuit, ranks, config(ExchangeMode::Blocking));
    assert!(plain_bytes > 0, "baseline exchanged nothing");
    for (name, strategy) in [("greedy", Strategy::Greedy), ("beam", Strategy::beam())] {
        let plan = comm_avoid(&circuit, &layout, strategy, &ByteOracle).with_layout_restored();
        let (got, plan_bytes) = run_plan(&plan, ranks, config(ExchangeMode::Blocking));
        assert_bits_equal(&got, &want, name);
        assert!(
            plan_bytes * 4 <= plain_bytes * 3,
            "{name}: {plan_bytes} bytes is not a ≥25 % drop from {plain_bytes}"
        );
    }
}
