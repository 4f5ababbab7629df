//! Cross-crate integration tests: the full stack from circuit building
//! through distributed execution to measured reports.

use qse::core::scaling::nodes_for;
use qse::math::approx::{assert_close, assert_slices_close};
use qse::prelude::*;
use qse::statevec::reference::ReferenceState;

/// The whole pipeline: transpile, distribute, execute, gather, compare.
#[test]
fn end_to_end_qft_pipeline() {
    let n = 10u32;
    let ranks = 8u64;
    let layout = Layout::new(n, ranks);
    let built_in = qft(n);
    let blocked = cache_blocked_qft(n, default_split(n, layout.local_qubits()));

    for basis in [0u64, 1, 513, 1023] {
        let mut want = ReferenceState::basis_state(n, basis);
        want.run(&built_in);

        for circuit in [&built_in, &blocked] {
            for cfg in [SimConfig::default_for(ranks), SimConfig::fast_for(ranks), {
                let mut c = SimConfig::fast_for(ranks);
                c.half_exchange_swaps = true;
                c
            }] {
                let run = ThreadClusterExecutor::run(circuit, &cfg, basis, true);
                assert_slices_close(&run.state.expect("gathered"), want.amplitudes(), 1e-9);
            }
        }
    }
}

/// The general transpiler's output, executed distributed, equals the
/// original circuit up to the tracked layout permutation — and restoring
/// the layout makes the states literally equal.
#[test]
fn transpiler_layout_restoration_round_trip() {
    use qse::circuit::random::{random_circuit, GatePool};
    use qse::statevec::DistributedState;
    let n = 8u32;
    let ranks = 4u64;
    let layout = Layout::new(n, ranks);
    let cfg = SimConfig::default_for(ranks);
    for seed in 0..3 {
        let circuit = random_circuit(n, 70, GatePool::Full, seed);
        let transpiled = cache_block(&circuit, layout.local_qubits());
        // The restored plan ends with exactly one batched permutation —
        // one exchange regardless of how many transpositions the layout
        // accumulated.
        let plan = transpiled.with_layout_restored();
        assert_eq!(plan.permute_count(), 1);

        let want = ReferenceState::simulate(&circuit);
        let gathered = Universe::new(ranks as usize).run(|comm| {
            let mut st = DistributedState::basis_state(comm, n, 0, cfg.to_dist_config());
            st.run_plan(&plan).expect("plan run");
            st.gather().expect("gather")
        });
        let state = gathered.into_iter().flatten().next().expect("rank 0 state");
        assert_slices_close(&state, want.amplitudes(), 1e-9);
    }
}

/// Comm-avoiding transpilation through the executor front door: both
/// strategies reproduce the untranspiled amplitudes while measurably
/// exchanging fewer bytes.
#[test]
fn comm_avoiding_transpile_preserves_state_and_cuts_traffic() {
    let n = 10u32;
    let ranks = 8u64;
    let circuit = qft(n);
    let mut want = ReferenceState::basis_state(n, 37);
    want.run(&circuit);

    let off = ThreadClusterExecutor::run(&circuit, &SimConfig::default_for(ranks), 37, true);
    assert_slices_close(&off.state.expect("gathered"), want.amplitudes(), 1e-9);

    for mode in [TranspileMode::Greedy, TranspileMode::Beam] {
        let mut cfg = SimConfig::default_for(ranks);
        cfg.transpile = mode;
        let run = ThreadClusterExecutor::run(&circuit, &cfg, 37, true);
        assert_slices_close(&run.state.expect("gathered"), want.amplitudes(), 1e-9);
        assert!(
            run.profiled.bytes_exchanged < off.profiled.bytes_exchanged,
            "{mode:?} must cut exchange traffic: {} !< {}",
            run.profiled.bytes_exchanged,
            off.profiled.bytes_exchanged
        );
    }
}

/// QFT → inverse QFT is the identity on the distributed engine.
#[test]
fn distributed_qft_inverse_identity() {
    let n = 9u32;
    let circuit = qft(n).then(&inverse_qft(n));
    let basis = 0b101010101u64;
    let run = ThreadClusterExecutor::run(&circuit, &SimConfig::fast_for(8), basis, true);
    let state = run.state.expect("gathered");
    assert_close(state[basis as usize].re, 1.0, 1e-9);
    let norm: f64 = state.iter().map(|a| a.norm_sqr()).sum();
    assert_close(norm, 1.0, 1e-9);
}

/// Model-layer sanity across the whole fig 2 grid: every feasible
/// (qubits, node-kind) pair produces a finite, positive estimate, and
/// runtime grows with register size within a series.
#[test]
fn model_grid_is_well_formed() {
    let machine = archer2();
    for kind in [NodeKind::Standard, NodeKind::HighMem] {
        let mut last: Option<(u64, f64)> = None;
        for n in 33..=44u32 {
            let Some(nodes) = nodes_for(&machine, kind, n) else {
                continue;
            };
            let mut cfg = SimConfig::default_for(nodes);
            cfg.node_kind = kind;
            let est = ModelExecutor::new(&machine).run(&qft(n), &cfg);
            assert!(est.runtime_s.is_finite() && est.runtime_s > 0.0);
            assert!(est.total_energy_j() > 0.0);
            assert!(est.cu > 0.0);
            // Runtime grows with register size within the multi-node
            // regime. The single-node → multi-node boundary is exempt:
            // a lone node runs with no distributed gates at all (the
            // paper singles those runs out in fig 2 for the same reason).
            if let Some((prev_nodes, prev_runtime)) = last {
                if prev_nodes > 1 {
                    assert!(
                        est.runtime_s > prev_runtime,
                        "{kind:?} runtime must grow with qubits at {n}"
                    );
                }
            }
            last = Some((nodes, est.runtime_s));
        }
    }
}

/// Grover's search end to end: the marked state's probability after the
/// optimal iteration count is near 1, identically on the local engine,
/// the distributed engine and the reference.
#[test]
fn grover_finds_the_marked_state() {
    use qse::circuit::algorithms::{grover, grover_optimal_iterations};
    let n = 7u32;
    let marked = 0b1011010u64;
    let c = grover(n, marked, grover_optimal_iterations(n));

    let local = LocalExecutor::run(&c);
    let p_local = local.amplitude(marked).norm_sqr();
    assert!(p_local > 0.99, "local p = {p_local}");

    let run = ThreadClusterExecutor::run(&c, &SimConfig::fast_for(8), 0, true);
    let state = run.state.expect("gathered");
    let p_dist = state[marked as usize].norm_sqr();
    assert!((p_dist - p_local).abs() < 1e-9);

    let reference = ReferenceState::simulate(&c);
    assert_slices_close(&local.to_vec(), reference.amplitudes(), 1e-9);
}

/// The general two-qubit unitary runs correctly in every distribution
/// regime: both qubits local, one global, and both global (the engine's
/// SWAP decomposition).
#[test]
fn unitary2_all_distribution_regimes() {
    use qse::circuit::random::random_unitary2;
    let mut rng = qse::util::rng::StdRng::seed_from_u64(17);
    let n = 6u32;
    let ranks = 8u64; // locals: 0..2, globals: 3..5
    for (a, b) in [(0u32, 2u32), (1, 4), (4, 1), (3, 5), (5, 3)] {
        let mut c = Circuit::new(n);
        // Non-trivial input state first.
        for q in 0..n {
            c.h(q);
            c.phase(q, 0.2 * q as f64 + 0.1);
        }
        c.push(Gate::Unitary2 {
            a,
            b,
            matrix: random_unitary2(&mut rng),
        });
        let want = ReferenceState::simulate(&c);
        for cfg in [SimConfig::default_for(ranks), SimConfig::fast_for(ranks)] {
            let run = ThreadClusterExecutor::run(&c, &cfg, 0, true);
            assert_slices_close(&run.state.unwrap(), want.amplitudes(), 1e-9);
        }
    }
}

/// Multi-controlled phases are fully local (diagonal) even when every
/// qubit is global — zero bytes on the wire.
#[test]
fn mcphase_never_communicates() {
    let n = 6u32;
    let mut c = Circuit::new(n);
    c.push(Gate::MCPhase {
        qubits: vec![3, 4, 5],
        theta: 1.0,
    });
    let run = ThreadClusterExecutor::run(&c, &SimConfig::default_for(8), 0b111000, true);
    assert_eq!(run.profiled.bytes_sent, 0);
    let want = ReferenceState::simulate(&{
        let mut c2 = Circuit::new(n);
        // same circuit from the same basis state
        c2.push(Gate::MCPhase {
            qubits: vec![3, 4, 5],
            theta: 1.0,
        });
        c2
    });
    let _ = want; // phase on a basis state: just check norm and phase
    let state = run.state.unwrap();
    let amp = state[0b111000];
    assert!((amp.arg() - 1.0).abs() < 1e-12, "phase {}", amp.arg());
}

/// The umbrella prelude exposes a working surface.
#[test]
fn prelude_surface_compiles_and_runs() {
    let mut c = Circuit::new(3);
    c.h(0).cnot(0, 1).swap(1, 2);
    let s = LocalExecutor::run(&c);
    assert_close(s.norm_sqr(), 1.0, 1e-12);
    let out = Universe::new(2).run(|comm| comm.rank());
    assert_eq!(out, vec![0, 1]);
}
