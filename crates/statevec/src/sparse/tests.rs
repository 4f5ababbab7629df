use super::*;
use crate::single::SingleState;
use qse_circuit::random::{random_circuit, GatePool};
use qse_math::approx::assert_close;
use qse_util::rng::StdRng;
use std::f64::consts::FRAC_1_SQRT_2;

fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cnot(q - 1, q);
    }
    c
}

fn max_distance(sparse: &SparseState, dense: &SingleState) -> f64 {
    let dv = dense.to_vec();
    dv.iter()
        .enumerate()
        .map(|(i, d)| (sparse.amplitude(i as u64) - *d).norm_sqr().sqrt())
        .fold(0.0, f64::max)
}

#[test]
fn ghz_stays_two_amplitudes_at_any_width() {
    for n in [2u32, 8, 20, 40] {
        let s = SparseState::simulate(&ghz(n));
        assert_eq!(s.n_nonzero(), 2, "n = {n}");
        let k = (1u64 << n) - 1;
        assert_close(s.amplitude(0).re, FRAC_1_SQRT_2, 1e-15);
        assert_close(s.amplitude(k).re, FRAC_1_SQRT_2, 1e-15);
        assert_close(s.norm_sqr(), 1.0, 1e-12);
    }
}

#[test]
fn matches_dense_on_random_circuits() {
    for seed in 0..15 {
        let c = random_circuit(7, 50, GatePool::Full, seed);
        let sparse = SparseState::simulate(&c);
        let dense: SingleState = SingleState::simulate(&c);
        let d = max_distance(&sparse, &dense);
        assert!(d < 1e-9, "seed {seed}: distance {d:.3e}");
    }
}

#[test]
fn fully_dense_state_keeps_every_amplitude() {
    // The satellite property: on a state with no zero amplitudes the
    // sparse engine is a faithful (≤ 1e-9) mirror of the dense one and
    // never drops an amplitude unintentionally.
    for seed in [3u64, 17, 29] {
        let mut c = Circuit::new(6);
        // Rotations at generic angles leave no amplitude near zero.
        let mut rng = StdRng::seed_from_u64(seed);
        for q in 0..6 {
            c.h(q);
        }
        for layer in 0..4 {
            for q in 0..6u32 {
                c.push(qse_circuit::Gate::Ry {
                    target: q,
                    theta: 0.3
                        + 0.1 * f64::from(q)
                        + 0.7 * layer as f64
                        + rng.random_range(0.0..0.05),
                });
            }
            c.cnot(0, 3).cnot(1, 4).cnot(2, 5);
        }
        let dense: SingleState = SingleState::simulate(&c);
        let min_amp = dense
            .to_vec()
            .iter()
            .map(|a| a.norm_sqr().sqrt())
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_amp > 1e-6,
            "seed {seed}: test premise broken, min |amp| = {min_amp:.3e}"
        );
        let sparse = SparseState::simulate(&c);
        assert_eq!(sparse.n_nonzero(), 64, "seed {seed} dropped amplitudes");
        let d = max_distance(&sparse, &dense);
        assert!(d < 1e-9, "seed {seed}: distance {d:.3e}");
    }
}

#[test]
fn epsilon_boundary_keeps_exact_epsilon_amplitudes() {
    // Pinned semantics: drop iff |amp| < ε strictly. H|0⟩ produces two
    // amplitudes of exactly FRAC_1_SQRT_2; with ε set to that exact
    // value both survive…
    let mut s = SparseState::basis_state_with_epsilon(1, 0, FRAC_1_SQRT_2);
    s.apply(&qse_circuit::Gate::H(0));
    assert_eq!(s.n_nonzero(), 2, "exactly-ε amplitudes must survive");
    // …and with ε one ulp above, both are dropped.
    let above = f64::from_bits(FRAC_1_SQRT_2.to_bits() + 1);
    let mut s = SparseState::basis_state_with_epsilon(1, 0, above);
    s.apply(&qse_circuit::Gate::H(0));
    assert_eq!(s.n_nonzero(), 0, "below-ε amplitudes must be dropped");
    assert_eq!(
        s.sample_counts(&mut StdRng::seed_from_u64(0), 5)
            .unwrap_err(),
        MeasureError::ZeroNorm
    );
}

#[test]
fn interference_residue_is_pruned() {
    // H then H is the identity; the cancelled branch must not densify
    // the map.
    let mut s = SparseState::basis_state(3, 0);
    s.apply(&qse_circuit::Gate::H(1));
    assert_eq!(s.n_nonzero(), 2);
    s.apply(&qse_circuit::Gate::H(1));
    assert_eq!(s.n_nonzero(), 1);
    assert_close(s.amplitude(0).norm_sqr(), 1.0, 1e-12);
    // With ε = 0 pruning is disabled and the explicit zero survives.
    let mut s = SparseState::basis_state_with_epsilon(3, 0, 0.0);
    s.apply(&qse_circuit::Gate::H(1));
    s.apply(&qse_circuit::Gate::H(1));
    assert_eq!(s.n_nonzero(), 2);
}

#[test]
fn swap_and_diagonal_gates_are_exact_key_operations() {
    let mut s = SparseState::simulate(&ghz(10));
    let before = s.amplitude(0);
    s.apply(&qse_circuit::Gate::Swap(0, 9));
    assert_eq!(s.n_nonzero(), 2, "swap must not densify");
    assert_eq!(s.amplitude(0), before, "swap is exact");
    s.apply(&qse_circuit::Gate::Phase {
        target: 3,
        theta: 0.37,
    });
    assert_eq!(s.n_nonzero(), 2, "diagonal must not densify");
}

#[test]
fn sample_counts_matches_dense_contract() {
    let c = ghz(4);
    let sparse = SparseState::simulate(&c);
    let dense: SingleState = SingleState::simulate(&c);
    let seed = 31;
    let a = crate::measure::sample_counts(&dense, &mut StdRng::seed_from_u64(seed), 3000).unwrap();
    let b = sparse
        .sample_counts(&mut StdRng::seed_from_u64(seed), 3000)
        .unwrap();
    let a: std::collections::BTreeMap<u64, usize> = a.into_iter().collect();
    assert_eq!(a, b, "fixed-seed histograms must agree");
    assert!(b.keys().all(|&k| k == 0 || k == 0b1111));
}

#[test]
fn measurement_collapses_and_renormalises() {
    for u in [0.1, 0.9] {
        let mut s = SparseState::simulate(&ghz(6));
        let out = s.measure_qubit_with(0, u).unwrap();
        assert_close(out.probability, 0.5, 1e-12);
        assert_eq!(s.n_nonzero(), 1);
        assert_close(s.norm_sqr(), 1.0, 1e-12);
        for q in 1..6 {
            assert_close(s.prob_one(q), f64::from(out.bit), 1e-12);
        }
    }
}

#[test]
fn measurement_errors_are_typed_and_nonmutating() {
    let mut s = SparseState::basis_state(2, 0);
    let err = s.collapse(0, 1).unwrap_err();
    assert!(matches!(
        err,
        MeasureError::ImpossibleOutcome {
            qubit: 0,
            bit: 1,
            ..
        }
    ));
    assert_eq!(s.n_nonzero(), 1, "failed collapse must leave state intact");
    assert_eq!(s.amplitude(0), Complex64::ONE);
}

#[test]
fn controlled_gates_respect_the_control() {
    // CNOT with control clear is the identity on stored keys.
    let mut s = SparseState::basis_state(2, 0);
    s.apply(&qse_circuit::Gate::CNot {
        control: 0,
        target: 1,
    });
    assert_eq!(s.amplitude(0), Complex64::ONE);
    // With control set it flips the target key exactly.
    let mut s = SparseState::basis_state(2, 0b01);
    s.apply(&qse_circuit::Gate::CNot {
        control: 0,
        target: 1,
    });
    assert_eq!(s.amplitude(0b11), Complex64::ONE);
    assert_eq!(s.n_nonzero(), 1);
}

#[test]
fn unitary2_matches_dense() {
    for seed in 0..8 {
        let c = random_circuit(5, 30, GatePool::Full, 100 + seed);
        let sparse = SparseState::simulate(&c);
        let dense: SingleState = SingleState::simulate(&c);
        let d = max_distance(&sparse, &dense);
        assert!(d < 1e-9, "seed {seed}: distance {d:.3e}");
        assert_close(sparse.norm_sqr(), 1.0, 1e-9);
    }
}

#[test]
fn forty_qubit_ghz_runs_in_map_space() {
    // 2⁴⁰ dense amplitudes would be 16 TiB; the sparse engine holds 2.
    let s = SparseState::simulate(&ghz(40));
    assert_eq!(s.n_nonzero(), 2);
    let counts = s.sample_counts(&mut StdRng::seed_from_u64(5), 200).unwrap();
    assert!(counts.keys().all(|&k| k == 0 || k == (1u64 << 40) - 1));
}
