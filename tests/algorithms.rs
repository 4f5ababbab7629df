//! End-to-end algorithm tests: each builder from `qse::circuit::algorithms`
//! run through the engines and checked against its textbook behaviour.

use qse::circuit::algorithms::{bernstein_vazirani, ghz, qpe, read_phase_estimate};
use qse::math::approx::assert_close;
use qse::prelude::*;

/// Bernstein–Vazirani recovers the hidden string deterministically: the
/// final state is exactly |secret⟩.
#[test]
fn bernstein_vazirani_recovers_secret() {
    for secret in [0u64, 1, 0b101101, 0b111111, 0b010010] {
        let n = 6;
        let state = LocalExecutor::run(&bernstein_vazirani(n, secret));
        assert_close(state.amplitude(secret).norm_sqr(), 1.0, 1e-9);
    }
}

/// BV also works distributed, where the Hadamard layers hit global qubits.
#[test]
fn bernstein_vazirani_distributed() {
    let secret = 0b110101u64;
    let c = bernstein_vazirani(6, secret);
    let run = ThreadClusterExecutor::run(&c, &SimConfig::default_for(4), 0, true);
    let state = run.state.expect("gathered");
    assert_close(state[secret as usize].norm_sqr(), 1.0, 1e-9);
}

/// QPE recovers exactly-representable phases with certainty, and
/// `read_phase_estimate` undoes the big-endian bit reversal.
#[test]
fn qpe_exact_phase_recovery() {
    let t = 6u32;
    for k in [1u64, 13, 31, 63] {
        let phi = k as f64 / (1u64 << t) as f64;
        let state = LocalExecutor::run(&qpe(t, phi));
        let (best, p) = (0..state.storage().len() as u64)
            .map(|i| (i, state.amplitude(i).norm_sqr()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(p > 0.999, "phi={phi}: p={p}");
        assert_close(read_phase_estimate(best, t), phi, 1e-12);
    }
}

/// QPE on a non-representable phase concentrates within ±2^-t.
#[test]
fn qpe_approximate_phase() {
    let t = 7u32;
    let phi = 0.31234;
    let state = LocalExecutor::run(&qpe(t, phi));
    let (best, p) = (0..state.storage().len() as u64)
        .map(|i| (i, state.amplitude(i).norm_sqr()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert!(p > 0.4, "p={p}"); // textbook ≥ 4/π² ≈ 0.405
    let est = read_phase_estimate(best, t);
    assert!((est - phi).abs() < 1.0 / (1u64 << t) as f64);
}

/// GHZ correlations survive distribution: ⟨Z_iZ_j⟩ = 1 with ⟨Z_i⟩ = 0,
/// measured on the gathered state.
#[test]
fn ghz_distributed_correlations() {
    let n = 8u32;
    let run = ThreadClusterExecutor::run(&ghz(n), &SimConfig::fast_for(8), 0, true);
    let state = run.state.expect("gathered");
    // Only |0…0⟩ and |1…1⟩ are populated, equally.
    let all_ones = (1u64 << n) - 1;
    assert_close(state[0].norm_sqr(), 0.5, 1e-9);
    assert_close(state[all_ones as usize].norm_sqr(), 0.5, 1e-9);
    let populated = state.iter().filter(|a| a.norm_sqr() > 1e-12).count();
    assert_eq!(populated, 2);
}
