//! Quantum Phase Estimation on the distributed engine.
//!
//! The paper motivates the QFT as "a common subroutine of larger quantum
//! algorithms, like Quantum Phase Estimation" (§2.3). This example builds
//! the textbook QPE circuit for a phase gate with a known eigenphase,
//! runs it distributed over thread ranks, and reads the phase back out of
//! the measurement distribution — exercising the full stack end to end.
//!
//! ```sh
//! cargo run --release --example distributed_qpe
//! ```

use qse::circuit::qft::inverse_qft;
use qse::math::bits;
use qse::prelude::*;

/// Builds QPE for the single-qubit phase oracle `diag(1, e^{2πiφ})` with
/// `t` counting qubits; the eigenstate |1⟩ lives on qubit `t`.
fn qpe_circuit(t: u32, phi: f64) -> Circuit {
    let n = t + 1;
    let mut c = Circuit::new(n);
    // Prepare the eigenstate |1⟩ on the work qubit.
    c.x(t);
    // Counting register in superposition.
    for q in 0..t {
        c.h(q);
    }
    // Controlled powers of the oracle: with this repository's big-endian
    // QFT convention (qubit 0 is the transform's MSB), counting qubit q
    // controls U^(2^{t-1-q}). A controlled phase on (control, work) is
    // exactly CPhase.
    for q in 0..t {
        let theta = 2.0 * std::f64::consts::PI * phi * (1u64 << (t - 1 - q)) as f64;
        c.cphase(q, t, theta);
    }
    // Inverse QFT on the counting register, embedded in the n-qubit
    // register (it only touches qubits 0..t).
    let iqft = inverse_qft(t);
    for g in iqft.gates() {
        c.push(g.clone());
    }
    c
}

/// An eigenphase expressible exactly in 8 bits, so the peak is sharp and
/// the demo deterministic: 95/256.
const PHI: f64 = 0.371_093_75;

fn main() {
    let t = 8u32; // counting bits
    let phi = PHI;
    let circuit = qpe_circuit(t, phi);
    println!(
        "QPE: {} counting qubits, oracle phase φ = {phi}, {} gates",
        t,
        circuit.len()
    );

    let run = ThreadClusterExecutor::run(&circuit, &SimConfig::fast_for(4), 0, true);
    let state = run.state.expect("gathered");

    // The counting register concentrates at the t-bit approximation of φ
    // — remembering this QFT convention is big-endian (qubit 0 = MSB), so
    // the estimate reads bit-reversed.
    let (best_index, best_p) = state
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.norm_sqr()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty state");
    let counting = (best_index as u64) & ((1 << t) - 1);
    let estimate = bits::reverse_bits(counting, t) as f64 / (1u64 << t) as f64;
    println!("most likely outcome: index {best_index} (p = {best_p:.3}) -> φ ≈ {estimate}");
    assert!((estimate - phi).abs() < 1.0 / (1 << t) as f64);
    println!("estimate within 2^-{t} of the true phase — QPE works on the distributed engine.");
}
