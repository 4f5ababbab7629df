//! Algorithm circuit builders beyond the QFT.
//!
//! The paper motivates the QFT as "a common subroutine of larger quantum
//! algorithms, like Quantum Phase Estimation" (§2.3). This module builds
//! QPE itself plus a set of standard circuits used by the examples,
//! integration tests and benchmarks as realistic workloads: GHZ state
//! preparation, Bernstein–Vazirani, and phase-oracle utilities.

use crate::circuit::Circuit;
use crate::qft::inverse_qft;

/// GHZ state preparation: `H(0)` then a CNOT fan-out. The maximally
/// entangled all-or-nothing state — a standard stress input because every
/// amplitude pair matters.
pub fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cnot(0, q);
    }
    c
}

/// Bernstein–Vazirani for a hidden bit-string `secret` (bit `q` set means
/// qubit `q` participates): one query recovers the whole string. Uses the
/// phase-oracle form: H-layer, Z on secret bits sandwiched in CNOTs is
/// simplified here to the standard H / CZ-free construction with an
/// ancilla-free phase oracle (Z on each secret qubit between H layers
/// realises `(-1)^{s·x}`).
pub fn bernstein_vazirani(n: u32, secret: u64) -> Circuit {
    assert!(secret < (1u64 << n), "secret wider than register");
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.z(q);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Quantum Phase Estimation for the single-qubit oracle
/// `diag(1, e^{2πiφ})`, with `t` counting qubits and the work qubit at
/// index `t` (prepared in the |1⟩ eigenstate).
///
/// With this repository's big-endian QFT convention (qubit 0 is the
/// transform's most significant bit), counting qubit `q` controls
/// `U^{2^{t−1−q}}`, and the measured counting value must be bit-reversed
/// before dividing by `2^t` — see [`read_phase_estimate`].
pub fn qpe(t: u32, phi: f64) -> Circuit {
    let n = t + 1;
    let mut c = Circuit::new(n);
    c.x(t);
    for q in 0..t {
        c.h(q);
    }
    for q in 0..t {
        let theta = 2.0 * std::f64::consts::PI * phi * (1u64 << (t - 1 - q)) as f64;
        c.cphase(q, t, theta);
    }
    for g in inverse_qft(t).gates() {
        c.push(g.clone());
    }
    c
}

/// Converts a measured basis index of a [`qpe`] circuit into the phase
/// estimate in `[0, 1)`.
pub fn read_phase_estimate(index: u64, t: u32) -> f64 {
    let counting = index & ((1u64 << t) - 1);
    qse_math::bits::reverse_bits(counting, t) as f64 / (1u64 << t) as f64
}

/// Grover's search for a single marked basis state.
///
/// `iterations` rounds of (phase oracle, diffusion) after the uniform
/// superposition. The oracle flips the phase of `|marked⟩` by
/// X-conjugating a multi-controlled phase of π on all qubits; the
/// diffusion operator is the same construction around `|0…0⟩`. The
/// optimal iteration count is ≈ ⌊π·√N/4⌋ ([`grover_optimal_iterations`]).
pub fn grover(n: u32, marked: u64, iterations: u32) -> Circuit {
    assert!(n >= 2, "Grover needs at least two qubits");
    assert!(marked < (1u64 << n), "marked state out of range");
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    let all: Vec<u32> = (0..n).collect();
    let pi = std::f64::consts::PI;
    for _ in 0..iterations {
        // Oracle: phase-flip |marked⟩.
        for q in 0..n {
            if (marked >> q) & 1 == 0 {
                c.x(q);
            }
        }
        c.push(crate::gate::Gate::MCPhase {
            qubits: all.clone(),
            theta: pi,
        });
        for q in 0..n {
            if (marked >> q) & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion: 2|s⟩⟨s| − 1 = H^n · (phase-flip |0…0⟩) · H^n.
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n {
            c.x(q);
        }
        c.push(crate::gate::Gate::MCPhase {
            qubits: all.clone(),
            theta: pi,
        });
        for q in 0..n {
            c.x(q);
        }
        for q in 0..n {
            c.h(q);
        }
    }
    c
}

/// The iteration count maximising Grover's success probability for one
/// marked state in `2^n`: ⌊π/(4·asin(2^{-n/2}))⌋ rounded to nearest.
pub fn grover_optimal_iterations(n: u32) -> u32 {
    let theta = (1.0 / (1u64 << n) as f64).sqrt().asin();
    (std::f64::consts::FRAC_PI_4 / theta - 0.5).round().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn ghz_shape() {
        let c = ghz(5);
        assert_eq!(c.len(), 5); // 1 H + 4 CNOT
        assert_eq!(c.gates()[0], Gate::H(0));
        assert!(c.gates()[1..]
            .iter()
            .all(|g| matches!(g, Gate::CNot { control: 0, .. })));
    }

    #[test]
    fn bv_gate_count_tracks_secret_weight() {
        let c = bernstein_vazirani(6, 0b101101);
        let counts = c.gate_counts();
        assert_eq!(counts["H"], 12);
        assert_eq!(counts["Z"], 4);
    }

    #[test]
    #[should_panic(expected = "wider than register")]
    fn bv_rejects_wide_secret() {
        bernstein_vazirani(3, 0b1000);
    }

    #[test]
    fn qpe_structure() {
        let c = qpe(4, 0.25);
        assert_eq!(c.n_qubits(), 5);
        // X + 4 H + 4 CPhase + inverse QFT(4)
        let iqft_len = inverse_qft(4).len();
        assert_eq!(c.len(), 1 + 4 + 4 + iqft_len);
    }

    #[test]
    fn phase_readout_inverts_bit_reversal() {
        // counting register value 0b0010 (qubit 1 set) on t=4 reads as
        // rev(0b0010, 4) = 0b0100 = 4 → φ = 4/16.
        assert_eq!(read_phase_estimate(0b0010, 4), 0.25);
        assert_eq!(read_phase_estimate(0, 4), 0.0);
        // the work qubit (bit t) is masked off
        assert_eq!(read_phase_estimate(0b1_0010, 4), 0.25);
    }

    #[test]
    fn grover_structure() {
        let c = grover(4, 0b1010, 2);
        let counts = c.gate_counts();
        assert_eq!(counts["MCPhase"], 4); // 2 per iteration
                                          // initial H layer + 2 × diffusion double-layer
        assert_eq!(counts["H"], 4 + 2 * 8);
        // oracle X-conjugation (2 zero bits × 2 sides × 2 iters)
        // + diffusion X layers (4 × 2 sides × 2 iters)
        assert_eq!(counts["X"], 2 * 2 * 2 + 4 * 2 * 2);
    }

    #[test]
    fn optimal_iterations_grow_with_sqrt_n() {
        assert_eq!(grover_optimal_iterations(2), 1);
        let k8 = grover_optimal_iterations(8);
        let k10 = grover_optimal_iterations(10);
        // doubling n (×4 the space) roughly doubles the iterations
        assert!((1.8..2.2).contains(&(k10 as f64 / k8 as f64)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grover_rejects_wide_marked_state() {
        grover(3, 8, 1);
    }
}
