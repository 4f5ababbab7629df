//! Property-based tests on the core invariants.
//!
//! Seeded in-tree property loops (`qse::util::check`): each case draws a
//! random circuit or input from a deterministic seed stream, and a
//! failure report names the `(seed, size)` pair that reproduces it.
//! Each property encodes an invariant the paper's correctness rests on.

use qse::circuit::random::{random_circuit, GatePool};
use qse::math::approx::{max_deviation, slices_close};
use qse::math::bits;
use qse::math::Complex64;
use qse::prelude::*;
use qse::statevec::reference::ReferenceState;
use qse::statevec::storage::SoaStorage;
use qse::util::check::{check, check_with_size};
use qse::util::rng::Rng;

/// Draws a circuit over `n` qubits with `size` gates from the full pool.
fn draw_circuit(rng: &mut impl Rng, n: u32, size: usize) -> Circuit {
    random_circuit(n, size.max(1), GatePool::Full, rng.next_u64())
}

/// Unitarity: every circuit preserves the norm.
#[test]
fn circuits_preserve_norm() {
    check_with_size(48, 40, |rng, size| {
        let c = draw_circuit(rng, 6, size);
        let s = LocalExecutor::run(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    });
}

/// Invertibility: C then C⁻¹ restores the initial basis state.
#[test]
fn inverse_restores_state() {
    check_with_size(48, 30, |rng, size| {
        let c = draw_circuit(rng, 5, size);
        let basis = rng.random_range(0u64..32);
        let full = c.then(&c.inverse());
        let mut s = ReferenceState::basis_state(5, basis);
        s.run(&full);
        assert!((s.amplitudes()[basis as usize].re - 1.0).abs() < 1e-9);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    });
}

/// The production engine agrees with the naïve reference on every
/// circuit.
#[test]
fn engine_matches_reference() {
    check_with_size(48, 40, |rng, size| {
        let c = draw_circuit(rng, 6, size);
        let got = LocalExecutor::run(&c);
        let want = ReferenceState::simulate(&c);
        assert!(
            slices_close(&got.to_vec(), want.amplitudes(), 1e-9),
            "max dev {}",
            max_deviation(&got.to_vec(), want.amplitudes())
        );
    });
}

/// Distribution is transparent: 4-rank execution equals the reference,
/// for any circuit and any exchange configuration.
#[test]
fn distribution_is_transparent() {
    check_with_size(48, 25, |rng, size| {
        let c = draw_circuit(rng, 6, size);
        let mut cfg = SimConfig::default_for(4);
        if rng.random_bool(0.5) {
            cfg.exchange = ExchangeMode::NonBlocking;
        }
        cfg.half_exchange_swaps = rng.random_bool(0.5);
        cfg.max_message_bytes = [64usize, 1024, 1 << 20][rng.random_range(0..3usize)];
        let run = ThreadClusterExecutor::run(&c, &cfg, 0, true);
        let want = ReferenceState::simulate(&c);
        assert!(slices_close(&run.state.unwrap(), want.amplitudes(), 1e-9));
    });
}

/// Running local gates as one blocked pass per run never changes a bit:
/// the executor's lowering against gate-at-a-time application.
#[test]
fn fusion_is_semantics_preserving() {
    check_with_size(48, 40, |rng, size| {
        let c = draw_circuit(rng, 6, size);
        let fused = LocalExecutor::run(&c);
        let mut plain: SingleState = SingleState::zero_state(6);
        plain.run_unfused(&c);
        for (f, p) in fused.to_vec().iter().zip(plain.to_vec()) {
            assert_eq!(
                (f.re.to_bits(), f.im.to_bits()),
                (p.re.to_bits(), p.im.to_bits())
            );
        }
    });
}

/// The cache-blocking transpiler preserves the operator up to its
/// reported layout permutation.
#[test]
fn transpiler_contract() {
    check_with_size(48, 30, |rng, size| {
        let c = draw_circuit(rng, 6, size);
        let local = rng.random_range(2u32..6);
        let t = cache_block(&c, local);
        let orig = ReferenceState::simulate(&c);
        let got = ReferenceState::simulate(&t.circuit);
        // got[π(i)] == orig[i]
        for (i, amp) in orig.amplitudes().iter().enumerate() {
            let j = t.layout.permute_index(i as u64) as usize;
            let d = (got.amplitudes()[j] - *amp).abs();
            assert!(d < 1e-9, "index {i}→{j} dev {d}");
        }
    });
}

/// Every cache-blocked QFT split is the same operator.
#[test]
fn cache_blocked_qft_split_invariance() {
    check(48, |rng| {
        let n = rng.random_range(2u32..9);
        let basis = rng.next_u64() % (1u64 << n);
        let mut want = ReferenceState::basis_state(n, basis);
        want.run(&qft(n));
        for split in 0..=n {
            let mut got = ReferenceState::basis_state(n, basis);
            got.run(&cache_blocked_qft(n, split));
            assert!(slices_close(got.amplitudes(), want.amplitudes(), 1e-9));
        }
    });
}

/// Storage half-bit marshalling round-trips for arbitrary contents.
#[test]
fn half_bit_round_trip() {
    check(48, |rng| {
        let q = rng.random_range(0u32..4);
        let mut s = SoaStorage::zeros(16);
        for i in 0..16 {
            let re = rng.random_range(-1.0..1.0);
            let im = rng.random_range(-1.0..1.0);
            s.set(i, Complex64::new(re, im));
        }
        let (mut h0, mut h1) = (Vec::new(), Vec::new());
        s.pack_half_bit_range(q, 0, 0, 8, &mut h0);
        s.pack_half_bit_range(q, 1, 0, 8, &mut h1);
        let mut t = SoaStorage::zeros(16);
        t.write_half_bit_range(q, 0, &h0, 0);
        t.write_half_bit_range(q, 1, &h1, 0);
        for i in 0..16 {
            assert_eq!(t.get(i), s.get(i));
        }
    });
}

/// Bit utilities: insert_zero_bit enumerates exactly the indices with
/// bit q clear, in order.
#[test]
fn insert_zero_bit_enumeration() {
    check(48, |rng| {
        let q = rng.random_range(0u32..8);
        let expected: Vec<u64> = (0..256u64).filter(|i| bits::bit(*i, q) == 0).collect();
        let got: Vec<u64> = (0..128u64).map(|k| bits::insert_zero_bit(k, q)).collect();
        assert_eq!(got, expected);
    });
}

/// Permutation index mapping is a bijection consistent with compose.
#[test]
fn permutation_bijection() {
    use qse::circuit::Permutation;
    check(48, |rng| {
        // build a pseudo-random permutation of 6 labels
        let mut map: Vec<u32> = (0..6).collect();
        for i in (1..map.len()).rev() {
            map.swap(i, rng.random_range(0..i + 1));
        }
        let p = Permutation::from_map(map);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            assert!(seen.insert(p.permute_index(i)));
        }
        let inv = p.inverse();
        for i in 0..64u64 {
            assert_eq!(inv.permute_index(p.permute_index(i)), i);
        }
    });
}
