//! Property tests: running each run of local gates in one blocked pass
//! is *bit-for-bit* identical to gate-at-a-time execution.
//!
//! A local run takes each block through every gate in program order, so
//! each amplitude sees the exact floating-point operation sequence of
//! the per-gate sweeps it replaces — the contract is `to_bits` equality,
//! not closeness. Checked with seeded property loops over random
//! circuits (diagonal-heavy and full gate pools), for the
//! single-address-space engine and the distributed engine over 1 and 4
//! ranks.

use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_comm::Universe;
use qse_math::Complex64;
use qse_statevec::{DistConfig, DistributedState, SingleState};
use qse_util::check::check_with_size;
use qse_util::rng::Rng;

const N: u32 = 6;

/// Alternate between the diagonal-heavy pool (long fusable runs) and the
/// full pool (runs broken up by non-diagonal gates).
fn pool_for(seed: u64) -> GatePool {
    if seed % 2 == 0 {
        GatePool::QftLike
    } else {
        GatePool::Full
    }
}

fn assert_bitwise(fused: &[Complex64], plain: &[Complex64], ctx: &str) {
    assert_eq!(fused.len(), plain.len(), "{ctx}: length mismatch");
    for (i, (f, p)) in fused.iter().zip(plain).enumerate() {
        assert_eq!(f.re.to_bits(), p.re.to_bits(), "{ctx}: re differs at {i}");
        assert_eq!(f.im.to_bits(), p.im.to_bits(), "{ctx}: im differs at {i}");
    }
}

fn single_case(seed: u64, gates: usize) {
    let c = random_circuit(N, gates, pool_for(seed), seed);
    let basis = seed % (1 << N);
    let mut fused: SingleState = SingleState::basis_state(N, basis);
    fused.run(&c);
    let mut plain: SingleState = SingleState::basis_state(N, basis);
    plain.run_unfused(&c);
    assert_bitwise(
        &fused.to_vec(),
        &plain.to_vec(),
        &format!("single seed={seed} gates={gates}"),
    );
}

#[test]
fn fused_single_matches_gate_at_a_time() {
    check_with_size(16, 120, |rng, size| single_case(rng.next_u64(), size));
}

/// Runs `circuit` over `ranks` ranks — through `run`, or one `apply`
/// per gate — and returns rank 0's gathered state.
fn dist_gather(circuit: &Circuit, ranks: usize, per_gate: bool, basis: u64) -> Vec<Complex64> {
    let out = Universe::new(ranks).run(|comm| {
        let mut st =
            DistributedState::basis_state(comm, circuit.n_qubits(), basis, DistConfig::default());
        if per_gate {
            for g in circuit.gates() {
                st.apply(g).unwrap();
            }
        } else {
            st.run(circuit).unwrap();
        }
        st.gather().unwrap()
    });
    out.into_iter().flatten().next().expect("rank 0 gathered")
}

fn dist_case(seed: u64, gates: usize, ranks: usize) {
    let c = random_circuit(N, gates, pool_for(seed), seed);
    let basis = seed % (1 << N);
    let fused = dist_gather(&c, ranks, false, basis);
    let plain = dist_gather(&c, ranks, true, basis);
    assert_bitwise(
        &fused,
        &plain,
        &format!("dist ranks={ranks} seed={seed} gates={gates}"),
    );
}

#[test]
fn fused_distributed_matches_gate_at_a_time_1_rank() {
    check_with_size(8, 80, |rng, size| dist_case(rng.next_u64(), size, 1));
}

#[test]
fn fused_distributed_matches_gate_at_a_time_4_ranks() {
    check_with_size(8, 80, |rng, size| dist_case(rng.next_u64(), size, 4));
}

/// The distributed engine agrees with the single-process engine (up to
/// FP tolerance — the distributed combine uses a different operation
/// order for non-diagonal gates, so bitwise equality is not the
/// contract here).
#[test]
fn fused_distributed_matches_single_process() {
    check_with_size(6, 60, |rng, size| {
        let seed = rng.next_u64();
        let c = random_circuit(N, size, pool_for(seed), seed);
        let mut single: SingleState = SingleState::zero_state(N);
        single.run(&c);
        let dist = dist_gather(&c, 4, false, 0);
        let want = single.to_vec();
        for (i, (d, w)) in dist.iter().zip(&want).enumerate() {
            assert!(
                (d.re - w.re).abs() < 1e-9 && (d.im - w.im).abs() < 1e-9,
                "seed={seed} amp {i}: {d:?} vs {w:?}"
            );
        }
    });
}
