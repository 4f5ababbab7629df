//! Property tests for the streamed chunk-pipelined exchange: on every
//! circuit family, rank count and chunk size, the
//! streamed mode must be **bit-for-bit** identical to the blocking and
//! non-blocking modes — chunk completion order may vary run to run, but
//! each chunk's combine touches a disjoint amplitude range with the one
//! range kernel every mode runs, so the result is deterministic down to
//! the last ULP.

use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::Universe;
use qse_math::Complex64;
use qse_statevec::{DistConfig, DistributedState};

/// Runs `circuit` on `ranks` ranks with storage `S` and returns the
/// gathered state plus the summed per-rank traffic stats.
fn simulate(
    circuit: &Circuit,
    ranks: usize,
    config: DistConfig,
) -> (Vec<Complex64>, Vec<qse_comm::TrafficStats>) {
    let out = Universe::new(ranks).run(|comm| {
        let mut st = DistributedState::basis_state(comm, circuit.n_qubits(), 1, config);
        st.run(circuit).unwrap();
        st.barrier();
        let stats = st.stats();
        (st.gather().unwrap(), stats)
    });
    let mut state = None;
    let mut stats = Vec::new();
    for (s, t) in out {
        if let Some(s) = s {
            state = Some(s);
        }
        stats.push(t);
    }
    (state.expect("rank 0 gathered"), stats)
}

/// Asserts two states are identical down to the bit pattern.
fn assert_bits_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// Tiny chunks: at 8 qubits over 4 ranks a full exchange is 1 KiB on the
/// wire, so a 128-byte cap forces ≥ 8 chunks per distributed gate.
const TINY_CHUNK: usize = 128;

fn config(mode: ExchangeMode, half_swaps: bool) -> DistConfig {
    DistConfig {
        exchange_mode: mode,
        chunk_policy: ChunkPolicy::new(TINY_CHUNK).unwrap(),
        half_exchange_swaps: half_swaps,
    }
}

fn check_all_modes_agree(circuit: &Circuit, ranks: usize, what: &str) {
    let (blocking, _) = simulate(circuit, ranks, config(ExchangeMode::Blocking, false));
    let (nonblocking, _) = simulate(circuit, ranks, config(ExchangeMode::NonBlocking, false));
    let (streamed, _) = simulate(circuit, ranks, config(ExchangeMode::Streamed, false));
    assert_bits_equal(
        &streamed,
        &blocking,
        &format!("{what}: streamed vs blocking"),
    );
    assert_bits_equal(
        &streamed,
        &nonblocking,
        &format!("{what}: streamed vs non-blocking"),
    );
}

#[test]
fn qft_streamed_bitwise_equal() {
    for ranks in [2usize, 4] {
        check_all_modes_agree(&qft(8), ranks, &format!("qft R={ranks}"));
    }
}

#[test]
fn random_circuits_streamed_bitwise_equal() {
    for ranks in [2usize, 4] {
        for seed in 0..7 {
            let c = random_circuit(8, 60, GatePool::Full, seed);
            check_all_modes_agree(&c, ranks, &format!("seed {seed} R={ranks}"));
        }
    }
}

#[test]
fn streamed_half_exchange_swaps_bitwise_equal() {
    // SWAP-heavy circuit exercising one-global and both-global paths.
    let mut c = Circuit::new(8);
    c.h(0)
        .swap(0, 7)
        .h(1)
        .swap(6, 7)
        .swap(2, 6)
        .h(7)
        .swap(1, 5)
        .swap(5, 6);
    for ranks in [4usize, 8] {
        let (plain, _) = simulate(&c, ranks, config(ExchangeMode::Blocking, false));
        let (streamed_half, _) = simulate(&c, ranks, config(ExchangeMode::Streamed, true));
        assert_bits_equal(&plain, &streamed_half, &format!("half swaps R={ranks}"));
    }
}

#[test]
fn streamed_unitary2_bitwise_equal() {
    // Dense two-qubit unitaries across the local/global boundary hit the
    // orbit-aligned chunk path (and the both-global decomposition).
    use qse_circuit::random::random_unitary2;
    use qse_circuit::Gate;
    use qse_util::rng::StdRng;
    let mut rng = StdRng::seed_from_u64(11);
    let mut c = random_circuit(8, 20, GatePool::Full, 11);
    for &(a, b) in &[(2u32, 7u32), (0, 6), (7, 6), (6, 7), (3, 5)] {
        c.push(Gate::Unitary2 {
            a,
            b,
            matrix: random_unitary2(&mut rng),
        });
    }
    for ranks in [2usize, 4] {
        check_all_modes_agree(&c, ranks, &format!("unitary2 R={ranks}"));
    }
}

#[test]
fn streamed_peak_scratch_is_bounded_by_ring() {
    // The acceptance criterion for the memory claim: on the streamed
    // path a lazily packed exchange never holds more than ring-depth (2)
    // chunks at once — the payload under its kernel and the one chunk
    // being packed — far below the peer's whole slice.
    let mut c = Circuit::new(8);
    for _ in 0..3 {
        c.h(7).h(6); // distributed 1q gates only
    }
    let (_, stats) = simulate(&c, 4, config(ExchangeMode::Streamed, false));
    let local_wire_bytes = (1u64 << 8) / 4 * 16; // 1 KiB per rank
    for (rank, s) in stats.iter().enumerate() {
        // 6 distributed gates × 8 chunks each.
        assert!(
            s.exchange_chunks >= 8,
            "rank {rank}: only {} chunks",
            s.exchange_chunks
        );
        assert!(s.peak_inflight_bytes > 0, "rank {rank}: gauge never rose");
        assert!(
            s.peak_inflight_bytes <= 2 * TINY_CHUNK as u64,
            "rank {rank}: peak {} exceeds ring bound {}",
            s.peak_inflight_bytes,
            2 * TINY_CHUNK
        );
        assert!(
            s.peak_inflight_bytes < local_wire_bytes,
            "rank {rank}: peak {} not below full-half {}",
            s.peak_inflight_bytes,
            local_wire_bytes
        );
    }
    // Blocking mode never touches the streamed in-flight gauge.
    let (_, blocking_stats) = simulate(&c, 4, config(ExchangeMode::Blocking, false));
    for s in &blocking_stats {
        assert_eq!(s.peak_inflight_bytes, 0);
    }
}
