//! End-to-end checks of the two rules the exchange path rests on.
//!
//! *Pack-before-overwrite*: a distributed gate packs each outgoing chunk
//! straight from storage and runs its kernel straight on the incoming
//! payload, so a kernel that writes outside its own chunk's range would
//! corrupt amplitudes a later outgoing chunk still has to carry. Every
//! circuit family × rank count × exchange mode × SWAP flavour × message
//! cap must therefore produce the *same bits*, and agree
//! with the single-address-space reference simulator.
//!
//! *Wire compatibility*: chunk boundaries, message counts and byte totals
//! are what `ChunkPolicy` yields — pinned below to the values the
//! whole-slice staging path produced, which the static verifier and the
//! machine model mirror. The 40-byte cap is not a multiple of an
//! amplitude's 16 bytes, so it cuts amplitudes across payloads.

use qse_circuit::classify::Layout;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{comm_avoid, ByteOracle, Plan, Strategy};
use qse_circuit::Circuit;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::Universe;
use qse_math::approx::assert_slices_close;
use qse_math::Complex64;
use qse_statevec::reference::ReferenceState;
use qse_statevec::{DistConfig, DistributedState};

const N: u32 = 8;
const BASIS: u64 = 5;
const RANKS: [usize; 3] = [2, 4, 8];
const CAPS: [usize; 3] = [40, 512, 1 << 20];
const MODES: [ExchangeMode; 3] = [
    ExchangeMode::Blocking,
    ExchangeMode::NonBlocking,
    ExchangeMode::Streamed,
];

/// What a workload executes: the circuit gate by gate, or its
/// comm-avoiding plan for the rank count at hand (so `Permute` steps run).
enum Work {
    Circuit(Circuit),
    Planned(Circuit, Strategy),
}

fn workloads() -> Vec<(&'static str, Work)> {
    let full = random_circuit(N, 60, GatePool::Full, 77);
    vec![
        ("qft", Work::Circuit(qft(N))),
        ("qftlike", Work::Circuit(random_circuit(N, 60, GatePool::QftLike, 31))),
        ("full", Work::Circuit(full.clone())),
        ("qft-greedy", Work::Planned(qft(N), Strategy::Greedy)),
        ("full-beam", Work::Planned(full, Strategy::beam())),
    ]
}

/// Traffic summed over ranks, read after the run and before the gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Traffic {
    bytes_sent: u64,
    messages_sent: u64,
    bytes_exchanged: u64,
}

fn run(
    circuit: &Circuit,
    plan: Option<&Plan>,
    ranks: usize,
    config: DistConfig,
) -> (Vec<Complex64>, Traffic) {
    let out = Universe::new(ranks).run(|comm| {
        let mut st = DistributedState::basis_state(comm, N, BASIS, config);
        match plan {
            Some(p) => st.run_plan(p).unwrap(),
            None => st.run(circuit).unwrap(),
        }
        st.barrier();
        let stats = st.stats();
        (st.gather().unwrap(), stats)
    });
    let mut traffic = Traffic {
        bytes_sent: 0,
        messages_sent: 0,
        bytes_exchanged: 0,
    };
    let mut state = None;
    for (s, t) in out {
        state = state.or(s);
        traffic.bytes_sent += t.bytes_sent;
        traffic.messages_sent += t.messages_sent;
        traffic.bytes_exchanged += t.bytes_exchanged;
    }
    (state.expect("rank 0 gathered"), traffic)
}

fn assert_bits_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// `(workload, ranks, half_exchange_swaps, cap)` →
/// `[bytes_sent, bytes_exchanged, messages_sent in the in-order modes,
/// messages_sent streamed]`, totals over ranks, recorded from the commit
/// before the exchange path lost its staging buffers. Bytes do not depend
/// on the mode; message counts differ only where the streamed mode aligns
/// its cap to the kernel unit (40 → 32 bytes, or up to one 2q orbit).
///
/// The rows marked `*` that commit could not run: its permutation path
/// dropped the amplitude a 40-byte cap cuts in two (debug assertion
/// "whole block consumed"). They are recorded from this one; their bytes
/// equal the same plan's at the other caps, and a plan's `Permute` blocks
/// cost `Σ ⌈block / 40⌉` messages in every mode.
#[rustfmt::skip]
const PINNED: [(&str, usize, bool, usize, [u64; 4]); 90] = [
    ("qft", 2, false, 40, [8192, 8192, 208, 256]),
    ("qft", 2, false, 512, [8192, 8192, 16, 16]),
    ("qft", 2, false, 1048576, [8192, 8192, 4, 4]),
    ("qft", 2, true, 40, [6144, 6144, 156, 192]),
    ("qft", 2, true, 512, [6144, 6144, 12, 12]),
    ("qft", 2, true, 1048576, [6144, 6144, 4, 4]),
    ("qft", 4, false, 40, [16384, 16384, 416, 512]),
    ("qft", 4, false, 512, [16384, 16384, 32, 32]),
    ("qft", 4, false, 1048576, [16384, 16384, 16, 16]),
    ("qft", 4, true, 40, [12288, 12288, 312, 384]),
    ("qft", 4, true, 512, [12288, 12288, 24, 24]),
    ("qft", 4, true, 1048576, [12288, 12288, 16, 16]),
    ("qft", 8, false, 40, [24576, 24576, 624, 768]),
    ("qft", 8, false, 512, [24576, 24576, 48, 48]),
    ("qft", 8, false, 1048576, [24576, 24576, 48, 48]),
    ("qft", 8, true, 40, [18432, 18432, 480, 576]),
    ("qft", 8, true, 512, [18432, 18432, 48, 48]),
    ("qft", 8, true, 1048576, [18432, 18432, 48, 48]),
    ("qftlike", 2, false, 40, [24576, 24576, 624, 768]),
    ("qftlike", 2, false, 512, [24576, 24576, 48, 48]),
    ("qftlike", 2, false, 1048576, [24576, 24576, 12, 12]),
    ("qftlike", 2, true, 40, [16384, 16384, 416, 512]),
    ("qftlike", 2, true, 512, [16384, 16384, 32, 32]),
    ("qftlike", 2, true, 1048576, [16384, 16384, 12, 12]),
    ("qftlike", 4, false, 40, [45056, 45056, 1144, 1408]),
    ("qftlike", 4, false, 512, [45056, 45056, 88, 88]),
    ("qftlike", 4, false, 1048576, [45056, 45056, 44, 44]),
    ("qftlike", 4, true, 40, [26624, 26624, 676, 832]),
    ("qftlike", 4, true, 512, [26624, 26624, 52, 52]),
    ("qftlike", 4, true, 1048576, [26624, 26624, 44, 44]),
    ("qftlike", 8, false, 40, [71680, 71680, 1820, 2240]),
    ("qftlike", 8, false, 512, [71680, 71680, 140, 140]),
    ("qftlike", 8, false, 1048576, [71680, 71680, 140, 140]),
    ("qftlike", 8, true, 40, [47104, 47104, 1244, 1472]),
    ("qftlike", 8, true, 512, [47104, 47104, 140, 140]),
    ("qftlike", 8, true, 1048576, [47104, 47104, 140, 140]),
    ("full", 2, false, 40, [45056, 45056, 1144, 1156]),
    ("full", 2, false, 512, [45056, 45056, 88, 84]),
    ("full", 2, false, 1048576, [45056, 45056, 22, 22]),
    ("full", 2, true, 40, [40960, 40960, 1040, 1028]),
    ("full", 2, true, 512, [40960, 40960, 80, 76]),
    ("full", 2, true, 1048576, [40960, 40960, 22, 22]),
    ("full", 4, false, 40, [55296, 55296, 1404, 1476]),
    ("full", 4, false, 512, [55296, 55296, 108, 104]),
    ("full", 4, false, 1048576, [55296, 55296, 54, 54]),
    ("full", 4, true, 40, [51200, 51200, 1300, 1348]),
    ("full", 4, true, 512, [51200, 51200, 100, 96]),
    ("full", 4, true, 1048576, [51200, 51200, 54, 54]),
    ("full", 8, false, 40, [73728, 73728, 1872, 2056]),
    ("full", 8, false, 512, [73728, 73728, 144, 144]),
    ("full", 8, false, 1048576, [73728, 73728, 144, 144]),
    ("full", 8, true, 40, [65536, 65536, 1680, 1800]),
    ("full", 8, true, 512, [65536, 65536, 144, 144]),
    ("full", 8, true, 1048576, [65536, 65536, 144, 144]),
    ("qft-greedy", 2, false, 40, [2048, 2048, 52, 52]), // *
    ("qft-greedy", 2, false, 512, [2048, 2048, 4, 4]),
    ("qft-greedy", 2, false, 1048576, [2048, 2048, 2, 2]),
    ("qft-greedy", 2, true, 40, [2048, 2048, 52, 52]), // *
    ("qft-greedy", 2, true, 512, [2048, 2048, 4, 4]),
    ("qft-greedy", 2, true, 1048576, [2048, 2048, 2, 2]),
    ("qft-greedy", 4, false, 40, [6144, 6144, 156, 156]), // *
    ("qft-greedy", 4, false, 512, [6144, 6144, 12, 12]),
    ("qft-greedy", 4, false, 1048576, [6144, 6144, 10, 10]),
    ("qft-greedy", 4, true, 40, [6144, 6144, 156, 156]), // *
    ("qft-greedy", 4, true, 512, [6144, 6144, 12, 12]),
    ("qft-greedy", 4, true, 1048576, [6144, 6144, 10, 10]),
    ("qft-greedy", 8, false, 40, [8192, 8192, 220, 220]), // *
    ("qft-greedy", 8, false, 512, [8192, 8192, 28, 28]),
    ("qft-greedy", 8, false, 1048576, [8192, 8192, 28, 28]),
    ("qft-greedy", 8, true, 40, [8192, 8192, 220, 220]), // *
    ("qft-greedy", 8, true, 512, [8192, 8192, 28, 28]),
    ("qft-greedy", 8, true, 1048576, [8192, 8192, 28, 28]),
    ("full-beam", 2, false, 40, [10240, 10240, 260, 260]), // *
    ("full-beam", 2, false, 512, [10240, 10240, 20, 20]),
    ("full-beam", 2, false, 1048576, [10240, 10240, 10, 10]),
    ("full-beam", 2, true, 40, [10240, 10240, 260, 260]), // *
    ("full-beam", 2, true, 512, [10240, 10240, 20, 20]),
    ("full-beam", 2, true, 1048576, [10240, 10240, 10, 10]),
    ("full-beam", 4, false, 40, [17408, 17408, 454, 454]), // *
    ("full-beam", 4, false, 512, [17408, 17408, 46, 46]),
    ("full-beam", 4, false, 1048576, [17408, 17408, 46, 46]),
    ("full-beam", 4, true, 40, [17408, 17408, 454, 454]), // *
    ("full-beam", 4, true, 512, [17408, 17408, 46, 46]),
    ("full-beam", 4, true, 1048576, [17408, 17408, 46, 46]),
    ("full-beam", 8, false, 40, [25088, 25088, 776, 776]), // *
    ("full-beam", 8, false, 512, [25088, 25088, 244, 244]),
    ("full-beam", 8, false, 1048576, [25088, 25088, 244, 244]),
    ("full-beam", 8, true, 40, [25088, 25088, 776, 776]), // *
    ("full-beam", 8, true, 512, [25088, 25088, 244, 244]),
    ("full-beam", 8, true, 1048576, [25088, 25088, 244, 244]),
];

fn pinned(workload: &str, ranks: usize, half: bool, cap: usize) -> [u64; 4] {
    PINNED
        .iter()
        .find(|p| (p.0, p.1, p.2, p.3) == (workload, ranks, half, cap))
        .unwrap_or_else(|| panic!("no pinned traffic for {workload} R={ranks} half={half} cap={cap}"))
        .4
}

#[test]
fn every_configuration_yields_the_same_bits_and_the_pinned_traffic() {
    for (name, work) in workloads() {
        let circuit = match &work {
            Work::Circuit(c) | Work::Planned(c, _) => c,
        };
        let mut reference = ReferenceState::basis_state(N, BASIS);
        reference.run(circuit);
        for ranks in RANKS {
            let plan = match &work {
                Work::Circuit(_) => None,
                Work::Planned(c, strategy) => {
                    let layout = Layout::new(N, ranks as u64);
                    Some(comm_avoid(c, &layout, *strategy, &ByteOracle).with_layout_restored())
                }
            };
            let mut baseline: Option<Vec<Complex64>> = None;
            for half in [false, true] {
                for cap in CAPS {
                    let want = pinned(name, ranks, half, cap);
                    for mode in MODES {
                        let config = DistConfig {
                            exchange_mode: mode,
                            chunk_policy: ChunkPolicy::new(cap).unwrap(),
                            half_exchange_swaps: half,
                        };
                        let what = format!("{name} R={ranks} half={half} cap={cap} {mode:?}");
                        let (state, traffic) = run(circuit, plan.as_ref(), ranks, config);
                        let messages = if mode == ExchangeMode::Streamed { want[3] } else { want[2] };
                        assert_eq!(
                            [traffic.bytes_sent, traffic.bytes_exchanged, traffic.messages_sent],
                            [want[0], want[1], messages],
                            "{what}: [bytes_sent, bytes_exchanged, messages_sent]"
                        );
                        let baseline = baseline.get_or_insert_with(|| {
                            assert_slices_close(&state, reference.amplitudes(), 1e-9);
                            state.clone()
                        });
                        assert_bits_equal(baseline, &state, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn swaps_survive_a_cap_far_below_the_slice() {
    // The case lazy packing corrupts: SWAP(top local, global) scatters
    // peer amplitude i to i ^ 2^top — half a slice away, into a chunk
    // this rank has not packed yet when chunks are a few amplitudes
    // long. Beside it a low-qubit SWAP and (from four ranks up) a
    // both-global block trade, each with and without the half exchange.
    for ranks in RANKS {
        let top_local = Layout::new(N, ranks as u64).local_qubits() - 1;
        let mut c = Circuit::new(N);
        for q in 0..N {
            c.h(q);
            c.phase(q, 0.3 + q as f64);
        }
        c.swap(top_local, N - 1).swap(0, N - 1).swap(N - 2, N - 1);
        let mut reference = ReferenceState::basis_state(N, BASIS);
        reference.run(&c);
        let (want, _) = run(&c, None, ranks, DistConfig::default());
        assert_slices_close(&want, reference.amplitudes(), 1e-9);
        for cap in [16, 40, 64] {
            for mode in MODES {
                for half in [false, true] {
                    let config = DistConfig {
                        exchange_mode: mode,
                        chunk_policy: ChunkPolicy::new(cap).unwrap(),
                        half_exchange_swaps: half,
                    };
                    let what = format!("R={ranks} cap={cap} {mode:?} half={half}");
                    let (got, _) = run(&c, None, ranks, config);
                    assert_bits_equal(&want, &got, &what);
                }
            }
        }
    }
}
