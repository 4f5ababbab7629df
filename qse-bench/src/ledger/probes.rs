//! Single-layer probes: each times one public function of one crate,
//! from outside it, on the shapes the workload under measurement uses.
//!
//! Every probe repeats a fixed number of times and reports the median,
//! so the work done is identical on every run and on every commit.

use super::stats::median;
use super::workload::Case;
use qse_circuit::Gate;
use qse_comm::chunking::{exchange_blocking, exchange_nonblocking, ChunkPolicy};
use qse_comm::{CommError, Communicator, Universe};
use qse_statevec::SingleState;
use qse_util::mailbox::unbounded;
use qse_util::parallel::{num_threads, parallel_for_each};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `reps` timings of `f`, each the seconds `f` reports.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Seconds one call of `f` takes.
pub fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Seconds per call over a batch of `calls` calls of `f`.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

/// `qse-util`: one `parallel_for_each` over one trivial item per thread
/// — the fixed cost every parallel sweep pays before touching memory.
pub fn pool_dispatch_s() -> f64 {
    median_of(7, || {
        per_call(500, || {
            parallel_for_each((0..num_threads()).collect(), |i| {
                black_box(i);
            })
        })
    })
}

/// `qse-util`: a value sent to another thread through a mailbox and one
/// sent back — the primitive under every rank-to-rank message and every
/// serve reply.
pub fn mailbox_roundtrip_s() -> f64 {
    const TRIPS: usize = 2000;
    let (to_peer, peer_rx) = unbounded::<u64>();
    let (to_main, main_rx) = unbounded::<u64>();
    let wait = Duration::from_secs(60);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = peer_rx.recv_timeout(wait) {
                if v == u64::MAX || to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let out = median_of(5, || {
            per_call(TRIPS, || {
                to_peer.send(1).expect("peer thread is alive");
                main_rx.recv_timeout(wait).expect("peer thread replies");
            })
        });
        to_peer.send(u64::MAX).expect("peer thread is alive");
        out
    })
}

/// `qse-comm`: building a universe of `ranks` thread ranks, running an
/// empty closure on each and joining them — paid once per execution.
pub fn universe_spinup_s(ranks: usize) -> f64 {
    median_of(31, || time(|| Universe::new(ranks).run(|c| c.rank())))
}

/// Runs `f` on rank 0 and rank 1 of a two-rank universe and returns what
/// rank 0's closure measured.
fn on_two_ranks(f: impl Fn(&mut Communicator) -> Result<f64, CommError> + Sync) -> f64 {
    Universe::new(2)
        .run(f)
        .swap_remove(0)
        .expect("a two-rank probe exchange cannot fail")
}

/// `qse-comm`: one barrier across `ranks` ranks.
pub fn barrier_s(ranks: usize) -> f64 {
    Universe::new(ranks)
        .run(|c| median_of(5, || per_call(500, || c.barrier())))
        .swap_remove(0)
}

/// `qse-comm`: 64 bytes to the peer and 64 bytes back.
pub fn pingpong_64b_s() -> f64 {
    const TRIPS: usize = 1000;
    let payload = [7u8; 64];
    on_two_ranks(|c| {
        let peer = 1 - c.rank();
        let mut times = Vec::new();
        for round in 0..5u64 {
            let t = Instant::now();
            for i in 0..TRIPS as u64 {
                let tag = round * TRIPS as u64 + i;
                if c.rank() == 0 {
                    c.send(peer, tag, &payload)?;
                    c.recv(peer, tag)?;
                } else {
                    c.recv(peer, tag)?;
                    c.send(peer, tag, &payload)?;
                }
            }
            times.push(t.elapsed().as_secs_f64() / TRIPS as f64);
        }
        Ok(median(&times))
    })
}

/// `qse-comm`: the pairwise exchange of a `bytes`-long buffer between
/// two ranks in the executor's 1 MiB chunks, blocking or non-blocking,
/// as GiB/s of bytes one rank sends (computed, not counted). Held
/// against `host.memcpy_gib_s`, the one-copy-per-byte ceiling.
pub fn exchange_gib_s(bytes: usize, non_blocking: bool) -> f64 {
    let policy = ChunkPolicy::new(1 << 20).expect("1 MiB is a valid chunk size");
    let send = vec![3u8; bytes];
    let seconds = on_two_ranks(|c| {
        let peer = 1 - c.rank();
        let mut recv = Vec::new();
        let mut times = Vec::new();
        for tag in 0..7 {
            c.barrier();
            let t = Instant::now();
            if non_blocking {
                exchange_nonblocking(c, peer, tag, &send, &mut recv, bytes, policy)?;
            } else {
                exchange_blocking(c, peer, tag, &send, &mut recv, bytes, policy)?;
            }
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&times))
    });
    bytes as f64 / seconds / (1u64 << 30) as f64
}

/// `qse-statevec`: amplitudes per second of one `SingleState::apply`
/// sweep of `gate` over an `n`-qubit register.
pub fn sweep_amps_per_s(n: u32, gate: &Gate) -> f64 {
    let mut s: SingleState = SingleState::zero_state(n);
    s.apply(gate);
    let seconds = median_of(9, || time(|| s.apply(gate)));
    (1u64 << n) as f64 / seconds
}

/// The three sweep shapes a QFT is made of, on fixed qubits of an
/// `n`-qubit register: a pair sweep, a diagonal sweep, a permutation.
pub fn sweep_gates(n: u32) -> [Gate; 3] {
    let (lo, mid) = (1, n / 2);
    [
        Gate::H(mid),
        Gate::CPhase {
            a: lo,
            b: mid,
            theta: std::f64::consts::FRAC_PI_8,
        },
        Gate::Swap(lo, mid),
    ]
}

/// `qse-statevec`: the case's circuit in one address space, through the
/// fused schedule or gate by gate — the in-tree floor the executor path
/// is compared with. The register is touched by one untimed run first;
/// later runs continue from whatever state the last one left, which
/// costs the same because dense sweeps do not depend on the data.
pub fn single_run_s(case: &Case, fused: bool, reps: usize) -> f64 {
    let mut s: SingleState = SingleState::basis_state(case.circuit.n_qubits(), case.basis);
    let mut run = || {
        if fused {
            s.run(&case.circuit)
        } else {
            s.run_unfused(&case.circuit)
        }
    };
    run();
    median_of(reps, || time(&mut run))
}
