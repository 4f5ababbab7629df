//! Stress and soak tests for the message-passing substrate: larger rank
//! counts, randomised traffic patterns, and interleaved collectives —
//! the failure modes (deadlock, misdelivery, tag collision) that unit
//! tests are too small to provoke.

use qse_comm::chunking::{exchange, ChunkPolicy, ExchangeMode};
use qse_comm::collective;
use qse_comm::Universe;

/// Full pairwise exchange across every rank-bit, 32 ranks — the exact
/// communication pattern of a distributed gate sweep over every global
/// qubit, repeated with both strategies.
#[test]
fn butterfly_exchange_32_ranks() {
    let ranks = 32usize;
    let policy = ChunkPolicy::new(64).unwrap();
    for mode in [ExchangeMode::Blocking, ExchangeMode::NonBlocking] {
        Universe::new(ranks).run(|comm| {
            let me = comm.rank();
            for bit in 0..5u32 {
                let peer = me ^ (1 << bit);
                let payload: Vec<u8> = (0..300).map(|i| (me * 31 + i) as u8).collect();
                let mut recv = Vec::new();
                exchange(
                    mode,
                    comm,
                    peer,
                    bit as u64 + 1,
                    &payload,
                    &mut recv,
                    300,
                    policy,
                )
                .unwrap();
                let expect: Vec<u8> = (0..300).map(|i| (peer * 31 + i) as u8).collect();
                assert_eq!(recv, expect, "bit {bit} mode {mode:?}");
            }
        });
    }
}

/// Randomised all-to-all: every rank sends a distinct payload to every
/// other rank with per-pair tags, receives in a scrambled order, and
/// verifies contents — exercises the unexpected-message queue hard.
#[test]
fn all_to_all_with_scrambled_receive_order() {
    let ranks = 12usize;
    Universe::new(ranks).run(|comm| {
        let me = comm.rank();
        for dst in 0..ranks {
            if dst != me {
                let payload = vec![(me * ranks + dst) as u8; 64];
                comm.send(dst, (me * ranks + dst) as u64, &payload).unwrap();
            }
        }
        // Receive from peers in reverse order to force buffering.
        for src in (0..ranks).rev() {
            if src != me {
                let got = comm.recv(src, (src * ranks + me) as u64).unwrap();
                assert_eq!(got[0] as usize, src * ranks + me);
                assert_eq!(got.len(), 64);
            }
        }
    });
}

/// Collectives interleaved with point-to-point traffic across repeated
/// rounds must neither deadlock nor cross-deliver.
#[test]
fn repeated_collective_rounds() {
    let ranks = 8usize;
    Universe::new(ranks).run(|comm| {
        for round in 0..20u64 {
            let sum = collective::allreduce_sum_f64(comm, &[comm.rank() as f64]).unwrap();
            assert_eq!(sum, vec![(0..ranks).sum::<usize>() as f64], "round {round}");
            let next = (comm.rank() + 1) % ranks;
            let prev = (comm.rank() + ranks - 1) % ranks;
            comm.send(next, 1000 + round, &[round as u8]).unwrap();
            let got = comm.recv(prev, 1000 + round).unwrap();
            assert_eq!(got[0], round as u8);
            comm.barrier();
        }
    });
}

/// Large payloads through tiny chunks: a 1 MiB exchange in 1 KiB
/// messages (1,024 chunks each way) survives both strategies intact.
#[test]
fn megabyte_exchange_in_kilobyte_chunks() {
    let policy = ChunkPolicy::new(1024).unwrap();
    for mode in [ExchangeMode::Blocking, ExchangeMode::NonBlocking] {
        Universe::new(2).run(|comm| {
            let me = comm.rank();
            let n = 1 << 20;
            let payload: Vec<u8> = (0..n).map(|i| ((i * (me + 7)) % 251) as u8).collect();
            let mut recv = Vec::new();
            exchange(mode, comm, 1 - me, 3, &payload, &mut recv, n, policy).unwrap();
            let peer = 1 - me;
            assert!(recv
                .iter()
                .enumerate()
                .all(|(i, &b)| b == ((i * (peer + 7)) % 251) as u8));
        });
    }
}

/// Traffic counters stay exact across a large randomised run.
#[test]
fn counters_are_exact_under_load() {
    let ranks = 6usize;
    let stats = Universe::new(ranks).run(|comm| {
        let me = comm.rank();
        let mut sent = 0u64;
        for round in 0..50u64 {
            let dst = (me + 1 + (round as usize % (ranks - 1))) % ranks;
            let size = 10 + (round as usize * 13) % 90;
            comm.send(dst, 500 + round, &vec![0u8; size]).unwrap();
            sent += size as u64;
        }
        comm.barrier();
        // Drain everything addressed to us.
        let mut received = 0u64;
        for src in 0..ranks {
            if src == me {
                continue;
            }
            for round in 0..50u64 {
                let dst = (src + 1 + (round as usize % (ranks - 1))) % ranks;
                if dst == me {
                    received += comm.recv(src, 500 + round).unwrap().len() as u64;
                }
            }
        }
        comm.barrier();
        (comm.stats(), sent, received)
    });
    for (s, sent, received) in stats {
        assert_eq!(s.bytes_sent, sent);
        assert_eq!(s.bytes_received, received);
        assert_eq!(s.messages_sent, 50);
    }
}
