//! Collective operations over the whole universe.
//!
//! A dense run reads its final state out where it lives through three
//! of them: [`chain`] carries a running prefix sum down the ranks,
//! [`broadcast`] hands its end (the total) back to every rank, and
//! [`gather`] brings each rank's digest and counts to rank 0. `gather`
//! also hands a whole statevector to rank 0 for callers that want the
//! amplitudes (`DistributedState::gather`). (Barriers are the universe's
//! own, [`crate::Communicator::barrier`].) All are linear algorithms over
//! the point-to-point layer — rank counts here are small (≤ 64 threads),
//! so a tree would be complexity without measurable benefit, and the
//! chain is sequential by what it carries.

use crate::Communicator;
use crate::Result;
use qse_util::Bytes;

/// Reserved tag space for collectives; user tags must stay below `1 << 31`
/// (see [`crate::chunking::chunk_tag`]), so anything at or above `1 << 62`
/// can never collide with an exchange tag.
const COLLECTIVE_BASE: u64 = 1 << 62;
/// The tag [`gather`] payloads travel under (for error reports).
pub const TAG_GATHER: u64 = COLLECTIVE_BASE + 1;
/// The tag [`chain`] values travel under.
pub const TAG_CHAIN: u64 = COLLECTIVE_BASE + 2;
/// The tag [`broadcast`] payloads travel under.
pub const TAG_BROADCAST: u64 = COLLECTIVE_BASE + 3;

/// Sends `payload` from `root` to every other rank; every rank returns
/// it (the root its own, unsent). Non-root ranks pass an empty payload.
pub fn broadcast(comm: &mut Communicator, root: usize, payload: Bytes) -> Result<Bytes> {
    if comm.rank() != root {
        return comm.recv(root, TAG_BROADCAST);
    }
    for dst in (0..comm.size()).filter(|&dst| dst != root) {
        comm.send_bytes(dst, TAG_BROADCAST, payload.clone())?;
    }
    Ok(payload)
}

/// Passes a value down the ranks in rank order: rank r receives rank
/// r − 1's value (`None` on rank 0), makes its own from it with `step`
/// and forwards that to rank r + 1. Returns this rank's value; the last
/// rank's ends the chain. Each step waits for the one before it — the
/// order a running sum continued bit for bit needs. A step's error ends
/// this rank's part, unsent.
pub fn chain(
    comm: &mut Communicator,
    step: impl FnOnce(Option<Bytes>) -> Result<Bytes>,
) -> Result<Bytes> {
    let rank = comm.rank();
    let carry_in = match rank {
        0 => None,
        _ => Some(comm.recv(rank - 1, TAG_CHAIN)?),
    };
    let out = step(carry_in)?;
    if rank + 1 < comm.size() {
        comm.send_bytes(rank + 1, TAG_CHAIN, out.clone())?;
    }
    Ok(out)
}

/// Gathers every rank's payload at `root`, in rank order. Non-root ranks
/// receive `None`. The payload is owned, so no part is copied: senders
/// hand theirs to the transport and the root keeps its own.
pub fn gather(comm: &mut Communicator, root: usize, payload: Bytes) -> Result<Option<Vec<Bytes>>> {
    if comm.rank() == root {
        let mut out = Vec::with_capacity(comm.size());
        for src in 0..root {
            out.push(comm.recv(src, TAG_GATHER)?);
        }
        out.push(payload);
        for src in root + 1..comm.size() {
            out.push(comm.recv(src, TAG_GATHER)?);
        }
        Ok(Some(out))
    } else {
        comm.send_bytes(root, TAG_GATHER, payload)?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::new(4).run(|c| {
            let payload = vec![c.rank() as u8 * 3];
            gather(c, 0, Bytes::from(payload)).unwrap()
        });
        let parts = out[0].as_ref().expect("root gets parts");
        let values: Vec<u8> = parts.iter().map(|p| p[0]).collect();
        assert_eq!(values, vec![0, 3, 6, 9]);
        assert!(out[1].is_none());
    }

    /// A running sum down the chain (1 on rank 0, then +10 a rank), its
    /// end broadcast from the last rank: what each rank received, made
    /// and was handed back.
    fn chain_then_broadcast(c: &mut Communicator) -> (Option<u8>, u8, u8) {
        let mut seen = None;
        let mine = chain(c, |prev| {
            seen = prev.map(|p| p[0]);
            Ok(Bytes::from(vec![seen.map_or(1, |s| s + 10)]))
        })
        .unwrap();
        let last = c.size() - 1;
        let payload = if c.rank() == last {
            mine.clone()
        } else {
            Bytes::new()
        };
        let total = broadcast(c, last, payload).unwrap();
        (seen, mine[0], total[0])
    }

    #[test]
    fn chain_runs_in_rank_order_and_broadcast_reaches_every_rank() {
        for ranks in [1usize, 2, 4, 8] {
            let out = Universe::new(ranks).run(chain_then_broadcast);
            let end = 1 + 10 * (ranks as u8 - 1);
            for (rank, (seen, mine, total)) in out.into_iter().enumerate() {
                let rank = rank as u8;
                assert_eq!(seen, rank.checked_sub(1).map(|r| 1 + 10 * r), "R={ranks}");
                assert_eq!(mine, 1 + 10 * rank, "R={ranks}");
                assert_eq!(total, end, "R={ranks}");
            }
        }
    }

    #[test]
    fn collectives_recover_under_seeded_faults() {
        // The linear collectives lean entirely on the point-to-point
        // recovery layer; under a recoverable plan every rank must still
        // see the exact fault-free values.
        for seed in [3u64, 14, 159] {
            let universe = Universe::with_faults(4, crate::FaultConfig::recoverable(seed)).unwrap();
            let out = universe.run(|c| {
                let parts = gather(c, 0, Bytes::from(vec![c.rank() as u8 * 5])).unwrap();
                let parts = parts.map(|p| p.iter().map(|b| b.to_vec()).collect::<Vec<_>>());
                (parts, chain_then_broadcast(c))
            });
            for (rank, (parts, chained)) in out.into_iter().enumerate() {
                if rank == 0 {
                    assert_eq!(
                        parts,
                        Some(vec![vec![0u8], vec![5u8], vec![10u8], vec![15u8]]),
                        "seed {seed}"
                    );
                } else {
                    assert_eq!(parts, None, "seed {seed}");
                }
                let r = rank as u8;
                let want = (r.checked_sub(1).map(|p| 1 + 10 * p), 1 + 10 * r, 31);
                assert_eq!(chained, want, "seed {seed}");
            }
        }
    }

    #[test]
    fn collectives_compose_with_p2p_traffic() {
        // Interleave point-to-point messages with a collective to check tag
        // spaces do not collide.
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            c.send(peer, 5, &[42]).unwrap();
            let parts = gather(c, 1, Bytes::from(vec![c.rank() as u8 + 1])).unwrap();
            if c.rank() == 1 {
                let parts: Vec<u8> = parts.unwrap().iter().map(|p| p[0]).collect();
                assert_eq!(parts, vec![1, 2]);
            }
            let got = c.recv(peer, 5).unwrap();
            assert_eq!(got[0], 42);
        });
    }
}
