//! Collective operations over the whole universe.
//!
//! The one collective a product path calls is [`gather`]: a dense run
//! hands its statevector to rank 0 through it. (Barriers are the
//! universe's own, [`crate::Communicator::barrier`].) It is a linear
//! algorithm over the point-to-point layer — rank counts here are small
//! (≤ 64 threads), so a tree would be complexity without measurable
//! benefit.

use crate::Communicator;
use crate::Result;
use qse_util::Bytes;

/// Reserved tag space for collectives; user tags must stay below `1 << 31`
/// (see [`crate::chunking::chunk_tag`]), so anything at or above `1 << 62`
/// can never collide with an exchange tag.
const COLLECTIVE_BASE: u64 = 1 << 62;
/// The tag [`gather`] payloads travel under (for error reports).
pub const TAG_GATHER: u64 = COLLECTIVE_BASE + 1;

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

    #[test]
    fn collectives_recover_under_seeded_faults() {
        // The linear gather leans entirely on the point-to-point recovery
        // layer; under a recoverable plan the root must still see the
        // exact fault-free parts.
        for seed in [3u64, 14, 159] {
            let universe = Universe::with_faults(4, crate::FaultConfig::recoverable(seed)).unwrap();
            let out = universe.run(|c| {
                let parts = gather(c, 0, Bytes::from(vec![c.rank() as u8 * 5])).unwrap();
                parts.map(|p| p.iter().map(|b| b.to_vec()).collect::<Vec<_>>())
            });
            for (rank, parts) in out.into_iter().enumerate() {
                if rank == 0 {
                    assert_eq!(
                        parts,
                        Some(vec![vec![0u8], vec![5u8], vec![10u8], vec![15u8]]),
                        "seed {seed}"
                    );
                } else {
                    assert_eq!(parts, None, "seed {seed}");
                }
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
