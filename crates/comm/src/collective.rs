//! Collective operations over the whole universe.
//!
//! QuEST needs only a handful of collectives around its point-to-point core:
//! a barrier between circuit phases, broadcast of configuration, and
//! reductions for norms/probabilities (e.g. total probability of measuring
//! a qubit in |1⟩ is an all-reduce of per-rank partial sums). These are
//! implemented as simple linear algorithms over the point-to-point layer —
//! rank counts here are small (≤ 64 threads), so tree algorithms would be
//! complexity without measurable benefit.

use crate::message::{bytes_to_f64s, f64s_to_bytes};
use crate::Communicator;
use crate::Result;
use qse_util::Bytes;

/// Reserved tag space for collectives; user tags must stay below `1 << 31`
/// (see [`crate::chunking::chunk_tag`]), so anything at or above `1 << 62`
/// can never collide with an exchange tag.
const COLLECTIVE_BASE: u64 = 1 << 62;
const TAG_BCAST: u64 = COLLECTIVE_BASE;
/// The tag [`gather`] payloads travel under (for error reports).
pub const TAG_GATHER: u64 = COLLECTIVE_BASE + 1;

/// Broadcasts `payload` from `root` to every rank; returns the payload on
/// all ranks (including the root, for uniform call sites).
pub fn broadcast(comm: &mut Communicator, root: usize, payload: &[u8]) -> Result<Bytes> {
    if comm.rank() == root {
        for dst in 0..comm.size() {
            if dst != root {
                comm.send(dst, TAG_BCAST, payload)?;
            }
        }
        Ok(Bytes::copy_from_slice(payload))
    } else {
        comm.recv(root, TAG_BCAST)
    }
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

/// All-reduce: element-wise sum of `values` across all ranks, delivered to
/// every rank. Used for probability normalisation and global norms.
pub fn allreduce_sum_f64(comm: &mut Communicator, values: &[f64]) -> Result<Vec<f64>> {
    let gathered = gather(comm, 0, f64s_to_bytes(values))?;
    let summed: Vec<f64> = if let Some(parts) = gathered {
        let mut acc = vec![0.0f64; values.len()];
        for part in parts {
            let decoded = bytes_to_f64s(&part);
            assert_eq!(decoded.len(), acc.len(), "ranks reduced different lengths");
            for (a, v) in acc.iter_mut().zip(decoded) {
                *a += v;
            }
        }
        acc
    } else {
        Vec::new()
    };
    let result = broadcast(comm, 0, &f64s_to_bytes(&summed))?;
    Ok(bytes_to_f64s(&result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn broadcast_reaches_all_ranks() {
        let out = Universe::new(4).run(|c| {
            let payload = if c.rank() == 2 {
                b"hello".to_vec()
            } else {
                vec![]
            };
            broadcast(c, 2, &payload).unwrap().to_vec()
        });
        for p in out {
            assert_eq!(p, b"hello");
        }
    }

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
    fn allreduce_sum_f64_sums_elementwise() {
        let out = Universe::new(4).run(|c| {
            let vals = [c.rank() as f64, 1.0];
            allreduce_sum_f64(c, &vals).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![6.0, 4.0]); // 0+1+2+3, 1×4
        }
    }

    #[test]
    fn collectives_recover_under_seeded_faults() {
        // Linear collectives lean entirely on the point-to-point recovery
        // layer; under a recoverable plan every rank must still see the
        // exact fault-free reduction results.
        for seed in [3u64, 14, 159] {
            let universe = Universe::with_faults(4, crate::FaultConfig::recoverable(seed)).unwrap();
            let out = universe.run(|c| {
                let sums = allreduce_sum_f64(c, &[c.rank() as f64, 1.0]).unwrap();
                let payload = if c.rank() == 1 {
                    b"cfg".to_vec()
                } else {
                    vec![]
                };
                let config = broadcast(c, 1, &payload).unwrap().to_vec();
                let parts = gather(c, 0, Bytes::from(vec![c.rank() as u8 * 5])).unwrap();
                let parts = parts.map(|p| p.iter().map(|b| b.to_vec()).collect::<Vec<_>>());
                (sums, config, parts)
            });
            for (rank, (sums, config, parts)) in out.into_iter().enumerate() {
                assert_eq!(sums, vec![6.0, 4.0], "seed {seed}");
                assert_eq!(config, b"cfg", "seed {seed}");
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
            let sum = allreduce_sum_f64(c, &[1.0]).unwrap();
            assert_eq!(sum, vec![2.0]);
            let got = c.recv(peer, 5).unwrap();
            assert_eq!(got[0], 42);
        });
    }
}
