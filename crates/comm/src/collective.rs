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
const TAG_REDUCE: u64 = COLLECTIVE_BASE + 2;

/// Decodes a little-endian `u64` from the first 8 bytes of `bytes`
/// (panics via slice indexing if shorter — collective frames are produced
/// in this module, so a short frame is an internal invariant violation).
fn u64_le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

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

/// All-reduce max of a single `f64` across ranks.
pub fn allreduce_max_f64(comm: &mut Communicator, value: f64) -> Result<f64> {
    let gathered = gather(comm, 0, f64s_to_bytes(&[value]))?;
    let max = if let Some(parts) = gathered {
        parts
            .iter()
            .map(|p| bytes_to_f64s(p)[0])
            .fold(f64::NEG_INFINITY, f64::max)
    } else {
        0.0
    };
    let result = broadcast(comm, 0, &f64s_to_bytes(&[max]))?;
    Ok(bytes_to_f64s(&result)[0])
}

/// All-gather: every rank receives every rank's payload, in rank order.
pub fn allgather(comm: &mut Communicator, payload: &[u8]) -> Result<Vec<Bytes>> {
    let at_root = gather(comm, 0, Bytes::copy_from_slice(payload))?;
    // Root re-broadcasts the concatenation with a simple length-prefixed frame.
    let frame = if let Some(parts) = at_root {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(parts.len() as u64).to_le_bytes());
        for p in &parts {
            buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
            buf.extend_from_slice(p);
        }
        buf
    } else {
        Vec::new()
    };
    let framed = broadcast(comm, 0, &frame)?;
    // Decode the frame. Length fields round-trip `Vec` lengths framed
    // by a rank of this same process, so they always fit `usize` here.
    let mut cursor = 0usize;
    let read_len = |buf: &[u8], at: usize| -> usize {
        u64_le(&buf[at..]) as usize // qse-lint: allow — in-process Vec length round-trip
    };
    let count = read_len(&framed, cursor);
    cursor += 8;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_len(&framed, cursor);
        cursor += 8;
        out.push(framed.slice(cursor..cursor + len));
        cursor += len;
    }
    Ok(out)
}

/// Reduces a single `u64` by summation to every rank (e.g. total distributed
/// gate counts in reports).
pub fn allreduce_sum_u64(comm: &mut Communicator, value: u64) -> Result<u64> {
    if comm.rank() == 0 {
        let mut total = value;
        for src in 1..comm.size() {
            let p = comm.recv(src, TAG_REDUCE)?;
            total += u64_le(&p);
        }
        let b = broadcast(comm, 0, &total.to_le_bytes())?;
        Ok(u64_le(&b))
    } else {
        comm.send(0, TAG_REDUCE, &value.to_le_bytes())?;
        let b = broadcast(comm, 0, &[])?;
        Ok(u64_le(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn broadcast_reaches_all_ranks() {
        let out = Universe::new(4).run(|c| {
            let payload = if c.rank() == 2 { b"hello".to_vec() } else { vec![] };
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
    fn allreduce_max_finds_max() {
        let out = Universe::new(5).run(|c| {
            allreduce_max_f64(c, -(c.rank() as f64)).unwrap()
        });
        for v in out {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn allreduce_sum_u64_counts() {
        let out = Universe::new(3).run(|c| allreduce_sum_u64(c, c.rank() as u64 + 1).unwrap());
        assert_eq!(out, vec![6, 6, 6]);
    }

    #[test]
    fn allgather_delivers_everything_everywhere() {
        let out = Universe::new(3).run(|c| {
            let payload = vec![c.rank() as u8; c.rank() + 1]; // varying lengths
            let parts = allgather(c, &payload).unwrap();
            parts.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        });
        let expected = vec![vec![0u8; 1], vec![1u8; 2], vec![2u8; 3]];
        for rank_view in out {
            assert_eq!(rank_view, expected);
        }
    }

    #[test]
    fn collectives_recover_under_seeded_faults() {
        // Linear collectives lean entirely on the point-to-point recovery
        // layer; under a recoverable plan every rank must still see the
        // exact fault-free reduction results.
        for seed in [3u64, 14, 159] {
            let universe =
                Universe::with_faults(4, crate::FaultConfig::recoverable(seed)).unwrap();
            let out = universe.run(|c| {
                let sums = allreduce_sum_f64(c, &[c.rank() as f64, 1.0]).unwrap();
                let total = allreduce_sum_u64(c, c.rank() as u64 + 1).unwrap();
                let parts = allgather(c, &[c.rank() as u8 * 5]).unwrap();
                (sums, total, parts.iter().map(|p| p.to_vec()).collect::<Vec<_>>())
            });
            for (sums, total, parts) in out {
                assert_eq!(sums, vec![6.0, 4.0], "seed {seed}");
                assert_eq!(total, 10, "seed {seed}");
                assert_eq!(
                    parts,
                    vec![vec![0u8], vec![5u8], vec![10u8], vec![15u8]],
                    "seed {seed}"
                );
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
            let sum = allreduce_sum_u64(c, 1).unwrap();
            assert_eq!(sum, 2);
            let got = c.recv(peer, 5).unwrap();
            assert_eq!(got[0], 42);
        });
    }
}
