//! Reading a distributed state out where it lives: the reply digest and
//! each job's seeded histogram, with no amplitude leaving its rank —
//! QuEST's way of measuring, where each rank sums its own outcome
//! probabilities and only sums travel.
//!
//! * **Digest.** Each rank digests its slice from its split planes
//!   ([`digest::planes`]). A slice is an aligned subtree of the tree
//!   digest, so rank 0 only joins the R roots ([`digest::join`]). A
//!   slice smaller than one leaf ([`LEAF_AMPS`], so `n − log₂R < 6`) is
//!   no subtree: each rank then sends its at most 63 amplitudes instead,
//!   and rank 0 digests the reassembled state, at most 2⁹ amplitudes at
//!   16 ranks.
//! * **Prefix sums.** Rank r takes rank r − 1's end carry, continues the
//!   running sum from it over its own weights, computed as
//!   `Complex64::norm_sqr` computes them, and forwards its own end carry
//!   ([`collective::chain`]). The sum overwrites the real plane in place
//!   ([`prefix_sums`]): the same `+` sequence as one pass over the
//!   gathered weights, so every prefix bit is equal. The weights are
//!   computed inside that pass, not in a pool pass of their own: the pass
//!   waits on each add's latency, which hides them, and the two forms
//!   measured equal end to end. The last carry is the total; the last
//!   rank broadcasts it, with the index of the last positive weight.
//! * **Draws.** Every rank draws every job's uniforms from the job's
//!   seed and counts those whose selection lands in its own
//!   `[carry_in, carry_out)` ([`Segment`]); the rank holding the last
//!   positive weight takes a draw at or past the total. Rank 0 merges the
//!   counts with the digests ([`collective::gather`] of a few words per
//!   rank). A zero or NaN total is [`ZeroTotal`] on every rank.
//!
//! Messages per read-out: R − 1 carries, R − 1 broadcast copies and
//! R − 1 merge parts; a batch that draws no shots sends only the merge.

use super::DistributedState;
use crate::digest::{self, LEAF_AMPS};
use crate::storage::kernel::wire_amp;
use crate::storage::AMP_BYTES;
use qse_comm::collective::{self, TAG_BROADCAST, TAG_CHAIN, TAG_GATHER};
use qse_comm::{CommError, Result as CommResult};
use qse_math::Complex64;
use qse_util::cdf::{prefix_sums, Counts, Segment, Shots, ZeroTotal};
use qse_util::Bytes;

/// What rank 0 reads out of a distributed state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOut {
    /// [`digest::dense`] of the whole state.
    pub digest: u64,
    /// Each job's histogram, in job order (empty for a job of no shots):
    /// what `measure::amps_sampler` over the gathered amplitudes draws
    /// from the job's seed. [`ZeroTotal`] when a job asks for shots and
    /// the weights sum to zero or are not a number.
    pub counts: Result<Vec<Counts>, ZeroTotal>,
}

/// A rank's place in the chained prefix table.
struct Chained {
    /// The previous rank's end carry; `None` on rank 0.
    carry_in: Option<f64>,
    /// The last rank's end carry.
    total: f64,
    /// The global index of the last positive weight (`0` when none).
    last_positive: u64,
}

impl DistributedState<'_> {
    /// Reads the final state out on every rank at once: its digest, and
    /// each job's `shots` drawn from the job's seed. Rank 0 gets the
    /// [`ReadOut`]; the others `None`. It consumes the state, whose real
    /// plane becomes this rank's share of the prefix table.
    pub fn read_out(mut self, shots: &[Shots]) -> CommResult<Option<ReadOut>> {
        let mut part = self.digest_part();
        let counts = if shots.iter().any(|s| s.count > 0) {
            let chained = self.chain_prefix_sums()?;
            self.segment(&chained).sample_batch(shots)
        } else {
            Ok(vec![Counts::new(); shots.len()])
        };
        if let Ok(counts) = &counts {
            for c in counts {
                part.extend((c.len() as u64).to_le_bytes());
                for (&outcome, &n) in c {
                    part.extend(outcome.to_le_bytes());
                    part.extend((n as u64).to_le_bytes());
                }
            }
        }
        let Some(parts) = collective::gather(self.comm, 0, Bytes::from(part))? else {
            return Ok(None);
        };
        let local = self.amps.len();
        let mut roots = Vec::with_capacity(parts.len());
        let mut amps = Vec::new();
        let mut merged = counts.map(|c| vec![Counts::new(); c.len()]);
        for (src, bytes) in parts.iter().enumerate() {
            let mut part = Part { bytes, at: 0, src };
            if self.sub_leaf() {
                let slice = part.take(local * AMP_BYTES)?;
                amps.extend(slice.chunks_exact(AMP_BYTES).map(wire_amp));
            } else {
                roots.push(part.word()?);
            }
            if let Ok(merged) = &mut merged {
                for job in merged.iter_mut() {
                    for _ in 0..part.word()? {
                        let outcome = part.word()?;
                        *job.entry(outcome).or_insert(0) += crate::ix(part.word()?);
                    }
                }
            }
            part.finish()?;
        }
        let digest = if self.sub_leaf() {
            digest::dense(&amps)
        } else {
            digest::join(&roots, local)
        };
        Ok(Some(ReadOut {
            digest,
            counts: merged,
        }))
    }

    /// Whether a slice is too small to be a subtree of the digest.
    fn sub_leaf(&self) -> bool {
        self.layout.n_ranks() > 1 && self.amps.len() < LEAF_AMPS
    }

    /// This rank's share of the digest: its slice's root, or below a
    /// leaf its amplitudes on the wire.
    fn digest_part(&self) -> Vec<u8> {
        if self.sub_leaf() {
            let mut out = Vec::with_capacity(self.amps.len() * AMP_BYTES);
            self.amps.pack_range(0, self.amps.len(), &mut out);
            out
        } else {
            let (re, im) = self.amps.planes();
            digest::planes(re, im).to_le_bytes().to_vec()
        }
    }

    /// Turns this rank's amplitudes into its share of the global
    /// inclusive prefix sums of `|amp|²`, in its real plane: the running
    /// sum continued from the previous rank's end carry and forwarded.
    /// The last rank broadcasts the total.
    fn chain_prefix_sums(&mut self) -> CommResult<Chained> {
        let (rank, last) = (self.rank(), self.comm.size() - 1);
        let offset = self.rank_offset();
        let (re, im) = self.amps.planes_mut();
        let mut carry_in = None;
        let mine = collective::chain(self.comm, |prev| {
            let (carry, last_positive) = match prev {
                Some(p) => {
                    let value = carry_value(&p, rank - 1, TAG_CHAIN)?;
                    carry_in = Some(value.0);
                    value
                }
                None => (0.0, 0),
            };
            let weights = re.iter_mut().zip(im).map(|(r, &i)| {
                let w = Complex64::new(*r, i).norm_sqr();
                (r, w)
            });
            let (carry_out, local_last) = prefix_sums(weights, carry);
            let last_positive = local_last.map_or(last_positive, |i| offset + i as u64);
            Ok(carry_bytes(carry_out, last_positive))
        })?;
        let payload = if rank == last { mine } else { Bytes::new() };
        let end = collective::broadcast(self.comm, last, payload)?;
        let (total, last_positive) = carry_value(&end, last, TAG_BROADCAST)?;
        Ok(Chained {
            carry_in,
            total,
            last_positive,
        })
    }

    /// This rank's segment of the chained prefix table.
    fn segment(&self, chained: &Chained) -> Segment<'_> {
        Segment {
            prefix: self.amps.planes().0,
            offset: self.rank_offset(),
            carry_in: chained.carry_in,
            total: chained.total,
            last_positive: chained.last_positive,
        }
    }
}

/// Bytes of a chain value: a running sum and the last positive index.
const CARRY_BYTES: usize = 16;

fn carry_bytes(carry: f64, last_positive: u64) -> Bytes {
    let mut out = Vec::with_capacity(CARRY_BYTES);
    out.extend(carry.to_le_bytes());
    out.extend(last_positive.to_le_bytes());
    Bytes::from(out)
}

fn carry_value(bytes: &[u8], src: usize, tag: u64) -> CommResult<(f64, u64)> {
    if bytes.len() != CARRY_BYTES {
        return Err(CommError::ChunkLength {
            src,
            tag,
            expected: CARRY_BYTES,
            got: bytes.len(),
        });
    }
    Ok((f64::from_bits(word(&bytes[..8])), word(&bytes[8..])))
}

fn word(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// A cursor over one rank's merge part; a part of the wrong length is
/// refused with the length read so far.
struct Part<'a> {
    bytes: &'a [u8],
    at: usize,
    src: usize,
}

impl<'a> Part<'a> {
    fn take(&mut self, len: usize) -> CommResult<&'a [u8]> {
        let end = self.at + len;
        let taken = self.bytes.get(self.at..end).ok_or(self.short(end))?;
        self.at = end;
        Ok(taken)
    }

    fn word(&mut self) -> CommResult<u64> {
        self.take(8).map(word)
    }

    fn finish(&self) -> CommResult<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(self.short(self.at))
        }
    }

    fn short(&self, expected: usize) -> CommError {
        CommError::ChunkLength {
            src: self.src,
            tag: TAG_GATHER,
            expected,
            got: self.bytes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::amps_sampler;
    use crate::DistConfig;
    use qse_comm::Universe;
    use qse_util::rng::{Rng, StdRng};

    const SHOTS: [Shots; 3] = [
        Shots {
            seed: 1,
            count: 300,
        },
        Shots { seed: 2, count: 0 },
        Shots { seed: 3, count: 77 },
    ];

    fn random_amps(len: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Complex64::new(rng.random_f64() - 0.5, rng.random_f64() - 0.5))
            .collect()
    }

    /// Runs `f` on every rank of `ranks` over a state holding `amps`.
    fn on_ranks<T: Send>(
        amps: &[Complex64],
        ranks: usize,
        f: impl Fn(DistributedState) -> T + Sync,
    ) -> Vec<T> {
        let n = amps.len().trailing_zeros();
        Universe::new(ranks).run(|comm| {
            let mut st = DistributedState::zero_state(comm, n, DistConfig::default());
            let offset = crate::ix(st.rank_offset());
            for i in 0..st.amps.len() {
                st.amps.set(i, amps[offset + i]);
            }
            f(st)
        })
    }

    /// The shapes the chain must carry bit for bit, as amplitudes of
    /// `ranks` slices of `local`: random; a zero tail from inside the
    /// middle slice; every even slice but the last of zero weight (rank 0
    /// among them, so rank 1 continues from a zero carry); weights the
    /// running sum absorbs after the first third; the last positive
    /// weight at the end of the slice before the middle, zero after it;
    /// one amplitude.
    fn shapes(ranks: usize, local: usize, seed: u64) -> Vec<(&'static str, Vec<Complex64>)> {
        let len = ranks * local;
        let random = random_amps(len, seed);
        let mut zero_tail = random.clone();
        zero_tail[len / 2 + 1..].fill(Complex64::ZERO);
        let mut zero_rank = random.clone();
        for r in (0..ranks).filter(|r| r % 2 == 0 && r + 1 < ranks) {
            zero_rank[r * local..(r + 1) * local].fill(Complex64::ZERO);
        }
        let absorbed = (0..len)
            .map(|i| Complex64::new(if i <= len / 3 { 1.0 } else { 1e-10 }, 0.0))
            .collect();
        let mut boundary = random.clone();
        boundary[(ranks / 2).max(1) * local - 1] = Complex64::new(0.0, -0.75);
        boundary[(ranks / 2).max(1) * local..].fill(Complex64::ZERO);
        let mut single = vec![Complex64::ZERO; len];
        single[len * 2 / 3] = Complex64::new(0.0, -0.5);
        vec![
            ("random", random),
            ("zero tail", zero_tail),
            ("zero-weight rank", zero_rank),
            ("absorbed", absorbed),
            ("fallback at a boundary", boundary),
            ("single", single),
        ]
    }

    /// The gathered table: prefix sums in one pass, the total, the last
    /// positive index, and the outcome of a draw `u` under `Cdf`'s rule.
    struct Oracle {
        prefix: Vec<f64>,
        total: f64,
        last_positive: u64,
    }

    impl Oracle {
        fn new(amps: &[Complex64]) -> Oracle {
            let (mut acc, mut last_positive) = (0.0f64, 0);
            let mut prefix = Vec::with_capacity(amps.len());
            for (i, a) in amps.iter().enumerate() {
                let w = a.norm_sqr();
                if w > 0.0 {
                    last_positive = i as u64;
                }
                acc += w;
                prefix.push(acc);
            }
            Oracle {
                prefix,
                total: acc,
                last_positive,
            }
        }

        fn outcome(&self, u: f64) -> u64 {
            let pos = self.prefix.partition_point(|&c| c <= u);
            if pos == self.prefix.len() {
                self.last_positive
            } else {
                pos as u64
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The chained sampler against the gathered `amps_sampler` at R ∈
    /// {1, 2, 4, 8} on slices of 1, 2, 64 and 2¹⁵ amplitudes: every prefix
    /// bit, the total and the last positive index on every rank; each draw
    /// at a rank boundary, at 0, at and past the total and at random lands
    /// on exactly one rank, on the gathered outcome — the fallback past
    /// the total on the rank holding the last positive weight; and the
    /// read-out's seeded histograms and digest are the gathered ones.
    #[test]
    fn chained_sampler_matches_the_gathered_sampler() {
        let mut rng = StdRng::seed_from_u64(5);
        for ranks in [1usize, 2, 4, 8] {
            for local in [1usize, 2, 64, 1 << 15] {
                for (shape, amps) in shapes(ranks, local, rng.next_u64()) {
                    let what = format!("{shape}, R={ranks}, local={local}");
                    let want = Oracle::new(&amps);
                    let mut draws: Vec<f64> =
                        (1..ranks).map(|r| want.prefix[r * local - 1]).collect();
                    draws.extend([0.0, want.total, want.total * 1.5]);
                    draws.extend((0..32).map(|_| rng.random_range(0.0..want.total)));
                    let per_rank = on_ranks(&amps, ranks, |mut st| {
                        let chained = st.chain_prefix_sums().unwrap();
                        let segment = st.segment(&chained);
                        let outcomes: Vec<Option<u64>> =
                            draws.iter().map(|&u| segment.outcome(u)).collect();
                        let total = chained.total.to_bits();
                        (bits(segment.prefix), total, chained.last_positive, outcomes)
                    });
                    let prefix: Vec<u64> = per_rank.iter().flat_map(|r| r.0.clone()).collect();
                    assert_eq!(prefix, bits(&want.prefix), "{what}: prefix");
                    for (total, last_positive) in per_rank.iter().map(|r| (r.1, r.2)) {
                        assert_eq!(total, want.total.to_bits(), "{what}: total");
                        assert_eq!(last_positive, want.last_positive, "{what}");
                    }
                    for (k, &u) in draws.iter().enumerate() {
                        let got: Vec<u64> = per_rank.iter().filter_map(|r| r.3[k]).collect();
                        assert_eq!(got, [want.outcome(u)], "{what}: draw {u}");
                    }

                    let out = on_ranks(&amps, ranks, |st| st.read_out(&SHOTS).unwrap());
                    let read = out[0].clone().expect("rank 0 reads out");
                    assert!(out[1..].iter().all(Option::is_none), "{what}");
                    let gathered = amps_sampler(&amps).unwrap().sample_batch(&SHOTS);
                    assert_eq!(read.counts, Ok(gathered), "{what}: histograms");
                    assert_eq!(read.digest, digest::dense(&amps), "{what}: digest");
                }
            }
        }
    }

    /// All-zero and NaN weights have no distribution: `ZeroTotal` on every
    /// rank, while the digest is still read out.
    #[test]
    fn a_zero_or_nan_total_is_refused_on_every_rank() {
        for ranks in [1usize, 2, 4, 8] {
            let zeros = vec![Complex64::ZERO; 128 * ranks];
            let mut nan = random_amps(128 * ranks, 9);
            nan[77] = Complex64::new(f64::NAN, 0.0);
            for amps in [zeros, nan] {
                let per_rank = on_ranks(&amps, ranks, |mut st| {
                    let chained = st.chain_prefix_sums().unwrap();
                    st.segment(&chained).sample_batch(&SHOTS)
                });
                assert!(per_rank.iter().all(|r| *r == Err(ZeroTotal)), "R={ranks}");
                let out = on_ranks(&amps, ranks, |st| st.read_out(&SHOTS).unwrap());
                let read = out[0].clone().expect("rank 0 reads out");
                assert_eq!(read.counts, Err(ZeroTotal), "R={ranks}");
                assert_eq!(read.digest, digest::dense(&amps), "R={ranks}");
                // A batch that draws nothing needs no distribution.
                let out = on_ranks(&amps, ranks, |st| st.read_out(&SHOTS[1..2]).unwrap());
                let read = out[0].clone().expect("rank 0 reads out");
                assert_eq!(read.counts, Ok(vec![Counts::new()]), "R={ranks}");
            }
        }
    }

    /// The per-rank digest is `digest::dense` of the gathered state at
    /// n ∈ {0…20} × R ∈ {1, 2, 4, 8}, slices below a leaf included.
    #[test]
    fn per_rank_digest_matches_the_gathered_digest() {
        for n in 0..=20u32 {
            let amps = random_amps(1 << n, u64::from(n));
            let want = digest::dense(&amps);
            for ranks in [1usize, 2, 4, 8].into_iter().filter(|&r| r <= amps.len()) {
                let out = on_ranks(&amps, ranks, |st| st.read_out(&[]).unwrap());
                let read = out[0].clone().expect("rank 0 reads out");
                assert_eq!(read.digest, want, "n={n} R={ranks}");
                assert_eq!(read.counts, Ok(Vec::new()), "n={n} R={ranks}");
            }
        }
    }

    /// A read-out sends R − 1 carries, R − 1 broadcast copies and R − 1
    /// merge parts; one that draws no shots sends only the merge.
    #[test]
    fn a_read_out_sends_three_messages_per_extra_rank() {
        for ranks in [1usize, 2, 4, 8] {
            for (shots, per_extra_rank) in [(&SHOTS[..], 3), (&SHOTS[1..2], 1)] {
                let sent = Universe::new(ranks).run(|comm| {
                    let st = DistributedState::zero_state(comm, 10, DistConfig::default());
                    st.read_out(shots).unwrap();
                    comm.stats().messages_sent
                });
                let extra = ranks as u64 - 1;
                assert_eq!(
                    sent.iter().sum::<u64>(),
                    per_extra_rank * extra,
                    "R={ranks}"
                );
            }
        }
    }

    /// A merge part of the wrong length is refused, not misread.
    #[test]
    fn a_short_merge_part_is_refused() {
        let errs = Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                return collective::gather(comm, 0, Bytes::from(vec![0u8; 5])).map(|_| ());
            }
            DistributedState::zero_state(comm, 8, DistConfig::default())
                .read_out(&[])
                .map(|_| ())
        });
        assert_eq!(
            errs[0],
            Err(CommError::ChunkLength {
                src: 1,
                tag: TAG_GATHER,
                expected: 8,
                got: 5,
            })
        );
    }
}
