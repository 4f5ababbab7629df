//! A prepared inverse-CDF sampler over `u64` outcomes.
//!
//! Every engine draws measurement histograms under one contract:
//! inclusive prefix sums of the outcome weights in ascending outcome
//! order, one `random_range(0.0..total)` per shot, and `partition_point`
//! selection of the smallest outcome whose prefix sum exceeds the draw.
//! [`Cdf`] is that contract built once over a whole table — the sparse
//! and tableau engines' outcomes, or amplitudes held in one place: the
//! prefix sums are summed when it is built and every draw after that is
//! a binary search, so one state serves any number of seeds (a batch of
//! jobs sharing one execution, [`Cdf::sample_batch`]) for the price of
//! one table.
//!
//! A dense table cut across ranks keeps the same contract without being
//! put back together: each rank sums its share in place with
//! [`prefix_sums`], continuing from the previous rank's end carry (the
//! same `+` sequence as one pass over the whole table), and a
//! [`Segment`] over that share selects exactly the draws whose whole-table
//! selection lands in it. Every rank draws every uniform of a batch
//! ([`Shots`]), so the segments' histograms add up to the whole table's.

use crate::rng::{Rng, StdRng};
use std::collections::BTreeMap;

/// A measurement histogram: outcome → times drawn.
pub type Counts = BTreeMap<u64, usize>;

/// One job's draws: `count` uniforms from a generator seeded with `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shots {
    /// Seed of the job's own generator.
    pub seed: u64,
    /// Shots to draw.
    pub count: usize,
}

impl Shots {
    /// The `count` uniforms over `0.0..total`, in draw order.
    fn uniforms(self, total: f64) -> impl Iterator<Item = f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count).map(move |_| rng.random_range(0.0..total))
    }
}

/// Writes inclusive prefix sums in one pass in order, starting from
/// `carry` (`0.0` for a whole table): each `(slot, weight)` pair gets the
/// running sum through its weight. A table summed in place pairs each
/// entry with its own value; weights may also be computed from other
/// data as the pass goes. Returns the end carry — the last prefix sum,
/// `carry` for no pairs — and the index of the last positive weight.
pub fn prefix_sums<'a>(
    pairs: impl IntoIterator<Item = (&'a mut f64, f64)>,
    carry: f64,
) -> (f64, Option<usize>) {
    let mut acc = carry;
    let mut last_positive = None;
    for (i, (slot, w)) in pairs.into_iter().enumerate() {
        if w > 0.0 {
            last_positive = Some(i);
        }
        acc += w;
        *slot = acc;
    }
    (acc, last_positive)
}

/// `table`'s entries paired with their own values, for [`prefix_sums`]
/// in place.
fn in_place(table: &mut [f64]) -> impl Iterator<Item = (&mut f64, f64)> {
    table.iter_mut().map(|p| {
        let w = *p;
        (p, w)
    })
}

/// The draw's position: the smallest index whose prefix sum exceeds `u`,
/// `prefix.len()` when none does.
fn select(prefix: &[f64], u: f64) -> usize {
    prefix.partition_point(|&c| c <= u)
}

/// The weights sum to zero (or are not a number): there is no
/// distribution to draw from. Each engine maps this to its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroTotal;

impl std::fmt::Display for ZeroTotal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the outcome weights sum to zero")
    }
}

impl std::error::Error for ZeroTotal {}

/// Inclusive prefix sums of outcome weights, ready to draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// One inclusive prefix sum per outcome.
    prefix: Vec<f64>,
    /// The outcome of each prefix sum; `None` in the dense form, whose
    /// outcome `i` is `i` — a 2ⁿ table then carries no 2ⁿ key array.
    keys: Option<Vec<u64>>,
    /// Where a draw at or past the last prefix sum lands: the last
    /// outcome with a positive weight.
    last_positive: u64,
    /// Draws are uniform over `0.0..total`.
    total: f64,
}

impl Cdf {
    /// Outcomes `0..weights.len()`, outcome `i` weighted by `weights[i]`.
    /// The buffer becomes the prefix table, summed in place in one pass
    /// in outcome order, so a caller may fill it in any order (over a
    /// worker pool, say) and get the same table and draws.
    pub fn dense(weights: Vec<f64>) -> Result<Cdf, ZeroTotal> {
        Self::summed(weights, None)
    }

    /// `(outcome, weight)` pairs in ascending outcome order.
    pub fn sparse(pairs: impl IntoIterator<Item = (u64, f64)>) -> Result<Cdf, ZeroTotal> {
        let (keys, weights) = pairs.into_iter().unzip();
        Self::summed(weights, Some(keys))
    }

    /// Turns the weights in `prefix` into their inclusive prefix sums in
    /// place, in one pass in outcome order.
    fn summed(mut prefix: Vec<f64>, keys: Option<Vec<u64>>) -> Result<Cdf, ZeroTotal> {
        let (acc, last_positive) = prefix_sums(in_place(&mut prefix), 0.0);
        let last_positive = match (last_positive, &keys) {
            (Some(i), Some(keys)) => keys[i],
            (Some(i), None) => i as u64,
            (None, _) => 0,
        };
        Cdf {
            prefix,
            keys,
            last_positive,
            total: acc,
        }
        .with_total(acc)
    }

    /// The same table drawn over `0.0..total` instead of its own final
    /// prefix sum — for callers whose norm is reduced in another order.
    /// A draw at or past the last prefix sum lands on the last outcome
    /// with a positive weight.
    pub fn with_total(self, total: f64) -> Result<Cdf, ZeroTotal> {
        if total.is_nan() || total <= 0.0 {
            return Err(ZeroTotal);
        }
        Ok(Cdf { total, ..self })
    }

    /// Draws one outcome.
    fn draw<R: Rng>(&self, rng: &mut R) -> u64 {
        self.outcome(rng.random_range(0.0..self.total))
    }

    /// The outcome of the uniform draw `u`.
    fn outcome(&self, u: f64) -> u64 {
        let pos = select(&self.prefix, u);
        if pos == self.prefix.len() {
            self.last_positive
        } else {
            self.keys.as_ref().map_or(pos as u64, |keys| keys[pos])
        }
    }

    /// Draws `shots` outcomes and returns their histogram.
    pub fn sample_counts<R: Rng>(&self, rng: &mut R, shots: usize) -> Counts {
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(self.draw(rng)).or_insert(0) += 1;
        }
        counts
    }

    /// Each job's histogram, in order: its shots drawn from its own seed.
    pub fn sample_batch(&self, shots: &[Shots]) -> Vec<Counts> {
        shots
            .iter()
            .map(|s| self.sample_counts(&mut StdRng::seed_from_u64(s.seed), s.count))
            .collect()
    }
}

/// One rank's share of a dense table cut into contiguous segments:
/// outcomes `offset..offset + prefix.len()`, whose prefix sums continue
/// from the end carry of the segment before. [`Self::sample_batch`]
/// keeps exactly the draws whose whole-table selection lands here, so
/// the histograms of all segments add up to [`Cdf::sample_batch`] over
/// the whole table, and the segments never need to be put together.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// This segment's inclusive prefix sums ([`prefix_sums`]).
    pub prefix: &'a [f64],
    /// The outcome of `prefix[0]`.
    pub offset: u64,
    /// The last prefix sum of the segment before; `None` for the first.
    pub carry_in: Option<f64>,
    /// The whole table's last prefix sum: draws are uniform over
    /// `0.0..total`.
    pub total: f64,
    /// The whole table's last outcome with a positive weight (`0` when
    /// there is none), where a draw at or past `total` lands.
    pub last_positive: u64,
}

impl Segment<'_> {
    /// The outcome of the uniform draw `u` when the whole table's
    /// selection lands in this segment. The prefix sums never decrease,
    /// so the smallest one exceeding `u` is here iff the carry in does
    /// not exceed `u` and some prefix sum here does; a draw no prefix sum
    /// exceeds belongs to the segment holding `last_positive`.
    pub fn outcome(&self, u: f64) -> Option<u64> {
        // The negation of the selection's own `c <= u`, so that a NaN
        // draw lands where `partition_point` puts it: on the first outcome.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let earlier = self.carry_in.is_some_and(|c| !(c <= u));
        if earlier {
            return None;
        }
        let pos = select(self.prefix, u);
        let end = self.offset + self.prefix.len() as u64;
        if pos < self.prefix.len() {
            Some(self.offset + pos as u64)
        } else if self.total <= u && (self.offset..end).contains(&self.last_positive) {
            Some(self.last_positive)
        } else {
            None
        }
    }

    /// Each job's histogram over this segment's outcomes, in order: every
    /// one of its shots drawn from its own seed, the ones landing here
    /// counted. Refuses a total that is zero or not a number, as
    /// [`Cdf::with_total`] does.
    pub fn sample_batch(&self, shots: &[Shots]) -> Result<Vec<Counts>, ZeroTotal> {
        if self.total.is_nan() || self.total <= 0.0 {
            return Err(ZeroTotal);
        }
        Ok(shots
            .iter()
            .map(|s| {
                let mut counts = BTreeMap::new();
                for outcome in s.uniforms(self.total).filter_map(|u| self.outcome(u)) {
                    *counts.entry(outcome).or_insert(0) += 1;
                }
                counts
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::rng::StdRng;

    // The three sampling loops this type replaced, kept as the oracle:
    // `sample_counts_amps` (and, with an explicit total, `sample_counts`
    // over a `SingleState`), `SparseState::sample_counts` and
    // `Tableau::sample_counts`, each over the weights its state yields.

    /// The old dense table: prefix sums pushed one by one, the last
    /// positive outcome, and the final sum.
    fn old_dense_table(weights: &[f64]) -> (Vec<f64>, u64, f64) {
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        let mut last_nonzero = 0u64;
        for (i, &p) in weights.iter().enumerate() {
            if p > 0.0 {
                last_nonzero = i as u64;
            }
            acc += p;
            cdf.push(acc);
        }
        (cdf, last_nonzero, acc)
    }

    fn old_dense(
        weights: &[f64],
        total: Option<f64>,
        rng: &mut StdRng,
        shots: usize,
    ) -> Result<BTreeMap<u64, usize>, ZeroTotal> {
        let len = weights.len();
        let (cdf, last_nonzero, acc) = old_dense_table(weights);
        let total = total.unwrap_or(acc);
        if total <= 0.0 {
            return Err(ZeroTotal);
        }
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let u: f64 = rng.random_range(0.0..total);
            let idx = cdf.partition_point(|&c| c <= u);
            let drawn = if idx == len { last_nonzero } else { idx as u64 };
            *counts.entry(drawn).or_insert(0) += 1;
        }
        Ok(counts)
    }

    fn old_sparse(
        keys: &[u64],
        weights: &[f64],
        rng: &mut StdRng,
        shots: usize,
    ) -> Result<BTreeMap<u64, usize>, ZeroTotal> {
        let mut cdf = Vec::with_capacity(keys.len());
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            cdf.push(acc);
        }
        let total = acc;
        if total <= 0.0 {
            return Err(ZeroTotal);
        }
        let len = keys.len();
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let u: f64 = rng.random_range(0.0..total);
            let pos = cdf.partition_point(|&c| c <= u);
            let drawn = if pos == len { keys[len - 1] } else { keys[pos] };
            *counts.entry(drawn).or_insert(0) += 1;
        }
        Ok(counts)
    }

    fn old_tableau(
        indices: &[u64],
        log2_size: u32,
        rng: &mut StdRng,
        shots: usize,
    ) -> BTreeMap<u64, usize> {
        let p = 0.5f64.powi(log2_size as i32);
        let len = indices.len();
        let mut cdf = Vec::with_capacity(len);
        let mut acc = 0.0f64;
        for _ in 0..len {
            acc += p;
            cdf.push(acc);
        }
        let total = acc;
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let u: f64 = rng.random_range(0.0..total);
            let pos = cdf.partition_point(|&c| c <= u);
            let drawn = if pos == len {
                indices[len - 1]
            } else {
                indices[pos]
            };
            *counts.entry(drawn).or_insert(0) += 1;
        }
        counts
    }

    /// A weight vector with interior and trailing zeros, subnormals, and
    /// sometimes a single positive entry.
    fn weights(rng: &mut StdRng) -> Vec<f64> {
        let len = 1 + rng.random_range(0usize..64);
        let mut w: Vec<f64> = (0..len)
            .map(|_| match rng.random_range(0u32..6) {
                0 | 1 => 0.0,
                2 => f64::MIN_POSITIVE * rng.random_f64(),
                _ => rng.random_f64(),
            })
            .collect();
        match rng.random_range(0u32..4) {
            // One outcome carries everything.
            0 => {
                w.iter_mut().for_each(|x| *x = 0.0);
                w[rng.random_range(0..len)] = rng.random_f64() + 0.5;
            }
            // Trailing zeros.
            1 => {
                let keep = rng.random_range(0..len);
                w[keep + 1..].iter_mut().for_each(|x| *x = 0.0);
            }
            _ => {}
        }
        w
    }

    fn dense_of(weights: &[f64]) -> Result<Cdf, ZeroTotal> {
        Cdf::dense(weights.to_vec())
    }

    fn draws(cdf: &Cdf, seed: u64, shots: usize) -> BTreeMap<u64, usize> {
        cdf.sample_counts(&mut StdRng::seed_from_u64(seed), shots)
    }

    #[test]
    fn cdf_draws_match_the_three_old_sampling_loops() {
        check(256, |rng| {
            let w = weights(rng);
            let seed = rng.next_u64();
            let shots = rng.random_range(1usize..400);

            // Dense: outcomes are indices.
            let old = old_dense(&w, None, &mut StdRng::seed_from_u64(seed), shots);
            let new = dense_of(&w).map(|c| draws(&c, seed, shots));
            assert_eq!(new, old, "dense weights {w:?}");

            // Dense under a wider draw range: a share of the draws
            // overflow onto the last positive outcome.
            let total: f64 = w.iter().sum::<f64>() * 1.5;
            let old = old_dense(&w, Some(total), &mut StdRng::seed_from_u64(seed), shots);
            let new = dense_of(&w)
                .and_then(|c| c.with_total(total))
                .map(|c| draws(&c, seed, shots));
            assert_eq!(new, old, "dense weights {w:?}, total {total}");

            // Sparse: ascending keys with gaps.
            let mut key = rng.random_range(0u64..4);
            let keys: Vec<u64> = w
                .iter()
                .map(|_| {
                    key += 1 + rng.random_range(0u64..1 << 20);
                    key
                })
                .collect();
            let old = old_sparse(&keys, &w, &mut StdRng::seed_from_u64(seed), shots);
            let new = Cdf::sparse(keys.iter().copied().zip(w.iter().copied()))
                .map(|c| draws(&c, seed, shots));
            assert_eq!(new, old, "sparse keys {keys:?} weights {w:?}");

            // Tableau: 2^k equal weights over an ascending support.
            let log2_size = rng.random_range(0u32..7);
            let support: Vec<u64> = (0..1u64 << log2_size).map(|i| i * 3 + 1).collect();
            let p = 0.5f64.powi(log2_size as i32);
            let old = old_tableau(&support, log2_size, &mut StdRng::seed_from_u64(seed), shots);
            let new = Cdf::sparse(support.iter().map(|&i| (i, p))).expect("positive total");
            assert_eq!(draws(&new, seed, shots), old, "support of 2^{log2_size}");
        });
    }

    /// The in-place table against the old push-by-push build: random
    /// weights, a zero tail, weights too small to move the running sum
    /// once it is large, a single positive outcome — and all-zero or NaN
    /// weights, which have no distribution.
    #[test]
    fn in_place_dense_table_matches_the_old_build() {
        let sizes = [1usize, 2, 5, 64, 1000, 4099];
        let mut rng = StdRng::seed_from_u64(11);
        for len in sizes {
            let random: Vec<f64> = (0..len).map(|_| rng.random_f64()).collect();
            let mut zero_tail = random.clone();
            zero_tail[len / 2 + 1..].iter_mut().for_each(|w| *w = 0.0);
            let absorbed: Vec<f64> = (0..len)
                .map(|i| if i < len / 3 { 1.0 } else { 1e-20 })
                .collect();
            let mut single = vec![0.0; len];
            single[len * 2 / 3] = 0.25;
            for (shape, w) in [
                ("random", random),
                ("zero tail", zero_tail),
                ("absorbed", absorbed),
                ("single", single),
            ] {
                let what = format!("{shape} len {len}");
                let new = dense_of(&w).expect(&what);
                let (prefix, last_positive, total) = old_dense_table(&w);
                assert!(
                    new.prefix
                        .iter()
                        .map(|p| p.to_bits())
                        .eq(prefix.iter().map(|p| p.to_bits())),
                    "{what}"
                );
                assert_eq!(new.last_positive, last_positive, "{what}");
                assert_eq!(new.total.to_bits(), total.to_bits(), "{what}");
                assert!(new.keys.is_none(), "{what}");
                let seed = rng.next_u64();
                let old = old_dense(&w, None, &mut StdRng::seed_from_u64(seed), 500);
                assert_eq!(Ok(draws(&new, seed, 500)), old, "{what}");
            }
            let zeros = vec![0.0; len];
            assert_eq!(dense_of(&zeros), Err(ZeroTotal));
            let mut nan = vec![0.5; len];
            nan[len - 1] = f64::NAN;
            assert_eq!(dense_of(&nan), Err(ZeroTotal));
        }
        assert_eq!(dense_of(&[]), Err(ZeroTotal));
    }

    /// `w` cut at `cuts` into segments chained by [`prefix_sums`]: the
    /// prefix sums, each segment's carry in, the total and the last
    /// positive outcome.
    fn chained(w: &[f64], cuts: &[usize]) -> (Vec<f64>, Vec<Option<f64>>, f64, u64) {
        let mut prefix = w.to_vec();
        let (mut carry, mut last_positive) = (None, 0);
        let mut carries = Vec::new();
        for (&start, &end) in cuts.iter().zip(&cuts[1..]) {
            let (out, last) = prefix_sums(in_place(&mut prefix[start..end]), carry.unwrap_or(0.0));
            carries.push(carry);
            last_positive = last.map_or(last_positive, |i| (start + i) as u64);
            carry = Some(out);
        }
        (prefix, carries, carry.expect("one segment"), last_positive)
    }

    /// A table cut into one to eight segments and chained by their carries
    /// is the whole table bit for bit, and each draw lands in exactly one
    /// segment, on the whole table's outcome — also a draw at or past the
    /// total, which the segment holding the last positive weight takes,
    /// and a NaN draw. The segments' seeded histograms add up to the
    /// whole table's, and a zero or NaN total is refused.
    #[test]
    fn chained_segments_draw_what_the_whole_table_draws() {
        check(256, |rng| {
            let w = weights(rng);
            let Ok(whole) = dense_of(&w) else {
                return;
            };
            let mut cuts: Vec<usize> = (0..rng.random_range(0usize..8))
                .map(|_| rng.random_range(1..=w.len()))
                .chain([0, w.len()])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let (prefix, carries, total, last_positive) = chained(&w, &cuts);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&prefix), bits(&whole.prefix), "weights {w:?}");
            assert_eq!(total.to_bits(), whole.total.to_bits());
            assert_eq!(last_positive, whole.last_positive);
            let segments: Vec<Segment> = cuts
                .windows(2)
                .zip(carries)
                .map(|(cut, carry_in)| Segment {
                    prefix: &prefix[cut[0]..cut[1]],
                    offset: cut[0] as u64,
                    carry_in,
                    total,
                    last_positive,
                })
                .collect();
            let mut draws: Vec<f64> = (0..64).map(|_| rng.random_range(0.0..total)).collect();
            draws.extend(segments.iter().filter_map(|s| s.carry_in));
            draws.extend([0.0, total, total * 1.5, f64::NAN]);
            for u in draws {
                let got: Vec<u64> = segments.iter().filter_map(|s| s.outcome(u)).collect();
                assert_eq!(
                    got,
                    [whole.outcome(u)],
                    "u {u}, weights {w:?}, cuts {cuts:?}"
                );
            }
            let shots: Vec<Shots> = (0..3)
                .map(|_| Shots {
                    seed: rng.next_u64(),
                    count: rng.random_range(0usize..200),
                })
                .collect();
            let mut merged = vec![Counts::new(); shots.len()];
            for s in &segments {
                for (all, mine) in merged.iter_mut().zip(s.sample_batch(&shots).unwrap()) {
                    all.extend(mine);
                }
            }
            assert_eq!(merged, whole.sample_batch(&shots), "weights {w:?}");
        });
        for total in [0.0, f64::NAN] {
            let segment = Segment {
                prefix: &[0.0],
                offset: 0,
                carry_in: None,
                total,
                last_positive: 0,
            };
            assert_eq!(segment.sample_batch(&[]), Err(ZeroTotal));
        }
    }

    /// Always the same 64 bits: pins every draw to one end of the range.
    struct Fixed(u64);

    impl Rng for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn draws_at_either_end_of_the_range_skip_zero_weights() {
        let dense = dense_of(&[0.0, 0.0, 0.5, 0.0, 0.5, 0.0]).unwrap();
        assert_eq!(dense.draw(&mut Fixed(0)), 2);
        assert_eq!(dense.draw(&mut Fixed(u64::MAX)), 4);
        let sparse = Cdf::sparse([(3, 0.0), (7, 1.0), (9, 0.0)]).unwrap();
        assert_eq!(sparse.draw(&mut Fixed(0)), 7);
        assert_eq!(sparse.draw(&mut Fixed(u64::MAX)), 7);
    }

    #[test]
    fn zero_total_is_a_typed_error() {
        assert_eq!(dense_of(&[0.0; 8]), Err(ZeroTotal));
        assert_eq!(dense_of(&[]), Err(ZeroTotal));
        assert_eq!(Cdf::sparse([(3, 0.0), (9, 0.0)]), Err(ZeroTotal));
        assert_eq!(dense_of(&[f64::NAN]), Err(ZeroTotal));
        let cdf = dense_of(&[0.25, 0.75]).unwrap();
        assert_eq!(cdf.clone().with_total(0.0), Err(ZeroTotal));
        assert_eq!(cdf.with_total(f64::NAN), Err(ZeroTotal));
        assert!(ZeroTotal.to_string().contains("zero"));
    }
}
