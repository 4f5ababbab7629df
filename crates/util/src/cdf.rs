//! A prepared inverse-CDF sampler over `u64` outcomes.
//!
//! Every engine draws measurement histograms under one contract:
//! inclusive prefix sums of the outcome weights in ascending outcome
//! order, one `random_range(0.0..total)` per shot, and `partition_point`
//! selection of the smallest outcome whose prefix sum exceeds the draw.
//! [`Cdf`] is that contract built once: the prefix sums are summed when
//! it is built and every draw after that is a binary search, so one
//! state serves any number of seeds (a batch of jobs sharing one
//! execution) for the price of one table.

use crate::rng::Rng;
use std::collections::BTreeMap;

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
        let mut acc = 0.0f64;
        let mut last_positive = None;
        for (i, p) in prefix.iter_mut().enumerate() {
            if *p > 0.0 {
                last_positive = Some(i);
            }
            acc += *p;
            *p = acc;
        }
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
        let u: f64 = rng.random_range(0.0..self.total);
        let pos = self.prefix.partition_point(|&c| c <= u);
        if pos == self.prefix.len() {
            self.last_positive
        } else {
            self.keys.as_ref().map_or(pos as u64, |keys| keys[pos])
        }
    }

    /// Draws `shots` outcomes and returns their histogram.
    pub fn sample_counts<R: Rng>(&self, rng: &mut R, shots: usize) -> BTreeMap<u64, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(self.draw(rng)).or_insert(0) += 1;
        }
        counts
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
