//! Sample statistics for the ledger: median, quartiles and the highest
//! percentile a sample count can support.
//!
//! Deliberately independent of `qse_util::bench`, whose calibrating loop
//! picks a different iteration count on every run: the ledger fixes what
//! it measures and only summarises the samples it got. The sample count
//! is part of every summary and is always printed beside the numbers.

/// Median and quartiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quartile `i` (1, 2 or 3) of ascending `s`, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses by default (the exclusive
/// method, which extrapolates past the ends of a very small sample) — so
/// `compare` computes the quartiles the benchmark contract is judged
/// with. A single sample is its own quartiles.
fn quartile_sorted(s: &[f64], i: usize) -> f64 {
    let len = s.len();
    if len == 1 {
        return s[0];
    }
    let j = (i * (len + 1) / 4).clamp(1, len - 1);
    let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// Median of `samples`.
///
/// # Panics
/// Panics on an empty slice: every ledger metric is backed by at least
/// one sample, so an empty set is a bug in the benchmark.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Count, quartiles and median of `samples`.
///
/// # Panics
/// Panics on an empty slice (see [`median`]).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(
        !samples.is_empty(),
        "a ledger metric needs at least one sample"
    );
    let s = sorted(samples);
    Summary {
        n: s.len(),
        q1: quartile_sorted(&s, 1),
        median: quartile_sorted(&s, 2),
        q3: quartile_sorted(&s, 3),
    }
}

/// The percentiles a tail may be reported at, ascending, each with the
/// share of samples beyond it in parts per thousand (kept in integers so
/// the ten-sample rule is exact at the boundaries).
const TAIL_PERCENTILES: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest of 75 / 90 / 95 / 99 / 99.9 that still has at least ten
/// of `n` samples beyond it; `None` below 40 samples, where only the
/// median is reported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&(_, beyond)| n * beyond >= 10 * 1000)
        .map(|&(p, _)| p)
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
///
/// # Panics
/// Panics on an empty slice (see [`median`]).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "a ledger metric needs at least one sample"
    );
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[4.5]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.5, 4.5, 4.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[9.0, 10.0, 11.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }
}
