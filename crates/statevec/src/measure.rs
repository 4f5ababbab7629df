//! Measurement: sampling, and the dense oracle for projective collapse.
//!
//! The paper's §1 motivation for statevector simulation: "once a circuit
//! is simulated, all amplitudes are available, which enables any required
//! measurements to be made without the need to rerun the simulation".
//! Every product path measures that way, once, after the last gate. A
//! served dense run is read out where its amplitudes live
//! ([`crate::DistributedState::read_out`]), drawing bit for bit what one
//! prepared sampler over the gathered amplitudes ([`amps_sampler`]) draws;
//! callers that hold the amplitudes in one place use that sampler
//! directly. The projective single-qubit measurement
//! ([`measure_qubit_with`], [`collapse`]) has no product caller; it is
//! kept as the dense oracle that the stabilizer engine's own measurement
//! is checked against (`qse-stabilizer`'s `dense_agreement` suite).
//!
//! Everything here returns `Result` with a typed [`MeasureError`] —
//! a zero-norm register or an impossible collapse is a caller bug or a
//! numerical boundary, not a reason to abort a library process. Only
//! binaries (CLI, examples) convert these into panics.

use crate::single::SingleState;
use crate::storage::extend_over_pool;
use qse_math::Complex64;
use qse_util::cdf::Cdf;
use qse_util::rng::Rng;

/// Probability floor below which [`collapse`] treats an outcome as
/// impossible.
const MIN_OUTCOME_PROB: f64 = 1e-15;

/// Errors from the measurement path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureError {
    /// The register has zero norm — there is no distribution to sample.
    ZeroNorm,
    /// A collapse targeted an outcome with (numerically) zero
    /// probability.
    ImpossibleOutcome {
        /// The measured qubit.
        qubit: u32,
        /// The requested classical outcome.
        bit: u8,
        /// The outcome's computed probability.
        probability: f64,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::ZeroNorm => write!(f, "cannot sample from a zero-norm state"),
            MeasureError::ImpossibleOutcome {
                qubit,
                bit,
                probability,
            } => write!(
                f,
                "cannot collapse qubit {qubit} onto bit {bit}: outcome probability {probability:.3e} is below {MIN_OUTCOME_PROB:.0e}"
            ),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Draws one basis-state index from the state's |amplitude|² distribution.
///
/// Inverse-CDF walk over all amplitudes; numerically safe because any
/// residual from rounding is assigned to the last nonzero amplitude.
/// One-shot callers pay the same O(2ⁿ) as building a distribution table;
/// for repeated draws use [`sample_counts`], which amortises the table.
pub fn sample_index<R: Rng>(state: &SingleState, rng: &mut R) -> Result<u64, MeasureError> {
    let total = state.norm_sqr();
    if total <= 0.0 {
        return Err(MeasureError::ZeroNorm);
    }
    let mut u: f64 = rng.random_range(0.0..total);
    let len = state.storage().len() as u64;
    let mut last_nonzero = 0u64;
    for i in 0..len {
        let p = state.amplitude(i).norm_sqr();
        if p > 0.0 {
            last_nonzero = i;
            if u < p {
                return Ok(i);
            }
            u -= p;
        }
    }
    Ok(last_nonzero)
}

/// Draws `shots` samples and returns a histogram over basis indices.
///
/// Builds the cumulative distribution once and binary-searches it per
/// draw — O(2ⁿ + shots·n) instead of the O(shots·2ⁿ) of repeated
/// [`sample_index`] walks. The per-draw selection matches the linear
/// walk: the smallest index whose inclusive prefix sum exceeds the
/// uniform draw, with any rounding residual assigned to the last
/// nonzero amplitude.
pub fn sample_counts<R: Rng>(
    state: &SingleState,
    rng: &mut R,
    shots: usize,
) -> Result<std::collections::BTreeMap<u64, usize>, MeasureError> {
    // The same total as `sample_index` (the chunk-reduced norm), so both
    // paths feed `random_range` identically for a given RNG stream.
    let amps = state.storage();
    let mut weights = Vec::new();
    extend_over_pool(&mut weights, amps.len(), |r| {
        amps.amplitudes(r).map(|a| a.norm_sqr())
    });
    let cdf = Cdf::dense(weights)
        .and_then(|cdf| cdf.with_total(state.norm_sqr()))
        .map_err(|_| MeasureError::ZeroNorm)?;
    Ok(cdf.sample_counts(rng, shots))
}

/// The prepared sampler over a raw amplitude slice: outcome `i`
/// weighted by `|amps[i]|²`, its total the linear prefix sum (so it
/// equals the CDF's final entry exactly). Build it once to draw many
/// seeds' histograms from one state.
pub fn amps_sampler(amps: &[Complex64]) -> Result<Cdf, MeasureError> {
    let mut weights = Vec::new();
    extend_over_pool(&mut weights, amps.len(), |r| {
        amps[r].iter().map(|a| a.norm_sqr())
    });
    Cdf::dense(weights).map_err(|_| MeasureError::ZeroNorm)
}

/// [`sample_counts`] over a raw amplitude slice — the entry point for
/// sampling a statevector gathered from a distributed run (or any
/// amplitudes not wrapped in a [`SingleState`]): [`amps_sampler`], then
/// its draws.
///
/// Fully deterministic for a given RNG stream: each draw selects the
/// smallest index whose inclusive prefix sum exceeds the uniform draw —
/// the contract the distributed read-out keeps, so a served reply's
/// counts are what this function draws over the gathered state.
pub fn sample_counts_amps<R: Rng>(
    amps: &[Complex64],
    rng: &mut R,
    shots: usize,
) -> Result<std::collections::BTreeMap<u64, usize>, MeasureError> {
    Ok(amps_sampler(amps)?.sample_counts(rng, shots))
}

/// The outcome of a projective single-qubit measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureOutcome {
    /// The classical bit observed.
    pub bit: u8,
    /// Its pre-measurement probability.
    pub probability: f64,
}

/// Measures `qubit` with the caller-supplied uniform draw `u` in
/// `[0, 1)`, collapses the state, renormalises, and returns the observed
/// bit (`u8::from(u < p1)`) with its probability.
///
/// `Tableau::measure_qubit_with` follows the same contract, so the two
/// engines given the same draw observe the same bit — the dense-oracle
/// check in `qse-stabilizer`'s `dense_agreement` suite relies on this.
pub fn measure_qubit_with(
    state: &mut SingleState,
    qubit: u32,
    u: f64,
) -> Result<MeasureOutcome, MeasureError> {
    let p1 = state.prob_one(qubit);
    let bit = u8::from(u < p1);
    collapse(state, qubit, bit)?;
    Ok(MeasureOutcome {
        bit,
        probability: if bit == 1 { p1 } else { 1.0 - p1 },
    })
}

/// Projects `qubit` onto `bit` and renormalises — the collapse step of
/// [`measure_qubit_with`].
///
/// Returns [`MeasureError::ImpossibleOutcome`] when the requested
/// outcome has (numerically) zero probability; the state is untouched.
pub fn collapse(state: &mut SingleState, qubit: u32, bit: u8) -> Result<(), MeasureError> {
    let p1 = state.prob_one(qubit);
    let p = if bit == 1 { p1 } else { 1.0 - p1 };
    if p <= MIN_OUTCOME_PROB {
        return Err(MeasureError::ImpossibleOutcome {
            qubit,
            bit,
            probability: p,
        });
    }
    let scale = 1.0 / p.sqrt();
    let mask = 1u64 << qubit;
    let len = state.storage().len() as u64;
    // Zero the mismatched branch, rescale the kept one.
    for i in 0..len {
        let has_bit = u8::from(i & mask != 0);
        let v = if has_bit == bit {
            state.amplitude(i).scale(scale)
        } else {
            Complex64::ZERO
        };
        state.set_amplitude(i, v);
    }
    Ok(())
}

impl SingleState {
    /// Writes one amplitude directly (measurement collapse and tests).
    pub fn set_amplitude(&mut self, index: u64, v: Complex64) {
        self.storage_mut().set(crate::ix(index), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::Circuit;
    use qse_math::approx::assert_close;
    use qse_util::rng::StdRng;

    fn bell() -> SingleState {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        SingleState::simulate(&c)
    }

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let s: SingleState = SingleState::basis_state(4, 11);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(sample_index(&s, &mut rng).unwrap(), 11);
        }
    }

    #[test]
    fn sample_counts_amps_is_deterministic_and_matches_distribution() {
        let s = bell();
        let amps = s.to_vec();
        let a = sample_counts_amps(&amps, &mut StdRng::seed_from_u64(42), 500).unwrap();
        let b = sample_counts_amps(&amps, &mut StdRng::seed_from_u64(42), 500).unwrap();
        assert_eq!(a, b, "same seed must reproduce the histogram exactly");
        assert!(a.keys().all(|&k| k == 0b00 || k == 0b11));
        assert_eq!(a.values().sum::<usize>(), 500);
        // Zero-norm slices are a typed error, not a panic.
        let zeros = vec![Complex64::ZERO; 8];
        assert_eq!(
            sample_counts_amps(&zeros, &mut StdRng::seed_from_u64(0), 5),
            Err(MeasureError::ZeroNorm)
        );
    }

    #[test]
    fn one_prepared_sampler_draws_what_fresh_calls_draw() {
        let mut c = Circuit::new(10);
        for q in 0..10 {
            c.h(q);
        }
        c.phase(2, 0.4).cnot(2, 7).t(7).h(7).cnot(7, 9);
        let amps = SingleState::simulate(&c).to_vec();
        let sampler = amps_sampler(&amps).unwrap();
        for seed in 1..=8u64 {
            assert_eq!(
                sampler.sample_counts(&mut StdRng::seed_from_u64(seed), 700),
                sample_counts_amps(&amps, &mut StdRng::seed_from_u64(seed), 700).unwrap(),
                "seed {seed}"
            );
        }
    }

    /// The weights computed over the pool give the sampler of the old
    /// sequential build, `Cdf::dense` over the weights in outcome order
    /// (whose table the in-place sum keeps bit for bit, see `qse_util`'s
    /// cdf tests), on sizes straddling the pool threshold: equal tables
    /// and seeded histograms, for raw amplitudes and for a `SingleState`
    /// — and all-zero or NaN amplitudes have no distribution.
    #[test]
    fn pool_built_dense_sampler_matches_the_sequential_build() {
        use crate::storage::PAR_THRESHOLD;
        let t = PAR_THRESHOLD;
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 5, t / 2, t - 1, t, t + 1, t + 4096 + 7, 4 * t] {
            let random: Vec<Complex64> = (0..len)
                .map(|_| Complex64::new(rng.random_f64() - 0.5, rng.random_f64() - 0.5))
                .collect();
            let mut zero_tail = random.clone();
            zero_tail[len / 2 + 1..].fill(Complex64::ZERO);
            let absorbed: Vec<Complex64> = (0..len)
                .map(|i| Complex64::new(if i < len / 3 { 1.0 } else { 1e-10 }, 0.0))
                .collect();
            let mut single = vec![Complex64::ZERO; len];
            single[len * 2 / 3] = Complex64::new(0.0, -0.5);
            for (shape, amps) in [
                ("random", random),
                ("zero tail", zero_tail),
                ("absorbed", absorbed),
                ("single", single),
            ] {
                let what = format!("{shape} len {len}");
                let sequential = Cdf::dense(amps.iter().map(|a| a.norm_sqr()).collect());
                let sampler = amps_sampler(&amps).expect(&what);
                assert_eq!(Ok(&sampler), sequential.as_ref(), "{what}");
                let seed = rng.next_u64();
                let draws = |cdf: &Cdf| cdf.sample_counts(&mut StdRng::seed_from_u64(seed), 300);
                assert_eq!(draws(&sampler), draws(&sequential.unwrap()), "{what}");

                if len.is_power_of_two() {
                    let mut state = SingleState::basis_state(len.trailing_zeros(), 0);
                    for (i, &a) in amps.iter().enumerate() {
                        state.set_amplitude(i as u64, a);
                    }
                    let want = Cdf::dense(amps.iter().map(|a| a.norm_sqr()).collect())
                        .and_then(|c| c.with_total(state.norm_sqr()))
                        .expect(&what);
                    let got = sample_counts(&state, &mut StdRng::seed_from_u64(seed), 300);
                    assert_eq!(got, Ok(draws(&want)), "{what}: SingleState");
                }
            }
            let zeros = vec![Complex64::ZERO; len];
            assert_eq!(amps_sampler(&zeros), Err(MeasureError::ZeroNorm));
            let mut nan = vec![Complex64::new(0.5, 0.0); len];
            nan[len - 1] = Complex64::new(f64::NAN, 0.0);
            assert_eq!(amps_sampler(&nan), Err(MeasureError::ZeroNorm));
        }
    }

    #[test]
    fn bell_samples_only_correlated_outcomes() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(7);
        let counts = sample_counts(&s, &mut rng, 2000).unwrap();
        assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
        let c00 = *counts.get(&0b00).unwrap_or(&0) as f64;
        // Roughly balanced (5σ ≈ 112 at n = 2000, p = 1/2).
        assert!((c00 - 1000.0).abs() < 150.0, "c00 = {c00}");
    }

    #[test]
    fn zero_state_sampling_is_an_error_not_a_panic() {
        let mut s: SingleState = SingleState::basis_state(3, 0);
        for i in 0..8 {
            s.set_amplitude(i, Complex64::ZERO);
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            sample_index(&s, &mut rng).unwrap_err(),
            MeasureError::ZeroNorm
        );
        assert_eq!(
            sample_counts(&s, &mut rng, 10).unwrap_err(),
            MeasureError::ZeroNorm
        );
        assert!(MeasureError::ZeroNorm.to_string().contains("zero-norm"));
    }

    #[test]
    fn cdf_sampler_matches_linear_walk_histogram() {
        // Regression for the O(shots·2ⁿ) sampler: the CDF + binary-search
        // path must agree with the per-shot linear walk histogram-for-
        // histogram under a fixed seed (same draws, same selections).
        let n = 16;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        // Skew the distribution so the test isn't uniform-only.
        c.phase(3, 0.7).cnot(0, 5).phase(5, -1.3).h(7);
        let s: SingleState = SingleState::simulate(&c);
        let shots = 10_000;
        let mut rng_old = StdRng::seed_from_u64(2024);
        let mut old = std::collections::BTreeMap::new();
        for _ in 0..shots {
            *old.entry(sample_index(&s, &mut rng_old).unwrap())
                .or_insert(0usize) += 1;
        }
        let mut rng_new = StdRng::seed_from_u64(2024);
        let new = sample_counts(&s, &mut rng_new, shots).unwrap();
        assert_eq!(old, new);
    }

    #[test]
    fn measure_collapses_partner_qubit() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let mut s = bell();
            let out = measure_qubit_with(&mut s, 0, rng.random_range(0.0..1.0)).unwrap();
            assert_close(out.probability, 0.5, 1e-12);
            // After measuring qubit 0, qubit 1 is perfectly correlated.
            assert_close(s.prob_one(1), out.bit as f64, 1e-12);
            assert_close(s.norm_sqr(), 1.0, 1e-12);
        }
    }

    #[test]
    fn deterministic_u_selects_the_branch() {
        // u below p1 observes |1>, u at or above p1 observes |0>.
        let mut s = bell();
        let out = measure_qubit_with(&mut s, 0, 0.25).unwrap();
        assert_eq!(out.bit, 1);
        assert_close(out.probability, 0.5, 1e-12);
        let mut s = bell();
        let out = measure_qubit_with(&mut s, 0, 0.75).unwrap();
        assert_eq!(out.bit, 0);
        assert_close(out.probability, 0.5, 1e-12);
    }

    #[test]
    fn collapse_renormalises() {
        let mut s = bell();
        collapse(&mut s, 0, 1).unwrap();
        assert_close(s.norm_sqr(), 1.0, 1e-12);
        assert_close(s.prob_one(0), 1.0, 1e-12);
    }

    #[test]
    fn collapse_on_impossible_outcome_is_a_typed_error() {
        let mut s: SingleState = SingleState::basis_state(2, 0);
        let before = s.to_vec();
        let err = collapse(&mut s, 0, 1).unwrap_err();
        match err {
            MeasureError::ImpossibleOutcome {
                qubit,
                bit,
                probability,
            } => {
                assert_eq!((qubit, bit), (0, 1));
                assert!(probability.abs() <= 1e-15);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // The failed collapse left the state untouched.
        assert_eq!(s.to_vec(), before);
        assert!(err.to_string().contains("qubit 0"));
    }

    #[test]
    fn uniform_superposition_samples_everything() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let s = SingleState::simulate(&c);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = sample_counts(&s, &mut rng, 4000).unwrap();
        assert_eq!(counts.len(), 8);
        for (_, &n) in counts.iter() {
            assert!((n as f64 - 500.0).abs() < 150.0);
        }
    }
}
