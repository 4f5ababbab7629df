//! Sparse statevector engine: nonzero amplitudes in a hash map.
//!
//! The dense engine pays `16·2ⁿ` bytes and a full sweep per gate no
//! matter what the circuit does. Low-entanglement workloads (GHZ-like
//! states, shallow circuits, branching-bounded gate streams — see
//! `qse_circuit::classify::support_estimate`) touch only a vanishing
//! fraction of those amplitudes; this engine stores exactly the
//! nonzero ones as `index → amplitude` map entries, so memory and
//! per-gate work scale with the state's support, not with `2ⁿ`.
//!
//! **Determinism.** `std::collections::HashMap` iterates in a
//! per-process random order, which must never leak into results. Every
//! numerically sensitive reduction — [`SparseState::norm_sqr`],
//! [`SparseState::prob_one`], the sampling CDF, [`SparseState::to_vec`]
//! — iterates keys in sorted order ([`SparseState::sorted_keys`]), and
//! gate application computes each new amplitude from a fixed per-orbit
//! formula, so map order never affects a single output bit.
//!
//! **Pruning.** Unitary interference genuinely zeroes amplitudes (an H
//! undoing an H), which as floating point leaves `~1e-17` residue that
//! would otherwise densify the map. After every non-diagonal gate,
//! entries with `|amp| < epsilon` are dropped. The boundary is pinned:
//! an amplitude with `|amp|` **exactly equal** to epsilon survives
//! (`norm_sqr < ε²` is the drop test — strict). The default
//! [`DEFAULT_PRUNE_EPSILON`] of `1e-12` sits far below any amplitude a
//! `≤ 1e-9`-accurate result can depend on and far above unitary
//! round-off residue.
//!
//! The measurement API returns the same typed
//! [`MeasureError`](crate::measure::MeasureError)s as the dense path,
//! and `sample_counts` draws through the same prepared
//! [`Cdf`](qse_util::cdf::Cdf), so callers switch engines without
//! changing error handling or reseeding.

use crate::diagonal::diagonal_phase;
use crate::measure::{MeasureError, MeasureOutcome, MIN_OUTCOME_PROB};
use qse_circuit::{Circuit, Gate};
use qse_math::{Complex64, Matrix2};
use qse_util::cdf::Cdf;
use qse_util::rng::Rng;
use std::collections::{BTreeMap, HashMap};

/// Default pruning threshold on |amplitude|.
pub const DEFAULT_PRUNE_EPSILON: f64 = 1e-12;

/// Widest register the sparse engine accepts: basis indices must fit
/// `u64` with headroom for the orbit arithmetic.
pub const MAX_SPARSE_QUBITS: u32 = 40;

/// A statevector holding only its nonzero amplitudes.
#[derive(Debug, Clone)]
pub struct SparseState {
    n_qubits: u32,
    epsilon: f64,
    amps: HashMap<u64, Complex64>,
}

impl SparseState {
    /// `|index⟩` over `n_qubits`, default pruning epsilon.
    pub fn basis_state(n_qubits: u32, index: u64) -> Self {
        Self::basis_state_with_epsilon(n_qubits, index, DEFAULT_PRUNE_EPSILON)
    }

    /// `|index⟩` with an explicit pruning epsilon (`0.0` disables
    /// pruning entirely: nothing has `|amp| < 0`).
    pub fn basis_state_with_epsilon(n_qubits: u32, index: u64, epsilon: f64) -> Self {
        assert!(n_qubits >= 1, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_SPARSE_QUBITS,
            "sparse engine caps at {MAX_SPARSE_QUBITS} qubits, asked for {n_qubits}"
        );
        assert!(
            n_qubits == 64 || index < 1u64 << n_qubits,
            "basis index out of range"
        );
        assert!(epsilon >= 0.0, "pruning epsilon must be non-negative");
        let mut amps = HashMap::new();
        amps.insert(index, Complex64::ONE);
        SparseState {
            n_qubits,
            epsilon,
            amps,
        }
    }

    /// Simulates `circuit` from `|0…0⟩` with the default epsilon.
    pub fn simulate(circuit: &Circuit) -> Self {
        let mut s = Self::basis_state(circuit.n_qubits(), 0);
        s.run(circuit);
        s
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The pruning threshold in effect.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stored (nonzero) amplitudes.
    #[inline]
    pub fn n_nonzero(&self) -> usize {
        self.amps.len()
    }

    /// One amplitude (zero when the index is not stored).
    pub fn amplitude(&self, index: u64) -> Complex64 {
        self.amps.get(&index).copied().unwrap_or(Complex64::ZERO)
    }

    /// The stored basis indices in ascending order — the deterministic
    /// iteration view every reduction uses.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.amps.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Σ|amp|², accumulated in ascending key order.
    pub fn norm_sqr(&self) -> f64 {
        self.sorted_keys()
            .iter()
            .map(|k| self.amps[k].norm_sqr())
            .sum()
    }

    /// P(qubit = 1), accumulated in ascending key order.
    pub fn prob_one(&self, qubit: u32) -> f64 {
        let mask = 1u64 << qubit;
        self.sorted_keys()
            .iter()
            .filter(|&&k| k & mask != 0)
            .map(|k| self.amps[k].norm_sqr())
            .sum()
    }

    /// Densifies into a full `2ⁿ` vector (tests and small registers).
    pub fn to_vec(&self) -> Vec<Complex64> {
        assert!(self.n_qubits <= 30, "to_vec is for small registers");
        let mut v = vec![Complex64::ZERO; 1usize << self.n_qubits];
        for k in self.sorted_keys() {
            v[crate::ix(k)] = self.amps[&k];
        }
        v
    }

    /// Runs a whole circuit gate by gate.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for g in circuit.gates() {
            self.apply(g);
        }
    }

    /// Applies a single gate.
    ///
    /// Same dispatch as the dense engine: diagonal gates multiply each
    /// stored amplitude in place, SWAP permutes keys exactly, and
    /// everything else combines amplitude orbits through the gate's
    /// matrix (followed by a prune, since interference can cancel).
    pub fn apply(&mut self, gate: &Gate) {
        assert!(gate.max_qubit() < self.n_qubits, "gate out of range");
        match *gate {
            ref g if g.is_diagonal() => {
                // Phases preserve magnitude — no new zeros, no prune.
                for (&k, a) in self.amps.iter_mut() {
                    *a = *a * diagonal_phase(g, k);
                }
            }
            Gate::Swap(a, b) => self.swap_keys(a, b),
            Gate::Unitary2 { a, b, ref matrix } => {
                self.apply_orbit4(a, b, matrix);
            }
            ref g => {
                let Some(m) = g.matrix1() else {
                    unreachable!("all remaining gate kinds are single-target")
                };
                self.apply_pairs(g.target(), &m, g.control());
            }
        }
    }

    /// SWAP as an exact key permutation — no arithmetic at all.
    fn swap_keys(&mut self, a: u32, b: u32) {
        let (ma, mb) = (1u64 << a, 1u64 << b);
        let mut next = HashMap::with_capacity(self.amps.len());
        for (&k, &v) in self.amps.iter() {
            let (ba, bb) = (k & ma != 0, k & mb != 0);
            let nk = if ba == bb { k } else { k ^ ma ^ mb };
            next.insert(nk, v);
        }
        self.amps = next;
    }

    /// Keeps or drops a computed amplitude per the pinned epsilon
    /// semantics: dropped iff `|amp| < ε` (strictly) — an amplitude at
    /// exactly ε survives.
    #[inline]
    fn store(map: &mut HashMap<u64, Complex64>, eps_sqr: f64, k: u64, v: Complex64) {
        if v.norm_sqr() >= eps_sqr {
            map.insert(k, v);
        }
    }

    /// Applies a 2×2 matrix to every stored `(…0…, …1…)` amplitude
    /// orbit of `target`, honouring an optional control qubit.
    fn apply_pairs(&mut self, target: u32, m: &Matrix2, control: Option<u32>) {
        let bit = 1u64 << target;
        let cmask = control.map_or(0u64, |c| 1u64 << c);
        let eps_sqr = self.epsilon * self.epsilon;
        let mut next = HashMap::with_capacity(self.amps.len() * 2);
        for (&k, &v) in self.amps.iter() {
            if k & cmask != cmask {
                // Control clear: the gate does not act here.
                next.insert(k, v);
                continue;
            }
            let base = k & !bit;
            let high = base | bit;
            if k & bit != 0 && self.amps.contains_key(&base) && base & cmask == cmask {
                // The orbit's low member is stored and active; it will
                // process the pair — skip to touch each orbit once.
                continue;
            }
            // `k` is the orbit's representative: combine both members.
            let a0 = if k == base { v } else { self.amplitude(base) };
            let a1 = if k == high { v } else { self.amplitude(high) };
            // Identical arithmetic to the dense kernel's pair combine.
            let (n0, n1) = m.apply(a0, a1);
            Self::store(&mut next, eps_sqr, base, n0);
            Self::store(&mut next, eps_sqr, high, n1);
        }
        self.amps = next;
    }

    /// Applies a 4×4 matrix over the four-amplitude orbits of `(a, b)`.
    fn apply_orbit4(&mut self, a: u32, b: u32, m: &qse_math::Matrix4) {
        // Row/column convention matches the dense kernel: index bits
        // (qubit b, qubit a) form the 2-bit orbit coordinate.
        let (ma, mb) = (1u64 << a, 1u64 << b);
        let eps_sqr = self.epsilon * self.epsilon;
        let mut next = HashMap::with_capacity(self.amps.len() * 2);
        let mut seen_bases: Vec<u64> = self.amps.keys().map(|&k| k & !(ma | mb)).collect();
        seen_bases.sort_unstable();
        seen_bases.dedup();
        for base in seen_bases {
            // Basis order |b a⟩ — identical to the dense orbit kernel.
            let idx = [base, base | ma, base | mb, base | ma | mb];
            let out = m.apply(idx.map(|i| self.amplitude(i)));
            for (&i, &v) in idx.iter().zip(out.iter()) {
                Self::store(&mut next, eps_sqr, i, v);
            }
        }
        self.amps = next;
    }

    /// The prepared sampler — same CDF contract as the dense
    /// `amps_sampler`: inclusive prefix sums in ascending index order,
    /// the stored amplitudes' indices as its outcomes.
    pub fn sampler(&self) -> Result<Cdf, MeasureError> {
        let weights = self
            .sorted_keys()
            .into_iter()
            .map(|k| (k, self.amps[&k].norm_sqr()));
        Cdf::sparse(weights).map_err(|_| MeasureError::ZeroNorm)
    }

    /// Draws `shots` samples from [`Self::sampler`].
    pub fn sample_counts<R: Rng>(
        &self,
        rng: &mut R,
        shots: usize,
    ) -> Result<BTreeMap<u64, usize>, MeasureError> {
        Ok(self.sampler()?.sample_counts(rng, shots))
    }

    /// Measures `qubit`, drawing the uniform from `rng` — dense-engine
    /// contract.
    pub fn measure_qubit<R: Rng>(
        &mut self,
        qubit: u32,
        rng: &mut R,
    ) -> Result<MeasureOutcome, MeasureError> {
        let u = rng.random_range(0.0..1.0);
        self.measure_qubit_with(qubit, u)
    }

    /// Deterministic measurement with a caller-supplied `u ∈ [0, 1)`:
    /// the observed bit is `u8::from(u < p1)`, exactly like the dense
    /// `measure_qubit_with`.
    pub fn measure_qubit_with(
        &mut self,
        qubit: u32,
        u: f64,
    ) -> Result<MeasureOutcome, MeasureError> {
        let p1 = self.prob_one(qubit);
        let bit = u8::from(u < p1);
        self.collapse(qubit, bit)?;
        Ok(MeasureOutcome {
            bit,
            probability: if bit == 1 { p1 } else { 1.0 - p1 },
        })
    }

    /// Projects `qubit` onto `bit` and renormalises; same typed
    /// [`MeasureError::ImpossibleOutcome`] contract as the dense path
    /// (the state is untouched on error).
    pub fn collapse(&mut self, qubit: u32, bit: u8) -> Result<(), MeasureError> {
        let p1 = self.prob_one(qubit);
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
        self.amps.retain(|&k, _| u8::from(k & mask != 0) == bit);
        for a in self.amps.values_mut() {
            *a = a.scale(scale);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
