//! The Aaronson–Gottesman tableau and its gate/measurement rules.
//!
//! Layout: `2n + 1` rows of `n` Pauli columns. Rows `0..n` are
//! destabilizers, rows `n..2n` are stabilizers, row `2n` is scratch for
//! deterministic-measurement accumulation. Each row is a bit-packed
//! Pauli string: `xs`/`zs` hold one bit per qubit (`x=1,z=0` → X,
//! `x=0,z=1` → Z, `x=1,z=1` → Y) in `⌈n/64⌉` words, and `signs` holds
//! the row's ±1 phase as one byte. All gate updates are column
//! operations over the `2n + 1` rows; row products (`rowsum`) track the
//! quaternary phase bit-parallel, 64 columns per word operation.

use crate::ix;
use qse_circuit::classify::{clifford_ops, CliffordOp};
use qse_circuit::Circuit;
use qse_util::cdf::Cdf;
use qse_util::rng::Rng;
use std::collections::BTreeMap;

/// Largest `log₂(support)` that [`Tableau::support`] will enumerate.
///
/// A stabilizer state's computational-basis support holds `2^k` equally
/// likely indices; enumeration is `O(2^k)` and this cap keeps it under
/// tens of milliseconds. States beyond the cap are better sampled by
/// the dense engine (they need `k > 22` branching anyway).
pub const MAX_SUPPORT_QUBITS: u32 = 22;

/// Errors from the stabilizer engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabError {
    /// The circuit contains a gate outside the Clifford group.
    NonClifford {
        /// Position of the offending gate in the circuit's gate list.
        index: usize,
    },
    /// A qubit operand is outside the register.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: u32,
        /// Register width.
        n: u32,
    },
    /// Basis-index sampling needs every index to fit in a `u64`.
    RegisterTooWide {
        /// Register width.
        n: u32,
        /// The widest register sampling supports.
        max: u32,
    },
    /// The state's support is too large to enumerate
    /// (`log₂(support) > MAX_SUPPORT_QUBITS`).
    SupportTooLarge {
        /// `log₂` of the support size.
        log2_size: u32,
        /// The enumeration cap.
        max: u32,
    },
    /// Internal invariant broken: the stabilizer constraints admit no
    /// basis state. Indicates tableau corruption, not a caller bug.
    Inconsistent,
}

impl std::fmt::Display for StabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StabError::NonClifford { index } => {
                write!(f, "gate {index} is not a Clifford gate")
            }
            StabError::QubitOutOfRange { qubit, n } => {
                write!(f, "qubit {qubit} outside register of {n} qubits")
            }
            StabError::RegisterTooWide { n, max } => {
                write!(f, "cannot sample basis indices of {n} qubits (max {max})")
            }
            StabError::SupportTooLarge { log2_size, max } => {
                write!(
                    f,
                    "support of 2^{log2_size} basis states exceeds the 2^{max} enumeration cap"
                )
            }
            StabError::Inconsistent => {
                write!(
                    f,
                    "stabilizer constraints are unsatisfiable (corrupt tableau)"
                )
            }
        }
    }
}

impl std::error::Error for StabError {}

/// The outcome of a projective single-qubit measurement.
///
/// Mirrors `qse_statevec::MeasureOutcome`; a separate type because the
/// engines must not depend on each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// The classical bit observed.
    pub bit: u8,
    /// Its pre-measurement probability (exactly `0.5` or `1.0` for
    /// stabilizer states).
    pub probability: f64,
}

/// The computational-basis support of a stabilizer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Support {
    /// The `2^log2_size` basis indices with nonzero amplitude, sorted
    /// ascending. Every index has probability exactly `2^−log2_size`.
    pub indices: Vec<u64>,
    /// `log₂` of the support size.
    pub log2_size: u32,
}

/// A bit-packed CHP tableau over `n` qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    n: u32,
    /// Words per row: `⌈n/64⌉`.
    words: usize,
    /// X bits, `(2n + 1) · words` words, row-major.
    xs: Vec<u64>,
    /// Z bits, same shape.
    zs: Vec<u64>,
    /// Row signs, `2n + 1` entries of 0 (+1) or 1 (−1).
    signs: Vec<u8>,
}

impl Tableau {
    /// The tableau of `|0…0⟩`: destabilizer row `i` is `Xᵢ`,
    /// stabilizer row `n + i` is `Zᵢ`, all signs `+1`.
    pub fn new(n: u32) -> Self {
        let words = ix(u64::from(n).div_ceil(64));
        let rows = 2 * ix(u64::from(n)) + 1;
        let mut t = Tableau {
            n,
            words,
            xs: vec![0; rows * words],
            zs: vec![0; rows * words],
            signs: vec![0; rows],
        };
        for q in 0..n {
            let (w, m) = (ix(u64::from(q) / 64), 1u64 << (q % 64));
            t.xs[ix(u64::from(q)) * words + w] |= m;
            t.zs[(ix(u64::from(n)) + ix(u64::from(q))) * words + w] |= m;
        }
        t
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n
    }

    /// FNV-1a fingerprint over the full representation (width, both
    /// bit-matrices, signs). Deterministic for a given gate sequence, so
    /// provenance layers can compare cache-hit against cold and batched
    /// against solo executions bit-for-bit without shipping the tableau.
    pub fn fingerprint(&self) -> u64 {
        let mut h = qse_circuit::hash::Fnv1a::new();
        h.update(&self.n.to_le_bytes());
        for w in self.xs.iter().chain(self.zs.iter()) {
            h.update(&w.to_le_bytes());
        }
        h.update(&self.signs);
        h.digest()
    }

    /// Number of tableau rows (`2n + 1`, including the scratch row).
    #[inline]
    fn rows(&self) -> usize {
        2 * ix(u64::from(self.n)) + 1
    }

    /// Simulates a whole circuit from `|0…0⟩`.
    ///
    /// Fails with [`StabError::NonClifford`] on the first gate that
    /// [`clifford_ops`] cannot lower.
    pub fn run(circuit: &Circuit) -> Result<Tableau, StabError> {
        let mut t = Tableau::new(circuit.n_qubits());
        t.run_circuit(circuit)?;
        Ok(t)
    }

    /// Applies a whole circuit to the current tableau state — the
    /// in-place counterpart of [`Tableau::run`], used when the caller
    /// has already prepared a non-trivial state (e.g. a basis prefix).
    pub fn run_circuit(&mut self, circuit: &Circuit) -> Result<(), StabError> {
        for (index, gate) in circuit.gates().iter().enumerate() {
            let ops = clifford_ops(gate).ok_or(StabError::NonClifford { index })?;
            for op in ops {
                self.apply(op)?;
            }
        }
        Ok(())
    }

    /// Applies one Clifford operation as a column update.
    pub fn apply(&mut self, op: CliffordOp) -> Result<(), StabError> {
        match op {
            CliffordOp::H(a) => self.check(a).map(|()| self.h(a)),
            CliffordOp::S(a) => self.check(a).map(|()| self.s(a)),
            CliffordOp::Sdg(a) => self.check(a).map(|()| self.sdg(a)),
            CliffordOp::X(a) => self.check(a).map(|()| self.pauli(a, false, true)),
            CliffordOp::Y(a) => self.check(a).map(|()| self.pauli(a, true, true)),
            CliffordOp::Z(a) => self.check(a).map(|()| self.pauli(a, true, false)),
            CliffordOp::Cnot(c, t) => {
                self.check(c)?;
                self.check(t)?;
                if c == t {
                    return Err(StabError::QubitOutOfRange {
                        qubit: t,
                        n: self.n,
                    });
                }
                self.cnot(c, t);
                Ok(())
            }
            CliffordOp::Cz(a, b) => {
                self.check(a)?;
                self.check(b)?;
                if a == b {
                    return Err(StabError::QubitOutOfRange {
                        qubit: b,
                        n: self.n,
                    });
                }
                // CZ = (I⊗H) · CNOT · (I⊗H).
                self.h(b);
                self.cnot(a, b);
                self.h(b);
                Ok(())
            }
            CliffordOp::Swap(a, b) => {
                self.check(a)?;
                self.check(b)?;
                if a != b {
                    self.swap(a, b);
                }
                Ok(())
            }
        }
    }

    #[inline]
    fn check(&self, qubit: u32) -> Result<(), StabError> {
        if qubit < self.n {
            Ok(())
        } else {
            Err(StabError::QubitOutOfRange { qubit, n: self.n })
        }
    }

    #[inline]
    fn col(&self, qubit: u32) -> (usize, u64) {
        (ix(u64::from(qubit) / 64), 1u64 << (qubit % 64))
    }

    /// Hadamard: swaps the X/Z columns; `r ^= x·z` (Y picks up a sign).
    fn h(&mut self, a: u32) {
        let (w, m) = self.col(a);
        for row in 0..self.rows() {
            let base = row * self.words + w;
            let x = self.xs[base] & m;
            let z = self.zs[base] & m;
            self.signs[row] ^= u8::from(x != 0 && z != 0);
            if (x != 0) != (z != 0) {
                self.xs[base] ^= m;
                self.zs[base] ^= m;
            }
        }
    }

    /// Phase gate S: `r ^= x·z`, then `z ^= x` (X → Y, Y → −X).
    fn s(&mut self, a: u32) {
        let (w, m) = self.col(a);
        for row in 0..self.rows() {
            let base = row * self.words + w;
            let x = self.xs[base] & m;
            let z = self.zs[base] & m;
            self.signs[row] ^= u8::from(x != 0 && z != 0);
            if x != 0 {
                self.zs[base] ^= m;
            }
        }
    }

    /// S† = S·Z up to global phase: `r ^= x·¬z`, then `z ^= x`
    /// (X → −Y, Y → X).
    fn sdg(&mut self, a: u32) {
        let (w, m) = self.col(a);
        for row in 0..self.rows() {
            let base = row * self.words + w;
            let x = self.xs[base] & m;
            let z = self.zs[base] & m;
            self.signs[row] ^= u8::from(x != 0 && z == 0);
            if x != 0 {
                self.zs[base] ^= m;
            }
        }
    }

    /// A Pauli gate flips a row's sign iff the row anticommutes with it
    /// at that column. `(hits_x, hits_z)`: Z anticommutes with X-bits,
    /// X with Z-bits, Y with both-XOR.
    fn pauli(&mut self, a: u32, hits_x: bool, hits_z: bool) {
        let (w, m) = self.col(a);
        for row in 0..self.rows() {
            let base = row * self.words + w;
            let x = self.xs[base] & m != 0;
            let z = self.zs[base] & m != 0;
            let flip = (hits_x && x) ^ (hits_z && z);
            self.signs[row] ^= u8::from(flip);
        }
    }

    /// CNOT(c → t): `x_t ^= x_c`, `z_c ^= z_t`,
    /// `r ^= x_c·z_t·(x_t ⊕ z_c ⊕ 1)`.
    fn cnot(&mut self, c: u32, t: u32) {
        let (wc, mc) = self.col(c);
        let (wt, mt) = self.col(t);
        for row in 0..self.rows() {
            let bc = row * self.words + wc;
            let bt = row * self.words + wt;
            let xc = self.xs[bc] & mc != 0;
            let zc = self.zs[bc] & mc != 0;
            let xt = self.xs[bt] & mt != 0;
            let zt = self.zs[bt] & mt != 0;
            self.signs[row] ^= u8::from(xc && zt && (xt == zc));
            if xc {
                self.xs[bt] ^= mt;
            }
            if zt {
                self.zs[bc] ^= mc;
            }
        }
    }

    /// SWAP: exchanges both bit columns.
    fn swap(&mut self, a: u32, b: u32) {
        let (wa, ma) = self.col(a);
        let (wb, mb) = self.col(b);
        for row in 0..self.rows() {
            let ba = row * self.words + wa;
            let bb = row * self.words + wb;
            for vec in [&mut self.xs, &mut self.zs] {
                let va = vec[ba] & ma != 0;
                let vb = vec[bb] & mb != 0;
                if va != vb {
                    vec[ba] ^= ma;
                    vec[bb] ^= mb;
                }
            }
        }
    }

    /// `row h := row i · row h` (Pauli product) with bit-parallel
    /// quaternary phase tracking — Aaronson–Gottesman `rowsum(h, i)`.
    ///
    /// The per-column phase of the product is +i, −i or 1 depending on
    /// the Pauli pair; classifying each column of both rows into X/Y/Z
    /// masks turns the ±1 exponent tally into six ANDs and two
    /// popcounts per word. The total exponent is always even for
    /// commuting rows (the only case measurement produces), so the
    /// result sign is `total mod 4 == 2`.
    fn rowsum(&mut self, h: usize, i: usize) {
        let ho = h * self.words;
        let io = i * self.words;
        let mut phase =
            2u32.wrapping_mul(u32::from(self.signs[h]).wrapping_add(u32::from(self.signs[i])));
        for w in 0..self.words {
            let x1 = self.xs[io + w];
            let z1 = self.zs[io + w];
            let x2 = self.xs[ho + w];
            let z2 = self.zs[ho + w];
            let (xm1, ym1, zm1) = (x1 & !z1, x1 & z1, !x1 & z1);
            let (xm2, ym2, zm2) = (x2 & !z2, x2 & z2, !x2 & z2);
            let plus = (ym1 & zm2) | (xm1 & ym2) | (zm1 & xm2);
            let minus = (ym1 & xm2) | (xm1 & zm2) | (zm1 & ym2);
            phase = phase
                .wrapping_add(plus.count_ones())
                .wrapping_sub(minus.count_ones());
            self.xs[ho + w] ^= x1;
            self.zs[ho + w] ^= z1;
        }
        debug_assert!(phase & 3 == 0 || phase & 3 == 2, "odd product phase");
        self.signs[h] = u8::from(phase & 3 == 2);
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        for w in 0..self.words {
            self.xs[dst * self.words + w] = self.xs[src * self.words + w];
            self.zs[dst * self.words + w] = self.zs[src * self.words + w];
        }
        self.signs[dst] = self.signs[src];
    }

    fn clear_row(&mut self, row: usize) {
        for w in 0..self.words {
            self.xs[row * self.words + w] = 0;
            self.zs[row * self.words + w] = 0;
        }
        self.signs[row] = 0;
    }

    /// Measures `qubit` with an externally drawn uniform `u ∈ [0, 1)`,
    /// collapsing the tableau.
    ///
    /// Same deterministic contract as the dense engine's
    /// `measure_qubit_with`: for a random outcome the observed bit is
    /// `u8::from(u < p1)` with `p1 = 0.5`, so the two engines given the
    /// same draw observe the same bit.
    ///
    /// No product path calls this today: every run is sampled from
    /// [`Self::sampler`], which enumerates [`Self::support`] and measures
    /// nothing. It stays as the tableau-measured reference sample that a
    /// sampler for Clifford registers wider than 64 qubits (beyond what
    /// `support` can index) is to be checked against; `dense_agreement`
    /// holds it to the dense engine's measurement.
    pub fn measure_qubit_with(&mut self, qubit: u32, u: f64) -> Result<Outcome, StabError> {
        self.check(qubit)?;
        let n = ix(u64::from(self.n));
        let (w, m) = self.col(qubit);
        // A stabilizer row with an X-bit at the qubit anticommutes with
        // Z_qubit → outcome is random; otherwise deterministic.
        let p = (n..2 * n).find(|&row| self.xs[row * self.words + w] & m != 0);
        match p {
            Some(p) => {
                let bit = u8::from(u < 0.5);
                for row in 0..2 * n {
                    // Skip p itself and its destabilizer partner p − n:
                    // the partner anticommutes with row p (odd product
                    // phase) and is overwritten just below anyway.
                    if row != p && row != p - n && self.xs[row * self.words + w] & m != 0 {
                        self.rowsum(row, p);
                    }
                }
                // Old stabilizer p becomes the new destabilizer; the
                // stabilizer becomes ±Z_qubit carrying the outcome.
                self.copy_row(p - n, p);
                self.clear_row(p);
                self.zs[p * self.words + w] |= m;
                self.signs[p] = bit;
                Ok(Outcome {
                    bit,
                    probability: 0.5,
                })
            }
            None => {
                // Deterministic: accumulate into the scratch row the
                // stabilizer partners of every destabilizer that
                // anticommutes with Z_qubit; its sign is the outcome.
                let scratch = 2 * n;
                self.clear_row(scratch);
                for row in 0..n {
                    if self.xs[row * self.words + w] & m != 0 {
                        self.rowsum(scratch, row + n);
                    }
                }
                Ok(Outcome {
                    bit: self.signs[scratch],
                    probability: 1.0,
                })
            }
        }
    }

    /// The probability of observing `1` on `qubit`: exactly `0.5` when
    /// some stabilizer anticommutes with `Z_qubit`, else `0.0`/`1.0`
    /// per the deterministic outcome. Non-destructive. Kept with
    /// [`Self::measure_qubit_with`], for the same reason.
    pub fn prob_one(&self, qubit: u32) -> Result<f64, StabError> {
        self.check(qubit)?;
        let n = ix(u64::from(self.n));
        let (w, m) = self.col(qubit);
        if (n..2 * n).any(|row| self.xs[row * self.words + w] & m != 0) {
            return Ok(0.5);
        }
        let mut probe = self.clone();
        let out = probe.measure_qubit_with(qubit, 0.0)?;
        Ok(f64::from(out.bit))
    }

    /// Enumerates the computational-basis support.
    ///
    /// Gaussian elimination over the stabilizer rows' X-parts (with
    /// phase-correct row products) splits the generators into `k`
    /// X-pivot rows and `n − k` pure-Z rows. The Z rows are parity
    /// constraints `z·x ≡ r (mod 2)` whose solution set — the support —
    /// is the affine space `x₀ ⊕ span{pivot X-parts}` of exactly `2^k`
    /// indices, each with probability `2^−k`.
    pub fn support(&self) -> Result<Support, StabError> {
        if self.n > 64 {
            return Err(StabError::RegisterTooWide { n: self.n, max: 64 });
        }
        let n = ix(u64::from(self.n));
        // n ≤ 64 → one word per row.
        let mut rows: Vec<(u64, u64, u8)> = (n..2 * n)
            .map(|row| {
                (
                    self.xs[row * self.words],
                    self.zs[row * self.words],
                    self.signs[row],
                )
            })
            .collect();
        // Eliminate X-parts; row combination is a Pauli product, so the
        // sign updates run through the same phase tally as `rowsum`.
        let mut k = 0usize;
        for colbit in (0..self.n).map(|c| 1u64 << c) {
            let Some(sel) = (k..n).find(|&ri| rows[ri].0 & colbit != 0) else {
                continue;
            };
            rows.swap(k, sel);
            let src = rows[k];
            for (ri, row) in rows.iter_mut().enumerate() {
                if ri != k && row.0 & colbit != 0 {
                    mul1(row, src);
                }
            }
            k += 1;
        }
        let log2_size = u32::try_from(k).map_err(|_| StabError::Inconsistent)?;
        if log2_size > MAX_SUPPORT_QUBITS {
            return Err(StabError::SupportTooLarge {
                log2_size,
                max: MAX_SUPPORT_QUBITS,
            });
        }
        // The pure-Z rows constrain membership: (−1)^r Z_S |x⟩ = |x⟩
        // iff parity(x ∧ S) == r. Reduce them and read off a seed
        // solution with all free variables 0.
        let mut cons: Vec<(u64, u8)> = rows[k..n].iter().map(|&(_, z, r)| (z, r)).collect();
        let mut solved = 0usize;
        for colbit in (0..self.n).map(|c| 1u64 << c) {
            let Some(sel) = (solved..cons.len()).find(|&ri| cons[ri].0 & colbit != 0) else {
                continue;
            };
            cons.swap(solved, sel);
            let (sz, sr) = cons[solved];
            for (ri, con) in cons.iter_mut().enumerate() {
                if ri != solved && con.0 & colbit != 0 {
                    con.0 ^= sz;
                    con.1 ^= sr;
                }
            }
            solved += 1;
        }
        if cons[solved..].iter().any(|&(z, r)| z == 0 && r == 1) {
            return Err(StabError::Inconsistent);
        }
        let mut seed = 0u64;
        for &(z, r) in &cons[..solved] {
            if r == 1 {
                // After full reduction the leading column is the lowest
                // set bit; free variables are 0, so x₀ there equals r.
                seed |= z & z.wrapping_neg();
            }
        }
        // Enumerate x₀ ⊕ span{pivot X-parts}.
        let mut indices = Vec::with_capacity(1usize << log2_size);
        for combo in 0..(1u64 << log2_size) {
            let mut v = seed;
            for (j, &(x, _, _)) in rows[..k].iter().enumerate() {
                if combo >> j & 1 == 1 {
                    v ^= x;
                }
            }
            indices.push(v);
        }
        indices.sort_unstable();
        Ok(Support { indices, log2_size })
    }

    /// The prepared sampler over the support, enumerated once,
    /// reproducing `qse_statevec::measure::amps_sampler` draw for draw:
    /// an inclusive-prefix-sum CDF over ascending indices. All support
    /// probabilities are exactly `2^−k`, so every prefix sum — including
    /// the total, exactly `1.0` — is exact in `f64`.
    pub fn sampler(&self) -> Result<Cdf, StabError> {
        let sup = self.support()?;
        let p = 0.5f64.powi(i32::try_from(sup.log2_size).map_err(|_| StabError::Inconsistent)?);
        Cdf::sparse(sup.indices.into_iter().map(|i| (i, p))).map_err(|_| StabError::Inconsistent)
    }

    /// Draws `shots` samples from [`Self::sampler`] and returns a
    /// histogram over basis indices.
    pub fn sample_counts<R: Rng>(
        &self,
        rng: &mut R,
        shots: usize,
    ) -> Result<BTreeMap<u64, usize>, StabError> {
        Ok(self.sampler()?.sample_counts(rng, shots))
    }
}

/// Single-word Pauli-product `dst := src · dst` with phase tracking —
/// the `n ≤ 64` specialisation of `rowsum` used by support elimination.
fn mul1(dst: &mut (u64, u64, u8), src: (u64, u64, u8)) {
    let (x1, z1, r1) = src;
    let (x2, z2, r2) = *dst;
    let (xm1, ym1, zm1) = (x1 & !z1, x1 & z1, !x1 & z1);
    let (xm2, ym2, zm2) = (x2 & !z2, x2 & z2, !x2 & z2);
    let plus = (ym1 & zm2) | (xm1 & ym2) | (zm1 & xm2);
    let minus = (ym1 & xm2) | (xm1 & zm2) | (zm1 & ym2);
    let phase = 2u32
        .wrapping_mul(u32::from(r1).wrapping_add(u32::from(r2)))
        .wrapping_add(plus.count_ones())
        .wrapping_sub(minus.count_ones());
    debug_assert!(phase & 3 == 0 || phase & 3 == 2, "odd product phase");
    *dst = (x1 ^ x2, z1 ^ z2, u8::from(phase & 3 == 2));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_util::rng::StdRng;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cnot(q - 1, q);
        }
        c
    }

    #[test]
    fn zero_state_measures_zero_everywhere() {
        let mut t = Tableau::new(5);
        for q in 0..5 {
            let out = t.measure_qubit_with(q, 0.3).unwrap();
            assert_eq!((out.bit, out.probability), (0, 1.0));
        }
    }

    #[test]
    fn x_flips_the_deterministic_outcome() {
        let mut t = Tableau::new(3);
        t.apply(CliffordOp::X(1)).unwrap();
        assert_eq!(t.measure_qubit_with(0, 0.5).unwrap().bit, 0);
        assert_eq!(t.measure_qubit_with(1, 0.5).unwrap().bit, 1);
        // HXH = Z leaves |0⟩ fixed.
        let mut t = Tableau::new(1);
        for op in [CliffordOp::H(0), CliffordOp::X(0), CliffordOp::H(0)] {
            t.apply(op).unwrap();
        }
        let out = t.measure_qubit_with(0, 0.9).unwrap();
        assert_eq!((out.bit, out.probability), (0, 1.0));
    }

    #[test]
    fn hadamard_outcome_follows_the_draw() {
        for (u, want) in [(0.49, 1u8), (0.5, 0u8), (0.51, 0u8)] {
            let mut t = Tableau::new(1);
            t.apply(CliffordOp::H(0)).unwrap();
            let out = t.measure_qubit_with(0, u).unwrap();
            assert_eq!(out.bit, want, "u = {u}");
            assert_eq!(out.probability, 0.5);
            // Repeating the measurement is deterministic.
            let again = t.measure_qubit_with(0, 0.99).unwrap();
            assert_eq!((again.bit, again.probability), (want, 1.0));
        }
    }

    #[test]
    fn ghz_measurements_are_perfectly_correlated() {
        for u in [0.2, 0.7] {
            let mut t = Tableau::run(&ghz(8)).unwrap();
            let first = t.measure_qubit_with(0, u).unwrap();
            assert_eq!(first.probability, 0.5);
            for q in 1..8 {
                let out = t.measure_qubit_with(q, 0.4).unwrap();
                assert_eq!((out.bit, out.probability), (first.bit, 1.0), "qubit {q}");
            }
        }
    }

    #[test]
    fn s_gate_phase_is_observable_through_interference() {
        // H·S·S·H |0⟩ = HZH |0⟩ = X |0⟩ = |1⟩.
        let mut t = Tableau::new(1);
        for op in [
            CliffordOp::H(0),
            CliffordOp::S(0),
            CliffordOp::S(0),
            CliffordOp::H(0),
        ] {
            t.apply(op).unwrap();
        }
        let out = t.measure_qubit_with(0, 0.8).unwrap();
        assert_eq!((out.bit, out.probability), (1, 1.0));
        // H·S·S†·H = H·H = I leaves |0⟩ fixed.
        let mut t = Tableau::new(1);
        for op in [
            CliffordOp::H(0),
            CliffordOp::S(0),
            CliffordOp::Sdg(0),
            CliffordOp::H(0),
        ] {
            t.apply(op).unwrap();
        }
        assert_eq!(t.measure_qubit_with(0, 0.8).unwrap().bit, 0);
    }

    #[test]
    fn sdg_differs_from_s_by_a_z() {
        // H·S†·S†·H |0⟩ = HZH |0⟩ = |1⟩ too (S†² = Z up to phase) —
        // and H·Y·S·H distinguishes S from S† through the sign path.
        let mut a = Tableau::new(1);
        for op in [
            CliffordOp::H(0),
            CliffordOp::Y(0),
            CliffordOp::S(0),
            CliffordOp::S(0),
            CliffordOp::H(0),
        ] {
            a.apply(op).unwrap();
        }
        // HYZ(S²=Z)… just verify determinism and consistency with the
        // dense engine elsewhere; here: the state is still stabilizer.
        let out = a.measure_qubit_with(0, 0.3).unwrap();
        assert_eq!(out.probability, 1.0);
    }

    #[test]
    fn cz_is_symmetric_and_entangles_in_x_basis() {
        // H⊗H |00⟩ then CZ then H⊗H ≡ CNOT-like correlation check:
        // (H⊗H)·CZ·(H⊗H) = CNOT with roles swapped… verify via GHZ-like
        // correlation: H(0); CZ(0,1); H(1) = CNOT(0,1).
        for u in [0.1, 0.9] {
            let mut t = Tableau::new(2);
            t.apply(CliffordOp::H(0)).unwrap();
            t.apply(CliffordOp::H(1)).unwrap();
            t.apply(CliffordOp::Cz(0, 1)).unwrap();
            t.apply(CliffordOp::H(1)).unwrap();
            let a = t.measure_qubit_with(0, u).unwrap();
            let b = t.measure_qubit_with(1, 0.5).unwrap();
            assert_eq!(a.probability, 0.5);
            assert_eq!((b.bit, b.probability), (a.bit, 1.0));
        }
    }

    #[test]
    fn swap_moves_the_excitation() {
        let mut t = Tableau::new(4);
        t.apply(CliffordOp::X(0)).unwrap();
        t.apply(CliffordOp::Swap(0, 3)).unwrap();
        assert_eq!(t.measure_qubit_with(0, 0.5).unwrap().bit, 0);
        assert_eq!(t.measure_qubit_with(3, 0.5).unwrap().bit, 1);
    }

    #[test]
    fn support_of_basis_and_ghz_states() {
        let t = Tableau::new(3);
        let s = t.support().unwrap();
        assert_eq!((s.log2_size, s.indices.as_slice()), (0, &[0u64][..]));
        let mut t = Tableau::new(3);
        t.apply(CliffordOp::X(1)).unwrap();
        assert_eq!(t.support().unwrap().indices, vec![0b010]);
        let t = Tableau::run(&ghz(4)).unwrap();
        let s = t.support().unwrap();
        assert_eq!(s.log2_size, 1);
        assert_eq!(s.indices, vec![0b0000, 0b1111]);
    }

    #[test]
    fn support_of_uniform_superposition_is_everything() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let t = Tableau::run(&c).unwrap();
        let s = t.support().unwrap();
        assert_eq!(s.log2_size, 3);
        assert_eq!(s.indices, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn support_survives_sign_constraints() {
        // X(0); H(1): support = {01, 11}: qubit 0 pinned to 1.
        let mut c = Circuit::new(2);
        c.x(0).h(1);
        let t = Tableau::run(&c).unwrap();
        assert_eq!(t.support().unwrap().indices, vec![0b01, 0b11]);
    }

    #[test]
    fn sampling_matches_support() {
        let t = Tableau::run(&ghz(6)).unwrap();
        let counts = t
            .sample_counts(&mut StdRng::seed_from_u64(11), 4000)
            .unwrap();
        assert_eq!(counts.values().sum::<usize>(), 4000);
        assert!(counts.keys().all(|&k| k == 0 || k == 0b111111));
        let c0 = *counts.get(&0).unwrap_or(&0);
        assert!((c0 as f64 - 2000.0).abs() < 250.0, "c0 = {c0}");
        // Fixed seeds reproduce exactly.
        let again = t
            .sample_counts(&mut StdRng::seed_from_u64(11), 4000)
            .unwrap();
        assert_eq!(counts, again);
    }

    #[test]
    fn non_clifford_gate_is_a_typed_error() {
        let mut c = Circuit::new(2);
        c.h(0).t(1);
        assert_eq!(
            Tableau::run(&c).unwrap_err(),
            StabError::NonClifford { index: 1 }
        );
        assert!(StabError::NonClifford { index: 1 }
            .to_string()
            .contains("gate 1"));
    }

    #[test]
    fn out_of_range_qubit_is_a_typed_error() {
        let mut t = Tableau::new(2);
        assert_eq!(
            t.apply(CliffordOp::H(2)),
            Err(StabError::QubitOutOfRange { qubit: 2, n: 2 })
        );
        assert_eq!(
            t.measure_qubit_with(9, 0.5),
            Err(StabError::QubitOutOfRange { qubit: 9, n: 2 })
        );
    }

    #[test]
    fn wide_register_sampling_is_a_typed_error() {
        let t = Tableau::new(65);
        assert_eq!(
            t.support().unwrap_err(),
            StabError::RegisterTooWide { n: 65, max: 64 }
        );
    }

    #[test]
    fn prob_one_is_exact() {
        let mut t = Tableau::new(2);
        assert_eq!(t.prob_one(0).unwrap(), 0.0);
        t.apply(CliffordOp::X(0)).unwrap();
        assert_eq!(t.prob_one(0).unwrap(), 1.0);
        t.apply(CliffordOp::H(1)).unwrap();
        assert_eq!(t.prob_one(1).unwrap(), 0.5);
    }

    #[test]
    fn thousand_qubit_clifford_circuit_with_measurement() {
        // The acceptance-criteria workload: 1000 qubits, 5000 Clifford
        // gates, then measure every qubit. Release-build timing is the
        // ledger's `stabilizer.run_s` row; here we only bound the
        // debug build loosely and check the collapsed state is
        // self-consistent.
        use qse_circuit::random::{random_circuit, GatePool};
        let c = random_circuit(1000, 5000, GatePool::Clifford, 99);
        let start = std::time::Instant::now();
        let mut t = Tableau::run(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let bits: Vec<u8> = (0..1000)
            .map(|q| {
                let u = rng.random_range(0.0..1.0);
                t.measure_qubit_with(q, u).unwrap().bit
            })
            .collect();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "debug-build run took {:?}",
            start.elapsed()
        );
        // Re-measuring reproduces every bit deterministically.
        for q in 0..1000u32 {
            let again = t.measure_qubit_with(q, 0.99).unwrap();
            assert_eq!(
                (again.bit, again.probability),
                (bits[q as usize], 1.0),
                "qubit {q}"
            );
        }
    }

    #[test]
    fn thousand_qubit_register_works_across_word_boundaries() {
        // Qubits straddling the 64-bit word boundary behave like any
        // other; a 200-qubit GHZ has perfectly correlated ends.
        let mut t = Tableau::run(&ghz(200)).unwrap();
        let a = t.measure_qubit_with(63, 0.7).unwrap();
        assert_eq!(a.probability, 0.5);
        let b = t.measure_qubit_with(64, 0.2).unwrap();
        let c = t.measure_qubit_with(199, 0.9).unwrap();
        assert_eq!((b.bit, c.bit), (a.bit, a.bit));
    }
}
