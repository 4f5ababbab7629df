//! Pluggable amplitude storage layouts.
//!
//! QuEST stores the statevector as two separate `qreal` arrays (real and
//! imaginary parts) — the structure-of-arrays layout, [`SoaStorage`]. The
//! paper's future work (§4) proposes "reimplement[ing] QuEST's core
//! data-structures using a complex data type rather than separate real and
//! imaginary arrays, in order to improve data locality" — the
//! array-of-structures layout, [`AosStorage`]. Both implement
//! [`AmpStorage`], the hot-kernel interface the engines are generic over,
//! so the `layout` Criterion bench can compare them on identical sweeps.
//!
//! All kernels treat the storage as the *local* slice of a (possibly
//! distributed) register: indices are local amplitude indices, and the
//! diagonal sweep takes a global-index offset so its selections can see
//! rank bits.

mod aos;
pub(crate) mod kernel;
mod soa;

pub use aos::AosStorage;
pub use soa::SoaStorage;

use qse_math::{Complex64, Matrix2};
pub use qse_math::Matrix4;

/// Minimum length before kernels fan out to Rayon. Below this the
/// fork-join overhead dwarfs the sweep.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// Amplitudes per parallel work item (and per half-block sub-chunk of a
/// single top-qubit sweep). One definition for both layouts so the
/// chunk policies — and the affinity partition built on them — can
/// never drift apart.
pub const HALF_CHUNK: usize = 4096;

/// The amplitude-array interface every layout implements.
///
/// `len` is always a power of two. Kernels mutate in place — the paper's
/// simulations are memory-capacity-bound, so out-of-place updates (which
/// would double footprint) are reserved for the explicitly-buffered
/// distributed combines.
pub trait AmpStorage: Send + Sync + Sized + Clone {
    /// All-zero register of `len` amplitudes (an invalid quantum state
    /// until initialised; used for receive staging).
    fn zeros(len: usize) -> Self;

    /// Number of amplitudes.
    fn len(&self) -> usize;

    /// True when empty (never for a live register).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads amplitude `i`.
    fn get(&self, i: usize) -> Complex64;

    /// Writes amplitude `i`.
    fn set(&mut self, i: usize, v: Complex64);

    /// Sets every amplitude to zero.
    fn fill_zero(&mut self);

    /// Σ|amp|² over the local slice.
    fn norm_sqr_sum(&self) -> f64;

    /// Applies a 2×2 matrix to every amplitude pair of local qubit `q`
    /// (stride `2^q`), optionally only where local control qubit bit is 1.
    fn apply_pairs(&mut self, q: u32, m: &Matrix2, control: Option<u32>);

    /// Applies a precompiled run of diagonal gates — the fully-local
    /// sweep, and the only way a diagonal gate reaches the storage (a
    /// single gate is a run of length one). `offset` is the global index
    /// of local amplitude 0, so rank bits take part in the selections.
    /// See [`CompiledDiagonal`](crate::diagonal::CompiledDiagonal) for
    /// the semantic; layouts drive its block kernel over their
    /// [`HALF_CHUNK`] work items.
    fn apply_fused_diagonal(&mut self, offset: u64, run: &crate::diagonal::CompiledDiagonal);

    /// Swaps local qubits `a` and `b` (pure in-memory permutation).
    fn swap_local(&mut self, a: u32, b: u32);

    /// Distributed combine: `new[i] = c_mine·mine[i] + c_theirs·theirs[i]`,
    /// with `theirs` as interleaved `[re, im]` pairs, optionally only where
    /// local control bit is 1. This is the second half of a distributed
    /// single-qubit gate (§2.1): the pair rank's buffer arrives and each
    /// amplitude becomes a linear combination.
    fn combine_rows(
        &mut self,
        c_mine: Complex64,
        c_theirs: Complex64,
        theirs: &[f64],
        control: Option<u32>,
    );

    /// [`Self::combine_rows`] restricted to the amplitude sub-range
    /// `[start, start + chunk.len()/2)`, with `chunk` holding the peer's
    /// interleaved pairs for exactly that range — the streamed-exchange
    /// kernel, applied per chunk as it arrives.
    ///
    /// The per-amplitude arithmetic is identical to the full combine, and
    /// amplitudes are elementwise independent, so splitting a combine into
    /// sub-range calls (in any order) is bit-for-bit identical to one full
    /// sweep. Layouts override the default `get`/`set` loop with their
    /// slice kernels.
    fn apply_distributed_1q_range(
        &mut self,
        c_mine: Complex64,
        c_theirs: Complex64,
        chunk: &[f64],
        start: usize,
        control: Option<u32>,
    ) {
        assert_eq!(chunk.len() % 2, 0, "chunk must hold interleaved pairs");
        let n = chunk.len() / 2;
        assert!(start + n <= self.len(), "chunk beyond local slice");
        let ctrl_mask = control.map_or(0u64, |c| 1u64 << c);
        for k in 0..n {
            let i = start + k;
            if ctrl_mask != 0 && i as u64 & ctrl_mask == 0 {
                continue;
            }
            let other = Complex64::new(chunk[2 * k], chunk[2 * k + 1]);
            let v = c_mine * self.get(i) + c_theirs * other;
            self.set(i, v);
        }
    }

    /// Distributed SWAP scatter restricted to a sub-range of the *peer's*
    /// slice: for every absolute index `i` in `[start, start + chunk.len()/2)`
    /// whose bit `lo` equals `g` (this rank's value of the global swap
    /// qubit), the peer amplitude `chunk[i - start]` lands at `i ^ (1<<lo)`.
    /// Pure copies with disjoint destinations per chunk, so chunk order
    /// never matters. Covering the whole slice in one call reproduces the
    /// full-exchange scatter.
    fn apply_distributed_swap_range(&mut self, lo: u32, g: u64, chunk: &[f64], start: usize) {
        assert_eq!(chunk.len() % 2, 0, "chunk must hold interleaved pairs");
        let n = chunk.len() / 2;
        assert!(start + n <= self.len(), "chunk beyond local slice");
        for j in 0..n {
            let i = start + j;
            if ((i >> lo) & 1) as u64 == g {
                let l = i ^ (1usize << lo);
                self.set(l, Complex64::new(chunk[2 * j], chunk[2 * j + 1]));
            }
        }
    }

    /// Overwrites amplitudes `[start, start + chunk.len()/2)` from
    /// interleaved pairs — the per-chunk form of [`Self::copy_from_f64`]
    /// used by the streamed both-global SWAP.
    fn copy_from_f64_range(&mut self, chunk: &[f64], start: usize) {
        assert_eq!(chunk.len() % 2, 0, "chunk must hold interleaved pairs");
        let n = chunk.len() / 2;
        assert!(start + n <= self.len(), "chunk beyond local slice");
        for j in 0..n {
            self.set(start + j, Complex64::new(chunk[2 * j], chunk[2 * j + 1]));
        }
    }

    /// Serialises the whole slice as interleaved `[re, im]` pairs.
    fn to_f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.write_f64_into(&mut out);
        out
    }

    /// Serialises the whole slice into `out` as interleaved pairs,
    /// reusing `out`'s capacity — the allocation-free exchange staging
    /// path (the distributed engine keeps `out` as per-state scratch).
    fn write_f64_into(&self, out: &mut Vec<f64>);

    /// Overwrites the whole slice from interleaved `[re, im]` pairs.
    fn copy_from_f64(&mut self, data: &[f64]);

    /// Extracts amplitudes whose local-index bit `q` equals `v`, in
    /// ascending index order, as interleaved pairs — the half-exchange
    /// SWAP payload (§4).
    fn extract_half_bit(&self, q: u32, v: u64) -> Vec<f64> {
        let mut out = Vec::new();
        self.extract_half_bit_into(q, v, &mut out);
        out
    }

    /// [`Self::extract_half_bit`] into a reusable buffer (cleared first).
    fn extract_half_bit_into(&self, q: u32, v: u64, out: &mut Vec<f64>);

    /// Writes `data` (interleaved pairs) into the amplitudes whose
    /// local-index bit `q` equals `v`, in ascending index order.
    fn write_half_bit(&mut self, q: u32, v: u64, data: &[f64]);

    /// [`Self::write_half_bit`] restricted to half-slice pairs
    /// `[start_pair, start_pair + chunk.len()/2)` — the streamed form of
    /// the half-exchange SWAP write-back, applied per chunk. Pure copies
    /// to disjoint destinations, so chunk order never matters.
    fn write_half_bit_range(&mut self, q: u32, v: u64, chunk: &[f64], start_pair: usize) {
        assert_eq!(chunk.len() % 2, 0, "chunk must hold interleaved pairs");
        let n = chunk.len() / 2;
        assert!(start_pair + n <= self.len() / 2, "chunk beyond half slice");
        for j in 0..n {
            let k = (start_pair + j) as u64;
            let i = crate::ix(qse_math::bits::insert_zero_bit(k, q) | (v << q));
            self.set(i, Complex64::new(chunk[2 * j], chunk[2 * j + 1]));
        }
    }

    /// Materialises the local slice as complex values (tests/gather).
    fn to_complex_vec(&self) -> Vec<Complex64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Applies a 4×4 matrix to every four-amplitude orbit of local
    /// qubits `(a, b)` — basis order `|b a⟩`. Default implementation via
    /// `get`/`set`; layouts may specialise for speed.
    fn apply_orbit4(&mut self, a: u32, b: u32, m: &crate::storage::Matrix4) {
        assert_ne!(a, b, "orbit qubits must differ");
        let len = self.len() as u64;
        assert!((1u64 << a) < len && (1u64 << b) < len, "qubit out of range");
        for k in 0..len / 4 {
            let base = qse_math::bits::insert_two_zero_bits(k, a, b);
            let idx = |bb: u64, aa: u64| crate::ix(base | (aa << a) | (bb << b));
            let orbit = [
                self.get(idx(0, 0)),
                self.get(idx(0, 1)),
                self.get(idx(1, 0)),
                self.get(idx(1, 1)),
            ];
            let out = m.apply(orbit);
            self.set(idx(0, 0), out[0]);
            self.set(idx(0, 1), out[1]);
            self.set(idx(1, 0), out[2]);
            self.set(idx(1, 1), out[3]);
        }
    }

    /// Distributed two-qubit combine: qubit `a` is local, the second
    /// orbit qubit is a rank bit with this rank holding value `g`.
    /// `theirs` is the pair rank's full slice (interleaved pairs); each
    /// local pair `(bit_a = 0, 1)` combines with the peer's matching pair
    /// through the rows of `m` selected by `g` — basis order `|b a⟩`.
    fn combine_orbit4(&mut self, a: u32, g: u64, m: &crate::storage::Matrix4, theirs: &[f64]) {
        assert_eq!(theirs.len(), self.len() * 2, "pair buffer size mismatch");
        self.apply_distributed_2q_range(a, g, m, theirs, 0);
    }

    /// [`Self::combine_orbit4`] restricted to the amplitude sub-range
    /// `[start, start + chunk.len()/2)`. Both the start and the length
    /// must be multiples of the orbit span `2^(a+1)` so every `(i0, i1)`
    /// pair of an orbit lands inside one chunk — the streamed exchange
    /// derives its chunk policy with exactly this alignment. Orbits are
    /// elementwise independent across chunks, so per-chunk application is
    /// bit-for-bit identical to the full combine.
    fn apply_distributed_2q_range(
        &mut self,
        a: u32,
        g: u64,
        m: &crate::storage::Matrix4,
        chunk: &[f64],
        start: usize,
    ) {
        assert_eq!(chunk.len() % 2, 0, "chunk must hold interleaved pairs");
        let n = chunk.len() / 2;
        assert!(start + n <= self.len(), "chunk beyond local slice");
        let orbit = 1usize << (a + 1);
        assert_eq!(start % orbit, 0, "chunk start must align to the 2q orbit");
        assert_eq!(n % orbit, 0, "chunk length must align to the 2q orbit");
        let read_chunk = |i: usize| {
            let j = i - start;
            Complex64::new(chunk[2 * j], chunk[2 * j + 1])
        };
        // insert_zero_bit(k, a) is monotone, so the orbit bases inside an
        // aligned range [start, start+n) are exactly k in [start/2, (start+n)/2).
        for k in (start as u64 / 2)..((start + n) as u64 / 2) {
            let i0 = crate::ix(qse_math::bits::insert_zero_bit(k, a));
            let i1 = i0 | (1usize << a);
            // Orbit amplitudes v[(b<<1)|a]: b == g comes from this rank.
            let mut v = [Complex64::ZERO; 4];
            v[crate::ix(g << 1)] = self.get(i0);
            v[crate::ix((g << 1) | 1)] = self.get(i1);
            v[crate::ix((1 - g) << 1)] = read_chunk(i0);
            v[crate::ix(((1 - g) << 1) | 1)] = read_chunk(i1);
            let out = m.apply(v);
            self.set(i0, out[crate::ix(g << 1)]);
            self.set(i1, out[crate::ix((g << 1) | 1)]);
        }
    }
}

/// Shared zero-state initialiser: amplitude `basis` = 1 within this local
/// slice if it falls in `[offset, offset + len)`, everything else 0.
pub fn init_basis<S: AmpStorage>(storage: &mut S, offset: u64, basis: u64) {
    storage.fill_zero();
    let len = storage.len() as u64;
    if basis >= offset && basis < offset + len {
        storage.set(crate::ix(basis - offset), Complex64::ONE);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index arithmetic is the subject under test
pub(crate) mod conformance {
    //! Layout-agnostic conformance suite run against each implementation.

    use super::*;
    use qse_math::approx::{assert_close, assert_complex_close};
    use std::f64::consts::FRAC_1_SQRT_2;

    fn hadamard() -> Matrix2 {
        let h = Complex64::real(FRAC_1_SQRT_2);
        Matrix2::new(h, h, h, -h)
    }

    fn ramp<S: AmpStorage>(len: usize) -> S {
        let mut s = S::zeros(len);
        for i in 0..len {
            s.set(i, Complex64::new(i as f64, -(i as f64) / 2.0));
        }
        s
    }

    pub fn run_all<S: AmpStorage>() {
        basic_accessors::<S>();
        pairs_hadamard::<S>();
        pairs_every_qubit_roundtrip::<S>();
        pairs_controlled::<S>();
        large_fused_diagonal_matches_oracle::<S>();
        diagonal_kernel_matches_oracle_and_gate_at_a_time::<S>();
        unselected_amplitudes_are_untouched::<S>();
        swap_local_permutes::<S>();
        combine_rows_linear::<S>();
        f64_roundtrip::<S>();
        into_buffers_reuse_capacity::<S>();
        half_bit_extract_write::<S>();
        init_basis_places_one::<S>();
        large_parallel_sweep_matches_small::<S>();
        controlled_pairs_multi_chunk::<S>();
        large_swap_matches_permutation::<S>();
        distributed_1q_range_chunks_match_full::<S>();
        distributed_2q_range_chunks_match_full::<S>();
        swap_range_chunks_match_full::<S>();
        half_bit_range_chunks_match_full::<S>();
        copy_range_chunks_match_full::<S>();
    }

    /// Peer-buffer fixture: deterministic non-trivial interleaved pairs.
    fn peer_pairs(len: usize) -> Vec<f64> {
        (0..len)
            .flat_map(|i| [(i as f64) * 0.75 - 3.0, 1.0 / (i as f64 + 2.0)])
            .collect()
    }

    /// Asserts two storages are bit-for-bit identical.
    fn assert_bits_equal<S: AmpStorage>(a: &S, b: &S, ctx: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    /// Layout-agnostic reference for a controlled pair sweep: per-element
    /// control test, `Complex64` operator arithmetic.
    fn naive_controlled<S: AmpStorage>(s: &mut S, q: u32, m: &Matrix2, c: u32) {
        let stride = 1usize << q;
        for i in 0..s.len() {
            if (i >> q) & 1 == 1 || (i >> c) & 1 == 0 {
                continue;
            }
            let j = i | stride;
            let (a0, a1) = (s.get(i), s.get(j));
            s.set(i, m.m[0] * a0 + m.m[1] * a1);
            s.set(j, m.m[2] * a0 + m.m[3] * a1);
        }
    }

    fn controlled_pairs_multi_chunk<S: AmpStorage>() {
        use qse_math::approx::assert_complex_close;
        // Controlled gates through the parallel branches at chunk bases
        // ≠ 0: state sizes straddling PAR_THRESHOLD, control above and
        // below the target, including the single-top-qubit-block path.
        let m = Matrix2::new(
            Complex64::new(0.6, 0.1),
            Complex64::new(-0.3, 0.8),
            Complex64::new(0.2, -0.4),
            Complex64::new(0.9, 0.05),
        );
        for len in [PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            for &(q, c) in &[
                (0u32, 5u32),         // control above a bottom target
                (5, 2),               // control below target, both mid
                (top - 1, top),       // blocked path at max stride, control above
                (top, 3),             // single-block path, control far below
                (top, top - 1),       // single-block path, control just below
                (2, top),             // top control selects half the blocks
            ] {
                let mut got: S = ramp(len);
                got.apply_pairs(q, &m, Some(c));
                let mut want: S = ramp(len);
                naive_controlled(&mut want, q, &m, c);
                for i in 0..len {
                    assert_complex_close(got.get(i), want.get(i), 1e-9);
                }
            }
        }
    }

    fn large_swap_matches_permutation<S: AmpStorage>() {
        // The parallel chunked swap is a pure permutation, so it must
        // match the bit-swapped index map exactly (bitwise).
        let len = PAR_THRESHOLD * 2;
        let top = len.trailing_zeros() - 1;
        for &(a, b) in &[(0u32, 3u32), (0, top), (5, top), (top - 1, top), (2, 9)] {
            let before: S = ramp(len);
            let mut s = before.clone();
            s.swap_local(a, b);
            for i in 0..len as u64 {
                let j = qse_math::bits::swap_bits(i, a, b);
                let (x, y) = (s.get(i as usize), before.get(j as usize));
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "swap({a},{b}) re at {i}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "swap({a},{b}) im at {i}");
            }
        }
    }

    fn distributed_1q_range_chunks_match_full<S: AmpStorage>() {
        let c_mine = Complex64::new(0.6, -0.2);
        let c_theirs = Complex64::new(0.1, 0.8);
        let theirs = peer_pairs(32);
        for control in [None, Some(2u32)] {
            let mut full: S = ramp(32);
            full.combine_rows(c_mine, c_theirs, &theirs, control);
            // Uneven sub-ranges applied out of order must match exactly.
            let mut chunked: S = ramp(32);
            for &(start, n) in &[(20usize, 12usize), (0, 6), (6, 14)] {
                chunked.apply_distributed_1q_range(
                    c_mine,
                    c_theirs,
                    &theirs[2 * start..2 * (start + n)],
                    start,
                    control,
                );
            }
            assert_bits_equal(&full, &chunked, "1q range");
        }
    }

    fn distributed_2q_range_chunks_match_full<S: AmpStorage>() {
        let m = Matrix4::new([
            Complex64::new(0.5, 0.1),
            Complex64::new(0.2, 0.0),
            Complex64::new(0.0, -0.3),
            Complex64::new(0.4, 0.4),
            Complex64::new(0.1, 0.0),
            Complex64::new(0.0, 0.9),
            Complex64::new(0.3, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.0, 0.2),
            Complex64::new(0.7, 0.0),
            Complex64::new(0.1, 0.1),
            Complex64::new(0.0, -0.5),
            Complex64::new(0.6, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.2, -0.2),
            Complex64::new(0.8, 0.0),
        ]);
        let theirs = peer_pairs(32);
        for a in [0u32, 1, 2] {
            for g in [0u64, 1] {
                let mut full: S = ramp(32);
                full.combine_orbit4(a, g, &m, &theirs);
                let mut chunked: S = ramp(32);
                // Orbit-aligned sub-ranges (2^(a+1) | start, len), out of order.
                let orbit = 1usize << (a + 1);
                let step = 2 * orbit;
                let starts: Vec<usize> = (0..32 / step).map(|b| b * step).rev().collect();
                for start in starts {
                    chunked.apply_distributed_2q_range(
                        a,
                        g,
                        &m,
                        &theirs[2 * start..2 * (start + step)],
                        start,
                    );
                }
                assert_bits_equal(&full, &chunked, "2q range");
            }
        }
    }

    fn swap_range_chunks_match_full<S: AmpStorage>() {
        let theirs = peer_pairs(32);
        for lo in [0u32, 2, 4] {
            for g in [0u64, 1] {
                let mut full: S = ramp(32);
                full.apply_distributed_swap_range(lo, g, &theirs, 0);
                let mut chunked: S = ramp(32);
                for &(start, n) in &[(24usize, 8usize), (0, 10), (10, 14)] {
                    chunked.apply_distributed_swap_range(
                        lo,
                        g,
                        &theirs[2 * start..2 * (start + n)],
                        start,
                    );
                }
                assert_bits_equal(&full, &chunked, "swap range");
            }
        }
    }

    fn half_bit_range_chunks_match_full<S: AmpStorage>() {
        let half = peer_pairs(16); // 16 pairs for a 32-amp slice
        for q in [0u32, 3] {
            for v in [0u64, 1] {
                let mut full: S = ramp(32);
                full.write_half_bit(q, v, &half);
                let mut chunked: S = ramp(32);
                for &(start, n) in &[(10usize, 6usize), (0, 4), (4, 6)] {
                    chunked.write_half_bit_range(q, v, &half[2 * start..2 * (start + n)], start);
                }
                assert_bits_equal(&full, &chunked, "half-bit range");
            }
        }
    }

    fn copy_range_chunks_match_full<S: AmpStorage>() {
        let data = peer_pairs(32);
        let mut full: S = ramp(32);
        full.copy_from_f64(&data);
        let mut chunked: S = ramp(32);
        for &(start, n) in &[(17usize, 15usize), (0, 9), (9, 8)] {
            chunked.copy_from_f64_range(&data[2 * start..2 * (start + n)], start);
        }
        assert_bits_equal(&full, &chunked, "copy range");
    }

    fn basic_accessors<S: AmpStorage>() {
        let mut s = S::zeros(8);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.get(3), Complex64::ZERO);
        s.set(3, Complex64::new(1.0, 2.0));
        assert_eq!(s.get(3), Complex64::new(1.0, 2.0));
        assert_close(s.norm_sqr_sum(), 5.0, 1e-12);
        s.fill_zero();
        assert_close(s.norm_sqr_sum(), 0.0, 1e-12);
    }

    fn pairs_hadamard<S: AmpStorage>() {
        // |0> --H on qubit 0--> (|0>+|1>)/√2
        let mut s = S::zeros(4);
        s.set(0, Complex64::ONE);
        s.apply_pairs(0, &hadamard(), None);
        assert_complex_close(s.get(0), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(1), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(2), Complex64::ZERO, 1e-12);
    }

    fn pairs_every_qubit_roundtrip<S: AmpStorage>() {
        // H twice on each qubit restores the state.
        let s0: S = ramp(32);
        for q in 0..5 {
            let mut s = s0.clone();
            s.apply_pairs(q, &hadamard(), None);
            s.apply_pairs(q, &hadamard(), None);
            for i in 0..32 {
                assert_complex_close(s.get(i), s0.get(i), 1e-9);
            }
        }
    }

    fn pairs_controlled<S: AmpStorage>() {
        // X on qubit 0 controlled by qubit 1: only indices with bit1 set flip.
        let x = Matrix2::new(
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        );
        let mut s: S = ramp(8);
        let before = s.to_complex_vec();
        s.apply_pairs(0, &x, Some(1));
        assert_complex_close(s.get(0), before[0], 1e-12); // bit1=0 untouched
        assert_complex_close(s.get(1), before[1], 1e-12);
        assert_complex_close(s.get(2), before[3], 1e-12); // |10> <- |11>
        assert_complex_close(s.get(3), before[2], 1e-12);
        assert_complex_close(s.get(6), before[7], 1e-12);
    }

    /// Diagonal fixture: zeros of both signs, exact and inexact values.
    fn diagonal_fixture<S: AmpStorage>(len: usize) -> S {
        let mut s = S::zeros(len);
        for i in 0..len {
            let re = if i % 11 == 3 {
                -0.0
            } else {
                ((i * 7) % 23) as f64 * 0.125 - 1.0
            };
            s.set(i, Complex64::new(re, 0.3 - (i % 5) as f64));
        }
        s
    }

    /// Applies `gates` to the fixture fused and gate at a time, and
    /// asserts both equal the scalar oracle bit for bit.
    fn assert_diagonal_run<S: AmpStorage>(len: usize, offset: u64, gates: &[qse_circuit::Gate]) {
        use crate::diagonal::{oracle_apply, CompiledDiagonal};
        let before: S = diagonal_fixture(len);
        let mut fused = before.clone();
        fused.apply_fused_diagonal(offset, &CompiledDiagonal::compile(gates));
        let mut unfused = before.clone();
        for g in gates {
            unfused.apply_fused_diagonal(offset, &CompiledDiagonal::compile([g]));
        }
        let ctx = format!("len {len}, gates {gates:?}");
        assert_bits_equal(&fused, &unfused, &ctx);
        for i in 0..len {
            let want = oracle_apply(gates, offset | i as u64, before.get(i));
            let got = fused.get(i);
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    fn large_fused_diagonal_matches_oracle<S: AmpStorage>() {
        // Above PAR_THRESHOLD the sweep takes the pool path; it must
        // agree bitwise with per-gate sweeps and with the scalar oracle.
        use qse_circuit::Gate;
        let gates = [
            Gate::T(3),
            Gate::CZ(5, 12),
            Gate::Phase {
                target: 9,
                theta: 1.7,
            },
        ];
        assert_diagonal_run::<S>(PAR_THRESHOLD * 2, 0, &gates);
    }

    /// Every diagonal gate kind on every placement class of a `w`-qubit
    /// local slice under a two-bit rank offset: qubits below the vector
    /// width (0–2), inside a kernel tile, between tile and `HALF_CHUNK`,
    /// above `HALF_CHUNK`, and in the offset (`w`: set, `w + 1`: clear).
    fn diagonal_gate_zoo(w: u32) -> Vec<qse_circuit::Gate> {
        use qse_circuit::Gate;
        use qse_math::Matrix4;
        let tile_top = crate::diagonal::TILE.trailing_zeros();
        let chunk_top = HALF_CHUNK.trailing_zeros();
        assert!(tile_top < chunk_top && chunk_top < w - 1);
        let singles = [0, 1, 2, 5, tile_top - 1, tile_top, chunk_top - 1, chunk_top, w - 1, w, w + 1];
        let pairs = [
            (0, 1),
            (2, 0),
            (1, 5),
            (5, tile_top - 1),
            (2, chunk_top - 1),
            (tile_top - 1, chunk_top),
            (chunk_top, tile_top),
            (chunk_top - 1, w - 1),
            (3, w),
            (w - 1, w + 1),
            (w, w + 1),
        ];
        let d2 = |t: f64| Matrix2::diagonal(Complex64::cis(t), Complex64::cis(-1.3 * t));
        let mut zoo = Vec::new();
        for (k, &q) in singles.iter().enumerate() {
            let theta = 0.21 + k as f64;
            zoo.extend([
                Gate::Z(q),
                Gate::S(q),
                Gate::Sdg(q),
                Gate::T(q),
                Gate::Tdg(q),
                Gate::Phase { target: q, theta },
                Gate::Rz { target: q, theta },
                Gate::Unitary1 {
                    target: q,
                    matrix: d2(theta),
                },
            ]);
        }
        for (k, &(a, b)) in pairs.iter().enumerate() {
            let theta = 0.37 + k as f64;
            let mut m4 = Matrix4::identity();
            for d in 0..4 {
                m4.m[5 * d] = Complex64::cis(theta * (d + 1) as f64);
            }
            zoo.extend([
                Gate::CZ(a, b),
                Gate::CPhase { a, b, theta },
                Gate::CUnitary {
                    control: a,
                    target: b,
                    matrix: d2(theta),
                },
                Gate::CUnitary {
                    control: b,
                    target: a,
                    matrix: d2(-theta),
                },
                Gate::Unitary2 { a, b, matrix: m4 },
            ]);
        }
        for (k, qubits) in [
            vec![0, 1, 2],
            vec![1, 6, chunk_top - 1],
            vec![2, chunk_top, w],
            vec![5, w - 1, w + 1],
        ]
        .into_iter()
        .enumerate()
        {
            zoo.push(Gate::MCPhase {
                qubits,
                theta: 0.9 + k as f64,
            });
        }
        zoo
    }

    fn diagonal_kernel_matches_oracle_and_gate_at_a_time<S: AmpStorage>() {
        for len in [PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let w = len.trailing_zeros();
            let offset = len as u64; // rank bits 0b01: qubit `w` set, `w + 1` clear
            let zoo = diagonal_gate_zoo(w);
            // Runs of one: every kind on every placement.
            for g in &zoo {
                assert_diagonal_run::<S>(len, offset, std::slice::from_ref(g));
            }
            // Runs of 2 and 19: strided picks, so kinds and placements mix.
            for k in [2usize, 19] {
                for start in (0..zoo.len()).step_by(29) {
                    let run: Vec<_> = (0..k)
                        .map(|j| zoo[(start + 31 * j) % zoo.len()].clone())
                        .collect();
                    assert_diagonal_run::<S>(len, offset, &run);
                }
            }
        }
        // Slices shorter than a lane group take the scalar path.
        for len in [1usize, 2, 4] {
            assert_diagonal_run::<S>(
                len,
                8,
                &[qse_circuit::Gate::CZ(0, 3), qse_circuit::Gate::T(3)],
            );
        }
    }

    fn unselected_amplitudes_are_untouched<S: AmpStorage>() {
        // (-0.0 - 5i)·(1 + 0i) = +0.0 - 5i: had the sweep multiplied the
        // amplitudes a gate does not select by one, their real parts
        // would read +0.0 afterwards.
        use crate::diagonal::CompiledDiagonal;
        use qse_circuit::Gate;
        let amp = Complex64::new(-0.0, -5.0);
        assert_eq!((amp * Complex64::ONE).re.to_bits(), 0.0f64.to_bits());
        for len in [16usize, PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            let gate = Gate::CPhase {
                a: 1,
                b: top,
                theta: 0.4,
            };
            let mut s = S::zeros(len);
            for i in 0..len {
                s.set(i, amp);
            }
            s.apply_fused_diagonal(0, &CompiledDiagonal::compile([&gate]));
            let mask = (1usize << 1) | (1 << top);
            for i in 0..len {
                let got = s.get(i);
                if i & mask == mask {
                    assert_ne!(got, amp, "selected amplitude {i} must change");
                } else {
                    assert_eq!(got.re.to_bits(), (-0.0f64).to_bits(), "re at {i}");
                    assert_eq!(got.im.to_bits(), amp.im.to_bits(), "im at {i}");
                }
            }
        }
    }

    fn swap_local_permutes<S: AmpStorage>() {
        let mut s: S = ramp(8);
        let before = s.to_complex_vec();
        s.swap_local(0, 2);
        for i in 0..8u64 {
            let j = qse_math::bits::swap_bits(i, 0, 2);
            assert_complex_close(s.get(i as usize), before[j as usize], 1e-12);
        }
        // involution
        s.swap_local(0, 2);
        for i in 0..8 {
            assert_complex_close(s.get(i), before[i], 1e-12);
        }
    }

    fn combine_rows_linear<S: AmpStorage>() {
        let mut s: S = ramp(4);
        let before = s.to_complex_vec();
        let theirs: Vec<f64> = (0..4).flat_map(|i| [10.0 + i as f64, 0.5]).collect();
        let a = Complex64::new(0.25, 0.0);
        let b = Complex64::new(0.0, 1.0);
        s.combine_rows(a, b, &theirs, None);
        for i in 0..4 {
            let t = Complex64::new(10.0 + i as f64, 0.5);
            assert_complex_close(s.get(i), a * before[i] + b * t, 1e-12);
        }
        // controlled variant: only bit-0 = 1 slots change
        let mut s: S = ramp(4);
        s.combine_rows(a, b, &theirs, Some(0));
        assert_complex_close(s.get(0), before[0], 1e-12);
        assert_complex_close(s.get(2), before[2], 1e-12);
        let t1 = Complex64::new(11.0, 0.5);
        assert_complex_close(s.get(1), a * before[1] + b * t1, 1e-12);
    }

    fn f64_roundtrip<S: AmpStorage>() {
        let s: S = ramp(16);
        let data = s.to_f64_vec();
        assert_eq!(data.len(), 32);
        let mut t = S::zeros(16);
        t.copy_from_f64(&data);
        for i in 0..16 {
            assert_complex_close(t.get(i), s.get(i), 1e-15);
        }
    }

    fn into_buffers_reuse_capacity<S: AmpStorage>() {
        let s: S = ramp(16);
        // Pre-dirtied buffers with excess capacity: _into must clear and
        // refill without reallocating.
        let mut buf = vec![99.0; 64];
        let cap = buf.capacity();
        s.write_f64_into(&mut buf);
        assert_eq!(buf, s.to_f64_vec());
        assert_eq!(buf.capacity(), cap);
        let mut half = vec![-1.0; 64];
        let half_cap = half.capacity();
        s.extract_half_bit_into(2, 1, &mut half);
        assert_eq!(half, s.extract_half_bit(2, 1));
        assert_eq!(half.capacity(), half_cap);
    }

    fn half_bit_extract_write<S: AmpStorage>() {
        let s: S = ramp(16);
        for q in 0..4u32 {
            for v in 0..2u64 {
                let half = s.extract_half_bit(q, v);
                assert_eq!(half.len(), 16); // 8 amps × 2 f64
                // Writing the extracted half back is a no-op.
                let mut t = s.clone();
                t.write_half_bit(q, v, &half);
                for i in 0..16 {
                    assert_complex_close(t.get(i), s.get(i), 1e-15);
                }
                // The extracted values are the amps with bit q == v, ascending.
                let expected: Vec<Complex64> = (0..16u64)
                    .filter(|i| (i >> q) & 1 == v)
                    .map(|i| s.get(i as usize))
                    .collect();
                for (k, e) in expected.iter().enumerate() {
                    assert_complex_close(
                        Complex64::new(half[2 * k], half[2 * k + 1]),
                        *e,
                        1e-15,
                    );
                }
            }
        }
    }

    fn init_basis_places_one<S: AmpStorage>() {
        let mut s = S::zeros(8);
        super::init_basis(&mut s, 8, 11); // local index 3
        assert_complex_close(s.get(3), Complex64::ONE, 1e-15);
        assert_close(s.norm_sqr_sum(), 1.0, 1e-15);
        super::init_basis(&mut s, 8, 3); // outside this slice
        assert_close(s.norm_sqr_sum(), 0.0, 1e-15);
    }

    fn large_parallel_sweep_matches_small<S: AmpStorage>() {
        // Above PAR_THRESHOLD the kernels take the Rayon path; verify it
        // agrees with the sequential one via the H-twice identity and a
        // norm check.
        let len = PAR_THRESHOLD * 2;
        let mut s = S::zeros(len);
        s.set(0, Complex64::ONE);
        for q in [0u32, 5, (len.trailing_zeros() - 1)] {
            s.apply_pairs(q, &hadamard(), None);
        }
        assert_close(s.norm_sqr_sum(), 1.0, 1e-9);
        for q in [(len.trailing_zeros() - 1), 5, 0u32] {
            s.apply_pairs(q, &hadamard(), None);
        }
        assert_close(s.norm_sqr_sum(), 1.0, 1e-9);
        assert_complex_close(s.get(0), Complex64::ONE, 1e-9);
    }
}
