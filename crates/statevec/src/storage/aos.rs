//! Array-of-structures layout: interleaved complex amplitudes.
//!
//! The paper's §4 future work: "reimplement QuEST's core data-structures
//! using a complex data type rather than separate real and imaginary
//! arrays, in order to improve data locality". Each amplitude pair update
//! touches two 16-byte values instead of four 8-byte values in two far-
//! apart streams.
//!
//! The sweep bodies mirror [`super::SoaStorage`]'s: bounds-check-free
//! inner loops over equal-length lower/upper sub-slices, hoisted control
//! tests ([`kernel::Ctrl`]), AVX2+FMA / baseline dual compilation picked
//! at runtime by [`kernel::use_fma`], and affinity-stable parallel
//! dispatch through [`parallel_for_each_affine`].

use super::kernel::{self, Ctrl};
use super::{AmpStorage, AMP_BYTES, HALF_CHUNK, PAR_THRESHOLD, RANGE_PAR_THRESHOLD};
use crate::diagonal::{CompiledDiagonal, TILE};
use qse_math::bits;
use qse_math::{Complex64, Matrix2};
use qse_util::parallel::{parallel_for_each_affine, parallel_map_sum};

/// Interleaved `Complex64` amplitude array.
#[derive(Debug, Clone, PartialEq)]
pub struct AosStorage {
    amps: Vec<Complex64>,
}

/// Innermost pair loop: updates `(lo[k], hi[k])` for every `k`. Both
/// slices have the same length; re-slicing proves it to the compiler.
#[inline(always)]
fn run_pairs<const FMA: bool>(lo: &mut [Complex64], hi: &mut [Complex64], m: &Matrix2) {
    let n = lo.len();
    let hi = &mut hi[..n];
    for k in 0..n {
        let (a, b) = (lo[k], hi[k]);
        let (r0, i0, r1, i1) = kernel::pair_terms::<FMA>(a.re, a.im, b.re, b.im, m);
        lo[k] = Complex64::new(r0, i0);
        hi[k] = Complex64::new(r1, i1);
    }
}

/// Pair sweep for strides below the vector width, with the stride a
/// compile-time constant so the compiler vectorizes across blocks.
#[inline(always)]
fn small_stride_body<const FMA: bool, const STRIDE: usize>(amps: &mut [Complex64], m: &Matrix2) {
    for blk in amps.chunks_exact_mut(2 * STRIDE) {
        let (lo, hi) = blk.split_at_mut(STRIDE);
        for k in 0..STRIDE {
            let (a, b) = (lo[k], hi[k]);
            let (r0, i0, r1, i1) = kernel::pair_terms::<FMA>(a.re, a.im, b.re, b.im, m);
            lo[k] = Complex64::new(r0, i0);
            hi[k] = Complex64::new(r1, i1);
        }
    }
}

/// Sweeps a contiguous region of whole `2·stride` blocks whose first
/// amplitude has local index `base`.
#[inline(always)]
fn region_body<const FMA: bool>(
    amps: &mut [Complex64],
    stride: usize,
    base: usize,
    m: &Matrix2,
    ctrl: Ctrl,
) {
    if matches!(ctrl, Ctrl::All) {
        match stride {
            1 => return small_stride_body::<FMA, 1>(amps, m),
            2 => return small_stride_body::<FMA, 2>(amps, m),
            4 => return small_stride_body::<FMA, 4>(amps, m),
            _ => {}
        }
    }
    let block = stride << 1;
    for (bi, blk) in amps.chunks_exact_mut(block).enumerate() {
        let lo = base + bi * block;
        if let Ctrl::Block(mask) = ctrl {
            if lo as u64 & mask == 0 {
                continue;
            }
        }
        let (blo, bhi) = blk.split_at_mut(stride);
        if let Ctrl::Run(run) = ctrl {
            kernel::for_each_ctrl_run(0, stride, run, |a, b| {
                run_pairs::<FMA>(&mut blo[a..b], &mut bhi[a..b], m);
            });
        } else {
            run_pairs::<FMA>(blo, bhi, m);
        }
    }
}

/// [`region_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn region_fma(amps: &mut [Complex64], stride: usize, base: usize, m: &Matrix2, ctrl: Ctrl) {
    region_body::<true>(amps, stride, base, m, ctrl)
}

/// Runtime-dispatched region sweep.
fn sweep_region(amps: &mut [Complex64], stride: usize, base: usize, m: &Matrix2, ctrl: Ctrl) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { region_fma(amps, stride, base, m, ctrl) };
        return;
    }
    region_body::<false>(amps, stride, base, m, ctrl)
}

/// Sweeps one zipped sub-chunk of the single top-qubit block (see the
/// SoA twin for the half-index/control-bit argument).
#[inline(always)]
fn halves_body<const FMA: bool>(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    match run_ctrl {
        None => run_pairs::<FMA>(lo, hi, m),
        Some(run) => kernel::for_each_ctrl_run(base, lo.len(), run, |a, b| {
            let (a, b) = (a - base, b - base);
            run_pairs::<FMA>(&mut lo[a..b], &mut hi[a..b], m);
        }),
    }
}

/// [`halves_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn halves_fma(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    halves_body::<true>(lo, hi, base, m, run_ctrl)
}

/// Runtime-dispatched top-qubit sweep.
fn sweep_halves(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { halves_fma(lo, hi, base, m, run_ctrl) };
        return;
    }
    halves_body::<false>(lo, hi, base, m, run_ctrl)
}

/// Distributed combine over amplitudes `[start, start + amps.len())`.
#[inline(always)]
fn combine_body<const FMA: bool>(
    amps: &mut [Complex64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    #[inline(always)]
    fn run<const FMA: bool>(
        amps: &mut [Complex64],
        payload: &[u8],
        c_mine: Complex64,
        c_theirs: Complex64,
    ) {
        for (mine, theirs) in amps.iter_mut().zip(payload.chunks_exact(AMP_BYTES)) {
            *mine = kernel::combine_term::<FMA>(c_mine, *mine, c_theirs, kernel::wire_amp(theirs));
        }
    }
    match ctrl_run {
        None => run::<FMA>(amps, payload, c_mine, c_theirs),
        Some(len) => kernel::for_each_ctrl_run(start, amps.len(), len, |a, b| {
            let (a, b) = (a - start, b - start);
            let bytes = &payload[a * AMP_BYTES..b * AMP_BYTES];
            run::<FMA>(&mut amps[a..b], bytes, c_mine, c_theirs);
        }),
    }
}

/// [`combine_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn combine_fma(
    amps: &mut [Complex64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    combine_body::<true>(amps, payload, start, c_mine, c_theirs, ctrl_run)
}

/// Runtime-dispatched combine sweep.
fn sweep_combine(
    amps: &mut [Complex64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { combine_fma(amps, payload, start, c_mine, c_theirs, ctrl_run) };
        return;
    }
    combine_body::<false>(amps, payload, start, c_mine, c_theirs, ctrl_run)
}

/// The diagonal kernel is defined once, over split `re`/`im` slices
/// ([`CompiledDiagonal::apply_block`]); this layout feeds it one tile at
/// a time through stack buffers, so both layouts run the same arithmetic.
fn diagonal_block(amps: &mut [Complex64], base: u64, run: &CompiledDiagonal) {
    let mut re = [0.0f64; TILE];
    let mut im = [0.0f64; TILE];
    for (ti, tile) in amps.chunks_mut(TILE).enumerate() {
        let (re, im) = (&mut re[..tile.len()], &mut im[..tile.len()]);
        for (k, a) in tile.iter().enumerate() {
            (re[k], im[k]) = (a.re, a.im);
        }
        run.apply_block(re, im, base | (ti * TILE) as u64);
        for (k, a) in tile.iter_mut().enumerate() {
            *a = Complex64::new(re[k], im[k]);
        }
    }
}

/// Contiguous orbit swaps for qubits `a < b` (see the SoA twin).
#[inline(always)]
fn swap_runs(lo: &mut [Complex64], hi: &mut [Complex64], run: usize) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len() % (run << 1), 0);
    let mut o = run;
    while o < lo.len() {
        lo[o..o + run].swap_with_slice(&mut hi[o - run..o]);
        o += run << 1;
    }
}

impl AmpStorage for AosStorage {
    fn zeros(len: usize) -> Self {
        assert!(bits::is_pow2(len as u64), "length must be a power of two");
        let mut s = AosStorage {
            amps: vec![Complex64::ZERO; len],
        };
        // First-touch: fault pages in on their affine owner slots.
        s.fill_zero();
        s
    }

    #[inline]
    fn len(&self) -> usize {
        self.amps.len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> Complex64 {
        self.amps[i]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, v: Complex64) {
        self.amps[i] = v;
    }

    fn fill_zero(&mut self) {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<&mut [Complex64]> = self.amps.chunks_mut(HALF_CHUNK).collect();
            parallel_for_each_affine(chunks, |c| c.fill(Complex64::ZERO));
        } else {
            self.amps.fill(Complex64::ZERO);
        }
    }

    fn norm_sqr_sum(&self) -> f64 {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<&[Complex64]> = self.amps.chunks(HALF_CHUNK).collect();
            parallel_map_sum(chunks, |c| c.iter().map(|a| a.norm_sqr()).sum())
        } else {
            self.amps.iter().map(|a| a.norm_sqr()).sum()
        }
    }

    fn apply_pairs(&mut self, q: u32, m: &Matrix2, control: Option<u32>) {
        let len = self.len();
        let stride = 1usize << q;
        let block = stride << 1;
        assert!(block <= len, "qubit {q} out of range for {len} amplitudes");
        if let Some(c) = control {
            debug_assert_ne!(c, q, "control equals target");
        }
        let ctrl = Ctrl::new(q, control);
        if len >= PAR_THRESHOLD && block < len {
            let m = *m;
            // Batch several blocks per work item (see SoA kernel).
            let blocks_per_task = (HALF_CHUNK / block).max(1);
            let task = block * blocks_per_task;
            let chunks: Vec<(usize, &mut [Complex64])> =
                self.amps.chunks_mut(task).enumerate().collect();
            parallel_for_each_affine(chunks, |(ti, tc)| {
                sweep_region(tc, stride, ti * task, &m, ctrl);
            });
        } else if len >= PAR_THRESHOLD {
            // Single block: q is the top local qubit, so any control sits
            // below it.
            let m = *m;
            let run_ctrl = control.map(|c| 1usize << c);
            let (lo, hi) = self.amps.split_at_mut(stride);
            let chunks: Vec<(usize, &mut [Complex64], &mut [Complex64])> = lo
                .chunks_mut(HALF_CHUNK)
                .zip(hi.chunks_mut(HALF_CHUNK))
                .enumerate()
                .map(|(ci, (lc, hc))| (ci, lc, hc))
                .collect();
            parallel_for_each_affine(chunks, |(ci, lc, hc)| {
                sweep_halves(lc, hc, ci * HALF_CHUNK, &m, run_ctrl);
            });
        } else {
            sweep_region(&mut self.amps, stride, 0, m, ctrl);
        }
    }

    fn apply_fused_diagonal(&mut self, offset: u64, run: &CompiledDiagonal) {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<(usize, &mut [Complex64])> =
                self.amps.chunks_mut(HALF_CHUNK).enumerate().collect();
            parallel_for_each_affine(chunks, |(ci, chunk)| {
                diagonal_block(chunk, offset | (ci * HALF_CHUNK) as u64, run);
            });
        } else {
            diagonal_block(&mut self.amps, offset, run);
        }
    }

    fn swap_local(&mut self, a: u32, b: u32) {
        assert_ne!(a, b, "swap qubits must differ");
        let len = self.len();
        let (a, b) = (a.min(b), a.max(b));
        let run = 1usize << a;
        let seg = 1usize << b;
        let group = seg << 1;
        assert!(group <= len, "qubit {b} out of range for {len} amplitudes");
        if len >= PAR_THRESHOLD && group < len {
            let per = (HALF_CHUNK / group).max(1);
            let task = group * per;
            let chunks: Vec<&mut [Complex64]> = self.amps.chunks_mut(task).collect();
            parallel_for_each_affine(chunks, |tc| {
                for g in tc.chunks_exact_mut(group) {
                    let (lo, hi) = g.split_at_mut(seg);
                    swap_runs(lo, hi, run);
                }
            });
        } else if len >= PAR_THRESHOLD {
            // b is the top local qubit: zip-chunk the halves, keeping
            // chunks aligned to the 2^(a+1) run period.
            let chunk = HALF_CHUNK.max(run << 1);
            let (lo, hi) = self.amps.split_at_mut(seg);
            let items: Vec<(&mut [Complex64], &mut [Complex64])> =
                lo.chunks_mut(chunk).zip(hi.chunks_mut(chunk)).collect();
            parallel_for_each_affine(items, |(lc, hc)| swap_runs(lc, hc, run));
        } else {
            for g in self.amps.chunks_exact_mut(group) {
                let (lo, hi) = g.split_at_mut(seg);
                swap_runs(lo, hi, run);
            }
        }
    }

    fn apply_distributed_1q_range(
        &mut self,
        c_mine: Complex64,
        c_theirs: Complex64,
        payload: &[u8],
        start: usize,
        control: Option<u32>,
    ) {
        let n = super::wire_amps(payload);
        assert!(start + n <= self.len(), "payload beyond local slice");
        let ctrl_run = control.map(|c| 1usize << c);
        let amps = &mut self.amps[start..start + n];
        if n >= RANGE_PAR_THRESHOLD {
            let chunks: Vec<(usize, &mut [Complex64], &[u8])> = amps
                .chunks_mut(HALF_CHUNK)
                .zip(payload.chunks(HALF_CHUNK * AMP_BYTES))
                .enumerate()
                .map(|(ci, (ac, tc))| (ci, ac, tc))
                .collect();
            parallel_for_each_affine(chunks, |(ci, ac, tc)| {
                sweep_combine(ac, tc, start + ci * HALF_CHUNK, c_mine, c_theirs, ctrl_run);
            });
        } else {
            sweep_combine(amps, payload, start, c_mine, c_theirs, ctrl_run);
        }
    }

    fn pack_range(&self, start: usize, n: usize, out: &mut Vec<u8>) {
        out.extend(
            self.amps[start..start + n]
                .iter()
                .flat_map(|&a| kernel::amp_to_wire(a)),
        );
    }

    fn copy_from_f64_range(&mut self, payload: &[u8], start: usize) {
        let n = super::wire_amps(payload);
        assert!(start + n <= self.len(), "payload beyond local slice");
        for (slot, amp) in self.amps[start..start + n]
            .iter_mut()
            .zip(payload.chunks_exact(AMP_BYTES))
        {
            *slot = kernel::wire_amp(amp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_complex_close;

    #[test]
    fn conformance_suite() {
        crate::storage::conformance::run_all::<AosStorage>();
    }

    #[test]
    fn local_run_conformance() {
        // AoS runs the trait's op-by-op definition; the runs are the
        // ones the SoA suite blocks at 2^3, 2^5 and 2^7.
        for len in [1usize << 9, PAR_THRESHOLD] {
            for bits in [3u32, 5, 7] {
                crate::storage::conformance::local_run_matches_gate_at_a_time::<AosStorage>(
                    len,
                    bits,
                    AosStorage::apply_local_run,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_rejected() {
        AosStorage::zeros(12);
    }

    #[test]
    fn layouts_agree_on_random_sweeps() {
        // Same gate sequence on both layouts yields identical amplitudes.
        use crate::storage::SoaStorage;
        use qse_circuit::Gate;
        let n = 512;
        let mut soa = SoaStorage::zeros(n);
        let mut aos = AosStorage::zeros(n);
        soa.set(0, Complex64::ONE);
        aos.set(0, Complex64::ONE);
        let h = {
            let v = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
            Matrix2::new(v, v, v, -v)
        };
        for q in 0..9u32 {
            soa.apply_pairs(q, &h, None);
            aos.apply_pairs(q, &h, None);
        }
        soa.swap_local(0, 8);
        aos.swap_local(0, 8);
        let run = CompiledDiagonal::compile(&[
            Gate::CPhase {
                a: 1,
                b: 6,
                theta: 0.7,
            },
            Gate::Rz {
                target: 8,
                theta: -0.3,
            },
        ]);
        soa.apply_fused_diagonal(0, &run);
        aos.apply_fused_diagonal(0, &run);
        for i in 0..n {
            assert_complex_close(soa.get(i), aos.get(i), 1e-12);
        }
    }
}
