//! Structure-of-arrays layout: separate real and imaginary arrays.
//!
//! This is QuEST's native layout (`qreal *stateVecReal, *stateVecImag`).
//! Sweeps read two independent streams; the layout benchmark compares it
//! against the interleaved [`super::AosStorage`].
//!
//! The sweep bodies are written for auto-vectorization: every inner loop
//! runs over four equal-length re/im sub-slices re-sliced to a shared
//! length (so the compiler drops bounds checks), the control test is
//! hoisted out of the element loop (see [`kernel::Ctrl`]), and the whole
//! body is compiled twice — once inside an AVX2+FMA `#[target_feature]`
//! wrapper, once at baseline features — with the flavour picked at
//! runtime by [`kernel::use_fma`]. Parallel sweeps dispatch through
//! [`parallel_for_each_affine`], so a given worker slot always sweeps
//! the same contiguous amplitude range that it first-touched in
//! [`AmpStorage::zeros`].

use super::kernel::{self, Ctrl};
use super::{
    local_block_bits, AmpStorage, AMP_BYTES, HALF_CHUNK, PAR_THRESHOLD, RANGE_PAR_THRESHOLD,
};
use crate::diagonal::CompiledDiagonal;
use crate::schedule::{LocalOp, LocalRun};
use qse_math::bits;
use qse_math::{Complex64, Matrix2};
use qse_util::parallel::{parallel_for_each_affine, parallel_map_sum};

/// Separate `re[]` / `im[]` amplitude arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaStorage {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Innermost pair loop: updates `(lo[k], hi[k])` for every `k`. All four
/// slices have the same length; the re-slicing below proves it to the
/// compiler so the loop vectorizes without bounds checks.
#[inline(always)]
fn run_pairs<const FMA: bool>(
    rlo: &mut [f64],
    ilo: &mut [f64],
    rhi: &mut [f64],
    ihi: &mut [f64],
    m: &Matrix2,
) {
    let n = rlo.len();
    let (ilo, rhi, ihi) = (&mut ilo[..n], &mut rhi[..n], &mut ihi[..n]);
    for k in 0..n {
        let (r0, i0, r1, i1) = kernel::pair_terms::<FMA>(rlo[k], ilo[k], rhi[k], ihi[k], m);
        rlo[k] = r0;
        ilo[k] = i0;
        rhi[k] = r1;
        ihi[k] = i1;
    }
}

/// Pair sweep for strides below the vector width: the per-block trip
/// count is tiny, so the stride must be a compile-time constant for the
/// compiler to vectorize across block boundaries.
#[inline(always)]
fn small_stride_body<const FMA: bool, const STRIDE: usize>(
    rc: &mut [f64],
    ic: &mut [f64],
    m: &Matrix2,
) {
    for (rb, ib) in rc
        .chunks_exact_mut(2 * STRIDE)
        .zip(ic.chunks_exact_mut(2 * STRIDE))
    {
        let (rlo, rhi) = rb.split_at_mut(STRIDE);
        let (ilo, ihi) = ib.split_at_mut(STRIDE);
        for k in 0..STRIDE {
            let (r0, i0, r1, i1) = kernel::pair_terms::<FMA>(rlo[k], ilo[k], rhi[k], ihi[k], m);
            rlo[k] = r0;
            ilo[k] = i0;
            rhi[k] = r1;
            ihi[k] = i1;
        }
    }
}

/// Sweeps a contiguous region of whole `2·stride` blocks whose first
/// amplitude has local index `base`.
#[inline(always)]
fn region_body<const FMA: bool>(
    rc: &mut [f64],
    ic: &mut [f64],
    stride: usize,
    base: usize,
    m: &Matrix2,
    ctrl: Ctrl,
) {
    if matches!(ctrl, Ctrl::All) {
        match stride {
            1 => return small_stride_body::<FMA, 1>(rc, ic, m),
            2 => return small_stride_body::<FMA, 2>(rc, ic, m),
            4 => return small_stride_body::<FMA, 4>(rc, ic, m),
            _ => {}
        }
    }
    let block = stride << 1;
    for (bi, (rb, ib)) in rc
        .chunks_exact_mut(block)
        .zip(ic.chunks_exact_mut(block))
        .enumerate()
    {
        let lo = base + bi * block;
        if let Ctrl::Block(mask) = ctrl {
            if lo as u64 & mask == 0 {
                continue;
            }
        }
        let (rlo, rhi) = rb.split_at_mut(stride);
        let (ilo, ihi) = ib.split_at_mut(stride);
        if let Ctrl::Run(run) = ctrl {
            kernel::for_each_ctrl_run(0, stride, run, |a, b| {
                run_pairs::<FMA>(
                    &mut rlo[a..b],
                    &mut ilo[a..b],
                    &mut rhi[a..b],
                    &mut ihi[a..b],
                    m,
                );
            });
        } else {
            run_pairs::<FMA>(rlo, ilo, rhi, ihi, m);
        }
    }
}

/// [`region_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn region_fma(
    rc: &mut [f64],
    ic: &mut [f64],
    stride: usize,
    base: usize,
    m: &Matrix2,
    ctrl: Ctrl,
) {
    region_body::<true>(rc, ic, stride, base, m, ctrl)
}

/// Runtime-dispatched region sweep: one flavour check per work item,
/// amortized over thousands of amplitudes.
fn sweep_region(rc: &mut [f64], ic: &mut [f64], stride: usize, base: usize, m: &Matrix2, ctrl: Ctrl) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { region_fma(rc, ic, stride, base, m, ctrl) };
        return;
    }
    region_body::<false>(rc, ic, stride, base, m, ctrl)
}

/// Sweeps one zipped sub-chunk of the single top-qubit block: `rl`/`il`
/// hold lower-half amplitudes `[base, base + len)`, `rh`/`ih` the
/// matching upper-half amplitudes. A control here is always below the
/// target (the target is the top local qubit), so it arrives as a run
/// length; half-indices and full indices agree on every bit below `q`.
#[inline(always)]
fn halves_body<const FMA: bool>(
    rl: &mut [f64],
    il: &mut [f64],
    rh: &mut [f64],
    ih: &mut [f64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    match run_ctrl {
        None => run_pairs::<FMA>(rl, il, rh, ih, m),
        Some(run) => kernel::for_each_ctrl_run(base, rl.len(), run, |a, b| {
            let (a, b) = (a - base, b - base);
            run_pairs::<FMA>(
                &mut rl[a..b],
                &mut il[a..b],
                &mut rh[a..b],
                &mut ih[a..b],
                m,
            );
        }),
    }
}

/// [`halves_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn halves_fma(
    rl: &mut [f64],
    il: &mut [f64],
    rh: &mut [f64],
    ih: &mut [f64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    halves_body::<true>(rl, il, rh, ih, base, m, run_ctrl)
}

/// Runtime-dispatched top-qubit sweep.
fn sweep_halves(
    rl: &mut [f64],
    il: &mut [f64],
    rh: &mut [f64],
    ih: &mut [f64],
    base: usize,
    m: &Matrix2,
    run_ctrl: Option<usize>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { halves_fma(rl, il, rh, ih, base, m, run_ctrl) };
        return;
    }
    halves_body::<false>(rl, il, rh, ih, base, m, run_ctrl)
}

/// Distributed combine over amplitudes `[start, start + rs.len())`, with
/// `payload` holding the peer's wire bytes for the same range.
#[inline(always)]
fn combine_body<const FMA: bool>(
    rs: &mut [f64],
    is: &mut [f64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    #[inline(always)]
    fn run<const FMA: bool>(
        rs: &mut [f64],
        is: &mut [f64],
        payload: &[u8],
        c_mine: Complex64,
        c_theirs: Complex64,
    ) {
        for ((r, i), theirs) in rs
            .iter_mut()
            .zip(is.iter_mut())
            .zip(payload.chunks_exact(AMP_BYTES))
        {
            let v = kernel::combine_term::<FMA>(
                c_mine,
                Complex64::new(*r, *i),
                c_theirs,
                kernel::wire_amp(theirs),
            );
            *r = v.re;
            *i = v.im;
        }
    }
    match ctrl_run {
        None => run::<FMA>(rs, is, payload, c_mine, c_theirs),
        Some(len) => kernel::for_each_ctrl_run(start, rs.len(), len, |a, b| {
            let (a, b) = (a - start, b - start);
            let bytes = &payload[a * AMP_BYTES..b * AMP_BYTES];
            run::<FMA>(&mut rs[a..b], &mut is[a..b], bytes, c_mine, c_theirs);
        }),
    }
}

/// [`combine_body`] compiled with AVX2+FMA codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn combine_fma(
    rs: &mut [f64],
    is: &mut [f64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    combine_body::<true>(rs, is, payload, start, c_mine, c_theirs, ctrl_run)
}

/// Runtime-dispatched combine sweep.
#[allow(clippy::too_many_arguments)]
fn sweep_combine(
    rs: &mut [f64],
    is: &mut [f64],
    payload: &[u8],
    start: usize,
    c_mine: Complex64,
    c_theirs: Complex64,
    ctrl_run: Option<usize>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2+fma support on this CPU.
        unsafe { combine_fma(rs, is, payload, start, c_mine, c_theirs, ctrl_run) };
        return;
    }
    combine_body::<false>(rs, is, payload, start, c_mine, c_theirs, ctrl_run)
}

/// Swaps `lo[o..o+run]` with `hi[o-run..o]` for every in-slice run start
/// `o` with the run bit set — the contiguous form of the orbit swaps
/// for qubits `a < b`, where `lo` is a bit-`b` = 0 range, `hi` the
/// matching bit-`b` = 1 range, and `run = 2^a`. Each orbit is touched
/// exactly once, matching the sequential orbit enumeration.
#[inline(always)]
fn swap_runs(lo: &mut [f64], hi: &mut [f64], run: usize) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len() % (run << 1), 0);
    let mut o = run;
    while o < lo.len() {
        lo[o..o + run].swap_with_slice(&mut hi[o - run..o]);
        o += run << 1;
    }
}

/// Swaps qubits `a < b` within a region of whole `2^(b+1)` groups: each
/// group holds complete orbits, the bit-`b` = 0 element with bit `a` set
/// at group offset `o` trading places with the bit-`b` = 1 element at
/// offset `o − 2^a` of the upper segment.
fn swap_groups(rc: &mut [f64], ic: &mut [f64], a: u32, b: u32) {
    let seg = 1usize << b;
    for (rg, ig) in rc
        .chunks_exact_mut(seg << 1)
        .zip(ic.chunks_exact_mut(seg << 1))
    {
        let (rl, rh) = rg.split_at_mut(seg);
        let (il, ih) = ig.split_at_mut(seg);
        swap_runs(rl, rh, 1 << a);
        swap_runs(il, ih, 1 << a);
    }
}

/// Takes one block of a local run through every op, in program order.
/// `base` is the block's first local index, `offset` the slice's first
/// global index, `slice_bits` the slice width.
fn local_block(
    rc: &mut [f64],
    ic: &mut [f64],
    base: usize,
    offset: u64,
    slice_bits: u32,
    run: &LocalRun,
) {
    for op in run.ops() {
        match op {
            LocalOp::Diagonal(d) => d.apply_block(rc, ic, offset | base as u64),
            LocalOp::Pairs {
                target,
                matrix,
                control,
            } => {
                if let Some(control) = LocalOp::pair_control(*control, slice_bits, offset) {
                    let ctrl = Ctrl::new(*target, control);
                    sweep_region(rc, ic, 1 << target, base, matrix, ctrl);
                }
            }
            &LocalOp::Swap(a, b) => swap_groups(rc, ic, a.min(b), a.max(b)),
        }
    }
}

impl SoaStorage {
    /// [`AmpStorage::apply_local_run`] in blocks of `2^block_bits`
    /// amplitudes, or one block when the slice is shorter. The product
    /// always blocks at [`local_block_bits`]; the storage suite passes
    /// smaller sizes so that small slices span many blocks.
    pub(crate) fn apply_local_run_in_blocks(
        &mut self,
        offset: u64,
        run: &LocalRun,
        block_bits: u32,
    ) {
        let len = self.len();
        let block = (1usize << block_bits).min(len);
        assert!(
            1usize << run.span_bits() <= block,
            "a run spanning {} bits does not fit {block}-amplitude blocks",
            run.span_bits()
        );
        let slice_bits = len.trailing_zeros();
        let blocks = self
            .re
            .chunks_mut(block)
            .zip(self.im.chunks_mut(block))
            .enumerate()
            .map(|(bi, (rc, ic))| (bi * block, rc, ic));
        let apply = |(base, rc, ic)| local_block(rc, ic, base, offset, slice_bits, run);
        if len >= PAR_THRESHOLD && block < len {
            let items: Vec<(usize, &mut [f64], &mut [f64])> = blocks.collect();
            parallel_for_each_affine(items, apply);
        } else {
            blocks.for_each(apply);
        }
    }
}

impl AmpStorage for SoaStorage {
    fn zeros(len: usize) -> Self {
        assert!(bits::is_pow2(len as u64), "length must be a power of two");
        let mut s = SoaStorage {
            re: vec![0.0; len],
            im: vec![0.0; len],
        };
        // First-touch: fault every page in on the worker slot that the
        // affine partition will route back to it on every later sweep.
        s.fill_zero();
        s
    }

    #[inline]
    fn len(&self) -> usize {
        self.re.len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> Complex64 {
        Complex64::new(self.re[i], self.im[i])
    }

    #[inline(always)]
    fn set(&mut self, i: usize, v: Complex64) {
        self.re[i] = v.re;
        self.im[i] = v.im;
    }

    fn fill_zero(&mut self) {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<(&mut [f64], &mut [f64])> = self
                .re
                .chunks_mut(HALF_CHUNK)
                .zip(self.im.chunks_mut(HALF_CHUNK))
                .collect();
            parallel_for_each_affine(chunks, |(rc, ic)| {
                rc.fill(0.0);
                ic.fill(0.0);
            });
        } else {
            self.re.fill(0.0);
            self.im.fill(0.0);
        }
    }

    fn norm_sqr_sum(&self) -> f64 {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<(&[f64], &[f64])> = self
                .re
                .chunks(HALF_CHUNK)
                .zip(self.im.chunks(HALF_CHUNK))
                .collect();
            parallel_map_sum(chunks, |(rc, ic)| {
                rc.iter().zip(ic).map(|(r, i)| r * r + i * i).sum()
            })
        } else {
            self.re
                .iter()
                .zip(self.im.iter())
                .map(|(r, i)| r * r + i * i)
                .sum()
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
            // Batch several blocks per work item: one item per 2·stride
            // block would swamp the pool with tiny work items at low
            // qubit indices.
            let blocks_per_task = (HALF_CHUNK / block).max(1);
            let task = block * blocks_per_task;
            let chunks: Vec<(usize, &mut [f64], &mut [f64])> = self
                .re
                .chunks_mut(task)
                .zip(self.im.chunks_mut(task))
                .enumerate()
                .map(|(ti, (rc, ic))| (ti, rc, ic))
                .collect();
            parallel_for_each_affine(chunks, |(ti, rc, ic)| {
                sweep_region(rc, ic, stride, ti * task, &m, ctrl);
            });
        } else if len >= PAR_THRESHOLD {
            // Single block: q is the top local qubit, so any control sits
            // below it. Parallelise over the zipped lower/upper halves.
            let m = *m;
            let run_ctrl = control.map(|c| 1usize << c);
            let (rlo, rhi) = self.re.split_at_mut(stride);
            let (ilo, ihi) = self.im.split_at_mut(stride);
            type HalfItem<'a> = (usize, &'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);
            let chunks: Vec<HalfItem<'_>> = rlo
                .chunks_mut(HALF_CHUNK)
                .zip(rhi.chunks_mut(HALF_CHUNK))
                .zip(
                    ilo.chunks_mut(HALF_CHUNK)
                        .zip(ihi.chunks_mut(HALF_CHUNK)),
                )
                .enumerate()
                .map(|(ci, ((rl, rh), (il, ih)))| (ci, rl, il, rh, ih))
                .collect();
            parallel_for_each_affine(chunks, |(ci, rl, il, rh, ih)| {
                sweep_halves(rl, il, rh, ih, ci * HALF_CHUNK, &m, run_ctrl);
            });
        } else {
            sweep_region(&mut self.re, &mut self.im, stride, 0, m, ctrl);
        }
    }

    fn apply_fused_diagonal(&mut self, offset: u64, run: &CompiledDiagonal) {
        if self.len() >= PAR_THRESHOLD {
            let chunks: Vec<(usize, &mut [f64], &mut [f64])> = self
                .re
                .chunks_mut(HALF_CHUNK)
                .zip(self.im.chunks_mut(HALF_CHUNK))
                .enumerate()
                .map(|(ci, (rc, ic))| (ci, rc, ic))
                .collect();
            parallel_for_each_affine(chunks, |(ci, rc, ic)| {
                run.apply_block(rc, ic, offset | (ci * HALF_CHUNK) as u64);
            });
        } else {
            run.apply_block(&mut self.re, &mut self.im, offset);
        }
    }

    fn apply_local_run(&mut self, offset: u64, run: &LocalRun) {
        let block_bits = local_block_bits(self.len().trailing_zeros());
        self.apply_local_run_in_blocks(offset, run, block_bits);
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
            let chunks: Vec<(&mut [f64], &mut [f64])> = self
                .re
                .chunks_mut(task)
                .zip(self.im.chunks_mut(task))
                .collect();
            parallel_for_each_affine(chunks, |(rc, ic)| swap_groups(rc, ic, a, b));
        } else if len >= PAR_THRESHOLD {
            // b is the top local qubit: zip-chunk the halves, keeping
            // chunks aligned to the 2^(a+1) run period.
            let chunk = HALF_CHUNK.max(run << 1);
            let (rl, rh) = self.re.split_at_mut(seg);
            let (il, ih) = self.im.split_at_mut(seg);
            type SwapItem<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);
            let items: Vec<SwapItem<'_>> = rl
                .chunks_mut(chunk)
                .zip(rh.chunks_mut(chunk))
                .zip(il.chunks_mut(chunk).zip(ih.chunks_mut(chunk)))
                .map(|((rl, rh), (il, ih))| (rl, rh, il, ih))
                .collect();
            parallel_for_each_affine(items, |(rl, rh, il, ih)| {
                swap_runs(rl, rh, run);
                swap_runs(il, ih, run);
            });
        } else {
            swap_groups(&mut self.re, &mut self.im, a, b);
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
        let rs = &mut self.re[start..start + n];
        let is = &mut self.im[start..start + n];
        if n >= RANGE_PAR_THRESHOLD {
            let chunks: Vec<(usize, &mut [f64], &mut [f64], &[u8])> = rs
                .chunks_mut(HALF_CHUNK)
                .zip(is.chunks_mut(HALF_CHUNK))
                .zip(payload.chunks(HALF_CHUNK * AMP_BYTES))
                .enumerate()
                .map(|(ci, ((rc, ic), tc))| (ci, rc, ic, tc))
                .collect();
            parallel_for_each_affine(chunks, |(ci, rc, ic, tc)| {
                sweep_combine(rc, ic, tc, start + ci * HALF_CHUNK, c_mine, c_theirs, ctrl_run);
            });
        } else {
            sweep_combine(rs, is, payload, start, c_mine, c_theirs, ctrl_run);
        }
    }

    fn pack_range(&self, start: usize, n: usize, out: &mut Vec<u8>) {
        let (re, im) = (&self.re[start..start + n], &self.im[start..start + n]);
        out.extend(
            re.iter()
                .zip(im)
                .flat_map(|(&r, &i)| kernel::amp_to_wire(Complex64::new(r, i))),
        );
    }

    fn copy_from_f64_range(&mut self, payload: &[u8], start: usize) {
        let n = super::wire_amps(payload);
        assert!(start + n <= self.len(), "payload beyond local slice");
        for ((r, i), amp) in self.re[start..start + n]
            .iter_mut()
            .zip(&mut self.im[start..start + n])
            .zip(payload.chunks_exact(AMP_BYTES))
        {
            let a = kernel::wire_amp(amp);
            *r = a.re;
            *i = a.im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_suite() {
        crate::storage::conformance::run_all::<SoaStorage>();
    }

    #[test]
    fn local_run_conformance() {
        use crate::storage::conformance::local_run_matches_gate_at_a_time;
        // Small blocks through the test seam, on a sequential and a
        // pool-sized slice.
        for len in [1usize << 9, PAR_THRESHOLD] {
            for bits in [3u32, 5, 7] {
                local_run_matches_gate_at_a_time::<SoaStorage>(len, bits, |s, offset, run| {
                    s.apply_local_run_in_blocks(offset, run, bits)
                });
            }
        }
        // The product blocks: a pool-sized slice cut in two, and a slice
        // of two `LOCAL_BLOCK`s.
        for len in [PAR_THRESHOLD, 2 * crate::storage::LOCAL_BLOCK] {
            let bits = local_block_bits(len.trailing_zeros());
            assert_eq!(len >> bits, 2);
            local_run_matches_gate_at_a_time::<SoaStorage>(len, bits, SoaStorage::apply_local_run);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn local_run_wider_than_a_block_rejected() {
        let mut run = LocalRun::default();
        run.push(&qse_circuit::Gate::H(4));
        SoaStorage::zeros(64).apply_local_run_in_blocks(0, &run, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_rejected() {
        SoaStorage::zeros(6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qubit_out_of_range_rejected() {
        SoaStorage::zeros(8).apply_pairs(3, &Matrix2::identity(), None);
    }

    #[test]
    #[should_panic(expected = "whole amplitudes")]
    fn payload_cutting_an_amplitude_rejected() {
        SoaStorage::zeros(8).apply_distributed_1q_range(
            Complex64::ONE,
            Complex64::ZERO,
            &[0u8; 24],
            0,
            None,
        );
    }
}
