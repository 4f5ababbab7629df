//! Structure-of-arrays layout: separate real and imaginary arrays.
//!
//! This is QuEST's native layout (`qreal *stateVecReal, *stateVecImag`).
//! Sweeps read two independent streams.
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
//! [`SoaStorage::zeros`].

use super::kernel::{self, Ctrl};
use super::{
    local_block_bits, wire_amps, Matrix4, AMP_BYTES, HALF_CHUNK, PAR_THRESHOLD, RANGE_PAR_THRESHOLD,
};
use crate::diagonal::CompiledDiagonal;
use crate::schedule::{LocalOp, LocalRun};
use qse_math::bits;
use qse_math::{Complex64, Matrix2};
use qse_util::parallel::{parallel_for_each_affine, parallel_map_sum};
use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use std::ptr::NonNull;

/// Separate `re[]` / `im[]` amplitude arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaStorage {
    re: Plane,
    im: Plane,
}

/// Component arrays of at least this many doubles (8 MiB) get an
/// anonymous mapping of their own instead of a heap block.
///
/// glibc's malloc serves a block under its mmap threshold — which rises,
/// up to 32 MiB, to the largest block freed so far — from a per-thread
/// arena, and an arena keeps up to twice that threshold of freed memory
/// resident. Rank threads are spawned per run and inherit whichever
/// arena the previous run's threads released first, so with heap arrays
/// a run's resident peak moved by whole arrays from one run to the next
/// (73–151 MiB over ten 22-qubit, two-rank runs on a two-core VM). A
/// mapping of its own is faulted in on first touch and unmapped on drop,
/// the same on every run; it asks for transparent huge pages, so that
/// first touch costs a fault per 2 MiB rather than per 4 KiB. Below the
/// cutoff a warm arena block is worth more than a fresh mapping's
/// faults: fixing glibc's mmap threshold at 4 MiB for the whole process
/// slowed a 20-qubit, two-rank QFT by a third on the same VM.
const MAPPED_MIN_LEN: usize = 1 << 20;

/// One component array (`re` or `im`) of a [`SoaStorage`]: a heap
/// vector, or from [`MAPPED_MIN_LEN`] doubles up a [`Mapping`].
enum Plane {
    Heap(Vec<f64>),
    Mapped(Mapping),
}

impl Plane {
    fn zeros(len: usize) -> Plane {
        if len >= MAPPED_MIN_LEN {
            if let Some(m) = Mapping::zeroed(len) {
                return Plane::Mapped(m);
            }
        }
        Plane::Heap(vec![0.0; len])
    }
}

impl Deref for Plane {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match self {
            Plane::Heap(v) => v,
            Plane::Mapped(m) => m.as_slice(),
        }
    }
}

impl DerefMut for Plane {
    fn deref_mut(&mut self) -> &mut [f64] {
        match self {
            Plane::Heap(v) => v,
            Plane::Mapped(m) => m.as_mut_slice(),
        }
    }
}

impl Clone for Plane {
    fn clone(&self) -> Plane {
        let mut copy = Plane::zeros(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for Plane {
    fn eq(&self, other: &Plane) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// `len` doubles in a private anonymous mapping, zero-filled by the
/// kernel and unmapped on drop. Huge pages leave first-touch placement
/// ([`SoaStorage::zeros`]) intact at 2 MiB granularity: each worker's
/// affine share of a mapped array is megabytes long.
struct Mapping {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: a `Mapping` owns its pages exclusively, as a `Vec<f64>` owns
// its buffer; shared access only ever reads through `&self`.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send` — `&Mapping` hands out `&[f64]` only.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// A fresh mapping of `len` zeros, or `None` where the platform has
    /// none or the kernel refuses it.
    fn zeroed(len: usize) -> Option<Mapping> {
        let bytes = len.checked_mul(std::mem::size_of::<f64>())?;
        let ptr = os::map(bytes)?.cast::<f64>();
        Some(Mapping { ptr, len })
    }

    fn as_slice(&self) -> &[f64] {
        // SAFETY: `ptr` heads `len` doubles, page-aligned, initialised
        // (zero-filled) and owned by `self` for the borrow's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: the pages were mapped by `os::map` with exactly this
        // size and no slice of them outlives `self`.
        unsafe { os::unmap(self.ptr.cast(), self.len * std::mem::size_of::<f64>()) }
    }
}

/// `mmap`/`munmap` on the 64-bit Linux targets whose flag values are
/// written here.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod os {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub fn map(bytes: usize) -> Option<NonNull<u8>> {
        // SAFETY: a private anonymous mapping at an address of the
        // kernel's choosing aliases no memory of this process.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is the all-ones address.
        if p.addr() == usize::MAX {
            return None;
        }
        // SAFETY: advice on a range this call just mapped; it changes
        // page size only, never contents. Refused advice (THP off) is
        // harmless, so its result is not read.
        unsafe { madvise(p, bytes, MADV_HUGEPAGE) };
        NonNull::new(p.cast::<u8>())
    }

    /// SAFETY: `ptr` and `bytes` must be a live mapping returned by
    /// [`map`], with no reference into it left.
    pub unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // SAFETY: the caller's contract. `munmap` fails only on an
        // invalid range, which that contract rules out.
        unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    }
}

/// Elsewhere every array stays on the heap.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    use std::ptr::NonNull;

    pub fn map(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    /// SAFETY: never called — [`map`] never returns a mapping.
    pub unsafe fn unmap(_ptr: NonNull<u8>, _bytes: usize) {
        unreachable!("no mapping exists to unmap")
    }
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
fn sweep_region(
    rc: &mut [f64],
    ic: &mut [f64],
    stride: usize,
    base: usize,
    m: &Matrix2,
    ctrl: Ctrl,
) {
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

/// The two qubits of a four-amplitude orbit, ordered: `lo < hi`, and
/// `swap` when `a` is the high one, so that matrix order `|b a⟩` lists
/// the `(bit_hi, bit_lo)` values 00, 10, 01, 11 instead of 00, 01, 10, 11.
#[derive(Debug, Clone, Copy)]
struct OrbitQubits {
    lo: u32,
    hi: u32,
    swap: bool,
}

impl OrbitQubits {
    fn new(a: u32, b: u32) -> Self {
        OrbitQubits {
            lo: a.min(b),
            hi: a.max(b),
            swap: a > b,
        }
    }
}

/// Orbits per vector: the orbit kernels compute this many orbits at
/// once, one per lane, column by column.
const OV: usize = 4;

/// `OV` orbits through `m` in [`Matrix4::apply`]'s arithmetic: `vr[c][k]`
/// / `vi[c][k]` is amplitude `c` (matrix order) of orbit `k`, and the
/// result's `[r][k]` is row `r` of it. Each row is summed from `0.0`
/// over columns 0→3, each
/// product spelled `re·re − im·im` / `re·im + im·re`. Separate
/// multiplies and adds, which rustc never contracts, so both codegen
/// flavours give `Matrix4::apply`'s bits, signs of zero included.
#[inline(always)]
fn orbit_block(
    m: &Matrix4,
    vr: &[[f64; OV]; 4],
    vi: &[[f64; OV]; 4],
) -> ([[f64; OV]; 4], [[f64; OV]; 4]) {
    let (mut or, mut oi) = ([[0.0; OV]; 4], [[0.0; OV]; 4]);
    for r in 0..4 {
        for c in 0..4 {
            let e = m.m[4 * r + c];
            for k in 0..OV {
                or[r][k] += e.re * vr[c][k] - e.im * vi[c][k];
                oi[r][k] += e.re * vi[c][k] + e.im * vr[c][k];
            }
        }
    }
    (or, oi)
}

/// Orbits over four equally long runs in matrix order, a multiple of
/// [`OV`] long: element `k` of the four runs is one orbit.
#[inline(always)]
fn orbit_runs(re: [&mut [f64]; 4], im: [&mut [f64]; 4], m: &Matrix4) {
    let re = re.map(|s| s.as_chunks_mut::<OV>().0);
    let im = im.map(|s| s.as_chunks_mut::<OV>().0);
    for k in 0..re[0].len() {
        let vr = std::array::from_fn(|c| re[c][k]);
        let vi = std::array::from_fn(|c| im[c][k]);
        let (or, oi) = orbit_block(m, &vr, &vi);
        for c in 0..4 {
            re[c][k] = or[c];
            im[c][k] = oi[c];
        }
    }
}

/// Amplitudes per lane block: the [`OV`] orbits of a block.
const ORBIT_LANES: usize = 4 * OV;

/// The orbits of one lane block whose qubits sit at lane bits `LO` and
/// `HI` (`HI` = 8 when the block is eight amplitudes of each half of a
/// wider group). Orbit `k` is the `k`-th lane with both bits clear,
/// joined by its three partners; the shuffles into and out of
/// [`orbit_block`]'s column order are compile-time constants, so the
/// block is straight-line code with no branch and no mask, a lane
/// pattern like `diagonal.rs`'s.
#[inline(always)]
fn orbit_lane_block<const LO: usize, const HI: usize, const SWAP: bool>(
    xr: &mut [f64; ORBIT_LANES],
    xi: &mut [f64; ORBIT_LANES],
    m: &Matrix4,
) {
    let lane = |c: usize, k: usize| {
        let k = ((k & !(LO - 1)) << 1) | (k & (LO - 1));
        let k = ((k & !(HI - 1)) << 1) | (k & (HI - 1));
        // Column `c` is `|b a⟩`; `a` is the low qubit unless SWAP.
        let (bit_b, bit_a) = (c >> 1, c & 1);
        let (h, l) = if SWAP { (bit_a, bit_b) } else { (bit_b, bit_a) };
        k | (l * LO) | (h * HI)
    };
    let vr = std::array::from_fn(|c| std::array::from_fn(|k| xr[lane(c, k)]));
    let vi = std::array::from_fn(|c| std::array::from_fn(|k| xi[lane(c, k)]));
    let (or, oi) = orbit_block(m, &vr, &vi);
    for c in 0..4 {
        for k in 0..OV {
            xr[lane(c, k)] = or[c][k];
            xi[lane(c, k)] = oi[c][k];
        }
    }
}

/// Orbits of a region of whole `2·HI` groups whose two qubits both sit
/// in a group of eight lanes (`HI = 2^hi ≤ 4`), a lane block at a time.
/// A region shorter than a block (slices of 4 or 8 amplitudes) goes
/// through one zero-padded block.
#[inline(always)]
fn orbit_in_lanes<const LO: usize, const HI: usize, const SWAP: bool>(
    rc: &mut [f64],
    ic: &mut [f64],
    m: &Matrix4,
) {
    if rc.len() < ORBIT_LANES {
        let n = rc.len();
        let (mut xr, mut xi) = ([0.0; ORBIT_LANES], [0.0; ORBIT_LANES]);
        xr[..n].copy_from_slice(rc);
        xi[..n].copy_from_slice(ic);
        orbit_lane_block::<LO, HI, SWAP>(&mut xr, &mut xi, m);
        rc.copy_from_slice(&xr[..n]);
        ic.copy_from_slice(&xi[..n]);
        return;
    }
    let (rb, ib) = (rc.as_chunks_mut().0, ic.as_chunks_mut().0);
    for (xr, xi) in rb.iter_mut().zip(ib) {
        orbit_lane_block::<LO, HI, SWAP>(xr, xi, m);
    }
}

/// Matching pieces of the bit-`hi` = 0 half (`r0`, `i0`) and bit-`hi` = 1
/// half (`r1`, `i1`) of a `2^(hi+1)` group, each of whole `2^(lo+1)`
/// blocks and of whole groups of eight: position `k` of the two halves
/// is one orbit's `hi` pair.
struct Halves<'s> {
    r0: &'s mut [f64],
    i0: &'s mut [f64],
    r1: &'s mut [f64],
    i1: &'s mut [f64],
}

/// Orbits of matching half pieces when the low qubit's run `LO = 2^lo`
/// is shorter than a vector: each lane block is eight amplitudes of each
/// half, so the high qubit is lane bit 8.
#[inline(always)]
fn orbit_halves_in_lanes<const LO: usize, const SWAP: bool>(h: Halves<'_>, m: &Matrix4) {
    const G: usize = ORBIT_LANES / 2;
    for (((r0, i0), r1), i1) in
        h.r0.chunks_exact_mut(G)
            .zip(h.i0.chunks_exact_mut(G))
            .zip(h.r1.chunks_exact_mut(G))
            .zip(h.i1.chunks_exact_mut(G))
    {
        let (mut xr, mut xi) = ([0.0; ORBIT_LANES], [0.0; ORBIT_LANES]);
        xr[..G].copy_from_slice(r0);
        xr[G..].copy_from_slice(r1);
        xi[..G].copy_from_slice(i0);
        xi[G..].copy_from_slice(i1);
        orbit_lane_block::<LO, G, SWAP>(&mut xr, &mut xi, m);
        r0.copy_from_slice(&xr[..G]);
        r1.copy_from_slice(&xr[G..]);
        i0.copy_from_slice(&xi[..G]);
        i1.copy_from_slice(&xi[G..]);
    }
}

/// Orbits of matching half pieces: lane blocks for a low qubit below 2,
/// whole-vector runs of `2^lo` in each of the four sub-slices from 2 up.
#[inline(always)]
fn orbit_halves_body(h: Halves<'_>, q: OrbitQubits, m: &Matrix4) {
    match (q.lo, q.swap) {
        (0, false) => return orbit_halves_in_lanes::<1, false>(h, m),
        (0, true) => return orbit_halves_in_lanes::<1, true>(h, m),
        (1, false) => return orbit_halves_in_lanes::<2, false>(h, m),
        (1, true) => return orbit_halves_in_lanes::<2, true>(h, m),
        _ => {}
    }
    let run = 1usize << q.lo;
    for (((r0, i0), r1), i1) in
        h.r0.chunks_exact_mut(2 * run)
            .zip(h.i0.chunks_exact_mut(2 * run))
            .zip(h.r1.chunks_exact_mut(2 * run))
            .zip(h.i1.chunks_exact_mut(2 * run))
    {
        // Sub-slices named by (bit_hi, bit_lo).
        let (r00, r01) = r0.split_at_mut(run);
        let (i00, i01) = i0.split_at_mut(run);
        let (r10, r11) = r1.split_at_mut(run);
        let (i10, i11) = i1.split_at_mut(run);
        if q.swap {
            orbit_runs([r00, r10, r01, r11], [i00, i10, i01, i11], m);
        } else {
            orbit_runs([r00, r01, r10, r11], [i00, i01, i10, i11], m);
        }
    }
}

/// Orbits of a region of whole `2^(hi+1)` groups.
#[inline(always)]
fn orbit_region_body(rc: &mut [f64], ic: &mut [f64], q: OrbitQubits, m: &Matrix4) {
    match (q.lo, q.hi, q.swap) {
        (0, 1, false) => return orbit_in_lanes::<1, 2, false>(rc, ic, m),
        (0, 1, true) => return orbit_in_lanes::<1, 2, true>(rc, ic, m),
        (0, 2, false) => return orbit_in_lanes::<1, 4, false>(rc, ic, m),
        (0, 2, true) => return orbit_in_lanes::<1, 4, true>(rc, ic, m),
        (1, 2, false) => return orbit_in_lanes::<2, 4, false>(rc, ic, m),
        (1, 2, true) => return orbit_in_lanes::<2, 4, true>(rc, ic, m),
        _ => {}
    }
    let half = 1usize << q.hi;
    for (rg, ig) in rc
        .chunks_exact_mut(2 * half)
        .zip(ic.chunks_exact_mut(2 * half))
    {
        let (r0, r1) = rg.split_at_mut(half);
        let (i0, i1) = ig.split_at_mut(half);
        orbit_halves_body(Halves { r0, i0, r1, i1 }, q, m);
    }
}

/// [`orbit_region_body`] compiled with AVX2 codegen. FMA is left off:
/// the orbit arithmetic is separate multiplies and adds in both
/// flavours.
///
/// SAFETY: callers must have verified `avx2` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn orbit_region_avx2(rc: &mut [f64], ic: &mut [f64], q: OrbitQubits, m: &Matrix4) {
    orbit_region_body(rc, ic, q, m)
}

/// Runtime-dispatched orbit sweep of a region of whole groups.
fn sweep_orbit_region(rc: &mut [f64], ic: &mut [f64], q: OrbitQubits, m: &Matrix4) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2 (and fma) support on this CPU.
        unsafe { orbit_region_avx2(rc, ic, q, m) };
        return;
    }
    orbit_region_body(rc, ic, q, m)
}

/// [`orbit_halves_body`] compiled with AVX2 codegen.
///
/// SAFETY: callers must have verified `avx2` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn orbit_halves_avx2(h: Halves<'_>, q: OrbitQubits, m: &Matrix4) {
    orbit_halves_body(h, q, m)
}

/// Runtime-dispatched orbit sweep of matching half pieces.
fn sweep_orbit_halves(h: Halves<'_>, q: OrbitQubits, m: &Matrix4) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel::use_fma() {
        // SAFETY: `use_fma` verified avx2 (and fma) support on this CPU.
        unsafe { orbit_halves_avx2(h, q, m) };
        return;
    }
    orbit_halves_body(h, q, m)
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
            LocalOp::Orbit4 { a, b, matrix } => {
                sweep_orbit_region(rc, ic, OrbitQubits::new(*a, *b), matrix)
            }
        }
    }
}

/// The amplitude-array kernels. `len` is always a power of two. Kernels
/// mutate in place — the paper's simulations are memory-capacity-bound.
/// The distributed kernels come in one form each: they take the peer's
/// *wire payload* (`&[u8]`, whole amplitudes of [`AMP_BYTES`]) for an
/// amplitude range and read it where it arrived, so an exchange needs no
/// decoded copy of the peer's slice.
impl SoaStorage {
    /// All-zero register of `len` amplitudes (an invalid quantum state
    /// until initialised; used for receive staging).
    pub fn zeros(len: usize) -> Self {
        assert!(bits::is_pow2(len as u64), "length must be a power of two");
        let mut s = SoaStorage {
            re: Plane::zeros(len),
            im: Plane::zeros(len),
        };
        // First-touch: fault every page in on the worker slot that the
        // affine partition will route back to it on every later sweep.
        s.fill_zero();
        s
    }

    /// Number of amplitudes.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True when empty (never for a live register).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads amplitude `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Complex64 {
        Complex64::new(self.re[i], self.im[i])
    }

    /// Writes amplitude `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: Complex64) {
        self.re[i] = v.re;
        self.im[i] = v.im;
    }

    /// Sets every amplitude to zero.
    pub fn fill_zero(&mut self) {
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

    /// The slice of `len` amplitudes whose first one has global index
    /// `offset`, of the basis state |basis⟩: amplitude `basis` is 1 if it
    /// falls in `[offset, offset + len)`, everything else 0 — written
    /// once, by [`Self::zeros`]'s first-touch pass.
    pub fn basis(len: usize, offset: u64, basis: u64) -> Self {
        let mut s = Self::zeros(len);
        if let Some(i) = basis.checked_sub(offset).filter(|&i| i < len as u64) {
            s.set(crate::ix(i), Complex64::ONE);
        }
        s
    }

    /// The real and the imaginary plane, amplitude `i` at index `i` of
    /// each.
    pub(crate) fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// [`Self::planes`], the real one writable.
    pub(crate) fn planes_mut(&mut self) -> (&mut [f64], &[f64]) {
        (&mut self.re, &self.im)
    }

    /// Σ|amp|² over the local slice.
    pub fn norm_sqr_sum(&self) -> f64 {
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

    /// Applies a 2×2 matrix to every amplitude pair of local qubit `q`
    /// (stride `2^q`), optionally only where local control qubit bit is 1.
    pub fn apply_pairs(&mut self, q: u32, m: &Matrix2, control: Option<u32>) {
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
            type HalfItem<'a> = (
                usize,
                &'a mut [f64],
                &'a mut [f64],
                &'a mut [f64],
                &'a mut [f64],
            );
            let chunks: Vec<HalfItem<'_>> = rlo
                .chunks_mut(HALF_CHUNK)
                .zip(rhi.chunks_mut(HALF_CHUNK))
                .zip(ilo.chunks_mut(HALF_CHUNK).zip(ihi.chunks_mut(HALF_CHUNK)))
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

    /// Applies a precompiled run of diagonal gates — the fully-local
    /// sweep, and the only way a diagonal gate reaches the storage (a
    /// single gate is a run of length one). `offset` is the global index
    /// of local amplitude 0, so rank bits take part in the selections.
    /// See [`CompiledDiagonal`] for the semantic; its block kernel runs
    /// over [`HALF_CHUNK`] work items.
    pub fn apply_fused_diagonal(&mut self, offset: u64, run: &CompiledDiagonal) {
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

    /// Applies a run of local gates; `offset` is the global index of
    /// local amplitude 0, which resolves the diagonal selections and the
    /// rank-bit controls ([`LocalOp::pair_control`]).
    ///
    /// Each aligned block of `2^`[`local_block_bits`] amplitudes goes
    /// through every op before the next block. That gives the same bits
    /// as applying the ops one by one over the whole slice, because
    /// every amplitude sees the same pair updates and phase multiplies
    /// in the same order.
    pub fn apply_local_run(&mut self, offset: u64, run: &LocalRun) {
        let block_bits = local_block_bits(self.len().trailing_zeros());
        self.apply_local_run_in_blocks(offset, run, block_bits);
    }

    /// [`Self::apply_local_run`] in blocks of `2^block_bits` amplitudes,
    /// or one block when the slice is shorter. The product always blocks
    /// at [`local_block_bits`]; the storage suite passes smaller sizes so
    /// that small slices span many blocks.
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

    /// Swaps local qubits `a` and `b` (pure in-memory permutation).
    pub fn swap_local(&mut self, a: u32, b: u32) {
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

    /// Applies a 4×4 matrix to every four-amplitude orbit of local
    /// qubits `(a, b)` — basis order `|b a⟩` — bit for bit as
    /// [`Matrix4::apply`] would, orbit by orbit.
    pub fn apply_orbit4(&mut self, a: u32, b: u32, m: &Matrix4) {
        assert_ne!(a, b, "orbit qubits must differ");
        let len = self.len();
        let q = OrbitQubits::new(a, b);
        assert!(q.hi < len.trailing_zeros(), "qubit out of range");
        let group = 2usize << q.hi;
        if len >= PAR_THRESHOLD && group < len {
            let task = group * (HALF_CHUNK / group).max(1);
            let chunks: Vec<(&mut [f64], &mut [f64])> = self
                .re
                .chunks_mut(task)
                .zip(self.im.chunks_mut(task))
                .collect();
            parallel_for_each_affine(chunks, |(rc, ic)| sweep_orbit_region(rc, ic, q, m));
        } else if len >= PAR_THRESHOLD {
            // `hi` is the top local qubit: zip-chunk the halves, keeping
            // chunks aligned to whole bit-`lo` blocks.
            let chunk = HALF_CHUNK.max(2 << q.lo);
            let (rl, rh) = self.re.split_at_mut(group / 2);
            let (il, ih) = self.im.split_at_mut(group / 2);
            let items: Vec<Halves<'_>> = rl
                .chunks_mut(chunk)
                .zip(il.chunks_mut(chunk))
                .zip(rh.chunks_mut(chunk).zip(ih.chunks_mut(chunk)))
                .map(|((r0, i0), (r1, i1))| Halves { r0, i0, r1, i1 })
                .collect();
            parallel_for_each_affine(items, |h| sweep_orbit_halves(h, q, m));
        } else {
            sweep_orbit_region(&mut self.re, &mut self.im, q, m);
        }
    }

    /// Appends amplitudes `[start, start + n)` to `out` in wire format
    /// ([`AMP_BYTES`] each: little-endian `re`, then `im`) — the packing
    /// half of every exchange, straight from storage into the chunk
    /// buffer that becomes the message.
    pub fn pack_range(&self, start: usize, n: usize, out: &mut Vec<u8>) {
        let (re, im) = (&self.re[start..start + n], &self.im[start..start + n]);
        out.extend(
            re.iter()
                .zip(im)
                .flat_map(|(&r, &i)| kernel::amp_to_wire(Complex64::new(r, i))),
        );
    }

    /// Overwrites amplitudes `[start, start + payload.len()/16)` from a
    /// wire payload — the block trade of a both-global SWAP, and the
    /// copy primitive the scatter kernels below are built on.
    pub fn copy_from_f64_range(&mut self, payload: &[u8], start: usize) {
        let n = wire_amps(payload);
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

    /// Distributed combine, the second half of a distributed
    /// single-qubit gate (§2.1): `new[i] = c_mine·mine[i] + c_theirs·theirs[i]`
    /// over the amplitude range `[start, start + payload.len()/16)`, with
    /// `payload` the peer's wire bytes for exactly that range, optionally
    /// only where local control bit is 1.
    ///
    /// Amplitudes are elementwise independent and every call runs the
    /// same `kernel::combine_term` flavour, so splitting a combine into
    /// sub-range calls (in any order) is bit-for-bit identical to one
    /// call over the whole slice.
    pub fn apply_distributed_1q_range(
        &mut self,
        c_mine: Complex64,
        c_theirs: Complex64,
        payload: &[u8],
        start: usize,
        control: Option<u32>,
    ) {
        let n = wire_amps(payload);
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
                sweep_combine(
                    rc,
                    ic,
                    tc,
                    start + ci * HALF_CHUNK,
                    c_mine,
                    c_theirs,
                    ctrl_run,
                );
            });
        } else {
            sweep_combine(rs, is, payload, start, c_mine, c_theirs, ctrl_run);
        }
    }

    /// Distributed two-qubit combine of the orbits whose low half lies in
    /// `[start, start + lo.len()/16)`: qubit `a` is local, the second
    /// orbit qubit is a rank bit with this rank holding value `g`. `lo`
    /// is the pair rank's wire bytes from amplitude `start`, `hi`
    /// (equally long) its bytes from amplitude `start + 2^a`, so the
    /// partner `i | 2^a` of amplitude `i` sits in `hi` where `i` sits in
    /// `lo`. Each local pair `(bit_a = 0, 1)` combines with the peer's
    /// matching pair through the rows of `m` selected by `g` — basis
    /// order `|b a⟩`; indices in the range with bit `a` set are skipped.
    ///
    /// The two views may be `2^a` amplitudes apart in one payload (any
    /// number of whole orbits: `p[..len − 2^a]`, `p[2^a..]`) or pieces of
    /// two payloads when a chunk is smaller than an orbit. Orbits are
    /// independent, so per-piece application is bit-for-bit identical
    /// to one call over the whole slice.
    pub fn apply_distributed_2q_range(
        &mut self,
        a: u32,
        g: u64,
        m: &Matrix4,
        lo: &[u8],
        hi: &[u8],
        start: usize,
    ) {
        let n = wire_amps(lo);
        assert_eq!(lo.len(), hi.len(), "the two half-orbit views must match");
        assert!(
            start + n + (1 << a) <= self.len(),
            "payload beyond local slice"
        );
        kernel::for_each_bit_run(start, n, 1 << a, 0, |from, to| {
            for i0 in from..to {
                let i1 = i0 | (1usize << a);
                let at = (i0 - start) * AMP_BYTES;
                // Orbit amplitudes v[(b<<1)|a]: b == g comes from this rank.
                let mut v = [Complex64::ZERO; 4];
                v[crate::ix(g << 1)] = self.get(i0);
                v[crate::ix((g << 1) | 1)] = self.get(i1);
                v[crate::ix((1 - g) << 1)] = kernel::wire_amp(&lo[at..]);
                v[crate::ix(((1 - g) << 1) | 1)] = kernel::wire_amp(&hi[at..]);
                let out = m.apply(v);
                self.set(i0, out[crate::ix(g << 1)]);
                self.set(i1, out[crate::ix((g << 1) | 1)]);
            }
        });
    }

    /// Distributed SWAP scatter over a sub-range of the *peer's* slice:
    /// for every index `i` in `[start, start + payload.len()/16)` whose bit
    /// `lo` equals `g` (this rank's value of the global swap qubit), the
    /// peer amplitude `payload[i - start]` lands at `i ^ (1<<lo)` —
    /// *outside* the range when it is narrower than `2^(lo+1)`. Pure
    /// copies with disjoint destinations, so range order never matters.
    /// One pass over the range, lane by lane.
    pub fn apply_distributed_swap_range(&mut self, lo: u32, g: u64, payload: &[u8], start: usize) {
        let n = wire_amps(payload);
        assert!(start + n <= self.len(), "payload beyond local slice");
        let run = 1usize << lo;
        // Destinations are `i ^ run` for `i` in the range: the range
        // widened to whole `2·run` groups bounds them.
        let from = start & !(2 * run - 1);
        let to = (start + n).next_multiple_of(2 * run).min(self.len());
        let (re, im) = (&mut self.re[from..to], &mut self.im[from..to]);
        for (k, amp) in payload.chunks_exact(AMP_BYTES).enumerate() {
            let i = start + k;
            if ((i >> lo) & 1) as u64 == g {
                let a = kernel::wire_amp(amp);
                re[(i ^ run) - from] = a.re;
                im[(i ^ run) - from] = a.im;
            }
        }
    }

    /// Appends the half-exchange SWAP payload (§4): of the amplitudes
    /// whose local-index bit `q` equals `v`, taken in ascending index
    /// order, those numbered `[start_pair, start_pair + n)`.
    pub fn pack_half_bit_range(
        &self,
        q: u32,
        v: u64,
        start_pair: usize,
        n: usize,
        out: &mut Vec<u8>,
    ) {
        assert!(start_pair + n <= self.len() / 2, "range beyond half slice");
        kernel::for_each_half_bit_run(q, v, start_pair, n, |_, i, len| {
            self.pack_range(i, len, out);
        });
    }

    /// The receiving side of [`Self::pack_half_bit_range`]: writes the
    /// payload into the amplitudes whose local-index bit `q` equals `v`,
    /// numbered from `start_pair`. Pure copies to disjoint destinations,
    /// so range order never matters.
    pub fn write_half_bit_range(&mut self, q: u32, v: u64, payload: &[u8], start_pair: usize) {
        let n = wire_amps(payload);
        assert!(
            start_pair + n <= self.len() / 2,
            "payload beyond half slice"
        );
        kernel::for_each_half_bit_run(q, v, start_pair, n, |k, i, len| {
            let at = (k - start_pair) * AMP_BYTES;
            self.copy_from_f64_range(&payload[at..at + len * AMP_BYTES], i);
        });
    }

    /// Serialises the whole slice as interleaved `[re, im]` pairs — the
    /// definition [`Self::pack_range`] is tested against, not a step of
    /// any exchange.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(self.im.iter())
            .flat_map(|(&r, &i)| [r, i])
            .collect()
    }

    /// Materialises the local slice as complex values.
    pub fn to_complex_vec(&self) -> Vec<Complex64> {
        self.amplitudes(0..self.len()).collect()
    }

    /// Amplitudes `range`, in order.
    pub fn amplitudes(&self, range: Range<usize>) -> impl Iterator<Item = Complex64> + '_ {
        let (re, im) = (&self.re[range.clone()], &self.im[range]);
        re.iter().zip(im).map(|(&r, &i)| Complex64::new(r, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_suite() {
        crate::storage::conformance::run_all();
    }

    #[test]
    fn orbit4_kernel_matches_the_scalar_loop() {
        crate::storage::conformance::orbit4_matches_the_scalar_loop();
    }

    #[test]
    fn local_run_conformance() {
        use crate::storage::conformance::local_run_matches_gate_at_a_time;
        // Small blocks through the test seam, on a sequential and a
        // pool-sized slice.
        for len in [1usize << 9, PAR_THRESHOLD] {
            for bits in [3u32, 5, 7] {
                local_run_matches_gate_at_a_time(len, bits, |s, offset, run| {
                    s.apply_local_run_in_blocks(offset, run, bits)
                });
            }
        }
        // The product blocks: a pool-sized slice cut in two, and a slice
        // of two `LOCAL_BLOCK`s.
        for len in [PAR_THRESHOLD, 2 * crate::storage::LOCAL_BLOCK] {
            let bits = local_block_bits(len.trailing_zeros());
            assert_eq!(len >> bits, 2);
            local_run_matches_gate_at_a_time(len, bits, SoaStorage::apply_local_run);
        }
    }

    #[test]
    fn mapped_arrays_read_write_clone_and_compare_as_heap_arrays() {
        let last = MAPPED_MIN_LEN - 1;
        let mut s = SoaStorage::zeros(MAPPED_MIN_LEN);
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(matches!(
            (&s.re, &s.im),
            (Plane::Mapped(_), Plane::Mapped(_))
        ));
        assert!(s.re.iter().chain(s.im.iter()).all(|&x| x == 0.0));
        s.set(0, Complex64::ONE);
        s.set(last, Complex64::new(0.5, -0.25));
        let copy = s.clone();
        assert_eq!(copy, s);
        assert_eq!(copy.get(last), Complex64::new(0.5, -0.25));
        s.set(last, Complex64::ZERO);
        assert_ne!(copy, s);
        assert_eq!(copy.get(0), Complex64::ONE);
        // One step below the cutoff the arrays stay on the heap.
        let small = SoaStorage::zeros(MAPPED_MIN_LEN / 2);
        assert!(matches!(
            (&small.re, &small.im),
            (Plane::Heap(_), Plane::Heap(_))
        ));
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
