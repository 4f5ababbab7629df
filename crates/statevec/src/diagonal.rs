//! Diagonal gates: the scalar phase functions and the tiled phase kernel.
//!
//! A diagonal gate multiplies amplitude `|i⟩` by a phase that depends only
//! on `i`'s bits — the paper's *fully local* class. [`diagonal_phase`] and
//! [`fused_phase`] evaluate that phase per index (the reference and sparse
//! engines, and the test oracle); [`CompiledDiagonal`] is what the dense
//! engines execute: a run of gates lowered to mask selections and applied
//! tile by tile, touching only the amplitudes each gate selects — QuEST's
//! "more efficient" controlled-phase application (§3.2).

use crate::storage::kernel;
use qse_circuit::Gate;
use qse_math::bits;
use qse_math::Complex64;
use std::f64::consts::FRAC_PI_4;

/// The phase a diagonal gate applies to basis state `index`.
///
/// # Panics
/// Panics on non-diagonal gates — callers classify first.
pub fn diagonal_phase(gate: &Gate, index: u64) -> Complex64 {
    match *gate {
        Gate::Z(q) => {
            if bits::bit(index, q) == 1 {
                Complex64::real(-1.0)
            } else {
                Complex64::ONE
            }
        }
        Gate::S(q) => phase_if(index, q, Complex64::I),
        Gate::Sdg(q) => phase_if(index, q, -Complex64::I),
        Gate::T(q) => phase_if(index, q, Complex64::cis(FRAC_PI_4)),
        Gate::Tdg(q) => phase_if(index, q, Complex64::cis(-FRAC_PI_4)),
        Gate::Phase { target, theta } => phase_if(index, target, Complex64::cis(theta)),
        Gate::Rz { target, theta } => {
            if bits::bit(index, target) == 1 {
                Complex64::cis(theta / 2.0)
            } else {
                Complex64::cis(-theta / 2.0)
            }
        }
        Gate::CZ(a, b) => {
            if bits::bit(index, a) == 1 && bits::bit(index, b) == 1 {
                Complex64::real(-1.0)
            } else {
                Complex64::ONE
            }
        }
        Gate::CPhase { a, b, theta } => {
            if bits::bit(index, a) == 1 && bits::bit(index, b) == 1 {
                Complex64::cis(theta)
            } else {
                Complex64::ONE
            }
        }
        Gate::Unitary1 { target, matrix } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            if bits::bit(index, target) == 1 {
                matrix.at(1, 1)
            } else {
                matrix.at(0, 0)
            }
        }
        Gate::MCPhase { ref qubits, theta } => {
            if qubits.iter().all(|&q| bits::bit(index, q) == 1) {
                Complex64::cis(theta)
            } else {
                Complex64::ONE
            }
        }
        Gate::CUnitary {
            control,
            target,
            matrix,
        } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            if bits::bit(index, control) == 1 {
                if bits::bit(index, target) == 1 {
                    matrix.at(1, 1)
                } else {
                    matrix.at(0, 0)
                }
            } else {
                Complex64::ONE
            }
        }
        Gate::Unitary2 { a, b, matrix } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            let idx = crate::ix((bits::bit(index, b) << 1) | bits::bit(index, a));
            matrix.at(idx, idx)
        }
        ref g => unreachable!("diagonal_phase called on non-diagonal gate {g}"),
    }
}

#[inline(always)]
fn phase_if(index: u64, q: u32, p: Complex64) -> Complex64 {
    if bits::bit(index, q) == 1 {
        p
    } else {
        Complex64::ONE
    }
}

/// The combined phase of a run of diagonal gates — what a fused sweep
/// applies per amplitude.
pub fn fused_phase(gates: &[Gate], index: u64) -> Complex64 {
    gates
        .iter()
        .fold(Complex64::ONE, |acc, g| acc * diagonal_phase(g, index))
}

/// One selection of a lowered diagonal gate: multiply by `p` every
/// amplitude whose global index satisfies `index & mask == want`.
///
/// A gate lowers to one, two or four of these with pairwise disjoint
/// selections (see [`CompiledDiagonal::compile`]), so an amplitude is
/// multiplied at most once per gate. Every constant (`cis(θ)`, matrix
/// entries, …) is computed once at compile time with the same
/// expressions [`diagonal_phase`] evaluates per call.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PhaseOp {
    /// The index bits this selection tests.
    mask: u64,
    /// The value those bits must have (`want & !mask == 0`).
    want: u64,
    /// Phase applied to every selected amplitude.
    p: Complex64,
}

impl PhaseOp {
    /// Appends `gate`'s selections to `ops`.
    fn lower(gate: &Gate, ops: &mut Vec<PhaseOp>) {
        // Every bit of `mask` set — Z, S, S†, T, T†, Phase, CZ, CPhase,
        // MCPhase.
        let all = |mask: u64, p: Complex64| PhaseOp {
            mask,
            want: mask,
            p,
        };
        // `p0`/`p1` by the bit at `target`, under `ctrl` (0 for none).
        let select = |ctrl: u64, target: u32, p0: Complex64, p1: Complex64| {
            let mask = ctrl | (1 << target);
            [
                PhaseOp {
                    mask,
                    want: ctrl,
                    p: p0,
                },
                PhaseOp {
                    mask,
                    want: mask,
                    p: p1,
                },
            ]
        };
        match *gate {
            Gate::Z(q) => ops.push(all(1 << q, Complex64::real(-1.0))),
            Gate::S(q) => ops.push(all(1 << q, Complex64::I)),
            Gate::Sdg(q) => ops.push(all(1 << q, -Complex64::I)),
            Gate::T(q) => ops.push(all(1 << q, Complex64::cis(FRAC_PI_4))),
            Gate::Tdg(q) => ops.push(all(1 << q, Complex64::cis(-FRAC_PI_4))),
            Gate::Phase { target, theta } => ops.push(all(1 << target, Complex64::cis(theta))),
            Gate::Rz { target, theta } => ops.extend(select(
                0,
                target,
                Complex64::cis(-theta / 2.0),
                Complex64::cis(theta / 2.0),
            )),
            Gate::CZ(a, b) => ops.push(all((1 << a) | (1 << b), Complex64::real(-1.0))),
            Gate::CPhase { a, b, theta } => {
                ops.push(all((1 << a) | (1 << b), Complex64::cis(theta)))
            }
            Gate::MCPhase { ref qubits, theta } => ops.push(all(
                qubits.iter().fold(0u64, |m, &q| m | (1 << q)),
                Complex64::cis(theta),
            )),
            Gate::Unitary1 { target, matrix } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                ops.extend(select(0, target, matrix.at(0, 0), matrix.at(1, 1)));
            }
            Gate::CUnitary {
                control,
                target,
                matrix,
            } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                ops.extend(select(
                    1 << control,
                    target,
                    matrix.at(0, 0),
                    matrix.at(1, 1),
                ));
            }
            Gate::Unitary2 { a, b, matrix } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                // Table index `(bit_b << 1) | bit_a`.
                let mask = (1u64 << a) | (1 << b);
                ops.extend((0..4u64).map(|k| PhaseOp {
                    mask,
                    want: ((k & 1) << a) | ((k >> 1) << b),
                    p: matrix.at(crate::ix(k), crate::ix(k)),
                }));
            }
            ref g => unreachable!("PhaseOp::lower called on non-diagonal gate {g}"),
        }
    }
}

/// Amplitudes per kernel tile: 8 KiB of `re` plus 8 KiB of `im`, half
/// of a 32 KiB L1d, so every op of a run after the first finds the tile
/// in L1 and a fused run costs one trip to memory however long it is.
pub const TILE: usize = 1024;

/// Amplitudes per lane group. Selections on qubits 0–2 repeat with a
/// period of at most eight amplitudes — shorter than or equal to a
/// vector — so they are applied as a fixed per-lane pattern over whole
/// groups instead of as runs. A block shorter than a group takes the
/// scalar form and a longer one is aligned to its power-of-two length,
/// so no group straddles two blocks (two work items).
const LANES: usize = 8;

/// A run of diagonal gates precompiled for single-sweep execution, and
/// the **only** way a diagonal gate is applied to dense storage (a
/// single gate is a run of length one).
///
/// # The diagonal semantic
///
/// A diagonal gate *selects* basis indices by their bits and multiplies
/// each selected amplitude by a constant phase. **Unselected amplitudes
/// are not written**: they keep their exact bits, where a multiply by
/// `1 + 0i` would flip the sign of a `-0.0` component. Phase, CZ,
/// CPhase, MCPhase and friends select the indices with every mask bit
/// set; Rz and diagonal Unitary1/Unitary2 select every index; a diagonal
/// CUnitary selects the indices with the control bit set.
///
/// Ops are applied **in gate order**, so each amplitude sees exactly the
/// multiply sequence of the gates that select it, whether they arrive
/// fused or one sweep at a time: fused ≡ unfused bit for bit. (Complex
/// multiplication is not associative in floating point, so the product
/// of the run's phases is never precomputed.)
///
/// The storage drives [`Self::apply_block`] through
/// [`crate::storage::SoaStorage::apply_fused_diagonal`], and through
/// [`crate::storage::SoaStorage::apply_local_run`] when the run is one
/// op of a [`LocalRun`](crate::schedule::LocalRun).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledDiagonal {
    ops: Vec<PhaseOp>,
    gates: usize,
}

impl CompiledDiagonal {
    /// Compiles a run of diagonal gates, preserving gate order.
    ///
    /// # Panics
    /// Panics on non-diagonal gates.
    pub fn compile<'g>(gates: impl IntoIterator<Item = &'g Gate>) -> Self {
        let mut run = CompiledDiagonal::default();
        for g in gates {
            run.push(g);
        }
        run
    }

    /// Appends one diagonal gate to the end of the run.
    ///
    /// # Panics
    /// Panics on a non-diagonal gate.
    pub fn push(&mut self, gate: &Gate) {
        PhaseOp::lower(gate, &mut self.ops);
        self.gates += 1;
    }

    /// Number of gates in the run.
    pub fn len(&self) -> usize {
        self.gates
    }

    /// True for an empty run (applies the identity).
    pub fn is_empty(&self) -> bool {
        self.gates == 0
    }

    /// The run applied to one amplitude: the scalar form of
    /// [`Self::apply_block`], and its definition.
    #[inline]
    pub fn apply(&self, index: u64, amp: Complex64) -> Complex64 {
        let mut a = amp;
        for op in &self.ops {
            if index & op.mask == op.want {
                a *= op.p;
            }
        }
        a
    }

    /// Applies the run to a block of split `re`/`im` amplitudes whose
    /// first element has global index `base` (rank offset included).
    ///
    /// The block is swept in [`TILE`]-sized tiles. Per tile and per op,
    /// the mask bits above the tile (rank bits among them) are resolved
    /// once — take the tile or skip it — and the bits inside it become
    /// contiguous runs, or a lane pattern for qubits 0–2, multiplied in
    /// straight loops with no per-element test.
    ///
    /// # Panics
    /// Panics unless the block length is a power of two, equal for both
    /// slices, and `base` is a multiple of it.
    pub fn apply_block(&self, re: &mut [f64], im: &mut [f64], base: u64) {
        let len = re.len();
        assert_eq!(len, im.len(), "re/im length mismatch");
        assert!(len.is_power_of_two(), "block length must be a power of two");
        assert_eq!(base & (len as u64 - 1), 0, "block base must be aligned");
        if len < LANES {
            // Shorter than a lane group: the scalar form, per amplitude.
            for (i, (r, m)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                let v = self.apply(base | i as u64, Complex64::new(*r, *m));
                (*r, *m) = (v.re, v.im);
            }
            return;
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if kernel::use_fma() {
            // SAFETY: `use_fma` verified avx2+fma support on this CPU.
            unsafe { block_avx2(&self.ops, re, im, base) };
            return;
        }
        block_body::<false>(&self.ops, re, im, base)
    }
}

/// [`block_body`] compiled with AVX2 codegen. The arithmetic is spelled
/// as separate multiplies and adds, which rustc never contracts, so this
/// flavour and the baseline one produce identical bits; only the vector
/// width differs.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn block_avx2(ops: &[PhaseOp], re: &mut [f64], im: &mut [f64], base: u64) {
    block_body::<true>(ops, re, im, base)
}

/// The block kernel; `AVX2` only picks the flavour of the lane-pattern
/// calls, and is true only inside [`block_avx2`].
#[inline(always)]
fn block_body<const AVX2: bool>(ops: &[PhaseOp], re: &mut [f64], im: &mut [f64], base: u64) {
    for (ti, (rt, it)) in re.chunks_mut(TILE).zip(im.chunks_mut(TILE)).enumerate() {
        tile_body::<AVX2>(ops, rt, it, base | (ti * TILE) as u64);
    }
}

/// Every op, in order, over one tile (a power-of-two slice of at least
/// [`LANES`] amplitudes, aligned at `base`).
#[inline(always)]
fn tile_body<const AVX2: bool>(ops: &[PhaseOp], re: &mut [f64], im: &mut [f64], base: u64) {
    let len = re.len();
    let im = &mut im[..len];
    let inside = len as u64 - 1;
    for op in ops {
        if (base ^ op.want) & op.mask & !inside != 0 {
            continue; // a bit above the tile disagrees: nothing selected
        }
        let mask = crate::ix(op.mask & inside);
        let want = crate::ix(op.want & inside);
        let lane_mask = mask & (LANES - 1);
        if lane_mask == 0 {
            for r in SelectedRuns::new(len, mask, want) {
                mul_run(&mut re[r.clone()], &mut im[r], op.p);
            }
        } else {
            let runs = SelectedRuns::new(len, mask & !(LANES - 1), want & !(LANES - 1));
            lanes::<AVX2>(lane_mask, want & (LANES - 1), re, im, runs, op.p);
        }
    }
}

/// Every maximal run of indices in `[0, len)` with `index & mask ==
/// want`, ascending. Runs have length `2^tz(mask)` (the whole range for
/// an empty mask); stepping sets every fixed bit before the increment so
/// the carry skips over them. An iterator rather than a callback: a
/// closure body may be compiled out of line, at baseline features even
/// inside [`block_avx2`].
struct SelectedRuns {
    lo: usize,
    len: usize,
    run: usize,
    fixed: usize,
    mask: usize,
    want: usize,
}

impl SelectedRuns {
    #[inline(always)]
    fn new(len: usize, mask: usize, want: usize) -> Self {
        debug_assert!(len.is_power_of_two() && mask < len && want & !mask == 0);
        let run = 1 << (mask | len).trailing_zeros();
        SelectedRuns {
            lo: want,
            len,
            run,
            fixed: mask | (run - 1),
            mask,
            want,
        }
    }
}

impl Iterator for SelectedRuns {
    type Item = std::ops::Range<usize>;

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let lo = self.lo;
        if lo >= self.len {
            return None;
        }
        self.lo = (((lo | self.fixed) + 1) & !self.mask) | self.want;
        Some(lo..lo + self.run)
    }
}

/// `amp ← amp · p` over a contiguous run — the `Complex64` operator
/// formula on split parts, so it agrees bit for bit with the scalar form.
#[inline(always)]
fn mul_run(re: &mut [f64], im: &mut [f64], p: Complex64) {
    let n = re.len();
    let im = &mut im[..n];
    for k in 0..n {
        let (r, i) = (re[k], im[k]);
        re[k] = r * p.re - i * p.im;
        im[k] = r * p.im + i * p.re;
    }
}

/// [`mul_lane_pattern`] in the flavour of the caller, kept out of the
/// tile loop: inlined there, the 26 bodies crowd its registers and cost
/// the run path's short runs 5–10 %. The AVX2 body stays out of line
/// because this plain function cannot inline [`lanes_avx2`]; rustc does
/// not honour `#[inline(never)]` on a `#[target_feature]` function.
#[inline(never)]
fn lanes<const AVX2: bool>(
    mask: usize,
    want: usize,
    re: &mut [f64],
    im: &mut [f64],
    runs: SelectedRuns,
    p: Complex64,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if AVX2 {
        // SAFETY: `AVX2` is true only under `block_avx2`, whose callers
        // verified avx2+fma support.
        return unsafe { lanes_avx2(mask, want, re, im, runs, p) };
    }
    mul_lane_pattern(mask, want, re, im, runs, p)
}

/// [`mul_lane_pattern`] compiled with AVX2 codegen.
///
/// SAFETY: callers must have verified `avx2` and `fma` CPU support.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn lanes_avx2(
    mask: usize,
    want: usize,
    re: &mut [f64],
    im: &mut [f64],
    runs: SelectedRuns,
    p: Complex64,
) {
    mul_lane_pattern(mask, want, re, im, runs, p)
}

/// [`mul_lanes`] over `runs` for the lanes with `lane & mask == want`:
/// a `match` onto the body monomorphised for each of the 26 selections
/// with a nonzero mask on bits 0–2, so that every body sees its
/// selection as a constant.
#[inline(always)]
fn mul_lane_pattern(
    mask: usize,
    want: usize,
    re: &mut [f64],
    im: &mut [f64],
    runs: SelectedRuns,
    p: Complex64,
) {
    macro_rules! selections {
        ($(($m:literal, $w:literal))*) => {
            match (mask, want) {
                $(($m, $w) => {
                    for r in runs {
                        mul_lanes::<$m, $w>(&mut re[r.clone()], &mut im[r], p);
                    }
                })*
                _ => unreachable!("lane selection {mask:#b} → {want:#b}"),
            }
        };
    }
    selections! {
        (1, 0) (1, 1) (2, 0) (2, 2) (4, 0) (4, 4)
        (3, 0) (3, 1) (3, 2) (3, 3) (5, 0) (5, 1) (5, 4) (5, 5) (6, 0) (6, 2) (6, 4) (6, 6)
        (7, 0) (7, 1) (7, 2) (7, 3) (7, 4) (7, 5) (7, 6) (7, 7)
    }
}

/// [`mul_run`] on the lanes with `lane & MASK == WANT`, over whole lane
/// groups. The selection is a compile-time constant: once the compiler
/// unrolls a group the test folds away, and the body is straight-line
/// code that loads, multiplies and stores the selected lanes and never
/// writes the others: whole vectors where the selection covers one,
/// single lanes where it does not, and no branch or mask register.
#[inline(always)]
fn mul_lanes<const MASK: usize, const WANT: usize>(re: &mut [f64], im: &mut [f64], p: Complex64) {
    for (rg, ig) in re.chunks_exact_mut(LANES).zip(im.chunks_exact_mut(LANES)) {
        for k in 0..LANES {
            if k & MASK == WANT {
                let (r, i) = (rg[k], ig[k]);
                rg[k] = r * p.re - i * p.im;
                ig[k] = r * p.im + i * p.re;
            }
        }
    }
}

/// The scalar oracle the kernel suites compare against: [`diagonal_phase`]
/// applied gate by gate under the semantic stated on
/// [`CompiledDiagonal`], sharing no code with the lowering.
#[cfg(test)]
pub(crate) fn oracle_apply(gates: &[Gate], index: u64, amp: Complex64) -> Complex64 {
    let selects = |g: &Gate| match g {
        Gate::Rz { .. } | Gate::Unitary1 { .. } | Gate::Unitary2 { .. } => true,
        Gate::CUnitary { control, .. } => bits::bit(index, *control) == 1,
        g => g.qubits().iter().all(|&q| bits::bit(index, q) == 1),
    };
    gates.iter().fold(amp, |a, g| {
        if selects(g) {
            a * diagonal_phase(g, index)
        } else {
            a
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_complex_close;

    #[test]
    fn z_phase() {
        assert_eq!(diagonal_phase(&Gate::Z(1), 0b01), Complex64::ONE);
        assert_eq!(diagonal_phase(&Gate::Z(1), 0b10), Complex64::real(-1.0));
    }

    #[test]
    fn s_t_relations() {
        // T·T = S on every index.
        for idx in 0..8u64 {
            let t2 = diagonal_phase(&Gate::T(1), idx) * diagonal_phase(&Gate::T(1), idx);
            assert_complex_close(t2, diagonal_phase(&Gate::S(1), idx), 1e-12);
        }
        // S·Sdg = 1.
        for idx in 0..8u64 {
            let p = diagonal_phase(&Gate::S(2), idx) * diagonal_phase(&Gate::Sdg(2), idx);
            assert_complex_close(p, Complex64::ONE, 1e-12);
        }
    }

    #[test]
    fn cphase_needs_both_bits() {
        let g = Gate::CPhase {
            a: 0,
            b: 2,
            theta: 0.5,
        };
        assert_eq!(diagonal_phase(&g, 0b001), Complex64::ONE);
        assert_eq!(diagonal_phase(&g, 0b100), Complex64::ONE);
        assert_complex_close(diagonal_phase(&g, 0b101), Complex64::cis(0.5), 1e-12);
    }

    #[test]
    fn rz_splits_phase_symmetrically() {
        let g = Gate::Rz {
            target: 0,
            theta: 0.8,
        };
        let p0 = diagonal_phase(&g, 0);
        let p1 = diagonal_phase(&g, 1);
        assert_complex_close(p0 * p1, Complex64::ONE, 1e-12);
        assert_complex_close(p1, Complex64::cis(0.4), 1e-12);
    }

    #[test]
    fn fused_equals_product() {
        let gates = vec![
            Gate::S(0),
            Gate::T(1),
            Gate::CPhase {
                a: 0,
                b: 1,
                theta: 0.3,
            },
            Gate::Z(0),
        ];
        for idx in 0..4u64 {
            let expect = gates
                .iter()
                .fold(Complex64::ONE, |a, g| a * diagonal_phase(g, idx));
            assert_complex_close(fused_phase(&gates, idx), expect, 1e-12);
        }
    }

    #[test]
    fn diagonal_unitary1_uses_matrix_entries() {
        let m = qse_math::Matrix2::diagonal(Complex64::cis(0.1), Complex64::cis(0.2));
        let g = Gate::Unitary1 {
            target: 1,
            matrix: m,
        };
        assert_complex_close(diagonal_phase(&g, 0b00), Complex64::cis(0.1), 1e-12);
        assert_complex_close(diagonal_phase(&g, 0b10), Complex64::cis(0.2), 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-diagonal gate")]
    fn rejects_non_diagonal() {
        diagonal_phase(&Gate::H(0), 0);
    }

    fn one_of_each_diagonal() -> Vec<Gate> {
        vec![
            Gate::Z(0),
            Gate::S(1),
            Gate::Sdg(2),
            Gate::T(0),
            Gate::Tdg(1),
            Gate::Phase {
                target: 2,
                theta: 0.37,
            },
            Gate::Rz {
                target: 0,
                theta: -1.1,
            },
            Gate::CZ(0, 2),
            Gate::CPhase {
                a: 1,
                b: 2,
                theta: 0.73,
            },
            Gate::MCPhase {
                qubits: vec![0, 1, 2],
                theta: 2.2,
            },
            Gate::Unitary1 {
                target: 1,
                matrix: qse_math::Matrix2::diagonal(Complex64::cis(0.4), Complex64::cis(-0.9)),
            },
            Gate::CUnitary {
                control: 2,
                target: 0,
                matrix: qse_math::Matrix2::diagonal(Complex64::cis(1.3), Complex64::cis(0.2)),
            },
        ]
    }

    fn assert_same_bits(got: Complex64, want: Complex64, ctx: &str) {
        assert_eq!(got.re.to_bits(), want.re.to_bits(), "re: {ctx}");
        assert_eq!(got.im.to_bits(), want.im.to_bits(), "im: {ctx}");
    }

    #[test]
    fn compiled_constants_are_bit_identical_to_diagonal_phase() {
        // The lowering must reproduce `diagonal_phase` exactly — not
        // approximately — for every gate kind and every index, since the
        // fused/unfused equivalence contract is bitwise.
        for g in one_of_each_diagonal() {
            let compiled = CompiledDiagonal::compile([&g]);
            for idx in 0..8u64 {
                let amp = Complex64::new(0.3 - idx as f64, 0.8);
                let want = oracle_apply(std::slice::from_ref(&g), idx, amp);
                assert_same_bits(
                    compiled.apply(idx, amp),
                    want,
                    &format!("gate {g} index {idx}"),
                );
            }
        }
    }

    #[test]
    fn compiled_apply_matches_sequential_multiplication() {
        // apply() must perform the multiply sequence of k successive
        // gate-at-a-time sweeps: the selecting gates' phases in gate
        // order, and nothing for the gates that do not select the index.
        let gates = one_of_each_diagonal();
        let compiled = CompiledDiagonal::compile(&gates);
        assert_eq!(compiled.len(), gates.len());
        for idx in 0..8u64 {
            let amp = Complex64::new(0.3 - idx as f64, 0.8);
            let want = oracle_apply(&gates, idx, amp);
            assert_same_bits(compiled.apply(idx, amp), want, &format!("index {idx}"));
        }
    }

    #[test]
    fn unselected_amplitudes_keep_their_sign_of_zero() {
        // (-0.0 - 5i)·(1 + 0i) has real part +0.0: a multiply by one is
        // not the identity, which is why unselected means untouched.
        let amp = Complex64::new(-0.0, -5.0);
        assert_eq!((amp * Complex64::ONE).re.to_bits(), 0.0f64.to_bits());
        let run = CompiledDiagonal::compile(&[
            Gate::CPhase {
                a: 0,
                b: 1,
                theta: 0.4,
            },
            Gate::CUnitary {
                control: 2,
                target: 0,
                matrix: qse_math::Matrix2::diagonal(Complex64::cis(0.1), Complex64::cis(0.2)),
            },
        ]);
        assert_same_bits(run.apply(0b001, amp), amp, "neither gate selects 0b001");
    }

    #[test]
    fn selected_runs_match_the_per_index_test() {
        for len in [8usize, 64, 1024] {
            for mask in [0usize, 8, 16, 8 | 32, 16 | 512, (len >> 1) | 8, len - 8] {
                let mask = mask & (len - 1);
                // every sub-pattern of the mask, the all-ones one included
                let mut want = mask;
                loop {
                    let mut got = Vec::new();
                    let mut last = 0;
                    for r in SelectedRuns::new(len, mask, want) {
                        assert!(r.start >= last, "runs ascend");
                        last = r.end;
                        got.extend(r);
                    }
                    let expect: Vec<usize> = (0..len).filter(|i| i & mask == want).collect();
                    assert_eq!(got, expect, "len {len} mask {mask:#x} want {want:#x}");
                    if want == 0 {
                        break;
                    }
                    want = (want - 1) & mask;
                }
            }
        }
    }

    #[test]
    fn block_kernel_matches_scalar_form_across_tiles() {
        // Three tiles' worth at a rank offset: bits below the lane
        // width, inside the tile, above the tile and in the offset.
        let len = 4 * TILE;
        let offset = (len as u64) << 1;
        let top = len.trailing_zeros();
        let gates = vec![
            Gate::CPhase {
                a: 1,
                b: top - 1,
                theta: 0.37,
            },
            Gate::Rz {
                target: 2,
                theta: -1.1,
            },
            Gate::CZ(5, top + 1),
            Gate::CZ(4, top + 2), // offset bit clear: selects nothing here
            Gate::T(7),
            Gate::MCPhase {
                qubits: vec![0, 3, top - 2],
                theta: 2.2,
            },
        ];
        let run = CompiledDiagonal::compile(&gates);
        let amp = |i: usize| Complex64::new((i % 17) as f64 * 0.25 - 1.0, -((i % 5) as f64));
        let (mut re, mut im): (Vec<f64>, Vec<f64>) =
            (0..len).map(|i| (amp(i).re, amp(i).im)).unzip();
        run.apply_block(&mut re, &mut im, offset);
        for i in 0..len {
            let want = oracle_apply(&gates, offset | i as u64, amp(i));
            assert_same_bits(Complex64::new(re[i], im[i]), want, &format!("index {i}"));
        }
    }

    #[test]
    fn every_lane_selection_matches_the_oracle_in_both_flavours() {
        // All 27 (mask, want) pairs on bits 0–2 — mask 0 is the run path,
        // the other 26 are the lane patterns — alone and joined by a bit
        // above the lanes that must be set or clear: inside the tile,
        // above the tile and in the rank offset (set, and clear so
        // nothing is selected). No gate lowers to seven of the pairs
        // (mask 0b111 with a zero in `want`), so the expected value is
        // the selection's definition: the `Complex64` product, or the
        // amplitude untouched. Zeros of both signs sit in selected and
        // unselected lanes alike.
        let lane_pairs =
            (0..LANES).flat_map(|m| (0..LANES).filter(move |w| w & !m == 0).map(move |w| (m, w)));
        assert_eq!(lane_pairs.clone().count(), 27);
        let p = Complex64::cis(0.37);
        let amp = |i: usize| match i % 5 {
            0 => Complex64::new(-0.0, 0.0),
            1 => Complex64::new(0.0, -0.0),
            2 => Complex64::new(-0.0, -0.0),
            _ => Complex64::new((i % 17) as f64 * 0.25 - 2.0, -((i % 7) as f64) - 0.5),
        };
        type Block = fn(&[PhaseOp], &mut [f64], &mut [f64], u64);
        let mut flavours: Vec<(&str, Block)> = vec![("plain", block_body::<false>)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if kernel::use_fma() {
            // SAFETY: `use_fma` verified avx2+fma support on this CPU.
            flavours.push(("avx2", |ops, re, im, base| unsafe {
                block_avx2(ops, re, im, base)
            }));
        }
        for len in [LANES, 4 * TILE] {
            let top = len.trailing_zeros();
            let offset = 1u64 << (top + 1);
            // A one-group block has no bit inside or above its tile.
            let mut extra_bits: Vec<u64> = [5, top - 1, top + 1, top + 2]
                .map(|b| 1u64 << b)
                .into_iter()
                .filter(|&x| x >= LANES as u64)
                .collect();
            extra_bits.sort_unstable();
            extra_bits.dedup();
            for (m, w) in lane_pairs.clone() {
                let (m, w) = (m as u64, w as u64);
                let joined = extra_bits
                    .iter()
                    .flat_map(|&x| [(m | x, w | x), (m | x, w)]);
                for (mask, want) in std::iter::once((m, w)).chain(joined) {
                    let ops = [PhaseOp { mask, want, p }];
                    for (name, block) in &flavours {
                        let (mut re, mut im): (Vec<f64>, Vec<f64>) =
                            (0..len).map(|i| (amp(i).re, amp(i).im)).unzip();
                        block(&ops, &mut re, &mut im, offset);
                        for i in 0..len {
                            let index = offset | i as u64;
                            let want_amp = if index & mask == want {
                                amp(i) * p
                            } else {
                                amp(i)
                            };
                            assert_same_bits(
                                Complex64::new(re[i], im[i]),
                                want_amp,
                                &format!(
                                    "{name} len {len} mask {mask:#x} want {want:#x} index {i}"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_compiled_run_is_identity() {
        let compiled = CompiledDiagonal::compile(&[]);
        assert!(compiled.is_empty());
        let a = Complex64::new(0.5, -0.25);
        assert_eq!(compiled.apply(3, a), a);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_block_rejected() {
        CompiledDiagonal::compile(&[Gate::Z(0)]).apply_block(&mut [0.0; 8], &mut [0.0; 8], 4);
    }

    #[test]
    #[should_panic(expected = "non-diagonal gate")]
    fn compile_rejects_non_diagonal() {
        CompiledDiagonal::compile(&[Gate::S(0), Gate::H(1)]);
    }
}
