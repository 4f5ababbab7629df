//! Shared per-element arithmetic and control-hoisting for the sweep
//! kernels.
//!
//! The hot loops come in two codegen flavours selected once per process:
//!
//! * **FMA** (`pair_terms::<true>`): explicit [`f64::mul_add`] chains,
//!   compiled inside `#[target_feature(enable = "avx2", enable = "fma")]`
//!   wrappers in the storage module. rustc never contracts `a*b + c`
//!   into an FMA on its own, so the fused form must be spelled out — and
//!   it must only run where the `fma` feature is enabled, because the
//!   soft-float `mul_add` fallback is an order of magnitude slower than
//!   separate multiply/add.
//! * **plain** (`pair_terms::<false>`): the historical `Complex64`
//!   operator formula, auto-vectorized at the build's baseline features.
//!
//! Every sweep path (sequential, blocked-parallel, chunked, tail) of a
//! process funnels through the same flavour, so results stay bit-for-bit
//! identical under any `QSE_THREADS` and any chunk decomposition; the
//! flavour itself is latched once, so a process never mixes formulas.

use qse_math::{Complex64, Matrix2};

/// True when the sweeps should run the AVX2+FMA kernel bodies: the CPU
/// supports both features and `QSE_SCALAR_KERNELS` is not set (the
/// escape hatch pins the plain formula for A/B timing or cross-host
/// bitwise reproduction). Latched on first use.
pub fn use_fma() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        static FMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *FMA.get_or_init(|| {
            std::env::var_os("QSE_SCALAR_KERNELS").is_none()
                && std::is_x86_feature_detected!("avx2")
                && std::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// `a·b + c·d + e·f + g·h` with the products fused pairwise — the
/// four-term kernel of a complex 2×2 row. Only meaningful inside an
/// `fma`-enabled function; see the module docs.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mac4(a: f64, b: f64, c: f64, d: f64, e: f64, f: f64, g: f64, h: f64) -> f64 {
    a.mul_add(b, c * d) + e.mul_add(f, g * h)
}

/// One amplitude pair through the 2×2 matrix: returns
/// `(re0', im0', re1', im1')` for inputs `a = re0 + i·im0` (lower) and
/// `b = re1 + i·im1` (upper).
#[inline(always)]
pub fn pair_terms<const FMA: bool>(
    ar: f64,
    ai: f64,
    br: f64,
    bi: f64,
    m: &Matrix2,
) -> (f64, f64, f64, f64) {
    let (m00, m01, m10, m11) = (m.m[0], m.m[1], m.m[2], m.m[3]);
    if FMA {
        (
            mac4(m00.re, ar, -m00.im, ai, m01.re, br, -m01.im, bi),
            mac4(m00.re, ai, m00.im, ar, m01.re, bi, m01.im, br),
            mac4(m10.re, ar, -m10.im, ai, m11.re, br, -m11.im, bi),
            mac4(m10.re, ai, m10.im, ar, m11.re, bi, m11.im, br),
        )
    } else {
        let a0 = Complex64::new(ar, ai);
        let a1 = Complex64::new(br, bi);
        let b0 = m00 * a0 + m01 * a1;
        let b1 = m10 * a0 + m11 * a1;
        (b0.re, b0.im, b1.re, b1.im)
    }
}

/// The distributed-combine element: `c_mine·mine + c_theirs·other`.
#[inline(always)]
pub fn combine_term<const FMA: bool>(
    c_mine: Complex64,
    mine: Complex64,
    c_theirs: Complex64,
    other: Complex64,
) -> Complex64 {
    if FMA {
        Complex64::new(
            mac4(
                c_mine.re, mine.re, -c_mine.im, mine.im, c_theirs.re, other.re, -c_theirs.im,
                other.im,
            ),
            mac4(
                c_mine.re, mine.im, c_mine.im, mine.re, c_theirs.re, other.im, c_theirs.im,
                other.re,
            ),
        )
    } else {
        c_mine * mine + c_theirs * other
    }
}

/// Hoisted control-qubit description for a pair sweep over target `q`,
/// derived once per gate instead of testing `(base + k) & ctrl_mask` on
/// every element.
#[derive(Clone, Copy, Debug)]
pub enum Ctrl {
    /// No control: every pair updates.
    All,
    /// Control above the target: a whole `2^(q+1)` block is selected or
    /// skipped by one test of its base index against this mask.
    Block(u64),
    /// Control below the target: within each half-block the selected
    /// elements form contiguous runs of this length (`2^c`) with period
    /// twice that — enumerated by [`for_each_ctrl_run`].
    Run(usize),
}

impl Ctrl {
    /// Classifies `control` relative to target `q`.
    pub fn new(q: u32, control: Option<u32>) -> Ctrl {
        match control {
            None => Ctrl::All,
            Some(c) if c > q => Ctrl::Block(1u64 << c),
            Some(c) => Ctrl::Run(1usize << c),
        }
    }
}

/// Calls `f(lo, hi)` for every maximal subrange of `[start, start + n)`
/// whose indices all have the control bit set, where `run = 1 << c` is
/// the run length. Runs start at odd multiples of `run` (indices with
/// bit `c` set form `[run, 2·run)` mod `2·run`) and are clipped to the
/// range, so any chunk decomposition enumerates exactly the indices the
/// per-element `& ctrl_mask` test would select.
#[inline(always)]
pub fn for_each_ctrl_run(start: usize, n: usize, run: usize, f: impl FnMut(usize, usize)) {
    for_each_bit_run(start, n, run, 1, f)
}

/// [`for_each_ctrl_run`] for either value `v` of the bit: the maximal
/// subranges of `[start, start + n)` whose indices have bit
/// `log2(run)` equal to `v`.
#[inline(always)]
pub fn for_each_bit_run(start: usize, n: usize, run: usize, v: u64, mut f: impl FnMut(usize, usize)) {
    debug_assert!(run.is_power_of_two());
    let period = run << 1;
    let end = start + n;
    // First run at or before `start`.
    let mut lo = (start & !(period - 1)) + if v == 0 { 0 } else { run };
    while lo < end {
        let a = lo.max(start);
        let b = (lo + run).min(end);
        if a < b {
            f(a, b);
        }
        lo += period;
    }
}

/// Enumerates the half-slice numbering of a half exchange: of the
/// amplitudes whose index bit `q` equals `v`, in ascending order, those
/// numbered `[start_pair, start_pair + n)`. Calls `f(k, i, len)` for
/// each maximal run of `len` consecutive numbers from `k` that are also
/// consecutive indices from `i` (runs end where bit `q` would flip).
#[inline(always)]
pub fn for_each_half_bit_run(
    q: u32,
    v: u64,
    start_pair: usize,
    n: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let run = 1usize << q;
    let end = start_pair + n;
    let mut k = start_pair;
    while k < end {
        let len = (run - (k & (run - 1))).min(end - k);
        let i = crate::ix(qse_math::bits::insert_zero_bit(k as u64, q) | (v << q));
        f(k, i, len);
        k += len;
    }
}

/// Decodes the amplitude at the head of a wire payload.
#[inline(always)]
pub fn wire_amp(payload: &[u8]) -> Complex64 {
    let f = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[at..at + 8]);
        f64::from_le_bytes(b)
    };
    Complex64::new(f(0), f(8))
}

/// Encodes one amplitude for the wire.
#[inline(always)]
pub fn amp_to_wire(a: Complex64) -> [u8; super::AMP_BYTES] {
    let mut out = [0u8; super::AMP_BYTES];
    out[..8].copy_from_slice(&a.re.to_le_bytes());
    out[8..].copy_from_slice(&a.im.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the per-element bit test the hoisted runs replace.
    fn selected_by_bit(start: usize, n: usize, c: u32, v: u64) -> Vec<usize> {
        (start..start + n)
            .filter(|&i| ((i >> c) & 1) as u64 == v)
            .collect()
    }

    #[test]
    fn bit_runs_match_per_element_test() {
        for c in 0..6u32 {
            for start in [0usize, 1, 5, 8, 20, 63] {
                for n in [0usize, 1, 3, 16, 64, 100] {
                    for v in [0u64, 1] {
                        let mut got = Vec::new();
                        for_each_bit_run(start, n, 1 << c, v, |a, b| got.extend(a..b));
                        let want = selected_by_bit(start, n, c, v);
                        assert_eq!(got, want, "c={c} v={v} start={start} n={n}");
                    }
                    let mut ctrl = Vec::new();
                    for_each_ctrl_run(start, n, 1 << c, |a, b| ctrl.extend(a..b));
                    assert_eq!(ctrl, selected_by_bit(start, n, c, 1));
                }
            }
        }
    }

    #[test]
    fn half_bit_runs_match_the_per_pair_index_map() {
        for q in 0..5u32 {
            for v in [0u64, 1] {
                for (start, n) in [(0usize, 32usize), (5, 20), (7, 1), (16, 16)] {
                    let mut got = Vec::new();
                    for_each_half_bit_run(q, v, start, n, |k, i, len| {
                        got.extend((0..len).map(|j| (k + j, i + j)));
                    });
                    let want: Vec<(usize, usize)> = (start..start + n)
                        .map(|k| (k, (qse_math::bits::insert_zero_bit(k as u64, q) | (v << q)) as usize))
                        .collect();
                    assert_eq!(got, want, "q={q} v={v} start={start} n={n}");
                }
            }
        }
    }

    #[test]
    fn wire_codec_round_trips_bit_patterns() {
        for a in [
            Complex64::new(-0.0, f64::MIN_POSITIVE),
            Complex64::new(f64::MAX, -1.5),
            Complex64::new(f64::NAN, f64::INFINITY),
        ] {
            let got = wire_amp(&amp_to_wire(a));
            assert_eq!(got.re.to_bits(), a.re.to_bits());
            assert_eq!(got.im.to_bits(), a.im.to_bits());
        }
    }

    #[test]
    fn ctrl_runs_are_maximal_and_ordered() {
        let mut prev_end = 0usize;
        for_each_ctrl_run(0, 256, 4, |a, b| {
            assert!(a >= prev_end, "runs out of order");
            assert_eq!(b - a, 4, "interior runs have full length");
            prev_end = b;
        });
    }

    #[test]
    fn ctrl_classification() {
        assert!(matches!(Ctrl::new(3, None), Ctrl::All));
        assert!(matches!(Ctrl::new(3, Some(5)), Ctrl::Block(m) if m == 1 << 5));
        assert!(matches!(Ctrl::new(3, Some(1)), Ctrl::Run(r) if r == 2));
    }

    #[test]
    fn plain_pair_terms_match_complex_operators() {
        let m = Matrix2::new(
            Complex64::new(0.3, -0.7),
            Complex64::new(0.5, 0.2),
            Complex64::new(-0.1, 0.9),
            Complex64::new(0.8, 0.4),
        );
        let (a, b) = (Complex64::new(1.5, -2.5), Complex64::new(-0.25, 3.0));
        let want0 = m.m[0] * a + m.m[1] * b;
        let want1 = m.m[2] * a + m.m[3] * b;
        let (r0, i0, r1, i1) = pair_terms::<false>(a.re, a.im, b.re, b.im, &m);
        assert_eq!(r0.to_bits(), want0.re.to_bits());
        assert_eq!(i0.to_bits(), want0.im.to_bits());
        assert_eq!(r1.to_bits(), want1.re.to_bits());
        assert_eq!(i1.to_bits(), want1.im.to_bits());
    }

    #[test]
    fn fma_pair_terms_close_to_plain() {
        let m = Matrix2::new(
            Complex64::new(0.6, 0.1),
            Complex64::new(-0.3, 0.8),
            Complex64::new(0.2, -0.4),
            Complex64::new(0.9, 0.05),
        );
        let (p0, q0, p1, q1) = pair_terms::<false>(0.7, -1.2, 2.4, 0.33, &m);
        let (r0, i0, r1, i1) = pair_terms::<true>(0.7, -1.2, 2.4, 0.33, &m);
        for (x, y) in [(p0, r0), (q0, i0), (p1, r1), (q1, i1)] {
            assert!((x - y).abs() < 1e-14, "{x} vs {y}");
        }
    }

    #[test]
    fn combine_term_plain_matches_operators() {
        let (cm, ct) = (Complex64::new(0.6, -0.2), Complex64::new(0.1, 0.8));
        let (mine, other) = (Complex64::new(1.0, 2.0), Complex64::new(-3.0, 0.5));
        let got = combine_term::<false>(cm, mine, ct, other);
        let want = cm * mine + ct * other;
        assert_eq!(got.re.to_bits(), want.re.to_bits());
        assert_eq!(got.im.to_bits(), want.im.to_bits());
    }
}
