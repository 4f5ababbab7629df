//! A fixed-shape tree digest of a statevector: the reply fingerprint of
//! every dense and sparse `qse serve` execution.
//!
//! * **Leaves** are [`LEAF_AMPS`] = 2⁶ consecutive amplitudes (the whole
//!   state when `n < 6`). Word `i` of a leaf's `(re, im)` bit patterns
//!   goes to lane `i mod 4`; each lane folds by xor, odd multiply and
//!   rotate, so four independent chains run at memory speed. Lanes and
//!   length fold into one word, finished by SplitMix64's [`avalanche`].
//! * **Nodes** mix `(left, right, level)`; the root of `2ⁿ` amplitudes
//!   sits at level `n − 6`, and an aligned slice of whole leaves (a
//!   rank's share) is a subtree: each rank digests its own slice from
//!   its split planes (`planes`) and `join` combines the roots.
//! * **`Z[l]`** digests an all-zero subtree of height `l`: [`sparse`]
//!   folds only the leaves holding a stored amplitude and takes `Z[l]`
//!   for the rest, equal to [`dense`] by construction in `O(nnz · n)`.
//!
//! Every step is a bijection of each input for fixed others, so any
//! single-bit change moves the root. Not a cryptographic hash.

use crate::SparseState;
use qse_math::Complex64;
use qse_util::rng::avalanche;
use std::ops::Range;

/// log₂ of the amplitudes in one leaf.
pub const LEAF_LOG2: u32 = 6;
/// Amplitudes in one leaf.
pub const LEAF_AMPS: usize = 1 << LEAF_LOG2;

/// The four lanes' starting words.
const LANE_SEEDS: [u64; 4] = [avalanche(1), avalanche(2), avalanche(3), avalanche(4)];

/// One lane step: xor in, multiply by the (odd) golden-ratio constant,
/// rotate.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
}

/// Folds the four lanes, then the leaf's length, and avalanches.
fn finish(lanes: [u64; 4], amps: usize) -> u64 {
    avalanche(lanes.into_iter().fold(amps as u64, fold))
}

fn leaf(amps: &[Complex64]) -> u64 {
    let [mut h0, mut h1, mut h2, mut h3] = LANE_SEEDS;
    let mut pairs = amps.chunks_exact(2);
    for p in &mut pairs {
        h0 = fold(h0, p[0].re.to_bits());
        h1 = fold(h1, p[0].im.to_bits());
        h2 = fold(h2, p[1].re.to_bits());
        h3 = fold(h3, p[1].im.to_bits());
    }
    if let [a] = pairs.remainder() {
        h0 = fold(h0, a.re.to_bits());
        h1 = fold(h1, a.im.to_bits());
    }
    finish([h0, h1, h2, h3], amps.len())
}

/// [`leaf`] of the amplitudes whose parts are `re` and `im`: the same
/// words dealt to the same lanes, read from the split planes.
fn leaf_planes(re: &[f64], im: &[f64]) -> u64 {
    let [mut h0, mut h1, mut h2, mut h3] = LANE_SEEDS;
    let (mut re_pairs, mut im_pairs) = (re.chunks_exact(2), im.chunks_exact(2));
    for (r, i) in (&mut re_pairs).zip(&mut im_pairs) {
        h0 = fold(h0, r[0].to_bits());
        h1 = fold(h1, i[0].to_bits());
        h2 = fold(h2, r[1].to_bits());
        h3 = fold(h3, i[1].to_bits());
    }
    if let ([r], [i]) = (re_pairs.remainder(), im_pairs.remainder()) {
        h0 = fold(h0, r.to_bits());
        h1 = fold(h1, i.to_bits());
    }
    finish([h0, h1, h2, h3], re.len())
}

fn node(left: u64, right: u64, level: u32) -> u64 {
    avalanche(fold(fold(u64::from(level), left), right))
}

/// The digest of the `len` amplitudes from `start`, a power of two, whose
/// leaves `leaf_at` digests: halves joined recursively.
fn tree(start: usize, len: usize, leaf_at: &impl Fn(Range<usize>) -> u64) -> u64 {
    if len <= LEAF_AMPS {
        return leaf_at(start..start + len);
    }
    let half = len / 2;
    let level = len.trailing_zeros() - LEAF_LOG2;
    node(
        tree(start, half, leaf_at),
        tree(start + half, half, leaf_at),
        level,
    )
}

/// The digest of a dense statevector of `2ⁿ` amplitudes: one pass in
/// index order, nothing allocated.
///
/// # Panics
/// Panics when `amps.len()` is not a power of two.
pub fn dense(amps: &[Complex64]) -> u64 {
    assert!(
        amps.len().is_power_of_two(),
        "a digest needs 2^n amplitudes"
    );
    tree(0, amps.len(), &|r| leaf(&amps[r]))
}

/// [`dense`] of the amplitudes whose real parts are `re` and imaginary
/// parts `im` — a split-plane slice digested where it lives.
///
/// # Panics
/// Panics when the planes differ in length or it is not a power of two.
pub(crate) fn planes(re: &[f64], im: &[f64]) -> u64 {
    assert!(
        re.len() == im.len() && re.len().is_power_of_two(),
        "a digest needs 2^n amplitudes"
    );
    tree(0, re.len(), &|r| leaf_planes(&re[r.clone()], &im[r]))
}

/// The digest of a statevector cut into `roots.len()` equal aligned
/// slices of `slice_len` amplitudes each, from the slices' own digests in
/// index order: [`dense`] of the whole, when every slice holds at least
/// one leaf ([`LEAF_AMPS`]).
///
/// # Panics
/// Panics when `roots.len()` is not a power of two or a slice is smaller
/// than a leaf while there is more than one.
pub(crate) fn join(roots: &[u64], slice_len: usize) -> u64 {
    assert!(roots.len().is_power_of_two(), "2^k slices");
    assert!(
        roots.len() == 1 || slice_len >= LEAF_AMPS,
        "a slice below a leaf is no subtree"
    );
    let mut level = slice_len.trailing_zeros().saturating_sub(LEAF_LOG2);
    let mut roots = roots.to_vec();
    while roots.len() > 1 {
        level += 1;
        roots = roots
            .chunks_exact(2)
            .map(|p| node(p[0], p[1], level))
            .collect();
    }
    roots[0]
}

/// `Z[l]` for `l ∈ 0..=levels`.
fn zero_digests(levels: u32) -> Vec<u64> {
    let mut z = vec![leaf(&[Complex64::ZERO; LEAF_AMPS])];
    for l in 1..=levels {
        z.push(node(z[z.len() - 1], z[z.len() - 1], l));
    }
    z
}

/// [`dense`] of `s.to_vec()`, without materialising it: each leaf that
/// holds a stored amplitude is digested from a one-leaf buffer.
pub fn sparse(s: &SparseState) -> u64 {
    let n = s.n_qubits();
    if n <= LEAF_LOG2 {
        return dense(&s.to_vec());
    }
    let mut leaves = Vec::new();
    let mut buf = [Complex64::ZERO; LEAF_AMPS];
    let offset = |k: u64| crate::ix(k % LEAF_AMPS as u64);
    for run in s
        .sorted_keys()
        .chunk_by(|a, b| a >> LEAF_LOG2 == b >> LEAF_LOG2)
    {
        for &k in run {
            buf[offset(k)] = s.amplitude(k);
        }
        leaves.push((run[0] >> LEAF_LOG2, leaf(&buf)));
        for &k in run {
            buf[offset(k)] = Complex64::ZERO;
        }
    }
    let levels = n - LEAF_LOG2;
    subtree(&leaves, levels, &zero_digests(levels))
}

/// The digest of the subtree of height `level` holding `leaves`, sorted
/// `(leaf index, digest)` pairs; `zeros[l]` is `Z[l]`.
fn subtree(leaves: &[(u64, u64)], level: u32, zeros: &[u64]) -> u64 {
    match leaves {
        [] => zeros[crate::ix(u64::from(level))],
        [(_, h)] if level == 0 => *h,
        _ => {
            let (left, right) =
                leaves.split_at(leaves.partition_point(|&(i, _)| i >> (level - 1) & 1 == 0));
            node(
                subtree(left, level - 1, zeros),
                subtree(right, level - 1, zeros),
                level,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::algorithms::ghz;
    use qse_circuit::Circuit;
    use qse_util::rng::{Rng, StdRng};

    /// The same tree written as plainly as possible: recursive halving
    /// over a materialised vector, and each leaf's words listed and
    /// dealt to their lanes one at a time.
    fn oracle(amps: &[Complex64]) -> u64 {
        if amps.len() <= LEAF_AMPS {
            let words: Vec<u64> = amps
                .iter()
                .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
                .collect();
            let mut lanes = LANE_SEEDS;
            for (i, w) in words.into_iter().enumerate() {
                lanes[i % 4] = fold(lanes[i % 4], w);
            }
            return finish(lanes, amps.len());
        }
        let (left, right) = amps.split_at(amps.len() / 2);
        let level = amps.len().trailing_zeros() - LEAF_LOG2;
        node(oracle(left), oracle(right), level)
    }

    fn random_state(n: u32, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| Complex64::new(rng.random_f64() - 0.5, rng.random_f64() - 0.5))
            .collect()
    }

    #[test]
    fn dense_digest_matches_the_plain_loop_oracle() {
        for n in 0..=20 {
            let amps = random_state(n, u64::from(n));
            assert_eq!(dense(&amps), oracle(&amps), "n={n}");
        }
    }

    /// The split-plane digest equals the interleaved one, and the roots of
    /// R ∈ {1, 2, 4, 8} aligned slices of at least a leaf join to it, at
    /// n ∈ {0…20}.
    #[test]
    fn slice_roots_join_to_the_dense_digest() {
        for n in 0..=20 {
            let amps = random_state(n, u64::from(n) + 100);
            let re: Vec<f64> = amps.iter().map(|a| a.re).collect();
            let im: Vec<f64> = amps.iter().map(|a| a.im).collect();
            let want = oracle(&amps);
            assert_eq!(planes(&re, &im), want, "n={n}");
            for ranks in [1usize, 2, 4, 8] {
                let local = amps.len() / ranks;
                if local == 0 || (ranks > 1 && local < LEAF_AMPS) {
                    continue;
                }
                let roots: Vec<u64> = (0..ranks)
                    .map(|r| {
                        let s = r * local..(r + 1) * local;
                        planes(&re[s.clone()], &im[s])
                    })
                    .collect();
                assert_eq!(join(&roots, local), want, "n={n} R={ranks}");
            }
        }
    }

    #[test]
    fn zero_subtrees_are_the_digests_of_zero_vectors() {
        let z = zero_digests(8);
        for (l, want) in z.iter().enumerate() {
            let zeros = vec![Complex64::ZERO; LEAF_AMPS << l];
            assert_eq!(oracle(&zeros), *want, "Z[{l}]");
        }
    }

    #[test]
    fn every_bit_of_every_word_in_a_leaf_moves_the_digest() {
        // Leaf 1 of 4: the flip must survive the lane fold, the leaf's
        // finish and two node mixes.
        let amps = random_state(8, 7);
        let base = dense(&amps);
        for amp in LEAF_AMPS..2 * LEAF_AMPS {
            for bit in 0..64 {
                let mut re = amps.clone();
                re[amp].re = f64::from_bits(re[amp].re.to_bits() ^ 1 << bit);
                let mut im = amps.clone();
                im[amp].im = f64::from_bits(im[amp].im.to_bits() ^ 1 << bit);
                assert_ne!(dense(&re), base, "re of {amp}, bit {bit}");
                assert_ne!(dense(&im), base, "im of {amp}, bit {bit}");
            }
        }
    }

    #[test]
    fn signed_zeros_and_swapped_amplitudes_move_the_digest() {
        for n in [0u32, 1, 6, 9] {
            let pos = vec![Complex64::new(0.5, 0.0); 1 << n];
            let last = pos.len() - 1;
            let mut neg = pos.clone();
            neg[last].im = -0.0;
            assert_ne!(dense(&pos), dense(&neg), "±0.0 at n={n}");
        }
        let amps = random_state(9, 3);
        let base = dense(&amps);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (0, 63), (17, 40), (64, 127)] {
            let mut swapped = amps.clone();
            swapped.swap(a, b);
            assert_ne!(dense(&swapped), base, "swap {a}↔{b}");
        }
    }

    /// Sparse states of width `n` whose stored amplitudes include index
    /// 0, the last index, `+0.0` and `−0.0` (the pruning epsilon is 0, so
    /// an exact cancellation stays stored).
    fn sparse_fixtures(n: u32) -> Vec<SparseState> {
        let run = |basis: u64, c: &Circuit| {
            let mut s = SparseState::basis_state_with_epsilon(n, basis, 0.0);
            s.run(c);
            s
        };
        let last = (1u64 << n) - 1;
        // H·H on |…1⟩ cancels its |…0⟩ partner to a stored +0.0; X then Z
        // carry that zero to |…1⟩ and flip its sign.
        let mut cancel = Circuit::new(n);
        cancel.h(0).h(0);
        let mut negate = cancel.clone();
        negate.x(0).z(0);
        vec![run(last, &cancel), run(last, &negate), run(0, &ghz(n))]
    }

    /// One stored amplitude at offset 0 (`at_end` false) or at the last
    /// offset of every leaf of an `n`-qubit register.
    fn one_per_leaf(n: u32, at_end: bool) -> SparseState {
        let mut c = Circuit::new(n);
        for q in LEAF_LOG2..n {
            c.h(q);
        }
        let basis = if at_end { LEAF_AMPS as u64 - 1 } else { 0 };
        let mut s = SparseState::basis_state(n, basis);
        s.run(&c);
        s
    }

    #[test]
    fn sparse_digest_equals_the_dense_one() {
        let (mut first, mut last, mut pos_zero, mut neg_zero) = (false, false, false, false);
        for n in [1u32, 5, 6, 7, 12, 20] {
            let mut states = sparse_fixtures(n);
            // A lone amplitude at the last index: every leaf before it
            // is empty.
            states.push(SparseState::basis_state(n, (1u64 << n) - 1));
            if n > LEAF_LOG2 {
                states.push(one_per_leaf(n, false));
                states.push(one_per_leaf(n, true));
            }
            for s in states {
                for k in s.sorted_keys() {
                    let a = s.amplitude(k);
                    first |= k == 0;
                    last |= k == (1u64 << n) - 1;
                    pos_zero |= a.re.to_bits() == 0;
                    neg_zero |= a.re.to_bits() == (-0.0f64).to_bits();
                }
                let amps = s.to_vec();
                assert_eq!(sparse(&s), dense(&amps), "n={n}");
                assert_eq!(dense(&amps), oracle(&amps), "n={n}");
            }
        }
        assert!(
            first && last && pos_zero && neg_zero,
            "the fixtures miss a case"
        );
        assert_eq!(one_per_leaf(12, true).n_nonzero(), 64);
    }

    #[test]
    fn sparse_digest_needs_no_dense_vector() {
        // 2^35 amplitudes are 512 GiB dense (`to_vec` refuses n > 30); the
        // digest of a 35-qubit GHZ state is its two edge leaves joined
        // through the all-zero subtrees between them.
        let n = 35;
        let s = SparseState::simulate(&ghz(n));
        assert_eq!(s.n_nonzero(), 2);
        let mut first = [Complex64::ZERO; LEAF_AMPS];
        first[0] = s.amplitude(0);
        let mut last = [Complex64::ZERO; LEAF_AMPS];
        last[LEAF_AMPS - 1] = s.amplitude((1u64 << n) - 1);
        let levels = n - LEAF_LOG2;
        let z = zero_digests(levels);
        let (mut left, mut right) = (oracle(&first), oracle(&last));
        for l in 1..levels {
            left = node(left, z[l as usize - 1], l);
            right = node(z[l as usize - 1], right, l);
        }
        let want = node(left, right, levels);
        assert_eq!(sparse(&s), want);
        let mut flipped = ghz(n);
        flipped.z(0);
        assert_ne!(sparse(&SparseState::simulate(&flipped)), want);
    }
}
