//! Qubit permutations.
//!
//! The cache-blocking transpiler reasons about *layouts*: a bijection from
//! logical qubits to physical positions. This module provides that algebra
//! plus conversion to explicit SWAP networks for re-insertion into circuits.

use qse_math::bits;

/// A bijection on qubit labels `0..n`.
///
/// `map[q]` is where qubit `q` goes. Identity is `map[q] == q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` labels.
    pub fn identity(n: u32) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// Builds from an explicit image vector, validating bijectivity.
    pub fn from_map(map: Vec<u32>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &v in &map {
            assert!((v as usize) < n, "image {v} out of range 0..{n}");
            assert!(!seen[v as usize], "duplicate image {v}");
            seen[v as usize] = true;
        }
        Permutation { map }
    }

    /// The full bit-reversal `q → n-1-q` — the permutation realised by the
    /// QFT's trailing SWAP network.
    pub fn reversal(n: u32) -> Self {
        Permutation {
            map: (0..n).rev().collect(),
        }
    }

    /// Number of labels.
    pub fn len(&self) -> u32 {
        self.map.len() as u32
    }

    /// True for the zero-width permutation (never built in practice).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Image of label `q`.
    #[inline]
    pub fn apply(&self, q: u32) -> u32 {
        self.map[q as usize]
    }

    /// True when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &v)| i as u32 == v)
    }

    /// Swaps the images of labels `a` and `b` in place.
    pub fn swap(&mut self, a: u32, b: u32) {
        self.map.swap(a as usize, b as usize);
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.map.len()];
        for (i, &v) in self.map.iter().enumerate() {
            inv[v as usize] = i as u32;
        }
        Permutation { map: inv }
    }

    /// Composition: `(self.compose(other)).apply(q) == self.apply(other.apply(q))`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation {
            map: (0..self.len())
                .map(|q| self.apply(other.apply(q)))
                .collect(),
        }
    }

    /// Applies the permutation to an amplitude index: bit `q` of the input
    /// moves to bit `apply(q)` of the output. Used by tests to verify that
    /// a transpiled circuit equals the original up to this relabelling.
    pub fn permute_index(&self, index: u64) -> u64 {
        let mut out = 0u64;
        for q in 0..self.len() {
            out |= bits::bit(index, q) << self.apply(q);
        }
        out
    }

    /// Decomposes into a minimal sequence of transpositions `(a, b)` such
    /// that applying `swap(a, b)` operations in order to the identity
    /// yields this permutation. Used to materialise a layout change as
    /// SWAP gates.
    pub fn as_transpositions(&self) -> Vec<(u32, u32)> {
        let mut current = Permutation::identity(self.len());
        // `source[v]`: the label whose current image is `v`.
        let mut source = current.map.clone();
        let mut swaps = Vec::new();
        // Greedy cycle decomposition: put each label into its place.
        for q in 0..self.len() {
            let target = self.apply(q);
            // Labels below `q` already hold their own images, so the one
            // holding `target` is `q` itself or lies above it.
            let r = source[target as usize];
            if r != q {
                source[current.apply(q) as usize] = r;
                source[target as usize] = q;
                current.swap(q, r);
                swaps.push((q, r));
            }
        }
        debug_assert_eq!(&current, self);
        swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.inverse(), p);
        assert!(p.as_transpositions().is_empty());
        assert_eq!(p.permute_index(0b10110), 0b10110);
    }

    #[test]
    fn reversal_flips_labels() {
        let p = Permutation::reversal(4);
        assert_eq!(p.apply(0), 3);
        assert_eq!(p.apply(3), 0);
        assert!(p.compose(&p).is_identity());
    }

    #[test]
    #[should_panic(expected = "duplicate image")]
    fn non_bijection_rejected() {
        Permutation::from_map(vec![0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_image_rejected() {
        Permutation::from_map(vec![0, 5]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_map(vec![2, 0, 3, 1]);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn compose_order() {
        // other first, then self.
        let shift = Permutation::from_map(vec![1, 2, 0]); // q -> q+1 mod 3
        let rev = Permutation::reversal(3);
        let c = rev.compose(&shift);
        for q in 0..3 {
            assert_eq!(c.apply(q), rev.apply(shift.apply(q)));
        }
    }

    #[test]
    fn permute_index_moves_bits() {
        let p = Permutation::from_map(vec![2, 0, 1]); // bit0->2, bit1->0, bit2->1
        assert_eq!(p.permute_index(0b001), 0b100);
        assert_eq!(p.permute_index(0b010), 0b001);
        assert_eq!(p.permute_index(0b100), 0b010);
        assert_eq!(p.permute_index(0b111), 0b111);
    }

    #[test]
    fn reversal_permute_index_is_bit_reverse() {
        let p = Permutation::reversal(5);
        for x in 0..32u64 {
            assert_eq!(p.permute_index(x), qse_math::bits::reverse_bits(x, 5));
        }
    }

    #[test]
    fn transpositions_rebuild_permutation() {
        for map in [
            vec![2, 0, 3, 1],
            vec![4, 3, 2, 1, 0],
            vec![1, 0],
            vec![0, 1, 2],
            vec![3, 2, 1, 0],
        ] {
            let p = Permutation::from_map(map);
            let mut rebuilt = Permutation::identity(p.len());
            for (a, b) in p.as_transpositions() {
                rebuilt.swap(a, b);
            }
            assert_eq!(rebuilt, p);
        }
    }

    /// Every permutation of up to six labels decomposes into the swaps
    /// of the search the source table replaced: for each `q`, the first
    /// label above it whose current image is `q`'s target.
    #[test]
    fn transpositions_match_the_forward_search() {
        fn search(p: &Permutation) -> Vec<(u32, u32)> {
            let mut current = Permutation::identity(p.len());
            let mut swaps = Vec::new();
            for q in 0..p.len() {
                if current.apply(q) != p.apply(q) {
                    let r = (q + 1..p.len())
                        .find(|&r| current.apply(r) == p.apply(q))
                        .unwrap();
                    current.swap(q, r);
                    swaps.push((q, r));
                }
            }
            swaps
        }
        fn each(map: &mut Vec<u32>, k: usize, f: &mut dyn FnMut(&[u32])) {
            if k == map.len() {
                return f(map);
            }
            for j in k..map.len() {
                map.swap(k, j);
                each(map, k + 1, f);
                map.swap(k, j);
            }
        }
        for n in 0..=6u32 {
            each(&mut (0..n).collect(), 0, &mut |map| {
                let p = Permutation::from_map(map.to_vec());
                assert_eq!(p.as_transpositions(), search(&p), "{map:?}");
            });
        }
    }

    #[test]
    fn reversal_needs_floor_half_swaps() {
        let p = Permutation::reversal(6);
        assert_eq!(p.as_transpositions().len(), 3);
        let p = Permutation::reversal(7);
        assert_eq!(p.as_transpositions().len(), 3);
    }
}
