//! Bit-index utilities for amplitude addressing.
//!
//! In a statevector of `n` qubits, amplitude index `i` encodes the basis
//! state `|b_{n-1} … b_1 b_0⟩` with qubit `q` stored at bit `q` of `i`
//! (little-endian, QuEST convention). Every algorithm in the paper reduces
//! to manipulating these bits:
//!
//! * a single-qubit gate pairs indices that differ only at bit `q`;
//! * with `2^r` ranks, the top `r` bits of the index select the owning rank
//!   ("global" qubits) and the low `n − r` bits address within a rank
//!   ("local" qubits);
//! * the pair rank for a distributed gate is `rank XOR 2^(q − (n − r))`.

/// Number of amplitudes in an `n`-qubit register (`2^n`).
///
/// Panics in debug builds if `n >= 64`; the simulator never gets near that.
#[inline(always)]
pub const fn dim(n_qubits: u32) -> u64 {
    1u64 << n_qubits
}

/// Extracts bit `q` of `index` as 0 or 1.
#[inline(always)]
pub const fn bit(index: u64, q: u32) -> u64 {
    (index >> q) & 1
}

/// Swaps bits `a` and `b` of `index`.
#[inline(always)]
pub const fn swap_bits(index: u64, a: u32, b: u32) -> u64 {
    let x = (bit(index, a) ^ bit(index, b)) & 1;
    index ^ ((x << a) | (x << b))
}

/// Inserts a zero bit at position `q`, shifting higher bits up.
///
/// Maps a "pair-loop" counter `k ∈ [0, 2^{n-1})` to the lower index of the
/// `k`-th amplitude pair of a gate on qubit `q`: iterate `k`, call
/// `insert_zero_bit(k, q)` to get index `i0`, and `i0 | (1 << q)` is its
/// partner. This is how all single-qubit kernels enumerate pairs without
/// branching.
#[inline(always)]
pub const fn insert_zero_bit(index: u64, q: u32) -> u64 {
    let high = (index >> q) << (q + 1);
    let low = index & ((1 << q) - 1);
    high | low
}

/// Inserts two zero bits at positions `q1 < q2` (positions in the *output*).
///
/// Used by two-qubit kernels (SWAP, controlled gates with explicit target
/// pairs) to enumerate the four-amplitude orbits.
#[inline(always)]
pub const fn insert_two_zero_bits(index: u64, q1: u32, q2: u32) -> u64 {
    let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
    insert_zero_bit(insert_zero_bit(index, lo), hi)
}

/// True when `n` is a power of two (and non-zero).
#[inline(always)]
pub const fn is_pow2(n: u64) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Base-2 logarithm of a power of two.
///
/// # Panics
/// Panics if `n` is not a power of two — rank counts and register sizes in
/// this codebase must always be exact powers of two, as QuEST requires.
#[inline]
pub fn log2_exact(n: u64) -> u32 {
    assert!(is_pow2(n), "{n} is not a power of two");
    n.trailing_zeros()
}

/// Reverses the lowest `n_bits` bits of `index` (used by QFT output
/// ordering: the transform produces results in bit-reversed order before
/// its final SWAP network).
#[inline]
pub fn reverse_bits(index: u64, n_bits: u32) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < n_bits {
        out |= bit(index, i) << (n_bits - 1 - i);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_is_power() {
        assert_eq!(dim(0), 1);
        assert_eq!(dim(3), 8);
        assert_eq!(dim(44), 1 << 44);
    }

    #[test]
    fn bit_ops() {
        let x = 0b1010u64;
        assert_eq!(bit(x, 0), 0);
        assert_eq!(bit(x, 1), 1);
        assert_eq!(bit(x, 3), 1);
        assert_eq!(bit(x, 63), 0);
    }

    #[test]
    fn swap_bits_cases() {
        assert_eq!(swap_bits(0b01, 0, 1), 0b10);
        assert_eq!(swap_bits(0b11, 0, 1), 0b11);
        assert_eq!(swap_bits(0b00, 0, 1), 0b00);
        assert_eq!(swap_bits(0b100, 2, 0), 0b001);
        // swapping a bit with itself is the identity
        for x in 0..16u64 {
            assert_eq!(swap_bits(x, 2, 2), x);
        }
    }

    #[test]
    fn insert_zero_bit_enumerates_pairs() {
        // For q=1, k=0..4 should produce indices with bit 1 clear: 0,1,4,5
        let got: Vec<u64> = (0..4).map(|k| insert_zero_bit(k, 1)).collect();
        assert_eq!(got, vec![0, 1, 4, 5]);
        // and all partners are distinct and have bit set
        for &i0 in &got {
            assert_eq!(bit(i0, 1), 0);
            assert_eq!(bit(i0 | 2, 1), 1);
        }
    }

    #[test]
    fn insert_zero_bit_at_zero_doubles() {
        for k in 0..8u64 {
            assert_eq!(insert_zero_bit(k, 0), k * 2);
        }
    }

    #[test]
    fn insert_two_zero_bits_order_independent() {
        for k in 0..16u64 {
            assert_eq!(insert_two_zero_bits(k, 1, 3), insert_two_zero_bits(k, 3, 1));
        }
        // q1=0,q2=1: k -> 4k
        assert_eq!(insert_two_zero_bits(3, 0, 1), 12);
    }

    #[test]
    fn insert_two_zero_bits_produces_clear_bits() {
        for k in 0..64u64 {
            let i = insert_two_zero_bits(k, 2, 5);
            assert_eq!(bit(i, 2), 0);
            assert_eq!(bit(i, 5), 0);
        }
    }

    #[test]
    fn pow2_helpers() {
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(12));
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(4096), 12);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_exact_rejects_non_powers() {
        log2_exact(6);
    }

    #[test]
    fn reverse_bits_cases() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0, 5), 0);
        // involution
        for x in 0..32u64 {
            assert_eq!(reverse_bits(reverse_bits(x, 5), 5), x);
        }
    }
}
