//! Tolerant floating-point comparisons for tests and validation.
//!
//! Statevector simulations accumulate rounding error linearly in circuit
//! depth, so every equality check in the repository goes through these
//! helpers with an explicit tolerance rather than `==`.

use crate::complex::Complex64;

/// Returns true when `|a - b| <= tol`, treating two NaNs as unequal.
#[inline]
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Returns true when both components of two complex numbers are within `tol`.
#[inline]
pub fn complex_close(a: Complex64, b: Complex64, tol: f64) -> bool {
    close(a.re, b.re, tol) && close(a.im, b.im, tol)
}

/// Returns true when two complex slices agree element-wise within `tol`.
pub fn slices_close(a: &[Complex64], b: &[Complex64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| complex_close(x, y, tol))
}

/// Largest element-wise absolute deviation between two complex slices.
///
/// Returns `f64::INFINITY` when the slices differ in length, so a truncated
/// comparison can never silently pass.
pub fn max_deviation(a: &[Complex64], b: &[Complex64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Panics with a readable message when `|a - b| > tol`.
#[track_caller]
pub fn assert_close(a: f64, b: f64, tol: f64) {
    assert!(
        close(a, b, tol),
        "values differ: {a} vs {b} (|Δ| = {}, tol = {tol})",
        (a - b).abs()
    );
}

/// Panics with a readable message when two complex numbers differ by more
/// than `tol` in either component.
#[track_caller]
pub fn assert_complex_close(a: Complex64, b: Complex64, tol: f64) {
    assert!(
        complex_close(a, b, tol),
        "complex values differ: {a} vs {b} (tol = {tol})"
    );
}

/// Panics when two complex slices disagree, reporting the first offending
/// index to make kernel debugging tractable.
#[track_caller]
pub fn assert_slices_close(a: &[Complex64], b: &[Complex64], tol: f64) {
    assert_eq!(a.len(), b.len(), "slice lengths differ");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            complex_close(x, y, tol),
            "slices differ at index {i}: {x} vs {y} (tol = {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_respects_tolerance() {
        assert!(close(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!close(1.0, 1.1, 1e-9));
        assert!(close(1.0, 1.0, 0.0));
    }

    #[test]
    fn nan_never_close() {
        assert!(!close(f64::NAN, f64::NAN, 1.0));
        assert!(!close(f64::NAN, 0.0, 1.0));
    }

    #[test]
    fn complex_close_checks_both_components() {
        let a = Complex64::new(1.0, 2.0);
        assert!(complex_close(a, Complex64::new(1.0 + 1e-12, 2.0), 1e-9));
        assert!(!complex_close(a, Complex64::new(1.0, 2.1), 1e-9));
        assert!(!complex_close(a, Complex64::new(1.1, 2.0), 1e-9));
    }

    #[test]
    fn slices_close_rejects_length_mismatch() {
        let a = vec![Complex64::ONE; 3];
        let b = vec![Complex64::ONE; 4];
        assert!(!slices_close(&a, &b, 1e-9));
        assert_eq!(max_deviation(&a, &b), f64::INFINITY);
    }

    #[test]
    fn max_deviation_finds_worst_element() {
        let a = vec![Complex64::ZERO, Complex64::new(1.0, 0.0)];
        let b = vec![Complex64::ZERO, Complex64::new(0.5, 0.0)];
        assert_close(max_deviation(&a, &b), 0.5, 1e-15);
    }

    #[test]
    #[should_panic(expected = "values differ")]
    fn assert_close_panics_with_message() {
        assert_close(1.0, 2.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "slices differ at index 1")]
    fn assert_slices_close_reports_index() {
        let a = vec![Complex64::ZERO, Complex64::ONE];
        let b = vec![Complex64::ZERO, Complex64::ZERO];
        assert_slices_close(&a, &b, 1e-9);
    }
}
