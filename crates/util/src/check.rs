//! Seeded property loops with deterministic shrink-by-halving.
//!
//! Replaces `proptest` with something auditable in a page: a property is
//! a closure over a seeded [`StdRng`] and an integer *size*. The harness
//! runs it for `cases` deterministic seeds at randomised sizes; on a
//! failure it re-runs the failing seed at halved sizes (`size/2`,
//! `size/4`, …, 1) and reports the smallest size that still fails — for
//! circuit-shaped inputs, "size" is the gate count, so halving is the
//! shrink that matters. Seeds are derived from a fixed stream, so a
//! failure report (`seed=…, size=…`) reproduces exactly with
//! `run_case(seed, size, prop)`.

use crate::rng::{Rng, SplitMix64, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `prop` once with the generator and size a failure report names.
pub fn run_case<F: FnMut(&mut StdRng, usize)>(seed: u64, size: usize, mut prop: F) {
    let mut rng = StdRng::seed_from_u64(seed);
    prop(&mut rng, size);
}
fn case_fails<F>(seed: u64, size: usize, prop: &F) -> Option<String>
where
    F: Fn(&mut StdRng, usize),
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        prop(&mut rng, size);
    }));
    match result {
        Ok(()) => None,
        Err(payload) => Some(panic_message(&payload)),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Checks `prop` over `cases` seeded runs with sizes in `1..=max_size`.
///
/// On failure, shrinks the failing case by halving its size until the
/// property passes, then panics with the seed and minimal failing size.
/// The panic message of the minimal case is preserved, so
/// `#[should_panic(expected = …)]` tests still match.
pub fn check_with_size<F>(cases: u64, max_size: usize, prop: F)
where
    F: Fn(&mut StdRng, usize),
{
    assert!(max_size >= 1, "max_size must be at least 1");
    // A fixed stream of (seed, size) pairs, independent of the property.
    let mut meta = SplitMix64::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    for case in 0..cases {
        let seed = meta.next_u64();
        let size = 1 + (meta.next_u64() as usize) % max_size;
        #[expect(
            clippy::panic,
            reason = "reporting a failed property as a panic is this helper's purpose"
        )]
        if let Some(first_msg) = case_fails(seed, size, &prop) {
            // Shrink: halve the size while the property keeps failing.
            let (mut best_size, mut best_msg) = (size, first_msg);
            let mut s = size / 2;
            while s >= 1 {
                match case_fails(seed, s, &prop) {
                    Some(msg) => {
                        best_size = s;
                        best_msg = msg;
                        if s == 1 {
                            break;
                        }
                        s /= 2;
                    }
                    None => break,
                }
            }
            panic!(
                "property failed at case {case}: seed={seed}, size={best_size} \
                 (first failure at size {size}): {best_msg}"
            );
        }
    }
}

/// Checks a size-independent property over `cases` seeded runs.
pub fn check<F>(cases: u64, prop: F)
where
    F: Fn(&mut StdRng),
{
    check_with_size(cases, 1, |rng, _| prop(rng));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let runs = AtomicU64::new(0);
        check(25, |rng| {
            runs.fetch_add(1, Ordering::SeqCst);
            let v = rng.random_f64();
            assert!((0.0..1.0).contains(&v));
        });
        assert_eq!(runs.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn sizes_stay_in_range() {
        check_with_size(50, 40, |_, size| {
            assert!((1..=40).contains(&size), "size {size} out of range");
        });
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_report() {
        check(10, |_| panic!("intentional"));
    }

    #[test]
    #[should_panic(expected = "too big")]
    fn original_message_is_preserved() {
        check_with_size(10, 64, |_, size| {
            assert!(size < 100, "too big: {size}");
            panic!("too big: every size fails here");
        });
    }

    #[test]
    fn shrink_finds_smallest_failing_size() {
        // Fails for size >= 8; the report must name a size < 16 once
        // halving lands in the failing region's lower edge (8).
        let result = std::panic::catch_unwind(|| {
            check_with_size(50, 64, |_, size| assert!(size < 8, "size {size} >= 8"));
        });
        let msg = result.unwrap_err();
        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        // The shrunk size is the smallest power-of-two fraction that
        // still fails — between 8 and 15 by construction.
        let size: usize = msg
            .split("size=")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("report names a size");
        assert!((8..16).contains(&size), "report: {msg}");
    }

    #[test]
    fn run_case_reproduces_deterministically() {
        let mut first = None;
        for _ in 0..2 {
            let mut value = 0.0;
            run_case(99, 5, |rng, size| {
                value = rng.random_f64() * size as f64;
            });
            match first {
                None => first = Some(value),
                Some(f) => assert_eq!(f, value),
            }
        }
    }
}
