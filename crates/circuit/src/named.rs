//! The circuits the front ends build by name — `qse run`, `model`,
//! `transpile` and `submit`, and the service's `{"name": …}` requests —
//! from one table, so every front end accepts the same names and widths.

use crate::algorithms::{bernstein_vazirani, ghz, grover, grover_optimal_iterations};
use crate::qft::{cache_blocked_qft, qft, valid_split_range};
use crate::{Circuit, MAX_QUBITS};

/// Builds a circuit at a width its table entry admits.
type Build = fn(u32) -> Circuit;

/// Every named circuit: its name, widest register and constructor. Grover
/// and Bernstein–Vazirani index their marked state or secret with a
/// `u64`, so they stop at 63 qubits.
const TABLE: [(&str, u32, Build); 5] = [
    ("qft", MAX_QUBITS, qft),
    ("qft-blocked", MAX_QUBITS, blocked_qft),
    ("ghz", MAX_QUBITS, ghz),
    ("grover", 63, |n| {
        grover(n, (1u64 << n) - 1, grover_optimal_iterations(n))
    }),
    ("bv", 63, |n| bernstein_vazirani(n, (1u64 << n) / 3)),
];

/// The cache-blocked QFT, split in the middle of the valid range for a
/// half-width local window.
fn blocked_qft(n: u32) -> Circuit {
    let split = valid_split_range(n, n.div_ceil(2).max(1))
        .map(|(lo, hi)| (lo + hi) / 2)
        .unwrap_or(n);
    cache_blocked_qft(n, split)
}

/// Why a named circuit cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamedError {
    /// No circuit has this name.
    Unknown(String),
    /// The circuit `name` takes `1..=max` qubits, not `n`.
    Width {
        /// The circuit's name.
        name: &'static str,
        /// The width asked for.
        n: u32,
        /// The circuit's widest register.
        max: u32,
    },
}

impl std::fmt::Display for NamedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamedError::Unknown(name) => {
                let names: Vec<_> = names().collect();
                write!(f, "unknown circuit `{name}` ({})", names.join(", "))
            }
            NamedError::Width { name, n, max } => {
                write!(f, "circuit `{name}` takes 1..={max} qubits, got {n}")
            }
        }
    }
}

impl std::error::Error for NamedError {}

/// Checks that `name` has a form at `n` qubits and returns its constructor.
fn lookup(name: &str, n: u32) -> Result<Build, NamedError> {
    let &(name, max, build) = TABLE
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| NamedError::Unknown(name.to_string()))?;
    if !(1..=max).contains(&n) {
        return Err(NamedError::Width { name, n, max });
    }
    Ok(build)
}

/// Every circuit name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|c| c.0)
}

/// Checks that `name` has a form at `n` qubits, without building it.
pub fn check(name: &str, n: u32) -> Result<(), NamedError> {
    lookup(name, n).map(|_| ())
}

/// Builds the circuit `name` at `n` qubits.
pub fn build(name: &str, n: u32) -> Result<Circuit, NamedError> {
    lookup(name, n).map(|build| build(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_at_its_widths_and_refuses_past_them() {
        for (name, max, _) in TABLE {
            assert_eq!(build(name, 5).map(|c| c.n_qubits()), Ok(5), "{name}");
            for n in [0, max + 1] {
                let want = NamedError::Width { name, n, max };
                assert_eq!(check(name, n), Err(want.clone()));
                assert_eq!(build(name, n).err(), Some(want));
            }
        }
        assert_eq!(build("qft", 7), Ok(qft(7)));
        let err = check("warp", 5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown circuit `warp` (qft, qft-blocked, ghz, grover, bv)"
        );
    }
}
