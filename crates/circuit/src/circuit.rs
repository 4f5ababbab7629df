//! The circuit container and builder API.

use crate::gate::Gate;
use std::collections::BTreeMap;
use std::fmt;

/// An ordered list of gates over a fixed-width register.
///
/// Gates are applied in list order: `gates[0]` first. The builder methods
/// validate qubit indices eagerly, so a malformed circuit cannot reach the
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: u32,
    gates: Vec<Gate>,
}

/// Widest register the IR accepts. Chosen for the stabilizer engine
/// (an `O(n²)`-bit tableau stays a few MiB here); basis-state-indexed
/// engines cap out far earlier (dense n ≤ 30 locally, sparse n ≤ 40).
pub const MAX_QUBITS: u32 = 4096;

impl Circuit {
    /// Creates an empty circuit over `n_qubits` (≥ 1).
    ///
    /// The IR itself only names qubits (`u32` operands), so it scales
    /// to [`MAX_QUBITS`] — wide enough for the stabilizer tableau.
    /// Engines that index basis states (`u64` amplitudes) enforce
    /// their own, much smaller caps at construction time.
    pub fn new(n_qubits: u32) -> Self {
        assert!(n_qubits >= 1, "circuit needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "register of {n_qubits} qubits exceeds the {MAX_QUBITS}-qubit IR cap"
        );
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The gate list, in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate, validating its qubit indices.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register width {}",
            self.n_qubits
        );
        if let Gate::Swap(a, b) = gate {
            assert!(a != b, "Swap targets must differ");
        }
        if let Gate::CNot { control, target } = gate {
            assert!(control != target, "CNot control and target must differ");
        }
        if let Gate::CZ(a, b) = gate {
            assert!(a != b, "CZ qubits must differ");
        }
        if let Gate::CPhase { a, b, .. } = gate {
            assert!(a != b, "CPhase qubits must differ");
        }
        if let Gate::MCPhase { ref qubits, .. } = gate {
            assert!(!qubits.is_empty(), "MCPhase needs at least one qubit");
            let mut sorted = qubits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                qubits.len(),
                "MCPhase qubits must be distinct"
            );
        }
        if let Gate::CUnitary {
            control,
            target,
            ref matrix,
        } = gate
        {
            assert!(control != target, "CUnitary control and target must differ");
            assert!(matrix.is_unitary(1e-9), "CUnitary matrix is not unitary");
        }
        if let Gate::Unitary2 { a, b, ref matrix } = gate {
            assert!(a != b, "Unitary2 qubits must differ");
            assert!(matrix.is_unitary(1e-9), "Unitary2 matrix is not unitary");
        }
        if let Gate::Unitary1 { ref matrix, .. } = gate {
            assert!(matrix.is_unitary(1e-9), "Unitary1 matrix is not unitary");
        }
        self.gates.push(gate);
        self
    }

    /// Appends every gate of `other` (register widths must match).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "cannot extend across register widths"
        );
        for g in &other.gates {
            self.push(g.clone());
        }
        self
    }

    // -- fluent builders ---------------------------------------------------

    /// Appends a Hadamard.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Appends a phase shift.
    pub fn phase(&mut self, target: u32, theta: f64) -> &mut Self {
        self.push(Gate::Phase { target, theta })
    }

    /// Appends a CNOT.
    pub fn cnot(&mut self, control: u32, target: u32) -> &mut Self {
        self.push(Gate::CNot { control, target })
    }

    /// Appends a controlled phase.
    pub fn cphase(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push(Gate::CPhase { a, b, theta })
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    // -- structural operations ----------------------------------------------

    /// The inverse circuit: gates reversed, each replaced by its adjoint.
    /// `c.then(c.inverse())` is the identity operator, which the test
    /// suites exploit heavily.
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(Gate::dagger).collect(),
        }
    }

    /// Concatenation: `self` followed by `other`.
    pub fn then(&self, other: &Circuit) -> Circuit {
        let mut out = self.clone();
        out.extend(other);
        out
    }

    /// Relabels every gate's qubits through `f` (must be a bijection on
    /// `0..n_qubits`; not checked here — the transpiler guarantees it).
    pub fn remap(&self, f: &dyn Fn(u32) -> u32) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().map(|g| g.remap(f)).collect(),
        }
    }

    /// Gate histogram by mnemonic, for reports.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for g in &self.gates {
            *counts.entry(g.name()).or_insert(0) += 1;
        }
        counts
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.n_qubits,
            self.len()
        )?;
        for (i, g) in self.gates.iter().enumerate() {
            writeln!(f, "  {i:4}: {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cphase(1, 2, 0.5).swap(0, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_qubits(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds register width")]
    fn out_of_range_qubit_rejected() {
        Circuit::new(2).h(2);
    }

    #[test]
    #[should_panic(expected = "Swap targets must differ")]
    fn degenerate_swap_rejected() {
        Circuit::new(2).swap(1, 1);
    }

    #[test]
    #[should_panic(expected = "control and target must differ")]
    fn degenerate_cnot_rejected() {
        Circuit::new(2).cnot(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn empty_register_rejected() {
        Circuit::new(0);
    }

    #[test]
    fn inverse_reverses_and_daggers() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cnot(0, 1);
        let inv = c.inverse();
        assert_eq!(
            inv.gates()[0],
            Gate::CNot {
                control: 0,
                target: 1
            }
        );
        assert_eq!(inv.gates()[1], Gate::Sdg(1));
        assert_eq!(inv.gates()[2], Gate::H(0));
    }

    #[test]
    fn double_inverse_is_identity_list() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).cphase(0, 2, 0.3).swap(1, 2);
        assert_eq!(c.inverse().inverse(), c);
    }

    #[test]
    fn then_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.x(1);
        let c = a.then(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.gates()[0], Gate::H(0));
        assert_eq!(c.gates()[1], Gate::X(1));
    }

    #[test]
    #[should_panic(expected = "across register widths")]
    fn width_mismatch_rejected() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        a.then(&b);
    }

    #[test]
    fn remap_flips_qubits() {
        let mut c = Circuit::new(4);
        c.h(0).swap(1, 3);
        let flipped = c.remap(&|q| 3 - q);
        assert_eq!(flipped.gates()[0], Gate::H(3));
        assert_eq!(flipped.gates()[1], Gate::Swap(2, 0));
    }

    #[test]
    fn gate_counts_histogram() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cphase(0, 1, 0.1).swap(0, 2);
        let counts = c.gate_counts();
        assert_eq!(counts["H"], 2);
        assert_eq!(counts["CPhase"], 1);
        assert_eq!(counts["Swap"], 1);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(1);
        let s = c.to_string();
        assert!(s.contains("2 qubits"));
        assert!(s.contains("H(1)"));
    }
}
