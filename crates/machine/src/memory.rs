//! Capacity planning: how many nodes a register needs.
//!
//! A statevector of `n` qubits takes `16·2^n` bytes. When distributed,
//! "additional buffers are required in the MPI implementation, doubling
//! the overall memory requirement" (§3.1) — QuEST allocates a receive
//! buffer the size of the local slice. The paper's data points:
//!
//! * 33 qubits fit on one standard node, 34 need four (not two — the
//!   doubled footprint plus OS overhead exceeds 2 × 256 GB);
//! * at most 41 qubits fit on 256 high-memory nodes;
//! * 44 qubits need 4,096 standard nodes, and 45 would only become
//!   feasible with the half-exchange buffer (§4).

use crate::node::NodeSpec;

/// Bytes per complex amplitude (two f64) — the one definition, in
/// `qse-circuit`.
pub use qse_circuit::classify::BYTES_PER_AMP;

/// The exchange-buffer sizing regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRegime {
    /// QuEST default: the receive buffer matches the local slice
    /// (footprint × 2).
    Full,
    /// Half-exchange SWAP-only communication: buffer is half the slice
    /// (footprint × 1.5) — the paper's route to 45 qubits (§4).
    Half,
}

impl BufferRegime {
    /// Multiplier on the per-node statevector bytes.
    pub fn footprint_factor(self) -> f64 {
        match self {
            BufferRegime::Full => 2.0,
            BufferRegime::Half => 1.5,
        }
    }
}

/// Total statevector bytes for `n` qubits, or `None` when they overflow
/// `u64` (from 60 qubits on).
pub fn statevector_bytes(n_qubits: u32) -> Option<u64> {
    1u64.checked_shl(n_qubits)?.checked_mul(BYTES_PER_AMP)
}

/// Per-node bytes for `n` qubits over `nodes` ranks under a buffer regime.
/// A single node runs without MPI buffers. A register whose total
/// overflows `u64` needs infinitely many bytes per node: it fits nowhere.
pub fn per_node_bytes(n_qubits: u32, nodes: u64, regime: BufferRegime) -> f64 {
    let total = statevector_bytes(n_qubits).map_or(f64::INFINITY, |b| b as f64);
    let slice = total / nodes as f64;
    if nodes == 1 {
        slice
    } else {
        slice * regime.footprint_factor()
    }
}

/// The smallest power-of-two node count that fits `n_qubits` on `node`,
/// or `None` if even every available node is insufficient.
pub fn min_nodes(n_qubits: u32, node: &NodeSpec, regime: BufferRegime) -> Option<u64> {
    let usable = node.usable_bytes() as f64;
    let max_nodes = largest_pow2_at_most(node.available);
    let mut nodes = 1u64;
    loop {
        if per_node_bytes(n_qubits, nodes, regime) <= usable {
            return Some(nodes);
        }
        if nodes >= max_nodes {
            return None;
        }
        nodes *= 2;
    }
}

fn largest_pow2_at_most(x: u64) -> u64 {
    assert!(x >= 1);
    1u64 << (63 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;
    use crate::node::NodeKind;

    #[test]
    fn statevector_sizes() {
        assert_eq!(statevector_bytes(33), Some(128 * (1 << 30) as u64));
        assert_eq!(statevector_bytes(44), Some(256 * (1u64 << 40)));
        assert_eq!(statevector_bytes(59), Some(1u64 << 63));
        for n in [60, 63, 64, 70] {
            assert_eq!(statevector_bytes(n), None, "{n} qubits");
        }
    }

    #[test]
    fn paper_fit_standard_nodes() {
        // §3.1: "33 qubits will fit on a standard node, but 4 nodes are
        // required for a 34 qubit simulation."
        let m = archer2();
        let std = m.node(NodeKind::Standard);
        assert_eq!(min_nodes(33, std, BufferRegime::Full), Some(1));
        assert_eq!(min_nodes(34, std, BufferRegime::Full), Some(4));
        // Doubling per qubit thereafter:
        assert_eq!(min_nodes(38, std, BufferRegime::Full), Some(64));
        assert_eq!(min_nodes(43, std, BufferRegime::Full), Some(2048));
        assert_eq!(min_nodes(44, std, BufferRegime::Full), Some(4096));
        // 45 qubits do not fit with full buffers (§4)...
        assert_eq!(min_nodes(45, std, BufferRegime::Full), None);
        // ...but do with the half-exchange buffer on the same 4,096 nodes.
        assert_eq!(min_nodes(45, std, BufferRegime::Half), Some(4096));
    }

    #[test]
    fn paper_fit_highmem_nodes() {
        let m = archer2();
        let hm = m.node(NodeKind::HighMem);
        // One 34-qubit run fits a single high-memory node (§3.1).
        assert_eq!(min_nodes(34, hm, BufferRegime::Full), Some(1));
        // "A maximum of 41 qubits could be simulated on 256 high memory
        // nodes" — and 42 exceeds the partition.
        assert_eq!(min_nodes(41, hm, BufferRegime::Full), Some(256));
        assert_eq!(min_nodes(42, hm, BufferRegime::Full), None);
    }

    #[test]
    fn single_node_skips_buffer_doubling() {
        let m = archer2();
        let std = m.node(NodeKind::Standard);
        // 33 qubits = 128 GB: fits alone without an MPI buffer...
        assert!(per_node_bytes(33, 1, BufferRegime::Full) <= std.usable_bytes() as f64);
        // ...while 34 qubits (256 GB) neither fit alone nor, once the
        // buffer doubling kicks in, on two nodes — hence the paper's
        // jump straight to four nodes.
        assert!(per_node_bytes(34, 1, BufferRegime::Full) > std.usable_bytes() as f64);
        assert!(per_node_bytes(34, 2, BufferRegime::Full) > std.usable_bytes() as f64);
    }

    #[test]
    fn registers_past_u64_bytes_fit_nowhere() {
        // 16·2^n overflows u64 from n = 60 on; no allocation holds that.
        let m = archer2();
        for kind in [NodeKind::Standard, NodeKind::HighMem] {
            for regime in [BufferRegime::Full, BufferRegime::Half] {
                for n in [59, 60, 63, 64, 70, 4096] {
                    assert_eq!(min_nodes(n, m.node(kind), regime), None, "{n} qubits");
                }
            }
        }
    }

    #[test]
    fn pow2_helper() {
        assert_eq!(largest_pow2_at_most(1), 1);
        assert_eq!(largest_pow2_at_most(5860), 4096);
        assert_eq!(largest_pow2_at_most(256), 256);
    }
}
