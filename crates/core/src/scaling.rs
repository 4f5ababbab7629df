//! Capacity planning helpers tying circuits to node counts.

use qse_machine::archer2::Machine;
use qse_machine::memory::{min_nodes, BufferRegime};
use qse_machine::node::NodeKind;

/// The minimum node count for `n_qubits` on a node kind, as the paper's
/// experiments always use ("using the minimum possible number of nodes to
/// fit the statevector", §3).
pub fn nodes_for(machine: &Machine, kind: NodeKind, n_qubits: u32) -> Option<u64> {
    min_nodes(n_qubits, machine.node(kind), BufferRegime::Full)
}

/// Same, under the half-exchange buffer regime (§4: the route to 45
/// qubits on ARCHER2).
pub fn nodes_for_half_buffers(machine: &Machine, kind: NodeKind, n_qubits: u32) -> Option<u64> {
    min_nodes(n_qubits, machine.node(kind), BufferRegime::Half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_machine::archer2;

    #[test]
    fn fig2_node_counts_standard() {
        // The x-axis of fig 2: 33 q → 1 node … 44 q → 4,096 nodes.
        let m = archer2();
        let nodes: Vec<Option<u64>> = (33..=45)
            .map(|n| nodes_for(&m, NodeKind::Standard, n))
            .collect();
        let expected: Vec<Option<u64>> = vec![
            Some(1),
            Some(4),
            Some(8),
            Some(16),
            Some(32),
            Some(64),
            Some(128),
            Some(256),
            Some(512),
            Some(1024),
            Some(2048),
            Some(4096),
            None,
        ];
        assert_eq!(nodes, expected);
    }

    #[test]
    fn fig2_node_counts_highmem() {
        // High-memory: 34 q on one node up to 41 q on 256 (§3.1).
        let m = archer2();
        assert_eq!(nodes_for(&m, NodeKind::HighMem, 34), Some(1));
        assert_eq!(nodes_for(&m, NodeKind::HighMem, 41), Some(256));
        assert_eq!(nodes_for(&m, NodeKind::HighMem, 42), None);
    }

    #[test]
    fn half_buffers_unlock_45_qubits() {
        let m = archer2();
        assert_eq!(nodes_for(&m, NodeKind::Standard, 45), None);
        assert_eq!(
            nodes_for_half_buffers(&m, NodeKind::Standard, 45),
            Some(4096)
        );
    }
}
