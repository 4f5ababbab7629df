//! Compute-unit (CU) accounting.
//!
//! ARCHER2 charges jobs in CUs: one CU is one node-hour, at the same rate
//! for standard and high-memory nodes. This is why the paper finds that
//! "the CU cost of high memory simulations is lower than for standard
//! memory" (§3.1): a high-memory run uses half the nodes and is less than
//! twice as slow, so nodes × hours shrinks.

use crate::node::NodeKind;

/// CU charge rate per node-hour for a node kind.
pub fn rate_per_node_hour(_kind: NodeKind) -> f64 {
    // ARCHER2 charges both partitions identically.
    1.0
}

/// Total CUs for a job.
pub fn cu_cost(n_nodes: u64, runtime_s: f64, kind: NodeKind) -> f64 {
    n_nodes as f64 * (runtime_s / 3600.0) * rate_per_node_hour(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_close;

    #[test]
    fn one_node_hour_is_one_cu() {
        assert_close(cu_cost(1, 3600.0, NodeKind::Standard), 1.0, 1e-12);
    }

    #[test]
    fn scales_with_nodes_and_time() {
        assert_close(
            cu_cost(4096, 476.0, NodeKind::Standard),
            4096.0 * 476.0 / 3600.0,
            1e-9,
        );
    }

    #[test]
    fn highmem_wins_when_less_than_twice_as_slow() {
        // The paper's observation: half the nodes, < 2× the runtime.
        let std = cu_cost(64, 100.0, NodeKind::Standard);
        let hm = cu_cost(32, 170.0, NodeKind::HighMem);
        assert!(hm < std);
    }
}
