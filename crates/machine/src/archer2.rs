//! The calibrated ARCHER2 machine instance.
//!
//! Every constant here is anchored to a published observation; see the
//! crate docs and DESIGN.md §4 for the calibration table. The constants
//! are deliberately plain numbers (not fitted at runtime) so that the
//! regenerated figures are deterministic.

use crate::network::NetworkSpec;
use crate::node::{NodeKind, NodeSpec};
use crate::power::PowerModel;

/// A complete machine description consumed by the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Human-readable name.
    pub name: &'static str,
    /// The standard compute node.
    pub standard: NodeSpec,
    /// The high-memory node.
    pub highmem: NodeSpec,
    /// Interconnect.
    pub network: NetworkSpec,
    /// Node power model.
    pub power: PowerModel,
    /// Fraction of a local sweep's time attributed to compute (the rest
    /// is memory). Chosen to reproduce fig 5's ≈ 2:1 memory:compute split
    /// for the QFT's local work.
    pub compute_attribution: f64,
    /// Sweep-time penalty when the amplitude pairs of the top / second-
    /// from-top local qubit straddle NUMA regions (Table 1: 0.80 s and
    /// 0.59 s vs the 0.50 s baseline).
    pub numa_penalty: [f64; 2],
}

impl Machine {
    /// The node spec for a kind.
    pub fn node(&self, kind: NodeKind) -> &NodeSpec {
        match kind {
            NodeKind::Standard => &self.standard,
            NodeKind::HighMem => &self.highmem,
        }
    }
}

const GIB: u64 = 1 << 30;

/// The ARCHER2 instance used by every experiment in this repository.
pub fn archer2() -> Machine {
    Machine {
        name: "ARCHER2 (modelled)",
        standard: NodeSpec {
            kind: NodeKind::Standard,
            memory_bytes: 256 * GIB,
            // 95 % usable reproduces the fit table of §3.1 (33 q on one
            // node, 34 q on four).
            usable_fraction: 0.95,
            cores: 128,
            numa_regions: 8,
            // 2^32 amplitudes × 32 B (read + write) in 0.5 s → 275 GB/s.
            sweep_bandwidth: 275e9,
            // ARCHER2 has 5,860 nodes; power-of-two jobs cap at 4,096.
            available: 5860,
        },
        highmem: NodeSpec {
            kind: NodeKind::HighMem,
            memory_bytes: 512 * GIB,
            usable_fraction: 0.95,
            cores: 128,
            numa_regions: 8,
            // Same DIMM bandwidth as standard nodes — the paper: "memory
            // bandwidth being a limiting factor" for high-mem runs.
            sweep_bandwidth: 275e9,
            // The paper's practical maximum: 256 high-memory nodes.
            available: 256,
        },
        network: NetworkSpec {
            nodes_per_switch: 8,
            switch_power_w: 235.0,
            // 64 GiB exchange in 8.88 s (blocking) / 8.07 s (non-blocking):
            // Table 1 qubit-32 rows minus the 0.75 s combine sweep.
            exchange_bw_blocking: 7.74e9,
            exchange_bw_nonblocking: 8.52e9,
            message_latency_s: 10e-6,
            max_message_bytes: 2 * GIB,
        },
        power: PowerModel {
            // Static floor kept low so the dynamic share dominates: that
            // is what yields the paper's ≈ +25 % energy at 2.25 GHz and
            // ≈ flat energy at 1.50 GHz simultaneously.
            static_w: 100.0,
            // Compute-bound EPYC 7742 node ≈ 500 W.
            dynamic_compute_w: 400.0,
            // Memory-bound ≈ 440 W (Table 1: 15 kJ / 0.5 s / 64 nodes).
            dynamic_memory_w: 340.0,
            // Communication-bound ≈ 285 W (Table 1: 191 kJ / 9.63 s / 64
            // nodes, minus the switch share).
            dynamic_comm_w: 185.0,
            // In-job idle ≈ 180 W.
            dynamic_idle_w: 80.0,
        },
        compute_attribution: 1.0 / 3.0,
        numa_penalty: [1.6, 1.18],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lookup() {
        let m = archer2();
        assert_eq!(m.node(NodeKind::Standard).kind, NodeKind::Standard);
        assert_eq!(m.node(NodeKind::HighMem).kind, NodeKind::HighMem);
    }

    #[test]
    fn sweep_bandwidth_reproduces_half_second_hadamard() {
        // 38-qubit register on 64 nodes: 2^32 local amplitudes, a pair
        // sweep touches 32 B per amplitude.
        let m = archer2();
        let bytes = 32.0 * (1u64 << 32) as f64;
        let t = bytes / m.standard.sweep_bandwidth;
        assert!((t - 0.5).abs() < 0.01, "sweep time {t}");
    }

    #[test]
    fn exchange_bandwidth_reproduces_table1_distributed_row() {
        // 64 GiB exchange + 0.75 s combine ≈ 9.6 s blocking / 8.8 s
        // non-blocking (Table 1, qubit 32).
        let m = archer2();
        let bytes = (1u64 << 36) as f64; // 64 GiB
        let blocking = bytes / m.network.exchange_bw_blocking + 0.75;
        let nonblocking = bytes / m.network.exchange_bw_nonblocking + 0.75;
        assert!((blocking - 9.63).abs() < 0.3, "blocking {blocking}");
        assert!(
            (nonblocking - 8.82).abs() < 0.3,
            "nonblocking {nonblocking}"
        );
    }
}
