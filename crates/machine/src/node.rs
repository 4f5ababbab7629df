//! Node specifications.

/// The two ARCHER2 node flavours the paper compares (§2.2, optimisation 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// 256 GB standard compute node.
    Standard,
    /// 512 GB high-memory node — "we can use fewer high-mem nodes for a
    /// given size state vector simulation".
    HighMem,
}

impl NodeKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Standard => "standard",
            NodeKind::HighMem => "highmem",
        }
    }
}

/// Physical description of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Which flavour this is.
    pub kind: NodeKind,
    /// Installed RAM in bytes.
    pub memory_bytes: u64,
    /// Fraction of RAM usable by the application (OS, filesystem cache
    /// and runtime overheads excluded). Chosen so that capacity planning
    /// reproduces the paper: 33 qubits fit on one standard node but 34
    /// need four (§3.1).
    pub usable_fraction: f64,
    /// Physical cores (2 × 64-core AMD EPYC 7742 on ARCHER2).
    pub cores: u32,
    /// NUMA regions per node (8 on ARCHER2); sweeps whose amplitude pairs
    /// straddle regions lose bandwidth (Table 1, qubits 30–31).
    pub numa_regions: u32,
    /// Effective statevector sweep throughput in bytes/s at the 2.00 GHz
    /// reference frequency (reads + writes combined). Calibrated from the
    /// 0.5 s local Hadamard on a 64 GB slice.
    pub sweep_bandwidth: f64,
    /// How many nodes of this kind a job may request.
    pub available: u64,
}

impl NodeSpec {
    /// Bytes the application may actually use.
    pub fn usable_bytes(&self) -> u64 {
        (self.memory_bytes as f64 * self.usable_fraction) as u64
    }

    /// Bytes per NUMA region.
    pub fn numa_region_bytes(&self) -> u64 {
        self.memory_bytes / self.numa_regions as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;

    #[test]
    fn labels() {
        assert_eq!(NodeKind::Standard.label(), "standard");
        assert_eq!(NodeKind::HighMem.label(), "highmem");
    }

    #[test]
    fn archer2_node_geometry() {
        let m = archer2();
        let std = m.node(NodeKind::Standard);
        assert_eq!(std.memory_bytes, 256 * (1 << 30) as u64);
        assert_eq!(std.numa_regions, 8);
        assert!(std.usable_bytes() < std.memory_bytes);
        let hm = m.node(NodeKind::HighMem);
        assert_eq!(hm.memory_bytes, 2 * std.memory_bytes);
        assert_eq!(hm.numa_region_bytes(), 2 * std.numa_region_bytes());
    }
}
