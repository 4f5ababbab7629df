//! Alternative machine presets — what-if studies beyond ARCHER2.
//!
//! The paper's final future-work item is "explor[ing] the impact on
//! performance and energy usage of porting QuEST to multiple GPUs" (§4),
//! citing Faj et al.'s GPU study (ref [4]). No GPU exists in this
//! environment, so the question is answered the same way the CPU machine
//! is modelled: a calibrated node description. The GPU preset models an
//! A100-class accelerator node — ~20× the sweep bandwidth, ~3× the
//! exchange bandwidth (NIC-bound), higher draw — attached to the same
//! switch fabric and charged the same way.

use crate::archer2::{archer2, Machine};
use crate::network::NetworkSpec;
use crate::node::{NodeKind, NodeSpec};
use crate::power::PowerModel;

const GIB: u64 = 1 << 30;

/// An ARCHER2-like machine whose nodes are A100-class GPU nodes.
///
/// Calibration rationale (all public figures for DGX-A100-style nodes):
///
/// * 4 × A100-80GB per node → 320 GB device memory, ~6 TB/s aggregate
///   HBM bandwidth; the sweep constant uses an effective 4 TB/s;
/// * inter-node exchange rides 4 × 200 Gb/s NICs ≈ 100 GB/s peak; the
///   effective pairwise exchange constants keep the CPU machine's ~30 %
///   protocol efficiency (25/28 GB/s);
/// * node draw ~3 kW memory-bound, ~6.5 kW compute-bound, ~1.5 kW while
///   communicating (static 800 W).
pub fn gpu_machine() -> Machine {
    let base = archer2();
    let gpu_node = |kind: NodeKind, memory_bytes: u64, available: u64| NodeSpec {
        kind,
        memory_bytes,
        usable_fraction: 0.95,
        cores: 4, // accelerators, not cores — used for reporting only
        numa_regions: 4,
        sweep_bandwidth: 4e12,
        available,
    };
    Machine {
        name: "ARCHER2-GPU (modelled, §4 future work)",
        // "Standard" GPU node: 4 × 80 GB HBM.
        standard: gpu_node(NodeKind::Standard, 320 * GIB, 1024),
        // "High-mem" variant: 8 × 80 GB.
        highmem: gpu_node(NodeKind::HighMem, 640 * GIB, 128),
        network: NetworkSpec {
            exchange_bw_blocking: 25e9,
            exchange_bw_nonblocking: 28e9,
            // GPU fabric switches burn more than Slingshot's 235 W.
            switch_power_w: 400.0,
            ..base.network
        },
        power: PowerModel {
            static_w: 800.0,
            dynamic_compute_w: 5_700.0,
            dynamic_memory_w: 2_200.0,
            dynamic_comm_w: 700.0,
            dynamic_idle_w: 300.0,
        },
        compute_attribution: base.compute_attribution,
        // HBM has no CPU-style NUMA cliff at high strides.
        numa_penalty: [1.0, 1.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ModelConfig;
    use crate::memory::{min_nodes, BufferRegime};
    use crate::perf::estimate;
    use qse_circuit::qft::qft;

    #[test]
    fn gpu_nodes_fit_more_qubits_per_node_than_standard_cpu() {
        // 320 GB usable beats 256 GB: a 34-qubit register (256 GB) that
        // needs 4 CPU nodes fits on 2 GPU nodes.
        let gpu = gpu_machine();
        let cpu = archer2();
        let n = 34;
        let g = min_nodes(n, gpu.node(NodeKind::Standard), BufferRegime::Full).unwrap();
        let c = min_nodes(n, cpu.node(NodeKind::Standard), BufferRegime::Full).unwrap();
        assert!(g < c, "gpu {g} vs cpu {c}");
    }

    #[test]
    fn gpu_runs_faster_but_is_network_dominated() {
        // The GPU machine's local sweeps are ~15× faster while exchanges
        // are only ~3× faster: the QFT becomes communication-dominated —
        // exactly the regime shift Faj et al. report for multi-GPU
        // statevector simulation.
        let gpu = gpu_machine();
        let cpu = archer2();
        let circuit = qft(34);
        let gpu_est = estimate(&circuit, &gpu, &ModelConfig::default_for(4));
        let cpu_est = estimate(&circuit, &cpu, &ModelConfig::default_for(4));
        assert!(gpu_est.runtime_s < cpu_est.runtime_s / 2.0);
        assert!(gpu_est.comm_fraction() > cpu_est.comm_fraction());
        assert!(gpu_est.comm_fraction() > 0.5);
    }

    #[test]
    fn cache_blocking_matters_even_more_on_gpus() {
        use qse_circuit::qft::cache_blocked_qft;
        let gpu = gpu_machine();
        let n = 34;
        let built_in = estimate(&qft(n), &gpu, &ModelConfig::default_for(4));
        let blocked = estimate(&cache_blocked_qft(n, 30), &gpu, &ModelConfig::fast_for(4));
        let gpu_gain = 1.0 - blocked.runtime_s / built_in.runtime_s;
        // CPU gain at comparable scale for reference.
        let cpu = archer2();
        let cpu_gain = 1.0
            - estimate(&cache_blocked_qft(n, 30), &cpu, &ModelConfig::fast_for(4)).runtime_s
                / estimate(&qft(n), &cpu, &ModelConfig::default_for(4)).runtime_s;
        assert!(gpu_gain > cpu_gain, "gpu {gpu_gain} vs cpu {cpu_gain}");
    }
}
