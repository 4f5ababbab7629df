//! The names, units and directions of every metric the ledger prints —
//! the one definition `BENCHMARK.json`, the reports, `compare` and the
//! smoke test all agree with. What each per-layer metric is expected to
//! move, and on which workload, is tabulated in the README.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, measured with tracing off. One
/// operation is a full run on the dense workloads (call into
/// `ThreadClusterExecutor::try_run` through to the sampled histogram)
/// and one job on the serve workloads (`Server::submit` to reply).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
];

use Better::{Higher, Lower};

/// Single layers, measured in the traced pass from the benchmark's own
/// files. Counts (`count`, `B`) repeat exactly for a seed unless the
/// README marks them timing-dependent.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("host.memcpy_gib_s", "GiB/s", Higher),
    layer("host.nproc", "count", Higher),
    layer("host.qse_threads", "count", Higher),
    layer("util.pool_dispatch_s", "s", Lower),
    layer("util.mailbox_roundtrip_s", "s", Lower),
    layer("comm.universe_spinup_s", "s", Lower),
    layer("comm.barrier_s", "s", Lower),
    layer("comm.pingpong_64b_s", "s", Lower),
    layer("comm.exchange_blocking_gib_s", "GiB/s", Higher),
    layer("comm.exchange_nonblocking_gib_s", "GiB/s", Higher),
    layer("comm.bytes_exchanged", "B", Lower),
    layer("comm.messages_sent", "count", Lower),
    layer("comm.exchange_chunks", "count", Lower),
    layer("comm.peak_inflight_bytes", "B", Lower),
    layer("statevec.h_sweep_amps_per_s", "1/s", Higher),
    layer("statevec.cphase_sweep_amps_per_s", "1/s", Higher),
    layer("statevec.swap_sweep_amps_per_s", "1/s", Higher),
    layer("statevec.single_fused_run_s", "s", Lower),
    layer("statevec.single_unfused_run_s", "s", Lower),
    layer("statevec.dist_init_s", "s", Lower),
    layer("statevec.dist_local_s", "s", Lower),
    layer("statevec.dist_local_gates", "count", Lower),
    layer("statevec.dist_local_gate_p50_s", "s", Lower),
    layer("statevec.dist_distributed_s", "s", Lower),
    layer("statevec.dist_distributed_gates", "count", Lower),
    layer("statevec.dist_distributed_gate_p50_s", "s", Lower),
    layer("statevec.dist_exchange_gib_s", "GiB/s", Higher),
    layer("statevec.gather_s", "s", Lower),
    layer("statevec.sample_s", "s", Lower),
    layer("statevec.sparse_run_s", "s", Lower),
    layer("stabilizer.run_s", "s", Lower),
    layer("circuit.canonical_hash_s", "s", Lower),
    layer("circuit.transpile_s", "s", Lower),
    layer("circuit.plan_steps", "count", Lower),
    layer("circuit.plan_permutes", "count", Lower),
    layer("check.verify_s", "s", Lower),
    layer("machine.model_eval_s", "s", Lower),
    layer("machine.model_qft38_runtime_s", "modeled_s", Lower),
    layer("machine.model_qft38_energy_j", "modeled_J", Lower),
    layer("core.prepare_s", "s", Lower),
    layer("core.execute_s", "s", Lower),
    layer("core.execute_overhead_s", "s", Lower),
    layer("core.profile_local_s", "s", Lower),
    layer("core.profile_distributed_s", "s", Lower),
    layer("serve.submit_s", "s", Lower),
    layer("serve.overhead_s", "s", Lower),
    layer("serve.latency_p50_s.dense", "s", Lower),
    layer("serve.latency_p50_s.sparse", "s", Lower),
    layer("serve.latency_p50_s.stabilizer", "s", Lower),
    layer("serve.latency_p95_s", "s", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.executions", "count", Lower),
    layer("serve.batched_jobs", "count", Higher),
    layer("serve.max_batch", "count", Higher),
    layer("trace.unattributed_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}
