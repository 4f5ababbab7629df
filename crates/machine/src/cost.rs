//! Cost-model types shared across the machine crate.

use crate::archer2::Machine;
use crate::frequency::CpuFrequency;
use crate::node::NodeKind;
use crate::power::Phase;
use qse_circuit::transpile::{ExchangeOracle, PermTraffic, StepCost};

/// Communication strategy, mirroring the executable engine's
/// `qse_comm::chunking::ExchangeMode` (kept separate so the model crate
/// does not depend on the transport crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommMode {
    /// QuEST's blocking chunked sendrecv.
    #[default]
    Blocking,
    /// The paper's non-blocking rewrite (§3.2).
    NonBlocking,
}

/// A full model-run configuration — one "job submission".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Node flavour (§2.2 optimisation 2).
    pub node_kind: NodeKind,
    /// CPU frequency (§2.2 optimisation 1).
    pub frequency: CpuFrequency,
    /// Exchange strategy (§3.2).
    pub comm_mode: CommMode,
    /// Half exchange for distributed SWAPs (§4).
    pub half_exchange_swaps: bool,
    /// Fuse runs of ≥ this many diagonal gates into one sweep; `None`
    /// applies each diagonal gate as its own (partial) sweep.
    pub fuse_diagonals: Option<usize>,
    /// Node count (a power of two, as QuEST requires).
    pub n_nodes: u64,
}

impl ModelConfig {
    /// The ARCHER2 default submission: standard nodes at 2.00 GHz with
    /// QuEST's stock communication. QuEST applies each controlled phase
    /// "efficiently" as its own partial sweep (only affected amplitudes,
    /// §3.2) but does not fuse runs — fusion is this repository's
    /// ablation, off by default.
    pub fn default_for(n_nodes: u64) -> Self {
        ModelConfig {
            node_kind: NodeKind::Standard,
            frequency: CpuFrequency::Medium,
            comm_mode: CommMode::Blocking,
            half_exchange_swaps: false,
            fuse_diagonals: None,
            n_nodes,
        }
    }

    /// The paper's "Fast" configuration (Table 2): non-blocking
    /// communication (cache blocking is applied to the *circuit*, not
    /// here).
    pub fn fast_for(n_nodes: u64) -> Self {
        ModelConfig {
            comm_mode: CommMode::NonBlocking,
            ..Self::default_for(n_nodes)
        }
    }
}

/// Time components of one gate (or fused run) on the modelled machine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateCost {
    /// Floating-point time, seconds.
    pub compute_s: f64,
    /// Memory-sweep time, seconds.
    pub memory_s: f64,
    /// Communication time, seconds.
    pub comm_s: f64,
    /// Bytes exchanged per participating rank.
    pub comm_bytes: u64,
    /// Fraction of ranks doing the work (1.0 for most gates; 0.5 for
    /// global-control gates and both-global SWAPs).
    pub participation: f64,
}

impl GateCost {
    /// Wall-clock contribution (spectator ranks wait on participants).
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.memory_s + self.comm_s
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &GateCost) {
        self.compute_s += other.compute_s;
        self.memory_s += other.memory_s;
        self.comm_s += other.comm_s;
        self.comm_bytes += other.comm_bytes;
    }
}

/// The calibrated machine model exposed as a transpiler-facing
/// [`ExchangeOracle`]: the comm-avoiding pass asks it to price candidate
/// batched exchanges, turning the model crate into a *compile-time*
/// oracle rather than a post-hoc reporting tool.
///
/// One exchange step is billed as: wall-clock from the busiest rank's
/// payload through the calibrated [`crate::network::NetworkSpec`] (every
/// rank waits on the slowest), all nodes drawing communication-phase
/// power for that duration, plus the paper's switch energy
/// `E_net = n_s · P̄_s · Δt`.
#[derive(Debug, Clone, Copy)]
pub struct ModelOracle<'a> {
    machine: &'a Machine,
    config: ModelConfig,
}

impl<'a> ModelOracle<'a> {
    /// Builds an oracle for one job submission on `machine`.
    pub fn new(machine: &'a Machine, config: ModelConfig) -> Self {
        ModelOracle { machine, config }
    }
}

impl ExchangeOracle for ModelOracle<'_> {
    fn exchange(&self, traffic: PermTraffic) -> StepCost {
        if traffic.total_bytes == 0 {
            return StepCost::default();
        }
        let seconds = self
            .machine
            .network
            .exchange_time_s(traffic.max_rank_bytes, self.config.comm_mode);
        let node_j = self
            .machine
            .power
            .node_energy_j(Phase::Comm, self.config.frequency, seconds)
            * self.config.n_nodes as f64;
        let switch_j = self
            .machine
            .network
            .switch_energy_j(self.config.n_nodes, seconds);
        StepCost {
            bytes: traffic.total_bytes,
            seconds,
            joules: node_j + switch_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;

    #[test]
    fn default_config_matches_archer2_defaults() {
        let c = ModelConfig::default_for(64);
        assert_eq!(c.node_kind, NodeKind::Standard);
        assert_eq!(c.frequency, CpuFrequency::Medium);
        assert_eq!(c.comm_mode, CommMode::Blocking);
        assert!(!c.half_exchange_swaps);
        assert_eq!(c.n_nodes, 64);
    }

    #[test]
    fn fast_config_flips_comm_mode_only() {
        let c = ModelConfig::fast_for(64);
        assert_eq!(c.comm_mode, CommMode::NonBlocking);
        assert_eq!(c.node_kind, NodeKind::Standard);
    }

    #[test]
    fn gate_cost_totals_and_accumulates() {
        let mut a = GateCost {
            compute_s: 1.0,
            memory_s: 2.0,
            comm_s: 3.0,
            comm_bytes: 10,
            participation: 1.0,
        };
        assert_eq!(a.total_s(), 6.0);
        a.accumulate(&GateCost {
            compute_s: 0.5,
            memory_s: 0.5,
            comm_s: 0.5,
            comm_bytes: 5,
            participation: 0.5,
        });
        assert_eq!(a.total_s(), 7.5);
        assert_eq!(a.comm_bytes, 15);
    }

    #[test]
    fn model_oracle_prices_traffic_monotonically() {
        let machine = archer2();
        let oracle = ModelOracle::new(&machine, ModelConfig::default_for(4));
        let zero = oracle.exchange(PermTraffic::default());
        assert_eq!(zero, StepCost::default());
        let small = oracle.exchange(PermTraffic {
            total_bytes: 1 << 20,
            max_rank_bytes: 1 << 18,
        });
        let large = oracle.exchange(PermTraffic {
            total_bytes: 1 << 24,
            max_rank_bytes: 1 << 22,
        });
        assert!(small.seconds > 0.0 && small.joules > 0.0);
        assert!(small.better_than(&large));
        assert!(large.seconds > small.seconds);
        assert!(large.joules > small.joules);
    }

    #[test]
    fn model_oracle_nonblocking_is_faster() {
        let machine = archer2();
        let traffic = PermTraffic {
            total_bytes: 1 << 28,
            max_rank_bytes: 1 << 26,
        };
        let blocking = ModelOracle::new(&machine, ModelConfig::default_for(4)).exchange(traffic);
        let fast = ModelOracle::new(&machine, ModelConfig::fast_for(4)).exchange(traffic);
        assert!(
            fast.seconds < blocking.seconds,
            "calibrated bandwidths differ"
        );
        assert_eq!(fast.bytes, blocking.bytes, "bytes are mode-independent");
    }
}
