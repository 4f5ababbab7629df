//! Unified run configuration bridging the executable engine and the model.

use qse_circuit::classify::{choose_engine, EngineChoice};
use qse_circuit::transpile::Strategy;
use qse_circuit::Circuit;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::FaultConfig;
use qse_machine::{CommMode, CpuFrequency, ModelConfig, NodeKind};
use qse_statevec::DistConfig;

/// Which comm-avoiding transpilation pass to run before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranspileMode {
    /// Execute the circuit as written (the default — existing behaviour).
    #[default]
    Off,
    /// Greedy-LRU placement, batched-permutation lowering.
    Greedy,
    /// Lookahead-window beam search scored by the machine cost model.
    Beam,
}

impl TranspileMode {
    /// The transpiler strategy this mode selects, if any.
    pub fn strategy(self) -> Option<Strategy> {
        match self {
            TranspileMode::Off => None,
            TranspileMode::Greedy => Some(Strategy::Greedy),
            TranspileMode::Beam => Some(Strategy::beam()),
        }
    }
}

/// Which simulation engine executes a circuit.
///
/// `Dense` is the default and preserves the existing behaviour of every
/// entry point; `Auto` lets `qse_circuit::classify::choose_engine` pick
/// per circuit. The choice never changes results, only cost — the
/// cross-engine conformance suite holds all engines to the same
/// distributions on overlapping domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Pick per circuit from the gate-stream structure.
    Auto,
    /// Dense statevector, single address space or distributed.
    #[default]
    Dense,
    /// Sparse statevector (nonzero amplitudes in a map).
    Sparse,
    /// Clifford stabilizer tableau.
    Stabilizer,
}

impl EngineMode {
    /// Stable lowercase label (CLI values, JSON fields).
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Auto => "auto",
            EngineMode::Dense => "dense",
            EngineMode::Sparse => "sparse",
            EngineMode::Stabilizer => "stabilizer",
        }
    }

    /// Parses a CLI/protocol value.
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "auto" => Some(EngineMode::Auto),
            "dense" => Some(EngineMode::Dense),
            "sparse" => Some(EngineMode::Sparse),
            "stabilizer" => Some(EngineMode::Stabilizer),
            _ => None,
        }
    }

    /// Stable small tag for cache keys. Tags the **requested** mode,
    /// not the resolved engine: `auto` and an explicit `dense` must
    /// key separate cache entries even when auto resolves to dense.
    pub fn tag(self) -> u8 {
        match self {
            EngineMode::Auto => 0,
            EngineMode::Dense => 1,
            EngineMode::Sparse => 2,
            EngineMode::Stabilizer => 3,
        }
    }

    /// The engine that will actually run `circuit` under this mode.
    pub fn resolve(self, circuit: &Circuit) -> EngineChoice {
        match self {
            EngineMode::Auto => choose_engine(circuit),
            EngineMode::Dense => EngineChoice::Dense,
            EngineMode::Sparse => EngineChoice::Sparse,
            EngineMode::Stabilizer => EngineChoice::Stabilizer,
        }
    }
}

/// One simulation setup, expressible to both the thread-cluster engine
/// and the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Ranks (threads) or nodes — always a power of two.
    pub n_ranks: u64,
    /// Blocking (QuEST default) or non-blocking exchange (§3.2).
    pub non_blocking: bool,
    /// Streamed chunk-pipelined exchange: overlap each chunk's combine
    /// with the remaining communication. Takes precedence over
    /// `non_blocking`.
    pub streamed: bool,
    /// Half-exchange distributed SWAPs (§4 future work).
    pub half_exchange_swaps: bool,
    /// The analytic model's diagonal fusion: price maximal runs of at
    /// least this many diagonal gates as one sweep (model runs only; the
    /// engine always applies each run of local gates in one pass).
    pub fuse_diagonals: Option<usize>,
    /// Maximum message size in bytes for chunked exchanges.
    pub max_message_bytes: usize,
    /// Node flavour (model runs only).
    pub node_kind: NodeKind,
    /// CPU frequency (model runs only).
    pub frequency: CpuFrequency,
    /// Seeded deterministic fault plan for thread-cluster runs, if any
    /// (`None` keeps the zero-overhead fault-free transport).
    pub faults: Option<FaultConfig>,
    /// Comm-avoiding transpilation applied before execution (thread-
    /// cluster runs; `Off` preserves the untranspiled gate stream).
    pub transpile: TranspileMode,
    /// Which engine runs the circuit (`Dense` preserves the existing
    /// dense path; only the [`crate::executor::EngineExecutor`] and
    /// `qse serve` honour non-dense modes).
    pub engine: EngineMode,
}

impl SimConfig {
    /// The ARCHER2 default setup on `n_ranks` ranks.
    pub fn default_for(n_ranks: u64) -> Self {
        SimConfig {
            n_ranks,
            non_blocking: false,
            streamed: false,
            half_exchange_swaps: false,
            fuse_diagonals: None,
            max_message_bytes: 1 << 20,
            node_kind: NodeKind::Standard,
            frequency: CpuFrequency::Medium,
            faults: None,
            transpile: TranspileMode::Off,
            engine: EngineMode::Dense,
        }
    }

    /// The paper's "Fast" setup (Table 2): non-blocking exchange; pair it
    /// with a cache-blocked circuit.
    pub fn fast_for(n_ranks: u64) -> Self {
        SimConfig {
            non_blocking: true,
            ..Self::default_for(n_ranks)
        }
    }

    /// View as the executable engine's options.
    pub fn to_dist_config(&self) -> DistConfig {
        DistConfig {
            exchange_mode: if self.streamed {
                ExchangeMode::Streamed
            } else if self.non_blocking {
                ExchangeMode::NonBlocking
            } else {
                ExchangeMode::Blocking
            },
            chunk_policy: ChunkPolicy::new(self.max_message_bytes)
                .expect("max_message_bytes must be positive"),
            half_exchange_swaps: self.half_exchange_swaps,
        }
    }

    /// View as the analytic model's options.
    pub fn to_model_config(&self) -> ModelConfig {
        ModelConfig {
            node_kind: self.node_kind,
            frequency: self.frequency,
            comm_mode: if self.streamed {
                CommMode::Streamed
            } else if self.non_blocking {
                CommMode::NonBlocking
            } else {
                CommMode::Blocking
            },
            half_exchange_swaps: self.half_exchange_swaps,
            fuse_diagonals: self.fuse_diagonals,
            n_nodes: self.n_ranks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_maps_to_blocking_everywhere() {
        let c = SimConfig::default_for(8);
        assert_eq!(c.to_dist_config().exchange_mode, ExchangeMode::Blocking);
        assert_eq!(c.to_model_config().comm_mode, CommMode::Blocking);
        assert_eq!(c.to_model_config().n_nodes, 8);
        assert!(!c.to_dist_config().half_exchange_swaps);
    }

    #[test]
    fn fast_maps_to_nonblocking_everywhere() {
        let c = SimConfig::fast_for(8);
        assert_eq!(c.to_dist_config().exchange_mode, ExchangeMode::NonBlocking);
        assert_eq!(c.to_model_config().comm_mode, CommMode::NonBlocking);
    }

    #[test]
    fn streamed_maps_and_takes_precedence() {
        let mut c = SimConfig::default_for(8);
        c.streamed = true;
        assert_eq!(c.to_dist_config().exchange_mode, ExchangeMode::Streamed);
        assert_eq!(c.to_model_config().comm_mode, CommMode::Streamed);
        c.non_blocking = true; // streamed wins when both are set
        assert_eq!(c.to_dist_config().exchange_mode, ExchangeMode::Streamed);
        assert_eq!(c.to_model_config().comm_mode, CommMode::Streamed);
    }

    #[test]
    fn options_thread_through() {
        let mut c = SimConfig::default_for(4);
        c.half_exchange_swaps = true;
        c.fuse_diagonals = Some(3);
        c.max_message_bytes = 256;
        assert!(c.to_dist_config().half_exchange_swaps);
        assert!(c.to_model_config().half_exchange_swaps);
        assert_eq!(c.to_model_config().fuse_diagonals, Some(3));
        assert_eq!(c.to_dist_config().chunk_policy.max_message_bytes, 256);
    }

    #[test]
    fn engine_defaults_dense_and_round_trips_labels() {
        assert_eq!(SimConfig::default_for(2).engine, EngineMode::Dense);
        assert_eq!(SimConfig::fast_for(2).engine, EngineMode::Dense);
        for m in [
            EngineMode::Auto,
            EngineMode::Dense,
            EngineMode::Sparse,
            EngineMode::Stabilizer,
        ] {
            assert_eq!(EngineMode::parse(m.label()), Some(m));
        }
        assert_eq!(EngineMode::parse("tensor"), None);
        // Tags are distinct — they key separate serve cache entries.
        let tags: std::collections::BTreeSet<u8> = [
            EngineMode::Auto,
            EngineMode::Dense,
            EngineMode::Sparse,
            EngineMode::Stabilizer,
        ]
        .iter()
        .map(|m| m.tag())
        .collect();
        assert_eq!(tags.len(), 4);
    }

    #[test]
    fn engine_mode_resolution() {
        let mut ghz = Circuit::new(8);
        ghz.h(0);
        for q in 1..8 {
            ghz.cnot(q - 1, q);
        }
        assert_eq!(EngineMode::Auto.resolve(&ghz), EngineChoice::Stabilizer);
        assert_eq!(EngineMode::Dense.resolve(&ghz), EngineChoice::Dense);
        assert_eq!(EngineMode::Sparse.resolve(&ghz), EngineChoice::Sparse);
        assert_eq!(
            EngineMode::Stabilizer.resolve(&ghz),
            EngineChoice::Stabilizer
        );
    }

    #[test]
    fn transpile_defaults_off_and_maps_to_strategies() {
        let c = SimConfig::default_for(4);
        assert_eq!(c.transpile, TranspileMode::Off);
        assert_eq!(TranspileMode::Off.strategy(), None);
        assert_eq!(TranspileMode::Greedy.strategy(), Some(Strategy::Greedy));
        assert_eq!(TranspileMode::Beam.strategy(), Some(Strategy::beam()));
    }
}
