//! Unified run configuration bridging the executable engine and the model.

use crate::executor::EngineError;
use qse_circuit::classify::{choose_engine, EngineChoice, Layout, LayoutError};
use qse_circuit::transpile::Strategy;
use qse_circuit::{Circuit, MAX_QUBITS};
use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
use qse_comm::{CommError, FaultConfig};
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

    /// Stable lowercase label (CLI values, JSON fields).
    pub fn label(self) -> &'static str {
        match self {
            TranspileMode::Off => "off",
            TranspileMode::Greedy => "greedy",
            TranspileMode::Beam => "beam",
        }
    }

    /// Parses a CLI/protocol value.
    pub fn parse(s: &str) -> Option<TranspileMode> {
        use TranspileMode::*;
        [Off, Greedy, Beam].into_iter().find(|m| m.label() == s)
    }

    /// Stable small tag for cache keys: a plan compiled under `beam` must
    /// never be served to a `greedy` submission.
    pub fn tag(self) -> u8 {
        self as u8
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
    /// Stable lowercase label (CLI values, JSON fields): `auto`, or the
    /// label of the engine the mode names.
    pub fn label(self) -> &'static str {
        self.fixed().map_or("auto", EngineChoice::label)
    }

    /// Parses a CLI/protocol value.
    pub fn parse(s: &str) -> Option<EngineMode> {
        use EngineMode::*;
        [Auto, Dense, Sparse, Stabilizer]
            .into_iter()
            .find(|m| m.label() == s)
    }

    /// Stable small tag for cache keys. Tags the **requested** mode,
    /// not the resolved engine: `auto` and an explicit `dense` must
    /// key separate cache entries even when auto resolves to dense.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The engine this mode names; `None` for `Auto`, which picks per
    /// circuit.
    pub fn fixed(self) -> Option<EngineChoice> {
        match self {
            EngineMode::Auto => None,
            EngineMode::Dense => Some(EngineChoice::Dense),
            EngineMode::Sparse => Some(EngineChoice::Sparse),
            EngineMode::Stabilizer => Some(EngineChoice::Stabilizer),
        }
    }

    /// The engine that will actually run `circuit` under this mode.
    pub fn resolve(self, circuit: &Circuit) -> EngineChoice {
        self.fixed().unwrap_or_else(|| choose_engine(circuit))
    }
}

/// Widest register the dense engine runs: 2²⁴ amplitudes, 256 MiB.
pub const MAX_DENSE_QUBITS: u32 = 24;

/// Most ranks a run may ask for: each rank is an OS thread.
pub const MAX_RANKS: u64 = 16;

/// The width clause of [`SimConfig::admit`], one cap per engine: dense
/// holds 2ⁿ amplitudes, the sparse map keys basis indices, the tableau
/// takes any register the IR does.
pub fn check_width(n: u32, engine: EngineChoice) -> Result<(), EngineError> {
    let max = match engine {
        EngineChoice::Dense => MAX_DENSE_QUBITS,
        EngineChoice::Sparse => qse_statevec::MAX_SPARSE_QUBITS,
        EngineChoice::Stabilizer => MAX_QUBITS,
    };
    if n > max {
        return Err(EngineError::TooWide { n, max, engine });
    }
    Ok(())
}

/// Why a rank count cannot run a register ([`check_ranks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankError {
    /// Not a power of two, or more ranks than amplitudes.
    Layout(LayoutError),
    /// More ranks than this cap.
    OverCap(u64),
    /// Fewer local qubits left (`.0`) than the run needs (`.1`).
    TooFewLocal(u32, u32),
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Layout(e) => write!(f, "{e}"),
            RankError::OverCap(max) => write!(f, "at most {max} ranks run, one thread each"),
            RankError::TooFewLocal(left, need) => write!(f, "{left} local qubits, needs {need}"),
        }
    }
}

/// Local qubits a placement pass (`cache_block`, greedy, beam) needs: a
/// two-qubit gate may hold one local slot while its target waits to be
/// swapped into another.
pub const PASS_LOCAL_QUBITS: u32 = 2;

/// The rank clause of [`SimConfig::admit`]: `ranks` must lay `n` qubits
/// out ([`Layout::try_new`]: a power of two, at most 2ⁿ), be at most
/// `max`, and leave `min_local` local qubits (all `n` when fewer) — one
/// for any run (the lowering of a `Unitary2` on two global qubits swaps
/// through it), [`PASS_LOCAL_QUBITS`] under a placement pass. `qse
/// transpile` starts no threads and passes `u64::MAX`.
pub fn check_ranks(n: u32, ranks: u64, max: u64, min_local: u32) -> Result<Layout, RankError> {
    let layout = Layout::try_new(n, ranks).map_err(RankError::Layout)?;
    let need = min_local.min(n);
    if ranks > max {
        Err(RankError::OverCap(max))
    } else if layout.local_qubits() < need {
        Err(RankError::TooFewLocal(layout.local_qubits(), need))
    } else {
        Ok(layout)
    }
}

/// Whether `basis` names a state of an `n`-qubit register (`basis < 2ⁿ`).
pub fn basis_fits(basis: u64, n: u32) -> bool {
    basis.checked_shr(n).unwrap_or(0) == 0
}

/// One simulation setup, expressible to both the thread-cluster engine
/// and the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Ranks (threads) or nodes — always a power of two.
    pub n_ranks: u64,
    /// Blocking (QuEST default) or non-blocking (§3.2) exchange.
    pub exchange: ExchangeMode,
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
            exchange: ExchangeMode::Blocking,
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
            exchange: ExchangeMode::NonBlocking,
            ..Self::default_for(n_ranks)
        }
    }

    /// The one admission rule of `qse run`, `qse serve` and
    /// [`crate::executor::EngineExecutor`]: accepts running `circuit` from
    /// `|basis⟩` under this configuration and names the engine that will,
    /// or refuses. In order: resolve [`Self::engine`]; cap the width for
    /// that engine ([`check_width`]); check the ranks on every engine
    /// ([`check_ranks`]: at most [`MAX_RANKS`], [`PASS_LOCAL_QUBITS`]
    /// local qubits under a transpile pass, else one); `basis < 2ⁿ`
    /// ([`basis_fits`]); `faults` and `transpile` on the dense engine only.
    pub fn admit(&self, circuit: &Circuit, basis: u64) -> Result<EngineChoice, EngineError> {
        let n = circuit.n_qubits();
        let engine = self.engine.resolve(circuit);
        check_width(n, engine)?;
        check_ranks(n, self.n_ranks, MAX_RANKS, self.min_local()).map_err(EngineError::Ranks)?;
        if !basis_fits(basis, n) {
            return Err(EngineError::BasisOutOfRange { basis, n });
        }
        if engine != EngineChoice::Dense
            && (self.faults.is_some() || self.transpile != TranspileMode::Off)
        {
            return Err(EngineError::DenseOnly { engine });
        }
        Ok(engine)
    }

    /// The local qubits a run under this configuration needs:
    /// [`PASS_LOCAL_QUBITS`] under a placement pass, else one.
    pub(crate) fn min_local(&self) -> u32 {
        self.transpile.strategy().map_or(1, |_| PASS_LOCAL_QUBITS)
    }

    /// View as the executable engine's options, or
    /// [`CommError::InvalidConfig`] for a zero `max_message_bytes`: the
    /// form runs take.
    pub(crate) fn try_to_dist_config(&self) -> Result<DistConfig, CommError> {
        Ok(DistConfig {
            exchange_mode: self.exchange,
            chunk_policy: ChunkPolicy::new(self.max_message_bytes)?,
            half_exchange_swaps: self.half_exchange_swaps,
        })
    }

    /// View as the executable engine's options, for a configuration
    /// known to be valid; runs through [`crate::ThreadClusterExecutor`]
    /// refuse a zero cap with a typed error instead.
    ///
    /// # Panics
    /// Panics on a zero `max_message_bytes`.
    pub fn to_dist_config(&self) -> DistConfig {
        // qse-lint: allow — the documented panic of `to_dist_config`; the executor's runs use the typed `try_to_dist_config`
        self.try_to_dist_config().unwrap_or_else(|e| panic!("{e}"))
    }

    /// View as the analytic model's options.
    pub fn to_model_config(&self) -> ModelConfig {
        ModelConfig {
            node_kind: self.node_kind,
            frequency: self.frequency,
            comm_mode: match self.exchange {
                ExchangeMode::Blocking => CommMode::Blocking,
                ExchangeMode::NonBlocking => CommMode::NonBlocking,
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
    fn options_thread_through() {
        let mut c = SimConfig::default_for(4);
        c.exchange = ExchangeMode::NonBlocking;
        c.half_exchange_swaps = true;
        c.fuse_diagonals = Some(3);
        c.max_message_bytes = 256;
        assert_eq!(c.to_dist_config().exchange_mode, ExchangeMode::NonBlocking);
        assert_eq!(c.to_model_config().comm_mode, CommMode::NonBlocking);
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
        let modes = [
            TranspileMode::Off,
            TranspileMode::Greedy,
            TranspileMode::Beam,
        ];
        for m in modes {
            assert_eq!(TranspileMode::parse(m.label()), Some(m));
        }
        assert_eq!(TranspileMode::parse("lru"), None);
        let tags: std::collections::BTreeSet<u8> = modes.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), 3);
    }

    /// An admission outcome with the refusal reduced to which clause
    /// refused.
    type Outcome = Result<EngineChoice, &'static str>;

    fn outcome(r: Result<EngineChoice, EngineError>) -> Outcome {
        r.map_err(|e| match e {
            EngineError::TooWide { .. } => "width",
            EngineError::Ranks(RankError::Layout(_)) => "layout",
            EngineError::Ranks(RankError::OverCap(_)) => "rank cap",
            EngineError::Ranks(RankError::TooFewLocal(..)) => "local qubits",
            EngineError::BasisOutOfRange { .. } => "basis",
            EngineError::DenseOnly { .. } => "dense only",
            _ => "other",
        })
    }

    /// The rule as the design states it, with its caps written out.
    fn stated_rule(
        mode: EngineMode,
        c: &Circuit,
        ranks: u64,
        basis: u64,
        faults: bool,
        transpile: bool,
    ) -> Outcome {
        let n = c.n_qubits();
        let engine = match mode {
            EngineMode::Auto => choose_engine(c),
            m => m.fixed().unwrap(),
        };
        let cap = match engine {
            EngineChoice::Dense => 24,
            EngineChoice::Sparse => 40,
            EngineChoice::Stabilizer => 4096,
        };
        let amps = 1u128 << n;
        if n > cap {
            Err("width")
        } else if !ranks.is_power_of_two() || u128::from(ranks) > amps {
            Err("layout")
        } else if ranks > 16 {
            Err("rank cap")
        } else if n - ranks.trailing_zeros() < if transpile { n.min(2) } else { 1 } {
            Err("local qubits")
        } else if u128::from(basis) >= amps {
            Err("basis")
        } else if (faults || transpile) && engine != EngineChoice::Dense {
            Err("dense only")
        } else {
            Ok(engine)
        }
    }

    fn admit(
        mode: EngineMode,
        c: &Circuit,
        ranks: u64,
        basis: u64,
        faults: bool,
        transpile: TranspileMode,
    ) -> Outcome {
        let mut cfg = SimConfig::default_for(ranks);
        cfg.engine = mode;
        cfg.faults = faults.then(|| FaultConfig::recoverable(1));
        cfg.transpile = transpile;
        outcome(cfg.admit(c, basis))
    }

    #[test]
    fn admission_follows_the_stated_rule_across_every_boundary() {
        use qse_circuit::algorithms::ghz;
        use qse_circuit::qft::qft;
        use EngineChoice as E;
        use EngineMode::*;
        use TranspileMode::{Beam, Off};
        // Every boundary, both sides. QFT is neither Clifford nor sparse,
        // so `Auto` resolves it dense; GHZ is Clifford. A run needs one
        // local qubit, a transpile pass two.
        let rows: [(EngineMode, Circuit, u64, u64, bool, TranspileMode, Outcome); 28] = [
            (Dense, qft(24), 2, 0, false, Off, Ok(E::Dense)),
            (Dense, qft(25), 2, 0, false, Off, Err("width")),
            (Auto, qft(24), 2, 0, false, Off, Ok(E::Dense)),
            (Auto, qft(25), 2, 0, false, Off, Err("width")),
            (Auto, ghz(25), 2, 0, false, Off, Ok(E::Stabilizer)),
            (Sparse, ghz(40), 2, 0, false, Off, Ok(E::Sparse)),
            (Sparse, ghz(41), 2, 0, false, Off, Err("width")),
            (Stabilizer, ghz(4096), 1, 0, false, Off, Ok(E::Stabilizer)),
            (Dense, qft(3), 4, 0, false, Off, Ok(E::Dense)),
            (Dense, qft(3), 8, 0, false, Off, Err("local qubits")),
            (Dense, ghz(3), 2, 0, false, Beam, Ok(E::Dense)),
            (Dense, ghz(3), 4, 0, false, Beam, Err("local qubits")),
            (Dense, qft(1), 1, 0, false, Beam, Ok(E::Dense)),
            (Sparse, ghz(3), 8, 0, false, Off, Err("local qubits")),
            (Dense, qft(3), 16, 0, false, Off, Err("layout")),
            (Dense, qft(8), 3, 0, false, Off, Err("layout")),
            (Stabilizer, ghz(8), 3, 0, false, Off, Err("layout")),
            (Dense, qft(10), 16, 0, false, Off, Ok(E::Dense)),
            (Dense, qft(10), 32, 0, false, Off, Err("rank cap")),
            (
                Stabilizer,
                ghz(4096),
                1 << 40,
                0,
                false,
                Off,
                Err("rank cap"),
            ),
            (Dense, qft(8), 2, 255, false, Off, Ok(E::Dense)),
            (Dense, qft(8), 2, 256, false, Off, Err("basis")),
            (
                Stabilizer,
                ghz(70),
                2,
                u64::MAX,
                false,
                Off,
                Ok(E::Stabilizer),
            ),
            (Dense, qft(8), 2, 0, true, Beam, Ok(E::Dense)),
            (Sparse, ghz(8), 2, 0, true, Off, Err("dense only")),
            (Stabilizer, ghz(8), 2, 0, false, Beam, Err("dense only")),
            (Auto, ghz(8), 2, 0, true, Off, Err("dense only")),
            (Auto, qft(8), 2, 0, true, Beam, Ok(E::Dense)),
        ];
        for (mode, c, ranks, basis, faults, transpile, want) in &rows {
            let got = admit(*mode, c, *ranks, *basis, *faults, *transpile);
            assert_eq!(
                got,
                *want,
                "{mode:?} n={} ranks={ranks} basis={basis} faults={faults} {transpile:?}",
                c.n_qubits()
            );
        }
        // The cross product: engine mode × circuit × n × ranks × basis ×
        // faults × transpile. Rank counts past 16 reach `admit` only.
        for n in [1, 2, 3, 4, 24, 25, 40, 41] {
            for c in [qft(n), ghz(n)] {
                let ranks = [1, 2, 3, 16, 32, 1 << (n - 1), 1 << n];
                let bases = [0, (1 << n) - 1, 1 << n];
                for (mode, r, b, faults, t) in combinations(&ranks, &bases) {
                    assert_eq!(
                        admit(mode, &c, r, b, faults, t),
                        stated_rule(mode, &c, r, b, faults, t != Off),
                        "{mode:?} n={n} ranks={r} basis={b} faults={faults} {t:?}"
                    );
                }
            }
        }
    }

    /// Every (mode, ranks, basis, faults, transpile) combination.
    fn combinations(
        ranks: &[u64],
        bases: &[u64],
    ) -> Vec<(EngineMode, u64, u64, bool, TranspileMode)> {
        let mut out = Vec::new();
        for mode in [
            EngineMode::Auto,
            EngineMode::Dense,
            EngineMode::Sparse,
            EngineMode::Stabilizer,
        ] {
            for &r in ranks {
                for &b in bases {
                    for faults in [false, true] {
                        for t in [TranspileMode::Off, TranspileMode::Beam] {
                            out.push((mode, r, b, faults, t));
                        }
                    }
                }
            }
        }
        out
    }
}
