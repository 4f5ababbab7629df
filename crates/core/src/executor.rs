//! The three execution backends behind one call shape.

use crate::config::{basis_fits, check_ranks, RankError, SimConfig, MAX_RANKS};
use crate::profile::{ClassProfile, ProfiledRun};
use qse_circuit::classify::{EngineChoice, Layout};
use qse_circuit::transpile::{comm_avoid, Plan};
use qse_circuit::Circuit;
use qse_comm::{CommError, TrafficStats, Universe};
use qse_machine::archer2::Machine;
use qse_machine::perf::RunEstimate;
use qse_machine::{archer2, ModelOracle};
use qse_math::Complex64;
use qse_statevec::measure::MeasureError;
use qse_statevec::{DistributedState, Schedule, SingleState, SparseState};
use qse_util::cdf::{Cdf, Counts, Shots};
use std::time::Instant;

/// Builds the comm-avoiding execution plan `config.transpile` selects for
/// `circuit`, with the final layout restored — `None` when transpilation
/// is off. Candidate placements are scored by the calibrated ARCHER2
/// model acting as the pass's exchange-cost oracle, so the CLI can price
/// the same plan the executor runs.
pub fn comm_avoid_plan(circuit: &Circuit, config: &SimConfig) -> Option<Plan> {
    let strategy = config.transpile.strategy()?;
    let layout = Layout::new(circuit.n_qubits(), config.n_ranks);
    let machine = archer2();
    let oracle = ModelOracle::new(&machine, config.to_model_config());
    Some(comm_avoid(circuit, &layout, strategy, &oracle).with_layout_restored())
}

/// Runs circuits in one address space with the production kernels.
pub struct LocalExecutor;

impl LocalExecutor {
    /// Simulates from |0…0⟩ and returns the final state.
    pub fn run(circuit: &Circuit) -> SingleState {
        SingleState::simulate(circuit)
    }
}

/// Runs circuits genuinely distributed over thread ranks, measuring
/// wall-clock time and traffic — the laptop-scale stand-in for the
/// paper's multi-node runs.
pub struct ThreadClusterExecutor;

/// What a thread-cluster run returns.
pub struct ClusterRun {
    /// Measured timings and traffic.
    pub profiled: ProfiledRun,
    /// Full statevector gathered on rank 0 (small registers only; `None`
    /// when `gather` was disabled).
    pub state: Option<Vec<Complex64>>,
}

impl ThreadClusterExecutor {
    /// Runs `circuit` from |basis⟩ over `config.n_ranks` thread ranks.
    ///
    /// Each schedule step is timed on rank 0 (all ranks advance in
    /// lockstep for distributed gates, so rank 0's clock is
    /// representative) and attributed to its locality class; a run of
    /// local gates is one step ([`qse_statevec::Schedule`]).
    ///
    /// # Panics
    /// Panics on a communication error; use [`Self::try_run`] when running
    /// under a fault plan that may be unrecoverable.
    pub fn run(circuit: &Circuit, config: &SimConfig, basis: u64, gather: bool) -> ClusterRun {
        Self::try_run(circuit, config, basis, gather).expect("cluster run failed")
    }

    /// [`Self::run`], but every rank's communication errors propagate as a
    /// typed [`CommError`] instead of panicking — the entry point for runs
    /// under a [`SimConfig::faults`] plan, where an unrecoverable plan
    /// must surface an error rather than hang or crash. The universe is
    /// fail-stop, so one rank's failure ends every rank, most of them
    /// with [`CommError::Aborted`]; the error returned is the one that
    /// started it — the first that is not `Aborted`, else the cause an
    /// `Aborted` carries.
    pub fn try_run(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
    ) -> Result<ClusterRun, CommError> {
        // Pre-flight gate, in every build profile: prove the plan's
        // exchange schedule safe (protocol matching, deadlock freedom,
        // buffer bounds, layout soundness) before any rank posts a byte.
        let plan = Self::prepare(circuit, config)?;
        Self::try_run_prepared(circuit, config, basis, gather, plan.as_ref())
    }

    /// Builds and statically verifies the execution plan for `circuit`
    /// under `config` — [`Self::try_run`]'s pre-flight, and the "verify
    /// once, at insert time" entry point for the serve plan cache. Returns the
    /// plan to pass to [`Self::try_run_prepared`] (`None` when
    /// transpilation is off — the raw circuit is still verified).
    ///
    /// The rank clause of [`SimConfig::admit`] ([`check_ranks`], with the
    /// local qubits a placement pass needs when one runs) refuses a
    /// layout as [`CommError::PlanRejected`]: before a placement pass,
    /// which cannot run without its spare local qubits, and otherwise
    /// after the verifier, whose diagnosis names the gate that fails.
    pub fn prepare(circuit: &Circuit, config: &SimConfig) -> Result<Option<Plan>, CommError> {
        let ranks = check_ranks(
            circuit.n_qubits(),
            config.n_ranks,
            MAX_RANKS,
            config.min_local(),
        )
        .map(|_| ())
        .map_err(|e| CommError::PlanRejected {
            detail: e.to_string(),
        });
        if config.transpile.strategy().is_some() {
            ranks.clone()?;
        }
        let plan = comm_avoid_plan(circuit, config);
        Self::verify_plan_checked(circuit, config, plan.as_ref())?;
        ranks?;
        Ok(plan)
    }

    /// Runs a plan previously built (and proved safe) by
    /// [`Self::prepare`], skipping classification, transpilation and the
    /// pre-flight gate entirely — the cache-hit hot path. The
    /// caller owns the proof obligation: `plan` must have come from
    /// `prepare` with an identical `(circuit, config)` pair.
    pub fn try_run_prepared(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
        plan: Option<&Plan>,
    ) -> Result<ClusterRun, CommError> {
        let (profiled, state) = Self::execute(circuit, config, basis, plan, |mut st| {
            if gather {
                st.gather()
            } else {
                Ok(None)
            }
        })?;
        Ok(ClusterRun { profiled, state })
    }

    /// The shared execution core: runs `circuit` (or its transpiled
    /// `plan`) over thread ranks without building or verifying anything,
    /// then hands each rank's final state to `finish`, whose rank-0 result
    /// comes back. Traffic and wall-clock are read before `finish` runs.
    /// Fails with [`CommError::BasisOutOfRange`], before any rank starts,
    /// when `basis` names no state of the register.
    fn execute<T: Send>(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        plan: Option<&Plan>,
        finish: impl Fn(DistributedState<'_>) -> Result<Option<T>, CommError> + Sync,
    ) -> Result<(ProfiledRun, Option<T>), CommError> {
        let n = circuit.n_qubits();
        if !basis_fits(basis, n) {
            return Err(CommError::BasisOutOfRange { basis, n });
        }
        let n_ranks = config.n_ranks as usize;
        let dist_config = config.to_dist_config();
        // Lowered once, shared by every rank.
        let schedule = match plan {
            Some(p) => Schedule::for_plan(p, config.n_ranks),
            None => Schedule::for_circuit(circuit, config.n_ranks),
        };
        let step_count = plan.map_or(circuit.len(), |p| p.steps.len());

        let universe = match config.faults {
            Some(fc) => Universe::with_faults(n_ranks, fc)?,
            None => Universe::new(n_ranks),
        };
        let per_rank = universe.run(|comm| -> Result<_, CommError> {
            let mut st =
                DistributedState::basis_state(comm, circuit.n_qubits(), basis, dist_config);
            st.barrier();
            let t0 = Instant::now();
            let mut profile = ClassProfile::default();
            st.run_schedule(&schedule, |class, elapsed| profile.record(class, elapsed))?;
            st.barrier();
            let wall = t0.elapsed().as_secs_f64();
            let stats = st.stats();
            Ok((wall, profile, stats, finish(st)?))
        });
        if let Some(err) = originating_error(&per_rank) {
            return Err(err);
        }
        let mut results: Vec<_> = per_rank.into_iter().flatten().collect();

        let total = results
            .iter()
            .fold(TrafficStats::default(), |acc, (_, _, s, _)| acc.merge(*s));
        // Moved out, not cloned: a gathered state is all 2ⁿ amplitudes.
        let out = results.iter_mut().find_map(|(_, _, _, out)| out.take());
        let (wall, profile, _, _) = &results[0];
        let profiled = ProfiledRun {
            n_qubits: circuit.n_qubits(),
            n_ranks: config.n_ranks,
            wall_s: *wall,
            profile: *profile,
            bytes_sent: total.bytes_sent,
            bytes_exchanged: total.bytes_exchanged,
            messages_sent: total.messages_sent,
            exchange_chunks: total.exchange_chunks,
            peak_inflight_bytes: total.peak_inflight_bytes,
            gate_count: step_count,
            faults_injected: total.faults_injected,
            retries: total.retries,
            corruptions_detected: total.corruptions_detected,
            engine: "dense",
        };
        Ok((profiled, out))
    }

    /// Statically verifies the exchange schedule the run would execute
    /// (transpiled plan when one exists, otherwise the raw circuit) — the
    /// proof behind [`Self::prepare`]. Rejection surfaces as
    /// [`CommError::PlanRejected`] with the verifier's per-rank diagnosis.
    pub fn verify_plan_checked(
        circuit: &Circuit,
        config: &SimConfig,
        plan: Option<&Plan>,
    ) -> Result<(), CommError> {
        let opts = config.to_dist_config();
        match plan {
            Some(p) => qse_check::verify::verify_plan(p, Some(circuit), config.n_ranks, &opts),
            None => qse_check::verify::verify_circuit(circuit, config.n_ranks, &opts),
        }
        .map(|_| ())
        .map_err(|e| CommError::PlanRejected {
            detail: e.to_string(),
        })
    }
}

/// The error a failed run reports: the first one that is not
/// [`CommError::Aborted`], else the cause the first `Aborted` carries (the
/// `Aborted` itself when its rank panicked). `None` when no rank failed.
fn originating_error<T>(per_rank: &[Result<T, CommError>]) -> Option<CommError> {
    let mut errors = per_rank.iter().filter_map(|r| r.as_ref().err());
    let origin = errors
        .clone()
        .find(|e| !matches!(e, CommError::Aborted { .. }));
    let first = origin.or_else(|| errors.next())?;
    Some(match first {
        CommError::Aborted {
            cause: Some(cause), ..
        } => (**cause).clone(),
        other => other.clone(),
    })
}

/// Errors from the multi-engine entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The dense distributed path failed.
    Comm(CommError),
    /// The stabilizer tableau rejected the circuit or a measurement.
    Stab(qse_stabilizer::StabError),
    /// A sampling/measurement step failed (dense/sparse paths).
    Measure(qse_statevec::measure::MeasureError),
    /// The circuit is too wide for the engine that would run it.
    TooWide {
        /// Register width.
        n: u32,
        /// The engine's width cap.
        max: u32,
        /// The engine that was selected.
        engine: EngineChoice,
    },
    /// The initial basis index does not name a state of the register.
    BasisOutOfRange {
        /// The requested basis index.
        basis: u64,
        /// Register width.
        n: u32,
    },
    /// The rank count cannot run the register.
    Ranks(RankError),
    /// Faults or transpilation were asked of an engine other than the
    /// dense one, which alone runs the distributed path they shape.
    DenseOnly {
        /// The engine that would run the circuit.
        engine: EngineChoice,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Comm(e) => write!(f, "dense engine: {e}"),
            EngineError::Stab(e) => write!(f, "stabilizer engine: {e}"),
            EngineError::Measure(e) => write!(f, "measurement: {e}"),
            EngineError::TooWide { n, max, engine } => write!(
                f,
                "{n} qubits are too many for the {} engine (max {max})",
                engine.label()
            ),
            EngineError::BasisOutOfRange { basis, n } => {
                write!(f, "basis {basis} is not a basis state of {n} qubits")
            }
            EngineError::Ranks(e) => write!(f, "bad rank count: {e}"),
            EngineError::DenseOnly { engine } => write!(
                f,
                "faults and transpilation shape the distributed dense path; \
                 they do not apply to the {} engine",
                engine.label()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CommError> for EngineError {
    fn from(e: CommError) -> Self {
        EngineError::Comm(e)
    }
}

impl From<qse_stabilizer::StabError> for EngineError {
    fn from(e: qse_stabilizer::StabError) -> Self {
        EngineError::Stab(e)
    }
}

impl From<MeasureError> for EngineError {
    fn from(e: MeasureError) -> Self {
        EngineError::Measure(e)
    }
}

/// The engine-native artifact a multi-engine run produces.
#[derive(Debug, Clone)]
pub enum EngineState {
    /// Gathered dense amplitudes (`None` when `gather` was off).
    Dense(Option<Vec<Complex64>>),
    /// The sparse map state.
    Sparse(SparseState),
    /// The stabilizer tableau.
    Tableau(qse_stabilizer::Tableau),
}

/// What [`EngineExecutor::run`] returns.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The engine that actually executed (auto mode resolved).
    pub engine: EngineChoice,
    /// Timings and traffic; non-dense engines report zero traffic, one
    /// rank, and their label in `profiled.engine`.
    pub profiled: ProfiledRun,
    /// The final state in the engine's own representation.
    pub state: EngineState,
}

/// What [`EngineExecutor::run_sampled`] returns: the run read out, its
/// final state not kept.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The engine that actually executed (auto mode resolved).
    pub engine: EngineChoice,
    /// Timings and traffic, as [`EngineRun::profiled`].
    pub profiled: ProfiledRun,
    /// The final state's fingerprint: the tree digest of its amplitudes
    /// (`qse_statevec::digest`; dense and sparse agree on equal states),
    /// or the tableau's own fingerprint.
    pub digest: u64,
    /// Each request's histogram, in request order (empty for zero
    /// shots). All three engines follow one inclusive-prefix-sum CDF
    /// contract (`qse_util::cdf`), so on their overlapping domains the
    /// histograms agree for a given seed. An error when a request draws
    /// shots and the state has no distribution; a run that draws none
    /// builds no sampler.
    pub counts: Result<Vec<Counts>, EngineError>,
}

/// The multi-engine front door: resolves `config.engine` against the
/// circuit's structure and dispatches to the dense (single or
/// distributed), sparse, or stabilizer backend.
///
/// Engine choice never changes results, only cost — the conformance
/// suite (`qse-core/tests/engine_conformance.rs`) pins this.
pub struct EngineExecutor;

impl EngineExecutor {
    /// Runs `circuit` from `|basis⟩` under `config`.
    ///
    /// `gather` controls whether the dense path collects the full
    /// statevector (sparse and tableau states are their own compact
    /// artifacts and ignore it).
    pub fn run(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
    ) -> Result<EngineRun, EngineError> {
        let plan = Self::prepare(circuit, config)?;
        Self::run_prepared(circuit, config, basis, gather, plan.as_ref())
    }

    /// Admits `circuit` under `config` ([`SimConfig::admit`], without
    /// its basis clause) and, when it lands dense, builds and statically
    /// verifies the plan ([`ThreadClusterExecutor::prepare`]). Sparse and
    /// tableau runs have no exchange plan: `Ok(None)`. Every consumer
    /// prepares here — the CLI's `run`, which prices the plan it ran, and
    /// the serve cache on a miss.
    pub fn prepare(circuit: &Circuit, config: &SimConfig) -> Result<Option<Plan>, EngineError> {
        // Basis 0 names a state of every register.
        Ok(match config.admit(circuit, 0)? {
            EngineChoice::Dense => ThreadClusterExecutor::prepare(circuit, config)?,
            EngineChoice::Sparse | EngineChoice::Stabilizer => None,
        })
    }

    /// [`Self::run`] with the plan already built by [`Self::prepare`] —
    /// the serve cache-hit path, under the same proof obligation as
    /// [`ThreadClusterExecutor::try_run_prepared`]. Admits the run
    /// ([`SimConfig::admit`]) before anything starts.
    pub fn run_prepared(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
        plan: Option<&Plan>,
    ) -> Result<EngineRun, EngineError> {
        let engine = config.admit(circuit, basis)?;
        let (profiled, state) = match engine {
            EngineChoice::Dense => {
                let run =
                    ThreadClusterExecutor::try_run_prepared(circuit, config, basis, gather, plan)?;
                (run.profiled, EngineState::Dense(run.state))
            }
            EngineChoice::Sparse => {
                let (profiled, s) = Self::run_sparse(circuit, basis);
                (profiled, EngineState::Sparse(s))
            }
            EngineChoice::Stabilizer => {
                let (profiled, t) = Self::run_tableau(circuit, basis)?;
                (profiled, EngineState::Tableau(t))
            }
        };
        Ok(EngineRun {
            engine,
            profiled,
            state,
        })
    }

    /// Runs an admitted circuit on the sparse engine.
    fn run_sparse(circuit: &Circuit, basis: u64) -> (ProfiledRun, SparseState) {
        let start = Instant::now();
        let mut s = SparseState::basis_state(circuit.n_qubits(), basis);
        s.run(circuit);
        (Self::engine_profile(circuit, start, "sparse"), s)
    }

    /// Runs an admitted circuit on the stabilizer tableau.
    fn run_tableau(
        circuit: &Circuit,
        basis: u64,
    ) -> Result<(ProfiledRun, qse_stabilizer::Tableau), EngineError> {
        let start = Instant::now();
        let mut t = qse_stabilizer::Tableau::new(circuit.n_qubits());
        // The tableau starts from |0…0⟩; X prefixes express any other
        // basis state (X is Clifford).
        for q in 0..64 {
            if basis >> q & 1 == 1 {
                t.apply(qse_circuit::classify::CliffordOp::X(q))?;
            }
        }
        t.run_circuit(circuit)?;
        Ok((Self::engine_profile(circuit, start, "stabilizer"), t))
    }

    /// [`Self::run_prepared`], read out: the final state's digest and
    /// each request's shots drawn from its own seed — what `qse serve`
    /// replies. The dense engine reads the state out where it lives
    /// ([`DistributedState::read_out`]), gathering no amplitudes; the
    /// sparse and tableau engines draw from their prepared `Cdf`.
    pub fn run_sampled(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        plan: Option<&Plan>,
        shots: &[Shots],
    ) -> Result<SampledRun, EngineError> {
        let engine = config.admit(circuit, basis)?;
        let (profiled, digest, counts) = match engine {
            EngineChoice::Dense => {
                let (profiled, read) =
                    ThreadClusterExecutor::execute(circuit, config, basis, plan, |st| {
                        st.read_out(shots)
                    })?;
                let Some(read) = read else {
                    unreachable!("rank 0 reads the state out")
                };
                let counts = read.counts.map_err(|_| MeasureError::ZeroNorm.into());
                (profiled, read.digest, counts)
            }
            EngineChoice::Sparse => {
                let (profiled, s) = Self::run_sparse(circuit, basis);
                let counts = sample_batch(shots, || Ok(s.sampler()?));
                (profiled, qse_statevec::digest::sparse(&s), counts)
            }
            EngineChoice::Stabilizer => {
                let (profiled, t) = Self::run_tableau(circuit, basis)?;
                let counts = sample_batch(shots, || Ok(t.sampler()?));
                (profiled, t.fingerprint(), counts)
            }
        };
        Ok(SampledRun {
            engine,
            profiled,
            digest,
            counts,
        })
    }

    /// A [`ProfiledRun`] for single-address-space engine runs: real
    /// wall-clock, zero traffic, one rank.
    fn engine_profile(circuit: &Circuit, start: Instant, engine: &'static str) -> ProfiledRun {
        ProfiledRun {
            n_qubits: circuit.n_qubits(),
            n_ranks: 1,
            wall_s: start.elapsed().as_secs_f64(),
            profile: ClassProfile::default(),
            bytes_sent: 0,
            bytes_exchanged: 0,
            messages_sent: 0,
            exchange_chunks: 0,
            peak_inflight_bytes: 0,
            gate_count: circuit.len(),
            faults_injected: 0,
            retries: 0,
            corruptions_detected: 0,
            engine,
        }
    }
}

/// Each request's histogram from the sampler `cdf` builds, in request
/// order; a batch that draws no shots builds none.
fn sample_batch(
    shots: &[Shots],
    cdf: impl FnOnce() -> Result<Cdf, EngineError>,
) -> Result<Vec<Counts>, EngineError> {
    if shots.iter().all(|s| s.count == 0) {
        return Ok(vec![Counts::new(); shots.len()]);
    }
    Ok(cdf()?.sample_batch(shots))
}

/// Runs circuits through the calibrated ARCHER2 model at full scale.
pub struct ModelExecutor<'m> {
    machine: &'m Machine,
}

impl<'m> ModelExecutor<'m> {
    /// Wraps a machine description.
    pub fn new(machine: &'m Machine) -> Self {
        ModelExecutor { machine }
    }

    /// Estimates runtime/energy for `circuit` under `config`.
    pub fn run(&self, circuit: &Circuit, config: &SimConfig) -> RunEstimate {
        qse_machine::estimate(circuit, self.machine, &config.to_model_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::qft::qft;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_machine::archer2;
    use qse_math::approx::assert_slices_close;
    use qse_statevec::reference::ReferenceState;

    #[test]
    fn local_executor_matches_reference() {
        let c = random_circuit(6, 50, GatePool::Full, 8);
        let got = LocalExecutor::run(&c);
        let want = ReferenceState::simulate(&c);
        assert_slices_close(&got.to_vec(), want.amplitudes(), 1e-9);
    }

    #[test]
    fn cluster_executor_matches_reference_and_profiles() {
        let c = qft(8);
        let run = ThreadClusterExecutor::run(&c, &SimConfig::default_for(4), 11, true);
        let mut want = ReferenceState::basis_state(8, 11);
        want.run(&c);
        assert_slices_close(&run.state.unwrap(), want.amplitudes(), 1e-9);
        // profile accounting covers every gate
        assert_eq!(run.profiled.gate_count, c.len());
        assert!(run.profiled.wall_s > 0.0);
        assert!(run.profiled.profile.total_s() > 0.0);
        assert!(run.profiled.bytes_sent > 0);
    }

    #[test]
    fn cluster_executor_without_gather() {
        let c = qft(6);
        let run = ThreadClusterExecutor::run(&c, &SimConfig::default_for(2), 0, false);
        assert!(run.state.is_none());
    }

    /// Exact bitwise statevector equality — the fault-equivalence bar is
    /// bit-for-bit, stricter than approximate closeness.
    fn assert_bits_equal(a: &[qse_math::Complex64], b: &[qse_math::Complex64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn cluster_run_under_recoverable_faults_is_bit_identical() {
        let c = qft(7);
        let clean = ThreadClusterExecutor::run(&c, &SimConfig::default_for(4), 3, true);
        assert_eq!(clean.profiled.faults_injected, 0);
        assert_eq!(clean.profiled.retries, 0);
        assert_eq!(clean.profiled.corruptions_detected, 0);
        let mut cfg = SimConfig::default_for(4);
        cfg.faults = Some(qse_comm::FaultConfig::recoverable(99));
        let faulted = ThreadClusterExecutor::try_run(&c, &cfg, 3, true).unwrap();
        assert_bits_equal(&faulted.state.unwrap(), &clean.state.unwrap());
        assert!(faulted.profiled.faults_injected > 0, "plan never fired");
    }

    #[test]
    fn the_originating_error_is_reported_whatever_rank_raised_it() {
        let corrupt = CommError::Corrupt {
            src: 1,
            tag: 9,
            discarded: 3,
        };
        let aborted = |cause: Option<&CommError>| CommError::Aborted {
            by: 2,
            cause: cause.map(|c| Box::new(c.clone())),
        };
        let runs = [
            (vec![Ok(()), Ok(())], None),
            (
                vec![Err(aborted(Some(&corrupt))), Ok(()), Err(corrupt.clone())],
                Some(corrupt.clone()),
            ),
            (
                vec![Ok(()), Err(aborted(Some(&corrupt)))],
                Some(corrupt.clone()),
            ),
            (vec![Err(aborted(None))], Some(aborted(None))),
        ];
        for (per_rank, want) in runs {
            assert_eq!(originating_error(&per_rank), want, "{per_rank:?}");
        }
    }

    #[test]
    fn cluster_run_surfaces_unrecoverable_faults_as_typed_errors() {
        let c = qft(6);
        let mut cfg = SimConfig::default_for(2);
        cfg.faults = Some(qse_comm::FaultConfig::exhausted_retries(1));
        let err = ThreadClusterExecutor::try_run(&c, &cfg, 0, false)
            .err()
            .expect("exhausted retries must fail the run");
        assert!(
            matches!(err, qse_comm::CommError::Transient { .. }),
            "expected Transient, got {err:?}"
        );
        cfg.faults = Some(qse_comm::FaultConfig::permanent_corruption(1));
        let err = ThreadClusterExecutor::try_run(&c, &cfg, 0, false)
            .err()
            .expect("permanent corruption must fail the run");
        assert!(
            matches!(err, qse_comm::CommError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn model_executor_produces_estimates() {
        let machine = archer2();
        let exec = ModelExecutor::new(&machine);
        let est = exec.run(&qft(38), &SimConfig::default_for(64));
        assert!(est.runtime_s > 0.0);
        assert!(est.total_energy_j() > 0.0);
        assert_eq!(est.n_nodes, 64);
    }

    #[test]
    fn transpiled_cluster_run_matches_reference() {
        let c = qft(8);
        let mut want = ReferenceState::basis_state(8, 5);
        want.run(&c);
        for mode in [
            crate::config::TranspileMode::Greedy,
            crate::config::TranspileMode::Beam,
        ] {
            let mut cfg = SimConfig::default_for(4);
            cfg.transpile = mode;
            let run = ThreadClusterExecutor::run(&c, &cfg, 5, true);
            assert_slices_close(&run.state.unwrap(), want.amplitudes(), 1e-9);
            // gate_count reflects plan steps, not source gates
            let plan = comm_avoid_plan(&c, &cfg).unwrap();
            assert_eq!(run.profiled.gate_count, plan.steps.len());
        }
    }

    #[test]
    fn transpiled_cluster_run_exchanges_fewer_bytes() {
        let c = qft(12);
        let off = ThreadClusterExecutor::run(&c, &SimConfig::default_for(4), 0, false);
        assert!(off.profiled.bytes_exchanged > 0);
        for mode in [
            crate::config::TranspileMode::Greedy,
            crate::config::TranspileMode::Beam,
        ] {
            let mut cfg = SimConfig::default_for(4);
            cfg.transpile = mode;
            let on = ThreadClusterExecutor::run(&c, &cfg, 0, false);
            assert!(
                on.profiled.bytes_exchanged < off.profiled.bytes_exchanged,
                "{mode:?}: {} !< {}",
                on.profiled.bytes_exchanged,
                off.profiled.bytes_exchanged
            );
        }
    }

    #[test]
    fn pre_flight_rejects_a_broken_plan() {
        // Every qubit global (two qubits on four ranks): a two-qubit
        // unitary on both has no local qubit to swap through. `try_run`
        // must refuse the plan with the verifier's diagnosis before any
        // rank posts a byte, in every build profile.
        let mut c = Circuit::new(2);
        c.push(qse_circuit::Gate::Unitary2 {
            a: 0,
            b: 1,
            matrix: qse_math::Matrix4::swap(),
        });
        let err = ThreadClusterExecutor::try_run(&c, &SimConfig::default_for(4), 0, false)
            .err()
            .expect("broken plan must be rejected");
        match &err {
            CommError::PlanRejected { detail } => assert!(
                detail.contains("needs at least one local qubit"),
                "diagnosis was: {detail}"
            ),
            other => panic!("expected PlanRejected, got {other:?}"),
        }
    }

    #[test]
    fn prepared_run_is_bit_identical_to_cold_path() {
        // The serve cache contract: prepare() once, then
        // try_run_prepared() must reproduce try_run() bit-for-bit —
        // same plan, same sweeps, same rounding.
        let c = qft(8);
        for mode in [
            crate::config::TranspileMode::Off,
            crate::config::TranspileMode::Greedy,
            crate::config::TranspileMode::Beam,
        ] {
            let mut cfg = SimConfig::default_for(4);
            cfg.transpile = mode;
            let plan = ThreadClusterExecutor::prepare(&c, &cfg).expect("prepare");
            assert_eq!(
                plan.is_some(),
                !matches!(mode, crate::config::TranspileMode::Off)
            );
            let cold = ThreadClusterExecutor::try_run(&c, &cfg, 9, true).unwrap();
            let warm =
                ThreadClusterExecutor::try_run_prepared(&c, &cfg, 9, true, plan.as_ref()).unwrap();
            assert_bits_equal(&warm.state.unwrap(), &cold.state.unwrap());
            assert_eq!(warm.profiled.gate_count, cold.profiled.gate_count);
        }
    }

    #[test]
    fn prepare_rejects_a_broken_plan_in_any_profile() {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 3);
        let plan = qse_check::verify::broken_fixture_unrestored_layout();
        let err =
            ThreadClusterExecutor::verify_plan_checked(&c, &SimConfig::default_for(4), Some(&plan))
                .expect_err("broken plan must be rejected");
        assert!(matches!(err, CommError::PlanRejected { .. }));
    }

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cnot(q - 1, q);
        }
        c
    }

    fn engine_cfg(mode: crate::config::EngineMode) -> SimConfig {
        let mut cfg = SimConfig::default_for(2);
        cfg.engine = mode;
        cfg
    }

    /// `c` prepared and run under `cfg` from `basis`, read out with
    /// `shots`.
    fn sampled(c: &Circuit, cfg: &SimConfig, basis: u64, shots: &[Shots]) -> SampledRun {
        let plan = EngineExecutor::prepare(c, cfg).expect("admitted");
        EngineExecutor::run_sampled(c, cfg, basis, plan.as_ref(), shots).expect("run")
    }

    const SEVEN: [Shots; 1] = [Shots {
        seed: 7,
        count: 4000,
    }];

    #[test]
    fn auto_routes_ghz_to_the_tableau_and_matches_dense_histograms() {
        let c = ghz(6);
        let auto = sampled(&c, &engine_cfg(crate::config::EngineMode::Auto), 0, &SEVEN);
        assert_eq!(auto.engine, qse_circuit::classify::EngineChoice::Stabilizer);
        assert_eq!(auto.profiled.engine, "stabilizer");
        let dense = sampled(&c, &engine_cfg(crate::config::EngineMode::Dense), 0, &SEVEN);
        assert_eq!(dense.profiled.engine, "dense");
        assert_eq!(auto.counts.unwrap(), dense.counts.unwrap());
    }

    /// The dense read-out is the gathered state's: its digest and its
    /// seeded `amps_sampler` histograms, at R ∈ {1, 2, 4}, under a
    /// placement pass, and under a recoverable fault plan — with the
    /// traffic and wall-clock of the run read before the read-out.
    #[test]
    fn dense_read_out_equals_the_gathered_state_and_its_sampler() {
        let c = random_circuit(9, 80, GatePool::Full, 4);
        let shots = [
            SEVEN[0],
            Shots { seed: 8, count: 0 },
            Shots {
                seed: 9,
                count: 333,
            },
        ];
        for ranks in [1u64, 2, 4] {
            for faults in [None, Some(qse_comm::FaultConfig::recoverable(5))] {
                let mut cfg = SimConfig::default_for(ranks);
                cfg.transpile = crate::config::TranspileMode::Beam;
                cfg.faults = faults;
                let gathered = ThreadClusterExecutor::try_run(&c, &cfg, 3, true).unwrap();
                let amps = gathered.state.expect("gathered");
                let read = sampled(&c, &cfg, 3, &shots);
                let what = format!("R={ranks} faults={faults:?}");
                assert_eq!(read.digest, qse_statevec::digest::dense(&amps), "{what}");
                let want = qse_statevec::measure::amps_sampler(&amps)
                    .unwrap()
                    .sample_batch(&shots);
                assert_eq!(read.counts, Ok(want), "{what}");
                assert_eq!(read.profiled.bytes_sent, gathered.profiled.bytes_sent);
                assert_eq!(read.profiled.messages_sent, gathered.profiled.messages_sent);
            }
        }
    }

    #[test]
    fn a_run_that_draws_no_shots_builds_no_sampler() {
        let none = [Shots { seed: 1, count: 0 }; 2];
        let built = || -> Result<Cdf, EngineError> { panic!("no sampler is built") };
        assert_eq!(sample_batch(&none, built), Ok(vec![Counts::new(); 2]));
        assert_eq!(sample_batch(&[], built), Ok(Vec::new()));
    }

    #[test]
    fn forced_sparse_matches_dense_on_a_generic_circuit() {
        let c = random_circuit(6, 60, GatePool::Full, 21);
        let dense = EngineExecutor::run(&c, &engine_cfg(crate::config::EngineMode::Dense), 3, true)
            .expect("dense run");
        let sparse =
            EngineExecutor::run(&c, &engine_cfg(crate::config::EngineMode::Sparse), 3, true)
                .expect("sparse run");
        assert_eq!(sparse.profiled.engine, "sparse");
        let EngineState::Sparse(s) = &sparse.state else {
            panic!("expected sparse state");
        };
        let EngineState::Dense(Some(amps)) = &dense.state else {
            panic!("expected gathered dense state");
        };
        assert_slices_close(&s.to_vec(), amps, 1e-9);
    }

    #[test]
    fn stabilizer_honours_a_nonzero_basis_prefix() {
        let c = ghz(4);
        let basis = 0b0101;
        let shots = [Shots {
            seed: 3,
            count: 4000,
        }];
        let stab = sampled(
            &c,
            &engine_cfg(crate::config::EngineMode::Stabilizer),
            basis,
            &shots,
        );
        let dense = sampled(
            &c,
            &engine_cfg(crate::config::EngineMode::Dense),
            basis,
            &shots,
        );
        assert_eq!(stab.counts.unwrap(), dense.counts.unwrap());
    }

    #[test]
    fn engine_errors_are_typed() {
        // Non-Clifford circuit forced onto the tableau.
        let mut c = Circuit::new(3);
        c.h(0).t(1);
        let err = EngineExecutor::run(
            &c,
            &engine_cfg(crate::config::EngineMode::Stabilizer),
            0,
            true,
        )
        .expect_err("T gate is not Clifford");
        assert!(matches!(
            err,
            EngineError::Stab(qse_stabilizer::StabError::NonClifford { index: 1 })
        ));
        // A register beyond the sparse cap.
        let wide = ghz(qse_statevec::MAX_SPARSE_QUBITS + 1);
        let err = EngineExecutor::run(
            &wide,
            &engine_cfg(crate::config::EngineMode::Sparse),
            0,
            true,
        )
        .expect_err("too wide for sparse");
        assert!(matches!(err, EngineError::TooWide { .. }));
    }

    #[test]
    fn prepare_refuses_a_pass_without_a_spare_local_qubit() {
        // One local qubit: the CNOTs of GHZ leave a placement pass no
        // victim slot, so admission refuses before the pass runs.
        let mut cfg = SimConfig::default_for(4);
        cfg.transpile = crate::config::TranspileMode::Beam;
        assert_eq!(
            EngineExecutor::prepare(&ghz(3), &cfg).err(),
            Some(EngineError::Ranks(RankError::TooFewLocal(1, 2)))
        );
        cfg.n_ranks = 2;
        assert!(EngineExecutor::prepare(&ghz(3), &cfg).is_ok());
    }

    #[test]
    fn cluster_runs_refuse_a_pass_without_a_spare_local_qubit() {
        // The same rule on the thread-cluster entry points, which do not
        // go through `admit`: refused typed before the pass runs.
        let mut cfg = SimConfig::default_for(4);
        cfg.transpile = crate::config::TranspileMode::Beam;
        let refused = Some(CommError::PlanRejected {
            detail: RankError::TooFewLocal(1, 2).to_string(),
        });
        assert_eq!(ThreadClusterExecutor::prepare(&ghz(3), &cfg).err(), refused);
        assert_eq!(
            ThreadClusterExecutor::try_run(&ghz(3), &cfg, 0, false).err(),
            refused
        );
        cfg.n_ranks = 2;
        assert!(ThreadClusterExecutor::try_run(&ghz(3), &cfg, 0, false).is_ok());
    }

    /// Runs `ghz(8)` on `mode` from basis 256, one past the register.
    fn basis_past_the_register(mode: crate::config::EngineMode) -> EngineError {
        EngineExecutor::run(&ghz(8), &engine_cfg(mode), 256, true)
            .expect_err("basis 256 is not a state of 8 qubits")
    }

    #[test]
    fn cluster_runs_reject_a_basis_past_the_register() {
        let c = qft(8);
        let cfg = SimConfig::default_for(2);
        assert_eq!(
            ThreadClusterExecutor::try_run(&c, &cfg, 999, true).err(),
            Some(CommError::BasisOutOfRange { basis: 999, n: 8 })
        );
        let plan = ThreadClusterExecutor::prepare(&c, &cfg).expect("plan");
        assert_eq!(
            ThreadClusterExecutor::try_run_prepared(&c, &cfg, 256, true, plan.as_ref()).err(),
            Some(CommError::BasisOutOfRange { basis: 256, n: 8 })
        );
        let run = ThreadClusterExecutor::try_run(&c, &cfg, 255, true).expect("last basis state");
        let norm: f64 = run
            .state
            .expect("gathered")
            .iter()
            .map(|a| a.norm_sqr())
            .sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn dense_runs_reject_a_basis_past_the_register() {
        assert_eq!(
            basis_past_the_register(crate::config::EngineMode::Dense),
            EngineError::BasisOutOfRange { basis: 256, n: 8 }
        );
    }

    #[test]
    fn sparse_runs_reject_a_basis_past_the_register() {
        assert_eq!(
            basis_past_the_register(crate::config::EngineMode::Sparse),
            EngineError::BasisOutOfRange { basis: 256, n: 8 }
        );
    }

    #[test]
    fn stabilizer_runs_reject_a_basis_past_the_register() {
        assert_eq!(
            basis_past_the_register(crate::config::EngineMode::Stabilizer),
            EngineError::BasisOutOfRange { basis: 256, n: 8 }
        );
        // The last basis state still runs, and a register of 64 or more
        // qubits takes any u64 basis.
        let c = ghz(8);
        let cfg = engine_cfg(crate::config::EngineMode::Stabilizer);
        assert!(EngineExecutor::run(&c, &cfg, 255, true).is_ok());
        assert!(EngineExecutor::run(&ghz(70), &cfg, u64::MAX, true).is_ok());
    }
}
