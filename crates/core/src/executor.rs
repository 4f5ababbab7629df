//! The three execution backends behind one call shape.

use crate::config::SimConfig;
use crate::profile::{ClassProfile, ProfiledRun};
use qse_circuit::classify::{EngineChoice, Layout};
use qse_circuit::transpile::{comm_avoid, Plan};
use qse_circuit::Circuit;
use qse_comm::{CommError, Universe};
use qse_machine::archer2::Machine;
use qse_machine::perf::RunEstimate;
use qse_machine::{archer2, ModelOracle};
use qse_math::Complex64;
use qse_statevec::{DistributedState, Schedule, SingleState, SparseState};
use qse_util::cdf::Cdf;
use qse_util::rng::Rng;
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
        Self::execute(circuit, config, basis, gather, plan.as_ref())
    }

    /// Builds and statically verifies the execution plan for `circuit`
    /// under `config` — [`Self::try_run`]'s pre-flight, and the "verify
    /// once, at insert time" entry point for the serve plan cache. Returns the
    /// plan to pass to [`Self::try_run_prepared`] (`None` when
    /// transpilation is off — the raw circuit is still verified).
    pub fn prepare(circuit: &Circuit, config: &SimConfig) -> Result<Option<Plan>, CommError> {
        let plan = comm_avoid_plan(circuit, config);
        Self::verify_plan_checked(circuit, config, plan.as_ref())?;
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
        Self::execute(circuit, config, basis, gather, plan)
    }

    /// The shared execution core: runs `circuit` (or its transpiled
    /// `plan`) over thread ranks without building or verifying anything.
    fn execute(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
        plan: Option<&Plan>,
    ) -> Result<ClusterRun, CommError> {
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
            let state = if gather { st.gather()? } else { None };
            Ok((wall, profile, stats, state))
        });
        if let Some(err) = originating_error(&per_rank) {
            return Err(err);
        }
        let mut results: Vec<_> = per_rank.into_iter().flatten().collect();

        let total_bytes: u64 = results.iter().map(|(_, _, s, _)| s.bytes_sent).sum();
        let total_exchanged: u64 = results.iter().map(|(_, _, s, _)| s.bytes_exchanged).sum();
        let total_msgs: u64 = results.iter().map(|(_, _, s, _)| s.messages_sent).sum();
        let total_chunks: u64 = results.iter().map(|(_, _, s, _)| s.exchange_chunks).sum();
        let peak_inflight: u64 = results
            .iter()
            .map(|(_, _, s, _)| s.peak_inflight_bytes)
            .max()
            .unwrap_or(0);
        let faults_injected: u64 = results.iter().map(|(_, _, s, _)| s.faults_injected).sum();
        let retries: u64 = results.iter().map(|(_, _, s, _)| s.retries).sum();
        let corruptions: u64 = results
            .iter()
            .map(|(_, _, s, _)| s.corruptions_detected)
            .sum();
        // Moved out, not cloned: the gathered state is all 2ⁿ amplitudes.
        let state = results.iter_mut().find_map(|(_, _, _, st)| st.take());
        let (wall, profile, _, _) = &results[0];
        Ok(ClusterRun {
            profiled: ProfiledRun {
                n_qubits: circuit.n_qubits(),
                n_ranks: config.n_ranks,
                wall_s: *wall,
                profile: *profile,
                bytes_sent: total_bytes,
                bytes_exchanged: total_exchanged,
                messages_sent: total_msgs,
                exchange_chunks: total_chunks,
                peak_inflight_bytes: peak_inflight,
                gate_count: step_count,
                faults_injected,
                retries,
                corruptions_detected: corruptions,
                engine: "dense",
            },
            state,
        })
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
    /// Sampling was requested but the dense run did not gather its
    /// statevector.
    StateNotGathered,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Comm(e) => write!(f, "dense engine: {e}"),
            EngineError::Stab(e) => write!(f, "stabilizer engine: {e}"),
            EngineError::Measure(e) => write!(f, "measurement: {e}"),
            EngineError::TooWide { n, max, engine } => write!(
                f,
                "{} engine caps at {max} qubits, circuit has {n}",
                engine.label()
            ),
            EngineError::StateNotGathered => {
                write!(f, "sampling needs gather=true on the dense path")
            }
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

impl From<qse_statevec::measure::MeasureError> for EngineError {
    fn from(e: qse_statevec::measure::MeasureError) -> Self {
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

impl EngineRun {
    /// The prepared sampler over the run's final state, whatever engine
    /// produced it: built from the gathered amplitudes (dense), the
    /// sorted nonzeros (sparse) or the tableau's support, enumerated
    /// once. All three follow the same inclusive-prefix-sum CDF
    /// contract, so on their overlapping domains the histograms agree
    /// for a given RNG stream.
    pub fn sampler(&self) -> Result<Cdf, EngineError> {
        match &self.state {
            EngineState::Dense(None) => Err(EngineError::StateNotGathered),
            EngineState::Dense(Some(amps)) => Ok(qse_statevec::measure::amps_sampler(amps)?),
            EngineState::Sparse(s) => Ok(s.sampler()?),
            EngineState::Tableau(t) => Ok(t.sampler()?),
        }
    }

    /// Draws a fixed-seed measurement histogram from [`Self::sampler`].
    pub fn sample_counts<R: Rng>(
        &self,
        rng: &mut R,
        shots: usize,
    ) -> Result<std::collections::BTreeMap<u64, usize>, EngineError> {
        Ok(self.sampler()?.sample_counts(rng, shots))
    }
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

    /// Resolves `config.engine` for `circuit` and, when it lands dense,
    /// builds and statically verifies the plan
    /// ([`ThreadClusterExecutor::prepare`]). Sparse and tableau runs have
    /// no exchange plan: `Ok(None)`. Every consumer prepares here — the
    /// CLI's `run`, which prices the plan it ran, and the serve cache on
    /// a miss.
    pub fn prepare(circuit: &Circuit, config: &SimConfig) -> Result<Option<Plan>, EngineError> {
        Ok(match config.engine.resolve(circuit) {
            EngineChoice::Dense => ThreadClusterExecutor::prepare(circuit, config)?,
            EngineChoice::Sparse | EngineChoice::Stabilizer => None,
        })
    }

    /// [`Self::run`] with the plan already built by [`Self::prepare`] —
    /// the serve cache-hit path, under the same proof obligation as
    /// [`ThreadClusterExecutor::try_run_prepared`].
    pub fn run_prepared(
        circuit: &Circuit,
        config: &SimConfig,
        basis: u64,
        gather: bool,
        plan: Option<&Plan>,
    ) -> Result<EngineRun, EngineError> {
        let engine = config.engine.resolve(circuit);
        match engine {
            EngineChoice::Dense => {
                let run =
                    ThreadClusterExecutor::try_run_prepared(circuit, config, basis, gather, plan)?;
                Ok(EngineRun {
                    engine,
                    profiled: run.profiled,
                    state: EngineState::Dense(run.state),
                })
            }
            EngineChoice::Sparse => {
                let n = circuit.n_qubits();
                if n > qse_statevec::MAX_SPARSE_QUBITS {
                    return Err(EngineError::TooWide {
                        n,
                        max: qse_statevec::MAX_SPARSE_QUBITS,
                        engine,
                    });
                }
                let start = Instant::now();
                let mut s = SparseState::basis_state(n, basis);
                s.run(circuit);
                Ok(EngineRun {
                    engine,
                    profiled: Self::engine_profile(circuit, start, "sparse"),
                    state: EngineState::Sparse(s),
                })
            }
            EngineChoice::Stabilizer => {
                let start = Instant::now();
                let mut t = qse_stabilizer::Tableau::new(circuit.n_qubits());
                // The tableau starts from |0…0⟩; X prefixes express any
                // other basis state (X is Clifford).
                for q in 0..64 {
                    if basis >> q & 1 == 1 {
                        t.apply(qse_circuit::classify::CliffordOp::X(q))?;
                    }
                }
                t.run_circuit(circuit)?;
                Ok(EngineRun {
                    engine,
                    profiled: Self::engine_profile(circuit, start, "stabilizer"),
                    state: EngineState::Tableau(t),
                })
            }
        }
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

    #[test]
    fn auto_routes_ghz_to_the_tableau_and_matches_dense_histograms() {
        use qse_util::rng::StdRng;
        let c = ghz(6);
        let auto = EngineExecutor::run(&c, &engine_cfg(crate::config::EngineMode::Auto), 0, true)
            .expect("auto run");
        assert_eq!(auto.engine, qse_circuit::classify::EngineChoice::Stabilizer);
        assert_eq!(auto.profiled.engine, "stabilizer");
        assert!(matches!(auto.state, EngineState::Tableau(_)));
        let dense = EngineExecutor::run(&c, &engine_cfg(crate::config::EngineMode::Dense), 0, true)
            .expect("dense run");
        assert_eq!(dense.profiled.engine, "dense");
        let h_auto = auto
            .sample_counts(&mut StdRng::seed_from_u64(7), 4000)
            .unwrap();
        let h_dense = dense
            .sample_counts(&mut StdRng::seed_from_u64(7), 4000)
            .unwrap();
        assert_eq!(h_auto, h_dense);
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
        use qse_util::rng::StdRng;
        let c = ghz(4);
        let basis = 0b0101;
        let stab = EngineExecutor::run(
            &c,
            &engine_cfg(crate::config::EngineMode::Stabilizer),
            basis,
            true,
        )
        .expect("stabilizer run");
        let dense = EngineExecutor::run(
            &c,
            &engine_cfg(crate::config::EngineMode::Dense),
            basis,
            true,
        )
        .expect("dense run");
        let h_stab = stab
            .sample_counts(&mut StdRng::seed_from_u64(3), 4000)
            .unwrap();
        let h_dense = dense
            .sample_counts(&mut StdRng::seed_from_u64(3), 4000)
            .unwrap();
        assert_eq!(h_stab, h_dense);
    }

    #[test]
    fn engine_errors_are_typed() {
        use qse_util::rng::StdRng;
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
        // Sampling without a gathered dense state.
        let run = EngineExecutor::run(
            &ghz(4),
            &engine_cfg(crate::config::EngineMode::Dense),
            0,
            false,
        )
        .expect("ungathered dense run");
        let err = run
            .sample_counts(&mut StdRng::seed_from_u64(1), 10)
            .expect_err("no state to sample");
        assert_eq!(err, EngineError::StateNotGathered);
    }
}
