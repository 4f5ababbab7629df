//! Dense runs, three ways: the product path the end-to-end metrics time,
//! a prepared-plan run timed from outside for `qse-core`'s layer rows,
//! and the benchmark's own rank closure that records a span around every
//! call into `qse-comm` and `qse-statevec`.

use super::spans::Recorder;
use super::workload::Case;
use qse_circuit::classify::{classify, GateClass, Layout};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_comm::{CommError, TrafficStats, Universe};
use qse_core::{ProfiledRun, ThreadClusterExecutor};
use qse_math::Complex64;
use qse_serve::protocol::state_fingerprint;
use qse_statevec::measure::sample_counts_amps;
use qse_statevec::DistributedState;
use qse_util::rng::StdRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// A measurement histogram: basis index → shot count.
pub type Histogram = BTreeMap<u64, usize>;

/// What one timed dense run produced.
pub struct DenseRun {
    /// Wall-clock from the call into the executor to the histogram in
    /// hand (or to the executor's return when the case does not gather).
    pub seconds: f64,
    /// The part of `seconds` inside the executor call.
    pub execute_s: f64,
    /// The executor's own counters and class profile.
    pub profiled: ProfiledRun,
    /// The gathered statevector, if the case gathers.
    pub state: Option<Vec<Complex64>>,
    /// The sampled histogram, if the case gathers.
    pub counts: Option<Histogram>,
}

impl DenseRun {
    /// Fingerprint of the gathered state (`None` without gather).
    pub fn state_fnv(&self) -> Option<u64> {
        self.state.as_deref().map(state_fingerprint)
    }
}

fn sample(case: &Case, amps: &[Complex64]) -> Result<Histogram, String> {
    let mut rng = StdRng::seed_from_u64(case.shot_seed);
    sample_counts_amps(amps, &mut rng, case.shots).map_err(|e| e.to_string())
}

/// One operation of a dense workload, as `qse run` performs it:
/// `ThreadClusterExecutor::try_run`, then the seeded shots.
pub fn product_run(case: &Case) -> Result<DenseRun, String> {
    timed(case, || {
        ThreadClusterExecutor::try_run(&case.circuit, &case.cfg, case.basis, case.gather)
    })
}

/// The same run from an already prepared plan — the cache-hit path of
/// `qse serve`, and what `core.execute_s` times.
pub fn prepared_run(case: &Case, plan: Option<&Plan>) -> Result<DenseRun, String> {
    timed(case, || {
        ThreadClusterExecutor::try_run_prepared(
            &case.circuit,
            &case.cfg,
            case.basis,
            case.gather,
            plan,
        )
    })
}

fn timed(
    case: &Case,
    execute: impl FnOnce() -> Result<qse_core::executor::ClusterRun, CommError>,
) -> Result<DenseRun, String> {
    let t = Instant::now();
    let run = execute().map_err(|e| e.to_string())?;
    let execute_s = t.elapsed().as_secs_f64();
    let counts = run
        .state
        .as_deref()
        .map(|amps| sample(case, amps))
        .transpose()?;
    Ok(DenseRun {
        seconds: t.elapsed().as_secs_f64(),
        execute_s,
        profiled: run.profiled,
        state: run.state,
        counts,
    })
}

/// The locality class of one plan step or gate under `layout`.
fn step_class(step: &PlanStep, layout: &Layout) -> GateClass {
    match step {
        PlanStep::Gate(g) => classify(g, layout),
        PlanStep::Permute(_) => GateClass::Distributed,
    }
}

/// What one traced run produced, next to the spans it recorded.
pub struct TracedRun {
    /// Index of the run's top span in the recorder.
    pub top: usize,
    /// Index of rank 0's body span.
    pub rank0: usize,
    /// Traffic summed over ranks (peak in-flight: maximum).
    pub traffic: TrafficStats,
    /// The gathered statevector, when gathered.
    pub state: Option<Vec<Complex64>>,
    /// The sampled histogram, when gathered.
    pub counts: Option<Histogram>,
}

/// Span names of the rank closure, by locality bucket.
pub const GATE_LOCAL: &str = "gate.local";
/// See [`GATE_LOCAL`].
pub const GATE_DISTRIBUTED: &str = "gate.distributed";

/// Runs `case` through the benchmark's own copy of the executor's rank
/// closure — `Universe::new` → `DistributedState::basis_state` → one
/// timed `apply` per step → `gather` → sample — recording a span at
/// every boundary. Spans nest `run` → `universe` → `rank` →
/// {`dist_init`, `gate.*`, `gather`} and `run` → `sample`, so rank 0's
/// chain partitions the run and whatever no named span covers is the
/// self time of `run` and `rank`.
pub fn traced_run(
    case: &Case,
    plan: Option<&Plan>,
    gather: bool,
    rec: &mut Recorder,
) -> Result<TracedRun, String> {
    let n_ranks = case.cfg.n_ranks as usize;
    let dist_config = case.cfg.to_dist_config();
    let layout = Layout::new(case.circuit.n_qubits(), case.cfg.n_ranks);
    let steps: Vec<PlanStep> = match plan {
        Some(p) => p.steps.clone(),
        None => case
            .circuit
            .gates()
            .iter()
            .cloned()
            .map(PlanStep::Gate)
            .collect(),
    };
    let classes: Vec<GateClass> = steps.iter().map(|s| step_class(s, &layout)).collect();

    let top = rec.open("run", None);
    let universe = rec.open("universe", Some(top));
    let shared: &Recorder = rec;
    let per_rank = Universe::new(n_ranks).run(|comm| -> Result<_, CommError> {
        let mut rec = shared.on_rank(comm.rank());
        let body = rec.open("rank", None);
        let init = rec.open("dist_init", Some(body));
        let mut st: DistributedState =
            DistributedState::basis_state(comm, case.circuit.n_qubits(), case.basis, dist_config);
        st.barrier();
        rec.close(init);
        for (step, &class) in steps.iter().zip(&classes) {
            let name = if class == GateClass::Distributed {
                GATE_DISTRIBUTED
            } else {
                GATE_LOCAL
            };
            let id = rec.open(name, Some(body));
            match step {
                PlanStep::Gate(g) => st.apply(g)?,
                PlanStep::Permute(p) => st.apply_global_permutation(p)?,
            }
            rec.close(id);
        }
        let sync = rec.open("barrier", Some(body));
        st.barrier();
        rec.close(sync);
        let traffic = st.stats();
        let state = if gather {
            let id = rec.open("gather", Some(body));
            let state = st.gather()?;
            rec.close(id);
            state
        } else {
            None
        };
        rec.close(body);
        Ok((rec, traffic, state))
    });
    rec.close(universe);
    let mut traffic = Vec::with_capacity(n_ranks);
    let mut state = None;
    let mut rank0 = 0;
    for (rank, r) in per_rank.into_iter().enumerate() {
        let (rank_rec, t, s) = r.map_err(|e| e.to_string())?;
        if rank == 0 {
            rank0 = rec.spans().len();
        }
        rec.absorb(rank_rec, universe);
        traffic.push(t);
        state = state.or(s);
    }
    let counts = match state.as_deref() {
        Some(amps) => Some(rec.span("sample", Some(top), || sample(case, amps))?),
        None => None,
    };
    rec.close(top);
    Ok(TracedRun {
        top,
        rank0,
        traffic: TrafficStats::total(&traffic),
        state,
        counts,
    })
}

/// `bytes_exchanged` of one run of `case` in closed form: every
/// distributed gate sends each rank's whole slice once. Holds for
/// untranspiled runs without half-exchange SWAPs, which is what both
/// dense workloads are.
pub fn closed_form_bytes_exchanged(case: &Case) -> u64 {
    let layout = Layout::new(case.circuit.n_qubits(), case.cfg.n_ranks);
    let distributed = case
        .circuit
        .gates()
        .iter()
        .filter(|g| classify(g, &layout) == GateClass::Distributed)
        .count() as u64;
    distributed * case.slice_bytes() * case.cfg.n_ranks
}
