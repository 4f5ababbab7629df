//! The job queue, admission control, worker pool and shot batching.
//!
//! Life of a job: `submit` canonicalises the circuit, prices its
//! amplitude footprint against the memory budget, and enqueues it (or
//! rejects it typed). A worker pops the oldest job and *drains every
//! queued job with the same batch key* — same canonical plan, basis and
//! fault spec — into one batch that pays a single execution. One batch
//! path serves every engine. The plan comes from the LRU cache (hit:
//! skip classify → transpile → verify; dense miss: compile + verify
//! once, insert; sparse and tableau misses insert `plan: None`). The
//! batch then runs once, fingerprints the final state once and, if any
//! job asks for shots, builds one prepared sampler; each job only draws
//! its own shots from its own seed, bit-for-bit identical to what a
//! solo run would have drawn.

use crate::cache::{plan_cost_bytes, CacheStats, CachedPlan, PlanCache};
use crate::error::ServeError;
use crate::protocol::{sparse_state_fingerprint, state_fingerprint, JobResult, JobSpec};
use qse_circuit::classify::EngineChoice;
use qse_circuit::hash::{canonical_hash, canonicalize};
use qse_comm::FaultConfig;
use qse_core::config::{SimConfig, TranspileMode};
use qse_core::executor::{EngineError, EngineExecutor, EngineRun, EngineState};
use qse_util::cdf::Cdf;
use qse_util::json::Json;
use qse_util::mailbox::{unbounded, Receiver};
use qse_util::rng::StdRng;
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Resident worker threads executing jobs.
    pub workers: usize,
    /// Bound on jobs queued awaiting a worker (backpressure).
    pub queue_cap: usize,
    /// Total amplitude bytes the service may have reserved at once,
    /// across queued and executing jobs.
    pub mem_budget_bytes: u64,
    /// Compiled-plan cache cap, in estimated plan bytes.
    pub cache_cap_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            mem_budget_bytes: 2 << 30,
            cache_cap_bytes: 16 << 20,
        }
    }
}

/// A job-level failure, addressed to the submitting client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// The job whose execution failed.
    pub id: String,
    /// What went wrong, typed.
    pub error: ServeError,
}

/// What a submitted job eventually resolves to.
pub type JobResponse = Result<JobResult, JobError>;

/// Delivery callback for one job's response. The in-process API wraps a
/// mailbox; the TCP front end renders straight onto the connection's
/// writer queue.
pub type Reply = Box<dyn FnOnce(JobResponse) + Send + 'static>;

/// The amplitude bytes one job pins while queued or executing: the
/// distributed statevector (2ⁿ × 16 B across ranks) plus the gathered
/// copy sampling reads — which is what a run now holds, the exchange
/// path staging nothing slice-sized (a few wire chunks per rank in
/// flight; the gather's per-rank payloads are transient). Batched jobs
/// share one execution but are charged individually — admission is a
/// worst-case bound, not a best-case one.
pub fn job_footprint_bytes(n_qubits: u32) -> u64 {
    2 * 16 * (1u64 << n_qubits)
}

/// One byte per strategy folded into the cache key: a plan compiled
/// under `beam` must never be served to a `greedy` submission.
fn strategy_tag(mode: TranspileMode) -> u8 {
    match mode {
        TranspileMode::Off => 0,
        TranspileMode::Greedy => 1,
        TranspileMode::Beam => 2,
    }
}

/// The strategy tag with the *requested* engine mode folded into the
/// upper bits: an `auto` submission and an explicit `dense` one key
/// separate cache entries even when auto resolves to the dense engine,
/// so re-requesting either mode is a hit on its own entry.
fn cache_tag(spec: &JobSpec) -> u8 {
    strategy_tag(spec.transpile) | (spec.engine.tag() << 2)
}

struct Job {
    spec: JobSpec,
    /// Cache key: canonical hash of (gate stream, n, ranks, strategy).
    key: u64,
    footprint: u64,
    submitted: Instant,
    reply: Reply,
}

impl Job {
    /// Jobs batch iff they would run the *identical* execution: same
    /// verified plan (cache key covers circuit, n, ranks, strategy) and
    /// the same initial basis and fault plan. Seeds and shot counts
    /// stay per-job — they only affect post-gather sampling.
    fn batchable_with(&self, other: &Job) -> bool {
        self.key == other.key
            && self.spec.basis == other.spec.basis
            && self.spec.faults == other.spec.faults
    }
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    reserved_bytes: u64,
    shutdown: bool,
}

#[derive(Default, Clone, Copy)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected_over_budget: u64,
    rejected_queue_full: u64,
    executions: u64,
    batched_jobs: u64,
    max_batch: u64,
}

/// A point-in-time view of every service counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that returned a result.
    pub completed: u64,
    /// Jobs that returned a typed execution error.
    pub failed: u64,
    /// Submissions refused for memory budget.
    pub rejected_over_budget: u64,
    /// Submissions refused for queue backpressure.
    pub rejected_queue_full: u64,
    /// Distinct cluster executions run.
    pub executions: u64,
    /// Jobs that shared an execution with at least one peer.
    pub batched_jobs: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Amplitude bytes currently reserved.
    pub reserved_bytes: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

impl StatsSnapshot {
    /// Renders the `{"op":"stats"}` response line (no newline).
    pub fn render(&self) -> String {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("submitted".into(), Json::UInt(self.submitted)),
            ("completed".into(), Json::UInt(self.completed)),
            ("failed".into(), Json::UInt(self.failed)),
            (
                "rejected_over_budget".into(),
                Json::UInt(self.rejected_over_budget),
            ),
            (
                "rejected_queue_full".into(),
                Json::UInt(self.rejected_queue_full),
            ),
            ("executions".into(), Json::UInt(self.executions)),
            ("batched_jobs".into(), Json::UInt(self.batched_jobs)),
            ("max_batch".into(), Json::UInt(self.max_batch)),
            ("queue_depth".into(), Json::UInt(self.queue_depth as u64)),
            ("reserved_bytes".into(), Json::UInt(self.reserved_bytes)),
            ("cache_hits".into(), Json::UInt(self.cache.hits)),
            ("cache_misses".into(), Json::UInt(self.cache.misses)),
            ("cache_evictions".into(), Json::UInt(self.cache.evictions)),
            (
                "cache_entries".into(),
                Json::UInt(self.cache.entries as u64),
            ),
            ("cache_bytes".into(), Json::UInt(self.cache.bytes as u64)),
        ])
        .to_string()
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    cache: Mutex<PlanCache>,
    counters: Mutex<Counters>,
}

/// The running service: worker pool + queue + plan cache. Share it
/// behind an `Arc` across front ends; `shutdown` drains and joins.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(cfg: ServeConfig) -> Server {
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            cache: Mutex::new(PlanCache::new(cfg.cache_cap_bytes)),
            counters: Mutex::new(Counters::default()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("qse-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Admits `spec`, delivering the eventual response through `reply`.
    /// Typed rejection (budget, backpressure, shutdown) is synchronous
    /// and means `reply` will never be called.
    pub fn submit_with(&self, spec: JobSpec, reply: Reply) -> Result<(), ServeError> {
        // Canonicalise once at admission: the canonical circuit is both
        // the cache key's preimage and the circuit every execution of
        // this equivalence class actually runs (bit-for-bit consistency
        // across hits, misses and batches).
        let canon = canonicalize(&spec.circuit);
        let key = canonical_hash(&canon, spec.ranks, cache_tag(&spec));
        // Fault injection and comm-avoiding transpilation shape the
        // distributed dense path only; reject rather than silently
        // ignore them on an engine that cannot honour them.
        if spec.engine.resolve(&canon) != EngineChoice::Dense
            && (spec.faults.is_some() || spec.transpile != TranspileMode::Off)
        {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "\"faults\"/\"transpile\" only apply to the dense engine, \
                     not `{}`",
                    spec.engine.label()
                ),
            });
        }
        let spec = JobSpec {
            circuit: canon,
            ..spec
        };
        let footprint = job_footprint_bytes(spec.circuit.n_qubits());
        let job = Job {
            key,
            footprint,
            submitted: Instant::now(),
            spec,
            reply,
        };
        {
            let mut st = self.inner.state.lock().expect("state lock");
            if st.shutdown {
                return Err(ServeError::Shutdown);
            }
            if st.queue.len() >= self.inner.cfg.queue_cap {
                self.inner
                    .counters
                    .lock()
                    .expect("counters")
                    .rejected_queue_full += 1;
                return Err(ServeError::QueueFull {
                    capacity: self.inner.cfg.queue_cap,
                });
            }
            if st.reserved_bytes + footprint > self.inner.cfg.mem_budget_bytes {
                self.inner
                    .counters
                    .lock()
                    .expect("counters")
                    .rejected_over_budget += 1;
                return Err(ServeError::OverBudget {
                    required_bytes: footprint,
                    budget_bytes: self.inner.cfg.mem_budget_bytes,
                    in_use_bytes: st.reserved_bytes,
                });
            }
            st.reserved_bytes += footprint;
            st.queue.push_back(job);
        }
        self.inner.counters.lock().expect("counters").submitted += 1;
        self.inner.work_ready.notify_one();
        Ok(())
    }

    /// [`Self::submit_with`] delivering into a mailbox — the in-process
    /// API used by tests, benches and the stdin front end.
    pub fn submit(&self, spec: JobSpec) -> Result<Receiver<JobResponse>, ServeError> {
        let (tx, rx) = unbounded();
        self.submit_with(
            spec,
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        )?;
        Ok(rx)
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> StatsSnapshot {
        let counters = *self.inner.counters.lock().expect("counters");
        let (queue_depth, reserved_bytes) = {
            let st = self.inner.state.lock().expect("state lock");
            (st.queue.len(), st.reserved_bytes)
        };
        StatsSnapshot {
            submitted: counters.submitted,
            completed: counters.completed,
            failed: counters.failed,
            rejected_over_budget: counters.rejected_over_budget,
            rejected_queue_full: counters.rejected_queue_full,
            executions: counters.executions,
            batched_jobs: counters.batched_jobs,
            max_batch: counters.max_batch,
            queue_depth,
            reserved_bytes,
            cache: self.inner.cache.lock().expect("cache lock").stats(),
        }
    }

    /// Stops accepting work, fails queued jobs with
    /// [`ServeError::Shutdown`], lets in-flight executions finish, and
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            let mut st = self.inner.state.lock().expect("state lock");
            st.shutdown = true;
            let drained: Vec<Job> = st.queue.drain(..).collect();
            for job in &drained {
                st.reserved_bytes -= job.footprint;
            }
            drained
        };
        self.inner.work_ready.notify_all();
        for job in drained {
            (job.reply)(Err(JobError {
                id: job.spec.id,
                error: ServeError::Shutdown,
            }));
        }
        let workers: Vec<_> = self.workers.lock().expect("workers").drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = inner.state.lock().expect("state lock");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    // Coalesce: every queued job that would run the
                    // identical execution rides along.
                    let mut batch = vec![job];
                    let mut i = 0;
                    while i < st.queue.len() {
                        if batch[0].batchable_with(&st.queue[i]) {
                            let peer = st.queue.remove(i).expect("index checked");
                            batch.push(peer);
                        } else {
                            i += 1;
                        }
                    }
                    break batch;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_ready.wait(st).expect("state lock");
            }
        };
        execute_batch(inner, batch);
    }
}

/// Builds the execution config one batch runs under.
fn sim_config(spec: &JobSpec) -> SimConfig {
    let mut cfg = SimConfig::default_for(spec.ranks);
    cfg.transpile = spec.transpile;
    cfg.faults = spec.faults;
    cfg.engine = spec.engine;
    cfg
}

/// Runs one batch: one cache lookup, one execution, one fingerprint and
/// — if any job asks for shots — one prepared sampler; each job then
/// only draws its own shots from its own seed.
fn execute_batch(inner: &Inner, batch: Vec<Job>) {
    let rep = &batch[0];
    let cfg = sim_config(&rep.spec);

    // Plan lookup / compile. The cache lock is held across a miss's
    // compile + verify on purpose: a key is compiled at most once, and
    // hit/miss counters are exact. Cold compiles serialise against each
    // other; the warm path only pays a map lookup. Sparse and tableau
    // runs have no exchange plan, but still key the canonical circuit
    // (`plan: None`) so hit/miss provenance is the same for every engine.
    let (entry, cache_hit) = {
        let mut cache = inner.cache.lock().expect("cache lock");
        match cache.get(rep.key) {
            Some(entry) => (Ok(entry), true),
            None => {
                let plan = EngineExecutor::prepare(&rep.spec.circuit, &cfg);
                let entry = plan.map(|plan| {
                    let circuit = rep.spec.circuit.clone();
                    let bytes = plan_cost_bytes(&circuit, plan.as_ref());
                    cache.insert(
                        rep.key,
                        CachedPlan {
                            circuit,
                            plan,
                            bytes,
                        },
                    )
                });
                (entry, false)
            }
        }
    };

    let batch_len = batch.len();
    let execution = entry.and_then(|entry| {
        let run = EngineExecutor::run_prepared(
            &entry.circuit,
            &cfg,
            rep.spec.basis,
            true,
            entry.plan.as_ref(),
        )?;
        Ok(Execution {
            state_fnv: state_fnv(&run.state)?,
            run,
            cache_hit,
            batched: batch_len,
            sampler: OnceCell::new(),
        })
    });

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut released = 0u64;
    let mut deliveries: Vec<(Reply, JobResponse)> = Vec::with_capacity(batch_len);
    for job in batch {
        released += job.footprint;
        let response = execution
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|exec| exec.result(&job))
            .map_err(|e| JobError {
                id: job.spec.id.clone(),
                error: ServeError::Exec {
                    detail: e.to_string(),
                },
            });
        match &response {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
        deliveries.push((job.reply, response));
    }

    // Settle the books *before* delivering replies: a client that has
    // its response in hand must be able to resubmit against a released
    // reservation and read stats that already include its job.
    {
        let mut st = inner.state.lock().expect("state lock");
        st.reserved_bytes -= released;
    }
    {
        let mut counters = inner.counters.lock().expect("counters");
        counters.completed += completed;
        counters.failed += failed;
        counters.executions += 1;
        if batch_len > 1 {
            counters.batched_jobs += batch_len as u64;
        }
        counters.max_batch = counters.max_batch.max(batch_len as u64);
    }
    for (reply, response) in deliveries {
        reply(response);
    }
}

/// What one execution hands every job of its batch, each part built once.
struct Execution {
    run: EngineRun,
    cache_hit: bool,
    batched: usize,
    state_fnv: u64,
    /// Built by the first job that draws shots, then shared by the rest;
    /// a batch that draws none builds none.
    sampler: OnceCell<Result<Cdf, EngineError>>,
}

impl Execution {
    /// `job`'s result: the shared fingerprint, and the shots drawn from
    /// the job's own seed — exactly what a solo run would draw.
    fn result(&self, job: &Job) -> Result<JobResult, EngineError> {
        let counts = if job.spec.shots > 0 {
            let sampler = self.sampler.get_or_init(|| self.run.sampler());
            let mut rng = StdRng::seed_from_u64(job.spec.seed);
            let sampler = sampler.as_ref().map_err(Clone::clone)?;
            Some(sampler.sample_counts(&mut rng, job.spec.shots))
        } else {
            None
        };
        Ok(JobResult {
            id: job.spec.id.clone(),
            cache_hit: self.cache_hit,
            batched: self.batched,
            latency_us: job.submitted.elapsed().as_micros() as u64,
            state_fnv: self.state_fnv,
            engine: self.run.profiled.engine,
            counts,
        })
    }
}

/// The reply fingerprint of a final state: amplitudes where the engine
/// has them (the sparse form folds its runs of zeros without
/// materialising them), the tableau representation otherwise.
fn state_fnv(state: &EngineState) -> Result<u64, EngineError> {
    match state {
        EngineState::Dense(None) => Err(EngineError::StateNotGathered),
        EngineState::Dense(Some(amps)) => Ok(state_fingerprint(amps)),
        EngineState::Sparse(s) => Ok(sparse_state_fingerprint(s)),
        EngineState::Tableau(t) => Ok(t.fingerprint()),
    }
}

/// Convenience: a [`FaultConfig`] equality check exists so batch keys
/// can compare fault plans; re-export the type for front ends.
pub type Faults = Option<FaultConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::algorithms::ghz;
    use qse_core::config::EngineMode;

    fn job(shots: usize, seed: u64) -> Job {
        Job {
            spec: JobSpec {
                id: format!("job-{seed}"),
                circuit: ghz(6),
                ranks: 2,
                transpile: TranspileMode::Off,
                shots,
                seed,
                basis: 0,
                faults: None,
                engine: EngineMode::Dense,
            },
            key: 0,
            footprint: 0,
            submitted: Instant::now(),
            reply: Box::new(|_| {}),
        }
    }

    fn execution(rep: &Job, batched: usize) -> Execution {
        let run = EngineExecutor::run(&rep.spec.circuit, &sim_config(&rep.spec), 0, true)
            .expect("dense run");
        Execution {
            state_fnv: state_fnv(&run.state).expect("gathered"),
            run,
            cache_hit: false,
            batched,
            sampler: OnceCell::new(),
        }
    }

    #[test]
    fn a_batch_without_shots_builds_no_sampler() {
        let jobs = [job(0, 1), job(0, 2), job(0, 3)];
        let exec = execution(&jobs[0], jobs.len());
        for j in &jobs {
            let r = exec.result(j).expect("result");
            assert_eq!((r.counts, r.state_fnv), (None, exec.state_fnv));
        }
        assert!(exec.sampler.get().is_none(), "no job drew shots");
        let r = exec.result(&job(50, 4)).expect("result");
        assert_eq!(r.counts.map(|c| c.values().sum::<usize>()), Some(50));
        assert!(exec.sampler.get().is_some(), "the first draw builds it");
    }

    #[test]
    fn an_ungathered_dense_state_is_a_typed_error() {
        assert_eq!(
            state_fnv(&EngineState::Dense(None)),
            Err(EngineError::StateNotGathered)
        );
    }
}
