//! The job queue, admission control, worker pool and shot batching.
//!
//! Life of a job: `submit` canonicalises the circuit, admits it
//! (`SimConfig::admit`: engine width, ranks, basis, dense-only options),
//! prices its amplitude footprint against the memory budget, and
//! enqueues it (or rejects it typed). A worker pops the oldest job and *drains every
//! queued job with the same batch key* — same canonical plan, basis and
//! fault spec — into one batch that pays a single execution. One batch
//! path serves every engine. The plan comes from the LRU cache (hit:
//! skip classify → transpile → verify; dense miss: compile + verify
//! once, insert; sparse and tableau misses insert `plan: None`). The
//! batch then runs once through [`EngineExecutor::run_sampled`], which
//! fingerprints the final state once and draws each job's shots from its
//! own seed, bit-for-bit identical to what a solo run would have drawn.
//! A dense run is read out where its amplitudes live — each rank digests
//! and samples its own slice — so no execution gathers the state.
//!
//! Every lock is taken through `recover`: a thread that panics while it
//! holds one leaves data that is consistent between statements (counters
//! add, the queue moves whole jobs, the cache inserts whole entries), so
//! the service carries on rather than failing every later call.

use crate::cache::{plan_cost_bytes, CacheStats, CachedPlan, PlanCache};
use crate::error::ServeError;
use crate::protocol::{JobResult, JobSpec};
use qse_circuit::hash::{canonical_hash, canonicalize};
use qse_core::config::SimConfig;
use qse_core::executor::{EngineError, EngineExecutor, SampledRun};
use qse_util::cdf::Shots;
use qse_util::json::Json;
use qse_util::mailbox::{unbounded, Receiver};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
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

/// The amplitude bytes one job is charged while queued or executing:
/// twice the distributed statevector's 2ⁿ × 16 B. A run holds the
/// statevector alone — the exchange path stages nothing slice-sized (a
/// few wire chunks per rank in flight), and the read-out gathers no copy
/// and keeps its prefix sums in the slice's own real plane — so the
/// charge over-counts by the gathered copy runs no longer make, until
/// admission charges the slice a run holds. Batched jobs share one execution but are charged
/// individually — admission is a worst-case bound, not a best-case one.
pub fn job_footprint_bytes(n_qubits: u32) -> u64 {
    2 * 16 * (1u64 << n_qubits)
}

/// The strategy tag with the *requested* engine mode folded into the
/// upper bits: an `auto` submission and an explicit `dense` one key
/// separate cache entries even when auto resolves to the dense engine,
/// so re-requesting either mode is a hit on its own entry.
fn cache_tag(spec: &JobSpec) -> u8 {
    spec.transpile.tag() | (spec.engine.tag() << 2)
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
    /// stay per-job — they only pick which draws the read-out makes.
    fn batchable_with(&self, other: &Job) -> bool {
        self.key == other.key
            && self.spec.basis == other.spec.basis
            && self.spec.faults == other.spec.faults
    }

    /// The draws this job asks of its batch's run.
    fn shots(&self) -> Shots {
        Shots {
            seed: self.spec.seed,
            count: self.spec.shots,
        }
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
        Json::object([
            ("ok", Json::Bool(true)),
            ("submitted", Json::UInt(self.submitted)),
            ("completed", Json::UInt(self.completed)),
            ("failed", Json::UInt(self.failed)),
            (
                "rejected_over_budget",
                Json::UInt(self.rejected_over_budget),
            ),
            ("rejected_queue_full", Json::UInt(self.rejected_queue_full)),
            ("executions", Json::UInt(self.executions)),
            ("batched_jobs", Json::UInt(self.batched_jobs)),
            ("max_batch", Json::UInt(self.max_batch)),
            ("queue_depth", Json::UInt(self.queue_depth as u64)),
            ("reserved_bytes", Json::UInt(self.reserved_bytes)),
            ("cache_hits", Json::UInt(self.cache.hits)),
            ("cache_misses", Json::UInt(self.cache.misses)),
            ("cache_evictions", Json::UInt(self.cache.evictions)),
            ("cache_entries", Json::UInt(self.cache.entries as u64)),
            ("cache_bytes", Json::UInt(self.cache.bytes as u64)),
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
    /// Typed rejection (the admission rule, budget, backpressure,
    /// shutdown) is synchronous and means `reply` will never be called.
    /// Every front end — TCP, stdin, [`Self::submit`] — comes through here.
    pub fn submit_with(&self, spec: JobSpec, reply: Reply) -> Result<(), ServeError> {
        // Canonicalise once at admission: the canonical circuit is both
        // the cache key's preimage and the circuit every execution of
        // this equivalence class actually runs (bit-for-bit consistency
        // across hits, misses and batches).
        let canon = canonicalize(&spec.circuit);
        sim_config(&spec)
            .admit(&canon, spec.basis)
            .map_err(|e| ServeError::BadRequest {
                detail: e.to_string(),
            })?;
        let key = canonical_hash(&canon, spec.ranks, cache_tag(&spec));
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
            let mut st = recover(self.inner.state.lock());
            if st.shutdown {
                return Err(ServeError::Shutdown);
            }
            if st.queue.len() >= self.inner.cfg.queue_cap {
                recover(self.inner.counters.lock()).rejected_queue_full += 1;
                return Err(ServeError::QueueFull {
                    capacity: self.inner.cfg.queue_cap,
                });
            }
            if st.reserved_bytes + footprint > self.inner.cfg.mem_budget_bytes {
                recover(self.inner.counters.lock()).rejected_over_budget += 1;
                return Err(ServeError::OverBudget {
                    required_bytes: footprint,
                    budget_bytes: self.inner.cfg.mem_budget_bytes,
                    in_use_bytes: st.reserved_bytes,
                });
            }
            st.reserved_bytes += footprint;
            st.queue.push_back(job);
        }
        recover(self.inner.counters.lock()).submitted += 1;
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
        let counters = *recover(self.inner.counters.lock());
        let (queue_depth, reserved_bytes) = {
            let st = recover(self.inner.state.lock());
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
            cache: recover(self.inner.cache.lock()).stats(),
        }
    }

    /// Stops accepting work, fails queued jobs with
    /// [`ServeError::Shutdown`], lets in-flight executions finish, and
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            let mut st = recover(self.inner.state.lock());
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
        let workers: Vec<_> = recover(self.workers.lock()).drain(..).collect();
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
            let mut st = recover(inner.state.lock());
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
                st = recover(inner.work_ready.wait(st));
            }
        };
        execute_batch(inner, batch);
    }
}

/// The guard of a lock or a condition-variable wait, also when a thread
/// panicked while holding the lock (see the module doc).
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Builds the execution config one batch runs under.
fn sim_config(spec: &JobSpec) -> SimConfig {
    let mut cfg = SimConfig::default_for(spec.ranks);
    cfg.transpile = spec.transpile;
    cfg.faults = spec.faults;
    cfg.engine = spec.engine;
    cfg
}

/// Runs one batch: one cache lookup and one read-out execution, which
/// fingerprints the state once and draws each job's shots from its own
/// seed.
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
        let mut cache = recover(inner.cache.lock());
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
    let shots: Vec<Shots> = batch.iter().map(Job::shots).collect();
    let mut execution = entry.and_then(|entry| {
        EngineExecutor::run_sampled(
            &entry.circuit,
            &cfg,
            rep.spec.basis,
            entry.plan.as_ref(),
            &shots,
        )
    });

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut released = 0u64;
    let mut deliveries: Vec<(Reply, JobResponse)> = Vec::with_capacity(batch_len);
    for (i, job) in batch.into_iter().enumerate() {
        released += job.footprint;
        let response = execution
            .as_mut()
            .map_err(|e| e.clone())
            .and_then(|run| job_result(&job, i, run, cache_hit, batch_len))
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
        let mut st = recover(inner.state.lock());
        st.reserved_bytes -= released;
    }
    {
        let mut counters = recover(inner.counters.lock());
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

/// The reply of the batch's `i`-th job from the batch's one run: the
/// shared fingerprint, and the histogram of the job's own shots — exactly
/// what a solo run would draw. Each histogram is moved out once.
fn job_result(
    job: &Job,
    i: usize,
    run: &mut SampledRun,
    cache_hit: bool,
    batched: usize,
) -> Result<JobResult, EngineError> {
    let counts = match (&mut run.counts, job.spec.shots) {
        (_, 0) => None,
        (Ok(counts), _) => Some(std::mem::take(&mut counts[i])),
        (Err(e), _) => return Err(e.clone()),
    };
    Ok(JobResult {
        id: job.spec.id.clone(),
        cache_hit,
        batched,
        latency_us: job.submitted.elapsed().as_micros() as u64,
        state_fnv: run.digest,
        engine: run.profiled.engine,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::algorithms::ghz;
    use qse_core::config::{EngineMode, TranspileMode};

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

    #[test]
    fn jobs_without_shots_get_no_counts() {
        let jobs = [job(0, 1), job(0, 2), job(50, 3), job(0, 4)];
        let shots: Vec<Shots> = jobs.iter().map(Job::shots).collect();
        let cfg = sim_config(&jobs[0].spec);
        let mut run = EngineExecutor::run_sampled(&jobs[0].spec.circuit, &cfg, 0, None, &shots)
            .expect("dense run");
        let digest = run.digest;
        for (i, j) in jobs.iter().enumerate() {
            let r = job_result(j, i, &mut run, false, jobs.len()).expect("result");
            assert_eq!(r.state_fnv, digest);
            let drawn = r.counts.map(|c| c.values().sum::<usize>());
            assert_eq!(drawn, (j.spec.shots > 0).then_some(50), "job {i}");
        }
    }

    #[test]
    fn a_panic_under_the_cache_lock_does_not_stop_the_service() {
        let server = Server::start(ServeConfig::default());
        let inner = Arc::clone(&server.inner);
        let poisoner = thread::spawn(move || {
            let _cache = inner.cache.lock();
            panic!("a panic while the cache is locked");
        });
        assert!(poisoner.join().is_err());
        assert!(server.inner.cache.is_poisoned());
        let rx = server.submit(job(20, 9).spec).expect("admitted");
        let reply = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a reply");
        let counts = reply.expect("the job runs").counts.expect("shots drawn");
        assert_eq!(counts.values().sum::<usize>(), 20);
        assert_eq!(server.stats().completed, 1);
        server.shutdown();
    }
}
