//! A schedule-exploring concurrency checker (a mini-loom).
//!
//! The mailbox channels and worker pool in `qse-util` call
//! [`qse_util::sync::sync_point`] at every operation where thread
//! interleaving matters. In production that hook is a relaxed atomic
//! load. Here we install a [`ScheduleHook`] that serializes *participant*
//! threads onto a token-passing scheduler: exactly one participant runs
//! at a time, and at every sync point, blocking receive, and channel
//! notification the scheduler makes a recorded decision about who runs
//! next. Enumerating those decisions enumerates interleavings.
//!
//! Two exploration modes:
//!
//! * **Exhaustive** ([`Explorer::exhaustive`]) — depth-first search over
//!   the decision tree with a preemption bound (involuntary context
//!   switches per schedule), the standard trick that keeps the tree
//!   tractable while still finding almost all real bugs. Practical for
//!   fixtures with ≤ 3 participant threads.
//! * **Seeded random** ([`Explorer::random`]) — each iteration draws its
//!   decisions from a [`SplitMix64`] stream seeded deterministically
//!   from the base seed and the iteration index. A failure reports the
//!   per-iteration seed; `Explorer::random(that_seed, 1)` replays the
//!   exact failing schedule.
//!
//! Blocking receives are *modelled*: when every participant is blocked,
//! the scheduler wakes them all with a modelled timeout instead of
//! letting a wall-clock deadline pass, so explorations are fast and
//! deterministic. Panics anywhere in the fixture (assertion failures
//! included) are caught and reported as the failing schedule.

use qse_util::rng::{Rng, SplitMix64};
use qse_util::sync::{self, ScheduleHook, SyncOp};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

thread_local! {
    /// The participant id of the current thread, when it is managed by
    /// the active exploration. Pool workers and other helper threads
    /// never set this, so instrumentation stays a no-op for them.
    static PARTICIPANT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Distinct offsets per iteration keep random-mode seeds independent.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Ready to run, waiting for the token.
    Runnable,
    /// Holds the token.
    Running,
    /// Waiting for a notification on this channel id.
    Blocked(u64),
    /// Returned from its closure.
    Finished,
}

struct Inner {
    state: Vec<TState>,
    /// Set when a blocked thread was woken by the modelled global
    /// timeout rather than a notification.
    timed_out: Vec<bool>,
    current: Option<usize>,
    /// Decisions to replay before free choice begins.
    script: Vec<usize>,
    cursor: usize,
    /// Every decision made this run: `(alternatives, chosen)`.
    trace: Vec<(usize, usize)>,
    rng: Option<SplitMix64>,
    preemptions: usize,
    max_preemptions: usize,
    /// A participant panicked: release every wait so threads free-run
    /// to completion and the run can be torn down.
    aborted: bool,
    panics: Vec<String>,
}

impl Inner {
    /// Makes one scheduling decision among `alts` alternatives:
    /// scripted prefix first, then the RNG (random mode) or alternative
    /// 0 (exhaustive DFS). Every decision is recorded for backtracking
    /// and replay.
    fn choose(&mut self, alts: usize) -> usize {
        let c = if self.cursor < self.script.len() {
            self.script[self.cursor].min(alts - 1)
        } else if let Some(rng) = &mut self.rng {
            (rng.next_u64() % alts as u64) as usize
        } else {
            0
        };
        self.cursor += 1;
        self.trace.push((alts, c));
        c
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&i| matches!(self.state[i], TState::Runnable))
            .collect()
    }

    fn blocked(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&i| matches!(self.state[i], TState::Blocked(_)))
            .collect()
    }

    /// Hands the token to a runnable participant after the current one
    /// gave it up voluntarily (blocked or finished). When nothing is
    /// runnable but threads are blocked, no notification can ever come
    /// (only participants notify these channels), so the scheduler
    /// models a receive timeout: every blocked thread wakes with
    /// `timed_out` set and one of them is chosen to run.
    fn schedule_next(&mut self) {
        let cands = self.runnable();
        if cands.is_empty() {
            let blocked = self.blocked();
            if blocked.is_empty() {
                self.current = None;
                return;
            }
            for &b in &blocked {
                self.state[b] = TState::Runnable;
                self.timed_out[b] = true;
            }
            let idx = if blocked.len() > 1 {
                self.choose(blocked.len())
            } else {
                0
            };
            self.state[blocked[idx]] = TState::Running;
            self.current = Some(blocked[idx]);
            return;
        }
        let idx = if cands.len() > 1 {
            self.choose(cands.len())
        } else {
            0
        };
        self.state[cands[idx]] = TState::Running;
        self.current = Some(cands[idx]);
    }
}

struct Scheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_for_turn<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Inner>,
        me: usize,
    ) -> MutexGuard<'a, Inner> {
        while guard.current != Some(me) && !guard.aborted {
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        guard
    }

    /// A preemption point: the scheduler may switch to another runnable
    /// participant (counted against the preemption bound) or let the
    /// caller continue.
    fn yield_point(&self, me: usize) {
        let mut inner = self.lock();
        if inner.aborted {
            return;
        }
        let mut cands = inner.runnable();
        cands.push(me);
        cands.sort_unstable();
        if inner.preemptions >= inner.max_preemptions {
            cands = vec![me];
        }
        let idx = if cands.len() > 1 {
            inner.choose(cands.len())
        } else {
            0
        };
        let next = cands[idx];
        if next == me {
            return;
        }
        inner.preemptions += 1;
        inner.state[me] = TState::Runnable;
        inner.state[next] = TState::Running;
        inner.current = Some(next);
        self.cv.notify_all();
        let mut inner = self.wait_for_turn(inner, me);
        if !inner.aborted {
            inner.state[me] = TState::Running;
        }
    }

    /// Blocks `me` until channel `chan` is notified (returns `true`) or
    /// the modelled global timeout fires (returns `false`).
    fn block_on(&self, me: usize, chan: u64) -> bool {
        let mut inner = self.lock();
        if inner.aborted {
            return false;
        }
        inner.state[me] = TState::Blocked(chan);
        inner.timed_out[me] = false;
        inner.schedule_next();
        self.cv.notify_all();
        let mut inner = self.wait_for_turn(inner, me);
        if inner.aborted {
            return false;
        }
        inner.state[me] = TState::Running;
        !inner.timed_out[me]
    }

    /// A channel notification. Waking *which* blocked receiver is itself
    /// a recorded scheduling decision when the notifier participates;
    /// notifications from outside threads conservatively wake everyone.
    /// With no waiter the notification is lost — condvar semantics, and
    /// exactly the nondeterminism the mailbox re-check loop must absorb.
    fn notify(&self, chan: u64, all: bool) {
        let mut inner = self.lock();
        if inner.aborted {
            return;
        }
        let waiters: Vec<usize> = (0..inner.state.len())
            .filter(|&i| inner.state[i] == TState::Blocked(chan))
            .collect();
        if waiters.is_empty() {
            return;
        }
        let from_participant = PARTICIPANT.with(|p| p.get()).is_some();
        if all || !from_participant {
            for &w in &waiters {
                inner.state[w] = TState::Runnable;
                inner.timed_out[w] = false;
            }
        } else {
            let idx = if waiters.len() > 1 {
                inner.choose(waiters.len())
            } else {
                0
            };
            inner.state[waiters[idx]] = TState::Runnable;
            inner.timed_out[waiters[idx]] = false;
        }
        if inner.current.is_none() {
            inner.schedule_next();
            self.cv.notify_all();
        }
    }

    /// Called when a participant's closure returns.
    fn finish(&self, me: usize) {
        let mut inner = self.lock();
        inner.state[me] = TState::Finished;
        if !inner.aborted {
            inner.schedule_next();
        }
        self.cv.notify_all();
    }

    /// Called when a participant's closure panics: record the payload
    /// and release every wait so remaining threads free-run to the end.
    fn abort(&self, me: usize, message: String) {
        let mut inner = self.lock();
        inner.panics.push(message);
        inner.state[me] = TState::Finished;
        inner.aborted = true;
        self.cv.notify_all();
    }

    fn add_participant(&self) -> usize {
        let mut inner = self.lock();
        let id = inner.state.len();
        inner.state.push(TState::Runnable);
        inner.timed_out.push(false);
        id
    }

    /// Parks a freshly spawned participant until it is first scheduled.
    fn start(&self, me: usize) {
        let inner = self.lock();
        let mut inner = self.wait_for_turn(inner, me);
        if !inner.aborted {
            inner.state[me] = TState::Running;
        }
    }
}

struct SchedulerHook {
    sched: Arc<Scheduler>,
}

impl ScheduleHook for SchedulerHook {
    fn is_participant(&self) -> bool {
        PARTICIPANT.with(|p| p.get()).is_some()
    }

    fn sync_point(&self, _op: SyncOp) {
        if let Some(me) = PARTICIPANT.with(|p| p.get()) {
            self.sched.yield_point(me);
        }
    }

    fn wait_channel(&self, chan: u64) -> bool {
        match PARTICIPANT.with(|p| p.get()) {
            Some(me) => self.sched.block_on(me, chan),
            None => false,
        }
    }

    fn notify_channel(&self, chan: u64, all: bool) {
        self.sched.notify(chan, all);
    }
}

/// Handle passed to an exploration body for spawning participant
/// threads. The body itself runs as participant 0.
pub struct Ctl {
    sched: Arc<Scheduler>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Ctl {
    /// Spawns a participant thread running `f` under the controlled
    /// scheduler. The thread does not run until the scheduler first
    /// hands it the token at a decision point.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let id = self.sched.add_participant();
        let sched = Arc::clone(&self.sched);
        let handle = std::thread::spawn(move || {
            PARTICIPANT.with(|p| p.set(Some(id)));
            sched.start(id);
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => sched.finish(id),
                Err(payload) => sched.abort(id, panic_message(&*payload)),
            }
            PARTICIPANT.with(|p| p.set(None));
        });
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Per-iteration seed (random mode); replay with
    /// `Explorer::random(seed, 1)`.
    pub seed: Option<u64>,
    /// The decision sequence of the failing run (exhaustive mode replay).
    pub script: Vec<usize>,
    /// Schedules executed up to and including the failing one.
    pub schedules: usize,
    /// The first panic message observed on the failing schedule.
    pub message: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule {} failed: {}", self.schedules, self.message)?;
        match self.seed {
            Some(seed) => write!(f, "; replay with seed {seed}"),
            None => write!(f, "; replay with script {:?}", self.script),
        }
    }
}

impl std::error::Error for ScheduleFailure {}

enum Mode {
    Exhaustive,
    Random { seed: u64, iterations: usize },
}

/// Explores thread interleavings of an instrumented fixture.
pub struct Explorer {
    mode: Mode,
    max_preemptions: usize,
    max_schedules: usize,
}

/// Serializes explorations process-wide: the schedule hook is a global,
/// so two concurrent explorations would corrupt each other.
fn exploration_lock() -> &'static Mutex<()> {
    static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

impl Explorer {
    /// Exhaustive bounded-preemption DFS — use for fixtures with at most
    /// three participant threads (the tree grows steeply beyond that).
    pub fn exhaustive() -> Self {
        Explorer {
            mode: Mode::Exhaustive,
            max_preemptions: 2,
            max_schedules: 20_000,
        }
    }

    /// Seeded random exploration: `iterations` schedules drawn from a
    /// deterministic per-iteration seed stream. Use above three threads,
    /// and with `iterations == 1` to replay a reported failing seed.
    pub fn random(seed: u64, iterations: usize) -> Self {
        Explorer {
            mode: Mode::Random { seed, iterations },
            max_preemptions: 2,
            max_schedules: iterations,
        }
    }

    /// Runs `f` under every explored schedule. Returns the number of
    /// schedules explored, or the first failing schedule.
    ///
    /// `f` runs once per schedule as participant 0; threads it spawns
    /// through [`Ctl::spawn`] become participants. Any panic (assertion
    /// failures included) in any participant fails the schedule.
    pub fn explore<F>(&self, f: F) -> Result<usize, ScheduleFailure>
    where
        F: Fn(&Ctl),
    {
        let _guard = exploration_lock().lock().unwrap_or_else(|e| e.into_inner());
        let _quiet = QuietPanics::install();
        match &self.mode {
            Mode::Exhaustive => {
                let mut script: Vec<usize> = Vec::new();
                let mut runs = 0usize;
                loop {
                    let out = run_one(script.clone(), None, self.max_preemptions, &f);
                    runs += 1;
                    if let Some(message) = out.panic {
                        return Err(ScheduleFailure {
                            seed: None,
                            script: out.trace.iter().map(|&(_, c)| c).collect(),
                            schedules: runs,
                            message,
                        });
                    }
                    // DFS backtrack: bump the last decision that still
                    // has an untried alternative; drop everything after.
                    let next = out
                        .trace
                        .iter()
                        .rposition(|&(alts, chosen)| chosen + 1 < alts);
                    match next {
                        Some(i) => {
                            script = out.trace[..i].iter().map(|&(_, c)| c).collect();
                            script.push(out.trace[i].1 + 1);
                        }
                        None => return Ok(runs),
                    }
                    if runs >= self.max_schedules {
                        return Ok(runs);
                    }
                }
            }
            Mode::Random { seed, iterations } => {
                for i in 0..*iterations {
                    let iter_seed = seed.wrapping_add((i as u64).wrapping_mul(SEED_STRIDE));
                    let rng = SplitMix64::seed_from_u64(iter_seed);
                    let out = run_one(Vec::new(), Some(rng), self.max_preemptions, &f);
                    if let Some(message) = out.panic {
                        return Err(ScheduleFailure {
                            seed: Some(iter_seed),
                            script: out.trace.iter().map(|&(_, c)| c).collect(),
                            schedules: i + 1,
                            message,
                        });
                    }
                }
                Ok(*iterations)
            }
        }
    }

    /// Replays one exact decision sequence (from
    /// [`ScheduleFailure::script`]) under this explorer's preemption
    /// bound — the bound shapes which decision points exist, so it must
    /// match the exploring run. Returns the panic message if the
    /// schedule still fails.
    pub fn replay<F>(&self, script: Vec<usize>, f: F) -> Option<String>
    where
        F: Fn(&Ctl),
    {
        let _guard = exploration_lock().lock().unwrap_or_else(|e| e.into_inner());
        let _quiet = QuietPanics::install();
        run_one(script, None, self.max_preemptions, &f).panic
    }
}

/// RAII silencer for the global panic hook: exploration *intentionally*
/// drives fixtures to panic, and the default hook would spray every
/// probed schedule's backtrace onto stderr. The exploration lock is held
/// for the guard's whole lifetime, so no concurrent exploration races
/// the swap; the previous hook is restored on drop.
struct QuietPanics {
    prev: Option<Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>>,
}

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

struct RunOutcome {
    trace: Vec<(usize, usize)>,
    panic: Option<String>,
}

fn run_one<F>(
    script: Vec<usize>,
    rng: Option<SplitMix64>,
    max_preemptions: usize,
    f: &F,
) -> RunOutcome
where
    F: Fn(&Ctl),
{
    let sched = Arc::new(Scheduler {
        inner: Mutex::new(Inner {
            state: vec![TState::Running],
            timed_out: vec![false],
            current: Some(0),
            script,
            cursor: 0,
            trace: Vec::new(),
            rng,
            preemptions: 0,
            max_preemptions,
            aborted: false,
            panics: Vec::new(),
        }),
        cv: Condvar::new(),
    });
    let hook = Arc::new(SchedulerHook {
        sched: Arc::clone(&sched),
    });
    sync::install(hook);
    PARTICIPANT.with(|p| p.set(Some(0)));

    let ctl = Ctl {
        sched: Arc::clone(&sched),
        handles: Mutex::new(Vec::new()),
    };
    match catch_unwind(AssertUnwindSafe(|| f(&ctl))) {
        Ok(()) => sched.finish(0),
        Err(payload) => sched.abort(0, panic_message(&*payload)),
    }
    PARTICIPANT.with(|p| p.set(None));

    let handles = std::mem::take(&mut *ctl.handles.lock().unwrap_or_else(|e| e.into_inner()));
    for h in handles {
        // Participant panics are already caught and recorded inside the
        // thread wrapper; a join error here would mean the wrapper
        // itself died, which abort() has already made survivable.
        let _ = h.join();
    }
    sync::uninstall();

    let inner = sched.lock();
    RunOutcome {
        trace: inner.trace.clone(),
        panic: inner.panics.first().cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_explores_one_schedule() {
        let n = Explorer::exhaustive()
            .explore(|_ctl| {
                sync::sync_point(SyncOp::User("solo"));
            })
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn panic_in_body_is_reported_not_propagated() {
        let err = Explorer::exhaustive()
            .explore(|_ctl| panic!("body panicked on purpose"))
            .unwrap_err();
        assert!(err.message.contains("body panicked on purpose"));
        assert_eq!(err.schedules, 1);
    }

    #[test]
    fn spawned_threads_actually_run() {
        let runs = Explorer::exhaustive()
            .explore(|ctl| {
                let counter = Arc::new(AtomicUsize::new(0));
                for _ in 0..2 {
                    let counter = Arc::clone(&counter);
                    ctl.spawn(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        sync::sync_point(SyncOp::User("after add"));
                    });
                }
            })
            .unwrap();
        assert!(runs >= 1);
    }

    #[test]
    fn failure_display_mentions_replay_handle() {
        let fail = ScheduleFailure {
            seed: Some(42),
            script: vec![],
            schedules: 7,
            message: "boom".into(),
        };
        let text = fail.to_string();
        assert!(text.contains("replay with seed 42"));
        let fail = ScheduleFailure {
            seed: None,
            script: vec![1, 0, 2],
            schedules: 3,
            message: "boom".into(),
        };
        assert!(fail.to_string().contains("[1, 0, 2]"));
    }
}
