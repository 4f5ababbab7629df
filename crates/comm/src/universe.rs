//! Universe construction: hands out communicators and runs the ranks —
//! rank 0 on the caller, the rest on resident helper threads.

#![expect(
    unsafe_code,
    reason = "resident rank threads run borrowed closures; each use carries its `SAFETY:` comment"
)]

use crate::communicator::Communicator;
use crate::failstop::FailStop;
use crate::faults::{FaultConfig, FaultPlan};
use crate::message::Envelope;
use crate::stats::{SharedCounters, TrafficCounters};
use crate::Result;
use qse_util::mailbox::{unbounded, Receiver, Sender};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Default receive deadline; generous enough for debug-build statevector
/// exchanges, short enough that a protocol bug in hand-written rank code
/// (a one-sided receive) fails rather than hangs.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// A fixed-size set of ranks with fully connected mailboxes.
///
/// The universe is the analogue of `MPI_COMM_WORLD` after `MPI_Init`: it
/// owns one mailbox per rank and the shared fail-stop state (abort cell
/// and barrier, see [`crate::failstop`]). Consume it either with
/// [`Universe::run`] (run a closure on every rank — rank 0 on the
/// calling thread, the others on resident helper threads — and collect
/// the results in rank order) or [`Universe::into_communicators`] for
/// manual thread management. Mailboxes, counters and the abort cell
/// belong to one universe; only the helper threads outlive it.
pub struct Universe {
    senders: Arc<Vec<Sender<Envelope>>>,
    receivers: Vec<Receiver<Envelope>>,
    fail_stop: Arc<FailStop>,
    counters: Vec<SharedCounters>,
    recv_timeout: Duration,
    faults: Option<FaultPlan>,
}

impl Universe {
    /// Creates a universe of `size` ranks (size ≥ 1) with the
    /// [`DEFAULT_RECV_TIMEOUT`] receive deadline.
    pub fn new(size: usize) -> Self {
        Self::with_timeout(size, DEFAULT_RECV_TIMEOUT)
    }

    /// Creates a universe whose communicators run under the seeded,
    /// deterministic fault plan described by `config` — every rank's
    /// fault stream replays exactly for a fixed seed. Fails on an
    /// invalid configuration (probability outside `[0, 1]`).
    pub fn with_faults(size: usize, config: FaultConfig) -> Result<Self> {
        Self::with_timeout_and_faults(size, DEFAULT_RECV_TIMEOUT, config)
    }

    /// [`Universe::with_faults`] with a custom receive deadline, for
    /// tests pinning the modelled delay-versus-timeout boundary.
    pub fn with_timeout_and_faults(
        size: usize,
        recv_timeout: Duration,
        config: FaultConfig,
    ) -> Result<Self> {
        let plan = FaultPlan::new(config)?;
        let mut universe = Self::with_timeout(size, recv_timeout);
        universe.faults = Some(plan);
        Ok(universe)
    }

    /// Creates a universe with a custom receive deadline (mainly for tests
    /// that time a receive out on purpose).
    pub fn with_timeout(size: usize, recv_timeout: Duration) -> Self {
        assert!(size >= 1, "universe needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let counters: Vec<SharedCounters> = (0..size)
            .map(|_| Arc::new(TrafficCounters::default()))
            .collect();
        Universe {
            senders: Arc::new(senders),
            receivers,
            fail_stop: Arc::new(FailStop::new(size)),
            counters,
            recv_timeout,
            faults: None,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Splits the universe into one [`Communicator`] per rank, in rank
    /// order. Each communicator must move to its own thread.
    pub fn into_communicators(self) -> Vec<Communicator> {
        let size = self.size();
        self.receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Communicator::new(
                    rank,
                    size,
                    Arc::clone(&self.senders),
                    rx,
                    Arc::clone(&self.fail_stop),
                    Arc::clone(&self.counters[rank]),
                    self.recv_timeout,
                    self.faults.as_ref().map(|plan| plan.lane(rank)),
                )
            })
            .collect()
    }

    /// Runs `f` on every rank and returns the results in rank order.
    ///
    /// Rank 0 runs on the calling thread, as MPI's launching process is
    /// rank 0; ranks 1..R−1 run on resident helper threads, which park
    /// on a process-wide idle stack between runs. The stack is taken
    /// last in, first out, so a caller that runs universe after universe
    /// gets the same helpers back — and with them their warm malloc
    /// arenas — every time.
    ///
    /// A panicking rank aborts the universe, so its peers stop waiting
    /// on it; once every rank has returned, the panic is re-raised on
    /// the caller with its original payload — the aborting rank's, when
    /// it panicked, even if peers panicked on the abort after it — so a
    /// failed assertion inside a rank fails the enclosing test with its
    /// own message. The helper itself survives and goes back on the
    /// stack.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Communicator) -> R + Sync,
    {
        let fail_stop = Arc::clone(&self.fail_stop);
        let mut comms = self.into_communicators();
        let rest = comms.split_off(1);
        // Every helper is in hand before any rank starts: past this
        // point nothing unwinds until each helper has reported back.
        let helpers = helpers::take(rest.len());
        let results: Vec<Mutex<Option<thread::Result<R>>>> =
            (0..=rest.len()).map(|_| Mutex::new(None)).collect();
        let f = &f;
        let rank_body = |comm: Communicator| {
            let rank = comm.rank();
            // The communicator moves into the unwinding closure, so a
            // panic drops it mid-unwind and so aborts the universe.
            let out = panic::catch_unwind(AssertUnwindSafe(move || {
                let mut comm = comm;
                f(&mut comm)
            }));
            *helpers::lock(&results[rank]) = Some(out);
        };
        let body: *const (dyn Fn(Communicator) + Sync + '_) = &rank_body;
        // SAFETY: only the pointer's lifetime is erased. `rank_body`
        // lives on this frame until the end of the function, and every
        // helper handed the pointer has finished with it once `finish`
        // returns below; nothing between `start` and `finish` unwinds,
        // since the body catches its rank's panic.
        let body = helpers::RankBody(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Communicator) + Sync + '_),
                *const (dyn Fn(Communicator) + Sync + 'static),
            >(body)
        });
        for (helper, comm) in helpers.iter().zip(rest) {
            helper.start(body, comm);
        }
        for comm in comms {
            rank_body(comm);
        }
        for helper in &helpers {
            helper.finish();
        }
        helpers::park(helpers);

        let mut joined: Vec<thread::Result<R>> = results
            .into_iter()
            .map(
                |cell| match cell.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    Some(out) => out,
                    None => unreachable!("every rank stores its result before it reports back"),
                },
            )
            .collect();
        let origin = fail_stop.origin().filter(|&r| joined[r].is_err());
        if let Some(rank) = origin.or_else(|| joined.iter().position(|r| r.is_err())) {
            if let Err(payload) = joined.swap_remove(rank) {
                panic::resume_unwind(payload);
            }
        }
        joined.into_iter().flatten().collect()
    }
}

/// The resident helper threads that run ranks 1..R−1 of every universe.
mod helpers {
    use crate::communicator::Communicator;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// The guard of `mutex`, also after a panic under it: no code that
    /// can panic runs under these locks, and what they guard is whole
    /// between statements.
    pub(super) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Type-erased pointer to a run's rank body on the caller's stack.
    ///
    /// SAFETY: [`super::Universe::run`] does not return, nor unwind,
    /// until every helper handed the pointer has reported its turn done,
    /// after its last call through it, so the pointee outlives every
    /// call despite the erased lifetime.
    #[derive(Clone, Copy)]
    pub(super) struct RankBody(pub(super) *const (dyn Fn(Communicator) + Sync));
    // SAFETY: the pointee is `Sync` and is only called, never moved.
    unsafe impl Send for RankBody {}

    /// Where a helper is in its cycle: parked (or running a rank it has
    /// taken), handed one rank of a run, or done and waiting for its
    /// caller to collect it. One cell lives per helper and is never
    /// copied, so the communicator is held inline, not boxed per run.
    #[allow(clippy::large_enum_variant)]
    enum Turn {
        Parked,
        Start(RankBody, Communicator),
        Done,
    }

    /// One resident rank thread: its turn cell, and the condition
    /// variable its caller and it signal each other through.
    pub(super) struct Helper {
        turn: Mutex<Turn>,
        changed: Condvar,
    }

    impl Helper {
        /// Hands the helper one rank of a run.
        pub(super) fn start(&self, body: RankBody, comm: Communicator) {
            *lock(&self.turn) = Turn::Start(body, comm);
            self.changed.notify_all();
        }

        /// Waits until the helper has run its rank and let go of the
        /// body, and parks it.
        pub(super) fn finish(&self) {
            let mut turn = self
                .changed
                .wait_while(lock(&self.turn), |t| !matches!(t, Turn::Done))
                .unwrap_or_else(PoisonError::into_inner);
            *turn = Turn::Parked;
        }

        /// The helper thread's loop: wait for a rank, run it, report.
        fn serve(&self) {
            let mut turn = lock(&self.turn);
            loop {
                turn = self
                    .changed
                    .wait_while(turn, |t| !matches!(t, Turn::Start(..)))
                    .unwrap_or_else(PoisonError::into_inner);
                let Turn::Start(body, comm) = std::mem::replace(&mut *turn, Turn::Parked) else {
                    continue;
                };
                drop(turn);
                // SAFETY: the caller that started this turn blocks in
                // `finish` until the `Done` below, so the body is alive.
                unsafe { (*body.0)(comm) };
                turn = lock(&self.turn);
                *turn = Turn::Done;
                self.changed.notify_all();
            }
        }
    }

    /// The process-wide idle stack; its top is the last helper parked.
    static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

    /// `count` helpers: the top of the idle stack first, then new ones.
    pub(super) fn take(count: usize) -> Vec<Arc<Helper>> {
        let mut helpers: Vec<Arc<Helper>> = {
            let mut idle = lock(&IDLE);
            let from = idle.len().saturating_sub(count);
            idle.drain(from..).rev().collect()
        };
        while helpers.len() < count {
            let helper = Arc::new(Helper {
                turn: Mutex::new(Turn::Parked),
                changed: Condvar::new(),
            });
            let resident = Arc::clone(&helper);
            let spawned = std::thread::Builder::new()
                .name("qse-rank".into())
                .spawn(move || resident.serve());
            #[expect(
                clippy::panic,
                reason = "`run` has no error path, and a universe short of a rank cannot \
                          run: a failed spawn panics, as `std::thread::spawn` does"
            )]
            if let Err(e) = spawned {
                park(helpers);
                panic!("cannot start a rank thread: {e}");
            }
            helpers.push(helper);
        }
        helpers
    }

    /// Puts `helpers` back in the order `take` handed them out, so the
    /// next `take` of the same count returns them rank for rank.
    pub(super) fn park(helpers: Vec<Arc<Helper>>) {
        lock(&IDLE).extend(helpers.into_iter().rev());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::new(1).run(|c| {
            c.barrier();
            c.rank() + c.size()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let out = Universe::new(8).run(|c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::new(0);
    }

    #[test]
    fn into_communicators_yields_rank_order() {
        let comms = Universe::new(3).into_communicators();
        let ranks: Vec<usize> = comms.iter().map(|c| c.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(comms.iter().all(|c| c.size() == 3));
    }

    #[test]
    fn ring_pass_around() {
        // Each rank sends its id to the next; receives from the previous.
        let n = 6;
        let out = Universe::new(n).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, &[c.rank() as u8]).unwrap();
            let got = c.recv(prev, 0).unwrap();
            got[0] as usize
        });
        for (rank, &got) in out.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        Universe::new(4).run(|c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all four increments.
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_fails_run() {
        // The original payload must survive the join (resume_unwind),
        // even though rank 0 — joined first — panics too, on the abort.
        Universe::new(2).run(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            c.recv(1, 0).unwrap();
        });
    }
}
