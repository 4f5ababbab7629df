//! Universe construction: spins up the ranks and hands out communicators.

use crate::communicator::Communicator;
use crate::failstop::FailStop;
use crate::faults::{FaultConfig, FaultPlan};
use crate::message::Envelope;
use crate::stats::{SharedCounters, TrafficCounters};
use crate::Result;
use qse_util::mailbox::{unbounded, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Default receive deadline; generous enough for debug-build statevector
/// exchanges, short enough that a protocol bug in hand-written rank code
/// (a one-sided receive) fails rather than hangs.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Receive deadline used by [`Universe::new`]: `QSE_RECV_TIMEOUT_SECS`
/// from the environment if set to a positive integer, else
/// [`DEFAULT_RECV_TIMEOUT`]. Read once per process, so CI can lower the
/// ceiling every timed-out receive pays.
pub fn default_recv_timeout() -> Duration {
    static T: OnceLock<Duration> = OnceLock::new();
    *T.get_or_init(|| recv_timeout_from_env(std::env::var("QSE_RECV_TIMEOUT_SECS").ok().as_deref()))
}

/// Pure parsing half of [`default_recv_timeout`], split out for tests
/// (the env var itself is latched once per process).
pub fn recv_timeout_from_env(value: Option<&str>) -> Duration {
    value
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&secs| secs >= 1)
        .map(Duration::from_secs)
        .unwrap_or(DEFAULT_RECV_TIMEOUT)
}

/// A fixed-size set of ranks with fully connected mailboxes.
///
/// The universe is the analogue of `MPI_COMM_WORLD` after `MPI_Init`: it
/// owns one mailbox per rank and the shared fail-stop state (abort cell
/// and barrier, see [`crate::failstop`]). Consume it either with
/// [`Universe::run`] (spawn one thread per rank, run a closure, collect
/// results in rank order) or [`Universe::into_communicators`] for manual
/// thread management.
pub struct Universe {
    senders: Arc<Vec<Sender<Envelope>>>,
    receivers: Vec<Receiver<Envelope>>,
    fail_stop: Arc<FailStop>,
    counters: Arc<Vec<SharedCounters>>,
    recv_timeout: Duration,
    faults: Option<FaultPlan>,
}

impl Universe {
    /// Creates a universe of `size` ranks (size ≥ 1) with the
    /// [`default_recv_timeout`] receive deadline.
    pub fn new(size: usize) -> Self {
        Self::with_timeout(size, default_recv_timeout())
    }

    /// Creates a universe whose communicators run under the seeded,
    /// deterministic fault plan described by `config` — every rank's
    /// fault stream replays exactly for a fixed seed. Fails on an
    /// invalid configuration (probability outside `[0, 1]`).
    pub fn with_faults(size: usize, config: FaultConfig) -> Result<Self> {
        Self::with_timeout_and_faults(size, default_recv_timeout(), config)
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
            counters: Arc::new(counters),
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
                    Arc::clone(&self.counters),
                    self.recv_timeout,
                    self.faults.as_ref().map(|plan| plan.lane(rank)),
                )
            })
            .collect()
    }

    /// Runs `f` on every rank in its own thread and returns the results in
    /// rank order. A panicking rank aborts the universe, so its peers stop
    /// waiting on it; the panic is then re-raised on the caller with its
    /// original payload — the aborting rank's, when it panicked, even if
    /// peers panicked on the abort after it — so a failed assertion
    /// inside a rank fails the enclosing test with its own message.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Communicator) -> R + Sync,
    {
        let fail_stop = Arc::clone(&self.fail_stop);
        let comms = self.into_communicators();
        let f = &f;
        let mut joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| scope.spawn(move || f(&mut comm)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let origin = fail_stop.origin().filter(|&r| joined[r].is_err());
        if let Some(rank) = origin.or_else(|| joined.iter().position(|r| r.is_err())) {
            if let Err(payload) = joined.swap_remove(rank) {
                std::panic::resume_unwind(payload);
            }
        }
        joined.into_iter().flatten().collect()
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

    #[test]
    fn recv_timeout_env_parsing() {
        assert_eq!(recv_timeout_from_env(None), DEFAULT_RECV_TIMEOUT);
        assert_eq!(recv_timeout_from_env(Some("2")), Duration::from_secs(2));
        assert_eq!(recv_timeout_from_env(Some(" 5 ")), Duration::from_secs(5));
        assert_eq!(recv_timeout_from_env(Some("0")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(recv_timeout_from_env(Some("junk")), DEFAULT_RECV_TIMEOUT);
        assert!(default_recv_timeout() >= Duration::from_secs(1));
    }
}
