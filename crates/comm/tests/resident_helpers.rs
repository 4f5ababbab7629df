//! The helper threads `Universe::run` keeps between runs.
//!
//! One test in a binary of its own: the idle stack is process-wide, so a
//! test running beside it would take helpers off the stack between the
//! runs compared here.

use qse_comm::Universe;
use std::collections::HashSet;
use std::panic;
use std::sync::{Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// The thread each rank of a `ranks`-rank run ran on, in rank order.
fn rank_threads(ranks: usize) -> Vec<ThreadId> {
    Universe::new(ranks).run(|c| {
        c.barrier();
        thread::current().id()
    })
}

/// A meeting point for `parties` threads that fails instead of hanging
/// when they never all arrive.
struct Rendezvous {
    arrived: Mutex<usize>,
    all_here: Condvar,
    parties: usize,
}

impl Rendezvous {
    fn meet(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_here.notify_all();
        let (arrived, wait) = self
            .all_here
            .wait_timeout_while(arrived, Duration::from_secs(60), |a| *a < self.parties)
            .unwrap();
        drop(arrived);
        assert!(
            !wait.timed_out(),
            "the ranks of the two runs never overlapped"
        );
    }
}

#[test]
fn helpers_outlive_their_runs() {
    let caller = thread::current().id();

    // Rank 0 runs on the caller; the others on three distinct helpers.
    let first = rank_threads(4);
    assert_eq!(first[0], caller, "rank 0 runs on the calling thread");
    assert_eq!(first.iter().collect::<HashSet<_>>().len(), 4);

    // A second run of the same size gets the same helpers, rank for rank.
    assert_eq!(rank_threads(4), first);

    // A helper rank's panic reaches the caller with its own payload...
    let payload = panic::catch_unwind(|| {
        Universe::new(2).run(|c| {
            if c.rank() == 1 {
                panic!("helper rank down");
            }
            c.recv(1, 0).map(|_| ())
        })
    })
    .expect_err("the run re-raises the rank's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper rank down"));
    // ... and the helper that panicked serves the next run.
    assert_eq!(rank_threads(2), first[..2]);

    // Two runs at once from two threads, as two serve workers make: every
    // rank of both meets at one rendezvous, so the runs overlap, and
    // each must hold helpers of its own.
    let ranks = 4;
    let rendezvous = Rendezvous {
        arrived: Mutex::new(0),
        all_here: Condvar::new(),
        parties: 2 * ranks,
    };
    let (a, b) = thread::scope(|s| {
        let run = || {
            let me = thread::current().id();
            let ids = Universe::new(ranks).run(|_| {
                rendezvous.meet();
                thread::current().id()
            });
            (me, ids)
        };
        let a = s.spawn(run);
        let b = s.spawn(run);
        (a.join().unwrap(), b.join().unwrap())
    });
    for (caller, ids) in [&a, &b] {
        assert_eq!(ids[0], *caller, "rank 0 runs on its own caller");
    }
    let all: HashSet<ThreadId> = a.1.iter().chain(&b.1).copied().collect();
    assert_eq!(all.len(), 2 * ranks, "the two runs shared a thread");
}
