//! The fail-stop universe: one abort cell and a barrier that watches it.
//!
//! MPI's default error handler is fail-stop: one rank's error aborts the
//! job, and no runtime heuristic guesses at liveness. Here the first rank
//! that fails — a transport error leaving its communicator, or a panic
//! unwinding through it — records `{by, cause}` in the universe's
//! `FailStop` cell. Every other rank then learns of it wherever it is:
//! a blocked receive is woken by one wake envelope in its mailbox (the
//! communicator pushes it), a rank parked at the barrier by the condvar,
//! and every later call finds the cell set on entry and returns
//! [`CommError::Aborted`]. Deadlock freedom is not watched at run time at
//! all: execution plans are proved deadlock-free before a byte moves.

use crate::error::CommError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Universe-wide fail-stop state, shared by every communicator.
pub(crate) struct FailStop {
    size: usize,
    /// Set once the cell is written: the lock-free entry check. Stored
    /// with `Release` after the write, loaded with `Acquire`, so a rank
    /// that sees it set finds the cell written.
    aborted: AtomicBool,
    state: Mutex<State>,
    released: Condvar,
}

struct State {
    /// The abort cell: the failing rank and its error (`None`: it panicked).
    abort: Option<(usize, Option<CommError>)>,
    /// Ranks parked at the current barrier generation.
    arrived: usize,
    generation: u64,
}

impl FailStop {
    pub(crate) fn new(size: usize) -> Self {
        FailStop {
            size,
            aborted: AtomicBool::new(false),
            state: Mutex::new(State {
                abort: None,
                arrived: 0,
                generation: 0,
            }),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No code that can panic runs under this lock.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes the cell unless an earlier failure already did; returns
    /// whether this call wrote it. Releases every rank at the barrier.
    pub(crate) fn abort(&self, by: usize, cause: Option<CommError>) -> bool {
        let mut state = self.lock();
        if state.abort.is_some() {
            return false;
        }
        state.abort = Some((by, cause));
        self.aborted.store(true, Ordering::Release);
        drop(state);
        self.released.notify_all();
        true
    }

    /// The abort as every rank reports it, once the universe has aborted.
    pub(crate) fn aborted(&self) -> Option<CommError> {
        if !self.aborted.load(Ordering::Acquire) {
            return None;
        }
        let (by, cause) = self.lock().abort.clone()?;
        Some(CommError::Aborted {
            by,
            cause: cause.map(Box::new),
        })
    }

    /// Ranks parked at the barrier right now.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.lock().arrived
    }

    /// The rank that aborted the universe, if one did.
    pub(crate) fn origin(&self) -> Option<usize> {
        self.lock().abort.as_ref().map(|(by, _)| *by)
    }

    /// Generation barrier: returns once all `size` ranks have arrived, or
    /// as soon as the universe aborts.
    pub(crate) fn barrier(&self) {
        let mut state = self.lock();
        if state.abort.is_some() {
            return;
        }
        state.arrived += 1;
        if state.arrived == self.size {
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            drop(state);
            self.released.notify_all();
            return;
        }
        let generation = state.generation;
        while state.generation == generation && state.abort.is_none() {
            state = self.released.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}
