//! Pluggable scheduling hook for concurrency checking.
//!
//! The mailbox channels and the worker pool call [`sync_point`] at every
//! operation where thread interleaving matters. In normal operation the
//! hook is a single relaxed atomic load that branches away — effectively
//! free. Under `qse-check`'s schedule explorer a [`ScheduleHook`] is
//! installed that serializes *participant* threads onto a controlled
//! scheduler, letting the explorer permute thread wakeups deterministically
//! (a mini-loom: exhaustive for small thread counts, seeded-random above).
//!
//! Threads that have not registered with the installed hook (for example
//! the resident workers of [`crate::parallel`]) are non-participants: every
//! entry point here is a no-op for them, so instrumented code behaves
//! identically whether or not a hook is installed.
//!
//! The contract between the mailbox and a hook:
//!
//! * [`sync_point`] — a scheduling decision point; the hook may suspend the
//!   calling thread and run another participant first. Must be called
//!   *without* holding the mailbox lock.
//! * [`participant_hook`] + [`ScheduleHook::wait_channel`] — replaces the
//!   condvar wait: the receiver drops its queue lock and blocks inside the
//!   scheduler until a send notifies the channel (`true`) or the scheduler
//!   decides no runnable thread can ever wake it, modelling a timeout
//!   (`false`).
//! * [`notify_channel`] — mirrors `Condvar::notify_one`/`notify_all`; the
//!   hook chooses *which* blocked waiter wakes, which is exactly the
//!   nondeterminism the explorer enumerates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The instrumented operation at a [`sync_point`], for diagnostics and for
/// hooks that want to filter decision points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// About to enqueue into mailbox channel `chan`.
    MailboxSend {
        /// Channel id from [`new_channel_id`].
        chan: u64,
    },
    /// About to dequeue (blocking) from mailbox channel `chan`.
    MailboxRecv {
        /// Channel id from [`new_channel_id`].
        chan: u64,
    },
    /// About to submit a job to the worker pool.
    PoolSubmit,
    /// About to execute one work item drained from a pool job.
    PoolTask,
    /// A user-labelled decision point (test fixtures insert these between
    /// the load and store of a deliberately racy update, say).
    User(&'static str),
}

/// A controlled scheduler installed by a concurrency checker.
///
/// Implementations serialize registered participant threads: at most one
/// runs at a time, and every method below is a point where the scheduler
/// may switch which one.
pub trait ScheduleHook: Send + Sync {
    /// True when the *calling thread* is managed by this hook. All other
    /// entry points are only invoked for participants (except
    /// [`Self::notify_channel`], which any thread may trigger).
    fn is_participant(&self) -> bool;

    /// A scheduling decision point reached by a participant.
    fn sync_point(&self, op: SyncOp);

    /// Blocks the participant until channel `chan` is notified (`true`) or
    /// the scheduler models a timeout because no runnable thread remains
    /// (`false`). Callers must not hold locks the notifier needs.
    fn wait_channel(&self, chan: u64) -> bool;

    /// A value became available on channel `chan`; wake one blocked waiter
    /// (`all == false`) or all of them (`all == true`). May be invoked from
    /// non-participant threads.
    fn notify_channel(&self, chan: u64, all: bool);
}

/// Fast-path flag: true only while a hook is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static RwLock<Option<Arc<dyn ScheduleHook>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn ScheduleHook>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Installs `hook` process-wide. Checkers must serialize explorations
/// themselves; installing while another hook is active replaces it.
pub fn install(hook: Arc<dyn ScheduleHook>) {
    let mut guard = slot().write().unwrap_or_else(|e| e.into_inner());
    *guard = Some(hook);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the installed hook; instrumentation reverts to no-ops.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    let mut guard = slot().write().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

fn current_hook() -> Option<Arc<dyn ScheduleHook>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// The installed hook, if any, *and* the calling thread participates in it.
/// Instrumented blocking paths branch on this to decide between the real
/// condvar wait and the modelled [`ScheduleHook::wait_channel`].
#[inline]
pub fn participant_hook() -> Option<Arc<dyn ScheduleHook>> {
    current_hook().filter(|h| h.is_participant())
}

/// A scheduling decision point. No-op unless a hook is installed and the
/// calling thread participates in it.
#[inline]
pub fn sync_point(op: SyncOp) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(hook) = participant_hook() {
        hook.sync_point(op);
    }
}

/// Reports a channel notification to the hook (from any thread). No-op
/// when no hook is installed.
#[inline]
pub fn notify_channel(chan: u64, all: bool) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(hook) = current_hook() {
        hook.notify_channel(chan, all);
    }
}

/// Allocates a process-unique channel id for [`SyncOp`] reporting.
pub fn new_channel_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn channel_ids_are_unique() {
        let a = new_channel_id();
        let b = new_channel_id();
        assert_ne!(a, b);
    }

    #[test]
    fn sync_point_is_noop_without_hook() {
        // Must not panic, block, or require any setup.
        sync_point(SyncOp::User("no hook"));
        notify_channel(0, false);
        assert!(participant_hook().is_none());
    }

    struct CountingHook {
        participant: bool,
        points: AtomicUsize,
    }

    impl ScheduleHook for CountingHook {
        fn is_participant(&self) -> bool {
            self.participant
        }
        fn sync_point(&self, _op: SyncOp) {
            self.points.fetch_add(1, Ordering::SeqCst);
        }
        fn wait_channel(&self, _chan: u64) -> bool {
            false
        }
        fn notify_channel(&self, _chan: u64, _all: bool) {}
    }

    #[test]
    fn non_participant_threads_skip_the_hook() {
        // Serialize against other tests that might install hooks: this is
        // the only test in this binary that installs one.
        let hook = Arc::new(CountingHook {
            participant: false,
            points: AtomicUsize::new(0),
        });
        install(hook.clone());
        sync_point(SyncOp::PoolSubmit);
        assert_eq!(hook.points.load(Ordering::SeqCst), 0);
        uninstall();
        sync_point(SyncOp::PoolSubmit);
        assert_eq!(hook.points.load(Ordering::SeqCst), 0);
    }
}
