//! Unbounded MPMC mailbox channels on `std::sync::{Mutex, Condvar}`.
//!
//! Replaces `crossbeam::channel` for the thread-rank substrate. Each
//! rank owns one [`Receiver`]; every rank holds a cloned [`Sender`] for
//! every mailbox. Sends never block (unbounded queue); receives block
//! with a deadline so a deadlocked exchange fails loudly instead of
//! hanging the test suite.
//!
//! A poisoned lock is recovered, not propagated: no critical section
//! here runs user code, so the queue is never left half-updated.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Saturating deadline arithmetic: `now + timeout` would panic inside
/// `Instant`'s `Add` impl for huge durations (`Duration::MAX` overflows
/// the platform clock representation), so saturate to a far-future
/// deadline instead — a year out is indistinguishable from forever for a
/// blocking receive.
pub fn deadline_after(now: Instant, timeout: Duration) -> Instant {
    const FAR: Duration = Duration::from_secs(365 * 24 * 60 * 60);
    now.checked_add(timeout)
        .or_else(|| now.checked_add(FAR))
        .unwrap_or(now)
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    /// Live `Sender` clones; 0 → the channel can never produce again.
    senders: usize,
    /// Set when the `Receiver` is dropped; sends start failing.
    receiver_gone: bool,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Deadline passed with no message.
    Timeout,
    /// Every sender dropped and the queue is drained.
    Disconnected,
}

/// The sending half; clone freely across threads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; owned by exactly one thread.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded mailbox channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receiver_gone: false,
        }),
        available: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value`; never blocks. Fails only when the receiver has
    /// been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        if inner.receiver_gone {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.shared.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Wake a blocked receiver so it can observe disconnection.
            self.shared.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = deadline_after(Instant::now(), timeout);
        let mut inner = self.shared.lock();
        loop {
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, wait) = self
                .shared
                .available
                .wait_timeout(inner, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if wait.timed_out() && inner.queue.is_empty() {
                return Err(if inner.senders == 0 {
                    RecvTimeoutError::Disconnected
                } else {
                    RecvTimeoutError::Timeout
                });
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_gone = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_then_recv() {
        let (tx, rx) = unbounded();
        tx.send(41u32).unwrap();
        tx.send(42).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(41));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(42));
    }

    #[test]
    fn recv_times_out_when_empty() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn disconnect_reported_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(1));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_once_receiver_dropped() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7u8), Err(SendError(7)));
    }

    #[test]
    fn clones_keep_channel_alive() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(9));
        drop(tx2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cross_thread_wakeup() {
        let (tx, rx) = unbounded();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tx.send(123u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(123));
    }

    #[test]
    fn deadline_after_saturates_instead_of_panicking() {
        let now = Instant::now();
        // `now + Duration::MAX` panics; the helper must not.
        let far = deadline_after(now, Duration::MAX);
        assert!(far > now);
        // Ordinary timeouts are exact.
        let soon = deadline_after(now, Duration::from_millis(5));
        assert_eq!(soon, now + Duration::from_millis(5));
    }

    #[test]
    fn recv_with_huge_timeout_still_receives() {
        // Regression: recv_timeout(Duration::MAX) used to panic computing
        // the deadline before ever waiting.
        let (tx, rx) = unbounded();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(77u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(77));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = unbounded();
        let n_threads = 8;
        let per = 500;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        tx.send(t * per + i).unwrap();
                    }
                });
            }
        });
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv_timeout(Duration::from_secs(1)) {
            got.push(v);
        }
        got.sort_unstable();
        let want: Vec<usize> = (0..n_threads * per).collect();
        assert_eq!(got, want);
    }
}
