//! Persistent-pool data parallelism for the statevector kernels.
//!
//! Exposes the one shape the kernels actually need: a list of independent
//! work items (disjoint mutable chunk views), drained through a shared
//! cursor. Work items are coarse (kernels batch ≥ 4096 amplitudes per
//! item), so the per-item `Mutex` on the cursor is noise next to the
//! memory sweep it dispatches.
//!
//! Dispatch runs on a process-wide *resident* worker pool rather than
//! spawning scoped threads per call: statevector simulation issues one
//! parallel sweep per gate, and at thousands of gates per circuit the
//! spawn+join cost of a fresh thread set dominated small sweeps. Workers
//! are created once (lazily, on the first parallel call), park on a
//! condvar between jobs, and are woken by a notify — per-gate dispatch
//! cost drops from thread creation to a wakeup.
//!
//! Invariants the pool preserves from the scoped-thread implementation:
//!
//! * the caller participates in draining its own job, so forward progress
//!   never depends on a worker being free (concurrent callers — e.g. the
//!   rank threads of a `Universe` — each drain their own job);
//! * panics in the work closure propagate to the submitting caller with
//!   their original payload, after every worker has left the job;
//! * `QSE_THREADS=1` (or a single-item list) short-circuits to a plain
//!   sequential loop and never touches the pool;
//! * nested `parallel_for_each` calls are safe: a pool worker that
//!   re-enters runs the nested job inline (sequentially), so workers
//!   never block on other workers and cannot deadlock.
//!
//! A poisoned lock is recovered, not propagated: every critical section
//! here only moves items, counters and payloads (the work closure runs
//! outside every lock), so a panic cannot leave one half-updated.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Worker-thread count: `QSE_THREADS` if set (≥ 1), else the machine's
/// available parallelism. Read once per process.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("QSE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Type-erased pointer to a caller-stack drain closure.
///
/// SAFETY: the submitting caller blocks in [`run_job`] until the job is
/// retired and no worker is inside the closure, so the pointee outlives
/// every dereference despite the erased lifetime.
struct DrainPtr(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync` and is only called, never moved.
unsafe impl Send for DrainPtr {}
// SAFETY: same argument as `Send` — shared references only ever call
// the `Sync` pointee.
unsafe impl Sync for DrainPtr {}

/// Mutable half of a job, guarded by `Job::state`.
struct JobState {
    /// Workers currently inside the drain closure.
    active: usize,
    /// First panic payload observed in a worker.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One submitted parallel call.
struct Job {
    /// Generation counter value — identifies the job in the queue.
    id: u64,
    drain: DrainPtr,
    state: Mutex<JobState>,
    /// Signalled whenever `active` drops to zero.
    done: Condvar,
}

struct PoolQueue {
    /// Jobs whose cursors may still hold items. Workers always join the
    /// front job; a job is removed as soon as any participant observes
    /// its cursor exhausted.
    jobs: Vec<Arc<Job>>,
    /// Monotonic job-id generator (the pool's epoch counter).
    next_id: u64,
}

struct Pool {
    queue: Mutex<PoolQueue>,
    /// Signalled when a job is pushed; workers park here between jobs.
    work: Condvar,
}

thread_local! {
    /// True on pool worker threads: a nested parallel call from inside a
    /// work closure must run inline rather than wait on the pool.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Stable per-thread slot for NUMA-shaped affinity: pool worker `i`
    /// is slot `i + 1` for the life of the process; every non-pool
    /// thread (including each job's caller) is slot 0. Affine dispatch
    /// uses the slot to route a thread back to the same item subrange
    /// sweep after sweep, so pages stay on the node that first touched
    /// them.
    static WORKER_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The calling thread's stable affinity slot in `0..num_threads()`.
pub fn worker_slot() -> usize {
    WORKER_SLOT.with(|s| s.get())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool, created on first use with `num_threads() − 1`
/// resident workers (the caller of each job is the final participant).
/// A worker the OS refuses to spawn is left out: every job's caller
/// drains it to the end itself, so its items still run exactly once.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(PoolQueue {
                jobs: Vec::new(),
                next_id: 0,
            }),
            work: Condvar::new(),
        }));
        for i in 0..num_threads().saturating_sub(1) {
            let _ = std::thread::Builder::new()
                .name(format!("qse-pool-{i}"))
                .spawn(move || {
                    WORKER_SLOT.with(|s| s.set(i + 1));
                    worker_loop(pool)
                });
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool) {
    IN_POOL_WORKER.with(|f| f.set(true));
    let mut q = lock(&pool.queue);
    loop {
        let Some(job) = q.jobs.first().cloned() else {
            q = pool.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        // Join while holding the queue lock: once a job leaves the queue,
        // its `active` count can only decrease, which is what lets the
        // caller's completion wait conclude safely.
        lock(&job.state).active += 1;
        drop(q);

        // SAFETY: the job was still queued under the lock above, so the
        // submitting caller is blocked in `run_job` and the pointee is
        // alive for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.drain.0 })()));

        // The drain returned: its cursor is exhausted (or it panicked and
        // the rest of the items belong to the remaining participants).
        // Retire the job so no new worker joins, then leave it.
        let mut queue = lock(&pool.queue);
        queue.jobs.retain(|j| j.id != job.id);
        let mut st = lock(&job.state);
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            job.done.notify_all();
        }
        drop(st);
        q = queue;
    }
}

/// Submits `drain` to the pool, participates in it on the calling thread,
/// and returns once every participant has left the closure. Worker panics
/// (or the caller's own) resume on the calling thread with their original
/// payload.
fn run_job(drain: &(dyn Fn() + Sync)) {
    let pool = pool();
    let job = {
        let mut q = lock(&pool.queue);
        q.next_id += 1;
        let raw: *const (dyn Fn() + Sync) = drain;
        let job = Arc::new(Job {
            id: q.next_id,
            // SAFETY: erases the closure's lifetime; this function does
            // not return until no worker can touch the pointer again.
            drain: DrainPtr(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    raw,
                )
            }),
            state: Mutex::new(JobState {
                active: 0,
                panic: None,
            }),
            done: Condvar::new(),
        });
        q.jobs.push(job.clone());
        job
    };
    pool.work.notify_all();

    // Participate: the caller is always one of the drain threads, so the
    // job completes even if every resident worker is busy elsewhere.
    let caller_result = catch_unwind(AssertUnwindSafe(drain));

    // Retire the job (idempotent — a worker may have done it already),
    // then wait for stragglers still inside the closure.
    lock(&pool.queue).jobs.retain(|j| j.id != job.id);
    let mut st = lock(&job.state);
    while st.active > 0 {
        st = job.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    let worker_panic = st.panic.take();
    drop(st);

    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Runs `f` over every item, fanning out to the resident worker pool.
///
/// Items are handed out through a shared cursor, so a slow item does not
/// stall the rest of the list (dynamic load balancing, like Rayon's
/// work stealing at chunk granularity). Falls back to a sequential loop
/// for a single item, a single-thread configuration, or when called from
/// inside a pool worker (nested parallelism).
///
/// Panics in `f` propagate to the caller after all participants stop.
pub fn parallel_for_each<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    for_each_with_threads(num_threads(), items, f)
}

/// [`parallel_for_each`] with an explicit thread budget (testable without
/// mutating `QSE_THREADS`, which is latched once per process).
fn for_each_with_threads<T: Send>(n_threads: usize, items: Vec<T>, f: impl Fn(T) + Sync) {
    let n_threads = n_threads.min(items.len());
    if n_threads <= 1 || IN_POOL_WORKER.with(|w| w.get()) {
        for item in items {
            f(item);
        }
        return;
    }
    let queue = Mutex::new(items.into_iter());
    let drain = || loop {
        // Take the lock only to pop; run the item outside it.
        let item = lock(&queue).next();
        match item {
            Some(it) => f(it),
            None => break,
        }
    };
    run_job(&drain);
}

/// The contiguous item subrange owned by `slot` when `len` items are
/// statically partitioned across `slots` affinity slots: the first
/// `len % slots` slots take one extra item. Purely arithmetic, so the
/// owner of an item never depends on timing — the same slot touches the
/// same amplitude range on every sweep of a same-length list.
pub fn affine_range(len: usize, slot: usize, slots: usize) -> std::ops::Range<usize> {
    debug_assert!(slots >= 1 && slot < slots);
    let base = len / slots;
    let rem = len % slots;
    let start = slot * base + slot.min(rem);
    start..start + base + usize::from(slot < rem)
}

/// Runs `f` over every item with stable worker↔item affinity.
///
/// Each participating thread first drains the contiguous subrange that
/// [`affine_range`] assigns to its [`worker_slot`], in index order, then
/// wraps around and steals from slower participants' leftovers so a
/// stalled thread never strands work. Because amplitude pages are
/// first-touched through this same static partition, the common case
/// (no stealing) keeps every worker sweeping the pages it faulted in.
///
/// Results are bit-for-bit identical to [`parallel_for_each`] for
/// independent items regardless of `QSE_THREADS` — only the visit
/// *schedule* changes, never the per-item computation. The sequential
/// fallbacks (single item, one thread, nested call) match
/// [`parallel_for_each`] exactly.
pub fn parallel_for_each_affine<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    let n_threads = num_threads().min(items.len());
    if n_threads <= 1 || IN_POOL_WORKER.with(|w| w.get()) {
        for item in items {
            f(item);
        }
        return;
    }
    let len = items.len();
    let slots = num_threads();
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let cells = &cells;
    let drain = move || {
        let slot = worker_slot().min(slots - 1);
        let own = affine_range(len, slot, slots);
        let (start, end) = (own.start, own.end);
        // Own range first (index order), then wrap around the rest.
        let order = (start..end).chain((end..len).chain(0..start));
        for idx in order {
            let taken = lock(&cells[idx]).take();
            if let Some(item) = taken {
                f(item);
            }
        }
    };
    run_job(&drain);
}

/// Maps every item to an `f64` and returns the sum.
///
/// Summation order is deterministic (partial sums are combined in item
/// order), so repeated runs on the same data agree bit-for-bit.
pub fn parallel_map_sum<T: Send>(items: Vec<T>, f: impl Fn(T) -> f64 + Sync) -> f64 {
    let n = items.len();
    let slots: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let slots_ref = &slots;
    let f = &f;
    parallel_for_each(indexed, move |(i, item)| {
        let sum = f(item);
        *lock(&slots_ref[i]) = sum;
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .sum()
}

/// Appends `n` elements to `out`, computed over the pool in work items
/// of `chunk` elements (the last one shorter): the item covering
/// elements `[a, b)` of the `n` writes the elements of `f(a..b)` straight
/// into `out`'s spare capacity, so the new elements are written once —
/// no fill pass before them, no copy after. One item runs sequentially
/// on the caller, as in [`parallel_for_each`].
///
/// # Panics
/// Panics when `chunk` is zero, or when `f(a..b)` yields other than
/// `b − a` elements; `out` then keeps its length and the elements
/// written so far are leaked, never read.
pub fn parallel_extend<T, I>(
    out: &mut Vec<T>,
    n: usize,
    chunk: usize,
    f: impl Fn(std::ops::Range<usize>) -> I + Sync,
) where
    T: Send,
    I: IntoIterator<Item = T>,
{
    assert!(chunk > 0, "work items must hold at least one element");
    out.reserve(n);
    let len = out.len();
    let items: Vec<(usize, &mut [std::mem::MaybeUninit<T>])> = out.spare_capacity_mut()[..n]
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, slots)| (i * chunk, slots))
        .collect();
    parallel_for_each(items, |(at, slots)| {
        let (mut filled, want) = (0, slots.len());
        let mut values = f(at..at + want).into_iter();
        for (slot, value) in slots.iter_mut().zip(&mut values) {
            slot.write(value);
            filled += 1;
        }
        assert!(
            filled == want && values.next().is_none(),
            "the item yielded other than its {want} elements"
        );
    });
    // SAFETY: `parallel_for_each` returned, so every item ran to the end
    // without panicking (a panic resumes on this thread before this
    // line): each wrote all of its slots, and the items tile
    // `len..len + n` of the capacity reserved above.
    unsafe { out.set_len(len + n) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn visits_every_item_exactly_once() {
        let n = 1000;
        let flags: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        parallel_for_each(items, |i| {
            flags[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn mutates_disjoint_chunks() {
        let mut data = vec![0u64; 4096];
        let chunks: Vec<(usize, &mut [u64])> = data.chunks_mut(64).enumerate().collect();
        parallel_for_each(chunks, |(ci, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 64 + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn map_sum_is_exact_and_order_stable() {
        let items: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let total = parallel_map_sum(items.clone(), |x| x);
        assert_eq!(total, 5050.0);
        let again = parallel_map_sum(items, |x| x);
        assert_eq!(total, again);
    }

    #[test]
    fn empty_and_single_item_work() {
        parallel_for_each(Vec::<u32>::new(), |_| panic!("no items"));
        let hit = AtomicUsize::new(0);
        parallel_for_each(vec![7u32], |v| {
            assert_eq!(v, 7);
            hit.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert_eq!(parallel_map_sum(Vec::<f64>::new(), |x| x), 0.0);
    }

    #[test]
    fn extend_appends_every_element_in_order() {
        let cases = [
            (0usize, 4usize),
            (1, 4),
            (7, 3),
            (4096, 64),
            (1000, 1000),
            (5, 100),
        ];
        for (n, chunk) in cases {
            let mut out = vec![u64::MAX; 3];
            parallel_extend(&mut out, n, chunk, |r| r.map(|i| i as u64));
            assert_eq!(out.len(), 3 + n);
            assert!(out[..3].iter().all(|&v| v == u64::MAX));
            let appended = out[3..].iter().enumerate().all(|(i, &v)| v == i as u64);
            assert!(appended, "n {n} chunk {chunk}");
        }
    }

    #[test]
    fn extend_with_a_miscounted_item_panics_and_appends_nothing() {
        let mut out = vec![1u32];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_extend(&mut out, 64, 8, |r| {
                let short = usize::from(r.start == 32);
                r.skip(short).map(|i| i as u32)
            });
        }));
        assert!(caught.is_err());
        assert_eq!(out, [1]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_extend(&mut out, 64, 8, |r| (r.start..r.end + 1).map(|i| i as u32));
        }));
        assert!(caught.is_err());
        assert_eq!(out, [1]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn affine_ranges_tile_the_items_exactly() {
        for len in [0usize, 1, 5, 7, 8, 100, 4097] {
            for slots in [1usize, 2, 3, 4, 7, 16] {
                let mut covered = Vec::new();
                for s in 0..slots {
                    covered.extend(affine_range(len, s, slots));
                }
                assert_eq!(
                    covered,
                    (0..len).collect::<Vec<_>>(),
                    "len={len} slots={slots}"
                );
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = (0..slots)
                    .map(|s| affine_range(len, s, slots).len())
                    .collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "len={len} slots={slots} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn affine_visits_every_item_exactly_once() {
        let n = 1000;
        let flags: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_each_affine((0..n).collect::<Vec<usize>>(), |i| {
            flags[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn affine_mutates_disjoint_chunks() {
        let mut data = vec![0u64; 4096];
        let chunks: Vec<(usize, &mut [u64])> = data.chunks_mut(64).enumerate().collect();
        parallel_for_each_affine(chunks, |(ci, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 64 + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn affine_steals_leftovers_from_slow_slots() {
        // One deliberately slow item must not strand the rest of its
        // slot's range: other participants wrap around and finish it.
        let n = num_threads() * 8;
        let count = AtomicUsize::new(0);
        parallel_for_each_affine((0..n).collect::<Vec<usize>>(), |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), n);
    }

    #[test]
    fn worker_slots_are_stable_across_jobs() {
        // A thread's slot never changes between jobs, and all slots are
        // inside 0..num_threads().
        let seen: Mutex<std::collections::HashMap<ThreadId, usize>> =
            Mutex::new(std::collections::HashMap::new());
        for _ in 0..4 {
            parallel_for_each_affine((0..num_threads() * 4).collect::<Vec<usize>>(), |_| {
                let slot = worker_slot();
                assert!(slot < num_threads());
                let mut map = seen.lock().unwrap();
                let prior = map.insert(std::thread::current().id(), slot);
                if let Some(p) = prior {
                    assert_eq!(p, slot, "slot changed between jobs");
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            });
        }
    }

    #[test]
    #[should_panic(expected = "affine panic 7")]
    fn affine_panic_propagates() {
        parallel_for_each_affine((0..256usize).collect::<Vec<_>>(), |i| {
            if i == 201 {
                panic!("affine panic {}", 7);
            }
        });
    }

    #[test]
    #[should_panic(expected = "deliberate kernel panic 42")]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..256).collect();
        parallel_for_each(items, |i| {
            if i == 37 {
                panic!("deliberate kernel panic {}", 42);
            }
            std::hint::black_box(i);
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panic in one job must not poison the pool for later jobs.
        let bad = catch_unwind(AssertUnwindSafe(|| {
            parallel_for_each((0..64usize).collect::<Vec<_>>(), |i| {
                if i % 2 == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(bad.is_err());
        let count = AtomicUsize::new(0);
        parallel_for_each((0..64usize).collect::<Vec<_>>(), |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn single_thread_budget_runs_sequentially_in_order() {
        // The QSE_THREADS=1 path: no pool involvement, caller's thread
        // only, items in submission order.
        let order = Mutex::new(Vec::new());
        let me = std::thread::current().id();
        for_each_with_threads(1, (0..100usize).collect(), |i| {
            assert_eq!(std::thread::current().id(), me, "escaped the caller thread");
            order.lock().unwrap().push(i);
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete_without_deadlock() {
        // Outer job items each launch an inner parallel call. Inner calls
        // from pool workers run inline; inner calls from the caller thread
        // queue a second job. Either way every leaf runs exactly once.
        let n_outer = 32;
        let n_inner = 64;
        let count = AtomicUsize::new(0);
        parallel_for_each((0..n_outer).collect::<Vec<usize>>(), |_| {
            parallel_for_each((0..n_inner).collect::<Vec<usize>>(), |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), n_outer * n_inner);
    }

    #[test]
    fn nested_results_match_sequential() {
        // A nested parallel reduction agrees with the straight-line loop.
        let items: Vec<usize> = (0..48).collect();
        let got = parallel_map_sum(items.clone(), |i| {
            parallel_map_sum((0..=i).map(|k| k as f64).collect(), |x| x)
        });
        let want: f64 = items
            .iter()
            .map(|&i| (0..=i).map(|k| k as f64).sum::<f64>())
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn workers_are_resident_across_calls() {
        // Every thread that ever executes an item belongs to the fixed set
        // {caller} ∪ {pool workers}: repeated calls must not mint new
        // threads the way scoped spawning did.
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..5 {
            let items: Vec<usize> = (0..num_threads() * 8).collect();
            parallel_for_each(items, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        assert!(seen.into_inner().unwrap().len() <= num_threads());
    }

    #[test]
    fn concurrent_outside_callers_share_the_pool() {
        // Two non-pool threads submitting jobs at once (the Universe rank
        // pattern): both complete, each visiting all of its items.
        let totals: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for t in &totals {
                scope.spawn(move || {
                    parallel_for_each((0..500usize).collect::<Vec<_>>(), |_| {
                        t.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        for t in &totals {
            assert_eq!(t.load(Ordering::SeqCst), 500);
        }
    }
}
