//! Schedule-explorer suite: seeded concurrency bugs in instrumented
//! fixtures must be found, reported with a replay handle, and re-found
//! from that handle alone.

use qse_check::{Ctl, Explorer};
use qse_util::mailbox::unbounded;
use qse_util::sync::{sync_point, SyncOp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two workers perform a read-modify-write on a shared counter with a
/// decision point between the read and the write — the textbook lost
/// update. A mailbox coordinates completion so the checking thread
/// (participant 0) only asserts after both increments "happened".
fn lost_update_fixture(ctl: &Ctl) {
    let (tx, rx) = unbounded::<()>();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let counter = Arc::clone(&counter);
        let tx = tx.clone();
        ctl.spawn(move || {
            let v = counter.load(Ordering::SeqCst);
            sync_point(SyncOp::User("between load and store"));
            counter.store(v + 1, Ordering::SeqCst);
            let _ = tx.send(());
        });
    }
    drop(tx);
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("worker done");
    }
    assert_eq!(
        counter.load(Ordering::SeqCst),
        2,
        "lost update: one increment overwrote the other"
    );
}

/// The same protocol with an atomic read-modify-write: correct under
/// every interleaving.
fn atomic_update_fixture(ctl: &Ctl) {
    let (tx, rx) = unbounded::<()>();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let counter = Arc::clone(&counter);
        let tx = tx.clone();
        ctl.spawn(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            sync_point(SyncOp::User("after increment"));
            let _ = tx.send(());
        });
    }
    drop(tx);
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("worker done");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 2);
}

#[test]
fn exhaustive_exploration_finds_the_lost_update() {
    let err = Explorer::exhaustive()
        .explore(lost_update_fixture)
        .expect_err("the racy counter must fail under some schedule");
    assert!(
        err.message.contains("lost update"),
        "failure is the fixture's own assertion: {}",
        err.message
    );
    assert!(err.schedules > 1, "schedule 0 (no preemptions) passes");
    // The printed failure carries a script; replaying it reproduces the
    // exact same assertion without searching.
    let replayed = Explorer::exhaustive()
        .replay(err.script.clone(), lost_update_fixture)
        .expect("replay must reproduce the failure");
    assert!(replayed.contains("lost update"));
}

#[test]
fn exhaustive_exploration_passes_the_atomic_protocol() {
    let schedules = Explorer::exhaustive()
        .explore(atomic_update_fixture)
        .expect("atomic increments are correct under every schedule");
    assert!(
        schedules > 10,
        "expected a real search space, explored only {schedules}"
    );
}

/// A mailbox wakeup-order bug for random-mode exploration: a producer
/// sends to two channels in order, and the test wrongly assumes the
/// first channel's consumer always *runs* first. Four participants —
/// above the exhaustive threshold, so seeded random mode applies.
fn wakeup_order_fixture(ctl: &Ctl) {
    let (tx1, rx1) = unbounded::<u8>();
    let (tx2, rx2) = unbounded::<u8>();
    let (res_tx, res_rx) = unbounded::<(u8, usize)>();
    let seq = Arc::new(AtomicUsize::new(0));
    ctl.spawn(move || {
        let _ = tx1.send(1);
        let _ = tx2.send(2);
    });
    for (id, rx) in [(1u8, rx1), (2u8, rx2)] {
        let seq = Arc::clone(&seq);
        let res_tx = res_tx.clone();
        ctl.spawn(move || {
            rx.recv_timeout(Duration::from_secs(5)).expect("message");
            let order = seq.fetch_add(1, Ordering::SeqCst);
            let _ = res_tx.send((id, order));
        });
    }
    drop(res_tx);
    let mut order = [usize::MAX; 2];
    for _ in 0..2 {
        let (id, o) = res_rx.recv_timeout(Duration::from_secs(5)).expect("result");
        order[(id - 1) as usize] = o;
    }
    assert!(
        order[0] < order[1],
        "wakeup order: consumer 2 ran before consumer 1"
    );
}

const BASE_SEED: u64 = 1;
const ITERATIONS: usize = 300;

#[test]
fn random_exploration_finds_the_wakeup_order_bug_and_replays_from_seed() {
    let err = Explorer::random(BASE_SEED, ITERATIONS)
        .explore(wakeup_order_fixture)
        .expect_err("some schedule wakes consumer 2 first");
    assert!(err.message.contains("wakeup order"), "{}", err.message);
    let seed = err.seed.expect("random mode reports the failing seed");
    assert!(err
        .to_string()
        .contains(&format!("replay with seed {seed}")));

    // The printed seed alone re-finds the bug on its first schedule.
    let again = Explorer::random(seed, 1)
        .explore(wakeup_order_fixture)
        .expect_err("replay from the printed seed");
    assert_eq!(again.schedules, 1);
    assert!(again.message.contains("wakeup order"));
    assert_eq!(again.seed, Some(seed));
}

/// `wait_any` under every wakeup order: a producer sends three chunks
/// tagged out of order while the consumer drains them with repeated
/// `wait_any` calls — whatever interleaving the explorer picks, every
/// chunk must complete exactly once with its own payload. This is the
/// completion-order contract the streamed exchange pipeline builds on.
fn wait_any_wakeup_fixture(ctl: &Ctl) {
    use qse_comm::Universe;
    let mut comms = Universe::new(2).into_communicators().into_iter();
    let mut consumer = comms.next().expect("rank 0");
    let mut producer = comms.next().expect("rank 1");
    ctl.spawn(move || {
        for tag in [2u64, 0, 1] {
            producer.send(0, tag, &[tag as u8]).expect("send chunk");
        }
    });
    let mut reqs: Vec<_> = (0..3u64)
        .map(|t| consumer.irecv(1, t).expect("post receive"))
        .collect();
    let mut tags: Vec<u64> = (0..3).collect();
    let mut seen = [false; 3];
    while !reqs.is_empty() {
        let (i, payload) = consumer.wait_any(&reqs).expect("wait_any");
        let tag = tags[i] as usize;
        reqs.swap_remove(i);
        tags.swap_remove(i);
        assert_eq!(payload[0] as usize, tag, "payload follows its tag");
        assert!(!seen[tag], "chunk {tag} completed twice");
        seen[tag] = true;
    }
    assert!(seen.iter().all(|&s| s), "every chunk completed: {seen:?}");
}

#[test]
fn wait_any_completes_every_chunk_under_all_schedules() {
    let schedules = Explorer::exhaustive()
        .explore(wait_any_wakeup_fixture)
        .expect("wait_any must drain all chunks under every schedule");
    assert!(
        schedules > 1,
        "expected multiple interleavings, explored only {schedules}"
    );
}

#[test]
fn modelled_timeout_surfaces_never_sent_messages() {
    // A receive nobody will ever satisfy: instead of hanging or waiting
    // out a wall-clock deadline, the explorer models the timeout and the
    // fixture's expect() fails on every schedule — including the first.
    let err = Explorer::exhaustive()
        .explore(|_ctl: &Ctl| {
            let (_tx, rx) = unbounded::<u8>();
            rx.recv_timeout(Duration::from_secs(3600))
                .expect("this message never arrives");
        })
        .expect_err("must fail without waiting an hour");
    assert_eq!(err.schedules, 1);
    assert!(err.message.contains("never arrives"));
}
