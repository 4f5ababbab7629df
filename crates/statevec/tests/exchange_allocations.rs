//! The copies stay gone: a distributed gate allocates wire chunks and
//! nothing else of any size, and in a symmetric exchange even those go
//! round — the buffer of a consumed payload carries the next outgoing
//! chunk. A counting global allocator pins, for a blocking distributed
//! H, the bytes allocated per gate per rank (the first chunk's buffer;
//! a buffer per chunk would be a slice's worth, a staged copy two) and
//! the peak of live exchange memory (the chunks in flight, not a
//! slice-sized scratch); and a one-slice bound for a two-qubit unitary
//! whose orbit is the whole slice, where every chunk is a fraction of an
//! orbit and the consumer keeps views of the payloads it has to pair.
//!
//! One test only: the allocator counts the whole process, and a second
//! test running beside this one would be counted too.

use qse_circuit::random::random_unitary2;
use qse_circuit::Gate;
use qse_comm::chunking::{ChunkPolicy, ExchangeMode, DEFAULT_RING_DEPTH};
use qse_comm::Universe;
use qse_statevec::{DistConfig, DistributedState};
use qse_util::rng::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics that publish no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: u32 = 16;
const RANKS: usize = 2;
const SLICE_BYTES: usize = (1 << N) / RANKS * 16;
const CHUNK: usize = 64 << 10;
const GATES: usize = 8;

/// Applies `GATES` distributed `gate`s on every rank after a warm-up and
/// returns (bytes allocated, peak live bytes above the starting level)
/// over the process, plus each rank's streamed in-flight gauge.
fn measure(mode: ExchangeMode, gate: &Gate) -> (usize, usize, Vec<u64>) {
    let config = DistConfig {
        exchange_mode: mode,
        chunk_policy: ChunkPolicy::new(CHUNK).unwrap(),
        ..DistConfig::default()
    };
    let out = Universe::new(RANKS).run(|comm| {
        let mut st: DistributedState = DistributedState::zero_state(comm, N, config);
        for _ in 0..2 {
            st.apply(gate).unwrap();
        }
        // Rank 0 reads the counters while every rank is parked between
        // two barriers, so nothing else allocates during a reading.
        st.barrier();
        let before = (st.rank() == 0).then(|| {
            let live = LIVE.load(Ordering::Relaxed);
            PEAK.store(live, Ordering::Relaxed);
            (ALLOCATED.load(Ordering::Relaxed), live)
        });
        st.barrier();
        for _ in 0..GATES {
            st.apply(gate).unwrap();
        }
        st.barrier();
        let measured = before.map(|(allocated, live)| {
            (
                ALLOCATED.load(Ordering::Relaxed) - allocated,
                PEAK.load(Ordering::Relaxed) - live,
            )
        });
        st.barrier();
        (measured, st.stats().peak_inflight_bytes)
    });
    let (allocated, peak) = out[0].0.expect("rank 0 measured");
    (allocated, peak, out.iter().map(|o| o.1).collect())
}

#[test]
fn a_distributed_gate_allocates_its_first_chunk_and_holds_a_few() {
    let h = Gate::H(N - 1);
    let (allocated, peak, _) = measure(ExchangeMode::Blocking, &h);
    let per_gate_per_rank = allocated / (GATES * RANKS);
    assert!(
        per_gate_per_rank >= CHUNK,
        "{per_gate_per_rank} B per gate per rank: the first wire chunk alone is {CHUNK} B"
    );
    assert!(
        per_gate_per_rank <= 2 * CHUNK,
        "{per_gate_per_rank} B allocated per gate per rank: consumed payloads are not carrying \
         the next chunks ({CHUNK} B each, {SLICE_BYTES} B the slice)"
    );
    assert!(
        peak <= 4 * CHUNK,
        "peak live exchange memory {peak} B exceeds 4 chunks of {CHUNK} B"
    );

    // A 2q unitary on the top local qubit: its orbit is the whole slice,
    // so each chunk is an eighth of one. The halves of a cut orbit are
    // paired up as views of the payloads, never copied into a carry.
    let matrix = random_unitary2(&mut StdRng::seed_from_u64(3));
    let u2 = Gate::Unitary2 { a: N - 2, b: N - 1, matrix };
    let (allocated, _, _) = measure(ExchangeMode::Blocking, &u2);
    let per_gate_per_rank = allocated / (GATES * RANKS);
    assert!(
        per_gate_per_rank * 10 <= SLICE_BYTES * 11,
        "2q: {per_gate_per_rank} B allocated per gate per rank exceeds 1.1 × the {SLICE_BYTES} B slice"
    );

    // Streamed: the in-flight gauge counts what the driver holds — the
    // payload under its kernel plus the chunk being packed — within the
    // ring bound the verifier proves.
    let (_, _, inflight) = measure(ExchangeMode::Streamed, &h);
    for (rank, peak) in inflight.into_iter().enumerate() {
        assert!(peak > 0, "rank {rank}: gauge never rose");
        assert!(
            peak <= (DEFAULT_RING_DEPTH * CHUNK) as u64,
            "rank {rank}: {peak} B in flight exceeds ring depth × chunk"
        );
    }
}
