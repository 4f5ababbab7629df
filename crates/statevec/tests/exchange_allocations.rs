//! The copies stay gone: a distributed gate allocates wire chunks and
//! nothing else of any size, and in a symmetric exchange even those go
//! round — the buffer of a consumed payload carries the next outgoing
//! chunk. A counting global allocator pins, for a blocking distributed
//! H, the bytes allocated per gate per rank (the first chunk's buffer;
//! a buffer per chunk would be a slice's worth, a staged copy two) and
//! the peak of live exchange memory (the chunks in flight, not a
//! slice-sized scratch); the same for a full-exchange SWAP whose
//! scatter stays inside the chunk it came in (packed lazily), and a
//! one-slice bound for one whose `2^(lo+1)`-amplitude group the cap cuts
//! (its bit-0 rank packs every chunk first); a one-slice bound for a
//! two-qubit unitary whose orbit is the whole slice, where every chunk
//! is a fraction of an orbit and the consumer keeps views of the
//! payloads it has to pair; and for a `Permute` step, the bytes it sends
//! plus two chunks (no permuted slice beside the old one, no index
//! lists).
//!
//! One test only: the allocator counts the whole process, and a second
//! test running beside this one would be counted too.

use qse_circuit::classify::Layout as QubitLayout;
use qse_circuit::random::random_unitary2;
use qse_circuit::transpile::permutation_traffic;
use qse_circuit::{Gate, Permutation};
use qse_comm::chunking::ChunkPolicy;
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

/// Runs `step` `GATES` times on every rank after a warm-up and returns
/// (bytes allocated, peak live bytes above the starting level) over the
/// process.
fn measure(step: impl Fn(&mut DistributedState) + Sync) -> (usize, usize) {
    let config = DistConfig {
        chunk_policy: ChunkPolicy::new(CHUNK).unwrap(),
        ..DistConfig::default()
    };
    let out = Universe::new(RANKS).run(|comm| {
        let mut st = DistributedState::zero_state(comm, N, config);
        for _ in 0..2 {
            step(&mut st);
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
            step(&mut st);
        }
        st.barrier();
        let measured = before.map(|(allocated, live)| {
            (
                ALLOCATED.load(Ordering::Relaxed) - allocated,
                PEAK.load(Ordering::Relaxed) - live,
            )
        });
        st.barrier();
        measured
    });
    out[0].expect("rank 0 measured")
}

#[test]
fn a_distributed_gate_allocates_its_first_chunk_and_holds_a_few() {
    let h = Gate::H(N - 1);
    let (allocated, peak) = measure(|st| st.apply(&h).unwrap());
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

    // A full-exchange SWAP whose 2^(lo+1)-amplitude groups every chunk
    // boundary respects packs lazily on both ranks, so it allocates and
    // holds what the H does.
    let swap = Gate::Swap(0, N - 1);
    let (allocated, peak) = measure(|st| st.apply(&swap).unwrap());
    let per_gate_per_rank = allocated / (GATES * RANKS);
    assert!(
        (CHUNK..=2 * CHUNK).contains(&per_gate_per_rank),
        "aligned SWAP: {per_gate_per_rank} B allocated per gate per rank, not the first \
         {CHUNK} B chunk: the SWAP packs every chunk first ({SLICE_BYTES} B the slice)"
    );
    assert!(
        peak <= 4 * CHUNK,
        "aligned SWAP: peak live exchange memory {peak} B exceeds 4 chunks of {CHUNK} B"
    );
    // Groups wider than a chunk: the rank whose bit is 0 scatters into
    // chunks it has not sent yet, so it packs its whole slice first.
    let top_local = Gate::Swap(N - 2, N - 1);
    let (allocated, _) = measure(|st| st.apply(&top_local).unwrap());
    let per_gate_per_rank = allocated / (GATES * RANKS);
    assert!(
        per_gate_per_rank <= SLICE_BYTES,
        "cut-group SWAP: {per_gate_per_rank} B allocated per gate per rank exceeds the \
         {SLICE_BYTES} B slice"
    );

    // A 2q unitary on the top local qubit: its orbit is the whole slice,
    // so each chunk is an eighth of one. The halves of a cut orbit are
    // paired up as views of the payloads, never copied into a carry.
    let matrix = random_unitary2(&mut StdRng::seed_from_u64(3));
    let u2 = Gate::Unitary2 {
        a: N - 2,
        b: N - 1,
        matrix,
    };
    let (allocated, _) = measure(|st| st.apply(&u2).unwrap());
    let per_gate_per_rank = allocated / (GATES * RANKS);
    assert!(
        per_gate_per_rank * 10 <= SLICE_BYTES * 11,
        "2q: {per_gate_per_rank} B allocated per gate per rank exceeds 1.1 × the {SLICE_BYTES} B slice"
    );

    // A `Permute` step — QFT-16's layout restore at R = 2, which trades
    // local bit 0 for the rank bit — runs in place: it allocates the wire
    // chunks it sends and nothing of any size besides, neither a permuted
    // slice built beside the old one nor index lists beside the payload.
    let restore = Permutation::from_map(
        (0..N)
            .map(|q| match q {
                7 => 0,
                15 => 8,
                q => 15 - q,
            })
            .collect(),
    );
    let sent = permutation_traffic(&restore, &QubitLayout::new(N, RANKS as u64)).max_rank_bytes;
    assert_eq!(sent as usize, SLICE_BYTES / 2);
    let (allocated, _) = measure(|st| st.apply_global_permutation(&restore).unwrap());
    let per_step_per_rank = allocated / (GATES * RANKS);
    assert!(
        per_step_per_rank <= sent as usize + 2 * CHUNK,
        "Permute: {per_step_per_rank} B allocated per step per rank exceeds the {sent} B it \
         sends + 2 chunks of {CHUNK} B"
    );
}
