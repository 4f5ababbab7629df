//! Pluggable amplitude storage layouts.
//!
//! QuEST stores the statevector as two separate `qreal` arrays (real and
//! imaginary parts) — the structure-of-arrays layout, [`SoaStorage`]. The
//! paper's future work (§4) proposes "reimplement[ing] QuEST's core
//! data-structures using a complex data type rather than separate real and
//! imaginary arrays, in order to improve data locality" — the
//! array-of-structures layout, [`AosStorage`]. Both implement
//! [`AmpStorage`], the hot-kernel interface the engines are generic over,
//! so the `layout` Criterion bench can compare them on identical sweeps.
//!
//! All kernels treat the storage as the *local* slice of a (possibly
//! distributed) register: indices are local amplitude indices, and the
//! diagonal sweep takes a global-index offset so its selections can see
//! rank bits.

mod aos;
pub(crate) mod kernel;
mod soa;

pub use aos::AosStorage;
pub use soa::SoaStorage;

use crate::schedule::{LocalOp, LocalRun};
use qse_math::{Complex64, Matrix2};
pub use qse_math::Matrix4;

/// Minimum length before kernels fan out to Rayon. Below this the
/// fork-join overhead dwarfs the sweep.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// Minimum payload amplitudes before a range kernel fans out. A range
/// kernel runs once per wire chunk, on a rank thread that already has a
/// core to itself whenever ranks fill the machine: a pool dispatch then
/// buys a wake-up, a join and a third thread to be preempted by, chunk
/// after chunk. Only a chunk of several MiB is worth that.
pub const RANGE_PAR_THRESHOLD: usize = 1 << 18;

/// Bytes per amplitude on the wire: little-endian `re`, then `im`.
pub const AMP_BYTES: usize = 16;

/// Number of whole amplitudes in a wire payload.
///
/// # Panics
/// Panics on a payload that cuts an amplitude: the exchange layer hands
/// the kernels whole amplitudes only.
fn wire_amps(payload: &[u8]) -> usize {
    assert_eq!(payload.len() % AMP_BYTES, 0, "payload must hold whole amplitudes");
    payload.len() / AMP_BYTES
}

/// Amplitudes per parallel work item (and per half-block sub-chunk of a
/// single top-qubit sweep). One definition for both layouts so the
/// chunk policies — and the affinity partition built on them — can
/// never drift apart.
pub const HALF_CHUNK: usize = 4096;

/// Amplitudes per block of a local run ([`AmpStorage::apply_local_run`]):
/// 1 MiB of `re` plus `im`, half of a 2 MiB L2, so every op of a run
/// after the first finds its block in L2. One rank's local work of
/// QFT-20 at R = 2 on one core (DESIGN §7): 2^14 to 2^16 22.8–23.2 ms,
/// 2^17 24.7, 2^18 28.3, against 27.3 ms one pass per op.
pub const LOCAL_BLOCK: usize = 1 << 16;

/// The block a local run is applied in on a slice of `2^slice_bits`
/// amplitudes, as a bit count: [`LOCAL_BLOCK`], except that a slice the
/// pool sweeps (at least [`PAR_THRESHOLD`] amplitudes) is always cut in
/// two or more, so that its runs keep two work items, and a smaller
/// slice is one block. Gates that reach this bit end a run
/// ([`crate::schedule::LocalRun::admits`]).
pub fn local_block_bits(slice_bits: u32) -> u32 {
    let block_bits = LOCAL_BLOCK.trailing_zeros();
    if slice_bits >= PAR_THRESHOLD.trailing_zeros() {
        block_bits.min(slice_bits - 1)
    } else {
        block_bits.min(slice_bits)
    }
}

/// The amplitude-array interface every layout implements.
///
/// `len` is always a power of two. Kernels mutate in place — the paper's
/// simulations are memory-capacity-bound. The distributed kernels come in
/// one form each: they take the peer's *wire payload* (`&[u8]`, whole
/// amplitudes of [`AMP_BYTES`]) for an amplitude range and read it where
/// it arrived, so an exchange needs no decoded copy of the peer's slice.
pub trait AmpStorage: Send + Sync + Sized + Clone {
    /// All-zero register of `len` amplitudes (an invalid quantum state
    /// until initialised; used for receive staging).
    fn zeros(len: usize) -> Self;

    /// Number of amplitudes.
    fn len(&self) -> usize;

    /// True when empty (never for a live register).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads amplitude `i`.
    fn get(&self, i: usize) -> Complex64;

    /// Writes amplitude `i`.
    fn set(&mut self, i: usize, v: Complex64);

    /// Sets every amplitude to zero.
    fn fill_zero(&mut self);

    /// Σ|amp|² over the local slice.
    fn norm_sqr_sum(&self) -> f64;

    /// Applies a 2×2 matrix to every amplitude pair of local qubit `q`
    /// (stride `2^q`), optionally only where local control qubit bit is 1.
    fn apply_pairs(&mut self, q: u32, m: &Matrix2, control: Option<u32>);

    /// Applies a precompiled run of diagonal gates — the fully-local
    /// sweep, and the only way a diagonal gate reaches the storage (a
    /// single gate is a run of length one). `offset` is the global index
    /// of local amplitude 0, so rank bits take part in the selections.
    /// See [`CompiledDiagonal`](crate::diagonal::CompiledDiagonal) for
    /// the semantic; layouts drive its block kernel over their
    /// [`HALF_CHUNK`] work items.
    fn apply_fused_diagonal(&mut self, offset: u64, run: &crate::diagonal::CompiledDiagonal);

    /// Swaps local qubits `a` and `b` (pure in-memory permutation).
    fn swap_local(&mut self, a: u32, b: u32);

    /// Applies a run of local gates; `offset` is the global index of
    /// local amplitude 0, which resolves the diagonal selections and the
    /// rank-bit controls ([`LocalOp::pair_control`]).
    ///
    /// This default is the definition: op by op over the whole slice, in
    /// program order. A layout may instead take each aligned block of at
    /// least `2^`[`span_bits`](LocalRun::span_bits) amplitudes through
    /// every op before the next, which gives the same bits because every
    /// amplitude sees the same pair updates and phase multiplies in the
    /// same order.
    fn apply_local_run(&mut self, offset: u64, run: &LocalRun) {
        let slice_bits = self.len().trailing_zeros();
        for op in run.ops() {
            match op {
                LocalOp::Diagonal(d) => self.apply_fused_diagonal(offset, d),
                LocalOp::Pairs {
                    target,
                    matrix,
                    control,
                } => {
                    if let Some(control) = LocalOp::pair_control(*control, slice_bits, offset) {
                        self.apply_pairs(*target, matrix, control);
                    }
                }
                LocalOp::Swap(a, b) => self.swap_local(*a, *b),
            }
        }
    }

    /// Appends amplitudes `[start, start + n)` to `out` in wire format
    /// ([`AMP_BYTES`] each: little-endian `re`, then `im`) — the packing
    /// half of every exchange, straight from storage into the chunk
    /// buffer that becomes the message.
    fn pack_range(&self, start: usize, n: usize, out: &mut Vec<u8>);

    /// Overwrites amplitudes `[start, start + payload.len()/16)` from a
    /// wire payload — the block trade of a both-global SWAP, and the
    /// copy primitive the scatter kernels below are built on.
    fn copy_from_f64_range(&mut self, payload: &[u8], start: usize);

    /// Distributed combine, the second half of a distributed
    /// single-qubit gate (§2.1): `new[i] = c_mine·mine[i] + c_theirs·theirs[i]`
    /// over the amplitude range `[start, start + payload.len()/16)`, with
    /// `payload` the peer's wire bytes for exactly that range, optionally
    /// only where local control bit is 1.
    ///
    /// Amplitudes are elementwise independent and every call runs the
    /// same `kernel::combine_term` flavour, so splitting a combine into
    /// sub-range calls (in any order) is bit-for-bit identical to one
    /// call over the whole slice.
    fn apply_distributed_1q_range(
        &mut self,
        c_mine: Complex64,
        c_theirs: Complex64,
        payload: &[u8],
        start: usize,
        control: Option<u32>,
    );

    /// Distributed two-qubit combine of the orbits whose low half lies in
    /// `[start, start + lo.len()/16)`: qubit `a` is local, the second
    /// orbit qubit is a rank bit with this rank holding value `g`. `lo`
    /// is the pair rank's wire bytes from amplitude `start`, `hi`
    /// (equally long) its bytes from amplitude `start + 2^a`, so the
    /// partner `i | 2^a` of amplitude `i` sits in `hi` where `i` sits in
    /// `lo`. Each local pair `(bit_a = 0, 1)` combines with the peer's
    /// matching pair through the rows of `m` selected by `g` — basis
    /// order `|b a⟩`; indices in the range with bit `a` set are skipped.
    ///
    /// The two views may be `2^a` amplitudes apart in one payload (any
    /// number of whole orbits: `p[..len − 2^a]`, `p[2^a..]`) or pieces of
    /// two payloads when a chunk is smaller than an orbit. Orbits are
    /// independent, so per-piece application is bit-for-bit identical
    /// to one call over the whole slice.
    fn apply_distributed_2q_range(
        &mut self,
        a: u32,
        g: u64,
        m: &crate::storage::Matrix4,
        lo: &[u8],
        hi: &[u8],
        start: usize,
    ) {
        let n = wire_amps(lo);
        assert_eq!(lo.len(), hi.len(), "the two half-orbit views must match");
        assert!(start + n + (1 << a) <= self.len(), "payload beyond local slice");
        kernel::for_each_bit_run(start, n, 1 << a, 0, |from, to| {
            for i0 in from..to {
                let i1 = i0 | (1usize << a);
                let at = (i0 - start) * AMP_BYTES;
                // Orbit amplitudes v[(b<<1)|a]: b == g comes from this rank.
                let mut v = [Complex64::ZERO; 4];
                v[crate::ix(g << 1)] = self.get(i0);
                v[crate::ix((g << 1) | 1)] = self.get(i1);
                v[crate::ix((1 - g) << 1)] = kernel::wire_amp(&lo[at..]);
                v[crate::ix(((1 - g) << 1) | 1)] = kernel::wire_amp(&hi[at..]);
                let out = m.apply(v);
                self.set(i0, out[crate::ix(g << 1)]);
                self.set(i1, out[crate::ix((g << 1) | 1)]);
            }
        });
    }

    /// Distributed SWAP scatter over a sub-range of the *peer's* slice:
    /// for every index `i` in `[start, start + payload.len()/16)` whose bit
    /// `lo` equals `g` (this rank's value of the global swap qubit), the
    /// peer amplitude `payload[i - start]` lands at `i ^ (1<<lo)` —
    /// *outside* the range when it is narrower than `2^(lo+1)`. Pure
    /// copies with disjoint destinations, so range order never matters.
    fn apply_distributed_swap_range(&mut self, lo: u32, g: u64, payload: &[u8], start: usize) {
        let n = wire_amps(payload);
        assert!(start + n <= self.len(), "payload beyond local slice");
        kernel::for_each_bit_run(start, n, 1 << lo, g, |a, b| {
            let bytes = &payload[(a - start) * AMP_BYTES..(b - start) * AMP_BYTES];
            self.copy_from_f64_range(bytes, a ^ (1usize << lo));
        });
    }

    /// Appends the half-exchange SWAP payload (§4): of the amplitudes
    /// whose local-index bit `q` equals `v`, taken in ascending index
    /// order, those numbered `[start_pair, start_pair + n)`.
    fn pack_half_bit_range(&self, q: u32, v: u64, start_pair: usize, n: usize, out: &mut Vec<u8>) {
        assert!(start_pair + n <= self.len() / 2, "range beyond half slice");
        kernel::for_each_half_bit_run(q, v, start_pair, n, |_, i, len| {
            self.pack_range(i, len, out);
        });
    }

    /// The receiving side of [`Self::pack_half_bit_range`]: writes the
    /// payload into the amplitudes whose local-index bit `q` equals `v`,
    /// numbered from `start_pair`. Pure copies to disjoint destinations,
    /// so range order never matters.
    fn write_half_bit_range(&mut self, q: u32, v: u64, payload: &[u8], start_pair: usize) {
        let n = wire_amps(payload);
        assert!(start_pair + n <= self.len() / 2, "payload beyond half slice");
        kernel::for_each_half_bit_run(q, v, start_pair, n, |k, i, len| {
            let at = (k - start_pair) * AMP_BYTES;
            self.copy_from_f64_range(&payload[at..at + len * AMP_BYTES], i);
        });
    }

    /// Serialises the whole slice as interleaved `[re, im]` pairs — the
    /// definition [`Self::pack_range`] is tested against, not a step of
    /// any exchange.
    fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len())
            .flat_map(|i| {
                let a = self.get(i);
                [a.re, a.im]
            })
            .collect()
    }

    /// Materialises the local slice as complex values (tests/gather).
    fn to_complex_vec(&self) -> Vec<Complex64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Applies a 4×4 matrix to every four-amplitude orbit of local
    /// qubits `(a, b)` — basis order `|b a⟩`. Default implementation via
    /// `get`/`set`; layouts may specialise for speed.
    fn apply_orbit4(&mut self, a: u32, b: u32, m: &crate::storage::Matrix4) {
        assert_ne!(a, b, "orbit qubits must differ");
        let len = self.len() as u64;
        assert!((1u64 << a) < len && (1u64 << b) < len, "qubit out of range");
        for k in 0..len / 4 {
            let base = qse_math::bits::insert_two_zero_bits(k, a, b);
            let idx = |bb: u64, aa: u64| crate::ix(base | (aa << a) | (bb << b));
            let orbit = [
                self.get(idx(0, 0)),
                self.get(idx(0, 1)),
                self.get(idx(1, 0)),
                self.get(idx(1, 1)),
            ];
            let out = m.apply(orbit);
            self.set(idx(0, 0), out[0]);
            self.set(idx(0, 1), out[1]);
            self.set(idx(1, 0), out[2]);
            self.set(idx(1, 1), out[3]);
        }
    }
}

/// Shared zero-state initialiser: amplitude `basis` = 1 within this local
/// slice if it falls in `[offset, offset + len)`, everything else 0.
pub fn init_basis<S: AmpStorage>(storage: &mut S, offset: u64, basis: u64) {
    storage.fill_zero();
    let len = storage.len() as u64;
    if basis >= offset && basis < offset + len {
        storage.set(crate::ix(basis - offset), Complex64::ONE);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index arithmetic is the subject under test
pub(crate) mod conformance {
    //! Layout-agnostic conformance suite run against each implementation.

    use super::*;
    use qse_math::approx::{assert_close, assert_complex_close};
    use qse_util::Bytes;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn hadamard() -> Matrix2 {
        let h = Complex64::real(FRAC_1_SQRT_2);
        Matrix2::new(h, h, h, -h)
    }

    fn ramp<S: AmpStorage>(len: usize) -> S {
        let mut s = S::zeros(len);
        for i in 0..len {
            s.set(i, Complex64::new(i as f64, -(i as f64) / 2.0));
        }
        s
    }

    pub fn run_all<S: AmpStorage>() {
        basic_accessors::<S>();
        pairs_hadamard::<S>();
        pairs_every_qubit_roundtrip::<S>();
        pairs_controlled::<S>();
        large_fused_diagonal_matches_oracle::<S>();
        diagonal_kernel_matches_oracle_and_gate_at_a_time::<S>();
        unselected_amplitudes_are_untouched::<S>();
        swap_local_permutes::<S>();
        combine_is_linear::<S>();
        pack_copy_roundtrip::<S>();
        half_bit_pack_write::<S>();
        init_basis_places_one::<S>();
        large_parallel_sweep_matches_small::<S>();
        controlled_pairs_multi_chunk::<S>();
        large_swap_matches_permutation::<S>();
        payload_kernels_chunked_match_whole::<S>();
        pack_chunked_matches_to_f64_vec::<S>();
    }

    /// Peer-payload fixture: deterministic non-trivial amplitudes in
    /// wire format.
    fn peer_payload(n_amps: usize) -> Vec<u8> {
        (0..n_amps)
            .flat_map(|i| {
                kernel::amp_to_wire(Complex64::new(
                    (i as f64) * 0.75 - 3.0,
                    1.0 / (i as f64 + 2.0),
                ))
            })
            .collect()
    }

    /// The message caps the chunked tests cut payloads at: one amplitude,
    /// two that are not multiples of 16 bytes (they cut amplitudes), a
    /// typical small cap, and the whole payload in one piece.
    fn caps(total: usize) -> [usize; 5] {
        [16, 40, 100, 1024, total]
    }

    /// `total` bytes cut at `cap`, as `ChunkPolicy::ranges` cuts them.
    fn cut(total: usize, cap: usize) -> Vec<std::ops::Range<usize>> {
        (0..total)
            .step_by(cap)
            .map(|at| at..usize::min(at + cap, total))
            .collect()
    }

    /// Asserts two storages are bit-for-bit identical.
    fn assert_bits_equal<S: AmpStorage>(a: &S, b: &S, ctx: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    /// Layout-agnostic reference for a controlled pair sweep: per-element
    /// control test, `Complex64` operator arithmetic.
    fn naive_controlled<S: AmpStorage>(s: &mut S, q: u32, m: &Matrix2, c: u32) {
        let stride = 1usize << q;
        for i in 0..s.len() {
            if (i >> q) & 1 == 1 || (i >> c) & 1 == 0 {
                continue;
            }
            let j = i | stride;
            let (a0, a1) = (s.get(i), s.get(j));
            s.set(i, m.m[0] * a0 + m.m[1] * a1);
            s.set(j, m.m[2] * a0 + m.m[3] * a1);
        }
    }

    fn controlled_pairs_multi_chunk<S: AmpStorage>() {
        use qse_math::approx::assert_complex_close;
        // Controlled gates through the parallel branches at chunk bases
        // ≠ 0: state sizes straddling PAR_THRESHOLD, control above and
        // below the target, including the single-top-qubit-block path.
        let m = Matrix2::new(
            Complex64::new(0.6, 0.1),
            Complex64::new(-0.3, 0.8),
            Complex64::new(0.2, -0.4),
            Complex64::new(0.9, 0.05),
        );
        for len in [PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            for &(q, c) in &[
                (0u32, 5u32),         // control above a bottom target
                (5, 2),               // control below target, both mid
                (top - 1, top),       // blocked path at max stride, control above
                (top, 3),             // single-block path, control far below
                (top, top - 1),       // single-block path, control just below
                (2, top),             // top control selects half the blocks
            ] {
                let mut got: S = ramp(len);
                got.apply_pairs(q, &m, Some(c));
                let mut want: S = ramp(len);
                naive_controlled(&mut want, q, &m, c);
                for i in 0..len {
                    assert_complex_close(got.get(i), want.get(i), 1e-9);
                }
            }
        }
    }

    fn large_swap_matches_permutation<S: AmpStorage>() {
        // The parallel chunked swap is a pure permutation, so it must
        // match the bit-swapped index map exactly (bitwise).
        let len = PAR_THRESHOLD * 2;
        let top = len.trailing_zeros() - 1;
        for &(a, b) in &[(0u32, 3u32), (0, top), (5, top), (top - 1, top), (2, 9)] {
            let before: S = ramp(len);
            let mut s = before.clone();
            s.swap_local(a, b);
            for i in 0..len as u64 {
                let j = qse_math::bits::swap_bits(i, a, b);
                let (x, y) = (s.get(i as usize), before.get(j as usize));
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "swap({a},{b}) re at {i}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "swap({a},{b}) im at {i}");
            }
        }
    }

    /// Applies `kernel(state, first_amp, amps)` to `payload` once whole
    /// and once chunk by chunk at every cap — through the exchange path's
    /// [`AmpCursor`](crate::dist::AmpCursor), which re-frames cut
    /// amplitudes — and demands bitwise equal states. Chunks holding
    /// whole kernel units go in shuffled order (the streamed mode's
    /// completion order), chunks that cut a unit in order, as the
    /// in-order modes feed them.
    fn assert_chunked_matches_whole<S: AmpStorage>(
        len: usize,
        payload: &Bytes,
        unit_amps: usize,
        what: &str,
        mut kernel: impl FnMut(&mut S, usize, Bytes),
    ) {
        let mut whole: S = ramp(len);
        kernel(&mut whole, 0, payload.clone());
        for cap in caps(payload.len()) {
            let mut ranges = cut(payload.len(), cap);
            if cap % (unit_amps * AMP_BYTES) == 0 {
                ranges.sort_by_key(|r| (r.start / cap).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let mut chunked: S = ramp(len);
            let mut cursor = crate::dist::AmpCursor::default();
            for r in ranges {
                cursor.feed(r.start, &payload.slice(r), |start, amps| kernel(&mut chunked, start, amps));
            }
            assert_bits_equal(&whole, &chunked, &format!("{what}, len {len}, cap {cap}"));
        }
    }

    fn payload_kernels_chunked_match_whole<S: AmpStorage>() {
        // Any dense 4×4 will do: the checks are bitwise, not unitary.
        let m4 = Matrix4::new(std::array::from_fn(|k| {
            Complex64::new(0.1 * k as f64 - 0.4, 0.05 * (k * k % 7) as f64)
        }));
        let c_mine = Complex64::new(0.6, -0.2);
        let c_theirs = Complex64::new(0.1, 0.8);
        // Slices straddling RANGE_PAR_THRESHOLD: the one-piece cap takes
        // the pool path there, every smaller cap the sequential one.
        for len in [64, RANGE_PAR_THRESHOLD / 2, RANGE_PAR_THRESHOLD, RANGE_PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            let theirs = Bytes::from(peer_payload(len));
            for control in [None, Some(2u32), Some(top)] {
                assert_chunked_matches_whole::<S>(
                    len,
                    &theirs,
                    1,
                    &format!("1q combine, control {control:?}"),
                    |s, start, p| s.apply_distributed_1q_range(c_mine, c_theirs, &p, start, control),
                );
            }
        }
        for len in [64, PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            let theirs = Bytes::from(peer_payload(len));
            for q in [0u32, 2, top] {
                for bit in [0u64, 1] {
                    // Caps below the orbit pair the halves of cut orbits.
                    let mut pairs = crate::dist::OrbitPairs::new(q);
                    assert_chunked_matches_whole::<S>(
                        len,
                        &theirs,
                        1usize << (q + 1),
                        &format!("2q combine, a {q} g {bit}"),
                        |s, start, p| {
                            pairs.feed(start, p, |at, lo, hi| {
                                s.apply_distributed_2q_range(q, bit, &m4, lo, hi, at)
                            })
                        },
                    );
                    assert_chunked_matches_whole::<S>(
                        len,
                        &theirs,
                        1,
                        &format!("swap scatter, lo {q} g {bit}"),
                        |s, start, p| s.apply_distributed_swap_range(q, bit, &p, start),
                    );
                    assert_chunked_matches_whole::<S>(
                        len,
                        &theirs.slice(0..theirs.len() / 2),
                        1,
                        &format!("half-bit write-back, q {q} v {bit}"),
                        |s, start, p| s.write_half_bit_range(q, bit, &p, start),
                    );
                }
            }
            assert_chunked_matches_whole::<S>(len, &theirs, 1, "block copy", |s, start, p| {
                s.copy_from_f64_range(&p, start)
            });
        }
    }

    fn pack_chunked_matches_to_f64_vec<S: AmpStorage>() {
        use crate::dist::pack_wire_bytes;
        for len in [64, PAR_THRESHOLD / 2, PAR_THRESHOLD * 2] {
            let s: S = ramp(len);
            let want: Vec<u8> = s.to_f64_vec().iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(want.len(), len * AMP_BYTES);
            for cap in caps(want.len()) {
                let mut got = Vec::new();
                for r in cut(want.len(), cap) {
                    let before = got.len();
                    pack_wire_bytes(r.clone(), &mut got, |start, n, out| s.pack_range(start, n, out));
                    assert_eq!(got.len() - before, r.len(), "chunk length at cap {cap}");
                }
                assert_eq!(got, want, "pack, len {len}, cap {cap}");
            }
            // The half-exchange payload, cut the same way, is the bit-q = v
            // amplitudes in ascending order.
            for q in [0u32, 3, len.trailing_zeros() - 1] {
                for v in [0u64, 1] {
                    let want: Vec<u8> = (0..len)
                        .filter(|i| ((i >> q) & 1) as u64 == v)
                        .flat_map(|i| kernel::amp_to_wire(s.get(i)))
                        .collect();
                    for cap in caps(want.len()) {
                        let mut got = Vec::new();
                        for r in cut(want.len(), cap) {
                            pack_wire_bytes(r, &mut got, |start, n, out| {
                                s.pack_half_bit_range(q, v, start, n, out)
                            });
                        }
                        assert_eq!(got, want, "half pack, len {len}, q {q} v {v}, cap {cap}");
                    }
                }
            }
        }
    }

    fn basic_accessors<S: AmpStorage>() {
        let mut s = S::zeros(8);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.get(3), Complex64::ZERO);
        s.set(3, Complex64::new(1.0, 2.0));
        assert_eq!(s.get(3), Complex64::new(1.0, 2.0));
        assert_close(s.norm_sqr_sum(), 5.0, 1e-12);
        s.fill_zero();
        assert_close(s.norm_sqr_sum(), 0.0, 1e-12);
    }

    fn pairs_hadamard<S: AmpStorage>() {
        // |0> --H on qubit 0--> (|0>+|1>)/√2
        let mut s = S::zeros(4);
        s.set(0, Complex64::ONE);
        s.apply_pairs(0, &hadamard(), None);
        assert_complex_close(s.get(0), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(1), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(2), Complex64::ZERO, 1e-12);
    }

    fn pairs_every_qubit_roundtrip<S: AmpStorage>() {
        // H twice on each qubit restores the state.
        let s0: S = ramp(32);
        for q in 0..5 {
            let mut s = s0.clone();
            s.apply_pairs(q, &hadamard(), None);
            s.apply_pairs(q, &hadamard(), None);
            for i in 0..32 {
                assert_complex_close(s.get(i), s0.get(i), 1e-9);
            }
        }
    }

    fn pairs_controlled<S: AmpStorage>() {
        // X on qubit 0 controlled by qubit 1: only indices with bit1 set flip.
        let x = Matrix2::new(
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        );
        let mut s: S = ramp(8);
        let before = s.to_complex_vec();
        s.apply_pairs(0, &x, Some(1));
        assert_complex_close(s.get(0), before[0], 1e-12); // bit1=0 untouched
        assert_complex_close(s.get(1), before[1], 1e-12);
        assert_complex_close(s.get(2), before[3], 1e-12); // |10> <- |11>
        assert_complex_close(s.get(3), before[2], 1e-12);
        assert_complex_close(s.get(6), before[7], 1e-12);
    }

    /// Diagonal fixture: zeros of both signs, exact and inexact values.
    fn diagonal_fixture<S: AmpStorage>(len: usize) -> S {
        let mut s = S::zeros(len);
        for i in 0..len {
            let re = if i % 11 == 3 {
                -0.0
            } else {
                ((i * 7) % 23) as f64 * 0.125 - 1.0
            };
            s.set(i, Complex64::new(re, 0.3 - (i % 5) as f64));
        }
        s
    }

    /// Applies `gates` to the fixture fused and gate at a time, and
    /// asserts both equal the scalar oracle bit for bit.
    fn assert_diagonal_run<S: AmpStorage>(len: usize, offset: u64, gates: &[qse_circuit::Gate]) {
        use crate::diagonal::{oracle_apply, CompiledDiagonal};
        let before: S = diagonal_fixture(len);
        let mut fused = before.clone();
        fused.apply_fused_diagonal(offset, &CompiledDiagonal::compile(gates));
        let mut unfused = before.clone();
        for g in gates {
            unfused.apply_fused_diagonal(offset, &CompiledDiagonal::compile([g]));
        }
        let ctx = format!("len {len}, gates {gates:?}");
        assert_bits_equal(&fused, &unfused, &ctx);
        for i in 0..len {
            let want = oracle_apply(gates, offset | i as u64, before.get(i));
            let got = fused.get(i);
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    /// One gate on a slice at `offset`, as the distributed engine's
    /// per-gate dispatch applies a local gate: the definition a local run
    /// is held to.
    fn apply_gate<S: AmpStorage>(s: &mut S, offset: u64, gate: &qse_circuit::Gate) {
        use crate::diagonal::CompiledDiagonal;
        use qse_circuit::Gate;
        if gate.is_diagonal() {
            return s.apply_fused_diagonal(offset, &CompiledDiagonal::compile([gate]));
        }
        if let Gate::Swap(a, b) = *gate {
            return s.swap_local(a, b);
        }
        let m = gate.matrix1().expect("single-target gate");
        match gate.control() {
            Some(c) if c >= s.len().trailing_zeros() => {
                if (offset >> c) & 1 == 1 {
                    s.apply_pairs(gate.target(), &m, None);
                }
            }
            control => s.apply_pairs(gate.target(), &m, control),
        }
    }

    /// A local run for a slice of `2^w` amplitudes in blocks of
    /// `2^bits`: every op kind, with pair controls below the target,
    /// between the target and the block bit, above the block bit, and on
    /// rank bits `w` and `w + 1`.
    fn local_run_zoo(w: u32, bits: u32) -> Vec<qse_circuit::Gate> {
        use qse_circuit::Gate;
        assert!(3 <= bits && bits < w);
        let top = bits - 1;
        let m = Matrix2::new(
            Complex64::new(0.6, 0.1),
            Complex64::new(-0.3, 0.8),
            Complex64::new(0.2, -0.4),
            Complex64::new(0.9, 0.05),
        );
        let mut m4 = Matrix4::identity();
        for d in 0..4 {
            m4.m[5 * d] = Complex64::cis(0.4 * (d + 1) as f64);
        }
        vec![
            Gate::H(0),
            Gate::T(top),
            Gate::H(top),
            Gate::CPhase {
                a: 0,
                b: w,
                theta: 0.7,
            },
            Gate::Rx {
                target: 1,
                theta: 0.4,
            },
            Gate::CNot {
                control: 0,
                target: top,
            },
            Gate::CUnitary {
                control: top,
                target: 0,
                matrix: m,
            },
            Gate::CNot {
                control: bits,
                target: 1,
            },
            Gate::CUnitary {
                control: w - 1,
                target: top,
                matrix: m,
            },
            Gate::Swap(0, top),
            Gate::CUnitary {
                control: w,
                target: 2,
                matrix: m,
            },
            Gate::CNot {
                control: w + 1,
                target: 0,
            },
            Gate::Ry {
                target: top,
                theta: -1.1,
            },
            Gate::Swap(top, 1),
            Gate::Y(2),
            Gate::MCPhase {
                qubits: vec![1, bits, w + 1],
                theta: 0.3,
            },
            Gate::Rz {
                target: bits,
                theta: 0.9,
            },
            Gate::CZ(top, w - 1),
            Gate::Unitary2 {
                a: 0,
                b: w,
                matrix: m4,
            },
            Gate::Sdg(0),
            Gate::H(1),
        ]
    }

    /// Applies [`local_run_zoo`] to a `len`-amplitude slice as one local
    /// run through `apply`, and gate at a time, at two nonzero rank
    /// offsets (rank bits `w`, `w + 1` = `01`, then `11`), and demands
    /// bitwise equal slices.
    pub fn local_run_matches_gate_at_a_time<S: AmpStorage>(
        len: usize,
        bits: u32,
        apply: impl Fn(&mut S, u64, &LocalRun),
    ) {
        let gates = local_run_zoo(len.trailing_zeros(), bits);
        let mut run = LocalRun::default();
        for g in &gates {
            run.push(g);
        }
        assert!(run.span_bits() <= bits);
        for offset in [len as u64, 3 * len as u64] {
            let before: S = diagonal_fixture(len);
            let mut want = before.clone();
            for g in &gates {
                apply_gate(&mut want, offset, g);
            }
            assert_ne!(
                want.to_complex_vec(),
                before.to_complex_vec(),
                "the run must act"
            );
            let mut got = before.clone();
            apply(&mut got, offset, &run);
            assert_bits_equal(
                &got,
                &want,
                &format!("len {len}, block bits {bits}, offset {offset}"),
            );
        }
    }

    fn large_fused_diagonal_matches_oracle<S: AmpStorage>() {
        // Above PAR_THRESHOLD the sweep takes the pool path; it must
        // agree bitwise with per-gate sweeps and with the scalar oracle.
        use qse_circuit::Gate;
        let gates = [
            Gate::T(3),
            Gate::CZ(5, 12),
            Gate::Phase {
                target: 9,
                theta: 1.7,
            },
        ];
        assert_diagonal_run::<S>(PAR_THRESHOLD * 2, 0, &gates);
    }

    /// Every diagonal gate kind on every placement class of a `w`-qubit
    /// local slice under a two-bit rank offset: qubits below the vector
    /// width (0–2), inside a kernel tile, between tile and `HALF_CHUNK`,
    /// above `HALF_CHUNK`, and in the offset (`w`: set, `w + 1`: clear).
    fn diagonal_gate_zoo(w: u32) -> Vec<qse_circuit::Gate> {
        use qse_circuit::Gate;
        use qse_math::Matrix4;
        let tile_top = crate::diagonal::TILE.trailing_zeros();
        let chunk_top = HALF_CHUNK.trailing_zeros();
        assert!(tile_top < chunk_top && chunk_top < w - 1);
        let singles = [0, 1, 2, 5, tile_top - 1, tile_top, chunk_top - 1, chunk_top, w - 1, w, w + 1];
        let pairs = [
            (0, 1),
            (2, 0),
            (1, 5),
            (5, tile_top - 1),
            (2, chunk_top - 1),
            (tile_top - 1, chunk_top),
            (chunk_top, tile_top),
            (chunk_top - 1, w - 1),
            (3, w),
            (w - 1, w + 1),
            (w, w + 1),
        ];
        let d2 = |t: f64| Matrix2::diagonal(Complex64::cis(t), Complex64::cis(-1.3 * t));
        let mut zoo = Vec::new();
        for (k, &q) in singles.iter().enumerate() {
            let theta = 0.21 + k as f64;
            zoo.extend([
                Gate::Z(q),
                Gate::S(q),
                Gate::Sdg(q),
                Gate::T(q),
                Gate::Tdg(q),
                Gate::Phase { target: q, theta },
                Gate::Rz { target: q, theta },
                Gate::Unitary1 {
                    target: q,
                    matrix: d2(theta),
                },
            ]);
        }
        for (k, &(a, b)) in pairs.iter().enumerate() {
            let theta = 0.37 + k as f64;
            let mut m4 = Matrix4::identity();
            for d in 0..4 {
                m4.m[5 * d] = Complex64::cis(theta * (d + 1) as f64);
            }
            zoo.extend([
                Gate::CZ(a, b),
                Gate::CPhase { a, b, theta },
                Gate::CUnitary {
                    control: a,
                    target: b,
                    matrix: d2(theta),
                },
                Gate::CUnitary {
                    control: b,
                    target: a,
                    matrix: d2(-theta),
                },
                Gate::Unitary2 { a, b, matrix: m4 },
            ]);
        }
        for (k, qubits) in [
            vec![0, 1, 2],
            vec![1, 6, chunk_top - 1],
            vec![2, chunk_top, w],
            vec![5, w - 1, w + 1],
        ]
        .into_iter()
        .enumerate()
        {
            zoo.push(Gate::MCPhase {
                qubits,
                theta: 0.9 + k as f64,
            });
        }
        zoo
    }

    fn diagonal_kernel_matches_oracle_and_gate_at_a_time<S: AmpStorage>() {
        for len in [PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let w = len.trailing_zeros();
            let offset = len as u64; // rank bits 0b01: qubit `w` set, `w + 1` clear
            let zoo = diagonal_gate_zoo(w);
            // Runs of one: every kind on every placement.
            for g in &zoo {
                assert_diagonal_run::<S>(len, offset, std::slice::from_ref(g));
            }
            // Runs of 2 and 19: strided picks, so kinds and placements mix.
            for k in [2usize, 19] {
                for start in (0..zoo.len()).step_by(29) {
                    let run: Vec<_> = (0..k)
                        .map(|j| zoo[(start + 31 * j) % zoo.len()].clone())
                        .collect();
                    assert_diagonal_run::<S>(len, offset, &run);
                }
            }
        }
        // Slices shorter than a lane group take the scalar path.
        for len in [1usize, 2, 4] {
            assert_diagonal_run::<S>(
                len,
                8,
                &[qse_circuit::Gate::CZ(0, 3), qse_circuit::Gate::T(3)],
            );
        }
    }

    fn unselected_amplitudes_are_untouched<S: AmpStorage>() {
        // (-0.0 - 5i)·(1 + 0i) = +0.0 - 5i: had the sweep multiplied the
        // amplitudes a gate does not select by one, their real parts
        // would read +0.0 afterwards.
        use crate::diagonal::CompiledDiagonal;
        use qse_circuit::Gate;
        let amp = Complex64::new(-0.0, -5.0);
        assert_eq!((amp * Complex64::ONE).re.to_bits(), 0.0f64.to_bits());
        for len in [16usize, PAR_THRESHOLD * 2] {
            let top = len.trailing_zeros() - 1;
            let gate = Gate::CPhase {
                a: 1,
                b: top,
                theta: 0.4,
            };
            let mut s = S::zeros(len);
            for i in 0..len {
                s.set(i, amp);
            }
            s.apply_fused_diagonal(0, &CompiledDiagonal::compile([&gate]));
            let mask = (1usize << 1) | (1 << top);
            for i in 0..len {
                let got = s.get(i);
                if i & mask == mask {
                    assert_ne!(got, amp, "selected amplitude {i} must change");
                } else {
                    assert_eq!(got.re.to_bits(), (-0.0f64).to_bits(), "re at {i}");
                    assert_eq!(got.im.to_bits(), amp.im.to_bits(), "im at {i}");
                }
            }
        }
    }

    fn swap_local_permutes<S: AmpStorage>() {
        let mut s: S = ramp(8);
        let before = s.to_complex_vec();
        s.swap_local(0, 2);
        for i in 0..8u64 {
            let j = qse_math::bits::swap_bits(i, 0, 2);
            assert_complex_close(s.get(i as usize), before[j as usize], 1e-12);
        }
        // involution
        s.swap_local(0, 2);
        for i in 0..8 {
            assert_complex_close(s.get(i), before[i], 1e-12);
        }
    }

    fn combine_is_linear<S: AmpStorage>() {
        let mut s: S = ramp(4);
        let before = s.to_complex_vec();
        let theirs: Vec<u8> = (0..4)
            .flat_map(|i| kernel::amp_to_wire(Complex64::new(10.0 + i as f64, 0.5)))
            .collect();
        let a = Complex64::new(0.25, 0.0);
        let b = Complex64::new(0.0, 1.0);
        s.apply_distributed_1q_range(a, b, &theirs, 0, None);
        for i in 0..4 {
            let t = Complex64::new(10.0 + i as f64, 0.5);
            assert_complex_close(s.get(i), a * before[i] + b * t, 1e-12);
        }
        // controlled variant: only bit-0 = 1 slots change
        let mut s: S = ramp(4);
        s.apply_distributed_1q_range(a, b, &theirs, 0, Some(0));
        assert_complex_close(s.get(0), before[0], 1e-12);
        assert_complex_close(s.get(2), before[2], 1e-12);
        let t1 = Complex64::new(11.0, 0.5);
        assert_complex_close(s.get(1), a * before[1] + b * t1, 1e-12);
    }

    fn pack_copy_roundtrip<S: AmpStorage>() {
        let s: S = ramp(16);
        let mut wire = vec![0xAAu8; 3]; // pack appends
        s.pack_range(4, 8, &mut wire);
        assert_eq!(wire.len(), 3 + 8 * AMP_BYTES);
        let mut t = S::zeros(16);
        t.copy_from_f64_range(&wire[3..], 4);
        for i in 0..16 {
            let want = if (4..12).contains(&i) { s.get(i) } else { Complex64::ZERO };
            assert_eq!(t.get(i), want, "amplitude {i}");
        }
    }

    fn half_bit_pack_write<S: AmpStorage>() {
        let s: S = ramp(16);
        for q in 0..4u32 {
            for v in 0..2u64 {
                let mut half = Vec::new();
                s.pack_half_bit_range(q, v, 0, 8, &mut half);
                assert_eq!(half.len(), 8 * AMP_BYTES);
                // Writing the packed half back is a no-op.
                let mut t = s.clone();
                t.write_half_bit_range(q, v, &half, 0);
                assert_bits_equal(&t, &s, "half-bit write-back of own half");
                // Into a zeroed slice it fills exactly the bit-q = v slots.
                let mut z = S::zeros(16);
                z.write_half_bit_range(q, v, &half, 0);
                for i in 0..16usize {
                    let want = if ((i >> q) & 1) as u64 == v { s.get(i) } else { Complex64::ZERO };
                    assert_eq!(z.get(i), want, "q {q} v {v} amplitude {i}");
                }
            }
        }
    }

    fn init_basis_places_one<S: AmpStorage>() {
        let mut s = S::zeros(8);
        super::init_basis(&mut s, 8, 11); // local index 3
        assert_complex_close(s.get(3), Complex64::ONE, 1e-15);
        assert_close(s.norm_sqr_sum(), 1.0, 1e-15);
        super::init_basis(&mut s, 8, 3); // outside this slice
        assert_close(s.norm_sqr_sum(), 0.0, 1e-15);
    }

    fn large_parallel_sweep_matches_small<S: AmpStorage>() {
        // Above PAR_THRESHOLD the kernels take the Rayon path; verify it
        // agrees with the sequential one via the H-twice identity and a
        // norm check.
        let len = PAR_THRESHOLD * 2;
        let mut s = S::zeros(len);
        s.set(0, Complex64::ONE);
        for q in [0u32, 5, (len.trailing_zeros() - 1)] {
            s.apply_pairs(q, &hadamard(), None);
        }
        assert_close(s.norm_sqr_sum(), 1.0, 1e-9);
        for q in [(len.trailing_zeros() - 1), 5, 0u32] {
            s.apply_pairs(q, &hadamard(), None);
        }
        assert_close(s.norm_sqr_sum(), 1.0, 1e-9);
        assert_complex_close(s.get(0), Complex64::ONE, 1e-9);
    }
}
