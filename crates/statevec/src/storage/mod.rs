//! Amplitude storage: the hot kernels of the single-address-space and
//! distributed engines.
//!
//! QuEST stores the statevector as two separate `qreal` arrays (real and
//! imaginary parts) — the structure-of-arrays layout, [`SoaStorage`], and
//! the only one here. The paper's future work (§4) proposes
//! "reimplement\[ing\] QuEST's core data-structures using a complex data
//! type rather than separate real and imaginary arrays, in order to
//! improve data locality". Measured on this engine's kernels the
//! interleaved layout was slower on 10 of 14 (the kernel record committed
//! at `aeee400`), so the engine keeps the SoA layout alone.
//!
//! All kernels treat the storage as the *local* slice of a (possibly
//! distributed) register: indices are local amplitude indices, and the
//! diagonal sweep takes a global-index offset so its selections can see
//! rank bits.

pub(crate) mod kernel;
mod soa;

pub use soa::SoaStorage;

pub use qse_math::Matrix4;

/// Minimum length before kernels fan out to the worker pool. Below this
/// the fork-join overhead dwarfs the sweep.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// Minimum payload amplitudes before a range kernel fans out. A range
/// kernel runs once per wire chunk, on a rank thread that already has a
/// core to itself whenever ranks fill the machine: a pool dispatch then
/// buys a wake-up, a join and a third thread to be preempted by, chunk
/// after chunk. Only a chunk of several MiB is worth that.
pub const RANGE_PAR_THRESHOLD: usize = 1 << 18;

/// Bytes per amplitude on the wire: little-endian `re`, then `im`
/// ([`BYTES_PER_AMP`](qse_circuit::classify::BYTES_PER_AMP)).
#[expect(clippy::cast_possible_truncation, reason = "16 fits every usize")]
pub const AMP_BYTES: usize = qse_circuit::classify::BYTES_PER_AMP as usize;

/// Number of whole amplitudes in a wire payload.
///
/// # Panics
/// Panics on a payload that cuts an amplitude: the exchange layer hands
/// the kernels whole amplitudes only.
fn wire_amps(payload: &[u8]) -> usize {
    assert_eq!(
        payload.len() % AMP_BYTES,
        0,
        "payload must hold whole amplitudes"
    );
    payload.len() / AMP_BYTES
}

/// Amplitudes per parallel work item (and per half-block sub-chunk of a
/// single top-qubit sweep). One definition for every sweep so the chunk
/// policies — and the affinity partition built on them — can never
/// drift apart.
pub const HALF_CHUNK: usize = 4096;

/// Amplitudes per block of a local run ([`SoaStorage::apply_local_run`]):
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

/// Appends `n` values to `out`, `f(a..b)` yielding those of positions
/// `a..b` in order: over the worker pool in [`HALF_CHUNK`] work items
/// from [`PAR_THRESHOLD`] values up, as one item on the caller below.
/// Each value is written once, straight into `out`'s spare capacity.
pub(crate) fn extend_over_pool<T: Send, I: IntoIterator<Item = T>>(
    out: &mut Vec<T>,
    n: usize,
    f: impl Fn(std::ops::Range<usize>) -> I + Sync,
) {
    let item = if n >= PAR_THRESHOLD {
        HALF_CHUNK
    } else {
        n.max(1)
    };
    qse_util::parallel::parallel_extend(out, n, item, f);
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index arithmetic is the subject under test
pub(crate) mod conformance {
    //! Conformance suite of the storage kernels.

    use super::*;
    use crate::schedule::LocalRun;
    use qse_math::approx::{assert_close, assert_complex_close};
    use qse_math::{Complex64, Matrix2};
    use qse_util::Bytes;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn hadamard() -> Matrix2 {
        let h = Complex64::real(FRAC_1_SQRT_2);
        Matrix2::new(h, h, h, -h)
    }

    fn ramp(len: usize) -> SoaStorage {
        let mut s = SoaStorage::zeros(len);
        for i in 0..len {
            s.set(i, Complex64::new(i as f64, -(i as f64) / 2.0));
        }
        s
    }

    pub fn run_all() {
        basic_accessors();
        pairs_hadamard();
        pairs_every_qubit_roundtrip();
        pairs_controlled();
        large_fused_diagonal_matches_oracle();
        diagonal_kernel_matches_oracle_and_gate_at_a_time();
        unselected_amplitudes_are_untouched();
        swap_local_permutes();
        combine_is_linear();
        pack_copy_roundtrip();
        half_bit_pack_write();
        basis_places_one();
        large_parallel_sweep_matches_small();
        controlled_pairs_multi_chunk();
        large_swap_matches_permutation();
        payload_kernels_chunked_match_whole();
        swap_scatter_matches_its_definition();
        pack_chunked_matches_to_f64_vec();
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
    fn assert_bits_equal(a: &SoaStorage, b: &SoaStorage, ctx: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    /// Layout-agnostic reference for a controlled pair sweep: per-element
    /// control test, `Complex64` operator arithmetic.
    fn naive_controlled(s: &mut SoaStorage, q: u32, m: &Matrix2, c: u32) {
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

    fn controlled_pairs_multi_chunk() {
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
                (0u32, 5u32),   // control above a bottom target
                (5, 2),         // control below target, both mid
                (top - 1, top), // blocked path at max stride, control above
                (top, 3),       // single-block path, control far below
                (top, top - 1), // single-block path, control just below
                (2, top),       // top control selects half the blocks
            ] {
                let mut got: SoaStorage = ramp(len);
                got.apply_pairs(q, &m, Some(c));
                let mut want: SoaStorage = ramp(len);
                naive_controlled(&mut want, q, &m, c);
                for i in 0..len {
                    assert_complex_close(got.get(i), want.get(i), 1e-9);
                }
            }
        }
    }

    fn large_swap_matches_permutation() {
        // The parallel chunked swap is a pure permutation, so it must
        // match the bit-swapped index map exactly (bitwise).
        let len = PAR_THRESHOLD * 2;
        let top = len.trailing_zeros() - 1;
        for &(a, b) in &[(0u32, 3u32), (0, top), (5, top), (top - 1, top), (2, 9)] {
            let before: SoaStorage = ramp(len);
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
    /// amplitudes — and demands bitwise equal states. Chunks go in
    /// order, as both exchange modes feed them.
    fn assert_chunked_matches_whole(
        len: usize,
        payload: &Bytes,
        what: &str,
        mut kernel: impl FnMut(&mut SoaStorage, usize, Bytes),
    ) {
        let mut whole: SoaStorage = ramp(len);
        kernel(&mut whole, 0, payload.clone());
        for cap in caps(payload.len()) {
            let mut chunked: SoaStorage = ramp(len);
            let mut cursor = crate::dist::AmpCursor::default();
            for r in cut(payload.len(), cap) {
                cursor.feed(r.start, &payload.slice(r), |start, amps| {
                    kernel(&mut chunked, start, amps)
                });
            }
            assert_bits_equal(&whole, &chunked, &format!("{what}, len {len}, cap {cap}"));
        }
    }

    fn payload_kernels_chunked_match_whole() {
        // Any dense 4×4 will do: the checks are bitwise, not unitary.
        let m4 = Matrix4::new(std::array::from_fn(|k| {
            Complex64::new(0.1 * k as f64 - 0.4, 0.05 * (k * k % 7) as f64)
        }));
        let c_mine = Complex64::new(0.6, -0.2);
        let c_theirs = Complex64::new(0.1, 0.8);
        // Slices straddling RANGE_PAR_THRESHOLD: the one-piece cap takes
        // the pool path there, every smaller cap the sequential one.
        for len in [
            64,
            RANGE_PAR_THRESHOLD / 2,
            RANGE_PAR_THRESHOLD,
            RANGE_PAR_THRESHOLD * 2,
        ] {
            let top = len.trailing_zeros() - 1;
            let theirs = Bytes::from(peer_payload(len));
            for control in [None, Some(2u32), Some(top)] {
                assert_chunked_matches_whole(
                    len,
                    &theirs,
                    &format!("1q combine, control {control:?}"),
                    |s, start, p| {
                        s.apply_distributed_1q_range(c_mine, c_theirs, &p, start, control)
                    },
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
                    assert_chunked_matches_whole(
                        len,
                        &theirs,
                        &format!("2q combine, a {q} g {bit}"),
                        |s, start, p| {
                            pairs.feed(start, p, |at, lo, hi| {
                                s.apply_distributed_2q_range(q, bit, &m4, lo, hi, at)
                            })
                        },
                    );
                    assert_chunked_matches_whole(
                        len,
                        &theirs,
                        &format!("swap scatter, lo {q} g {bit}"),
                        |s, start, p| s.apply_distributed_swap_range(q, bit, &p, start),
                    );
                    assert_chunked_matches_whole(
                        len,
                        &theirs.slice(0..theirs.len() / 2),
                        &format!("half-bit write-back, q {q} v {bit}"),
                        |s, start, p| s.write_half_bit_range(q, bit, &p, start),
                    );
                }
            }
            assert_chunked_matches_whole(len, &theirs, "block copy", |s, start, p| {
                s.copy_from_f64_range(&p, start)
            });
        }
    }

    /// The SWAP scatter on any sub-range, for every `lo`, against its
    /// definition amplitude by amplitude: peer amplitude `i` with bit
    /// `lo` equal to `g` lands at `i ^ 2^lo`, and every other slot keeps
    /// its value.
    fn swap_scatter_matches_its_definition() {
        let len = 64usize;
        let payload = peer_payload(len);
        for lo in 0..len.trailing_zeros() {
            for g in [0u64, 1] {
                for (start, n) in [(0usize, len), (0, 1), (3, 9), (5, 30), (17, 47), (63, 1)] {
                    let mut s = ramp(len);
                    let bytes = &payload[start * AMP_BYTES..(start + n) * AMP_BYTES];
                    s.apply_distributed_swap_range(lo, g, bytes, start);
                    let mut want = ramp(len);
                    for i in (start..start + n).filter(|i| ((i >> lo) & 1) as u64 == g) {
                        want.set(i ^ (1 << lo), kernel::wire_amp(&payload[i * AMP_BYTES..]));
                    }
                    assert_bits_equal(&want, &s, &format!("lo {lo} g {g} range {start}+{n}"));
                }
            }
        }
    }

    fn pack_chunked_matches_to_f64_vec() {
        use crate::dist::pack_wire_bytes;
        for len in [64, PAR_THRESHOLD / 2, PAR_THRESHOLD * 2] {
            let s: SoaStorage = ramp(len);
            let want: Vec<u8> = s
                .to_f64_vec()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            assert_eq!(want.len(), len * AMP_BYTES);
            for cap in caps(want.len()) {
                let mut got = Vec::new();
                for r in cut(want.len(), cap) {
                    let before = got.len();
                    pack_wire_bytes(r.clone(), &mut got, |start, n, out| {
                        s.pack_range(start, n, out)
                    });
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

    fn basic_accessors() {
        let mut s = SoaStorage::zeros(8);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.get(3), Complex64::ZERO);
        s.set(3, Complex64::new(1.0, 2.0));
        assert_eq!(s.get(3), Complex64::new(1.0, 2.0));
        assert_close(s.norm_sqr_sum(), 5.0, 1e-12);
        s.fill_zero();
        assert_close(s.norm_sqr_sum(), 0.0, 1e-12);
    }

    fn pairs_hadamard() {
        // |0> --H on qubit 0--> (|0>+|1>)/√2
        let mut s = SoaStorage::zeros(4);
        s.set(0, Complex64::ONE);
        s.apply_pairs(0, &hadamard(), None);
        assert_complex_close(s.get(0), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(1), Complex64::real(FRAC_1_SQRT_2), 1e-12);
        assert_complex_close(s.get(2), Complex64::ZERO, 1e-12);
    }

    fn pairs_every_qubit_roundtrip() {
        // H twice on each qubit restores the state.
        let s0: SoaStorage = ramp(32);
        for q in 0..5 {
            let mut s = s0.clone();
            s.apply_pairs(q, &hadamard(), None);
            s.apply_pairs(q, &hadamard(), None);
            for i in 0..32 {
                assert_complex_close(s.get(i), s0.get(i), 1e-9);
            }
        }
    }

    fn pairs_controlled() {
        // X on qubit 0 controlled by qubit 1: only indices with bit1 set flip.
        let x = Matrix2::new(
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        );
        let mut s: SoaStorage = ramp(8);
        let before = s.to_complex_vec();
        s.apply_pairs(0, &x, Some(1));
        assert_complex_close(s.get(0), before[0], 1e-12); // bit1=0 untouched
        assert_complex_close(s.get(1), before[1], 1e-12);
        assert_complex_close(s.get(2), before[3], 1e-12); // |10> <- |11>
        assert_complex_close(s.get(3), before[2], 1e-12);
        assert_complex_close(s.get(6), before[7], 1e-12);
    }

    /// Kernel fixture: zeros of both signs, exact and inexact values.
    fn diagonal_fixture(len: usize) -> SoaStorage {
        let mut s = SoaStorage::zeros(len);
        for i in 0..len {
            let re = if i % 11 == 3 {
                -0.0
            } else {
                ((i * 7) % 23) as f64 * 0.125 - 1.0
            };
            let im = match i % 13 {
                4 => 0.0,
                9 => -0.0,
                _ => 0.3 - (i % 5) as f64,
            };
            s.set(i, Complex64::new(re, im));
        }
        s
    }

    /// Applies `gates` to the fixture fused and gate at a time, and
    /// asserts both equal the scalar oracle bit for bit.
    fn assert_diagonal_run(len: usize, offset: u64, gates: &[qse_circuit::Gate]) {
        use crate::diagonal::{oracle_apply, CompiledDiagonal};
        let before: SoaStorage = diagonal_fixture(len);
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
    fn apply_gate(s: &mut SoaStorage, offset: u64, gate: &qse_circuit::Gate) {
        use crate::diagonal::CompiledDiagonal;
        use qse_circuit::Gate;
        if gate.is_diagonal() {
            return s.apply_fused_diagonal(offset, &CompiledDiagonal::compile([gate]));
        }
        match *gate {
            Gate::Swap(a, b) => return s.swap_local(a, b),
            Gate::Unitary2 { a, b, ref matrix } => return s.apply_orbit4(a, b, matrix),
            _ => {}
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
    /// rank bits `w` and `w + 1`; and non-diagonal `Unitary2` gates in
    /// both qubit orders with both qubits in one lane group (0, 1), in a
    /// tile (2 to 5, or as high as the block allows), and at the block
    /// bit with a low qubit in a lane or not.
    fn local_run_zoo(w: u32, bits: u32) -> Vec<qse_circuit::Gate> {
        use qse_circuit::Gate;
        assert!(3 <= bits && bits < w);
        let top = bits - 1;
        let (tile_lo, tile_hi) = (2.min(bits - 2), 5.min(top));
        let mut rng = qse_util::rng::StdRng::seed_from_u64(u64::from(w * 64 + bits));
        let mut u2 = |a, b| Gate::Unitary2 {
            a,
            b,
            matrix: qse_circuit::random::random_unitary2(&mut rng),
        };
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
            u2(top, 3.min(top - 1)),
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
            u2(0, 1),
            Gate::CUnitary {
                control: top,
                target: 0,
                matrix: m,
            },
            u2(tile_hi, tile_lo),
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
            u2(top, 0),
            Gate::CUnitary {
                control: w,
                target: 2,
                matrix: m,
            },
            u2(top - 1, top),
            Gate::CNot {
                control: w + 1,
                target: 0,
            },
            Gate::Ry {
                target: top,
                theta: -1.1,
            },
            Gate::Swap(top, 1),
            u2(1, 0),
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
            u2(tile_lo, tile_hi),
            Gate::H(1),
            u2(2.min(top - 1), top),
        ]
    }

    /// Applies [`local_run_zoo`] to a `len`-amplitude slice as one local
    /// run through `apply`, and gate at a time, at two nonzero rank
    /// offsets (rank bits `w`, `w + 1` = `01`, then `11`), and demands
    /// bitwise equal slices.
    pub fn local_run_matches_gate_at_a_time(
        len: usize,
        bits: u32,
        apply: impl Fn(&mut SoaStorage, u64, &LocalRun),
    ) {
        let gates = local_run_zoo(len.trailing_zeros(), bits);
        let mut run = LocalRun::default();
        for g in &gates {
            run.push(g);
        }
        assert!(run.span_bits() <= bits);
        for offset in [len as u64, 3 * len as u64] {
            let before: SoaStorage = diagonal_fixture(len);
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

    fn large_fused_diagonal_matches_oracle() {
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
        assert_diagonal_run(PAR_THRESHOLD * 2, 0, &gates);
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
        let singles = [
            0,
            1,
            2,
            5,
            tile_top - 1,
            tile_top,
            chunk_top - 1,
            chunk_top,
            w - 1,
            w,
            w + 1,
        ];
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

    fn diagonal_kernel_matches_oracle_and_gate_at_a_time() {
        for len in [PAR_THRESHOLD / 2, PAR_THRESHOLD, PAR_THRESHOLD * 2] {
            let w = len.trailing_zeros();
            let offset = len as u64; // rank bits 0b01: qubit `w` set, `w + 1` clear
            let zoo = diagonal_gate_zoo(w);
            // Runs of one: every kind on every placement.
            for g in &zoo {
                assert_diagonal_run(len, offset, std::slice::from_ref(g));
            }
            // Runs of 2 and 19: strided picks, so kinds and placements mix.
            for k in [2usize, 19] {
                for start in (0..zoo.len()).step_by(29) {
                    let run: Vec<_> = (0..k)
                        .map(|j| zoo[(start + 31 * j) % zoo.len()].clone())
                        .collect();
                    assert_diagonal_run(len, offset, &run);
                }
            }
        }
        // Slices shorter than a lane group take the scalar path.
        for len in [1usize, 2, 4] {
            assert_diagonal_run(
                len,
                8,
                &[qse_circuit::Gate::CZ(0, 3), qse_circuit::Gate::T(3)],
            );
        }
    }

    fn unselected_amplitudes_are_untouched() {
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
            let mut s = SoaStorage::zeros(len);
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

    fn swap_local_permutes() {
        let mut s: SoaStorage = ramp(8);
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

    fn combine_is_linear() {
        let mut s: SoaStorage = ramp(4);
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
        let mut s: SoaStorage = ramp(4);
        s.apply_distributed_1q_range(a, b, &theirs, 0, Some(0));
        assert_complex_close(s.get(0), before[0], 1e-12);
        assert_complex_close(s.get(2), before[2], 1e-12);
        let t1 = Complex64::new(11.0, 0.5);
        assert_complex_close(s.get(1), a * before[1] + b * t1, 1e-12);
    }

    fn pack_copy_roundtrip() {
        let s: SoaStorage = ramp(16);
        let mut wire = vec![0xAAu8; 3]; // pack appends
        s.pack_range(4, 8, &mut wire);
        assert_eq!(wire.len(), 3 + 8 * AMP_BYTES);
        let mut t = SoaStorage::zeros(16);
        t.copy_from_f64_range(&wire[3..], 4);
        for i in 0..16 {
            let want = if (4..12).contains(&i) {
                s.get(i)
            } else {
                Complex64::ZERO
            };
            assert_eq!(t.get(i), want, "amplitude {i}");
        }
    }

    fn half_bit_pack_write() {
        let s: SoaStorage = ramp(16);
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
                let mut z = SoaStorage::zeros(16);
                z.write_half_bit_range(q, v, &half, 0);
                for i in 0..16usize {
                    let want = if ((i >> q) & 1) as u64 == v {
                        s.get(i)
                    } else {
                        Complex64::ZERO
                    };
                    assert_eq!(z.get(i), want, "q {q} v {v} amplitude {i}");
                }
            }
        }
    }

    fn basis_places_one() {
        let s = SoaStorage::basis(8, 8, 11); // local index 3
        assert_complex_close(s.get(3), Complex64::ONE, 1e-15);
        assert_close(s.norm_sqr_sum(), 1.0, 1e-15);
        for outside in [3, 16, u64::MAX] {
            assert_close(SoaStorage::basis(8, 8, outside).norm_sqr_sum(), 0.0, 1e-15);
        }
    }

    /// A fixture of `len` amplitudes whose parts cycle through the bit
    /// patterns a codec could lose — NaNs with payload bits (quiet,
    /// signalling, negative), ±0.0, subnormals, ±∞ — between ordinary
    /// values, with `re` and `im` out of step. `shift` rotates the cycle,
    /// so two fixtures differ at every index.
    fn codec_fixture(len: usize, shift: usize) -> SoaStorage {
        const SPECIAL: [u64; 9] = [
            0x7ff8_0000_dead_beef,
            0x7ff0_0000_0000_0001,
            0xfff8_0000_0000_1234,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800f_ffff_ffff_ffff,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
        ];
        let part = |k: usize| match k % 13 {
            j if j < SPECIAL.len() => f64::from_bits(SPECIAL[j]),
            j => k as f64 * 0.375 - j as f64,
        };
        let mut s = SoaStorage::zeros(len);
        for i in 0..len {
            s.set(i, Complex64::new(part(i + shift), part(i + shift + 5)));
        }
        s
    }

    /// Whether amplitudes `range` of two slices hold the same bit patterns.
    fn same_bits(a: (&[f64], &[f64]), b: (&[f64], &[f64]), range: std::ops::Range<usize>) -> bool {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        bits(&a.0[range.clone()]) == bits(&b.0[range.clone()])
            && bits(&a.1[range.clone()]) == bits(&b.1[range])
    }

    /// The pack loop [`SoaStorage::pack_range`] replaced, kept as its
    /// oracle: `extend` over one [`kernel::amp_to_wire`] per amplitude.
    fn pack_oracle(re: &[f64], im: &[f64], out: &mut Vec<u8>) {
        out.extend(
            re.iter()
                .zip(im)
                .flat_map(|(&r, &i)| kernel::amp_to_wire(Complex64::new(r, i))),
        );
    }

    /// [`SoaStorage::pack_range`] against [`pack_oracle`], bytes equal,
    /// and the round trip through [`SoaStorage::copy_from_f64_range`],
    /// `to_bits` equal with one amplitude either side of the range
    /// untouched: ranges of 0–9 amplitudes, 2¹⁶ ± 1 and
    /// [`RANGE_PAR_THRESHOLD`] + 3, at starts 0, 1 and 5, appended after
    /// 0 or 3 bytes already in `out` and unpacked from a payload at an
    /// odd address, on amplitudes from [`codec_fixture`].
    pub fn wire_codec_matches_the_extend_loop() {
        let len = (RANGE_PAR_THRESHOLD + 3).next_power_of_two();
        let s = codec_fixture(len, 0);
        let base = codec_fixture(len, 7);
        let lens = (0..=9).chain([
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            RANGE_PAR_THRESHOLD + 3,
        ]);
        for n in lens {
            for start in [0usize, 1, 5] {
                let range = start..start + n;
                for held in [0usize, 3] {
                    let what = format!("{n} amplitudes from {start} after {held} bytes");
                    let mut got = vec![0xA5u8; held];
                    s.pack_range(start, n, &mut got);
                    let mut want = vec![0xA5u8; held];
                    let (re, im) = s.planes();
                    pack_oracle(&re[range.clone()], &im[range.clone()], &mut want);
                    assert!(got == want, "pack: {what}");

                    let mut back = base.clone();
                    back.copy_from_f64_range(&got[held..], start);
                    assert!(
                        same_bits(back.planes(), s.planes(), range.clone()),
                        "round trip: {what}"
                    );
                    let before = start.saturating_sub(1)..start;
                    let after = start + n..(start + n + 1).min(len);
                    for outside in [before, after] {
                        assert!(
                            same_bits(back.planes(), base.planes(), outside),
                            "unpack beyond the range: {what}"
                        );
                    }
                }
            }
        }
    }

    /// The scalar orbit loop the vectorized kernel replaced, kept as its
    /// oracle: per orbit, a `get` and a `set` per amplitude through
    /// `insert_two_zero_bits`, and [`Matrix4::apply`].
    fn orbit4_oracle(s: &mut SoaStorage, a: u32, b: u32, m: &Matrix4) {
        for k in 0..s.len() as u64 / 4 {
            let base = qse_math::bits::insert_two_zero_bits(k, a, b);
            let idx = |bb: u64, aa: u64| crate::ix(base | (aa << a) | (bb << b));
            let orbit = [idx(0, 0), idx(0, 1), idx(1, 0), idx(1, 1)];
            let out = m.apply(orbit.map(|i| s.get(i)));
            for (i, v) in orbit.into_iter().zip(out) {
                s.set(i, v);
            }
        }
    }

    /// [`SoaStorage::apply_orbit4`] against [`orbit4_oracle`], bit for
    /// bit, for every ordered placement `(a, b)` on slices of 2², 2³ and
    /// 2⁵ amplitudes and on slices just below, at and above
    /// [`PAR_THRESHOLD`] (the sequential, the pooled and the top-qubit
    /// halves paths). The fixture holds `+0.0` and `−0.0` parts, and the
    /// second matrix has zero entries, whose products are signed zeros
    /// that the rows' `0.0` start must absorb as `Matrix4::apply` does.
    pub fn orbit4_matches_the_scalar_loop() {
        let dense = Matrix4::new(std::array::from_fn(|k| {
            Complex64::new(0.1 * k as f64 - 0.4, 0.05 * (k * k % 7) as f64 - 0.15)
        }));
        let mut sparse = Matrix4::swap();
        sparse.m[0] = Complex64::new(0.0, -0.5);
        sparse.m[15] = Complex64::new(-0.75, 0.0);
        for len in [
            4usize,
            8,
            32,
            PAR_THRESHOLD / 2,
            PAR_THRESHOLD,
            PAR_THRESHOLD * 2,
        ] {
            let w = len.trailing_zeros();
            let before = diagonal_fixture(len);
            for a in 0..w {
                for b in (0..w).filter(|&b| b != a) {
                    for m in [&dense, &sparse] {
                        let mut got = before.clone();
                        got.apply_orbit4(a, b, m);
                        let mut want = before.clone();
                        orbit4_oracle(&mut want, a, b, m);
                        assert_bits_equal(&got, &want, &format!("len {len}, a {a}, b {b}"));
                    }
                }
            }
        }
    }

    fn large_parallel_sweep_matches_small() {
        // Above PAR_THRESHOLD the kernels take the pool path; verify it
        // agrees with the sequential one via the H-twice identity and a
        // norm check.
        let len = PAR_THRESHOLD * 2;
        let mut s = SoaStorage::zeros(len);
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
