//! The paper's §4 layout question at kernel level: the same scalar
//! Hadamard butterfly (target 10, n = 20, one thread) over split `re` /
//! `im` arrays — QuEST's layout and the engine's — and over interleaved
//! complex values. Independent of the engine; the engine-level record of
//! both layouts is committed at `aeee400` (EXPERIMENTS.md).

use qse_math::Complex64;
use qse_util::bench::BenchGroup;
use std::f64::consts::FRAC_1_SQRT_2;
use std::hint::black_box;

const N_QUBITS: u32 = 20;
const STRIDE: usize = 1 << 10;

fn main() {
    let len = 1usize << N_QUBITS;
    let mut group = BenchGroup::new("layout_hadamard_sweep");
    group.throughput_bytes(32u64 << N_QUBITS);
    let (mut re, mut im) = (vec![0.5f64; len], vec![-0.25f64; len]);
    group.bench("split", || {
        for (rb, ib) in re
            .chunks_exact_mut(2 * STRIDE)
            .zip(im.chunks_exact_mut(2 * STRIDE))
        {
            let ((rl, rh), (il, ih)) = (rb.split_at_mut(STRIDE), ib.split_at_mut(STRIDE));
            for k in 0..STRIDE {
                let (r0, i0, r1, i1) = (rl[k], il[k], rh[k], ih[k]);
                rl[k] = (r0 + r1) * FRAC_1_SQRT_2;
                il[k] = (i0 + i1) * FRAC_1_SQRT_2;
                rh[k] = (r0 - r1) * FRAC_1_SQRT_2;
                ih[k] = (i0 - i1) * FRAC_1_SQRT_2;
            }
        }
        black_box((&re, &im));
    });
    let mut amps = vec![Complex64::new(0.5, -0.25); len];
    group.bench("interleaved", || {
        for block in amps.chunks_exact_mut(2 * STRIDE) {
            let (lo, hi) = block.split_at_mut(STRIDE);
            for k in 0..STRIDE {
                let (a, b) = (lo[k], hi[k]);
                lo[k] = (a + b).scale(FRAC_1_SQRT_2);
                hi[k] = (a - b).scale(FRAC_1_SQRT_2);
            }
        }
        black_box(&amps);
    });
    group.finish();
}
