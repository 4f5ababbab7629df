//! Measured ablation — diagonal-gate fusion on the real engine.
//!
//! The model-level ablation (`ablation_fusion`) *prices* fusion with the
//! analytic ARCHER2 model; this binary *measures* it on this host.
//! The same QFT circuit runs twice through `SingleState`:
//!
//! * unfused — [`SingleState::run_unfused`], one sweep per gate
//!   (QuEST's gate-at-a-time execution);
//! * fused — [`SingleState::run`], where every run of consecutive local
//!   gates (diagonal or not) is one cache-blocked pass.
//!
//! A QFT on n qubits carries n(n−1)/2 controlled phases between its
//! Hadamards; every run of them, with the Hadamards whose targets lie
//! below the block bit, becomes one pass instead of one sweep per gate —
//! the memory-bandwidth win the model's fusion ablation prices. Writes `results/bench_fusion_measured.json` with
//! per-width medians and the fused-over-unfused speedup.

use qse_circuit::qft::qft;
use qse_math::Complex64;
use qse_statevec::{AmpStorage, SingleState, SoaStorage};
use qse_util::bench::BenchGroup;
use qse_util::json::{Json, ToJson};

/// Resets `st` to |0…0⟩ in place (no reallocation between iterations).
fn reset(st: &mut SingleState<SoaStorage>) {
    st.storage_mut().fill_zero();
    st.storage_mut().set(0, Complex64::ONE);
}

fn main() {
    let widths: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("qubit count"))
        .collect();
    let widths = if widths.is_empty() {
        vec![20, 22]
    } else {
        widths
    };

    let mut group = BenchGroup::new("fusion_measured");
    group.sample_size(7);
    let mut rows: Vec<Json> = Vec::new();

    for &n in &widths {
        let circuit = qft(n);
        let mut st: SingleState<SoaStorage> = SingleState::zero_state(n);
        group.bench(format!("qft{n}_unfused"), || {
            reset(&mut st);
            st.run_unfused(std::hint::black_box(&circuit));
            std::hint::black_box(st.amplitude(1));
        });
        group.bench(format!("qft{n}_fused"), || {
            reset(&mut st);
            st.run(std::hint::black_box(&circuit));
            std::hint::black_box(st.amplitude(1));
        });
    }

    let results = group.finish();
    // Enrich the standard bench JSON with per-width speedups — the
    // quantity the fusion ablation is actually about.
    for (i, &n) in widths.iter().enumerate() {
        let unfused = &results[2 * i];
        let fused = &results[2 * i + 1];
        let speedup = unfused.median_s / fused.median_s;
        println!(
            "qft{n}: unfused {:.3} ms, fused {:.3} ms -> speedup {speedup:.2}x",
            unfused.median_s * 1e3,
            fused.median_s * 1e3,
        );
        rows.push(Json::object([
            ("n_qubits", (n as u64).to_json()),
            ("unfused_median_s", unfused.median_s.to_json()),
            ("fused_median_s", fused.median_s.to_json()),
            ("speedup", speedup.to_json()),
        ]));
    }
    let dir = std::env::var_os("QSE_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "results".into());
    let doc = Json::object([
        ("group", "fusion_measured".to_json()),
        ("results", results.to_json()),
        ("speedups", Json::Arr(rows)),
    ]);
    let path = dir.join("bench_fusion_measured.json");
    if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, doc.pretty()).is_ok() {
        println!("[saved {}]", path.display());
    }
}
