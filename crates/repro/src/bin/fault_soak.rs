//! Fault-injection soak: N seeded fault plans over the 16-qubit QFT at
//! R = 4.
//!
//! Three out of every four plans are recoverable by construction and
//! must complete **bit-for-bit identical** to the fault-free run; every
//! fourth plan is unrecoverable (permanent corruption or exhausted
//! retries) and must surface a **typed** `CommError` — never a hang,
//! never a panic. Exchange modes alternate per plan, shifted by one every
//! four plans, so both transports soak recoverable and unrecoverable
//! plans alike.
//!
//! Every plan's seed is printed *before* it runs, so whatever goes wrong
//! — mismatch, unexpected error, even a crash — the seed needed for a
//! deterministic replay (`qse run --qubits 16 --ranks 4 --faults
//! seed=N`) is already on the terminal. Any failure exits nonzero.
//!
//! Usage: `fault_soak [n_plans] [base_seed]` (defaults: 10 plans,
//! seeds from 1000).

use qse_circuit::qft::qft;
use qse_comm::chunking::ExchangeMode;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_math::Complex64;

const QUBITS: u32 = 16;
const RANKS: u64 = 4;

const MODES: [(&str, ExchangeMode); 2] = [
    ("blocking", ExchangeMode::Blocking),
    ("non-blocking", ExchangeMode::NonBlocking),
];

fn config(mode: usize) -> SimConfig {
    let mut cfg = SimConfig::default_for(RANKS);
    cfg.exchange = MODES[mode].1;
    cfg
}

/// First amplitude index where the two states differ in bit pattern.
fn first_bit_mismatch(a: &[Complex64], b: &[Complex64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(usize::MAX);
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.re.to_bits() != y.re.to_bits() || x.im.to_bits() != y.im.to_bits())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_plans: u64 = args
        .next()
        .map(|a| a.parse().expect("n_plans must be an integer"))
        .unwrap_or(10);
    let base_seed: u64 = args
        .next()
        .map(|a| a.parse().expect("base_seed must be an integer"))
        .unwrap_or(1000);

    let circuit = qft(QUBITS);
    println!(
        "fault soak: {n_plans} plans (seeds {base_seed}..{}) over qft({QUBITS}) at R={RANKS}",
        base_seed + n_plans
    );

    // One fault-free baseline per exchange mode (they are bit-identical
    // to each other, but comparing like against like keeps the check
    // self-contained).
    let baselines: Vec<Vec<Complex64>> = (0..MODES.len())
        .map(|m| {
            ThreadClusterExecutor::try_run(&circuit, &config(m), 0, true)
                .expect("fault-free baseline run failed")
                .state
                .expect("baseline gather")
        })
        .collect();

    let mut failures: Vec<(u64, String)> = Vec::new();
    for i in 0..n_plans {
        let seed = base_seed + i;
        let mode = ((i + i / 4) % 2) as usize;
        let recoverable = i % 4 != 3;
        let plan = if recoverable {
            qse_comm::FaultConfig::recoverable(seed)
        } else if seed.is_multiple_of(2) {
            qse_comm::FaultConfig::permanent_corruption(seed)
        } else {
            qse_comm::FaultConfig::exhausted_retries(seed)
        };
        println!(
            "plan seed={seed} mode={} {} ...",
            MODES[mode].0,
            if recoverable {
                "recoverable"
            } else {
                "unrecoverable"
            },
        );
        let mut cfg = config(mode);
        cfg.faults = Some(plan);
        match ThreadClusterExecutor::try_run(&circuit, &cfg, 0, true) {
            Ok(run) if recoverable => {
                let state = run.state.expect("gather");
                match first_bit_mismatch(&state, &baselines[mode]) {
                    None => println!(
                        "  ok: bit-identical ({} faults injected, {} retries, {} corruptions healed)",
                        run.profiled.faults_injected,
                        run.profiled.retries,
                        run.profiled.corruptions_detected,
                    ),
                    Some(at) => failures.push((
                        seed,
                        format!("state diverged from fault-free run at amplitude {at}"),
                    )),
                }
            }
            Ok(_) => failures.push((
                seed,
                "unrecoverable plan completed instead of surfacing an error".into(),
            )),
            Err(e) if recoverable => {
                failures.push((seed, format!("recoverable plan errored: {e}")))
            }
            Err(e) => println!("  ok: typed error as required ({e})"),
        }
    }

    if failures.is_empty() {
        println!("fault soak passed: {n_plans}/{n_plans} plans behaved");
        return;
    }
    for (seed, why) in &failures {
        eprintln!("FAILED seed={seed}: {why}");
        eprintln!("  replay: qse run --qubits {QUBITS} --ranks {RANKS} --faults seed={seed}");
    }
    std::process::exit(1);
}
