//! The standard plan corpus swept by `qse check --plans` and CI: QFT,
//! cache-blocked QFT, and random circuits × rank counts × exchange
//! modes × transpile strategies, each paired with the [`DistConfig`]
//! the runtime would use, ready for [`crate::verify::verify_plan`].

use qse_circuit::classify::Layout;
use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{comm_avoid, ByteOracle, Plan, Strategy};
use qse_circuit::{Circuit, Permutation};
use qse_comm::chunking::{ChunkPolicy, DistConfig, ExchangeMode};

/// One corpus entry: a compiled plan, the circuit it was compiled from,
/// and the execution configuration to verify it under.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Human-readable case name, e.g. `qft8/R4/streamed/beam`.
    pub name: String,
    pub plan: Plan,
    pub original: Circuit,
    pub n_ranks: u64,
    pub opts: DistConfig,
}

fn strategy_name(s: Option<Strategy>) -> &'static str {
    match s {
        None => "off",
        Some(Strategy::Greedy) => "greedy",
        Some(Strategy::Beam { .. }) => "beam",
    }
}

fn mode_name(m: ExchangeMode) -> &'static str {
    match m {
        ExchangeMode::Blocking => "blocking",
        ExchangeMode::NonBlocking => "nonblocking",
        ExchangeMode::Streamed => "streamed",
    }
}

/// Builds the standard corpus: 6 circuits × R ∈ {1, 2, 4, 8} ×
/// 3 exchange modes × transpile off/greedy/beam = 216 plans. Cases
/// alternate half-exchange SWAPs and a small chunk cap so multi-chunk
/// and half-exchange lowering stay covered.
pub fn standard_corpus() -> Vec<CorpusCase> {
    let circuits: Vec<(String, Circuit)> = vec![
        ("qft6".into(), qft(6)),
        ("qft8".into(), qft(8)),
        ("cbqft8".into(), cache_blocked_qft(8, default_split(8, 5))),
        ("rand7s1".into(), random_circuit(7, 40, GatePool::Full, 1)),
        ("rand7s2".into(), random_circuit(7, 40, GatePool::Full, 2)),
        ("rand8s3".into(), random_circuit(8, 48, GatePool::Full, 3)),
    ];
    let strategies = [None, Some(Strategy::Greedy), Some(Strategy::beam())];
    let modes = [
        ExchangeMode::Blocking,
        ExchangeMode::NonBlocking,
        ExchangeMode::Streamed,
    ];
    let mut cases = Vec::new();
    for (cname, circuit) in &circuits {
        for &ranks in &[1u64, 2, 4, 8] {
            for &strategy in &strategies {
                let plan = match strategy {
                    None => Plan::from_circuit(circuit, Permutation::identity(circuit.n_qubits())),
                    Some(s) => {
                        let layout = Layout::new(circuit.n_qubits(), ranks);
                        comm_avoid(circuit, &layout, s, &ByteOracle).with_layout_restored()
                    }
                };
                for &mode in &modes {
                    let idx = cases.len();
                    let opts = DistConfig {
                        exchange_mode: mode,
                        // Alternate a small cap to force multi-chunk
                        // lowering on half the corpus.
                        chunk_policy: if idx % 2 == 0 {
                            ChunkPolicy {
                                max_message_bytes: 1 << 20,
                            }
                        } else {
                            ChunkPolicy {
                                max_message_bytes: 512,
                            }
                        },
                        half_exchange_swaps: idx % 3 == 0,
                    };
                    cases.push(CorpusCase {
                        name: format!(
                            "{cname}/R{ranks}/{}/{}",
                            mode_name(mode),
                            strategy_name(strategy)
                        ),
                        plan: plan.clone(),
                        original: circuit.clone(),
                        n_ranks: ranks,
                        opts,
                    });
                }
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_plan;

    #[test]
    fn the_standard_corpus_is_large_and_clean() {
        let cases = standard_corpus();
        assert!(cases.len() >= 200, "corpus has {} plans", cases.len());
        for case in &cases {
            verify_plan(&case.plan, Some(&case.original), case.n_ranks, &case.opts)
                .unwrap_or_else(|e| panic!("{} failed: {e}", case.name));
        }
    }
}
