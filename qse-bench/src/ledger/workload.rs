//! The four workloads and their seeded inputs.
//!
//! `--seed` reaches the program under test only through what is built
//! here: basis states, shot seeds, random circuits and Zipf draws. The
//! same seed gives the same inputs; `--smoke` shrinks register widths
//! and gate counts so the whole ledger runs in seconds under test.

use qse_circuit::algorithms::ghz;
use qse_circuit::benchmarks::hadamard_benchmark;
use qse_circuit::hash::canonicalize;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::Circuit;
use qse_core::{EngineMode, SimConfig, TranspileMode};
use qse_serve::JobSpec;
use qse_util::rng::{Rng, SplitMix64, StdRng};

/// One named workload. Names are final: later issues quote them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QFT n=20 over two thread ranks, gathered and sampled.
    Qft20Dense,
    /// Fifty Hadamards on the top qubit of n=22: all exchange.
    Hadamard22Global,
    /// Zipf traffic over a warmed plan cache, bursts of four.
    ServeZipfWarm,
    /// Every job a distinct circuit against a small cache.
    ServeUniqueCold,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Qft20Dense,
        Workload::Hadamard22Global,
        Workload::ServeZipfWarm,
        Workload::ServeUniqueCold,
    ];

    /// The name `--workload` takes and reports print.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Qft20Dense => "qft20_dense",
            Workload::Hadamard22Global => "hadamard22_global",
            Workload::ServeZipfWarm => "serve_zipf_warm",
            Workload::ServeUniqueCold => "serve_unique_cold",
        }
    }

    /// Why the workload is in the benchmark (one line, as in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Qft20Dense => {
                "the `qse run` product path on the paper's own circuit: ~90% local sweeps \
                 (190 of 220 gates are CPhase), 2 exchanges, so kernel and dispatch work shows and comm work does not"
            }
            Workload::Hadamard22Global => {
                "the paper's Table 1 worst case: every gate is a full-slice pairwise exchange \
                 (32 MiB per rank), so comm chunking and dist pack/combine do the work and local kernels none"
            }
            Workload::ServeZipfWarm => {
                "closed-loop clients on a warmed plan cache: every job hits and bursts share executions, \
                 so queue, cache, batching, hashing, per-execution fixed costs and sampling remain; all three engines"
            }
            Workload::ServeUniqueCold => {
                "every job a distinct circuit against a 16-entry cache: hash, transpile, verify, insert and evict \
                 on every job, so the prepare path does the most work and batching and cache hits none"
            }
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether operations are served jobs rather than full runs.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeZipfWarm | Workload::ServeUniqueCold)
    }
}

/// An independent 64-bit input stream `stream` of run seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// One circuit under one configuration — what a dense workload runs and
/// what every layer probe of a workload is pointed at.
#[derive(Debug, Clone)]
pub struct Case {
    /// The circuit as submitted.
    pub circuit: Circuit,
    /// Ranks, exchange mode, transpile mode.
    pub cfg: SimConfig,
    /// Initial basis state, drawn from the seed.
    pub basis: u64,
    /// Whether the workload gathers the state on rank 0.
    pub gather: bool,
    /// Shots sampled from the gathered state.
    pub shots: usize,
    /// Seed of the shot RNG.
    pub shot_seed: u64,
}

impl Case {
    /// The case as a job for `Server::submit`.
    pub fn spec(&self, id: String) -> JobSpec {
        JobSpec {
            id,
            circuit: self.circuit.clone(),
            ranks: self.cfg.n_ranks,
            transpile: self.cfg.transpile,
            shots: self.shots,
            seed: self.shot_seed,
            basis: self.basis,
            faults: None,
            engine: self.cfg.engine,
        }
    }

    /// Bytes of one rank's slice of the statevector.
    pub fn slice_bytes(&self) -> u64 {
        16 * (1u64 << self.circuit.n_qubits()) / self.cfg.n_ranks
    }
}

/// The case a dense workload runs; for a serve workload, its most
/// popular (zipf) or a typical (cold) entry, which the layer probes and
/// the traced rank closure use.
pub fn case(workload: Workload, seed: u64, smoke: bool) -> Case {
    match workload {
        Workload::Qft20Dense => {
            let n = if smoke { 12 } else { 20 };
            Case {
                circuit: qft(n),
                cfg: SimConfig::default_for(2),
                basis: derive(seed, 1) % (1 << n),
                gather: true,
                shots: 1000,
                shot_seed: derive(seed, 2),
            }
        }
        Workload::Hadamard22Global => {
            let (n, gates) = if smoke { (14, 10) } else { (22, 50) };
            Case {
                circuit: hadamard_benchmark(n, n - 1, gates),
                cfg: SimConfig::default_for(2),
                basis: derive(seed, 1) % (1 << n),
                gather: false,
                shots: 1000,
                shot_seed: derive(seed, 2),
            }
        }
        Workload::ServeZipfWarm => zipf_pool(seed, smoke).swap_remove(0).case(derive(seed, 2)),
        Workload::ServeUniqueCold => cold_entry(seed, smoke, 0).case(derive(seed, 2)),
    }
}

/// Shots per served job.
pub const SERVE_SHOTS: usize = 100;

/// One circuit a serve client may submit, with how it is to be run.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The circuit as submitted (the server canonicalises it).
    pub circuit: Circuit,
    /// Thread ranks of the execution.
    pub ranks: u64,
    /// Comm-avoiding pass (dense entries only).
    pub transpile: TranspileMode,
    /// Requested engine.
    pub engine: EngineMode,
}

impl Entry {
    fn dense(circuit: Circuit, ranks: u64) -> Entry {
        Entry {
            circuit,
            ranks,
            transpile: TranspileMode::Beam,
            engine: EngineMode::Dense,
        }
    }

    fn auto(circuit: Circuit, ranks: u64) -> Entry {
        Entry {
            circuit,
            ranks,
            transpile: TranspileMode::Off,
            engine: EngineMode::Auto,
        }
    }

    /// The job a client submits for this entry.
    pub fn spec(&self, id: String, shot_seed: u64) -> JobSpec {
        JobSpec {
            id,
            circuit: self.circuit.clone(),
            ranks: self.ranks,
            transpile: self.transpile,
            shots: SERVE_SHOTS,
            seed: shot_seed,
            basis: 0,
            faults: None,
            engine: self.engine,
        }
    }

    /// The configuration the server executes this entry under.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default_for(self.ranks);
        cfg.transpile = self.transpile;
        cfg.engine = self.engine;
        cfg
    }

    /// The entry as a direct-call case: the canonical circuit, which is
    /// what the server actually runs, gathered and sampled like a job.
    pub fn case(&self, shot_seed: u64) -> Case {
        Case {
            circuit: canonicalize(&self.circuit),
            cfg: self.sim_config(),
            basis: 0,
            gather: true,
            shots: SERVE_SHOTS,
            shot_seed,
        }
    }
}

/// GHZ followed by a CPhase ladder: not Clifford, support 2 — what
/// `engine: auto` sends to the sparse engine.
pub fn sparse_entry(n: u32) -> Entry {
    let mut c = ghz(n);
    for q in 1..n {
        c.cphase(q - 1, q, std::f64::consts::PI / (q + 2) as f64);
    }
    Entry::auto(c, 2)
}

/// GHZ: Clifford, so `engine: auto` sends it to the stabilizer tableau.
pub fn stabilizer_entry(n: u32) -> Entry {
    Entry::auto(ghz(n), 2)
}

/// The eight circuits of `serve_zipf_warm`, most popular first: QFT,
/// three full-pool and two QFT-like random circuits at two widths, one
/// sparse and one Clifford entry. Non-dense entries stay at ≤ 20 qubits
/// and GHZ-shaped: serve fingerprints a sparse state by materialising 2ⁿ
/// amplitudes, charges admission at the dense footprint for every
/// engine, and the tableau sampler enumerates its support.
pub fn zipf_pool(seed: u64, smoke: bool) -> Vec<Entry> {
    let (lo, hi, gates, ghz_n) = if smoke {
        (10, 12, 40, 12)
    } else {
        (14, 16, 120, 20)
    };
    let random = |i: u64, n: u32, pool: GatePool| {
        Entry::dense(random_circuit(n, gates, pool, derive(seed, 16 + i)), 2)
    };
    vec![
        Entry::dense(qft(hi), 2),
        random(1, lo, GatePool::Full),
        random(2, hi, GatePool::QftLike),
        stabilizer_entry(ghz_n),
        random(4, hi, GatePool::Full),
        sparse_entry(ghz_n),
        random(6, lo, GatePool::QftLike),
        random(7, lo, GatePool::Full),
    ]
}

/// How much of a workload the traced pass runs: fixed counts, so every
/// count it reports repeats exactly.
#[derive(Debug, Clone, Copy)]
pub struct TraceSizes {
    /// Untraced prepared runs of the case, timed from outside.
    pub untraced: usize,
    /// Runs of the case through the benchmark's own rank closure.
    pub traced: usize,
    /// Warm single-client jobs per engine through the probe server.
    pub probe_jobs: usize,
    /// Jobs of the serve workloads' shortened window.
    pub serve_jobs: u64,
}

/// The traced pass's sizes for `workload`: fewer repeats where one run
/// of the case takes seconds, more where it takes milliseconds.
pub fn trace_sizes(workload: Workload, smoke: bool) -> TraceSizes {
    let (untraced, traced, probe_jobs) = match (smoke, workload) {
        (true, _) => (3, 3, 3),
        (false, Workload::Qft20Dense) => (3, 5, 3),
        (false, Workload::Hadamard22Global) => (2, 2, 1),
        (false, _) => (5, 5, 5),
    };
    TraceSizes {
        untraced,
        traced,
        probe_jobs,
        serve_jobs: if smoke { 40 } else { 240 },
    }
}

/// Jobs a client submits back to back for one Zipf draw.
pub const ZIPF_BURST: usize = 4;

/// A Zipf draw over `pool` ranks: rank `r` with weight `1 / (r + 1)`.
pub fn zipf_index(rng: &mut StdRng, pool: usize) -> usize {
    let total: f64 = (0..pool).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut draw = rng.random_range(0.0..total);
    for r in 0..pool {
        let w = 1.0 / (r + 1) as f64;
        if draw < w {
            return r;
        }
        draw -= w;
    }
    pool - 1
}

/// Job `i` of `serve_unique_cold`: a full-pool random circuit no other
/// job of the run shares, on four ranks under the beam transpiler —
/// the shape on which prepare is largest next to execute.
pub fn cold_entry(seed: u64, smoke: bool, i: u64) -> Entry {
    let (n, gates) = if smoke { (10, 60) } else { (12, 300) };
    Entry::dense(
        random_circuit(n, gates, GatePool::Full, derive(seed, 1 << 32 | i)),
        4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::classify::{choose_engine, EngineChoice};

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for smoke in [true, false] {
            let a = zipf_pool(5, smoke);
            let b = zipf_pool(5, smoke);
            let c = zipf_pool(6, smoke);
            assert_eq!(a.len(), 8);
            for i in 0..a.len() {
                assert_eq!(a[i].circuit, b[i].circuit);
            }
            assert_ne!(a[1].circuit, c[1].circuit);
        }
        assert_eq!(
            cold_entry(5, true, 3).circuit,
            cold_entry(5, true, 3).circuit
        );
        assert_ne!(
            cold_entry(5, true, 3).circuit,
            cold_entry(5, true, 4).circuit
        );
        assert_ne!(
            case(Workload::Qft20Dense, 1, true).basis,
            case(Workload::Qft20Dense, 2, true).basis
        );
    }

    #[test]
    fn auto_entries_resolve_to_the_engines_they_are_named_for() {
        for n in [12, 20] {
            assert_eq!(
                choose_engine(&sparse_entry(n).circuit),
                EngineChoice::Sparse
            );
            assert_eq!(
                choose_engine(&stabilizer_entry(n).circuit),
                EngineChoice::Stabilizer
            );
        }
    }

    #[test]
    fn zipf_draws_favour_the_head_and_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hist = [0usize; 8];
        for _ in 0..4000 {
            hist[zipf_index(&mut rng, 8)] += 1;
        }
        assert!(hist[0] > hist[3] && hist[3] > hist[7] && hist[7] > 0);
    }
}
