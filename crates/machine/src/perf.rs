//! The performance and energy model: circuit → per-gate costs → job
//! estimate.
//!
//! This is the substitute for running on 64–4,096 real nodes. Gate counts,
//! locality classes and exchanged bytes are *exact* (they come from the
//! same lowering the executable engine runs, folded over ranks by
//! [`gate_traffic`]); only the time and energy per unit of work is
//! modelled, with constants calibrated in [`crate::archer2`](mod@crate::archer2).

use crate::archer2::Machine;
use crate::cost::{GateCost, ModelConfig};
use crate::cu::cu_cost;
use crate::energy::EnergyBreakdown;
use crate::memory::BYTES_PER_AMP;
use crate::power::Phase;
use qse_circuit::classify::{classify, GateClass, Layout};
use qse_circuit::lower::{gate_traffic, Kernel};
use qse_circuit::transpile::fusion::{fused_schedule, ScheduleStep};
use qse_circuit::{Circuit, Gate};

/// Per-gate record in the detailed timeline.
#[derive(Debug, Clone)]
pub struct GateTiming {
    /// Index of the first gate of this step in the circuit.
    pub gate_index: usize,
    /// Gate mnemonic (or `fused-diagonal`).
    pub label: String,
    /// Locality class of the step.
    pub class: GateClass,
    /// Modelled cost.
    pub cost: GateCost,
}

/// The modelled outcome of one job.
#[derive(Debug, Clone)]
pub struct RunEstimate {
    /// Register width.
    pub n_qubits: u32,
    /// Nodes used.
    pub n_nodes: u64,
    /// Wall-clock, seconds.
    pub runtime_s: f64,
    /// Aggregate time components (absolute seconds of the critical path).
    pub breakdown: GateCost,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// CU charge.
    pub cu: f64,
    /// Per-gate timeline (one entry per schedule step).
    pub gates: Vec<GateTiming>,
}

impl RunEstimate {
    /// Total energy (nodes + switches), joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Fraction of runtime spent in communication (fig 5's "MPI" bar).
    pub fn comm_fraction(&self) -> f64 {
        self.breakdown.comm_s / self.runtime_s
    }

    /// Fraction of runtime spent in memory sweeps.
    pub fn memory_fraction(&self) -> f64 {
        self.breakdown.memory_s / self.runtime_s
    }

    /// Fraction of runtime spent computing.
    pub fn compute_fraction(&self) -> f64 {
        self.breakdown.compute_s / self.runtime_s
    }
}

/// NUMA sweep penalty for a pair sweep targeting local qubit `q`.
fn numa_penalty(
    machine: &Machine,
    layout: &Layout,
    local_bytes: u64,
    node_numa: u64,
    q: u32,
) -> f64 {
    // Penalties only arise when the local slice actually spans regions.
    if local_bytes <= node_numa {
        return 1.0;
    }
    let top = layout.local_qubits() - 1;
    if q == top {
        machine.numa_penalty[0]
    } else if q + 1 == top {
        machine.numa_penalty[1]
    } else {
        1.0
    }
}

/// Number of conditioning bits of a diagonal gate (how much of the
/// statevector it actually touches: QuEST sweeps only affected
/// amplitudes).
fn diagonal_condition_bits(gate: &Gate) -> u32 {
    match gate {
        Gate::CZ(..) | Gate::CPhase { .. } => 2,
        Gate::MCPhase { qubits, .. } => qubits.len() as u32,
        // Rz rephases both branches; everything else conditions on one bit.
        Gate::Rz { .. } => 0,
        _ => 1,
    }
}

struct Ctx<'m> {
    machine: &'m Machine,
    cfg: ModelConfig,
    layout: Layout,
    local_amps: u64,
    local_bytes: u64,
    node_numa: u64,
}

impl Ctx<'_> {
    /// Splits a sweep of `bytes` (at `penalty`) into memory + compute
    /// seconds, applying frequency scaling per component.
    fn local_cost(&self, bytes: f64, penalty: f64) -> (f64, f64) {
        let node = self.machine.node(self.cfg.node_kind);
        let t0 = bytes * penalty / node.sweep_bandwidth;
        let ca = self.machine.compute_attribution;
        let mem = t0 * (1.0 - ca) * self.cfg.frequency.memory_time_scale();
        let comp = t0 * ca * self.cfg.frequency.compute_time_scale();
        (mem, comp)
    }

    /// Cost of one exchange of `bytes` per rank.
    fn comm_cost(&self, bytes: u64) -> f64 {
        self.machine
            .network
            .exchange_time_s(bytes, self.cfg.comm_mode)
            * self.cfg.frequency.comm_time_scale()
    }

    /// A local sweep of `bytes` at `penalty`: memory and compute only.
    fn sweep_cost(&self, bytes: f64, penalty: f64) -> GateCost {
        let (mem, comp) = self.local_cost(bytes, penalty);
        GateCost {
            compute_s: comp,
            memory_s: mem,
            comm_s: 0.0,
            comm_bytes: 0,
            participation: 1.0,
        }
    }

    fn step_cost(&self, gates: &[Gate], fused: bool) -> (GateCost, GateClass) {
        let la = self.local_amps as f64;
        if fused {
            // One full sweep applies the whole run of diagonal gates.
            return (self.sweep_cost(32.0 * la, 1.0), GateClass::FullyLocal);
        }
        let gate = &gates[0];
        let class = classify(gate, &self.layout);
        let cost = match class {
            GateClass::FullyLocal => {
                let frac = 0.5f64.powi(diagonal_condition_bits(gate) as i32);
                self.sweep_cost(32.0 * la * frac, 1.0)
            }
            GateClass::LocalMemory => {
                let pen = |a, b| self.pair_penalty(a).max(self.pair_penalty(b));
                match *gate {
                    // Only the differing-bit half of the amplitudes move.
                    Gate::Swap(a, b) => self.sweep_cost(32.0 * la * 0.5, pen(a, b)),
                    // Four-amplitude orbits touch the whole slice once.
                    Gate::Unitary2 { a, b, .. } => self.sweep_cost(32.0 * la, pen(a, b)),
                    // A local control halves the touched amplitudes
                    // (QuEST skips the control-0 half).
                    ref g => {
                        let frac = if g.control().is_some() { 0.5 } else { 1.0 };
                        self.sweep_cost(32.0 * la * frac, self.pair_penalty(g.target()))
                    }
                }
            }
            GateClass::Distributed => self.exchange_cost(gate),
        };
        (cost, class)
    }

    fn pair_penalty(&self, q: u32) -> f64 {
        numa_penalty(
            self.machine,
            &self.layout,
            self.local_bytes,
            self.node_numa,
            q,
        )
    }

    /// A distributed gate priced from its lowering: a participating
    /// rank's exchanges in order, each moving its payload and sweeping
    /// the slice with its kernel. Transfer and combine are serialised, so
    /// the full exchange time is billed.
    fn exchange_cost(&self, gate: &Gate) -> GateCost {
        let half = self.cfg.half_exchange_swaps;
        #[expect(
            clippy::panic,
            reason = "the documented panic of `estimate`; the engine refuses the gate too"
        )]
        let traffic =
            gate_traffic(gate, &self.layout, half).unwrap_or_else(|e| panic!("{gate}: {e}"));
        let la = self.local_amps as f64;
        let exchanges = || traffic.lowering.exchanges();
        // One sweep for the gate: a both-global `Unitary2`'s three
        // exchanges price as a single 16 + 48 + 16 B per-amplitude pass.
        let sweep: f64 = exchanges().map(|e| sweep_bytes(e.kernel)).sum();
        let comm_s = exchanges()
            .map(|e| self.comm_cost(e.amps * BYTES_PER_AMP))
            .sum();
        GateCost {
            comm_s,
            comm_bytes: traffic.rank_bytes(),
            participation: traffic.participants as f64 / self.layout.n_ranks() as f64,
            ..self.sweep_cost(sweep * la, 1.0)
        }
    }
}

/// Sweep bytes per local amplitude of an exchange's combine.
fn sweep_bytes(kernel: Kernel) -> f64 {
    match kernel {
        // Read mine + read theirs + write.
        Kernel::Row { .. } | Kernel::Orbit { .. } => 48.0,
        // Scatter the received half: 16 B read + 16 B write per moved
        // amplitude, half the slice moves.
        Kernel::Swap { .. } | Kernel::HalfSwap { .. } => 16.0,
        // Copy the peer's whole slice in.
        Kernel::Replace => 32.0,
    }
}

/// Runs the model over `circuit` and returns the job estimate.
///
/// # Panics
/// Panics when `cfg.n_nodes` is not a power of two or exceeds the
/// register (QuEST's own constraint), and on a gate the engine cannot
/// lower: a both-global `Unitary2` with no local qubit to swap through
/// (`n_nodes = 2ⁿ`), which the engine rejects as `PlanRejected`.
pub fn estimate(circuit: &Circuit, machine: &Machine, cfg: &ModelConfig) -> RunEstimate {
    let layout = Layout::new(circuit.n_qubits(), cfg.n_nodes);
    let node = machine.node(cfg.node_kind);
    let local_amps = layout.local_amps();
    let ctx = Ctx {
        machine,
        cfg: *cfg,
        layout,
        local_amps,
        local_bytes: local_amps * BYTES_PER_AMP,
        node_numa: node.numa_region_bytes(),
    };

    let steps: Vec<(usize, Vec<Gate>, bool)> = match cfg.fuse_diagonals {
        Some(min_fuse) => fused_schedule(circuit, min_fuse)
            .into_iter()
            .map(|s| match s {
                ScheduleStep::Single(i) => (i, vec![circuit.gates()[i].clone()], false),
                ScheduleStep::Fused(r) => (r.start, circuit.gates()[r.start..r.end].to_vec(), true),
            })
            .collect(),
        None => circuit
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| (i, vec![g.clone()], false))
            .collect(),
    };

    let mut breakdown = GateCost::default();
    let mut energy = EnergyBreakdown::default();
    let mut gates = Vec::with_capacity(steps.len());
    let power = &machine.power;
    let f = cfg.frequency;
    let n_nodes = cfg.n_nodes as f64;

    for (gate_index, step_gates, fused) in steps {
        let (cost, class) = ctx.step_cost(&step_gates, fused);
        let participating = n_nodes * cost.participation;
        let idle = n_nodes - participating;
        energy.accumulate(&EnergyBreakdown {
            compute_j: participating * power.node_energy_j(Phase::Compute, f, cost.compute_s),
            memory_j: participating * power.node_energy_j(Phase::Memory, f, cost.memory_s),
            comm_j: participating * power.node_energy_j(Phase::Comm, f, cost.comm_s),
            idle_j: idle * power.node_energy_j(Phase::Idle, f, cost.total_s()),
            switch_j: 0.0,
        });
        breakdown.accumulate(&cost);
        gates.push(GateTiming {
            gate_index,
            label: if fused {
                format!("fused-diagonal×{}", step_gates.len())
            } else {
                step_gates[0].name().to_string()
            },
            class,
            cost,
        });
    }

    let runtime_s = breakdown.total_s();
    energy.switch_j = machine.network.switch_energy_j(cfg.n_nodes, runtime_s);
    RunEstimate {
        n_qubits: circuit.n_qubits(),
        n_nodes: cfg.n_nodes,
        runtime_s,
        breakdown,
        energy,
        cu: cu_cost(cfg.n_nodes, runtime_s, cfg.node_kind),
        gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;
    use crate::cost::CommMode;
    use crate::frequency::CpuFrequency;
    use crate::node::NodeKind;
    use qse_circuit::benchmarks::hadamard_benchmark;
    use qse_circuit::qft::{cache_blocked_qft, qft};
    use qse_math::approx::assert_close;

    fn table1_config() -> ModelConfig {
        // Table 1 setting: 64 standard nodes, 38 qubits, default freq.
        ModelConfig::default_for(64)
    }

    /// Per-gate time of a 50-gate Hadamard benchmark on qubit `q`.
    fn hadamard_per_gate(q: u32, mode: CommMode) -> (f64, f64) {
        let m = archer2();
        let c = hadamard_benchmark(38, q, 50);
        let est = estimate(
            &c,
            &m,
            &ModelConfig {
                comm_mode: mode,
                ..table1_config()
            },
        );
        (est.runtime_s / 50.0, est.total_energy_j() / 50.0)
    }

    #[test]
    fn table1_local_hadamard_half_second_15kj() {
        let (t, e) = hadamard_per_gate(29, CommMode::Blocking);
        assert_close(t, 0.50, 0.03);
        assert_close(e, 15_000.0, 1_500.0);
    }

    #[test]
    fn table1_numa_rows() {
        // Qubit 30: 0.59 s; qubit 31: 0.80 s (blocking column).
        let (t30, _) = hadamard_per_gate(30, CommMode::Blocking);
        let (t31, _) = hadamard_per_gate(31, CommMode::Blocking);
        assert_close(t30, 0.59, 0.04);
        assert_close(t31, 0.80, 0.05);
    }

    #[test]
    fn table1_distributed_hadamard() {
        // Qubit 32: 9.63 s / 191 kJ blocking; 8.82 s / 179 kJ non-blocking.
        let (tb, eb) = hadamard_per_gate(32, CommMode::Blocking);
        let (tn, en) = hadamard_per_gate(32, CommMode::NonBlocking);
        assert_close(tb, 9.63, 0.5);
        assert_close(eb, 191_000.0, 15_000.0);
        assert_close(tn, 8.82, 0.5);
        assert_close(en, 179_000.0, 15_000.0);
        assert!(tn < tb && en < eb);
    }

    #[test]
    fn worst_case_profile_is_communication_dominated() {
        // Fig 5: the last-qubit Hadamard benchmark is ~all MPI.
        let m = archer2();
        let c = hadamard_benchmark(38, 37, 50);
        let est = estimate(&c, &m, &table1_config());
        assert!(est.comm_fraction() > 0.85, "{}", est.comm_fraction());
    }

    #[test]
    fn qft_profile_roughly_matches_fig5() {
        // Built-in QFT: comm ≲ 43 %, remainder split ≈ 2:1 memory:compute.
        let m = archer2();
        let est = estimate(&qft(38), &m, &table1_config());
        assert!(
            (0.30..0.55).contains(&est.comm_fraction()),
            "comm fraction {}",
            est.comm_fraction()
        );
        let ratio = est.memory_fraction() / est.compute_fraction();
        assert!((1.5..2.6).contains(&ratio), "mem:comp {ratio}");
    }

    #[test]
    fn cache_blocking_reduces_comm_fraction() {
        // Fig 5: cache blocking cuts communication from ~43 % to ~25 %.
        let m = archer2();
        let built_in = estimate(&qft(38), &m, &table1_config());
        let blocked = estimate(&cache_blocked_qft(38, 30), &m, &table1_config());
        assert!(blocked.comm_fraction() < built_in.comm_fraction() - 0.10);
        assert!(blocked.runtime_s < built_in.runtime_s);
        assert!(blocked.total_energy_j() < built_in.total_energy_j());
    }

    #[test]
    fn high_frequency_faster_but_hungrier() {
        // §3.1: high frequency is 5–10 % faster and ~25 % more energy.
        let m = archer2();
        let med = estimate(&qft(38), &m, &table1_config());
        let high = estimate(
            &qft(38),
            &m,
            &ModelConfig {
                frequency: CpuFrequency::High,
                ..table1_config()
            },
        );
        let speedup = med.runtime_s / high.runtime_s;
        let energy_ratio = high.total_energy_j() / med.total_energy_j();
        assert!((1.02..1.12).contains(&speedup), "speedup {speedup}");
        assert!(
            (1.10..1.35).contains(&energy_ratio),
            "energy {energy_ratio}"
        );
    }

    #[test]
    fn low_frequency_slower_at_similar_energy() {
        let m = archer2();
        let med = estimate(&qft(38), &m, &table1_config());
        let low = estimate(
            &qft(38),
            &m,
            &ModelConfig {
                frequency: CpuFrequency::Low,
                ..table1_config()
            },
        );
        assert!(low.runtime_s > med.runtime_s * 1.05);
        let energy_ratio = low.total_energy_j() / med.total_energy_j();
        assert!(
            (0.85..1.10).contains(&energy_ratio),
            "energy {energy_ratio}"
        );
    }

    #[test]
    fn highmem_slower_but_cheaper_in_cu() {
        // §3.1: high-memory runs are slower (< 2×) but cost fewer CUs.
        let m = archer2();
        let n = 38;
        let std = estimate(&qft(n), &m, &ModelConfig::default_for(64));
        let hm = estimate(
            &qft(n),
            &m,
            &ModelConfig {
                node_kind: NodeKind::HighMem,
                n_nodes: 32,
                ..ModelConfig::default_for(32)
            },
        );
        assert!(hm.runtime_s > std.runtime_s);
        assert!(hm.runtime_s < 2.0 * std.runtime_s);
        assert!(hm.cu < std.cu);
    }

    #[test]
    fn half_exchange_reduces_comm_bytes_and_time() {
        let m = archer2();
        let c = cache_blocked_qft(38, 30);
        let full = estimate(&c, &m, &ModelConfig::fast_for(64));
        let half = estimate(
            &c,
            &m,
            &ModelConfig {
                half_exchange_swaps: true,
                ..ModelConfig::fast_for(64)
            },
        );
        assert_eq!(half.breakdown.comm_bytes * 2, full.breakdown.comm_bytes);
        assert!(half.runtime_s < full.runtime_s);
    }

    #[test]
    #[should_panic(expected = "both-global Unitary2 needs at least one local qubit")]
    fn gates_the_engine_cannot_lower_are_not_priced() {
        let mut c = Circuit::new(2);
        c.push(Gate::Unitary2 {
            a: 0,
            b: 1,
            matrix: qse_math::Matrix4::swap(),
        });
        estimate(&c, &archer2(), &ModelConfig::default_for(4));
    }

    #[test]
    fn runtime_components_sum() {
        let m = archer2();
        let est = estimate(&qft(20), &m, &ModelConfig::default_for(4));
        let sum = est.breakdown.compute_s + est.breakdown.memory_s + est.breakdown.comm_s;
        assert_close(est.runtime_s, sum, 1e-9);
        assert_eq!(est.n_nodes, 4);
        assert_eq!(est.n_qubits, 20);
        assert!(!est.gates.is_empty());
    }

    #[test]
    fn fusion_reduces_runtime() {
        // The fusion ablation: one full sweep per QFT controlled-phase
        // block beats one quarter-sweep per gate once blocks are ≥ 4
        // gates — at 38 qubits the average block has ~18 gates.
        let m = archer2();
        let unfused = estimate(&qft(38), &m, &table1_config());
        let fused = estimate(
            &qft(38),
            &m,
            &ModelConfig {
                fuse_diagonals: Some(4),
                ..table1_config()
            },
        );
        assert!(fused.runtime_s < unfused.runtime_s);
        assert!(fused.total_energy_j() < unfused.total_energy_j());
    }
}
