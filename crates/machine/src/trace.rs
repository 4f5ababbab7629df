//! Job traces: power-over-time series and a SLURM-style accounting view.
//!
//! The paper reads job energy from SLURM, which integrates per-node power
//! counters over the run (§2.4). This module reconstructs that view from
//! a model estimate: a piecewise-constant power timeline (one segment per
//! schedule step) and an `sacct`-shaped report. The timeline is also what
//! a fig-5-style stacked profile is drawn from.

use crate::archer2::Machine;
use crate::cost::ModelConfig;
use crate::energy::format_energy;
use crate::perf::RunEstimate;
use crate::power::Phase;

/// One piecewise-constant segment of the job's aggregate power draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Segment start, seconds from job start.
    pub start_s: f64,
    /// Segment duration, seconds.
    pub duration_s: f64,
    /// What the participating nodes are doing.
    pub phase: Phase,
    /// Total draw across all nodes and switches, watts.
    pub power_w: f64,
}

/// Builds the power timeline of a modelled run. Each schedule step
/// contributes up to three segments (memory, compute, comm) in a fixed
/// canonical order; zero-length segments are dropped.
pub fn power_timeline(
    machine: &Machine,
    cfg: &ModelConfig,
    estimate: &RunEstimate,
) -> Vec<PowerSegment> {
    let n = cfg.n_nodes as f64;
    let switches =
        machine.network.switches_for(cfg.n_nodes) as f64 * machine.network.switch_power_w;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    for gate in &estimate.gates {
        let participating = n * gate.cost.participation;
        let idle = n - participating;
        for (phase, dur) in [
            (Phase::Memory, gate.cost.memory_s),
            (Phase::Compute, gate.cost.compute_s),
            (Phase::Comm, gate.cost.comm_s),
        ] {
            if dur <= 0.0 {
                continue;
            }
            let node_power = participating * machine.power.node_power_w(phase, cfg.frequency)
                + idle * machine.power.node_power_w(Phase::Idle, cfg.frequency);
            out.push(PowerSegment {
                start_s: t,
                duration_s: dur,
                phase,
                power_w: node_power + switches,
            });
            t += dur;
        }
    }
    out
}

/// Integrates a timeline back to joules (consistency check: must equal
/// the estimate's total).
pub fn integrate_energy(timeline: &[PowerSegment]) -> f64 {
    timeline.iter().map(|s| s.power_w * s.duration_s).sum()
}

/// Peak aggregate power over the run.
pub fn peak_power_w(timeline: &[PowerSegment]) -> f64 {
    timeline.iter().map(|s| s.power_w).fold(0.0, f64::max)
}

/// An `sacct`-shaped accounting record for a modelled job.
#[derive(Debug, Clone)]
pub struct SacctRecord {
    /// Job name.
    pub job_name: String,
    /// Nodes allocated.
    pub n_nodes: u64,
    /// Elapsed wall-clock, seconds.
    pub elapsed_s: f64,
    /// `ConsumedEnergy` — what SLURM's node counters would report
    /// (excludes switches, as on the real machine).
    pub consumed_energy_j: f64,
    /// The paper's switch estimate, added on top.
    pub switch_energy_j: f64,
    /// CU charge.
    pub cu: f64,
}

impl SacctRecord {
    /// Builds the record from a model estimate.
    pub fn from_estimate(job_name: impl Into<String>, est: &RunEstimate) -> Self {
        SacctRecord {
            job_name: job_name.into(),
            n_nodes: est.n_nodes,
            elapsed_s: est.runtime_s,
            consumed_energy_j: est.energy.node_total_j(),
            switch_energy_j: est.energy.switch_j,
            cu: est.cu,
        }
    }

    /// Renders in `sacct --format=...` style.
    pub fn render(&self) -> String {
        format!(
            "JobName={} AllocNodes={} Elapsed={} ConsumedEnergy={} (+{} network) CU={:.1}",
            self.job_name,
            self.n_nodes,
            format_elapsed(self.elapsed_s),
            format_energy(self.consumed_energy_j),
            format_energy(self.switch_energy_j),
            self.cu,
        )
    }
}

/// `HH:MM:SS` like SLURM.
pub fn format_elapsed(seconds: f64) -> String {
    let total = seconds.round() as u64;
    format!(
        "{:02}:{:02}:{:02}",
        total / 3600,
        (total % 3600) / 60,
        total % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;
    use crate::perf::estimate;
    use qse_circuit::qft::qft;
    use qse_math::approx::assert_close;

    fn sample() -> (Machine, ModelConfig, RunEstimate) {
        let m = archer2();
        let cfg = ModelConfig::default_for(64);
        let est = estimate(&qft(38), &m, &cfg);
        (m, cfg, est)
    }

    #[test]
    fn timeline_integrates_to_total_energy() {
        let (m, cfg, est) = sample();
        let tl = power_timeline(&m, &cfg, &est);
        assert!(!tl.is_empty());
        assert_close(
            integrate_energy(&tl),
            est.total_energy_j(),
            est.total_energy_j() * 1e-9,
        );
    }

    #[test]
    fn timeline_is_contiguous_and_spans_runtime() {
        let (m, cfg, est) = sample();
        let tl = power_timeline(&m, &cfg, &est);
        let mut t = 0.0;
        for seg in &tl {
            assert_close(seg.start_s, t, 1e-9);
            assert!(seg.duration_s > 0.0);
            t += seg.duration_s;
        }
        assert_close(t, est.runtime_s, 1e-9);
    }

    #[test]
    fn peak_power_is_in_plausible_band() {
        // 64 nodes at ≤ ~500 W plus 8 switches: peak well under 40 kW
        // and above the idle floor.
        let (m, cfg, est) = sample();
        let tl = power_timeline(&m, &cfg, &est);
        let peak = peak_power_w(&tl);
        assert!(peak > 15_000.0 && peak < 40_000.0, "peak {peak}");
    }

    #[test]
    fn memory_phase_draws_more_than_comm() {
        let (m, cfg, est) = sample();
        let tl = power_timeline(&m, &cfg, &est);
        let avg = |phase: Phase| {
            let (sum, n) = tl
                .iter()
                .filter(|s| s.phase == phase)
                .fold((0.0, 0usize), |(a, k), s| (a + s.power_w, k + 1));
            sum / n as f64
        };
        assert!(avg(Phase::Memory) > avg(Phase::Comm));
    }

    #[test]
    fn sacct_record_renders() {
        let (_, _, est) = sample();
        let rec = SacctRecord::from_estimate("qft38", &est);
        let s = rec.render();
        assert!(s.contains("JobName=qft38"));
        assert!(s.contains("AllocNodes=64"));
        assert!(s.contains("ConsumedEnergy="));
        assert!(rec.consumed_energy_j > 0.0);
        assert!(rec.switch_energy_j > 0.0);
    }

    #[test]
    fn elapsed_formatting() {
        assert_eq!(format_elapsed(0.0), "00:00:00");
        assert_eq!(format_elapsed(61.4), "00:01:01");
        assert_eq!(format_elapsed(3723.0), "01:02:03");
    }
}
