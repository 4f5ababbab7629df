//! Node power model.
//!
//! A node's draw is a static floor plus a dynamic component that depends
//! on what the cores are doing and scales cubically with frequency. The
//! three dynamic levels are calibrated from Table 1 at 2.00 GHz:
//!
//! * memory-bound sweep: 15 kJ / 0.5 s / 64 nodes ≈ 440 W per node;
//! * communication-bound exchange: 191 kJ / 9.63 s / 64 nodes ≈ 290 W
//!   (minus the switch share);
//! * compute-bound: ≈ 500 W (vector units busy, the EPYC 7742 ceiling).

use crate::frequency::CpuFrequency;

/// What a node is doing during a time slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Floating-point dominated work.
    Compute,
    /// Statevector sweeps (bandwidth-bound).
    Memory,
    /// Waiting on / driving the interconnect.
    Comm,
    /// Participating in the job but idle (spectator ranks).
    Idle,
}

/// Per-node power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static draw, watts — fans, DRAM refresh, uncore floor.
    pub static_w: f64,
    /// Dynamic draw at 2.00 GHz while compute-bound.
    pub dynamic_compute_w: f64,
    /// Dynamic draw at 2.00 GHz while memory-bound.
    pub dynamic_memory_w: f64,
    /// Dynamic draw at 2.00 GHz while communication-bound.
    pub dynamic_comm_w: f64,
    /// Dynamic draw at 2.00 GHz while idle in-job.
    pub dynamic_idle_w: f64,
}

impl PowerModel {
    /// Node power in a phase at a frequency (static + scaled dynamic).
    pub fn node_power_w(&self, phase: Phase, freq: CpuFrequency) -> f64 {
        let dynamic = match phase {
            Phase::Compute => self.dynamic_compute_w,
            Phase::Memory => self.dynamic_memory_w,
            Phase::Comm => self.dynamic_comm_w,
            Phase::Idle => self.dynamic_idle_w,
        };
        self.static_w + dynamic * freq.dynamic_power_scale()
    }

    /// Energy for one node spending `seconds` in `phase` at `freq`.
    pub fn node_energy_j(&self, phase: Phase, freq: CpuFrequency, seconds: f64) -> f64 {
        self.node_power_w(phase, freq) * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;
    use qse_math::approx::assert_close;

    #[test]
    fn calibrated_medium_powers() {
        let p = archer2().power;
        // Table 1 anchors at the default frequency.
        assert_close(
            p.node_power_w(Phase::Memory, CpuFrequency::Medium),
            440.0,
            15.0,
        );
        assert_close(
            p.node_power_w(Phase::Comm, CpuFrequency::Medium),
            285.0,
            15.0,
        );
        assert_close(
            p.node_power_w(Phase::Compute, CpuFrequency::Medium),
            500.0,
            20.0,
        );
    }

    #[test]
    fn high_frequency_memory_power_rises_about_28_percent() {
        // The cubic dynamic law should land near the paper's "+25 %
        // energy at high frequency" for memory-bound phases.
        let p = archer2().power;
        let med = p.node_power_w(Phase::Memory, CpuFrequency::Medium);
        let high = p.node_power_w(Phase::Memory, CpuFrequency::High);
        let ratio = high / med;
        assert!((1.20..1.35).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn frequency_ordering() {
        let p = archer2().power;
        for phase in [Phase::Compute, Phase::Memory, Phase::Comm, Phase::Idle] {
            let low = p.node_power_w(phase, CpuFrequency::Low);
            let med = p.node_power_w(phase, CpuFrequency::Medium);
            let high = p.node_power_w(phase, CpuFrequency::High);
            assert!(low < med && med < high, "{phase:?}");
        }
    }

    #[test]
    fn energy_is_power_times_time() {
        let p = archer2().power;
        let w = p.node_power_w(Phase::Memory, CpuFrequency::Medium);
        assert_close(
            p.node_energy_j(Phase::Memory, CpuFrequency::Medium, 3.0),
            3.0 * w,
            1e-9,
        );
    }
}
