//! CPU frequency levels and their scaling laws.
//!
//! ARCHER2 exposes three frequencies through SLURM (§2.2, optimisation 1):
//! 1.50 GHz (low), 2.00 GHz (medium, the default) and 2.25 GHz (high).
//! The model applies textbook DVFS behaviour, calibrated to the paper's
//! observations:
//!
//! * compute-bound time scales inversely with the clock;
//! * memory- and network-bound time barely move (uncore/NIC clocks are
//!   largely independent), with small empirical factors;
//! * dynamic power scales like `f·V²` with `V ∝ f`, i.e. cubically —
//!   which yields the paper's "+25 % energy for 5–10 % speed" at high
//!   frequency and "equal energy, much slower" at low frequency.

/// The SLURM-selectable CPU frequency levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CpuFrequency {
    /// 1.50 GHz.
    Low,
    /// 2.00 GHz — the ARCHER2 default.
    #[default]
    Medium,
    /// 2.25 GHz.
    High,
}

/// The calibration reference frequency (the ARCHER2 default).
pub const REFERENCE_GHZ: f64 = 2.0;

impl CpuFrequency {
    /// Clock in GHz.
    pub fn ghz(self) -> f64 {
        match self {
            CpuFrequency::Low => 1.5,
            CpuFrequency::Medium => 2.0,
            CpuFrequency::High => 2.25,
        }
    }

    /// SLURM-style label.
    pub fn label(self) -> &'static str {
        match self {
            CpuFrequency::Low => "low (1.50 GHz)",
            CpuFrequency::Medium => "medium (2.00 GHz)",
            CpuFrequency::High => "high (2.25 GHz)",
        }
    }

    /// Multiplier on compute-bound time relative to 2.00 GHz.
    pub fn compute_time_scale(self) -> f64 {
        REFERENCE_GHZ / self.ghz()
    }

    /// Multiplier on memory-bound time. Empirical small coupling of the
    /// memory subsystem to core clock.
    pub fn memory_time_scale(self) -> f64 {
        match self {
            CpuFrequency::Low => 1.05,
            CpuFrequency::Medium => 1.0,
            CpuFrequency::High => 0.97,
        }
    }

    /// Multiplier on communication-bound time (MPI progress and packing
    /// run on the cores, so comm time couples weakly to the clock).
    pub fn comm_time_scale(self) -> f64 {
        match self {
            CpuFrequency::Low => 1.08,
            CpuFrequency::Medium => 1.0,
            CpuFrequency::High => 0.96,
        }
    }

    /// Multiplier on *dynamic* node power.
    ///
    /// Above the reference clock, boosting needs extra voltage, so power
    /// follows the cubic `f·V²` law with `V ∝ f`. Below it the voltage is
    /// already at its floor and power falls only linearly with `f` — which
    /// is exactly why the paper finds that dropping to 1.50 GHz "worsens
    /// the runtime while keeping the energy usage fixed" (§4).
    pub fn dynamic_power_scale(self) -> f64 {
        let r = self.ghz() / REFERENCE_GHZ;
        if r >= 1.0 {
            r * r * r
        } else {
            r
        }
    }

    /// All levels, for sweeps.
    pub fn all() -> [CpuFrequency; 3] {
        [CpuFrequency::Low, CpuFrequency::Medium, CpuFrequency::High]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_close;

    #[test]
    fn clocks() {
        assert_close(CpuFrequency::Low.ghz(), 1.5, 1e-12);
        assert_close(CpuFrequency::Medium.ghz(), 2.0, 1e-12);
        assert_close(CpuFrequency::High.ghz(), 2.25, 1e-12);
    }

    #[test]
    fn medium_is_the_identity() {
        let m = CpuFrequency::Medium;
        assert_close(m.compute_time_scale(), 1.0, 1e-12);
        assert_close(m.memory_time_scale(), 1.0, 1e-12);
        assert_close(m.comm_time_scale(), 1.0, 1e-12);
        assert_close(m.dynamic_power_scale(), 1.0, 1e-12);
    }

    #[test]
    fn high_frequency_trades_time_for_power() {
        let h = CpuFrequency::High;
        assert!(h.compute_time_scale() < 1.0);
        assert!(h.memory_time_scale() < 1.0);
        // +12.5 % clock → ≈ +42 % dynamic power (cubic law)
        assert_close(h.dynamic_power_scale(), 1.423828125, 1e-9);
    }

    #[test]
    fn low_frequency_is_slower_everywhere() {
        let l = CpuFrequency::Low;
        assert!(l.compute_time_scale() > 1.3);
        assert!(l.memory_time_scale() > 1.0);
        // Linear regime below the reference clock (voltage floor).
        assert_close(l.dynamic_power_scale(), 0.75, 1e-12);
    }

    #[test]
    fn all_lists_three() {
        assert_eq!(CpuFrequency::all().len(), 3);
    }
}
