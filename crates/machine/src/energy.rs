//! Job-level energy accounting — the model's stand-in for SLURM's
//! per-node power counters plus the paper's switch estimate (§2.4).

/// Energy totals for one modelled job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy drawn by nodes while compute-bound, joules.
    pub compute_j: f64,
    /// Energy drawn by nodes while memory-bound.
    pub memory_j: f64,
    /// Energy drawn by nodes during communication.
    pub comm_j: f64,
    /// Energy drawn by in-job spectator (idle) nodes.
    pub idle_j: f64,
    /// Network-switch energy per `E_net = n_s · P̄_s · Δt`.
    pub switch_j: f64,
}

impl EnergyBreakdown {
    /// Node-counter energy (what SLURM would report).
    pub fn node_total_j(&self) -> f64 {
        self.compute_j + self.memory_j + self.comm_j + self.idle_j
    }

    /// Grand total including the network estimate.
    pub fn total_j(&self) -> f64 {
        self.node_total_j() + self.switch_j
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.compute_j += other.compute_j;
        self.memory_j += other.memory_j;
        self.comm_j += other.comm_j;
        self.idle_j += other.idle_j;
        self.switch_j += other.switch_j;
    }
}

/// Formats joules with an adaptive unit (J / kJ / MJ), as the paper's
/// tables do.
pub fn format_energy(joules: f64) -> String {
    if joules.abs() >= 1e6 {
        format!("{:.1} MJ", joules / 1e6)
    } else if joules.abs() >= 1e3 {
        format!("{:.1} kJ", joules / 1e3)
    } else {
        format!("{joules:.1} J")
    }
}

/// Converts joules to kilowatt-hours (the paper: "233 MJ … is around
/// 65 kWh").
pub fn joules_to_kwh(joules: f64) -> f64 {
    joules / 3.6e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_close;

    #[test]
    fn totals_add_up() {
        let e = EnergyBreakdown {
            compute_j: 1.0,
            memory_j: 2.0,
            comm_j: 3.0,
            idle_j: 0.5,
            switch_j: 4.0,
        };
        assert_close(e.node_total_j(), 6.5, 1e-12);
        assert_close(e.total_j(), 10.5, 1e-12);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = EnergyBreakdown::default();
        a.accumulate(&EnergyBreakdown {
            compute_j: 1.0,
            memory_j: 1.0,
            comm_j: 1.0,
            idle_j: 1.0,
            switch_j: 1.0,
        });
        a.accumulate(&EnergyBreakdown {
            compute_j: 2.0,
            memory_j: 0.0,
            comm_j: 0.0,
            idle_j: 0.0,
            switch_j: 0.0,
        });
        assert_close(a.compute_j, 3.0, 1e-12);
        assert_close(a.total_j(), 7.0, 1e-12);
    }

    #[test]
    fn formatting_units() {
        assert_eq!(format_energy(12.3), "12.3 J");
        assert_eq!(format_energy(15_300.0), "15.3 kJ");
        assert_eq!(format_energy(664e6), "664.0 MJ");
    }

    #[test]
    fn paper_kwh_conversion() {
        // "The biggest energy improvement was 233 MJ, which is around 65 kWh."
        assert_close(joules_to_kwh(233e6), 64.7, 0.5);
    }
}
