//! A fixed piece of work, independent of the program under test, timed
//! beside every operation so that the host's own speed can be divided
//! out of the end-to-end times.
//!
//! The sandbox this benchmark's bounds were set on is a shared two-core
//! VM that moves between a faster and a slower regime every few minutes
//! (CPU time moving with wall-clock, so it is not steal). A sustained
//! loop reads 1.2× longer in the slow regime; a served job, which is
//! short bursts of work between thread wake-ups, reads 1.5–1.7× longer.
//! Raw seconds from ten runs therefore spread by 15–30 %, wider than any
//! bound the contract allows. What a run can do is measure the host next
//! to the work, with work of the same *shape*: as many threads in
//! lockstep, about as many bytes per step, as many steps between a
//! spawn and a join. A change to the program moves the operation and
//! not the calibration; the host moves both. Dividing leaves 4–8 %.

use super::stats::median;
use super::workload::Workload;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// One repeat of the calibration work: `jobs` times over, spawn `threads`
/// threads that each make `steps` butterfly passes over their own
/// `slice_len` doubles, run a multiply-add chain of `chain` links and
/// meet at a barrier after every pass, then join them.
#[derive(Debug, Clone, Copy)]
pub struct Calibrator {
    threads: usize,
    slice_len: usize,
    steps: usize,
    chain: usize,
    jobs: usize,
    /// What [`Calibrator::seconds`] reads at the nominal host speed.
    nominal_s: f64,
}

/// What [`Calibrator::seconds`] reads on the reference host in its
/// faster regime, for either shape at full size — so that calibrated
/// seconds read like seconds there.
const NOMINAL_S: f64 = 0.15;

/// Smoke sizes do a sixteenth of the work.
const SMOKE_SHRINK: usize = 16;

/// One reading is the median of this many repeats of a fifth of the
/// work, times five: four threads meeting at a barrier on two cores now
/// and then lose a whole scheduler timeslice, and a reading must not.
const REPEATS: usize = 5;

impl Calibrator {
    /// The calibration shaped like `workload`'s executions.
    ///
    /// The dense workloads and `serve_zipf_warm` spend their time in
    /// sweeps that run for tens of milliseconds at a stretch: one job of
    /// 400 passes over 4 MiB per kernel thread — too big for a core's
    /// private caches, about one rank's share of a 20-qubit slice — with
    /// a dependent multiply-add chain per pass, which is what clock
    /// frequency and a busy sibling hyperthread slow down.
    /// `serve_unique_cold` is thousands of 10 ms jobs on four rank
    /// threads each, dominated by spawning, waking and joining them: 180
    /// jobs of four threads, 30 lockstep passes over 16 KiB each.
    pub fn for_workload(workload: Workload, smoke: bool) -> Self {
        let shrink = if smoke { SMOKE_SHRINK } else { 1 };
        let nominal_s = NOMINAL_S / shrink as f64;
        if workload == Workload::ServeUniqueCold {
            Calibrator {
                threads: 4,
                slice_len: 1 << 11,
                steps: 30,
                chain: 0,
                jobs: 180 / REPEATS / shrink,
                nominal_s,
            }
        } else {
            Calibrator {
                threads: qse_util::parallel::num_threads(),
                slice_len: 1 << 19,
                steps: 400 / REPEATS / shrink,
                chain: 15_000,
                jobs: 1,
                nominal_s,
            }
        }
    }

    /// Does the work and returns the seconds it took (see [`REPEATS`]).
    /// Buffers live only for the call, so that between two operations
    /// of a dense workload they do not add to the peak the workload
    /// itself set.
    pub fn seconds(&self) -> f64 {
        let repeats: Vec<f64> = (0..REPEATS).map(|_| self.once()).collect();
        median(&repeats) * REPEATS as f64
    }

    fn once(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.jobs {
            let barrier = Barrier::new(self.threads);
            std::thread::scope(|scope| {
                for _ in 0..self.threads {
                    scope.spawn(|| {
                        let mut buffer = vec![1.0f64; self.slice_len];
                        let mut lanes = [1.0f64, 1.1, 1.2, 1.3];
                        let scale = std::f64::consts::FRAC_1_SQRT_2;
                        for _ in 0..self.steps {
                            let (lo, hi) = buffer.split_at_mut(self.slice_len / 2);
                            for (x, y) in lo.iter_mut().zip(hi) {
                                let (a, b) = (*x, *y);
                                *x = (a + b) * scale;
                                *y = (a - b) * scale;
                            }
                            for _ in 0..self.chain {
                                for v in &mut lanes {
                                    *v = v.mul_add(0.999_999, 1e-9);
                                }
                            }
                            barrier.wait();
                        }
                        black_box((buffer, lanes));
                    });
                }
            });
        }
        t.elapsed().as_secs_f64()
    }

    /// `seconds` measured while the calibration beside it read `before`
    /// and `after`, as seconds on the reference host in its faster
    /// regime.
    pub fn calibrated(&self, seconds: f64, before: f64, after: f64) -> f64 {
        seconds * self.nominal_s / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seconds_scale_with_the_host() {
        for workload in Workload::ALL {
            let cal = Calibrator::for_workload(workload, true);
            assert!(cal.seconds() > 0.0);
            let nominal = cal.nominal_s;
            // At nominal speed, calibrated seconds are the seconds measured.
            assert!((cal.calibrated(2.0, nominal, nominal) - 2.0).abs() < 1e-12);
            // A host at half speed doubles both; the quotient stays.
            assert!((cal.calibrated(4.0, 2.0 * nominal, 2.0 * nominal) - 2.0).abs() < 1e-12);
        }
    }
}
