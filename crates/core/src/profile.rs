//! Measured per-class runtime profiles (fig 5 on the thread cluster).
//!
//! The paper profiles its runs into MPI / memory / compute shares. On the
//! thread cluster we can measure wall-clock per gate and attribute it to
//! the gate's locality class: distributed-gate time is communication-
//! dominated, local-memory and fully-local time are sweep-dominated. The
//! class split is the measured analogue of fig 5's bars.

use qse_circuit::classify::GateClass;
use qse_util::json::{Json, ToJson};
use std::time::Duration;

/// Accumulated wall-clock per locality class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassProfile {
    /// Seconds spent in fully-local (diagonal) sweeps.
    pub fully_local_s: f64,
    /// Seconds spent in local-memory pair sweeps.
    pub local_memory_s: f64,
    /// Seconds spent in distributed gates (exchange + combine).
    pub distributed_s: f64,
}

impl ClassProfile {
    /// Adds a gate's measured duration to its class bucket.
    pub fn record(&mut self, class: GateClass, elapsed: Duration) {
        let s = elapsed.as_secs_f64();
        match class {
            GateClass::FullyLocal => self.fully_local_s += s,
            GateClass::LocalMemory => self.local_memory_s += s,
            GateClass::Distributed => self.distributed_s += s,
        }
    }

    /// Total measured seconds.
    pub fn total_s(&self) -> f64 {
        self.fully_local_s + self.local_memory_s + self.distributed_s
    }

    /// Fraction of time in distributed gates (the "MPI" bar).
    pub fn distributed_fraction(&self) -> f64 {
        if self.total_s() == 0.0 {
            0.0
        } else {
            self.distributed_s / self.total_s()
        }
    }
}

impl ToJson for ClassProfile {
    fn to_json(&self) -> Json {
        Json::object([
            ("fully_local_s", self.fully_local_s.to_json()),
            ("local_memory_s", self.local_memory_s.to_json()),
            ("distributed_s", self.distributed_s.to_json()),
        ])
    }
}

/// A measured thread-cluster run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Register width.
    pub n_qubits: u32,
    /// Rank count.
    pub n_ranks: u64,
    /// End-to-end wall-clock (rank 0's view), seconds.
    pub wall_s: f64,
    /// Per-class breakdown.
    pub profile: ClassProfile,
    /// Total bytes sent across all ranks.
    pub bytes_sent: u64,
    /// Amplitude payload bytes sent through statevector exchanges across
    /// all ranks — the subset of `bytes_sent` the comm-avoiding
    /// transpiler minimises (collectives and control traffic excluded).
    pub bytes_exchanged: u64,
    /// Total messages sent across all ranks.
    pub messages_sent: u64,
    /// Exchange chunks completed across all ranks (streamed exchanges
    /// record one per received chunk).
    pub exchange_chunks: u64,
    /// Most bytes the streamed chunk driver held at once on any rank
    /// (packed-but-unsent chunks plus the payload being consumed) — at
    /// most ring-depth × chunk size unless a full SWAP packed eagerly.
    pub peak_inflight_bytes: u64,
    /// Circuit gate count.
    pub gate_count: usize,
    /// Fault events injected across all ranks (0 without a fault plan).
    pub faults_injected: u64,
    /// Transient-failure retries performed across all ranks.
    pub retries: u64,
    /// Corrupted payloads detected and discarded across all ranks.
    pub corruptions_detected: u64,
    /// Which engine produced this run ("dense", "sparse",
    /// "stabilizer") — the thread-cluster executor always reports
    /// "dense"; the [`crate::executor::EngineExecutor`] overrides it.
    pub engine: &'static str,
}

impl ProfiledRun {
    /// Bytes per rank per distributed gate — should equal the local slice
    /// size (or half, with half-exchange SWAPs).
    pub fn bytes_per_rank(&self) -> u64 {
        self.bytes_sent / self.n_ranks
    }
}

impl ToJson for ProfiledRun {
    fn to_json(&self) -> Json {
        Json::object([
            ("n_qubits", self.n_qubits.to_json()),
            ("n_ranks", self.n_ranks.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("profile", self.profile.to_json()),
            ("bytes_sent", self.bytes_sent.to_json()),
            ("bytes_exchanged", self.bytes_exchanged.to_json()),
            ("messages_sent", self.messages_sent.to_json()),
            ("exchange_chunks", self.exchange_chunks.to_json()),
            ("peak_inflight_bytes", self.peak_inflight_bytes.to_json()),
            ("gate_count", self.gate_count.to_json()),
            ("faults_injected", self.faults_injected.to_json()),
            ("retries", self.retries.to_json()),
            ("corruptions_detected", self.corruptions_detected.to_json()),
            ("engine", self.engine.to_string().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_class() {
        let mut p = ClassProfile::default();
        p.record(GateClass::FullyLocal, Duration::from_millis(100));
        p.record(GateClass::LocalMemory, Duration::from_millis(200));
        p.record(GateClass::Distributed, Duration::from_millis(700));
        assert!((p.total_s() - 1.0).abs() < 1e-9);
        assert!((p.distributed_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_has_zero_fraction() {
        assert_eq!(ClassProfile::default().distributed_fraction(), 0.0);
    }
}
