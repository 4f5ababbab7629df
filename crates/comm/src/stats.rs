//! Per-rank traffic accounting.
//!
//! The analytic performance model (and several tests) need to know exactly
//! how much data a simulation moved: the paper's core claim is that
//! cache-blocking *halves the required communication*. Every send and
//! receive updates these counters, so a test can assert e.g. that a
//! cache-blocked QFT moves fewer bytes than the built-in one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic counters for one rank's traffic. Cheap to clone (shared).
#[derive(Debug, Default)]
pub struct TrafficCounters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    messages_received: AtomicU64,
    bytes_received: AtomicU64,
    /// Chunks completed by streamed exchanges (pipeline depth observable).
    exchange_chunks: AtomicU64,
    /// Payload bytes this rank contributed to statevector amplitude
    /// exchanges (chunked pairwise exchanges and batched permutations).
    /// A subset of `bytes_sent`: collectives and control traffic are
    /// excluded, so transpiler ablations compare like with like.
    bytes_exchanged: AtomicU64,
    /// Exchange bytes the streamed chunk driver currently holds: chunks
    /// packed but not yet sent, plus the payload being consumed.
    inflight_bytes: AtomicU64,
    /// High-water mark of `inflight_bytes`.
    peak_inflight_bytes: AtomicU64,
    /// Fault events injected by this rank's fault lane (delays, transient
    /// failures, corruption bursts, stalls). Zero when faults are off.
    faults_injected: AtomicU64,
    /// Operations retried after an injected transient failure.
    retries: AtomicU64,
    /// Corrupt payloads detected by checksum validation and discarded.
    corruptions_detected: AtomicU64,
}

impl TrafficCounters {
    /// Records one outgoing message of `bytes` length.
    pub fn record_send(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one incoming message of `bytes` length.
    pub fn record_recv(&self, bytes: usize) {
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records `chunks` completed chunks of one streamed exchange.
    pub fn record_exchange_chunks(&self, chunks: u64) {
        self.exchange_chunks.fetch_add(chunks, Ordering::Relaxed);
    }

    /// Records `bytes` of amplitude payload sent as part of a statevector
    /// exchange (pairwise chunked exchange or batched permutation).
    pub fn record_exchange_bytes(&self, bytes: u64) {
        self.bytes_exchanged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accounts `bytes` of exchange memory held (a streamed chunk, packed
    /// or being consumed), updating the high-water mark.
    pub fn scratch_acquire(&self, bytes: u64) {
        let now = self.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_inflight_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases `bytes` of exchange memory (the chunk was sent or
    /// consumed).
    pub fn scratch_release(&self, bytes: u64) {
        self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records one injected fault event (a delay, a transient-failure
    /// burst, a corruption burst, or a stall window hit).
    pub fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `attempts` retried operations after transient failures.
    pub fn record_retries(&self, attempts: u64) {
        self.retries.fetch_add(attempts, Ordering::Relaxed);
    }

    /// Records one corrupt payload caught by checksum validation.
    pub fn record_corruption_detected(&self) {
        self.corruptions_detected.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            exchange_chunks: self.exchange_chunks.load(Ordering::Relaxed),
            bytes_exchanged: self.bytes_exchanged.load(Ordering::Relaxed),
            peak_inflight_bytes: self.peak_inflight_bytes.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            corruptions_detected: self.corruptions_detected.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one rank's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Messages sent by this rank.
    pub messages_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Messages received by this rank.
    pub messages_received: u64,
    /// Payload bytes received by this rank.
    pub bytes_received: u64,
    /// Chunks completed by streamed exchanges on this rank.
    pub exchange_chunks: u64,
    /// Amplitude payload bytes this rank sent through statevector
    /// exchanges (a subset of `bytes_sent` that excludes collectives).
    pub bytes_exchanged: u64,
    /// High-water mark of bytes the streamed chunk driver held at once:
    /// packed-but-unsent chunks plus the payload being consumed (at most
    /// two chunks for a lazily packed exchange; an eagerly packed one
    /// holds its whole outgoing payload).
    pub peak_inflight_bytes: u64,
    /// Fault events injected on this rank (zero when faults are off).
    pub faults_injected: u64,
    /// Operations retried after injected transient failures.
    pub retries: u64,
    /// Corrupt payloads detected by checksum validation and discarded.
    pub corruptions_detected: u64,
}

impl TrafficStats {
    /// Element-wise aggregate, for combining across ranks: traffic totals
    /// sum; the scratch high-water mark takes the per-rank maximum (peaks
    /// on different ranks are concurrent, not additive).
    pub fn merge(self, other: TrafficStats) -> TrafficStats {
        TrafficStats {
            messages_sent: self.messages_sent + other.messages_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            messages_received: self.messages_received + other.messages_received,
            bytes_received: self.bytes_received + other.bytes_received,
            exchange_chunks: self.exchange_chunks + other.exchange_chunks,
            bytes_exchanged: self.bytes_exchanged + other.bytes_exchanged,
            peak_inflight_bytes: self.peak_inflight_bytes.max(other.peak_inflight_bytes),
            faults_injected: self.faults_injected + other.faults_injected,
            retries: self.retries + other.retries,
            corruptions_detected: self.corruptions_detected + other.corruptions_detected,
        }
    }

    /// Aggregates a collection of per-rank snapshots.
    pub fn total(stats: &[TrafficStats]) -> TrafficStats {
        stats
            .iter()
            .fold(TrafficStats::default(), |a, &b| a.merge(b))
    }
}

/// Shared handle to a rank's counters.
pub type SharedCounters = Arc<TrafficCounters>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = TrafficCounters::default();
        c.record_send(100);
        c.record_send(50);
        c.record_recv(30);
        let s = c.snapshot();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.messages_received, 1);
        assert_eq!(s.bytes_received, 30);
    }

    #[test]
    fn merge_and_total() {
        let a = TrafficStats {
            messages_sent: 1,
            bytes_sent: 10,
            messages_received: 2,
            bytes_received: 20,
            exchange_chunks: 4,
            bytes_exchanged: 8,
            peak_inflight_bytes: 128,
            faults_injected: 2,
            retries: 1,
            corruptions_detected: 0,
        };
        let b = TrafficStats {
            messages_sent: 3,
            bytes_sent: 30,
            messages_received: 4,
            bytes_received: 40,
            exchange_chunks: 6,
            bytes_exchanged: 24,
            peak_inflight_bytes: 96,
            faults_injected: 1,
            retries: 2,
            corruptions_detected: 3,
        };
        let t = TrafficStats::total(&[a, b]);
        assert_eq!(t.messages_sent, 4);
        assert_eq!(t.bytes_sent, 40);
        assert_eq!(t.messages_received, 6);
        assert_eq!(t.bytes_received, 60);
        assert_eq!(t.exchange_chunks, 10, "chunk counts sum");
        assert_eq!(t.bytes_exchanged, 32, "exchange payload bytes sum");
        assert_eq!(t.peak_inflight_bytes, 128, "peaks merge via max");
        assert_eq!(t.faults_injected, 3, "fault counts sum");
        assert_eq!(t.retries, 3, "retry counts sum");
        assert_eq!(t.corruptions_detected, 3, "corruption counts sum");
    }

    #[test]
    fn fault_counters_accumulate() {
        let c = TrafficCounters::default();
        c.record_fault_injected();
        c.record_fault_injected();
        c.record_retries(3);
        c.record_corruption_detected();
        let s = c.snapshot();
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.retries, 3);
        assert_eq!(s.corruptions_detected, 1);
    }

    #[test]
    fn scratch_gauge_tracks_high_water_mark() {
        let c = TrafficCounters::default();
        c.scratch_acquire(100);
        c.scratch_acquire(60); // 160 held at once
        c.scratch_release(100);
        c.scratch_acquire(50); // back to 110: below the peak
        assert_eq!(c.snapshot().peak_inflight_bytes, 160);
        c.record_exchange_chunks(8);
        c.record_exchange_chunks(3);
        assert_eq!(c.snapshot().exchange_chunks, 11);
        c.record_exchange_bytes(512);
        c.record_exchange_bytes(256);
        assert_eq!(c.snapshot().bytes_exchanged, 768);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = Arc::new(TrafficCounters::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.record_send(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().messages_sent, 4000);
        assert_eq!(c.snapshot().bytes_sent, 4000);
    }
}
