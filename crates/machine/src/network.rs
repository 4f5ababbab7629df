//! Interconnect model: topology, bandwidth and switch power.
//!
//! ARCHER2's Slingshot network provides one switch per 8 nodes; the paper
//! estimates its energy as `E_net = n_s · P̄_s · Δt` with `P̄_s = 235 W`
//! (§2.4). Exchange bandwidth is calibrated from Table 1: a 64 GB full
//! exchange takes ≈ 8.9 s with blocking sendrecv and ≈ 8.1 s with the
//! non-blocking rewrite (after subtracting the combine sweep).

use crate::cost::CommMode;

/// Interconnect description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Nodes served by each switch (8 on ARCHER2).
    pub nodes_per_switch: u64,
    /// Average switch power under load, watts (235 W, §2.4).
    pub switch_power_w: f64,
    /// Effective per-rank exchange bandwidth, bytes/s, with blocking
    /// chunked sendrecv (QuEST default).
    pub exchange_bw_blocking: f64,
    /// Effective per-rank exchange bandwidth with non-blocking posts.
    pub exchange_bw_nonblocking: f64,
    /// Per-message latency in seconds (one per chunk).
    pub message_latency_s: f64,
    /// Largest single message, bytes (2 GiB MPI cap, §2.1).
    pub max_message_bytes: u64,
}

impl NetworkSpec {
    /// Switches energised by a job of `n_nodes` (§2.4's `n_s`).
    pub fn switches_for(&self, n_nodes: u64) -> u64 {
        n_nodes.div_ceil(self.nodes_per_switch)
    }

    /// The paper's switch-energy estimate `E_net = n_s · P̄_s · Δt`.
    pub fn switch_energy_j(&self, n_nodes: u64, runtime_s: f64) -> f64 {
        self.switches_for(n_nodes) as f64 * self.switch_power_w * runtime_s
    }

    /// Effective bandwidth for an exchange mode.
    pub fn exchange_bandwidth(&self, mode: CommMode) -> f64 {
        match mode {
            CommMode::Blocking => self.exchange_bw_blocking,
            CommMode::NonBlocking => self.exchange_bw_nonblocking,
        }
    }

    /// Messages needed to move `bytes` under the message-size cap.
    pub fn messages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.max_message_bytes)
    }

    /// Wall-clock seconds for one pairwise exchange of `bytes` per rank
    /// (both directions overlap on a full-duplex fabric; the calibrated
    /// effective bandwidths already absorb duplex inefficiency).
    pub fn exchange_time_s(&self, bytes: u64, mode: CommMode) -> f64 {
        self.messages_for(bytes) as f64 * self.message_latency_s
            + bytes as f64 / self.exchange_bandwidth(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archer2::archer2;
    use qse_math::approx::assert_close;

    #[test]
    fn switch_counting_matches_paper_topology() {
        let net = archer2().network;
        assert_eq!(net.switches_for(8), 1);
        assert_eq!(net.switches_for(9), 2);
        assert_eq!(net.switches_for(64), 8);
        assert_eq!(net.switches_for(4096), 512);
    }

    #[test]
    fn switch_energy_formula() {
        // E_net = n_s · 235 W · Δt: 64 nodes for 10 s → 8 × 235 × 10.
        let net = archer2().network;
        assert_close(net.switch_energy_j(64, 10.0), 18_800.0, 1e-9);
    }

    #[test]
    fn paper_chunk_count() {
        // 64 GB exchange under the 2 GiB cap → 32 messages (§2.1).
        let net = archer2().network;
        assert_eq!(net.messages_for(64 * (1 << 30) as u64), 32);
    }

    #[test]
    fn nonblocking_is_faster() {
        let net = archer2().network;
        let bytes = 64 * (1 << 30) as u64;
        let blocking = net.exchange_time_s(bytes, CommMode::Blocking);
        let nonblocking = net.exchange_time_s(bytes, CommMode::NonBlocking);
        assert!(nonblocking < blocking);
        // Calibration targets: 8.9 s vs 8.1 s for a 64 GB exchange.
        assert_close(blocking, 8.88, 0.15);
        assert_close(nonblocking, 8.07, 0.15);
    }
}
