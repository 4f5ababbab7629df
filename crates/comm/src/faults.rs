//! Deterministic fault injection for the message-passing substrate.
//!
//! The paper's 4,096-node runs assume a healthy fabric; at that scale
//! transient link stalls, slow ranks, and corrupted frames are routine.
//! This module lets a [`crate::Universe`] be constructed with a seeded
//! [`FaultPlan`] that perturbs every communicator deterministically:
//!
//! * **delivery delay jitter** — messages are stamped with a delay in
//!   slices of the modelled clock; the receiver holds them back for that
//!   many ticks before they become visible to matching;
//! * **transient send/recv failures** — an operation fails a bounded
//!   number of times and is retried with deterministic backoff; a burst
//!   longer than the retry budget surfaces as
//!   [`crate::CommError::Transient`];
//! * **payload corruption** — a send delivers one or more corrupted
//!   copies (flipped byte, original checksum) ahead of the pristine
//!   retransmission; the receiver's checksum validation discards them,
//!   and a corruption burst longer than the budget with no pristine
//!   copy surfaces as [`crate::CommError::Corrupt`];
//! * **per-rank stall windows** — one rank's sends inside an operation
//!   window pick up extra delay slices, modelling a slow node.
//!
//! # Determinism
//!
//! Every fault decision is drawn at the *sender*, in program order, from
//! a per-rank PRNG seeded from `(plan seed, rank)`. Thread scheduling
//! cannot reorder a single rank's sends, so the fault sequence each rank
//! experiences is a pure function of the seed — a failing soak seed
//! replays exactly. Receive-side transient failures are drawn once per
//! receive *entry* (also program order). The receiver never draws
//! randomness per arriving message, because arrival interleaving across
//! senders is scheduler-dependent.
//!
//! Delays and timeouts are *modelled*, not wall-clock: a held message is
//! released after N ticks — a blocked receive ticks once per dequeue and
//! once per empty 25 ms slice — and when a fault lane is active the
//! receive deadline counts empty slices instead of elapsed time, so
//! delay-versus-timeout boundary outcomes are exact (see
//! `delay_*_the_timeout_boundary_*` tests).

use crate::error::CommError;
use crate::message::Envelope;
use crate::Result;
use qse_util::{Bytes, Rng, StdRng};
use std::collections::HashMap;

/// Knobs for one deterministic fault plan. `Copy` and comparable so it
/// can ride inside higher-level run configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; each rank derives its own stream from `(seed, rank)`.
    pub seed: u64,
    /// Probability that a send's delivery is delayed. A value `>= 1.0`
    /// delays every message by exactly `max_delay_slices` (the
    /// deterministic mode the timeout boundary tests rely on).
    pub p_delay: f64,
    /// Maximum injected delay, in slices of the modelled clock.
    pub max_delay_slices: u32,
    /// Probability that a send delivers corrupted copies first. `>= 1.0`
    /// corrupts with a burst of exactly `max_corrupt_burst`.
    pub p_corrupt: f64,
    /// Maximum corrupted copies per triggered corruption. A burst larger
    /// than `retry_budget` drops the pristine copy entirely — permanent
    /// corruption, unrecoverable by design.
    pub max_corrupt_burst: u32,
    /// Probability that a send transiently fails. `>= 1.0` fails with a
    /// burst of exactly `max_fail_burst`.
    pub p_send_fail: f64,
    /// Probability that a receive entry transiently fails. `>= 1.0`
    /// fails with a burst of exactly `max_fail_burst`.
    pub p_recv_fail: f64,
    /// Maximum forced failures per triggered transient fault. A burst
    /// larger than `retry_budget` exhausts the retry loop.
    pub max_fail_burst: u32,
    /// Retries (and corrupt discards) tolerated before giving up with a
    /// typed error.
    pub retry_budget: u32,
    /// Rank whose sends stall inside the window, if any.
    pub stall_rank: Option<usize>,
    /// Half-open send-operation index window `[start, end)` during which
    /// the stalled rank's sends pick up extra delay.
    pub stall_window: (u64, u64),
    /// Extra delay slices added to each stalled send.
    pub stall_extra_slices: u32,
}

impl FaultConfig {
    /// A plan that injects nothing (all probabilities zero). Running
    /// under it still stamps checksums, unlike running with no plan.
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            p_delay: 0.0,
            max_delay_slices: 0,
            p_corrupt: 0.0,
            max_corrupt_burst: 0,
            p_send_fail: 0.0,
            p_recv_fail: 0.0,
            max_fail_burst: 0,
            retry_budget: 3,
            stall_rank: None,
            stall_window: (0, 0),
            stall_extra_slices: 0,
        }
    }

    /// A moderately hostile plan that is *recoverable by construction*:
    /// every fault burst fits inside the retry budget, so a run under it
    /// must produce a bit-for-bit identical result to the fault-free run.
    pub fn recoverable(seed: u64) -> Self {
        FaultConfig {
            seed,
            p_delay: 0.25,
            max_delay_slices: 3,
            p_corrupt: 0.15,
            max_corrupt_burst: 2,
            p_send_fail: 0.15,
            p_recv_fail: 0.1,
            max_fail_burst: 2,
            retry_budget: 3,
            stall_rank: None,
            stall_window: (0, 0),
            stall_extra_slices: 0,
        }
    }

    /// A plan whose every send delivers only corrupted copies — more of
    /// them than the retry budget tolerates and never a pristine one.
    /// Every exchanging rank must surface [`CommError::Corrupt`], or
    /// [`CommError::Aborted`] carrying it when a peer gave up first.
    pub fn permanent_corruption(seed: u64) -> Self {
        let budget = 2;
        FaultConfig {
            p_corrupt: 1.0,
            max_corrupt_burst: budget + 2,
            retry_budget: budget,
            ..Self::disabled(seed)
        }
    }

    /// A plan whose every send fails more times than the retry budget
    /// tolerates. The very first send on each rank must surface
    /// [`CommError::Transient`], or [`CommError::Aborted`] carrying it
    /// when a peer gave up first.
    pub fn exhausted_retries(seed: u64) -> Self {
        let budget = 2;
        FaultConfig {
            p_send_fail: 1.0,
            max_fail_burst: budget + 2,
            retry_budget: budget,
            ..Self::disabled(seed)
        }
    }

    /// True when no fault burst can outlast the retry budget, i.e. a run
    /// under this plan must complete with a correct result.
    pub fn is_recoverable(&self) -> bool {
        self.max_fail_burst <= self.retry_budget && self.max_corrupt_burst <= self.retry_budget
    }

    /// Checks the probabilities are sane; used by [`FaultPlan::new`].
    pub fn validate(&self) -> Result<()> {
        for p in [self.p_delay, self.p_corrupt, self.p_send_fail, self.p_recv_fail] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CommError::InvalidConfig(
                    "fault probabilities must lie in [0, 1]",
                ));
            }
        }
        if self.stall_window.0 > self.stall_window.1 {
            return Err(CommError::InvalidConfig(
                "stall window start must not exceed its end",
            ));
        }
        Ok(())
    }

    /// Parses a `key=value,key=value` fault spec, the `--faults` CLI
    /// syntax. `seed=N` is required; all other keys override the
    /// [`FaultConfig::recoverable`] baseline derived from that seed:
    /// `delay`, `corrupt`, `fail`, `recv_fail` (probabilities),
    /// `delay_slices`, `corrupt_burst`, `fail_burst`, `budget`,
    /// `stall_rank`, `stall_from`, `stall_len`, `stall_slices`.
    pub fn parse_spec(spec: &str) -> std::result::Result<FaultConfig, String> {
        let mut seed = None;
        let mut overrides = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item '{part}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("fault seed '{value}' is not a u64"))?,
                );
            } else {
                overrides.push((key.to_string(), value.to_string()));
            }
        }
        let seed = seed.ok_or("fault spec needs seed=N")?;
        let mut cfg = FaultConfig::recoverable(seed);
        let prob = |v: &str, key: &str| -> std::result::Result<f64, String> {
            let p = v
                .parse::<f64>()
                .map_err(|_| format!("fault {key} '{v}' is not a probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {key} '{v}' must lie in [0, 1]"));
            }
            Ok(p)
        };
        let int = |v: &str, key: &str| -> std::result::Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("fault {key} '{v}' is not an integer"))
        };
        // Parse narrow fields at their real width so an oversized value
        // is a spec error, not a silent truncation.
        let int32 = |v: &str, key: &str| -> std::result::Result<u32, String> {
            v.parse::<u32>()
                .map_err(|_| format!("fault {key} '{v}' is not a 32-bit integer"))
        };
        let rank = |v: &str, key: &str| -> std::result::Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("fault {key} '{v}' is not a rank index"))
        };
        for (key, v) in &overrides {
            match key.as_str() {
                "delay" => cfg.p_delay = prob(v, key)?,
                "corrupt" => cfg.p_corrupt = prob(v, key)?,
                "fail" => cfg.p_send_fail = prob(v, key)?,
                "recv_fail" => cfg.p_recv_fail = prob(v, key)?,
                "delay_slices" => cfg.max_delay_slices = int32(v, key)?,
                "corrupt_burst" => cfg.max_corrupt_burst = int32(v, key)?,
                "fail_burst" => cfg.max_fail_burst = int32(v, key)?,
                "budget" => cfg.retry_budget = int32(v, key)?,
                "stall_rank" => cfg.stall_rank = Some(rank(v, key)?),
                "stall_from" => cfg.stall_window.0 = int(v, key)?,
                "stall_len" => cfg.stall_window.1 = cfg.stall_window.0 + int(v, key)?,
                "stall_slices" => cfg.stall_extra_slices = int32(v, key)?,
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        if cfg.stall_rank.is_some() && cfg.stall_window.1 == 0 {
            cfg.stall_window = (0, u64::MAX);
            cfg.stall_extra_slices = cfg.stall_extra_slices.max(1);
        }
        Ok(cfg)
    }
}

/// A validated fault plan, shared by the whole universe. Each rank's
/// communicator derives its own [`FaultLane`] from it.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Validates `config` into a plan.
    pub fn new(config: FaultConfig) -> Result<FaultPlan> {
        config.validate()?;
        Ok(FaultPlan { config })
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Builds rank `rank`'s deterministic fault lane.
    pub fn lane(&self, rank: usize) -> FaultLane {
        FaultLane::new(self.config, rank)
    }
}

/// Fault decisions for one send, drawn in program order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFaults {
    /// Forced transient failures before the send may proceed. A burst
    /// beyond the retry budget aborts the send with
    /// [`CommError::Transient`].
    pub transient_attempts: u32,
    /// Corrupted copies delivered ahead of the pristine payload.
    pub corrupt_copies: u32,
    /// True when the corruption burst exceeds the retry budget: no
    /// pristine copy is sent at all (permanent corruption).
    pub drop_pristine: bool,
    /// Delivery delay stamped on every copy, in modelled-clock slices.
    pub delay_slices: u32,
    /// How many distinct fault events this plan injected (for stats).
    pub injected_events: u32,
}

/// One held (delayed) envelope: invisible to matching until the lane's
/// modelled clock reaches `release_tick`.
#[derive(Debug)]
struct HeldEnvelope {
    release_tick: u64,
    env: Envelope,
}

/// One rank's deterministic fault stream plus its receive-side recovery
/// state (held delayed envelopes, consecutive corrupt-discard counts).
#[derive(Debug)]
pub struct FaultLane {
    config: FaultConfig,
    rank: usize,
    rng: StdRng,
    send_ops: u64,
    /// Modelled clock: advances once per receive wait event.
    now: u64,
    held: Vec<HeldEnvelope>,
    /// Consecutive checksum failures per `(src, tag)`, cleared by a
    /// valid delivery.
    corrupt_discards: HashMap<(usize, u64), u32>,
}

impl FaultLane {
    /// Builds rank `rank`'s lane for `config`.
    pub fn new(config: FaultConfig, rank: usize) -> Self {
        // Golden-ratio mix keeps per-rank streams decorrelated; StdRng's
        // seeding runs the result through SplitMix64.
        let seed = config
            .seed
            .wrapping_add((rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultLane {
            config,
            rank,
            rng: StdRng::seed_from_u64(seed),
            send_ops: 0,
            now: 0,
            held: Vec::new(),
            corrupt_discards: HashMap::new(),
        }
    }

    /// The plan's retry (and corrupt-discard) budget.
    pub fn retry_budget(&self) -> u32 {
        self.config.retry_budget
    }

    /// Draws a fault burst: zero with probability `1 - p`, otherwise
    /// uniform in `1..=max`; `p >= 1.0` always yields exactly `max`.
    fn draw_burst(&mut self, p: f64, max: u32) -> u32 {
        if max == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return max;
        }
        if self.rng.random_bool(p) {
            self.rng.random_range(1u32..=max)
        } else {
            0
        }
    }

    /// Draws the fault decisions for this rank's next send, advancing
    /// the per-rank program-order fault stream.
    pub fn plan_send(&mut self) -> SendFaults {
        let op = self.send_ops;
        self.send_ops += 1;
        let mut injected = 0;
        let transient_attempts = self.draw_burst(self.config.p_send_fail, self.config.max_fail_burst);
        if transient_attempts > 0 {
            injected += 1;
        }
        let corrupt_copies = self.draw_burst(self.config.p_corrupt, self.config.max_corrupt_burst);
        if corrupt_copies > 0 {
            injected += 1;
        }
        let mut delay_slices = self.draw_burst(self.config.p_delay, self.config.max_delay_slices);
        if delay_slices > 0 {
            injected += 1;
        }
        if let Some(stalled) = self.config.stall_rank {
            let (from, to) = self.config.stall_window;
            if stalled == self.rank && op >= from && op < to {
                delay_slices += self.config.stall_extra_slices;
                injected += 1;
            }
        }
        SendFaults {
            transient_attempts,
            corrupt_copies,
            drop_pristine: corrupt_copies > self.config.retry_budget,
            delay_slices,
            injected_events: injected,
        }
    }

    /// Draws the forced transient-failure count for this rank's next
    /// receive entry (zero for most entries).
    pub fn plan_recv(&mut self) -> u32 {
        self.draw_burst(self.config.p_recv_fail, self.config.max_fail_burst)
    }

    /// Produces a corrupted copy of `payload`: one byte flipped at a
    /// drawn position (or one junk byte appended to an empty payload,
    /// which equally fails validation).
    pub fn corrupt_payload(&mut self, payload: &[u8]) -> Bytes {
        if payload.is_empty() {
            return Bytes::from(vec![0xA5u8]);
        }
        let mut copy = payload.to_vec();
        let i = self.rng.random_range(0..copy.len());
        copy[i] ^= 0xFF;
        Bytes::from(copy)
    }

    /// Advances the modelled clock by `events` wait events.
    pub fn tick(&mut self, events: u64) {
        self.now += events;
    }

    /// Holds a delayed envelope back from matching until the modelled
    /// clock has advanced by its stamped delay.
    pub fn hold(&mut self, mut env: Envelope) {
        let release_tick = self.now + env.delay_slices as u64;
        env.delay_slices = 0;
        self.held.push(HeldEnvelope { release_tick, env });
    }

    /// Releases the first held envelope whose delay has elapsed, if any.
    pub fn pop_due(&mut self) -> Option<Envelope> {
        let i = self
            .held
            .iter()
            .position(|h| h.release_tick <= self.now)?;
        Some(self.held.swap_remove(i).env)
    }

    /// Number of envelopes currently held back by injected delays.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Records one checksum failure for `(src, tag)`, returning the
    /// consecutive-failure count. Past the retry budget the caller gives
    /// up with [`CommError::Corrupt`].
    pub fn note_corrupt_discard(&mut self, src: usize, tag: u64) -> u32 {
        let count = self.corrupt_discards.entry((src, tag)).or_insert(0);
        *count += 1;
        *count
    }

    /// Clears the consecutive-failure count for `(src, tag)` after a
    /// checksum-valid delivery (the pristine retransmission arrived).
    pub fn note_valid_delivery(&mut self, src: usize, tag: u64) {
        self.corrupt_discards.remove(&(src, tag));
    }
}

/// Deterministic backoff between retries of a transiently failed
/// operation: an exponentially growing spin (capped), then a scheduler
/// yield. No clocks — replays identically under any wall-time jitter.
pub fn backoff(attempt: u32) {
    let spins = 32u32 << attempt.min(6);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_deterministic_per_seed_and_rank() {
        let plan = FaultPlan::new(FaultConfig::recoverable(42)).unwrap();
        let mut a = plan.lane(1);
        let mut b = plan.lane(1);
        let seq_a: Vec<SendFaults> = (0..64).map(|_| a.plan_send()).collect();
        let seq_b: Vec<SendFaults> = (0..64).map(|_| b.plan_send()).collect();
        assert_eq!(seq_a, seq_b, "same seed+rank must replay identically");
        let mut c = plan.lane(2);
        let seq_c: Vec<SendFaults> = (0..64).map(|_| c.plan_send()).collect();
        assert_ne!(seq_a, seq_c, "different ranks draw different streams");
        let other = FaultPlan::new(FaultConfig::recoverable(43)).unwrap();
        let mut d = other.lane(1);
        let seq_d: Vec<SendFaults> = (0..64).map(|_| d.plan_send()).collect();
        assert_ne!(seq_a, seq_d, "different seeds draw different streams");
    }

    #[test]
    fn recoverable_plans_fit_the_budget() {
        for seed in 0..50 {
            let cfg = FaultConfig::recoverable(seed);
            assert!(cfg.is_recoverable());
            let mut lane = FaultPlan::new(cfg).unwrap().lane(0);
            for _ in 0..256 {
                let f = lane.plan_send();
                assert!(f.transient_attempts <= cfg.retry_budget);
                assert!(f.corrupt_copies <= cfg.retry_budget);
                assert!(!f.drop_pristine);
                assert!(lane.plan_recv() <= cfg.retry_budget);
            }
        }
    }

    #[test]
    fn unrecoverable_presets_exceed_the_budget_deterministically() {
        let cfg = FaultConfig::permanent_corruption(7);
        assert!(!cfg.is_recoverable());
        let mut lane = FaultPlan::new(cfg).unwrap().lane(3);
        let f = lane.plan_send();
        assert!(f.corrupt_copies > cfg.retry_budget);
        assert!(f.drop_pristine, "no pristine copy may follow");
        let cfg = FaultConfig::exhausted_retries(7);
        assert!(!cfg.is_recoverable());
        let mut lane = FaultPlan::new(cfg).unwrap().lane(0);
        let f = lane.plan_send();
        assert!(f.transient_attempts > cfg.retry_budget);
    }

    #[test]
    fn full_probability_draws_are_exact() {
        let mut cfg = FaultConfig::disabled(1);
        cfg.p_delay = 1.0;
        cfg.max_delay_slices = 4;
        let mut lane = FaultPlan::new(cfg).unwrap().lane(0);
        for _ in 0..16 {
            assert_eq!(lane.plan_send().delay_slices, 4);
        }
    }

    #[test]
    fn held_envelopes_release_on_the_modelled_clock() {
        let mut lane = FaultPlan::new(FaultConfig::disabled(0)).unwrap().lane(0);
        let mut env = Envelope::new(1, 9, b"x");
        env.delay_slices = 3;
        lane.hold(env);
        assert_eq!(lane.held_count(), 1);
        assert!(lane.pop_due().is_none(), "not due yet");
        lane.tick(2);
        assert!(lane.pop_due().is_none(), "still one slice early");
        lane.tick(1);
        let released = lane.pop_due().expect("due now");
        assert_eq!(released.tag, 9);
        assert_eq!(released.delay_slices, 0, "delay cleared on hold");
        assert_eq!(lane.held_count(), 0);
    }

    #[test]
    fn corrupt_payloads_fail_validation() {
        use crate::message::checksum64;
        let mut lane = FaultPlan::new(FaultConfig::recoverable(5)).unwrap().lane(0);
        let payload = vec![7u8; 64];
        let sum = checksum64(&payload);
        for _ in 0..32 {
            let bad = lane.corrupt_payload(&payload);
            assert_ne!(checksum64(&bad), sum, "every corruption must be visible");
        }
        let bad_empty = lane.corrupt_payload(&[]);
        assert_ne!(checksum64(&bad_empty), checksum64(&[]));
    }

    #[test]
    fn corrupt_discard_counts_are_per_link_and_clear_on_valid() {
        let mut lane = FaultPlan::new(FaultConfig::recoverable(5)).unwrap().lane(0);
        assert_eq!(lane.note_corrupt_discard(1, 7), 1);
        assert_eq!(lane.note_corrupt_discard(1, 7), 2);
        assert_eq!(lane.note_corrupt_discard(2, 7), 1, "different src is separate");
        lane.note_valid_delivery(1, 7);
        assert_eq!(lane.note_corrupt_discard(1, 7), 1, "valid delivery resets");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = FaultConfig::disabled(0);
        cfg.p_corrupt = 1.5;
        assert!(FaultPlan::new(cfg).is_err());
        let mut cfg = FaultConfig::disabled(0);
        cfg.p_delay = -0.1;
        assert!(FaultPlan::new(cfg).is_err());
        let mut cfg = FaultConfig::disabled(0);
        cfg.stall_window = (5, 2);
        assert!(FaultPlan::new(cfg).is_err());
        assert!(FaultPlan::new(FaultConfig::recoverable(0)).is_ok());
    }

    #[test]
    fn parse_spec_roundtrips_and_rejects_junk() {
        let cfg = FaultConfig::parse_spec("seed=17").unwrap();
        assert_eq!(cfg, FaultConfig::recoverable(17));
        let cfg =
            FaultConfig::parse_spec("seed=3, delay=0.5, corrupt=0.0, budget=5, fail_burst=4")
                .unwrap();
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.p_delay, 0.5);
        assert_eq!(cfg.p_corrupt, 0.0);
        assert_eq!(cfg.retry_budget, 5);
        assert_eq!(cfg.max_fail_burst, 4);
        assert!(cfg.is_recoverable());
        let cfg = FaultConfig::parse_spec("seed=1,stall_rank=2,stall_from=4,stall_len=8,stall_slices=3")
            .unwrap();
        assert_eq!(cfg.stall_rank, Some(2));
        assert_eq!(cfg.stall_window, (4, 12));
        assert_eq!(cfg.stall_extra_slices, 3);
        // A stall rank without a window stalls everywhere.
        let cfg = FaultConfig::parse_spec("seed=1,stall_rank=0").unwrap();
        assert_eq!(cfg.stall_window, (0, u64::MAX));
        assert!(cfg.stall_extra_slices >= 1);
        assert!(FaultConfig::parse_spec("delay=0.5").is_err(), "seed required");
        assert!(FaultConfig::parse_spec("seed=x").is_err());
        assert!(FaultConfig::parse_spec("seed=1,bogus=2").is_err());
        assert!(FaultConfig::parse_spec("seed=1,delay=7").is_err(), "p > 1");
        assert!(FaultConfig::parse_spec("seed=1,delay").is_err(), "no value");
    }

    #[test]
    fn stall_window_only_hits_its_rank_and_ops() {
        let mut cfg = FaultConfig::disabled(9);
        cfg.stall_rank = Some(1);
        cfg.stall_window = (2, 4);
        cfg.stall_extra_slices = 5;
        let plan = FaultPlan::new(cfg).unwrap();
        let mut stalled = plan.lane(1);
        let delays: Vec<u32> = (0..6).map(|_| stalled.plan_send().delay_slices).collect();
        assert_eq!(delays, vec![0, 0, 5, 5, 0, 0]);
        let mut other = plan.lane(0);
        assert!((0..6).all(|_| other.plan_send().delay_slices == 0));
    }
}
