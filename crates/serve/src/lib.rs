//! `qse serve` — the multi-tenant simulation service.
//!
//! The paper's energy argument is about amortisation: fixed costs
//! (transpile, plan construction, verification) must be paid once and
//! reused across many executions for joules/circuit to fall. This crate
//! is that amortisation layer, std-only on the workspace substrate:
//!
//! - [`protocol`] — line-delimited JSON over TCP or stdin, every client
//!   byte passing through a [`protocol::BoundedLineReader`];
//! - [`cache`] — verified compiled plans, keyed by the canonical
//!   circuit hash (`qse_circuit::hash`), LRU-evicted by plan bytes;
//! - [`server`] — bounded admission queue with per-job amplitude-memory
//!   accounting, a resident worker pool, and shot batching (concurrent
//!   submissions of the same plan/basis/faults share one execution and
//!   draw their own seeded shots);
//! - [`net`] — the TCP and stdin front ends;
//! - [`error`] — typed rejections ([`ServeError::OverBudget`],
//!   [`ServeError::QueueFull`], …) with stable wire codes.

// Source rules R1, R5, R7 (DESIGN §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        unsafe_code,
        clippy::undocumented_unsafe_blocks,
        clippy::disallowed_methods
    )
)]

pub mod cache;
pub mod error;
pub mod net;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, PlanCache};
pub use error::ServeError;
pub use net::{serve_stdin, serve_tcp, NetConfig};
pub use protocol::{BoundedLineReader, JobResult, JobSpec, Request};
pub use server::{job_footprint_bytes, JobError, JobResponse, ServeConfig, Server, StatsSnapshot};
