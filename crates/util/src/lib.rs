//! Std-only infrastructure shared by every crate in the workspace.
//!
//! The workspace builds and tests from a cold cache with zero network
//! access: everything that would conventionally come from a registry
//! dependency lives here instead, small enough to audit in one sitting.
//!
//! * [`rng`] — `SplitMix64` / `Xoshiro256**` PRNGs behind a small
//!   [`rng::Rng`] trait (replaces `rand`);
//! * [`cdf`] — the prepared inverse-CDF sampler every engine draws
//!   measurement histograms from;
//! * [`json`] — a JSON value type and serializer (replaces
//!   `serde`/`serde_json` for experiment output);
//! * [`parallel`] — scoped-thread data parallelism for the statevector
//!   kernels (replaces `rayon`);
//! * [`bytes`] — a cheaply-cloneable shared byte buffer (replaces
//!   `bytes::Bytes`);
//! * [`mailbox`] — `Mutex`/`Condvar` mailbox channels for the thread
//!   cluster (replaces `crossbeam::channel`);
//! * [`check`] — seeded property loops with deterministic shrink-by-
//!   halving (replaces `proptest`).

pub mod bytes;
pub mod cdf;
pub mod check;
pub mod json;
pub mod mailbox;
pub mod parallel;
pub mod rng;

pub use bytes::Bytes;
pub use json::{Json, ToJson};
pub use rng::{Rng, SplitMix64, StdRng, Xoshiro256StarStar};
