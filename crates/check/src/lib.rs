//! In-tree analysis tooling for the simulator's concurrency substrate.
//!
//! Three engines, each aimed at a class of bug the ordinary test suite
//! can miss:
//!
//! * [`schedule`] — a mini-loom: a bounded-preemption interleaving
//!   explorer that drives instrumented code (the mailbox channels and
//!   worker pool of `qse-util`) through a controlled scheduler. Small
//!   fixtures are explored exhaustively; larger ones with seeded random
//!   schedules, and any failing schedule replays from its printed seed.
//! * [`lint`] — a source scanner enforcing the repo's error-handling
//!   and determinism conventions (no `unwrap`/`expect`/`panic!` in
//!   library code of the communication and kernel crates, no wall-clock
//!   reads in the analytic model, documented public API in `qse-comm`,
//!   `// SAFETY:` comments on every `unsafe` block in the kernel and
//!   thread-pool crates, no truncating index casts in comm/statevec),
//!   run as a tier-1 test and exposed as the `qse-lint` binary.
//! * [`verify`] — a static plan & protocol verifier: abstractly
//!   interprets compiled execution plans (fused schedules, transpiled
//!   `Permute` steps, all three exchange modes), derives each rank's
//!   symbolic communication trace without executing anything, and proves
//!   protocol matching, deadlock freedom, buffer bounds, and layout
//!   soundness; [`corpus`] generates the standard plan corpus that
//!   `qse check --plans` and CI sweep.

pub mod corpus;
pub mod lint;
pub mod schedule;
pub mod verify;

pub use corpus::{standard_corpus, CorpusCase};
pub use lint::{lint_file, lint_tree, Rule, Violation};
pub use schedule::{Ctl, Explorer, ScheduleFailure};
pub use verify::{derive_traces, verify_circuit, verify_plan, TraceSet, VerifyError, VerifyReport};
