//! In-tree static analysis of the simulator's execution plans, aimed
//! at a class of bug the ordinary test suite can miss.
//!
//! [`verify`] is a static plan & protocol verifier: it abstractly
//! interprets compiled execution plans (fused schedules, transpiled
//! `Permute` steps, both exchange modes), derives each rank's symbolic
//! communication trace without executing anything, and proves protocol
//! matching, deadlock freedom, write-once permutation staging, and
//! layout soundness; [`corpus`] generates the standard plan corpus that
//! `qse check --plans` and CI sweep.
//!
//! The repo's source rules live elsewhere: they are rustc and clippy
//! lint levels set at the crate roots (DESIGN §8).

// Source rule R5 (DESIGN §8).
#![cfg_attr(not(test), deny(unsafe_code, clippy::undocumented_unsafe_blocks))]

pub mod corpus;
pub mod verify;

pub use corpus::{standard_corpus, CorpusCase};
pub use verify::{derive_traces, verify_circuit, verify_plan, TraceSet, VerifyError, VerifyReport};
