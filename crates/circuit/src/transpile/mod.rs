//! Circuit transformations: cache-blocking and diagonal fusion.
//!
//! The paper's §2.2 optimisation (3) is "transpiling the circuit to reduce
//! communication via cache-blocking". Two implementations live here:
//!
//! * the QFT-specific SWAP-shift of fig 1b is in [`crate::qft`] (it needs
//!   no new gates because the QFT already ends in SWAPs);
//! * [`cache_blocking`] is the *general* pass — "it would also be useful
//!   to implement a cache-blocking transpiler" (§4 future work) — in the
//!   style of Doi & Horii's technique that Qiskit and cuQuantum use.
//!
//! [`fusion`] segments maximal runs of diagonal gates, modelling QuEST's
//! more efficient application of controlled phase gates (§3.2): a run of
//! diagonal gates can be applied in a single sweep over the statevector.
//!
//! [`comm_avoid`] is the cost-model-driven evolution of cache-blocking:
//! it *searches* placements (greedy baseline, lookahead beam) against a
//! pluggable exchange-cost oracle and emits batched
//! [`crate::Permutation`] steps instead of pairwise SWAPs. Both passes
//! share one placement step and one LRU victim rule: cache-blocking
//! emits each swap-in as a SWAP gate, the greedy strategy as a `Permute`
//! step, and the beam prices its rollouts with the same rule.

pub mod cache_blocking;
pub mod comm_avoid;
pub mod fusion;

pub use cache_blocking::{cache_block, Transpiled};
pub use comm_avoid::{
    comm_avoid, permutation_traffic, ByteOracle, ExchangeOracle, PermTraffic, Plan, PlanStep,
    StepCost, Strategy,
};
pub use fusion::{diagonal_runs, DiagonalRun};
