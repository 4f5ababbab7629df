//! A thread-rank message-passing substrate ("virtual MPI").
//!
//! The paper's simulations run QuEST over MPI with one process per ARCHER2
//! node. This crate reproduces the communication layer those simulations
//! depend on, at laptop scale: a fixed set of *ranks* run as OS threads and
//! exchange byte messages through per-rank mailboxes.
//!
//! The API mirrors the slice of MPI that QuEST actually uses:
//!
//! * blocking point-to-point: [`Communicator::send`], [`Communicator::recv`],
//!   and the combined [`Communicator::sendrecv`] (QuEST's distributed gates
//!   are "a sequence of blocking `MPI_Sendrecv`", §2.1);
//! * non-blocking point-to-point: [`Communicator::isend`] /
//!   [`Communicator::irecv`] returning [`nonblocking::Request`]s, with
//!   [`Communicator::wait_all`] — the paper's modification that "allows
//!   multiple messages to be sent and received in parallel" (§3.2) — and
//!   [`Communicator::wait_any`], completing requests in arrival order so
//!   [`chunking::ExchangeMode::Streamed`] can overlap per-chunk
//!   computation with the remaining communication;
//! * message chunking: MPI implementations cap individual messages (2 GB in
//!   the paper, hence 32 messages per 64 GB exchange); [`chunking`]
//!   reproduces the cap and runs every exchange strategy over it through
//!   one chunk driver ([`chunking::drive`]) that hands each packed chunk
//!   to the transport without copying it;
//! * collectives: barrier, broadcast, all-reduce, gather ([`collective`]);
//! * traffic accounting: every communicator records bytes and message
//!   counts ([`stats`]), which the performance model and tests consume;
//! * fail-stop error handling, as under MPI's default error handler: a
//!   rank that fails or panics aborts the universe, and every other rank
//!   returns [`CommError::Aborted`] naming it and its cause
//!   ([`failstop`]).
//!
//! # Example
//!
//! ```
//! use qse_comm::Universe;
//!
//! // Two ranks exchange their rank ids.
//! let results = Universe::new(2).run(|comm| {
//!     let peer = 1 - comm.rank();
//!     let payload = [comm.rank() as u8];
//!     let got = comm.sendrecv(peer, 7, &payload, peer, 7).unwrap();
//!     got[0] as usize
//! });
//! assert_eq!(results, vec![1, 0]);
//! ```

pub mod chunking;
pub mod collective;
pub mod communicator;
pub mod error;
pub mod failstop;
pub mod faults;
pub mod message;
pub mod nonblocking;
pub mod stats;
pub mod topology;
pub mod universe;

pub use communicator::Communicator;
pub use error::{CommError, FaultOp};
pub use faults::{FaultConfig, FaultPlan};
pub use stats::TrafficStats;
pub use universe::Universe;

/// Result alias for communication operations.
pub type Result<T> = std::result::Result<T, CommError>;
