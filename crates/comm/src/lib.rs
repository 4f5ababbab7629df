//! A thread-rank message-passing substrate ("virtual MPI").
//!
//! The paper's simulations run QuEST over MPI with one process per ARCHER2
//! node. This crate reproduces the communication layer those simulations
//! depend on, at laptop scale: a fixed set of *ranks* run as OS threads and
//! exchange byte messages through per-rank mailboxes.
//!
//! The API mirrors the slice of MPI that QuEST actually uses:
//!
//! * blocking point-to-point: [`Communicator::send`] and
//!   [`Communicator::recv`]. Sends are eager, so a QuEST-style
//!   `MPI_Sendrecv` is a send followed by a receive and cannot deadlock
//!   (QuEST's distributed gates are "a sequence of blocking
//!   `MPI_Sendrecv`", §2.1);
//! * posted receives: [`Communicator::irecv`] returns a
//!   [`nonblocking::Request`], completed by [`Communicator::wait`] — the
//!   paper's modification that "allows multiple messages to be sent and
//!   received in parallel" (§3.2);
//! * message chunking: MPI implementations cap individual messages (2 GB in
//!   the paper, hence 32 messages per 64 GB exchange); [`chunking`]
//!   reproduces the cap and runs both exchange strategies — QuEST's
//!   blocking `MPI_Sendrecv` sequence and the paper's non-blocking
//!   rewrite — over it through one chunk driver ([`chunking::drive`]) that hands each packed chunk
//!   to the transport without copying it;
//! * collectives: a barrier ([`Communicator::barrier`]) and a gather to
//!   one root ([`collective::gather`]);
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
//!     comm.send(peer, 7, &[comm.rank() as u8]).unwrap();
//!     let got = comm.recv(peer, 7).unwrap();
//!     got[0] as usize
//! });
//! assert_eq!(results, vec![1, 0]);
//! ```

// Source rules R1, R3, R5, R6 (DESIGN §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        missing_docs,
        unsafe_code,
        clippy::undocumented_unsafe_blocks,
        clippy::cast_possible_truncation
    )
)]

pub mod chunking;
pub mod collective;
pub mod communicator;
pub mod error;
pub mod failstop;
pub mod faults;
pub mod message;
pub mod nonblocking;
pub mod stats;
pub mod universe;

pub use communicator::Communicator;
pub use error::{CommError, FaultOp};
pub use faults::{FaultConfig, FaultPlan};
pub use stats::TrafficStats;
pub use universe::Universe;

/// Result alias for communication operations.
pub type Result<T> = std::result::Result<T, CommError>;
