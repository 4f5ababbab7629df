//! Error type for communication operations.

use std::fmt;
use std::time::Duration;

/// Which communication operation a fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// The fault hit a send.
    Send,
    /// The fault hit a receive.
    Recv,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Send => write!(f, "send"),
            FaultOp::Recv => write!(f, "recv"),
        }
    }
}

/// Errors surfaced by the message-passing layer.
///
/// In a healthy run none of these occur; they exist so that a failure
/// ends the run with a diagnosis instead of a hang, and so that misuse
/// (bad rank, zero chunk size) is rejected eagerly. The `Transient` and
/// `Corrupt` variants only arise under an injected
/// [`crate::faults::FaultPlan`] whose fault bursts exceed the retry
/// budget — a recoverable plan never surfaces them.
///
/// The universe is fail-stop: a transport error that leaves a rank's
/// communicator (every variant but `InvalidRank`, `InvalidConfig` and
/// `BasisOutOfRange`, which reject arguments before anything moves), or
/// a rank that panics, aborts the universe, and every other rank's
/// blocked or later call returns [`CommError::Aborted`] carrying the
/// cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank id is outside `0..size`.
    InvalidRank {
        /// The offending rank id.
        rank: usize,
        /// Number of ranks in the universe.
        size: usize,
    },
    /// A receive did not complete within the deadline. Plans are proved
    /// deadlock-free before they run, so in the product this means a
    /// peer is slower than the deadline allows (or, under a fault plan,
    /// a delay longer than it); in hand-written rank code it is usually
    /// a protocol bug such as mismatched tags or a one-sided receive.
    RecvTimeout {
        /// Rank we were receiving from.
        src: usize,
        /// Tag we were matching.
        tag: u64,
        /// How long we waited.
        waited: Duration,
    },
    /// The peer's mailbox has been dropped while the universe is intact:
    /// the peer returned without receiving a message sent to it. Only a
    /// protocol bug causes this — a failed or panicking peer aborts the
    /// universe first, which surfaces as [`CommError::Aborted`].
    Disconnected {
        /// The peer rank.
        peer: usize,
    },
    /// A configuration value was invalid (e.g. zero maximum message size).
    InvalidConfig(&'static str),
    /// A run was asked to start from a basis index that names no state
    /// of its register (`basis ≥ 2ⁿ`); refused before any rank starts.
    BasisOutOfRange {
        /// The requested basis index.
        basis: u64,
        /// Register width.
        n: u32,
    },
    /// Another rank failed and aborted the universe (fail-stop): this
    /// rank's blocked receive, barrier-released call or send ended
    /// because of it. Carries the failing rank and its error.
    Aborted {
        /// Rank that aborted the universe.
        by: usize,
        /// The error that rank returned; `None` when it panicked.
        cause: Option<Box<CommError>>,
    },
    /// An injected transient fault persisted past the bounded retry
    /// budget. Retryable in principle — a longer budget would have
    /// recovered — but surfaced as a typed error instead of hanging.
    Transient {
        /// Whether the send or the receive side gave up.
        op: FaultOp,
        /// The peer rank of the failed operation.
        peer: usize,
        /// Attempts made before giving up (first try + retries).
        attempts: u32,
    },
    /// The static plan verifier (`qse-check::verify`) refused an
    /// execution plan before a byte moved: its symbolic trace violates
    /// protocol matching, deadlock freedom, buffer bounds, or layout
    /// soundness. Carries the verifier's rendered diagnosis (per-rank,
    /// naming the offending plan step) so the pre-flight rejection names
    /// the stuck ranks and what they await without running anything.
    PlanRejected {
        /// Rendered verification failure.
        detail: String,
    },
    /// A chunk of a pairwise exchange arrived with a length other than
    /// the one the chunk policy assigns it — the peer cut its payload
    /// differently. Raised by the chunk driver before the payload
    /// reaches the consumer, which indexes it in place.
    ChunkLength {
        /// Rank that sent the chunk.
        src: usize,
        /// Wire tag of the chunk.
        tag: u64,
        /// Bytes the policy assigns this chunk.
        expected: usize,
        /// Bytes that arrived.
        got: usize,
    },
    /// Checksummed payloads from `(src, tag)` kept failing validation and
    /// the retransmit budget ran out with no pristine copy arriving —
    /// permanent corruption on this link.
    Corrupt {
        /// Rank whose payloads failed validation.
        src: usize,
        /// Tag of the corrupted messages.
        tag: u64,
        /// Corrupt copies discarded before giving up.
        discarded: u32,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} (universe size {size})")
            }
            CommError::RecvTimeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} with tag {tag} timed out after {waited:?} (protocol deadlock?)"
            ),
            CommError::Disconnected { peer } => {
                write!(f, "rank {peer} disconnected (returned without receiving)")
            }
            CommError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CommError::BasisOutOfRange { basis, n } => {
                write!(f, "basis {basis} is not a basis state of {n} qubits")
            }
            CommError::Aborted { by, cause: Some(cause) } => {
                write!(f, "universe aborted by rank {by}: {cause}")
            }
            CommError::Aborted { by, cause: None } => {
                write!(f, "universe aborted: rank {by} panicked")
            }
            CommError::Transient { op, peer, attempts } => write!(
                f,
                "transient {op} fault towards rank {peer} persisted for {attempts} attempts (retry budget exhausted)"
            ),
            CommError::PlanRejected { detail } => write!(
                f,
                "execution plan rejected by static verification: {detail}"
            ),
            CommError::ChunkLength {
                src,
                tag,
                expected,
                got,
            } => write!(
                f,
                "chunk from rank {src} tag {tag} is {got} bytes, expected {expected} (peer chunked its payload differently)"
            ),
            CommError::Corrupt { src, tag, discarded } => write!(
                f,
                "payload corruption from rank {src} tag {tag}: {discarded} copies failed checksum validation with no pristine retransmission"
            ),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("invalid rank 9"));
        let e = CommError::RecvTimeout {
            src: 1,
            tag: 42,
            waited: Duration::from_secs(3),
        };
        assert!(e.to_string().contains("tag 42"));
        let e = CommError::Disconnected { peer: 2 };
        assert!(e.to_string().contains("rank 2"));
        let e = CommError::InvalidConfig("zero chunk");
        assert!(e.to_string().contains("zero chunk"));
        let e = CommError::Aborted {
            by: 3,
            cause: Some(Box::new(CommError::Corrupt {
                src: 2,
                tag: 7,
                discarded: 4,
            })),
        };
        let text = e.to_string();
        assert!(text.contains("aborted by rank 3"));
        assert!(text.contains("corruption from rank 2 tag 7"));
        let e = CommError::Aborted { by: 1, cause: None };
        assert!(e.to_string().contains("rank 1 panicked"));
        let e = CommError::Transient {
            op: FaultOp::Send,
            peer: 3,
            attempts: 5,
        };
        let text = e.to_string();
        assert!(text.contains("transient send fault"));
        assert!(text.contains("rank 3"));
        assert!(text.contains("5 attempts"));
        let e = CommError::PlanRejected {
            detail: "tag collision on edge 0→1 at plan step 3".into(),
        };
        let text = e.to_string();
        assert!(text.contains("rejected by static verification"));
        assert!(text.contains("plan step 3"));
        let e = CommError::ChunkLength {
            src: 1,
            tag: 9,
            expected: 64,
            got: 48,
        };
        let text = e.to_string();
        assert!(text.contains("rank 1 tag 9"));
        assert!(text.contains("48 bytes, expected 64"));
        let e = CommError::Corrupt {
            src: 2,
            tag: 11,
            discarded: 4,
        };
        let text = e.to_string();
        assert!(text.contains("corruption from rank 2"));
        assert!(text.contains("tag 11"));
        assert!(text.contains("4 copies"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            CommError::Disconnected { peer: 1 },
            CommError::Disconnected { peer: 1 }
        );
        assert_ne!(
            CommError::Disconnected { peer: 1 },
            CommError::Disconnected { peer: 2 }
        );
    }
}
