//! Non-blocking request handles.
//!
//! The paper rewrites QuEST's distributed exchange from a sequence of
//! blocking `MPI_Sendrecv` calls into posted `MPI_Isend`/`MPI_Irecv` pairs
//! completed by `MPI_Waitall` (§3.2), "which allows multiple messages to be
//! sent and received in parallel when using an interconnect with high
//! bandwidth". This module gives that rewrite a shape in our substrate.
//!
//! Requests are deliberately plain data: a `Recv` request only records what
//! to match, and completion happens inside [`crate::Communicator::wait`] so
//! the borrow of the endpoint stays explicit.

/// A pending non-blocking operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// An eager send that already completed at post time.
    SendDone,
    /// A receive to be matched against `(src, tag)` at wait time.
    Recv {
        /// Source rank to match.
        src: usize,
        /// Tag to match.
        tag: u64,
    },
}

impl Request {
    /// True for send requests, which carry no payload at completion.
    pub fn is_send(&self) -> bool {
        matches!(self, Request::SendDone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn request_kinds() {
        assert!(Request::SendDone.is_send());
        assert!(!Request::Recv { src: 0, tag: 1 }.is_send());
    }

    #[test]
    fn interleaved_posts_complete_in_request_order() {
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            // Post receives before sends; arrival order is irrelevant.
            let r1 = c.irecv(peer, 100).unwrap();
            let r2 = c.irecv(peer, 200).unwrap();
            c.isend(peer, 200, b"late-tag").unwrap();
            c.isend(peer, 100, b"early-tag").unwrap();
            let got = c.wait_all(vec![r1, r2]).unwrap();
            assert_eq!(&got[0][..], b"early-tag");
            assert_eq!(&got[1][..], b"late-tag");
        });
    }
}
