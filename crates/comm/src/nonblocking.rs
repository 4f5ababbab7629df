//! Posted receives.
//!
//! The paper rewrites QuEST's distributed exchange from a sequence of
//! blocking `MPI_Sendrecv` calls into posted `MPI_Isend`/`MPI_Irecv` pairs
//! (§3.2), "which allows multiple messages to be sent and received in
//! parallel when using an interconnect with high bandwidth". Sends here are
//! eager — [`crate::Communicator::send`] completes at once — so only the
//! receive side needs a handle: the chunk driver
//! ([`crate::chunking::drive`]) posts one [`Request`] per incoming chunk
//! and completes it with [`crate::Communicator::wait`].
//!
//! A request is deliberately plain data: it only records what to match,
//! and completion happens inside the communicator so the borrow of the
//! endpoint stays explicit.

/// A posted receive, matched against `(src, tag)` at wait time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Source rank to match.
    pub src: usize,
    /// Tag to match.
    pub tag: u64,
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn interleaved_posts_complete_in_request_order() {
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            // Post receives before sends; arrival order is irrelevant.
            let r1 = c.irecv(peer, 100).unwrap();
            let r2 = c.irecv(peer, 200).unwrap();
            c.send(peer, 200, b"late-tag").unwrap();
            c.send(peer, 100, b"early-tag").unwrap();
            assert_eq!(&c.wait(r1).unwrap()[..], b"early-tag");
            assert_eq!(&c.wait(r2).unwrap()[..], b"late-tag");
        });
    }
}
