//! The message envelope and its payload checksum.

use qse_util::Bytes;

/// A message in flight: source rank, user tag, and an owned byte payload.
///
/// `Bytes` gives cheap reference-counted hand-off between threads. A
/// borrowed payload ([`crate::Communicator::send`]) is copied exactly
/// once, at send time, mirroring an eager-protocol MPI implementation; an
/// owned one ([`crate::Communicator::send_bytes`]) is not copied at all —
/// the buffer the sender filled is the buffer the receiver reads.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Rank that sent the message.
    pub src: usize,
    /// User-supplied tag; receives match on `(src, tag)`.
    pub tag: u64,
    /// Message body.
    pub payload: Bytes,
    /// Checksum of the payload *as the sender intended it*, stamped only
    /// when a fault plan is active. A mismatch against the received
    /// payload means the transport corrupted the message; the receiver
    /// discards it and waits for the retransmission. `None` on the
    /// zero-overhead fault-free path — no checksum is ever computed.
    pub checksum: Option<u64>,
    /// Injected delivery delay, in modelled-clock slices. The receiver
    /// holds the envelope back for this many wait events before it
    /// becomes visible to matching. Always `0` without a fault plan.
    pub delay_slices: u32,
}

impl Envelope {
    /// Creates an envelope, copying `payload` into owned storage.
    pub fn new(src: usize, tag: u64, payload: &[u8]) -> Self {
        Self::from_bytes(src, tag, Bytes::copy_from_slice(payload))
    }

    /// Creates an envelope from an already-owned payload without copying.
    pub fn from_bytes(src: usize, tag: u64, payload: Bytes) -> Self {
        Envelope {
            src,
            tag,
            payload,
            checksum: None,
            delay_slices: 0,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty (e.g. barrier/ack messages).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// True when the stamped checksum (if any) matches the payload —
    /// envelopes without a checksum always validate.
    pub fn checksum_ok(&self) -> bool {
        self.checksum
            .map(|c| c == checksum64(&self.payload))
            .unwrap_or(true)
    }
}

/// FNV-1a over the payload bytes: a cheap, deterministic 64-bit checksum.
///
/// Not cryptographic — it only needs to catch the single-byte flips the
/// fault injector produces, the role a link-layer CRC plays on a real
/// fabric.
pub fn checksum64(payload: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_copies_payload() {
        let data = vec![1u8, 2, 3];
        let env = Envelope::new(0, 5, &data);
        assert_eq!(env.src, 0);
        assert_eq!(env.tag, 5);
        assert_eq!(&env.payload[..], &[1, 2, 3]);
        assert_eq!(env.len(), 3);
        assert!(!env.is_empty());
    }

    #[test]
    fn empty_envelope() {
        let env = Envelope::new(1, 0, &[]);
        assert!(env.is_empty());
        assert_eq!(env.len(), 0);
    }

    #[test]
    fn envelopes_default_to_the_fault_free_path() {
        let env = Envelope::new(0, 1, &[1, 2, 3]);
        assert_eq!(env.checksum, None);
        assert_eq!(env.delay_slices, 0);
        assert!(env.checksum_ok(), "no checksum always validates");
    }

    #[test]
    fn checksum_validation_catches_flips() {
        let payload = [0u8, 1, 2, 3, 4, 5];
        let mut env = Envelope::new(0, 1, &payload);
        env.checksum = Some(checksum64(&payload));
        assert!(env.checksum_ok());
        // A corrupted copy keeps the original checksum but a flipped body.
        let mut flipped = payload;
        flipped[2] ^= 0xFF;
        let mut bad = Envelope::new(0, 1, &flipped);
        bad.checksum = env.checksum;
        assert!(!bad.checksum_ok());
    }

    #[test]
    fn checksum64_is_deterministic_and_spread() {
        assert_eq!(checksum64(&[]), checksum64(&[]));
        assert_eq!(checksum64(b"abc"), checksum64(b"abc"));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(&[0]), checksum64(&[0, 0]));
    }
}
