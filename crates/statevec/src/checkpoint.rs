//! Statevector checkpointing.
//!
//! Large statevector jobs run for hours at full-machine scale; being able
//! to snapshot the register (QuEST offers `writeRecordedQASMToFile` and
//! binary state dumps for the same reason) turns a 4,096-node failure
//! into a restart instead of a rerun. The format is a small self-
//! describing header plus the amplitudes in the exchange wire format
//! (little-endian `re`, then `im`), so a distributed job can write one
//! shard per rank and reassemble on any rank count whose shards
//! concatenate to the same register.

use crate::single::SingleState;
use crate::storage::AMP_BYTES;

/// Magic bytes identifying a checkpoint ("QSEv1\0").
pub const MAGIC: &[u8; 6] = b"QSEv1\0";

/// Header bytes: [`MAGIC`], then the register width as a `u32` LE.
const HEADER_BYTES: usize = MAGIC.len() + 4;

/// Errors while reading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a checkpoint (bad magic).
    BadMagic,
    /// Header claims a size the payload does not match.
    LengthMismatch {
        /// Payload bytes promised by the header.
        expected_bytes: u64,
        /// Payload bytes actually present.
        actual_bytes: u64,
    },
    /// Register width out of supported range.
    BadWidth(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a qse checkpoint (bad magic)"),
            CheckpointError::LengthMismatch {
                expected_bytes,
                actual_bytes,
            } => write!(
                f,
                "checkpoint length mismatch: header promises {expected_bytes} payload bytes, found {actual_bytes}"
            ),
            CheckpointError::BadWidth(n) => write!(f, "unsupported register width {n}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialises a full single-process state: magic, width (u32 LE), then
/// the amplitudes in wire format ([`AMP_BYTES`] each: `re`, then `im`,
/// f64 LE) — the payload of a whole-slice exchange.
pub fn save(state: &SingleState) -> Vec<u8> {
    let amps = state.storage();
    let mut out = Vec::with_capacity(HEADER_BYTES + amps.len() * AMP_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&state.n_qubits().to_le_bytes());
    amps.pack_range(0, amps.len(), &mut out);
    out
}

/// Restores a state saved by [`save`].
pub fn load(bytes: &[u8]) -> Result<SingleState, CheckpointError> {
    if bytes.len() < HEADER_BYTES || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut header = [0u8; 4];
    header.copy_from_slice(&bytes[MAGIC.len()..HEADER_BYTES]);
    let n_qubits = u32::from_le_bytes(header);
    if n_qubits == 0 || n_qubits > 30 {
        return Err(CheckpointError::BadWidth(n_qubits));
    }
    let payload = &bytes[HEADER_BYTES..];
    let expected_bytes = (AMP_BYTES as u64) << n_qubits;
    if payload.len() as u64 != expected_bytes {
        return Err(CheckpointError::LengthMismatch {
            expected_bytes,
            actual_bytes: payload.len() as u64,
        });
    }
    let mut state = SingleState::zero_state(n_qubits);
    state.storage_mut().copy_from_f64_range(payload, 0);
    Ok(state)
}

/// Writes a checkpoint to a file.
pub fn save_to_file(state: &SingleState, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(state))
}

/// Reads a checkpoint from a file.
pub fn load_from_file(
    path: &std::path::Path,
) -> std::io::Result<Result<SingleState, CheckpointError>> {
    Ok(load(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::hash::Fnv1a;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_math::approx::assert_slices_close;
    use qse_math::Complex64;
    use qse_util::rng::{Rng, StdRng};

    fn scrambled(n: u32) -> SingleState {
        let c = random_circuit(n, 60, GatePool::Full, 5);
        let mut s = SingleState::zero_state(n);
        s.run(&c);
        s
    }

    /// A fixed state that no kernel computes: seeded values, both signs
    /// of zero, a subnormal and the most negative finite `f64`.
    fn fixed(n: u32) -> SingleState {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut s = SingleState::zero_state(n);
        for i in 0..1u64 << n {
            let v = match i {
                1 => Complex64::new(-0.0, 0.0),
                2 => Complex64::new(f64::MIN_POSITIVE / 4.0, f64::MIN),
                _ => Complex64::new(rng.random_f64() - 0.5, -rng.random_f64()),
            };
            s.set_amplitude(i, v);
        }
        s
    }

    fn assert_bits_equal(a: &SingleState, b: &SingleState, ctx: &str) {
        assert_eq!(a.n_qubits(), b.n_qubits(), "{ctx}: width");
        for (i, (x, y)) in a.to_vec().iter().zip(b.to_vec()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    #[test]
    fn round_trip_preserves_amplitudes() {
        let s = scrambled(8);
        let bytes = save(&s);
        let restored = load(&bytes).unwrap();
        assert_slices_close(&restored.to_vec(), &s.to_vec(), 0.0);
        assert_eq!(restored.n_qubits(), 8);
    }

    #[test]
    fn save_output_is_pinned() {
        // Recorded from the per-amplitude writer this format was first
        // defined by; any change to the bytes is a format change.
        let bytes = save(&fixed(5));
        assert_eq!(&bytes[..HEADER_BYTES], b"QSEv1\0\x05\0\0\0");
        let amp1 = &bytes[HEADER_BYTES + AMP_BYTES..HEADER_BYTES + 2 * AMP_BYTES];
        assert_eq!(amp1, [0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut hash = Fnv1a::new();
        hash.update(&bytes);
        assert_eq!(hash.digest(), GOLDEN_DIGEST);
    }

    /// FNV-1a of `save(&fixed(5))`.
    const GOLDEN_DIGEST: u64 = 0xb49b_7abd_c075_4eb2;

    #[test]
    fn header_size_is_exact() {
        let s = SingleState::zero_state(5);
        assert_eq!(save(&s).len(), 6 + 4 + 32 * 16);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load(b"not a checkpoint").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        assert!(load(&[]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let s = scrambled(6);
        let mut bytes = save(&s);
        bytes.truncate(bytes.len() - 16);
        assert_eq!(
            load(&bytes).unwrap_err(),
            CheckpointError::LengthMismatch {
                expected_bytes: 64 * 16,
                actual_bytes: 63 * 16,
            }
        );
    }

    #[test]
    fn trailing_partial_amplitude_rejected_in_bytes() {
        let mut bytes = save(&scrambled(6));
        bytes.push(0);
        let err = load(&bytes).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::LengthMismatch {
                expected_bytes: 1024,
                actual_bytes: 1025,
            }
        );
        assert_eq!(
            err.to_string(),
            "checkpoint length mismatch: header promises 1024 payload bytes, found 1025"
        );
    }

    #[test]
    fn oversized_width_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(load(&bytes).unwrap_err(), CheckpointError::BadWidth(99));
    }

    /// Seeded mutations of valid checkpoints (truncated, extended,
    /// bit-flipped) and arbitrary bytes: `load` returns a typed error or
    /// a state, never panics, and every state it returns saves back to
    /// exactly the bytes it was read from.
    #[test]
    fn mutated_checkpoints_load_or_fail_typed() {
        let valid: Vec<Vec<u8>> = (1..=6).map(|n| save(&fixed(n))).collect();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut accepted = 0;
        for iter in 0..4000 {
            let base = &valid[rng.random_range(0..valid.len())];
            let mut bytes = base.clone();
            match iter % 4 {
                0 => bytes.truncate(rng.random_range(0..base.len())),
                1 => {
                    let mut extra = vec![0u8; rng.random_range(1..=40usize)];
                    rng.fill(&mut extra);
                    bytes.extend(extra);
                }
                2 => {
                    for _ in 0..rng.random_range(1..=8) {
                        let at = rng.random_range(0..bytes.len());
                        bytes[at] ^= 1 << rng.random_range(0..8u32);
                    }
                }
                _ => {
                    bytes = vec![0u8; rng.random_range(0..64usize)];
                    rng.fill(&mut bytes);
                    if rng.random_bool(0.5) {
                        bytes.splice(0..0, *MAGIC);
                    }
                }
            }
            match load(&bytes) {
                Ok(state) => {
                    accepted += 1;
                    assert_eq!(save(&state), bytes, "iteration {iter}");
                    let again = load(&save(&state)).unwrap();
                    assert_bits_equal(&again, &state, &format!("iteration {iter}"));
                }
                Err(CheckpointError::LengthMismatch {
                    expected_bytes,
                    actual_bytes,
                }) => {
                    assert_ne!(expected_bytes, actual_bytes, "iteration {iter}");
                    assert_eq!(actual_bytes, (bytes.len() - HEADER_BYTES) as u64);
                }
                Err(_) => {}
            }
        }
        // Payload flips keep the header: the accepting path is exercised.
        assert!(accepted > 100, "only {accepted} mutants loaded");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("qse_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.qse");
        let s = scrambled(6);
        save_to_file(&s, &path).unwrap();
        let restored = load_from_file(&path).unwrap().unwrap();
        assert_slices_close(&restored.to_vec(), &s.to_vec(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
