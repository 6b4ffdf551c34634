//! Sans-I/O state machines for the improved protocol (Section 3.2).
//!
//! [`MemberSession`] implements the user machine of Figure 2 and
//! [`LeaderCore`] the leader of Figure 3 (one slot per member). Both
//! consume [`enclaves_wire::message::Envelope`]s and produce envelopes plus
//! events; they perform no I/O, so the same code is driven by the threaded
//! runtime, by the integration tests, and by the attack scripts.
//!
//! # Intrusion tolerance contract
//!
//! `MemberSession::handle` and `LeaderCore::handle_at` (or its first
//! half, `LeaderCore::stage_at`, which a caller follows with one
//! `LeaderCore::commit` for everything it staged), the only way a
//! message enters either core, return `Err(CoreError::Rejected(_))` for
//! any message that
//! fails authentication, parses badly, carries wrong identities, or
//! presents a stale nonce. **Rejection never mutates session state**: a
//! flood of forged traffic leaves an honest session exactly where it was.
//! Tests in this module and in `attacks` rely on that contract.

pub mod keytree;
pub mod leader;
pub mod member;

pub use leader::{BroadcastFrame, LeaderCore, LeaderEvent, LeaderOutput, LeaderTick};
pub use member::{MemberEvent, MemberOutput, MemberSession, MemberTick, SessionPhase};

use enclaves_crypto::nonce::AeadNonce;

/// AEAD nonce-sequence prefix for leader → member traffic under `K_a`.
pub(crate) const SEQ_LEADER: [u8; 4] = *b"ldr>";
/// AEAD nonce-sequence prefix for member → leader traffic under `K_a`.
pub(crate) const SEQ_MEMBER: [u8; 4] = *b"mbr>";

/// AEAD nonce for the leader's data-plane broadcast `seq` in an epoch:
/// the epoch IV with its last 8 bytes XORed with the big-endian sequence
/// number. Distinct sequence numbers give distinct nonces under one
/// `(key, IV)` pair, and the member re-derives the same nonce from the
/// `(epoch, seq)` pair on the wire — no nonce bytes are transmitted.
/// The leader is the only party that seals under `K_g` and draws every
/// `seq` from one per-epoch counter, so no `(K_g, nonce)` pair repeats.
pub(crate) fn broadcast_nonce(iv: &[u8; 12], seq: u64) -> AeadNonce {
    let mut bytes = *iv;
    for (dst, src) in bytes[4..].iter_mut().zip(seq.to_be_bytes()) {
        *dst ^= src;
    }
    AeadNonce::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directional_prefixes_differ() {
        assert_ne!(SEQ_LEADER, SEQ_MEMBER);
    }

    #[test]
    fn broadcast_nonces_are_distinct_and_deterministic() {
        let iv = [7u8; 12];
        let n0 = broadcast_nonce(&iv, 0);
        let n1 = broadcast_nonce(&iv, 1);
        let n_big = broadcast_nonce(&iv, u64::MAX);
        assert_ne!(n0.as_bytes(), n1.as_bytes());
        assert_ne!(n0.as_bytes(), n_big.as_bytes());
        assert_ne!(n1.as_bytes(), n_big.as_bytes());
        assert_eq!(n0.as_bytes(), broadcast_nonce(&iv, 0).as_bytes());
        // Seq 0 leaves the IV untouched; others only touch the tail.
        assert_eq!(n0.as_bytes(), &iv);
        assert_eq!(&n1.as_bytes()[..4], &iv[..4]);
    }
}
