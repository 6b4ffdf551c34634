//! Key schedule for the MLS-style rekey tree (RFC 9420 §7 adapted to the
//! Enclaves star topology): a fast-key-erasure chain, one ChaCha20 block
//! per derivation.
//!
//! The leader maintains a left-balanced binary tree whose leaves hold
//! per-member channel secrets and whose interior node keys are derived from
//! their children's *path secrets*: refreshing a leaf draws one fresh path
//! secret `s_1` and chains upward with
//!
//! ```text
//! K(p_i) ‖ s_{i+1} = ChaCha20(key = s_i,  counter = 0, nonce = "enclave-step")
//! K_g ‖ IV_g ‖ …   = ChaCha20(key = root, counter = 0, nonce = "grp:" ‖ epoch_be64)
//! ```
//!
//! `K(p_i)` is the key stored at path node `p_i`, `s_{i+1}` the secret of
//! its parent; `root` is the key stored at the root and `(K_g, IV_g)` the
//! epoch's group key and broadcast IV (the block's first 44 bytes). A
//! member that unseals a single `s_i` derives every key from the matching
//! path node up to the root, while members outside that subtree learn
//! nothing.
//!
//! The one assumption is the one every seal in the system already makes:
//! ChaCha20 is a PRF under a uniformly random key (RFC 8439 §2.6 derives
//! the Poly1305 key from exactly such a block). Under it the two halves of
//! a block are independent and neither reveals its key, so holding `K(p_i)`
//! says nothing about `s_{i+1}` (a past member's retained keys and observed
//! copath seals open nothing newer), and one root yields unrelated traffic
//! keys per epoch because distinct epochs are distinct nonces. The two
//! labels differ in their first four bytes, so no epoch's group block is a
//! step block.
//!
//! That argument needs each key to feed one kind of block. Path secrets
//! are used for nothing but derivation — they never key an AEAD — and node
//! keys only ever seal, with one exception: in a one-leaf tree the leaf is
//! the root, so its key both derives the group key and, on a manual rekey,
//! seals the next secret to its occupant (`seal_to_self`). The AEAD takes
//! its Poly1305 key from counter 0 under a uniformly random 96-bit nonce,
//! which coincides with a given epoch's group nonce with probability 2⁻⁹⁶
//! per seal.

use crate::chacha20;
use crate::constant_time::zeroize;

/// Size of path secrets and node keys.
pub const SECRET_LEN: usize = 32;

/// Nonce of the step block.
const STEP_LABEL: [u8; chacha20::NONCE_LEN] = *b"enclave-step";

/// First four nonce bytes of a group block; the epoch fills the other eight.
const GROUP_LABEL: [u8; 4] = *b"grp:";

/// The first 32 bytes of a keystream block and the `N` that follow.
fn split<const N: usize>(mut block: [u8; chacha20::BLOCK_LEN]) -> ([u8; SECRET_LEN], [u8; N]) {
    let mut head = [0u8; SECRET_LEN];
    let mut tail = [0u8; N];
    head.copy_from_slice(&block[..SECRET_LEN]);
    tail.copy_from_slice(&block[SECRET_LEN..SECRET_LEN + N]);
    zeroize(&mut block);
    (head, tail)
}

/// One tree level: the node key stored at a path node and the path secret
/// of that node's parent, both from the node's own path secret.
#[must_use]
pub fn derive_step(path_secret: &[u8; SECRET_LEN]) -> ([u8; SECRET_LEN], [u8; SECRET_LEN]) {
    split(chacha20::block(path_secret, 0, &STEP_LABEL))
}

/// Derives the node key stored at a path node from that node's path secret.
#[must_use]
pub fn derive_node_key(path_secret: &[u8; SECRET_LEN]) -> [u8; SECRET_LEN] {
    derive_step(path_secret).0
}

/// Derives the parent's path secret from a child's path secret (the
/// "derive up" step members apply after unsealing their copath secret).
#[must_use]
pub fn derive_path_secret(path_secret: &[u8; SECRET_LEN]) -> [u8; SECRET_LEN] {
    derive_step(path_secret).1
}

/// Derives the epoch group key and broadcast IV from the tree root key.
///
/// The epoch number is the nonce's last eight bytes, so re-deriving an old
/// root under a new epoch (or vice versa) yields unrelated traffic keys.
#[must_use]
pub fn derive_group(root_key: &[u8; SECRET_LEN], epoch: u64) -> ([u8; SECRET_LEN], [u8; 12]) {
    let mut nonce = [0u8; chacha20::NONCE_LEN];
    nonce[..4].copy_from_slice(&GROUP_LABEL);
    nonce[4..].copy_from_slice(&epoch.to_be_bytes());
    split(chacha20::block(root_key, 0, &nonce))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Golden vectors freeze the wire-compatible key schedule: any change to
    // labels, counter or split breaks interop between a leader and members
    // built from different revisions, and makes `LeaderCore::recover`
    // refuse a tree journal written by the other one. The values come from
    // an independent ChaCha20 written for the purpose, not from this crate.
    #[test]
    fn golden_vectors_are_stable() {
        let s = [0x42u8; 32];
        assert_eq!(
            hex(&derive_node_key(&s)),
            "8cbc505abcf707a4d06fb3855cd600954383b513f72043ac01f952873f292cf9"
        );
        assert_eq!(
            hex(&derive_path_secret(&s)),
            "212bfdf91a7d6ec135aa43c94b6cfb9e806e01d4009151088b0974741b39d3b8"
        );
        let (key, iv) = derive_group(&s, 7);
        assert_eq!(
            hex(&key),
            "3e1471fd3afc28d094df36cf15fb4f3e9165434c05d0b099e4fd658ed3884870"
        );
        assert_eq!(hex(&iv), "c5433b642ba04db3277a359d");
    }

    // The primitive under the schedule, pinned where the schedule uses it:
    // RFC 8439 §2.3.2 (the block function's own vector, counter 1) and
    // §2.6.2 (counter 0, the Poly1305 key generation the PRF assumption is
    // borrowed from), whose nonce carries eight trailing bytes exactly as
    // a group nonce carries its epoch.
    #[test]
    fn rfc8439_vectors_hold_for_the_block_the_schedule_calls() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        assert_eq!(
            hex(&chacha20::block(&key, 1, &nonce)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let (poly_key, _) = split::<12>(chacha20::block(&key, 0, &nonce));
        assert_eq!(
            hex(&poly_key),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    #[test]
    fn labels_are_domain_separated() {
        let s = [7u8; 32];
        let node = derive_node_key(&s);
        let path = derive_path_secret(&s);
        let (group, _) = derive_group(&s, 0);
        assert_ne!(node, path);
        assert_ne!(node, group);
        assert_ne!(path, group);
        assert_ne!(node, s);
        // Whatever the epoch, a group nonce differs from the step nonce in
        // its label bytes.
        assert_ne!(STEP_LABEL[..4], GROUP_LABEL);
    }

    #[test]
    fn group_keys_differ_per_epoch() {
        let root = [9u8; 32];
        let (k1, iv1) = derive_group(&root, 1);
        let (k2, iv2) = derive_group(&root, 2);
        assert_ne!(k1, k2);
        assert_ne!(iv1, iv2);
        // Deterministic for a fixed (root, epoch).
        assert_eq!(derive_group(&root, 1), (k1, iv1));
    }

    #[test]
    fn chained_derivation_is_deterministic_and_injective_per_step() {
        // Walking a 4-deep path twice gives identical keys; distinct
        // starting secrets give fully distinct chains.
        let mut a = [1u8; 32];
        let mut b = [2u8; 32];
        for _ in 0..4 {
            assert_ne!(a, b);
            assert_ne!(derive_node_key(&a), derive_node_key(&b));
            a = derive_path_secret(&a);
            b = derive_path_secret(&b);
        }
        let mut a2 = [1u8; 32];
        for _ in 0..4 {
            a2 = derive_path_secret(&a2);
        }
        assert_eq!(a, a2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // The schedule is its definition: a step is the two halves of the
        // counter-0 block keyed by the secret under the step label.
        #[test]
        fn step_is_the_split_of_one_block(
            secret in proptest::array::uniform32(any::<u8>()),
        ) {
            let block = chacha20::block(&secret, 0, b"enclave-step");
            let (key, parent) = derive_step(&secret);
            prop_assert_eq!(&key[..], &block[..32]);
            prop_assert_eq!(&parent[..], &block[32..]);
            prop_assert_eq!(derive_node_key(&secret), key);
            prop_assert_eq!(derive_path_secret(&secret), parent);
        }

        // The group key and IV are the first 44 bytes of the counter-0
        // block keyed by the root under `"grp:" ‖ epoch` (big-endian).
        #[test]
        fn group_is_the_split_of_one_block(
            root in proptest::array::uniform32(any::<u8>()),
            epoch in any::<u64>(),
        ) {
            let mut nonce = *b"grp:\0\0\0\0\0\0\0\0";
            nonce[4..].copy_from_slice(&epoch.to_be_bytes());
            let block = chacha20::block(&root, 0, &nonce);
            let (key, iv) = derive_group(&root, epoch);
            prop_assert_eq!(&key[..], &block[..32]);
            prop_assert_eq!(&iv[..], &block[32..44]);
            // Not a step block, whatever the epoch.
            prop_assert_ne!(derive_step(&root).0, key);
        }

        #[test]
        fn distinct_epochs_give_distinct_group_material(
            root in proptest::array::uniform32(any::<u8>()),
            epoch in any::<u64>(),
            delta in 1u64..u64::MAX,
        ) {
            let (ka, iva) = derive_group(&root, epoch);
            let (kb, ivb) = derive_group(&root, epoch ^ delta);
            prop_assert_ne!(ka, kb);
            prop_assert_ne!(iva, ivb);
        }
    }
}
