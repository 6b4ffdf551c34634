//! Key-schedule for the MLS-style rekey tree (RFC 9420 §7 adapted to the
//! Enclaves star topology).
//!
//! The leader maintains a left-balanced binary tree whose leaves hold
//! per-member channel secrets and whose interior node keys are derived from
//! their children's *path secrets*: refreshing a leaf draws one fresh path
//! secret `s_1` and chains upward with
//!
//! ```text
//! K(p_i)  = derive_node_key(s_i)          // key stored at path node p_i
//! s_{i+1} = derive_path_secret(s_i)       // secret for the parent of p_i
//! (K_g, IV_g) = derive_group(root_key, epoch)
//! ```
//!
//! so a member that unseals a single `s_i` can derive every key from the
//! matching path node up to the root, while members outside that subtree
//! learn nothing. All derivations are RFC 5869 HKDF-SHA-256 with distinct
//! `info` labels, mirroring RFC 9420's `DeriveSecret` labels.
//!
//! Every derivation from one secret shares one extracted PRK: the
//! `TREE_SALT` HMAC state is keyed once per process and the PRK's once
//! per secret, so [`derive_step`] — one tree level — costs 8 SHA-256
//! compressions (2 extract, 2 PRK keying, 2 per expand) where two
//! independent [`crate::hkdf::derive`] calls cost 16. The outputs are
//! exactly those calls' outputs.

use std::sync::OnceLock;

use crate::hkdf::Prk;
use crate::hmac::HmacSha256;

/// Domain-separation salt for every tree derivation.
const TREE_SALT: &[u8] = b"enclaves treekem v1";

/// Size of path secrets and node keys.
pub const SECRET_LEN: usize = 32;

const NODE_KEY_INFO: &[u8] = b"node key";
const PATH_SECRET_INFO: &[u8] = b"path secret";

/// HKDF-Extract of `secret` under [`TREE_SALT`].
fn tree_prk(secret: &[u8; SECRET_LEN]) -> Prk {
    static SALT: OnceLock<HmacSha256> = OnceLock::new();
    Prk::extract(SALT.get_or_init(|| HmacSha256::new(TREE_SALT)), secret)
}

fn expand<const N: usize>(prk: &Prk, info: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    prk.expand(info, &mut out)
        .expect("key-sized output is within HKDF bounds");
    out
}

/// One tree level: the node key stored at a path node and the path secret
/// of that node's parent, both from the node's own path secret. Equal to
/// `(derive_node_key(s), derive_path_secret(s))` at half the cost.
#[must_use]
pub fn derive_step(path_secret: &[u8; SECRET_LEN]) -> ([u8; SECRET_LEN], [u8; SECRET_LEN]) {
    let prk = tree_prk(path_secret);
    (expand(&prk, NODE_KEY_INFO), expand(&prk, PATH_SECRET_INFO))
}

/// Derives the node key stored at a path node from that node's path secret.
#[must_use]
pub fn derive_node_key(path_secret: &[u8; SECRET_LEN]) -> [u8; SECRET_LEN] {
    expand(&tree_prk(path_secret), NODE_KEY_INFO)
}

/// Derives the parent's path secret from a child's path secret (the
/// "derive up" step members apply after unsealing their copath secret).
#[must_use]
pub fn derive_path_secret(path_secret: &[u8; SECRET_LEN]) -> [u8; SECRET_LEN] {
    expand(&tree_prk(path_secret), PATH_SECRET_INFO)
}

/// Derives the epoch group key and broadcast IV from the tree root key.
///
/// The epoch number is bound into the `info` string so re-deriving an old
/// root under a new epoch (or vice versa) yields unrelated traffic keys.
#[must_use]
pub fn derive_group(root_key: &[u8; SECRET_LEN], epoch: u64) -> ([u8; SECRET_LEN], [u8; 12]) {
    let prk = tree_prk(root_key);
    (
        expand(&prk, &epoch_info::<24>(b"group key epoch ", epoch)),
        expand(&prk, &epoch_info::<23>(b"group iv epoch ", epoch)),
    )
}

/// `label ‖ epoch` (big-endian) as a fixed-size `info` string.
fn epoch_info<const N: usize>(label: &[u8], epoch: u64) -> [u8; N] {
    let mut info = [0u8; N];
    let (head, tail) = info.split_at_mut(N - 8);
    head.copy_from_slice(label);
    tail.copy_from_slice(&epoch.to_be_bytes());
    info
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Golden vectors freeze the wire-compatible key schedule: any change to
    // salts, labels, or derivation order breaks interop between a leader and
    // members built from different revisions.
    #[test]
    fn golden_vectors_are_stable() {
        let s = [0x42u8; 32];
        assert_eq!(
            hex(&derive_node_key(&s)),
            "2019dd99e32bf8cc1bcc5aac2d3e55af14767506adb66ce49ae1d7209a6f5dcb"
        );
        assert_eq!(
            hex(&derive_path_secret(&s)),
            "c4c91ed657da49d950e6b37726f9332b39806433d3eecc251e959cd9feca5bca"
        );
        let (key, iv) = derive_group(&s, 7);
        assert_eq!(
            hex(&key),
            "3c9a69b108aded2cbeed530ca78f542d1d2f5e988ff678ceb4c6ec8ecf73c7ed"
        );
        assert_eq!(hex(&iv), "b1e1a2738c3f106ed2e10147");
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
    use crate::hkdf;
    use proptest::prelude::*;

    fn reference<const N: usize>(secret: &[u8; SECRET_LEN], info: &[u8]) -> [u8; N] {
        let mut out = [0u8; N];
        hkdf::derive(TREE_SALT, secret, info, &mut out).unwrap();
        out
    }

    proptest! {
        // The fused, state-cached schedule is the RFC 5869 one: every
        // output equals an independent extract-then-expand.
        #[test]
        fn fused_step_equals_reference_derives(
            secret in proptest::array::uniform32(any::<u8>()),
        ) {
            let expect = (
                reference(&secret, b"node key"),
                reference(&secret, b"path secret"),
            );
            prop_assert_eq!(derive_step(&secret), expect);
            prop_assert_eq!(derive_node_key(&secret), expect.0);
            prop_assert_eq!(derive_path_secret(&secret), expect.1);
        }

        #[test]
        fn group_derivation_equals_reference_derives(
            root in proptest::array::uniform32(any::<u8>()),
            epoch in any::<u64>(),
        ) {
            let mut key_info = b"group key epoch ".to_vec();
            key_info.extend_from_slice(&epoch.to_be_bytes());
            let mut iv_info = b"group iv epoch ".to_vec();
            iv_info.extend_from_slice(&epoch.to_be_bytes());
            prop_assert_eq!(
                derive_group(&root, epoch),
                (reference(&root, &key_info), reference(&root, &iv_info))
            );
        }
    }
}
