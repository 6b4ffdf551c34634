//! RFC 8439 ChaCha20-Poly1305 authenticated encryption.
//!
//! This is the concrete realization of the paper's `{X}_K`: encryption that
//! also guarantees integrity and key-binding, so a recipient detects any
//! tampering or any ciphertext produced under a different key. Validated
//! against the RFC 8439 §2.8.2 test vector.
//!
//! # The one-time key, folded in
//!
//! RFC 8439 §2.6 takes the Poly1305 key from ChaCha20 block 0 and
//! encrypts from block 1. Up to 448 bytes (every handshake, ack, path
//! seal, journal record and small broadcast) the message and block 0
//! together fit the ChaCha20 short path, so one keystream pass from
//! counter 0 computes both, four or eight blocks side by side where the
//! CPU has the lane kernels (`chacha20::Fold`), instead of a scalar block
//! for the key and another pass for the data. Longer messages take block
//! 0 on its own and the data through `chacha20::xor_in_place` from
//! counter 1. The bytes and the tag are the same either way. Open still
//! authenticates before it decrypts: the fold holds the keystream in a
//! stack buffer while the tag is checked over the untouched ciphertext,
//! and only then is it XORed in. Both paths are constant-time in the key
//! and the data, as the two primitives are (their module docs), and the
//! tag comparison is [`ct_eq`]. Off `x86_64`, or on a CPU without
//! AVX-512VL, the fold is one scalar keystream pass from counter 0, the
//! same blocks the block-0 path computes.

use crate::chacha20::{self, Fold, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use crate::constant_time::ct_eq;
use crate::nonce::AeadNonce;
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::CryptoError;

/// A ChaCha20-Poly1305 AEAD cipher bound to one 256-bit key.
///
/// # Example
///
/// ```
/// use enclaves_crypto::aead::ChaCha20Poly1305;
/// use enclaves_crypto::nonce::AeadNonce;
///
/// # fn main() -> Result<(), enclaves_crypto::CryptoError> {
/// let cipher = ChaCha20Poly1305::new(&[0x42; 32]);
/// let nonce = AeadNonce::from_bytes([0; 12]);
/// let ct = cipher.seal(&nonce, b"AdminMsg", b"L->A");
/// assert_eq!(cipher.open(&nonce, &ct, b"L->A")?, b"AdminMsg");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

impl std::fmt::Debug for ChaCha20Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20Poly1305").finish_non_exhaustive()
    }
}

impl Drop for ChaCha20Poly1305 {
    fn drop(&mut self) {
        crate::constant_time::zeroize(&mut self.key);
    }
}

impl ChaCha20Poly1305 {
    /// Creates a cipher from a 256-bit key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, nonce: &AeadNonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(nonce, plaintext, aad, &mut out);
        out
    }

    /// [`seal`](Self::seal) into a caller-supplied buffer, reusing its
    /// allocation. The buffer is cleared first; on return it holds
    /// exactly `ciphertext || tag`.
    pub fn seal_into(&self, nonce: &AeadNonce, plaintext: &[u8], aad: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, out);
        out.extend_from_slice(&tag);
    }

    /// Encrypts `data` where it lies and returns the tag, for a caller
    /// that already holds the plaintext inside the buffer it will send:
    /// `data || tag` is then exactly what [`seal`](Self::seal) returns.
    #[must_use]
    pub fn seal_in_place(&self, nonce: &AeadNonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let n = nonce.as_bytes();
        let Some(fold) = Fold::new(&self.key, n, data.len()) else {
            return self.seal_block0(n, aad, data);
        };
        fold.apply(data);
        compute_tag(fold.block0(), data, aad)
    }

    /// [`seal_in_place`](Self::seal_in_place) with block 0 computed on its
    /// own: the path of a message too long to fold.
    fn seal_block0(&self, n: &[u8; NONCE_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        chacha20::xor_in_place(&self.key, 1, n, data);
        compute_tag(&chacha20::block(&self.key, 0, n), data, aad)
    }

    /// Decrypts `sealed` (as produced by [`seal`](Self::seal)) bound to
    /// `aad`, returning the plaintext.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::TruncatedCiphertext`] if `sealed` is shorter than a
    ///   tag.
    /// * [`CryptoError::TagMismatch`] if authentication fails — wrong key,
    ///   wrong nonce, wrong AAD, or tampered ciphertext. No plaintext is
    ///   released in that case.
    pub fn open(
        &self,
        nonce: &AeadNonce,
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        self.open_into(nonce, sealed, aad, &mut out)?;
        Ok(out)
    }

    /// [`open`](Self::open) into a caller-supplied buffer, reusing its
    /// allocation. The buffer is cleared first; on success it holds
    /// exactly the plaintext, and on failure it is left empty.
    ///
    /// # Errors
    ///
    /// Same contract as [`open`](Self::open): no plaintext is released on
    /// authentication failure.
    pub fn open_into(
        &self,
        nonce: &AeadNonce,
        sealed: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        out.clear();
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::TruncatedCiphertext);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        out.extend_from_slice(ciphertext);
        let opened = self.open_in_place(nonce, aad, out, tag);
        if opened.is_err() {
            out.clear();
        }
        opened
    }

    /// Authenticates `data || tag` bound to `aad` and, only if the tag
    /// holds, decrypts `data` where it lies: the inverse of
    /// [`seal_in_place`](Self::seal_in_place), for a caller whose
    /// ciphertext already sits in the buffer the plaintext should end up
    /// in (a fixed-size secret on the stack, say).
    ///
    /// # Errors
    ///
    /// [`CryptoError::TagMismatch`] if authentication fails; `data` is then
    /// left as it was.
    pub fn open_in_place(
        &self,
        nonce: &AeadNonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let n = nonce.as_bytes();
        let Some(fold) = Fold::new(&self.key, n, data.len()) else {
            return self.open_block0(n, aad, data, tag);
        };
        verify(&compute_tag(fold.block0(), data, aad), tag)?;
        fold.apply(data);
        Ok(())
    }

    /// [`open_in_place`](Self::open_in_place) with block 0 computed on its
    /// own: the path of a message too long to fold.
    fn open_block0(
        &self,
        n: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        verify(
            &compute_tag(&chacha20::block(&self.key, 0, n), data, aad),
            tag,
        )?;
        chacha20::xor_in_place(&self.key, 1, n, data);
        Ok(())
    }
}

/// The RFC 8439 §2.8 tag over `aad` and `ciphertext`, under the one-time
/// key at the front of `block0`, the keystream block at counter 0.
fn compute_tag(block0: &[u8; BLOCK_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
    let key = block0
        .first_chunk()
        .expect("a keystream block holds a Poly1305 key");
    let mut mac = Poly1305::new(key);
    mac.update(aad);
    mac.update(zero_pad(aad.len()));
    mac.update(ciphertext);
    mac.update(zero_pad(ciphertext.len()));
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// `Ok` if `tag` is the `computed` one, compared in constant time.
fn verify(computed: &[u8; TAG_LEN], tag: &[u8]) -> Result<(), CryptoError> {
    if ct_eq(computed, tag) {
        Ok(())
    } else {
        Err(CryptoError::TagMismatch)
    }
}

/// Returns the RFC 8439 pad: zeros to the next 16-byte boundary.
fn zero_pad(len: usize) -> &'static [u8] {
    const ZEROS: [u8; 16] = [0; 16];
    &ZEROS[..(16 - (len % 16)) % 16]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce = AeadNonce::from_bytes(unhex("070000004041424344454647").try_into().unwrap());
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let cipher = ChaCha20Poly1305::new(&key);
        let sealed = cipher.seal(&nonce, plaintext, &aad);

        let expected_ct = unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        let expected_tag = unhex("1ae10b594f09e26a7e902ecbd0600691");

        assert_eq!(&sealed[..expected_ct.len()], &expected_ct[..]);
        assert_eq!(&sealed[expected_ct.len()..], &expected_tag[..]);

        let opened = cipher.open(&nonce, &sealed, &aad).unwrap();
        assert_eq!(opened, plaintext);

        let mut in_place = plaintext.to_vec();
        let tag = cipher.seal_in_place(&nonce, &aad, &mut in_place);
        assert_eq!(in_place, expected_ct);
        assert_eq!(tag[..], expected_tag[..]);

        // And back where it lies; a wrong or short tag leaves the
        // ciphertext untouched.
        for bad in [&[0u8; TAG_LEN][..], &tag[..TAG_LEN - 1]] {
            assert_eq!(
                cipher.open_in_place(&nonce, &aad, &mut in_place, bad),
                Err(CryptoError::TagMismatch)
            );
            assert_eq!(in_place, expected_ct);
        }
        cipher
            .open_in_place(&nonce, &aad, &mut in_place, &tag)
            .unwrap();
        assert_eq!(in_place, plaintext);
    }

    #[test]
    fn open_rejects_tampered_ciphertext() {
        let cipher = ChaCha20Poly1305::new(&[1; 32]);
        let nonce = AeadNonce::from_bytes([2; 12]);
        let mut sealed = cipher.seal(&nonce, b"payload", b"aad");
        sealed[0] ^= 1;
        assert_eq!(
            cipher.open(&nonce, &sealed, b"aad"),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn open_rejects_tampered_tag() {
        let cipher = ChaCha20Poly1305::new(&[1; 32]);
        let nonce = AeadNonce::from_bytes([2; 12]);
        let mut sealed = cipher.seal(&nonce, b"payload", b"aad");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(
            cipher.open(&nonce, &sealed, b"aad"),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn open_rejects_wrong_aad() {
        let cipher = ChaCha20Poly1305::new(&[1; 32]);
        let nonce = AeadNonce::from_bytes([2; 12]);
        let sealed = cipher.seal(&nonce, b"payload", b"aad-1");
        assert_eq!(
            cipher.open(&nonce, &sealed, b"aad-2"),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn open_rejects_wrong_key_and_nonce() {
        let c1 = ChaCha20Poly1305::new(&[1; 32]);
        let c2 = ChaCha20Poly1305::new(&[2; 32]);
        let n1 = AeadNonce::from_bytes([0; 12]);
        let n2 = AeadNonce::from_bytes([1; 12]);
        let sealed = c1.seal(&n1, b"x", b"");
        assert!(c2.open(&n1, &sealed, b"").is_err());
        assert!(c1.open(&n2, &sealed, b"").is_err());
    }

    #[test]
    fn open_rejects_truncation() {
        let cipher = ChaCha20Poly1305::new(&[1; 32]);
        let nonce = AeadNonce::from_bytes([2; 12]);
        assert_eq!(
            cipher.open(&nonce, &[0u8; 15], b""),
            Err(CryptoError::TruncatedCiphertext)
        );
        // Exactly a tag with no ciphertext is structurally valid input and
        // must decrypt an empty message only under the right tag.
        let sealed = cipher.seal(&nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(cipher.open(&nonce, &sealed, b"").unwrap(), Vec::<u8>::new());
    }

    /// A Welcome-sized body crosses every chunk of the wide cipher path and
    /// every group of the four-block MAC path: a flipped bit in any chunk
    /// is refused before a byte is decrypted.
    #[test]
    fn ten_kib_roundtrip_and_a_bitflip_in_every_chunk() {
        const LEN: usize = 10 * 1024;
        const CHUNK: usize = 512;
        let cipher = ChaCha20Poly1305::new(&[0x5c; 32]);
        let nonce = AeadNonce::from_bytes([3; 12]);
        let plaintext: Vec<u8> = (0..LEN).map(|i| (i * 7 % 253) as u8).collect();

        let mut data = plaintext.clone();
        let tag = cipher.seal_in_place(&nonce, b"welcome", &mut data);
        let sealed = data.clone();
        assert_ne!(sealed, plaintext);

        for chunk in 0..LEN / CHUNK {
            let at = chunk * CHUNK + (chunk * 37) % CHUNK;
            data[at] ^= 1 << (chunk % 8);
            let tampered = data.clone();
            assert_eq!(
                cipher.open_in_place(&nonce, b"welcome", &mut data, &tag),
                Err(CryptoError::TagMismatch),
                "flip at byte {at}"
            );
            assert!(data == tampered, "buffer touched after a refusal at {at}");
            data[at] = sealed[at];
        }

        cipher
            .open_in_place(&nonce, b"welcome", &mut data, &tag)
            .unwrap();
        assert!(data == plaintext);
    }

    /// The folded one-time key gives the block-0 path's ciphertext and tag
    /// at every length up to 600 (both sides of `chacha20::FOLD_MAX`), and
    /// each path opens what the other sealed.
    #[test]
    fn folded_key_matches_the_block0_path_at_every_length() {
        let cipher = ChaCha20Poly1305::new(&[0x3c; 32]);
        let nonce = AeadNonce::from_bytes([9; 12]);
        let n = nonce.as_bytes();
        for len in 0..=600usize {
            let plain: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let mut folded = plain.clone();
            let tag = cipher.seal_in_place(&nonce, b"aad", &mut folded);
            let mut block0 = plain.clone();
            let tag0 = cipher.seal_block0(n, b"aad", &mut block0);
            assert!(folded == block0 && tag == tag0, "seal at {len}");

            cipher
                .open_block0(n, b"aad", &mut folded, &tag)
                .expect("the block-0 path opens a folded seal");
            cipher
                .open_in_place(&nonce, b"aad", &mut block0, &tag0)
                .expect("the folded path opens a block-0 seal");
            assert!(folded == plain && block0 == plain, "open at {len}");
        }
    }

    /// A short open that fails, on a flipped ciphertext bit, tag bit or AAD
    /// byte, leaves `data` as it was: the keystream is XORed in only after
    /// the tag holds.
    #[test]
    fn a_tampered_short_open_leaves_data_untouched() {
        let cipher = ChaCha20Poly1305::new(&[0x71; 32]);
        let nonce = AeadNonce::from_bytes([4; 12]);
        for len in [1usize, 63, 64, 65, 200, 256, chacha20::FOLD_MAX] {
            let mut sealed: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let tag = cipher.seal_in_place(&nonce, b"hdr", &mut sealed);
            let mut flipped_data = sealed.clone();
            flipped_data[len / 2] ^= 0x10;
            let mut flipped_tag = tag;
            flipped_tag[3] ^= 1;
            for (mut data, tag, aad) in [
                (flipped_data, tag, &b"hdr"[..]),
                (sealed.clone(), flipped_tag, b"hdr"),
                (sealed.clone(), tag, b"hdR"),
            ] {
                let before = data.clone();
                assert_eq!(
                    cipher.open_in_place(&nonce, aad, &mut data, &tag),
                    Err(CryptoError::TagMismatch),
                    "len {len}"
                );
                assert!(data == before, "touched after a refusal at {len}");
            }
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = ChaCha20Poly1305::new(&[9; 32]);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 255, 1024] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = AeadNonce::from_bytes([len as u8; 12]);
            let sealed = cipher.seal(&nonce, &pt, b"hdr");
            assert_eq!(cipher.open(&nonce, &sealed, b"hdr").unwrap(), pt);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn seal_open_roundtrip(
            key in proptest::array::uniform32(any::<u8>()),
            nonce in proptest::array::uniform12(any::<u8>()),
            pt in proptest::collection::vec(any::<u8>(), 0..512),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let cipher = ChaCha20Poly1305::new(&key);
            let n = AeadNonce::from_bytes(nonce);
            let sealed = cipher.seal(&n, &pt, &aad);
            prop_assert_eq!(sealed.len(), pt.len() + TAG_LEN);
            prop_assert_eq!(cipher.open(&n, &sealed, &aad).unwrap(), pt);
        }

        #[test]
        fn any_bitflip_is_rejected(
            key in proptest::array::uniform32(any::<u8>()),
            pt in proptest::collection::vec(any::<u8>(), 1..128),
            flip_byte in 0usize..128,
            flip_bit in 0u8..8,
        ) {
            let cipher = ChaCha20Poly1305::new(&key);
            let n = AeadNonce::from_bytes([0; 12]);
            let mut sealed = cipher.seal(&n, &pt, b"");
            let idx = flip_byte % sealed.len();
            sealed[idx] ^= 1 << flip_bit;
            prop_assert!(cipher.open(&n, &sealed, b"").is_err());
        }
    }
}
