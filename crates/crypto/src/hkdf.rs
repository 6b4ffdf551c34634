//! RFC 5869 HKDF (HMAC-based extract-and-expand key derivation) with
//! SHA-256.
//!
//! The Enclaves leader derives fresh session keys `K_a` and group keys `K_g`
//! from pool entropy; HKDF provides the derivation step. Validated against
//! the RFC 5869 appendix A test vectors.

use crate::hmac::{HmacSha256, TAG_LEN};
use crate::CryptoError;

/// Maximum output length permitted by RFC 5869 (`255 * HashLen`).
pub const MAX_OUTPUT_LEN: usize = 255 * TAG_LEN;

/// Extracts a pseudorandom key from input keying material.
///
/// `salt` may be empty, in which case a string of zeros is used per the RFC.
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; TAG_LEN] {
    let zeros = [0u8; TAG_LEN];
    let salt = if salt.is_empty() { &zeros[..] } else { salt };
    HmacSha256::mac(salt, ikm)
}

/// A pseudorandom key, keyed for expansion: the HMAC pads of the PRK are
/// absorbed once, so every [`expand`](Prk::expand) of the same key costs
/// two compressions per output block instead of four.
#[derive(Clone, Debug)]
pub struct Prk(HmacSha256);

impl Prk {
    /// Keys an expansion state with an extracted pseudorandom key.
    #[must_use]
    pub fn new(prk: &[u8; TAG_LEN]) -> Self {
        Prk(HmacSha256::new(prk))
    }

    /// Expands into `out.len()` bytes of output keying material bound to
    /// `info`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `out` is longer than
    /// [`MAX_OUTPUT_LEN`].
    pub fn expand(&self, info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
        if out.len() > MAX_OUTPUT_LEN {
            return Err(CryptoError::InvalidLength {
                what: "hkdf output",
                expected: MAX_OUTPUT_LEN,
                actual: out.len(),
            });
        }
        let mut t = [0u8; TAG_LEN];
        for (i, chunk) in out.chunks_mut(TAG_LEN).enumerate() {
            let mut mac = self.0.clone();
            if i > 0 {
                mac.update(&t);
            }
            mac.update(info);
            // At most 255 blocks, checked above.
            mac.update(&[(i + 1) as u8]);
            t = mac.finalize();
            chunk.copy_from_slice(&t[..chunk.len()]);
        }
        Ok(())
    }
}

/// Expands a pseudorandom key into `out.len()` bytes of output keying
/// material bound to `info`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if `out` is longer than
/// [`MAX_OUTPUT_LEN`].
pub fn expand(prk: &[u8; TAG_LEN], info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
    Prk::new(prk).expand(info, out)
}

/// One-shot extract-then-expand.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if `out` is longer than
/// [`MAX_OUTPUT_LEN`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), enclaves_crypto::CryptoError> {
/// let mut key = [0u8; 32];
/// enclaves_crypto::hkdf::derive(b"salt", b"entropy", b"enclaves session key", &mut key)?;
/// # Ok(())
/// # }
/// ```
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
    let prk = extract(salt, ikm);
    expand(&prk, info, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 A.1: basic test case.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            prk.to_vec(),
            unhex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm).unwrap();
        assert_eq!(
            okm.to_vec(),
            unhex("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
        );
    }

    // RFC 5869 A.2: longer inputs/outputs.
    #[test]
    fn rfc5869_case2() {
        let ikm: Vec<u8> = (0x00u8..=0x4f).collect();
        let salt: Vec<u8> = (0x60u8..=0xaf).collect();
        let info: Vec<u8> = (0xb0u8..=0xff).collect();
        let mut okm = [0u8; 82];
        derive(&salt, &ikm, &info, &mut okm).unwrap();
        assert_eq!(
            okm.to_vec(),
            unhex(concat!(
                "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c",
                "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71",
                "cc30c58179ec3e87c14c01d5c1f3434f1d87"
            ))
        );
    }

    // RFC 5869 A.3: zero-length salt and info.
    #[test]
    fn rfc5869_case3_empty_salt_info() {
        let ikm = [0x0b; 22];
        let mut okm = [0u8; 42];
        derive(&[], &ikm, &[], &mut okm).unwrap();
        assert_eq!(
            okm.to_vec(),
            unhex("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
        );
    }

    #[test]
    fn expand_rejects_oversize_output() {
        let prk = extract(b"s", b"ikm");
        let mut out = vec![0u8; MAX_OUTPUT_LEN + 1];
        assert!(matches!(
            expand(&prk, b"", &mut out),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn expand_max_output_succeeds() {
        let prk = extract(b"s", b"ikm");
        let mut out = vec![0u8; MAX_OUTPUT_LEN];
        expand(&prk, b"", &mut out).unwrap();
        assert!(out.iter().any(|&b| b != 0));
    }

    #[test]
    fn different_info_yields_different_keys() {
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        derive(b"salt", b"ikm", b"session", &mut k1).unwrap();
        derive(b"salt", b"ikm", b"group", &mut k2).unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn prefix_consistency_across_lengths() {
        // HKDF output is a stream: a shorter request must be a prefix of a
        // longer one with the same parameters.
        let mut short = [0u8; 16];
        let mut long = [0u8; 64];
        derive(b"salt", b"ikm", b"info", &mut short).unwrap();
        derive(b"salt", b"ikm", b"info", &mut long).unwrap();
        assert_eq!(short[..], long[..16]);
    }
}
