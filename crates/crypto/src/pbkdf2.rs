//! RFC 8018 PBKDF2 with HMAC-SHA-256.
//!
//! Enclaves derives each user's long-term key `P_a` from a password shared
//! out of band with the group leader ("this encryption uses a key `P_a`
//! derived from A's password"). PBKDF2 is the concrete derivation we use.
//! Validated against the RFC 7914 §11 PBKDF2-HMAC-SHA-256 test vectors.

use crate::hmac::{HmacSha256, TAG_LEN};
use crate::CryptoError;

/// Derives `out.len()` bytes from `password` and `salt` using `iterations`
/// rounds of PBKDF2-HMAC-SHA-256.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if `iterations` is zero (expressed
/// as an invalid parameter) or `out` is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), enclaves_crypto::CryptoError> {
/// let mut key = [0u8; 32];
/// enclaves_crypto::pbkdf2::pbkdf2(b"hunter2", b"enclaves:alice", 1000, &mut key)?;
/// # Ok(())
/// # }
/// ```
pub fn pbkdf2(
    password: &[u8],
    salt: &[u8],
    iterations: u32,
    out: &mut [u8],
) -> Result<(), CryptoError> {
    if iterations == 0 {
        return Err(CryptoError::InvalidLength {
            what: "pbkdf2 iterations",
            expected: 1,
            actual: 0,
        });
    }
    if out.is_empty() {
        return Err(CryptoError::InvalidLength {
            what: "pbkdf2 output",
            expected: 1,
            actual: 0,
        });
    }

    // The password's HMAC pads are absorbed once; each iteration resumes
    // from a copy of that state.
    let keyed = HmacSha256::new(password);
    for (block_index, chunk) in out.chunks_mut(TAG_LEN).enumerate() {
        let i = (block_index as u32) + 1;
        let mut mac = keyed.clone();
        mac.update(salt);
        mac.update(&i.to_be_bytes());
        let mut u = mac.finalize();
        let mut t = u;
        for _ in 1..iterations {
            let mut mac = keyed.clone();
            mac.update(&u);
            u = mac.finalize();
            for (tb, ub) in t.iter_mut().zip(u.iter()) {
                *tb ^= ub;
            }
        }
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
    Ok(())
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

    // RFC 7914 §11, vector 1.
    #[test]
    fn rfc7914_vector1() {
        let mut out = [0u8; 64];
        pbkdf2(b"passwd", b"salt", 1, &mut out).unwrap();
        assert_eq!(
            out.to_vec(),
            unhex(concat!(
                "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc",
                "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
            ))
        );
    }

    // RFC 7914 §11, vector 2.
    #[test]
    fn rfc7914_vector2() {
        let mut out = [0u8; 64];
        pbkdf2(b"Password", b"NaCl", 80000, &mut out).unwrap();
        assert_eq!(
            out.to_vec(),
            unhex(concat!(
                "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56",
                "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"
            ))
        );
    }

    #[test]
    fn zero_iterations_rejected() {
        let mut out = [0u8; 32];
        assert!(pbkdf2(b"p", b"s", 0, &mut out).is_err());
    }

    #[test]
    fn empty_output_rejected() {
        let mut out = [];
        assert!(pbkdf2(b"p", b"s", 1, &mut out).is_err());
    }

    #[test]
    fn non_multiple_of_block_output() {
        let mut short = [0u8; 20];
        let mut long = [0u8; 40];
        pbkdf2(b"p", b"s", 3, &mut short).unwrap();
        pbkdf2(b"p", b"s", 3, &mut long).unwrap();
        assert_eq!(short[..], long[..20]);
    }

    #[test]
    fn distinct_salts_give_distinct_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        pbkdf2(b"password", b"enclaves:alice", 10, &mut a).unwrap();
        pbkdf2(b"password", b"enclaves:bob", 10, &mut b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn iteration_count_changes_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        pbkdf2(b"password", b"salt", 10, &mut a).unwrap();
        pbkdf2(b"password", b"salt", 11, &mut b).unwrap();
        assert_ne!(a, b);
    }
}
