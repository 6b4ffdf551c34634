//! Software cryptography substrate for the Enclaves reproduction.
//!
//! The DSN'01 paper *Intrusion-Tolerant Group Management in Enclaves* assumes
//! ideal symmetric encryption ("we assume that [attackers] cannot break the
//! encryption primitives used"). This crate provides a concrete instantiation
//! of those primitives, implemented from scratch and validated against
//! published test vectors:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256.
//! * [`hkdf`] — RFC 5869 extract-and-expand key derivation.
//! * [`pbkdf2`] — RFC 8018 PBKDF2-HMAC-SHA-256, used to derive the long-term
//!   key `P_a` from a user password exactly as Enclaves does ("a key `P_a`
//!   derived from A's password").
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher: a scalar path, and a
//!   lane kernel run four, eight or sixteen blocks wide where the CPU is
//!   found to have AVX2 or AVX-512.
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator, four blocks
//!   per reduction on long input, or eight lanes of AVX-512 IFMA.
//! * [`aead`] — RFC 8439 ChaCha20-Poly1305 authenticated encryption, the
//!   concrete realization of the paper's `{X}_K` encryption-with-integrity.
//! * [`keys`] — typed key material (`LongTermKey`, `SessionKey`, `GroupKey`)
//!   zeroized on drop.
//! * [`nonce`] — 96-bit AEAD nonces and monotone nonce sequences, plus the
//!   128-bit *protocol* nonces (`N_1`, `N_2`, ...) the paper threads through
//!   its messages.
//! * [`treekdf`] — the key schedule for the MLS-style rekey tree, one
//!   ChaCha20 block per derivation (node keys, chained path secrets, and
//!   the per-epoch group key/IV derived from the tree root).
//! * [`constant_time`] — constant-time comparison helpers.
//! * [`crc`] — CRC-32 (IEEE) for journal record fast-fail framing.
//! * [`rng`] — a seedable CSPRNG abstraction so simulations are
//!   deterministic while real deployments use OS entropy.
//! * [`x25519`] — RFC 7748 Diffie-Hellman, enabling the paper's
//!   footnote-1 public-key authentication variant (the long-term key
//!   `P_a` derived from a static-static exchange instead of a password).
//!
//! # Example
//!
//! ```
//! use enclaves_crypto::aead::ChaCha20Poly1305;
//! use enclaves_crypto::keys::SessionKey;
//! use enclaves_crypto::nonce::AeadNonce;
//!
//! # fn main() -> Result<(), enclaves_crypto::CryptoError> {
//! let key = SessionKey::from_bytes([7u8; 32]);
//! let cipher = ChaCha20Poly1305::new(key.as_bytes());
//! let nonce = AeadNonce::from_bytes([1u8; 12]);
//! let sealed = cipher.seal(&nonce, b"group management", b"header");
//! let opened = cipher.open(&nonce, &sealed, b"header")?;
//! assert_eq!(opened, b"group management");
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: `dispatch::Detected::call` carries the workspace's
// one `#[allow(unsafe_code)]`, around the call of a `#[target_feature]`
// kernel behind the run-time detection of its features. CI counts the
// blocks.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod constant_time;
pub mod crc;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod nonce;
pub mod pbkdf2;
pub mod poly1305;
pub mod rng;
pub mod sha256;
pub mod treekdf;
pub mod x25519;

mod dispatch;
mod error;

pub use error::CryptoError;
