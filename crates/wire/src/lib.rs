//! Wire formats for the Enclaves group-management protocols.
//!
//! This crate defines the concrete byte-level encodings used by the runtime
//! implementation in `enclaves-core`:
//!
//! * [`actor`] — actor (user/leader) identifiers.
//! * [`group`] — enclave (group) identifiers for multi-enclave services.
//! * [`roster`] — the shared, wire-encoded membership snapshot.
//! * [`codec`] — a small deterministic binary codec (type-tagged,
//!   length-prefixed) with no reflection and no external schema.
//! * [`message`] — the improved protocol of Section 3.2: envelopes carrying
//!   AEAD-sealed bodies, plus the plaintext structures that get sealed.
//! * [`legacy`] — the original protocol of Section 2.2, implemented for the
//!   baseline/attack demonstrations.
//! * [`journal`] — plaintext record formats for the leader's write-ahead
//!   journal (genesis configuration + RNG-taped transitions).
//! * [`framing`] — length-prefixed framing over any `Read`/`Write` stream.
//!
//! # Design
//!
//! Every protocol message is an [`message::Envelope`]: a cleartext header
//! (message type, apparent sender, intended recipient) and an opaque body.
//! For encrypted messages the body is a ChaCha20-Poly1305 seal of a
//! [`codec::Encode`]-encoded plaintext structure, with the header bytes
//! bound as associated data — so a message cannot be re-labeled or
//! re-addressed without failing authentication (the byte-level analogue of
//! the identities the paper embeds in every encrypted field).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod codec;
pub mod framing;
pub mod group;
pub mod journal;
pub mod legacy;
pub mod message;
pub mod roster;

pub use actor::ActorId;
pub use codec::WireError;
pub use group::GroupId;
pub use roster::{Roster, MAX_ROSTER_LEN};
