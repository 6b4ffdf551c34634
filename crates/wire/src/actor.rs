//! Actor identifiers.

use crate::codec::{Decode, Encode, Reader, WireError, Writer};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Maximum length of an actor identifier in bytes.
pub const MAX_ACTOR_ID_LEN: usize = 64;

/// An actor (user or leader) identifier: a short UTF-8 string.
///
/// # Example
///
/// ```
/// use enclaves_wire::ActorId;
/// let alice = ActorId::new("alice")?;
/// assert_eq!(alice.as_str(), "alice");
/// # Ok::<(), enclaves_wire::WireError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(Arc<str>);

impl ActorId {
    /// Creates an identifier after validating length and characters.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidActorId`] if the name is empty, longer
    /// than [`MAX_ACTOR_ID_LEN`] bytes, or contains control characters.
    pub fn new(name: impl Into<String>) -> Result<Self, WireError> {
        let name = name.into();
        Self::validate(&name)?;
        Ok(ActorId(name.into()))
    }

    /// [`validate`](Self::validate) for a name still in wire bytes (a
    /// [`crate::Roster`] entry, which is checked but never built into an
    /// id). Printable ASCII within the length bound passes the rules by
    /// construction and is waved through; anything else is put to them.
    pub(crate) fn validate_bytes(name: &[u8]) -> Result<(), WireError> {
        let printable = name.iter().all(|b| (0x20..0x7f).contains(b));
        if printable && !name.is_empty() && name.len() <= MAX_ACTOR_ID_LEN {
            return Ok(());
        }
        Self::validate(std::str::from_utf8(name).map_err(|_| WireError::InvalidActorId)?)
    }

    fn validate(name: &str) -> Result<(), WireError> {
        if name.is_empty() || name.len() > MAX_ACTOR_ID_LEN || name.chars().any(char::is_control) {
            return Err(WireError::InvalidActorId);
        }
        Ok(())
    }

    /// The identifier as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Lets maps keyed by `ActorId` be probed with a borrowed name (a
/// [`crate::Roster`] entry) without building an id; `Hash`, `Eq` and `Ord`
/// are those of the string.
impl Borrow<str> for ActorId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActorId({})", self.0)
    }
}

impl std::str::FromStr for ActorId {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ActorId::new(s)
    }
}

impl Encode for ActorId {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.0.as_bytes());
    }
}

impl Decode for ActorId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take_bytes()?;
        let s = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidActorId)?;
        Self::validate(s)?;
        Ok(ActorId(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn valid_ids() {
        assert!(ActorId::new("alice").is_ok());
        assert!(ActorId::new("group-leader.example.org").is_ok());
        assert!(ActorId::new("日本語ユーザー").is_ok());
    }

    #[test]
    fn invalid_ids() {
        assert_eq!(ActorId::new(""), Err(WireError::InvalidActorId));
        assert_eq!(ActorId::new("a\nb"), Err(WireError::InvalidActorId));
        assert_eq!(ActorId::new("x\u{0}"), Err(WireError::InvalidActorId));
        let long = "x".repeat(MAX_ACTOR_ID_LEN + 1);
        assert_eq!(ActorId::new(long), Err(WireError::InvalidActorId));
        let max = "x".repeat(MAX_ACTOR_ID_LEN);
        assert!(ActorId::new(max).is_ok());
    }

    #[test]
    fn roundtrip_encoding() {
        let id = ActorId::new("carol").unwrap();
        let bytes = encode(&id);
        let back: ActorId = decode(&bytes).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        // Length-prefix 2 then invalid UTF-8.
        let bytes = vec![0, 0, 0, 2, 0xFF, 0xFE];
        assert!(decode::<ActorId>(&bytes).is_err());
    }

    #[test]
    fn from_str_parses() {
        let id: ActorId = "dave".parse().unwrap();
        assert_eq!(id.as_str(), "dave");
        assert!("".parse::<ActorId>().is_err());
    }
}
