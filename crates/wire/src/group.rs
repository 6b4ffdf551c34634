//! Enclave (group) identifiers.
//!
//! A multi-enclave leader service hosts many independent groups behind
//! one listener; every envelope belonging to such a service carries the
//! enclave's [`GroupId`] in its cleartext header, and — because the
//! header is AEAD-bound — inside every seal's associated data. A frame
//! sealed for enclave A therefore cannot verify in enclave B even when
//! the two enclaves share a member name and password (and hence the
//! same derived `P_a`).
//!
//! Single-group deployments omit the identifier entirely: an envelope
//! with no group id encodes byte-identically to the pre-multigroup wire
//! format, so legacy peers interoperate unchanged.

use crate::codec::{Decode, Encode, Reader, WireError, Writer};
use std::fmt;
use std::sync::Arc;

/// Maximum length of a group identifier in bytes.
pub const MAX_GROUP_ID_LEN: usize = 64;

/// An enclave (group) identifier: a short UTF-8 string.
///
/// # Example
///
/// ```
/// use enclaves_wire::GroupId;
/// let ops = GroupId::new("ops-room")?;
/// assert_eq!(ops.as_str(), "ops-room");
/// # Ok::<(), enclaves_wire::WireError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(Arc<str>);

impl GroupId {
    /// Creates an identifier after validating length and characters.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidGroupId`] if the name is empty, longer
    /// than [`MAX_GROUP_ID_LEN`] bytes, or contains control characters.
    pub fn new(name: impl Into<String>) -> Result<Self, WireError> {
        let name = name.into();
        Self::validate(&name)?;
        Ok(GroupId(name.into()))
    }

    fn validate(name: &str) -> Result<(), WireError> {
        if name.is_empty() || name.len() > MAX_GROUP_ID_LEN || name.chars().any(char::is_control) {
            return Err(WireError::InvalidGroupId);
        }
        Ok(())
    }

    /// The identifier as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupId({})", self.0)
    }
}

impl std::str::FromStr for GroupId {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GroupId::new(s)
    }
}

impl Encode for GroupId {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.0.as_bytes());
    }
}

impl Decode for GroupId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take_bytes()?;
        let s = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidGroupId)?;
        Self::validate(s)?;
        Ok(GroupId(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn valid_ids() {
        assert!(GroupId::new("ops").is_ok());
        assert!(GroupId::new("enclave-7.example.org").is_ok());
        assert!(GroupId::new("日本語グループ").is_ok());
    }

    #[test]
    fn invalid_ids() {
        assert_eq!(GroupId::new(""), Err(WireError::InvalidGroupId));
        assert_eq!(GroupId::new("a\nb"), Err(WireError::InvalidGroupId));
        assert_eq!(GroupId::new("x\u{0}"), Err(WireError::InvalidGroupId));
        let long = "x".repeat(MAX_GROUP_ID_LEN + 1);
        assert_eq!(GroupId::new(long), Err(WireError::InvalidGroupId));
        let max = "x".repeat(MAX_GROUP_ID_LEN);
        assert!(GroupId::new(max).is_ok());
    }

    #[test]
    fn roundtrip_encoding() {
        let id = GroupId::new("enclave-42").unwrap();
        let bytes = encode(&id);
        let back: GroupId = decode(&bytes).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let bytes = vec![0, 0, 0, 2, 0xFF, 0xFE];
        assert!(decode::<GroupId>(&bytes).is_err());
    }

    #[test]
    fn from_str_parses() {
        let id: GroupId = "ops".parse().unwrap();
        assert_eq!(id.as_str(), "ops");
        assert!("".parse::<GroupId>().is_err());
    }
}
