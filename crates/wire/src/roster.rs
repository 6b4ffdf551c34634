//! The membership snapshot: one immutable, shared, wire-encoded roster.
//!
//! A [`Roster`] is the set of actor names in a group, sorted and
//! duplicate-free, held in one contiguous buffer that is byte-for-byte
//! the roster field of a `Welcome` (`u32` count, then one length-prefixed
//! name per member). Cloning it is a refcount bump, encoding it is a
//! memcpy, and decoding validates every name once and keeps the bytes it
//! validated — so the leader's group state, the `recipients` of every
//! fan-out, the `Welcome` on the wire and the member's view are the same
//! value, never re-materialised at a boundary.

use crate::actor::ActorId;
use crate::codec::{Decode, Encode, Reader, WireError, Writer};
use std::fmt;
use std::sync::Arc;

/// The most names a [`Roster`] may carry on the wire. A leader must not
/// admit a member past this bound: its `Welcome` could never be decoded.
pub const MAX_ROSTER_LEN: usize = 10_000;

/// Bytes of the `u32` count that opens the buffer, and of each name's
/// `u32` length prefix.
const PREFIX: usize = 4;

struct Inner {
    /// `u32` count, then `u32` length + UTF-8 bytes per name, ascending.
    bytes: Vec<u8>,
    /// Offset in `bytes` of each name's first byte (past its prefix).
    starts: Vec<u32>,
}

/// An immutable, sorted, duplicate-free set of actor names.
///
/// Names are validated (by the rules of [`ActorId::new`]) when the roster
/// is built or decoded, never again. Iteration yields borrowed `&str`
/// names: an owned [`ActorId`] per member is exactly the per-name
/// allocation this type exists to avoid, and maps keyed by `ActorId` are
/// probed with a `&str` through `ActorId: Borrow<str>`.
///
/// # Example
///
/// ```
/// use enclaves_wire::{ActorId, Roster};
/// let alice = ActorId::new("alice")?;
/// let bob = ActorId::new("bob")?;
/// let roster: Roster = [bob.clone(), alice.clone()].into_iter().collect();
/// assert_eq!(roster.iter().collect::<Vec<_>>(), ["alice", "bob"]);
/// assert!(roster.contains(&alice));
/// assert_eq!(roster.without(&bob).len(), 1);
/// # Ok::<(), enclaves_wire::WireError>(())
/// ```
#[derive(Clone)]
pub struct Roster(Arc<Inner>);

impl Roster {
    /// The empty roster.
    #[must_use]
    pub fn new() -> Self {
        Self::from_sorted(std::iter::empty())
    }

    /// Builds the buffer and index from names already validated, sorted
    /// and deduplicated.
    fn from_sorted<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Self {
        let mut inner = Inner {
            bytes: wire_u32(names.len()).to_vec(),
            starts: Vec::with_capacity(names.len()),
        };
        for name in names {
            inner.push_name(name.as_bytes());
        }
        Roster(Arc::new(inner))
    }

    /// The number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.starts.len()
    }

    /// True if the roster has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.starts.is_empty()
    }

    /// The `index`-th name in ascending order.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&str> {
        (index < self.len()).then(|| {
            std::str::from_utf8(self.0.name(index)).expect("names are validated on construction")
        })
    }

    /// The names in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// True if `user` is a member (binary search).
    #[must_use]
    pub fn contains(&self, user: &ActorId) -> bool {
        self.0.search(user.as_str().as_bytes()).is_ok()
    }

    /// True if both values share one buffer — the same snapshot, not
    /// merely equal ones.
    #[must_use]
    pub fn ptr_eq(&self, other: &Roster) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// This roster plus `user`: an `O(bytes)` copy around the insertion
    /// point, or this same snapshot when `user` is already a member.
    #[must_use]
    pub fn with(&self, user: &ActorId) -> Roster {
        let name = user.as_str().as_bytes();
        let Err(at) = self.0.search(name) else {
            return self.clone();
        };
        let old = &*self.0;
        let split = old.entry_offset(at);
        let mut inner = Inner {
            bytes: Vec::with_capacity(old.bytes.len() + PREFIX + name.len()),
            starts: Vec::with_capacity(old.starts.len() + 1),
        };
        inner
            .bytes
            .extend_from_slice(&wire_u32(old.starts.len() + 1));
        inner.bytes.extend_from_slice(&old.bytes[PREFIX..split]);
        inner.starts.extend_from_slice(&old.starts[..at]);
        inner.push_name(name);
        inner.bytes.extend_from_slice(&old.bytes[split..]);
        let shift = wire_len(PREFIX + name.len());
        inner
            .starts
            .extend(old.starts[at..].iter().map(|s| s + shift));
        Roster(Arc::new(inner))
    }

    /// This roster minus `user`: an `O(bytes)` copy around the removed
    /// entry, or this same snapshot when `user` is not a member.
    #[must_use]
    pub fn without(&self, user: &ActorId) -> Roster {
        let Ok(at) = self.0.search(user.as_str().as_bytes()) else {
            return self.clone();
        };
        let old = &*self.0;
        let (from, to) = (old.entry_offset(at), old.entry_offset(at + 1));
        let mut inner = Inner {
            bytes: Vec::with_capacity(old.bytes.len() - (to - from)),
            starts: Vec::with_capacity(old.starts.len() - 1),
        };
        inner
            .bytes
            .extend_from_slice(&wire_u32(old.starts.len() - 1));
        inner.bytes.extend_from_slice(&old.bytes[PREFIX..from]);
        inner.bytes.extend_from_slice(&old.bytes[to..]);
        inner.starts.extend_from_slice(&old.starts[..at]);
        let shift = wire_len(to - from);
        inner
            .starts
            .extend(old.starts[at + 1..].iter().map(|s| s - shift));
        Roster(Arc::new(inner))
    }
}

impl Inner {
    /// The bytes of the `index`-th name.
    fn name(&self, index: usize) -> &[u8] {
        self.name_at(self.starts[index])
    }

    /// The bytes of the name that starts at `start`, as long as the
    /// prefix before it says.
    fn name_at(&self, start: u32) -> &[u8] {
        let start = start as usize;
        let prefix: [u8; PREFIX] = self.bytes[start - PREFIX..start]
            .try_into()
            .expect("a prefix precedes every name");
        &self.bytes[start..start + u32::from_be_bytes(prefix) as usize]
    }

    /// Offset of the `index`-th entry's length prefix; for `index == len`,
    /// the end of the buffer.
    fn entry_offset(&self, index: usize) -> usize {
        self.starts
            .get(index)
            .map_or(self.bytes.len(), |s| *s as usize - PREFIX)
    }

    /// Binary search over the names; byte order is `str` order.
    fn search(&self, name: &[u8]) -> Result<usize, usize> {
        self.starts
            .binary_search_by(|start| self.name_at(*start).cmp(name))
    }

    /// Appends one length-prefixed name and indexes it.
    fn push_name(&mut self, name: &[u8]) {
        self.bytes.extend_from_slice(&wire_u32(name.len()));
        self.starts.push(wire_len(self.bytes.len()));
        self.bytes.extend_from_slice(name);
    }
}

/// A buffer offset or length as the index's `u32`.
fn wire_len(n: usize) -> u32 {
    u32::try_from(n).expect("roster buffer fits u32 offsets")
}

fn wire_u32(n: usize) -> [u8; 4] {
    wire_len(n).to_be_bytes()
}

impl Default for Roster {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Roster {
    fn eq(&self, other: &Roster) -> bool {
        self.ptr_eq(other) || self.0.bytes == other.0.bytes
    }
}

impl Eq for Roster {}

impl fmt::Debug for Roster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<ActorId> for Roster {
    fn from_iter<I: IntoIterator<Item = ActorId>>(iter: I) -> Self {
        let mut ids: Vec<ActorId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self::from_sorted(ids.iter().map(ActorId::as_str))
    }
}

impl Encode for Roster {
    fn encode(&self, w: &mut Writer) {
        w.put_array(&self.0.bytes);
    }
}

impl Decode for Roster {
    /// One validating pass over the input, then one copy of the bytes it
    /// covered: a constant number of allocations, each bounded by the
    /// input's own length, whatever the claimed count.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let input = r.rest();
        let count = r.take_u32()? as usize;
        if count > MAX_ROSTER_LEN {
            return Err(WireError::LengthOverflow);
        }
        // Every entry is a prefix plus at least one byte, so a count the
        // input cannot hold is refused before the index is allocated.
        if count > r.remaining() / (PREFIX + 1) {
            return Err(WireError::UnexpectedEnd);
        }
        let mut starts = Vec::with_capacity(count);
        let mut previous: &[u8] = &[];
        for _ in 0..count {
            let name = r.take_bytes()?;
            ActorId::validate_bytes(name)?;
            // Valid names are non-empty, so the first always passes.
            if name <= previous {
                return Err(WireError::RosterOrder);
            }
            starts.push(wire_len(input.len() - r.remaining() - name.len()));
            previous = name;
        }
        let bytes = input[..input.len() - r.remaining()].to_vec();
        Ok(Roster(Arc::new(Inner { bytes, starts })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn roster(names: &[&str]) -> Roster {
        names.iter().map(|n| id(n)).collect()
    }

    /// The pre-`Roster` encoding of a member list: count, then each id.
    fn reference_encoding(names: &[&str]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(names.len() as u32);
        for n in names {
            id(n).encode(&mut w);
        }
        w.finish()
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let r = roster(&["zed", "alice", "mid", "alice"]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), ["alice", "mid", "zed"]);
        assert_eq!(r.get(1), Some("mid"));
        assert_eq!(r.get(3), None);
        assert!(r.contains(&id("zed")));
        assert!(!r.contains(&id("zeb")));
        assert_eq!(format!("{r:?}"), r#"["alice", "mid", "zed"]"#);
    }

    #[test]
    fn empty_roster() {
        let r = Roster::new();
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
        assert!(!r.contains(&id("a")));
        assert_eq!(encode(&r), [0, 0, 0, 0]);
        assert_eq!(decode::<Roster>(&[0, 0, 0, 0]).unwrap(), r);
        assert_eq!(r, Roster::default());
    }

    #[test]
    fn encoding_is_the_member_list_encoding() {
        let cases: [&[&str]; 4] = [
            &[],
            &["alice"],
            &["alice", "bob", "carol"],
            &["a", "日本語ユーザー"],
        ];
        for names in cases {
            let r = roster(names);
            let bytes = encode(&r);
            assert_eq!(bytes, reference_encoding(names));
            let back: Roster = decode(&bytes).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.iter().collect::<Vec<_>>(), names);
        }
    }

    #[test]
    fn with_and_without_rebuild_around_the_entry() {
        let base = roster(&["bob", "dave"]);
        for (name, expect) in [
            ("alice", &["alice", "bob", "dave"]),
            ("carol", &["bob", "carol", "dave"]),
            ("erin", &["bob", "dave", "erin"]),
        ] {
            let grown = base.with(&id(name));
            assert_eq!(grown, roster(expect));
            assert_eq!(encode(&grown), reference_encoding(expect));
            assert!(grown.contains(&id(name)));
            assert_eq!(grown.without(&id(name)), base);
        }
        assert_eq!(base.without(&id("bob")), roster(&["dave"]));
        assert_eq!(base.without(&id("bob")).without(&id("dave")), Roster::new());
        // No-ops hand back the same snapshot.
        assert!(base.with(&id("bob")).ptr_eq(&base));
        assert!(base.without(&id("zed")).ptr_eq(&base));
        assert!(base.clone().ptr_eq(&base));
        assert!(!roster(&["bob", "dave"]).ptr_eq(&base));
    }

    #[test]
    fn decode_consumes_exactly_the_roster() {
        let mut bytes = encode(&roster(&["alice", "bob"]));
        bytes.extend_from_slice(&[7, 7]);
        let mut r = Reader::new(&bytes);
        assert_eq!(Roster::decode(&mut r).unwrap().len(), 2);
        assert_eq!(r.remaining(), 2);
    }

    fn entries(count: u32, names: &[&[u8]]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(count);
        for n in names {
            w.put_bytes(n);
        }
        w.finish()
    }

    #[test]
    fn decode_rejection_table() {
        let long = vec![b'x'; crate::actor::MAX_ACTOR_ID_LEN + 1];
        let mut truncated = entries(2, &[b"alice", b"bob"]);
        truncated.truncate(truncated.len() - 1);
        let cases: Vec<(&str, Vec<u8>, WireError)> = vec![
            (
                "unsorted",
                entries(2, &[b"bob", b"alice"]),
                WireError::RosterOrder,
            ),
            (
                "duplicate",
                entries(2, &[b"bob", b"bob"]),
                WireError::RosterOrder,
            ),
            (
                "empty name",
                entries(2, &[b"", b"bob"]),
                WireError::InvalidActorId,
            ),
            (
                "control character",
                entries(1, &[b"a\nb"]),
                WireError::InvalidActorId,
            ),
            (
                "invalid utf-8",
                entries(1, &[&[0xFF, 0xFE]]),
                WireError::InvalidActorId,
            ),
            (
                "name too long",
                entries(1, &[&long]),
                WireError::InvalidActorId,
            ),
            (
                "count past MAX_ROSTER_LEN",
                entries(MAX_ROSTER_LEN as u32 + 1, &[]),
                WireError::LengthOverflow,
            ),
            (
                "count larger than the bytes present",
                entries(3, &[b"alice", b"bob"]),
                WireError::UnexpectedEnd,
            ),
            ("truncated name", truncated, WireError::UnexpectedEnd),
            ("truncated count", vec![0, 0], WireError::UnexpectedEnd),
        ];
        for (what, bytes, expect) in cases {
            assert_eq!(decode::<Roster>(&bytes).unwrap_err(), expect, "{what}");
        }
    }

    #[test]
    fn a_roster_at_the_bound_round_trips() {
        let r: Roster = (0..MAX_ROSTER_LEN)
            .map(|i| id(&format!("m{i:05}")))
            .collect();
        assert_eq!(r.len(), MAX_ROSTER_LEN);
        let back: Roster = decode(&encode(&r)).unwrap();
        assert_eq!(back, r);
        let over = r.with(&id("z"));
        assert_eq!(
            decode::<Roster>(&encode(&over)),
            Err(WireError::LengthOverflow)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::codec::{decode, encode};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// `with` / `without` / `contains` / `iter` against a
        /// `BTreeSet<String>` model, with the encoding checked against a
        /// fresh build of the same set after every step.
        #[test]
        fn matches_a_btreeset_model(
            ops in proptest::collection::vec((any::<bool>(), "[a-e]{1,3}"), 0..64),
        ) {
            let mut model = BTreeSet::<String>::new();
            let mut roster = Roster::new();
            for (insert, name) in ops {
                let user = ActorId::new(name.clone()).unwrap();
                prop_assert_eq!(roster.contains(&user), model.contains(&name));
                if insert {
                    roster = roster.with(&user);
                    model.insert(name);
                } else {
                    roster = roster.without(&user);
                    model.remove(&name);
                }
                prop_assert_eq!(roster.len(), model.len());
                prop_assert!(roster.iter().eq(model.iter().map(String::as_str)));
                let rebuilt: Roster = model
                    .iter()
                    .map(|n| ActorId::new(n.clone()).unwrap())
                    .collect();
                prop_assert_eq!(encode(&roster), encode(&rebuilt));
                prop_assert_eq!(&decode::<Roster>(&encode(&roster)).unwrap(), &roster);
            }
        }

        /// The decoder admits a name exactly when `ActorId::new` would.
        #[test]
        fn a_name_decodes_iff_it_is_a_valid_actor_id(
            name in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..8),
                proptest::collection::vec(0x18u8..0x82, 0..70),
                "[a-z\u{1}-\u{20}\u{7f}-\u{a1}日-本]{0,24}".prop_map(String::into_bytes),
            ],
        ) {
            let valid = std::str::from_utf8(&name).is_ok_and(|s| ActorId::new(s).is_ok());
            let mut w = Writer::new();
            w.put_u32(1);
            w.put_bytes(&name);
            prop_assert_eq!(decode::<Roster>(&w.finish()).is_ok(), valid);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode::<Roster>(&bytes);
        }
    }
}
