//! Wire formats for the leader's write-ahead journal.
//!
//! The journal is an append-only file of sealed records, one stream per
//! enclave. Each record's plaintext is a [`JournalPayload`]: either the
//! one-time [`JournalGenesis`] describing the group's static configuration
//! (always record 1), or a [`JournalTransition`] capturing one roster/epoch
//! transition together with the exact RNG bytes the transition consumed
//! (the "tape") and the epoch stamp it produced. Replaying the payloads in
//! order through the same transition functions rebuilds the leader core
//! byte-for-byte — the tape makes the replay deterministic, and the stamp
//! lets the replayer cross-check that it really did.
//!
//! These are plaintext structures only; the sealing envelope (length
//! prefix, sequence number, CRC, nonce, AEAD) lives in
//! `enclaves-core::journal`, which binds the sequence and CRC into the
//! AAD so truncation, reordering, and bit-flips all fail authentication.

use crate::actor::ActorId;
use crate::codec::{Decode, Encode, Reader, WireError, Writer};
use crate::group::GroupId;
use crate::roster::MAX_ROSTER_LEN;

/// Magic bytes identifying a journal record envelope ("Enclaves Journal
/// Record v1"). Bound into every record's AAD.
pub const JOURNAL_MAGIC: &[u8; 4] = b"EJR1";

fn put_bool(w: &mut Writer, v: bool) {
    w.put_u8(u8::from(v));
}

fn take_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(n) => {
            w.put_u8(1);
            w.put_u64(n);
        }
    }
}

fn take_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, WireError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take_u64()?)),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

/// One journaled roster/epoch operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A member completed the join handshake and entered the roster.
    Join(ActorId),
    /// Several members, each having completed the join handshake,
    /// entered the roster in one commit, in this order. A commit of one
    /// is always written as [`JournalOp::Join`].
    Joins(Vec<ActorId>),
    /// A member departed voluntarily (Close).
    Leave(ActorId),
    /// The leader expelled a member administratively.
    Expel(ActorId),
    /// The liveness layer evicted an unresponsive member.
    Evict(ActorId),
    /// An explicit (manual or policy) rekey with no roster change.
    Rekey,
    /// A crash-recovery epoch advance: the recovered core jumped to
    /// `target_epoch` to fence the pre-crash epoch.
    Recover {
        /// The epoch the recovered core installed.
        target_epoch: u64,
    },
}

impl JournalOp {
    /// The members a join record admits, in commit order: one for a
    /// [`JournalOp::Join`], several for a [`JournalOp::Joins`], none for
    /// any other record.
    #[must_use]
    pub fn joiners(&self) -> &[ActorId] {
        match self {
            JournalOp::Join(user) => std::slice::from_ref(user),
            JournalOp::Joins(users) => users,
            _ => &[],
        }
    }
}

impl Encode for JournalOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalOp::Join(user) => {
                w.put_u8(1);
                user.encode(w);
            }
            JournalOp::Leave(user) => {
                w.put_u8(2);
                user.encode(w);
            }
            JournalOp::Expel(user) => {
                w.put_u8(3);
                user.encode(w);
            }
            JournalOp::Evict(user) => {
                w.put_u8(4);
                user.encode(w);
            }
            JournalOp::Rekey => w.put_u8(5),
            JournalOp::Recover { target_epoch } => {
                w.put_u8(6);
                w.put_u64(*target_epoch);
            }
            JournalOp::Joins(users) => {
                w.put_u8(7);
                w.put_u32(users.len() as u32);
                for user in users {
                    user.encode(w);
                }
            }
        }
    }
}

impl Decode for JournalOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            1 => Ok(JournalOp::Join(ActorId::decode(r)?)),
            2 => Ok(JournalOp::Leave(ActorId::decode(r)?)),
            3 => Ok(JournalOp::Expel(ActorId::decode(r)?)),
            4 => Ok(JournalOp::Evict(ActorId::decode(r)?)),
            5 => Ok(JournalOp::Rekey),
            6 => Ok(JournalOp::Recover {
                target_epoch: r.take_u64()?,
            }),
            7 => {
                let n = r.take_u32()? as usize;
                // Each name takes at least five bytes: its length, then
                // one byte or more.
                if !(2..=MAX_ROSTER_LEN).contains(&n) || r.remaining() < 5 * n {
                    return Err(WireError::LengthOverflow);
                }
                let users = (0..n)
                    .map(|_| ActorId::decode(r))
                    .collect::<Result<_, _>>()?;
                Ok(JournalOp::Joins(users))
            }
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

/// The epoch a transition left the group in: number, group key, base IV.
///
/// Recorded after applying the transition so replay can cross-check that
/// the deterministic re-execution landed in the identical epoch. A stamp
/// with `epoch == 0` means the group had no epoch yet (empty group before
/// its first join).
#[derive(Clone, PartialEq, Eq)]
pub struct EpochStamp {
    /// The epoch number (0 = no epoch established).
    pub epoch: u64,
    /// The group key bytes (all zero when `epoch == 0`).
    pub key: [u8; 32],
    /// The broadcast base IV (all zero when `epoch == 0`).
    pub iv: [u8; 12],
}

impl std::fmt::Debug for EpochStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("EpochStamp")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Encode for EpochStamp {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_array(&self.key);
        w.put_array(&self.iv);
    }
}

impl Decode for EpochStamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EpochStamp {
            epoch: r.take_u64()?,
            key: r.take_array::<32>()?,
            iv: r.take_array::<12>()?,
        })
    }
}

/// One roster/epoch transition: the operation, the RNG tape it consumed,
/// and the epoch stamp it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalTransition {
    /// The operation applied.
    pub op: JournalOp,
    /// Every byte the transition drew from the leader's RNG, in draw
    /// order. Replay feeds these back so key material regenerates
    /// identically.
    pub tape: Vec<u8>,
    /// The epoch the group was left in.
    pub stamp: EpochStamp,
}

impl Encode for JournalTransition {
    fn encode(&self, w: &mut Writer) {
        self.op.encode(w);
        w.put_bytes(&self.tape);
        self.stamp.encode(w);
    }
}

impl Decode for JournalTransition {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(JournalTransition {
            op: JournalOp::decode(r)?,
            tape: r.take_bytes()?.to_vec(),
            stamp: EpochStamp::decode(r)?,
        })
    }
}

/// A serializable image of the leader's rekey policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyPolicyWire {
    /// Rekey only on explicit request.
    Manual,
    /// Rekey when a member joins.
    OnJoin,
    /// Rekey when a member leaves.
    OnLeave,
    /// Rekey on both joins and leaves.
    OnJoinAndLeave,
    /// Rekey after every N broadcasts.
    EveryNMessages(u32),
}

impl Encode for RekeyPolicyWire {
    fn encode(&self, w: &mut Writer) {
        match self {
            RekeyPolicyWire::Manual => w.put_u8(1),
            RekeyPolicyWire::OnJoin => w.put_u8(2),
            RekeyPolicyWire::OnLeave => w.put_u8(3),
            RekeyPolicyWire::OnJoinAndLeave => w.put_u8(4),
            RekeyPolicyWire::EveryNMessages(n) => {
                w.put_u8(5);
                w.put_u32(*n);
            }
        }
    }
}

impl Decode for RekeyPolicyWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            1 => Ok(RekeyPolicyWire::Manual),
            2 => Ok(RekeyPolicyWire::OnJoin),
            3 => Ok(RekeyPolicyWire::OnLeave),
            4 => Ok(RekeyPolicyWire::OnJoinAndLeave),
            5 => Ok(RekeyPolicyWire::EveryNMessages(r.take_u32()?)),
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

/// A serializable image of the liveness configuration (durations as
/// nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessWire {
    /// Liveness poll cadence, in nanoseconds.
    pub poll_ns: u64,
    /// Base ARQ retransmit delay, in nanoseconds.
    pub retransmit_base_ns: u64,
    /// Retransmit backoff ceiling, in nanoseconds.
    pub retransmit_max_ns: u64,
    /// Retransmit jitter, in per-mille.
    pub jitter_pct: u32,
    /// Retransmit attempts before giving up on a member.
    pub max_attempts: u32,
    /// Heartbeat cadence, if heartbeats are enabled.
    pub heartbeat_interval_ns: Option<u64>,
    /// Silence window before eviction, if timeout eviction is enabled.
    pub liveness_timeout_ns: Option<u64>,
    /// Retired: written `false` and ignored on read, kept so the genesis
    /// bytes stay the same.
    pub auto_rejoin: bool,
    /// Seed for deterministic retransmit jitter.
    pub jitter_seed: u64,
}

impl Encode for LivenessWire {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.poll_ns);
        w.put_u64(self.retransmit_base_ns);
        w.put_u64(self.retransmit_max_ns);
        w.put_u32(self.jitter_pct);
        w.put_u32(self.max_attempts);
        put_opt_u64(w, self.heartbeat_interval_ns);
        put_opt_u64(w, self.liveness_timeout_ns);
        put_bool(w, self.auto_rejoin);
        w.put_u64(self.jitter_seed);
    }
}

impl Decode for LivenessWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LivenessWire {
            poll_ns: r.take_u64()?,
            retransmit_base_ns: r.take_u64()?,
            retransmit_max_ns: r.take_u64()?,
            jitter_pct: r.take_u32()?,
            max_attempts: r.take_u32()?,
            heartbeat_interval_ns: take_opt_u64(r)?,
            liveness_timeout_ns: take_opt_u64(r)?,
            auto_rejoin: take_bool(r)?,
            jitter_seed: r.take_u64()?,
        })
    }
}

/// The one-time first record of every stream: everything needed to
/// reconstruct a `LeaderCore` with an empty roster — identity, static
/// configuration, and the long-term key directory.
#[derive(Clone, PartialEq, Eq)]
pub struct JournalGenesis {
    /// The leader's identity.
    pub leader: ActorId,
    /// The enclave tag (`None` for a solo, untagged group).
    pub group: Option<GroupId>,
    /// The rekey policy.
    pub rekey_policy: RekeyPolicyWire,
    /// Whether the O(log N) key tree is enabled.
    pub tree_rekey: bool,
    /// Whether membership notices are broadcast.
    pub membership_notices: bool,
    /// Roster capacity.
    pub max_members: u64,
    /// Outstanding-admin-frame ceiling.
    pub max_pending_admin: u64,
    /// The liveness configuration.
    pub liveness: LivenessWire,
    /// The long-term key directory: `(user, P_a bytes)`.
    pub directory: Vec<(ActorId, [u8; 32])>,
}

impl std::fmt::Debug for JournalGenesis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The directory holds long-term keys; print names only.
        let names: Vec<&ActorId> = self.directory.iter().map(|(u, _)| u).collect();
        f.debug_struct("JournalGenesis")
            .field("leader", &self.leader)
            .field("group", &self.group)
            .field("rekey_policy", &self.rekey_policy)
            .field("tree_rekey", &self.tree_rekey)
            .field("directory", &names)
            .finish_non_exhaustive()
    }
}

impl Encode for JournalGenesis {
    fn encode(&self, w: &mut Writer) {
        self.leader.encode(w);
        match &self.group {
            None => w.put_u8(0),
            Some(g) => {
                w.put_u8(1);
                g.encode(w);
            }
        }
        self.rekey_policy.encode(w);
        put_bool(w, self.tree_rekey);
        put_bool(w, self.membership_notices);
        w.put_u64(self.max_members);
        w.put_u64(self.max_pending_admin);
        self.liveness.encode(w);
        w.put_u32(self.directory.len() as u32);
        for (user, key) in &self.directory {
            user.encode(w);
            w.put_array(key);
        }
    }
}

impl Decode for JournalGenesis {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let leader = ActorId::decode(r)?;
        let group = match r.take_u8()? {
            0 => None,
            1 => Some(GroupId::decode(r)?),
            tag => return Err(WireError::UnknownTag { tag }),
        };
        let rekey_policy = RekeyPolicyWire::decode(r)?;
        let tree_rekey = take_bool(r)?;
        let membership_notices = take_bool(r)?;
        let max_members = r.take_u64()?;
        let max_pending_admin = r.take_u64()?;
        let liveness = LivenessWire::decode(r)?;
        let count = r.take_u32()? as usize;
        // Each entry is at least 4 + 1 + 32 bytes; bound before allocating.
        if count > r.remaining() / 37 + 1 {
            return Err(WireError::LengthOverflow);
        }
        let mut directory = Vec::with_capacity(count);
        for _ in 0..count {
            let user = ActorId::decode(r)?;
            let key = r.take_array::<32>()?;
            directory.push((user, key));
        }
        Ok(JournalGenesis {
            leader,
            group,
            rekey_policy,
            tree_rekey,
            membership_notices,
            max_members,
            max_pending_admin,
            liveness,
            directory,
        })
    }
}

/// The plaintext of one journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalPayload {
    /// Stream header (always, and only, record 1).
    Genesis(JournalGenesis),
    /// One roster/epoch transition.
    Transition(JournalTransition),
}

impl Encode for JournalPayload {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalPayload::Genesis(g) => {
                w.put_u8(1);
                g.encode(w);
            }
            JournalPayload::Transition(t) => {
                w.put_u8(2);
                t.encode(w);
            }
        }
    }
}

impl Decode for JournalPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            1 => Ok(JournalPayload::Genesis(JournalGenesis::decode(r)?)),
            2 => Ok(JournalPayload::Transition(JournalTransition::decode(r)?)),
            tag => Err(WireError::UnknownTag { tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn sample_liveness() -> LivenessWire {
        LivenessWire {
            poll_ns: 25_000_000,
            retransmit_base_ns: 100_000_000,
            retransmit_max_ns: 800_000_000,
            jitter_pct: 100,
            max_attempts: 6,
            heartbeat_interval_ns: Some(200_000_000),
            liveness_timeout_ns: None,
            auto_rejoin: true,
            jitter_seed: 42,
        }
    }

    fn sample_genesis() -> JournalGenesis {
        JournalGenesis {
            leader: id("leader"),
            group: Some(GroupId::new("alpha").unwrap()),
            rekey_policy: RekeyPolicyWire::OnJoinAndLeave,
            tree_rekey: true,
            membership_notices: true,
            max_members: 1024,
            max_pending_admin: 256,
            liveness: sample_liveness(),
            directory: vec![(id("alice"), [1; 32]), (id("bob"), [2; 32])],
        }
    }

    #[test]
    fn op_roundtrips() {
        let ops = [
            JournalOp::Join(id("alice")),
            JournalOp::Leave(id("bob")),
            JournalOp::Expel(id("carol")),
            JournalOp::Evict(id("dave")),
            JournalOp::Rekey,
            JournalOp::Recover { target_epoch: 99 },
            JournalOp::Joins(vec![id("erin"), id("frank"), id("alice")]),
        ];
        for op in ops {
            assert_eq!(decode::<JournalOp>(&encode(&op)).unwrap(), op);
        }
    }

    #[test]
    fn transition_roundtrips() {
        let t = JournalTransition {
            op: JournalOp::Join(id("alice")),
            tape: vec![7; 44],
            stamp: EpochStamp {
                epoch: 3,
                key: [9; 32],
                iv: [8; 12],
            },
        };
        let p = JournalPayload::Transition(t);
        assert_eq!(decode::<JournalPayload>(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn genesis_roundtrips() {
        let p = JournalPayload::Genesis(sample_genesis());
        assert_eq!(decode::<JournalPayload>(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn solo_group_and_empty_directory_roundtrip() {
        let mut g = sample_genesis();
        g.group = None;
        g.directory.clear();
        g.liveness.heartbeat_interval_ns = None;
        g.rekey_policy = RekeyPolicyWire::EveryNMessages(64);
        let p = JournalPayload::Genesis(g);
        assert_eq!(decode::<JournalPayload>(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            decode::<JournalPayload>(&[9]),
            Err(WireError::UnknownTag { tag: 9 })
        );
        assert_eq!(
            decode::<JournalOp>(&[0]),
            Err(WireError::UnknownTag { tag: 0 })
        );
        // Bool bytes must be exactly 0 or 1.
        let mut bytes = encode(&JournalPayload::Genesis(sample_genesis()));
        // Flip the tree_rekey bool (find it by re-encoding with a marker is
        // brittle; instead decode a payload whose bool byte is corrupted).
        let ok = decode::<JournalPayload>(&bytes).unwrap();
        assert!(matches!(ok, JournalPayload::Genesis(_)));
        // Corrupt every byte position one at a time: decoding must never
        // panic, and either errors or yields a (different) valid value.
        for i in 0..bytes.len() {
            bytes[i] ^= 0xFF;
            let _ = decode::<JournalPayload>(&bytes);
            bytes[i] ^= 0xFF;
        }
    }

    #[test]
    fn stamp_debug_hides_key() {
        let s = EpochStamp {
            epoch: 5,
            key: [0xAA; 32],
            iv: [0xBB; 12],
        };
        let dbg = format!("{s:?}");
        assert!(dbg.contains("epoch"));
        assert!(!dbg.to_lowercase().contains("aa, aa"));
    }

    #[test]
    fn genesis_debug_hides_directory_keys() {
        let dbg = format!("{:?}", sample_genesis());
        assert!(dbg.contains("alice"));
        assert!(!dbg.contains("[1, 1"));
    }

    #[test]
    fn truncation_always_errors() {
        let bytes = encode(&JournalPayload::Genesis(sample_genesis()));
        for cut in 0..bytes.len() {
            assert!(
                decode::<JournalPayload>(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }
}
