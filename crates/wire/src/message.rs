//! The improved protocol of Section 3.2, at the byte level.
//!
//! Each message is an [`Envelope`] with a cleartext header and a body. For
//! the encrypted messages the body is a [`SealedBody`]: an AEAD nonce plus
//! a ChaCha20-Poly1305 seal of the encoded plaintext structure, with the
//! envelope header bound as associated data. The plaintext structures
//! mirror the paper's encrypted fields exactly — identities are *inside*
//! the encryption, which is what the verification of Section 5 relies on.

use crate::actor::ActorId;
use crate::codec::{decode, Decode, Encode, Reader, WireError, Writer, MAX_BYTES_LEN};
use crate::group::GroupId;
use crate::roster::{Roster, MAX_ROSTER_LEN};
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::nonce::{AeadNonce, ProtocolNonce, AEAD_NONCE_LEN, PROTOCOL_NONCE_LEN};
use enclaves_crypto::poly1305::TAG_LEN;
use enclaves_crypto::treekdf::SECRET_LEN;
use enclaves_crypto::CryptoError;
use std::sync::Arc;

/// Message types of the improved protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum MsgType {
    /// `A → L`: authentication initiation.
    AuthInitReq = 1,
    /// `L → A`: session-key distribution.
    AuthKeyDist = 2,
    /// `A → L`: key acknowledgment.
    AuthAckKey = 3,
    /// `L → A`: group-management message.
    AdminMsg = 4,
    /// `A → L`: group-management acknowledgment.
    Ack = 5,
    /// `A → L`: session close request.
    ReqClose = 6,
    /// `A → L`: application data for the group, sealed under `K_a` with a
    /// strictly increasing sequence ([`GroupDataPlain`]). The leader
    /// re-seals it once as a `GroupBroadcast` from `A` to every other
    /// member (Figure 1's leader-mediated multicast).
    GroupData = 7,
    /// `L → *`: group data sealed **once** under the group key, by the
    /// leader only, and fanned out as the same frame — the leader's own
    /// broadcasts and its relays of members' `GroupData` alike. The nonce
    /// is derived from the epoch IV and the `seq` counter, so the body
    /// carries only `(epoch, seq, ciphertext)` — see
    /// [`GroupBroadcastWire`].
    GroupBroadcast = 8,
    /// Member ↔ L: liveness heartbeat (sealed under `K_a`). A member
    /// pings with an increasing sequence number; the leader echoes the
    /// same sequence back as a pong. Both directions refresh the peer's
    /// liveness deadline — see [`HeartbeatPlain`].
    Heartbeat = 9,
    /// `L → *`: a rekey-tree path update fanned out to the whole roster
    /// as one frame. The outer body is plaintext structure
    /// ([`PathUpdateWire`]); confidentiality lives in the per-copath-node
    /// AEAD seals inside it, each bound by [`path_update_aad`].
    PathUpdate = 10,
}

impl MsgType {
    /// Parses a tag byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownTag`] for unassigned values.
    pub fn from_u8(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => MsgType::AuthInitReq,
            2 => MsgType::AuthKeyDist,
            3 => MsgType::AuthAckKey,
            4 => MsgType::AdminMsg,
            5 => MsgType::Ack,
            6 => MsgType::ReqClose,
            7 => MsgType::GroupData,
            8 => MsgType::GroupBroadcast,
            9 => MsgType::Heartbeat,
            10 => MsgType::PathUpdate,
            tag => return Err(WireError::UnknownTag { tag }),
        })
    }
}

/// Flag bit set on the wire tag byte when the envelope carries a
/// [`GroupId`]. Envelopes without a group id (single-group deployments)
/// encode byte-identically to the pre-multigroup format, so legacy peers
/// interoperate unchanged.
const GROUP_TAG_FLAG: u8 = 0x80;

/// A protocol message: cleartext header plus opaque body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Message type.
    pub msg_type: MsgType,
    /// Apparent sender.
    pub sender: ActorId,
    /// Intended recipient.
    pub recipient: ActorId,
    /// The enclave this frame belongs to, when addressed to (or sent by)
    /// a multi-enclave service. `None` is the legacy single-group wire
    /// form. The group id is part of [`Envelope::header_aad`], so every
    /// seal is cryptographically bound to its enclave: a frame sealed
    /// for enclave A can never verify in enclave B, even when both
    /// enclaves share a member name and password.
    pub group: Option<GroupId>,
    /// Body bytes (a [`SealedBody`] encoding for encrypted messages).
    pub body: Vec<u8>,
}

impl Envelope {
    /// The header bytes bound as AEAD associated data: re-labeling,
    /// re-addressing, or re-homing a sealed message into another enclave
    /// breaks authentication.
    #[must_use]
    pub fn header_aad(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put_header(&mut w);
        w.finish()
    }

    /// Everything of the encoding that precedes the body.
    fn put_header(&self, w: &mut Writer) {
        put_envelope_header(
            w,
            self.msg_type,
            &self.sender,
            &self.recipient,
            self.group.as_ref(),
        );
    }

    /// Seals `value` under `key` as this envelope's body, bound to its
    /// header, and returns the encoded frame. Header, length prefixes and
    /// plaintext are written into the one buffer that becomes the frame
    /// and encrypted where they lie; the bytes are those of
    /// `self.body = seal(key, nonce, &self.header_aad(), value)` followed
    /// by `encode(self)`.
    pub fn seal_body<T: Encode>(&mut self, key: &[u8; 32], nonce: AeadNonce, value: &T) -> Vec<u8> {
        let aad = self.header_aad();
        let mut w = Writer::new();
        w.put_array(&aad);
        w.put_u32(0);
        let body_at = w.len();
        let mut frame = seal_onto(w, key, nonce, &aad, value);
        let body_len = frame.len() - body_at;
        patch_len(&mut frame, body_at, body_len);
        self.body = frame[body_at..].to_vec();
        frame
    }
}

/// The envelope encoding up to the body: the tag byte (the message type,
/// with [`GROUP_TAG_FLAG`] set when a group id follows the recipient),
/// sender, recipient and group.
fn put_envelope_header(
    w: &mut Writer,
    msg_type: MsgType,
    sender: &ActorId,
    recipient: &ActorId,
    group: Option<&GroupId>,
) {
    let tag = msg_type as u8;
    w.put_u8(if group.is_some() {
        tag | GROUP_TAG_FLAG
    } else {
        tag
    });
    sender.encode(w);
    recipient.encode(w);
    if let Some(group) = group {
        group.encode(w);
    }
}

impl Encode for Envelope {
    fn encode(&self, w: &mut Writer) {
        self.put_header(w);
        w.put_bytes(&self.body);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.take_u8()?;
        let msg_type = MsgType::from_u8(tag & !GROUP_TAG_FLAG)?;
        let sender = ActorId::decode(r)?;
        let recipient = ActorId::decode(r)?;
        let group = if tag & GROUP_TAG_FLAG != 0 {
            Some(GroupId::decode(r)?)
        } else {
            None
        };
        let body = r.take_bytes()?.to_vec();
        Ok(Envelope {
            msg_type,
            sender,
            recipient,
            group,
            body,
        })
    }
}

/// An AEAD-sealed body: the nonce used plus `ciphertext || tag`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedBody {
    /// The AEAD nonce the sender used.
    pub nonce: [u8; AEAD_NONCE_LEN],
    /// `ciphertext || tag`.
    pub ciphertext: Vec<u8>,
}

impl Encode for SealedBody {
    fn encode(&self, w: &mut Writer) {
        w.put_array(&self.nonce);
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for SealedBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nonce = r.take_array::<AEAD_NONCE_LEN>()?;
        let ciphertext = r.take_bytes()?.to_vec();
        Ok(SealedBody { nonce, ciphertext })
    }
}

impl Encode for ProtocolNonce {
    fn encode(&self, w: &mut Writer) {
        w.put_array(self.as_bytes());
    }
}

impl Decode for ProtocolNonce {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take_array::<PROTOCOL_NONCE_LEN>()?;
        Ok(ProtocolNonce::from_bytes(bytes))
    }
}

/// Errors when opening a sealed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The body was not a well-formed [`SealedBody`] or the plaintext was
    /// malformed.
    Malformed(WireError),
    /// AEAD authentication failed.
    Crypto(CryptoError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Malformed(e) => write!(f, "malformed sealed message: {e}"),
            OpenError::Crypto(e) => write!(f, "authentication failure: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<WireError> for OpenError {
    fn from(e: WireError) -> Self {
        OpenError::Malformed(e)
    }
}

impl From<CryptoError> for OpenError {
    fn from(e: CryptoError) -> Self {
        OpenError::Crypto(e)
    }
}

/// Seals an encodable plaintext under `key`, binding `aad`; the result
/// is the encoding of a [`SealedBody`].
#[must_use]
pub fn seal<T: Encode>(key: &[u8; 32], nonce: AeadNonce, aad: &[u8], value: &T) -> Vec<u8> {
    seal_onto(Writer::new(), key, nonce, aad, value)
}

/// Appends the [`SealedBody`] of `value` to what `w` already holds, in
/// that one buffer: nonce, length prefix, then the plaintext encoded in
/// place, encrypted where it lies, and the tag.
fn seal_onto<T: Encode>(
    mut w: Writer,
    key: &[u8; 32],
    nonce: AeadNonce,
    aad: &[u8],
    value: &T,
) -> Vec<u8> {
    w.put_array(nonce.as_bytes());
    w.put_u32(0);
    let plain_at = w.len();
    value.encode(&mut w);
    let mut buf = w.finish();
    let sealed_len = buf.len() - plain_at + TAG_LEN;
    patch_len(&mut buf, plain_at, sealed_len);
    let tag = ChaCha20Poly1305::new(key).seal_in_place(&nonce, aad, &mut buf[plain_at..]);
    buf.extend_from_slice(&tag);
    buf
}

/// Fills in the `u32` length prefix reserved just before `at`, once the
/// length of what follows it is known.
fn patch_len(buf: &mut [u8], at: usize, len: usize) {
    debug_assert!(len <= MAX_BYTES_LEN);
    buf[at - 4..at].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Opens a sealed body under `key`, checking `aad`, and decodes the
/// plaintext.
///
/// # Errors
///
/// [`OpenError::Crypto`] if authentication fails; [`OpenError::Malformed`]
/// if either layer fails to parse.
pub fn open<T: Decode>(key: &[u8; 32], aad: &[u8], body: &[u8]) -> Result<T, OpenError> {
    let mut r = Reader::new(body);
    let nonce = AeadNonce::from_bytes(r.take_array()?);
    let sealed = r.take_bytes()?;
    r.expect_end()?;
    let plain = ChaCha20Poly1305::new(key).open(&nonce, sealed, aad)?;
    Ok(decode(&plain)?)
}

/// Plaintext of `AuthInitReq`: `{A, L, N1}` (sealed under `P_a`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuthInitPlain {
    /// The joining user.
    pub user: ActorId,
    /// The leader.
    pub leader: ActorId,
    /// Fresh user nonce `N1`.
    pub nonce: ProtocolNonce,
}

impl Encode for AuthInitPlain {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.leader.encode(w);
        self.nonce.encode(w);
    }
}

impl Decode for AuthInitPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AuthInitPlain {
            user: ActorId::decode(r)?,
            leader: ActorId::decode(r)?,
            nonce: ProtocolNonce::decode(r)?,
        })
    }
}

/// Plaintext of `AuthKeyDist`: `{L, A, N1, N2, Ka}` (sealed under `P_a`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyDistPlain {
    /// The leader.
    pub leader: ActorId,
    /// The joining user.
    pub user: ActorId,
    /// Echo of the user's nonce `N1`.
    pub user_nonce: ProtocolNonce,
    /// Fresh leader nonce `N2`.
    pub leader_nonce: ProtocolNonce,
    /// The fresh session key `K_a`.
    pub session_key: [u8; 32],
}

impl Encode for KeyDistPlain {
    fn encode(&self, w: &mut Writer) {
        self.leader.encode(w);
        self.user.encode(w);
        self.user_nonce.encode(w);
        self.leader_nonce.encode(w);
        w.put_array(&self.session_key);
    }
}

impl Decode for KeyDistPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(KeyDistPlain {
            leader: ActorId::decode(r)?,
            user: ActorId::decode(r)?,
            user_nonce: ProtocolNonce::decode(r)?,
            leader_nonce: ProtocolNonce::decode(r)?,
            session_key: r.take_array::<32>()?,
        })
    }
}

/// Plaintext of `AuthAckKey` and `Ack`: `{A, L, N_prev, N_next}` (sealed
/// under `K_a`). The same shape serves both messages, exactly as in the
/// formal model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NonceAckPlain {
    /// The user.
    pub user: ActorId,
    /// The leader.
    pub leader: ActorId,
    /// The nonce being acknowledged (the leader's most recent).
    pub acked_nonce: ProtocolNonce,
    /// The fresh user nonce for the next exchange.
    pub next_nonce: ProtocolNonce,
}

impl Encode for NonceAckPlain {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.leader.encode(w);
        self.acked_nonce.encode(w);
        self.next_nonce.encode(w);
    }
}

impl Decode for NonceAckPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NonceAckPlain {
            user: ActorId::decode(r)?,
            leader: ActorId::decode(r)?,
            acked_nonce: ProtocolNonce::decode(r)?,
            next_nonce: ProtocolNonce::decode(r)?,
        })
    }
}

/// A group-management payload `X` (Section 3.2: "X may specify a new group
/// key and initialization vector, or indicate that a member has joined or
/// left the session").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdminPayload {
    /// A new group key with its initialization vector.
    NewGroupKey {
        /// Monotone key epoch.
        epoch: u64,
        /// The group key `K_g`.
        key: [u8; 32],
        /// The initialization vector.
        iv: [u8; 12],
    },
    /// A member joined.
    MemberJoined(ActorId),
    /// A member left (or was expelled).
    MemberLeft(ActorId),
    /// The flat-mode `Welcome`: the initial roster sent to a fresh
    /// member, with the current group key.
    Welcome {
        /// Current members, including the recipient: the leader's roster
        /// snapshot, copied to the wire as it stands.
        members: Roster,
        /// Current group-key epoch.
        epoch: u64,
        /// The current group key.
        group_key: [u8; 32],
        /// The current initialization vector.
        iv: [u8; 12],
    },
    /// Opaque application-level data. Shared (`Arc`) so a payload
    /// broadcast to the whole roster is encoded from one buffer instead
    /// of one deep copy per member.
    AppData(Arc<[u8]>),
    /// Tree-rekey resync: the member's full direct path in the leader's
    /// key tree, sealed under `K_a`. Sent to a member whose heartbeat
    /// reveals a stale epoch (a missed [`MsgType::PathUpdate`] broadcast),
    /// and to everyone on a full-tree reinit.
    PathSync {
        /// The epoch the tree root currently derives.
        epoch: u64,
        /// The member's leaf slot.
        leaf_index: u32,
        /// Leaf slots in the tree (fixes the path shape).
        leaf_count: u32,
        /// Node keys leaf-first up to and including the root.
        path_keys: Vec<[u8; 32]>,
    },
    /// The tree-mode `Welcome`: the roster and the joiner's direct path,
    /// in one message. The group key is not sent: the joiner derives it
    /// from the path's root and `epoch`, as after a `PathSync`.
    TreeWelcome {
        /// Current members, including the recipient: the leader's roster
        /// snapshot, copied to the wire as it stands.
        members: Roster,
        /// The epoch the tree root currently derives.
        epoch: u64,
        /// The joiner's leaf slot.
        leaf_index: u32,
        /// Leaf slots in the tree (fixes the path shape).
        leaf_count: u32,
        /// Node keys leaf-first up to and including the root.
        path_keys: Vec<[u8; 32]>,
    },
}

const TAG_NEW_GROUP_KEY: u8 = 1;
const TAG_MEMBER_JOINED: u8 = 2;
const TAG_MEMBER_LEFT: u8 = 3;
const TAG_WELCOME: u8 = 4;
const TAG_APP_DATA: u8 = 5;
const TAG_PATH_SYNC: u8 = 6;
const TAG_TREE_WELCOME: u8 = 7;

/// Upper bound on the direct-path length in a `PathSync` or
/// `TreeWelcome` (a tree with `u32` leaf indices is at most 32 levels
/// deep, plus the leaf).
const MAX_PATH_KEYS: usize = 33;

/// Writes a direct path: leaf slot, leaf count, and the counted keys.
fn put_path(w: &mut Writer, leaf_index: u32, leaf_count: u32, path_keys: &[[u8; 32]]) {
    w.put_u32(leaf_index);
    w.put_u32(leaf_count);
    w.put_u32(path_keys.len() as u32);
    for k in path_keys {
        w.put_array(k);
    }
}

/// Reads what [`put_path`] writes, the key count bounded by the tree depth.
fn take_path(r: &mut Reader<'_>) -> Result<(u32, u32, Vec<[u8; 32]>), WireError> {
    let leaf_index = r.take_u32()?;
    let leaf_count = r.take_u32()?;
    let n = r.take_u32()? as usize;
    if n > MAX_PATH_KEYS {
        return Err(WireError::LengthOverflow);
    }
    let path_keys = (0..n)
        .map(|_| r.take_array::<32>())
        .collect::<Result<_, _>>()?;
    Ok((leaf_index, leaf_count, path_keys))
}

impl Encode for AdminPayload {
    fn encode(&self, w: &mut Writer) {
        match self {
            AdminPayload::NewGroupKey { epoch, key, iv } => {
                w.put_u8(TAG_NEW_GROUP_KEY);
                w.put_u64(*epoch);
                w.put_array(key);
                w.put_array(iv);
            }
            AdminPayload::MemberJoined(a) => {
                w.put_u8(TAG_MEMBER_JOINED);
                a.encode(w);
            }
            AdminPayload::MemberLeft(a) => {
                w.put_u8(TAG_MEMBER_LEFT);
                a.encode(w);
            }
            AdminPayload::Welcome {
                members,
                epoch,
                group_key,
                iv,
            } => {
                w.put_u8(TAG_WELCOME);
                members.encode(w);
                w.put_u64(*epoch);
                w.put_array(group_key);
                w.put_array(iv);
            }
            AdminPayload::AppData(data) => {
                w.put_u8(TAG_APP_DATA);
                w.put_bytes(data);
            }
            AdminPayload::PathSync {
                epoch,
                leaf_index,
                leaf_count,
                path_keys,
            } => {
                w.put_u8(TAG_PATH_SYNC);
                w.put_u64(*epoch);
                put_path(w, *leaf_index, *leaf_count, path_keys);
            }
            AdminPayload::TreeWelcome {
                members,
                epoch,
                leaf_index,
                leaf_count,
                path_keys,
            } => {
                w.put_u8(TAG_TREE_WELCOME);
                members.encode(w);
                w.put_u64(*epoch);
                put_path(w, *leaf_index, *leaf_count, path_keys);
            }
        }
    }
}

impl Decode for AdminPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            TAG_NEW_GROUP_KEY => AdminPayload::NewGroupKey {
                epoch: r.take_u64()?,
                key: r.take_array::<32>()?,
                iv: r.take_array::<12>()?,
            },
            TAG_MEMBER_JOINED => AdminPayload::MemberJoined(ActorId::decode(r)?),
            TAG_MEMBER_LEFT => AdminPayload::MemberLeft(ActorId::decode(r)?),
            TAG_WELCOME => AdminPayload::Welcome {
                members: Roster::decode(r)?,
                epoch: r.take_u64()?,
                group_key: r.take_array::<32>()?,
                iv: r.take_array::<12>()?,
            },
            TAG_APP_DATA => AdminPayload::AppData(r.take_bytes()?.into()),
            TAG_PATH_SYNC => {
                let epoch = r.take_u64()?;
                let (leaf_index, leaf_count, path_keys) = take_path(r)?;
                AdminPayload::PathSync {
                    epoch,
                    leaf_index,
                    leaf_count,
                    path_keys,
                }
            }
            TAG_TREE_WELCOME => {
                let members = Roster::decode(r)?;
                let epoch = r.take_u64()?;
                let (leaf_index, leaf_count, path_keys) = take_path(r)?;
                AdminPayload::TreeWelcome {
                    members,
                    epoch,
                    leaf_index,
                    leaf_count,
                    path_keys,
                }
            }
            tag => return Err(WireError::UnknownTag { tag }),
        })
    }
}

/// Plaintext of `AdminMsg`: `{L, A, N_user, N_leader, X}` (sealed under
/// `K_a`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdminPlain {
    /// The leader.
    pub leader: ActorId,
    /// The member.
    pub user: ActorId,
    /// The member's most recent nonce (`N_{2i+1}`): replay proof.
    pub user_nonce: ProtocolNonce,
    /// The fresh leader nonce (`N_{2i+2}`).
    pub leader_nonce: ProtocolNonce,
    /// The group-management payload.
    pub payload: AdminPayload,
}

impl Encode for AdminPlain {
    fn encode(&self, w: &mut Writer) {
        self.leader.encode(w);
        self.user.encode(w);
        self.user_nonce.encode(w);
        self.leader_nonce.encode(w);
        self.payload.encode(w);
    }
}

impl Decode for AdminPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AdminPlain {
            leader: ActorId::decode(r)?,
            user: ActorId::decode(r)?,
            user_nonce: ProtocolNonce::decode(r)?,
            leader_nonce: ProtocolNonce::decode(r)?,
            payload: AdminPayload::decode(r)?,
        })
    }
}

/// Appends the multicast AAD group-binding suffix: a presence byte, then
/// the group id when there is one. Multicast receivers derive the group
/// from their *own* configuration (not from the attacker-controlled
/// header), so a frame sealed in enclave A fails authentication against
/// any member of enclave B.
fn put_group(w: &mut Writer, group: Option<&GroupId>) {
    match group {
        Some(g) => {
            w.put_u8(1);
            g.encode(w);
        }
        None => w.put_u8(0),
    }
}

/// Wire form of a `GroupBroadcast` body: `(epoch, seq, ciphertext)`.
///
/// There is no explicit nonce on the wire: both sides derive it from the
/// epoch IV and `seq` (see `broadcast_nonce` in the core crate), so the
/// frame carries only the epoch tag, the per-epoch sequence number, and
/// `ciphertext || tag`. The leader seals the payload once and fans the
/// identical encoded frame out to the recipients; `seq` doubles as the
/// members' replay/reordering watermark.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupBroadcastWire {
    /// The group-key epoch this broadcast was sealed under.
    pub epoch: u64,
    /// Per-epoch broadcast sequence number (starts at 0 after each rekey,
    /// strictly increasing within the epoch).
    pub seq: u64,
    /// `ciphertext || tag` under the epoch's group key.
    pub ciphertext: Vec<u8>,
}

impl Encode for GroupBroadcastWire {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u64(self.seq);
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for GroupBroadcastWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GroupBroadcastWire {
            epoch: r.take_u64()?,
            seq: r.take_u64()?,
            ciphertext: r.take_bytes()?.to_vec(),
        })
    }
}

/// Associated data for group-broadcast seals: binds the origin (the
/// leader for its own broadcasts, the member for a relayed `GroupData`),
/// the key epoch, the sequence number, and the enclave — but not the
/// recipient, since the identical frame goes to every member.
#[must_use]
pub fn group_broadcast_aad(
    origin: &ActorId,
    epoch: u64,
    seq: u64,
    group: Option<&GroupId>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(MsgType::GroupBroadcast as u8);
    origin.encode(&mut w);
    w.put_u64(epoch);
    w.put_u64(seq);
    put_group(&mut w, group);
    w.finish()
}

/// Wire form of a `PathUpdate` body: one rekey-tree commit — one leaf's
/// path refresh, or a batch of joins' union of paths — fanned out to the
/// whole roster as a single frame.
///
/// The outer structure is plaintext — an expelled member already knows
/// the retiring group key, so an outer seal under it would add nothing.
/// Confidentiality lives in `ciphers`: the fresh path secret sealed once
/// per copath resolution node, under that node's key, with
/// [`path_update_aad`] binding the leader, epoch, tree shape, and target
/// node so no field can be flipped without breaking authentication.
/// Exactly one entry carries a given member its entry secret (the one
/// addressed to its resolution node below the lowest refreshed node of
/// its path); from that secret the member derives every rewritten key up
/// to the root, opening one more entry at each batch merge node it climbs
/// into from the right.
///
/// The body is `head ‖ nonce ‖ count × (node ‖ sealed secret ‖ tag)`,
/// where the head is `epoch ‖ leaf_count ‖ leaf ‖ count` for one committed
/// leaf and `epoch ‖ leaf_count ‖ FFFF_FFFF ‖ k ‖ k × leaf ‖ count` for
/// `k ≥ 2`:
/// one random nonce base per frame, from which the cipher for `node`
/// takes [`cipher_nonce`]`(nonce, node)`, and no length prefix, since
/// every cipher is [`SEALED_PATH_SECRET_LEN`] bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathUpdateWire {
    /// The epoch the refreshed tree root derives (previous epoch + 1).
    pub epoch: u64,
    /// Leaf slots in the tree after the refresh.
    pub leaf_count: u32,
    /// The committed leaf slots whose paths were refreshed, ascending.
    pub leaves: Vec<u32>,
    /// The frame's nonce base.
    pub nonce: [u8; AEAD_NONCE_LEN],
    /// `(node_index, sealed path secret ‖ tag)` per copath resolution
    /// node. Each is written as it stands and read back as
    /// [`SEALED_PATH_SECRET_LEN`] bytes, so only ciphers of that length
    /// round-trip.
    pub ciphers: Vec<(u32, Vec<u8>)>,
}

/// Bytes of one sealed path secret: the secret, then its tag.
pub const SEALED_PATH_SECRET_LEN: usize = SECRET_LEN + TAG_LEN;

/// Bytes of one `PathUpdate` cipher on the wire: its node index, then
/// the sealed path secret.
const PATH_CIPHER_LEN: usize = 4 + SEALED_PATH_SECRET_LEN;

/// Upper bound on copath ciphers in one path update: a blank-heavy tree
/// can push resolutions past `log N`, but never past the leaf count the
/// roster bound already allows.
pub const MAX_PATH_CIPHERS: usize = MAX_ROSTER_LEN;

/// Upper bound on the leaves one commit lists: no batch admits more
/// joiners than a roster holds.
pub const MAX_COMMIT_LEAVES: usize = MAX_ROSTER_LEN;

/// Stands in a `PathUpdate` head where a single commit's one leaf would,
/// and announces the count and list of a batch commit's leaves. No leaf
/// slot reaches it: the tree math stops at 2^30 leaves.
const COMMIT_LEAVES: u32 = u32::MAX;

/// The AEAD nonce of the cipher addressed to `node` in a `PathUpdate`
/// frame: the frame's nonce base with `node`'s big-endian index XORed
/// into its last four bytes. The seals of one frame are under distinct
/// node keys at distinct node indices, so no two share a nonce; across
/// frames, two nonces under one key meet only if two random 96-bit bases
/// collide.
#[must_use]
pub fn cipher_nonce(base: [u8; AEAD_NONCE_LEN], node: u32) -> [u8; AEAD_NONCE_LEN] {
    let mut nonce = base;
    for (n, b) in nonce[AEAD_NONCE_LEN - 4..]
        .iter_mut()
        .zip(node.to_be_bytes())
    {
        *n ^= b;
    }
    nonce
}

impl Encode for PathUpdateWire {
    fn encode(&self, w: &mut Writer) {
        let head = PathUpdateHead {
            epoch: self.epoch,
            leaf_count: self.leaf_count,
            leaves: self.leaves[..].into(),
        };
        head.put(w, self.ciphers.len());
        w.put_array(&self.nonce);
        for (node, sealed) in &self.ciphers {
            w.put_u32(*node);
            w.put_array(sealed);
        }
    }
}

impl Decode for PathUpdateWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (head, n) = PathUpdateHead::take(r)?;
        let nonce = r.take_array()?;
        let mut ciphers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let node = r.take_u32()?;
            let sealed = r.take_array::<SEALED_PATH_SECRET_LEN>()?;
            ciphers.push((node, sealed.to_vec()));
        }
        Ok(PathUpdateWire {
            epoch: head.epoch,
            leaf_count: head.leaf_count,
            leaves: head.leaves.to_vec(),
            nonce,
            ciphers,
        })
    }
}

/// The plaintext claims at the front of a `PathUpdate` body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathUpdateHead {
    /// The epoch the refreshed tree root derives (previous epoch + 1).
    pub epoch: u64,
    /// Leaf slots in the tree after the refresh.
    pub leaf_count: u32,
    /// The committed leaf slots whose paths were refreshed, ascending:
    /// one for a single change, each joiner's for a batch commit.
    pub leaves: CommitLeaves,
}

/// The committed leaf slots a `PathUpdate` head names, ascending: a
/// single change's one leaf, held inline, or a batch commit's list. It
/// reads as the slice of them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitLeaves {
    /// A single change's leaf.
    One(u32),
    /// A batch commit's leaves.
    Many(Vec<u32>),
}

impl std::ops::Deref for CommitLeaves {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            CommitLeaves::One(leaf) => std::slice::from_ref(leaf),
            CommitLeaves::Many(leaves) => leaves,
        }
    }
}

impl From<&[u32]> for CommitLeaves {
    fn from(leaves: &[u32]) -> Self {
        match leaves {
            [leaf] => CommitLeaves::One(*leaf),
            _ => CommitLeaves::Many(leaves.to_vec()),
        }
    }
}

impl PathUpdateHead {
    /// Writes the claims: the epoch, the tree size and the committed
    /// leaves, one leaf as it stands and several behind the
    /// [`COMMIT_LEAVES`] marker and their count. The frame and the AAD
    /// of its seals both carry exactly these bytes.
    fn put_claims(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u32(self.leaf_count);
        if let [leaf] = self.leaves[..] {
            w.put_u32(leaf);
        } else {
            w.put_u32(COMMIT_LEAVES);
            w.put_u32(self.leaves.len() as u32);
            for &leaf in self.leaves.iter() {
                w.put_u32(leaf);
            }
        }
    }

    /// Writes the head and the cipher count that follows it.
    fn put(&self, w: &mut Writer, ciphers: usize) {
        self.put_claims(w);
        w.put_u32(ciphers as u32);
    }

    /// Reads the head and the bounded cipher count that follows it. A
    /// listed commit must name between two and [`MAX_COMMIT_LEAVES`]
    /// leaves: one leaf has only the short form.
    fn take(r: &mut Reader<'_>) -> Result<(Self, usize), WireError> {
        let epoch = r.take_u64()?;
        let leaf_count = r.take_u32()?;
        let leaves = match r.take_u32()? {
            COMMIT_LEAVES => {
                let k = r.take_u32()? as usize;
                if !(2..=MAX_COMMIT_LEAVES).contains(&k) {
                    return Err(WireError::LengthOverflow);
                }
                if r.remaining() < 4 * k {
                    return Err(WireError::UnexpectedEnd);
                }
                CommitLeaves::Many((0..k).map(|_| r.take_u32()).collect::<Result<_, _>>()?)
            }
            leaf => CommitLeaves::One(leaf),
        };
        let head = PathUpdateHead {
            epoch,
            leaf_count,
            leaves,
        };
        let n = r.take_u32()? as usize;
        if n > MAX_PATH_CIPHERS {
            return Err(WireError::LengthOverflow);
        }
        Ok((head, n))
    }
}

/// One cipher of a `PathUpdate` body, borrowed from the frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathCipher<'a> {
    /// The copath resolution node whose key sealed it.
    pub node: u32,
    /// Its AEAD nonce, derived from the frame's base by [`cipher_nonce`].
    pub nonce: [u8; AEAD_NONCE_LEN],
    /// `sealed secret || tag`.
    pub sealed: &'a [u8; SEALED_PATH_SECRET_LEN],
}

/// A [`PathUpdateWire`] read where it lies: the head and nonce base
/// decoded, the ciphers handed out one at a time as borrows of the body,
/// nothing allocated. Every cipher has the same length, so the body's
/// length is checked against the claimed count before any cipher is
/// handed out. A member walks it before authenticating anything, so the
/// walk costs a few loads per cipher and accepts exactly what the owning
/// decoder does.
#[derive(Debug)]
pub struct PathUpdateView<'a> {
    /// The plaintext claims.
    pub head: PathUpdateHead,
    nonce: [u8; AEAD_NONCE_LEN],
    ciphers: std::slice::ChunksExact<'a, u8>,
}

impl<'a> PathUpdateView<'a> {
    /// Reads the head and nonce base of a `PathUpdate` body, and checks
    /// that exactly the claimed number of ciphers follows them.
    ///
    /// # Errors
    ///
    /// As `decode::<PathUpdateWire>`: a short head or nonce base, a
    /// claimed cipher count past the cap, fewer cipher bytes than the
    /// count claims, or bytes after the last cipher.
    pub fn parse(body: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let (head, n) = PathUpdateHead::take(&mut r)?;
        let nonce = r.take_array()?;
        let rest = r.rest();
        match rest.len().cmp(&(n * PATH_CIPHER_LEN)) {
            std::cmp::Ordering::Less => Err(WireError::UnexpectedEnd),
            std::cmp::Ordering::Greater => Err(WireError::TrailingBytes),
            std::cmp::Ordering::Equal => Ok(PathUpdateView {
                head,
                nonce,
                ciphers: rest.chunks_exact(PATH_CIPHER_LEN),
            }),
        }
    }

    /// The next cipher, with its derived nonce, or `None` after the last.
    pub fn next_cipher(&mut self) -> Option<PathCipher<'a>> {
        let (node, sealed) = self.ciphers.next()?.split_first_chunk::<4>()?;
        let node = u32::from_be_bytes(*node);
        Some(PathCipher {
            node,
            nonce: cipher_nonce(self.nonce, node),
            sealed: sealed.try_into().ok()?,
        })
    }
}

/// Associated data for the per-node seals inside a [`PathUpdateWire`]:
/// binds the originating leader, the new epoch, the tree shape, the
/// committed leaves, and the target node. Tampering with `leaf_count` or
/// `leaves` would silently change the member's derive-up walk, so both
/// are authenticated here rather than trusted from the plaintext outer
/// frame. The enclave is bound last, like the other multicast AADs.
///
/// Only the node index differs between the seals of one update, so the
/// bytes are built once per update and the index patched per seal.
#[derive(Debug)]
pub struct PathUpdateAad {
    bytes: Vec<u8>,
    node_at: usize,
}

impl PathUpdateAad {
    /// The AAD of one update's seals, its node index still to be set.
    #[must_use]
    pub fn new(leader: &ActorId, head: &PathUpdateHead, group: Option<&GroupId>) -> Self {
        let mut w = Writer::new();
        w.put_u8(MsgType::PathUpdate as u8);
        leader.encode(&mut w);
        head.put_claims(&mut w);
        let node_at = w.len();
        w.put_u32(0);
        put_group(&mut w, group);
        PathUpdateAad {
            bytes: w.finish(),
            node_at,
        }
    }

    /// The AAD of the seal addressed to `node_index`.
    pub fn for_node(&mut self, node_index: u32) -> &[u8] {
        self.bytes[self.node_at..self.node_at + 4].copy_from_slice(&node_index.to_be_bytes());
        &self.bytes
    }
}

/// [`PathUpdateAad`] for a single seal.
#[must_use]
pub fn path_update_aad(
    leader: &ActorId,
    epoch: u64,
    leaf_count: u32,
    leaves: &[u32],
    node_index: u32,
    group: Option<&GroupId>,
) -> Vec<u8> {
    let head = PathUpdateHead {
        epoch,
        leaf_count,
        leaves: leaves.into(),
    };
    let mut aad = PathUpdateAad::new(leader, &head, group);
    aad.for_node(node_index);
    aad.bytes
}

/// One seal of a `PathUpdate` frame about to be written: `secret` sealed
/// under `key`, addressed to `node`.
#[derive(Clone, Copy)]
pub struct PathSeal<'a> {
    /// The copath resolution node whose key seals this cipher.
    pub node: u32,
    /// The key stored at `node`.
    pub key: &'a [u8; 32],
    /// The path secret being conveyed.
    pub secret: &'a [u8; SECRET_LEN],
}

/// Writes a whole `PathUpdate` multicast frame into `buf` (cleared first,
/// its allocation reused): envelope header, body head, the nonce base
/// `nonce`, and each secret sealed where it lies under
/// [`cipher_nonce`]`(nonce, node)`. The bytes are those of an
/// [`Envelope`] from and to `leader` (the multicast convention) whose
/// body is the encoded [`PathUpdateWire`] of the same seals.
pub fn path_update_frame<'a>(
    buf: Vec<u8>,
    leader: &ActorId,
    group: Option<&GroupId>,
    head: &PathUpdateHead,
    nonce: [u8; AEAD_NONCE_LEN],
    seals: impl ExactSizeIterator<Item = PathSeal<'a>>,
) -> Vec<u8> {
    let mut w = Writer::with_buffer(buf);
    put_envelope_header(&mut w, MsgType::PathUpdate, leader, leader, group);
    w.put_u32(0);
    let body_at = w.len();
    head.put(&mut w, seals.len());
    w.put_array(&nonce);
    let mut aad = PathUpdateAad::new(leader, head, group);
    let mut frame = w.finish();
    for seal in seals {
        frame.extend_from_slice(&seal.node.to_be_bytes());
        let secret_at = frame.len();
        frame.extend_from_slice(seal.secret);
        let tag = ChaCha20Poly1305::new(seal.key).seal_in_place(
            &AeadNonce::from_bytes(cipher_nonce(nonce, seal.node)),
            aad.for_node(seal.node),
            &mut frame[secret_at..],
        );
        frame.extend_from_slice(&tag);
    }
    let body_len = frame.len() - body_at;
    patch_len(&mut frame, body_at, body_len);
    frame
}

/// Plaintext of `ReqClose`: `{A, L}` (sealed under `K_a`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClosePlain {
    /// The user.
    pub user: ActorId,
    /// The leader.
    pub leader: ActorId,
}

impl Encode for ClosePlain {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.leader.encode(w);
    }
}

impl Decode for ClosePlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClosePlain {
            user: ActorId::decode(r)?,
            leader: ActorId::decode(r)?,
        })
    }
}

/// Plaintext of `Heartbeat`: `{A, L, seq, epoch}` (sealed under `K_a`).
///
/// `seq` strictly increases per session in the member→leader direction;
/// the leader's pong echoes the ping's `seq`. Sealing the identities
/// keeps the heartbeat channel as intrusion-tolerant as the rest of the
/// admin plane: a forged or replayed ping cannot refresh a dead member's
/// liveness deadline.
///
/// `epoch` is the sender's current group-key epoch (0 before any key is
/// installed). Because the ping is authenticated under `K_a`, the leader
/// can trust a lagging epoch as evidence of a missed `PathUpdate`
/// broadcast and push an [`AdminPayload::PathSync`] over the reliable
/// admin channel — resync stays leader-driven, so forged traffic still
/// cannot elicit state changes or keep a dead session alive.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HeartbeatPlain {
    /// The user.
    pub user: ActorId,
    /// The leader.
    pub leader: ActorId,
    /// Ping sequence number (echoed verbatim in the pong).
    pub seq: u64,
    /// The sender's current group-key epoch (0 if none installed).
    pub epoch: u64,
}

impl Encode for HeartbeatPlain {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.leader.encode(w);
        w.put_u64(self.seq);
        w.put_u64(self.epoch);
    }
}

impl Decode for HeartbeatPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HeartbeatPlain {
            user: ActorId::decode(r)?,
            leader: ActorId::decode(r)?,
            seq: r.take_u64()?,
            epoch: r.take_u64()?,
        })
    }
}

/// Plaintext of `GroupData`: `{A, L, seq, data}` (sealed under `K_a`).
///
/// `seq` strictly increases per session, as a heartbeat's does: the
/// leader refuses a sequence at or below the last one it accepted before
/// it touches any state, so a replayed uplink is neither relayed again
/// nor counted as proof of life.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupDataPlain {
    /// The user.
    pub user: ActorId,
    /// The leader.
    pub leader: ActorId,
    /// Uplink sequence number.
    pub seq: u64,
    /// The application bytes.
    pub data: Vec<u8>,
}

impl Encode for GroupDataPlain {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.leader.encode(w);
        w.put_u64(self.seq);
        w.put_bytes(&self.data);
    }
}

impl Decode for GroupDataPlain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GroupDataPlain {
            user: ActorId::decode(r)?,
            leader: ActorId::decode(r)?,
            seq: r.take_u64()?,
            data: r.take_bytes()?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;

    fn alice() -> ActorId {
        ActorId::new("alice").unwrap()
    }

    fn leader() -> ActorId {
        ActorId::new("leader").unwrap()
    }

    fn nonce(b: u8) -> ProtocolNonce {
        ProtocolNonce::from_bytes([b; 16])
    }

    fn ops() -> GroupId {
        GroupId::new("ops").unwrap()
    }

    #[test]
    fn envelope_roundtrip() {
        let env = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader(),
            recipient: alice(),
            group: None,
            body: vec![1, 2, 3],
        };
        let bytes = encode(&env);
        assert_eq!(decode::<Envelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn grouped_envelope_roundtrip() {
        let env = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader(),
            recipient: alice(),
            group: Some(ops()),
            body: vec![1, 2, 3],
        };
        let bytes = encode(&env);
        assert_eq!(decode::<Envelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn ungrouped_envelope_is_byte_identical_to_legacy_format() {
        // The legacy (pre-multigroup) encoding: tag byte, sender,
        // recipient, body — no flag bit, no group field. A `group: None`
        // envelope must still produce exactly these bytes.
        let env = Envelope {
            msg_type: MsgType::GroupData,
            sender: alice(),
            recipient: leader(),
            group: None,
            body: vec![9, 8, 7],
        };
        let mut w = Writer::new();
        w.put_u8(MsgType::GroupData as u8);
        alice().encode(&mut w);
        leader().encode(&mut w);
        w.put_bytes(&[9, 8, 7]);
        assert_eq!(encode(&env), w.finish());
    }

    #[test]
    fn header_aad_binds_the_group() {
        let base = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader(),
            recipient: alice(),
            group: Some(ops()),
            body: vec![],
        };
        let other_group = Envelope {
            group: Some(GroupId::new("eng").unwrap()),
            ..base.clone()
        };
        let no_group = Envelope {
            group: None,
            ..base.clone()
        };
        assert_ne!(base.header_aad(), other_group.header_aad());
        assert_ne!(base.header_aad(), no_group.header_aad());
        assert_ne!(other_group.header_aad(), no_group.header_aad());
    }

    #[test]
    fn sealed_frame_cannot_cross_enclaves() {
        // Same member name, same password (hence same key) registered in
        // two enclaves of one service: the group id in the AAD is the
        // *only* thing separating their seals, and it must be enough.
        let key = [0x5au8; 32];
        let n = AeadNonce::from_bytes([3; 12]);
        let init = AuthInitPlain {
            user: alice(),
            leader: leader(),
            nonce: nonce(7),
        };
        let env_a = Envelope {
            msg_type: MsgType::AuthInitReq,
            sender: alice(),
            recipient: leader(),
            group: Some(ops()),
            body: vec![],
        };
        let env_b = Envelope {
            group: Some(GroupId::new("eng").unwrap()),
            ..env_a.clone()
        };
        let body = seal(&key, n, &env_a.header_aad(), &init);
        assert!(open::<AuthInitPlain>(&key, &env_a.header_aad(), &body).is_ok());
        assert!(matches!(
            open::<AuthInitPlain>(&key, &env_b.header_aad(), &body),
            Err(OpenError::Crypto(_))
        ));
    }

    #[test]
    fn multicast_aads_bind_the_group() {
        let ops = ops();
        let eng = GroupId::new("eng").unwrap();
        assert_ne!(
            group_broadcast_aad(&leader(), 3, 9, Some(&ops)),
            group_broadcast_aad(&leader(), 3, 9, Some(&eng))
        );
        assert_ne!(
            group_broadcast_aad(&leader(), 3, 9, Some(&ops)),
            group_broadcast_aad(&leader(), 3, 9, None)
        );
        assert_ne!(
            path_update_aad(&leader(), 5, 8, &[3], 9, Some(&ops)),
            path_update_aad(&leader(), 5, 8, &[3], 9, Some(&eng))
        );
        assert_ne!(
            path_update_aad(&leader(), 5, 8, &[3], 9, Some(&ops)),
            path_update_aad(&leader(), 5, 8, &[3], 9, None)
        );
    }

    #[test]
    fn msg_type_tags_are_stable() {
        for (t, v) in [
            (MsgType::AuthInitReq, 1u8),
            (MsgType::AuthKeyDist, 2),
            (MsgType::AuthAckKey, 3),
            (MsgType::AdminMsg, 4),
            (MsgType::Ack, 5),
            (MsgType::ReqClose, 6),
            (MsgType::GroupData, 7),
            (MsgType::GroupBroadcast, 8),
            (MsgType::Heartbeat, 9),
            (MsgType::PathUpdate, 10),
        ] {
            assert_eq!(t as u8, v);
            assert_eq!(MsgType::from_u8(v).unwrap(), t);
        }
        assert!(MsgType::from_u8(0).is_err());
        assert!(MsgType::from_u8(11).is_err());
    }

    #[test]
    fn seal_open_roundtrip_all_plaintexts() {
        let key = [0x11u8; 32];
        let aad = b"hdr";
        let n = AeadNonce::from_bytes([9; 12]);

        let init = AuthInitPlain {
            user: alice(),
            leader: leader(),
            nonce: nonce(1),
        };
        let body = seal(&key, n, aad, &init);
        assert_eq!(open::<AuthInitPlain>(&key, aad, &body).unwrap(), init);

        let kd = KeyDistPlain {
            leader: leader(),
            user: alice(),
            user_nonce: nonce(1),
            leader_nonce: nonce(2),
            session_key: [3; 32],
        };
        let body = seal(&key, n, aad, &kd);
        assert_eq!(open::<KeyDistPlain>(&key, aad, &body).unwrap(), kd);

        let ack = NonceAckPlain {
            user: alice(),
            leader: leader(),
            acked_nonce: nonce(2),
            next_nonce: nonce(3),
        };
        let body = seal(&key, n, aad, &ack);
        assert_eq!(open::<NonceAckPlain>(&key, aad, &body).unwrap(), ack);

        let admin = AdminPlain {
            leader: leader(),
            user: alice(),
            user_nonce: nonce(3),
            leader_nonce: nonce(4),
            payload: AdminPayload::NewGroupKey {
                epoch: 3,
                key: [7; 32],
                iv: [8; 12],
            },
        };
        let body = seal(&key, n, aad, &admin);
        assert_eq!(open::<AdminPlain>(&key, aad, &body).unwrap(), admin);

        let close = ClosePlain {
            user: alice(),
            leader: leader(),
        };
        let body = seal(&key, n, aad, &close);
        assert_eq!(open::<ClosePlain>(&key, aad, &body).unwrap(), close);

        let hb = HeartbeatPlain {
            user: alice(),
            leader: leader(),
            seq: 42,
            epoch: 6,
        };
        let body = seal(&key, n, aad, &hb);
        assert_eq!(open::<HeartbeatPlain>(&key, aad, &body).unwrap(), hb);

        let data = GroupDataPlain {
            user: alice(),
            leader: leader(),
            seq: 7,
            data: b"for the group".to_vec(),
        };
        let body = seal(&key, n, aad, &data);
        assert_eq!(open::<GroupDataPlain>(&key, aad, &body).unwrap(), data);
    }

    #[test]
    fn open_rejects_wrong_aad_relabeling() {
        // Re-labeling an AuthAckKey as an Ack changes the AAD and must be
        // rejected — the wire-level counterpart of the model's label
        // discipline.
        let key = [0x22u8; 32];
        let n = AeadNonce::from_bytes([1; 12]);
        let ack = NonceAckPlain {
            user: alice(),
            leader: leader(),
            acked_nonce: nonce(1),
            next_nonce: nonce(2),
        };
        let env1 = Envelope {
            msg_type: MsgType::AuthAckKey,
            sender: alice(),
            recipient: leader(),
            group: None,
            body: vec![],
        };
        let env2 = Envelope {
            msg_type: MsgType::Ack,
            ..env1.clone()
        };
        let body = seal(&key, n, &env1.header_aad(), &ack);
        assert!(open::<NonceAckPlain>(&key, &env1.header_aad(), &body).is_ok());
        assert!(matches!(
            open::<NonceAckPlain>(&key, &env2.header_aad(), &body),
            Err(OpenError::Crypto(_))
        ));
    }

    #[test]
    fn open_rejects_wrong_key() {
        let n = AeadNonce::from_bytes([1; 12]);
        let close = ClosePlain {
            user: alice(),
            leader: leader(),
        };
        let body = seal(&[1; 32], n, b"", &close);
        assert!(matches!(
            open::<ClosePlain>(&[2; 32], b"", &body),
            Err(OpenError::Crypto(_))
        ));
    }

    #[test]
    fn payload_roundtrips() {
        let payloads = vec![
            AdminPayload::NewGroupKey {
                epoch: 1,
                key: [1; 32],
                iv: [2; 12],
            },
            AdminPayload::MemberJoined(alice()),
            AdminPayload::MemberLeft(leader()),
            AdminPayload::Welcome {
                members: [alice(), leader()].into_iter().collect(),
                epoch: 9,
                group_key: [3; 32],
                iv: [4; 12],
            },
            AdminPayload::AppData(b"hello group"[..].into()),
            AdminPayload::AppData([][..].into()),
            AdminPayload::Welcome {
                members: Roster::new(),
                epoch: 0,
                group_key: [0; 32],
                iv: [0; 12],
            },
            AdminPayload::PathSync {
                epoch: 12,
                leaf_index: 5,
                leaf_count: 9,
                path_keys: vec![[1; 32], [2; 32], [3; 32], [4; 32], [5; 32]],
            },
            AdminPayload::PathSync {
                epoch: 1,
                leaf_index: 0,
                leaf_count: 1,
                path_keys: vec![[9; 32]],
            },
            AdminPayload::TreeWelcome {
                members: [alice(), leader()].into_iter().collect(),
                epoch: 12,
                leaf_index: 5,
                leaf_count: 9,
                path_keys: vec![[1; 32], [2; 32], [3; 32], [4; 32], [5; 32]],
            },
            AdminPayload::TreeWelcome {
                members: Roster::new(),
                epoch: 1,
                leaf_index: 0,
                leaf_count: 1,
                path_keys: vec![[9; 32]],
            },
        ];
        for p in payloads {
            let bytes = encode(&p);
            assert_eq!(decode::<AdminPayload>(&bytes).unwrap(), p);
        }
    }

    // The tree Welcome took the next free tag; no existing tag moved.
    #[test]
    fn admin_payload_tags_are_stable() {
        let path = || AdminPayload::PathSync {
            epoch: 1,
            leaf_index: 0,
            leaf_count: 1,
            path_keys: vec![[9; 32]],
        };
        for (payload, tag) in [
            (
                AdminPayload::NewGroupKey {
                    epoch: 1,
                    key: [0; 32],
                    iv: [0; 12],
                },
                1,
            ),
            (AdminPayload::MemberJoined(alice()), 2),
            (AdminPayload::MemberLeft(alice()), 3),
            (welcome_plain(Roster::new()).payload, 4),
            (AdminPayload::AppData([][..].into()), 5),
            (path(), 6),
            (
                AdminPayload::TreeWelcome {
                    members: Roster::new(),
                    epoch: 1,
                    leaf_index: 0,
                    leaf_count: 1,
                    path_keys: vec![[9; 32]],
                },
                7,
            ),
        ] {
            assert_eq!(encode(&payload)[0], tag, "{payload:?}");
        }
    }

    #[test]
    fn payload_rejects_unknown_tag_and_huge_roster() {
        assert!(matches!(
            decode::<AdminPayload>(&[99]),
            Err(WireError::UnknownTag { tag: 99 })
        ));
        let mut w = Writer::new();
        w.put_u8(TAG_WELCOME);
        w.put_u32(1_000_000);
        assert!(decode::<AdminPayload>(&w.finish()).is_err());
        // PathSync path length is bounded by the 32-level tree depth.
        let mut w = Writer::new();
        w.put_u8(TAG_PATH_SYNC);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u32(1);
        w.put_u32(1_000);
        assert!(matches!(
            decode::<AdminPayload>(&w.finish()),
            Err(WireError::LengthOverflow)
        ));
        // So is a tree Welcome's.
        let mut w = Writer::new();
        w.put_u8(TAG_TREE_WELCOME);
        Roster::new().encode(&mut w);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u32(1);
        w.put_u32(1_000);
        assert!(matches!(
            decode::<AdminPayload>(&w.finish()),
            Err(WireError::LengthOverflow)
        ));
    }

    #[test]
    fn path_update_wire_roundtrip_and_bounds() {
        let wire = PathUpdateWire {
            epoch: 8,
            leaf_count: 70,
            leaves: vec![33],
            nonce: [0x5a; 12],
            ciphers: vec![(66, vec![0xaa; 48]), (131, vec![0xbb; 48])],
        };
        let bytes = encode(&wire);
        assert_eq!(bytes.len(), 20 + 12 + 2 * 52);
        assert_eq!(decode::<PathUpdateWire>(&bytes).unwrap(), wire);
        // The borrowed view reads the same body to the same fields, each
        // cipher's nonce derived from the base and its node, and refuses
        // what the owning decoder refuses.
        let mut view = PathUpdateView::parse(&bytes).unwrap();
        assert_eq!(
            (view.head.epoch, view.head.leaf_count, &view.head.leaves[..]),
            (8, 70, &[33][..])
        );
        for (node, sealed) in &wire.ciphers {
            let c = view.next_cipher().unwrap();
            assert_eq!(
                (c.node, c.nonce, &c.sealed[..]),
                (*node, cipher_nonce(wire.nonce, *node), &sealed[..])
            );
        }
        assert_eq!(view.next_cipher(), None);
        for cut in 0..bytes.len() {
            assert!(PathUpdateView::parse(&bytes[..cut]).is_err(), "cut {cut}");
            assert!(
                decode::<PathUpdateWire>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            PathUpdateView::parse(&trailing).unwrap_err(),
            WireError::TrailingBytes
        );
        assert_eq!(
            decode::<PathUpdateWire>(&trailing).unwrap_err(),
            WireError::TrailingBytes
        );
        // Empty cipher list is legal (a one-member tree join).
        let empty = PathUpdateWire {
            epoch: 1,
            leaf_count: 1,
            leaves: vec![0],
            nonce: [0; 12],
            ciphers: vec![],
        };
        assert_eq!(decode::<PathUpdateWire>(&encode(&empty)).unwrap(), empty);
        // A claimed cipher count past the cap is rejected before allocation.
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u32(4096);
        w.put_u32(0);
        w.put_u32(1_000_000);
        w.put_array(&[0; 12]);
        let capped = w.finish();
        assert!(matches!(
            decode::<PathUpdateWire>(&capped),
            Err(WireError::LengthOverflow)
        ));
        assert!(matches!(
            PathUpdateView::parse(&capped),
            Err(WireError::LengthOverflow)
        ));
        // A count the body cannot hold is refused by the view before it
        // hands out a single cipher.
        let mut overclaimed = bytes.clone();
        overclaimed[19] = 3;
        assert_eq!(
            PathUpdateView::parse(&overclaimed).unwrap_err(),
            WireError::UnexpectedEnd
        );
    }

    // A batch commit's head lists its leaves behind the marker and their
    // count: 4 bytes more than one leaf's head, for the count, plus 4 per
    // leaf,
    // read back by both readers, every cut refused, and a listed count of
    // fewer than two leaves or past the cap refused before any leaf is
    // read.
    #[test]
    fn path_update_batch_head_roundtrips_and_is_bounded() {
        let wire = PathUpdateWire {
            epoch: 8,
            leaf_count: 70,
            leaves: vec![3, 33, 69],
            nonce: [0x5a; 12],
            ciphers: vec![(66, vec![0xaa; 48])],
        };
        let bytes = encode(&wire);
        assert_eq!(bytes.len(), 20 + 4 + 4 * 3 + 12 + 52);
        assert_eq!(&bytes[12..20], &[0xff, 0xff, 0xff, 0xff, 0, 0, 0, 3]);
        assert_eq!(decode::<PathUpdateWire>(&bytes).unwrap(), wire);
        let mut view = PathUpdateView::parse(&bytes).unwrap();
        assert_eq!(view.head.leaves, CommitLeaves::Many(vec![3, 33, 69]));
        assert_eq!(view.next_cipher().map(|c| c.node), Some(66));
        for cut in 0..bytes.len() {
            assert!(PathUpdateView::parse(&bytes[..cut]).is_err(), "cut {cut}");
            assert!(
                decode::<PathUpdateWire>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for k in [0u32, 1, MAX_COMMIT_LEAVES as u32 + 1, u32::MAX] {
            let mut w = Writer::new();
            w.put_u64(8);
            w.put_u32(70);
            w.put_u32(COMMIT_LEAVES);
            w.put_u32(k);
            w.put_array(&[0; 64]);
            let listed = w.finish();
            assert_eq!(
                PathUpdateView::parse(&listed).unwrap_err(),
                WireError::LengthOverflow,
                "k={k}"
            );
        }
        // A count the body cannot hold is refused before any allocation.
        let mut w = Writer::new();
        w.put_u64(8);
        w.put_u32(70);
        w.put_u32(COMMIT_LEAVES);
        w.put_u32(MAX_COMMIT_LEAVES as u32);
        assert_eq!(
            decode::<PathUpdateWire>(&w.finish()).unwrap_err(),
            WireError::UnexpectedEnd
        );
    }

    #[test]
    fn cipher_nonce_xors_the_node_into_the_last_four_bytes() {
        let base = [0x10u8; 12];
        assert_eq!(cipher_nonce(base, 0), base);
        let mut expect = base;
        expect[8..].copy_from_slice(&[0x10 ^ 0x01, 0x10 ^ 0x02, 0x10 ^ 0x03, 0x10 ^ 0x04]);
        assert_eq!(cipher_nonce(base, 0x0102_0304), expect);
        // Distinct nodes never share a nonce under one base.
        let nonces: std::collections::HashSet<_> =
            (0..4096).map(|node| cipher_nonce(base, node)).collect();
        assert_eq!(nonces.len(), 4096);
    }

    // The frame the leader writes in one pass is the frame the layered
    // encoders produce — `Envelope` around `PathUpdateWire` around seals
    // under `path_update_aad` and `cipher_nonce` — byte for byte, and it
    // is exactly the envelope header, the 20-byte head, the 12-byte
    // nonce base and 52 bytes per seal.
    #[test]
    fn path_update_frame_is_the_layered_encoding() {
        let ops = GroupId::new("ops").unwrap();
        let head = PathUpdateHead {
            epoch: 9,
            leaf_count: 6,
            leaves: CommitLeaves::One(2),
        };
        let base = [0x3cu8; 12];
        let keys = [[0x11u8; 32], [0x22; 32], [0x33; 32]];
        let secrets = [[0xa1u8; 32], [0xa1; 32], [0xb2; 32]];
        let nodes = [4u32, 1, 9];
        for group in [None, Some(&ops)] {
            let header = encode(&Envelope {
                msg_type: MsgType::PathUpdate,
                sender: leader(),
                recipient: leader(),
                group: group.cloned(),
                body: Vec::new(),
            })
            .len();
            for n in 0..=nodes.len() {
                let seals = (0..n).map(|i| PathSeal {
                    node: nodes[i],
                    key: &keys[i],
                    secret: &secrets[i],
                });
                // A dirty buffer is cleared, not appended to.
                let frame = path_update_frame(vec![0xee; 7], &leader(), group, &head, base, seals);
                assert_eq!(frame.len(), header + 20 + 12 + 52 * n);
                let ciphers = (0..n)
                    .map(|i| {
                        let aad = path_update_aad(&leader(), 9, 6, &[2], nodes[i], group);
                        let sealed = ChaCha20Poly1305::new(&keys[i]).seal(
                            &AeadNonce::from_bytes(cipher_nonce(base, nodes[i])),
                            &secrets[i],
                            &aad,
                        );
                        (nodes[i], sealed)
                    })
                    .collect();
                let layered = Envelope {
                    msg_type: MsgType::PathUpdate,
                    sender: leader(),
                    recipient: leader(),
                    group: group.cloned(),
                    body: encode(&PathUpdateWire {
                        epoch: 9,
                        leaf_count: 6,
                        leaves: vec![2],
                        nonce: base,
                        ciphers,
                    }),
                };
                assert_eq!(frame, encode(&layered), "{n} seals, group {group:?}");
            }
        }
    }

    #[test]
    fn path_update_aad_binds_every_field() {
        let base = path_update_aad(&leader(), 5, 8, &[3], 9, None);
        assert_ne!(base, path_update_aad(&alice(), 5, 8, &[3], 9, None));
        assert_ne!(base, path_update_aad(&leader(), 6, 8, &[3], 9, None));
        assert_ne!(base, path_update_aad(&leader(), 5, 9, &[3], 9, None));
        assert_ne!(base, path_update_aad(&leader(), 5, 8, &[4], 9, None));
        assert_ne!(base, path_update_aad(&leader(), 5, 8, &[3], 10, None));
        // A batch's leaves are bound too, each one and their number.
        let batch = path_update_aad(&leader(), 5, 8, &[3, 6], 9, None);
        assert_ne!(base, batch);
        assert_ne!(batch, path_update_aad(&leader(), 5, 8, &[3, 7], 9, None));
        assert_ne!(batch, path_update_aad(&leader(), 5, 8, &[3, 6, 7], 9, None));
        // Distinct domain from the broadcast AAD.
        assert_ne!(base, group_broadcast_aad(&leader(), 5, 9, None));
    }

    #[test]
    fn group_broadcast_wire_roundtrip() {
        let wire = GroupBroadcastWire {
            epoch: 7,
            seq: 41,
            ciphertext: vec![0xde, 0xad, 0xbe, 0xef],
        };
        let bytes = encode(&wire);
        assert_eq!(decode::<GroupBroadcastWire>(&bytes).unwrap(), wire);
    }

    #[test]
    fn group_broadcast_aad_binds_leader_epoch_and_seq() {
        let base = group_broadcast_aad(&leader(), 3, 9, None);
        assert_ne!(base, group_broadcast_aad(&alice(), 3, 9, None));
        assert_ne!(base, group_broadcast_aad(&leader(), 4, 9, None));
        assert_ne!(base, group_broadcast_aad(&leader(), 3, 10, None));
    }

    /// The three-buffer composition `seal` used to be: encode the
    /// plaintext, seal it into a second buffer, encode the `SealedBody`
    /// into a third.
    fn reference_seal<T: Encode>(key: &[u8; 32], n: AeadNonce, aad: &[u8], value: &T) -> Vec<u8> {
        encode(&SealedBody {
            nonce: *n.as_bytes(),
            ciphertext: ChaCha20Poly1305::new(key).seal(&n, &encode(value), aad),
        })
    }

    fn welcome_plain(members: Roster) -> AdminPlain {
        AdminPlain {
            leader: leader(),
            user: alice(),
            user_nonce: nonce(3),
            leader_nonce: nonce(4),
            payload: AdminPayload::Welcome {
                members,
                epoch: 7,
                group_key: [5; 32],
                iv: [6; 12],
            },
        }
    }

    #[test]
    fn single_buffer_seal_matches_the_three_buffer_reference() {
        let key = [0x33u8; 32];
        let n = AeadNonce::from_bytes([4; 12]);
        let close = ClosePlain {
            user: alice(),
            leader: leader(),
        };
        assert_eq!(
            seal(&key, n, b"hdr", &close),
            reference_seal(&key, n, b"hdr", &close)
        );
        let big = welcome_plain(
            (0..300)
                .map(|i| ActorId::new(format!("m{i:05}")).unwrap())
                .collect(),
        );
        assert_eq!(seal(&key, n, b"", &big), reference_seal(&key, n, b"", &big));
        let body = seal(&key, n, b"hdr", &big);
        assert_eq!(open::<AdminPlain>(&key, b"hdr", &body).unwrap(), big);
    }

    #[test]
    fn seal_body_matches_seal_then_encode() {
        let key = [0x44u8; 32];
        let n = AeadNonce::from_bytes([8; 12]);
        let plain = welcome_plain([alice(), leader()].into_iter().collect());
        for group in [None, Some(ops())] {
            let mut env = Envelope {
                msg_type: MsgType::AdminMsg,
                sender: leader(),
                recipient: alice(),
                group,
                body: Vec::new(),
            };
            let mut reference = env.clone();
            reference.body = reference_seal(&key, n, &reference.header_aad(), &plain);
            let frame = env.seal_body(&key, n, &plain);
            assert_eq!(env, reference);
            assert_eq!(frame, encode(&reference));
            assert_eq!(decode::<Envelope>(&frame).unwrap(), env);
        }
    }

    #[test]
    fn welcome_encoding_is_frozen() {
        // What `AdminPayload::Welcome { members: Vec<ActorId>, .. }`
        // encoded to before the roster became one wire-encoded snapshot:
        // tag, count, each id length-prefixed, epoch, key, iv.
        let members = [alice(), ActorId::new("bob").unwrap(), leader()];
        let mut w = Writer::new();
        w.put_u8(TAG_WELCOME);
        w.put_u32(members.len() as u32);
        for m in &members {
            m.encode(&mut w);
        }
        w.put_u64(7);
        w.put_array(&[5; 32]);
        w.put_array(&[6; 12]);
        let frozen = w.finish();
        assert_eq!(
            frozen[..32],
            [
                4, 0, 0, 0, 3, 0, 0, 0, 5, b'a', b'l', b'i', b'c', b'e', 0, 0, 0, 3, b'b', b'o',
                b'b', 0, 0, 0, 6, b'l', b'e', b'a', b'd', b'e', b'r', 0
            ]
        );
        let welcome = AdminPayload::Welcome {
            members: members.into_iter().collect(),
            epoch: 7,
            group_key: [5; 32],
            iv: [6; 12],
        };
        assert_eq!(encode(&welcome), frozen);
        assert_eq!(decode::<AdminPayload>(&frozen).unwrap(), welcome);
    }

    #[test]
    fn open_rejects_garbage_body() {
        assert!(open::<ClosePlain>(&[0; 32], b"", &[1, 2, 3]).is_err());
        assert!(open::<ClosePlain>(&[0; 32], b"", &[]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::codec::encode;
    use proptest::prelude::*;

    fn arb_actor() -> impl Strategy<Value = ActorId> {
        "[a-z][a-z0-9]{0,15}".prop_map(|s| ActorId::new(s).unwrap())
    }

    proptest! {
        #[test]
        fn admin_plain_roundtrip(
            user in arb_actor(),
            leader in arb_actor(),
            un in proptest::array::uniform16(any::<u8>()),
            ln in proptest::array::uniform16(any::<u8>()),
            data in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let plain = AdminPlain {
                leader,
                user,
                user_nonce: ProtocolNonce::from_bytes(un),
                leader_nonce: ProtocolNonce::from_bytes(ln),
                payload: AdminPayload::AppData(data.into()),
            };
            let bytes = encode(&plain);
            prop_assert_eq!(decode::<AdminPlain>(&bytes).unwrap(), plain);
        }

        #[test]
        fn envelope_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode::<Envelope>(&bytes);
            let _ = decode::<AdminPayload>(&bytes);
            let _ = decode::<SealedBody>(&bytes);
            // The borrowed view and the owning decoder agree on every input.
            prop_assert_eq!(
                PathUpdateView::parse(&bytes).is_ok(),
                decode::<PathUpdateWire>(&bytes).is_ok()
            );
        }
    }
}
