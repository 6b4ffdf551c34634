//! The leader side of the improved protocol — Figure 3, one slot per
//! member — with group state, rekey policy, and leader-mediated multicast.
//! Every frame sealed or opened under a member's `K_a` — the §3.2 admin
//! channel, its acks, heartbeats and every uplink's check — is in
//! [`channel`]. Every membership change is one [`transition`]: one `apply`
//! shared with journal replay, journaled before any of its frames is
//! sealed, and one key fan-out. The [`timers`] resend what is due and
//! name whom to evict.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::error::{CoreError, RejectReason};
use crate::group::GroupState;
use crate::journal::JournalWriter;
use crate::liveness::Arq;
use crate::protocol::broadcast_nonce;
use crate::protocol::keytree::KeyTree;
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::keys::SessionKey;
use enclaves_crypto::nonce::{AeadNonce, ProtocolNonce};
use enclaves_crypto::rng::CryptoRng;
use enclaves_obs::{Counter, EventKind, EventStream, Histogram, Registry};
use enclaves_wire::codec::encode_into;
use enclaves_wire::journal::{EpochStamp, JournalOp};
use enclaves_wire::message::{
    group_broadcast_aad, AdminPayload, AuthInitPlain, ClosePlain, Envelope, GroupBroadcastWire,
    GroupDataPlain, KeyDistPlain, MsgType, NonceAckPlain,
};
use enclaves_wire::{ActorId, GroupId, Roster, MAX_ROSTER_LEN};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

mod channel;
mod timers;
mod transition;
use channel::{channel_tag, open_under, open_uplink, to_member, Channel, InFlight};
use transition::stamp_of;

/// Events surfaced by the leader core.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LeaderEvent {
    /// A user completed authentication and joined the group.
    MemberJoined(ActorId),
    /// A member left (voluntarily or expelled).
    MemberLeft(ActorId),
    /// A member was evicted by the liveness layer (ARQ budget exhausted
    /// or liveness deadline missed) — the timeout-driven `Oops(Ka)` path.
    MemberEvicted(ActorId),
    /// The group key was rotated to this epoch.
    Rekeyed(u64),
    /// Group data from a member was relayed to the rest of the group.
    Relayed {
        /// The sender.
        from: ActorId,
        /// Payload length in bytes.
        len: usize,
    },
    /// An incoming message was rejected.
    Rejected {
        /// Claimed sender of the offending message.
        from: ActorId,
        /// Why it was rejected.
        reason: RejectReason,
    },
}

/// Output of one leader step: envelopes to transmit and events.
#[derive(Debug, Default)]
pub struct LeaderOutput {
    /// Envelopes to send (each addressed to its recipient).
    pub outgoing: Vec<Envelope>,
    /// Sealed-once multicast frames (tree-rekey `PathUpdate`s and relayed
    /// group data): the runtime fans the same refcounted bytes out to
    /// every target.
    pub broadcasts: Vec<BroadcastFrame>,
    /// Events for the operator.
    pub events: Vec<LeaderEvent>,
}

impl LeaderOutput {
    fn merge(&mut self, other: LeaderOutput) {
        self.outgoing.extend(other.outgoing);
        self.broadcasts.extend(other.broadcasts);
        self.events.extend(other.events);
    }
}

/// Registry-backed leader instrumentation: the counters live in an
/// `enclaves-obs` [`Registry`], the one read path, so external observers
/// can snapshot or merge them without the core lock. The event stream is
/// optional: a detached core pays one branch per would-be event.
struct LeaderObs {
    registry: Registry,
    accepted: Counter,
    rejected: Counter,
    duplicate_acks: Counter,
    admin_sent: Counter,
    admin_dropped: Counter,
    relayed: Counter,
    rekeys: Counter,
    broadcasts: Counter,
    data_seals: Counter,
    admin_seals: Counter,
    rekey_seals: Counter,
    admin_seal_ns: Counter,
    lock_hold_ns: Counter,
    retransmits: Counter,
    ticks: Counter,
    evictions: Counter,
    heartbeats: Counter,
    journal_appends: Counter,
    journal_bytes: Counter,
    journal_fence_writes: Counter,
    seal_batch_ns: Histogram,
    lock_hold_batch_ns: Histogram,
    path_depth: Histogram,
    commit_joins: Histogram,
    events: Option<EventStream>,
}

impl LeaderObs {
    fn new() -> Self {
        let registry = Registry::new();
        LeaderObs {
            accepted: registry.counter("leader.accepted"),
            rejected: registry.counter("leader.rejected"),
            duplicate_acks: registry.counter("leader.duplicate_acks"),
            admin_sent: registry.counter("leader.admin_sent"),
            admin_dropped: registry.counter("leader.admin_dropped"),
            relayed: registry.counter("leader.relayed"),
            rekeys: registry.counter("leader.rekeys"),
            broadcasts: registry.counter("leader.broadcasts"),
            data_seals: registry.counter("leader.data_seals"),
            admin_seals: registry.counter("leader.admin_seals"),
            rekey_seals: registry.counter("leader.rekey_seals"),
            admin_seal_ns: registry.counter("leader.admin_seal_ns"),
            lock_hold_ns: registry.counter("leader.lock_hold_ns"),
            retransmits: registry.counter("leader.retransmits"),
            ticks: registry.counter("leader.ticks"),
            evictions: registry.counter("leader.evictions"),
            heartbeats: registry.counter("leader.heartbeats"),
            journal_appends: registry.counter("leader.journal.appends"),
            journal_bytes: registry.counter("leader.journal.bytes"),
            journal_fence_writes: registry.counter("leader.journal.fence_writes"),
            seal_batch_ns: registry.histogram("leader.seal_batch_ns"),
            lock_hold_batch_ns: registry.histogram("leader.lock_hold_batch_ns"),
            path_depth: registry.histogram("leader.path_depth"),
            commit_joins: registry.histogram("leader.commit_joins"),
            events: None,
            registry,
        }
    }

    /// Emits onto the attached stream, building the event lazily so a
    /// detached core never pays for payload clones.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(events) = &self.events {
            events.emit(kind());
        }
    }
}

/// Output of [`LeaderCore::broadcast_group_data`], of a relayed
/// `GroupData` and of a tree rekey: one sealed, encoded envelope shared by
/// every target. The runtime hands the same refcounted frame to each link
/// — fan-out to N members costs N pointer clones, not N seals or N copies.
#[derive(Clone, Debug)]
pub struct BroadcastFrame {
    /// The encoded envelope, ready for any link.
    pub frame: Arc<[u8]>,
    /// The roster snapshot the frame was built against, shared, not
    /// copied.
    pub recipients: Roster,
    /// The member whose `GroupData` this frame relays (`None` for the
    /// leader's own frames). It is in `recipients` but is not a target.
    pub origin: Option<ActorId>,
    /// The group-key epoch the payload was sealed under.
    pub epoch: u64,
    /// The per-epoch broadcast sequence number.
    pub seq: u64,
}

impl BroadcastFrame {
    /// The members the frame must be delivered to: `recipients` without
    /// the origin.
    pub fn targets(&self) -> impl Iterator<Item = &str> {
        let origin = self.origin.as_ref().map(ActorId::as_str);
        self.recipients.iter().filter(move |m| Some(*m) != origin)
    }
}

enum Slot {
    WaitingForKeyAck {
        session_key: SessionKey,
        /// The request body answered, for duplicate detection.
        request_body: Vec<u8>,
        /// The `AuthKeyDist` reply: re-sent verbatim on a duplicate
        /// request and by the retransmission timer.
        reply: InFlight,
    },
    /// The handshake completed and the join waits for the next
    /// [`LeaderCore::commit`]: no member yet, so its frames are refused
    /// as a non-member's (a close drops the session and the join).
    Staged(Channel),
    Connected(Channel),
}

/// How a member's departure was triggered — flavours its journal record
/// and its events only.
#[derive(Clone, Copy, Debug)]
enum Departure {
    /// The member asked to close (`ReqClose`).
    Close,
    /// The operator expelled it.
    Expel,
    /// The liveness layer timed it out.
    Evict,
}

/// Output of one [`LeaderCore::tick`]: frames whose retransmit deadline
/// passed, and members whose ARQ budget or liveness deadline expired and
/// who must now be evicted (via [`LeaderCore::evict`]).
#[derive(Debug, Default)]
pub struct LeaderTick {
    /// Due retransmissions, as refcounted encoded frames.
    pub frames: Vec<(ActorId, Arc<[u8]>)>,
    /// Members presumed dead.
    pub evict: Vec<ActorId>,
}

/// The leader core: Figure 3's per-user machines plus group state.
pub struct LeaderCore {
    leader: ActorId,
    directory: Directory,
    config: LeaderConfig,
    rng: Box<dyn CryptoRng>,
    slots: HashMap<ActorId, Slot>,
    group: GroupState,
    /// The MLS-style rekey tree (`Some` iff `config.tree_rekey`): leaves
    /// hold per-member channel secrets, interior keys are derived from
    /// children (`treekdf::derive_step`), and the root feeds
    /// `treekdf::derive_group`.
    tree: Option<KeyTree>,
    /// Joins staged by [`LeaderCore::stage_at`] for the next
    /// [`LeaderCore::commit`], in arrival order; each holds a
    /// [`Slot::Staged`].
    staged: Vec<ActorId>,
    /// The attached write-ahead journal (`None` for an ephemeral core),
    /// written by every [`transition`] before any of its frames is sealed.
    journal: Option<JournalWriter>,
    obs: LeaderObs,
    /// Admin frames sealed, and the time that took, since the last
    /// [`LeaderCore::record_seal_batch`].
    batch_frames: u64,
    batch_seal_ns: u64,
    /// Scratch buffer reused across data-plane broadcasts so a steady
    /// stream of them does not reallocate the envelope encoding each time.
    frame_buf: Vec<u8>,
    /// The core's notion of "now" on the runtime's injected clock: the
    /// latest reading passed to [`LeaderCore::handle_at`] or
    /// [`LeaderCore::tick`], so it never runs backwards.
    now: Duration,
    /// [`LeaderCore::next_deadline`]: lowered as timers are armed, made
    /// exact by [`LeaderCore::tick`].
    deadline: Option<Duration>,
    /// The frame staged last was refused as a duplicate ack.
    duplicate_ack: bool,
}

impl std::fmt::Debug for LeaderCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderCore")
            .field("leader", &self.leader)
            .field("members", &self.group.roster())
            .finish()
    }
}

impl LeaderCore {
    /// Creates a leader drawing its nonces and keys from `rng`: an
    /// `OsEntropyRng` in production, a seeded one in tests.
    #[must_use]
    pub fn with_rng(
        leader: ActorId,
        directory: Directory,
        config: LeaderConfig,
        rng: Box<dyn CryptoRng>,
    ) -> Self {
        let tree = config.tree_rekey.then(KeyTree::new);
        LeaderCore {
            leader,
            directory,
            config,
            rng,
            slots: HashMap::new(),
            group: GroupState::new(),
            tree,
            staged: Vec::new(),
            journal: None,
            obs: LeaderObs::new(),
            batch_frames: 0,
            batch_seal_ns: 0,
            frame_buf: Vec::new(),
            now: Duration::ZERO,
            deadline: None,
            duplicate_ack: false,
        }
    }

    /// The leader's identity.
    #[must_use]
    pub fn leader_id(&self) -> &ActorId {
        &self.leader
    }

    /// The enclave this core serves, when part of a multi-enclave service.
    #[must_use]
    pub fn group_id(&self) -> Option<&GroupId> {
        self.config.group.as_ref()
    }

    /// Current members: the shared snapshot, `O(1)` to take.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.group.roster()
    }

    /// The id under which roster member `name` holds a slot — a refcount
    /// bump on the key the map already owns. `None` for a member without
    /// a session (recovered from the journal, not yet re-admitted).
    fn slot_id(&self, name: &str) -> Option<ActorId> {
        self.slots.get_key_value(name).map(|(id, _)| id.clone())
    }

    /// True when one more member would no longer fit the group: the
    /// configured size, capped by what a `Welcome` can carry. A staged
    /// join that is not a re-admission holds a seat already.
    fn roster_full(&self) -> bool {
        let staged = self
            .staged
            .iter()
            .filter(|user| !self.group.is_member(user))
            .count();
        self.group.len() + staged >= self.config.max_members.min(MAX_ROSTER_LEN)
    }

    /// The current group-key epoch (None before the first join).
    #[must_use]
    pub fn epoch(&self) -> Option<u64> {
        self.group.current_epoch().map(|e| e.epoch)
    }

    /// The metric registry this core records into (`leader.*` names).
    /// Clones share the counters, so a snapshot taken from the clone sees
    /// the live values.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.obs.registry.clone()
    }

    /// Attaches a protocol event stream. Subsequent protocol actions emit
    /// [`EventKind`]s onto it in happened-before order (emission happens
    /// while the caller still holds whatever lock guards this core).
    pub fn set_event_stream(&mut self, events: EventStream) {
        self.obs.events = Some(events);
    }

    /// Handles one incoming envelope (from any link) at `now` on the
    /// runtime's injected [`crate::liveness::Clock`], read before the
    /// core lock is taken, so ARQ deadlines and liveness anchors advance
    /// on the same timeline as [`LeaderCore::tick`]. A reading behind the
    /// core's clock leaves it where it is; a sans-I/O caller that keeps
    /// no clock passes `Duration::ZERO`.
    ///
    /// This is [`LeaderCore::stage_at`] then [`LeaderCore::commit`]: a
    /// completed handshake is admitted in an epoch of its own.
    ///
    /// # Errors
    ///
    /// [`CoreError::Rejected`] for inauthentic/malformed/stale messages
    /// (state unchanged); [`CoreError::UnknownUser`] for unregistered
    /// claimed senders.
    pub fn handle_at(&mut self, env: &Envelope, now: Duration) -> Result<LeaderOutput, CoreError> {
        let mut out = self.stage_at(env, now)?;
        out.merge(self.commit()?);
        Ok(out)
    }

    /// Handles one incoming envelope as [`LeaderCore::handle_at`] does,
    /// except that the join a completed handshake (`AuthAckKey`) earns is
    /// staged, not committed: it takes effect, with every other join
    /// staged beside it, at the next [`LeaderCore::commit`]. Until then
    /// the staged user holds a seat but is no member: its own frames are
    /// handled as a non-member's. A caller stages the frames it holds and
    /// commits once, under one lock, so no one else sees a staged join.
    ///
    /// # Errors
    ///
    /// As [`LeaderCore::handle_at`].
    pub fn stage_at(&mut self, env: &Envelope, now: Duration) -> Result<LeaderOutput, CoreError> {
        self.advance_clock(now);
        self.duplicate_ack = false;
        let result = self.handle_inner(env);
        self.record_seal_batch();
        match &result {
            Ok(_) => self.obs.accepted.inc(),
            Err(_) if self.duplicate_ack => self.obs.duplicate_acks.inc(),
            Err(_) => self.obs.rejected.inc(),
        }
        result
    }

    /// True when [`LeaderCore::stage_at`] refused its frame only as a
    /// duplicate ack, counted in `leader.duplicate_acks`, not as rejected.
    pub(crate) fn refused_duplicate_ack(&self) -> bool {
        self.duplicate_ack
    }

    fn handle_inner(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        if env.recipient != self.leader {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        // AAD binding alone cannot stop an *honestly tagged* group-A frame
        // from opening here when the same user+password (hence the same
        // derived P_a) exists in both enclaves: the AAD in the frame and
        // the AAD we would compute from its header agree. The enclave tag
        // must match this core's own configured identity: when set, the
        // leader's frames carry it (AEAD-bound via the header) and frames
        // tagged for any other enclave, or untagged, are refused here.
        if env.group != self.config.group {
            return Err(CoreError::Rejected(RejectReason::WrongEnclave));
        }
        match env.msg_type {
            MsgType::AuthInitReq => self.accept_auth_init(env),
            MsgType::AuthAckKey => self.accept_key_ack(env),
            MsgType::Ack => self.accept_ack(env),
            MsgType::ReqClose => self.accept_close(env),
            MsgType::GroupData => self.relay_group_data(env),
            MsgType::Heartbeat => self.accept_heartbeat(env),
            _ => Err(CoreError::Rejected(RejectReason::UnexpectedType)),
        }
    }

    fn accept_auth_init(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        let user = env.sender.clone();
        if let Some(slot) = self.slots.get(&user) {
            // A duplicate of the request currently being answered gets the
            // cached reply verbatim (handshake ARQ: the member retransmits
            // its request when the reply was lost). Anything else is a
            // replay and is ignored until the session closes.
            if let Slot::WaitingForKeyAck {
                request_body,
                reply,
                ..
            } = slot
            {
                if *request_body == env.body {
                    let reply: Envelope = enclaves_wire::codec::decode(&reply.frame)?;
                    return Ok(LeaderOutput {
                        outgoing: vec![reply],
                        ..LeaderOutput::default()
                    });
                }
            }
            return Err(CoreError::Rejected(RejectReason::UnexpectedType));
        }
        if self.roster_full() {
            return Err(CoreError::Rejected(RejectReason::UnexpectedType));
        }
        let Some(long_term) = self.directory.lookup(&user) else {
            return Err(CoreError::UnknownUser(user.to_string()));
        };
        let plain: AuthInitPlain = open_under(long_term.as_bytes(), env, &self.leader)?;

        let session_key = SessionKey::generate(self.rng.as_mut());
        let leader_nonce = ProtocolNonce::generate(self.rng.as_mut());
        let mut reply = to_member(MsgType::AuthKeyDist, &self.leader, &user, &self.config);
        let kd = KeyDistPlain {
            leader: self.leader.clone(),
            user: user.clone(),
            user_nonce: plain.nonce,
            leader_nonce,
            session_key: *session_key.as_bytes(),
        };
        let mut aead_nonce = [0u8; 12];
        self.rng.fill_bytes(&mut aead_nonce);
        let frame = reply.seal_body(long_term.as_bytes(), AeadNonce::from_bytes(aead_nonce), &kd);

        self.obs.emit(|| EventKind::AuthAccepted {
            member: user.to_string(),
        });
        let in_flight = InFlight {
            nonce: leader_nonce,
            frame: frame.into(),
            arq: Arq::start(self.now, &self.config.liveness, channel_tag(&user)),
        };
        self.arm(Some(in_flight.arq.deadline));
        self.slots.insert(
            user,
            Slot::WaitingForKeyAck {
                session_key,
                request_body: env.body.clone(),
                reply: in_flight,
            },
        );
        Ok(LeaderOutput {
            outgoing: vec![reply],
            ..LeaderOutput::default()
        })
    }

    fn accept_key_ack(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        let (slot, plain) = open_uplink::<NonceAckPlain>(&mut self.slots, &self.leader, env)?;
        let Slot::WaitingForKeyAck {
            session_key, reply, ..
        } = slot
        else {
            unreachable!("a key ack opens on a waiting handshake only");
        };
        if plain.acked_nonce != reply.nonce {
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        let session_key = session_key.clone();
        let user = env.sender.clone();
        // Handshakes admitted while there was still room can outnumber
        // the room: the late one is turned away here, before any state
        // it could never be welcomed into.
        if self.roster_full() && !self.group.is_member(&user) {
            self.slots.remove(&user);
            return Err(CoreError::Rejected(RejectReason::UnexpectedType));
        }

        // The user becomes a member (paper: "L accepts A as a member when
        // the system enters a state where lead_A(q) = Connected") at the
        // next commit.
        let channel = Channel::new(session_key, plain.next_nonce, self.now);
        self.slots.insert(user.clone(), Slot::Staged(channel));
        self.staged.push(user);
        Ok(LeaderOutput::default())
    }

    /// Commits every join staged since the last commit as one epoch: one
    /// journal record, one `Welcome` per joiner, and for the members
    /// already in one join notice per joiner and the new key material
    /// once — in tree mode one `PathUpdate` over the union of the
    /// joiners' paths, in flat mode at most one policy rekey. Nothing
    /// staged, nothing done.
    ///
    /// # Errors
    ///
    /// Propagates journal and admin-send failures.
    pub fn commit(&mut self) -> Result<LeaderOutput, CoreError> {
        if self.staged.is_empty() {
            return Ok(LeaderOutput::default());
        }
        let joins = std::mem::take(&mut self.staged);
        let out = self.join(&joins);
        self.record_seal_batch();
        out
    }

    /// Admits the staged `users` (their handshakes complete) in one
    /// roster/epoch transition, then its fan-out — one `Welcome` to each
    /// joiner (in tree mode a `TreeWelcome` carrying its direct path), the
    /// join notices and the new key material to everyone else.
    fn join(&mut self, users: &[ActorId]) -> Result<LeaderOutput, CoreError> {
        let mut out = LeaderOutput {
            events: users
                .iter()
                .cloned()
                .map(LeaderEvent::MemberJoined)
                .collect(),
            ..LeaderOutput::default()
        };

        // Everyone but the joiners: the snapshot from before the commit
        // (less a re-admitted joiner, whom the recovered roster already
        // lists).
        let mut others = self.group.roster();
        for user in users {
            others = others.without(user);
            if let Some(Slot::Staged(channel)) = self.slots.remove(user) {
                self.arm(self.config.liveness.silence_deadline(channel.last_heard));
                self.slots.insert(user.clone(), Slot::Connected(channel));
            }
        }

        let op = match users {
            [user] => JournalOp::Join(user.clone()),
            _ => JournalOp::Joins(users.to_vec()),
        };
        let rotation = self.transition(op)?.expect("a join is a transition");
        self.obs.commit_joins.record(users.len() as u64);

        // The Welcome carries the roster and the (possibly fresh) group
        // key, so the joiner is live on the data plane immediately. In
        // tree mode it carries the joiner's direct path instead, whose
        // root derives the key, so the joiner follows the very next
        // PathUpdate.
        let EpochStamp { epoch, key, iv } = stamp_of(&self.group);
        let members = self.group.roster();
        for user in users {
            let welcome = match &self.tree {
                Some(tree) => {
                    let (leaf_index, path_keys) = tree
                        .path_keys(user)
                        .expect("a joined member's direct path is populated");
                    AdminPayload::TreeWelcome {
                        members: members.clone(),
                        epoch,
                        leaf_index,
                        leaf_count: tree.leaf_count(),
                        path_keys,
                    }
                }
                None => AdminPayload::Welcome {
                    members: members.clone(),
                    epoch,
                    group_key: key,
                    iv,
                },
            };
            self.obs.emit(|| EventKind::MemberJoined {
                member: user.to_string(),
                epoch,
            });
            self.send_admin(&mut out, user, welcome)?;
        }

        // Tell everyone else; distribute the new key if we rotated. Key
        // material always goes out; the join notices are skippable by
        // configuration (large benchmark groups). A joiner learns of the
        // others admitted beside it from its Welcome's roster.
        if self.config.membership_notices {
            for user in users {
                self.send_admin_all(&mut out, &others, &AdminPayload::MemberJoined(user.clone()))?;
            }
        }
        // A joiner holds none of the sealing node keys (its Welcome
        // covers it), so the new key material goes to everyone else.
        self.distribute(&mut out, rotation, others)?;
        Ok(out)
    }

    fn accept_close(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        open_uplink::<ClosePlain>(&mut self.slots, &self.leader, env)?;
        // Close: discard the session key (and a staged join with it); no
        // further messages to the user.
        self.drop_slot(&env.sender);
        self.depart(&env.sender, Departure::Close)
    }

    /// A member's departure — voluntary close, expulsion or timeout
    /// eviction, the caller having already dropped its session: the
    /// roster/epoch transition, then its fan-out (leave notice, new key
    /// material). `kind` flavours the journal record, the operator event
    /// and the observability event; the protocol handling is identical
    /// for all three (the paper's `Oops(Ka)` close is one transition
    /// however it was triggered).
    fn depart(&mut self, user: &ActorId, kind: Departure) -> Result<LeaderOutput, CoreError> {
        let op = match kind {
            Departure::Close => JournalOp::Leave(user.clone()),
            Departure::Expel => JournalOp::Expel(user.clone()),
            Departure::Evict => JournalOp::Evict(user.clone()),
        };
        let mut out = LeaderOutput::default();
        // A non-member's departure is no transition and is not journaled.
        let Some(rotation) = self.transition(op)? else {
            return Ok(out);
        };
        out.events.push(match kind {
            Departure::Close | Departure::Expel => LeaderEvent::MemberLeft(user.clone()),
            Departure::Evict => LeaderEvent::MemberEvicted(user.clone()),
        });
        if matches!(kind, Departure::Evict) {
            self.obs.evictions.inc();
        }
        self.obs.emit(|| {
            let member = user.to_string();
            match kind {
                Departure::Close => EventKind::MemberClosed { member },
                Departure::Expel => EventKind::Expelled { member },
                Departure::Evict => EventKind::Evicted { member },
            }
        });

        // Every remaining member's view must drop the departed one,
        // however the new key then reaches it.
        let remaining = self.group.roster();
        if self.config.membership_notices {
            self.send_admin_all(
                &mut out,
                &remaining,
                &AdminPayload::MemberLeft(user.clone()),
            )?;
        }
        self.distribute(&mut out, rotation, remaining)?;
        Ok(out)
    }

    /// A member's `GroupData` uplink, opened under its `K_a` and re-sealed
    /// once under the group key as a `GroupBroadcast` from the member to
    /// every other member: the leader is the only `K_g` sealer, so the
    /// one per-epoch `seq` counter keeps every `(K_g, nonce)` pair unique.
    fn relay_group_data(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        let (slot, plain) = open_uplink::<GroupDataPlain>(&mut self.slots, &self.leader, env)?;
        let Slot::Connected(channel) = slot else {
            unreachable!("data opens on a connected channel only");
        };
        channel.hear(plain.seq, |c| &mut c.data_seq, self.now)?;
        let user = env.sender.clone();

        let frame = self.seal_group_data(Some(user.clone()), &plain.data)?;
        self.obs.relayed.inc();
        let mut output = LeaderOutput {
            broadcasts: vec![frame],
            events: vec![LeaderEvent::Relayed {
                from: user,
                len: plain.data.len(),
            }],
            ..LeaderOutput::default()
        };

        // Traffic-based rekey policy.
        let count = self.group.count_traffic();
        if self.config.rekey_policy.rekey_on_traffic(count) {
            output.merge(self.rekey_now()?);
        }
        Ok(output)
    }

    /// Records nanoseconds the runtime spent holding its core lock for
    /// one drain of member frames, one operator call, or one tick or
    /// eviction, so lock pressure is observable next to the
    /// `leader.admin_seal_ns` counter.
    pub fn note_lock_hold(&mut self, ns: u64) {
        self.obs.lock_hold_ns.add(ns);
        self.obs.lock_hold_batch_ns.record(ns);
    }

    /// Evicts a member the liveness layer presumed dead: drops its
    /// session (freeing its outstanding slot) and runs the same departure
    /// as an expel — the Fig. 3 `Oops(Ka)` path, driven by a timeout
    /// instead of the operator. A half-open handshake slot is freed
    /// silently (the user never became a member, so there is nothing to
    /// announce).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if the user has no slot (already gone).
    pub fn evict(&mut self, user: &ActorId) -> Result<LeaderOutput, CoreError> {
        self.drop_session(user, Departure::Evict)
    }

    /// Expels a member: drops its session immediately and notifies the
    /// rest ("a variation of this protocol can be used to expel some
    /// members of the group").
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if the user is not connected.
    pub fn expel(&mut self, user: &ActorId) -> Result<LeaderOutput, CoreError> {
        self.drop_session(user, Departure::Expel)
    }

    fn drop_session(&mut self, user: &ActorId, kind: Departure) -> Result<LeaderOutput, CoreError> {
        if !self.drop_slot(user) {
            return Err(CoreError::UnknownUser(user.to_string()));
        }
        let out = self.depart(user, kind)?;
        self.record_seal_batch();
        Ok(out)
    }

    /// Drops `user`'s slot and any join staged with it; false when it had
    /// none.
    fn drop_slot(&mut self, user: &ActorId) -> bool {
        match self.slots.remove(user) {
            Some(Slot::Staged(_)) => {
                self.staged.retain(|staged| staged != user);
                true
            }
            slot => slot.is_some(),
        }
    }

    /// Rotates the group key now and distributes it to every member: in
    /// tree mode one multicast `PathUpdate` (zero admin seals, `O(log N)`
    /// AEAD work), in flat mode a `NewGroupKey` per member. An empty
    /// group yields an empty output and no rekey.
    ///
    /// # Errors
    ///
    /// Propagates journal and admin-send failures.
    pub fn rekey_now(&mut self) -> Result<LeaderOutput, CoreError> {
        let mut out = LeaderOutput::default();
        let Some(rotation) = self.transition(JournalOp::Rekey)? else {
            return Ok(out);
        };
        // In tree mode one leaf-to-root path was refreshed (rotating over
        // the roster), and the refreshed member follows from the
        // broadcast too: its first seal targets its own leaf key.
        self.distribute(&mut out, rotation, self.group.roster())?;
        self.record_seal_batch();
        Ok(out)
    }

    /// Broadcasts application data to every member over the authenticated
    /// admin channel: one seal and one stop-and-wait exchange per
    /// recipient, all sharing one payload allocation (each queue entry is
    /// a refcount bump, not a copy). The per-member seal is what
    /// [`LeaderCore::broadcast_group_data`] eliminates.
    ///
    /// # Errors
    ///
    /// Propagates admin-send failures.
    pub fn broadcast_admin_data(&mut self, data: &[u8]) -> Result<LeaderOutput, CoreError> {
        let mut out = LeaderOutput::default();
        let recipients = self.group.roster();
        self.send_admin_all(&mut out, &recipients, &AdminPayload::AppData(data.into()))?;
        self.obs.emit(|| EventKind::AdminSend {
            payload: data.to_vec(),
            recipients: recipients.iter().map(ToString::to_string).collect(),
        });
        self.record_seal_batch();
        Ok(out)
    }

    /// Seals `data` exactly once under the current group key and returns a
    /// single encoded [`MsgType::GroupBroadcast`] frame for the whole
    /// roster.
    ///
    /// The AEAD nonce is derived from the epoch IV and the per-epoch
    /// sequence number (no nonce bytes travel on the wire) and the AAD
    /// binds the leader identity, epoch, and sequence number, so every
    /// member authenticates origin and position from the shared frame with
    /// no per-recipient material. Leader work per call is one seal plus
    /// one envelope encoding, independent of group size; delivery fans the
    /// same refcounted bytes out to each link.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if the group is empty (no key to seal
    /// under).
    pub fn broadcast_group_data(&mut self, data: &[u8]) -> Result<BroadcastFrame, CoreError> {
        let frame = self.seal_group_data(None, data)?;
        self.obs.broadcasts.inc();
        Ok(frame)
    }

    /// The one `K_g` seal: `data` from `origin` (the leader when `None`)
    /// under the next `(epoch, seq)`, with the origin as the envelope
    /// sender and in the AAD, and a `DataSend` naming the targets.
    fn seal_group_data(
        &mut self,
        origin: Option<ActorId>,
        data: &[u8],
    ) -> Result<BroadcastFrame, CoreError> {
        let recipients = self.group.roster();
        if recipients.is_empty() {
            return Err(CoreError::BadPhase {
                operation: "broadcast group data",
                phase: "empty group",
            });
        }
        let seq = self.group.next_broadcast_seq();
        let (epoch, key, iv) = {
            let e = self.group.current_epoch().expect("nonempty group has key");
            (e.epoch, e.key.clone(), e.iv)
        };
        let sender = origin.clone().unwrap_or_else(|| self.leader.clone());
        let aad = group_broadcast_aad(&sender, epoch, seq, self.config.group.as_ref());
        let mut ciphertext = Vec::new();
        ChaCha20Poly1305::new(key.as_bytes()).seal_into(
            &broadcast_nonce(&iv, seq),
            data,
            &aad,
            &mut ciphertext,
        );
        self.obs.data_seals.inc();

        let env = Envelope {
            msg_type: MsgType::GroupBroadcast,
            sender,
            // Multicast: identical bytes reach every member, so the
            // recipient field names the group's leader, which is what
            // members check for this message type.
            recipient: self.leader.clone(),
            group: self.config.group.clone(),
            body: enclaves_wire::codec::encode(&GroupBroadcastWire {
                epoch,
                seq,
                ciphertext,
            }),
        };
        encode_into(&env, &mut self.frame_buf);
        let frame = BroadcastFrame {
            frame: self.frame_buf.as_slice().into(),
            recipients,
            origin,
            epoch,
            seq,
        };
        self.obs.emit(|| EventKind::DataSend {
            epoch,
            seq,
            payload: data.to_vec(),
            recipients: frame.targets().map(str::to_string).collect(),
        });
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RekeyPolicy;
    use crate::liveness::LivenessConfig;
    use crate::protocol::keytree::NodeKey;
    use crate::protocol::member::{MemberEvent, MemberSession, SessionPhase};
    use enclaves_crypto::keys::LongTermKey;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_crypto::sha256::Sha256;
    use enclaves_crypto::treekdf;
    use enclaves_wire::codec::encode;
    use enclaves_wire::message::{cipher_nonce, open, PathUpdateWire};
    use std::collections::{HashSet, VecDeque};

    /// The value of the leader's counter `name`.
    fn count(l: &LeaderCore, name: &str) -> u64 {
        l.obs_registry().snapshot().counter(name)
    }

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn directory(users: &[&str]) -> Directory {
        let mut d = Directory::new();
        for u in users {
            d.register_key(
                &id(u),
                LongTermKey::derive_from_password(&format!("pw-{u}"), u).unwrap(),
            );
        }
        d
    }

    fn leader(users: &[&str], policy: RekeyPolicy) -> LeaderCore {
        LeaderCore::with_rng(
            id("leader"),
            directory(users),
            LeaderConfig {
                rekey_policy: policy,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        )
    }

    fn member(user: &str, seed: u64) -> (MemberSession, Envelope) {
        member_in(user, seed, None)
    }

    fn member_in(user: &str, seed: u64, group: Option<GroupId>) -> (MemberSession, Envelope) {
        MemberSession::start_with_key_in_group(
            id(user),
            id("leader"),
            LongTermKey::derive_from_password(&format!("pw-{user}"), user).unwrap(),
            Box::new(SeededRng::from_seed(seed)),
            group,
        )
    }

    /// Runs envelopes between a member and the leader until quiescent.
    fn pump(
        leader: &mut LeaderCore,
        session: &mut MemberSession,
        first: Envelope,
    ) -> Vec<MemberEvent> {
        let mut events = Vec::new();
        let mut to_leader = vec![first];
        while !to_leader.is_empty() {
            let mut to_member = Vec::new();
            for env in to_leader.drain(..) {
                if let Ok(out) = leader.handle_at(&env, Duration::ZERO) {
                    to_member.extend(out.outgoing);
                }
            }
            for env in to_member {
                if env.recipient != *session.user() {
                    continue;
                }
                if let Ok(out) = session.handle(&env) {
                    events.extend(out.events);
                    to_leader.extend(out.reply);
                }
            }
        }
        events
    }

    #[test]
    fn join_flow_produces_welcome() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 10);
        let events = pump(&mut l, &mut alice, init);
        assert!(events.contains(&MemberEvent::SessionEstablished));
        assert!(events.iter().any(
            |e| matches!(e, MemberEvent::Welcomed { roster, .. } if *roster == Roster::from_iter([id("alice")]))
        ));
        assert_eq!(l.roster(), Roster::from_iter([id("alice")]));
        assert_eq!(alice.group_epoch(), Some(1));
    }

    #[test]
    fn unknown_user_rejected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (_, init) = member("mallory", 11);
        assert!(matches!(
            l.handle_at(&init, Duration::ZERO),
            Err(CoreError::UnknownUser(_))
        ));
        assert!(l.roster().is_empty());
    }

    #[test]
    fn wrong_password_rejected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        // Mallory claims to be alice but seals with the wrong key.
        let (_, mut init) = member("alice", 12);
        let wrong_key = LongTermKey::derive_from_password("wrong", "alice").unwrap();
        let (_, bad_init) = MemberSession::start_with_key_in_group(
            id("alice"),
            id("leader"),
            wrong_key,
            Box::new(SeededRng::from_seed(13)),
            None,
        );
        init.body = bad_init.body;
        assert!(matches!(
            l.handle_at(&init, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));
    }

    #[test]
    fn second_member_triggers_join_notice_and_rekey() {
        let mut l = leader(&["alice", "bob"], RekeyPolicy::OnJoin);
        let (mut alice, init_a) = member("alice", 20);
        pump(&mut l, &mut alice, init_a);
        assert_eq!(l.epoch(), Some(1));

        // Bob joins; policy rekeys; alice must receive MemberJoined +
        // NewGroupKey.
        let (mut bob, init_b) = member("bob", 21);
        let out = l.handle_at(&init_b, Duration::ZERO).unwrap();
        let kd = out.outgoing.into_iter().next().unwrap();
        let bob_out = bob.handle(&kd).unwrap();
        let out = l
            .handle_at(bob_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();

        // Envelopes now flow to both members; pump them manually.
        let mut alice_events = Vec::new();
        let mut bob_events = Vec::new();
        let mut queue: VecDeque<Envelope> = out.outgoing.into();
        while let Some(env) = queue.pop_front() {
            let (session, events) = if env.recipient == id("alice") {
                (&mut alice, &mut alice_events)
            } else {
                (&mut bob, &mut bob_events)
            };
            if let Ok(o) = session.handle(&env) {
                events.extend(o.events);
                if let Some(reply) = o.reply {
                    if let Ok(lo) = l.handle_at(&reply, Duration::ZERO) {
                        queue.extend(lo.outgoing);
                    }
                }
            }
        }

        assert_eq!(l.epoch(), Some(2));
        assert!(alice_events.contains(&MemberEvent::MemberJoined(id("bob"))));
        assert!(alice_events
            .iter()
            .any(|e| matches!(e, MemberEvent::GroupKeyChanged { epoch: 2 })));
        assert!(bob_events
            .iter()
            .any(|e| matches!(e, MemberEvent::Welcomed { epoch: 2, .. })));
        assert_eq!(alice.group_epoch(), Some(2));
        assert_eq!(bob.group_epoch(), Some(2));
        assert_eq!(alice.roster(), Roster::from_iter([id("alice"), id("bob")]));
        assert_eq!(bob.roster(), Roster::from_iter([id("alice"), id("bob")]));
    }

    #[test]
    fn replayed_auth_init_ignored_while_connected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 30);
        pump(&mut l, &mut alice, init.clone());
        // Replay the original AuthInitReq.
        assert!(matches!(
            l.handle_at(&init, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
        assert_eq!(l.roster(), Roster::from_iter([id("alice")]));
    }

    #[test]
    fn replayed_ack_rejected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 31);
        pump(&mut l, &mut alice, init);

        // Send admin data; capture alice's ack; replay it.
        let out = l.broadcast_admin_data(b"x").unwrap();
        let admin = out.outgoing.into_iter().next().unwrap();
        let alice_out = alice.handle(&admin).unwrap();
        let ack = alice_out.reply.unwrap();
        assert!(l.handle_at(&ack, Duration::ZERO).is_ok());
        assert!(matches!(
            l.handle_at(&ack, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
    }

    #[test]
    fn leave_flow_notifies_and_rekeys() {
        let mut l = leader(&["alice", "bob"], RekeyPolicy::OnLeave);
        let (mut alice, init_a) = member("alice", 40);
        pump(&mut l, &mut alice, init_a);
        let (mut bob, init_b) = member("bob", 41);
        // Drive bob's join, collecting all envelopes.
        let out = l.handle_at(&init_b, Duration::ZERO).unwrap();
        let bob_out = bob.handle(out.outgoing.first().unwrap()).unwrap();
        let out = l
            .handle_at(bob_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        let mut queue: VecDeque<Envelope> = out.outgoing.into();
        while let Some(env) = queue.pop_front() {
            let session = if env.recipient == id("alice") {
                &mut alice
            } else {
                &mut bob
            };
            if let Ok(o) = session.handle(&env) {
                if let Some(reply) = o.reply {
                    if let Ok(lo) = l.handle_at(&reply, Duration::ZERO) {
                        queue.extend(lo.outgoing);
                    }
                }
            }
        }
        let epoch_before = l.epoch().unwrap();

        // Bob leaves.
        let close = bob.leave().unwrap();
        let out = l.handle_at(&close, Duration::ZERO).unwrap();
        assert!(out.events.contains(&LeaderEvent::MemberLeft(id("bob"))));
        assert_eq!(l.roster(), Roster::from_iter([id("alice")]));
        assert_eq!(l.epoch(), Some(epoch_before + 1), "rekey on leave");

        // Alice receives MemberLeft + NewGroupKey.
        let mut events = Vec::new();
        let mut queue: VecDeque<Envelope> = out.outgoing.into();
        while let Some(env) = queue.pop_front() {
            if let Ok(o) = alice.handle(&env) {
                events.extend(o.events);
                if let Some(reply) = o.reply {
                    if let Ok(lo) = l.handle_at(&reply, Duration::ZERO) {
                        queue.extend(lo.outgoing);
                    }
                }
            }
        }
        assert!(events.contains(&MemberEvent::MemberLeft(id("bob"))));
        assert!(events
            .iter()
            .any(|e| matches!(e, MemberEvent::GroupKeyChanged { .. })));
        assert_eq!(alice.roster(), Roster::from_iter([id("alice")]));

        // A replayed close is rejected (slot is gone).
        assert!(matches!(
            l.handle_at(&close, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
    }

    #[test]
    fn group_data_is_relayed_to_others_only() {
        let mut w = flat_world(&["alice", "bob", "carol"]);
        let up = w.uplink("alice", b"hi all");
        let out = w.l.handle_at(&up, Duration::ZERO).unwrap();
        assert!(out.outgoing.is_empty(), "no per-recipient envelopes");
        let [relay] = &out.broadcasts[..] else {
            panic!("one relay frame, got {}", out.broadcasts.len());
        };
        assert_eq!(relay.targets().collect::<Vec<_>>(), ["bob", "carol"]);
        let env: Envelope = enclaves_wire::codec::decode(&relay.frame).unwrap();
        assert_eq!(env.sender, id("alice"), "the origin is the envelope sender");
        for user in ["bob", "carol"] {
            let o = w.sessions.get_mut(&id(user)).unwrap().handle(&env).unwrap();
            assert_eq!(
                o.events,
                vec![MemberEvent::Broadcast {
                    from: id("alice"),
                    epoch: relay.epoch,
                    seq: relay.seq,
                    data: b"hi all".to_vec()
                }]
            );
        }
    }

    #[test]
    fn tampered_group_data_stops_at_leader() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 60);
        pump(&mut l, &mut alice, init);
        let mut env = alice.send_group_data(b"payload").unwrap();
        let last = env.body.len() - 1;
        env.body[last] ^= 1;
        assert!(matches!(
            l.handle_at(&env, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));
        assert_eq!(count(&l, "leader.relayed"), 0);
    }

    #[test]
    fn admin_queue_is_stop_and_wait() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 70);
        pump(&mut l, &mut alice, init);

        // Two broadcasts: only the first goes out immediately.
        let out1 = l.broadcast_admin_data(b"one").unwrap();
        assert_eq!(out1.outgoing.len(), 1);
        let out2 = l.broadcast_admin_data(b"two").unwrap();
        assert!(out2.outgoing.is_empty(), "second is queued");

        // Acking the first releases the second.
        let a_out = alice.handle(out1.outgoing.first().unwrap()).unwrap();
        let released = l
            .handle_at(a_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        assert_eq!(released.outgoing.len(), 1);
        let a_out2 = alice.handle(released.outgoing.first().unwrap()).unwrap();
        assert_eq!(a_out2.events, vec![MemberEvent::AdminData(b"two".to_vec())]);
    }

    #[test]
    fn expel_removes_member_and_notifies() {
        let mut l = leader(&["alice", "bob"], RekeyPolicy::OnJoinAndLeave);
        let (mut alice, init_a) = member("alice", 80);
        pump(&mut l, &mut alice, init_a);
        let (mut bob, init_b) = member("bob", 81);
        let out = l.handle_at(&init_b, Duration::ZERO).unwrap();
        let bob_out = bob.handle(out.outgoing.first().unwrap()).unwrap();
        let out = l
            .handle_at(bob_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        let mut queue: VecDeque<Envelope> = out.outgoing.into();
        while let Some(env) = queue.pop_front() {
            let session = if env.recipient == id("alice") {
                &mut alice
            } else {
                &mut bob
            };
            if let Ok(o) = session.handle(&env) {
                if let Some(reply) = o.reply {
                    if let Ok(lo) = l.handle_at(&reply, Duration::ZERO) {
                        queue.extend(lo.outgoing);
                    }
                }
            }
        }

        let out = l.expel(&id("bob")).unwrap();
        assert!(out.events.contains(&LeaderEvent::MemberLeft(id("bob"))));
        assert_eq!(l.roster(), Roster::from_iter([id("alice")]));
        assert!(matches!(
            l.expel(&id("bob")),
            Err(CoreError::UnknownUser(_))
        ));
    }

    #[test]
    fn duplicate_auth_init_gets_cached_reply() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (_, init) = member("alice", 100);
        let first = l.handle_at(&init, Duration::ZERO).unwrap();
        let second = l.handle_at(&init, Duration::ZERO).unwrap();
        assert_eq!(
            first.outgoing, second.outgoing,
            "duplicate request must get the byte-identical cached reply"
        );
        // But a *different* request while one is pending is ignored.
        let (_, other_init) = member("alice", 101);
        assert!(matches!(
            l.handle_at(&other_init, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
    }

    /// Decodes the frames a tick found due back to envelopes.
    fn due_envelopes(tick: &LeaderTick) -> Vec<Envelope> {
        tick.frames
            .iter()
            .map(|(_, frame)| enclaves_wire::codec::decode(frame).unwrap())
            .collect()
    }

    #[test]
    fn retransmit_frames_cover_handshakes_and_admin() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let base = l.config.liveness.retransmit_base;
        // Pending handshake → once its deadline passes, one frame due,
        // addressed to the joining user and byte-identical to the reply.
        let (mut alice, init) = member("alice", 110);
        let out = l.handle_at(&init, Duration::ZERO).unwrap();
        assert_eq!(l.outstanding_count(), 1);
        assert!(l.tick(base / 2).frames.is_empty(), "not due yet");
        let tick = l.tick(base);
        assert_eq!(due_envelopes(&tick), out.outgoing);
        assert_eq!(tick.frames[0].0, id("alice"));

        // Complete the join; the welcome admin message is now in flight,
        // on a deadline of its own.
        let alice_out = alice.handle(&out.outgoing[0]).unwrap();
        let welcome_out = l
            .handle_at(alice_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        assert!(l.tick(base).frames.is_empty(), "not due yet");
        assert_eq!(due_envelopes(&l.tick(base * 2)), welcome_out.outgoing);

        // Acknowledge it: nothing left to retransmit, however late.
        let a_out = alice.handle(&welcome_out.outgoing[0]).unwrap();
        l.handle_at(a_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        assert!(l.tick(base * 8).frames.is_empty());
        assert_eq!(l.outstanding_count(), 0);
    }

    /// A resend that crosses a slow ack draws the member's cached re-ack.
    /// The leader refuses it as a stale ack — it moves nothing — but
    /// counts it as a duplicate ack, not as a rejection; an ack older
    /// than the last is still a rejection.
    #[test]
    fn a_slow_acks_re_ack_is_a_duplicate_not_a_rejection() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let base = l.config.liveness.retransmit_base;
        let (mut alice, init) = member("alice", 112);
        pump(&mut l, &mut alice, init);
        let slow = l.broadcast_admin_data(b"slow").unwrap().outgoing;
        let ack = alice.handle(&slow[0]).unwrap().reply.unwrap();
        let resend = due_envelopes(&l.tick(base));
        assert_eq!(resend, slow);
        let re_ack = alice.handle(&resend[0]).unwrap().reply.unwrap();
        assert_eq!(re_ack, ack, "the member re-acks from its cache");
        l.handle_at(&ack, base).unwrap();
        let next = l.broadcast_admin_data(b"next").unwrap().outgoing;

        let rejected = count(&l, "leader.rejected");
        assert!(matches!(
            l.handle_at(&re_ack, base),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        assert_eq!(count(&l, "leader.duplicate_acks"), 1);
        assert_eq!(count(&l, "leader.rejected"), rejected);
        assert_eq!(l.outstanding_count(), 1, "the next message stays in flight");

        let next_ack = alice.handle(&next[0]).unwrap().reply.unwrap();
        l.handle_at(&next_ack, base).unwrap();
        assert!(matches!(
            l.handle_at(&ack, base),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        assert_eq!(count(&l, "leader.duplicate_acks"), 1);
        assert_eq!(count(&l, "leader.rejected"), rejected + 1);
    }

    #[test]
    fn retransmit_frame_is_cached_not_recloned() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let base = l.config.liveness.retransmit_base;
        let (mut alice, init) = member("alice", 111);
        pump(&mut l, &mut alice, init);
        l.broadcast_admin_data(b"in flight").unwrap();
        let first = l.tick(base).frames;
        let second = l.tick(base * 2).frames;
        assert_eq!(first.len(), 1);
        assert!(
            Arc::ptr_eq(&first[0].1, &second[0].1),
            "successive ticks must share one encoded allocation"
        );
    }

    #[test]
    fn rekey_counts_exactly_n_admin_seals() {
        let mut l = leader(&["alice", "bob"], RekeyPolicy::Manual);
        let (mut alice, init_a) = member("alice", 310);
        pump(&mut l, &mut alice, init_a);
        let (mut bob, init_b) = member("bob", 311);
        join_second(&mut l, &mut [("alice", &mut alice)], &mut bob, init_b);

        let before = count(&l, "leader.admin_seals");
        let out = l.rekey_now().unwrap();
        assert_eq!(out.outgoing.len(), 2);
        assert_eq!(
            count(&l, "leader.admin_seals"),
            before + 2,
            "a rekey over n members costs exactly n admin seals"
        );
        assert!(
            count(&l, "leader.admin_seal_ns") > 0,
            "seal time is accounted"
        );
    }

    #[test]
    fn retransmitted_admin_is_reacked_idempotently() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 120);
        pump(&mut l, &mut alice, init);

        let out = l.broadcast_admin_data(b"payload").unwrap();
        let admin = out.outgoing.into_iter().next().unwrap();
        let first = alice.handle(&admin).unwrap();
        assert_eq!(first.events.len(), 1);
        // Simulate the ack being lost: the leader retransmits; alice
        // re-acks from the cache with identical bytes and no event.
        let second = alice.handle(&admin).unwrap();
        assert!(second.events.is_empty());
        assert_eq!(
            first.reply.as_ref().map(|e| &e.body),
            second.reply.as_ref().map(|e| &e.body)
        );
        // Either ack copy completes the exchange; the second is rejected
        // as stale (replay defense intact on the leader side).
        assert!(l
            .handle_at(first.reply.as_ref().unwrap(), Duration::ZERO)
            .is_ok());
        assert!(l
            .handle_at(second.reply.as_ref().unwrap(), Duration::ZERO)
            .is_err());
    }

    /// Joins `user` to a leader that already has members, pumping all
    /// envelopes among the given sessions.
    fn join_second(
        l: &mut LeaderCore,
        existing: &mut [(&str, &mut MemberSession)],
        newcomer: &mut MemberSession,
        init: Envelope,
    ) {
        let out = l.handle_at(&init, Duration::ZERO).unwrap();
        let new_out = newcomer.handle(out.outgoing.first().unwrap()).unwrap();
        let out = l
            .handle_at(new_out.reply.as_ref().unwrap(), Duration::ZERO)
            .unwrap();
        let mut queue: VecDeque<Envelope> = out.outgoing.into();
        while let Some(env) = queue.pop_front() {
            let session = if env.recipient == *newcomer.user() {
                &mut *newcomer
            } else {
                let mut found = None;
                for (name, s) in existing.iter_mut() {
                    if env.recipient == id(name) {
                        found = Some(&mut **s);
                        break;
                    }
                }
                match found {
                    Some(s) => s,
                    None => continue,
                }
            };
            if let Ok(o) = session.handle(&env) {
                if let Some(reply) = o.reply {
                    if let Ok(lo) = l.handle_at(&reply, Duration::ZERO) {
                        queue.extend(lo.outgoing);
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_seals_once_and_every_member_decrypts() {
        let mut l = leader(&["alice", "bob"], RekeyPolicy::Manual);
        let (mut alice, init_a) = member("alice", 200);
        pump(&mut l, &mut alice, init_a);
        let (mut bob, init_b) = member("bob", 201);
        join_second(&mut l, &mut [("alice", &mut alice)], &mut bob, init_b);

        let bc = l.broadcast_group_data(b"fan out once").unwrap();
        assert_eq!(bc.recipients, Roster::from_iter([id("alice"), id("bob")]));
        assert_eq!(
            count(&l, "leader.data_seals"),
            1,
            "exactly one seal for N members"
        );
        assert_eq!(count(&l, "leader.broadcasts"), 1);

        // Both members decode and decrypt the *same* frame bytes.
        let env: Envelope = enclaves_wire::codec::decode(&bc.frame).unwrap();
        for session in [&mut alice, &mut bob] {
            let out = session.handle(&env).unwrap();
            assert_eq!(
                out.events,
                vec![MemberEvent::Broadcast {
                    from: id("leader"),
                    epoch: bc.epoch,
                    seq: bc.seq,
                    data: b"fan out once".to_vec(),
                }]
            );
            assert!(out.reply.is_none(), "data plane is fire-and-forget");
        }
    }

    #[test]
    fn broadcast_replay_and_reorder_rejected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 210);
        pump(&mut l, &mut alice, init);

        let bc0 = l.broadcast_group_data(b"zero").unwrap();
        let bc1 = l.broadcast_group_data(b"one").unwrap();
        assert_eq!((bc0.seq, bc1.seq), (0, 1));
        let env0: Envelope = enclaves_wire::codec::decode(&bc0.frame).unwrap();
        let env1: Envelope = enclaves_wire::codec::decode(&bc1.frame).unwrap();

        // Deliver seq 1 first; the straggler seq 0 is then rejected
        // (reordering across the watermark), as is a replay of seq 1.
        assert!(alice.handle(&env1).is_ok());
        assert!(matches!(
            alice.handle(&env0),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        assert!(matches!(
            alice.handle(&env1),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        // The session is not wedged: the next broadcast is delivered.
        let bc2 = l.broadcast_group_data(b"two").unwrap();
        let env2: Envelope = enclaves_wire::codec::decode(&bc2.frame).unwrap();
        assert!(alice.handle(&env2).is_ok());
    }

    #[test]
    fn broadcast_racing_a_rekey_is_accepted_once() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 220);
        pump(&mut l, &mut alice, init);

        // Sealed under epoch 1, but the rekey to epoch 2 overtakes it.
        let bc_old = l.broadcast_group_data(b"in flight").unwrap();
        let out = l.rekey_now().unwrap();
        for env in out.outgoing {
            if let Ok(o) = alice.handle(&env) {
                if let Some(reply) = o.reply {
                    let _ = l.handle_at(&reply, Duration::ZERO);
                }
            }
        }
        assert_eq!(alice.group_epoch(), Some(2));

        // The stale-epoch frame still opens under the previous key...
        let env_old: Envelope = enclaves_wire::codec::decode(&bc_old.frame).unwrap();
        let out = alice.handle(&env_old).unwrap();
        assert!(matches!(
            out.events[0],
            MemberEvent::Broadcast { epoch: 1, .. }
        ));
        // ...but replaying it across the rekey is rejected.
        assert!(matches!(
            alice.handle(&env_old),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        // And the new epoch's sequence numbering restarts at zero without
        // colliding with epoch 1's history.
        let bc_new = l.broadcast_group_data(b"fresh").unwrap();
        assert_eq!((bc_new.epoch, bc_new.seq), (2, 0));
        let env_new: Envelope = enclaves_wire::codec::decode(&bc_new.frame).unwrap();
        assert!(alice.handle(&env_new).is_ok());

        // Two epochs back is evicted: after another rekey, epoch-1 frames
        // are rejected outright.
        let out = l.rekey_now().unwrap();
        for env in out.outgoing {
            if let Ok(o) = alice.handle(&env) {
                if let Some(reply) = o.reply {
                    let _ = l.handle_at(&reply, Duration::ZERO);
                }
            }
        }
        let bc_ancient = Envelope {
            body: env_old.body.clone(),
            ..env_old
        };
        assert!(matches!(
            alice.handle(&bc_ancient),
            Err(CoreError::Rejected(RejectReason::WrongEpoch))
        ));
    }

    #[test]
    fn broadcast_tamper_and_wrong_leader_rejected() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 230);
        pump(&mut l, &mut alice, init);

        let bc = l.broadcast_group_data(b"secret").unwrap();
        let mut env: Envelope = enclaves_wire::codec::decode(&bc.frame).unwrap();
        let last = env.body.len() - 1;
        env.body[last] ^= 1;
        assert!(matches!(
            alice.handle(&env),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));

        // The envelope sender is the origin and is bound into the AAD:
        // relabelling the leader's frame as anyone else's breaks its seal.
        let mut forged: Envelope = enclaves_wire::codec::decode(&bc.frame).unwrap();
        forged.sender = id("mallory");
        assert!(matches!(
            alice.handle(&forged),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));
        let genuine: Envelope = enclaves_wire::codec::decode(&bc.frame).unwrap();
        assert!(alice.handle(&genuine).is_ok());
    }

    #[test]
    fn broadcast_on_empty_group_fails() {
        let mut l = leader(&[], RekeyPolicy::Manual);
        assert!(matches!(
            l.broadcast_group_data(b"x"),
            Err(CoreError::BadPhase { .. })
        ));
        assert_eq!(count(&l, "leader.data_seals"), 0);
    }

    #[test]
    fn membership_notices_can_be_suppressed() {
        let mut l = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice", "bob"]),
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                membership_notices: false,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        );
        let (mut alice, init_a) = member("alice", 240);
        pump(&mut l, &mut alice, init_a);
        let admin_sent_before = count(&l, "leader.admin_sent");

        // Bob joins: alice gets no MemberJoined notice (Manual policy, so
        // no key distribution either); only bob's welcome goes out.
        let (mut bob, init_b) = member("bob", 241);
        join_second(&mut l, &mut [("alice", &mut alice)], &mut bob, init_b);
        assert_eq!(
            count(&l, "leader.admin_sent"),
            admin_sent_before + 1,
            "only the welcome is sent when notices are suppressed"
        );
        assert_eq!(l.roster(), Roster::from_iter([id("alice"), id("bob")]));
        assert_eq!(bob.group_epoch(), Some(1));
    }

    /// A leader whose group already holds `filler` members — seeded as a
    /// `Roster`, no handshakes — with alice and bob still to come.
    fn crowded_leader(filler: usize) -> LeaderCore {
        let mut l = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice", "bob"]),
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                membership_notices: false,
                max_members: MAX_ROSTER_LEN + 100,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        );
        l.group = GroupState::with_roster((0..filler).map(|i| id(&format!("m{i:05}"))).collect());
        l
    }

    #[test]
    fn a_member_that_could_never_be_welcomed_is_refused_at_auth_init() {
        // `max_members` allows it; the wire does not.
        let mut l = crowded_leader(MAX_ROSTER_LEN);
        let before = l.roster();
        let (_, init) = member("alice", 250);
        assert!(matches!(
            l.handle_at(&init, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
        assert!(l.roster().ptr_eq(&before), "roster moved");
        assert!(l.slots.is_empty(), "a slot was opened");
        assert_eq!(l.epoch(), None);
    }

    #[test]
    fn the_last_seat_goes_to_one_of_two_concurrent_handshakes() {
        let mut l = crowded_leader(MAX_ROSTER_LEN - 1);
        let (mut alice, init_a) = member("alice", 251);
        let (mut bob, init_b) = member("bob", 252);
        // One seat, and both requests arrive while it is still free.
        let kd_a = l
            .handle_at(&init_a, Duration::ZERO)
            .unwrap()
            .outgoing
            .remove(0);
        let kd_b = l
            .handle_at(&init_b, Duration::ZERO)
            .unwrap()
            .outgoing
            .remove(0);
        let ack_a = alice.handle(&kd_a).unwrap().reply.unwrap();
        let ack_b = bob.handle(&kd_b).unwrap().reply.unwrap();

        // Alice takes it, and her Welcome — a roster at the bound — opens.
        let out = l.handle_at(&ack_a, Duration::ZERO).unwrap();
        let events = alice.handle(&out.outgoing[0]).unwrap().events;
        assert!(matches!(
            &events[..],
            [MemberEvent::Welcomed { roster, .. }] if roster.len() == MAX_ROSTER_LEN
        ));

        // Bob is turned away before the roster, the journal or the key
        // moves, and his half-open slot is freed.
        let (roster, epoch) = (l.roster(), l.epoch());
        assert!(matches!(
            l.handle_at(&ack_b, Duration::ZERO),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
        assert!(l.roster().ptr_eq(&roster));
        assert_eq!(l.epoch(), epoch);
        assert!(!l.slots.contains_key(&id("bob")));
    }

    #[test]
    fn rejection_leaves_leader_state_unchanged() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        let (mut alice, init) = member("alice", 90);
        pump(&mut l, &mut alice, init);
        let roster = l.roster();
        let epoch = l.epoch();
        for i in 0..10u8 {
            let env = Envelope {
                msg_type: MsgType::Ack,
                sender: id("alice"),
                recipient: id("leader"),
                group: None,
                body: vec![i; 40],
            };
            assert!(l.handle_at(&env, Duration::ZERO).is_err());
        }
        assert_eq!(l.roster(), roster);
        assert_eq!(l.epoch(), epoch);
        assert_eq!(count(&l, "leader.rejected"), 10);
    }

    // -----------------------------------------------------------------
    // Tree-rekey mode: end-to-end over real envelopes.
    // -----------------------------------------------------------------

    /// A leader plus member sessions wired together in memory, delivering
    /// admin envelopes per recipient and `PathUpdate` broadcast frames to
    /// their whole recipient list.
    struct TreeWorld {
        l: LeaderCore,
        sessions: HashMap<ActorId, MemberSession>,
        events: HashMap<ActorId, Vec<MemberEvent>>,
        /// Everything the leader put on the wire, in order.
        wire: Sha256,
    }

    impl TreeWorld {
        fn new(users: &[&str]) -> Self {
            Self::with_config(
                users,
                LeaderConfig {
                    rekey_policy: RekeyPolicy::Manual,
                    tree_rekey: true,
                    ..LeaderConfig::default()
                },
            )
        }

        fn with_config(users: &[&str], config: LeaderConfig) -> Self {
            TreeWorld {
                l: LeaderCore::with_rng(
                    id("leader"),
                    directory(users),
                    config,
                    Box::new(SeededRng::from_seed(1)),
                ),
                sessions: HashMap::new(),
                events: HashMap::new(),
                wire: Sha256::new(),
            }
        }

        fn join(&mut self, user: &str, seed: u64) {
            let (session, init) = member_in(user, seed, self.l.group_id().cloned());
            self.sessions.insert(id(user), session);
            self.drive(vec![init]);
        }

        fn leave(&mut self, user: &str) {
            let env = self.sessions.get_mut(&id(user)).unwrap().leave().unwrap();
            self.sessions.remove(&id(user));
            self.drive(vec![env]);
        }

        fn expel(&mut self, user: &str) {
            self.sessions.remove(&id(user));
            let out = self.l.expel(&id(user)).unwrap();
            self.settle(out);
        }

        fn rekey(&mut self) {
            let out = self.l.rekey_now().unwrap();
            self.settle(out);
        }

        /// Delivers one leader output and pumps until quiescent.
        fn settle(&mut self, out: LeaderOutput) {
            let replies = self.deliver_collect(out);
            self.drive(replies);
        }

        fn drive(&mut self, to_leader: Vec<Envelope>) {
            let mut queue = to_leader;
            while !queue.is_empty() {
                let mut next = Vec::new();
                for env in queue.drain(..) {
                    if let Ok(out) = self.l.handle_at(&env, Duration::ZERO) {
                        next.extend(self.deliver_collect(out));
                    }
                }
                queue = next;
            }
        }

        /// Hands one leader output to the member sessions and returns the
        /// replies bound for the leader.
        fn deliver_collect(&mut self, out: LeaderOutput) -> Vec<Envelope> {
            for env in &out.outgoing {
                self.wire.update(&encode(env));
            }
            for b in &out.broadcasts {
                self.wire.update(&b.frame);
                self.wire.update(&encode(&b.recipients));
            }
            let mut replies = Vec::new();
            for env in out.outgoing {
                if let Some(s) = self.sessions.get_mut(&env.recipient) {
                    if let Ok(o) = s.handle(&env) {
                        self.events
                            .entry(env.recipient.clone())
                            .or_default()
                            .extend(o.events);
                        replies.extend(o.reply);
                    }
                }
            }
            for b in out.broadcasts {
                let env: Envelope = enclaves_wire::codec::decode(&b.frame).unwrap();
                for r in b.targets() {
                    if let Some(s) = self.sessions.get_mut(r) {
                        if let Ok(o) = s.handle(&env) {
                            self.events
                                .entry(s.user().clone())
                                .or_default()
                                .extend(o.events);
                            replies.extend(o.reply);
                        }
                    }
                }
            }
            replies
        }

        /// Every session is in the leader's epoch and — unless notices
        /// are configured off — holds the leader's view of the membership.
        fn assert_converged(&self) {
            let epoch = self.l.epoch();
            for (who, s) in &self.sessions {
                assert_eq!(s.group_epoch(), epoch, "{who} diverged from the leader");
                if self.l.config.membership_notices {
                    assert_eq!(s.roster(), self.l.roster(), "{who} holds a stale view");
                }
            }
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i}")).collect()
    }

    /// A flat-mode world with every one of `users` joined, under a policy
    /// that never rekeys on its own.
    fn flat_world(users: &[&str]) -> TreeWorld {
        let config = LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            ..LeaderConfig::default()
        };
        let mut w = TreeWorld::with_config(users, config);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 700 + i as u64);
        }
        w
    }

    impl TreeWorld {
        /// `user`'s `GroupData` uplink carrying `data`, not yet delivered.
        fn uplink(&mut self, user: &str, data: &[u8]) -> Envelope {
            let session = self.sessions.get_mut(&id(user)).unwrap();
            session.send_group_data(data).unwrap()
        }
    }

    /// Every frame sealed under the group key is one of the leader's
    /// `GroupBroadcast`s, and their `seq`s come from one per-epoch
    /// counter — so a member that leaves and rejoins inside an epoch, and
    /// sends the same words in both sessions, never makes a `(K_g, nonce)`
    /// pair repeat.
    #[test]
    fn same_epoch_leave_and_rejoin_never_repeats_a_group_key_nonce() {
        let mut w = flat_world(&["alice", "bob"]);
        let (epoch, iv) = {
            let e = w.l.group.current_epoch().unwrap();
            (e.epoch, e.iv)
        };
        let mut frames = Vec::new();
        for session in 0..2u64 {
            let up = w.uplink("alice", b"same words");
            // The uplink is sealed under alice's session key, not `K_g`.
            let Some(Slot::Connected(channel)) = w.l.slots.get(&id("alice")) else {
                panic!("alice is connected");
            };
            let plain: GroupDataPlain =
                open(channel.session_key.as_bytes(), &up.header_aad(), &up.body).unwrap();
            assert_eq!(plain.seq, 1, "each session's uplinks count from 1");
            let out = w.l.handle_at(&up, Duration::ZERO).unwrap();
            frames.extend(out.broadcasts.iter().map(|b| Arc::clone(&b.frame)));
            w.settle(out);
            frames.push(w.l.broadcast_group_data(b"leader").unwrap().frame);
            if session == 0 {
                w.leave("alice");
                w.join("alice", 720);
            }
        }
        assert_eq!(w.l.epoch(), Some(epoch), "the rejoin stayed in one epoch");
        let nonces: HashSet<[u8; 12]> = frames
            .iter()
            .map(|frame| {
                let env: Envelope = enclaves_wire::codec::decode(frame).unwrap();
                assert_eq!(env.msg_type, MsgType::GroupBroadcast);
                let wire: GroupBroadcastWire = enclaves_wire::codec::decode(&env.body).unwrap();
                assert_eq!(wire.epoch, epoch);
                *broadcast_nonce(&iv, wire.seq).as_bytes()
            })
            .collect();
        assert_eq!(frames.len(), 4);
        assert_eq!(nonces.len(), frames.len(), "a (K_g, nonce) pair repeated");
    }

    /// A replayed uplink arriving later, when alice would otherwise have
    /// gone quiet, gives no output and moves nothing but
    /// `leader.rejected`: no relay, no seal, no traffic count, no
    /// liveness refresh.
    #[test]
    fn replayed_uplink_is_refused_without_output_or_state_change() {
        let mut w = flat_world(&["alice", "bob"]);
        let up = w.uplink("alice", b"once");
        let out = w.l.handle_at(&up, Duration::from_secs(1)).unwrap();
        assert_eq!(out.broadcasts.len(), 1);
        let channel_state = |l: &LeaderCore| match l.slots.get(&id("alice")) {
            Some(Slot::Connected(c)) => (c.last_heard, c.data_seq, c.hb_seq),
            _ => panic!("alice is connected"),
        };
        let state = |l: &LeaderCore| {
            // The group's Debug form spells out its traffic and sequence
            // counters as well as the roster and epoch.
            (channel_state(l), format!("{:?}", l.group))
        };
        let before = (state(&w.l), w.l.obs_registry().snapshot());

        assert!(matches!(
            w.l.handle_at(&up, Duration::from_secs(5)),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));

        let mut expected = before.1.clone();
        *expected.counters.get_mut("leader.rejected").unwrap() += 1;
        assert_eq!(w.l.obs_registry().snapshot(), expected);
        assert_eq!(state(&w.l), before.0);
    }

    /// The relay is one seal and one frame at any group size: no
    /// per-recipient envelope, the shared roster snapshot as it stands,
    /// and every member but the origin as a target.
    #[test]
    fn relay_is_one_seal_at_any_group_size() {
        for n in [2, 16] {
            let users = names(n);
            let refs: Vec<&str> = users.iter().map(String::as_str).collect();
            let mut w = flat_world(&refs);
            let up = w.uplink("m1", b"to everyone else");
            let seals = count(&w.l, "leader.data_seals");
            let out = w.l.handle_at(&up, Duration::ZERO).unwrap();
            assert!(out.outgoing.is_empty(), "n = {n}");
            let [relay] = &out.broadcasts[..] else {
                panic!("n = {n}: {} frames", out.broadcasts.len());
            };
            assert_eq!(count(&w.l, "leader.data_seals"), seals + 1, "n = {n}");
            assert!(relay.recipients.ptr_eq(&w.l.roster()), "n = {n}");
            assert_eq!(relay.origin, Some(id("m1")));
            let targets: Vec<&str> = relay.targets().collect();
            assert_eq!(targets.len(), n - 1, "n = {n}");
            assert!(!targets.contains(&"m1"), "n = {n}");
        }
    }

    /// A crashed member's captured uplink, replayed every heartbeat
    /// interval, does not keep it alive: the replays are refused before
    /// they reach `last_heard`, so the member is evicted at its liveness
    /// timeout while a live member's heartbeats keep that one in.
    #[test]
    fn replayed_uplink_cannot_keep_a_crashed_member_alive() {
        let heartbeat = Duration::from_secs(1);
        let timeout = Duration::from_secs(5);
        let config = LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            liveness: LivenessConfig {
                heartbeat_interval: Some(heartbeat),
                liveness_timeout: Some(timeout),
                ..LivenessConfig::default()
            },
            ..LeaderConfig::default()
        };
        let mut w = TreeWorld::with_config(&["alice", "bob"], config);
        w.join("alice", 730);
        w.join("bob", 731);
        // Alice's last frame before she crashes, captured on the wire.
        let captured = w.uplink("alice", b"last words");
        assert_eq!(
            w.l.handle_at(&captured, Duration::ZERO)
                .unwrap()
                .broadcasts
                .len(),
            1
        );
        w.sessions.remove(&id("alice"));

        let mut now = Duration::ZERO;
        while now <= timeout {
            now += heartbeat;
            let ping = w.sessions.get_mut(&id("bob")).unwrap().heartbeat().unwrap();
            w.l.handle_at(&ping, now).unwrap();
            assert!(matches!(
                w.l.handle_at(&captured, now),
                Err(CoreError::Rejected(RejectReason::StaleNonce))
            ));
            let evict = w.l.tick(now).evict;
            if now > timeout {
                assert_eq!(evict, vec![id("alice")], "at {now:?}");
            } else {
                assert!(evict.is_empty(), "at {now:?}: {evict:?}");
            }
        }
    }

    /// The core's clock never runs backwards: an envelope handled at a
    /// reading older than the last `tick` is timed at the tick, so the
    /// `AuthKeyDist` retransmit is scheduled from `t1`, and a heartbeat
    /// read at `t0` cannot pull the member's liveness deadline behind
    /// the core's now.
    #[test]
    fn handle_at_behind_tick_keeps_the_core_clock() {
        let base = Duration::from_millis(400);
        let timeout = Duration::from_secs(5);
        let ms = Duration::from_millis(1);
        let mut l = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice"]),
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                liveness: LivenessConfig {
                    retransmit_base: base,
                    retransmit_max: base,
                    liveness_timeout: Some(timeout),
                    ..LivenessConfig::default()
                },
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        );
        let (t0, t1) = (Duration::from_secs(1), Duration::from_secs(10));
        assert!(l.tick(t1).frames.is_empty());
        let (mut alice, init) = member("alice", 40);
        let key_dist = l.handle_at(&init, t0).unwrap().outgoing;
        assert_eq!(key_dist[0].msg_type, MsgType::AuthKeyDist);
        assert!(l.tick(t1 + base - ms).frames.is_empty(), "timed from t1");
        assert_eq!(l.tick(t1 + base).frames.len(), 1);

        // Alice joins at t1 + base; half her liveness timeout passes.
        let ack = alice.handle(&key_dist[0]).unwrap().reply.unwrap();
        pump(&mut l, &mut alice, ack);
        assert_eq!(alice.phase(), SessionPhase::Connected);
        let t2 = t1 + base + timeout / 2;
        assert!(l.tick(t2).evict.is_empty());

        // A ping read at t0 anchors her deadline at t2, the core's now.
        let ping = alice.heartbeat().unwrap();
        l.handle_at(&ping, t0).unwrap();
        assert!(l.tick(t2 + timeout).evict.is_empty());
        assert_eq!(l.tick(t2 + timeout + ms).evict, vec![id("alice")]);
    }

    /// The ARQ give-up waits out the backoff after the last budgeted
    /// resend: with one resend allowed, an unacked admin message is
    /// resent at the 100 ms base and its member evicted only when the
    /// 200 ms interval after that resend has passed.
    #[test]
    fn arq_give_up_waits_out_the_last_backoff() {
        let ms = Duration::from_millis;
        let mut l = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice"]),
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                liveness: LivenessConfig {
                    retransmit_base: ms(100),
                    retransmit_max: ms(800),
                    max_attempts: 1,
                    ..LivenessConfig::default()
                },
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        );
        let (mut alice, init) = member("alice", 112);
        pump(&mut l, &mut alice, init);
        assert_eq!(l.outstanding_count(), 0);
        l.broadcast_admin_data(b"never acked").unwrap();
        let resend = l.tick(ms(100));
        assert_eq!((resend.frames.len(), resend.evict.len()), (1, 0));
        for t in [101, 299] {
            let tick = l.tick(ms(t));
            assert!(tick.frames.is_empty() && tick.evict.is_empty(), "at {t} ms");
        }
        assert_eq!(l.tick(ms(300)).evict, vec![id("alice")]);
    }

    /// A relayed frame the network duplicates is delivered once.
    #[test]
    fn duplicated_relay_is_delivered_once() {
        let mut w = flat_world(&["alice", "bob"]);
        let up = w.uplink("alice", b"once only");
        let out = w.l.handle_at(&up, Duration::ZERO).unwrap();
        let env: Envelope = enclaves_wire::codec::decode(&out.broadcasts[0].frame).unwrap();
        let bob = w.sessions.get_mut(&id("bob")).unwrap();
        assert!(matches!(
            &bob.handle(&env).unwrap().events[..],
            [MemberEvent::Broadcast { from, data, .. }] if *from == id("alice") && data == b"once only"
        ));
        assert!(matches!(
            bob.handle(&env),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
    }

    #[test]
    fn tree_join_leave_rekey_all_members_converge() {
        let users = names(9);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 300 + i as u64);
            w.assert_converged();
        }
        // A mid-tree member leaves: everyone rotates to a key the
        // departee cannot derive.
        let before = w.l.epoch().unwrap();
        w.leave("m4");
        assert!(w.l.epoch().unwrap() > before, "leave advances the epoch");
        w.assert_converged();
        let before = w.l.epoch().unwrap();
        w.expel("m7");
        assert!(w.l.epoch().unwrap() > before, "expel advances the epoch");
        w.assert_converged();
        // A timeout eviction is the same departure.
        w.sessions.remove(&id("m1"));
        let out = w.l.evict(&id("m1")).unwrap();
        w.settle(out);
        w.assert_converged();
        // Manual rekeys rotate a different leaf each time; all converge.
        for _ in 0..4 {
            w.rekey();
            w.assert_converged();
        }
    }

    #[test]
    fn tree_rekey_costs_log_seals_and_zero_admin_seals() {
        let users = names(8);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 400 + i as u64);
        }
        let before = w.l.obs_registry().snapshot();
        w.rekey();
        let after = w.l.obs_registry().snapshot();
        assert_eq!(
            after.counter("leader.admin_seals"),
            before.counter("leader.admin_seals"),
            "tree rekey must not touch the per-member admin plane"
        );
        let seals = after.counter("leader.rekey_seals") - before.counter("leader.rekey_seals");
        // 2·ceil(log2 8) + 1 = 7.
        assert!(
            (1..=7).contains(&seals),
            "dense 8-leaf tree rekey took {seals} seals"
        );
        w.assert_converged();
    }

    #[test]
    fn tree_member_mid_update_still_opens_previous_epoch_broadcast() {
        let users = names(4);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 500 + i as u64);
        }
        // Seal a data-plane broadcast under the current epoch...
        let old = w.l.broadcast_group_data(b"pre-rekey frame").unwrap();
        let old_env: Envelope = enclaves_wire::codec::decode(&old.frame).unwrap();
        // ...then rotate via the tree before anyone sees it.
        w.rekey();
        w.assert_converged();
        // The raced frame still opens under the one-epoch grace window.
        let m0 = w.sessions.get_mut(&id("m0")).unwrap();
        let out = m0.handle(&old_env).expect("grace window admits the frame");
        assert!(
            out.events.iter().any(
                |e| matches!(e, MemberEvent::Broadcast { data, .. } if data == b"pre-rekey frame")
            ),
            "previous-epoch broadcast must still deliver"
        );
    }

    #[test]
    fn tree_expelled_member_cannot_follow_path_updates() {
        let users = names(5);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 600 + i as u64);
        }
        // Expel m2 but keep its session alive on the side: it still holds
        // every key it ever learned.
        let mut mallory = w.sessions.remove(&id("m2")).unwrap();
        let expelled_at = mallory.group_epoch().unwrap();
        let out = w.l.expel(&id("m2")).unwrap();
        // Mallory "sniffs" the expulsion PathUpdate and every later one.
        let sniffed: Vec<Envelope> = out
            .broadcasts
            .iter()
            .map(|b| enclaves_wire::codec::decode(&b.frame).unwrap())
            .collect();
        w.settle(out);
        w.rekey();
        let out2 = w.l.rekey_now().unwrap();
        let mut sniffed2: Vec<Envelope> = out2
            .broadcasts
            .iter()
            .map(|b| enclaves_wire::codec::decode(&b.frame).unwrap())
            .collect();
        sniffed2.extend(sniffed);
        w.settle(out2);
        w.assert_converged();
        for who in w.sessions.keys() {
            assert!(
                w.events[who].contains(&MemberEvent::MemberLeft(id("m2"))),
                "{who} never learned m2 was expelled"
            );
        }
        // None of the sniffed updates let the expelled member advance: no
        // seal in them targets a key it holds.
        for env in &sniffed2 {
            let _ = mallory.handle(env);
        }
        assert_eq!(
            mallory.group_epoch(),
            Some(expelled_at),
            "expelled member derived a post-expel epoch"
        );
    }

    #[test]
    fn stale_heartbeat_epoch_triggers_one_path_sync() {
        let users = names(4);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 700 + i as u64);
        }
        // Rekey but "lose" the broadcast: m1 never sees the PathUpdate.
        let out = w.l.rekey_now().unwrap();
        let lost = id("m1");
        let filtered = LeaderOutput {
            outgoing: out.outgoing,
            broadcasts: out
                .broadcasts
                .into_iter()
                .map(|mut b| {
                    b.recipients = b.recipients.without(&lost);
                    b
                })
                .collect(),
            events: out.events,
        };
        w.settle(filtered);
        assert!(
            w.sessions[&lost].group_epoch() < w.l.epoch(),
            "m1 must be stale for this test"
        );

        // An authenticated heartbeat reveals the stale epoch; the leader
        // pushes exactly one PathSync over the reliable admin channel.
        let admin_before = count(&w.l, "leader.admin_sent");
        let ping = w.sessions.get_mut(&lost).unwrap().heartbeat().unwrap();
        w.drive(vec![ping]);
        assert_eq!(w.sessions[&lost].group_epoch(), w.l.epoch());
        assert_eq!(count(&w.l, "leader.admin_sent"), admin_before + 1);

        // A second stale-free heartbeat does not resync again.
        let admin_before = count(&w.l, "leader.admin_sent");
        let ping = w.sessions.get_mut(&lost).unwrap().heartbeat().unwrap();
        w.drive(vec![ping]);
        assert_eq!(count(&w.l, "leader.admin_sent"), admin_before);
        w.assert_converged();
    }

    /// The joiner's path rides in its Welcome, so the very next
    /// `PathUpdate` is one it can follow — even while its Welcome's ack
    /// is still on the way, with no `PathSync` between the two.
    #[test]
    fn tree_joiner_follows_a_path_update_right_after_its_welcome() {
        let users = names(4);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users[..3].iter().enumerate() {
            w.join(u, 1100 + i as u64);
        }
        let (mut m3, init) = member_in("m3", 1103, None);
        let key_dist = w.l.handle_at(&init, Duration::ZERO).unwrap().outgoing;
        let key_ack = m3.handle(&key_dist[0]).unwrap().reply.unwrap();
        let joined = w.l.handle_at(&key_ack, Duration::ZERO).unwrap();
        let (welcome, notices): (Vec<_>, Vec<_>) = joined
            .outgoing
            .into_iter()
            .partition(|env| env.recipient == id("m3"));
        // The Welcome lands; its ack is withheld.
        let welcomed = m3.handle(&welcome[0]).unwrap();
        assert!(matches!(
            welcomed.events[..],
            [MemberEvent::Welcomed { epoch, .. }] if Some(epoch) == w.l.epoch()
        ));
        w.settle(LeaderOutput {
            outgoing: notices,
            broadcasts: joined.broadcasts,
            ..LeaderOutput::default()
        });
        let rekey = w.l.rekey_now().unwrap();
        let update: Envelope = enclaves_wire::codec::decode(&rekey.broadcasts[0].frame).unwrap();
        let followed = m3.handle(&update).unwrap();
        assert_eq!(
            followed.events,
            vec![MemberEvent::GroupKeyChanged {
                epoch: w.l.epoch().unwrap()
            }]
        );
        assert_eq!(m3.group_epoch(), w.l.epoch());
        w.settle(rekey);
        w.sessions.insert(id("m3"), m3);
        w.assert_converged();
    }

    /// A tree join is one admin message: the `TreeWelcome`, sealed once,
    /// with no `PathSync` queued behind it. A resync still goes by
    /// `PathSync`, one per missed epoch (see
    /// `stale_heartbeat_epoch_triggers_one_path_sync`).
    #[test]
    fn tree_join_is_one_admin_message() {
        let users = names(5);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let config = LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            membership_notices: false,
            tree_rekey: true,
            ..LeaderConfig::default()
        };
        let mut w = TreeWorld::with_config(&refs, config);
        for (i, u) in users.iter().enumerate() {
            let before = w.l.obs_registry().snapshot();
            w.join(u, 1200 + i as u64);
            let after = w.l.obs_registry().snapshot();
            for name in ["leader.admin_sent", "leader.admin_seals"] {
                assert_eq!(after.counter(name) - before.counter(name), 1, "{u}: {name}");
            }
            assert_eq!(w.l.outstanding_count(), 0, "{u}: nothing queued");
        }
        w.assert_converged();
    }

    /// In tree mode the group key is the tree root's derivation at every
    /// Welcome: after a plain join, after a reinit, and on a re-admission
    /// after a journal recovery. A `TreeWelcome` therefore carries no key,
    /// and the key each joiner derives opens the leader's next broadcast.
    #[test]
    fn tree_welcome_key_is_the_root_derivation_at_every_join() {
        use crate::journal::{genesis_for, label_for, JournalDir, ReadMode};
        fn tree_derived(l: &LeaderCore) {
            let e = l.group.current_epoch().unwrap();
            let root = l.tree.as_ref().unwrap().root_key().unwrap();
            let (key, iv) = treekdf::derive_group(&root, e.epoch);
            assert_eq!((*e.key.as_bytes(), e.iv), (key, iv), "epoch {}", e.epoch);
        }
        fn opens_the_next_broadcast(w: &mut TreeWorld, who: &str) {
            let frame = w.l.broadcast_group_data(who.as_bytes()).unwrap().frame;
            let env: Envelope = enclaves_wire::codec::decode(&frame).unwrap();
            let out = w.sessions.get_mut(&id(who)).unwrap().handle(&env).unwrap();
            assert!(
                matches!(&out.events[..], [MemberEvent::Broadcast { data, .. }] if data == who.as_bytes()),
                "{who}"
            );
        }
        let tmp = TempJournal::new("tree-welcome-key");
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let users = names(12);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        let genesis = genesis_for(w.l.leader_id(), &w.l.directory, &w.l.config);
        w.l.attach_journal(dir.create_stream(&label_for(None), &genesis).unwrap());
        for (i, u) in users[..10].iter().enumerate() {
            w.join(u, 1300 + i as u64);
            tree_derived(&w.l);
            opens_the_next_broadcast(&mut w, u);
        }
        // Six of ten leave: the tree is mostly blank and is rebuilt.
        let epoch = w.l.epoch().unwrap();
        for u in &users[..6] {
            w.leave(u);
        }
        assert!(w.l.tree.as_ref().unwrap().leaf_count() <= 8, "reinit ran");
        assert!(w.l.epoch().unwrap() > epoch);
        w.assert_converged();
        w.join("m10", 1310);
        tree_derived(&w.l);
        opens_the_next_broadcast(&mut w, "m10");
        w.assert_converged();

        // A restart: every session dies with the old core, and each
        // survivor is re-admitted onto its recovered leaf.
        let replay = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        let mut recovered = LeaderCore::recover(&replay).unwrap();
        recovered.recovery_advance(replay.fenced_epoch).unwrap();
        tree_derived(&recovered);
        w.l = recovered;
        w.sessions.clear();
        for (i, u) in users[6..11].iter().enumerate() {
            w.join(u, 1400 + i as u64);
            tree_derived(&w.l);
            opens_the_next_broadcast(&mut w, u);
        }
        w.join("m11", 1411);
        tree_derived(&w.l);
        w.rekey();
        w.assert_converged();
    }

    /// An honest `PathUpdate` frame is exactly its envelope header, the
    /// 20-byte head, one 12-byte nonce base and 52 bytes per seal, and no
    /// two of its ciphers share a nonce.
    #[test]
    fn tree_path_update_frame_is_at_its_wire_size_with_distinct_nonces() {
        let users = names(13);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 1500 + i as u64);
        }
        w.leave("m5");
        for _ in 0..3 {
            let out = w.l.rekey_now().unwrap();
            let frame = &out.broadcasts[0].frame;
            let env: Envelope = enclaves_wire::codec::decode(frame).unwrap();
            let wire: PathUpdateWire = enclaves_wire::codec::decode(&env.body).unwrap();
            let header = encode(&Envelope {
                body: Vec::new(),
                ..env.clone()
            })
            .len();
            let k = wire.ciphers.len();
            assert!(k > 1, "a multi-seal update");
            assert_eq!(frame.len(), header + 20 + 12 + 52 * k);
            let nonces: std::collections::HashSet<_> = wire
                .ciphers
                .iter()
                .map(|(node, _)| cipher_nonce(wire.nonce, *node))
                .collect();
            assert_eq!(nonces.len(), k, "a nonce repeated within one frame");
            w.settle(out);
            w.assert_converged();
        }
    }

    // -----------------------------------------------------------------
    // Batch commits: joins staged by `stage_at`, admitted by `commit`.
    // -----------------------------------------------------------------

    impl TreeWorld {
        /// Runs `user`'s handshake up to its `AuthAckKey`, which it
        /// returns unsent; the session joins the world.
        fn handshake(&mut self, user: &str, seed: u64) -> Envelope {
            let (mut session, init) = member_in(user, seed, self.l.group_id().cloned());
            let kd = self.l.handle_at(&init, Duration::ZERO).unwrap().outgoing;
            let ack = session.handle(&kd[0]).unwrap().reply.unwrap();
            self.sessions.insert(id(user), session);
            ack
        }

        /// Stages each handshake ack; every stage returns nothing.
        fn stage(&mut self, acks: &[Envelope]) {
            for ack in acks {
                let out = self.l.stage_at(ack, Duration::ZERO).unwrap();
                assert!(
                    out.outgoing.is_empty() && out.broadcasts.is_empty() && out.events.is_empty()
                );
            }
        }
    }

    // A commit of five joins over a 64-member tree — two of them members
    // re-admitted after a leader restart, three new — is one journal
    // record and one `PathUpdate`: every member already in follows that
    // frame, which names at most one cipher per level of its path; each
    // joiner's Welcome derives the leader's key; no joiner opens a
    // broadcast sealed before the commit; and no cipher opens under a key
    // a re-admitted leaf held before.
    #[test]
    fn a_batch_commit_admits_five_in_one_epoch_and_one_frame() {
        use crate::journal::{genesis_for, label_for, JournalDir, ReadMode};
        use crate::protocol::keytree::{level, on_direct_path};
        use enclaves_crypto::nonce::AeadNonce;
        use enclaves_wire::message::path_update_aad;
        let tmp = TempJournal::new("batch");
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let users = names(67);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        let genesis = genesis_for(w.l.leader_id(), &w.l.directory, &w.l.config);
        w.l.attach_journal(dir.create_stream(&label_for(None), &genesis).unwrap());
        for (i, u) in users.iter().take(64).enumerate() {
            w.join(u, 3000 + i as u64);
        }
        // The restart: the recovered core holds the 64-leaf tree and
        // roster, and no session. Sixty-two come back one by one.
        let replay = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        w.l = LeaderCore::recover(&replay).unwrap();
        w.l.attach_journal(dir.open_writer(&label_for(None), &replay).unwrap());
        w.sessions.clear();
        for (i, u) in users.iter().take(62).enumerate() {
            w.join(u, 4000 + i as u64);
        }
        w.assert_converged();
        let tree = w.l.tree.as_ref().unwrap();
        assert_eq!(tree.leaf_count(), 64);
        let old_keys: Vec<NodeKey> = ["m62", "m63"]
            .iter()
            .flat_map(|u| tree.path_keys(&id(u)).unwrap().1)
            .collect();
        let before: Envelope =
            enclaves_wire::codec::decode(&w.l.broadcast_group_data(b"before").unwrap().frame)
                .unwrap();
        let epoch = w.l.epoch().unwrap();
        let appends = count(&w.l, "leader.journal.appends");

        let joiners = ["m62", "m63", "m64", "m65", "m66"];
        let acks: Vec<Envelope> = joiners
            .iter()
            .enumerate()
            .map(|(i, u)| w.handshake(u, 5000 + i as u64))
            .collect();
        w.stage(&acks);
        assert_eq!(w.l.epoch(), Some(epoch), "staging moves nothing");
        let out = w.l.commit().unwrap();
        assert_eq!(w.l.epoch(), Some(epoch + 1), "one epoch for five joins");
        assert_eq!(count(&w.l, "leader.journal.appends"), appends + 1);
        // The recovered core's registry counts the 62 re-admissions and
        // the batch: 63 commits of 67 joins.
        let batches = w.l.obs_registry().snapshot();
        let joins = &batches.histograms["leader.commit_joins"];
        assert_eq!((joins.count, joins.sum), (63, 67));
        let welcomes = out
            .outgoing
            .iter()
            .filter(|e| joiners.contains(&e.recipient.as_str()))
            .count();
        assert_eq!(welcomes, 5, "one Welcome per joiner, nothing else to them");
        assert_eq!(out.broadcasts.len(), 1, "one PathUpdate for the batch");
        assert_eq!(
            out.events
                .iter()
                .filter(|e| matches!(e, LeaderEvent::Rekeyed(_)))
                .count(),
            1
        );

        let update: Envelope = enclaves_wire::codec::decode(&out.broadcasts[0].frame).unwrap();
        let wire: PathUpdateWire = enclaves_wire::codec::decode(&update.body).unwrap();
        let tree = w.l.tree.as_ref().unwrap();
        let mut slots: Vec<u32> = joiners
            .iter()
            .map(|u| tree.leaf_of(&id(u)).unwrap())
            .collect();
        slots.sort_unstable();
        assert_eq!(wire.leaves, slots);
        assert_eq!(wire.leaf_count, 67);
        for u in users.iter().take(62) {
            let slot = tree.leaf_of(&id(u)).unwrap();
            let mut levels = HashSet::new();
            for (node, _) in &wire.ciphers {
                if on_direct_path(*node, slot, wire.leaf_count) {
                    assert!(levels.insert(level(*node)), "{u}: two ciphers at one level");
                }
            }
        }
        for (node, sealed) in &wire.ciphers {
            let aad = path_update_aad(
                &id("leader"),
                wire.epoch,
                wire.leaf_count,
                &wire.leaves,
                *node,
                None,
            );
            let nonce = AeadNonce::from_bytes(cipher_nonce(wire.nonce, *node));
            for key in &old_keys {
                assert!(
                    ChaCha20Poly1305::new(key)
                        .open(&nonce, sealed, &aad)
                        .is_err(),
                    "a cipher at node {node} opens under a re-admitted leaf's old key"
                );
            }
        }

        w.settle(out);
        w.assert_converged();
        for u in joiners {
            let s = w.sessions.get_mut(&id(u)).unwrap();
            assert_eq!(
                s.handle(&before).unwrap_err(),
                CoreError::Rejected(RejectReason::WrongEpoch),
                "{u} opened a broadcast sealed before its commit"
            );
        }
        let after: Envelope =
            enclaves_wire::codec::decode(&w.l.broadcast_group_data(b"after").unwrap().frame)
                .unwrap();
        for (who, s) in &mut w.sessions {
            let events = s.handle(&after).unwrap().events;
            assert!(
                matches!(&events[..], [MemberEvent::Broadcast { data, .. }] if data == b"after"),
                "{who} cannot open the first broadcast after the commit"
            );
        }
        // The batch replays, as one record, to the live state.
        let replay = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        assert_eq!(
            LeaderCore::recover(&replay).unwrap().durable_digest(),
            w.l.durable_digest()
        );
    }

    // Admission control counts a staged join: it holds its seat, so a
    // handshake that finds the room full is refused at `AuthInitReq`, and
    // one already past it at its ack.
    #[test]
    fn staged_joins_hold_their_seats() {
        let users = names(5);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::with_config(
            &refs,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                tree_rekey: true,
                max_members: 3,
                ..LeaderConfig::default()
            },
        );
        w.join("m0", 60);
        let ack1 = w.handshake("m1", 61);
        let ack2 = w.handshake("m2", 62);
        let ack3 = w.handshake("m3", 63);
        w.stage(&[ack1, ack2]);
        assert_eq!(
            w.l.stage_at(&ack3, Duration::ZERO).unwrap_err(),
            CoreError::Rejected(RejectReason::UnexpectedType),
            "the third seat went to a staged join"
        );
        let (_, init4) = member("m4", 64);
        assert_eq!(
            w.l.stage_at(&init4, Duration::ZERO).unwrap_err(),
            CoreError::Rejected(RejectReason::UnexpectedType)
        );
        assert_eq!(w.l.roster().len(), 1);
        let out = w.l.commit().unwrap();
        w.sessions.remove(&id("m3"));
        w.settle(out);
        assert_eq!(w.l.roster().len(), 3);
        w.assert_converged();
    }

    // A staged user is no member until its commit: its heartbeat and a
    // second copy of its ack are refused as a non-member's, with nothing
    // sent and nothing moved; its close drops the session and the join,
    // so the commit after it admits nobody; and it can start over.
    #[test]
    fn a_staged_members_own_frames_are_a_non_members() {
        let users = names(3);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        w.join("m0", 70);
        w.join("m1", 71);
        let ack = w.handshake("m2", 72);
        w.stage(std::slice::from_ref(&ack));
        let (digest, epoch) = (w.l.durable_digest(), w.l.epoch());
        let s = w.sessions.get_mut(&id("m2")).unwrap();
        let ping = s.heartbeat().unwrap();
        assert!(s.send_group_data(b"early").is_err(), "no Welcome, no data");
        let close = s.leave().unwrap();
        for env in [&ping, &ack] {
            assert_eq!(
                w.l.stage_at(env, Duration::ZERO).unwrap_err(),
                CoreError::Rejected(RejectReason::UnexpectedType)
            );
            assert_eq!((w.l.durable_digest(), w.l.epoch()), (digest, epoch));
        }
        let out = w.l.stage_at(&close, Duration::ZERO).unwrap();
        assert!(out.outgoing.is_empty() && out.broadcasts.is_empty() && out.events.is_empty());
        let out = w.l.commit().unwrap();
        assert!(out.outgoing.is_empty() && out.broadcasts.is_empty() && out.events.is_empty());
        assert_eq!((w.l.durable_digest(), w.l.epoch()), (digest, epoch));
        assert!(!w.l.slots.contains_key(&id("m2")));
        w.sessions.remove(&id("m2"));
        w.join("m2", 73);
        assert_eq!(w.l.roster().len(), 3);
        w.assert_converged();
    }

    // In flat mode a batch is its joins plus at most one policy rekey:
    // the members already in get one `NewGroupKey` each, the joiners a
    // Welcome under the new key; a batch into an empty group, where
    // nobody held an old key, rekeys nothing.
    #[test]
    fn a_flat_batch_rekeys_at_most_once() {
        let users = names(5);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let config = LeaderConfig {
            rekey_policy: RekeyPolicy::OnJoinAndLeave,
            ..LeaderConfig::default()
        };
        let mut w = TreeWorld::with_config(&refs, config.clone());
        let acks = [w.handshake("m0", 80), w.handshake("m1", 81)];
        w.stage(&acks);
        let out = w.l.commit().unwrap();
        assert!(!out
            .events
            .iter()
            .any(|e| matches!(e, LeaderEvent::Rekeyed(_))));
        w.settle(out);
        assert_eq!(w.l.epoch(), Some(1));
        let acks = [
            w.handshake("m2", 82),
            w.handshake("m3", 83),
            w.handshake("m4", 84),
        ];
        w.stage(&acks);
        let rekeys = count(&w.l, "leader.rekeys");
        let out = w.l.commit().unwrap();
        assert_eq!(count(&w.l, "leader.rekeys"), rekeys + 1);
        assert_eq!(w.l.epoch(), Some(2));
        let new_keys = out
            .outgoing
            .iter()
            .filter(|e| ["m0", "m1"].contains(&e.recipient.as_str()))
            .count();
        // Each of m0 and m1 has one admin frame in flight, the first of
        // its three notices; the key and the rest queue behind it.
        assert_eq!(new_keys, 2);
        w.settle(out);
        w.assert_converged();
    }

    /// A forged `PathUpdate` with garbage seals addressed to nodes 0..5.
    fn forged_path_update(epoch: u64, leaf_count: u32, updated_leaf: u32) -> Envelope {
        Envelope {
            msg_type: MsgType::PathUpdate,
            sender: id("leader"),
            recipient: id("leader"),
            group: None,
            body: encode(&PathUpdateWire {
                epoch,
                leaf_count,
                leaves: vec![updated_leaf],
                nonce: [7; 12],
                ciphers: (0..5).map(|i| (i, vec![0x55; 48])).collect(),
            }),
        }
    }

    #[test]
    fn tree_forged_path_update_rejected_without_state_change() {
        let users = names(3);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 900 + i as u64);
        }
        let epoch = w.l.epoch().unwrap();
        // A forged PathUpdate claiming the next epoch, with garbage seals.
        let forged = forged_path_update(epoch + 1, 3, 0);
        let m0 = w.sessions.get_mut(&id("m0")).unwrap();
        assert!(
            m0.handle(&forged).is_err(),
            "forged update must be rejected"
        );
        assert_eq!(m0.group_epoch(), Some(epoch), "state unchanged");
        // The honest flow still works afterwards.
        w.rekey();
        w.assert_converged();
    }

    #[test]
    fn tree_forged_path_update_with_impossible_shape_is_malformed() {
        // The outer frame is unauthenticated and the next epoch number is
        // readable from any multicast, so a tree shape that excludes the
        // member's own leaf (or the updated one) must be refused before
        // any tree walk runs on it: these shapes used to spin the walk
        // forever in release builds.
        let users = names(3);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 950 + i as u64);
        }
        let epoch = w.l.epoch().unwrap();
        let m2 = w.sessions.get_mut(&id("m2")).unwrap();
        for (leaf_count, updated_leaf) in [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 3),
            (3, u32::MAX),
            (u32::MAX, 0),
            ((1 << 30) + 1, 0),
        ] {
            assert_eq!(
                m2.handle(&forged_path_update(epoch + 1, leaf_count, updated_leaf))
                    .unwrap_err(),
                CoreError::Rejected(RejectReason::Malformed),
                "leaf_count {leaf_count}, updated_leaf {updated_leaf}"
            );
            assert_eq!(m2.group_epoch(), Some(epoch), "state unchanged");
        }
        w.rekey();
        w.assert_converged();
    }

    /// What a forged frame can cost a member before it is refused: the
    /// ciphers are noted per node of the member's own path and a node named
    /// twice is `Malformed` before anything is opened, so the 10 000-cipher
    /// frame that used to buy 10 000 AEAD opens (and `BadSeal`) buys none.
    /// Every row leaves epoch and tree alone, and the honest update the
    /// rows were cut from still lands afterwards.
    #[test]
    fn tree_path_update_naming_a_path_node_twice_is_malformed_before_any_open() {
        use crate::protocol::keytree::on_direct_path;
        let users = names(5);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        for (i, u) in users.iter().enumerate() {
            w.join(u, 970 + i as u64);
        }
        let epoch = w.l.epoch().unwrap();
        let out = w.l.rekey_now().unwrap();
        let honest_env: Envelope = enclaves_wire::codec::decode(&out.broadcasts[0].frame).unwrap();
        let honest: PathUpdateWire = enclaves_wire::codec::decode(&honest_env.body).unwrap();
        // m0 sits at leaf slot 0; exactly one honest cipher is on its path.
        let on_path = |node: u32| on_direct_path(node, 0, honest.leaf_count);
        let mine: Vec<_> = honest
            .ciphers
            .iter()
            .filter(|(node, _)| on_path(*node))
            .cloned()
            .collect();
        assert_eq!(mine.len(), 1);
        let (my_node, my_cipher) = mine[0].clone();
        let garbage = vec![0x55; 48];
        let off_path = (0..).find(|n| !on_path(*n)).unwrap();
        let with = |ciphers: Vec<(u32, Vec<u8>)>| {
            encode(&PathUpdateWire {
                ciphers,
                ..honest.clone()
            })
        };
        let malformed = CoreError::Rejected(RejectReason::Malformed);
        let bad_seal = CoreError::Rejected(RejectReason::BadSeal);
        let rows: Vec<(&str, Vec<u8>, &CoreError)> = vec![
            (
                "the honest cipher twice",
                with(vec![
                    (my_node, my_cipher.clone()),
                    (my_node, my_cipher.clone()),
                ]),
                &malformed,
            ),
            (
                "the honest cipher, then garbage for its node",
                with(vec![
                    (my_node, my_cipher.clone()),
                    (my_node, garbage.clone()),
                ]),
                &malformed,
            ),
            (
                "garbage for a path node, then the honest cipher",
                with(vec![
                    (my_node, garbage.clone()),
                    (my_node, my_cipher.clone()),
                ]),
                &malformed,
            ),
            (
                "10 000 ciphers for one path node",
                with(vec![(0, garbage.clone()); 10_000]),
                &malformed,
            ),
            (
                "10 000 ciphers for a node off the path",
                with(vec![(off_path, garbage.clone()); 10_000]),
                &bad_seal,
            ),
            (
                "one garbage cipher per path node",
                with(vec![
                    (0, garbage.clone()),
                    (1, garbage.clone()),
                    (3, garbage.clone()),
                ]),
                &bad_seal,
            ),
            (
                "bytes after the last cipher",
                {
                    let mut body = encode(&honest);
                    body.push(0);
                    body
                },
                &malformed,
            ),
            (
                "fewer ciphers than claimed",
                {
                    let mut body = encode(&honest);
                    body.truncate(body.len() - 1);
                    body
                },
                &malformed,
            ),
        ];
        let m0 = w.sessions.get_mut(&id("m0")).unwrap();
        for (name, body, expect) in rows {
            let forged = Envelope {
                body,
                ..honest_env.clone()
            };
            assert_eq!(&m0.handle(&forged).unwrap_err(), expect, "{name}");
            assert_eq!(m0.group_epoch(), Some(epoch), "{name}: state unchanged");
        }
        // The update the rows were cut from is still the next one m0 takes,
        // and the tree it left behind follows the one after.
        w.settle(out);
        w.assert_converged();
        assert_eq!(w.l.epoch(), Some(epoch + 1));
        w.rekey();
        w.assert_converged();
    }

    // -----------------------------------------------------------------
    // Write-ahead journal: live core vs recovered core.
    // -----------------------------------------------------------------

    /// A scratch journal directory removed on drop.
    struct TempJournal(std::path::PathBuf);

    impl TempJournal {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "enclaves-leader-journal-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            TempJournal(path)
        }
    }

    impl Drop for TempJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn journaled_flat_core_recovers_byte_identical() {
        use crate::journal::{genesis_for, label_for, JournalDir, ReadMode};
        let tmp = TempJournal::new("flat");
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let mut l = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice", "bob"]),
            LeaderConfig {
                rekey_policy: RekeyPolicy::OnJoinAndLeave,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(7)),
        );
        let genesis = genesis_for(l.leader_id(), &l.directory, &l.config);
        l.attach_journal(dir.create_stream(&label_for(None), &genesis).unwrap());

        let (mut alice, init_a) = member("alice", 500);
        pump(&mut l, &mut alice, init_a);
        let (mut bob, init_b) = member("bob", 501);
        join_second(&mut l, &mut [("alice", &mut alice)], &mut bob, init_b);
        l.rekey_now().unwrap();
        let env = alice.leave().unwrap();
        l.handle_at(&env, Duration::ZERO).unwrap();
        assert!(count(&l, "leader.rekeys") >= 3);

        let replay = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        let recovered = LeaderCore::recover(&replay).unwrap();
        assert_eq!(recovered.roster(), l.roster());
        assert_eq!(recovered.epoch(), l.epoch());
        assert_eq!(
            recovered.durable_digest(),
            l.durable_digest(),
            "replay must land byte-identically on the live state"
        );
    }

    #[test]
    fn journaled_tree_core_recovers_and_advances_past_fence() {
        use crate::journal::{genesis_for, label_for, JournalDir, ReadMode, FENCE_LEASE};
        let tmp = TempJournal::new("tree");
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let users = names(6);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        let genesis = genesis_for(w.l.leader_id(), &w.l.directory, &w.l.config);
        w.l.attach_journal(dir.create_stream(&label_for(None), &genesis).unwrap());
        for (i, u) in users.iter().enumerate() {
            w.join(u, 520 + i as u64);
        }
        w.leave("m2");
        w.rekey();
        w.assert_converged();
        let live_epoch = w.l.epoch().unwrap();

        let replay = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        let fence = replay.fenced_epoch.expect("the joins fenced");
        assert!(
            (live_epoch..=live_epoch + FENCE_LEASE).contains(&fence),
            "the fence leads the highest journaled epoch by at most one lease"
        );
        let snap = w.l.obs_registry().snapshot();
        assert_eq!(snap.counter("leader.journal.fence_writes"), 1);
        assert!(snap.counter("leader.journal.appends") > 1);
        let mut recovered = LeaderCore::recover(&replay).unwrap();
        assert_eq!(recovered.durable_digest(), w.l.durable_digest());

        // The post-recovery epoch jump lands strictly past the fence and
        // is itself journaled: a second replay reproduces it exactly.
        recovered.attach_journal(dir.open_writer(&label_for(None), &replay).unwrap());
        let new_epoch = recovered
            .recovery_advance(replay.fenced_epoch)
            .unwrap()
            .unwrap();
        assert!(new_epoch > fence, "recovery restarts past the lease");
        let replay2 = dir
            .replay_stream(&label_for(None), ReadMode::Strict)
            .unwrap();
        let recovered2 = LeaderCore::recover(&replay2).unwrap();
        assert_eq!(recovered2.epoch(), Some(new_epoch));
        assert_eq!(recovered2.durable_digest(), recovered.durable_digest());
    }

    /// A zero-length fence (a first creation cut before its write) reads
    /// as no fence, and recovery still lands past the replayed epoch.
    #[test]
    fn journaled_core_over_an_empty_fence_recovers_past_the_replayed_epoch() {
        use crate::journal::FENCE_LEASE;
        use crate::journal::{fence_file_name, genesis_for, label_for, JournalDir, ReadMode};
        let tmp = TempJournal::new("empty-fence");
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let label = label_for(None);
        let users = names(3);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::new(&refs);
        let genesis = genesis_for(w.l.leader_id(), &w.l.directory, &w.l.config);
        w.l.attach_journal(dir.create_stream(&label, &genesis).unwrap());
        for (i, u) in users.iter().enumerate() {
            w.join(u, 540 + i as u64);
        }
        w.rekey();
        let live_epoch = w.l.epoch().unwrap();
        std::fs::File::create(tmp.0.join(fence_file_name(&label))).unwrap();

        let replay = dir.replay_stream(&label, ReadMode::Recover).unwrap();
        assert_eq!(replay.fenced_epoch, None);
        let mut recovered = LeaderCore::recover(&replay).unwrap();
        recovered.attach_journal(dir.open_writer(&label, &replay).unwrap());
        let new_epoch = recovered.recovery_advance(None).unwrap().unwrap();
        assert!(
            new_epoch > live_epoch,
            "{new_epoch} is not past {live_epoch}"
        );
        assert_eq!(
            dir.read_fence(&label).unwrap(),
            Some(new_epoch + FENCE_LEASE)
        );
    }

    /// Runs one fixed history on a seeded leader and returns the SHA-256
    /// (hex) of every byte it put on the wire, retransmits included.
    fn seeded_script(config: LeaderConfig, journal: Option<&str>) -> String {
        use crate::journal::{genesis_for, label_for, JournalDir};
        let users = names(6);
        let refs: Vec<&str> = users.iter().map(String::as_str).collect();
        let mut w = TreeWorld::with_config(&refs, config);
        let _tmp = journal.map(|tag| {
            let tmp = TempJournal::new(tag);
            let dir = JournalDir::open_or_init(&tmp.0).unwrap();
            let genesis = genesis_for(w.l.leader_id(), &w.l.directory, &w.l.config);
            let label = label_for(w.l.group_id());
            w.l.attach_journal(dir.create_stream(&label, &genesis).unwrap());
            tmp
        });
        for (i, u) in users.iter().enumerate() {
            w.join(u, 1000 + i as u64);
        }
        w.leave("m2");
        w.expel("m4");
        w.rekey();
        // An admin broadcast whose acks are late: every member's frame
        // comes due once, out of the retransmit cache, before they land.
        let out = w.l.broadcast_admin_data(b"seeded script").unwrap();
        assert_eq!(out.outgoing.len(), 4);
        let mut due = w.l.tick(w.l.config.liveness.retransmit_base).frames;
        assert_eq!(due.len(), 4);
        // Slot iteration is in per-instance hash order.
        due.sort_by_key(|(user, _)| user.to_string());
        for (_, frame) in &due {
            w.wire.update(frame);
        }
        w.settle(out);
        w.assert_converged();
        assert_eq!(w.l.outstanding_count(), 0);
        w.wire
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// `FLAT` was computed by this same test body at the commit before the
    /// stage/seal/commit pipeline was collapsed into `send_admin`: wire
    /// bytes, RNG draw order and retransmit-cache contents are what they
    /// were. `TREE` was re-pinned twice. First when the tree key schedule
    /// became one ChaCha20 block a level: same frames, same sizes, same
    /// draws, different key material inside the seals (with the old
    /// schedule swapped back in, that commit's code still produced the old
    /// digest). Then when a `PathUpdate` took one nonce base per frame and
    /// a join's `PathSync` folded into a `TreeWelcome`: fewer bytes and
    /// fewer draws (with the per-seal nonces and the two-message join
    /// swapped back in, that commit's code still produced the old digest).
    #[test]
    fn seeded_script_wire_bytes_are_pinned() {
        let flat = LeaderConfig {
            rekey_policy: RekeyPolicy::OnJoinAndLeave,
            ..LeaderConfig::default()
        };
        // The benchmark's settings.
        let tree = LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            membership_notices: false,
            tree_rekey: true,
            group: Some(GroupId::new("bench").unwrap()),
            ..LeaderConfig::default()
        };
        // The journal draws nothing from the leader's RNG, so it must not
        // move a byte either.
        const FLAT: &str = "ba35ce5dd1257f729a49cf99f02199f5d716ebcfc768b96ee4b29d270b07339e";
        const TREE: &str = "8591d9134c77f0621ef4ce48babffc443509b8046d3d175785f167df1821fcf0";
        for (name, config, journal, digest) in [
            ("flat", flat, None, FLAT),
            ("tree", tree.clone(), None, TREE),
            ("tree, journaled", tree, Some("script"), TREE),
        ] {
            assert_eq!(seeded_script(config, journal), digest, "{name}");
        }
    }

    #[test]
    fn recovery_advance_without_epoch_or_fence_is_a_no_op() {
        let mut l = leader(&["alice"], RekeyPolicy::Manual);
        assert_eq!(l.recovery_advance(None).unwrap(), None);
        assert_eq!(l.epoch(), None);
        // With a fence but no epoch (stale-journal restore of a pre-join
        // stream), the core still jumps past the fence.
        assert_eq!(l.recovery_advance(Some(9)).unwrap(), Some(10));
        assert_eq!(l.epoch(), Some(10));
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A leader for alice, bob and carol whose timers run on `liveness`.
    fn timed_leader(liveness: LivenessConfig) -> LeaderCore {
        thread_local! {
            static USERS: Directory = directory(&["alice", "bob", "carol"]);
        }
        LeaderCore::with_rng(
            id("leader"),
            USERS.with(Clone::clone),
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                liveness,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(5)),
        )
    }

    /// Retransmits every 100 ms, flat, with no silence deadline.
    fn flat_100ms() -> LivenessConfig {
        LivenessConfig {
            retransmit_base: ms(100),
            retransmit_max: ms(100),
            ..LivenessConfig::default()
        }
    }

    /// The core's next deadline, after checking that a tick one
    /// nanosecond before it does nothing and leaves it in place.
    fn leader_quiet_until_deadline(l: &mut LeaderCore) -> Duration {
        let due = l.next_deadline().expect("a timer is armed");
        let early = l.tick(due - Duration::from_nanos(1));
        assert!(early.frames.is_empty(), "a frame before {due:?}");
        assert!(early.evict.is_empty(), "an eviction before {due:?}");
        assert_eq!(l.next_deadline(), Some(due));
        due
    }

    #[test]
    fn leader_next_deadline_is_none_with_nothing_armed() {
        let mut l = timed_leader(flat_100ms());
        assert_eq!(l.next_deadline(), None);
        let (mut alice, init) = member("alice", 60);
        pump(&mut l, &mut alice, init);
        l.tick(ms(0));
        assert_eq!(l.next_deadline(), None, "joined, acked, no timeout");
        assert_eq!(count(&l, "leader.ticks"), 1);
    }

    #[test]
    fn leader_next_deadline_is_the_handshake_replys_resend() {
        let mut l = timed_leader(flat_100ms());
        let (_alice, init) = member("alice", 61);
        let reply = l.handle_at(&init, ms(40)).unwrap().outgoing;
        assert_eq!(l.next_deadline(), Some(ms(140)));
        let due = leader_quiet_until_deadline(&mut l);
        assert_eq!(due_envelopes(&l.tick(due)), reply);
        assert_eq!(l.next_deadline(), Some(ms(240)));
    }

    #[test]
    fn leader_next_deadline_is_an_admin_frames_resend() {
        let mut l = timed_leader(flat_100ms());
        let (mut alice, init) = member("alice", 62);
        pump(&mut l, &mut alice, init);
        l.tick(ms(1000));
        assert_eq!(l.next_deadline(), None);
        let sent = l.broadcast_admin_data(b"armed").unwrap().outgoing;
        assert_eq!(l.next_deadline(), Some(ms(1100)));
        let due = leader_quiet_until_deadline(&mut l);
        assert_eq!(due_envelopes(&l.tick(due)), sent);
        assert_eq!(l.next_deadline(), Some(ms(1200)));
    }

    /// A new member's silence deadline counts from the moment it joins,
    /// even before its Welcome's resend would wake the core.
    #[test]
    fn leader_next_deadline_is_the_silence_timeout_plus_one_nanosecond() {
        let mut l = timed_leader(LivenessConfig {
            liveness_timeout: Some(ms(50)),
            ..flat_100ms()
        });
        let (mut alice, init) = member("alice", 63);
        let key_dist = l.handle_at(&init, ms(0)).unwrap().outgoing;
        let ack = alice.handle(&key_dist[0]).unwrap().reply.unwrap();
        l.handle_at(&ack, ms(30)).unwrap();
        let due = ms(80) + Duration::from_nanos(1);
        assert_eq!(l.next_deadline(), Some(due), "sooner than the Welcome's");
        assert_eq!(leader_quiet_until_deadline(&mut l), due);
        assert_eq!(l.tick(due).evict, vec![id("alice")]);
    }

    /// A join staged for the next commit has no timer: its handshake
    /// reply was answered, and it is no member yet, so it has no silence
    /// deadline either.
    #[test]
    fn leader_next_deadline_a_staged_slot_arms_nothing() {
        let mut l = timed_leader(LivenessConfig {
            liveness_timeout: Some(ms(1000)),
            ..flat_100ms()
        });
        let (mut alice, init) = member("alice", 64);
        let key_dist = l.handle_at(&init, ms(0)).unwrap().outgoing;
        let ack = alice.handle(&key_dist[0]).unwrap().reply.unwrap();
        l.stage_at(&ack, ms(10)).unwrap();
        assert_eq!(l.next_deadline(), Some(ms(100)), "a stale lower bound");
        let tick = l.tick(ms(20));
        assert!(tick.frames.is_empty() && tick.evict.is_empty());
        assert_eq!(l.next_deadline(), None);
        l.commit().unwrap();
        assert_eq!(l.next_deadline(), Some(ms(120)), "the Welcome's resend");
    }

    /// The stored bound runs early once a timer it counted is disarmed;
    /// the next tick puts it back on the timers that remain.
    #[test]
    fn leader_next_deadline_is_exact_after_a_tick() {
        let mut l = timed_leader(flat_100ms());
        let (mut alice, init) = member("alice", 65);
        pump(&mut l, &mut alice, init);
        let (mut bob, init) = member("bob", 66);
        join_second(&mut l, &mut [("alice", &mut alice)], &mut bob, init);
        l.tick(ms(0));
        assert_eq!(l.next_deadline(), None);
        let sent = l.broadcast_admin_data(b"one").unwrap().outgoing;
        l.tick(ms(50));
        let bobs = sent.iter().find(|e| e.recipient == id("bob")).unwrap();
        let late = l.broadcast_admin_data(b"two").unwrap().outgoing;
        assert!(late.is_empty(), "queued behind the first");
        let ack = bob.handle(bobs).unwrap().reply.unwrap();
        let next = l.handle_at(&ack, ms(50)).unwrap().outgoing;
        assert_eq!(next.len(), 1, "bob's second message, sent at 50 ms");
        assert_eq!(l.next_deadline(), Some(ms(100)), "still alice's first");
        let alices = sent.iter().find(|e| e.recipient == id("alice")).unwrap();
        let ack = alice.handle(alices).unwrap().reply.unwrap();
        l.handle_at(&ack, ms(60)).unwrap();
        assert_eq!(l.next_deadline(), Some(ms(100)), "a stale lower bound");
        l.tick(ms(60));
        assert_eq!(l.next_deadline(), Some(ms(150)), "bob's second");
    }

    /// One step of a random leader history for the deadline proptest.
    #[derive(Clone, Debug)]
    enum TimerStep {
        /// The user's member starts a handshake (when it has no slot).
        Start(usize),
        /// The oldest frame to the user arrives; its reply reaches the
        /// leader.
        Deliver(usize),
        /// The oldest frame to the user is lost.
        Lose(usize),
        /// An admin broadcast to the roster.
        Broadcast,
        /// Time passes.
        Advance(u64),
        /// A tick at the current time; its evictions run.
        Tick,
        /// A tick at a point before the deadline, given in 255ths of the
        /// way there, which must do nothing.
        Probe(u8),
    }

    fn timer_step() -> impl proptest::prelude::Strategy<Value = TimerStep> {
        use proptest::prelude::{any, Just, Strategy};
        // Deliveries and probes come up twice as often as the rest.
        proptest::prop_oneof![
            (0..3usize).prop_map(TimerStep::Start),
            (0..3usize).prop_map(TimerStep::Deliver),
            (0..3usize).prop_map(TimerStep::Deliver),
            (0..3usize).prop_map(TimerStep::Lose),
            Just(TimerStep::Broadcast),
            (0..700u64).prop_map(TimerStep::Advance),
            Just(TimerStep::Tick),
            any::<u8>().prop_map(TimerStep::Probe),
            any::<u8>().prop_map(TimerStep::Probe),
        ]
    }

    fn timer_liveness() -> impl proptest::prelude::Strategy<Value = LivenessConfig> {
        use proptest::prelude::Strategy;
        (
            (20..300u64, 1..4u32, (0..500u32, 0..4u32)),
            // Below 50: no silence deadline.
            0..1000u64,
        )
            .prop_map(|((base, stretch, (jitter_pct, max_attempts)), timeout)| {
                LivenessConfig {
                    retransmit_base: ms(base),
                    retransmit_max: ms(base) * stretch,
                    jitter_pct,
                    max_attempts,
                    liveness_timeout: (timeout >= 50).then(|| ms(timeout)),
                    jitter_seed: base,
                    ..LivenessConfig::default()
                }
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `next_deadline` is never late: over random handshakes, acks,
        /// losses, admin sends, ticks and evictions, a tick at any
        /// instant before it returns no frame and no eviction.
        #[test]
        fn leader_next_deadline_is_never_late(
            liveness in timer_liveness(),
            steps in proptest::collection::vec(timer_step(), 1..80),
        ) {
            let users = ["alice", "bob", "carol"];
            thread_local! {
                static KEYS: [LongTermKey; 3] = ["alice", "bob", "carol"]
                    .map(|u| LongTermKey::derive_from_password(&format!("pw-{u}"), u).unwrap());
            }
            let keys = KEYS.with(Clone::clone);
            let mut l = timed_leader(liveness);
            let mut sessions: Vec<Option<MemberSession>> = vec![None, None, None];
            let mut inbox: Vec<VecDeque<Envelope>> = vec![VecDeque::new(); 3];
            let mut now = Duration::ZERO;
            let route = |inbox: &mut Vec<VecDeque<Envelope>>, out: Result<LeaderOutput, CoreError>| {
                for env in out.map(|o| o.outgoing).unwrap_or_default() {
                    let i = users.iter().position(|u| env.recipient == id(u)).unwrap();
                    inbox[i].push_back(env);
                }
            };
            for (n, step) in steps.into_iter().enumerate() {
                match step {
                    TimerStep::Start(i) if !l.slots.contains_key(&id(users[i])) => {
                        let (session, init) = MemberSession::start_with_key_in_group(
                            id(users[i]),
                            id("leader"),
                            keys[i].clone(),
                            Box::new(SeededRng::from_seed(600 + n as u64)),
                            None,
                        );
                        sessions[i] = Some(session);
                        inbox[i].clear();
                        route(&mut inbox, l.handle_at(&init, now));
                    }
                    TimerStep::Start(_) => {}
                    TimerStep::Deliver(i) => {
                        let (Some(env), Some(session)) = (inbox[i].pop_front(), &mut sessions[i]) else {
                            continue;
                        };
                        if let Some(reply) = session.handle(&env).ok().and_then(|o| o.reply) {
                            route(&mut inbox, l.handle_at(&reply, now));
                        }
                    }
                    TimerStep::Lose(i) => {
                        inbox[i].pop_front();
                    }
                    TimerStep::Broadcast => route(&mut inbox, l.broadcast_admin_data(b"step")),
                    TimerStep::Advance(step) => now += ms(step),
                    TimerStep::Tick => {
                        let tick = l.tick(now);
                        for env in due_envelopes(&tick) {
                            route(&mut inbox, Ok(LeaderOutput { outgoing: vec![env], ..LeaderOutput::default() }));
                        }
                        for user in &tick.evict {
                            route(&mut inbox, l.evict(user));
                        }
                    }
                    TimerStep::Probe(share) => {
                        let Some(due) = l.next_deadline().filter(|due| *due > now) else {
                            continue;
                        };
                        let span = (due - now - Duration::from_nanos(1)).as_nanos();
                        let at = now + Duration::from_nanos(u64::try_from(span * u128::from(share) / 255).unwrap());
                        let tick = l.tick(at);
                        proptest::prop_assert!(tick.frames.is_empty(), "a resend at {:?} before {:?}", at, due);
                        proptest::prop_assert!(tick.evict.is_empty(), "an eviction at {:?} before {:?}", at, due);
                        now = at;
                    }
                }
            }
        }
    }
}
