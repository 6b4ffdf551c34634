//! The member side of the improved protocol — the user machine of
//! Figure 2, over real cryptography.

use crate::error::{CoreError, RejectReason};
use crate::group::MemberGroupView;
use crate::liveness::{Arq, ArqPoll, LivenessConfig};
use crate::protocol::keytree::{level, MemberTree, MAX_LEVELS};
use crate::protocol::{broadcast_nonce, SEQ_MEMBER};
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::keys::{GroupKey, LongTermKey, SessionKey};
use enclaves_crypto::nonce::{AeadNonce, NonceSequence, ProtocolNonce};
use enclaves_crypto::rng::{CryptoRng, OsEntropyRng};
use enclaves_crypto::treekdf::{self, SECRET_LEN};
use enclaves_obs::{Counter, EventKind, EventStream, Registry};
use enclaves_wire::codec::Encode;
use enclaves_wire::message::{
    group_broadcast_aad, open, seal, AdminPayload, AdminPlain, AuthInitPlain, Envelope,
    GroupBroadcastWire, GroupDataPlain, HeartbeatPlain, KeyDistPlain, MsgType, NonceAckPlain,
    PathCipher, PathUpdateAad, PathUpdateView,
};
use enclaves_wire::{ActorId, GroupId, Roster};
use std::time::Duration;

/// The coarse phase of a member session (mirrors Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionPhase {
    /// `AuthInitReq` sent; awaiting the leader's key distribution.
    WaitingForKey,
    /// Session established.
    Connected,
    /// Closed by [`MemberSession::leave`].
    Closed,
}

/// Events surfaced to the application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemberEvent {
    /// Authentication completed; the session key is installed.
    SessionEstablished,
    /// The leader delivered the initial roster and group key.
    Welcomed {
        /// Current members: the snapshot the `Welcome` carried, which
        /// the session also keeps as its view.
        roster: Roster,
        /// Group-key epoch installed.
        epoch: u64,
    },
    /// The group key was rotated.
    GroupKeyChanged {
        /// The new epoch.
        epoch: u64,
    },
    /// Another member joined.
    MemberJoined(ActorId),
    /// Another member left.
    MemberLeft(ActorId),
    /// Application data delivered over the admin channel.
    AdminData(Vec<u8>),
    /// Application data on the single-seal group-key data plane: the
    /// leader's own broadcast, or another member's data the leader
    /// relayed.
    Broadcast {
        /// The origin: the leader, or the member whose data was relayed.
        from: ActorId,
        /// The group-key epoch the frame was sealed under.
        epoch: u64,
        /// The per-epoch broadcast sequence number.
        seq: u64,
        /// Decrypted application bytes.
        data: Vec<u8>,
    },
    /// The host presumed the leader dead ([`MemberTick::leader_lost`] or
    /// a closed connection). A session that rejoins redials and rejoins
    /// next; otherwise this is terminal.
    LeaderLost,
    /// The runtime is rejoining as a fresh session after leader loss:
    /// everything the previous session held (key material, roster, group
    /// view) is discarded and a new handshake begins.
    RejoinStarted,
}

/// Output of handling one envelope.
#[derive(Debug, Default)]
pub struct MemberOutput {
    /// A reply to send to the leader, if any.
    pub reply: Option<Envelope>,
    /// Events for the application.
    pub events: Vec<MemberEvent>,
}

/// A frame [`MemberSession::handle`] did not reject.
enum Handled {
    /// Fresh, authenticated leader traffic: proof the leader lives.
    Fresh(MemberOutput),
    /// Accepted with no state change and no proof of life: a `PathUpdate`
    /// for an epoch already held or for a member with no tree, a re-acked
    /// admin retransmission, or a pong no newer than the last. Anyone can
    /// replay these, so they neither count as accepted nor as heard.
    Stale(MemberOutput),
}

/// Output of one [`MemberSession::tick`].
#[derive(Debug, Default)]
pub struct MemberTick {
    /// Frames to send to the leader: handshake resends and heartbeat
    /// pings, in that order.
    pub frames: Vec<Envelope>,
    /// The leader is presumed dead: the handshake ARQ gave up, or no
    /// accepted frame arrived within [`LivenessConfig::liveness_timeout`].
    pub leader_lost: bool,
}

/// The handshake ARQ's jitter tag ([`LivenessConfig::jittered_delay`]).
const HANDSHAKE_TAG: u64 = 0;

/// The member's deadlines, anchored by its first [`MemberSession::tick`].
#[derive(Clone, Copy)]
struct Timers {
    handshake: Arq,
    next_heartbeat: Duration,
    last_heard: Duration,
}

/// Registry-backed member instrumentation: counters live in an
/// `enclaves-obs` [`Registry`] (atomic, snapshot-able), the one read path,
/// and protocol actions optionally emit onto a shared [`EventStream`].
struct MemberObs {
    registry: Registry,
    accepted: Counter,
    rejected: Counter,
    admin_accepted: Counter,
    retransmits: Counter,
    heartbeats: Counter,
    rejoins: Counter,
    events: Option<EventStream>,
}

impl MemberObs {
    fn on_registry(registry: Registry) -> Self {
        MemberObs {
            accepted: registry.counter("member.accepted"),
            rejected: registry.counter("member.rejected"),
            admin_accepted: registry.counter("member.admin_accepted"),
            retransmits: registry.counter("member.retransmits"),
            heartbeats: registry.counter("member.heartbeats"),
            rejoins: registry.counter("member.rejoins"),
            events: None,
            registry,
        }
    }

    /// Emits onto the attached stream, building the event lazily so a
    /// detached session never pays for payload clones.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(events) = &self.events {
            events.emit(kind());
        }
    }
}

struct Connected {
    session_key: SessionKey,
    /// The last nonce this member generated (`N_{2i+1}`): the one the next
    /// `AdminMsg` must echo.
    my_nonce: ProtocolNonce,
    send_seq: NonceSequence,
    group: Option<MemberGroupView>,
    /// The immediately previous group key, kept for one epoch of grace so
    /// a broadcast frame that races a rekey can still be opened. Older
    /// epochs are evicted and their frames rejected.
    prev_group: Option<MemberGroupView>,
    /// Highest broadcast sequence number accepted under the *current*
    /// epoch (`None` before the first). Broadcast seqs must strictly
    /// increase within an epoch — replayed or reordered frames are
    /// rejected without touching state.
    bcast_seen_cur: Option<u64>,
    /// Same watermark for the previous epoch, so a cross-epoch replay of
    /// an already-delivered frame stays rejected after a rekey.
    bcast_seen_prev: Option<u64>,
    /// This member's view of the roster: the snapshot decoded from the
    /// `Welcome`, replaced on each join and leave notice.
    roster: Roster,
    /// The most recently accepted admin message's leader nonce and the ack
    /// sent for it: a retransmitted duplicate gets the cached ack again
    /// (stop-and-wait ARQ), everything else stale is rejected.
    last_ack: Option<(ProtocolNonce, Envelope)>,
    /// Heartbeat ping sequence: pre-incremented per ping, so the leader
    /// can reject replayed pings (and we can reject forged pongs claiming
    /// a sequence we never sent).
    hb_seq: u64,
    /// Highest ping sequence a pong has echoed: only a newer pong is
    /// proof the leader lives, so a recorded one cannot keep it "alive".
    pong_seq: u64,
    /// `GroupData` uplink sequence, pre-incremented per send the same way
    /// so the leader can reject a replayed uplink.
    data_seq: u64,
    /// Tree-rekey state: this member's direct path in the leader's key
    /// tree, seeded by the `TreeWelcome` (reseeded by a `PathSync`) and
    /// advanced by `PathUpdate` broadcasts. `None` for flat-mode sessions.
    tree: Option<MemberTree>,
}

impl Connected {
    /// `env` with `plain` as its body: sealed under the session key with
    /// the next member-side nonce and bound to the header.
    fn seal_up<T: Encode>(&mut self, mut env: Envelope, plain: &T) -> Result<Envelope, CoreError> {
        env.body = seal(
            self.session_key.as_bytes(),
            self.send_seq.next()?,
            &env.header_aad(),
            plain,
        );
        Ok(env)
    }

    /// Installs a strictly newer group epoch, keeping one epoch of grace
    /// for broadcast frames sealed before the rekey reached us — shared by
    /// the `NewGroupKey`, `PathSync`, and `PathUpdate` install paths.
    fn install_epoch(&mut self, epoch: u64, key: GroupKey, iv: [u8; 12]) -> bool {
        match &mut self.group {
            Some(view) => match view.install(epoch, key, iv) {
                Some(retired) => {
                    self.prev_group = Some(retired);
                    self.bcast_seen_prev = self.bcast_seen_cur;
                    self.bcast_seen_cur = None;
                    true
                }
                None => false,
            },
            none => {
                *none = Some(MemberGroupView { epoch, key, iv });
                true
            }
        }
    }
}

enum Phase {
    WaitingForKey { n1: ProtocolNonce },
    Connected(Box<Connected>),
    Closed,
}

/// A member session: the user state machine of Figure 2.
pub struct MemberSession {
    user: ActorId,
    leader: ActorId,
    /// The enclave this session belongs to inside a multi-enclave service
    /// (`None` for single-group legacy deployments). Outgoing envelopes
    /// carry the tag; incoming envelopes tagged for any other enclave —
    /// or untagged when a tag is expected — are rejected before dispatch,
    /// and multicast AADs are computed from this configured value rather
    /// than the (unauthenticated) envelope header.
    enclave: Option<GroupId>,
    long_term: LongTermKey,
    rng: Box<dyn CryptoRng>,
    phase: Phase,
    obs: MemberObs,
    /// The handshake message to retransmit until the exchange completes:
    /// the `AuthInitReq` while waiting for the key, then the `AuthAckKey`
    /// until the first admin message (the welcome) is accepted.
    handshake_pending: Option<Envelope>,
    /// The deadlines [`MemberSession::tick`] keeps; `None` until it first
    /// runs.
    timers: Option<Timers>,
    /// A frame was accepted since the last tick, which stamps it heard.
    heard: bool,
    /// Test-only sabotage switch: when set, the broadcast watermark check
    /// is skipped, so replayed or reordered broadcast frames are delivered
    /// again. Exists solely so the chaos oracle can prove it detects the
    /// resulting duplicate deliveries.
    broadcast_watermark_disabled: bool,
}

impl std::fmt::Debug for MemberSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberSession")
            .field("user", &self.user)
            .field("leader", &self.leader)
            .field("phase", &self.phase())
            .finish()
    }
}

impl MemberSession {
    /// Starts a session from a password: derives `P_a` from it, then
    /// runs [`MemberSession::start_with_key_in_group`] on OS entropy.
    ///
    /// # Errors
    ///
    /// Propagates key-derivation failures.
    pub fn start_in_group(
        user: ActorId,
        leader: ActorId,
        password: &str,
        group: Option<GroupId>,
    ) -> Result<(Self, Envelope), CoreError> {
        let key = LongTermKey::derive_from_password(password, user.as_str())?;
        Ok(Self::start_with_key_in_group(
            user,
            leader,
            key,
            Box::new(OsEntropyRng::new()),
            group,
        ))
    }

    /// Starts a session from a long-term key `P_a` and `rng`: generates
    /// `N1` and returns the session plus the `AuthInitReq` envelope to
    /// send. `P_a` may come from a password or from X25519 public keys
    /// (footnote 1: [`enclaves_crypto::x25519::derive_long_term_key`]);
    /// nothing above it differs. With `group` set, every envelope carries
    /// the enclave's tag, AEAD-bound via the header, and frames tagged for
    /// another enclave are rejected; `None` keeps the single-group wire.
    #[must_use]
    pub fn start_with_key_in_group(
        user: ActorId,
        leader: ActorId,
        long_term: LongTermKey,
        mut rng: Box<dyn CryptoRng>,
        group: Option<GroupId>,
    ) -> (Self, Envelope) {
        let n1 = ProtocolNonce::generate(rng.as_mut());
        let mut env = Envelope {
            msg_type: MsgType::AuthInitReq,
            sender: user.clone(),
            recipient: leader.clone(),
            group: group.clone(),
            body: Vec::new(),
        };
        let plain = AuthInitPlain {
            user: user.clone(),
            leader: leader.clone(),
            nonce: n1,
        };
        // One-shot AEAD nonce for the long-term key: random 96 bits. P_a
        // seals at most a handful of messages per session, so random nonces
        // are safe; the session key uses counters.
        let mut nonce_bytes = [0u8; 12];
        rng.fill_bytes(&mut nonce_bytes);
        env.body = seal(
            long_term.as_bytes(),
            enclaves_crypto::nonce::AeadNonce::from_bytes(nonce_bytes),
            &env.header_aad(),
            &plain,
        );
        (
            MemberSession {
                user,
                leader,
                enclave: group,
                long_term,
                rng,
                phase: Phase::WaitingForKey { n1 },
                obs: MemberObs::on_registry(Registry::new()),
                handshake_pending: Some(env.clone()),
                timers: None,
                heard: false,
                broadcast_watermark_disabled: false,
            },
            env,
        )
    }

    /// The enclave this session belongs to, when part of a multi-enclave
    /// service.
    #[must_use]
    pub fn group_id(&self) -> Option<&GroupId> {
        self.enclave.as_ref()
    }

    /// Disables the broadcast replay watermark — a deliberately planted
    /// protocol violation for exercising the chaos harness's invariant
    /// oracle. Never call this outside of tests.
    #[doc(hidden)]
    pub fn disable_broadcast_watermark_for_tests(&mut self) {
        self.broadcast_watermark_disabled = true;
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> SessionPhase {
        match self.phase {
            Phase::WaitingForKey { .. } => SessionPhase::WaitingForKey,
            Phase::Connected(_) => SessionPhase::Connected,
            Phase::Closed => SessionPhase::Closed,
        }
    }

    /// This member's identity.
    #[must_use]
    pub fn user(&self) -> &ActorId {
        &self.user
    }

    /// The member's current view of the roster (empty before the welcome).
    #[must_use]
    pub fn roster(&self) -> Roster {
        match &self.phase {
            Phase::Connected(c) => c.roster.clone(),
            _ => Roster::new(),
        }
    }

    /// The group-key epoch currently held, if any.
    #[must_use]
    pub fn group_epoch(&self) -> Option<u64> {
        match &self.phase {
            Phase::Connected(c) => c.group.as_ref().map(|g| g.epoch),
            _ => None,
        }
    }

    /// The metric registry this session records into (`member.*` names).
    /// Clones share the counters.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.obs.registry.clone()
    }

    /// Attaches a protocol event stream; subsequent protocol actions emit
    /// [`EventKind`]s onto it.
    pub fn set_event_stream(&mut self, events: EventStream) {
        self.obs.events = Some(events);
    }

    /// The handshake message [`MemberSession::tick`] resends until the
    /// handshake completes (re-delivery is idempotent on the leader side).
    #[must_use]
    pub fn handshake_pending(&self) -> Option<&Envelope> {
        self.handshake_pending.as_ref()
    }

    /// An envelope of `msg_type` from this member to its leader, its body
    /// still empty.
    fn to_leader(&self, msg_type: MsgType) -> Envelope {
        Envelope {
            msg_type,
            sender: self.user.clone(),
            recipient: self.leader.clone(),
            group: self.enclave.clone(),
            body: Vec::new(),
        }
    }

    /// Handles an incoming envelope.
    ///
    /// # Errors
    ///
    /// [`CoreError::Rejected`] if the message is inauthentic, malformed,
    /// stale, or unexpected; state is unchanged in that case.
    pub fn handle(&mut self, env: &Envelope) -> Result<MemberOutput, CoreError> {
        match self.handle_inner(env) {
            Ok(Handled::Fresh(out)) => {
                self.obs.accepted.inc();
                // Only an accepted (authentic, fresh) frame is proof the
                // leader lives: forged or replayed traffic must not keep
                // it "alive".
                self.heard = true;
                Ok(out)
            }
            Ok(Handled::Stale(out)) => Ok(out),
            Err(e) => {
                self.obs.rejected.inc();
                Err(e)
            }
        }
    }

    /// Advances the member's timers to `now`, in order: resends the
    /// pending handshake message on `lv`'s backoff schedule; once
    /// connected, pings the leader every `heartbeat_interval`; and reports
    /// the leader lost when the handshake ARQ gives up or no frame was
    /// accepted for longer than `liveness_timeout`. The timers anchor at
    /// the first tick, and a frame accepted by [`MemberSession::handle`]
    /// counts as heard at the next tick's reading. `member.retransmits`
    /// counts the handshake resends returned.
    pub fn tick(&mut self, now: Duration, lv: &LivenessConfig) -> MemberTick {
        let mut timers = self.timers.unwrap_or(Timers {
            handshake: Arq::start(now, lv, HANDSHAKE_TAG),
            next_heartbeat: now + lv.heartbeat_interval.unwrap_or_default(),
            last_heard: now,
        });
        if std::mem::take(&mut self.heard) {
            timers.last_heard = now;
        }
        let mut tick = MemberTick::default();
        if let Some(pending) = &self.handshake_pending {
            match timers.handshake.poll(now, lv, HANDSHAKE_TAG) {
                ArqPoll::Wait => {}
                ArqPoll::Resend => {
                    tick.frames.push(pending.clone());
                    self.obs.retransmits.inc();
                    self.obs.emit(|| EventKind::Retransmit {
                        actor: self.user.to_string(),
                        frames: 1,
                    });
                }
                ArqPoll::GiveUp => tick.leader_lost = true,
            }
        }
        if let Some(interval) = lv.heartbeat_interval {
            if !tick.leader_lost && now >= timers.next_heartbeat {
                timers.next_heartbeat = now + interval;
                // No ping before the session is connected.
                tick.frames.extend(self.heartbeat().ok());
            }
        }
        tick.leader_lost |= lv
            .silence_deadline(timers.last_heard)
            .is_some_and(|due| now >= due);
        self.timers = Some(timers);
        tick
    }

    /// The earliest instant at which [`MemberSession::tick`] under `lv`
    /// would do anything: `Duration::ZERO` ("now") before the first tick
    /// or once a frame was accepted since the last one (the tick stamps
    /// it heard); otherwise the soonest of the handshake resend or
    /// give-up, the next heartbeat, and the first instant past
    /// `liveness_timeout` of silence. `None` when no timer is armed.
    #[must_use]
    pub fn next_deadline(&self, lv: &LivenessConfig) -> Option<Duration> {
        let Some(timers) = self.timers.filter(|_| !self.heard) else {
            return Some(Duration::ZERO);
        };
        let handshake = self
            .handshake_pending
            .as_ref()
            .map(|_| timers.handshake.deadline);
        let heartbeat = lv.heartbeat_interval.map(|_| timers.next_heartbeat);
        let silence = lv.silence_deadline(timers.last_heard);
        [handshake, heartbeat, silence].into_iter().flatten().min()
    }

    /// A fresh session for the same user, leader, enclave and `P_a`, on
    /// fresh OS entropy, recording into this session's registry and event
    /// stream, plus the `AuthInitReq` to send: the rejoin after the leader
    /// was presumed lost. Counts one `member.rejoins`. The sabotage switch
    /// is not inherited.
    #[must_use]
    pub fn rejoin(&self) -> (MemberSession, Envelope) {
        let (mut fresh, init) = Self::start_with_key_in_group(
            self.user.clone(),
            self.leader.clone(),
            self.long_term.clone(),
            Box::new(OsEntropyRng::new()),
            self.enclave.clone(),
        );
        fresh.obs = MemberObs {
            events: self.obs.events.clone(),
            ..MemberObs::on_registry(self.obs.registry.clone())
        };
        fresh.obs.rejoins.inc();
        (fresh, init)
    }

    fn handle_inner(&mut self, env: &Envelope) -> Result<Handled, CoreError> {
        // `GroupBroadcast` and `PathUpdate` are multicast: the identical
        // frame reaches every member, so its recipient names the leader
        // rather than this user — authenticity comes from the inner seals,
        // whose AAD binds the origin and epoch (plus sequence or tree
        // position).
        let multicast = matches!(env.msg_type, MsgType::GroupBroadcast | MsgType::PathUpdate);
        let addressee = if multicast { &self.leader } else { &self.user };
        if env.recipient != *addressee {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        // Cross-enclave traffic is rejected before dispatch. The header
        // tag is unauthenticated, but lying about it cannot help an
        // attacker: every seal binds the tag via the header AAD, and the
        // multicast AADs below are computed from this session's own
        // configured enclave, never from the envelope.
        if env.group != self.enclave {
            return Err(CoreError::Rejected(RejectReason::WrongEnclave));
        }
        match (&mut self.phase, env.msg_type) {
            (Phase::WaitingForKey { n1 }, MsgType::AuthKeyDist) => {
                let n1 = *n1;
                self.accept_key_dist(env, n1).map(Handled::Fresh)
            }
            (Phase::Connected(_), MsgType::AdminMsg) => self.accept_admin(env),
            (Phase::Connected(_), MsgType::GroupBroadcast) => {
                self.accept_broadcast(env).map(Handled::Fresh)
            }
            (Phase::Connected(_), MsgType::PathUpdate) => self.accept_path_update(env),
            (Phase::Connected(_), MsgType::Heartbeat) => self.accept_heartbeat_pong(env),
            _ => Err(CoreError::Rejected(RejectReason::UnexpectedType)),
        }
    }

    fn accept_key_dist(
        &mut self,
        env: &Envelope,
        n1: ProtocolNonce,
    ) -> Result<MemberOutput, CoreError> {
        let plain: KeyDistPlain = open(self.long_term.as_bytes(), &env.header_aad(), &env.body)?;
        if plain.leader != self.leader || plain.user != self.user {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        if plain.user_nonce != n1 {
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        let n3 = ProtocolNonce::generate(self.rng.as_mut());
        let mut conn = Box::new(Connected {
            session_key: SessionKey::from_bytes(plain.session_key),
            my_nonce: n3,
            send_seq: NonceSequence::new(SEQ_MEMBER),
            group: None,
            prev_group: None,
            bcast_seen_cur: None,
            bcast_seen_prev: None,
            roster: Roster::new(),
            last_ack: None,
            hb_seq: 0,
            pong_seq: 0,
            data_seq: 0,
            tree: None,
        });
        let ack = NonceAckPlain {
            user: self.user.clone(),
            leader: self.leader.clone(),
            acked_nonce: plain.leader_nonce,
            next_nonce: n3,
        };
        let reply = conn.seal_up(self.to_leader(MsgType::AuthAckKey), &ack)?;
        self.phase = Phase::Connected(conn);
        self.handshake_pending = Some(reply.clone());
        self.obs.emit(|| EventKind::SessionEstablished {
            member: self.user.to_string(),
        });
        Ok(MemberOutput {
            reply: Some(reply),
            events: vec![MemberEvent::SessionEstablished],
        })
    }

    fn accept_admin(&mut self, env: &Envelope) -> Result<Handled, CoreError> {
        let up = self.to_leader(MsgType::Ack);
        let Phase::Connected(conn) = &mut self.phase else {
            unreachable!("checked by caller");
        };
        let plain: AdminPlain = open(conn.session_key.as_bytes(), &env.header_aad(), &env.body)?;
        if plain.leader != self.leader || plain.user != self.user {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        // The replay defense: the admin message must echo the nonce this
        // member generated most recently (`N_{2i+1}` in the paper).
        if plain.user_nonce != conn.my_nonce {
            // Exception: a verbatim retransmission of the message we just
            // accepted (its ack may have been lost) is re-acknowledged
            // with the cached ack — no state change, no event.
            if let Some((acked, cached)) = &conn.last_ack {
                if *acked == plain.leader_nonce {
                    return Ok(Handled::Stale(MemberOutput {
                        reply: Some(cached.clone()),
                        events: vec![],
                    }));
                }
            }
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        // A direct path that does not fit its claimed tree is refused
        // before any state changes.
        let synced = match &plain.payload {
            AdminPayload::TreeWelcome {
                epoch,
                leaf_index,
                leaf_count,
                path_keys,
                ..
            }
            | AdminPayload::PathSync {
                epoch,
                leaf_index,
                leaf_count,
                path_keys,
            } => Some(
                synced_path(*leaf_index, *leaf_count, path_keys, *epoch)
                    .ok_or(CoreError::Rejected(RejectReason::Malformed))?,
            ),
            _ => None,
        };

        let next = ProtocolNonce::generate(self.rng.as_mut());
        let ack = NonceAckPlain {
            user: self.user.clone(),
            leader: self.leader.clone(),
            acked_nonce: plain.leader_nonce,
            next_nonce: next,
        };
        let reply = conn.seal_up(up, &ack)?;
        conn.last_ack = Some((plain.leader_nonce, reply.clone()));
        conn.my_nonce = next;
        self.obs.admin_accepted.inc();
        // The first accepted admin message completes the handshake from
        // the member's perspective.
        self.handshake_pending = None;

        let mut events = Vec::new();
        match plain.payload {
            AdminPayload::Welcome {
                members,
                epoch,
                group_key,
                iv,
            } => {
                let key = GroupKey::from_bytes(group_key);
                let view = MemberGroupView { epoch, key, iv };
                events.push(welcome(conn, &self.obs, &self.user, members, view));
            }
            AdminPayload::TreeWelcome { members, .. } => {
                let (tree, view) = synced.expect("parsed above");
                conn.tree = Some(tree);
                events.push(welcome(conn, &self.obs, &self.user, members, view));
            }
            AdminPayload::NewGroupKey { epoch, key, iv } => {
                // Keep one epoch of grace for broadcast frames that were
                // sealed before this rekey reached us, along with its
                // replay watermark.
                if conn.install_epoch(epoch, GroupKey::from_bytes(key), iv) {
                    self.obs.emit(|| EventKind::KeyChanged {
                        member: self.user.to_string(),
                        epoch,
                    });
                    events.push(MemberEvent::GroupKeyChanged { epoch });
                }
                // A non-increasing epoch is impossible from the honest
                // leader and unreachable for attackers (they cannot forge
                // AdminMsg); ignoring it is defense in depth.
            }
            AdminPayload::PathSync { epoch, .. } => {
                // Authenticated full-path resync (reinit, or a
                // heartbeat-detected missed PathUpdate). A stale epoch is
                // ignored wholesale: an old path must not roll the tree
                // back any more than an old key may roll the epoch back.
                let current = conn.group.as_ref().map_or(0, |g| g.epoch);
                if epoch >= current {
                    let (tree, view) = synced.expect("parsed above");
                    conn.tree = Some(tree);
                    if epoch > current && conn.install_epoch(epoch, view.key, view.iv) {
                        self.obs.emit(|| EventKind::KeyChanged {
                            member: self.user.to_string(),
                            epoch,
                        });
                        events.push(MemberEvent::GroupKeyChanged { epoch });
                    }
                }
            }
            AdminPayload::MemberJoined(m) => {
                conn.roster = conn.roster.with(&m);
                events.push(MemberEvent::MemberJoined(m));
            }
            AdminPayload::MemberLeft(m) => {
                conn.roster = conn.roster.without(&m);
                events.push(MemberEvent::MemberLeft(m));
            }
            AdminPayload::AppData(data) => {
                self.obs.emit(|| EventKind::AdminDeliver {
                    member: self.user.to_string(),
                    payload: data.to_vec(),
                });
                events.push(MemberEvent::AdminData(data.to_vec()));
            }
        }

        Ok(Handled::Fresh(MemberOutput {
            reply: Some(reply),
            events,
        }))
    }

    /// Accepts a single-seal group-key frame: a leader broadcast, or a
    /// member's data relayed by the leader.
    ///
    /// The envelope sender names the origin and is bound into the AAD, so
    /// a frame re-labelled with another origin fails verification; this
    /// member's own data never comes back to it. The nonce is re-derived
    /// from the epoch IV and on-wire sequence number. Frames sealed under
    /// the immediately previous epoch are still accepted (they may race a
    /// rekey in flight); each epoch keeps its own strictly-increasing
    /// watermark over both kinds of frame (the leader draws their `seq`
    /// from one counter), so no frame — including cross-epoch replays — is
    /// ever delivered twice. No ack is sent: the data plane is
    /// fire-and-forget.
    fn accept_broadcast(&mut self, env: &Envelope) -> Result<MemberOutput, CoreError> {
        let Phase::Connected(conn) = &mut self.phase else {
            unreachable!("checked by caller");
        };
        if env.sender == self.user {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        let wire: GroupBroadcastWire = enclaves_wire::codec::decode(&env.body)
            .map_err(|_| CoreError::Rejected(RejectReason::Malformed))?;
        let is_current = matches!(&conn.group, Some(g) if g.epoch == wire.epoch);
        let view = if is_current {
            conn.group.as_ref().expect("matched above")
        } else if matches!(&conn.prev_group, Some(p) if p.epoch == wire.epoch) {
            conn.prev_group.as_ref().expect("matched above")
        } else {
            return Err(CoreError::Rejected(RejectReason::WrongEpoch));
        };
        let seen = if is_current {
            conn.bcast_seen_cur
        } else {
            conn.bcast_seen_prev
        };
        if !self.broadcast_watermark_disabled && seen.is_some_and(|s| wire.seq <= s) {
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        let aad = group_broadcast_aad(&env.sender, wire.epoch, wire.seq, self.enclave.as_ref());
        let nonce = broadcast_nonce(&view.iv, wire.seq);
        let data = ChaCha20Poly1305::new(view.key.as_bytes())
            .open(&nonce, &wire.ciphertext, &aad)
            .map_err(|_| CoreError::Rejected(RejectReason::BadSeal))?;
        if is_current {
            conn.bcast_seen_cur = Some(wire.seq);
        } else {
            conn.bcast_seen_prev = Some(wire.seq);
        }
        self.obs.emit(|| EventKind::DataDeliver {
            member: self.user.to_string(),
            epoch: wire.epoch,
            seq: wire.seq,
            payload: data.clone(),
        });
        Ok(MemberOutput {
            reply: None,
            events: vec![MemberEvent::Broadcast {
                from: env.sender.clone(),
                epoch: wire.epoch,
                seq: wire.seq,
                data,
            }],
        })
    }

    /// Accepts a tree-rekey `PathUpdate` multicast: one leaf's path
    /// refresh or a batch commit's union of paths, through one routine,
    /// [`MemberTree::follow_commit`].
    ///
    /// The member finds the lowest node of its direct path the commit
    /// refreshed; the one cipher addressed to its resolution below that
    /// node (opened under the stored key, with the AAD binding leader,
    /// epoch, tree shape, committed leaves and node) yields that node's
    /// secret. Deriving up from there rewrites our stored keys to the
    /// root — at a batch merge node we climb into from the right, the
    /// parent's secret arrives sealed under the key just derived — and
    /// `derive_group(root, epoch)` is the new group key, installed with
    /// the same one-epoch broadcast grace as a flat `NewGroupKey`.
    ///
    /// The outer frame is plaintext, so every claim in it is verified
    /// cryptographically before any state changes: a stale or repeated
    /// epoch is a silent no-op (multicast duplicates are normal), a
    /// skipped epoch or an unopenable cipher set is rejected (heartbeat
    /// resync recovers the former; forgery is the latter).
    ///
    /// It also bounds what a forger can make us do. The ciphers are read
    /// where they lie in the frame, the ones addressed to our path are
    /// noted by tree level on the stack, and an honest plan names a node
    /// once: a second cipher for a path node is `Malformed` before
    /// anything is opened, so a frame costs at most one AEAD open per
    /// level of our path however many ciphers or leaves it claims.
    fn accept_path_update(&mut self, env: &Envelope) -> Result<Handled, CoreError> {
        const MALFORMED: CoreError = CoreError::Rejected(RejectReason::Malformed);
        let Phase::Connected(conn) = &mut self.phase else {
            unreachable!("checked by caller");
        };
        let mut wire = PathUpdateView::parse(&env.body).map_err(|_| MALFORMED)?;
        let current = conn.group.as_ref().map_or(0, |g| g.epoch);
        if wire.head.epoch <= current {
            return Ok(Handled::Stale(MemberOutput::default()));
        }
        let Some(tree) = &mut conn.tree else {
            // No tree (a flat-mode session, or one not yet welcomed):
            // nothing to derive from.
            return Ok(Handled::Stale(MemberOutput::default()));
        };
        if wire.head.epoch != current + 1 {
            // We missed an epoch: our stored node keys cannot open this
            // update. Leader-driven resync recovers us.
            return Err(CoreError::Rejected(RejectReason::WrongEpoch));
        }
        // The frame is still unauthenticated here: its tree shape and
        // leaves are bounded before any tree math runs on them.
        let leaf_count = wire.head.leaf_count;
        let target = tree
            .commit_target(&wire.head.leaves, leaf_count)
            .ok_or(MALFORMED)?;
        let mut mine: [Option<PathCipher<'_>>; MAX_LEVELS] = [None; MAX_LEVELS];
        while let Some(cipher) = wire.next_cipher() {
            if tree.on_path(cipher.node, leaf_count) {
                let seen = &mut mine[level(cipher.node) as usize];
                if seen.is_some() {
                    return Err(MALFORMED);
                }
                *seen = Some(cipher);
            }
        }
        let head = &wire.head;
        let mut aad = PathUpdateAad::new(&self.leader, head, self.enclave.as_ref());
        let open = |node: u32, key: &[u8; 32]| {
            let cipher = mine[level(node) as usize].filter(|c| c.node == node)?;
            let (sealed, tag) = cipher.sealed.split_at(SECRET_LEN);
            let mut secret: [u8; SECRET_LEN] = sealed.try_into().expect("split at that length");
            ChaCha20Poly1305::new(key)
                .open_in_place(
                    &AeadNonce::from_bytes(cipher.nonce),
                    aad.for_node(node),
                    &mut secret,
                    tag,
                )
                .ok()
                .map(|()| secret)
        };
        // Nothing opened: a forgery, a corrupt frame, or a desynced tree.
        // Rejected without touching state.
        let root = tree
            .follow_commit(target, &head.leaves, leaf_count, open)
            .ok_or(CoreError::Rejected(RejectReason::BadSeal))?;
        let epoch = head.epoch;
        let (key, iv) = treekdf::derive_group(&root, epoch);
        let mut out = MemberOutput::default();
        if conn.install_epoch(epoch, GroupKey::from_bytes(key), iv) {
            self.obs.emit(|| EventKind::KeyChanged {
                member: self.user.to_string(),
                epoch,
            });
            out.events.push(MemberEvent::GroupKeyChanged { epoch });
        }
        Ok(Handled::Fresh(out))
    }

    fn accept_heartbeat_pong(&mut self, env: &Envelope) -> Result<Handled, CoreError> {
        let Phase::Connected(conn) = &mut self.phase else {
            unreachable!("checked by caller");
        };
        let plain: HeartbeatPlain =
            open(conn.session_key.as_bytes(), &env.header_aad(), &env.body)?;
        if plain.user != self.user || plain.leader != self.leader {
            return Err(CoreError::Rejected(RejectReason::WrongIdentity));
        }
        // The pong echoes one of our pings; a sequence we never sent is a
        // forgery attempt (impossible without the session key, but checked
        // anyway — defense in depth).
        if plain.seq > conn.hb_seq {
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        // An echo no newer than the last one proves nothing: it may be a
        // recording.
        if plain.seq <= conn.pong_seq {
            return Ok(Handled::Stale(MemberOutput::default()));
        }
        conn.pong_seq = plain.seq;
        Ok(Handled::Fresh(MemberOutput::default()))
    }

    /// Produces a heartbeat ping for the leader, sealed under the session
    /// key with a strictly increasing sequence. The runtime sends these
    /// when the channel is otherwise idle; any authenticated reply (the
    /// pong included) refreshes the leader-liveness deadline.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected.
    pub fn heartbeat(&mut self) -> Result<Envelope, CoreError> {
        let up = self.to_leader(MsgType::Heartbeat);
        let Phase::Connected(conn) = &mut self.phase else {
            return Err(CoreError::BadPhase {
                operation: "heartbeat",
                phase: "not connected",
            });
        };
        conn.hb_seq += 1;
        let ping = HeartbeatPlain {
            user: self.user.clone(),
            leader: self.leader.clone(),
            seq: conn.hb_seq,
            // The authenticated epoch lets the leader detect a missed
            // PathUpdate and push a resync — without giving forgers a way
            // to request one.
            epoch: conn.group.as_ref().map_or(0, |g| g.epoch),
        };
        let env = conn.seal_up(up, &ping)?;
        self.obs.heartbeats.inc();
        Ok(env)
    }

    /// Seals application data for the group under the session key and
    /// returns the `GroupData` uplink to send to the leader, which
    /// re-seals it once under the group key for every other member.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected or not yet welcomed;
    /// [`CoreError::Crypto`] if the nonce sequence is exhausted.
    pub fn send_group_data(&mut self, data: &[u8]) -> Result<Envelope, CoreError> {
        let up = self.to_leader(MsgType::GroupData);
        let Phase::Connected(conn) = &mut self.phase else {
            return Err(CoreError::BadPhase {
                operation: "send group data",
                phase: "not connected",
            });
        };
        if conn.group.is_none() {
            return Err(CoreError::BadPhase {
                operation: "send group data",
                phase: "awaiting welcome",
            });
        }
        conn.data_seq += 1;
        let plain = GroupDataPlain {
            user: self.user.clone(),
            leader: self.leader.clone(),
            seq: conn.data_seq,
            data: data.to_vec(),
        };
        conn.seal_up(up, &plain)
    }

    /// Leaves the session: returns the `ReqClose` envelope and transitions
    /// to [`SessionPhase::Closed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected.
    pub fn leave(&mut self) -> Result<Envelope, CoreError> {
        let up = self.to_leader(MsgType::ReqClose);
        let Phase::Connected(conn) = &mut self.phase else {
            return Err(CoreError::BadPhase {
                operation: "leave",
                phase: "not connected",
            });
        };
        let plain = enclaves_wire::message::ClosePlain {
            user: self.user.clone(),
            leader: self.leader.clone(),
        };
        let env = conn.seal_up(up, &plain)?;
        self.phase = Phase::Closed;
        self.handshake_pending = None;
        self.obs.emit(|| EventKind::CloseRequested {
            member: self.user.to_string(),
        });
        Ok(env)
    }
}

/// The tree a direct path from the leader (a `TreeWelcome` or a
/// `PathSync`) installs, with the group key and IV its root derives for
/// `epoch`; `None` for a path that does not fit its claimed tree.
fn synced_path(
    leaf_index: u32,
    leaf_count: u32,
    path_keys: &[[u8; 32]],
    epoch: u64,
) -> Option<(MemberTree, MemberGroupView)> {
    let tree = MemberTree::from_sync(leaf_index, leaf_count, path_keys)?;
    let root = tree.root_key().expect("from_sync paths reach the root");
    let (key, iv) = treekdf::derive_group(root, epoch);
    let key = GroupKey::from_bytes(key);
    Some((tree, MemberGroupView { epoch, key, iv }))
}

/// Installs what a `Welcome` carries — the roster and the epoch's key —
/// and starts broadcast history from scratch: no previous epoch, no
/// accepted frames yet. Returns the event to surface.
fn welcome(
    conn: &mut Connected,
    obs: &MemberObs,
    user: &ActorId,
    members: Roster,
    view: MemberGroupView,
) -> MemberEvent {
    let epoch = view.epoch;
    conn.roster = members.clone();
    conn.group = Some(view);
    conn.prev_group = None;
    conn.bcast_seen_cur = None;
    conn.bcast_seen_prev = None;
    obs.emit(|| EventKind::Welcomed {
        member: user.to_string(),
        epoch,
    });
    MemberEvent::Welcomed {
        roster: members,
        epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_wire::codec::encode;
    use enclaves_wire::message::{cipher_nonce, path_update_aad, PathUpdateWire};
    use proptest::prelude::*;

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn start() -> (MemberSession, Envelope, LongTermKey) {
        let key = LongTermKey::derive_from_password("pw", "alice").unwrap();
        let (session, env) = MemberSession::start_with_key_in_group(
            id("alice"),
            id("leader"),
            key.clone(),
            Box::new(SeededRng::from_seed(7)),
            None,
        );
        (session, env, key)
    }

    /// Builds the leader's AuthKeyDist answer for a given init envelope.
    fn key_dist_for(
        init: &Envelope,
        long_term: &LongTermKey,
        session_key: [u8; 32],
        leader_nonce: ProtocolNonce,
    ) -> Envelope {
        let plain: AuthInitPlain =
            open(long_term.as_bytes(), &init.header_aad(), &init.body).unwrap();
        let mut env = Envelope {
            msg_type: MsgType::AuthKeyDist,
            sender: id("leader"),
            recipient: id("alice"),
            group: None,
            body: Vec::new(),
        };
        let kd = KeyDistPlain {
            leader: id("leader"),
            user: id("alice"),
            user_nonce: plain.nonce,
            leader_nonce,
            session_key,
        };
        env.body = seal(
            long_term.as_bytes(),
            enclaves_crypto::nonce::AeadNonce::from_bytes([0xEE; 12]),
            &env.header_aad(),
            &kd,
        );
        env
    }

    fn connect() -> (MemberSession, [u8; 32], ProtocolNonce) {
        let (mut session, init, key) = start();
        let sk = [0x42u8; 32];
        let kd = key_dist_for(&init, &key, sk, ProtocolNonce::from_bytes([9; 16]));
        let out = session.handle(&kd).unwrap();
        assert_eq!(out.events, vec![MemberEvent::SessionEstablished]);
        // Extract the member's N3 from the AuthAckKey reply.
        let reply = out.reply.unwrap();
        let ack: NonceAckPlain = open(&sk, &reply.header_aad(), &reply.body).unwrap();
        (session, sk, ack.next_nonce)
    }

    fn admin_env(
        sk: &[u8; 32],
        user_nonce: ProtocolNonce,
        leader_nonce: ProtocolNonce,
        payload: AdminPayload,
    ) -> Envelope {
        let mut env = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: id("leader"),
            recipient: id("alice"),
            group: None,
            body: Vec::new(),
        };
        let plain = AdminPlain {
            leader: id("leader"),
            user: id("alice"),
            user_nonce,
            leader_nonce,
            payload,
        };
        env.body = seal(
            sk,
            enclaves_crypto::nonce::AeadNonce::from_bytes([0xDD; 12]),
            &env.header_aad(),
            &plain,
        );
        env
    }

    #[test]
    fn full_authentication_flow() {
        let (session, _, n3) = connect();
        assert_eq!(session.phase(), SessionPhase::Connected);
        let _ = n3;
    }

    #[test]
    fn key_dist_with_wrong_nonce_rejected() {
        let (mut session, init, key) = start();
        // Tamper: build a key dist echoing the wrong user nonce.
        let plain: AuthInitPlain = open(key.as_bytes(), &init.header_aad(), &init.body).unwrap();
        let mut wrong = plain.nonce.as_bytes().to_owned();
        wrong[0] ^= 1;
        let mut env = Envelope {
            msg_type: MsgType::AuthKeyDist,
            sender: id("leader"),
            recipient: id("alice"),
            group: None,
            body: Vec::new(),
        };
        let kd = KeyDistPlain {
            leader: id("leader"),
            user: id("alice"),
            user_nonce: ProtocolNonce::from_bytes(wrong),
            leader_nonce: ProtocolNonce::from_bytes([9; 16]),
            session_key: [1; 32],
        };
        env.body = seal(
            key.as_bytes(),
            enclaves_crypto::nonce::AeadNonce::from_bytes([0xEE; 12]),
            &env.header_aad(),
            &kd,
        );
        assert!(matches!(
            session.handle(&env),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        assert_eq!(session.phase(), SessionPhase::WaitingForKey);
    }

    #[test]
    fn key_dist_under_wrong_key_rejected() {
        let (mut session, init, key) = start();
        // Parse the genuine nonce with the right key, then seal the reply
        // under a *wrong* long-term key: the member must reject the seal.
        let plain: AuthInitPlain = open(key.as_bytes(), &init.header_aad(), &init.body).unwrap();
        let other = LongTermKey::derive_from_password("other", "alice").unwrap();
        let mut kd = Envelope {
            msg_type: MsgType::AuthKeyDist,
            sender: id("leader"),
            recipient: id("alice"),
            group: None,
            body: Vec::new(),
        };
        let kd_plain = KeyDistPlain {
            leader: id("leader"),
            user: id("alice"),
            user_nonce: plain.nonce,
            leader_nonce: ProtocolNonce::from_bytes([9; 16]),
            session_key: [1; 32],
        };
        kd.body = seal(
            other.as_bytes(),
            enclaves_crypto::nonce::AeadNonce::from_bytes([0xEE; 12]),
            &kd.header_aad(),
            &kd_plain,
        );
        assert!(matches!(
            session.handle(&kd),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));
    }

    #[test]
    fn admin_with_current_nonce_accepted_and_rolls() {
        let (mut session, sk, n3) = connect();
        let ln = ProtocolNonce::from_bytes([0xAA; 16]);
        let env = admin_env(&sk, n3, ln, AdminPayload::AppData(b"x".to_vec().into()));
        let out = session.handle(&env).unwrap();
        assert_eq!(out.events, vec![MemberEvent::AdminData(b"x".to_vec())]);
        // The ack echoes the leader nonce and supplies a fresh one.
        let reply = out.reply.unwrap();
        assert_eq!(reply.msg_type, MsgType::Ack);
        let ack: NonceAckPlain = open(&sk, &reply.header_aad(), &reply.body).unwrap();
        assert_eq!(ack.acked_nonce, ln);
        assert_ne!(ack.next_nonce, n3);

        // Replaying the same AdminMsg is answered idempotently from the
        // ARQ cache: the identical ack is re-sent, no event fires, the
        // nonce does not roll again.
        let dup = session.handle(&env).unwrap();
        assert!(dup.events.is_empty(), "duplicate must not re-deliver");
        assert_eq!(
            dup.reply.as_ref().map(|e| &e.body),
            Some(&reply.body),
            "cached ack must be byte-identical"
        );
        assert_eq!(
            session
                .obs_registry()
                .snapshot()
                .counter("member.admin_accepted"),
            1
        );

        // A *different* stale message (not the last accepted one) is
        // rejected outright.
        let stale = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([0xBB; 16]),
            AdminPayload::AppData(b"y".to_vec().into()),
        );
        assert!(matches!(
            session.handle(&stale),
            Err(CoreError::Rejected(RejectReason::StaleNonce))
        ));
        assert_eq!(
            session.obs_registry().snapshot().counter("member.rejected"),
            1
        );
    }

    #[test]
    fn welcome_installs_roster_and_group_key() {
        let (mut session, sk, n3) = connect();
        let env = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([0xAB; 16]),
            AdminPayload::Welcome {
                members: Roster::from_iter([id("alice"), id("bob")]),
                epoch: 1,
                group_key: [5; 32],
                iv: [6; 12],
            },
        );
        let out = session.handle(&env).unwrap();
        assert!(matches!(out.events[0], MemberEvent::Welcomed { .. }));
        assert_eq!(
            session.roster(),
            Roster::from_iter([id("alice"), id("bob")])
        );
        assert_eq!(session.group_epoch(), Some(1));
    }

    #[test]
    fn group_key_rollback_ignored() {
        let (mut session, sk, n3) = connect();
        // Welcome at epoch 5.
        let env = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([0xAB; 16]),
            AdminPayload::Welcome {
                members: Roster::from_iter([id("alice")]),
                epoch: 5,
                group_key: [5; 32],
                iv: [6; 12],
            },
        );
        let out = session.handle(&env).unwrap();
        let reply = out.reply.unwrap();
        let ack: NonceAckPlain = open(&sk, &reply.header_aad(), &reply.body).unwrap();
        // A (hypothetical) NewGroupKey with an older epoch is ignored.
        let env = admin_env(
            &sk,
            ack.next_nonce,
            ProtocolNonce::from_bytes([0xAC; 16]),
            AdminPayload::NewGroupKey {
                epoch: 3,
                key: [9; 32],
                iv: [9; 12],
            },
        );
        let out = session.handle(&env).unwrap();
        assert!(out.events.is_empty(), "rollback must not fire an event");
        assert_eq!(session.group_epoch(), Some(5));
    }

    #[test]
    fn group_data_roundtrip_between_members() {
        // Up: alice's data travels under her session key with a strictly
        // increasing sequence, never under the group key.
        let (key, iv) = ([7; 32], [1; 12]);
        let (mut alice, sk, _) = connect_welcomed(2, key, iv);
        for seq in 1..=2 {
            let env = alice.send_group_data(b"hello bob").unwrap();
            assert_eq!(env.msg_type, MsgType::GroupData);
            let plain: GroupDataPlain = open(&sk, &env.header_aad(), &env.body).unwrap();
            assert_eq!((plain.seq, &plain.data[..]), (seq, &b"hello bob"[..]));
        }

        // Down: the leader's relay of bob's data names bob as the origin.
        let out = alice
            .handle(&frame_from("bob", 2, 0, &key, &iv, b"hello alice"))
            .unwrap();
        assert_eq!(
            out.events,
            vec![MemberEvent::Broadcast {
                from: id("bob"),
                epoch: 2,
                seq: 0,
                data: b"hello alice".to_vec(),
            }]
        );
        // A frame naming alice herself as its origin is never delivered to
        // her, and relabelling a frame's origin breaks its seal.
        assert!(matches!(
            alice.handle(&frame_from("alice", 2, 1, &key, &iv, b"echo")),
            Err(CoreError::Rejected(RejectReason::WrongIdentity))
        ));
        let relabelled = Envelope {
            sender: id("carol"),
            ..frame_from("bob", 2, 1, &key, &iv, b"hello alice")
        };
        assert!(matches!(
            alice.handle(&relabelled),
            Err(CoreError::Rejected(RejectReason::BadSeal))
        ));
    }

    #[test]
    fn group_data_wrong_epoch_rejected() {
        let (key, iv) = ([7; 32], [1; 12]);
        let (mut session, _, _) = connect_welcomed(2, key, iv);
        // A relayed frame whose epoch field was rewritten names an epoch
        // the member does not hold.
        let mut env = frame_from("bob", 2, 0, &key, &iv, b"x");
        let mut wire: GroupBroadcastWire = enclaves_wire::codec::decode(&env.body).unwrap();
        wire.epoch = 1;
        env.body = encode(&wire);
        assert!(matches!(
            session.handle(&env),
            Err(CoreError::Rejected(RejectReason::WrongEpoch))
        ));
        // The untampered frame still delivers: the rejection moved nothing.
        assert!(session
            .handle(&frame_from("bob", 2, 0, &key, &iv, b"x"))
            .is_ok());
    }

    #[test]
    fn leave_produces_close_and_blocks_further_sends() {
        let (mut session, _, _) = connect();
        let close = session.leave().unwrap();
        assert_eq!(close.msg_type, MsgType::ReqClose);
        assert_eq!(session.phase(), SessionPhase::Closed);
        assert!(matches!(session.leave(), Err(CoreError::BadPhase { .. })));
        assert!(matches!(
            session.send_group_data(b"x"),
            Err(CoreError::BadPhase { .. })
        ));
    }

    #[test]
    fn messages_to_wrong_recipient_rejected() {
        let (mut session, sk, n3) = connect();
        let mut env = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([1; 16]),
            AdminPayload::AppData(vec![].into()),
        );
        env.recipient = id("bob");
        assert!(matches!(
            session.handle(&env),
            Err(CoreError::Rejected(RejectReason::WrongIdentity))
        ));
    }

    #[test]
    fn admin_before_connection_rejected() {
        let (mut session, _, _) = start();
        let env = admin_env(
            &[0; 32],
            ProtocolNonce::from_bytes([0; 16]),
            ProtocolNonce::from_bytes([1; 16]),
            AdminPayload::AppData(vec![].into()),
        );
        assert!(matches!(
            session.handle(&env),
            Err(CoreError::Rejected(RejectReason::UnexpectedType))
        ));
    }

    #[test]
    fn rejection_does_not_change_state() {
        let (mut session, sk, n3) = connect();
        let before_epoch = session.group_epoch();
        // A barrage of garbage.
        for i in 0..20u8 {
            let mut env = admin_env(
                &sk,
                n3,
                ProtocolNonce::from_bytes([i; 16]),
                AdminPayload::AppData(vec![i].into()),
            );
            env.body[10] ^= 0xFF; // corrupt the seal
            assert!(session.handle(&env).is_err());
        }
        assert_eq!(session.phase(), SessionPhase::Connected);
        assert_eq!(session.group_epoch(), before_epoch);
        assert_eq!(
            session.obs_registry().snapshot().counter("member.rejected"),
            20
        );
        // The genuine message still works.
        let env = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([0xAA; 16]),
            AdminPayload::AppData(b"real".to_vec().into()),
        );
        assert!(session.handle(&env).is_ok());
    }

    /// Seals a single-seal leader broadcast exactly as the leader does
    /// (see `broadcast_group_data`): payload under the epoch group key,
    /// nonce derived from the epoch IV and `seq`, AAD binding leader
    /// identity, epoch, and `seq`.
    fn broadcast_env(epoch: u64, seq: u64, key: &[u8; 32], iv: &[u8; 12], data: &[u8]) -> Envelope {
        frame_from("leader", epoch, seq, key, iv, data)
    }

    /// [`broadcast_env`] with `origin` as the sender and in the AAD: the
    /// leader's relay of `origin`'s `GroupData`.
    fn frame_from(
        origin: &str,
        epoch: u64,
        seq: u64,
        key: &[u8; 32],
        iv: &[u8; 12],
        data: &[u8],
    ) -> Envelope {
        let aad = group_broadcast_aad(&id(origin), epoch, seq, None);
        let nonce = broadcast_nonce(iv, seq);
        let ciphertext = ChaCha20Poly1305::new(key).seal(&nonce, data, &aad);
        Envelope {
            msg_type: MsgType::GroupBroadcast,
            sender: id(origin),
            recipient: id("leader"),
            group: None,
            body: encode(&GroupBroadcastWire {
                epoch,
                seq,
                ciphertext,
            }),
        }
    }

    /// Connects and welcomes the member into a group at `epoch`, returning
    /// the session, the session key, and the admin nonce to chain from.
    fn connect_welcomed(
        epoch: u64,
        key: [u8; 32],
        iv: [u8; 12],
    ) -> (MemberSession, [u8; 32], ProtocolNonce) {
        let (mut session, sk, n3) = connect();
        let out = session
            .handle(&admin_env(
                &sk,
                n3,
                ProtocolNonce::from_bytes([0xA1; 16]),
                AdminPayload::Welcome {
                    members: Roster::from_iter([id("alice")]),
                    epoch,
                    group_key: key,
                    iv,
                },
            ))
            .unwrap();
        let reply = out.reply.unwrap();
        let ack: NonceAckPlain = open(&sk, &reply.header_aad(), &reply.body).unwrap();
        (session, sk, ack.next_nonce)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Timers with no resend for an hour, so only the timer under test
    /// fires.
    fn quiet_timers() -> LivenessConfig {
        LivenessConfig {
            retransmit_base: Duration::from_secs(3600),
            retransmit_max: Duration::from_secs(3600),
            ..LivenessConfig::default()
        }
    }

    #[test]
    fn tick_resends_the_handshake_on_the_backoff_then_gives_up() {
        let lv = LivenessConfig {
            retransmit_base: ms(100),
            retransmit_max: ms(800),
            max_attempts: 2,
            ..LivenessConfig::default()
        };
        let (mut session, init, _) = start();
        let mut sent = 0;
        for (t, resends, lost) in [
            (0, 0, false),
            (99, 0, false),
            (100, 1, false),
            (299, 0, false),
            (300, 1, false),
            (699, 0, false),
            (700, 0, true),
        ] {
            let tick = session.tick(ms(t), &lv);
            assert_eq!(tick.frames.len(), resends, "at {t} ms");
            assert!(tick.frames.iter().all(|f| f.body == init.body), "at {t} ms");
            assert_eq!(tick.leader_lost, lost, "at {t} ms");
            sent += resends;
        }
        let snap = session.obs_registry().snapshot();
        assert_eq!(snap.counter("member.retransmits"), sent as u64);
    }

    #[test]
    fn tick_pings_once_per_interval_only_once_connected() {
        let lv = LivenessConfig {
            heartbeat_interval: Some(ms(1000)),
            ..quiet_timers()
        };
        let (mut session, init, key) = start();
        assert!(session.tick(ms(0), &lv).frames.is_empty());
        assert!(
            session.tick(ms(1000), &lv).frames.is_empty(),
            "waiting for key"
        );
        let kd = key_dist_for(&init, &key, [0x42; 32], ProtocolNonce::from_bytes([9; 16]));
        session.handle(&kd).unwrap();
        let mut pings = 0;
        for t in (1500..=4000).step_by(250) {
            let frames = session.tick(ms(t), &lv).frames;
            assert_eq!(frames.len(), usize::from(t % 1000 == 0), "at {t} ms");
            assert!(frames.iter().all(|f| f.msg_type == MsgType::Heartbeat));
            pings += frames.len();
        }
        assert_eq!(pings, 3);
        let snap = session.obs_registry().snapshot();
        assert_eq!(snap.counter("member.heartbeats"), 3);
    }

    /// Mirrors the leader's `replayed_uplink_cannot_keep_a_crashed_member_alive`:
    /// only an accepted frame moves the leader-silence deadline.
    #[test]
    fn tick_counts_only_accepted_frames_as_heard() {
        let lv = LivenessConfig {
            liveness_timeout: Some(ms(1000)),
            ..quiet_timers()
        };
        let (key, iv) = ([7; 32], [1; 12]);
        let (mut session, sk, _) = connect_welcomed(1, key, iv);
        assert!(!session.tick(ms(0), &lv).leader_lost);
        let pong = |seal_key: &[u8; 32]| {
            let mut env = Envelope {
                msg_type: MsgType::Heartbeat,
                sender: id("leader"),
                recipient: id("alice"),
                group: None,
                body: Vec::new(),
            };
            let plain = HeartbeatPlain {
                user: id("alice"),
                leader: id("leader"),
                seq: 1,
                epoch: 1,
            };
            env.body = seal(
                seal_key,
                AeadNonce::from_bytes([0xCC; 12]),
                &env.header_aad(),
                &plain,
            );
            env
        };
        let broadcast = broadcast_env(1, 0, &key, &iv, b"once");
        session.heartbeat().unwrap();
        session.handle(&broadcast).unwrap();
        session.handle(&pong(&sk)).unwrap();
        assert!(!session.tick(ms(800), &lv).leader_lost);
        assert!(!session.tick(ms(1800), &lv).leader_lost, "heard at 800 ms");

        let wrong_enclave = Envelope {
            group: Some(GroupId::new("beta").unwrap()),
            ..pong(&sk)
        };
        for rejected in [pong(&[0x13; 32]), broadcast, wrong_enclave] {
            assert!(session.handle(&rejected).is_err());
        }
        assert!(session.tick(ms(1801), &lv).leader_lost);
    }

    /// A leader that has gone silent under a 100 ms liveness timeout,
    /// while `frame` reaches the member every 50 ms and is taken without
    /// error: the tick at which the member reports the leader lost. Only
    /// fresh leader traffic counts, so that is the timeout plus one tick.
    fn lost_at_while_fed(
        session: &mut MemberSession,
        frame: impl Fn() -> Envelope,
    ) -> Option<Duration> {
        let lv = LivenessConfig {
            liveness_timeout: Some(ms(100)),
            ..quiet_timers()
        };
        assert!(!session.tick(ms(0), &lv).leader_lost);
        let before = session_accepted(session);
        for t in (50..=2000).step_by(50) {
            session.handle(&frame()).expect("no error, no state change");
            if session.tick(ms(t), &lv).leader_lost {
                assert_eq!(session_accepted(session), before, "counted as accepted");
                return Some(ms(t));
            }
        }
        None
    }

    fn session_accepted(session: &MemberSession) -> u64 {
        session.obs_registry().snapshot().counter("member.accepted")
    }

    /// A `PathUpdate` body with no ciphers: head, then a zero nonce base.
    /// It needs no key to write.
    fn keyless_path_update(epoch: u64) -> Envelope {
        let mut body = Vec::new();
        body.extend_from_slice(&epoch.to_be_bytes());
        body.extend_from_slice(&1u32.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&[0; 12]);
        Envelope {
            msg_type: MsgType::PathUpdate,
            sender: id("leader"),
            recipient: id("leader"),
            group: None,
            body,
        }
    }

    #[test]
    fn a_path_update_for_a_held_epoch_does_not_keep_the_leader_alive() {
        let (mut session, _, _) = connect_welcomed(1, [7; 32], [1; 12]);
        let lost = lost_at_while_fed(&mut session, || keyless_path_update(0));
        assert_eq!(lost, Some(ms(150)));
    }

    #[test]
    fn a_path_update_without_a_tree_does_not_keep_the_leader_alive() {
        // Welcomed by a flat `Welcome`: no tree to follow an update with.
        let (mut session, _, _) = connect_welcomed(1, [7; 32], [1; 12]);
        let lost = lost_at_while_fed(&mut session, || keyless_path_update(2));
        assert_eq!(lost, Some(ms(150)));
        assert_eq!(session.group_epoch(), Some(1));
    }

    #[test]
    fn a_replayed_admin_retransmission_does_not_keep_the_leader_alive() {
        let (mut session, sk, n3) = connect();
        let welcome = admin_env(
            &sk,
            n3,
            ProtocolNonce::from_bytes([0xA1; 16]),
            AdminPayload::Welcome {
                members: Roster::from_iter([id("alice")]),
                epoch: 1,
                group_key: [7; 32],
                iv: [1; 12],
            },
        );
        let ack = session.handle(&welcome).unwrap().reply.unwrap();
        // Each replay is answered with the cached ack, and is no more.
        let lost = lost_at_while_fed(&mut session, || welcome.clone());
        assert_eq!(lost, Some(ms(150)));
        assert_eq!(session.handle(&welcome).unwrap().reply.unwrap(), ack);
    }

    #[test]
    fn a_replayed_pong_does_not_keep_the_leader_alive() {
        let (mut session, sk, _) = connect_welcomed(1, [7; 32], [1; 12]);
        session.heartbeat().unwrap();
        let mut pong = Envelope {
            msg_type: MsgType::Heartbeat,
            sender: id("leader"),
            recipient: id("alice"),
            group: None,
            body: Vec::new(),
        };
        pong.body = seal(
            &sk,
            AeadNonce::from_bytes([0xCC; 12]),
            &pong.header_aad(),
            &HeartbeatPlain {
                user: id("alice"),
                leader: id("leader"),
                seq: 1,
                epoch: 1,
            },
        );
        // The first echo of ping 1 is fresh; a recording of it is not.
        let accepted = session_accepted(&session);
        session.handle(&pong).unwrap();
        assert_eq!(session_accepted(&session), accepted + 1);
        let lost = lost_at_while_fed(&mut session, || pong.clone());
        assert_eq!(lost, Some(ms(150)));
    }

    /// The session's next deadline, after checking that a tick one
    /// nanosecond before it does nothing and leaves it in place.
    fn quiet_until_deadline(session: &mut MemberSession, lv: &LivenessConfig) -> Duration {
        let due = session.next_deadline(lv).expect("a timer is armed");
        let early = session.tick(due - Duration::from_nanos(1), lv);
        assert!(early.frames.is_empty(), "a frame before {due:?}");
        assert!(!early.leader_lost, "the leader lost before {due:?}");
        assert_eq!(session.next_deadline(lv), Some(due));
        due
    }

    #[test]
    fn next_deadline_is_the_handshake_resend_while_it_is_pending() {
        let lv = LivenessConfig {
            retransmit_base: ms(100),
            retransmit_max: ms(100),
            ..LivenessConfig::default()
        };
        let (mut session, init, _) = start();
        assert_eq!(session.next_deadline(&lv), Some(Duration::ZERO));
        session.tick(ms(0), &lv);
        let due = quiet_until_deadline(&mut session, &lv);
        assert_eq!(due, ms(100));
        let tick = session.tick(due, &lv);
        assert_eq!(tick.frames.len(), 1);
        assert_eq!(tick.frames[0].body, init.body);
        assert_eq!(session.next_deadline(&lv), Some(ms(200)));
    }

    #[test]
    fn next_deadline_is_the_heartbeat_once_connected() {
        let lv = LivenessConfig {
            heartbeat_interval: Some(ms(1000)),
            ..quiet_timers()
        };
        let (mut session, _, _) = connect_welcomed(1, [7; 32], [1; 12]);
        assert_eq!(session.next_deadline(&lv), Some(Duration::ZERO));
        session.tick(ms(0), &lv);
        let due = quiet_until_deadline(&mut session, &lv);
        assert_eq!(due, ms(1000));
        let frames = session.tick(due, &lv).frames;
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].msg_type, MsgType::Heartbeat);
        assert_eq!(session.next_deadline(&lv), Some(ms(2000)));
    }

    #[test]
    fn next_deadline_is_the_silence_timeout_and_only_accepted_frames_move_it() {
        let lv = LivenessConfig {
            liveness_timeout: Some(ms(1000)),
            ..quiet_timers()
        };
        let (key, iv) = ([7; 32], [1; 12]);
        let (mut session, _, _) = connect_welcomed(1, key, iv);
        session.tick(ms(0), &lv);
        let broadcast = broadcast_env(1, 0, &key, &iv, b"once");
        session.handle(&broadcast).unwrap();
        assert_eq!(session.next_deadline(&lv), Some(Duration::ZERO));
        session.tick(ms(500), &lv);
        let due = ms(1500) + Duration::from_nanos(1);
        assert_eq!(session.next_deadline(&lv), Some(due));
        assert!(session.handle(&broadcast).is_err(), "a replay is rejected");
        assert_eq!(session.next_deadline(&lv), Some(due));
        assert_eq!(quiet_until_deadline(&mut session, &lv), due);
        assert!(session.tick(due, &lv).leader_lost);
    }

    /// Retransmits only, as the load rig's members run: once the welcome
    /// ends the handshake, nothing is left to wake the session for.
    #[test]
    fn next_deadline_is_none_after_the_welcome_without_heartbeats_or_timeout() {
        let lv = quiet_timers();
        let (mut session, _, _) = start();
        session.tick(ms(0), &lv);
        assert_eq!(session.next_deadline(&lv), Some(Duration::from_secs(3600)));
        let (mut session, _, _) = connect_welcomed(1, [7; 32], [1; 12]);
        session.tick(ms(0), &lv);
        assert_eq!(session.next_deadline(&lv), None);
    }

    #[test]
    fn rejoin_is_a_fresh_session_on_the_same_identity_and_registry() {
        use crate::config::LeaderConfig;
        use crate::directory::Directory;
        use crate::protocol::LeaderCore;

        let lv = LivenessConfig {
            retransmit_base: ms(100),
            retransmit_max: ms(100),
            ..LivenessConfig::default()
        };
        let alpha = GroupId::new("alpha").unwrap();
        let key = LongTermKey::derive_from_password("pw", "alice").unwrap();
        let (mut first, _) = MemberSession::start_with_key_in_group(
            id("alice"),
            id("leader"),
            key.clone(),
            Box::new(SeededRng::from_seed(7)),
            Some(alpha.clone()),
        );
        let stream = EventStream::new();
        first.set_event_stream(stream.clone());
        first.tick(ms(0), &lv);
        assert_eq!(first.tick(ms(100), &lv).frames.len(), 1);

        let (second, _) = first.rejoin();
        let (mut third, init) = second.rejoin();
        assert_eq!(third.user(), &id("alice"));
        assert_eq!(third.group_id(), Some(&alpha));
        assert_eq!(third.phase(), SessionPhase::WaitingForKey);
        assert_eq!(
            (&init.msg_type, &init.sender, &init.recipient, &init.group),
            (
                &MsgType::AuthInitReq,
                &id("alice"),
                &id("leader"),
                &Some(alpha.clone())
            )
        );
        let snap = third.obs_registry().snapshot();
        assert_eq!(snap.counter("member.retransmits"), 1);
        assert_eq!(snap.counter("member.rejoins"), 2);
        // Its timers start afresh at its own first tick.
        assert!(third.tick(ms(5000), &lv).frames.is_empty());

        let mut directory = Directory::new();
        directory.register_key(&id("alice"), key);
        let mut leader = LeaderCore::with_rng(
            id("leader"),
            directory,
            LeaderConfig {
                group: Some(alpha),
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(1)),
        );
        let key_dist = leader.handle_at(&init, Duration::ZERO).unwrap().outgoing;
        let out = third.handle(&key_dist[0]).unwrap();
        assert_eq!(out.events, vec![MemberEvent::SessionEstablished]);
        assert!(stream
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::SessionEstablished { .. })));
    }

    /// In-place Fisher–Yates under the test's own RNG (the vendored rand
    /// has no `SliceRandom`).
    fn shuffle<T>(rng: &mut rand::rngs::StdRng, items: &mut [T]) {
        use rand::Rng;
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The broadcast replay watermark, confronted with arbitrary
        /// seeded interleavings of duplicates and reorders across a rekey:
        /// every `(epoch, seq)` is delivered at most once, acceptance
        /// matches the reference model exactly (current epoch above the
        /// current watermark, previous epoch above the frozen previous
        /// watermark, anything else `WrongEpoch`), rejected frames are
        /// rejected for the modelled reason, and the per-epoch sequence
        /// reset after a rekey does not let epoch-2 `seq 0` collide with
        /// epoch-1 `seq 0`.
        #[test]
        fn broadcast_watermark_at_most_once_across_rekey(seed in 0u64..1 << 48) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            use std::collections::HashSet;

            let (key1, iv1) = ([5u8; 32], [6u8; 12]);
            let (key2, iv2) = ([8u8; 32], [9u8; 12]);
            let (mut session, sk, next) = connect_welcomed(1, key1, iv1);
            let mut rng = StdRng::seed_from_u64(seed);

            let frame = |epoch: u64, seq: u64| {
                let (k, iv) = if epoch == 2 { (&key2, &iv2) } else { (&key1, &iv1) };
                broadcast_env(epoch, seq, k, iv, format!("e{epoch}-s{seq}").as_bytes())
            };

            // Reference model: the per-epoch watermarks the member must
            // enforce. `cur_epoch` flips from 1 to 2 at the rekey; the
            // epoch-1 watermark is then frozen as the grace watermark.
            let mut cur_epoch = 1u64;
            let mut seen_cur: Option<u64> = None;
            let mut seen_prev: Option<u64> = None;
            let mut delivered: HashSet<(u64, u64)> = HashSet::new();

            let deliver = |session: &mut MemberSession,
                               cur_epoch: u64,
                               seen_cur: &mut Option<u64>,
                               seen_prev: &mut Option<u64>,
                               delivered: &mut HashSet<(u64, u64)>,
                               epoch: u64,
                               seq: u64| {
                let outcome = session.handle(&frame(epoch, seq));
                if epoch == cur_epoch {
                    if seen_cur.is_none_or(|s| seq > s) {
                        let out = outcome.expect("fresh current-epoch frame must deliver");
                        prop_assert_eq!(
                            &out.events,
                            &vec![MemberEvent::Broadcast {
                                from: id("leader"),
                                epoch,
                                seq,
                                data: format!("e{epoch}-s{seq}").into_bytes(),
                            }]
                        );
                        prop_assert!(out.reply.is_none(), "data plane must not ack");
                        prop_assert!(
                            delivered.insert((epoch, seq)),
                            "(epoch {}, seq {}) delivered twice", epoch, seq
                        );
                        *seen_cur = Some(seq);
                    } else {
                        prop_assert!(
                            matches!(outcome, Err(CoreError::Rejected(RejectReason::StaleNonce))),
                            "stale current-epoch frame must be StaleNonce"
                        );
                    }
                } else if cur_epoch == 2 && epoch == 1 {
                    // One epoch of rekey grace, under its frozen watermark.
                    if seen_prev.is_none_or(|s| seq > s) {
                        let out = outcome.expect("fresh grace-epoch frame must deliver");
                        prop_assert_eq!(out.events.len(), 1);
                        prop_assert!(
                            delivered.insert((epoch, seq)),
                            "grace (epoch {}, seq {}) delivered twice", epoch, seq
                        );
                        *seen_prev = Some(seq);
                    } else {
                        prop_assert!(
                            matches!(outcome, Err(CoreError::Rejected(RejectReason::StaleNonce))),
                            "stale grace-epoch frame must be StaleNonce"
                        );
                    }
                } else {
                    prop_assert!(
                        matches!(outcome, Err(CoreError::Rejected(RejectReason::WrongEpoch))),
                        "unknown epoch {} must be WrongEpoch", epoch
                    );
                }
            };

            // Phase A: epoch-1 frames, shuffled, with seeded duplicates
            // and an unknown-epoch probe mixed in.
            let mut stream: Vec<(u64, u64)> = Vec::new();
            for seq in 0..5u64 {
                stream.push((1, seq));
                if rng.gen_bool(0.4) {
                    stream.push((1, seq));
                }
            }
            stream.push((3, 0)); // future epoch: never installed
            shuffle(&mut rng, &mut stream);
            for &(epoch, seq) in &stream {
                deliver(
                    &mut session, cur_epoch, &mut seen_cur, &mut seen_prev,
                    &mut delivered, epoch, seq,
                );
            }

            // Rekey to epoch 2: broadcast seq resets, epoch 1 gets one
            // epoch of grace under its frozen watermark.
            session
                .handle(&admin_env(
                    &sk,
                    next,
                    ProtocolNonce::from_bytes([0xA2; 16]),
                    AdminPayload::NewGroupKey { epoch: 2, key: key2, iv: iv2 },
                ))
                .unwrap();
            cur_epoch = 2;
            seen_prev = seen_cur;
            seen_cur = None;

            // Phase B: epoch-2 frames (seq reset to 0) interleaved with
            // late epoch-1 stragglers, replays of everything phase A
            // delivered, and an ancient-epoch probe.
            let mut stream: Vec<(u64, u64)> = Vec::new();
            for seq in 0..5u64 {
                stream.push((2, seq));
                if rng.gen_bool(0.4) {
                    stream.push((2, seq));
                }
            }
            for seq in 0..7u64 {
                stream.push((1, seq)); // stragglers + replays
            }
            stream.push((0, 0)); // older than the grace epoch
            shuffle(&mut rng, &mut stream);
            for &(epoch, seq) in &stream {
                deliver(
                    &mut session, cur_epoch, &mut seen_cur, &mut seen_prev,
                    &mut delivered, epoch, seq,
                );
            }

            // Whatever the interleaving, delivery happened at most once
            // per (epoch, seq) — the HashSet insert asserts enforced it —
            // and something was actually delivered in both epochs.
            prop_assert!(delivered.iter().any(|&(e, _)| e == 1));
            prop_assert!(delivered.iter().any(|&(e, _)| e == 2));

            // Exact replays of delivered frames are stale, not re-delivered.
            for &(epoch, seq) in delivered.clone().iter() {
                deliver(
                    &mut session, cur_epoch, &mut seen_cur, &mut seen_prev,
                    &mut delivered, epoch, seq,
                );
            }
        }

        /// The same watermark guarantees when the epoch flip arrives as a
        /// tree `PathUpdate` broadcast instead of a per-member
        /// `NewGroupKey` admin seal: a member that has just applied a path
        /// update still opens broadcasts sealed under the previous epoch
        /// (one epoch of grace, frozen watermark), the new epoch's reset
        /// `seq 0` never collides with the old epoch's `seq 0`, and
        /// duplicates — including redelivered copies of the multicast
        /// `PathUpdate` itself — change nothing.
        #[test]
        fn broadcast_watermark_across_tree_rekey(seed in 0u64..1 << 48) {
            use crate::protocol::keytree::KeyTree;
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            use std::collections::HashSet;

            let (key1, iv1) = ([5u8; 32], [6u8; 12]);
            let (mut session, sk, next) = connect_welcomed(1, key1, iv1);
            let mut rng = StdRng::seed_from_u64(seed);

            // Leader-side tree with alice alone (her leaf is the root):
            // sync her path at the current epoch, then refresh it. The
            // refresh seals the fresh secret under her old leaf key.
            let mut tree_rng = SeededRng::from_seed(seed ^ 0xA5A5);
            let mut ltree = KeyTree::new();
            ltree.add(id("alice"), &mut tree_rng);
            let (slot, path_keys) = ltree.path_keys(&id("alice")).unwrap();
            session
                .handle(&admin_env(
                    &sk,
                    next,
                    ProtocolNonce::from_bytes([0xB7; 16]),
                    AdminPayload::PathSync {
                        epoch: 1,
                        leaf_index: slot,
                        leaf_count: ltree.leaf_count(),
                        path_keys,
                    },
                ))
                .unwrap();
            prop_assert_eq!(session.group_epoch(), Some(1), "same-epoch sync keeps the key");

            let plan = ltree.refresh_next(&mut tree_rng);
            let (key2, iv2) = treekdf::derive_group(&plan.root_key, 2);
            let update = Envelope {
                msg_type: MsgType::PathUpdate,
                sender: id("leader"),
                recipient: id("leader"),
                group: None,
                body: encode(&PathUpdateWire {
                    epoch: 2,
                    leaf_count: plan.leaf_count,
                    leaves: plan.leaves.to_vec(),
                    nonce: [0xC3; 12],
                    ciphers: plan
                        .seals
                        .iter()
                        .map(|s| {
                            let aad = path_update_aad(
                                &id("leader"),
                                2,
                                plan.leaf_count,
                                &plan.leaves,
                                s.node_index,
                                None,
                            );
                            let ciphertext = ChaCha20Poly1305::new(&s.seal_key).seal(
                                &AeadNonce::from_bytes(cipher_nonce([0xC3; 12], s.node_index)),
                                &s.path_secret,
                                &aad,
                            );
                            (s.node_index, ciphertext)
                        })
                        .collect(),
                }),
            };

            let frame = |epoch: u64, seq: u64| {
                let (k, iv) = if epoch == 2 { (&key2, &iv2) } else { (&key1, &iv1) };
                broadcast_env(epoch, seq, k, iv, format!("e{epoch}-s{seq}").as_bytes())
            };

            // Reference model, identical to the flat-rekey property.
            let mut cur_epoch = 1u64;
            let mut seen_cur: Option<u64> = None;
            let mut seen_prev: Option<u64> = None;
            let mut delivered: HashSet<(u64, u64)> = HashSet::new();

            let deliver = |session: &mut MemberSession,
                               cur_epoch: u64,
                               seen_cur: &mut Option<u64>,
                               seen_prev: &mut Option<u64>,
                               delivered: &mut HashSet<(u64, u64)>,
                               epoch: u64,
                               seq: u64| {
                let outcome = session.handle(&frame(epoch, seq));
                if epoch == cur_epoch {
                    if seen_cur.is_none_or(|s| seq > s) {
                        let out = outcome.expect("fresh current-epoch frame must deliver");
                        prop_assert_eq!(
                            &out.events,
                            &vec![MemberEvent::Broadcast {
                                from: id("leader"),
                                epoch,
                                seq,
                                data: format!("e{epoch}-s{seq}").into_bytes(),
                            }]
                        );
                        prop_assert!(
                            delivered.insert((epoch, seq)),
                            "(epoch {}, seq {}) delivered twice", epoch, seq
                        );
                        *seen_cur = Some(seq);
                    } else {
                        prop_assert!(
                            matches!(outcome, Err(CoreError::Rejected(RejectReason::StaleNonce))),
                            "stale current-epoch frame must be StaleNonce"
                        );
                    }
                } else if cur_epoch == 2 && epoch == 1 {
                    if seen_prev.is_none_or(|s| seq > s) {
                        let out = outcome.expect("fresh grace-epoch frame must deliver");
                        prop_assert_eq!(out.events.len(), 1);
                        prop_assert!(
                            delivered.insert((epoch, seq)),
                            "grace (epoch {}, seq {}) delivered twice", epoch, seq
                        );
                        *seen_prev = Some(seq);
                    } else {
                        prop_assert!(
                            matches!(outcome, Err(CoreError::Rejected(RejectReason::StaleNonce))),
                            "stale grace-epoch frame must be StaleNonce"
                        );
                    }
                } else {
                    prop_assert!(
                        matches!(outcome, Err(CoreError::Rejected(RejectReason::WrongEpoch))),
                        "unknown epoch {} must be WrongEpoch", epoch
                    );
                }
            };

            // Phase A: epoch-1 traffic with seeded duplicates.
            let mut stream: Vec<(u64, u64)> = Vec::new();
            for seq in 0..5u64 {
                stream.push((1, seq));
                if rng.gen_bool(0.4) {
                    stream.push((1, seq));
                }
            }
            shuffle(&mut rng, &mut stream);
            for &(epoch, seq) in &stream {
                deliver(
                    &mut session, cur_epoch, &mut seen_cur, &mut seen_prev,
                    &mut delivered, epoch, seq,
                );
            }

            // The tree rekey: one PathUpdate broadcast flips the epoch.
            let out = session.handle(&update).expect("path update applies");
            prop_assert!(
                out.events.iter().any(|e| matches!(e, MemberEvent::GroupKeyChanged { epoch: 2 })),
                "path update must install epoch 2"
            );
            prop_assert_eq!(session.group_epoch(), Some(2));
            cur_epoch = 2;
            seen_prev = seen_cur;
            seen_cur = None;

            // A redelivered copy of the multicast is a silent no-op.
            let dup = session.handle(&update).expect("duplicate multicast tolerated");
            prop_assert!(dup.events.is_empty(), "duplicate PathUpdate must change nothing");
            prop_assert_eq!(session.group_epoch(), Some(2));

            // Phase B: epoch-2 frames (seq reset) interleaved with epoch-1
            // stragglers and replays.
            let mut stream: Vec<(u64, u64)> = Vec::new();
            for seq in 0..5u64 {
                stream.push((2, seq));
                if rng.gen_bool(0.4) {
                    stream.push((2, seq));
                }
            }
            for seq in 0..7u64 {
                stream.push((1, seq));
            }
            stream.push((0, 0));
            shuffle(&mut rng, &mut stream);
            for &(epoch, seq) in &stream {
                deliver(
                    &mut session, cur_epoch, &mut seen_cur, &mut seen_prev,
                    &mut delivered, epoch, seq,
                );
            }

            prop_assert!(delivered.iter().any(|&(e, _)| e == 1));
            prop_assert!(delivered.iter().any(|&(e, _)| e == 2));
        }

        /// The planted-violation switch really disarms the watermark: with
        /// it on, the same duplicate is delivered twice (this is what the
        /// chaos oracle is expected to catch).
        #[test]
        fn disabled_watermark_redelivers_duplicates(seq in 0u64..32) {
            let (key, iv) = ([5u8; 32], [6u8; 12]);
            let (mut session, _sk, _next) = connect_welcomed(1, key, iv);
            session.disable_broadcast_watermark_for_tests();
            let env = broadcast_env(1, seq, &key, &iv, b"dup");
            let first = session.handle(&env).expect("first delivery");
            prop_assert_eq!(first.events.len(), 1);
            let second = session.handle(&env).expect("sabotaged member re-accepts");
            prop_assert_eq!(second.events.len(), 1, "watermark off ⇒ duplicate delivered");
        }
    }
}
