//! The §3.2 admin channel: every frame the leader seals or opens under a
//! member's `K_a`. A [`Channel`] is the `Connected ⇄ WaitingForAck` half
//! of Fig. 3's machine for one member, the 4-state machine
//! `enclaves-model::leader` checks: a stop-and-wait exchange chained by
//! the nonces `N_{2i}`/`N_{2i+1}`, with one admin frame in flight and the
//! payloads behind it queued. [`open_uplink`] is the one opener of a
//! member's frames, [`to_member`] the one builder of the leader's, and
//! [`LeaderCore::send_admin`] and [`LeaderCore::accept_ack`] the two
//! halves of the exchange.

use super::{LeaderCore, LeaderOutput, Slot};
use crate::config::LeaderConfig;
use crate::error::{CoreError, RejectReason};
use crate::liveness::Arq;
use crate::protocol::SEQ_LEADER;
use enclaves_crypto::keys::SessionKey;
use enclaves_crypto::nonce::{NonceSequence, ProtocolNonce};
use enclaves_obs::EventKind;
use enclaves_wire::codec::Decode;
use enclaves_wire::message::{
    open, seal, AdminPayload, AdminPlain, AuthInitPlain, ClosePlain, Envelope, GroupDataPlain,
    HeartbeatPlain, MsgType, NonceAckPlain,
};
use enclaves_wire::{ActorId, Roster};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A frame awaiting its acknowledgment — the handshake reply or one
/// member's admin message (stop-and-wait, as the paper's state machine
/// prescribes). Sealed and encoded exactly once; [`LeaderCore::tick`]
/// redelivers the same refcounted bytes until the nonce comes back.
pub(super) struct InFlight {
    /// The leader nonce the acknowledgment must echo.
    pub(super) nonce: ProtocolNonce,
    pub(super) frame: Arc<[u8]>,
    pub(super) arq: Arq,
}

/// One member's admin channel, from its completed handshake on.
pub(super) struct Channel {
    pub(super) session_key: SessionKey,
    /// Latest nonce received from the member (`N_{2i+1}`).
    user_nonce: ProtocolNonce,
    send_seq: NonceSequence,
    /// The in-flight admin message, if any.
    outstanding: Option<InFlight>,
    /// The nonce of the admin message acknowledged last: a second ack of
    /// it is the re-ack of a resend that crossed the first, not a forgery.
    acked: Option<ProtocolNonce>,
    /// Queued payloads awaiting the acknowledgment of the in-flight one.
    pending: VecDeque<AdminPayload>,
    /// Last time an authenticated message arrived from this member (ack,
    /// heartbeat, close, or relayed data) — the liveness deadline anchor.
    pub(super) last_heard: Duration,
    /// Highest heartbeat ping sequence accepted; replays at or below it
    /// are rejected so a recorded ping cannot keep a dead member alive.
    pub(super) hb_seq: u64,
    /// Highest `GroupData` uplink sequence accepted, under the same rule:
    /// a replayed uplink is neither relayed again nor proof of life.
    pub(super) data_seq: u64,
    /// Highest epoch a tree-mode direct path has been queued for on this
    /// channel, by its `TreeWelcome` or a `PathSync` — dedup so a member whose
    /// heartbeats keep reporting a stale epoch gets one resync per epoch,
    /// not one per ping.
    synced_epoch: u64,
}

impl Channel {
    /// The channel a handshake completed at `now` opens, chained from the
    /// member's next nonce.
    pub(super) fn new(session_key: SessionKey, user_nonce: ProtocolNonce, now: Duration) -> Self {
        Channel {
            session_key,
            user_nonce,
            send_seq: NonceSequence::new(SEQ_LEADER),
            outstanding: None,
            acked: None,
            pending: VecDeque::new(),
            last_heard: now,
            hb_seq: 0,
            data_seq: 0,
            synced_epoch: 0,
        }
    }

    /// The admin frame awaiting its ack, for the retransmit timer.
    pub(super) fn in_flight(&mut self) -> Option<&mut InFlight> {
        self.outstanding.as_mut()
    }

    /// Whether an admin frame awaits its ack.
    pub(super) fn awaiting_ack(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Takes an uplink the member numbered `seq` against its `watermark`
    /// (data or heartbeat): a replay at or below it is stale and proves
    /// nothing; a fresh one raises it and is proof of life at `now`.
    pub(super) fn hear(
        &mut self,
        seq: u64,
        watermark: fn(&mut Channel) -> &mut u64,
        now: Duration,
    ) -> Result<(), CoreError> {
        let last = watermark(self);
        if seq <= *last {
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        *last = seq;
        self.last_heard = now;
        Ok(())
    }
}

/// A plaintext a member seals to its leader; it names both ends.
pub(super) trait Uplink: Decode {
    /// The `(user, leader)` it names.
    fn ends(&self) -> (&ActorId, &ActorId);
}

macro_rules! uplink {
    ($($plain:ty),*) => {$(
        impl Uplink for $plain {
            fn ends(&self) -> (&ActorId, &ActorId) {
                (&self.user, &self.leader)
            }
        }
    )*};
}
uplink! { AuthInitPlain, NonceAckPlain, ClosePlain, GroupDataPlain, HeartbeatPlain }

/// Opens `env`'s body under `key` and checks that it names the envelope's
/// sender as the user and `leader` as the leader.
pub(super) fn open_under<T: Uplink>(
    key: &[u8; 32],
    env: &Envelope,
    leader: &ActorId,
) -> Result<T, CoreError> {
    let plain: T = open(key, &env.header_aad(), &env.body)?;
    if plain.ends() != (&env.sender, leader) {
        return Err(CoreError::Rejected(RejectReason::WrongIdentity));
    }
    Ok(plain)
}

/// The one opener of a member's frames: looks up the sender's slot, opens
/// the body under its `K_a` and checks the ends. A slot takes the key ack
/// while its handshake waits, a close in every state, and an ack, data or
/// a heartbeat once connected; any other frame is refused unopened.
pub(super) fn open_uplink<'s, T: Uplink>(
    slots: &'s mut HashMap<ActorId, Slot>,
    leader: &ActorId,
    env: &Envelope,
) -> Result<(&'s mut Slot, T), CoreError> {
    use MsgType::{Ack, AuthAckKey, GroupData, Heartbeat, ReqClose};
    let refused = || CoreError::Rejected(RejectReason::UnexpectedType);
    let slot = slots.get_mut(&env.sender).ok_or_else(refused)?;
    let key = match (&*slot, env.msg_type) {
        (Slot::WaitingForKeyAck { session_key, .. }, AuthAckKey | ReqClose) => session_key,
        (Slot::Staged(channel), ReqClose)
        | (Slot::Connected(channel), Ack | ReqClose | GroupData | Heartbeat) => {
            &channel.session_key
        }
        _ => return Err(refused()),
    };
    let plain = open_under(key.as_bytes(), env, leader)?;
    Ok((slot, plain))
}

/// An envelope of `msg_type` from `leader` to `user`, tagged with the
/// enclave of `config`, its body still empty: the leader's twin of the
/// member's `to_leader`.
pub(super) fn to_member(
    msg_type: MsgType,
    leader: &ActorId,
    user: &ActorId,
    config: &LeaderConfig,
) -> Envelope {
    Envelope {
        msg_type,
        sender: leader.clone(),
        recipient: user.clone(),
        group: config.group.clone(),
        body: Vec::new(),
    }
}

/// A stable per-member discriminator for the deterministic jitter hash
/// (FNV-1a over the name bytes — cheap, pure, no allocation).
pub(super) fn channel_tag(user: &ActorId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.as_str().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl LeaderCore {
    /// The one admin send path (§3.2: one stop-and-wait exchange per
    /// member under `K_a`). In one step, under whatever lock guards the
    /// core: queue `payload` behind an in-flight message — dropping the
    /// oldest queued payload when `max_pending_admin` wait already — or
    /// draw the leader nonce and the AEAD sequence number, seal, and cache
    /// the encoded frame for retransmission. A roster member with no
    /// connected channel is skipped: after a journal recovery the whole
    /// roster is sessionless until each member re-authenticates, and each
    /// learns the current roster and key material from its own
    /// re-admission `Welcome`.
    pub(super) fn send_admin(
        &mut self,
        out: &mut LeaderOutput,
        user: &ActorId,
        payload: AdminPayload,
    ) -> Result<(), CoreError> {
        let Some(Slot::Connected(channel)) = self.slots.get_mut(user) else {
            return Ok(());
        };
        if let AdminPayload::TreeWelcome { epoch, .. } | AdminPayload::PathSync { epoch, .. } =
            &payload
        {
            channel.synced_epoch = channel.synced_epoch.max(*epoch);
        }
        if channel.outstanding.is_some() {
            let pending = &mut channel.pending;
            if pending.len() >= self.config.max_pending_admin && pending.pop_front().is_some() {
                self.obs.admin_dropped.inc();
            }
            pending.push_back(payload);
            return Ok(());
        }
        let nonce = ProtocolNonce::generate(self.rng.as_mut());
        let seq = channel.send_seq.next()?;
        let plain = AdminPlain {
            leader: self.leader.clone(),
            user: user.clone(),
            user_nonce: channel.user_nonce,
            leader_nonce: nonce,
            payload,
        };
        let mut env = to_member(MsgType::AdminMsg, &self.leader, user, &self.config);
        let sealing = Instant::now();
        let frame = env.seal_body(channel.session_key.as_bytes(), seq, &plain);
        self.batch_seal_ns += u64::try_from(sealing.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.batch_frames += 1;
        let arq = Arq::start(self.now, &self.config.liveness, channel_tag(user));
        channel.outstanding = Some(InFlight {
            nonce,
            frame: frame.into(),
            arq,
        });
        self.arm(Some(arq.deadline));
        self.obs.admin_sent.inc();
        out.outgoing.push(env);
        Ok(())
    }

    /// [`LeaderCore::send_admin`] of one payload to every member of
    /// `recipients`, in roster order.
    pub(super) fn send_admin_all(
        &mut self,
        out: &mut LeaderOutput,
        recipients: &Roster,
        payload: &AdminPayload,
    ) -> Result<(), CoreError> {
        for name in recipients.iter() {
            if let Some(member) = self.slot_id(name) {
                self.send_admin(out, &member, payload.clone())?;
            }
        }
        Ok(())
    }

    /// A member's ack of its in-flight admin frame: the channel is free,
    /// the ack's next nonce chains the following frame, and the oldest
    /// queued payload goes out. An ack of any other nonce changes nothing;
    /// a re-ack of the frame acked last is refused as a duplicate.
    pub(super) fn accept_ack(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        let (slot, ack) = open_uplink::<NonceAckPlain>(&mut self.slots, &self.leader, env)?;
        let Slot::Connected(channel) = slot else {
            unreachable!("an ack opens on a connected channel only");
        };
        if channel.outstanding.as_ref().map(|m| m.nonce) != Some(ack.acked_nonce) {
            self.duplicate_ack = channel.acked == Some(ack.acked_nonce);
            return Err(CoreError::Rejected(RejectReason::StaleNonce));
        }
        channel.acked = channel.outstanding.take().map(|m| m.nonce);
        channel.user_nonce = ack.next_nonce;
        channel.last_heard = self.now;
        let next = channel.pending.pop_front();
        self.obs.emit(|| EventKind::AdminAcked {
            member: env.sender.to_string(),
        });
        let mut out = LeaderOutput::default();
        if let Some(next) = next {
            self.send_admin(&mut out, &env.sender, next)?;
        }
        Ok(out)
    }

    /// A member's heartbeat ping, answered with a pong under `K_a` that
    /// echoes its sequence and carries the leader's epoch.
    pub(super) fn accept_heartbeat(&mut self, env: &Envelope) -> Result<LeaderOutput, CoreError> {
        let (slot, ping) = open_uplink::<HeartbeatPlain>(&mut self.slots, &self.leader, env)?;
        let Slot::Connected(channel) = slot else {
            unreachable!("a heartbeat opens on a connected channel only");
        };
        // Pings carry a strictly increasing sequence: a replayed ping must
        // not refresh a dead member's liveness deadline.
        channel.hear(ping.seq, |c| &mut c.hb_seq, self.now)?;
        let epoch = self.group.current_epoch().map_or(0, |e| e.epoch);
        // A lagging epoch in an authenticated ping is evidence of a missed
        // PathUpdate broadcast. Resync stays leader-driven — the member
        // cannot request one, so forged traffic elicits no state change —
        // and is deduped per epoch via the channel marker.
        let missed_update = ping.epoch < epoch && channel.synced_epoch < epoch;
        let mut pong = to_member(MsgType::Heartbeat, &self.leader, &env.sender, &self.config);
        let (key, seq) = (channel.session_key.as_bytes(), channel.send_seq.next()?);
        let plain = HeartbeatPlain {
            user: env.sender.clone(),
            leader: self.leader.clone(),
            seq: ping.seq,
            epoch,
        };
        pong.body = seal(key, seq, &pong.header_aad(), &plain);
        self.obs.heartbeats.inc();
        let mut out = LeaderOutput {
            outgoing: vec![pong],
            ..LeaderOutput::default()
        };
        if missed_update {
            self.send_path_sync(&mut out, &env.sender)?;
        }
        Ok(out)
    }

    /// Accounts for the admin frames sealed since the last call as one
    /// batch: every entry point that can send ends with this, so a batch
    /// is one join, departure, rekey or broadcast. (An entry point that
    /// bails out part-way leaves its frames to the next batch.)
    pub(super) fn record_seal_batch(&mut self) {
        let (frames, elapsed_ns) = (self.batch_frames, self.batch_seal_ns);
        if frames == 0 {
            return;
        }
        (self.batch_frames, self.batch_seal_ns) = (0, 0);
        self.obs.admin_seals.add(frames);
        self.obs.admin_seal_ns.add(elapsed_ns);
        self.obs.seal_batch_ns.record(elapsed_ns);
        self.obs
            .emit(|| EventKind::SealBatch { frames, elapsed_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Directory;
    use crate::protocol::member::{MemberEvent, MemberSession};
    use enclaves_crypto::keys::LongTermKey;
    use enclaves_crypto::nonce::AeadNonce;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_wire::codec::Encode;
    use proptest::prelude::*;

    const KEY: [u8; 32] = [7; 32];

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn count(core: &LeaderCore, name: &str) -> u64 {
        core.obs_registry().snapshot().counter(name)
    }

    /// An envelope of `msg_type` from `from` to the leader carrying
    /// `plain` sealed under `key`.
    fn uplink<T: Encode>(msg_type: MsgType, from: &str, key: &[u8; 32], plain: &T) -> Envelope {
        let mut env = Envelope {
            msg_type,
            sender: id(from),
            recipient: id("leader"),
            group: None,
            body: Vec::new(),
        };
        env.body = seal(
            key,
            AeadNonce::from_bytes([1; 12]),
            &env.header_aad(),
            plain,
        );
        env
    }

    fn ack(key: &[u8; 32], acked: ProtocolNonce, next: u8) -> Envelope {
        let plain = NonceAckPlain {
            user: id("alice"),
            leader: id("leader"),
            acked_nonce: acked,
            next_nonce: ProtocolNonce::from_bytes([next; 16]),
        };
        uplink(MsgType::Ack, "alice", key, &plain)
    }

    fn close(user: &str, leader: &str) -> Envelope {
        let plain = ClosePlain {
            user: id(user),
            leader: id(leader),
        };
        uplink(MsgType::ReqClose, "alice", &KEY, &plain)
    }

    fn channel() -> Channel {
        Channel::new(
            SessionKey::from_bytes(KEY),
            ProtocolNonce::from_bytes([0; 16]),
            Duration::ZERO,
        )
    }

    /// A core whose only slot is alice's connected channel under [`KEY`].
    fn core_with_alice(max_pending_admin: usize) -> LeaderCore {
        let config = LeaderConfig {
            max_pending_admin,
            ..LeaderConfig::default()
        };
        let rng = Box::new(SeededRng::from_seed(1));
        let mut core = LeaderCore::with_rng(id("leader"), Directory::new(), config, rng);
        core.slots.insert(id("alice"), Slot::Connected(channel()));
        core
    }

    fn alice(core: &LeaderCore) -> &Channel {
        match &core.slots[&id("alice")] {
            Slot::Connected(channel) => channel,
            _ => panic!("alice is connected"),
        }
    }

    /// Every field of alice's channel, for before-and-after comparison.
    fn fields(core: &LeaderCore) -> String {
        let c = alice(core);
        let in_flight = c
            .outstanding
            .as_ref()
            .map(|m| (m.nonce, m.frame.to_vec(), m.arq));
        format!(
            "{in_flight:?} {:?} {:?} {:?} {:?} {:?} {} {} {}",
            c.acked,
            c.user_nonce,
            c.send_seq,
            c.pending,
            c.last_heard,
            c.hb_seq,
            c.data_seq,
            c.synced_epoch
        )
    }

    /// The payload and leader nonce of an admin frame to alice.
    fn admin(env: &Envelope) -> (AdminPayload, ProtocolNonce) {
        let plain: AdminPlain = open(&KEY, &env.header_aad(), &env.body).unwrap();
        (plain.payload, plain.leader_nonce)
    }

    fn app(byte: u8) -> AdminPayload {
        AdminPayload::AppData(vec![byte].into())
    }

    /// Runs `down` frames to `member` and its replies back through `core`
    /// until quiet; returns the member's events.
    fn pump(
        core: &mut LeaderCore,
        member: &mut MemberSession,
        mut down: Vec<Envelope>,
    ) -> Vec<MemberEvent> {
        let mut events = Vec::new();
        while !down.is_empty() {
            let mut up = Vec::new();
            for env in down.drain(..) {
                if let Ok(out) = member.handle(&env) {
                    events.extend(out.events);
                    up.extend(out.reply);
                }
            }
            for env in up {
                if let Ok(out) = core.handle_at(&env, Duration::ZERO) {
                    down.extend(out.outgoing);
                }
            }
        }
        events
    }

    #[test]
    fn each_slot_state_opens_only_the_frames_it_takes() {
        use MsgType::{Ack, AuthAckKey, AuthInitReq, GroupData, Heartbeat, ReqClose};
        let waiting = Slot::WaitingForKeyAck {
            session_key: SessionKey::from_bytes(KEY),
            request_body: Vec::new(),
            reply: InFlight {
                nonce: ProtocolNonce::from_bytes([0; 16]),
                frame: Arc::from(&[][..]),
                arq: Arq::start(Duration::ZERO, &LeaderConfig::default().liveness, 0),
            },
        };
        let table = [
            (waiting, [AuthAckKey, ReqClose].as_slice()),
            (Slot::Staged(channel()), &[ReqClose]),
            (
                Slot::Connected(channel()),
                &[Ack, ReqClose, GroupData, Heartbeat],
            ),
        ];
        for (slot, takes) in table {
            let mut slots = HashMap::from([(id("alice"), slot)]);
            for msg_type in [AuthInitReq, AuthAckKey, Ack, ReqClose, GroupData, Heartbeat] {
                // A body that is no sealed value: a frame the state takes
                // is opened and fails there; any other is refused unopened.
                let env = Envelope {
                    msg_type,
                    body: vec![0; 40],
                    ..close("alice", "leader")
                };
                let got = open_uplink::<ClosePlain>(&mut slots, &id("leader"), &env).err();
                let unopened = got == Some(CoreError::Rejected(RejectReason::UnexpectedType));
                assert_eq!(unopened, !takes.contains(&msg_type), "{msg_type:?}");
            }
        }
        let mut slots = HashMap::new();
        let env = close("alice", "leader");
        assert_eq!(
            open_uplink::<ClosePlain>(&mut slots, &id("leader"), &env).err(),
            Some(CoreError::Rejected(RejectReason::UnexpectedType)),
            "no slot, no key"
        );
    }

    #[test]
    fn an_uplink_must_name_its_sender_and_this_leader() {
        let leader = id("leader");
        assert!(open_under::<ClosePlain>(&KEY, &close("alice", "leader"), &leader).is_ok());
        for env in [close("bob", "leader"), close("alice", "other")] {
            assert_eq!(
                open_under::<ClosePlain>(&KEY, &env, &leader).err(),
                Some(CoreError::Rejected(RejectReason::WrongIdentity))
            );
        }
        assert_eq!(
            open_under::<ClosePlain>(&[8; 32], &close("alice", "leader"), &leader).err(),
            Some(CoreError::Rejected(RejectReason::BadSeal))
        );
    }

    #[test]
    fn data_and_heartbeats_keep_their_own_watermarks() {
        let mut c = channel();
        let second = Duration::from_secs(1);
        c.hear(1, |c| &mut c.data_seq, second).unwrap();
        assert_eq!((c.data_seq, c.last_heard), (1, second));
        let stale = c.hear(1, |c| &mut c.data_seq, 2 * second);
        assert_eq!(stale, Err(CoreError::Rejected(RejectReason::StaleNonce)));
        assert_eq!(
            (c.data_seq, c.last_heard),
            (1, second),
            "a replay proves nothing"
        );
        c.hear(1, |c| &mut c.hb_seq, 3 * second).unwrap();
        assert_eq!((c.hb_seq, c.data_seq, c.last_heard), (1, 1, 3 * second));
    }

    /// A direct path queued on the channel, sent or held behind the frame
    /// in flight, marks its epoch; the marker never falls, and no other
    /// payload moves it.
    #[test]
    fn a_queued_direct_path_marks_its_epoch() {
        let mut core = core_with_alice(8);
        let path = |epoch| AdminPayload::PathSync {
            epoch,
            leaf_index: 0,
            leaf_count: 1,
            path_keys: vec![[0; 32]],
        };
        let mut out = LeaderOutput::default();
        for (payload, marked) in [(path(5), 5), (path(3), 5), (app(1), 5), (path(7), 7)] {
            core.send_admin(&mut out, &id("alice"), payload).unwrap();
            assert_eq!(alice(&core).synced_epoch, marked);
        }
        assert_eq!(out.outgoing.len(), 1);
    }

    #[test]
    fn an_ack_frees_the_channel_for_the_oldest_queued_payload() {
        let mut core = core_with_alice(8);
        let mut out = LeaderOutput::default();
        for byte in 1..=3 {
            core.send_admin(&mut out, &id("alice"), app(byte)).unwrap();
        }
        assert_eq!(out.outgoing.len(), 1, "one frame in flight");
        let (payload, first) = admin(&out.outgoing[0]);
        assert_eq!(payload, app(1));
        let out = core.stage_at(&ack(&KEY, first, 9), Duration::ZERO).unwrap();
        assert_eq!(admin(&out.outgoing[0]).0, app(2));
        assert_eq!(alice(&core).user_nonce, ProtocolNonce::from_bytes([9; 16]));
        // The re-ack of the frame acked last is a duplicate, not a forgery.
        let before = fields(&core);
        let later = Duration::from_secs(1);
        assert!(core.stage_at(&ack(&KEY, first, 9), later).is_err());
        assert!(core.refused_duplicate_ack());
        assert_eq!(fields(&core), before);
        assert_eq!(count(&core, "leader.duplicate_acks"), 1);
    }

    /// A member that stops acking loses the oldest queued payloads, counted,
    /// and receives the rest in order once it acks again.
    #[test]
    fn a_full_queue_drops_its_oldest_payload() {
        let key = || LongTermKey::derive_from_password("pw-alice", "alice").unwrap();
        let mut directory = Directory::new();
        directory.register_key(&id("alice"), key());
        let config = LeaderConfig {
            max_pending_admin: 2,
            ..LeaderConfig::default()
        };
        let rng = Box::new(SeededRng::from_seed(1));
        let mut core = LeaderCore::with_rng(id("leader"), directory, config, rng);
        let rng = Box::new(SeededRng::from_seed(2));
        let (mut member, init) =
            MemberSession::start_with_key_in_group(id("alice"), id("leader"), key(), rng, None);
        let down = core.handle_at(&init, Duration::ZERO).unwrap().outgoing;
        pump(&mut core, &mut member, down);
        assert!(core.roster().contains(&id("alice")));

        let mut held = Vec::new();
        for byte in 1..=5 {
            held.extend(core.broadcast_admin_data(&[byte]).unwrap().outgoing);
        }
        assert_eq!(held.len(), 1);
        assert_eq!(count(&core, "leader.admin_dropped"), 2);
        let delivered: Vec<Vec<u8>> = pump(&mut core, &mut member, held)
            .into_iter()
            .filter_map(|e| match e {
                MemberEvent::AdminData(data) => Some(data),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [[1], [4], [5]]);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Send,
        AckInFlight,
        ReAckLast,
        AckOther([u8; 16]),
        AckWrongKey,
    }

    /// Sends, acks of the frame in flight and the three refused acks,
    /// weighted 3:2:1:1:1.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, proptest::array::uniform16(any::<u8>())).prop_map(|(pick, bytes)| match pick {
            0..=2 => Op::Send,
            3 | 4 => Op::AckInFlight,
            5 => Op::ReAckLast,
            6 => Op::AckOther(bytes),
            _ => Op::AckWrongKey,
        })
    }

    proptest! {
        /// Random sends and acks against one channel: at most one frame
        /// is in flight, payloads go out in send order less the ones
        /// dropped oldest-first, a refused ack changes no field, and only
        /// a re-ack of the frame acked last is a duplicate.
        #[test]
        fn the_channel_is_stop_and_wait(max in 1usize..4, ops in proptest::collection::vec(op(), 1..40)) {
            let mut core = core_with_alice(max);
            let (mut sent, mut dropped) = (0u8, 0u64);
            let mut queue: VecDeque<u8> = VecDeque::new();
            let (mut in_flight, mut last_acked): (Option<ProtocolNonce>, Option<ProtocolNonce>) = (None, None);
            let (mut delivered, mut expected) = (Vec::new(), Vec::new());
            for (step, op) in (1..).zip(ops) {
                // Every step a millisecond later, so a refused ack that
                // stamped the channel's liveness anchor would show.
                let now = Duration::from_millis(step);
                let outgoing = match op {
                    Op::Send => {
                        sent += 1;
                        let mut out = LeaderOutput::default();
                        core.send_admin(&mut out, &id("alice"), app(sent)).unwrap();
                        if in_flight.is_none() {
                            expected.push(app(sent));
                        } else {
                            if queue.len() >= max && queue.pop_front().is_some() {
                                dropped += 1;
                            }
                            queue.push_back(sent);
                        }
                        out.outgoing
                    }
                    Op::AckInFlight => {
                        let Some(nonce) = in_flight else { continue };
                        let out = core.stage_at(&ack(&KEY, nonce, sent), now).unwrap();
                        (in_flight, last_acked) = (None, Some(nonce));
                        expected.extend(queue.pop_front().map(app));
                        out.outgoing
                    }
                    refused => {
                        let nonce = match refused {
                            Op::ReAckLast => match last_acked { Some(n) => n, None => continue },
                            Op::AckOther(bytes) => ProtocolNonce::from_bytes(bytes),
                            _ => match in_flight { Some(n) => n, None => continue },
                        };
                        let wrong_key = matches!(refused, Op::AckWrongKey);
                        if !wrong_key && in_flight == Some(nonce) {
                            continue;
                        }
                        let before = fields(&core);
                        let key = if wrong_key { [8; 32] } else { KEY };
                        prop_assert!(core.stage_at(&ack(&key, nonce, 0), now).is_err());
                        prop_assert_eq!(fields(&core), before);
                        let duplicate = !wrong_key && last_acked == Some(nonce);
                        prop_assert_eq!(core.refused_duplicate_ack(), duplicate);
                        prop_assert_eq!(duplicate, matches!(refused, Op::ReAckLast));
                        Vec::new()
                    }
                };
                prop_assert!(outgoing.len() <= 1);
                for env in &outgoing {
                    let (payload, nonce) = admin(env);
                    delivered.push(payload);
                    in_flight = Some(nonce);
                }
                prop_assert_eq!(alice(&core).awaiting_ack(), in_flight.is_some());
                prop_assert_eq!(&delivered, &expected);
                prop_assert_eq!(count(&core, "leader.admin_dropped"), dropped);
            }
        }
    }
}
