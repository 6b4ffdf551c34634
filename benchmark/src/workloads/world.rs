//! One sans-I/O enclave: a leader core, the member sessions
//! that follow its multicasts, a virtual clock, and the wire between
//! them. Every envelope crosses `encode` → bytes → `decode` in both
//! directions, exactly once per receiver that is simulated.
//!
//! Members run on their own machines, so only a constant sample of them
//! (the *witnesses*) process each multicast here; the copies for the rest
//! of the roster are charged to the leader as bytes.

use crate::sut::{self, Env, Fail, Identity, Journal, Leader, Member, Multicast};
use crate::trace::Tracer;
use std::time::Duration;

/// Virtual time that passes between operations.
const STEP: Duration = Duration::from_millis(1);
/// Operations between liveness ticks (25 ms poll at 1 ms per op).
const TICK_EVERY: u64 = 25;

/// What crossed the wire, from the leader's side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Distinct frames in either direction (a multicast counts once).
    pub frames: u64,
    pub frame_bytes: u64,
    /// Bytes the leader sent: unicast frames, plus multicast frames
    /// times their recipient count.
    pub leader_bytes_out: u64,
    /// Sealed-body bytes of distinct leader frames.
    pub sealed_bytes_out: u64,
    pub leader_frames_in: u64,
    pub leader_body_bytes_in: u64,
    pub path_updates: u64,
    pub path_update_bytes: u64,
    /// Largest unicast frame of the most recent join: its Welcome.
    pub welcome_bytes_last: u64,
}

impl WireCounts {
    pub fn plus(&self, other: &WireCounts) -> WireCounts {
        WireCounts {
            frames: self.frames + other.frames,
            frame_bytes: self.frame_bytes + other.frame_bytes,
            leader_bytes_out: self.leader_bytes_out + other.leader_bytes_out,
            sealed_bytes_out: self.sealed_bytes_out + other.sealed_bytes_out,
            leader_frames_in: self.leader_frames_in + other.leader_frames_in,
            leader_body_bytes_in: self.leader_body_bytes_in + other.leader_body_bytes_in,
            path_updates: self.path_updates + other.path_updates,
            path_update_bytes: self.path_update_bytes + other.path_update_bytes,
            welcome_bytes_last: self.welcome_bytes_last.max(other.welcome_bytes_last),
        }
    }
}

pub struct World {
    pub tag: String,
    pub leader: Leader,
    /// Sessions that process every multicast, in no particular order.
    pub witnesses: Vec<Member>,
    /// Members currently in the roster (witnesses included).
    pub roster_len: usize,
    pub wire: WireCounts,
    now: Duration,
    ops: u64,
    /// Flip one byte of the next data broadcast before delivery.
    pub plant_flipped_byte: bool,
}

impl World {
    pub fn new(
        tag: &str,
        users: &[Identity],
        rng_seed: u64,
        journal: Option<&Journal>,
    ) -> Result<Self, Fail> {
        Ok(World {
            tag: tag.to_string(),
            leader: Leader::new(tag, users, rng_seed, journal)?,
            witnesses: Vec::new(),
            roster_len: 0,
            wire: WireCounts::default(),
            now: Duration::ZERO,
            ops: 0,
            plant_flipped_byte: false,
        })
    }

    /// Advances the virtual clock by one operation and, every
    /// [`TICK_EVERY`] operations, ticks the liveness layer. A closed loop
    /// leaves nothing unacknowledged, so a due retransmission or an
    /// eviction is a failure.
    pub fn step(&mut self, tr: &mut Tracer) -> Result<(), Fail> {
        self.now += STEP;
        self.ops += 1;
        if self.ops.is_multiple_of(TICK_EVERY) {
            let (frames, evictions) = self.leader.tick(tr, self.now);
            if frames != 0 || evictions != 0 {
                return Err(format!(
                    "tick found {frames} frames to retransmit and {evictions} members to evict"
                ));
            }
        }
        Ok(())
    }

    /// Carries one envelope from a member to the leader.
    fn send_to_leader(&mut self, tr: &mut Tracer, env: &Env) -> Result<sut::LeaderOut, Fail> {
        let bytes = sut::encode(tr, env);
        self.wire.frames += 1;
        self.wire.frame_bytes += bytes.len() as u64;
        self.wire.leader_frames_in += 1;
        let env = sut::decode(tr, &bytes)?;
        self.wire.leader_body_bytes_in += sut::body_len(&env) as u64;
        self.leader.handle(tr, &env, self.now)
    }

    /// Puts one leader unicast on the wire and decodes it at the far end.
    fn unicast(&mut self, tr: &mut Tracer, env: &Env) -> Result<(Env, u64), Fail> {
        let bytes = sut::encode(tr, env);
        let len = bytes.len() as u64;
        self.wire.frames += 1;
        self.wire.frame_bytes += len;
        self.wire.leader_bytes_out += len;
        self.wire.sealed_bytes_out += sut::body_len(env) as u64;
        Ok((sut::decode(tr, &bytes)?, len))
    }

    /// Charges one `PathUpdate` multicast to the leader and has every
    /// witness decode and process its own copy. Returns any replies bound for the leader.
    fn multicast(&mut self, tr: &mut Tracer, mc: &Multicast) -> Result<Vec<Env>, Fail> {
        let len = mc.frame.len() as u64;
        self.wire.frames += 1;
        self.wire.frame_bytes += len;
        self.wire.leader_bytes_out += len * mc.recipients as u64;
        self.wire.path_updates += 1;
        self.wire.path_update_bytes += len;
        let mut replies = Vec::new();
        for w in &mut self.witnesses {
            let env = sut::decode(tr, &mc.frame)?;
            let out = w.handle(tr, &env)?;
            replies.extend(out.reply);
        }
        Ok(replies)
    }

    /// Delivers what one leader step produced when every unicast is for
    /// `joiner` (or nobody): returns the joiner's replies and its Welcome.
    fn deliver(
        &mut self,
        tr: &mut Tracer,
        out: sut::LeaderOut,
        mut joiner: Option<&mut Member>,
        welcome: &mut Option<(usize, u64)>,
    ) -> Result<Vec<Env>, Fail> {
        let mut replies = Vec::new();
        for env in &out.unicast {
            let (env, len) = self.unicast(tr, env)?;
            let Some(j) = joiner.as_deref_mut() else {
                return Err(format!("unexpected unicast to {}", sut::recipient(&env)));
            };
            if sut::recipient(&env) != j.name() {
                return Err(format!(
                    "unicast to {} during {}'s join",
                    sut::recipient(&env),
                    j.name()
                ));
            }
            let handled = j.handle(tr, &env)?;
            if handled.welcomed.is_some() {
                *welcome = handled.welcomed;
                self.wire.welcome_bytes_last = len;
            }
            replies.extend(handled.reply);
        }
        for mc in &out.multicast {
            replies.extend(self.multicast(tr, mc)?);
        }
        Ok(replies)
    }

    /// Checks that every witness holds the leader's epoch.
    fn witnesses_current(&self) -> Result<(), Fail> {
        let epoch = self.leader.epoch();
        match self.witnesses.iter().find(|w| w.epoch() != epoch) {
            None => Ok(()),
            Some(w) => Err(format!(
                "witness {} at epoch {:?}, leader at {:?}",
                w.name(),
                w.epoch(),
                epoch
            )),
        }
    }

    /// One join, start to finish: handshake, Welcome with a roster of the
    /// right size, its ack (and the PathSync behind it) consumed, every
    /// witness at the new epoch. The joiner's own `PathUpdate` is not for
    /// it, so it becomes a witness (if asked) only afterwards.
    pub fn join(&mut self, tr: &mut Tracer, who: &Identity, rng_seed: u64) -> Result<Member, Fail> {
        let before = self.leader.epoch();
        let (mut member, init) = Member::start(tr, who, &self.tag, rng_seed);
        let mut welcome = None;
        let mut to_leader = vec![init];
        while let Some(env) = to_leader.pop() {
            let out = self.send_to_leader(tr, &env)?;
            let replies = self.deliver(tr, out, Some(&mut member), &mut welcome)?;
            to_leader.extend(replies);
        }
        self.roster_len += 1;
        let Some((roster, epoch)) = welcome else {
            return Err(format!("{} was never welcomed", who.name()));
        };
        if roster != self.roster_len {
            return Err(format!(
                "{} welcomed with a roster of {roster}, expected {}",
                who.name(),
                self.roster_len
            ));
        }
        let now = self.leader.epoch();
        if !member.connected() || member.epoch() != now || Some(epoch) != now || now <= before {
            return Err(format!(
                "{} joined at epoch {epoch}, holds {:?}, leader moved {before:?} -> {now:?}",
                who.name(),
                member.epoch()
            ));
        }
        self.witnesses_current()?;
        Ok(member)
    }

    /// A voluntary leave by a (former) witness.
    pub fn leave(&mut self, tr: &mut Tracer, mut member: Member) -> Result<(), Fail> {
        let before = self.leader.epoch();
        let close = member.leave(tr)?;
        let out = self.send_to_leader(tr, &close)?;
        self.roster_len -= 1;
        self.settle(tr, out, before)
    }

    pub fn expel(&mut self, tr: &mut Tracer, who: &Identity) -> Result<(), Fail> {
        let before = self.leader.epoch();
        let out = self.leader.expel(tr, who)?;
        self.roster_len -= 1;
        self.settle(tr, out, before)
    }

    pub fn rekey(&mut self, tr: &mut Tracer) -> Result<(), Fail> {
        let before = self.leader.epoch();
        let out = self.leader.rekey(tr)?;
        self.settle(tr, out, before)
    }

    /// Delivers a change's fan-out and requires a strictly newer epoch
    /// that every witness follows.
    fn settle(
        &mut self,
        tr: &mut Tracer,
        out: sut::LeaderOut,
        before: Option<u64>,
    ) -> Result<(), Fail> {
        let mut to_leader = self.deliver(tr, out, None, &mut None)?;
        while let Some(env) = to_leader.pop() {
            let out = self.send_to_leader(tr, &env)?;
            let more = self.deliver(tr, out, None, &mut None)?;
            to_leader.extend(more);
        }
        if self.roster_len > 0 && self.leader.epoch() <= before {
            return Err(format!("epoch stayed at {before:?} across a change"));
        }
        self.witnesses_current()
    }

    /// One data-plane broadcast, as a check between operations (it is
    /// not charged to any op's bytes): every witness must open exactly
    /// `payload`; `outsider` (an expelled session that was current when
    /// it was expelled) must not.
    pub fn data_check(
        &mut self,
        tr: &mut Tracer,
        payload: &[u8],
        outsider: Option<&mut Member>,
    ) -> Result<(), Fail> {
        let mut mc = self.leader.broadcast(tr, payload)?;
        if mc.recipients != self.roster_len {
            return Err(format!(
                "broadcast addressed to {} members, roster holds {}",
                mc.recipients, self.roster_len
            ));
        }
        if self.plant_flipped_byte {
            self.plant_flipped_byte = false;
            let mut bytes = mc.frame.to_vec();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            mc.frame = bytes.into();
        }
        for w in &mut self.witnesses {
            let env = sut::decode(tr, &mc.frame)?;
            let out = w.handle(tr, &env)?;
            if out.data.len() != 1 || out.data[0] != payload {
                return Err(format!("witness {} opened a different payload", w.name()));
            }
        }
        if let Some(outsider) = outsider {
            let env = sut::decode(tr, &mc.frame)?;
            if let Ok(out) = outsider.handle(tr, &env) {
                if !out.data.is_empty() {
                    return Err(format!(
                        "expelled {} opened a later broadcast",
                        outsider.name()
                    ));
                }
            }
        }
        Ok(())
    }
}
