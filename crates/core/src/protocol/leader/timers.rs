//! The leader's timers: [`LeaderCore::tick`] resends what is due and
//! names whom to evict, and [`LeaderCore::next_deadline`] says when it
//! next has anything to do, so a runtime ticks a group only then.

use super::{channel_tag, LeaderCore, LeaderTick, Slot};
use crate::liveness::ArqPoll;
use enclaves_obs::EventKind;
use std::sync::Arc;
use std::time::Duration;

impl LeaderCore {
    /// Moves the core's clock to `now`; a reading behind it leaves it
    /// where it is.
    pub(crate) fn advance_clock(&mut self, now: Duration) {
        self.now = self.now.max(now);
    }

    /// Lowers the stored deadline to a timer just armed, if any.
    pub(super) fn arm(&mut self, at: Option<Duration>) {
        self.deadline = [self.deadline, at].into_iter().flatten().min();
    }

    /// The earliest instant at which [`LeaderCore::tick`] would resend a
    /// frame or name a member to evict (a retransmit or silence
    /// deadline), `None` when no timer is armed. Lowered in O(1) as timers
    /// are armed, it may be early (an ack came, a member was heard) but
    /// is never late; each tick makes it exact.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Number of in-flight messages (pending handshakes plus
    /// unacknowledged admin messages).
    #[must_use]
    pub fn outstanding_count(&self) -> usize {
        self.slots
            .values()
            .filter(|slot| match slot {
                Slot::WaitingForKeyAck { .. } => true,
                Slot::Staged(_) => false,
                Slot::Connected(channel) => channel.awaiting_ack(),
            })
            .count()
    }

    /// Advances the liveness layer to `now`: polls each in-flight frame's
    /// `Arq` timer, collecting the frames due for a resend, and names the
    /// members whose timer gave up (the backoff after the last budgeted
    /// resend passed) or whose liveness deadline (no authenticated
    /// traffic for [`LivenessConfig::liveness_timeout`]) was missed. The
    /// caller transmits the frames and drives [`LeaderCore::evict`] for
    /// each named member. Re-delivery is safe: recipients treat
    /// duplicates as replays (admin) or re-acknowledge idempotently
    /// (handshake, last-ack cache), so retransmission cannot violate the
    /// ordering properties.
    ///
    /// Under the default [`LivenessConfig`] this reproduces the historical
    /// behaviour: a flat retransmit cadence, no eviction ever.
    ///
    /// [`LivenessConfig`]: crate::liveness::LivenessConfig
    /// [`LivenessConfig::liveness_timeout`]: crate::liveness::LivenessConfig::liveness_timeout
    pub fn tick(&mut self, now: Duration) -> LeaderTick {
        self.advance_clock(now);
        self.obs.ticks.inc();
        let now = self.now;
        let liveness = &self.config.liveness;
        let mut tick = LeaderTick::default();
        self.deadline = None;
        for (user, slot) in &mut self.slots {
            let (mut in_flight, silence) = match slot {
                Slot::WaitingForKeyAck { reply, .. } => (Some(reply), None),
                Slot::Staged(_) => (None, None),
                Slot::Connected(channel) => {
                    let silence = liveness.silence_deadline(channel.last_heard);
                    (channel.in_flight(), silence)
                }
            };
            match in_flight.as_deref_mut() {
                _ if silence.is_some_and(|due| now >= due) => tick.evict.push(user.clone()),
                Some(m) => match m.arq.poll(now, liveness, channel_tag(user)) {
                    ArqPoll::Wait => {}
                    ArqPoll::Resend => tick.frames.push((user.clone(), Arc::clone(&m.frame))),
                    ArqPoll::GiveUp => tick.evict.push(user.clone()),
                },
                None => {}
            }
            let resend = in_flight.map(|m| m.arq.deadline);
            self.deadline = [self.deadline, silence, resend].into_iter().flatten().min();
        }
        if !tick.frames.is_empty() {
            self.obs.retransmits.add(tick.frames.len() as u64);
            self.obs.emit(|| EventKind::Retransmit {
                actor: self.leader.to_string(),
                frames: tick.frames.len() as u64,
            });
        }
        tick
    }
}
