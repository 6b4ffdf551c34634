//! Liveness: injectable clocks and the bounded-ARQ / failure-detection
//! policy shared by both protocol cores.
//!
//! The paper's admin channel is stop-and-wait ARQ (§3) and its leader
//! reacts to a dead member by driving the Fig. 3 `Oops(Ka)` close path —
//! but neither figure says *when* a channel is dead. This module supplies
//! that missing operational layer as pure policy:
//!
//! * [`Clock`] — a monotonic time source the runtimes read instead of
//!   calling [`std::time::Instant::now`] directly. Production uses
//!   [`RealClock`]; deterministic tests drive a [`VirtualClock`] so a
//!   multi-second eviction timeline replays in milliseconds of real time.
//! * [`LivenessConfig`] — every timing knob in one place: poll cadence,
//!   retransmit backoff (base, cap, seeded jitter, attempt budget),
//!   heartbeat interval and liveness deadline. The defaults reproduce
//!   the historical fixed-cadence, retry-forever behaviour exactly, so
//!   existing deployments see no change until they opt in.
//! * `Arq` — the one stop-and-wait retransmit timer, on which both cores'
//!   `tick` ([`crate::protocol::LeaderCore::tick`],
//!   [`crate::protocol::MemberSession::tick`]) resend and give up.
//!
//! The backoff schedule is *deterministic*: jitter is a pure hash of
//! `(jitter_seed, attempt, channel)`, so a fixed-seed chaos run replays
//! the same retransmit timeline every time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source.
///
/// `now()` returns the elapsed time since an arbitrary per-clock origin;
/// only differences between readings are meaningful. Implementations must
/// be monotone non-decreasing.
pub trait Clock: Send + Sync {
    /// Current offset from the clock's origin.
    fn now(&self) -> Duration;
}

/// Wall-clock monotonic time, anchored at construction.
#[derive(Debug, Clone)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        RealClock {
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually-advanced clock for deterministic tests: time moves only
/// when [`VirtualClock::advance`] is called. Clones share the same time.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `step`.
    pub fn advance(&self, step: Duration) {
        let ns = u64::try_from(step.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// Timing and failure-detection policy for one runtime.
///
/// The retransmit schedule for attempt `k` (0-based) is
/// `min(retransmit_base * 2^k, retransmit_max)` stretched by a
/// deterministic per-`(seed, attempt, channel)` jitter factor in
/// `[1, 1 + jitter_pct/1000]`. `max_attempts == 0` means retry forever
/// (the historical behaviour); otherwise the channel's ARQ budget is
/// exhausted after that many retransmits and the peer is presumed dead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LivenessConfig {
    /// The longest a member host's shard sleeps between clock readings
    /// ([`crate::runtime::MemberHost`]); it wakes sooner for a session's
    /// next deadline. A leader's timers are checked by the service shard
    /// its group is homed on, at most once per
    /// [`crate::runtime::ServiceConfig::poll`]: a leader's own `poll` is
    /// journaled with its config but never read.
    pub poll: Duration,
    /// First retransmit fires this long after the original send.
    pub retransmit_base: Duration,
    /// Backoff ceiling: no retransmit interval exceeds this.
    pub retransmit_max: Duration,
    /// Jitter bound in per-mille: each interval is stretched by up to
    /// `jitter_pct / 1000` of itself. `0` disables jitter.
    pub jitter_pct: u32,
    /// ARQ budget per outstanding frame: after this many retransmits the
    /// peer is presumed dead. `0` = unbounded (retry forever).
    pub max_attempts: u32,
    /// How often to send a heartbeat when the channel is otherwise idle.
    /// `None` disables heartbeats.
    pub heartbeat_interval: Option<Duration>,
    /// A peer silent for longer than this is presumed dead. `None`
    /// disables silence-based failure detection.
    pub liveness_timeout: Option<Duration>,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for LivenessConfig {
    /// The historical leader-side behaviour: 25ms poll, flat 400ms
    /// retransmit cadence, no jitter, unbounded retries, no heartbeats,
    /// no failure detection.
    fn default() -> Self {
        LivenessConfig {
            poll: Duration::from_millis(25),
            retransmit_base: Duration::from_millis(400),
            retransmit_max: Duration::from_millis(400),
            jitter_pct: 0,
            max_attempts: 0,
            heartbeat_interval: None,
            liveness_timeout: None,
            jitter_seed: 0,
        }
    }
}

/// splitmix64 finalizer: a cheap, well-mixed pure hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl LivenessConfig {
    /// The historical member-side behaviour: 250ms flat handshake ARQ.
    #[must_use]
    pub fn member_default() -> Self {
        LivenessConfig {
            retransmit_base: Duration::from_millis(250),
            retransmit_max: Duration::from_millis(250),
            ..LivenessConfig::default()
        }
    }

    /// The pre-jitter backoff delay for retransmit attempt `attempt`
    /// (0-based): `min(base * 2^attempt, max)`, saturating.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let doubled = if attempt >= 63 {
            Duration::MAX
        } else {
            self.retransmit_base
                .checked_mul(1u32 << attempt.min(31))
                .unwrap_or(Duration::MAX)
        };
        doubled.min(self.retransmit_max).max(self.retransmit_base)
    }

    /// [`Self::delay`] stretched by the deterministic jitter for
    /// `(jitter_seed, attempt, channel)`. The factor is in
    /// `[1, 1 + jitter_pct/1000]`, so jitter only ever lengthens an
    /// interval — it can never retransmit *early*.
    #[must_use]
    pub fn jittered_delay(&self, attempt: u32, channel: u64) -> Duration {
        let base = self.delay(attempt);
        if self.jitter_pct == 0 {
            return base;
        }
        let h = mix(self
            .jitter_seed
            .wrapping_mul(0x1000_0000_01b3)
            .wrapping_add(u64::from(attempt))
            .wrapping_add(channel.wrapping_mul(0x100_0000_01b3)));
        let permille = h % (u64::from(self.jitter_pct) + 1);
        let stretched = base.as_nanos().saturating_mul(u128::from(1000 + permille)) / 1000;
        Duration::from_nanos(u64::try_from(stretched).unwrap_or(u64::MAX))
    }

    /// The first instant at which a peer last heard from at `last_heard`
    /// is presumed dead: strictly after `liveness_timeout` of silence.
    /// `None` when silence is never fatal.
    #[must_use]
    pub(crate) fn silence_deadline(&self, last_heard: Duration) -> Option<Duration> {
        self.liveness_timeout
            .map(|t| last_heard + t + Duration::from_nanos(1))
    }

    /// Whether `attempts` retransmits have exhausted the ARQ budget.
    #[must_use]
    pub fn exhausted(&self, attempts: u32) -> bool {
        self.max_attempts != 0 && attempts >= self.max_attempts
    }
}

/// What an [`Arq`] timer says at one reading of the clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArqPoll {
    /// Not due yet.
    Wait,
    /// Due, with budget left: send the frame again.
    Resend,
    /// The backoff after the last budgeted resend passed: the peer is dead.
    GiveUp,
}

/// One stop-and-wait retransmit timer: attempts so far and the next
/// deadline of a frame awaiting its acknowledgment. `tag` names the
/// channel for [`LivenessConfig::jittered_delay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Arq {
    attempts: u32,
    /// The instant at which [`Arq::poll`] next resends or gives up.
    pub(crate) deadline: Duration,
}

impl Arq {
    /// A timer for a frame first sent at `now`.
    pub(crate) fn start(now: Duration, lv: &LivenessConfig, tag: u64) -> Self {
        Arq {
            attempts: 0,
            deadline: now + lv.jittered_delay(0, tag),
        }
    }

    /// Reads the timer at `now`. A resend counts against the budget and
    /// reschedules with backoff; the give-up waits out the backoff after
    /// the `max_attempts`-th resend, so the last resend gets as long to be
    /// answered as every earlier one.
    pub(crate) fn poll(&mut self, now: Duration, lv: &LivenessConfig, tag: u64) -> ArqPoll {
        if now < self.deadline {
            return ArqPoll::Wait;
        }
        if lv.exhausted(self.attempts) {
            return ArqPoll::GiveUp;
        }
        self.attempts = self.attempts.saturating_add(1);
        self.deadline = now + lv.jittered_delay(self.attempts, tag);
        ArqPoll::Resend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults_reproduce_the_historical_cadence() {
        let leader = LivenessConfig::default();
        assert_eq!(leader.poll, Duration::from_millis(25));
        for attempt in 0..10 {
            assert_eq!(
                leader.jittered_delay(attempt, attempt.into()),
                Duration::from_millis(400),
                "default leader cadence is flat 400ms"
            );
        }
        assert!(!leader.exhausted(u32::MAX), "default budget is unbounded");

        let member = LivenessConfig::member_default();
        for attempt in 0..10 {
            assert_eq!(
                member.jittered_delay(attempt, 7),
                Duration::from_millis(250),
                "default member cadence is flat 250ms"
            );
        }
    }

    #[test]
    fn virtual_clock_advances_and_is_shared() {
        let clock = VirtualClock::new();
        let other = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(150));
        assert_eq!(other.now(), Duration::from_millis(150));
        other.advance(Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_millis(2150));
    }

    #[test]
    fn real_clock_is_monotone() {
        let clock = RealClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn huge_attempt_saturates_at_the_cap() {
        let cfg = LivenessConfig {
            retransmit_base: Duration::from_millis(100),
            retransmit_max: Duration::from_secs(5),
            ..LivenessConfig::default()
        };
        assert_eq!(cfg.delay(0), Duration::from_millis(100));
        assert_eq!(cfg.delay(1), Duration::from_millis(200));
        assert_eq!(cfg.delay(63), Duration::from_secs(5));
        assert_eq!(cfg.delay(u32::MAX), Duration::from_secs(5));
    }

    fn arb_config() -> impl Strategy<Value = LivenessConfig> {
        (
            (1u64..=5_000, 0u64..=60_000),
            (0u32..=1000, 0u32..=16, any::<u64>()),
        )
            .prop_map(|((base_ms, extra_ms), (jitter_pct, max_attempts, seed))| {
                LivenessConfig {
                    retransmit_base: Duration::from_millis(base_ms),
                    retransmit_max: Duration::from_millis(base_ms + extra_ms),
                    jitter_pct,
                    max_attempts,
                    jitter_seed: seed,
                    ..LivenessConfig::default()
                }
            })
    }

    proptest! {
        /// Satellite: the pre-jitter schedule is monotone non-decreasing.
        #[test]
        fn backoff_is_monotone(cfg in arb_config(), attempt in 0u32..80) {
            prop_assert!(cfg.delay(attempt + 1) >= cfg.delay(attempt));
        }

        /// Satellite: the schedule never exceeds the configured cap and
        /// never undercuts the base.
        #[test]
        fn backoff_is_capped(cfg in arb_config(), attempt in 0u32..200) {
            let d = cfg.delay(attempt);
            prop_assert!(d <= cfg.retransmit_max.max(cfg.retransmit_base));
            prop_assert!(d >= cfg.retransmit_base);
        }

        /// Satellite: jitter stays within bounds — it stretches an
        /// interval by at most `jitter_pct` per-mille and never shortens.
        #[test]
        fn jitter_stays_within_bounds(
            cfg in arb_config(),
            attempt in 0u32..64,
            channel in any::<u64>(),
        ) {
            let base = cfg.delay(attempt);
            let jittered = cfg.jittered_delay(attempt, channel);
            prop_assert!(jittered >= base);
            let ceiling = base.as_nanos()
                * u128::from(1000 + cfg.jitter_pct) / 1000;
            prop_assert!(jittered.as_nanos() <= ceiling + 1);
        }

        /// Satellite: the jitter is a pure function of
        /// `(seed, attempt, channel)` — fixed-seed runs replay exactly.
        #[test]
        fn jitter_is_deterministic(
            cfg in arb_config(),
            attempt in 0u32..64,
            channel in any::<u64>(),
        ) {
            prop_assert_eq!(
                cfg.jittered_delay(attempt, channel),
                cfg.jittered_delay(attempt, channel)
            );
        }

        /// Satellite: the attempt cap is honored exactly — attempt counts
        /// below the budget are live, at-or-above are exhausted, and a
        /// zero budget never exhausts.
        #[test]
        fn attempt_cap_is_honored(cfg in arb_config(), attempts in 0u32..64) {
            if cfg.max_attempts == 0 {
                prop_assert!(!cfg.exhausted(attempts));
            } else {
                prop_assert_eq!(
                    cfg.exhausted(attempts),
                    attempts >= cfg.max_attempts
                );
            }
        }
    }
}
