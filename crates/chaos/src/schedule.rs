//! Chaos schedules: the event vocabulary, scripted construction, and the
//! seeded state-aware random generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a chaos schedule. Member indices refer to the fixed cast
/// `m0..m{members-1}` of a [`Schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Member `i` joins (first join or rejoin after a clean leave).
    Join(usize),
    /// Member `i` leaves voluntarily (sends `Close`).
    Leave(usize),
    /// The leader expels member `i`.
    Expel(usize),
    /// Member `i` crashes: its connection is severed mid-whatever and its
    /// runtime stops without a `Close`. The leader keeps the slot until an
    /// expel — a vanished link is not a departure.
    Crash(usize),
    /// A crashed member `i` comes back: the leader expels the stale slot,
    /// then the member joins again on a fresh connection.
    Reconnect(usize),
    /// Member `i`'s *wire* crashes without a close, but — unlike
    /// [`ChaosEvent::Crash`] — its runtime stays alive: the liveness layer
    /// is expected to notice on both sides (leader eviction, member
    /// auto-rejoin once a [`ChaosEvent::Heal`] lets its redial
    /// through). Only meaningful on liveness-enabled worlds; without
    /// liveness the member simply stays wedged until the end-of-run
    /// cleanup.
    CrashWire(usize),
    /// The leader rotates the group key.
    Rekey,
    /// The leader broadcasts `payload` over the authenticated admin
    /// channel (stop-and-wait, exactly-once, in-order).
    AdminBroadcast(Vec<u8>),
    /// The leader broadcasts `payload` over the single-seal group-key data
    /// plane (fire-and-forget; drops legal, duplicates not).
    DataBroadcast(Vec<u8>),
    /// Partition member `i`'s connection: block the member→leader
    /// direction (`to_leader`), the leader→member direction (`to_member`),
    /// or both. Fabrics without partition support skip this.
    Partition {
        /// Which member's connection.
        member: usize,
        /// Block the member→leader direction.
        to_leader: bool,
        /// Block the leader→member direction.
        to_member: bool,
    },
    /// Heal both directions of member `i`'s connection.
    Heal(usize),
    /// Heal every partition.
    HealAll,
    /// Let the system run undisturbed for this many milliseconds.
    Settle(u64),
}

/// A reproducible chaos scenario: a seed (feeding both the network's fault
/// RNG and, for generated schedules, the generator), a cast size, and the
/// event script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Seed for the network fault stream (and the generator, if random).
    pub seed: u64,
    /// Number of members in the cast (`m0..m{members-1}`).
    pub members: usize,
    /// The steps, executed in order.
    pub events: Vec<ChaosEvent>,
}

impl Schedule {
    /// A scripted schedule.
    #[must_use]
    pub fn scripted(seed: u64, members: usize, events: Vec<ChaosEvent>) -> Self {
        Schedule {
            seed,
            members,
            events,
        }
    }

    /// The first `n` events of this schedule (used by shrinking).
    #[must_use]
    pub fn prefix(&self, n: usize) -> Self {
        Schedule {
            seed: self.seed,
            members: self.members,
            events: self.events[..n.min(self.events.len())].to_vec(),
        }
    }

    /// A deterministic rekey storm: bursts of back-to-back rekeys (each
    /// burst stacks three rekeys with no settle between them, so later
    /// group keys queue behind the stop-and-wait acknowledgment of the
    /// first) interleaved with admin/data traffic and join/leave/expel
    /// churn, all under partitions that alternate between asymmetric
    /// (one direction dark) and full cuts. This is the worst case for
    /// the control plane: every burst re-seals the whole roster while
    /// some member cannot acknowledge, so fresh frames, cached
    /// retransmits, and pending queues all carry live traffic at once. The final burst cuts a member off *mid path update* — a
    /// rekey fires, the leader→member direction goes dark before the
    /// install settles, and three more rekeys land on the partition — so
    /// a tree-mode leader's `PathUpdate` multicasts are provably lossy
    /// and recovery must come from the heartbeat-driven `PathSync`
    /// resync. The `seed` feeds only the network fault stream — the
    /// script itself is fixed given `members`.
    #[must_use]
    pub fn rekey_storm(seed: u64, members: usize) -> Self {
        assert!(members >= 4, "a rekey storm needs at least four members");
        use ChaosEvent::{
            AdminBroadcast, DataBroadcast, Expel, Heal, HealAll, Join, Leave, Partition, Rekey,
            Settle,
        };
        let mut events: Vec<ChaosEvent> = (0..members).map(Join).collect();
        events.push(Settle(150));
        let payload = |tag: &str, burst: usize| format!("storm-{tag}-{burst}").into_bytes();

        // Burst 1: m1 goes half-dark toward the leader — its acks are
        // lost, so the leader's retransmit timer replays cached frames
        // while three rekeys stack up behind the unacknowledged first key.
        events.extend([
            Partition {
                member: 1,
                to_leader: true,
                to_member: false,
            },
            Rekey,
            Rekey,
            Rekey,
            AdminBroadcast(payload("admin", 1)),
            DataBroadcast(payload("data", 1)),
            Leave(0),
            Heal(1),
            Settle(250),
        ]);

        // Burst 2: m2 is cut off entirely; m0 rejoins mid-storm, forcing
        // a membership change (and its own rekey) into the queue.
        events.extend([
            Partition {
                member: 2,
                to_leader: true,
                to_member: true,
            },
            Rekey,
            Rekey,
            Rekey,
            AdminBroadcast(payload("admin", 2)),
            Join(0),
            Rekey,
            Heal(2),
            Settle(250),
        ]);

        // Burst 3: the leader→m3 direction goes dark (m3 cannot see the
        // new keys), then the leader expels it mid-storm — frames in
        // flight to a departed member must be dropped, not delivered.
        events.extend([
            Partition {
                member: 3,
                to_leader: false,
                to_member: true,
            },
            Rekey,
            Rekey,
            Rekey,
            DataBroadcast(payload("data", 3)),
            Expel(3),
            HealAll,
            Settle(250),
            Rekey,
            AdminBroadcast(payload("admin", 4)),
            DataBroadcast(payload("data", 4)),
            Settle(300),
        ]);

        // Burst 4: a rekey fires and — with its key-install still in
        // flight — the leader→m1 direction is cut, then a full burst of
        // three more rekeys lands on top of the partition. In tree mode
        // each of those is a `PathUpdate` multicast m1 never receives
        // (multicasts are fire-and-forget, unlike the admin channel's
        // ARQ), so after the heal only the heartbeat-driven `PathSync`
        // resync can bring m1 back to the group key; the finalization
        // probe proves it did.
        events.extend([
            Rekey,
            Partition {
                member: 1,
                to_leader: false,
                to_member: true,
            },
            Rekey,
            Rekey,
            Rekey,
            DataBroadcast(payload("data", 5)),
            Heal(1),
            Settle(400),
            AdminBroadcast(payload("admin", 5)),
            DataBroadcast(payload("data", 6)),
            Settle(300),
        ]);

        Schedule {
            seed,
            members,
            events,
        }
    }

    /// A deterministic crash storm for liveness-enabled worlds: members
    /// take turns having their wire severed without a close
    /// ([`ChaosEvent::CrashWire`]), so the leader's heartbeat deadline —
    /// not a `Close` frame — must drive the eviction, and after each
    /// [`ChaosEvent::Heal`] the still-running member must detect the
    /// loss and auto-rejoin as a fresh session. `m0` never faults, so
    /// the group is never empty and every eviction's policy rekey lands
    /// (post-eviction rejoins must therefore see a strictly newer
    /// epoch). The `seed` feeds only the network fault stream — the
    /// script itself is fixed given `members`.
    #[must_use]
    pub fn crash_storm(seed: u64, members: usize) -> Self {
        assert!(members >= 3, "a crash storm needs at least three members");
        use ChaosEvent::{AdminBroadcast, CrashWire, DataBroadcast, Heal, Join, Rekey, Settle};
        let mut events: Vec<ChaosEvent> = (0..members).map(Join).collect();
        events.push(Settle(150));
        let payload = |tag: &str, n: usize| format!("crash-{tag}-{n}").into_bytes();

        // Round 1: m1's wire dies silently. The leader must time the
        // channel out and evict; traffic keeps flowing to the survivors
        // while m1 is dark, and once healed m1 rejoins on its own.
        events.extend([
            AdminBroadcast(payload("admin", 1)),
            CrashWire(1),
            Settle(900),
            Rekey,
            DataBroadcast(payload("data", 1)),
            Heal(1),
            Settle(900),
        ]);

        // Round 2: same fate for m2, proving round 1 left no wedged
        // state behind (slots, routes, cached retransmit frames).
        events.extend([
            CrashWire(2),
            Settle(900),
            AdminBroadcast(payload("admin", 2)),
            Heal(2),
            Settle(900),
        ]);

        // Epilogue: full-roster traffic on the healed fabric.
        events.extend([
            AdminBroadcast(payload("admin", 3)),
            DataBroadcast(payload("data", 3)),
            Settle(400),
        ]);

        Schedule {
            seed,
            members,
            events,
        }
    }

    /// One schedule per enclave for a multi-group storm: `groups`
    /// (at least eight) co-hosted enclaves, each running `members`
    /// members, where every group draws a different weather class by its
    /// index — calm traffic, partition-and-heal, silent wire crashes, or
    /// a rekey barrage — so quiet groups carry live deadlines *while*
    /// their neighbours churn. Intended for
    /// [`crate::world::run_multigroup`] on a liveness-enabled world
    /// (class 2 relies on timeout eviction and auto-rejoin).
    ///
    /// # Panics
    ///
    /// If `groups < 8` or `members < 3`.
    #[must_use]
    pub fn multigroup_storm(seed: u64, groups: usize, members: usize) -> Vec<Self> {
        assert!(groups >= 8, "a multigroup storm needs at least 8 groups");
        assert!(members >= 3, "each group needs at least three members");
        use ChaosEvent::{
            AdminBroadcast, CrashWire, DataBroadcast, Heal, HealAll, Join, Partition, Rekey, Settle,
        };
        (0..groups)
            .map(|g| {
                let payload = |tag: &str, n: usize| format!("mg-g{g}-{tag}-{n}").into_bytes();
                let mut events: Vec<ChaosEvent> = (0..members).map(Join).collect();
                events.push(Settle(150));
                match g % 4 {
                    // Calm control group: steady traffic, no faults. Its
                    // heartbeats and ARQ deadlines must survive the
                    // neighbours' weather untouched.
                    0 => events.extend([
                        AdminBroadcast(payload("admin", 1)),
                        DataBroadcast(payload("data", 1)),
                        Settle(300),
                        Rekey,
                        AdminBroadcast(payload("admin", 2)),
                        DataBroadcast(payload("data", 2)),
                        Settle(300),
                    ]),
                    // Partition weather: m1 goes dark both ways under
                    // traffic, then heals; retransmission must catch it up.
                    1 => events.extend([
                        Partition {
                            member: 1,
                            to_leader: true,
                            to_member: true,
                        },
                        AdminBroadcast(payload("admin", 1)),
                        DataBroadcast(payload("data", 1)),
                        Settle(400),
                        HealAll,
                        AdminBroadcast(payload("admin", 2)),
                        Settle(400),
                    ]),
                    // Wire-crash weather: m1's wire dies silently; the
                    // leader's tick must time it out and evict, and after
                    // the heal the member rejoins on its own.
                    2 => events.extend([
                        AdminBroadcast(payload("admin", 1)),
                        CrashWire(1),
                        Settle(900),
                        Rekey,
                        DataBroadcast(payload("data", 1)),
                        Heal(1),
                        Settle(900),
                    ]),
                    // Rekey barrage: back-to-back epoch rotations under
                    // traffic — seal churn concentrated in one group.
                    _ => events.extend([
                        Rekey,
                        AdminBroadcast(payload("admin", 1)),
                        Rekey,
                        DataBroadcast(payload("data", 1)),
                        Rekey,
                        AdminBroadcast(payload("admin", 2)),
                        Settle(400),
                    ]),
                }
                events.push(Settle(200));
                Schedule {
                    seed: seed.wrapping_add(g as u64),
                    members,
                    events,
                }
            })
            .collect()
    }

    /// A deterministic leader blackhole for liveness-enabled worlds:
    /// every member except `m0` has its *existing* connection fully
    /// partitioned at once, so from their side the leader goes silent
    /// mid-epoch. Each affected member must detect the loss, reconnect
    /// on a fresh link (partitions are per-connection, so the new link
    /// is clear), and wait out the leader's timeout eviction of its
    /// stale slot before the rejoin handshake is accepted. `m0` keeps
    /// the group alive throughout. The `seed` feeds only the network
    /// fault stream — the script itself is fixed given `members`.
    #[must_use]
    pub fn leader_blackhole(seed: u64, members: usize) -> Self {
        assert!(
            members >= 3,
            "a leader blackhole needs at least three members"
        );
        use ChaosEvent::{AdminBroadcast, DataBroadcast, HealAll, Join, Partition, Rekey, Settle};
        let mut events: Vec<ChaosEvent> = (0..members).map(Join).collect();
        events.push(Settle(150));
        events.push(AdminBroadcast(b"blackhole-before".to_vec()));

        // The lights go out for everyone but m0, all at once.
        events.extend((1..members).map(|member| Partition {
            member,
            to_leader: true,
            to_member: true,
        }));

        // Long dark settle: leader-loss detection, stale-slot evictions,
        // and reconnect-handshake retries all race here.
        events.extend([
            Settle(1400),
            Rekey,
            DataBroadcast(b"blackhole-during".to_vec()),
            Settle(500),
            HealAll,
            Settle(300),
            AdminBroadcast(b"blackhole-after".to_vec()),
            Settle(400),
        ]);

        Schedule {
            seed,
            members,
            events,
        }
    }

    /// A deterministic flapping member for liveness-enabled worlds: `m1`
    /// suffers three short full partitions, each healed well inside the
    /// liveness timeout — a responsive-but-jittery member that must NOT
    /// be evicted by an over-eager failure detector — followed by one
    /// real [`ChaosEvent::CrashWire`] outage long enough to force the
    /// eviction/rejoin cycle. The `seed` feeds only the network fault
    /// stream — the script itself is fixed given `members`.
    #[must_use]
    pub fn flapping(seed: u64, members: usize) -> Self {
        assert!(
            members >= 3,
            "a flapping schedule needs at least three members"
        );
        use ChaosEvent::{AdminBroadcast, CrashWire, DataBroadcast, Heal, Join, Partition, Settle};
        let mut events: Vec<ChaosEvent> = (0..members).map(Join).collect();
        events.push(Settle(150));
        let payload = |tag: &str, n: usize| format!("flap-{tag}-{n}").into_bytes();

        // Three quick flaps: dark for a beat, back before the deadline.
        for flap in 1..=3usize {
            events.extend([
                Partition {
                    member: 1,
                    to_leader: true,
                    to_member: true,
                },
                Settle(120),
                Heal(1),
                Settle(250),
                AdminBroadcast(payload("admin", flap)),
                DataBroadcast(payload("data", flap)),
            ]);
        }

        // Then the real thing: a silent wire crash that must end in a
        // timeout eviction and, after the heal, an auto-rejoin.
        events.extend([
            CrashWire(1),
            Settle(900),
            Heal(1),
            Settle(900),
            AdminBroadcast(payload("admin", 4)),
            Settle(400),
        ]);

        Schedule {
            seed,
            members,
            events,
        }
    }

    /// Generates a random but state-aware schedule: the generator tracks
    /// which members are absent, joined, partitioned, or crashed, and only
    /// emits events that make sense in that state (so generated schedules
    /// spend their budget exercising the protocol, not bouncing off
    /// no-ops). Same `(seed, events, members)` → same schedule.
    #[must_use]
    pub fn random(seed: u64, events: usize, members: usize) -> Self {
        #[derive(Clone, Copy, PartialEq)]
        enum M {
            Absent,
            Joined,
            Crashed,
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let mut state = vec![M::Absent; members];
        let mut partitioned = vec![false; members];
        let mut script = Vec::with_capacity(events);
        let mut payload_counter = 0u32;
        let payload = |counter: &mut u32| {
            *counter += 1;
            format!("chaos-{counter}").into_bytes()
        };

        // Always open with a join so the group exists.
        state[0] = M::Joined;
        script.push(ChaosEvent::Join(0));

        while script.len() < events {
            let joined: Vec<usize> = (0..members).filter(|&i| state[i] == M::Joined).collect();
            let absent: Vec<usize> = (0..members).filter(|&i| state[i] == M::Absent).collect();
            let crashed: Vec<usize> = (0..members).filter(|&i| state[i] == M::Crashed).collect();

            let roll = rng.gen_range(0..100u32);
            let event = match roll {
                // Traffic is the most common event: the properties are
                // about deliveries, so most steps should produce some.
                0..=29 if !joined.is_empty() => {
                    if rng.gen_bool(0.5) {
                        ChaosEvent::AdminBroadcast(payload(&mut payload_counter))
                    } else {
                        ChaosEvent::DataBroadcast(payload(&mut payload_counter))
                    }
                }
                30..=44 if !absent.is_empty() => {
                    let i = absent[rng.gen_range(0..absent.len())];
                    state[i] = M::Joined;
                    ChaosEvent::Join(i)
                }
                45..=54 if !joined.is_empty() => ChaosEvent::Rekey,
                55..=62 if joined.len() > 1 => {
                    let i = joined[rng.gen_range(0..joined.len())];
                    state[i] = M::Absent;
                    partitioned[i] = false;
                    if rng.gen_bool(0.5) {
                        ChaosEvent::Leave(i)
                    } else {
                        ChaosEvent::Expel(i)
                    }
                }
                63..=72 if !joined.is_empty() => {
                    let i = joined[rng.gen_range(0..joined.len())];
                    partitioned[i] = true;
                    // Bias toward full partitions; asymmetric ones are the
                    // nastier quarter.
                    let (to_leader, to_member) = match rng.gen_range(0..4u32) {
                        0 => (true, false),
                        1 => (false, true),
                        _ => (true, true),
                    };
                    ChaosEvent::Partition {
                        member: i,
                        to_leader,
                        to_member,
                    }
                }
                73..=79 if partitioned.iter().any(|&p| p) => {
                    let candidates: Vec<usize> = (0..members).filter(|&i| partitioned[i]).collect();
                    let i = candidates[rng.gen_range(0..candidates.len())];
                    partitioned[i] = false;
                    ChaosEvent::Heal(i)
                }
                80..=86 if joined.len() > 1 => {
                    let i = joined[rng.gen_range(0..joined.len())];
                    state[i] = M::Crashed;
                    partitioned[i] = false;
                    ChaosEvent::Crash(i)
                }
                87..=93 if !crashed.is_empty() => {
                    let i = crashed[rng.gen_range(0..crashed.len())];
                    state[i] = M::Joined;
                    ChaosEvent::Reconnect(i)
                }
                _ => ChaosEvent::Settle(rng.gen_range(30..150)),
            };
            script.push(event);
        }
        Schedule {
            seed,
            members,
            events: script,
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "schedule (seed={}, members={}, {} events):",
            self.seed,
            self.members,
            self.events.len()
        )?;
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "  {i:3}: {e:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_reproducible() {
        let a = Schedule::random(42, 50, 4);
        let b = Schedule::random(42, 50, 4);
        assert_eq!(a, b);
        let c = Schedule::random(43, 50, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn random_schedules_start_with_a_join_and_fill_the_budget() {
        let s = Schedule::random(7, 80, 3);
        assert_eq!(s.events[0], ChaosEvent::Join(0));
        assert_eq!(s.events.len(), 80);
        // A healthy mix: traffic must dominate.
        let traffic = s
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ChaosEvent::AdminBroadcast(_) | ChaosEvent::DataBroadcast(_)
                )
            })
            .count();
        assert!(traffic >= 10, "only {traffic} traffic events");
    }

    #[test]
    fn generator_is_state_aware() {
        // No schedule may crash an absent member, reconnect a live one,
        // or leave/expel someone who is not in the group.
        for seed in 0..20u64 {
            let s = Schedule::random(seed, 120, 4);
            let mut joined = [false; 4];
            let mut crashed = [false; 4];
            for e in &s.events {
                match *e {
                    ChaosEvent::Join(i) => {
                        assert!(!joined[i] && !crashed[i], "join of live member in {s}");
                        joined[i] = true;
                    }
                    ChaosEvent::Leave(i) | ChaosEvent::Expel(i) => {
                        assert!(joined[i], "departure of absent member in {s}");
                        joined[i] = false;
                    }
                    ChaosEvent::Crash(i) => {
                        assert!(joined[i], "crash of absent member in {s}");
                        joined[i] = false;
                        crashed[i] = true;
                    }
                    ChaosEvent::Reconnect(i) => {
                        assert!(crashed[i], "reconnect of non-crashed member in {s}");
                        crashed[i] = false;
                        joined[i] = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn rekey_storm_is_deterministic_and_state_valid() {
        let a = Schedule::rekey_storm(9, 4);
        let b = Schedule::rekey_storm(9, 4);
        assert_eq!(a, b);
        // The seed only feeds the fault stream; the script is fixed.
        assert_eq!(a.events, Schedule::rekey_storm(10, 4).events);

        // The storm must actually storm: at least three bursts of three
        // back-to-back rekeys, i.e. consecutive Rekey runs of length >= 3.
        let rekeys = a
            .events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Rekey))
            .count();
        assert!(rekeys >= 10, "only {rekeys} rekeys in the storm");
        let longest_run = a
            .events
            .iter()
            .fold((0usize, 0usize), |(best, run), e| {
                if matches!(e, ChaosEvent::Rekey) {
                    (best.max(run + 1), run + 1)
                } else {
                    (best, 0)
                }
            })
            .0;
        assert!(longest_run >= 3, "no back-to-back rekey burst");

        // The mid-path-update cut: some partition must land immediately
        // after a rekey (the key install is still in flight when the
        // member goes dark) and be followed by a back-to-back rekey
        // burst before its heal.
        let cut_mid_update = a.events.windows(3).any(|w| {
            matches!(
                w,
                [
                    ChaosEvent::Rekey,
                    ChaosEvent::Partition { .. },
                    ChaosEvent::Rekey
                ]
            )
        });
        assert!(
            cut_mid_update,
            "no partition lands mid-path-update between rekeys"
        );

        // Same state-machine validity the random generator guarantees.
        let mut joined = vec![false; a.members];
        for e in &a.events {
            match *e {
                ChaosEvent::Join(i) => {
                    assert!(!joined[i], "join of live member in {a}");
                    joined[i] = true;
                }
                ChaosEvent::Leave(i) | ChaosEvent::Expel(i) => {
                    assert!(joined[i], "departure of absent member in {a}");
                    joined[i] = false;
                }
                ChaosEvent::Partition { member, .. } | ChaosEvent::Heal(member) => {
                    assert!(member < a.members, "partition of out-of-cast member");
                }
                _ => {}
            }
        }
        // Every partition is healed before the schedule ends, so the
        // final settle runs on a fully connected fabric.
        assert!(matches!(a.events.last(), Some(ChaosEvent::Settle(_))));
        assert!(a.events.iter().any(|e| matches!(e, ChaosEvent::HealAll)));
    }

    /// Shared validity check for the liveness schedules: scripts are
    /// seed-independent, every fault is eventually healed, member `0`
    /// never faults (so the group never empties and eviction rekeys
    /// land), and fault targets are state-valid.
    fn check_liveness_schedule(make: fn(u64, usize) -> Schedule) {
        let a = make(9, 3);
        let b = make(9, 3);
        assert_eq!(a, b);
        // The seed only feeds the fault stream; the script is fixed.
        assert_eq!(a.events, make(10, 3).events);

        let mut joined = vec![false; a.members];
        let mut dark = vec![false; a.members];
        for e in &a.events {
            match *e {
                ChaosEvent::Join(i) => {
                    assert!(!joined[i], "join of live member in {a}");
                    joined[i] = true;
                }
                ChaosEvent::CrashWire(i) | ChaosEvent::Partition { member: i, .. } => {
                    assert_ne!(i, 0, "m0 must stay clean in {a}");
                    assert!(joined[i], "fault on absent member in {a}");
                    dark[i] = true;
                }
                ChaosEvent::Heal(i) => {
                    dark[i] = false;
                }
                ChaosEvent::HealAll => {
                    dark.iter_mut().for_each(|d| *d = false);
                }
                _ => {}
            }
        }
        assert!(dark.iter().all(|&d| !d), "a fault is never healed in {a}");
        assert!(
            a.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::CrashWire(_) | ChaosEvent::Partition { .. })),
            "no faults in {a}"
        );
        assert!(matches!(a.events.last(), Some(ChaosEvent::Settle(_))));
    }

    #[test]
    fn crash_storm_is_deterministic_and_state_valid() {
        check_liveness_schedule(Schedule::crash_storm);
        let s = Schedule::crash_storm(1, 4);
        let wire_crashes = s
            .events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::CrashWire(_)))
            .count();
        assert!(wire_crashes >= 2, "only {wire_crashes} wire crashes");
    }

    #[test]
    fn leader_blackhole_is_deterministic_and_state_valid() {
        check_liveness_schedule(Schedule::leader_blackhole);
        // Everyone but m0 goes dark at once.
        let s = Schedule::leader_blackhole(1, 5);
        let cut: Vec<usize> = s
            .events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Partition { member, .. } => Some(*member),
                _ => None,
            })
            .collect();
        assert_eq!(cut, vec![1, 2, 3, 4]);
    }

    #[test]
    fn flapping_is_deterministic_and_state_valid() {
        check_liveness_schedule(Schedule::flapping);
        // Three short flaps before the real outage.
        let s = Schedule::flapping(1, 3);
        let heals = s
            .events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Heal(1)))
            .count();
        assert_eq!(heals, 4, "three flap heals plus the outage heal");
    }

    #[test]
    fn prefix_truncates() {
        let s = Schedule::random(1, 30, 3);
        let p = s.prefix(10);
        assert_eq!(p.events.len(), 10);
        assert_eq!(p.events[..], s.events[..10]);
        assert_eq!(s.prefix(99).events.len(), 30);
    }
}
