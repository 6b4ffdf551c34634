//! The §5.4 live oracle: a *threaded* leader/member run is checked from
//! its own event stream — the [`ProtocolEvent`]s the leader and every
//! member emit, in one happened-before order — by the same property
//! predicates the model checker uses, so the paper's guarantees are
//! asserted against real concurrent sessions over a faulty network, not
//! just the abstract model.
//!
//! The checkers read the product's own [`EventKind`] vocabulary. Beside
//! the stream they take the two things only a test driver can know: the
//! [`Fault`]s it injected and the [`AtRest`] snapshot it took once the
//! run had quiesced. Each carries `at`, the stream length when the driver
//! recorded it, so it precedes exactly the events whose `seq` is at least
//! `at`. A [`Violation`]'s `index` is a stream position too.
//!
//! Checkers:
//!
//! * [`AdminPrefixChecker`] — §5.4 P3 on the live admin channel. For each
//!   member's session segment it interns admin payloads as model
//!   [`Field`]s, builds a [`SystemState`] whose `snd_a`/`rcv_a` mirror the
//!   live stream, and calls the *actual*
//!   [`AdminPrefixProperty`](crate::properties::AdminPrefixProperty) after
//!   every delivery (incrementally, so transient violations cannot be
//!   masked by later traffic).
//! * [`BroadcastUniquenessChecker`] — no duplicate, replayed, reordered,
//!   forged, or cross-epoch data-plane delivery.
//! * [`EpochMonotonicChecker`] — group-key epochs never move backwards,
//!   at the leader or at any member.
//! * [`CloseOnceChecker`] — at most one leader-observed departure per
//!   member session (voluntary close, expel, or liveness eviction).
//! * [`FinalAgreementChecker`] — after the network heals and the system
//!   quiesces, every connected member agrees with the leader on the
//!   group-key epoch and has opened the final probe broadcast (an AEAD
//!   proof that it holds the same `K_g`, not just the same number).
//! * [`EvictionLivenessChecker`] — a member whose wire the driver crashed
//!   is eventually evicted by the leader's liveness layer (or re-welcomed,
//!   if it healed and rejoined before the eviction fired).
//! * [`NoFalseEvictionChecker`] — the leader never evicts a member the
//!   driver did not actually crash or partition: bounded delay and loss
//!   alone must not exhaust a correctly budgeted ARQ.
//! * [`RejoinFreshEpochChecker`] — a member re-welcomed after an eviction
//!   lands in a strictly newer group-key epoch than any it held before
//!   (the eviction's policy rekey must fence the old key off).

use crate::properties::AdminPrefixProperty;
use enclaves_model::explore::StateChecker;
use enclaves_model::field::{Field, NonceId};
use enclaves_model::system::{Scenario, SystemState};
use enclaves_obs::{EventKind, ProtocolEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the driver did to a member's wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The wire was severed without a close (crash-without-close).
    Crashed,
    /// The member was partitioned from the leader.
    Partitioned,
}

/// A fault the driver injected: it precedes every stream event whose
/// `seq` is at least `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The stream length once the fault had taken effect.
    pub at: u64,
    /// The member whose wire was faulted.
    pub member: String,
    /// What was done to it.
    pub kind: FaultKind,
}

/// End-of-run snapshot, taken after the driver healed all partitions and
/// waited for quiescence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtRest {
    /// The stream length when the snapshot was taken.
    pub at: u64,
    /// The leader's group-key epoch.
    pub leader_epoch: Option<u64>,
    /// Every member the driver believes is still connected, with the
    /// group-key epoch it holds.
    pub members: Vec<(String, Option<u64>)>,
}

/// A property violation found in a live run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which checker fired.
    pub checker: &'static str,
    /// Stream `seq` of the event that exposed the violation, or the `at`
    /// of the fault or snapshot that did.
    pub index: u64,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] at seq {}: {}",
            self.checker, self.index, self.detail
        )
    }
}

/// A property predicate over a live run.
pub trait LiveChecker {
    /// Checker name (used in violation reports).
    fn name(&self) -> &'static str;
    /// Scans the run's `events`, with the driver's `faults` and `at_rest`
    /// snapshot, and returns every violation found.
    fn check(
        &self,
        events: &[ProtocolEvent],
        faults: &[Fault],
        at_rest: Option<&AtRest>,
    ) -> Vec<Violation>;
}

/// §5.4 P3 over the live admin channel, evaluated by the *model checker's
/// own* [`AdminPrefixProperty`]: per member session segment, the list of
/// accepted admin payloads must at all times be a prefix of the list of
/// admin payloads the leader addressed to that member.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdminPrefixChecker;

impl LiveChecker for AdminPrefixChecker {
    fn name(&self) -> &'static str {
        "live-P3: admin deliveries are a prefix of admin sends"
    }

    fn check(&self, events: &[ProtocolEvent], _: &[Fault], _: Option<&AtRest>) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Payloads are interned as model nonces: equal bytes, equal Field.
        let mut intern: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut field_of = |payload: &[u8]| -> Field {
            let next = intern.len() as u32;
            Field::Nonce(NonceId(*intern.entry(payload.to_vec()).or_insert(next)))
        };
        let scenario = Scenario::honest_pair();
        let mut snd: BTreeMap<String, Vec<Field>> = BTreeMap::new();
        let mut rcv: BTreeMap<String, Vec<Field>> = BTreeMap::new();
        // One report per member per segment: a single lost prefix slot
        // would otherwise flag every subsequent delivery too.
        let mut reported: BTreeSet<String> = BTreeSet::new();

        for event in events {
            match &event.kind {
                EventKind::JoinStarted { member } => {
                    snd.remove(member);
                    rcv.remove(member);
                    reported.remove(member);
                }
                EventKind::AdminSend {
                    payload,
                    recipients,
                } => {
                    let field = field_of(payload);
                    for member in recipients {
                        snd.entry(member.clone()).or_default().push(field.clone());
                    }
                }
                EventKind::AdminDeliver { member, payload } => {
                    let field = field_of(payload);
                    rcv.entry(member.clone()).or_default().push(field);
                    if reported.contains(member) {
                        continue;
                    }
                    // Rebuild the model state for this member and run the
                    // real model property on it.
                    let mut state = SystemState::initial(&scenario);
                    state.snd_a = snd.get(member).cloned().unwrap_or_default();
                    state.rcv_a = rcv.get(member).cloned().unwrap_or_default();
                    if let Err(detail) = AdminPrefixProperty.check(&state) {
                        reported.insert(member.clone());
                        violations.push(Violation {
                            checker: self.name(),
                            index: event.seq,
                            detail: format!("member {member}: {detail}"),
                        });
                    }
                }
                _ => {}
            }
        }
        violations
    }
}

/// Data-plane delivery discipline: every delivered broadcast was actually
/// sent to that member in that exact `(epoch, seq)` slot with that exact
/// payload, each slot is delivered at most once per member session, and
/// within an epoch a member's accepted sequence numbers strictly increase
/// (the watermark property — a dropped frame is legal, a replayed or
/// rolled-back one is not).
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastUniquenessChecker;

impl LiveChecker for BroadcastUniquenessChecker {
    fn name(&self) -> &'static str {
        "live-data: no duplicate, forged, or cross-epoch data delivery"
    }

    fn check(&self, events: &[ProtocolEvent], _: &[Fault], _: Option<&AtRest>) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut sends: HashMap<(u64, u64), (Vec<u8>, Vec<String>)> = HashMap::new();
        let mut seen: BTreeMap<String, BTreeSet<(u64, u64)>> = BTreeMap::new();
        let mut high: BTreeMap<(String, u64), u64> = BTreeMap::new();

        for event in events {
            match &event.kind {
                EventKind::JoinStarted { member } => {
                    seen.remove(member);
                    high.retain(|(m, _), _| m != member);
                }
                EventKind::DataSend {
                    epoch,
                    seq,
                    payload,
                    recipients,
                } if sends
                    .insert((*epoch, *seq), (payload.clone(), recipients.clone()))
                    .is_some() =>
                {
                    violations.push(Violation {
                        checker: self.name(),
                        index: event.seq,
                        detail: format!(
                            "leader sealed two different broadcasts into \
                                 (epoch {epoch}, seq {seq})"
                        ),
                    });
                }
                EventKind::DataDeliver {
                    member,
                    epoch,
                    seq,
                    payload,
                } => {
                    let slot = (*epoch, *seq);
                    match sends.get(&slot) {
                        None => violations.push(Violation {
                            checker: self.name(),
                            index: event.seq,
                            detail: format!(
                                "member {member} delivered (epoch {epoch}, seq {seq}) \
                                 which the leader never sent"
                            ),
                        }),
                        Some((sent_payload, recipients)) => {
                            if sent_payload != payload {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index: event.seq,
                                    detail: format!(
                                        "member {member} delivered a different payload \
                                         than was sealed into (epoch {epoch}, seq {seq})"
                                    ),
                                });
                            }
                            if !recipients.contains(member) {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index: event.seq,
                                    detail: format!(
                                        "member {member} delivered (epoch {epoch}, seq \
                                         {seq}) but was not among its recipients"
                                    ),
                                });
                            }
                        }
                    }
                    if !seen.entry(member.clone()).or_default().insert(slot) {
                        violations.push(Violation {
                            checker: self.name(),
                            index: event.seq,
                            detail: format!(
                                "member {member} delivered (epoch {epoch}, seq {seq}) twice"
                            ),
                        });
                    }
                    let key = (member.clone(), *epoch);
                    if let Some(&h) = high.get(&key) {
                        if *seq <= h {
                            violations.push(Violation {
                                checker: self.name(),
                                index: event.seq,
                                detail: format!(
                                    "member {member} accepted seq {seq} after seq {h} \
                                     in epoch {epoch} (watermark rollback)"
                                ),
                            });
                        }
                    }
                    let entry = high.entry(key).or_insert(*seq);
                    *entry = (*entry).max(*seq);
                }
                _ => {}
            }
        }
        violations
    }
}

/// Group-key epochs never move backwards: the leader's rekeys strictly
/// increase, and every epoch a member installs (welcome or rotation) is at
/// least as new as anything that member has seen before — across
/// reconnects too, since the leader's epoch counter is global.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochMonotonicChecker;

impl LiveChecker for EpochMonotonicChecker {
    fn name(&self) -> &'static str {
        "live-epoch: group-key epochs never regress"
    }

    fn check(&self, events: &[ProtocolEvent], _: &[Fault], _: Option<&AtRest>) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut leader_high: Option<u64> = None;
        let mut member_high: BTreeMap<String, u64> = BTreeMap::new();
        let mut observe = |violations: &mut Vec<Violation>,
                           name: &'static str,
                           index: u64,
                           member: &String,
                           epoch: u64,
                           strict: bool| {
            if let Some(&h) = member_high.get(member) {
                if epoch < h || (strict && epoch == h) {
                    violations.push(Violation {
                        checker: name,
                        index,
                        detail: format!(
                            "member {member} installed epoch {epoch} after holding {h}"
                        ),
                    });
                }
            }
            let entry = member_high.entry(member.clone()).or_insert(epoch);
            *entry = (*entry).max(epoch);
        };

        for event in events {
            match &event.kind {
                EventKind::Rekeyed { epoch } => {
                    if leader_high.is_some_and(|h| *epoch <= h) {
                        violations.push(Violation {
                            checker: self.name(),
                            index: event.seq,
                            detail: format!(
                                "leader rekeyed to epoch {epoch} after {}",
                                leader_high.unwrap_or_default()
                            ),
                        });
                    }
                    leader_high = Some(leader_high.unwrap_or(*epoch).max(*epoch));
                }
                // A welcome may repeat the current epoch (rejoin without a
                // rekey); a rotation must strictly advance.
                EventKind::Welcomed { member, epoch } => {
                    observe(
                        &mut violations,
                        self.name(),
                        event.seq,
                        member,
                        *epoch,
                        false,
                    );
                }
                EventKind::KeyChanged { member, epoch } => {
                    observe(
                        &mut violations,
                        self.name(),
                        event.seq,
                        member,
                        *epoch,
                        true,
                    );
                }
                _ => {}
            }
        }
        violations
    }
}

/// At-most-once close: the leader observes at most one departure per
/// member session (a replayed `Close` or a late duplicate expel must not
/// double-process), and never a departure for a member it never admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloseOnceChecker;

impl LiveChecker for CloseOnceChecker {
    fn name(&self) -> &'static str {
        "live-close: at most one departure per member session"
    }

    fn check(&self, events: &[ProtocolEvent], _: &[Fault], _: Option<&AtRest>) -> Vec<Violation> {
        let mut violations = Vec::new();
        // None = never joined; Some(true) = in group; Some(false) = closed.
        let mut state: BTreeMap<String, bool> = BTreeMap::new();
        for event in events {
            match &event.kind {
                EventKind::MemberJoined { member, .. } => {
                    state.insert(member.clone(), true);
                }
                // An eviction is a departure like any other: the same
                // session must not also close voluntarily afterwards.
                EventKind::MemberClosed { member }
                | EventKind::Expelled { member }
                | EventKind::Evicted { member } => match state.get(member) {
                    Some(true) => {
                        state.insert(member.clone(), false);
                    }
                    Some(false) => violations.push(Violation {
                        checker: self.name(),
                        index: event.seq,
                        detail: format!("member {member} departed twice in one session"),
                    }),
                    None => violations.push(Violation {
                        checker: self.name(),
                        index: event.seq,
                        detail: format!("member {member} departed but never joined"),
                    }),
                },
                _ => {}
            }
        }
        violations
    }
}

/// End-of-run agreement on `(epoch, K_g)`: once the network is healed and
/// the system quiesced, every still-connected member holds the leader's
/// epoch, and every recipient of the final probe broadcast opened it —
/// successfully unsealing the probe is an AEAD proof that the member holds
/// the same group *key*, not merely the same epoch number.
#[derive(Debug, Clone, Copy, Default)]
pub struct FinalAgreementChecker;

impl LiveChecker for FinalAgreementChecker {
    fn name(&self) -> &'static str {
        "live-agreement: connected members agree on (epoch, K_g) at rest"
    }

    fn check(
        &self,
        events: &[ProtocolEvent],
        _: &[Fault],
        at_rest: Option<&AtRest>,
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        let Some(AtRest {
            at,
            leader_epoch,
            members,
        }) = at_rest
        else {
            return violations; // No snapshot: nothing to assert.
        };

        for (member, epoch) in members {
            match (leader_epoch, epoch) {
                (Some(le), Some(me)) if le == me => {}
                _ => violations.push(Violation {
                    checker: self.name(),
                    index: *at,
                    detail: format!(
                        "member {member} holds epoch {epoch:?} but the leader \
                         is at {leader_epoch:?}"
                    ),
                }),
            }
        }

        // The probe: the last data broadcast before the snapshot.
        let before_rest = || events.iter().filter(|e| e.seq < *at);
        let Some((probe_at, p_epoch, p_seq, p_recipients)) =
            before_rest().rev().find_map(|e| match &e.kind {
                EventKind::DataSend {
                    epoch,
                    seq,
                    recipients,
                    ..
                } => Some((e.seq, *epoch, *seq, recipients)),
                _ => None,
            })
        else {
            return violations; // A run with no data plane: epoch check only.
        };

        let connected: BTreeSet<&String> = members.iter().map(|(m, _)| m).collect();
        let addressed: BTreeSet<&String> = p_recipients.iter().collect();
        if connected != addressed {
            violations.push(Violation {
                checker: self.name(),
                index: *at,
                detail: format!(
                    "roster disagreement at rest: the probe was addressed to \
                     {addressed:?} but the connected members are {connected:?}"
                ),
            });
        }
        for member in p_recipients {
            let opened = before_rest().any(|e| {
                e.seq > probe_at
                    && matches!(&e.kind, EventKind::DataDeliver { member: m, epoch, seq, .. }
                        if m == member && *epoch == p_epoch && *seq == p_seq)
            });
            if !opened {
                violations.push(Violation {
                    checker: self.name(),
                    index: *at,
                    detail: format!(
                        "member {member} never opened the probe broadcast \
                         (epoch {p_epoch}, seq {p_seq}) — key disagreement or lost \
                         delivery after quiescence"
                    ),
                });
            }
        }
        violations
    }
}

/// Eviction liveness: every member the driver crashed is eventually dealt
/// with — evicted by the leader's liveness layer, or (if the fault healed
/// and the member rejoined before the eviction fired) re-welcomed into the
/// group. A crashed member silently occupying a slot forever is the
/// failure mode the Figure 3 `Oops(Ka)` timeout exists to prevent.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionLivenessChecker;

impl LiveChecker for EvictionLivenessChecker {
    fn name(&self) -> &'static str {
        "live-evict: a crashed member is eventually evicted or re-welcomed"
    }

    fn check(
        &self,
        events: &[ProtocolEvent],
        faults: &[Fault],
        _: Option<&AtRest>,
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        for Fault { at, member, kind } in faults {
            if *kind != FaultKind::Crashed {
                continue;
            }
            let recovered = events.iter().any(|e| {
                e.seq >= *at
                    && matches!(&e.kind,
                        EventKind::Evicted { member: m } | EventKind::Welcomed { member: m, .. }
                            if m == member)
            });
            if !recovered {
                violations.push(Violation {
                    checker: self.name(),
                    index: *at,
                    detail: format!(
                        "member {member} crashed but was never evicted or re-welcomed \
                         before the run ended"
                    ),
                });
            }
        }
        violations
    }
}

/// No false evictions: the leader only evicts members the driver actually
/// faulted. Formulated globally — an `Evicted` needs *some* fault on that
/// member stamped before it, crash or partition — rather than per fault
/// window, because an eviction may legitimately fire after the heal: the
/// liveness deadline that fires it was armed by the silence before the
/// heal. A responsive member under bounded delay has no fault at all, so
/// any eviction of it is flagged.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFalseEvictionChecker;

impl LiveChecker for NoFalseEvictionChecker {
    fn name(&self) -> &'static str {
        "live-no-false-evict: evictions only under injected faults"
    }

    fn check(
        &self,
        events: &[ProtocolEvent],
        faults: &[Fault],
        _: Option<&AtRest>,
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        for event in events {
            let EventKind::Evicted { member } = &event.kind else {
                continue;
            };
            if !faults
                .iter()
                .any(|f| f.member == *member && f.at <= event.seq)
            {
                violations.push(Violation {
                    checker: self.name(),
                    index: event.seq,
                    detail: format!(
                        "member {member} was evicted without any injected crash \
                         or partition — a false liveness judgment"
                    ),
                });
            }
        }
        violations
    }
}

/// Post-eviction rejoins land in a strictly newer epoch: the eviction's
/// policy rekey must have fenced off every key the departed session held,
/// so the re-welcome's epoch exceeds the member's previous high-water
/// mark. The leader's `Evicted` and the member's `Welcomed` both come
/// from the run's one event stream, in the order they happened, so an
/// eviction is never missing from in front of the re-welcome after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RejoinFreshEpochChecker;

impl LiveChecker for RejoinFreshEpochChecker {
    fn name(&self) -> &'static str {
        "live-rejoin: a post-eviction rejoin lands in a strictly newer epoch"
    }

    fn check(&self, events: &[ProtocolEvent], _: &[Fault], _: Option<&AtRest>) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Highest epoch each member has ever held (across sessions).
        let mut high: BTreeMap<String, u64> = BTreeMap::new();
        // Members evicted since their last welcome.
        let mut evicted: BTreeSet<String> = BTreeSet::new();
        for event in events {
            match &event.kind {
                EventKind::Evicted { member } => {
                    evicted.insert(member.clone());
                }
                EventKind::Welcomed { member, epoch } => {
                    if evicted.remove(member) {
                        if let Some(&h) = high.get(member) {
                            if *epoch <= h {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index: event.seq,
                                    detail: format!(
                                        "member {member} rejoined after an eviction at \
                                         epoch {epoch}, but already held epoch {h} — the \
                                         eviction rekey did not fence the old key"
                                    ),
                                });
                            }
                        }
                    }
                    let entry = high.entry(member.clone()).or_insert(*epoch);
                    *entry = (*entry).max(*epoch);
                }
                EventKind::KeyChanged { member, epoch } => {
                    let entry = high.entry(member.clone()).or_insert(*epoch);
                    *entry = (*entry).max(*epoch);
                }
                _ => {}
            }
        }
        violations
    }
}

/// Every live checker, in reporting order.
#[must_use]
pub fn all_live_checkers() -> Vec<Box<dyn LiveChecker>> {
    vec![
        Box::new(AdminPrefixChecker),
        Box::new(BroadcastUniquenessChecker),
        Box::new(EpochMonotonicChecker),
        Box::new(CloseOnceChecker),
        Box::new(FinalAgreementChecker),
        Box::new(EvictionLivenessChecker),
        Box::new(NoFalseEvictionChecker),
        Box::new(RejoinFreshEpochChecker),
    ]
}

/// Runs every live checker over a run's `events`, `faults` and `at_rest`
/// snapshot, and collects all violations.
#[must_use]
pub fn check_run(
    events: &[ProtocolEvent],
    faults: &[Fault],
    at_rest: Option<&AtRest>,
) -> Vec<Violation> {
    all_live_checkers()
        .iter()
        .flat_map(|c| c.check(events, faults, at_rest))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `kinds` as a stream: each event's `seq` is its position.
    fn stream(kinds: Vec<EventKind>) -> Vec<ProtocolEvent> {
        (0..)
            .zip(kinds)
            .map(|(seq, kind)| ProtocolEvent {
                at_ns: seq,
                seq,
                kind,
            })
            .collect()
    }
    /// `checker`'s verdict on a stream with no faults and no snapshot.
    fn check(checker: impl LiveChecker, kinds: Vec<EventKind>) -> Vec<Violation> {
        checker.check(&stream(kinds), &[], None)
    }

    fn join(m: &str) -> EventKind {
        EventKind::JoinStarted { member: m.into() }
    }
    fn joined(m: &str) -> EventKind {
        EventKind::MemberJoined {
            member: m.into(),
            epoch: 1,
        }
    }
    fn welcomed(m: &str, epoch: u64) -> EventKind {
        EventKind::Welcomed {
            member: m.into(),
            epoch,
        }
    }
    fn key_changed(m: &str, epoch: u64) -> EventKind {
        EventKind::KeyChanged {
            member: m.into(),
            epoch,
        }
    }
    fn admin_send(p: &[u8], to: &[&str]) -> EventKind {
        EventKind::AdminSend {
            payload: p.to_vec(),
            recipients: to.iter().map(|s| (*s).into()).collect(),
        }
    }
    fn admin_dlv(m: &str, p: &[u8]) -> EventKind {
        EventKind::AdminDeliver {
            member: m.into(),
            payload: p.to_vec(),
        }
    }
    fn data_send(epoch: u64, seq: u64, p: &[u8], to: &[&str]) -> EventKind {
        EventKind::DataSend {
            epoch,
            seq,
            payload: p.to_vec(),
            recipients: to.iter().map(|s| (*s).into()).collect(),
        }
    }
    fn data_dlv(m: &str, epoch: u64, seq: u64, p: &[u8]) -> EventKind {
        EventKind::DataDeliver {
            member: m.into(),
            epoch,
            seq,
            payload: p.to_vec(),
        }
    }
    fn closed(m: &str) -> EventKind {
        EventKind::MemberClosed { member: m.into() }
    }
    fn expelled(m: &str) -> EventKind {
        EventKind::Expelled { member: m.into() }
    }
    fn evicted(m: &str) -> EventKind {
        EventKind::Evicted { member: m.into() }
    }
    fn fault(m: &str, at: u64, kind: FaultKind) -> Fault {
        Fault {
            at,
            member: m.into(),
            kind,
        }
    }
    fn at_rest(at: u64, leader_epoch: u64, members: &[(&str, u64)]) -> AtRest {
        AtRest {
            at,
            leader_epoch: Some(leader_epoch),
            members: members
                .iter()
                .map(|(m, epoch)| ((*m).into(), Some(*epoch)))
                .collect(),
        }
    }

    #[test]
    fn clean_trace_passes() {
        // Operational events (auth, acks, retransmissions, seal batches,
        // a close request) ride the same stream; no checker reads them.
        let events = stream(vec![
            join("alice"),
            EventKind::AuthAccepted {
                member: "alice".into(),
            },
            EventKind::SessionEstablished {
                member: "alice".into(),
            },
            joined("alice"),
            welcomed("alice", 1),
            admin_send(b"one", &["alice"]),
            EventKind::SealBatch {
                frames: 1,
                elapsed_ns: 10,
            },
            admin_dlv("alice", b"one"),
            EventKind::AdminAcked {
                member: "alice".into(),
            },
            admin_send(b"two", &["alice"]),
            EventKind::Retransmit {
                actor: "leader".into(),
                frames: 1,
            },
            admin_dlv("alice", b"two"),
            data_send(1, 1, b"dp", &["alice"]),
            data_dlv("alice", 1, 1, b"dp"),
            EventKind::Rekeyed { epoch: 2 },
            key_changed("alice", 2),
            data_send(2, 1, b"probe", &["alice"]),
            data_dlv("alice", 2, 1, b"probe"),
        ]);
        let rest = at_rest(events.len() as u64, 2, &[("alice", 2)]);
        let violations = check_run(&events, &[], Some(&rest));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn duplicate_admin_delivery_is_caught_by_the_model_property() {
        let violations = check(
            AdminPrefixChecker,
            vec![
                admin_send(b"one", &["alice"]),
                admin_dlv("alice", b"one"),
                admin_dlv("alice", b"one"),
            ],
        );
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].index, 2);
    }

    #[test]
    fn reordered_admin_delivery_is_caught() {
        let events = vec![
            admin_send(b"one", &["alice"]),
            admin_send(b"two", &["alice"]),
            admin_dlv("alice", b"two"),
        ];
        assert_eq!(check(AdminPrefixChecker, events).len(), 1);
    }

    #[test]
    fn forged_admin_delivery_is_caught() {
        let events = vec![admin_dlv("alice", b"never sent")];
        assert_eq!(check(AdminPrefixChecker, events).len(), 1);
    }

    #[test]
    fn per_member_segments_reset_on_rejoin() {
        let events = vec![
            join("alice"),
            admin_send(b"one", &["alice"]),
            // alice crashes without delivering; undelivered history must
            // not poison the next session.
            join("alice"),
            admin_send(b"two", &["alice"]),
            admin_dlv("alice", b"two"),
        ];
        assert!(check(AdminPrefixChecker, events).is_empty());
    }

    #[test]
    fn other_members_traffic_is_not_confused() {
        let events = vec![
            admin_send(b"one", &["alice", "bob"]),
            admin_send(b"two", &["alice", "bob"]),
            admin_dlv("bob", b"one"),
            admin_dlv("alice", b"one"),
            admin_dlv("alice", b"two"),
        ];
        assert!(check(AdminPrefixChecker, events).is_empty());
    }

    #[test]
    fn duplicate_data_delivery_is_caught() {
        let violations = check(
            BroadcastUniquenessChecker,
            vec![
                data_send(1, 1, b"x", &["alice"]),
                data_dlv("alice", 1, 1, b"x"),
                data_dlv("alice", 1, 1, b"x"),
            ],
        );
        assert!(
            violations.iter().any(|v| v.detail.contains("twice")),
            "{violations:?}"
        );
    }

    #[test]
    fn watermark_rollback_is_caught() {
        let violations = check(
            BroadcastUniquenessChecker,
            vec![
                data_send(1, 1, b"a", &["alice"]),
                data_send(1, 2, b"b", &["alice"]),
                data_dlv("alice", 1, 2, b"b"),
                data_dlv("alice", 1, 1, b"a"),
            ],
        );
        assert!(
            violations.iter().any(|v| v.detail.contains("rollback")),
            "{violations:?}"
        );
    }

    #[test]
    fn forged_and_cross_epoch_data_delivery_is_caught() {
        let events = vec![
            data_send(1, 1, b"x", &["alice"]),
            data_dlv("alice", 2, 1, b"x"), // epoch the leader never sealed
        ];
        assert!(!check(BroadcastUniquenessChecker, events).is_empty());
        let events = vec![
            data_send(1, 1, b"x", &["alice"]),
            data_dlv("alice", 1, 1, b"y"), // payload mismatch
        ];
        assert!(!check(BroadcastUniquenessChecker, events).is_empty());
    }

    #[test]
    fn dropped_data_frames_are_legal() {
        let events = vec![
            data_send(1, 1, b"a", &["alice"]),
            data_send(1, 2, b"b", &["alice"]),
            data_send(1, 3, b"c", &["alice"]),
            data_dlv("alice", 1, 1, b"a"),
            data_dlv("alice", 1, 3, b"c"), // seq 2 lost: fine
        ];
        assert!(check(BroadcastUniquenessChecker, events).is_empty());
    }

    #[test]
    fn epoch_regression_is_caught() {
        let events = vec![welcomed("alice", 3), key_changed("alice", 2)];
        assert!(!check(EpochMonotonicChecker, events).is_empty());
        let events = vec![
            EventKind::Rekeyed { epoch: 2 },
            EventKind::Rekeyed { epoch: 2 },
        ];
        assert!(!check(EpochMonotonicChecker, events).is_empty());
    }

    #[test]
    fn double_close_is_caught() {
        let events = vec![joined("alice"), closed("alice"), closed("alice")];
        assert_eq!(check(CloseOnceChecker, events).len(), 1);
        // An expel and a close are the same kind of departure: one of
        // each in a session is a double departure.
        let events = vec![joined("alice"), expelled("alice"), closed("alice")];
        let violations = check(CloseOnceChecker, events);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].index, 2);
        // A rejoin opens a fresh session with a fresh close budget.
        let events = vec![
            joined("alice"),
            closed("alice"),
            joined("alice"),
            closed("alice"),
        ];
        assert!(check(CloseOnceChecker, events).is_empty());
    }

    #[test]
    fn eviction_counts_as_the_sessions_one_departure() {
        let violations = check(
            CloseOnceChecker,
            vec![joined("alice"), evicted("alice"), closed("alice")],
        );
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("twice"));
        // So does an expel, alone.
        assert!(check(CloseOnceChecker, vec![joined("alice"), expelled("alice")]).is_empty());
    }

    #[test]
    fn crashed_member_must_be_evicted_or_rewelcomed() {
        let crashed = |at| [fault("alice", at, FaultKind::Crashed)];
        // Unhandled crash: violation.
        let events = stream(vec![joined("alice")]);
        assert_eq!(
            EvictionLivenessChecker
                .check(&events, &crashed(1), None)
                .len(),
            1
        );
        // Eviction resolves it.
        let events = stream(vec![evicted("alice")]);
        assert!(EvictionLivenessChecker
            .check(&events, &crashed(0), None)
            .is_empty());
        // So does a re-welcome (healed and rejoined before the deadline).
        let events = stream(vec![welcomed("alice", 4)]);
        assert!(EvictionLivenessChecker
            .check(&events, &crashed(0), None)
            .is_empty());
        // Vacuous without faults.
        assert!(EvictionLivenessChecker.check(&[], &[], None).is_empty());
    }

    #[test]
    fn false_eviction_is_caught() {
        // No injected fault anywhere: the eviction is a false judgment.
        let violations = check(
            NoFalseEvictionChecker,
            vec![joined("alice"), evicted("alice")],
        );
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("false"));
        // A prior partition justifies it — and keeps justifying later
        // evictions of the same member (faults are global, heals do not
        // reset them: a deadline armed before the heal may fire after it).
        let events = stream(vec![evicted("alice"), evicted("alice")]);
        let partitioned = [fault("alice", 0, FaultKind::Partitioned)];
        assert!(NoFalseEvictionChecker
            .check(&events, &partitioned, None)
            .is_empty());
        // A fault on one member never justifies evicting another.
        let events = stream(vec![evicted("alice")]);
        let crashed = [fault("bob", 0, FaultKind::Crashed)];
        assert_eq!(
            NoFalseEvictionChecker.check(&events, &crashed, None).len(),
            1
        );
    }

    #[test]
    fn post_eviction_rejoin_must_advance_the_epoch() {
        // Rejoin at the same epoch the member already held: violation.
        let violations = check(
            RejoinFreshEpochChecker,
            vec![welcomed("alice", 2), evicted("alice"), welcomed("alice", 2)],
        );
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("fence"));
        // A strictly newer epoch passes.
        let events = vec![welcomed("alice", 2), evicted("alice"), welcomed("alice", 3)];
        assert!(check(RejoinFreshEpochChecker, events).is_empty());
        // The high-water mark includes rotations inside the old session.
        let events = vec![
            welcomed("alice", 2),
            key_changed("alice", 5),
            evicted("alice"),
            welcomed("alice", 4),
        ];
        assert_eq!(check(RejoinFreshEpochChecker, events).len(), 1);
        // A re-welcome without an eviction (voluntary leave + rejoin, no
        // rekey) is out of scope for this checker.
        let events = vec![welcomed("alice", 2), join("alice"), welcomed("alice", 2)];
        assert!(check(RejoinFreshEpochChecker, events).is_empty());
    }

    #[test]
    fn final_epoch_disagreement_is_caught() {
        let rest = at_rest(0, 3, &[("alice", 3), ("bob", 2)]);
        let violations = FinalAgreementChecker.check(&[], &[], Some(&rest));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("bob"));
    }

    #[test]
    fn unopened_probe_is_caught() {
        let events = stream(vec![
            data_send(1, 9, b"probe", &["alice", "bob"]),
            data_dlv("alice", 1, 9, b"probe"),
        ]);
        let rest = at_rest(2, 1, &[("alice", 1), ("bob", 1)]);
        let violations = FinalAgreementChecker.check(&events, &[], Some(&rest));
        assert!(
            violations.iter().any(|v| v.detail.contains("bob")),
            "{violations:?}"
        );
    }

    #[test]
    fn roster_disagreement_at_rest_is_caught() {
        let events = stream(vec![
            data_send(1, 9, b"probe", &["alice"]),
            data_dlv("alice", 1, 9, b"probe"),
        ]);
        let rest = at_rest(2, 1, &[("alice", 1), ("ghost", 1)]);
        let violations = FinalAgreementChecker.check(&events, &[], Some(&rest));
        assert!(
            violations
                .iter()
                .any(|v| v.detail.contains("roster disagreement")),
            "{violations:?}"
        );
    }
}
