//! Live-trace adapters for the Section 5.4 properties: a *threaded*
//! leader/member run's own event stream, projected onto the [`LiveEvent`]
//! vocabulary ([`crate::obs::obs_trace`]) with the chaos driver's fault
//! markers merged in, is replayed through the same property predicates
//! the model checker uses — so the paper's guarantees are asserted
//! against real concurrent sessions over a faulty network, not just the
//! abstract model.
//!
//! The trace vocabulary is deliberately transport-free (`String` names,
//! `Vec<u8>` payloads): this crate keeps its dependency surface at
//! `enclaves-model`, and any harness — sim, TCP, or a future transport —
//! can produce the events.
//!
//! Checkers:
//!
//! * [`AdminPrefixChecker`] — §5.4 P3 on the live admin channel. For each
//!   member's session segment it interns admin payloads as model
//!   [`Field`]s, builds a [`SystemState`] whose `snd_a`/`rcv_a` mirror the
//!   live trace, and calls the *actual*
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
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One application-level observation from a live run.
///
/// Every event but the driver's markers comes from the run's event
/// stream, whose order is a happened-before order: a `*Send` is emitted
/// under the leader's core lock before its frame reaches any wire, a
/// `*Deliver` under the member's session lock when the session accepts
/// the frame, so no delivery can appear ahead of its send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveEvent {
    /// `member` (re)started its handshake; any previous session segment
    /// for that member is finished and its bookkeeping resets.
    JoinStarted {
        /// Member name.
        member: String,
    },
    /// `member` accepted the welcome (roster + group key) at `epoch`.
    Welcomed {
        /// Member name.
        member: String,
        /// Group-key epoch installed.
        epoch: u64,
    },
    /// `member` installed a rotated group key.
    KeyChanged {
        /// Member name.
        member: String,
        /// The new epoch.
        epoch: u64,
    },
    /// The leader rotated the group key.
    LeaderRekeyed {
        /// The new epoch.
        epoch: u64,
    },
    /// The leader sent an admin-channel broadcast to `recipients` (the
    /// roster captured under the core lock at send time).
    AdminSend {
        /// Application payload.
        payload: Vec<u8>,
        /// Exact recipient set.
        recipients: Vec<String>,
    },
    /// `member` accepted an admin-channel broadcast.
    AdminDeliver {
        /// Member name.
        member: String,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// The leader sealed a data-plane broadcast into `(epoch, seq)`.
    DataSend {
        /// Group-key epoch sealed under.
        epoch: u64,
        /// Broadcast sequence number within the epoch.
        seq: u64,
        /// Application payload.
        payload: Vec<u8>,
        /// Exact recipient set.
        recipients: Vec<String>,
    },
    /// `member` opened a data-plane broadcast.
    DataDeliver {
        /// Member name.
        member: String,
        /// Epoch the frame claimed.
        epoch: u64,
        /// Sequence number the frame claimed.
        seq: u64,
        /// Decrypted payload.
        payload: Vec<u8>,
    },
    /// The leader accepted `member` into the group.
    MemberJoined {
        /// Member name.
        member: String,
    },
    /// The leader observed `member` depart (voluntary close or expel).
    MemberClosed {
        /// Member name.
        member: String,
    },
    /// The leader's liveness layer evicted `member` (ARQ budget exhausted
    /// or heartbeat deadline missed) — the timeout-driven `Oops(Ka)` path.
    Evicted {
        /// Member name.
        member: String,
    },
    /// Driver fault marker: `member`'s wire was severed without a close
    /// (crash-without-close). Only the chaos driver records these; they
    /// never appear in the event stream's projection.
    Crashed {
        /// Member name.
        member: String,
    },
    /// Driver fault marker: `member` was partitioned from the leader.
    Partitioned {
        /// Member name.
        member: String,
    },
    /// Driver fault marker: a partition or crash affecting `member` was
    /// healed.
    Healed {
        /// Member name.
        member: String,
    },
    /// End-of-run snapshot, recorded after the driver healed all
    /// partitions and waited for quiescence.
    Final {
        /// The leader's group-key epoch.
        leader_epoch: Option<u64>,
        /// Every member the driver believes is still connected, with the
        /// group-key epoch it holds.
        members: Vec<(String, Option<u64>)>,
    },
}

/// A property violation found in a live trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which checker fired.
    pub checker: &'static str,
    /// Index into the trace of the event that exposed the violation.
    pub index: usize,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] at trace[{}]: {}",
            self.checker, self.index, self.detail
        )
    }
}

/// A property predicate over a live trace.
pub trait LiveChecker {
    /// Checker name (used in violation reports).
    fn name(&self) -> &'static str;
    /// Scans the trace and returns every violation found.
    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation>;
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
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

        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::JoinStarted { member } => {
                    snd.remove(member);
                    rcv.remove(member);
                    reported.remove(member);
                }
                LiveEvent::AdminSend {
                    payload,
                    recipients,
                } => {
                    let field = field_of(payload);
                    for member in recipients {
                        snd.entry(member.clone()).or_default().push(field.clone());
                    }
                }
                LiveEvent::AdminDeliver { member, payload } => {
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
                            index,
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut sends: HashMap<(u64, u64), (Vec<u8>, Vec<String>)> = HashMap::new();
        let mut seen: BTreeMap<String, BTreeSet<(u64, u64)>> = BTreeMap::new();
        let mut high: BTreeMap<(String, u64), u64> = BTreeMap::new();

        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::JoinStarted { member } => {
                    seen.remove(member);
                    high.retain(|(m, _), _| m != member);
                }
                LiveEvent::DataSend {
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
                        index,
                        detail: format!(
                            "leader sealed two different broadcasts into \
                                 (epoch {epoch}, seq {seq})"
                        ),
                    });
                }
                LiveEvent::DataDeliver {
                    member,
                    epoch,
                    seq,
                    payload,
                } => {
                    let slot = (*epoch, *seq);
                    match sends.get(&slot) {
                        None => violations.push(Violation {
                            checker: self.name(),
                            index,
                            detail: format!(
                                "member {member} delivered (epoch {epoch}, seq {seq}) \
                                 which the leader never sent"
                            ),
                        }),
                        Some((sent_payload, recipients)) => {
                            if sent_payload != payload {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index,
                                    detail: format!(
                                        "member {member} delivered a different payload \
                                         than was sealed into (epoch {epoch}, seq {seq})"
                                    ),
                                });
                            }
                            if !recipients.contains(member) {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index,
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
                            index,
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
                                index,
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut leader_high: Option<u64> = None;
        let mut member_high: BTreeMap<String, u64> = BTreeMap::new();
        let mut observe = |violations: &mut Vec<Violation>,
                           name: &'static str,
                           index: usize,
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

        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::LeaderRekeyed { epoch } => {
                    if leader_high.is_some_and(|h| *epoch <= h) {
                        violations.push(Violation {
                            checker: self.name(),
                            index,
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
                LiveEvent::Welcomed { member, epoch } => {
                    observe(&mut violations, self.name(), index, member, *epoch, false);
                }
                LiveEvent::KeyChanged { member, epoch } => {
                    observe(&mut violations, self.name(), index, member, *epoch, true);
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        // None = never joined; Some(true) = in group; Some(false) = closed.
        let mut state: BTreeMap<String, bool> = BTreeMap::new();
        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::MemberJoined { member } => {
                    state.insert(member.clone(), true);
                }
                // An eviction is a departure like any other: the same
                // session must not also close voluntarily afterwards.
                LiveEvent::MemberClosed { member } | LiveEvent::Evicted { member } => {
                    match state.get(member) {
                        Some(true) => {
                            state.insert(member.clone(), false);
                        }
                        Some(false) => violations.push(Violation {
                            checker: self.name(),
                            index,
                            detail: format!("member {member} departed twice in one session"),
                        }),
                        None => violations.push(Violation {
                            checker: self.name(),
                            index,
                            detail: format!("member {member} departed but never joined"),
                        }),
                    }
                }
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        let Some((final_index, (leader_epoch, members))) =
            trace.iter().enumerate().rev().find_map(|(i, e)| match e {
                LiveEvent::Final {
                    leader_epoch,
                    members,
                } => Some((i, (leader_epoch, members))),
                _ => None,
            })
        else {
            return violations; // No snapshot: nothing to assert.
        };

        for (member, epoch) in members {
            match (leader_epoch, epoch) {
                (Some(le), Some(me)) if le == me => {}
                _ => violations.push(Violation {
                    checker: self.name(),
                    index: final_index,
                    detail: format!(
                        "member {member} holds epoch {epoch:?} but the leader \
                         is at {leader_epoch:?}"
                    ),
                }),
            }
        }

        // The probe: the last data broadcast before the snapshot.
        let Some((probe_index, (p_epoch, p_seq, p_recipients))) = trace[..final_index]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, e)| match e {
                LiveEvent::DataSend {
                    epoch,
                    seq,
                    recipients,
                    ..
                } => Some((i, (*epoch, *seq, recipients))),
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
                index: final_index,
                detail: format!(
                    "roster disagreement at rest: the probe was addressed to \
                     {addressed:?} but the connected members are {connected:?}"
                ),
            });
        }
        for member in p_recipients {
            let opened = trace[probe_index + 1..final_index].iter().any(|e| {
                matches!(e, LiveEvent::DataDeliver { member: m, epoch, seq, .. }
                    if m == member && *epoch == p_epoch && *seq == p_seq)
            });
            if !opened {
                violations.push(Violation {
                    checker: self.name(),
                    index: final_index,
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (index, event) in trace.iter().enumerate() {
            let LiveEvent::Crashed { member } = event else {
                continue;
            };
            let recovered = trace[index + 1..].iter().any(|e| {
                matches!(e,
                    LiveEvent::Evicted { member: m } | LiveEvent::Welcomed { member: m, .. }
                        if m == member)
            });
            if !recovered {
                violations.push(Violation {
                    checker: self.name(),
                    index,
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
/// faulted. Formulated globally — an `Evicted` needs *some* earlier
/// `Crashed`/`Partitioned` marker for that member anywhere in the trace —
/// rather than per fault window, because an eviction may legitimately
/// fire after the `Healed` marker: the liveness deadline that fires it
/// was armed by the silence before the heal. A responsive member under
/// bounded delay has no fault marker at all, so any eviction of it is
/// flagged.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFalseEvictionChecker;

impl LiveChecker for NoFalseEvictionChecker {
    fn name(&self) -> &'static str {
        "live-no-false-evict: evictions only under injected faults"
    }

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut faulted: BTreeSet<&String> = BTreeSet::new();
        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::Crashed { member } | LiveEvent::Partitioned { member } => {
                    faulted.insert(member);
                }
                LiveEvent::Evicted { member } if !faulted.contains(member) => {
                    violations.push(Violation {
                        checker: self.name(),
                        index,
                        detail: format!(
                            "member {member} was evicted without any injected crash \
                             or partition — a false liveness judgment"
                        ),
                    });
                }
                _ => {}
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

    fn check(&self, trace: &[LiveEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Highest epoch each member has ever held (across sessions).
        let mut high: BTreeMap<String, u64> = BTreeMap::new();
        // Members evicted since their last welcome.
        let mut evicted: BTreeSet<String> = BTreeSet::new();
        for (index, event) in trace.iter().enumerate() {
            match event {
                LiveEvent::Evicted { member } => {
                    evicted.insert(member.clone());
                }
                LiveEvent::Welcomed { member, epoch } => {
                    if evicted.remove(member) {
                        if let Some(&h) = high.get(member) {
                            if *epoch <= h {
                                violations.push(Violation {
                                    checker: self.name(),
                                    index,
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
                LiveEvent::KeyChanged { member, epoch } => {
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

/// Runs every live checker over `trace` and collects all violations.
#[must_use]
pub fn check_trace(trace: &[LiveEvent]) -> Vec<Violation> {
    all_live_checkers()
        .iter()
        .flat_map(|c| c.check(trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(m: &str) -> LiveEvent {
        LiveEvent::JoinStarted { member: m.into() }
    }
    fn welcomed(m: &str, epoch: u64) -> LiveEvent {
        LiveEvent::Welcomed {
            member: m.into(),
            epoch,
        }
    }
    fn admin_send(p: &[u8], to: &[&str]) -> LiveEvent {
        LiveEvent::AdminSend {
            payload: p.to_vec(),
            recipients: to.iter().map(|s| (*s).into()).collect(),
        }
    }
    fn admin_dlv(m: &str, p: &[u8]) -> LiveEvent {
        LiveEvent::AdminDeliver {
            member: m.into(),
            payload: p.to_vec(),
        }
    }
    fn data_send(epoch: u64, seq: u64, p: &[u8], to: &[&str]) -> LiveEvent {
        LiveEvent::DataSend {
            epoch,
            seq,
            payload: p.to_vec(),
            recipients: to.iter().map(|s| (*s).into()).collect(),
        }
    }
    fn data_dlv(m: &str, epoch: u64, seq: u64, p: &[u8]) -> LiveEvent {
        LiveEvent::DataDeliver {
            member: m.into(),
            epoch,
            seq,
            payload: p.to_vec(),
        }
    }

    #[test]
    fn clean_trace_passes() {
        let trace = vec![
            join("alice"),
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            welcomed("alice", 1),
            admin_send(b"one", &["alice"]),
            admin_dlv("alice", b"one"),
            admin_send(b"two", &["alice"]),
            admin_dlv("alice", b"two"),
            data_send(1, 1, b"dp", &["alice"]),
            data_dlv("alice", 1, 1, b"dp"),
            LiveEvent::LeaderRekeyed { epoch: 2 },
            LiveEvent::KeyChanged {
                member: "alice".into(),
                epoch: 2,
            },
            data_send(2, 1, b"probe", &["alice"]),
            data_dlv("alice", 2, 1, b"probe"),
            LiveEvent::Final {
                leader_epoch: Some(2),
                members: vec![("alice".into(), Some(2))],
            },
        ];
        let violations = check_trace(&trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn duplicate_admin_delivery_is_caught_by_the_model_property() {
        let trace = vec![
            admin_send(b"one", &["alice"]),
            admin_dlv("alice", b"one"),
            admin_dlv("alice", b"one"),
        ];
        let violations = AdminPrefixChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].index, 2);
    }

    #[test]
    fn reordered_admin_delivery_is_caught() {
        let trace = vec![
            admin_send(b"one", &["alice"]),
            admin_send(b"two", &["alice"]),
            admin_dlv("alice", b"two"),
        ];
        assert_eq!(AdminPrefixChecker.check(&trace).len(), 1);
    }

    #[test]
    fn forged_admin_delivery_is_caught() {
        let trace = vec![admin_dlv("alice", b"never sent")];
        assert_eq!(AdminPrefixChecker.check(&trace).len(), 1);
    }

    #[test]
    fn per_member_segments_reset_on_rejoin() {
        let trace = vec![
            join("alice"),
            admin_send(b"one", &["alice"]),
            // alice crashes without delivering; undelivered history must
            // not poison the next session.
            join("alice"),
            admin_send(b"two", &["alice"]),
            admin_dlv("alice", b"two"),
        ];
        assert!(AdminPrefixChecker.check(&trace).is_empty());
    }

    #[test]
    fn other_members_traffic_is_not_confused() {
        let trace = vec![
            admin_send(b"one", &["alice", "bob"]),
            admin_send(b"two", &["alice", "bob"]),
            admin_dlv("bob", b"one"),
            admin_dlv("alice", b"one"),
            admin_dlv("alice", b"two"),
        ];
        assert!(AdminPrefixChecker.check(&trace).is_empty());
    }

    #[test]
    fn duplicate_data_delivery_is_caught() {
        let trace = vec![
            data_send(1, 1, b"x", &["alice"]),
            data_dlv("alice", 1, 1, b"x"),
            data_dlv("alice", 1, 1, b"x"),
        ];
        let violations = BroadcastUniquenessChecker.check(&trace);
        assert!(
            violations.iter().any(|v| v.detail.contains("twice")),
            "{violations:?}"
        );
    }

    #[test]
    fn watermark_rollback_is_caught() {
        let trace = vec![
            data_send(1, 1, b"a", &["alice"]),
            data_send(1, 2, b"b", &["alice"]),
            data_dlv("alice", 1, 2, b"b"),
            data_dlv("alice", 1, 1, b"a"),
        ];
        let violations = BroadcastUniquenessChecker.check(&trace);
        assert!(
            violations.iter().any(|v| v.detail.contains("rollback")),
            "{violations:?}"
        );
    }

    #[test]
    fn forged_and_cross_epoch_data_delivery_is_caught() {
        let trace = vec![
            data_send(1, 1, b"x", &["alice"]),
            data_dlv("alice", 2, 1, b"x"), // epoch the leader never sealed
        ];
        assert!(!BroadcastUniquenessChecker.check(&trace).is_empty());
        let trace = vec![
            data_send(1, 1, b"x", &["alice"]),
            data_dlv("alice", 1, 1, b"y"), // payload mismatch
        ];
        assert!(!BroadcastUniquenessChecker.check(&trace).is_empty());
    }

    #[test]
    fn dropped_data_frames_are_legal() {
        let trace = vec![
            data_send(1, 1, b"a", &["alice"]),
            data_send(1, 2, b"b", &["alice"]),
            data_send(1, 3, b"c", &["alice"]),
            data_dlv("alice", 1, 1, b"a"),
            data_dlv("alice", 1, 3, b"c"), // seq 2 lost: fine
        ];
        assert!(BroadcastUniquenessChecker.check(&trace).is_empty());
    }

    #[test]
    fn epoch_regression_is_caught() {
        let trace = vec![
            welcomed("alice", 3),
            LiveEvent::KeyChanged {
                member: "alice".into(),
                epoch: 2,
            },
        ];
        assert!(!EpochMonotonicChecker.check(&trace).is_empty());
        let trace = vec![
            LiveEvent::LeaderRekeyed { epoch: 2 },
            LiveEvent::LeaderRekeyed { epoch: 2 },
        ];
        assert!(!EpochMonotonicChecker.check(&trace).is_empty());
    }

    #[test]
    fn double_close_is_caught() {
        let trace = vec![
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            LiveEvent::MemberClosed {
                member: "alice".into(),
            },
            LiveEvent::MemberClosed {
                member: "alice".into(),
            },
        ];
        let violations = CloseOnceChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        // A rejoin opens a fresh session with a fresh close budget.
        let trace = vec![
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            LiveEvent::MemberClosed {
                member: "alice".into(),
            },
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            LiveEvent::MemberClosed {
                member: "alice".into(),
            },
        ];
        assert!(CloseOnceChecker.check(&trace).is_empty());
    }

    fn evicted(m: &str) -> LiveEvent {
        LiveEvent::Evicted { member: m.into() }
    }
    fn crashed(m: &str) -> LiveEvent {
        LiveEvent::Crashed { member: m.into() }
    }

    #[test]
    fn eviction_counts_as_the_sessions_one_departure() {
        let trace = vec![
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            evicted("alice"),
            LiveEvent::MemberClosed {
                member: "alice".into(),
            },
        ];
        let violations = CloseOnceChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("twice"));
    }

    #[test]
    fn crashed_member_must_be_evicted_or_rewelcomed() {
        // Unhandled crash: violation.
        let trace = vec![
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            crashed("alice"),
        ];
        assert_eq!(EvictionLivenessChecker.check(&trace).len(), 1);
        // Eviction resolves it.
        let trace = vec![crashed("alice"), evicted("alice")];
        assert!(EvictionLivenessChecker.check(&trace).is_empty());
        // So does a re-welcome (healed and rejoined before the deadline).
        let trace = vec![crashed("alice"), welcomed("alice", 4)];
        assert!(EvictionLivenessChecker.check(&trace).is_empty());
        // Vacuous without fault markers.
        assert!(EvictionLivenessChecker.check(&[]).is_empty());
    }

    #[test]
    fn false_eviction_is_caught() {
        // No injected fault anywhere: the eviction is a false judgment.
        let trace = vec![
            LiveEvent::MemberJoined {
                member: "alice".into(),
            },
            evicted("alice"),
        ];
        let violations = NoFalseEvictionChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("false"));
        // A prior partition justifies it — and keeps justifying later
        // evictions of the same member (markers are global, heals do not
        // reset them: a deadline armed before the heal may fire after it).
        let trace = vec![
            LiveEvent::Partitioned {
                member: "alice".into(),
            },
            evicted("alice"),
            LiveEvent::Healed {
                member: "alice".into(),
            },
            evicted("alice"),
        ];
        assert!(NoFalseEvictionChecker.check(&trace).is_empty());
        // A fault on one member never justifies evicting another.
        let trace = vec![crashed("bob"), evicted("alice")];
        assert_eq!(NoFalseEvictionChecker.check(&trace).len(), 1);
    }

    #[test]
    fn post_eviction_rejoin_must_advance_the_epoch() {
        // Rejoin at the same epoch the member already held: violation.
        let trace = vec![welcomed("alice", 2), evicted("alice"), welcomed("alice", 2)];
        let violations = RejoinFreshEpochChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("fence"));
        // A strictly newer epoch passes.
        let trace = vec![welcomed("alice", 2), evicted("alice"), welcomed("alice", 3)];
        assert!(RejoinFreshEpochChecker.check(&trace).is_empty());
        // The high-water mark includes rotations inside the old session.
        let trace = vec![
            welcomed("alice", 2),
            LiveEvent::KeyChanged {
                member: "alice".into(),
                epoch: 5,
            },
            evicted("alice"),
            welcomed("alice", 4),
        ];
        assert_eq!(RejoinFreshEpochChecker.check(&trace).len(), 1);
        // A re-welcome without an eviction (voluntary leave + rejoin, no
        // rekey) is out of scope for this checker.
        let trace = vec![welcomed("alice", 2), join("alice"), welcomed("alice", 2)];
        assert!(RejoinFreshEpochChecker.check(&trace).is_empty());
    }

    #[test]
    fn final_epoch_disagreement_is_caught() {
        let trace = vec![LiveEvent::Final {
            leader_epoch: Some(3),
            members: vec![("alice".into(), Some(3)), ("bob".into(), Some(2))],
        }];
        let violations = FinalAgreementChecker.check(&trace);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("bob"));
    }

    #[test]
    fn unopened_probe_is_caught() {
        let trace = vec![
            data_send(1, 9, b"probe", &["alice", "bob"]),
            data_dlv("alice", 1, 9, b"probe"),
            LiveEvent::Final {
                leader_epoch: Some(1),
                members: vec![("alice".into(), Some(1)), ("bob".into(), Some(1))],
            },
        ];
        let violations = FinalAgreementChecker.check(&trace);
        assert!(
            violations.iter().any(|v| v.detail.contains("bob")),
            "{violations:?}"
        );
    }

    #[test]
    fn roster_disagreement_at_rest_is_caught() {
        let trace = vec![
            data_send(1, 9, b"probe", &["alice"]),
            data_dlv("alice", 1, 9, b"probe"),
            LiveEvent::Final {
                leader_epoch: Some(1),
                members: vec![("alice".into(), Some(1)), ("ghost".into(), Some(1))],
            },
        ];
        let violations = FinalAgreementChecker.check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.detail.contains("roster disagreement")),
            "{violations:?}"
        );
    }
}
