//! Bridge from the observability event stream to the §5.4 live oracle
//! and the exhaustive model.
//!
//! Two mappings live here:
//!
//! * [`obs_trace`] projects a [`ProtocolEvent`] stream onto the
//!   [`LiveEvent`] vocabulary [`crate::live::check_trace`] reads. The
//!   stream is the oracle's one source of protocol events: the chaos
//!   driver adds only what the product cannot know (its fault markers
//!   and the end-of-run `Final` snapshot), merged in at the stream
//!   positions it stamped them with.
//! * [`model_event_kind`] names, for every honest move of the exhaustive
//!   `enclaves-model` state machines, the [`EventKind`] variant the
//!   implementation must emit when it performs the corresponding
//!   transition. A conformance test drives `enclaves-model::explore`
//!   and asserts the mapping is total over honest moves and injective —
//!   no silent transitions, no two moves collapsed onto one event.

use crate::live::LiveEvent;
use enclaves_model::leader::LeaderMove;
use enclaves_model::system::GlobalMove;
use enclaves_model::user::UserMove;
use enclaves_obs::{EventKind, ProtocolEvent};

/// Projects an observability stream onto the live-oracle vocabulary,
/// one [`live_event`] per stream event.
///
/// The result has no fault markers and no [`LiveEvent::Final`] snapshot
/// — only the driver knows that ground truth, so merge its markers in
/// before handing the projection to [`crate::live::check_trace`].
#[must_use]
pub fn obs_trace(events: &[ProtocolEvent]) -> Vec<LiveEvent> {
    events.iter().filter_map(live_event).collect()
}

/// The live-oracle event one stream event projects to.
///
/// Operational events with no live-trace counterpart (`AuthAccepted`,
/// `SessionEstablished`, `AdminAcked`, `CloseRequested`, `LeaderLost`,
/// `Retransmit`, `SealBatch`) project to `None`. `Expelled` and
/// `MemberClosed` both project to [`LiveEvent::MemberClosed`] (the
/// oracle cares that the leader observed the departure, not who asked
/// for it); `Evicted` stays [`LiveEvent::Evicted`], which the close-once
/// checker counts as the session's departure and the eviction checkers
/// hold against the driver's fault markers.
#[must_use]
pub fn live_event(event: &ProtocolEvent) -> Option<LiveEvent> {
    match &event.kind {
        EventKind::JoinStarted { member } => Some(LiveEvent::JoinStarted {
            member: member.clone(),
        }),
        EventKind::Welcomed { member, epoch } => Some(LiveEvent::Welcomed {
            member: member.clone(),
            epoch: *epoch,
        }),
        EventKind::KeyChanged { member, epoch } => Some(LiveEvent::KeyChanged {
            member: member.clone(),
            epoch: *epoch,
        }),
        EventKind::Rekeyed { epoch } => Some(LiveEvent::LeaderRekeyed { epoch: *epoch }),
        EventKind::AdminSend {
            payload,
            recipients,
        } => Some(LiveEvent::AdminSend {
            payload: payload.clone(),
            recipients: recipients.clone(),
        }),
        EventKind::AdminDeliver { member, payload } => Some(LiveEvent::AdminDeliver {
            member: member.clone(),
            payload: payload.clone(),
        }),
        EventKind::DataSend {
            epoch,
            seq,
            payload,
            recipients,
        } => Some(LiveEvent::DataSend {
            epoch: *epoch,
            seq: *seq,
            payload: payload.clone(),
            recipients: recipients.clone(),
        }),
        EventKind::DataDeliver {
            member,
            epoch,
            seq,
            payload,
        } => Some(LiveEvent::DataDeliver {
            member: member.clone(),
            epoch: *epoch,
            seq: *seq,
            payload: payload.clone(),
        }),
        EventKind::MemberJoined { member, .. } => Some(LiveEvent::MemberJoined {
            member: member.clone(),
        }),
        EventKind::MemberClosed { member } | EventKind::Expelled { member } => {
            Some(LiveEvent::MemberClosed {
                member: member.clone(),
            })
        }
        EventKind::Evicted { member } => Some(LiveEvent::Evicted {
            member: member.clone(),
        }),
        EventKind::AuthAccepted { .. }
        | EventKind::SessionEstablished { .. }
        | EventKind::AdminAcked { .. }
        | EventKind::CloseRequested { .. }
        | EventKind::LeaderLost { .. }
        | EventKind::Retransmit { .. }
        | EventKind::SealBatch { .. } => None,
    }
}

/// The [`EventKind`] variant name the implementation must emit when it
/// performs the transition `mv` of the exhaustive model.
///
/// Honest moves (user and leader) each map to exactly one variant;
/// intruder injections are not observable protocol progress and map to
/// `None`. The names are [`EventKind::name`] values, so a conformance
/// test can compare against a recorded stream without constructing
/// payload-accurate events.
#[must_use]
pub fn model_event_kind(mv: &GlobalMove) -> Option<&'static str> {
    match mv {
        GlobalMove::User(user) => Some(match user {
            UserMove::StartAuth => "JoinStarted",
            UserMove::AcceptKeyDist { .. } => "SessionEstablished",
            UserMove::AcceptAdmin { .. } => "AdminDeliver",
            UserMove::Close => "CloseRequested",
        }),
        GlobalMove::Leader(_, leader) => Some(match leader {
            LeaderMove::AcceptAuthInit { .. } => "AuthAccepted",
            LeaderMove::AcceptKeyAck { .. } => "MemberJoined",
            LeaderMove::SendAdmin { .. } => "AdminSend",
            LeaderMove::AcceptAck { .. } => "AdminAcked",
            LeaderMove::AcceptClose => "MemberClosed",
        }),
        GlobalMove::Intruder(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclaves_obs::EventStream;

    fn sample_stream() -> Vec<ProtocolEvent> {
        let stream = EventStream::new();
        stream.emit(EventKind::JoinStarted { member: "a".into() });
        stream.emit(EventKind::AuthAccepted { member: "a".into() });
        stream.emit(EventKind::SessionEstablished { member: "a".into() });
        stream.emit(EventKind::MemberJoined {
            member: "a".into(),
            epoch: 1,
        });
        stream.emit(EventKind::Rekeyed { epoch: 1 });
        stream.emit(EventKind::Welcomed {
            member: "a".into(),
            epoch: 1,
        });
        stream.emit(EventKind::DataSend {
            epoch: 1,
            seq: 0,
            payload: b"x".to_vec(),
            recipients: vec!["a".into()],
        });
        stream.emit(EventKind::DataDeliver {
            member: "a".into(),
            epoch: 1,
            seq: 0,
            payload: b"x".to_vec(),
        });
        stream.emit(EventKind::Retransmit {
            actor: "leader".into(),
            frames: 2,
        });
        stream.emit(EventKind::Expelled { member: "a".into() });
        stream.events()
    }

    #[test]
    fn projection_keeps_live_vocabulary_and_order() {
        let projected = obs_trace(&sample_stream());
        assert_eq!(
            projected,
            vec![
                LiveEvent::JoinStarted { member: "a".into() },
                LiveEvent::MemberJoined { member: "a".into() },
                LiveEvent::LeaderRekeyed { epoch: 1 },
                LiveEvent::Welcomed {
                    member: "a".into(),
                    epoch: 1
                },
                LiveEvent::DataSend {
                    epoch: 1,
                    seq: 0,
                    payload: b"x".to_vec(),
                    recipients: vec!["a".into()]
                },
                LiveEvent::DataDeliver {
                    member: "a".into(),
                    epoch: 1,
                    seq: 0,
                    payload: b"x".to_vec()
                },
                LiveEvent::MemberClosed { member: "a".into() },
            ]
        );
    }

    #[test]
    fn projected_honest_run_passes_the_live_oracle() {
        // Same honest run, minus the expel: "a" is still connected at the
        // end, so the Final snapshot must list it (the agreement checker
        // compares the last probe's recipients against that roster).
        let events = sample_stream();
        let honest: Vec<ProtocolEvent> = events
            .into_iter()
            .filter(|e| !matches!(e.kind, EventKind::Expelled { .. }))
            .collect();
        let mut trace = obs_trace(&honest);
        trace.push(LiveEvent::Final {
            leader_epoch: Some(1),
            members: vec![("a".into(), Some(1))],
        });
        let violations = crate::live::check_trace(&trace);
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn departures_project_to_member_closed_and_evictions_stay_evictions() {
        let stream = EventStream::new();
        stream.emit(EventKind::MemberClosed { member: "a".into() });
        stream.emit(EventKind::Expelled { member: "b".into() });
        stream.emit(EventKind::Evicted { member: "c".into() });
        stream.emit(EventKind::LeaderLost { member: "c".into() });
        let projected = obs_trace(&stream.events());
        assert_eq!(
            projected,
            vec![
                LiveEvent::MemberClosed { member: "a".into() },
                LiveEvent::MemberClosed { member: "b".into() },
                LiveEvent::Evicted { member: "c".into() },
            ]
        );
    }
}
