//! Bridge from the exhaustive model to the observability event stream.
//!
//! [`model_event_kind`] names, for every honest move of the exhaustive
//! `enclaves-model` state machines, the
//! [`EventKind`](enclaves_obs::EventKind) variant the implementation must
//! emit when it performs the corresponding transition. A conformance test
//! drives `enclaves-model::explore` and asserts the mapping is total over
//! honest moves and injective — no silent transitions, no two moves
//! collapsed onto one event. The §5.4 live oracle ([`crate::live`]) reads
//! the same stream directly.

use enclaves_model::leader::LeaderMove;
use enclaves_model::system::GlobalMove;
use enclaves_model::user::UserMove;

/// The [`EventKind`](enclaves_obs::EventKind) variant name the
/// implementation must emit when it performs the transition `mv` of the
/// exhaustive model.
///
/// Honest moves (user and leader) each map to exactly one variant;
/// intruder injections are not observable protocol progress and map to
/// `None`. The names are [`EventKind::name`](enclaves_obs::EventKind::name)
/// values, so a conformance test can compare against a recorded stream
/// without constructing payload-accurate events.
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
