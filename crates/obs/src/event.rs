//! The structured protocol event stream.
//!
//! One [`EventStream`] is shared by every instrumented component of a run
//! (leader core, member sessions, runtimes): events are appended under a
//! single lock, so the stream order is a real happened-before order for
//! the emitting call sites — a delivery can never precede the send that
//! caused it, because sends are emitted while the sender still holds its
//! state lock, before any frame reaches a wire.
//!
//! The §5.4 oracle (`enclaves-verify::live`) reads this vocabulary as it
//! is: there is no second trace format to keep in step with it. A chaos
//! driver adds only what the product cannot know, the faults it injected
//! and its end-of-run snapshot, each stamped with the stream's
//! [`EventStream::len`] at the moment it was recorded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What happened, in protocol vocabulary.
///
/// Actor names are plain strings and payloads plain bytes, keeping the
/// stream transport- and wire-format-free: any harness, over any
/// transport, can check a run from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A member (re)started its authentication handshake.
    JoinStarted {
        /// Member name.
        member: String,
    },
    /// The leader accepted a member's `AuthInitReq` and sent the session
    /// key.
    AuthAccepted {
        /// Member name.
        member: String,
    },
    /// The member accepted the session key and acknowledged it.
    SessionEstablished {
        /// Member name.
        member: String,
    },
    /// The leader committed the member into the group.
    MemberJoined {
        /// Member name.
        member: String,
        /// Group-key epoch at (or created by) the join.
        epoch: u64,
    },
    /// The member accepted the welcome (roster + group key).
    Welcomed {
        /// Member name.
        member: String,
        /// Group-key epoch installed.
        epoch: u64,
    },
    /// The leader rotated the group key.
    Rekeyed {
        /// The new epoch.
        epoch: u64,
    },
    /// A member installed a rotated group key.
    KeyChanged {
        /// Member name.
        member: String,
        /// The new epoch.
        epoch: u64,
    },
    /// The leader sent an admin-channel application broadcast.
    AdminSend {
        /// Application payload.
        payload: Vec<u8>,
        /// The exact roster addressed, captured under the core lock.
        recipients: Vec<String>,
    },
    /// A member accepted an admin-channel application payload.
    AdminDeliver {
        /// Member name.
        member: String,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// The leader accepted a member's stop-and-wait admin acknowledgment.
    AdminAcked {
        /// Member name.
        member: String,
    },
    /// The leader sealed a data-plane broadcast into `(epoch, seq)`.
    DataSend {
        /// Group-key epoch sealed under.
        epoch: u64,
        /// Broadcast sequence number within the epoch.
        seq: u64,
        /// Application payload.
        payload: Vec<u8>,
        /// The exact roster addressed.
        recipients: Vec<String>,
    },
    /// A member opened a data-plane broadcast.
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
    /// A member initiated a voluntary close.
    CloseRequested {
        /// Member name.
        member: String,
    },
    /// The leader observed the member depart (close accepted).
    MemberClosed {
        /// Member name.
        member: String,
    },
    /// The leader expelled the member.
    Expelled {
        /// Member name.
        member: String,
    },
    /// The liveness layer evicted the member (ARQ budget exhausted or
    /// heartbeat deadline missed) — the timeout-driven `Oops(Ka)` path.
    Evicted {
        /// Member name.
        member: String,
    },
    /// A member's runtime presumed its leader dead (heartbeat silence or
    /// repeated send failures).
    LeaderLost {
        /// Member name.
        member: String,
    },
    /// An ARQ layer re-sent in-flight frames.
    Retransmit {
        /// Who retransmitted (leader or member name).
        actor: String,
        /// How many frames went out.
        frames: u64,
    },
    /// The admin frames one leader operation sealed (a join, departure,
    /// rekey, admin broadcast or ack-drain), as one batch.
    SealBatch {
        /// Frames sealed in the batch.
        frames: u64,
        /// Wall-clock nanoseconds the sealing took.
        elapsed_ns: u64,
    },
}

impl EventKind {
    /// The variant name, stable across releases (used by the
    /// model-to-event conformance contract).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JoinStarted { .. } => "JoinStarted",
            EventKind::AuthAccepted { .. } => "AuthAccepted",
            EventKind::SessionEstablished { .. } => "SessionEstablished",
            EventKind::MemberJoined { .. } => "MemberJoined",
            EventKind::Welcomed { .. } => "Welcomed",
            EventKind::Rekeyed { .. } => "Rekeyed",
            EventKind::KeyChanged { .. } => "KeyChanged",
            EventKind::AdminSend { .. } => "AdminSend",
            EventKind::AdminDeliver { .. } => "AdminDeliver",
            EventKind::AdminAcked { .. } => "AdminAcked",
            EventKind::DataSend { .. } => "DataSend",
            EventKind::DataDeliver { .. } => "DataDeliver",
            EventKind::CloseRequested { .. } => "CloseRequested",
            EventKind::MemberClosed { .. } => "MemberClosed",
            EventKind::Expelled { .. } => "Expelled",
            EventKind::Evicted { .. } => "Evicted",
            EventKind::LeaderLost { .. } => "LeaderLost",
            EventKind::Retransmit { .. } => "Retransmit",
            EventKind::SealBatch { .. } => "SealBatch",
        }
    }
}

/// One timestamped, sequenced protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolEvent {
    /// Monotonic nanoseconds since the stream was created.
    pub at_ns: u64,
    /// Position in the stream (0-based, gap-free).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

struct StreamInner {
    start: Instant,
    seq: AtomicU64,
    buf: Mutex<Vec<ProtocolEvent>>,
}

/// A shared, ordered buffer of [`ProtocolEvent`]s.
///
/// Clones share the buffer. Emission locks the buffer briefly; components
/// hold an `Option<EventStream>` and skip the whole call when detached,
/// so an uninstrumented run pays one branch per would-be event.
#[derive(Clone)]
pub struct EventStream {
    inner: Arc<StreamInner>,
}

impl Default for EventStream {
    fn default() -> Self {
        EventStream::new()
    }
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("len", &self.len())
            .finish()
    }
}

impl EventStream {
    /// Creates an empty stream; timestamps count from now.
    #[must_use]
    pub fn new() -> Self {
        EventStream {
            inner: Arc::new(StreamInner {
                start: Instant::now(),
                seq: AtomicU64::new(0),
                buf: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Monotonic nanoseconds since the stream was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends one event, stamping it with the stream clock and the next
    /// sequence number. The stamp is taken under the buffer lock, so
    /// sequence order, timestamp order, and buffer order all agree.
    pub fn emit(&self, kind: EventKind) {
        let mut buf = self.inner.buf.lock().expect("event stream lock");
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        buf.push(ProtocolEvent {
            at_ns: self.now_ns(),
            seq,
            kind,
        });
    }

    /// Number of events emitted so far, which is also the `seq` the next
    /// event will get: events are never removed, so a record stamped with
    /// `len()` precedes exactly the events whose `seq` is at least the
    /// stamp.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.buf.lock().expect("event stream lock").len()
    }

    /// Whether the stream holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every buffered event.
    #[must_use]
    pub fn events(&self) -> Vec<ProtocolEvent> {
        self.inner.buf.lock().expect("event stream lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_sequenced_and_monotonic() {
        let stream = EventStream::new();
        for i in 0..5 {
            stream.emit(EventKind::Rekeyed { epoch: i });
        }
        let events = stream.events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // The length is the next event's `seq`.
        let stamp = stream.len() as u64;
        stream.emit(EventKind::Rekeyed { epoch: 5 });
        assert_eq!(stream.events().last().map(|e| e.seq), Some(stamp));
    }

    #[test]
    fn every_variant_has_a_distinct_name() {
        let kinds = [
            EventKind::JoinStarted { member: "a".into() },
            EventKind::AuthAccepted { member: "a".into() },
            EventKind::SessionEstablished { member: "a".into() },
            EventKind::MemberJoined {
                member: "a".into(),
                epoch: 0,
            },
            EventKind::Welcomed {
                member: "a".into(),
                epoch: 0,
            },
            EventKind::Rekeyed { epoch: 0 },
            EventKind::KeyChanged {
                member: "a".into(),
                epoch: 0,
            },
            EventKind::AdminSend {
                payload: vec![],
                recipients: vec![],
            },
            EventKind::AdminDeliver {
                member: "a".into(),
                payload: vec![],
            },
            EventKind::AdminAcked { member: "a".into() },
            EventKind::DataSend {
                epoch: 0,
                seq: 0,
                payload: vec![],
                recipients: vec![],
            },
            EventKind::DataDeliver {
                member: "a".into(),
                epoch: 0,
                seq: 0,
                payload: vec![],
            },
            EventKind::CloseRequested { member: "a".into() },
            EventKind::MemberClosed { member: "a".into() },
            EventKind::Expelled { member: "a".into() },
            EventKind::Evicted { member: "a".into() },
            EventKind::LeaderLost { member: "a".into() },
            EventKind::Retransmit {
                actor: "a".into(),
                frames: 0,
            },
            EventKind::SealBatch {
                frames: 0,
                elapsed_ns: 0,
            },
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(EventKind::name).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
