//! Transport abstraction: member links and the leader's front end.
//!
//! Enclaves uses a star topology (Figure 1): every member holds one
//! bidirectional point-to-point link to the leader. A [`Link`] is the
//! member's end of such a connection; a [`Listener`] is the leader's end
//! of all of them at once, as the readiness loop presents them: every
//! connection's [`MuxEvent`]s on a fixed set of shard channels, and
//! sends addressed by connection token. The deterministic simulator
//! ([`crate::sim`]) and the readiness-loop transport ([`crate::mux`])
//! implement both, so the member runtime and the leader service are
//! transport-agnostic.

use crate::{MuxEvent, MuxToken, NetError};
use crossbeam_channel::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// A frame on the wire: shared, immutable bytes.
///
/// Frames are reference-counted so a broadcast can hand the *same* encoded
/// frame to N links (and the simulator's adversary tap, duplicator, and
/// hold-back queue) without one deep copy per recipient.
pub type Frame = Arc<[u8]>;

/// One end of a duplex, frame-oriented, *insecure* connection.
///
/// Frames are opaque shared byte buffers; the transport guarantees nothing
/// about confidentiality, integrity, or even delivery — that is the
/// protocol layer's job.
pub trait Link: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone, [`NetError::Io`] on
    /// transport failure.
    fn send(&self, frame: Frame) -> Result<(), NetError>;

    /// Receives one frame, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing arrived, [`NetError::Disconnected`]
    /// if the peer is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError>;
}

/// The leader-side front end: every connection made to one listening
/// name or address.
///
/// Each connection's events arrive on one shard, in order: `Accepted`,
/// its frames, then at most one `Closed`. Outbound frames are addressed
/// by the connection's token and, like a [`Link`]'s, guaranteed nothing:
/// a frame to a closed connection is dropped.
pub trait Listener: Send + Sync {
    /// Takes the shard receivers (once; later calls return none). A
    /// consumer runs one thread per shard.
    fn take_shards(&mut self) -> Vec<Receiver<MuxEvent>>;

    /// Sends one frame to connection `token`.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the transport has shut down.
    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError>;

    /// Sends one shared frame to every connection in `tokens`, in list
    /// order.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the transport has shut down.
    fn multicast(&self, tokens: Vec<MuxToken>, frame: Frame) -> Result<(), NetError>;
}

impl Link for Box<dyn Link> {
    fn send(&self, frame: Frame) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
        (**self).recv_timeout(timeout)
    }
}
