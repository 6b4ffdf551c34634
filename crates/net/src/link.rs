//! Transport abstraction: duplex links and listeners.
//!
//! Enclaves uses a star topology (Figure 1): every member holds one
//! bidirectional point-to-point link to the leader. A [`Link`] is one end
//! of such a connection; a [`Listener`] is the leader-side acceptor. The
//! deterministic simulator ([`crate::sim`]) implements both; the
//! readiness-loop transport implements [`Link`] for its client side
//! ([`crate::MuxLink`]), so a member runtime is transport-agnostic. A
//! real-socket leader takes the loop's events instead of a [`Listener`].

use crate::NetError;
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

    /// A transport-level hint about who the peer is (e.g. the name used at
    /// connect time, or a TCP address). Untrusted — authentication happens
    /// in the protocol.
    fn peer_hint(&self) -> Option<String>;
}

/// A leader-side acceptor of new links.
pub trait Listener: Send {
    /// Accepts one new link, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if no connection arrived,
    /// [`NetError::AcceptFailed`] if the transport cannot accept.
    fn accept_timeout(&self, timeout: Duration) -> Result<Box<dyn Link>, NetError>;
}

impl Link for Box<dyn Link> {
    fn send(&self, frame: Frame) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
        (**self).recv_timeout(timeout)
    }

    fn peer_hint(&self) -> Option<String> {
        (**self).peer_hint()
    }
}
