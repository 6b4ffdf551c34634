//! Transport abstraction: the member's dialer and the leader's front end.
//!
//! Enclaves uses a star topology (Figure 1): every member holds one
//! point-to-point link to the leader. Both ends see a connection as the
//! readiness loop presents it: its [`MuxEvent`]s (frames, then one
//! `Closed`) on a channel, and sends by connection token. A [`Dialer`]
//! opens a member's connections onto a caller's channel; a [`Listener`]
//! is every connection made to the leader, on shard channels. The
//! simulator ([`crate::sim`]) and the readiness loop ([`crate::mux`])
//! implement both. A [`Link`] is one dialled connection on a private
//! channel, for code that holds a single connection (tests, raw-frame
//! attacks).

use crate::{MuxEvent, MuxToken, NetError};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A frame on the wire: shared, immutable bytes.
///
/// Frames are reference-counted so a broadcast can hand the *same* encoded
/// frame to N links (and the simulator's adversary tap, duplicator, and
/// hold-back queue) without one deep copy per recipient.
pub type Frame = Arc<[u8]>;

/// The member-side front end: opens connections to one leader. A
/// connection's frames, then one [`MuxEvent::Closed`] once it is gone,
/// arrive on the channel it was dialled onto. Sends are by token and, as
/// on any insecure transport, guaranteed nothing.
pub trait Dialer: Send + Sync {
    /// Opens a connection whose events are delivered on `events`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] or [`NetError::UnknownPeer`] if the leader cannot
    /// be reached, [`NetError::Disconnected`] if the transport has shut
    /// down.
    fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError>;

    /// Sends one frame on connection `token`.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the transport has shut down.
    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError>;

    /// Closes connection `token` once the frames already sent on it have
    /// left; its `Closed` follows on its channel.
    fn close(&self, token: MuxToken);
}

/// One dialled connection on a private channel; dropping it closes the
/// connection.
pub struct Link {
    dialer: Arc<dyn Dialer>,
    token: MuxToken,
    incoming: Receiver<MuxEvent>,
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link").field("token", &self.token).finish()
    }
}

impl Link {
    /// Dials one connection through `dialer`.
    ///
    /// # Errors
    ///
    /// Whatever [`Dialer::dial`] returns.
    pub fn dial(dialer: Arc<dyn Dialer>) -> Result<Link, NetError> {
        let (tx, incoming) = unbounded();
        let token = dialer.dial(&tx)?;
        Ok(Link {
            dialer,
            token,
            incoming,
        })
    }

    /// The connection's token (on the simulator, the connection index the
    /// adversary and the partition/kill calls use).
    #[must_use]
    pub fn token(&self) -> MuxToken {
        self.token
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the transport has shut down.
    pub fn send(&self, frame: Frame) -> Result<(), NetError> {
        self.dialer.send_to(self.token, frame)
    }

    /// Receives one frame, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing arrived, [`NetError::Disconnected`]
    /// once the connection is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
        match self.incoming.recv_timeout(timeout) {
            Ok(MuxEvent::Frame { frame, .. }) => Ok(frame),
            // The transport drops the channel's sender with the `Closed`,
            // so every later call lands on `Disconnected` too.
            Ok(MuxEvent::Closed { .. } | MuxEvent::Accepted { .. })
            | Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.dialer.close(self.token);
    }
}

/// The leader-side front end: every connection made to one listening
/// name or address.
///
/// Each connection's events arrive on one shard, in order: `Accepted`,
/// its frames, then at most one `Closed`. Outbound frames are addressed
/// by the connection's token and, like a [`Dialer`]'s, guaranteed nothing:
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
