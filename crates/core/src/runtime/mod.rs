//! Threaded runtimes binding the sans-I/O protocol cores to any
//! `enclaves-net` transport.
//!
//! * [`LeaderService`] — the multi-enclave leader service: one acceptor,
//!   one shared liveness ticker, and a registry of per-group
//!   [`crate::protocol::LeaderCore`]s keyed by enclave tag. Incoming
//!   frames demultiplex by the envelope's group tag; each group is
//!   operated through its [`GroupHandle`]. Outgoing envelopes are routed
//!   to the link currently bound to their recipient; links become bound
//!   to an identity only after the improved protocol authenticates it.
//! * [`LeaderRuntime`] — a constructor for a [`LeaderService`] hosting
//!   exactly one group; it derefs to that group's [`GroupHandle`].
//! * [`MemberRuntime`] — a receive loop thread around a
//!   [`crate::protocol::MemberSession`], exposing an event channel and
//!   blocking convenience waiters.
//!
//! All runtimes drop (and count) rejected traffic instead of dying — the
//! operational face of intrusion tolerance.

mod leader;
mod member;
mod service;

pub use leader::LeaderRuntime;
pub use member::{MemberOptions, MemberRuntime, Reconnector};
pub use service::{
    BroadcastReceipt, FailedGroup, GroupHandle, LeaderService, RecoveredGroup, RecoveryReport,
    ServiceConfig,
};

use crossbeam_channel::Receiver;
use std::time::{Duration, Instant};

/// Waits for an event matching `pred` on `rx`, with a deadline.
///
/// # Errors
///
/// Returns `Err(())` if the deadline passes or the channel closes.
pub(crate) fn wait_for<T>(
    rx: &Receiver<T>,
    timeout: Duration,
    mut pred: impl FnMut(&T) -> bool,
) -> Result<T, ()> {
    let deadline = Instant::now() + timeout;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(());
        }
        match rx.recv_timeout(deadline - now) {
            Ok(event) if pred(&event) => return Ok(event),
            Ok(_) => continue,
            Err(_) => return Err(()),
        }
    }
}
