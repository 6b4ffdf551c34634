//! Runtimes binding the sans-I/O protocol cores to an `enclaves-net`
//! transport, each on a fixed set of threads whatever its connection
//! count.
//!
//! * [`LeaderService`] — the leader: one front end and a registry of
//!   per-group [`crate::protocol::LeaderCore`]s keyed by enclave tag, on
//!   one service loop per shard, which also ticks the groups homed on it
//!   when their `next_deadline` comes due. Real sockets go through
//!   [`LeaderService::spawn_mux`] (the readiness loop); the simulator's
//!   listener through [`LeaderService::spawn`]; both run the same service
//!   loop. Either way a group is added with [`LeaderService::add_group`]
//!   and operated through its [`GroupHandle`], with the clock and poll
//!   cadence given once in [`ServiceConfig`]. Incoming frames demultiplex
//!   by the envelope's group tag. Outgoing envelopes are routed to the
//!   connection currently bound to their recipient; a connection becomes
//!   bound to an identity only after the improved protocol authenticates
//!   it.
//! * [`MemberHost`] — the member side: many
//!   [`crate::protocol::MemberSession`]s on one loop per shard, reaching
//!   the leader through an `enclaves-net` dialer. Each session is ticked
//!   when its `next_deadline` comes due, from one deadline heap per shard;
//!   the session's own `tick` and `rejoin` make every timing decision, and
//!   the host supplies the clock, the connections and the redial backoff.
//!   [`MemberRuntime`] is one member on a private one-shard host, with an
//!   event channel and blocking convenience waiters.
//!
//! All runtimes drop (and count) rejected traffic instead of dying — the
//! operational face of intrusion tolerance.

mod member;
mod service;

pub use member::{HostedMember, MemberHost, MemberOptions, MemberRuntime};
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
