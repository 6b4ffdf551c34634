//! The threaded single-group leader runtime.
//!
//! Since the multi-enclave refactor this is a thin facade: it spawns a
//! [`LeaderService`] hosting exactly one group and forwards every call to
//! that group's [`GroupHandle`]. All the machinery — acceptor, shared
//! liveness ticker, shared seal pool, group demux — lives in
//! [`super::service`], so every test driving a `LeaderRuntime` exercises
//! the same code paths a thousand-group service runs.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::protocol::LeaderEvent;
use crate::runtime::service::{GroupHandle, LeaderService, ServiceConfig};
use crate::CoreError;
use crossbeam_channel::Receiver;
use enclaves_net::Listener;
use enclaves_wire::{ActorId, Roster};
use std::time::Duration;

pub use crate::runtime::service::BroadcastReceipt;

/// A running single-group leader: a [`LeaderService`] hosting one group.
pub struct LeaderRuntime {
    service: LeaderService,
    handle: GroupHandle,
}

impl std::fmt::Debug for LeaderRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderRuntime").finish_non_exhaustive()
    }
}

impl LeaderRuntime {
    /// Spawns the leader on a listener. The group is registered under
    /// `config.group` (`None` keeps the legacy untagged wire format).
    #[must_use]
    pub fn spawn(
        listener: Box<dyn Listener>,
        leader_id: ActorId,
        directory: Directory,
        config: LeaderConfig,
    ) -> Self {
        let service = LeaderService::spawn(
            listener,
            ServiceConfig {
                clock: config.clock.clone(),
                poll: config.liveness.poll,
                seal_threads: None,
            },
        );
        let handle = service
            .add_group(leader_id, directory, config)
            .expect("fresh service has no registered group");
        LeaderRuntime { service, handle }
    }

    /// The leader's event stream.
    #[must_use]
    pub fn events(&self) -> &Receiver<LeaderEvent> {
        self.handle.events()
    }

    /// Current members.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.handle.roster()
    }

    /// Current group-key epoch.
    #[must_use]
    pub fn epoch(&self) -> Option<u64> {
        self.handle.epoch()
    }

    /// Leader statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> crate::protocol::LeaderStats {
        self.handle.stats()
    }

    /// The core's metric registry (`leader.*` names); snapshots taken from
    /// it see the live counters without taking the core lock again.
    #[must_use]
    pub fn obs_registry(&self) -> enclaves_obs::Registry {
        self.handle.obs_registry()
    }

    /// Attaches a protocol event stream to the core: every subsequent
    /// protocol action (join, rekey, broadcast, retransmit, seal commit)
    /// is emitted in happened-before order. Sends are emitted under the
    /// core lock, before their frames reach any link.
    pub fn attach_event_stream(&self, events: enclaves_obs::EventStream) {
        self.handle.attach_event_stream(events);
    }

    /// Rotates the group key now. The core lock is held only to stage the
    /// fan-out (nonce draws + slot bookkeeping) and to commit the sealed
    /// frames; the n AEAD seals run out of lock on the service's shared
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn rekey(&self) -> Result<(), CoreError> {
        self.handle.rekey()
    }

    /// Broadcasts application data over the authenticated admin channel,
    /// returning the exact roster the broadcast was addressed to (captured
    /// under the core lock, so a concurrent join/leave cannot blur it —
    /// the chaos oracle needs the precise recipient set). Seals run out of
    /// lock, like [`LeaderRuntime::rekey`].
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn broadcast(&self, data: &[u8]) -> Result<Roster, CoreError> {
        self.handle.broadcast(data)
    }

    /// Broadcasts application data over the single-seal group-key data
    /// plane: the payload is sealed once under the current group key and
    /// the identical refcounted frame is handed to every member's link.
    /// Returns a receipt identifying the frame's `(epoch, seq)` slot and
    /// its recipients.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors ([`CoreError::BadPhase`] if the group is
    /// empty).
    pub fn broadcast_data(&self, data: &[u8]) -> Result<BroadcastReceipt, CoreError> {
        self.handle.broadcast_data(data)
    }

    /// Whether every in-flight admin exchange has been acknowledged: no
    /// handshake half-open, no admin message awaiting its ack. Chaos runs
    /// poll this after healing the network to know when the retransmission
    /// layer has finished recovering.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.handle.quiesced()
    }

    /// Expels a member. The departure fan-out (notices, policy rekey)
    /// takes the same staged out-of-lock seal path as
    /// [`LeaderRuntime::rekey`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if not connected.
    pub fn expel(&self, user: &ActorId) -> Result<(), CoreError> {
        self.handle.expel(user)
    }

    /// Waits until `user` appears in the roster.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the deadline passes first.
    pub fn wait_member(&self, user: &ActorId, timeout: Duration) -> Result<(), CoreError> {
        self.handle.wait_member(user, timeout)
    }

    /// Stops the acceptor, ticker, seal-pool, and handler threads.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}
