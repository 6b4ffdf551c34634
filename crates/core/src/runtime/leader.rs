//! The threaded single-group leader runtime.
//!
//! A constructor, not a second API: [`LeaderRuntime::spawn`] starts a
//! [`LeaderService`] hosting exactly one group, and the runtime derefs to
//! that group's [`GroupHandle`] for every operation. All the machinery —
//! acceptor, shared liveness ticker, routing by group tag — lives in
//! [`super::service`], so every test driving a `LeaderRuntime` exercises
//! the same code paths a thousand-group service runs.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::runtime::service::{GroupHandle, LeaderService, ServiceConfig};
use enclaves_net::Listener;
use enclaves_wire::ActorId;

/// A running single-group leader: a [`LeaderService`] hosting one group,
/// operated through its [`GroupHandle`].
pub struct LeaderRuntime {
    service: LeaderService,
    handle: GroupHandle,
}

impl std::fmt::Debug for LeaderRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderRuntime").finish_non_exhaustive()
    }
}

impl std::ops::Deref for LeaderRuntime {
    type Target = GroupHandle;

    fn deref(&self) -> &GroupHandle {
        &self.handle
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
            },
        );
        let handle = service
            .add_group(leader_id, directory, config)
            .expect("fresh service has no registered group");
        LeaderRuntime { service, handle }
    }

    /// Stops the acceptor, ticker, and handler threads.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}
