//! Leader configuration: rekey policy, limits, and liveness.

use crate::liveness::LivenessConfig;
use enclaves_wire::GroupId;

/// When the leader generates and distributes a new group key (Section 2.1:
//  "new keys can be generated when new members join, when members leave, or
//  on a periodic basis").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RekeyPolicy {
    /// Never rekey automatically (manual only).
    Manual,
    /// Rekey whenever a member joins.
    OnJoin,
    /// Rekey whenever a member leaves.
    OnLeave,
    /// Rekey on every membership change.
    OnJoinAndLeave,
    /// Rekey after every `n` relayed group-data messages.
    EveryNMessages(u32),
}

impl RekeyPolicy {
    /// Whether a join triggers a rekey.
    #[must_use]
    pub fn rekey_on_join(self) -> bool {
        matches!(self, RekeyPolicy::OnJoin | RekeyPolicy::OnJoinAndLeave)
    }

    /// Whether a leave triggers a rekey.
    #[must_use]
    pub fn rekey_on_leave(self) -> bool {
        matches!(self, RekeyPolicy::OnLeave | RekeyPolicy::OnJoinAndLeave)
    }

    /// Whether having relayed `count` messages since the last rekey
    /// triggers one.
    #[must_use]
    pub fn rekey_on_traffic(self, count: u32) -> bool {
        matches!(self, RekeyPolicy::EveryNMessages(n) if n > 0 && count >= n)
    }
}

/// Leader configuration: the per-group protocol policy. The clock and
/// poll cadence are service-wide, in
/// [`crate::runtime::ServiceConfig`].
#[derive(Clone, Debug)]
pub struct LeaderConfig {
    /// Rekey policy.
    pub rekey_policy: RekeyPolicy,
    /// Maximum number of concurrently connected members.
    pub max_members: usize,
    /// Maximum queued admin payloads per member: past it, the oldest
    /// queued payload is dropped and counted in `leader.admin_dropped` (a
    /// slow member must not exhaust leader memory).
    pub max_pending_admin: usize,
    /// Whether join/leave notices (`MemberJoined` / `MemberLeft`) are sent
    /// to the rest of the group over the admin channel. Production groups
    /// keep this on; very large benchmark groups turn it off to avoid the
    /// O(N²) admin storm while the roster is being built. Key material
    /// (`NewGroupKey`) is always distributed regardless of this flag.
    pub membership_notices: bool,
    /// Timing and failure-detection policy: retransmit backoff, ARQ
    /// budget, heartbeat deadlines. The default reproduces the historical
    /// flat 400ms retry-forever cadence with no failure detection.
    pub liveness: LivenessConfig,
    /// Distribute group keys through the MLS-style rekey tree instead of
    /// per-member `NewGroupKey` admin seals. In tree mode every membership
    /// change refreshes one leaf-to-root path and fans the copath seals
    /// out as a single `PathUpdate` broadcast — `O(log N)` AEAD seals per
    /// rekey instead of `O(N)` — and the join/leave bits of
    /// [`RekeyPolicy`] are moot because membership changes always rotate
    /// the epoch. Off by default: the flat fan-out remains the paper's
    /// literal Figure 3 behaviour.
    pub tree_rekey: bool,
    /// Enclave identifier when this leader is one group inside a
    /// multi-enclave service. When set, every outgoing envelope is tagged
    /// with the group id (and so AEAD-bound to it), and incoming envelopes
    /// tagged for a different enclave — or untagged — are rejected before
    /// any protocol processing. `None` keeps the single-group legacy wire
    /// format.
    pub group: Option<GroupId>,
}

impl Default for LeaderConfig {
    /// Rekey on join and leave (the conservative policy), up to 1024
    /// members, 256 queued admin messages per member, historical timing.
    fn default() -> Self {
        LeaderConfig {
            rekey_policy: RekeyPolicy::OnJoinAndLeave,
            max_members: 1024,
            max_pending_admin: 256,
            membership_notices: true,
            liveness: LivenessConfig::default(),
            tree_rekey: false,
            group: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_triggers() {
        assert!(RekeyPolicy::OnJoin.rekey_on_join());
        assert!(!RekeyPolicy::OnJoin.rekey_on_leave());
        assert!(RekeyPolicy::OnLeave.rekey_on_leave());
        assert!(!RekeyPolicy::OnLeave.rekey_on_join());
        assert!(RekeyPolicy::OnJoinAndLeave.rekey_on_join());
        assert!(RekeyPolicy::OnJoinAndLeave.rekey_on_leave());
        assert!(!RekeyPolicy::Manual.rekey_on_join());
        assert!(!RekeyPolicy::Manual.rekey_on_leave());
    }

    #[test]
    fn traffic_policy() {
        assert!(RekeyPolicy::EveryNMessages(3).rekey_on_traffic(3));
        assert!(RekeyPolicy::EveryNMessages(3).rekey_on_traffic(4));
        assert!(!RekeyPolicy::EveryNMessages(3).rekey_on_traffic(2));
        assert!(!RekeyPolicy::EveryNMessages(0).rekey_on_traffic(100));
        assert!(!RekeyPolicy::Manual.rekey_on_traffic(100));
    }

    #[test]
    fn default_config_is_conservative() {
        let c = LeaderConfig::default();
        assert_eq!(c.rekey_policy, RekeyPolicy::OnJoinAndLeave);
        assert!(c.max_members >= 2);
        assert!(c.max_pending_admin >= 1);
        assert!(c.membership_notices, "notices are on unless opted out");
        assert_eq!(
            c.liveness,
            LivenessConfig::default(),
            "default timing is the historical cadence"
        );
        assert!(!c.tree_rekey, "flat fan-out unless opted in");
        assert!(c.group.is_none(), "single-group legacy wire by default");
    }
}
