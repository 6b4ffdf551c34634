//! Workload builders shared by the Criterion benches and the report
//! binary.
//!
//! Every experiment row in `EXPERIMENTS.md` maps to one function here plus
//! one bench target; the report binary (`cargo run -p enclaves-bench --bin
//! report`) regenerates the qualitative tables (verification results and
//! the attack matrix), while `cargo bench` regenerates the quantitative
//! series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::legacy::{LegacyLeaderCore, LegacyMemberSession};
use enclaves_core::protocol::{LeaderCore, MemberSession};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::SeededRng;
use enclaves_wire::message::Envelope;
use enclaves_wire::{ActorId, GroupId};
use std::time::Duration;

/// Builds an actor id `m<i>`.
///
/// # Panics
///
/// Never for reasonable `i` (the generated name is always valid).
#[must_use]
pub fn member_id(i: usize) -> ActorId {
    ActorId::new(format!("m{i}")).expect("valid id")
}

/// The leader id used by all workloads.
///
/// # Panics
///
/// Never (the name is statically valid).
#[must_use]
pub fn leader_id() -> ActorId {
    ActorId::new("leader").expect("valid id")
}

/// Deterministic long-term key for member `i`.
///
/// # Panics
///
/// Propagates key-derivation failure (cannot happen with valid inputs).
#[must_use]
pub fn member_key(i: usize) -> LongTermKey {
    LongTermKey::derive_from_password(&format!("pw-{i}"), &format!("m{i}")).expect("derive")
}

/// A fully joined improved-protocol world with `n` members.
pub struct ImprovedGroup {
    /// The leader core.
    pub leader: LeaderCore,
    /// Member sessions, index-aligned with [`member_id`].
    pub members: Vec<MemberSession>,
}

/// Routes all outgoing leader traffic until quiescent (used after
/// broadcast/rekey operations so stop-and-wait acks are drained).
pub fn settle(leader: &mut LeaderCore, members: &mut [MemberSession], outgoing: Vec<Envelope>) {
    let mut queue = outgoing;
    while let Some(env) = queue.pop() {
        if env.recipient == *leader.leader_id() {
            if let Ok(out) = leader.handle_at(&env, Duration::ZERO) {
                queue.extend(out.outgoing);
            }
        } else if let Some(idx) = index_of(&env.recipient) {
            if idx < members.len() {
                if let Ok(out) = members[idx].handle(&env) {
                    queue.extend(out.reply);
                }
            }
        }
    }
}

impl ImprovedGroup {
    /// Builds and fully joins an `n`-member group.
    ///
    /// # Panics
    ///
    /// Panics if the deterministic handshake fails (a bug, not an input
    /// condition).
    #[must_use]
    pub fn new(n: usize, policy: RekeyPolicy) -> Self {
        let mut directory = Directory::new();
        for i in 0..n {
            directory.register_key(&member_id(i), member_key(i));
        }
        let mut leader = LeaderCore::with_rng(
            leader_id(),
            directory,
            LeaderConfig {
                rekey_policy: policy,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(42)),
        );
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let (session, init) = MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id(),
                member_key(i),
                Box::new(SeededRng::from_seed(1000 + i as u64)),
                None,
            );
            members.push(session);
            pump(&mut leader, &mut members, init);
        }
        ImprovedGroup { leader, members }
    }

    /// Routes all outgoing leader traffic until quiescent (used after
    /// broadcast/rekey operations in benches).
    pub fn settle(&mut self, outgoing: Vec<Envelope>) {
        settle(&mut self.leader, &mut self.members, outgoing);
    }
}

/// Deterministic cheap long-term key for member `i` (no PBKDF2 — at
/// N=4096 password derivation would dominate world setup by orders of
/// magnitude).
#[must_use]
pub fn cheap_member_key(i: usize) -> LongTermKey {
    let mut bytes = [0x5Au8; 32];
    bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
    LongTermKey::from_bytes(bytes)
}

/// A fully joined improved-protocol world specialized for broadcast
/// fan-out experiments: cheap long-term keys, manual rekey policy, and
/// membership notices suppressed so building the roster costs O(N)
/// messages instead of the O(N²) join-notice storm.
pub struct FanoutGroup {
    /// The leader core.
    pub leader: LeaderCore,
    /// Member sessions, index-aligned with [`member_id`].
    pub members: Vec<MemberSession>,
}

impl FanoutGroup {
    /// Builds and fully joins an `n`-member group with the flat
    /// per-member rekey fan-out.
    ///
    /// # Panics
    ///
    /// Panics if the deterministic handshake fails (a bug, not an input
    /// condition).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::new_with(n, false)
    }

    /// Builds and fully joins an `n`-member group with the MLS-style
    /// rekey tree enabled (`O(log N)` copath seals per rekey). The
    /// `PathUpdate` multicasts produced during the build are not routed
    /// back to the members — delivering every join's broadcast to the
    /// whole roster would cost `O(N²)` message handling, and the
    /// leader-side seal counts and wall clock measured by the rekey
    /// experiments do not depend on member delivery (which the core
    /// integration tests cover end to end).
    ///
    /// # Panics
    ///
    /// Panics if the deterministic handshake fails (a bug, not an input
    /// condition).
    #[must_use]
    pub fn new_tree(n: usize) -> Self {
        Self::new_with(n, true)
    }

    /// Builds and fully joins an `n`-member group inside the enclave
    /// `tag` of a multi-enclave service: every envelope (and every seal's
    /// header AAD) carries the group tag. Used by the multigroup
    /// aggregate-throughput experiment.
    ///
    /// # Panics
    ///
    /// Panics if the tag is invalid or the deterministic handshake fails.
    #[must_use]
    pub fn new_in_enclave(n: usize, tag: &str) -> Self {
        let group = GroupId::new(tag).expect("valid enclave tag");
        Self::build(n, false, Some(group))
    }

    fn new_with(n: usize, tree_rekey: bool) -> Self {
        Self::build(n, tree_rekey, None)
    }

    fn build(n: usize, tree_rekey: bool, group: Option<GroupId>) -> Self {
        let mut directory = Directory::new();
        for i in 0..n {
            directory.register_key(&member_id(i), cheap_member_key(i));
        }
        let mut leader = LeaderCore::with_rng(
            leader_id(),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                max_members: n.max(2),
                membership_notices: false,
                tree_rekey,
                group: group.clone(),
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(42)),
        );
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let (session, init) = MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id(),
                cheap_member_key(i),
                Box::new(SeededRng::from_seed(3000 + i as u64)),
                group.clone(),
            );
            members.push(session);
            pump(&mut leader, &mut members, init);
        }
        FanoutGroup { leader, members }
    }

    /// The value of the leader's counter `name` (`leader.*`).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.leader.obs_registry().snapshot().counter(name)
    }

    /// Drains admin-path acks (needed between legacy broadcasts — the
    /// stop-and-wait channel queues the next payload otherwise).
    pub fn settle(&mut self, outgoing: Vec<Envelope>) {
        settle(&mut self.leader, &mut self.members, outgoing);
    }

    /// Runs one flat rekey: a `NewGroupKey` sealed per member. Returns
    /// the sealed envelopes so the caller can [`FanoutGroup::settle`] the
    /// stop-and-wait acks outside any timed region.
    ///
    /// # Panics
    ///
    /// Panics if the rekey fails (a bug, not an input condition).
    pub fn rekey_flat(&mut self) -> Vec<Envelope> {
        self.leader.rekey_now().expect("rekey succeeds").outgoing
    }

    /// Runs one tree-mode rekey: refreshes the next leaf path and builds
    /// the `PathUpdate` multicast (`O(log N)` copath seals, zero admin
    /// seals). Returns the broadcast frame so callers can black-box or
    /// deliver it; there are no stop-and-wait acks to settle.
    ///
    /// # Panics
    ///
    /// Panics if the world was not built with [`FanoutGroup::new_tree`]
    /// or the rekey fails.
    pub fn rekey_tree(&mut self) -> enclaves_core::protocol::BroadcastFrame {
        let out = self.leader.rekey_now().expect("rekey succeeds");
        assert!(
            out.outgoing.is_empty(),
            "tree rekey must not send per-member admin frames"
        );
        out.broadcasts
            .into_iter()
            .next()
            .expect("tree rekey emits a PathUpdate")
    }

    /// Delivers one shared single-seal broadcast frame to every member,
    /// returning the decrypted payloads (one per member, in member
    /// order). The frame is decoded once and the identical envelope is
    /// handed to each session, mirroring the runtime's refcounted
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not decode or any member rejects it.
    pub fn deliver_broadcast(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        let env: Envelope = enclaves_wire::codec::decode(frame).expect("valid broadcast frame");
        self.members
            .iter_mut()
            .map(|m| {
                let out = m.handle(&env).expect("member accepts broadcast");
                match out.events.into_iter().next() {
                    Some(enclaves_core::protocol::MemberEvent::Broadcast { data, .. }) => data,
                    other => panic!("expected Broadcast event, got {other:?}"),
                }
            })
            .collect()
    }
}

fn index_of(id: &ActorId) -> Option<usize> {
    id.as_str().strip_prefix('m')?.parse().ok()
}

/// Pumps envelopes between the leader and members until quiescent.
pub fn pump(leader: &mut LeaderCore, members: &mut [MemberSession], first: Envelope) {
    let mut queue = vec![first];
    while let Some(env) = queue.pop() {
        if env.recipient == *leader.leader_id() {
            if let Ok(out) = leader.handle_at(&env, Duration::ZERO) {
                queue.extend(out.outgoing);
            }
        } else if let Some(idx) = index_of(&env.recipient) {
            if idx < members.len() {
                if let Ok(out) = members[idx].handle(&env) {
                    queue.extend(out.reply);
                }
            }
        }
    }
}

/// A fully joined legacy world with `n` members.
pub struct LegacyGroup {
    /// The legacy leader core.
    pub leader: LegacyLeaderCore,
    /// Member sessions.
    pub members: Vec<LegacyMemberSession>,
}

impl LegacyGroup {
    /// Builds and fully joins an `n`-member legacy group.
    ///
    /// # Panics
    ///
    /// Panics if the deterministic handshake fails.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut directory = Directory::new();
        for i in 0..n {
            directory.register_key(&member_id(i), member_key(i));
        }
        let mut leader =
            LegacyLeaderCore::with_rng(leader_id(), directory, Box::new(SeededRng::from_seed(42)));
        let mut members: Vec<LegacyMemberSession> = Vec::with_capacity(n);
        for i in 0..n {
            let (session, open) = LegacyMemberSession::start(
                member_id(i),
                leader_id(),
                member_key(i),
                Box::new(SeededRng::from_seed(2000 + i as u64)),
            );
            members.push(session);
            // Pump the legacy handshake.
            let mut queue = vec![open];
            while let Some(env) = queue.pop() {
                if env.recipient == leader_id() {
                    if let Ok(out) = leader.handle(&env) {
                        queue.extend(out.outgoing);
                    }
                } else if let Some(idx) = index_of(&env.recipient) {
                    if idx < members.len() {
                        if let Ok(out) = members[idx].handle(&env) {
                            queue.extend(out.reply);
                        }
                    }
                }
            }
        }
        LegacyGroup { leader, members }
    }
}

/// Runs one complete improved-protocol join handshake (the "handshake
/// latency" workload).
///
/// # Panics
///
/// Panics if the handshake fails.
pub fn improved_handshake_once(seed: u64) {
    let mut directory = Directory::new();
    directory.register_key(&member_id(0), member_key(0));
    let mut leader = LeaderCore::with_rng(
        leader_id(),
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            ..LeaderConfig::default()
        },
        Box::new(SeededRng::from_seed(seed)),
    );
    let (session, init) = MemberSession::start_with_key_in_group(
        member_id(0),
        leader_id(),
        member_key(0),
        Box::new(SeededRng::from_seed(seed + 1)),
        None,
    );
    let mut members = vec![session];
    pump(&mut leader, &mut members, init);
    assert_eq!(leader.roster().len(), 1);
}

/// Runs one complete legacy join handshake.
///
/// # Panics
///
/// Panics if the handshake fails.
pub fn legacy_handshake_once(seed: u64) {
    let mut directory = Directory::new();
    directory.register_key(&member_id(0), member_key(0));
    let mut leader =
        LegacyLeaderCore::with_rng(leader_id(), directory, Box::new(SeededRng::from_seed(seed)));
    let (mut session, open) = LegacyMemberSession::start(
        member_id(0),
        leader_id(),
        member_key(0),
        Box::new(SeededRng::from_seed(seed + 1)),
    );
    let mut queue = vec![open];
    while let Some(env) = queue.pop() {
        if env.recipient == leader_id() {
            if let Ok(out) = leader.handle(&env) {
                queue.extend(out.outgoing);
            }
        } else if let Ok(out) = session.handle(&env) {
            queue.extend(out.reply);
        }
    }
    assert_eq!(leader.roster().len(), 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improved_group_builds_at_various_sizes() {
        for n in [1usize, 2, 5, 9] {
            let g = ImprovedGroup::new(n, RekeyPolicy::Manual);
            assert_eq!(g.leader.roster().len(), n, "n={n}");
            for (i, m) in g.members.iter().enumerate() {
                assert_eq!(
                    m.roster().len(),
                    n,
                    "member {i} sees wrong roster in group of {n}: {:?}",
                    m.roster()
                );
            }
        }
    }

    #[test]
    fn improved_group_with_rekey_policy_converges() {
        let g = ImprovedGroup::new(4, RekeyPolicy::OnJoin);
        // After 4 joins with rekey-on-join (first join does not rekey),
        // the epoch is 4; every member must hold it.
        let epoch = g.leader.epoch().unwrap();
        assert_eq!(epoch, 4);
        for m in &g.members {
            assert_eq!(m.group_epoch(), Some(epoch));
        }
    }

    #[test]
    fn legacy_group_builds() {
        let g = LegacyGroup::new(3);
        assert_eq!(g.leader.roster().len(), 3);
    }

    #[test]
    fn handshakes_run() {
        improved_handshake_once(7);
        legacy_handshake_once(8);
    }

    #[test]
    fn broadcast_and_settle() {
        let mut g = ImprovedGroup::new(3, RekeyPolicy::Manual);
        let out = g.leader.broadcast_admin_data(b"tick").unwrap();
        g.settle(out.outgoing);
        // Stop-and-wait: after settle, everything is acknowledged, so a
        // second broadcast goes straight out to all members.
        let out2 = g.leader.broadcast_admin_data(b"tock").unwrap();
        assert_eq!(out2.outgoing.len(), 3);
    }

    #[test]
    fn fanout_group_tree_rekey_costs_log_seals() {
        let mut g = FanoutGroup::new_tree(33);
        assert_eq!(g.leader.roster().len(), 33);
        let admin_before = g.counter("leader.admin_seals");
        let seals_before = g.counter("leader.rekey_seals");
        for _ in 0..3 {
            let b = g.leader.rekey_now().unwrap();
            std::hint::black_box(&b);
        }
        let per_rekey = (g.counter("leader.rekey_seals") - seals_before) / 3;
        // 2*ceil(log2 33) + 1 = 13.
        assert!(
            per_rekey <= 13,
            "tree rekey at n=33 took {per_rekey} seals, bound is 13"
        );
        assert_eq!(
            g.counter("leader.admin_seals"),
            admin_before,
            "tree rekeys stay off the admin plane"
        );
        let frame = g.rekey_tree();
        assert_eq!(frame.recipients.len(), 33);
    }

    #[test]
    fn fanout_group_single_seal_roundtrip() {
        let mut g = FanoutGroup::new(17);
        assert_eq!(g.leader.roster().len(), 17);
        let bc = g.leader.broadcast_group_data(b"one seal").unwrap();
        let payloads = g.deliver_broadcast(&bc.frame);
        assert_eq!(payloads.len(), 17);
        assert!(payloads.iter().all(|p| p == b"one seal"));
        assert_eq!(g.counter("leader.data_seals"), 1);
        // Legacy path still works in the same world (for the comparison
        // bench) and costs one seal per member.
        let out = g.leader.broadcast_admin_data(b"n seals").unwrap();
        assert_eq!(out.outgoing.len(), 17);
        g.settle(out.outgoing);
        assert_eq!(
            g.counter("leader.data_seals"),
            1,
            "admin path is control plane"
        );
    }
}
