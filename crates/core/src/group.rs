//! Group state: roster, group-key epochs, and key history.
//!
//! The group key `K_g` is common to all members and rotated by the
//! leader's [`crate::config::RekeyPolicy`]. Epochs increase monotonically;
//! members reject group traffic under any epoch other than their current
//! one, and — unlike the legacy protocol — can never be rolled back,
//! because epoch changes only arrive through the authenticated, replay-
//! protected `AdminMsg` channel.

use enclaves_crypto::keys::GroupKey;
use enclaves_crypto::rng::CryptoRng;
use enclaves_wire::{ActorId, Roster};

/// The group key together with its epoch and initialization vector.
#[derive(Clone, Debug)]
pub struct GroupEpoch {
    /// Monotone epoch counter (starts at 1 for the first key).
    pub epoch: u64,
    /// The group key.
    pub key: GroupKey,
    /// The initialization vector distributed with the key.
    pub iv: [u8; 12],
}

impl GroupEpoch {
    /// Generates the next epoch with a fresh key and IV.
    #[must_use]
    pub fn next<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> GroupEpoch {
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut iv);
        GroupEpoch {
            epoch: self.epoch + 1,
            key: GroupKey::generate(rng),
            iv,
        }
    }

    /// Generates the first epoch.
    #[must_use]
    pub fn first<R: CryptoRng + ?Sized>(rng: &mut R) -> GroupEpoch {
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut iv);
        GroupEpoch {
            epoch: 1,
            key: GroupKey::generate(rng),
            iv,
        }
    }
}

/// The leader's view of the group.
#[derive(Debug)]
pub struct GroupState {
    /// Current members: the one snapshot every `Welcome`, recipient list
    /// and accessor shares, replaced (never edited) on join and leave.
    roster: Roster,
    /// Current key epoch (generated lazily when the first member joins,
    /// per Section 2.2: "the group leader generates a first group key when
    /// the first member is accepted").
    current: Option<GroupEpoch>,
    /// Group-data messages relayed since the last rekey.
    traffic_since_rekey: u32,
    /// Sequence number of the next leader data-plane broadcast in the
    /// current epoch. Resets to zero on every rekey so the nonce derived
    /// from `(epoch IV, seq)` never repeats under one key.
    broadcast_seq: u64,
}

impl Default for GroupState {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupState {
    /// An empty group with no key yet.
    #[must_use]
    pub fn new() -> Self {
        Self::with_roster(Roster::new())
    }

    /// A group already holding `roster`, with no key yet.
    #[must_use]
    pub fn with_roster(roster: Roster) -> Self {
        GroupState {
            roster,
            current: None,
            traffic_since_rekey: 0,
            broadcast_seq: 0,
        }
    }

    /// The current members, sorted: a shared snapshot, `O(1)` to take.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.roster.clone()
    }

    /// True if `user` is currently a member.
    #[must_use]
    pub fn is_member(&self, user: &ActorId) -> bool {
        self.roster.contains(user)
    }

    /// The number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roster.len()
    }

    /// True if the group has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roster.is_empty()
    }

    /// The current epoch, if a key exists.
    #[must_use]
    pub fn current_epoch(&self) -> Option<&GroupEpoch> {
        self.current.as_ref()
    }

    /// Adds a member, creating the first group key if needed. Returns the
    /// epoch in force after the join (before any policy-driven rekey).
    pub fn join<R: CryptoRng + ?Sized>(&mut self, user: &ActorId, rng: &mut R) -> &GroupEpoch {
        self.roster = self.roster.with(user);
        if self.current.is_none() {
            self.current = Some(GroupEpoch::first(rng));
        }
        self.current.as_ref().expect("just created")
    }

    /// Removes a member; returns whether it was present.
    pub fn leave(&mut self, user: &ActorId) -> bool {
        let present = self.roster.contains(user);
        self.roster = self.roster.without(user);
        present
    }

    /// Rotates the group key. Returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics if no key exists yet (no member ever joined).
    pub fn rekey<R: CryptoRng + ?Sized>(&mut self, rng: &mut R) -> &GroupEpoch {
        let next = self
            .current
            .as_ref()
            .expect("rekey before first join")
            .next(rng);
        self.traffic_since_rekey = 0;
        self.broadcast_seq = 0;
        self.current = Some(next);
        self.current.as_ref().expect("just set")
    }

    /// Advances to the next epoch with externally derived key material
    /// (the tree-rekey path: key and IV come from
    /// `treekdf::derive_group(root, epoch)` rather than the RNG). Resets
    /// the per-epoch traffic and broadcast counters exactly like
    /// [`rekey`](Self::rekey). Returns the new epoch number.
    pub fn advance_epoch_with(&mut self, key: GroupKey, iv: [u8; 12]) -> u64 {
        let epoch = self.current.as_ref().map_or(1, |e| e.epoch + 1);
        self.traffic_since_rekey = 0;
        self.broadcast_seq = 0;
        self.current = Some(GroupEpoch { epoch, key, iv });
        epoch
    }

    /// The epoch number the *next* `advance_epoch_with` will produce —
    /// the tree leader derives the new group key from `(root, epoch)`
    /// before committing the epoch, so it needs the number up front.
    #[must_use]
    pub fn next_epoch_number(&self) -> u64 {
        self.current.as_ref().map_or(1, |e| e.epoch + 1)
    }

    /// Installs an explicit epoch with externally supplied key material,
    /// resetting the per-epoch counters. Unlike
    /// [`advance_epoch_with`](Self::advance_epoch_with) the epoch number
    /// is chosen by the caller: crash recovery uses this to jump strictly
    /// past the journal fence rather than to `current + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not strictly exceed the current epoch —
    /// installing a rewind would hand members a key they must reject.
    pub fn install_epoch(&mut self, epoch: u64, key: GroupKey, iv: [u8; 12]) {
        let current = self.current.as_ref().map_or(0, |e| e.epoch);
        assert!(
            epoch > current,
            "epoch install must advance ({current} -> {epoch})"
        );
        self.traffic_since_rekey = 0;
        self.broadcast_seq = 0;
        self.current = Some(GroupEpoch { epoch, key, iv });
    }

    /// Installs an explicit epoch with a key and IV drawn from `rng`
    /// (IV first, then key — the same draw order as
    /// [`GroupEpoch::first`]/[`GroupEpoch::next`], so RNG tapes replay
    /// identically). Used by crash recovery on the flat (non-tree) path.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not strictly exceed the current epoch.
    pub fn install_fresh_epoch<R: CryptoRng + ?Sized>(&mut self, epoch: u64, rng: &mut R) {
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut iv);
        let key = GroupKey::generate(rng);
        self.install_epoch(epoch, key, iv);
    }

    /// Claims the next data-plane broadcast sequence number for the
    /// current epoch.
    pub fn next_broadcast_seq(&mut self) -> u64 {
        let seq = self.broadcast_seq;
        self.broadcast_seq += 1;
        seq
    }

    /// Records one relayed group-data message; returns the total since the
    /// last rekey.
    pub fn count_traffic(&mut self) -> u32 {
        self.traffic_since_rekey += 1;
        self.traffic_since_rekey
    }
}

/// A member's view of the group key (epoch-checked).
#[derive(Clone, Debug)]
pub struct MemberGroupView {
    /// The epoch the member currently holds.
    pub epoch: u64,
    /// The group key.
    pub key: GroupKey,
    /// The initialization vector.
    pub iv: [u8; 12],
}

impl MemberGroupView {
    /// Installs a newer key and returns the view it retires. Returns
    /// `None` (and changes nothing) if `epoch` does not strictly increase —
    /// the rollback defense the legacy protocol lacks.
    pub fn install(&mut self, epoch: u64, key: GroupKey, iv: [u8; 12]) -> Option<Self> {
        (epoch > self.epoch).then(|| std::mem::replace(self, MemberGroupView { epoch, key, iv }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclaves_crypto::rng::SeededRng;

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    #[test]
    fn first_join_creates_key() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        assert!(g.current_epoch().is_none());
        let epoch = g.join(&id("alice"), &mut rng).epoch;
        assert_eq!(epoch, 1);
        assert!(g.is_member(&id("alice")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn second_join_keeps_epoch() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        let epoch = g.join(&id("bob"), &mut rng).epoch;
        assert_eq!(epoch, 1, "join itself does not rekey; the policy does");
    }

    #[test]
    fn rekey_rotates_key_and_epoch() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        let k1 = g.join(&id("alice"), &mut rng).key.clone();
        let e2 = g.rekey(&mut rng);
        assert_eq!(e2.epoch, 2);
        assert_ne!(&k1, &e2.key);
    }

    #[test]
    #[should_panic(expected = "rekey before first join")]
    fn rekey_without_key_panics() {
        let mut rng = SeededRng::from_seed(1);
        GroupState::new().rekey(&mut rng);
    }

    #[test]
    fn leave_removes_member() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        assert!(g.leave(&id("alice")));
        assert!(!g.leave(&id("alice")));
        assert!(g.is_empty());
        // The key survives an empty group (rejoin keeps epoch history).
        assert!(g.current_epoch().is_some());
    }

    #[test]
    fn traffic_counter_resets_on_rekey() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        assert_eq!(g.count_traffic(), 1);
        assert_eq!(g.count_traffic(), 2);
        g.rekey(&mut rng);
        assert_eq!(g.count_traffic(), 1);
    }

    #[test]
    fn broadcast_seq_resets_on_rekey() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        assert_eq!(g.next_broadcast_seq(), 0);
        assert_eq!(g.next_broadcast_seq(), 1);
        assert_eq!(g.next_broadcast_seq(), 2);
        g.rekey(&mut rng);
        assert_eq!(g.next_broadcast_seq(), 0, "fresh epoch, fresh nonces");
    }

    #[test]
    fn member_view_rejects_rollback() {
        let mut rng = SeededRng::from_seed(2);
        let k1 = GroupKey::generate(&mut rng);
        let k2 = GroupKey::generate(&mut rng);
        let old = GroupKey::generate(&mut rng);
        let mut view = MemberGroupView {
            epoch: 1,
            key: k1,
            iv: [0; 12],
        };
        assert!(view.install(2, k2.clone(), [1; 12]).is_some());
        assert_eq!(view.epoch, 2);
        // Equal or older epochs are rejected — no rollback.
        assert!(view.install(2, old.clone(), [2; 12]).is_none());
        assert!(view.install(1, old, [3; 12]).is_none());
        assert_eq!(view.key, k2);
    }

    #[test]
    fn install_epoch_jumps_forward_only() {
        let mut rng = SeededRng::from_seed(3);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        g.count_traffic();
        g.next_broadcast_seq();
        g.install_fresh_epoch(7, &mut rng);
        assert_eq!(g.current_epoch().unwrap().epoch, 7);
        // Counters reset like any other rekey.
        assert_eq!(g.next_broadcast_seq(), 0);
        assert_eq!(g.count_traffic(), 1);
    }

    #[test]
    #[should_panic(expected = "epoch install must advance")]
    fn install_epoch_rejects_rewind() {
        let mut rng = SeededRng::from_seed(3);
        let mut g = GroupState::new();
        g.join(&id("alice"), &mut rng);
        g.install_fresh_epoch(5, &mut rng);
        g.install_fresh_epoch(5, &mut rng);
    }

    #[test]
    fn install_fresh_epoch_matches_tape_draw_order() {
        // The recovery path regenerates key material by replaying a tape;
        // the draw order must match GroupEpoch::first (IV, then key).
        let mut a = SeededRng::from_seed(9);
        let mut b = SeededRng::from_seed(9);
        let mut g = GroupState::new();
        g.install_fresh_epoch(1, &mut a);
        let direct = GroupEpoch::first(&mut b);
        let installed = g.current_epoch().unwrap();
        assert_eq!(installed.key, direct.key);
        assert_eq!(installed.iv, direct.iv);
    }

    #[test]
    fn roster_is_sorted() {
        let mut rng = SeededRng::from_seed(1);
        let mut g = GroupState::new();
        g.join(&id("zed"), &mut rng);
        g.join(&id("alice"), &mut rng);
        g.join(&id("mid"), &mut rng);
        assert_eq!(
            g.roster().iter().collect::<Vec<_>>(),
            ["alice", "mid", "zed"]
        );
        assert!(g.roster().ptr_eq(&g.roster()), "snapshots are shared");
    }
}
