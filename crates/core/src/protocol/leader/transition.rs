//! One membership transition: what a join, a departure, a rekey or a
//! recovery does to the roster, the key tree, the epoch and the journal.
//!
//! [`apply`] is the only mutation, and a [`JournalOp`] names it. The live
//! core runs it under a [`TapeRecorder`] and journals the record before
//! any of its frames is sealed ([`LeaderCore::transition`]); replay runs
//! it under a [`TapePlayer`] and checks the record's stamp and tape
//! ([`LeaderCore::recover`]). The same function on both sides is what
//! makes replay a pure function of the journal bytes. What the transition
//! leaves the members to learn is a [`Rotation`], and
//! [`LeaderCore::distribute`] is its one fan-out.

use super::{BroadcastFrame, LeaderCore, LeaderEvent, LeaderOutput};
use crate::config::LeaderConfig;
use crate::error::CoreError;
use crate::group::GroupState;
use crate::journal::{
    config_from_genesis, JournalError, JournalWriter, ReplayedStream, TapePlayer, TapeRecorder,
};
use crate::protocol::keytree::{KeyTree, NodeKey, PathUpdatePlan};
use enclaves_crypto::keys::GroupKey;
use enclaves_crypto::rng::{CryptoRng, OsEntropyRng};
use enclaves_crypto::treekdf;
use enclaves_obs::EventKind;
use enclaves_wire::journal::{EpochStamp, JournalOp, JournalPayload, JournalTransition};
use enclaves_wire::message::{path_update_frame, AdminPayload, PathSeal, PathUpdateHead};
use enclaves_wire::{ActorId, Roster};

/// The key material a transition leaves the members to learn.
pub(super) enum Rotation {
    /// The group key stays: the flat policy does not rekey on this
    /// change, or the tree emptied.
    Kept,
    /// A fresh group key from the RNG (flat mode, or a recovery over an
    /// empty tree): one `NewGroupKey` per member.
    NewKey,
    /// A refresh of the committed leaves' paths: one `PathUpdate`
    /// multicast, `O(log N)` seals.
    Path(PathUpdatePlan),
    /// Churn left the tree pathological and it was rebuilt: one
    /// `PathSync` per member over its admin channel.
    Reinit,
}

/// The transition `op` names, over explicit state. `None` when `op` is no
/// transition — the departure of a non-member, a rekey of an empty group
/// — and then nothing changed and nothing was drawn.
///
/// A join re-admitting a member the recovered roster and tree already
/// hold refreshes its leaf instead of re-adding it, retiring every key on
/// its possibly compromised old path. A departure blanks the leaf and
/// rewrites its former path, so every key it held is retired. A recovery
/// installs a caller-chosen epoch (strictly past everything replayed and
/// fenced) with key material from a refreshed root, or from the RNG when
/// no populated tree survived replay.
pub(super) fn apply(
    group: &mut GroupState,
    tree: &mut Option<KeyTree>,
    config: &LeaderConfig,
    op: &JournalOp,
    rng: &mut dyn CryptoRng,
) -> Option<Rotation> {
    let policy = &config.rekey_policy;
    let rekey = match op {
        JournalOp::Join(_) | JournalOp::Joins(_) => {
            let users = op.joiners();
            let before = group.roster();
            for user in users {
                group.join(user, rng);
            }
            if let Some(tree) = tree.as_mut() {
                let plan = tree.commit(users, rng);
                advance_tree_epoch(group, &plan.root_key);
                return Some(Rotation::Path(plan));
            }
            // At most one policy rekey, and only when someone who held
            // the old key stays.
            policy.rekey_on_join()
                && before
                    .iter()
                    .any(|member| users.iter().all(|user| user.as_str() != member))
        }
        JournalOp::Leave(user) | JournalOp::Expel(user) | JournalOp::Evict(user) => {
            if !group.leave(user) {
                return None;
            }
            if let Some(tree) = tree.as_mut() {
                let Some(plan) = tree.remove(user, rng) else {
                    return Some(Rotation::Kept);
                };
                if !tree.is_pathological() {
                    advance_tree_epoch(group, &plan.root_key);
                    return Some(Rotation::Path(plan));
                }
                let Some(root) = tree.reinit(rng) else {
                    return Some(Rotation::Kept);
                };
                advance_tree_epoch(group, &root);
                return Some(Rotation::Reinit);
            }
            policy.rekey_on_leave() && !group.is_empty()
        }
        JournalOp::Rekey => {
            if group.is_empty() {
                return None;
            }
            if let Some(tree) = tree.as_mut() {
                let plan = tree.refresh_next(rng);
                advance_tree_epoch(group, &plan.root_key);
                return Some(Rotation::Path(plan));
            }
            true
        }
        JournalOp::Recover { target_epoch } => {
            return Some(match tree.as_mut() {
                Some(tree) if tree.occupied() > 0 => {
                    let plan = tree.refresh_next(rng);
                    let (key, iv) = treekdf::derive_group(&plan.root_key, *target_epoch);
                    group.install_epoch(*target_epoch, GroupKey::from_bytes(key), iv);
                    Rotation::Path(plan)
                }
                _ => {
                    group.install_fresh_epoch(*target_epoch, rng);
                    Rotation::NewKey
                }
            });
        }
    };
    if !rekey {
        return Some(Rotation::Kept);
    }
    group.rekey(rng);
    Some(Rotation::NewKey)
}

/// Derives the next epoch's group key from a fresh tree root and commits
/// it. `derive_group` binds the epoch number into the KDF, so distinct
/// epochs always yield distinct keys and IVs.
fn advance_tree_epoch(group: &mut GroupState, root_key: &NodeKey) -> u64 {
    let epoch = group.next_epoch_number();
    let (key, iv) = treekdf::derive_group(root_key, epoch);
    group.advance_epoch_with(GroupKey::from_bytes(key), iv)
}

/// The current epoch and its key material as a journal [`EpochStamp`]
/// (epoch 0 and zeroed material before the first key is established).
pub(super) fn stamp_of(group: &GroupState) -> EpochStamp {
    let (epoch, key, iv) = group.current_epoch().map_or((0, [0; 32], [0; 12]), |e| {
        (e.epoch, *e.key.as_bytes(), e.iv)
    });
    EpochStamp { epoch, key, iv }
}

impl LeaderCore {
    /// Applies `op` over a recorded RNG tape and, when it is a
    /// transition, seals the record into the journal *before* any of its
    /// frames is sealed: a crash after this point replays to exactly this
    /// state. `None` when `op` is no transition (nothing journaled).
    pub(super) fn transition(&mut self, op: JournalOp) -> Result<Option<Rotation>, CoreError> {
        let mut tape = Vec::new();
        let rotation = apply(
            &mut self.group,
            &mut self.tree,
            &self.config,
            &op,
            &mut TapeRecorder::new(self.rng.as_mut(), &mut tape),
        );
        if rotation.is_some() {
            self.journal_commit(op, tape)?;
        }
        Ok(rotation)
    }

    /// Sends the key material of `rotation` to `recipients` and accounts
    /// for the new epoch; a [`Rotation::Kept`] sends nothing.
    pub(super) fn distribute(
        &mut self,
        out: &mut LeaderOutput,
        rotation: Rotation,
        recipients: Roster,
    ) -> Result<(), CoreError> {
        let EpochStamp { epoch, key, iv } = stamp_of(&self.group);
        match rotation {
            Rotation::Kept => return Ok(()),
            Rotation::NewKey => {
                let payload = AdminPayload::NewGroupKey { epoch, key, iv };
                self.send_admin_all(out, &recipients, &payload)?;
            }
            Rotation::Path(plan) => {
                out.broadcasts
                    .extend(self.build_path_update_frame(&plan, epoch, recipients));
            }
            // A full tree reinit: resync every member's direct path over
            // its reliable admin channel — `O(N)` admin seals once,
            // restoring the `O(log N)` bound for every later path update.
            Rotation::Reinit => {
                for name in recipients.iter() {
                    if let Some(member) = self.slot_id(name) {
                        self.send_path_sync(out, &member)?;
                    }
                }
            }
        }
        self.obs.rekeys.inc();
        self.obs.emit(|| EventKind::Rekeyed { epoch });
        out.events.push(LeaderEvent::Rekeyed(epoch));
        Ok(())
    }

    /// Sends `user` its current direct path over its reliable admin
    /// channel, which records the epoch so heartbeat-driven resyncs do not
    /// repeat it. Nothing to send outside tree mode or to a member without
    /// a tree leaf.
    pub(super) fn send_path_sync(
        &mut self,
        out: &mut LeaderOutput,
        user: &ActorId,
    ) -> Result<(), CoreError> {
        let Some(tree) = self.tree.as_ref() else {
            return Ok(());
        };
        let Some((leaf_index, path_keys)) = tree.path_keys(user) else {
            return Ok(());
        };
        let epoch = self.group.current_epoch().map_or(0, |e| e.epoch);
        let payload = AdminPayload::PathSync {
            epoch,
            leaf_index,
            leaf_count: tree.leaf_count(),
            path_keys,
        };
        self.send_admin(out, user, payload)
    }

    /// Seals a path-refresh plan into a single `PathUpdate` multicast
    /// frame: one AEAD seal per copath resolution node (`O(log N)` on a
    /// dense tree), each bound by [`PathUpdateAad`](enclaves_wire::message::PathUpdateAad)
    /// and written straight into the frame buffer, all under one random
    /// nonce base. Returns `None` when nobody would receive it.
    fn build_path_update_frame(
        &mut self,
        plan: &PathUpdatePlan,
        epoch: u64,
        recipients: Roster,
    ) -> Option<BroadcastFrame> {
        if recipients.is_empty() {
            return None;
        }
        self.obs.rekey_seals.add(plan.seals.len() as u64);
        self.obs.path_depth.record(u64::from(plan.path_depth));
        let head = PathUpdateHead {
            epoch,
            leaf_count: plan.leaf_count,
            leaves: plan.leaves.clone(),
        };
        // One random nonce base per frame; each seal's nonce is the base
        // with its node index folded in (`cipher_nonce`).
        let mut nonce = [0u8; 12];
        self.rng.fill_bytes(&mut nonce);
        let seals = plan.seals.iter().map(|cs| PathSeal {
            node: cs.node_index,
            key: &cs.seal_key,
            secret: &cs.path_secret,
        });
        // Multicast convention (see seal_group_data): identical bytes
        // reach every member, so the frame is from and to the leader.
        self.frame_buf = path_update_frame(
            std::mem::take(&mut self.frame_buf),
            &self.leader,
            self.config.group.as_ref(),
            &head,
            nonce,
            seals,
        );
        Some(BroadcastFrame {
            frame: self.frame_buf.as_slice().into(),
            recipients,
            origin: None,
            epoch,
            seq: 0,
        })
    }

    /// Attaches a write-ahead journal writer. Every subsequent
    /// membership/epoch transition is sealed into the journal *before*
    /// any of its frames is sealed or dispatched.
    pub fn attach_journal(&mut self, writer: JournalWriter) {
        self.journal = Some(writer);
    }

    /// Seals one transition record — the operation, its RNG tape, and the
    /// resulting epoch stamp — into the attached journal. A no-op for an
    /// ephemeral core. On error the transition was *not* durably
    /// committed; the caller must propagate rather than dispatch frames.
    fn journal_commit(&mut self, op: JournalOp, tape: Vec<u8>) -> Result<(), CoreError> {
        let Some(writer) = self.journal.as_mut() else {
            return Ok(());
        };
        let transition = JournalTransition {
            op,
            tape,
            stamp: stamp_of(&self.group),
        };
        let fence_writes = writer.fence_writes();
        let (_, bytes) = writer.append(&JournalPayload::Transition(transition))?;
        self.obs.journal_appends.inc();
        self.obs.journal_bytes.add(bytes);
        self.obs
            .journal_fence_writes
            .add(writer.fence_writes() - fence_writes);
        Ok(())
    }

    /// Rebuilds a core from a replayed journal stream: the genesis
    /// configuration plus a deterministic re-execution of every recorded
    /// transition over its RNG tape. The rebuilt core carries the
    /// recorded roster, epoch, and key tree — byte-identical to the
    /// crashed core's durable state — but no live sessions: members
    /// re-authenticate through the auto-rejoin path.
    ///
    /// # Errors
    ///
    /// [`JournalError::ReplayDivergence`] if a record is no transition
    /// (a rekey of an empty group, a departure of a non-member) or if
    /// re-execution does not land exactly on its stamp (wrong epoch or key
    /// material, or an RNG-tape length mismatch): the journal and the code
    /// disagree and the rebuilt state cannot be trusted.
    pub fn recover(replay: &ReplayedStream) -> Result<LeaderCore, JournalError> {
        let (leader, directory, config) = config_from_genesis(&replay.genesis);
        let mut core =
            LeaderCore::with_rng(leader, directory, config, Box::new(OsEntropyRng::new()));
        // Record 1 is the genesis.
        for (seq, t) in (2..).zip(&replay.transitions) {
            let diverged = |detail: String| JournalError::ReplayDivergence { seq, detail };
            let mut player = TapePlayer::new(&t.tape);
            let (group, tree) = (&mut core.group, &mut core.tree);
            if apply(group, tree, &core.config, &t.op, &mut player).is_none() {
                return Err(diverged(match t.op {
                    JournalOp::Rekey => "rekey recorded for an empty group".into(),
                    _ => "departure recorded for a non-member".into(),
                }));
            }
            let stamp = stamp_of(&core.group);
            if stamp.epoch != t.stamp.epoch {
                return Err(diverged(format!(
                    "epoch {} != recorded {}",
                    stamp.epoch, t.stamp.epoch
                )));
            }
            if stamp != t.stamp {
                return Err(diverged(
                    "regenerated key material differs from the stamp".into(),
                ));
            }
            if player.underrun() || player.leftover() > 0 {
                return Err(diverged(format!(
                    "rng tape mismatch (underrun: {}, leftover: {} bytes)",
                    player.underrun(),
                    player.leftover()
                )));
            }
        }
        Ok(core)
    }

    /// Advances a recovered core into a fresh epoch strictly past both
    /// the replayed epoch and the journal fence, and journals the jump.
    /// Members of the old epoch cannot be rewound onto it, and a stale
    /// journal restore (the rewind attack) can never re-issue an epoch
    /// members have already seen — the fence file outlives the stream.
    /// Returns the new epoch number, or `None` for a group that never
    /// established one (nothing to fence).
    ///
    /// # Errors
    ///
    /// Propagates journal append failures.
    pub fn recovery_advance(&mut self, fence: Option<u64>) -> Result<Option<u64>, CoreError> {
        if self.group.current_epoch().is_none() && fence.is_none() {
            return Ok(None);
        }
        let target_epoch = self
            .group
            .next_epoch_number()
            .max(fence.unwrap_or(0).saturating_add(1));
        // No member holds a session yet, so there is nothing to send: each
        // learns the new epoch from its re-admission Welcome.
        self.transition(JournalOp::Recover { target_epoch })?;
        self.obs.rekeys.inc();
        Ok(Some(target_epoch))
    }

    /// A digest of this core's durable state — roster, epoch stamp, and
    /// key tree. The byte-identity probe for journal-replay tests: a
    /// recovered core must produce exactly the live core's digest.
    #[must_use]
    pub fn durable_digest(&self) -> [u8; 32] {
        let mut bytes = Vec::new();
        for name in self.group.roster().iter() {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
        }
        let stamp = stamp_of(&self.group);
        bytes.extend_from_slice(&stamp.epoch.to_be_bytes());
        bytes.extend_from_slice(&stamp.key);
        bytes.extend_from_slice(&stamp.iv);
        match &self.tree {
            Some(tree) => {
                bytes.push(1);
                tree.digest_into(&mut bytes);
            }
            None => bytes.push(0),
        }
        enclaves_crypto::sha256::sha256(&bytes)
    }
}
