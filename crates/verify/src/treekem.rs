//! §5.2 extended to the tree-rekey subsystem: expulsion forward secrecy.
//!
//! The paper's §5.2 invariant protects in-use *session* keys with the
//! ideal/coideal argument. The `O(log N)` rekey tree introduces a new key
//! class — interior node keys shared by leaf subtrees — and with it a new
//! obligation: after a member is expelled, the set of node keys it
//! accumulated over its whole membership must not suffice to open any
//! post-expulsion `PathUpdate` seal or to derive any post-expulsion root
//! (and hence any post-expulsion group key).
//!
//! This module checks that obligation *computationally* against the real
//! [`enclaves_core::protocol::keytree::KeyTree`]: the expelled member is
//! modelled as an adversary holding the derivation closure of every key it
//! ever legitimately held, eavesdropping on every later `PathUpdate` plan
//! — single changes and batch commits of several joins alike — and
//! greedily extending its closure with anything it can unseal, to a
//! fixpoint, since a batch's merge seals are under keys derived from
//! other seals of the same plan. The audit fails if any post-expulsion
//! seal is addressed to a key in the closure, or any post-expulsion root
//! key lands in it.
//!
//! Its mirror image is backward secrecy for a batch joiner: its Welcome's
//! path plus every seal of the commit that admitted it must derive no key
//! the tree held before that commit.

use crate::runner::VerificationResult;
use enclaves_core::protocol::keytree::{KeyTree, NodeKey, PathUpdatePlan};
use enclaves_crypto::rng::SeededRng;
use enclaves_crypto::treekdf::{derive_node_key, derive_path_secret};
use enclaves_wire::ActorId;
use std::collections::HashSet;

/// The derivation closure an expelled member can compute: every node key
/// it ever held, plus everything reachable from an unsealed path secret by
/// chaining `derive_node_key` / `derive_path_secret`.
#[derive(Debug, Default)]
pub struct KeyClosure {
    keys: HashSet<NodeKey>,
}

impl KeyClosure {
    /// Records a node key held directly (a `TreeWelcome` or `PathSync`
    /// the member received while it was still legitimate).
    pub fn hold(&mut self, key: NodeKey) {
        self.keys.insert(key);
    }

    /// Whether the closure contains `key`.
    #[must_use]
    pub fn contains(&self, key: &NodeKey) -> bool {
        self.keys.contains(key)
    }

    /// Absorbs an unsealed path secret: the chain of node keys derivable
    /// from it, up to `depth` levels (a tree's height bounds how far a
    /// real secret chains).
    pub fn absorb_secret(&mut self, secret: &NodeKey, depth: u32) {
        let mut s = *secret;
        for _ in 0..=depth {
            self.keys.insert(derive_node_key(&s));
            s = derive_path_secret(&s);
        }
    }

    /// Plays one eavesdropped [`PathUpdatePlan`] against the closure the
    /// way the member-side protocol would: any seal addressed to a held
    /// key is opened and its secret absorbed, again and again until no
    /// further seal opens. Returns the node indices of the seals that
    /// opened — for a correctly expelled member this must be empty.
    pub fn eavesdrop(&mut self, plan: &PathUpdatePlan, depth: u32) -> Vec<u32> {
        let mut opened: Vec<usize> = Vec::new();
        loop {
            let openable: Vec<usize> = (0..plan.seals.len())
                .filter(|i| !opened.contains(i) && self.contains(&plan.seals[*i].seal_key))
                .collect();
            if openable.is_empty() {
                return opened.iter().map(|&i| plan.seals[i].node_index).collect();
            }
            for i in openable {
                self.absorb_secret(&plan.seals[i].path_secret, depth);
                opened.push(i);
            }
        }
    }
}

fn actor(i: usize) -> ActorId {
    ActorId::new(format!("m{i}")).expect("valid id")
}

fn tree_depth(leaf_count: u32) -> u32 {
    // Generous bound: a left-balanced tree over n leaves has height
    // ceil(log2 n); +2 covers the leaf hop and rounding.
    34 - leaf_count.max(1).leading_zeros()
}

/// Lets the member at `who` accumulate its current legitimate path keys
/// (the view a `TreeWelcome` or `PathSync` installs).
fn sync_member(tree: &KeyTree, who: &ActorId, closure: &mut KeyClosure) {
    let (_, keys) = tree.path_keys(who).expect("member path intact");
    for k in keys {
        closure.hold(k);
    }
}

/// Audits expulsion forward secrecy over one seeded churn scenario:
/// `group` members join, the victim follows every rekey while legitimate,
/// is expelled, and then eavesdrops on `churn` further membership
/// changes and refreshes. Returns the number of post-expulsion plans
/// audited, or the first violation.
///
/// # Errors
///
/// Returns a description of the first violated obligation.
pub fn audit_expel_closure(group: usize, churn: usize, seed: u64) -> Result<usize, String> {
    assert!(group >= 2, "expulsion needs a bystander");
    let mut rng = SeededRng::from_seed(seed);
    let mut tree = KeyTree::new();
    let victim = actor(0);
    let mut closure = KeyClosure::default();

    // Build-up: the victim is a member in good standing and tracks every
    // epoch — its closure is everything a faithful member would hold.
    for i in 0..group {
        let plan = tree.add(actor(i), &mut rng);
        if tree.leaf_of(&victim).is_some() {
            closure.eavesdrop(&plan, tree_depth(tree.leaf_count()));
            sync_member(&tree, &victim, &mut closure);
        }
    }
    for _ in 0..3 {
        let plan = tree.refresh_next(&mut rng);
        closure.eavesdrop(&plan, tree_depth(tree.leaf_count()));
        sync_member(&tree, &victim, &mut closure);
    }
    let pre_expel_root = tree.root_key().expect("non-empty tree");
    if !closure.contains(&pre_expel_root) {
        return Err("victim closure must contain the pre-expel root (vacuity check)".into());
    }

    // Expulsion, then churn. Every plan from here on is adversary input.
    let mut audited = 0usize;
    let check = |tree: &KeyTree, plan: &PathUpdatePlan, closure: &mut KeyClosure| {
        let opened = closure.eavesdrop(plan, tree_depth(plan.leaf_count));
        if !opened.is_empty() {
            return Err(format!(
                "post-expel seal(s) at node(s) {opened:?} opened with the expelled closure"
            ));
        }
        let root = tree.root_key().expect("non-empty tree");
        if closure.contains(&root) {
            return Err("post-expel root key lies in the expelled closure".into());
        }
        Ok(())
    };

    let expel_plan = tree.remove(&victim, &mut rng).expect("bystanders remain");
    check(&tree, &expel_plan, &mut closure)?;
    audited += 1;

    for round in 0..churn {
        let plan = match round % 5 {
            // A newcomer joins (fresh leaf or blank reuse).
            0 => tree.add(actor(group + round), &mut rng),
            // A batch of newcomers joins in one commit, beside a
            // bystander's re-admission.
            4 => {
                let mut joins: Vec<ActorId> = (0..=round % 3 + 1)
                    .map(|k| ActorId::new(format!("b{round}-{k}")).expect("valid id"))
                    .collect();
                joins.extend(
                    (1..group + round)
                        .map(actor)
                        .find(|m| tree.leaf_of(m).is_some()),
                );
                tree.commit(&joins, &mut rng)
            }
            // A bystander leaves.
            1 => {
                let bystander = (1..group + round)
                    .map(actor)
                    .find(|m| tree.leaf_of(m).is_some())
                    .expect("someone to remove");
                tree.remove(&bystander, &mut rng).expect("group survives")
            }
            // Plain refreshes.
            _ => tree.refresh_next(&mut rng),
        };
        check(&tree, &plan, &mut closure)?;
        audited += 1;
    }
    Ok(audited)
}

/// Audits batch-join backward secrecy over one seeded scenario: `group`
/// members join one by one, then `batches` commits each admit a batch of
/// newcomers (beside one re-admitted member every other commit). Each
/// batch joiner starts from exactly its Welcome — its path after the
/// commit — and eavesdrops on the commit's seals; no key it can reach may
/// be one the tree held before the commit (any member's path, any earlier
/// root). Returns the number of joiners audited, or the first violation.
///
/// # Errors
///
/// Returns a description of the first violated obligation.
pub fn audit_batch_join_closure(group: usize, batches: usize, seed: u64) -> Result<usize, String> {
    let mut rng = SeededRng::from_seed(seed);
    let mut tree = KeyTree::new();
    let mut past: HashSet<NodeKey> = HashSet::new();
    let mut members: Vec<ActorId> = Vec::new();
    let record = |tree: &KeyTree, members: &[ActorId], past: &mut HashSet<NodeKey>| {
        for m in members {
            let (_, keys) = tree.path_keys(m).expect("member path intact");
            past.extend(keys);
        }
    };
    for i in 0..group {
        members.push(actor(i));
        tree.add(actor(i), &mut rng);
        record(&tree, &members, &mut past);
    }
    let mut audited = 0usize;
    for b in 0..batches {
        let mut joins: Vec<ActorId> = (0..2 + b % 4)
            .map(|k| ActorId::new(format!("j{b}-{k}")).expect("valid id"))
            .collect();
        if b % 2 == 1 && !members.is_empty() {
            joins.push(members[b % members.len()].clone());
        }
        let plan = tree.commit(&joins, &mut rng);
        let depth = tree_depth(plan.leaf_count);
        for joiner in &joins {
            let mut closure = KeyClosure::default();
            sync_member(&tree, joiner, &mut closure);
            closure.eavesdrop(&plan, depth);
            if !closure.contains(&plan.root_key) {
                return Err(format!(
                    "batch {b}: joiner {joiner} cannot reach its own root (vacuity check)"
                ));
            }
            if past.iter().any(|k| closure.contains(k)) {
                return Err(format!(
                    "batch {b}: joiner {joiner} reaches a key from before its commit"
                ));
            }
            audited += 1;
        }
        for joiner in joins {
            if !members.contains(&joiner) {
                members.push(joiner);
            }
        }
        record(&tree, &members, &mut past);
    }
    Ok(audited)
}

/// Packaged suite entry: batch-join backward secrecy over a sweep of group
/// sizes and batch schedules.
#[must_use]
pub fn verify_tree_batch_join_secrecy() -> VerificationResult {
    let cases: &[(usize, usize, u64)] = &[(0, 4, 11), (1, 6, 12), (8, 8, 13), (64, 6, 14)];
    let mut audited = 0usize;
    let mut failure = None;
    for &(group, batches, seed) in cases {
        match audit_batch_join_closure(group, batches, seed) {
            Ok(n) => audited += n,
            Err(e) => {
                failure = Some(format!("group={group} batches={batches} seed={seed}: {e}"));
                break;
            }
        }
    }
    VerificationResult {
        name: "tree rekey, batch joiner's closure vs pre-commit keys (§5.2 ext)".into(),
        passed: failure.is_none(),
        states: audited,
        transitions: audited,
        detail: failure.unwrap_or_else(|| "no pre-commit key reachable by a batch joiner".into()),
    }
}

/// Packaged suite entry: the §5.2-extended expulsion audit over a sweep of
/// group sizes and churn schedules.
#[must_use]
pub fn verify_tree_expel_secrecy() -> VerificationResult {
    let cases: &[(usize, usize, u64)] =
        &[(2, 6, 1), (3, 8, 2), (8, 12, 3), (33, 16, 4), (70, 16, 5)];
    let mut audited = 0usize;
    let mut failure = None;
    for &(group, churn, seed) in cases {
        match audit_expel_closure(group, churn, seed) {
            Ok(n) => audited += n,
            Err(e) => {
                failure = Some(format!("group={group} churn={churn} seed={seed}: {e}"));
                break;
            }
        }
    }
    VerificationResult {
        name: "tree rekey, expelled-member closure vs post-expel roots (§5.2 ext)".into(),
        passed: failure.is_none(),
        states: audited,
        transitions: audited,
        detail: failure.unwrap_or_else(|| "no post-expel seal or root reachable".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expelled_closure_never_reaches_a_post_expel_root() {
        let r = verify_tree_expel_secrecy();
        assert!(r.passed, "{r}");
        assert!(r.states > 50, "sweep must audit a real amount of churn");
    }

    #[test]
    fn batch_joiners_never_reach_a_pre_commit_key() {
        let r = verify_tree_batch_join_secrecy();
        assert!(r.passed, "{r}");
        assert!(r.states > 50, "sweep must audit a real number of joiners");
    }

    #[test]
    fn audit_is_not_vacuous() {
        // The victim's closure really does contain pre-expel material —
        // audit_expel_closure errors out if it does not.
        assert!(audit_expel_closure(4, 0, 9).is_ok());
    }

    #[test]
    fn audit_detects_a_planted_leak() {
        // Hand the "expelled" member a live post-expel path key and the
        // next refresh must be openable — the checker is able to fire.
        let mut rng = SeededRng::from_seed(42);
        let mut tree = KeyTree::new();
        for i in 0..6 {
            tree.add(actor(i), &mut rng);
        }
        let mut closure = KeyClosure::default();
        // Plant: a surviving member's current leaf key.
        sync_member(&tree, &actor(3), &mut closure);
        let plan = tree.refresh_next(&mut rng);
        let depth = tree_depth(tree.leaf_count());
        let opened = closure.eavesdrop(&plan, depth);
        let root = tree.root_key().unwrap();
        assert!(
            !opened.is_empty() || closure.contains(&root),
            "planted live key must make the audit fire"
        );
    }

    #[test]
    fn rejoin_after_expel_grants_only_fresh_material() {
        // An expelled member that rejoins gets a fully re-keyed path; its
        // old closure still opens nothing sealed while it was out.
        let mut rng = SeededRng::from_seed(77);
        let mut tree = KeyTree::new();
        for i in 0..5 {
            tree.add(actor(i), &mut rng);
        }
        let victim = actor(2);
        let mut closure = KeyClosure::default();
        sync_member(&tree, &victim, &mut closure);
        tree.remove(&victim, &mut rng).unwrap();
        // While out: two refreshes the old closure must not open.
        for _ in 0..2 {
            let plan = tree.refresh_next(&mut rng);
            assert!(closure
                .eavesdrop(&plan, tree_depth(tree.leaf_count()))
                .is_empty());
        }
        // Rejoin reuses the blanked leaf with an entirely fresh path.
        let plan = tree.add(victim.clone(), &mut rng);
        assert_eq!(*plan.leaves, [2], "blanked leaf reused");
        let (_, fresh) = tree.path_keys(&victim).unwrap();
        for k in &fresh {
            assert!(
                !closure.contains(k),
                "rejoin path must not reuse pre-expel key material"
            );
        }
    }
}
