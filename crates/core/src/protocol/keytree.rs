//! Left-balanced binary rekey tree (RFC 9420 TreeKEM adapted to the
//! Enclaves star).
//!
//! The leader — still the paper's sole committer — keeps one symmetric key
//! per tree node. A member at leaf `l` holds exactly the keys on its direct
//! path (leaf → root); the root key feeds
//! [`enclaves_crypto::treekdf::derive_group`] to produce the epoch group
//! key and broadcast IV. Refreshing a path on join/leave/expel/evict draws
//! one fresh path secret and seals it once per *copath resolution node*
//! instead of once per member, cutting the rekey fan-out from `O(N)` AEAD
//! seals to `O(log N)`.
//!
//! Tree math follows RFC 9420 appendix C (array-based left-balanced trees):
//! leaf `i` lives at node index `2i`, interior nodes at odd indices, and —
//! crucially — node indices are *stable under extension*, so a member's
//! stored keys survive roster growth unchanged.
//!
//! Blank nodes: an evicted member's leaf is blanked and its former direct
//! path immediately rewritten, so no surviving member's path ever contains
//! a blank. Seals that would target a blank node descend to the node's
//! *resolution* (its maximal non-blank descendants). When eviction leaves
//! the tree pathologically sparse the leader falls back to
//! [`KeyTree::reinit`], which rebuilds a compact tree from scratch.

use std::collections::{BTreeSet, HashMap};

use enclaves_crypto::rng::CryptoRng;
use enclaves_crypto::treekdf::{derive_node_key, derive_step};
use enclaves_wire::message::CommitLeaves;
use enclaves_wire::ActorId;

/// A 32-byte tree node key or path secret.
pub type NodeKey = [u8; 32];

// ---------------------------------------------------------------------------
// Array tree math (RFC 9420 appendix C). `n` is the number of leaves.
// ---------------------------------------------------------------------------

/// Largest leaf count the tree math accepts: `node_width` and every shift
/// in the parent walk stay inside `u32`. A leaf count read from the wire
/// is checked against this before any walk.
pub const MAX_LEAVES: u32 = 1 << 30;

/// Number of array slots a tree with `n` leaves occupies (`2n - 1`).
#[must_use]
pub fn node_width(n: u32) -> u32 {
    n.saturating_mul(2).saturating_sub(1)
}

/// Node index of the root of a tree with `n` leaves (0 for the empty
/// tree, which has no nodes).
#[must_use]
pub fn root(n: u32) -> u32 {
    match node_width(n) {
        0 => 0,
        width => (1 << (31 - width.leading_zeros())) - 1,
    }
}

/// True when `x` is a node of a tree with `n` leaves that this module can
/// walk.
fn in_tree(x: u32, n: u32) -> bool {
    (1..=MAX_LEAVES).contains(&n) && x < node_width(n)
}

/// Level of a node: leaves are level 0, a node's parent is one level up.
#[must_use]
pub fn level(x: u32) -> u32 {
    x.trailing_ones()
}

/// Left child of interior node `x`.
#[must_use]
pub fn left(x: u32) -> u32 {
    let k = level(x);
    debug_assert!(k > 0, "leaf {x} has no children");
    x ^ (0b01 << (k - 1))
}

/// Right child of interior node `x` in a tree with `n` leaves.
#[must_use]
pub fn right(x: u32, n: u32) -> u32 {
    let k = level(x);
    debug_assert!(k > 0, "leaf {x} has no children");
    let mut r = x ^ (0b11 << (k - 1));
    while r >= node_width(n) {
        r = left(r);
    }
    r
}

fn parent_step(x: u32) -> u32 {
    let k = level(x);
    let b = (x >> (k + 1)) & 1;
    (x | (1 << k)) ^ (b << (k + 1))
}

/// Parent of node `x` in a tree with `n` leaves; `None` for the root and
/// for any `x` that is not a node of such a tree, so a walk by repeated
/// `parent` ends after at most 31 steps whatever it is given.
#[must_use]
pub fn parent(x: u32, n: u32) -> Option<u32> {
    if !in_tree(x, n) || x == root(n) {
        return None;
    }
    // In the full tree over the same root every ancestor chain reaches
    // the root, which is in range, so the skip over out-of-range
    // ancestors stops there at the latest.
    let mut p = parent_step(x);
    while p >= node_width(n) {
        p = parent_step(p);
    }
    Some(p)
}

/// The direct path of node `x`: its ancestors from parent up to and
/// including the root (empty when `x` is the root or not in the tree).
pub fn direct_path(x: u32, n: u32) -> impl Iterator<Item = u32> {
    std::iter::successors(parent(x, n), move |&p| parent(p, n))
}

/// Levels a tree of at most [`MAX_LEAVES`] leaves can have: the leaves'
/// 0 up to the root's 30. Levels strictly increase along a direct path,
/// so a level names at most one node of it.
pub const MAX_LEVELS: usize = 31;

/// True when `x` is the leaf of `leaf_slot` or a node of its direct path
/// in a tree with `n` leaves. `parent` keeps every in-range ancestor of
/// the full tree, and the level-`k` ancestor of a leaf is the one node
/// that agrees with it above bit `k`.
#[must_use]
pub fn on_direct_path(x: u32, leaf_slot: u32, n: u32) -> bool {
    // `in_tree` first: it bounds `x` below 2^31 - 1, so the shift is < 32.
    leaf_slot < n && in_tree(x, n) && x >> (level(x) + 1) == (2 * leaf_slot) >> (level(x) + 1)
}

/// Lowest common ancestor of two nodes, or `None` when either is not a
/// node of a tree with `n` leaves.
#[must_use]
pub fn lca(mut a: u32, mut b: u32, n: u32) -> Option<u32> {
    if !in_tree(a, n) || !in_tree(b, n) {
        return None;
    }
    // Levels strictly increase along a direct path, so stepping whichever
    // side is lower can never carry it past the common ancestor.
    while a != b {
        if level(a) <= level(b) {
            a = parent(a, n)?;
        } else {
            b = parent(b, n)?;
        }
    }
    Some(a)
}

/// The node whose fresh path secret a member at `my_leaf` unseals when the
/// leader refreshes the path of `updated_leaf` (both leaf *slots*): the
/// lowest node shared by the two direct paths — or, when the member's own
/// leaf was refreshed in place, its parent (the leaf itself in a one-leaf
/// tree, where the leaf *is* the root). `None` when either slot is outside
/// a `leaf_count`-leaf tree.
#[must_use]
pub fn update_secret_node(my_leaf: u32, updated_leaf: u32, leaf_count: u32) -> Option<u32> {
    if my_leaf >= leaf_count || updated_leaf >= leaf_count || leaf_count > MAX_LEAVES {
        return None;
    }
    let mine = 2 * my_leaf;
    if my_leaf == updated_leaf {
        Some(parent(mine, leaf_count).unwrap_or(mine))
    } else {
        lca(mine, 2 * updated_leaf, leaf_count)
    }
}

// ---------------------------------------------------------------------------
// Leader-side tree
// ---------------------------------------------------------------------------

/// One AEAD seal the leader must emit for a path refresh: `path_secret`
/// sealed under `seal_key`, addressed to the subtree rooted at
/// `node_index` (a copath resolution node).
#[derive(Clone)]
pub struct CopathSeal {
    /// Resolution node whose key seals this ciphertext.
    pub node_index: u32,
    /// The key stored at `node_index` (known to every member below it).
    pub seal_key: NodeKey,
    /// The path secret being conveyed.
    pub path_secret: NodeKey,
}

impl std::fmt::Debug for CopathSeal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("CopathSeal")
            .field("node_index", &self.node_index)
            .finish_non_exhaustive()
    }
}

/// Everything one commit produces: the copath seals to broadcast, plus
/// the new root key the refreshed epoch derives from.
#[derive(Debug, Clone)]
pub struct PathUpdatePlan {
    /// Leaf slots whose direct paths were refreshed, ascending: one for a
    /// single change, each joiner's for a batch commit.
    pub leaves: CommitLeaves,
    /// Leaf slots in the tree after the refresh.
    pub leaf_count: u32,
    /// One seal per copath resolution node, plus one per merge node
    /// whose right child was refreshed too — `O(log N)` for one leaf on
    /// a dense tree.
    pub seals: Vec<CopathSeal>,
    /// The new root key (feeds `treekdf::derive_group`).
    pub root_key: NodeKey,
    /// Number of node keys rewritten (path-depth histogram input).
    pub path_depth: u32,
}

/// The leader's rekey tree: node keys for every non-blank node, plus the
/// leaf-slot roster.
pub struct KeyTree {
    leaf_count: u32,
    /// Indexed by node index; `None` is a blank node.
    node_keys: Vec<Option<NodeKey>>,
    /// Indexed by leaf slot.
    occupants: Vec<Option<ActorId>>,
    /// The slots of `occupants` that are `None`, so a join finds the
    /// lowest one without scanning the roster.
    blanks: BTreeSet<u32>,
    leaf_of: HashMap<ActorId, u32>,
    /// Rotating pointer so manual/traffic rekeys spread refreshes over
    /// the roster instead of hammering one leaf.
    next_refresh: u32,
}

impl std::fmt::Debug for KeyTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyTree")
            .field("leaf_count", &self.leaf_count)
            .field("occupied", &self.leaf_of.len())
            .finish_non_exhaustive()
    }
}

impl Default for KeyTree {
    fn default() -> Self {
        KeyTree::new()
    }
}

impl KeyTree {
    /// An empty tree (no leaves).
    #[must_use]
    pub fn new() -> Self {
        KeyTree {
            leaf_count: 0,
            node_keys: Vec::new(),
            occupants: Vec::new(),
            blanks: BTreeSet::new(),
            leaf_of: HashMap::new(),
            next_refresh: 0,
        }
    }

    /// Number of leaf slots (occupied or blank).
    #[must_use]
    pub fn leaf_count(&self) -> u32 {
        self.leaf_count
    }

    /// Number of occupied leaves.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.leaf_of.len()
    }

    /// Leaf slot of a member, if present.
    #[must_use]
    pub fn leaf_of(&self, member: &ActorId) -> Option<u32> {
        self.leaf_of.get(member).copied()
    }

    /// Serializes the tree's durable state — shape, rotation cursor, node
    /// keys, and leaf occupancy — into `out`. The byte-identity probe
    /// used by the journal-replay machinery: a tree rebuilt from the
    /// journal must serialize to exactly the live tree's bytes.
    pub fn digest_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.leaf_count.to_be_bytes());
        out.extend_from_slice(&self.next_refresh.to_be_bytes());
        for key in &self.node_keys {
            match key {
                Some(k) => {
                    out.push(1);
                    out.extend_from_slice(k);
                }
                None => out.push(0),
            }
        }
        for occupant in &self.occupants {
            match occupant {
                Some(member) => {
                    out.push(1);
                    out.extend_from_slice(member.as_str().as_bytes());
                    out.push(0);
                }
                None => out.push(0),
            }
        }
    }

    /// True when eviction churn has left more blank than occupied leaves
    /// in a non-trivial tree — the trigger for the [`reinit`](Self::reinit)
    /// fallback, which compacts the tree and restores the `O(log N)`
    /// copath-seal bound.
    #[must_use]
    pub fn is_pathological(&self) -> bool {
        let occupied = u32::try_from(self.leaf_of.len()).unwrap_or(u32::MAX);
        self.leaf_count > 8 && occupied.saturating_mul(2) < self.leaf_count
    }

    /// The keys on `member`'s direct path, leaf first, root last. Returns
    /// `None` if the member is absent or — invariant breakage — any node
    /// on its path is blank.
    #[must_use]
    pub fn path_keys(&self, member: &ActorId) -> Option<(u32, Vec<NodeKey>)> {
        let slot = self.leaf_of(member)?;
        let node = 2 * slot;
        let keys = std::iter::once(node)
            .chain(direct_path(node, self.leaf_count))
            .map(|p| self.node_keys[p as usize])
            .collect::<Option<Vec<NodeKey>>>()?;
        Some((slot, keys))
    }

    /// The current root key, if the tree is non-empty and the root is not
    /// blank.
    #[must_use]
    pub fn root_key(&self) -> Option<NodeKey> {
        if self.leaf_count == 0 {
            return None;
        }
        self.node_keys[root(self.leaf_count) as usize]
    }

    /// Appends one seal of `path_secret` per maximal non-blank descendant
    /// of `x` ("resolution" in RFC 9420): the minimal set of keys that
    /// together cover every occupied leaf under `x`, left to right.
    fn seal_to_resolution(&self, x: u32, path_secret: &NodeKey, seals: &mut Vec<CopathSeal>) {
        if let Some(seal_key) = self.node_keys[x as usize] {
            seals.push(CopathSeal {
                node_index: x,
                seal_key,
                path_secret: *path_secret,
            });
        } else if level(x) > 0 {
            // A blank leaf has nobody to reach; a blank interior node
            // hands the job to its children.
            self.seal_to_resolution(left(x), path_secret, seals);
            self.seal_to_resolution(right(x, self.leaf_count), path_secret, seals);
        }
    }

    /// Admits every member of `joins` in one commit. A member already in
    /// the tree — a re-admission: it survived in the recovered roster and
    /// tree while its session died with the old leader — keeps its leaf
    /// and draws a fresh leaf secret, retiring every key on its possibly
    /// compromised old path; any other takes the lowest blank leaf or
    /// extends the tree. One [`refresh`](Self::refresh) then rewrites the
    /// union of their direct paths. The joiners learn their paths from
    /// their `TreeWelcome`s; the plan's seals cover everyone else.
    ///
    /// # Panics
    ///
    /// Panics if `joins` is empty or names a member twice.
    pub fn commit<R: CryptoRng + ?Sized>(
        &mut self,
        joins: &[ActorId],
        rng: &mut R,
    ) -> PathUpdatePlan {
        let mut committed = Vec::with_capacity(joins.len());
        for member in joins {
            let slot = match self.leaf_of(member) {
                Some(slot) => slot,
                None => self.seat(member.clone()),
            };
            let mut leaf_secret = [0u8; 32];
            rng.fill_bytes(&mut leaf_secret);
            committed.push((slot, Some(leaf_secret)));
        }
        self.refresh(&mut committed, rng)
    }

    /// Adds a member, reusing the first blank leaf or extending the tree:
    /// a [`commit`](Self::commit) of one join.
    ///
    /// # Panics
    ///
    /// Panics if the member is already in the tree.
    pub fn add<R: CryptoRng + ?Sized>(&mut self, member: ActorId, rng: &mut R) -> PathUpdatePlan {
        assert!(
            !self.leaf_of.contains_key(&member),
            "member already in tree"
        );
        self.commit(&[member], rng)
    }

    /// Re-draws an existing member's leaf secret and refreshes its path —
    /// the crash-recovery re-admission, a [`commit`](Self::commit) of
    /// one join. Returns `None` if the member is not in the tree.
    pub fn refresh_member<R: CryptoRng + ?Sized>(
        &mut self,
        member: &ActorId,
        rng: &mut R,
    ) -> Option<PathUpdatePlan> {
        self.leaf_of(member)?;
        Some(self.commit(std::slice::from_ref(member), rng))
    }

    /// Seats `member` in the lowest blank leaf, or in a new leaf that
    /// extends the tree, and returns the slot.
    fn seat(&mut self, member: ActorId) -> u32 {
        let slot = match self.blanks.pop_first() {
            Some(blank) => blank,
            None => {
                let slot = self.leaf_count;
                self.leaf_count += 1;
                self.occupants.push(None);
                self.node_keys
                    .resize(node_width(self.leaf_count) as usize, None);
                slot
            }
        };
        self.occupants[slot as usize] = Some(member.clone());
        self.leaf_of.insert(member, slot);
        slot
    }

    /// Removes a member: blanks its leaf and rewrites its former direct
    /// path so every key the departee held is retired. Returns `None`
    /// when the tree is left empty (nobody to update).
    pub fn remove<R: CryptoRng + ?Sized>(
        &mut self,
        member: &ActorId,
        rng: &mut R,
    ) -> Option<PathUpdatePlan> {
        let slot = self.leaf_of.remove(member)?;
        self.occupants[slot as usize] = None;
        self.blanks.insert(slot);
        self.node_keys[(2 * slot) as usize] = None;
        if self.leaf_of.is_empty() {
            *self = KeyTree::new();
            return None;
        }
        Some(self.refresh(&mut [(slot, None)], rng))
    }

    /// Refreshes the path of the next occupied leaf in rotation (manual
    /// or traffic-policy rekey). The refreshed member learns the new path
    /// from the broadcast too: the first seal targets its own leaf key.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty.
    pub fn refresh_next<R: CryptoRng + ?Sized>(&mut self, rng: &mut R) -> PathUpdatePlan {
        assert!(!self.leaf_of.is_empty(), "refresh on an empty tree");
        let mut slot = self.next_refresh % self.leaf_count;
        while self.occupants[slot as usize].is_none() {
            slot = (slot + 1) % self.leaf_count;
        }
        self.next_refresh = (slot + 1) % self.leaf_count;
        self.refresh(&mut [(slot, None)], rng)
    }

    /// Rebuilds a compact tree from scratch: blank leaves vanish, every
    /// node key is drawn fresh, and each member must be re-synced over its
    /// admin channel (`O(N)` admin seals — the pathological-roster
    /// fallback, not the fast path).
    pub fn reinit<R: CryptoRng + ?Sized>(&mut self, rng: &mut R) -> Option<NodeKey> {
        let survivors: Vec<ActorId> = self.occupants.iter().flatten().cloned().collect();
        *self = KeyTree::new();
        if survivors.is_empty() {
            return None;
        }
        self.leaf_count = u32::try_from(survivors.len()).expect("roster fits u32");
        self.node_keys = (0..node_width(self.leaf_count))
            .map(|_| {
                let mut key = [0u8; 32];
                rng.fill_bytes(&mut key);
                Some(key)
            })
            .collect();
        self.occupants = survivors.iter().cloned().map(Some).collect();
        self.leaf_of = survivors
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m, u32::try_from(i).expect("roster fits u32")))
            .collect();
        self.root_key()
    }

    /// The one path refresh: rewrites every node on the union of the
    /// committed leaves' direct paths, level by level from the leaves up,
    /// left to right within a level. `committed` pairs each leaf slot
    /// with its fresh leaf secret (a join: the leaf key is rewritten and
    /// its parent's secret chains from it) or `None` (a departure's
    /// blanked leaf, or a rotation, whose leaf key stays).
    ///
    /// Each rewritten node's secret chains from one refreshed child, the
    /// left one where both were (a *merge* node); then:
    /// - a child that was not refreshed gets one seal of the node's
    ///   secret to its resolution, as on a single path;
    /// - the right child of a merge node, when interior, gets the node's
    ///   secret sealed under its own new key, so the members under it,
    ///   who derive that key, can climb on (node keys only ever seal);
    /// - a node with no refreshed child (a departed or rotated leaf's
    ///   parent) draws a fresh secret and seals it to both children's
    ///   resolutions, the committed leaf's first — to the rotated
    ///   member's own leaf key, to nobody for a blank.
    ///
    /// One committed leaf is a single path, so a one-leaf commit draws
    /// the same RNG bytes and emits the same seals in the same order as
    /// a bottom-up walk of that path.
    fn refresh<R: CryptoRng + ?Sized>(
        &mut self,
        committed: &mut [(u32, Option<NodeKey>)],
        rng: &mut R,
    ) -> PathUpdatePlan {
        committed.sort_unstable_by_key(|&(slot, _)| slot);
        assert!(
            committed.windows(2).all(|w| w[0].0 < w[1].0),
            "a leaf committed twice"
        );
        let n = self.leaf_count;
        let r = root(n);
        let mut seals = Vec::new();
        let mut path_depth = 0u32;
        // The secret each refreshed node hands up, until its parent takes
        // it: one entry per chain still climbing, so a few at a time.
        let mut offered: Vec<(u32, NodeKey)> = Vec::with_capacity(committed.len());
        for &(slot, leaf_secret) in &*committed {
            if let Some(s0) = leaf_secret {
                let (leaf_key, up) = derive_step(&s0);
                self.node_keys[(2 * slot) as usize] = Some(leaf_key);
                offered.push((2 * slot, up));
                path_depth += 1;
            }
        }
        let take = |offered: &mut Vec<(u32, NodeKey)>, x: u32| {
            let i = offered.iter().position(|&(node, _)| node == x)?;
            Some(offered.swap_remove(i).1)
        };
        let fresh = |rng: &mut R| {
            let mut s = [0u8; 32];
            rng.fill_bytes(&mut s);
            s
        };

        if n == 1 {
            // One-leaf tree: the leaf is the root. A refresh without a new
            // leaf secret rotates the leaf key in place, sealing the fresh
            // secret under the old key so the occupant can follow.
            if committed[0].1.is_none() {
                let secret = fresh(rng);
                self.seal_to_resolution(r, &secret, &mut seals);
                self.node_keys[r as usize] = Some(derive_node_key(&secret));
                path_depth += 1;
            }
        } else {
            // The union of the direct paths, in the order it is rewritten.
            let mut union: Vec<u32> = committed
                .iter()
                .flat_map(|&(slot, _)| direct_path(2 * slot, n))
                .collect();
            // One path is in that order already.
            if committed.len() > 1 {
                union.sort_unstable_by_key(|&x| (level(x), x));
                union.dedup();
            }
            let is_committed = |x: u32| {
                level(x) == 0
                    && committed
                        .binary_search_by_key(&(x / 2), |&(slot, _)| slot)
                        .is_ok()
            };
            for p in union {
                let (lc, rc) = (left(p), right(p, n));
                let secret = match (take(&mut offered, lc), take(&mut offered, rc)) {
                    (Some(secret), Some(_)) => {
                        if level(rc) > 0 {
                            seals.push(CopathSeal {
                                node_index: rc,
                                seal_key: self.node_keys[rc as usize]
                                    .expect("a refreshed node is keyed"),
                                path_secret: secret,
                            });
                        }
                        secret
                    }
                    (Some(secret), None) => {
                        self.seal_to_resolution(rc, &secret, &mut seals);
                        secret
                    }
                    (None, Some(secret)) => {
                        self.seal_to_resolution(lc, &secret, &mut seals);
                        secret
                    }
                    (None, None) => {
                        let secret = fresh(rng);
                        let (first, second) = if is_committed(rc) && !is_committed(lc) {
                            (rc, lc)
                        } else {
                            (lc, rc)
                        };
                        self.seal_to_resolution(first, &secret, &mut seals);
                        self.seal_to_resolution(second, &secret, &mut seals);
                        secret
                    }
                };
                path_depth += 1;
                // Nothing sits above the root, so its secret is not chained on.
                self.node_keys[p as usize] = Some(if p == r {
                    derive_node_key(&secret)
                } else {
                    let (key, up) = derive_step(&secret);
                    offered.push((p, up));
                    key
                });
            }
        }

        PathUpdatePlan {
            leaves: match *committed {
                [(slot, _)] => CommitLeaves::One(slot),
                _ => CommitLeaves::Many(committed.iter().map(|&(slot, _)| slot).collect()),
            },
            leaf_count: n,
            seals,
            root_key: self.node_keys[r as usize].expect("root rewritten by refresh"),
            path_depth,
        }
    }
}

/// True when a leaf slot of `leaves` (ascending) lies under node `x`: a
/// level-`k` node spans the leaf nodes within `2^k - 1` of its index.
fn covers_any(x: u32, leaves: &[u32]) -> bool {
    let span = (1u32 << level(x)) - 1;
    let (lo, hi) = ((x - span) / 2, (x + span) / 2);
    let i = leaves.partition_point(|&leaf| leaf < lo);
    leaves.get(i).is_some_and(|&leaf| leaf <= hi)
}

// ---------------------------------------------------------------------------
// Member-side tree
// ---------------------------------------------------------------------------

/// A member's view of the tree: its leaf slot and the keys on its direct
/// path, installed from an admin `TreeWelcome` or `PathSync` and
/// advanced by broadcast path updates.
#[derive(Clone)]
pub struct MemberTree {
    /// This member's leaf slot.
    pub leaf_slot: u32,
    /// Leaf slots in the tree as last seen.
    pub leaf_count: u32,
    /// The key held for the path node at each level, leaf first, up to
    /// the root's level. A level the path skips (the tree is not full
    /// there) holds nothing until a join grows the tree through it.
    keys: Vec<Option<NodeKey>>,
}

impl std::fmt::Debug for MemberTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberTree")
            .field("leaf_slot", &self.leaf_slot)
            .field("leaf_count", &self.leaf_count)
            .field("keys_held", &self.keys.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl MemberTree {
    /// Installs a full direct path from an admin `TreeWelcome` or
    /// `PathSync`: `path_keys`
    /// must hold exactly the leaf-to-root keys for `leaf_slot` in a
    /// `leaf_count`-leaf tree. Returns `None` on a malformed payload.
    #[must_use]
    pub fn from_sync(leaf_slot: u32, leaf_count: u32, path_keys: &[NodeKey]) -> Option<Self> {
        if leaf_slot >= leaf_count || leaf_count > MAX_LEAVES {
            return None;
        }
        let leaf_node = 2 * leaf_slot;
        let mut keys = vec![None; level(root(leaf_count)) as usize + 1];
        let mut synced = path_keys.iter();
        for node in std::iter::once(leaf_node).chain(direct_path(leaf_node, leaf_count)) {
            keys[level(node) as usize] = Some(*synced.next()?);
        }
        synced.next().is_none().then_some(MemberTree {
            leaf_slot,
            leaf_count,
            keys,
        })
    }

    /// True when `node` is this member's leaf or on its direct path under
    /// a possibly-grown tree of `leaf_count` leaves.
    #[must_use]
    pub fn on_path(&self, node: u32, leaf_count: u32) -> bool {
        on_direct_path(node, self.leaf_slot, leaf_count)
    }

    /// The root key under the current `leaf_count`.
    #[must_use]
    pub fn root_key(&self) -> Option<&NodeKey> {
        self.keys
            .get(level(root(self.leaf_count)) as usize)?
            .as_ref()
    }

    /// The node whose fresh secret this member unseals from a commit that
    /// refreshed the direct paths of `leaves` (ascending) in a tree of
    /// `leaf_count` leaves: the lowest refreshed node of its own path
    /// ([`update_secret_node`] against the nearest committed leaf).
    /// `None` for a commit that cannot fit this member's tree: a shrunken
    /// tree (a reinit travels by `PathSync`), no leaf, a leaf outside the
    /// tree, a leaf listed twice or out of order, or this member's own
    /// leaf in a commit of several (a batch commits only joiners, whose
    /// paths travel in their Welcomes).
    #[must_use]
    pub fn commit_target(&self, leaves: &[u32], leaf_count: u32) -> Option<u32> {
        if leaf_count < self.leaf_count
            || leaves.windows(2).any(|w| w[0] >= w[1])
            || (leaves.len() > 1 && leaves.binary_search(&self.leaf_slot).is_ok())
        {
            return None;
        }
        leaves.iter().try_fold(None, |lowest: Option<u32>, &leaf| {
            let node = update_secret_node(self.leaf_slot, leaf, leaf_count)?;
            Some(Some(match lowest {
                Some(low) if level(low) <= level(node) => low,
                _ => node,
            }))
        })?
    }

    /// Follows a commit of `leaves` (ascending) that grew the tree to
    /// `leaf_count` leaves and whose lowest refreshed node on this
    /// member's path is `target` (per [`commit_target`](Self::commit_target)).
    ///
    /// `open(node, key)` opens the commit's cipher addressed to `node`, a
    /// node of this path, under `key`, and is called at most once per
    /// level: first at each node below `target` whose key this member
    /// holds, until one opens — the seal to this member's resolution
    /// node, carrying `target`'s secret; in a one-leaf tree, the rotated
    /// leaf's seal under its old key — then, climbing from `target`,
    /// at each merge node's right child on this path under the key just
    /// derived for it, since a merge node's secret chains from its left
    /// child. Every other secret chains up by [`derive_step`].
    ///
    /// Returns the new root key with the path's keys rewritten, or `None`
    /// with nothing changed if a cipher it needs does not open.
    pub fn follow_commit(
        &mut self,
        target: u32,
        leaves: &[u32],
        leaf_count: u32,
        mut open: impl FnMut(u32, &NodeKey) -> Option<NodeKey>,
    ) -> Option<NodeKey> {
        // The node of this path at level `k` is the one that agrees with
        // its leaf above bit `k` (see `on_direct_path`); a level the path
        // skips holds no key.
        let leaf_node = 2 * self.leaf_slot;
        let mut secret = (0..level(target).max(1)).find_map(|k| {
            let node = (leaf_node >> (k + 1) << (k + 1)) | ((1 << k) - 1);
            open(node, self.keys.get(k as usize)?.as_ref()?)
        })?;
        // Only a merge seal can still fail to open, and only a commit of
        // several leaves has merges: the keys it rewrites are restored
        // then.
        let kept = (leaves.len() > 1).then(|| self.keys.clone());
        // A join that adds a level on top is the only time this grows.
        let levels = level(root(leaf_count)) as usize + 1;
        if self.keys.len() < levels {
            self.keys.resize(levels, None);
        }
        let mut t = target;
        while let Some(p) = parent(t, leaf_count) {
            let (key, up) = derive_step(&secret);
            self.keys[level(t) as usize] = Some(key);
            secret = if t != left(p) && covers_any(left(p), leaves) {
                match open(t, &key) {
                    Some(secret) => secret,
                    None => {
                        if let Some(kept) = kept {
                            self.keys = kept;
                        }
                        return None;
                    }
                }
            } else {
                up
            };
            t = p;
        }
        let root_key = derive_node_key(&secret);
        self.keys[level(t) as usize] = Some(root_key);
        self.leaf_count = leaf_count;
        Some(root_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_crypto::treekdf::derive_group;

    fn id(name: &str) -> ActorId {
        ActorId::new(name).unwrap()
    }

    // RFC 9420 appendix C worked example: the 11-leaf tree.
    #[test]
    fn array_tree_math_matches_rfc9420_examples() {
        assert_eq!(node_width(11), 21);
        assert_eq!(root(11), 15);
        assert_eq!(root(1), 0);
        assert_eq!(root(2), 1);
        assert_eq!(root(3), 3);
        assert_eq!(root(4), 3);
        assert_eq!(root(5), 7);
        // Levels.
        assert_eq!(level(0), 0);
        assert_eq!(level(1), 1);
        assert_eq!(level(3), 2);
        assert_eq!(level(7), 3);
        // Children in an 11-leaf tree.
        assert_eq!(left(3), 1);
        assert_eq!(right(3, 11), 5);
        assert_eq!(left(15), 7);
        assert_eq!(right(15, 11), 19);
        assert_eq!(right(19, 11), 20);
        // Parents.
        assert_eq!(parent(0, 11), Some(1));
        assert_eq!(parent(2, 11), Some(1));
        assert_eq!(parent(20, 11), Some(19));
        assert_eq!(parent(19, 11), Some(15));
        assert_eq!(parent(7, 11), Some(15));
        assert_eq!(parent(15, 11), None);
        assert_eq!(lca(0, 4, 11), Some(3));
        assert_eq!(lca(6, 20, 11), Some(15));
        assert_eq!(lca(16, 20, 11), Some(19));
        assert_eq!(lca(3, 2, 11), Some(3));
    }

    // The walks are total: a shape no tree has (no leaves, a node beyond
    // the width, a leaf count past the supported maximum) ends them with
    // `None` instead of looping, so unauthenticated input cannot hang a
    // caller that forgot to validate.
    #[test]
    fn tree_walks_are_total_on_impossible_shapes() {
        for n in [0, 1, 2, 3, MAX_LEAVES, MAX_LEAVES + 1, u32::MAX] {
            for x in [0, 1, 4, 5, u32::MAX - 1, u32::MAX] {
                assert!(direct_path(x, n).count() < MAX_LEVELS, "x={x} n={n}");
                let _ = on_direct_path(x, 0, n);
                let _ = lca(x, 0, n);
                let _ = lca(4, x, n);
            }
            for slot in [0, 1, 2, u32::MAX] {
                let _ = update_secret_node(2, slot, n);
                let _ = update_secret_node(slot, 0, n);
            }
        }
        assert_eq!(direct_path(4, 0).count(), 0);
        assert_eq!(direct_path(4, 2).count(), 0);
        assert_eq!(update_secret_node(2, 0, 0), None);
        assert_eq!(update_secret_node(2, 0, 2), None);
        assert_eq!(update_secret_node(0, 2, 2), None);
        assert_eq!(update_secret_node(0, 0, MAX_LEAVES + 1), None);
        assert_eq!(update_secret_node(0, 0, 1), Some(0));
        assert_eq!(direct_path(0, MAX_LEAVES).count(), MAX_LEVELS - 1);
    }

    // The closed form a member uses on unauthenticated node indices is
    // the walk: a node is on a leaf's path exactly when repeated `parent`
    // from the leaf reaches it.
    #[test]
    fn on_direct_path_agrees_with_the_parent_walk() {
        for n in 0u32..40 {
            for slot in 0..n + 2 {
                let walked: Vec<u32> = if slot < n {
                    std::iter::once(2 * slot)
                        .chain(direct_path(2 * slot, n))
                        .collect()
                } else {
                    Vec::new()
                };
                for x in (0..node_width(n) + 3).chain([u32::MAX - 1, u32::MAX]) {
                    assert_eq!(
                        on_direct_path(x, slot, n),
                        walked.contains(&x),
                        "x={x} slot={slot} n={n}"
                    );
                }
                let levels: Vec<u32> = walked.iter().map(|&x| level(x)).collect();
                assert!(levels.windows(2).all(|w| w[0] < w[1]), "slot={slot} n={n}");
            }
        }
    }

    #[test]
    fn paths_remain_subsequences_under_extension() {
        // The property that lets members keep their stored keys across
        // roster growth: every node on a leaf's direct path in the small
        // tree is still on its direct path in the grown tree (new spine
        // nodes are inserted, never substituted — and the join that grows
        // the tree refreshes exactly those inserted nodes).
        for n in 1u32..32 {
            for grow in [1u32, 7, 16] {
                for slot in 0..n {
                    let node = 2 * slot;
                    let mut small = vec![node];
                    small.extend(direct_path(node, n));
                    let mut big = vec![node];
                    big.extend(direct_path(node, n + grow));
                    let mut it = big.iter();
                    for p in &small {
                        assert!(
                            it.any(|q| q == p),
                            "n={n}+{grow} slot={slot}: node {p} fell off the grown path"
                        );
                    }
                }
            }
        }
    }

    fn member_views(tree: &KeyTree, members: &[ActorId]) -> HashMap<ActorId, MemberTree> {
        members
            .iter()
            .map(|m| {
                let (slot, keys) = tree.path_keys(m).expect("path intact");
                (
                    m.clone(),
                    MemberTree::from_sync(slot, tree.leaf_count(), &keys).expect("valid sync"),
                )
            })
            .collect()
    }

    /// Replays a plan against every member view the way `MemberSession`
    /// does: find the lowest refreshed node of my path, open the seal to
    /// my resolution below it, climb, opening again only at a merge
    /// node's right child — never twice at one level — and land on the
    /// leader's root.
    fn apply_plan(views: &mut HashMap<ActorId, MemberTree>, plan: &PathUpdatePlan) {
        for (who, view) in views.iter_mut() {
            let target = view
                .commit_target(&plan.leaves, plan.leaf_count)
                .unwrap_or_else(|| panic!("{who}: the commit fits the member's tree"));
            let mut levels = BTreeSet::new();
            let root = view
                .follow_commit(target, &plan.leaves, plan.leaf_count, |node, key| {
                    assert!(levels.insert(level(node)), "{who}: two opens at one level");
                    let seal = plan.seals.iter().find(|s| s.node_index == node)?;
                    (seal.seal_key == *key).then_some(seal.path_secret)
                })
                .unwrap_or_else(|| panic!("{who}: no seal on the member's path opened"));
            assert_eq!(root, plan.root_key, "{who} derived another root");
        }
    }

    #[test]
    fn joins_grow_the_tree_and_every_member_tracks_the_root() {
        let mut rng = SeededRng::from_seed(9);
        let mut tree = KeyTree::new();
        let mut views: HashMap<ActorId, MemberTree> = HashMap::new();
        let mut members = Vec::new();
        for i in 0..12 {
            let m = id(&format!("m{i}"));
            let plan = tree.add(m.clone(), &mut rng);
            // Existing members follow the broadcast...
            apply_plan(&mut views, &plan);
            // ...the joiner is synced out of band.
            members.push(m.clone());
            let (slot, keys) = tree.path_keys(&m).unwrap();
            views.insert(
                m,
                MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap(),
            );
            for (who, view) in &views {
                assert_eq!(
                    view.root_key(),
                    tree.root_key().as_ref(),
                    "{who} diverged at join {i}"
                );
            }
        }
        assert_eq!(tree.leaf_count(), 12);
        assert_eq!(tree.occupied(), 12);
    }

    #[test]
    fn remove_retires_every_key_the_departee_held() {
        let mut rng = SeededRng::from_seed(11);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..8).map(|i| id(&format!("m{i}"))).collect();
        for m in &members {
            tree.add(m.clone(), &mut rng);
        }
        let mallory = members[3].clone();
        let (slot, held) = tree.path_keys(&mallory).unwrap();
        assert_eq!(slot, 3);
        let plan = tree.remove(&mallory, &mut rng).expect("survivors remain");
        // Every key mallory held is gone from the tree.
        let survivors: Vec<ActorId> = members.iter().filter(|m| **m != mallory).cloned().collect();
        for s in &survivors {
            let (_, keys) = tree.path_keys(s).unwrap();
            for k in &keys {
                assert!(!held.contains(k), "departee key survived the rewrite");
            }
        }
        // No seal in the plan is decryptable with any key mallory held:
        // every seal key is either a fresh key or an off-path key.
        for seal in &plan.seals {
            assert!(
                !held.contains(&seal.seal_key),
                "seal addressed to a key the departee held"
            );
        }
        // Survivors still converge on the new root.
        let mut views = member_views(&tree, &survivors);
        for view in views.values_mut() {
            assert_eq!(view.root_key(), tree.root_key().as_ref());
        }
    }

    #[test]
    fn refresh_next_rotates_and_members_follow_from_broadcast_alone() {
        let mut rng = SeededRng::from_seed(13);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..5).map(|i| id(&format!("m{i}"))).collect();
        for m in &members {
            tree.add(m.clone(), &mut rng);
        }
        let mut views = member_views(&tree, &members);
        for round in 0..7 {
            let plan = tree.refresh_next(&mut rng);
            apply_plan(&mut views, &plan);
            for (who, view) in &views {
                assert_eq!(
                    view.root_key(),
                    tree.root_key().as_ref(),
                    "{who} diverged in round {round}"
                );
            }
        }
    }

    fn ceil_log2(n: u32) -> u32 {
        debug_assert!(n >= 1);
        32 - (n - 1).leading_zeros()
    }

    #[test]
    fn seal_counts_stay_logarithmic() {
        let mut rng = SeededRng::from_seed(17);
        for n in [1u32, 2, 3, 8, 33, 70, 512] {
            let mut tree = KeyTree::new();
            for i in 0..n {
                tree.add(id(&format!("m{i}")), &mut rng);
            }
            let bound = 2 * ceil_log2(n.max(2)) + 1;
            for _ in 0..3 {
                let plan = tree.refresh_next(&mut rng);
                assert!(
                    u32::try_from(plan.seals.len()).unwrap() <= bound,
                    "n={n}: {} seals exceeds 2*ceil(log2 n)+1 = {bound}",
                    plan.seals.len()
                );
            }
        }
    }

    #[test]
    fn tiny_rosters_work() {
        let mut rng = SeededRng::from_seed(19);
        // n = 1: leaf is the root.
        let mut tree = KeyTree::new();
        let a = id("a");
        tree.add(a.clone(), &mut rng);
        assert_eq!(tree.leaf_count(), 1);
        let mut views = member_views(&tree, std::slice::from_ref(&a));
        let plan = tree.refresh_next(&mut rng);
        assert_eq!(plan.seals.len(), 1);
        apply_plan(&mut views, &plan);
        assert_eq!(views[&a].root_key(), tree.root_key().as_ref());

        // n = 2 and n = 3, with churn.
        let b = id("b");
        let c = id("c");
        let plan = tree.add(b.clone(), &mut rng);
        apply_plan(&mut views, &plan);
        views.insert(b.clone(), {
            let (slot, keys) = tree.path_keys(&b).unwrap();
            MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap()
        });
        let plan = tree.add(c.clone(), &mut rng);
        apply_plan(&mut views, &plan);
        views.insert(c.clone(), {
            let (slot, keys) = tree.path_keys(&c).unwrap();
            MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap()
        });
        assert_eq!(tree.leaf_count(), 3);
        for view in views.values() {
            assert_eq!(view.root_key(), tree.root_key().as_ref());
        }
        let plan = tree.remove(&b, &mut rng).unwrap();
        views.remove(&b);
        apply_plan(&mut views, &plan);
        for view in views.values() {
            assert_eq!(view.root_key(), tree.root_key().as_ref());
        }
    }

    #[test]
    fn evict_then_rejoin_reuses_the_blanked_leaf() {
        let mut rng = SeededRng::from_seed(23);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..6).map(|i| id(&format!("m{i}"))).collect();
        for m in &members {
            tree.add(m.clone(), &mut rng);
        }
        let victim = members[2].clone();
        tree.remove(&victim, &mut rng).unwrap();
        assert_eq!(tree.leaf_count(), 6, "leaf stays allocated");
        assert_eq!(tree.occupied(), 5);
        // Rejoin lands in the blanked slot — the tree does not grow.
        let plan = tree.add(victim.clone(), &mut rng);
        assert_eq!(*plan.leaves, [2]);
        assert_eq!(tree.leaf_count(), 6);
        assert_eq!(tree.leaf_of(&victim), Some(2));
        // And the rejoined member's path is fully keyed.
        let (_, keys) = tree.path_keys(&victim).unwrap();
        assert_eq!(keys.len(), 1 + direct_path(4, 6).count());
    }

    // With several blanks a join takes the lowest one, as the scan over
    // `occupants` it replaced did: tree shapes, and so journals and tapes,
    // depend on it.
    #[test]
    fn joins_fill_the_lowest_blank_leaf_first() {
        let mut rng = SeededRng::from_seed(37);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..12).map(|i| id(&format!("m{i}"))).collect();
        for m in &members {
            tree.add(m.clone(), &mut rng);
        }
        for slot in [9usize, 2, 7, 4] {
            tree.remove(&members[slot], &mut rng).unwrap();
        }
        for (i, expect) in [2u32, 4, 7, 9, 12].into_iter().enumerate() {
            let scanned = tree.occupants.iter().position(Option::is_none);
            assert_eq!(
                scanned.map_or(tree.leaf_count(), |s| s as u32),
                expect,
                "join {i}"
            );
            assert_eq!(*tree.add(id(&format!("n{i}")), &mut rng).leaves, [expect]);
        }
        // A reinit compacts the blank away and leaves none behind.
        tree.remove(&members[0], &mut rng).unwrap();
        tree.reinit(&mut rng).unwrap();
        assert_eq!(*tree.add(id("late"), &mut rng).leaves, [12]);
    }

    #[test]
    fn reinit_compacts_a_pathological_tree() {
        let mut rng = SeededRng::from_seed(29);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..16).map(|i| id(&format!("m{i}"))).collect();
        for m in &members {
            tree.add(m.clone(), &mut rng);
        }
        for m in members.iter().take(11) {
            tree.remove(m, &mut rng);
        }
        assert!(tree.is_pathological());
        let old_root = tree.root_key();
        let root_key = tree.reinit(&mut rng).expect("survivors remain");
        assert_ne!(Some(root_key), old_root);
        assert_eq!(tree.leaf_count(), 5);
        assert!(!tree.is_pathological());
        for m in members.iter().skip(11) {
            let (_, keys) = tree.path_keys(m).expect("survivor synced");
            assert_eq!(*keys.last().unwrap(), root_key);
        }
        // Removing everyone resets to empty.
        for m in members.iter().skip(11) {
            tree.remove(m, &mut rng);
        }
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.root_key().is_none());
    }

    #[test]
    fn refresh_member_retires_old_leaf_and_others_follow() {
        let mut rng = SeededRng::from_seed(41);
        let mut tree = KeyTree::new();
        let members: Vec<ActorId> = (0..6).map(|i| id(&format!("m{i}"))).collect();
        let mut plans = Vec::new();
        for m in &members {
            plans.push(tree.add(m.clone(), &mut rng));
        }
        // Re-admission refresh for m2: its leaf key must change, the other
        // members must each be able to follow from exactly one seal, and
        // everyone (including the snapshot-resynced m2) converges on the
        // new root.
        let old_leaf = tree.path_keys(&id("m2")).unwrap().1[0];
        let others: Vec<ActorId> = members
            .iter()
            .filter(|m| **m != id("m2"))
            .cloned()
            .collect();
        let mut views = member_views(&tree, &others);
        let plan = tree.refresh_member(&id("m2"), &mut rng).expect("in tree");
        apply_plan(&mut views, &plan);
        let new_leaf = tree.path_keys(&id("m2")).unwrap().1[0];
        assert_ne!(old_leaf, new_leaf, "leaf key must be retired");
        let root = tree.root_key().unwrap();
        for (who, view) in &views {
            assert_eq!(view.root_key(), Some(&root), "{who} lost the root");
        }
        // A member not in the tree yields no plan.
        assert!(tree.refresh_member(&id("ghost"), &mut rng).is_none());
    }

    /// The single-path walk every membership change ran before a commit
    /// could cover several leaves, kept as the reference a one-leaf
    /// commit must match draw for draw and seal for seal.
    fn walk_one_path<R: CryptoRng + ?Sized>(
        tree: &mut KeyTree,
        slot: u32,
        leaf_secret: Option<NodeKey>,
        seal_to_self: bool,
        rng: &mut R,
    ) -> PathUpdatePlan {
        let n = tree.leaf_count;
        let leaf_node = 2 * slot;
        let mut seals = Vec::new();
        let mut path_depth = 0u32;
        let mut secret = match leaf_secret {
            Some(s0) => {
                let (leaf_key, parent_secret) = derive_step(&s0);
                tree.node_keys[leaf_node as usize] = Some(leaf_key);
                path_depth += 1;
                parent_secret
            }
            None => {
                let mut s = [0u8; 32];
                rng.fill_bytes(&mut s);
                s
            }
        };
        if leaf_node == root(n) {
            if leaf_secret.is_none() {
                if let (true, Some(old)) = (seal_to_self, tree.node_keys[leaf_node as usize]) {
                    seals.push(CopathSeal {
                        node_index: leaf_node,
                        seal_key: old,
                        path_secret: secret,
                    });
                }
                tree.node_keys[leaf_node as usize] = Some(derive_node_key(&secret));
                path_depth += 1;
            }
            let root_key = tree.node_keys[leaf_node as usize].unwrap();
            return PathUpdatePlan {
                leaves: CommitLeaves::One(slot),
                leaf_count: n,
                seals,
                root_key,
                path_depth,
            };
        }
        if let (true, Some(leaf_key)) = (seal_to_self, tree.node_keys[leaf_node as usize]) {
            seals.push(CopathSeal {
                node_index: leaf_node,
                seal_key: leaf_key,
                path_secret: secret,
            });
        }
        let r = root(n);
        let mut below = leaf_node;
        for p in direct_path(leaf_node, n) {
            let sibling = if left(p) == below {
                right(p, n)
            } else {
                left(p)
            };
            tree.seal_to_resolution(sibling, &secret, &mut seals);
            path_depth += 1;
            tree.node_keys[p as usize] = Some(if p == r {
                derive_node_key(&secret)
            } else {
                let (key, parent_secret) = derive_step(&secret);
                secret = parent_secret;
                key
            });
            below = p;
        }
        PathUpdatePlan {
            leaves: CommitLeaves::One(slot),
            leaf_count: n,
            seals,
            root_key: tree.node_keys[r as usize].unwrap(),
            path_depth,
        }
    }

    fn plan_bytes(plan: &PathUpdatePlan) -> Vec<u8> {
        let mut out = Vec::new();
        for &leaf in plan.leaves.iter() {
            out.extend_from_slice(&leaf.to_be_bytes());
        }
        out.extend_from_slice(&plan.leaf_count.to_be_bytes());
        out.extend_from_slice(&plan.path_depth.to_be_bytes());
        out.extend_from_slice(&plan.root_key);
        for seal in &plan.seals {
            out.extend_from_slice(&seal.node_index.to_be_bytes());
            out.extend_from_slice(&seal.seal_key);
            out.extend_from_slice(&seal.path_secret);
        }
        out
    }

    // Every one-leaf change — a join into a blank or a new leaf, a
    // re-admission, a departure, a rotation — is a commit of one leaf,
    // and draws the same RNG bytes and emits the same seals, in the same
    // order, as the single-path walk it replaced: so tapes, journals and
    // wire bytes written before batch commits existed replay unchanged.
    #[test]
    fn a_one_leaf_commit_is_the_single_path_walk() {
        let mut commits = KeyTree::new();
        let mut walks = KeyTree::new();
        let (mut rng_c, mut rng_w) = (SeededRng::from_seed(53), SeededRng::from_seed(53));
        let mut pick = SeededRng::from_seed(54);
        let mut members: Vec<ActorId> = Vec::new();
        for step in 0..400u32 {
            let roll = pick.next_u64() % 8;
            let (plan_c, plan_w) = if members.len() < 2 || roll < 3 {
                let m = id(&format!("n{step}"));
                members.push(m.clone());
                let plan_c = commits.add(m.clone(), &mut rng_c);
                let slot = walks.seat(m);
                let mut s0 = [0u8; 32];
                rng_w.fill_bytes(&mut s0);
                (
                    plan_c,
                    walk_one_path(&mut walks, slot, Some(s0), false, &mut rng_w),
                )
            } else {
                let i = (pick.next_u64() % members.len() as u64) as usize;
                match roll {
                    3 | 4 => {
                        let m = members.swap_remove(i);
                        let plan_c = commits.remove(&m, &mut rng_c).unwrap();
                        let slot = walks.leaf_of.remove(&m).unwrap();
                        walks.occupants[slot as usize] = None;
                        walks.blanks.insert(slot);
                        walks.node_keys[(2 * slot) as usize] = None;
                        (
                            plan_c,
                            walk_one_path(&mut walks, slot, None, false, &mut rng_w),
                        )
                    }
                    5 => {
                        let plan_c = commits.refresh_member(&members[i], &mut rng_c).unwrap();
                        let slot = walks.leaf_of(&members[i]).unwrap();
                        let mut s0 = [0u8; 32];
                        rng_w.fill_bytes(&mut s0);
                        (
                            plan_c,
                            walk_one_path(&mut walks, slot, Some(s0), false, &mut rng_w),
                        )
                    }
                    _ => {
                        let plan_c = commits.refresh_next(&mut rng_c);
                        let mut slot = walks.next_refresh % walks.leaf_count;
                        while walks.occupants[slot as usize].is_none() {
                            slot = (slot + 1) % walks.leaf_count;
                        }
                        walks.next_refresh = (slot + 1) % walks.leaf_count;
                        (
                            plan_c,
                            walk_one_path(&mut walks, slot, None, true, &mut rng_w),
                        )
                    }
                }
            };
            assert_eq!(plan_bytes(&plan_c), plan_bytes(&plan_w), "step {step}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            commits.digest_into(&mut a);
            walks.digest_into(&mut b);
            assert_eq!(a, b, "step {step}");
        }
        assert_eq!(rng_c.next_u64(), rng_w.next_u64(), "the same bytes drawn");
    }

    /// The keys a member view holds, leaf to root, against the leader's
    /// record of its path.
    fn assert_views_match(tree: &KeyTree, views: &HashMap<ActorId, MemberTree>) {
        for (who, view) in views {
            let (slot, keys) = tree.path_keys(who).expect("path intact");
            assert_eq!(view.leaf_slot, slot, "{who}");
            assert_eq!(view.leaf_count, tree.leaf_count(), "{who}");
            let held: Vec<NodeKey> = view.keys.iter().flatten().copied().collect();
            assert_eq!(held, keys, "{who}'s tree differs from the leader's");
        }
    }

    // A batch of joins — new leaves past the end, blanks refilled, and
    // members re-admitted in place — is one plan over the union of the
    // joiners' paths: every member already in follows it, opening at most
    // once per level of its path, and holds exactly the leader's path
    // afterwards; every joiner's synced path reaches the same root; and
    // no seal is under a key a re-admitted leaf held before.
    #[test]
    fn a_batch_commit_is_followed_by_every_member_already_in() {
        for (n, fresh, readmit, seed) in [
            (64usize, 3usize, 2usize, 61u64),
            (5, 4, 0, 62),
            (1, 7, 0, 63),
            (0, 6, 0, 64),
            (33, 0, 5, 65),
            (100, 27, 9, 66),
        ] {
            let mut rng = SeededRng::from_seed(seed);
            let mut tree = KeyTree::new();
            let members: Vec<ActorId> = (0..n).map(|i| id(&format!("m{i}"))).collect();
            for m in &members {
                tree.add(m.clone(), &mut rng);
            }
            // A few blanks for the batch to refill.
            for m in members.iter().skip(7).step_by(11) {
                tree.remove(m, &mut rng);
            }
            let staying: Vec<ActorId> = members
                .iter()
                .filter(|m| tree.leaf_of(m).is_some())
                .cloned()
                .collect();
            let readmitted: Vec<ActorId> = staying.iter().take(readmit).cloned().collect();
            let old_keys: Vec<NodeKey> = readmitted
                .iter()
                .flat_map(|m| tree.path_keys(m).unwrap().1)
                .collect();
            let mut joins: Vec<ActorId> = (0..fresh).map(|i| id(&format!("j{i}"))).collect();
            joins.extend(readmitted.iter().cloned());
            let followers: Vec<ActorId> = staying
                .iter()
                .filter(|m| !readmitted.contains(m))
                .cloned()
                .collect();
            let mut views = member_views(&tree, &followers);
            let plan = tree.commit(&joins, &mut rng);
            let mut slots: Vec<u32> = joins.iter().map(|m| tree.leaf_of(m).unwrap()).collect();
            slots.sort_unstable();
            assert_eq!(*plan.leaves, slots, "n={n}");
            apply_plan(&mut views, &plan);
            for m in &joins {
                let (slot, keys) = tree.path_keys(m).unwrap();
                views.insert(
                    m.clone(),
                    MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap(),
                );
            }
            assert_views_match(&tree, &views);
            for view in views.values() {
                assert_eq!(view.root_key(), Some(&plan.root_key));
            }
            for seal in &plan.seals {
                assert!(
                    !old_keys.contains(&seal.seal_key),
                    "n={n}: a seal under a re-admitted leaf's old key"
                );
            }
            let nodes: BTreeSet<u32> = plan.seals.iter().map(|s| s.node_index).collect();
            assert_eq!(
                nodes.len(),
                plan.seals.len(),
                "n={n}: a node sealed to twice"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // Interleaved batch commits (fresh joiners and re-admissions
        // together), single departures and rotations keep every member's
        // tree equal to the leader's record of its path.
        #[test]
        fn interleaved_commits_and_departures_keep_every_tree_equal(
            ops in proptest::collection::vec(((0u8..4, 0usize..6), (0usize..3, 0u64..1 << 32)), 1..24),
        ) {
            let mut rng = SeededRng::from_seed(67);
            let mut tree = KeyTree::new();
            let mut views: HashMap<ActorId, MemberTree> = HashMap::new();
            let mut next = 0usize;
            for ((kind, fresh), (readmit, pick)) in ops {
                match kind {
                    0 | 1 => {
                        let mut joins: Vec<ActorId> = (0..fresh.max(1))
                            .map(|i| id(&format!("u{}", next + i)))
                            .collect();
                        next += joins.len();
                        let mut present: Vec<ActorId> = views.keys().cloned().collect();
                        present.sort();
                        let readmitted: Vec<ActorId> = present
                            .iter()
                            .skip(pick as usize % present.len().max(1))
                            .take(readmit)
                            .cloned()
                            .collect();
                        for m in &readmitted {
                            views.remove(m);
                        }
                        joins.extend(readmitted);
                        let plan = tree.commit(&joins, &mut rng);
                        apply_plan(&mut views, &plan);
                        for m in joins {
                            let (slot, keys) = tree.path_keys(&m).unwrap();
                            views.insert(m, MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap());
                        }
                    }
                    2 if views.len() > 1 => {
                        let mut present: Vec<ActorId> = views.keys().cloned().collect();
                        present.sort();
                        let gone = present[pick as usize % present.len()].clone();
                        views.remove(&gone);
                        let plan = tree.remove(&gone, &mut rng).unwrap();
                        apply_plan(&mut views, &plan);
                    }
                    _ if !views.is_empty() => {
                        let plan = tree.refresh_next(&mut rng);
                        apply_plan(&mut views, &plan);
                    }
                    _ => {}
                }
                assert_views_match(&tree, &views);
            }
        }
    }

    #[test]
    fn group_keys_from_equal_roots_agree() {
        let mut rng = SeededRng::from_seed(31);
        let mut tree = KeyTree::new();
        tree.add(id("a"), &mut rng);
        tree.add(id("b"), &mut rng);
        let root_key = tree.root_key().unwrap();
        let (slot, keys) = tree.path_keys(&id("b")).unwrap();
        let view = MemberTree::from_sync(slot, tree.leaf_count(), &keys).unwrap();
        assert_eq!(
            derive_group(&root_key, 4),
            derive_group(view.root_key().unwrap(), 4)
        );
    }
}
