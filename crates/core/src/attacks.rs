//! The Section 2.3 attack library.
//!
//! Each attack is a deterministic script driven at the envelope level
//! (Dolev-Yao: the attacker sees every envelope and can inject any it can
//! construct). Every attack comes in two variants — against the legacy
//! protocol of Section 2.2 and against the improved protocol of
//! Section 3.2 — and returns an [`AttackReport`] saying whether it
//! *succeeded*. The expected outcomes reproduce the paper's Table-less
//! "evaluation": every attack succeeds against legacy and fails against
//! improved.
//!
//! | Attack | Legacy | Improved |
//! |--------|--------|----------|
//! | A1 forged `connection_denied` DoS       | succeeds | no pre-auth to forge |
//! | A2 forged `mem_removed` by insider      | succeeds | rejected (no `K_a`) |
//! | A3 group-key replay (rollback)          | succeeds | rejected (stale nonce) |
//! | A4 replayed admin/auth message          | succeeds | rejected (nonce chain) |
//! | A5 forged cleartext `req_close` (expel) | succeeds | rejected (sealed close) |

use crate::config::{LeaderConfig, RekeyPolicy};
use crate::directory::Directory;
use crate::legacy::{LegacyLeaderCore, LegacyMemberSession, LegacyPhase};
use crate::protocol::{LeaderCore, MemberSession};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::{CryptoRng, SeededRng};
use enclaves_wire::legacy::{LegacyEnvelope, LegacyMemberNotice, LegacyMsgType};
use enclaves_wire::message::{Envelope, MsgType};
use enclaves_wire::ActorId;
use std::time::Duration;

/// Which protocol an attack ran against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// The original Section 2.2 protocol.
    Legacy,
    /// The hardened Section 3.2 protocol.
    Improved,
}

/// The outcome of one attack script.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// Attack identifier (A1..A5).
    pub id: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Protocol attacked.
    pub against: ProtocolKind,
    /// Whether the attack achieved its goal.
    pub succeeded: bool,
    /// What happened.
    pub detail: String,
}

impl std::fmt::Display for AttackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] vs {:?}: {} — {}",
            self.id,
            self.name,
            self.against,
            if self.succeeded {
                "SUCCEEDED"
            } else {
                "blocked"
            },
            self.detail
        )
    }
}

fn id(s: &str) -> ActorId {
    ActorId::new(s).expect("static id")
}

fn key(user: &str) -> LongTermKey {
    LongTermKey::derive_from_password(&format!("pw-{user}"), user).expect("derive")
}

fn directory(users: &[&str]) -> Directory {
    let mut d = Directory::new();
    for u in users {
        d.register_key(&id(u), key(u));
    }
    d
}

// ---------------------------------------------------------------------
// Legacy harness
// ---------------------------------------------------------------------

struct LegacyWorld {
    leader: LegacyLeaderCore,
    alice: LegacyMemberSession,
    brutus: LegacyMemberSession,
    /// Every envelope ever transmitted — the attacker's tap.
    tap: Vec<LegacyEnvelope>,
}

impl LegacyWorld {
    fn new(seed: u64) -> Self {
        let leader = LegacyLeaderCore::with_rng(
            id("leader"),
            directory(&["alice", "brutus"]),
            Box::new(SeededRng::from_seed(seed)),
        );
        let (alice, _) = LegacyMemberSession::start(
            id("alice"),
            id("leader"),
            key("alice"),
            Box::new(SeededRng::from_seed(seed + 1)),
        );
        let (brutus, _) = LegacyMemberSession::start(
            id("brutus"),
            id("leader"),
            key("brutus"),
            Box::new(SeededRng::from_seed(seed + 2)),
        );
        LegacyWorld {
            leader,
            alice,
            brutus,
            tap: Vec::new(),
        }
    }

    /// Delivers an envelope to its recipient, recording it on the tap and
    /// pumping any replies until quiescent.
    fn deliver(&mut self, env: LegacyEnvelope) {
        let mut queue = vec![env];
        while let Some(env) = queue.pop() {
            self.tap.push(env.clone());
            if env.recipient == id("leader") {
                if let Ok(out) = self.leader.handle(&env) {
                    queue.extend(out.outgoing);
                }
            } else if env.recipient == id("alice") {
                if let Ok(out) = self.alice.handle(&env) {
                    queue.extend(out.reply);
                }
            } else if env.recipient == id("brutus") {
                if let Ok(out) = self.brutus.handle(&env) {
                    queue.extend(out.reply);
                }
            }
        }
    }

    /// Joins both members.
    fn join_all(&mut self) {
        let (alice, open_a) = LegacyMemberSession::start(
            id("alice"),
            id("leader"),
            key("alice"),
            Box::new(SeededRng::from_seed(100)),
        );
        self.alice = alice;
        self.deliver(open_a);
        let (brutus, open_b) = LegacyMemberSession::start(
            id("brutus"),
            id("leader"),
            key("brutus"),
            Box::new(SeededRng::from_seed(101)),
        );
        self.brutus = brutus;
        self.deliver(open_b);
        assert_eq!(self.alice.phase(), LegacyPhase::Member, "alice joined");
        assert_eq!(self.brutus.phase(), LegacyPhase::Member, "brutus joined");
    }
}

// ---------------------------------------------------------------------
// Improved harness
// ---------------------------------------------------------------------

struct ImprovedWorld {
    leader: LeaderCore,
    alice: MemberSession,
    brutus: MemberSession,
    tap: Vec<Envelope>,
}

impl ImprovedWorld {
    fn new(seed: u64, policy: RekeyPolicy) -> Self {
        let leader = LeaderCore::with_rng(
            id("leader"),
            directory(&["alice", "brutus"]),
            LeaderConfig {
                rekey_policy: policy,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(seed)),
        );
        let (alice, init_a) = MemberSession::start_with_key_in_group(
            id("alice"),
            id("leader"),
            key("alice"),
            Box::new(SeededRng::from_seed(seed + 1)),
            None,
        );
        let (brutus, init_b) = MemberSession::start_with_key_in_group(
            id("brutus"),
            id("leader"),
            key("brutus"),
            Box::new(SeededRng::from_seed(seed + 2)),
            None,
        );
        let mut world = ImprovedWorld {
            leader,
            alice,
            brutus,
            tap: Vec::new(),
        };
        world.deliver(init_a);
        world.deliver(init_b);
        world
    }

    fn deliver(&mut self, env: Envelope) {
        let mut queue = vec![env];
        while let Some(env) = queue.pop() {
            self.tap.push(env.clone());
            if env.recipient == id("leader") {
                if let Ok(out) = self.leader.handle_at(&env, Duration::ZERO) {
                    queue.extend(out.outgoing);
                }
            } else if env.recipient == id("alice") {
                if let Ok(out) = self.alice.handle(&env) {
                    queue.extend(out.reply);
                }
            } else if env.recipient == id("brutus") {
                if let Ok(out) = self.brutus.handle(&env) {
                    queue.extend(out.reply);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// A1: forged connection_denied (denial of service)
// ---------------------------------------------------------------------

/// A1 against legacy: the attacker forges a cleartext `connection_denied`,
/// and the victim gives up.
#[must_use]
pub fn forged_denial_legacy() -> AttackReport {
    let mut world = LegacyWorld::new(1);
    // Alice sends req_open, but the attacker races the leader's reply with
    // a forged denial.
    let (alice, _open) = LegacyMemberSession::start(
        id("alice"),
        id("leader"),
        key("alice"),
        Box::new(SeededRng::from_seed(50)),
    );
    world.alice = alice;
    let forged = LegacyEnvelope {
        msg_type: LegacyMsgType::ConnectionDenied,
        sender: id("leader"), // spoofed
        recipient: id("alice"),
        body: Vec::new(),
    };
    let result = world.alice.handle(&forged);
    let succeeded = result.is_ok() && world.alice.phase() == LegacyPhase::Denied;
    AttackReport {
        id: "A1",
        name: "forged connection_denied DoS",
        against: ProtocolKind::Legacy,
        succeeded,
        detail: if succeeded {
            "alice accepted a spoofed denial and gave up".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

/// A1 against improved: there is no pre-authentication exchange; the
/// closest move is forging an `AuthKeyDist`, which fails without `P_a`.
#[must_use]
pub fn forged_denial_improved() -> AttackReport {
    let leader = id("leader");
    let (mut alice, _init) = MemberSession::start_with_key_in_group(
        id("alice"),
        leader.clone(),
        key("alice"),
        Box::new(SeededRng::from_seed(60)),
        None,
    );
    // The attacker does not know P_a; it seals a "key dist" under a key of
    // its own choosing.
    let attacker_key = LongTermKey::derive_from_password("attacker", "alice").unwrap();
    let (_, fake) = MemberSession::start_with_key_in_group(
        id("alice"),
        leader,
        attacker_key,
        Box::new(SeededRng::from_seed(61)),
        None,
    );
    let forged = Envelope {
        msg_type: MsgType::AuthKeyDist,
        sender: id("leader"),
        recipient: id("alice"),
        group: None,
        body: fake.body, // structurally plausible, wrong key
    };
    let result = alice.handle(&forged);
    let blocked = result.is_err() && alice.phase() == crate::protocol::SessionPhase::WaitingForKey;
    AttackReport {
        id: "A1",
        name: "forged connection_denied DoS",
        against: ProtocolKind::Improved,
        succeeded: !blocked,
        detail: if blocked {
            "no pre-auth exists; forged AuthKeyDist rejected, alice still waiting".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

// ---------------------------------------------------------------------
// A2: forged mem_removed by a malicious insider
// ---------------------------------------------------------------------

/// A2 against legacy: member Brutus forges `mem_removed, {B}_Kg` to Alice,
/// corrupting her membership view.
#[must_use]
pub fn forged_mem_removed_legacy() -> AttackReport {
    let mut world = LegacyWorld::new(2);
    world.join_all();
    // Brutus, a legitimate member, holds Kg and can seal the notice.
    let kg = world.brutus.group_key().expect("brutus has Kg").clone();
    let mut rng = SeededRng::from_seed(70);
    let body = crate::legacy::member::legacy_seal(
        kg.as_bytes(),
        LegacyMsgType::MemRemoved,
        &LegacyMemberNotice {
            member: id("brutus"),
        },
        &mut rng,
    );
    let forged = LegacyEnvelope {
        msg_type: LegacyMsgType::MemRemoved,
        sender: id("leader"), // spoofed
        recipient: id("alice"),
        body,
    };
    let result = world.alice.handle(&forged);
    // Alice now believes Brutus left, while the leader still lists him.
    let alice_lost_brutus = !world.alice.view().contains(&id("brutus"));
    let leader_has_brutus = world.leader.roster().contains(&id("brutus"));
    let succeeded = result.is_ok() && alice_lost_brutus && leader_has_brutus;
    AttackReport {
        id: "A2",
        name: "forged mem_removed by insider",
        against: ProtocolKind::Legacy,
        succeeded,
        detail: if succeeded {
            "alice's view lost brutus although the leader never removed him".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

/// A2 against improved: membership notices travel only inside `AdminMsg`
/// sealed under Alice's `K_a`, which the insider does not hold.
#[must_use]
pub fn forged_mem_removed_improved() -> AttackReport {
    let mut world = ImprovedWorld::new(3, RekeyPolicy::Manual);
    let roster_before = world.alice.roster();
    assert!(roster_before.contains(&id("brutus")));

    // The insider (Brutus) knows the *group* key but not Alice's session
    // key. Its best forgery is an AdminMsg sealed under the group key —
    // which is simply the wrong key for that channel.
    let mut rng = SeededRng::from_seed(80);
    let mut nonce_bytes = [0u8; 12];
    rng.fill_bytes(&mut nonce_bytes);
    // Build a structurally perfect AdminPlain... sealed with a key the
    // attacker actually has (the group key it legitimately received is not
    // exposed by the API; we model "any key that is not K_a").
    let forged_plain = enclaves_wire::message::AdminPlain {
        leader: id("leader"),
        user: id("alice"),
        user_nonce: enclaves_crypto::nonce::ProtocolNonce::from_bytes([0; 16]),
        leader_nonce: enclaves_crypto::nonce::ProtocolNonce::from_bytes([1; 16]),
        payload: enclaves_wire::message::AdminPayload::MemberLeft(id("brutus")),
    };
    let mut forged = Envelope {
        msg_type: MsgType::AdminMsg,
        sender: id("leader"),
        recipient: id("alice"),
        group: None,
        body: Vec::new(),
    };
    let attacker_key = [0xBB; 32];
    forged.body = enclaves_wire::message::seal(
        &attacker_key,
        enclaves_crypto::nonce::AeadNonce::from_bytes(nonce_bytes),
        &forged.header_aad(),
        &forged_plain,
    );
    let result = world.alice.handle(&forged);
    let blocked = result.is_err() && world.alice.roster() == roster_before;
    AttackReport {
        id: "A2",
        name: "forged mem_removed by insider",
        against: ProtocolKind::Improved,
        succeeded: !blocked,
        detail: if blocked {
            "forged AdminMsg rejected: membership notices require alice's session key".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

// ---------------------------------------------------------------------
// A3: group-key replay (rollback to a key a past member holds)
// ---------------------------------------------------------------------

/// A3 against legacy: replaying an old `new_key` message rolls Alice back
/// to a superseded group key.
#[must_use]
pub fn key_rollback_legacy() -> AttackReport {
    let mut world = LegacyWorld::new(4);
    world.join_all();

    // Two rekeys; the attacker records the first new_key to alice.
    let out1 = world.leader.rekey().unwrap();
    let stale: Vec<LegacyEnvelope> = out1
        .outgoing
        .iter()
        .filter(|e| e.recipient == id("alice"))
        .cloned()
        .collect();
    for env in out1.outgoing {
        world.deliver(env);
    }
    let out2 = world.leader.rekey().unwrap();
    for env in out2.outgoing {
        world.deliver(env);
    }
    let latest = world.leader.group_key().unwrap().clone();
    assert_eq!(world.alice.group_key().unwrap(), &latest);

    // Replay the stale new_key.
    let result = world.alice.handle(&stale[0]);
    let rolled_back = world.alice.group_key().unwrap() != &latest
        && world.alice.group_key().unwrap() == &world.leader.key_history()[1];
    let succeeded = result.is_ok() && rolled_back;
    AttackReport {
        id: "A3",
        name: "group-key replay (rollback)",
        against: ProtocolKind::Legacy,
        succeeded,
        detail: if succeeded {
            "alice reinstated a superseded group key from a replayed new_key".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

/// A3 against improved: the same replay is rejected because the `AdminMsg`
/// echoes a nonce Alice has already rolled past.
#[must_use]
pub fn key_rollback_improved() -> AttackReport {
    let mut world = ImprovedWorld::new(5, RekeyPolicy::Manual);

    // Two manual rekeys, recording the first NewGroupKey AdminMsg to alice.
    let out1 = world.leader.rekey_now().unwrap();
    let stale: Vec<Envelope> = out1
        .outgoing
        .iter()
        .filter(|e| e.recipient == id("alice"))
        .cloned()
        .collect();
    for env in out1.outgoing {
        world.deliver(env);
    }
    let out2 = world.leader.rekey_now().unwrap();
    for env in out2.outgoing {
        world.deliver(env);
    }
    let epoch_before = world.alice.group_epoch();

    let result = world.alice.handle(&stale[0]);
    let blocked = result.is_err() && world.alice.group_epoch() == epoch_before;
    AttackReport {
        id: "A3",
        name: "group-key replay (rollback)",
        against: ProtocolKind::Improved,
        succeeded: !blocked,
        detail: if blocked {
            "replayed AdminMsg rejected: nonce chain proves staleness".into()
        } else {
            format!(
                "unexpected: {result:?}, epoch {:?} -> {:?}",
                epoch_before,
                world.alice.group_epoch()
            )
        },
    }
}

// ---------------------------------------------------------------------
// A4: replay of recorded protocol messages
// ---------------------------------------------------------------------

/// A4 against legacy: a replayed `new_key` is accepted twice (the member
/// has no way to tell).
#[must_use]
pub fn replay_legacy() -> AttackReport {
    let mut world = LegacyWorld::new(6);
    world.join_all();
    let out = world.leader.rekey().unwrap();
    let to_alice: Vec<LegacyEnvelope> = out
        .outgoing
        .iter()
        .filter(|e| e.recipient == id("alice"))
        .cloned()
        .collect();
    for env in out.outgoing {
        world.deliver(env);
    }
    // Replay the very same message: accepted again.
    let first = world.alice.handle(&to_alice[0]);
    let second = world.alice.handle(&to_alice[0]);
    let succeeded = first.is_ok() && second.is_ok();
    AttackReport {
        id: "A4",
        name: "replayed protocol message accepted",
        against: ProtocolKind::Legacy,
        succeeded,
        detail: if succeeded {
            "the same new_key was accepted repeatedly (duplicate delivery)".into()
        } else {
            format!("unexpected: {first:?} / {second:?}")
        },
    }
}

/// A4 against improved: every recorded protocol message, replayed to its
/// original recipient, has **no effect** — it is either rejected outright
/// or answered idempotently from the ARQ cache (no state change, no
/// event, no duplicate delivery).
#[must_use]
pub fn replay_improved() -> AttackReport {
    let mut world = ImprovedWorld::new(7, RekeyPolicy::OnJoin);
    // Generate some traffic.
    let out = world.leader.broadcast_admin_data(b"tick").unwrap();
    for env in out.outgoing {
        world.deliver(env);
    }
    let tap = world.tap.clone();
    let roster_before = world.leader.roster();
    let epoch_before = world.leader.epoch();
    let alice_epoch_before = world.alice.group_epoch();
    let mut effects = Vec::new();
    for env in &tap {
        let produced_events = if env.recipient == id("alice") {
            world.alice.handle(env).map(|o| !o.events.is_empty())
        } else if env.recipient == id("brutus") {
            world.brutus.handle(env).map(|o| !o.events.is_empty())
        } else {
            world
                .leader
                .handle_at(env, Duration::ZERO)
                .map(|o| !o.events.is_empty())
        };
        if let Ok(true) = produced_events {
            effects.push(env.msg_type);
        }
    }
    let state_changed = world.leader.roster() != roster_before
        || world.leader.epoch() != epoch_before
        || world.alice.group_epoch() != alice_epoch_before;
    let succeeded = !effects.is_empty() || state_changed;
    AttackReport {
        id: "A4",
        name: "replayed protocol message accepted",
        against: ProtocolKind::Improved,
        succeeded,
        detail: if succeeded {
            format!("replays with effect: {effects:?} (state changed: {state_changed})")
        } else {
            format!(
                "all {} recorded messages had no effect on replay                  (rejected or idempotently re-acknowledged)",
                tap.len()
            )
        },
    }
}

// ---------------------------------------------------------------------
// A5: forged close / expulsion
// ---------------------------------------------------------------------

/// A5 against legacy: a cleartext `req_close` with a spoofed sender expels
/// the victim.
#[must_use]
pub fn forged_close_legacy() -> AttackReport {
    let mut world = LegacyWorld::new(8);
    world.join_all();
    let forged = LegacyEnvelope {
        msg_type: LegacyMsgType::ReqClose,
        sender: id("alice"), // spoofed
        recipient: id("leader"),
        body: Vec::new(),
    };
    let result = world.leader.handle(&forged);
    let succeeded = result.is_ok() && !world.leader.roster().contains(&id("alice"));
    AttackReport {
        id: "A5",
        name: "forged close request (expulsion)",
        against: ProtocolKind::Legacy,
        succeeded,
        detail: if succeeded {
            "a spoofed cleartext req_close expelled alice".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

/// A5 against improved: `ReqClose` is sealed under `K_a`; the forgery is
/// rejected.
#[must_use]
pub fn forged_close_improved() -> AttackReport {
    let mut world = ImprovedWorld::new(9, RekeyPolicy::Manual);
    assert!(world.leader.roster().contains(&id("alice")));
    let mut forged = Envelope {
        msg_type: MsgType::ReqClose,
        sender: id("alice"),
        recipient: id("leader"),
        group: None,
        body: Vec::new(),
    };
    let plain = enclaves_wire::message::ClosePlain {
        user: id("alice"),
        leader: id("leader"),
    };
    forged.body = enclaves_wire::message::seal(
        &[0xCC; 32], // attacker-chosen key, not alice's K_a
        enclaves_crypto::nonce::AeadNonce::from_bytes([1; 12]),
        &forged.header_aad(),
        &plain,
    );
    let result = world.leader.handle_at(&forged, Duration::ZERO);
    let blocked = result.is_err() && world.leader.roster().contains(&id("alice"));
    AttackReport {
        id: "A5",
        name: "forged close request (expulsion)",
        against: ProtocolKind::Improved,
        succeeded: !blocked,
        detail: if blocked {
            "forged ReqClose rejected: closes require the session key".into()
        } else {
            format!("unexpected: {result:?}")
        },
    }
}

/// Runs every attack against both protocols.
#[must_use]
pub fn run_all() -> Vec<AttackReport> {
    vec![
        forged_denial_legacy(),
        forged_denial_improved(),
        forged_mem_removed_legacy(),
        forged_mem_removed_improved(),
        key_rollback_legacy(),
        key_rollback_improved(),
        replay_legacy(),
        replay_improved(),
        forged_close_legacy(),
        forged_close_improved(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_forged_denial() {
        assert!(
            forged_denial_legacy().succeeded,
            "legacy must be vulnerable"
        );
        assert!(!forged_denial_improved().succeeded, "improved must resist");
    }

    #[test]
    fn a2_forged_mem_removed() {
        assert!(forged_mem_removed_legacy().succeeded);
        assert!(!forged_mem_removed_improved().succeeded);
    }

    #[test]
    fn a3_key_rollback() {
        assert!(key_rollback_legacy().succeeded);
        assert!(!key_rollback_improved().succeeded);
    }

    #[test]
    fn a4_replay() {
        assert!(replay_legacy().succeeded);
        let report = replay_improved();
        assert!(!report.succeeded, "{report}");
    }

    #[test]
    fn a5_forged_close() {
        assert!(forged_close_legacy().succeeded);
        assert!(!forged_close_improved().succeeded);
    }

    #[test]
    fn run_all_matches_paper_expectations() {
        let reports = run_all();
        assert_eq!(reports.len(), 10);
        for r in &reports {
            match r.against {
                ProtocolKind::Legacy => assert!(r.succeeded, "{r}"),
                ProtocolKind::Improved => assert!(!r.succeeded, "{r}"),
            }
        }
    }
}
