//! Cross-group isolation battery: random pairs of enclaves whose casts
//! are **identical** — same member ids, same long-term keys, same
//! leader id — differing only in their group tag. This is the worst
//! case for a multi-enclave service: identity and key material give an
//! attacker zero leverage, so isolation must come entirely from the
//! enclave binding (the explicit tag check plus the header-AAD seal
//! binding).
//!
//! For every generated pair, every kind of sealed frame group A can
//! produce — stop-and-wait admin fan-out, fire-and-forget group-data
//! broadcast, a member's group-data uplink and its relay, tree-rekey
//! `PathUpdate` multicast, and both heartbeat directions — is fed
//! verbatim to group B's members (and B's leader, for the member→leader
//! direction). Each one must be rejected as
//! [`RejectReason::WrongEnclave`] with zero state change and zero
//! events.

use enclaves_bench::{cheap_member_key, leader_id, member_id, settle};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{LeaderCore, MemberSession};
use enclaves_core::{CoreError, RejectReason};
use enclaves_crypto::rng::SeededRng;
use enclaves_wire::codec::decode;
use enclaves_wire::message::Envelope;
use enclaves_wire::GroupId;
use proptest::prelude::*;
use std::time::Duration;

/// A fully joined sans-I/O enclave with a group tag.
struct Enclave {
    leader: LeaderCore,
    members: Vec<MemberSession>,
}

/// Routes `first` and everything it provokes until quiescent — unlike
/// the bench `pump`, tree-rekey `PathUpdate` multicasts are delivered
/// too, so every member tracks the epoch through the join sequence.
fn drive(leader: &mut LeaderCore, members: &mut [MemberSession], first: Envelope) {
    let mut queue = vec![first];
    while let Some(env) = queue.pop() {
        if env.recipient == *leader.leader_id() {
            let Ok(out) = leader.handle_at(&env, Duration::ZERO) else {
                continue;
            };
            queue.extend(out.outgoing);
            for b in out.broadcasts {
                let benv: Envelope = decode(&b.frame).expect("own multicast");
                for m in members
                    .iter_mut()
                    .filter(|m| b.targets().any(|t| t == m.user().as_str()))
                {
                    if let Ok(mo) = m.handle(&benv) {
                        queue.extend(mo.reply);
                    }
                }
            }
        } else if let Some(m) = members.iter_mut().find(|m| *m.user() == env.recipient) {
            if let Ok(mo) = m.handle(&env) {
                queue.extend(mo.reply);
            }
        }
    }
}

/// Builds and fully joins an `n`-member enclave tagged `tag`, using the
/// SAME deterministic cast (ids and long-term keys) for every call.
fn enclave(tag: &str, n: usize, seed: u64) -> Enclave {
    let gid = GroupId::new(tag).expect("generated tag");
    let mut directory = Directory::new();
    for i in 0..n {
        directory.register_key(&member_id(i), cheap_member_key(i));
    }
    let mut leader = LeaderCore::with_rng(
        leader_id(),
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            tree_rekey: true,
            group: Some(gid.clone()),
            ..LeaderConfig::default()
        },
        Box::new(SeededRng::from_seed(seed)),
    );
    let mut members = Vec::with_capacity(n);
    for i in 0..n {
        let (session, init) = MemberSession::start_with_key_in_group(
            member_id(i),
            leader_id(),
            cheap_member_key(i),
            Box::new(SeededRng::from_seed(seed ^ (0x9E37_79B9 + i as u64))),
            Some(gid.clone()),
        );
        members.push(session);
        drive(&mut leader, &mut members, init);
    }
    Enclave { leader, members }
}

/// Asserts `env` is dead on arrival at `member`: rejected as
/// cross-enclave traffic, no events, no epoch movement.
fn assert_member_rejects(member: &mut MemberSession, env: &Envelope, what: &str) {
    let epoch_before = member.group_epoch();
    let registry = member.obs_registry();
    let rejected = || registry.snapshot().counter("member.rejected");
    let rejected_before = rejected();
    match member.handle(env) {
        Err(CoreError::Rejected(RejectReason::WrongEnclave)) => {}
        other => panic!("{what}: expected WrongEnclave rejection, got {other:?}"),
    }
    assert_eq!(member.group_epoch(), epoch_before, "{what}: epoch moved");
    assert_eq!(
        rejected(),
        rejected_before + 1,
        "{what}: rejection not counted"
    );
}

/// Asserts `env` is dead on arrival at `leader`: no roster or epoch
/// movement, and no counter but `leader.rejected` moves.
fn assert_leader_rejects(leader: &mut LeaderCore, env: &Envelope, what: &str) {
    let roster_before = leader.roster();
    let epoch_before = leader.epoch();
    let mut counters = leader.obs_registry().snapshot().counters;
    match leader.handle_at(env, Duration::ZERO) {
        Err(CoreError::Rejected(RejectReason::WrongEnclave)) => {}
        other => panic!("{what}: expected WrongEnclave rejection, got {other:?}"),
    }
    assert_eq!(leader.roster(), roster_before, "{what}: roster moved");
    assert_eq!(leader.epoch(), epoch_before, "{what}: epoch moved");
    *counters.entry("leader.rejected".into()).or_default() += 1;
    assert_eq!(
        leader.obs_registry().snapshot().counters,
        counters,
        "{what}: counters moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every sealed frame group A emits — admin fan-out, group-data
    /// broadcast, group-data uplink and relay, `PathUpdate`, heartbeat
    /// ping and pong — bounces off
    /// every member of group B (and B's leader, for member→leader
    /// frames), even though B's cast is byte-identical to A's.
    #[test]
    fn every_frame_kind_from_group_a_is_rejected_by_group_b(
        tag_a in "[a-z]{1,10}",
        tag_b in "[a-z]{1,10}",
        n in 2usize..4,
        seed in 0u64..u64::MAX / 2,
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        // Force distinct tags (the vendored proptest has no `prop_assume`).
        let tag_b = if tag_a == tag_b { format!("{tag_b}x") } else { tag_b };
        let mut a = enclave(&tag_a, n, seed);
        let mut b = enclave(&tag_b, n, seed.wrapping_add(1));

        // Heartbeat ping (member→leader) and pong (leader→member).
        let ping = a.members[0].heartbeat().expect("connected member");
        assert_leader_rejects(&mut b.leader, &ping, "heartbeat ping");
        let pong_out = a.leader.handle_at(&ping, Duration::ZERO).expect("own ping accepted");
        let pong = pong_out.outgoing.first().expect("ping is answered").clone();
        // Addressed frames are checked against the B-member with the SAME
        // id (recipient mismatch would mask the enclave check otherwise).
        assert_member_rejects(&mut b.members[0], &pong, "heartbeat pong");

        // Stop-and-wait admin fan-out: one sealed frame per A-member;
        // each must bounce off its B-twin (same id, same key!).
        let admin = a.leader.broadcast_admin_data(&payload).expect("quiet channels");
        for env in &admin.outgoing {
            let twin = b
                .members
                .iter_mut()
                .find(|m| *m.user() == env.recipient)
                .expect("identical casts");
            assert_member_rejects(twin, env, "admin fan-out");
        }
        settle(&mut a.leader, &mut a.members, admin.outgoing);

        // Fire-and-forget group-data broadcast (single seal, multicast).
        let data = a.leader.broadcast_group_data(&payload).expect("nonempty group");
        let data_env: Envelope = decode(&data.frame).expect("self-produced frame");
        for member in &mut b.members {
            assert_member_rejects(member, &data_env, "group-data broadcast");
        }

        // Member group data: the uplink under the member's session key,
        // then the leader's one-seal relay of it to the other members.
        let uplink = a.members[0].send_group_data(&payload).expect("welcomed member");
        assert_leader_rejects(&mut b.leader, &uplink, "group-data uplink");
        let relayed = a.leader.handle_at(&uplink, Duration::ZERO).expect("own uplink accepted");
        let relay = relayed.broadcasts.first().expect("one relay frame");
        let relay_env: Envelope = decode(&relay.frame).expect("self-produced frame");
        for member in &mut b.members {
            assert_member_rejects(member, &relay_env, "relayed group data");
        }

        // Tree-rekey `PathUpdate` multicast.
        let rekey = a.leader.rekey_now().expect("manual rekey");
        let path = rekey
            .broadcasts
            .first()
            .expect("tree mode rekeys by PathUpdate");
        let path_env: Envelope = decode(&path.frame).expect("self-produced frame");
        for member in &mut b.members {
            assert_member_rejects(member, &path_env, "PathUpdate");
        }

        // Sanity: the same frames ARE live inside their own enclave —
        // the rejections above prove isolation, not broken frames.
        let out = a.members[0].handle(&data_env).expect("own broadcast accepted");
        prop_assert!(!out.events.is_empty(), "own group-data must deliver");
        let out = a.members[1].handle(&relay_env).expect("own relay accepted");
        prop_assert!(!out.events.is_empty(), "own relayed data must deliver");
    }
}

/// The directional edge cases a generator won't reliably hit: a tagged
/// frame replayed into a *legacy* (untagged) session and vice versa.
#[test]
fn tagged_and_untagged_worlds_reject_each_other() {
    let mut tagged = enclave("red", 2, 7);
    let mut legacy = {
        let mut directory = Directory::new();
        for i in 0..2 {
            directory.register_key(&member_id(i), cheap_member_key(i));
        }
        let mut leader = LeaderCore::with_rng(
            leader_id(),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                ..LeaderConfig::default()
            },
            Box::new(SeededRng::from_seed(99)),
        );
        let mut members = Vec::new();
        for i in 0..2 {
            let (session, init) = MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id(),
                cheap_member_key(i),
                Box::new(SeededRng::from_seed(1099 + i as u64)),
                None,
            );
            members.push(session);
            drive(&mut leader, &mut members, init);
        }
        Enclave { leader, members }
    };

    let tagged_data = tagged
        .leader
        .broadcast_group_data(b"tagged")
        .expect("nonempty");
    let tagged_env: Envelope = decode(&tagged_data.frame).expect("own frame");
    assert_member_rejects(&mut legacy.members[0], &tagged_env, "tagged→legacy");

    let legacy_data = legacy
        .leader
        .broadcast_group_data(b"legacy")
        .expect("nonempty");
    let legacy_env: Envelope = decode(&legacy_data.frame).expect("own frame");
    assert_member_rejects(&mut tagged.members[0], &legacy_env, "legacy→tagged");
}
