//! End-to-end lifecycle tests: the full runtime stack (protocol cores +
//! threaded runtimes + simulated network) exercised the way an application
//! would.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{LeaderEvent, MemberEvent, SessionPhase};
use enclaves_core::runtime::{GroupHandle, LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::{ActorId, Roster};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

struct World {
    net: SimNet,
    service: LeaderService,
    leader: GroupHandle,
}

fn world(users: &[&str], policy: RekeyPolicy) -> World {
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    for user in users {
        directory
            .register_password(&id(user), &format!("{user}-pw"))
            .unwrap();
    }
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: policy,
                ..LeaderConfig::default()
            },
        )
        .unwrap();
    World {
        net,
        service,
        leader,
    }
}

fn join(world: &World, user: &str) -> MemberRuntime {
    let member = MemberRuntime::connect(
        world.net.dialer("leader"),
        id(user),
        id("leader"),
        &format!("{user}-pw"),
    )
    .unwrap();
    member.wait_joined(WAIT).unwrap();
    member
}

/// Waits until every member holds the leader's current epoch.
fn sync_epochs(world: &World, members: &[&MemberRuntime]) {
    let target = world.leader.epoch();
    let deadline = std::time::Instant::now() + WAIT;
    while members.iter().any(|m| m.group_epoch() != target) {
        assert!(
            std::time::Instant::now() < deadline,
            "epoch propagation timed out: target {target:?}, members {:?}",
            members.iter().map(|m| m.group_epoch()).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn single_member_lifecycle() {
    let world = world(&["alice"], RekeyPolicy::Manual);
    let alice = join(&world, "alice");
    assert_eq!(alice.phase(), SessionPhase::Connected);
    assert_eq!(alice.roster(), Roster::from_iter([id("alice")]));
    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));
    assert_eq!(alice.group_epoch(), Some(1));

    alice.leave().unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    while !world.leader.roster().is_empty() {
        assert!(std::time::Instant::now() < deadline, "leave not processed");
        std::thread::sleep(Duration::from_millis(5));
    }
    world.service.shutdown();
}

#[test]
fn five_member_group_converges() {
    let users = ["u0", "u1", "u2", "u3", "u4"];
    let world = world(&users, RekeyPolicy::OnJoin);
    let members: Vec<MemberRuntime> = users.iter().map(|u| join(&world, u)).collect();
    let refs: Vec<&MemberRuntime> = members.iter().collect();
    sync_epochs(&world, &refs);

    // Everyone sees the same roster.
    let expected: Roster = users.iter().map(|u| id(u)).collect();
    assert_eq!(world.leader.roster(), expected);
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let consistent = members.iter().all(|m| m.roster() == expected);
        if consistent {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "roster propagation");
        std::thread::sleep(Duration::from_millis(5));
    }
    // 5 joins under rekey-on-join (first join no rekey) → epoch 5.
    assert_eq!(world.leader.epoch(), Some(5));
    world.service.shutdown();
}

#[test]
fn group_data_fans_out_to_everyone_but_the_sender() {
    let users = ["a", "b", "c", "d"];
    let world = world(&users, RekeyPolicy::Manual);
    let members: Vec<MemberRuntime> = users.iter().map(|u| join(&world, u)).collect();
    let refs: Vec<&MemberRuntime> = members.iter().collect();
    sync_epochs(&world, &refs);

    members[1].send_group_data(b"from b").unwrap();
    for (i, member) in members.iter().enumerate() {
        if i == 1 {
            continue;
        }
        let event = member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
        match event {
            MemberEvent::Broadcast { from, data, .. } => {
                assert_eq!(from, id("b"));
                assert_eq!(data, b"from b");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // The sender must NOT have received its own message.
    assert!(members[1]
        .wait_event(Duration::from_millis(100), |e| matches!(
            e,
            MemberEvent::Broadcast { .. }
        ))
        .is_err());
    world.service.shutdown();
}

#[test]
fn admin_broadcast_reaches_all_members_in_order() {
    let users = ["a", "b", "c"];
    let world = world(&users, RekeyPolicy::Manual);
    let members: Vec<MemberRuntime> = users.iter().map(|u| join(&world, u)).collect();

    for i in 0..5u8 {
        world.leader.broadcast(&[i]).unwrap();
    }
    for member in &members {
        for i in 0..5u8 {
            let event = member
                .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
                .unwrap();
            assert_eq!(
                event,
                MemberEvent::AdminData(vec![i]),
                "admin order must be preserved (stop-and-wait)"
            );
        }
    }
    world.service.shutdown();
}

#[test]
fn leave_triggers_policy_rekey_and_notices() {
    let users = ["a", "b", "c"];
    let world = world(&users, RekeyPolicy::OnLeave);
    let members: Vec<MemberRuntime> = users.iter().map(|u| join(&world, u)).collect();
    let refs: Vec<&MemberRuntime> = members.iter().collect();
    sync_epochs(&world, &refs);
    let epoch_before = world.leader.epoch().unwrap();

    let mut members = members;
    let c = members.pop().unwrap();
    c.leave().unwrap();

    for member in &members {
        let event = member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
            .unwrap();
        assert_eq!(event, MemberEvent::MemberLeft(id("c")));
        member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
            .unwrap();
    }
    assert_eq!(world.leader.epoch(), Some(epoch_before + 1));
    assert_eq!(world.leader.roster(), Roster::from_iter([id("a"), id("b")]));
    world.service.shutdown();
}

#[test]
fn expel_removes_member_and_rekeys() {
    let users = ["good", "evil"];
    let world = world(&users, RekeyPolicy::OnJoinAndLeave);
    let good = join(&world, "good");
    let _evil = join(&world, "evil");
    let refs = [&good, &_evil];
    sync_epochs(&world, &refs[..]);
    let epoch_before = world.leader.epoch().unwrap();

    world.leader.expel(&id("evil")).unwrap();
    let event = good
        .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
        .unwrap();
    assert_eq!(event, MemberEvent::MemberLeft(id("evil")));
    good.wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
        .unwrap();
    assert_eq!(world.leader.roster(), Roster::from_iter([id("good")]));
    assert_eq!(world.leader.epoch(), Some(epoch_before + 1));
    world.service.shutdown();
}

#[test]
fn member_can_rejoin_after_leaving() {
    let world = world(&["alice"], RekeyPolicy::Manual);
    let alice = join(&world, "alice");
    alice.leave().unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    while !world.leader.roster().is_empty() {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    // Rejoin with a fresh session (new link, new session key).
    let alice2 = join(&world, "alice");
    assert_eq!(alice2.phase(), SessionPhase::Connected);
    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));
    world.service.shutdown();
}

#[test]
fn leader_events_reflect_lifecycle() {
    let world = world(&["alice", "bob"], RekeyPolicy::Manual);
    let _alice = join(&world, "alice");
    let _bob = join(&world, "bob");

    let mut joined = Vec::new();
    let deadline = std::time::Instant::now() + WAIT;
    while joined.len() < 2 && std::time::Instant::now() < deadline {
        if let Ok(LeaderEvent::MemberJoined(m)) = world
            .leader
            .events()
            .recv_timeout(Duration::from_millis(50))
        {
            joined.push(m);
        }
    }
    assert_eq!(joined, vec![id("alice"), id("bob")]);

    let snap = world.leader.obs_registry().snapshot();
    assert!(snap.counter("leader.accepted") >= 4, "{snap}");
    assert_eq!(snap.counter("leader.rejected"), 0);
    world.service.shutdown();
}

#[test]
fn unknown_user_cannot_join() {
    let world = world(&["alice"], RekeyPolicy::Manual);
    let mallory = MemberRuntime::connect(
        world.net.dialer("leader"),
        id("mallory"),
        id("leader"),
        "mallory-pw",
    )
    .unwrap();
    assert!(mallory.wait_joined(Duration::from_millis(300)).is_err());
    assert!(world.leader.roster().is_empty());
    mallory.abandon();
    world.service.shutdown();
}

#[test]
fn wrong_password_cannot_join() {
    let world = world(&["alice"], RekeyPolicy::Manual);
    let imposter = MemberRuntime::connect(
        world.net.dialer("leader"),
        id("alice"),
        id("leader"),
        "wrong-password",
    )
    .unwrap();
    assert!(imposter.wait_joined(Duration::from_millis(300)).is_err());
    assert!(world.leader.roster().is_empty());
    imposter.abandon();
    world.service.shutdown();
}

#[test]
fn member_can_rejoin_after_crash_without_close() {
    // The member vanishes without a ReqClose (crash). Its route at the
    // leader is stale, and the leader still considers it a member. A
    // rejoin must still work once the application expels the ghost:
    // handshake replies travel on the originating link, never a stale
    // route.
    let world = world(&["alice"], RekeyPolicy::Manual);
    let alice = join(&world, "alice");
    alice.abandon();
    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));

    // The ghost still occupies the slot: a rejoin attempt is shielded
    // (the leader cannot distinguish it from a replay).
    world.leader.expel(&id("alice")).unwrap();
    assert!(world.leader.roster().is_empty());

    // Now the rejoin succeeds on a fresh link.
    let alice2 = join(&world, "alice");
    assert_eq!(alice2.phase(), SessionPhase::Connected);
    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));

    // And the new session is fully functional.
    world.leader.broadcast(b"welcome back").unwrap();
    let event = alice2
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    assert_eq!(event, MemberEvent::AdminData(b"welcome back".to_vec()));
    world.service.shutdown();
}
