//! Intrusion-tolerance tests at the runtime level: a Dolev-Yao adversary
//! on the wire (the `enclaves-net` tap) replays, redirects, and floods
//! live sessions. The sessions must neither accept forged traffic nor
//! fall over.

use enclaves_core::attacks;
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{GroupHandle, LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{Direction, SimConfig, SimNet};
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

fn world(users: &[&str]) -> World {
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
                rekey_policy: RekeyPolicy::Manual,
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

/// Replaying every observed frame back at both ends must not disturb the
/// session: all replays are rejected, the session stays live.
#[test]
fn wholesale_replay_of_all_frames_is_harmless() {
    let world = world(&["alice"]);
    let alice = join(&world, "alice");
    world.leader.broadcast(b"tick").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();

    // Tap everything seen so far and replay it all, both directions.
    let adversary = world.net.adversary();
    let observed = adversary.observed();
    assert!(
        observed.len() >= 5,
        "handshake + admin exchange on the wire"
    );
    for frame in &observed {
        adversary.inject(frame.conn, frame.dir, frame.frame.clone());
    }
    std::thread::sleep(Duration::from_millis(300));

    // No duplicate admin data surfaced.
    assert!(alice
        .wait_event(Duration::from_millis(200), |e| matches!(
            e,
            MemberEvent::AdminData(_)
        ))
        .is_err());

    // The session is still fully functional.
    world.leader.broadcast(b"tock").unwrap();
    let event = alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    assert_eq!(event, MemberEvent::AdminData(b"tock".to_vec()));

    // Replays were rejected (counted) somewhere.
    let rejected = world
        .leader
        .obs_registry()
        .snapshot()
        .counter("leader.rejected")
        + alice.obs_registry().snapshot().counter("member.rejected");
    assert!(
        rejected > 0,
        "replays must be rejected, not silently accepted"
    );
    world.service.shutdown();
}

/// A garbage flood (random bytes, malformed envelopes) must not kill any
/// session.
#[test]
fn garbage_flood_does_not_break_sessions() {
    let world = world(&["alice", "bob"]);
    let alice = join(&world, "alice");
    let bob = join(&world, "bob");
    let adversary = world.net.adversary();

    for i in 0..50u8 {
        // To the leader on alice's connection, and to alice.
        adversary.inject(
            0,
            Direction::ToListener,
            vec![i; (i as usize % 40) + 1].into(),
        );
        adversary.inject(0, Direction::ToConnector, vec![i ^ 0xFF; 20].into());
        // And on bob's connection.
        adversary.inject(1, Direction::ToListener, vec![0xAA, i].into());
    }
    std::thread::sleep(Duration::from_millis(300));

    // Group communication still works in both directions.
    alice.send_group_data(b"still here").unwrap();
    let event = bob
        .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"still here"));
    world.leader.broadcast(b"all good").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    world.service.shutdown();
}

/// A forged `ReqClose` (valid envelope, attacker-chosen key) must not
/// expel the member — unlike the legacy protocol's cleartext close.
#[test]
fn forged_close_does_not_expel() {
    let world = world(&["alice"]);
    let alice = join(&world, "alice");

    let forged = enclaves_wire::message::Envelope {
        msg_type: enclaves_wire::message::MsgType::ReqClose,
        sender: id("alice"),
        recipient: id("leader"),
        group: None,
        body: enclaves_wire::message::seal(
            &[0x66; 32],
            enclaves_crypto::nonce::AeadNonce::from_bytes([0; 12]),
            &enclaves_wire::message::Envelope {
                msg_type: enclaves_wire::message::MsgType::ReqClose,
                sender: id("alice"),
                recipient: id("leader"),
                group: None,
                body: vec![],
            }
            .header_aad(),
            &enclaves_wire::message::ClosePlain {
                user: id("alice"),
                leader: id("leader"),
            },
        ),
    };
    let adversary = world.net.adversary();
    adversary.inject(
        0,
        Direction::ToListener,
        enclaves_wire::codec::encode(&forged).into(),
    );
    std::thread::sleep(Duration::from_millis(200));

    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));
    // And the session still works.
    world.leader.broadcast(b"alive").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    world.service.shutdown();
}

/// A replayed rekey admin message must not roll the member's group key
/// back (the improved counterpart of the paper's §2.3 rekey attack, at
/// the wire level).
#[test]
fn replayed_rekey_frame_does_not_roll_back() {
    let world = world(&["alice"]);
    let alice = join(&world, "alice");
    let adversary = world.net.adversary();

    // First rekey: capture the frames that flowed leader→alice.
    world.leader.rekey().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
        .unwrap();
    let after_first = adversary.observed_on(0, Direction::ToConnector);

    // Second rekey.
    world.leader.rekey().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
        .unwrap();
    let epoch = alice.group_epoch().unwrap();
    assert_eq!(epoch, 3);

    // Replay ALL earlier leader→alice frames (including the first rekey).
    for frame in after_first {
        adversary.inject(0, Direction::ToConnector, frame);
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        alice.group_epoch(),
        Some(epoch),
        "group key must not roll back"
    );
    assert!(
        alice.obs_registry().snapshot().counter("member.rejected") > 0,
        "replays must be counted"
    );
    world.service.shutdown();
}

/// The attack matrix from the envelope-level scripts, re-asserted here as
/// an integration-level invariant.
#[test]
fn attack_matrix_matches_paper() {
    for report in attacks::run_all() {
        match report.against {
            attacks::ProtocolKind::Legacy => {
                assert!(report.succeeded, "legacy should fall to {report}");
            }
            attacks::ProtocolKind::Improved => {
                assert!(!report.succeeded, "improved should resist {report}");
            }
        }
    }
}

/// Route-capture defense: an attacker connection replaying a member's
/// captured (valid!) GroupData frame must not steal that member's route —
/// the member keeps receiving leader traffic afterwards.
#[test]
fn replayed_frame_from_foreign_link_cannot_capture_route() {
    let world = world(&["alice"]);
    let alice = join(&world, "alice");

    // Alice sends group data; the adversary records the frame.
    alice.send_group_data(b"mine").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let adversary = world.net.adversary();
    let captured = adversary.observed_on(0, Direction::ToListener);
    assert!(!captured.is_empty());

    // The attacker opens its OWN connection and replays every captured
    // frame from there (conn index 1).
    let attacker_link = world.net.connect("mallory", "leader").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    for frame in &captured {
        attacker_link.send(frame.clone()).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));

    // Alice must still receive leader traffic: her route was not stolen.
    world.leader.broadcast(b"post-attack").unwrap();
    let event = alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .expect("alice must still be routable after the replay attempt");
    assert_eq!(event, MemberEvent::AdminData(b"post-attack".to_vec()));
    drop(attacker_link);
    world.service.shutdown();
}
