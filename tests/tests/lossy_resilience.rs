//! Resilience under packet loss: the retransmission layer (handshake ARQ
//! on the member, in-flight retransmission on the leader, last-ack cache
//! on the member) lets the group operate over a network that silently
//! drops frames — without weakening any replay defense.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::ActorId;
use std::collections::HashSet;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(20);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

fn run_under_loss(drop_prob: f64, seed: u64) {
    let net = SimNet::new(SimConfig {
        drop_prob,
        duplicate_prob: 0.05,
        reorder_prob: 0.10,
        seed,
        ..SimConfig::default()
    });
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    for user in ["alice", "bob"] {
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

    // Joins complete despite losses (handshake ARQ).
    let alice = MemberRuntime::connect(net.dialer("leader"), id("alice"), id("leader"), "alice-pw")
        .unwrap();
    alice.wait_joined(WAIT).expect("alice join under loss");
    let bob =
        MemberRuntime::connect(net.dialer("leader"), id("bob"), id("leader"), "bob-pw").unwrap();
    bob.wait_joined(WAIT).expect("bob join under loss");

    // Admin broadcasts arrive exactly once each, in order, despite the
    // lossy wire (leader retransmits; member dedupes via the ack cache).
    for i in 0..10u8 {
        leader.broadcast(&[i]).unwrap();
    }
    for i in 0..10u8 {
        let event = alice
            .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
            .expect("admin delivery under loss");
        assert_eq!(event, MemberEvent::AdminData(vec![i]), "order preserved");
    }

    // Rekeys survive loss too.
    let before = alice.group_epoch().unwrap();
    leader.rekey().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
        .expect("rekey under loss");
    assert_eq!(alice.group_epoch(), Some(before + 1));

    let snap = net.obs_registry().snapshot();
    assert!(
        snap.counter("net.dropped") > 0,
        "the network must actually have dropped frames: {snap}"
    );
    service.shutdown();
}

#[test]
fn group_operates_at_10_percent_loss() {
    run_under_loss(0.10, 71);
}

#[test]
fn group_operates_at_25_percent_loss() {
    run_under_loss(0.25, 72);
}

/// The retransmission layer must not weaken replay defenses: after a
/// lossy run, re-injecting every observed frame still has no effect.
#[test]
fn retransmission_does_not_weaken_replay_defense() {
    let net = SimNet::new(SimConfig {
        drop_prob: 0.15,
        seed: 99,
        ..SimConfig::default()
    });
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    directory
        .register_password(&id("alice"), "alice-pw")
        .unwrap();
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service
        .add_group(id("leader"), directory, LeaderConfig::default())
        .unwrap();
    let alice = MemberRuntime::connect(net.dialer("leader"), id("alice"), id("leader"), "alice-pw")
        .unwrap();
    alice.wait_joined(WAIT).unwrap();
    leader.broadcast(b"one").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();

    // Stop losses; replay every frame ever observed, in both directions.
    net.set_config(SimConfig {
        seed: 99,
        ..SimConfig::default()
    });
    let adversary = net.adversary();
    let frames = adversary.observed();
    for f in &frames {
        adversary.inject(f.conn, f.dir, f.frame.clone());
    }
    std::thread::sleep(Duration::from_millis(500));

    // No duplicate admin delivery; session fully live.
    assert!(alice
        .wait_event(Duration::from_millis(200), |e| matches!(
            e,
            MemberEvent::AdminData(_)
        ))
        .is_err());
    leader.broadcast(b"two").unwrap();
    let event = alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    assert_eq!(event, MemberEvent::AdminData(b"two".to_vec()));
    service.shutdown();
}

/// Two members chat over a network that drops, duplicates and reorders:
/// every receiver delivers each payload at most once and, within an
/// epoch, in strictly increasing `seq` — relayed member data rides the
/// broadcast plane's watermark. Once the network is clean again, each
/// member's last payload reaches the other.
#[test]
fn member_chat_under_loss_is_delivered_at_most_once_in_order() {
    const BURST: u8 = 30;
    let net = SimNet::new(SimConfig::lossy(73));
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    for user in ["alice", "bob"] {
        directory
            .register_password(&id(user), &format!("{user}-pw"))
            .unwrap();
    }
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let _leader = service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                ..LeaderConfig::default()
            },
        )
        .unwrap();
    let members: Vec<MemberRuntime> = ["alice", "bob"]
        .into_iter()
        .map(|user| {
            let member = MemberRuntime::connect(
                net.dialer("leader"),
                id(user),
                id("leader"),
                &format!("{user}-pw"),
            )
            .unwrap();
            member.wait_joined(WAIT).expect("join under loss");
            member
        })
        .collect();

    let sent = || net.obs_registry().snapshot().counter("net.sent");
    let before = sent();
    for i in 0..BURST {
        members[0].send_group_data(&[b'a', i]).unwrap();
        members[1].send_group_data(&[b'b', i]).unwrap();
    }
    // Keep the faults on until the uplinks and most relays crossed the
    // wire (sends are asynchronous).
    let deadline = std::time::Instant::now() + WAIT;
    while sent() < before + 3 * u64::from(BURST) {
        assert!(std::time::Instant::now() < deadline, "burst stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
    net.set_config(SimConfig {
        seed: 73,
        ..SimConfig::default()
    });
    members[0].send_group_data(b"a-flush").unwrap();
    members[1].send_group_data(b"b-flush").unwrap();

    let is_data = |e: &MemberEvent| matches!(e, MemberEvent::Broadcast { .. });
    for (member, peer, peer_flush) in [
        (&members[0], "bob", &b"b-flush"[..]),
        (&members[1], "alice", &b"a-flush"[..]),
    ] {
        let mut delivered = Vec::new();
        let mut flushed = false;
        // Everything up to the peer's flush, then any stragglers.
        while let Ok(event) = member.wait_event(
            if flushed {
                Duration::from_millis(300)
            } else {
                WAIT
            },
            is_data,
        ) {
            let MemberEvent::Broadcast {
                from,
                epoch,
                seq,
                data,
            } = event
            else {
                unreachable!("filtered to data");
            };
            assert_eq!(from, id(peer), "only the peer's data is relayed here");
            flushed |= data == peer_flush;
            delivered.push((epoch, seq, data));
        }
        assert!(flushed, "{peer}'s post-flush payload never arrived");
        let distinct: HashSet<&[u8]> = delivered.iter().map(|(_, _, d)| &d[..]).collect();
        assert_eq!(
            distinct.len(),
            delivered.len(),
            "a payload was delivered twice"
        );
        for pair in delivered.windows(2) {
            let ((e0, s0, _), (e1, s1, _)) = (&pair[0], &pair[1]);
            assert!(e0 < e1 || (e0 == e1 && s0 < s1), "seq went back: {pair:?}");
        }
    }
    let snap = net.obs_registry().snapshot();
    assert!(
        snap.counter("net.duplicated") > 0 && snap.counter("net.dropped") > 0,
        "the network must actually have duplicated and dropped frames: {snap}"
    );
    service.shutdown();
}
