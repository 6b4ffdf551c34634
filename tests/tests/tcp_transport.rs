//! The same protocol stack over real TCP: a leader service on the
//! readiness loop ([`LeaderService::spawn_mux`]: event shards, no
//! per-connection threads) and members dialing it from a second loop
//! through the loop's dialer, hosted by one-shard member hosts — every
//! socket on both sides owned by a `MuxNet` event-loop thread.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{GroupHandle, LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::{MuxConfig, MuxNet};
use enclaves_wire::{ActorId, Roster};
use std::net::SocketAddr;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

/// A one-group leader service on its own loop, and the loop its members
/// dial from.
struct Loopback {
    server: MuxNet,
    client: MuxNet,
    addr: SocketAddr,
    service: LeaderService,
    leader: GroupHandle,
}

impl Loopback {
    fn start(config: LeaderConfig) -> Loopback {
        let server = MuxNet::spawn(MuxConfig::default());
        let endpoint = server
            .listen_events("127.0.0.1:0".parse().unwrap(), 2)
            .unwrap();
        let addr = endpoint.local_addr();
        let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());
        let mut directory = Directory::new();
        for user in ["alice", "bob"] {
            directory
                .register_password(&id(user), &format!("{user}-pw"))
                .unwrap();
        }
        let leader = service.add_group(id("leader"), directory, config).unwrap();
        Loopback {
            server,
            client: MuxNet::spawn(MuxConfig::default()),
            addr,
            service,
            leader,
        }
    }

    fn join(&self, user: &str) -> MemberRuntime {
        let member = MemberRuntime::connect(
            self.client.dialer(self.addr),
            id(user),
            id("leader"),
            &format!("{user}-pw"),
        )
        .unwrap();
        member.wait_joined(WAIT).unwrap();
        member
    }

    /// Stops the service, then both loops.
    fn finish(self) {
        self.service.shutdown();
        self.server.shutdown();
        self.client.shutdown();
    }
}

/// Full group lifecycle over real sockets: join, epoch convergence, a
/// leader data-plane broadcast reaching every member, bidirectional
/// group data, clean leave.
#[test]
fn group_over_loopback_readiness_loop() {
    let world = Loopback::start(LeaderConfig {
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
        ..LeaderConfig::default()
    });
    let leader = &world.leader;
    let alice = world.join("alice");
    let bob = world.join("bob");

    // Wait for epoch convergence (bob's join rekeyed): a broadcast sealed
    // under an epoch a member does not hold yet is dropped.
    let deadline = std::time::Instant::now() + WAIT;
    while alice.group_epoch() != leader.epoch() || bob.group_epoch() != leader.epoch() {
        assert!(std::time::Instant::now() < deadline, "epoch sync");
        std::thread::sleep(Duration::from_millis(10));
    }

    // One sealed frame, handed to the leader's loop as one multicast and
    // written once to every member's socket. With every admin exchange
    // acknowledged, nothing else is in flight to move the counters.
    while !leader.quiesced() {
        assert!(std::time::Instant::now() < deadline, "quiesce");
        std::thread::sleep(Duration::from_millis(10));
    }
    let loop_metrics = world.server.obs_registry();
    let before = loop_metrics.snapshot();
    let receipt = leader.broadcast_data(b"to everyone").unwrap();
    for member in [&alice, &bob] {
        let event = member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
        assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"to everyone"));
    }
    // A member can read its copy before the leader's loop has counted
    // the write; `fanout_ns` is recorded once the last one returned.
    let fanouts = |snap: &enclaves_obs::Snapshot| snap.histograms["net.loop.fanout_ns"].count;
    let after = loop {
        let snap = loop_metrics.snapshot();
        if fanouts(&snap) > fanouts(&before) {
            break snap;
        }
        assert!(std::time::Instant::now() < deadline, "fan-out recorded");
        std::thread::sleep(Duration::from_millis(1));
    };
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(fanouts(&after) - fanouts(&before), 1);
    assert_eq!(delta("net.loop.multicasts"), 1);
    assert_eq!(
        delta("net.loop.frames_out"),
        receipt.recipients.len() as u64
    );

    // Bidirectional group data over TCP.
    alice.send_group_data(b"over tcp").unwrap();
    let event = bob
        .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"over tcp"));

    bob.send_group_data(b"ack over tcp").unwrap();
    let event = alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"ack over tcp"));

    bob.leave().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
        .unwrap();
    assert_eq!(leader.roster(), Roster::from_iter([id("alice")]));

    alice.leave().unwrap();
    world.finish();
}

/// A member process dying without a close must not take the group down:
/// membership stays authoritative until the application expels.
#[test]
fn readiness_loop_member_crash_does_not_break_group() {
    let world = Loopback::start(LeaderConfig::default());
    let leader = &world.leader;
    let alice = world.join("alice");
    let bob = world.join("bob");

    // Bob's process dies without a close.
    bob.abandon();
    std::thread::sleep(Duration::from_millis(100));

    // The group state is authoritative: bob is still a member until the
    // application expels him; the leader keeps serving alice.
    assert_eq!(leader.roster(), Roster::from_iter([id("alice"), id("bob")]));
    leader.expel(&id("bob")).unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
        .unwrap();
    assert_eq!(leader.roster(), Roster::from_iter([id("alice")]));
    world.finish();
}
