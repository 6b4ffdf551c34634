//! The same protocol stack over real TCP — on **both** transport
//! backends: the thread-per-link `tcp` module and the readiness-loop
//! `mux` module. The scenarios are shared (one harness, one body per
//! scenario); each backend gets its own `#[test]` so a regression names
//! the backend in the failure. A mixed-fleet test pins wire parity: a
//! threaded-transport member and a readiness-loop member joined to the
//! same readiness-loop leader service, proving the bytes on the wire are
//! backend-agnostic.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{LeaderRuntime, LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::tcp::{TcpAcceptor, TcpLink};
use enclaves_net::{Link, Listener, MuxConfig, MuxNet};
use enclaves_wire::{ActorId, Roster};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

/// One transport backend under test: a bound listener for the leader, a
/// way for members to dial it, and whatever has to stay alive while the
/// sockets are in use (the mux's event-loop handle).
struct Backend {
    listener: Box<dyn Listener>,
    connect: Box<dyn Fn() -> Box<dyn Link>>,
    net: Option<MuxNet>,
}

impl Backend {
    /// Thread-per-link: `TcpAcceptor` + `TcpLink`, two threads per
    /// connection.
    fn threaded() -> Backend {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = acceptor.local_addr();
        Backend {
            listener: Box::new(acceptor),
            connect: Box::new(move || Box::new(TcpLink::connect(addr).unwrap())),
            net: None,
        }
    }

    /// Readiness-loop: every socket on both sides owned by one `MuxNet`
    /// event-loop thread, surfaced through the same `Link`/`Listener`
    /// traits so the runtimes run unchanged.
    fn readiness_loop() -> Backend {
        let net = MuxNet::spawn(MuxConfig::default());
        let acceptor = net.listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = acceptor.local_addr();
        let dial = net.clone();
        Backend {
            listener: Box::new(acceptor),
            connect: Box::new(move || Box::new(dial.connect(addr).unwrap())),
            net: Some(net),
        }
    }
}

/// Stops the backend's event loop (if it has one) after the sockets are
/// done.
fn finish(net: Option<MuxNet>) {
    if let Some(net) = net {
        net.shutdown();
    }
}

/// Full group lifecycle over real sockets: join, epoch convergence,
/// bidirectional group data, clean leave.
fn group_over_loopback(backend: Backend) {
    let Backend {
        listener,
        connect,
        net,
    } = backend;
    let mut directory = Directory::new();
    for user in ["alice", "bob"] {
        directory
            .register_password(&id(user), &format!("{user}-pw"))
            .unwrap();
    }
    let leader = LeaderRuntime::spawn(
        listener,
        id("leader"),
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::OnJoinAndLeave,
            ..LeaderConfig::default()
        },
    );

    let alice = MemberRuntime::connect(connect(), id("alice"), id("leader"), "alice-pw").unwrap();
    alice.wait_joined(WAIT).unwrap();

    let bob = MemberRuntime::connect(connect(), id("bob"), id("leader"), "bob-pw").unwrap();
    bob.wait_joined(WAIT).unwrap();

    // Wait for epoch convergence (bob's join rekeyed).
    let deadline = std::time::Instant::now() + WAIT;
    while alice.group_epoch() != leader.epoch() || bob.group_epoch() != leader.epoch() {
        assert!(std::time::Instant::now() < deadline, "epoch sync");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Bidirectional group data over TCP.
    alice.send_group_data(b"over tcp").unwrap();
    let event = bob
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupData { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::GroupData { data, .. } if data == b"over tcp"));

    bob.send_group_data(b"ack over tcp").unwrap();
    let event = alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupData { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::GroupData { data, .. } if data == b"ack over tcp"));

    bob.leave().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
        .unwrap();
    assert_eq!(leader.roster(), Roster::from_iter([id("alice")]));

    alice.leave().unwrap();
    leader.shutdown();
    finish(net);
}

/// A member process dying without a close must not take the group down:
/// membership stays authoritative until the application expels.
fn member_crash_does_not_break_group(backend: Backend) {
    let Backend {
        listener,
        connect,
        net,
    } = backend;
    let mut directory = Directory::new();
    for user in ["alice", "bob"] {
        directory
            .register_password(&id(user), &format!("{user}-pw"))
            .unwrap();
    }
    let leader = LeaderRuntime::spawn(listener, id("leader"), directory, LeaderConfig::default());

    let alice = MemberRuntime::connect(connect(), id("alice"), id("leader"), "alice-pw").unwrap();
    alice.wait_joined(WAIT).unwrap();
    let bob = MemberRuntime::connect(connect(), id("bob"), id("leader"), "bob-pw").unwrap();
    bob.wait_joined(WAIT).unwrap();

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
    leader.shutdown();
    finish(net);
}

#[test]
fn group_over_loopback_tcp() {
    group_over_loopback(Backend::threaded());
}

#[test]
fn group_over_loopback_readiness_loop() {
    group_over_loopback(Backend::readiness_loop());
}

#[test]
fn tcp_member_crash_does_not_break_group() {
    member_crash_does_not_break_group(Backend::threaded());
}

#[test]
fn readiness_loop_member_crash_does_not_break_group() {
    member_crash_does_not_break_group(Backend::readiness_loop());
}

/// Wire parity across backends: a readiness-loop leader *service* (event
/// mode, shard handlers, no per-connection threads) serving one member on
/// the threaded transport and one on the readiness-loop client — the
/// same bytes, three different I/O engines, one group.
#[test]
fn mixed_fleet_joins_one_readiness_loop_leader() {
    let net = MuxNet::spawn(MuxConfig::default());
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().unwrap(), 2)
        .unwrap();
    let addr = endpoint.local_addr();
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());

    let mut directory = Directory::new();
    for user in ["threaded", "looped"] {
        directory
            .register_password(&id(user), &format!("{user}-pw"))
            .unwrap();
    }
    let handle = service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::OnJoinAndLeave,
                ..LeaderConfig::default()
            },
        )
        .unwrap();

    // One member over the thread-per-link transport...
    let threaded = MemberRuntime::connect(
        Box::new(TcpLink::connect(addr).unwrap()),
        id("threaded"),
        id("leader"),
        "threaded-pw",
    )
    .unwrap();
    threaded.wait_joined(WAIT).unwrap();

    // ...and one over the readiness-loop client.
    let looped = MemberRuntime::connect(
        Box::new(net.connect(addr).unwrap()),
        id("looped"),
        id("leader"),
        "looped-pw",
    )
    .unwrap();
    looped.wait_joined(WAIT).unwrap();

    handle.wait_member(&id("threaded"), WAIT).unwrap();
    handle.wait_member(&id("looped"), WAIT).unwrap();

    // Wait for epoch convergence (the second join rekeyed): a broadcast
    // sealed under an epoch a member does not hold yet is dropped.
    let deadline = std::time::Instant::now() + WAIT;
    while threaded.group_epoch() != handle.epoch() || looped.group_epoch() != handle.epoch() {
        assert!(std::time::Instant::now() < deadline, "epoch sync");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Leader broadcast reaches both fleets.
    handle.broadcast_data(b"mixed fleet").unwrap();
    for member in [&threaded, &looped] {
        let event = member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
        assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"mixed fleet"));
    }

    // Member-to-member relay crosses the backend boundary both ways.
    threaded.send_group_data(b"from threaded").unwrap();
    let event = looped
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupData { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::GroupData { data, .. } if data == b"from threaded"));

    looped.send_group_data(b"from looped").unwrap();
    let event = threaded
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupData { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::GroupData { data, .. } if data == b"from looped"));

    threaded.leave().unwrap();
    looped.leave().unwrap();
    service.shutdown();
    net.shutdown();
}
