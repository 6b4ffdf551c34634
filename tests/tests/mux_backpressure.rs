//! Backpressure regression battery for the readiness-loop leader: a
//! member that **stops reading** must not wedge the leader's event loop
//! or starve the other members. The mux's bounded outbound queues make
//! the slow consumer the leader's problem for at most
//! `max_outbound_bytes` bytes — then the default `MuxOverflow::Disconnect`
//! policy drops the connection, the route is cleaned up, and everyone
//! else keeps streaming.
//!
//! The stalled member is a real sans-io [`MemberSession`] driven by hand
//! over a raw `TcpStream`: it completes the full join handshake (so the
//! leader genuinely broadcasts to it) and then never reads again.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{LeaderService, ServiceConfig};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::OsEntropyRng;
use enclaves_net::{MuxConfig, MuxNet, MuxOverflow};
use enclaves_obs::Registry;
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::framing::{read_frame, write_frame};
use enclaves_wire::message::Envelope;
use enclaves_wire::ActorId;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

/// Outbound cap for this test: small enough that a couple of large
/// unread broadcasts trip it, large enough to hold a full welcome.
const CAP: usize = 256 * 1024;

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

fn stall_key() -> LongTermKey {
    LongTermKey::from_bytes([0x77u8; 32])
}

/// Joins `user` over a raw socket by driving the sans-io session by
/// hand; returns the stream (and session) the moment `Welcomed` lands,
/// after which the caller simply never reads again.
fn join_raw(addr: std::net::SocketAddr, user: &ActorId) -> (TcpStream, MemberSession) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(WAIT)).unwrap();
    let (mut session, init) = MemberSession::start_with_key_in_group(
        user.clone(),
        id("leader"),
        stall_key(),
        Box::new(OsEntropyRng::new()),
        None,
    );
    write_frame(&stream, &encode(&init)).unwrap();
    for _ in 0..64 {
        let frame = read_frame(&stream).unwrap();
        let env: Envelope = decode(&frame).unwrap();
        let Ok(output) = session.handle(&env) else {
            continue;
        };
        if let Some(reply) = output.reply {
            write_frame(&stream, &encode(&reply)).unwrap();
        }
        if output
            .events
            .iter()
            .any(|e| matches!(e, MemberEvent::Welcomed { .. }))
        {
            return (stream, session);
        }
    }
    panic!("stalled member never welcomed");
}

#[test]
fn slow_consumer_is_disconnected_not_obeyed() {
    let registry = Registry::new();
    let net = MuxNet::spawn_with_registry(
        MuxConfig {
            max_outbound_bytes: CAP,
            overflow: MuxOverflow::Disconnect,
            ..MuxConfig::default()
        },
        &registry,
    );
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().unwrap(), 2)
        .unwrap();
    let addr = endpoint.local_addr();
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());

    let mut directory = Directory::new();
    directory
        .register_password(&id("healthy"), "healthy-pw")
        .unwrap();
    directory.register_key(&id("stall"), stall_key());
    let handle = service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                ..LeaderConfig::default()
            },
        )
        .unwrap();

    // The healthy member dials from its own default-config loop, so the
    // leader loop's cap and registry count only the leader's queues.
    let client = MuxNet::spawn(MuxConfig::default());
    let healthy = enclaves_core::runtime::MemberRuntime::connect(
        client.dialer(addr),
        id("healthy"),
        id("leader"),
        "healthy-pw",
    )
    .unwrap();
    healthy.wait_joined(WAIT).unwrap();

    let (_stall_stream, _stall_session) = join_raw(addr, &id("stall"));
    handle.wait_member(&id("stall"), WAIT).unwrap();

    // The stalled member never reads again. Pump large broadcasts until
    // its kernel buffers are full and the mux queue blows the cap. The
    // healthy member keeps consuming throughout.
    let payload = vec![0xB5u8; 600 * 1024];
    let deadline = Instant::now() + WAIT;
    let mut sent = 0usize;
    while registry.snapshot().counter("net.loop.overflow_disconnects") == 0 {
        assert!(
            Instant::now() < deadline,
            "slow consumer was never disconnected (queue cap not enforced)"
        );
        handle.broadcast_data(&payload).unwrap();
        sent += 1;
        // Let the healthy member drain so IT never trips the cap.
        healthy
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
    }
    assert!(
        sent >= 1,
        "at least one broadcast was needed to trip the cap"
    );

    // The loop survived: a fresh broadcast still reaches the healthy
    // member after the slow consumer is gone.
    let marker = b"after the purge".to_vec();
    handle.broadcast_data(&marker).unwrap();
    let event = healthy
        .wait_event(
            WAIT,
            |e| matches!(e, MemberEvent::Broadcast { data, .. } if data == &marker),
        )
        .unwrap();
    assert!(matches!(event, MemberEvent::Broadcast { .. }));

    // Queue-depth gauge drains back to zero once the stalled conn's
    // buffered frames die with it and the healthy member catches up.
    let deadline = Instant::now() + WAIT;
    loop {
        let snap = registry.snapshot();
        if snap.gauge("net.loop.queued_bytes") == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queued_bytes never drained: {}",
            snap.gauge("net.loop.queued_bytes")
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let snap = registry.snapshot();
    assert!(
        snap.counter("net.loop.overflow_disconnects") >= 1,
        "disconnect policy must have fired"
    );
    // Membership stays authoritative: the transport dropped the stalled
    // conn but only the application/liveness layer removes members.
    assert!(handle.roster().contains(&id("stall")));

    healthy.leave().unwrap();
    service.shutdown();
    net.shutdown();
    client.shutdown();
}

/// The drop-newest policy variant: the stalled consumer's frames are
/// shed instead of its connection — it stays connected, the leader's
/// queue stays bounded, and the healthy member still gets everything.
#[test]
fn drop_newest_sheds_frames_but_keeps_the_connection() {
    let registry = Registry::new();
    let net = MuxNet::spawn_with_registry(
        MuxConfig {
            max_outbound_bytes: CAP,
            overflow: MuxOverflow::DropNewest,
            ..MuxConfig::default()
        },
        &registry,
    );
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().unwrap(), 2)
        .unwrap();
    let addr = endpoint.local_addr();
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());

    let mut directory = Directory::new();
    directory
        .register_password(&id("healthy"), "healthy-pw")
        .unwrap();
    directory.register_key(&id("stall"), stall_key());
    let handle = service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                ..LeaderConfig::default()
            },
        )
        .unwrap();

    // The healthy member dials from its own default-config loop, so the
    // leader loop's cap and registry count only the leader's queues.
    let client = MuxNet::spawn(MuxConfig::default());
    let healthy = enclaves_core::runtime::MemberRuntime::connect(
        client.dialer(addr),
        id("healthy"),
        id("leader"),
        "healthy-pw",
    )
    .unwrap();
    healthy.wait_joined(WAIT).unwrap();
    let (_stall_stream, _stall_session) = join_raw(addr, &id("stall"));
    handle.wait_member(&id("stall"), WAIT).unwrap();

    let payload = vec![0xC6u8; 600 * 1024];
    let deadline = Instant::now() + WAIT;
    while registry.snapshot().counter("net.loop.overflow_drops") == 0 {
        assert!(
            Instant::now() < deadline,
            "drop-newest policy never shed a frame"
        );
        handle.broadcast_data(&payload).unwrap();
        healthy
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
    }

    let snap = registry.snapshot();
    assert!(snap.counter("net.loop.overflow_drops") >= 1);
    assert_eq!(
        snap.counter("net.loop.overflow_disconnects"),
        0,
        "drop-newest must not disconnect"
    );
    // The queue stayed bounded: the cap plus the one oversized frame an
    // empty queue always admits, per connection.
    let bound = 2 * (CAP + payload.len() + 64);
    assert!(snap.gauge("net.loop.queued_bytes") <= i64::try_from(bound).unwrap());

    healthy.leave().unwrap();
    service.shutdown();
    net.shutdown();
    client.shutdown();
}
