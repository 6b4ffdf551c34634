//! Shared-ticker fairness: one [`LeaderService`] ticker drives the
//! liveness deadlines of *every* hosted group, so a busy neighbourhood
//! must not stretch a quiet group's clocks. Both deadline families are
//! measured on a virtual clock, alone and then surrounded by filler
//! groups whose dead members keep the ticker busy with retransmissions
//! and evictions:
//!
//! * **failure-detector deadline** — a silent-but-connected member is
//!   evicted when `liveness_timeout` virtual time passes;
//! * **ARQ give-up deadline** — a member whose wire died with an admin
//!   frame outstanding is evicted when the bounded backoff schedule
//!   (`retransmit_base` doubling to `retransmit_max`, `max_attempts`
//!   resends, then one more backoff for the last) is exhausted.
//!
//! The regression this guards: a ticker that serializes per-group
//! sleeps, skips groups under load, or lets one group's core lock stall
//! the sweep would move these deadlines by whole multiples; sweeping
//! more groups per poll must not.
//!
//! [`LeaderService`]: enclaves_core::runtime::LeaderService

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::liveness::{Clock, LivenessConfig, VirtualClock};
use enclaves_core::protocol::{LeaderEvent, MemberSession};
use enclaves_core::runtime::{
    GroupHandle, LeaderService, MemberOptions, MemberRuntime, ServiceConfig,
};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::{ActorId, GroupId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

/// Deterministic (jitter-free) liveness knobs for the group under test.
fn probe_liveness(timeout: Option<Duration>) -> LivenessConfig {
    LivenessConfig {
        retransmit_base: Duration::from_millis(100),
        retransmit_max: Duration::from_millis(800),
        jitter_pct: 0,
        max_attempts: 5,
        liveness_timeout: timeout,
        ..LivenessConfig::default()
    }
}

fn add_group(
    service: &LeaderService,
    tag: &str,
    user: &str,
    liveness: LivenessConfig,
) -> GroupHandle {
    let mut directory = Directory::new();
    directory
        .register_password(&id(user), &format!("{user}-pw"))
        .unwrap();
    service
        .add_group(
            id("leader"),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                group: Some(GroupId::new(tag).unwrap()),
                liveness,
                ..LeaderConfig::default()
            },
        )
        .unwrap()
}

/// Joins `user` into `tag` and returns the runtime plus the sim conn id
/// (for wire kills).
fn join(net: &SimNet, tag: &str, user: &str, handle: &GroupHandle) -> (MemberRuntime, usize) {
    // The member's dial opens the net's next connection.
    let conn = net.adversary().connections();
    let (session, init) = MemberSession::start_in_group(
        id(user),
        id("leader"),
        &format!("{user}-pw"),
        Some(GroupId::new(tag).unwrap()),
    )
    .unwrap();
    let member =
        MemberRuntime::run(net.dialer("svc"), session, init, MemberOptions::default()).unwrap();
    member.wait_joined(WAIT).unwrap();
    handle.wait_member(&id(user), WAIT).unwrap();
    (member, conn)
}

/// Virtual time (ms since the scenario's epoch) at which `handle`
/// reports its member evicted.
fn eviction_virtual_ms(handle: &GroupHandle, clock: &VirtualClock, since: Duration) -> u64 {
    let deadline = Instant::now() + WAIT;
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .expect("eviction within the real-time budget");
        match handle.events().recv_timeout(left) {
            Ok(LeaderEvent::MemberEvicted(_)) => {
                return u64::try_from((clock.now() - since).as_millis()).unwrap();
            }
            Ok(_) => {}
            Err(e) => panic!("no eviction event: {e:?}"),
        }
    }
}

/// Runs the two probe groups on a service shared with `filler` busy
/// groups; returns (failure-detector eviction ms, ARQ give-up ms) in
/// virtual time.
fn scenario(filler: usize) -> (u64, u64) {
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("svc").unwrap();
    let clock = VirtualClock::new();
    let service = LeaderService::spawn(
        Box::new(listener),
        ServiceConfig {
            clock: Some(Arc::new(clock.clone()) as Arc<dyn Clock>),
            ..ServiceConfig::default()
        },
    );

    // Quiet probes: one member each, with the clock frozen so nothing
    // ages until the whole neighbourhood is in place.
    let timeout_probe = add_group(
        &service,
        "quiet-fd",
        "alice",
        probe_liveness(Some(Duration::from_millis(2000))),
    );
    let (_alice, _) = join(&net, "quiet-fd", "alice", &timeout_probe);
    let arq_probe = add_group(&service, "quiet-arq", "bob", probe_liveness(None));
    let (_bob, bob_conn) = join(&net, "quiet-arq", "bob", &arq_probe);

    // Fillers: each group's sole member joins, its wire dies silently,
    // and an admin broadcast is left outstanding — every ticker sweep
    // now reseals retransmissions and eventually evicts, which is
    // exactly the load a lazy ticker would let leak into the probes.
    let mut fillers = Vec::new();
    for i in 0..filler {
        let tag = format!("busy{i}");
        let handle = add_group(&service, &tag, "carol", probe_liveness(None));
        let (member, conn) = join(&net, &tag, "carol", &handle);
        net.kill(conn);
        handle.broadcast(b"filler load").unwrap();
        fillers.push((handle, member));
    }

    // Bob's wire dies with one admin frame outstanding: his eviction is
    // the ARQ give-up deadline. Alice stays connected but silent: hers
    // is the failure-detector deadline.
    net.kill(bob_conn);
    arq_probe.broadcast(b"probe").unwrap();
    let since = clock.now();

    // Pump virtual time in small steps (one big leap would fire every
    // deadline in one sweep and erase the ordering being measured).
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
                clock.advance(Duration::from_millis(5));
            }
        })
    };

    let fd_ms = eviction_virtual_ms(&timeout_probe, &clock, since);
    let arq_ms = eviction_virtual_ms(&arq_probe, &clock, since);

    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    service.shutdown();
    (fd_ms, arq_ms)
}

/// The deadlines land where the schedule says, alone or surrounded by
/// sixteen groups of retransmission load, and the load shifts them by
/// less than a handful of poll quanta.
#[test]
fn shared_ticker_keeps_quiet_group_deadlines_under_neighbour_load() {
    let (fd_alone, arq_alone) = scenario(0);
    let (fd_loaded, arq_loaded) = scenario(16);

    // Absolute sanity: the failure detector fires after its 2000ms
    // timeout, the ARQ give-up after its 3100ms backoff sum (five resends
    // at 100+200+400+800+800, then the 800ms the last one is given),
    // both detected within ticker granularity.
    for (label, ms, floor) in [
        ("fd alone", fd_alone, 2000),
        ("fd loaded", fd_loaded, 2000),
        ("arq alone", arq_alone, 3100),
        ("arq loaded", arq_loaded, 3100),
    ] {
        assert!(
            (floor..floor + 2500).contains(&ms),
            "{label}: eviction at {ms}ms virtual, expected within [{floor}, {})",
            floor + 2500
        );
    }

    // Fairness: sixteen busy neighbours may cost poll jitter, not
    // multiples of the deadline.
    let fd_skew = fd_loaded.abs_diff(fd_alone);
    let arq_skew = arq_loaded.abs_diff(arq_alone);
    assert!(
        fd_skew <= 1250,
        "failure-detector deadline skewed {fd_skew}ms under load ({fd_alone} vs {fd_loaded})"
    );
    assert!(
        arq_skew <= 1250,
        "ARQ give-up deadline skewed {arq_skew}ms under load ({arq_alone} vs {arq_loaded})"
    );
}
