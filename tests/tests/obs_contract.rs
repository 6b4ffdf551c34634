//! The observability contract, checked from both ends:
//!
//! * model side — every reachable transition of the exhaustive F2/F3
//!   state machines maps to exactly one `ProtocolEvent` variant (no
//!   silent transitions, no two moves collapsed onto one event, intruder
//!   injections unobservable);
//! * implementation side — a full runtime honest flow actually emits
//!   every event kind the model mapping names, in a stream order
//!   consistent with causality;
//! * names — the README's metric glossary lists exactly the metrics the
//!   leader, member and simulator registries declare, and
//!   `leader.commit_joins` says from the snapshot alone how many joins
//!   each commit admitted, and `leader.duplicate_acks` counts a
//!   member's re-acks apart from the refusals `leader.rejected` counts.

use enclaves_bench::FanoutGroup;
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{LeaderCore, LeaderEvent, MemberEvent, MemberSession};
use enclaves_core::runtime::{LeaderService, MemberOptions, MemberRuntime, ServiceConfig};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::{OsEntropyRng, SeededRng};
use enclaves_model::explore::{Bounds, Explorer, TransitionChecker};
use enclaves_model::leader::LeaderMove;
use enclaves_model::system::{GlobalMove, Scenario, SystemState};
use enclaves_model::user::UserMove;
use enclaves_net::sim::{Direction, SimConfig, SimNet};
use enclaves_obs::{EventKind, EventStream};
use enclaves_verify::live::{BroadcastUniquenessChecker, LiveChecker};
use enclaves_verify::obs::model_event_kind;
use enclaves_wire::codec::decode;
use enclaves_wire::message::{Envelope, MsgType};
use enclaves_wire::ActorId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

/// A stable label per move variant (payload-independent), used as the
/// domain of the mapping built during exploration.
fn move_label(mv: &GlobalMove) -> &'static str {
    match mv {
        GlobalMove::User(UserMove::StartAuth) => "User::StartAuth",
        GlobalMove::User(UserMove::AcceptKeyDist { .. }) => "User::AcceptKeyDist",
        GlobalMove::User(UserMove::AcceptAdmin { .. }) => "User::AcceptAdmin",
        GlobalMove::User(UserMove::Close) => "User::Close",
        GlobalMove::Leader(_, LeaderMove::AcceptAuthInit { .. }) => "Leader::AcceptAuthInit",
        GlobalMove::Leader(_, LeaderMove::AcceptKeyAck { .. }) => "Leader::AcceptKeyAck",
        GlobalMove::Leader(_, LeaderMove::SendAdmin { .. }) => "Leader::SendAdmin",
        GlobalMove::Leader(_, LeaderMove::AcceptAck { .. }) => "Leader::AcceptAck",
        GlobalMove::Leader(_, LeaderMove::AcceptClose) => "Leader::AcceptClose",
        GlobalMove::Intruder(_) => "Intruder",
    }
}

/// Every honest move variant label, i.e. the domain the mapping must be
/// total over.
const HONEST_MOVES: [&str; 9] = [
    "User::StartAuth",
    "User::AcceptKeyDist",
    "User::AcceptAdmin",
    "User::Close",
    "Leader::AcceptAuthInit",
    "Leader::AcceptKeyAck",
    "Leader::SendAdmin",
    "Leader::AcceptAck",
    "Leader::AcceptClose",
];

/// Records the move→event mapping over every explored transition and
/// fails the exploration on any silent or observable-intruder move.
struct MappingCheck {
    seen: Arc<Mutex<BTreeMap<&'static str, &'static str>>>,
}

impl TransitionChecker for MappingCheck {
    fn name(&self) -> &str {
        "model-to-event mapping"
    }

    fn check(
        &self,
        _prev: &SystemState,
        mv: &GlobalMove,
        _next: &SystemState,
    ) -> Result<(), String> {
        match (mv, model_event_kind(mv)) {
            (GlobalMove::Intruder(_), None) => Ok(()),
            (GlobalMove::Intruder(_), Some(kind)) => Err(format!(
                "intruder injection observable as protocol event {kind}"
            )),
            (_, None) => Err(format!(
                "silent transition: honest move {} maps to no event",
                move_label(mv)
            )),
            (_, Some(kind)) => {
                let mut seen = self.seen.lock().unwrap();
                if let Some(prev_kind) = seen.insert(move_label(mv), kind) {
                    if prev_kind != kind {
                        return Err(format!(
                            "unstable mapping: {} maps to both {prev_kind} and {kind}",
                            move_label(mv)
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Exhaustive cross-check: drive `enclaves-model::explore` over the
/// F2/F3 machines (with the intruder enabled) and assert the mapping is
/// total over honest moves, injective, and silent on intruder moves.
#[test]
fn every_reachable_transition_maps_to_exactly_one_event() {
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let mut ex = Explorer::new(
        Scenario::tight(),
        Bounds {
            max_events: 9,
            max_states: 400_000,
        },
    );
    ex.add_transition_checker(Box::new(MappingCheck {
        seen: Arc::clone(&seen),
    }));
    let stats = ex.run();
    assert!(
        ex.violations.is_empty(),
        "mapping violation: {}",
        ex.violations[0]
    );
    assert!(stats.transitions > 0);

    let seen = seen.lock().unwrap();
    // Totality: exploration reached every honest move variant and each
    // produced an event.
    for label in HONEST_MOVES {
        assert!(
            seen.contains_key(label),
            "exploration never reached {label}; deepen the bounds"
        );
    }
    // Injectivity: no two moves collapse onto one event variant.
    let images: BTreeSet<&str> = seen.values().copied().collect();
    assert_eq!(
        images.len(),
        seen.len(),
        "mapping is not injective: {seen:?}"
    );
}

/// Implementation side: one honest runtime flow (join, admin broadcast,
/// data broadcast, rekey, leave) emits every event kind the model mapping
/// names — the mapping is not vacuous.
#[test]
fn runtime_honest_flow_emits_every_mapped_kind() {
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    directory
        .register_password(&id("alice"), "alice-pw")
        .unwrap();
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
    let stream = EventStream::new();
    leader.attach_event_stream(stream.clone());

    let (session, init) =
        MemberSession::start_in_group(id("alice"), id("leader"), "alice-pw", None).unwrap();
    let alice = MemberRuntime::run(
        net.dialer("leader"),
        session,
        init,
        MemberOptions {
            events: Some(stream.clone()),
            ..MemberOptions::default()
        },
    )
    .unwrap();
    alice.wait_joined(WAIT).unwrap();

    leader.broadcast(b"admin payload").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .unwrap();
    leader.broadcast_data(b"data payload").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
        .unwrap();
    leader.rekey().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))
        .unwrap();
    alice.leave().unwrap();
    // The leave is processed asynchronously by the leader; wait for its
    // membership event before reading the stream.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        match leader.events().recv_timeout(Duration::from_millis(50)) {
            Ok(LeaderEvent::MemberLeft(_)) => break,
            Ok(_) => {}
            Err(_) => assert!(
                std::time::Instant::now() < deadline,
                "leader never observed the close"
            ),
        }
    }
    service.shutdown();

    let emitted: BTreeSet<&'static str> = stream.events().iter().map(|e| e.kind.name()).collect();
    // The image of the model mapping (pinned against the model by
    // `every_reachable_transition_maps_to_exactly_one_event`).
    let mapped = [
        "JoinStarted",
        "AuthAccepted",
        "SessionEstablished",
        "MemberJoined",
        "AdminSend",
        "AdminDeliver",
        "AdminAcked",
        "CloseRequested",
        "MemberClosed",
    ];
    for kind in mapped {
        assert!(
            emitted.contains(kind),
            "honest flow never emitted {kind}; emitted = {emitted:?}"
        );
    }
    // Runtime-only kinds the flow must also surface.
    for kind in [
        "Welcomed",
        "Rekeyed",
        "KeyChanged",
        "DataSend",
        "DataDeliver",
    ] {
        assert!(
            emitted.contains(kind),
            "honest flow never emitted {kind}; emitted = {emitted:?}"
        );
    }

    // Causal sanity on the shared stream: the member's Welcomed cannot
    // precede the leader's MemberJoined, a delivery cannot precede its
    // send.
    let events = stream.events();
    let first_index = |name: &str| {
        events
            .iter()
            .position(|e| e.kind.name() == name)
            .unwrap_or(usize::MAX)
    };
    assert!(first_index("JoinStarted") < first_index("AuthAccepted"));
    assert!(first_index("MemberJoined") < first_index("Welcomed"));
    assert!(first_index("AdminSend") < first_index("AdminDeliver"));
    assert!(first_index("DataSend") < first_index("DataDeliver"));
    assert!(first_index("Rekeyed") < first_index("KeyChanged"));
}

/// Relayed member data is on the live oracle's books: the relay emits a
/// `DataSend` naming every member but the origin and each relayed
/// delivery a `DataDeliver`, so the data-plane checker passes an honest
/// run in which the network duplicates the relay, and catches a receiver
/// whose watermark is sabotaged into delivering it twice.
#[test]
fn relayed_member_data_reaches_the_live_oracle() {
    for sabotage in [false, true] {
        let mut world = FanoutGroup::new(3);
        let stream = EventStream::new();
        world.leader.set_event_stream(stream.clone());
        for member in &mut world.members {
            member.set_event_stream(stream.clone());
        }
        if sabotage {
            world.members[1].disable_broadcast_watermark_for_tests();
        }
        let uplink = world.members[0].send_group_data(b"from m0").unwrap();
        let out = world.leader.handle_at(&uplink, Duration::ZERO).unwrap();
        let relay = &out.broadcasts[0];
        let env: Envelope = decode(&relay.frame).unwrap();
        for member in &mut world.members[1..] {
            for _ in 0..2 {
                let _ = member.handle(&env);
            }
        }

        let events = stream.events();
        assert!(events.iter().any(|e| e.kind
            == EventKind::DataSend {
                epoch: relay.epoch,
                seq: relay.seq,
                payload: b"from m0".to_vec(),
                recipients: vec!["m1".into(), "m2".into()],
            }));
        let delivered = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::DataDeliver { .. }))
            .count();
        let violations = BroadcastUniquenessChecker.check(&events, &[], None);
        if sabotage {
            assert_eq!(delivered, 3);
            assert!(
                violations.iter().any(|v| v.detail.contains("twice")),
                "{violations:?}"
            );
        } else {
            assert_eq!(delivered, 2);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }
}

/// Every metric a fresh `LeaderCore`, `MemberSession` or `SimNet`
/// registers has a row in the README's metric glossary, and every
/// `leader.*`, `member.*` or `net.*` name the glossary's first column
/// lists is registered by one of them (the readiness loop's `net.loop.*`
/// names belong to `MuxNet`, not checked here). Counters are read by name
/// and an absent name reads 0, so this is the one checked list of names.
#[test]
fn readme_glossary_names_exactly_the_registered_metrics() {
    let covered = |name: &str| {
        ["leader.", "member.", "net."]
            .iter()
            .any(|prefix| name.starts_with(prefix))
            && !name.starts_with("net.loop.")
    };
    let readme = include_str!("../../README.md");
    let (_, glossary) = readme
        .split_once("Metric glossary")
        .expect("README has a metric glossary");
    let glossary: BTreeSet<&str> = glossary
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|names| names.split('`').skip(1).step_by(2))
        .filter(|name| covered(name))
        .collect();

    let (session, _) =
        MemberSession::start_in_group(id("m0"), id("leader"), "m0-pw", None).unwrap();
    let leader = LeaderCore::with_rng(
        id("leader"),
        Directory::new(),
        LeaderConfig::default(),
        Box::new(OsEntropyRng::new()),
    );
    let net = SimNet::new(SimConfig::default());
    let registered: BTreeSet<String> = [
        leader.obs_registry(),
        session.obs_registry(),
        net.obs_registry(),
    ]
    .iter()
    .flat_map(|registry| {
        let snap = registry.snapshot();
        snap.counters
            .into_keys()
            .chain(snap.gauges.into_keys())
            .chain(snap.histograms.into_keys())
    })
    .collect();

    let unlisted: Vec<&String> = registered
        .iter()
        .filter(|name| !glossary.contains(name.as_str()))
        .collect();
    assert!(
        unlisted.is_empty(),
        "registered, but no README glossary row: {unlisted:?}"
    );
    let unregistered: Vec<&&str> = glossary
        .iter()
        .filter(|name| !registered.contains(**name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "README glossary rows naming no registered metric: {unregistered:?}"
    );
}

/// `leader.commit_joins` is a histogram of joins per commit: a storm the
/// service batched reads fewer records than joins, a one-by-one history
/// one join per record. Three joins staged together and one handled
/// alone are two records of four joins.
#[test]
fn commit_joins_counts_joins_per_commit() {
    let users = ["a", "b", "c", "d"];
    let mut directory = Directory::new();
    let key = |u: &str| LongTermKey::derive_from_password(&format!("pw-{u}"), u).unwrap();
    for u in users {
        directory.register_key(&id(u), key(u));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        tree_rekey: true,
        ..LeaderConfig::default()
    };
    let mut leader = LeaderCore::with_rng(
        id("leader"),
        directory,
        config,
        Box::new(SeededRng::from_seed(4)),
    );
    let acks: Vec<Envelope> = users
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let (mut session, init) = MemberSession::start_with_key_in_group(
                id(u),
                id("leader"),
                key(u),
                Box::new(SeededRng::from_seed(i as u64)),
                None,
            );
            let kd = leader.handle_at(&init, Duration::ZERO).unwrap().outgoing;
            session.handle(&kd[0]).unwrap().reply.unwrap()
        })
        .collect();
    for ack in &acks[..3] {
        leader.stage_at(ack, Duration::ZERO).unwrap();
    }
    leader.commit().unwrap();
    let batched = leader.epoch().unwrap();
    leader.handle_at(&acks[3], Duration::ZERO).unwrap();
    let snapshot = leader.obs_registry().snapshot();
    let joins = &snapshot.histograms["leader.commit_joins"];
    assert_eq!((joins.count, joins.sum), (2, 4));
    assert_eq!(leader.epoch(), Some(batched + 1), "one epoch per commit");
}

/// A verbatim copy of the last ack the leader accepted is what a member
/// sends when a resend crosses its slow ack. Replayed from a connection
/// of its own, it is refused (the member keeps its route) and counted in
/// `leader.duplicate_acks`, neither in `leader.rejected` nor as a
/// `Rejected` event; the same ack with one bit flipped still is both.
#[test]
fn duplicate_acks_are_counted_apart_from_rejections() {
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let mut directory = Directory::new();
    directory
        .register_password(&id("alice"), "alice-pw")
        .unwrap();
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
    let alice = MemberRuntime::connect(net.dialer("leader"), id("alice"), id("leader"), "alice-pw")
        .unwrap();
    alice.wait_joined(WAIT).unwrap();

    let count = |name: &str| service.snapshot().counter(name);
    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + WAIT;
        while !done() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    // Alice's one ack is her Welcome's; replay it only once the leader
    // has accepted the original (her init, key ack and this ack).
    let acks = || {
        net.adversary()
            .observed_on(0, Direction::ToListener)
            .into_iter()
            .filter(|frame| decode::<Envelope>(frame).is_ok_and(|env| env.msg_type == MsgType::Ack))
            .collect::<Vec<_>>()
    };
    wait_until("the Welcome acked", &|| {
        acks().len() == 1 && count("leader.accepted") >= 3
    });
    let ack = acks().remove(0);
    let mut forged = ack.to_vec();
    *forged.last_mut().unwrap() ^= 1;
    let replayer = net.connect("mallory", "leader").unwrap();
    let rejected = count("leader.rejected");

    replayer.send(ack).unwrap();
    wait_until("one duplicate ack", &|| count("leader.duplicate_acks") == 1);
    replayer.send(forged.into()).unwrap();
    wait_until("one more rejection", &|| {
        count("leader.rejected") == rejected + 1
    });
    assert_eq!(count("leader.duplicate_acks"), 1);
    let refusals: Vec<LeaderEvent> = leader
        .events()
        .try_iter()
        .filter(|e| matches!(e, LeaderEvent::Rejected { .. }))
        .collect();
    assert_eq!(
        refusals.len(),
        1,
        "only the forged frame is reported: {refusals:?}"
    );

    leader.broadcast(b"still routed").unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
        .expect("alice keeps her route");
    service.shutdown();
}
