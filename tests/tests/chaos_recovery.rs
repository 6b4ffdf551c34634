//! Crash-recovery acceptance battery: `kill -9` the leader mid-run,
//! restart it from the sealed write-ahead journal, and prove — through
//! the same §5.4 oracle as every other chaos run — that the world
//! re-converges: every surviving member rejoins
//! on its own, the group lands in a **strictly newer** epoch than
//! anything the dead leader ever served, and the final AEAD probe opens
//! for the whole cast. Plus the rewind defense: restoring a stale
//! journal snapshot behind a newer fence must land past the fence, not
//! back on epochs members have already seen. And the wiring: the same
//! restart with the leader in readiness-loop (event) mode over loopback
//! TCP, the production transport on the production durability.

use enclaves_chaos::{run_crash_restart, ChaosEvent, ChaosOptions, Schedule, SimFabric};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::journal::{label_for, JournalDir};
use enclaves_core::protocol::MemberSession;
use enclaves_core::runtime::{LeaderService, MemberOptions, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_net::{MuxConfig, MuxNet};
use enclaves_obs::EventKind;
use enclaves_wire::{ActorId, GroupId};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// Self-cleaning unique temp directory (no tempfile crate in-tree).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "enclaves-chaos-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One full kill-9 → restart → re-convergence cycle at a fixed seed.
fn crash_restart_converges(seed: u64) {
    let dir = TempDir::new(&format!("kill9-{seed:x}"));
    // Generation 1: three members join, traffic flows, the epoch moves.
    let schedule = Schedule::scripted(
        seed,
        4,
        vec![
            ChaosEvent::Join(0),
            ChaosEvent::Join(1),
            ChaosEvent::Join(2),
            ChaosEvent::DataBroadcast(b"pre-crash data".to_vec()),
            ChaosEvent::Rekey,
            ChaosEvent::AdminBroadcast(b"pre-crash admin".to_vec()),
            ChaosEvent::Settle(200),
        ],
    );
    // Generation 2 (after the kill and journal recovery): traffic again,
    // another rotation, and a brand-new member admitted from the
    // *recovered* directory — the dead leader's genesis record is the
    // only place its password survived.
    let post = vec![
        ChaosEvent::DataBroadcast(b"post-restart data".to_vec()),
        ChaosEvent::Rekey,
        ChaosEvent::Join(3),
        ChaosEvent::DataBroadcast(b"post-join data".to_vec()),
    ];
    let options = ChaosOptions {
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
        liveness: true,
        ..ChaosOptions::default()
    };
    let mut fabric = SimFabric::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let verdict = run_crash_restart(&mut fabric, &schedule, &post, &options, &dir.0);

    if std::env::var_os("CHAOS_RECOVERY_TRACE").is_some() {
        for event in &verdict.outcome.obs_events {
            eprintln!("seq {}: {:?}", event.seq, event.kind);
        }
        for fault in &verdict.outcome.faults {
            eprintln!("fault: {fault:?}");
        }
    }
    let violations = verdict
        .outcome
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        verdict.outcome.passed(),
        "oracle violations across the crash-restart run (seed {seed:#x}):\n{violations}"
    );
    assert!(
        verdict.failed_streams.is_empty(),
        "no stream may fail replay: {:?}",
        verdict.failed_streams
    );

    // Strictly-newer-epoch convergence: the recovered epoch already
    // fences off everything the dead leader served, and the final epoch
    // never falls back.
    let pre = verdict
        .pre_crash_epoch
        .expect("members joined before the kill");
    let recovered = verdict.recovered_epoch.expect("the journal held an epoch");
    let fin = verdict.final_epoch.expect("the group survived the restart");
    assert!(
        recovered > pre,
        "recovery must land strictly past the pre-crash epoch ({recovered} vs {pre})"
    );
    assert!(fin >= recovered, "the final epoch never rewinds");
    assert_eq!(
        verdict.recovered_members, 3,
        "the journal must reconstruct the full pre-crash roster"
    );
    assert!(
        verdict.recovered_fenced,
        "the epoch rotations before the kill must have left a fence"
    );

    // No cross-epoch delivery: nothing sealed under a pre-crash epoch is
    // ever delivered once the restarted leader is serving.
    let mut post_restart = false;
    for event in &verdict.outcome.obs_events {
        match event.kind {
            EventKind::DataSend { epoch, .. } if epoch >= recovered => post_restart = true,
            EventKind::DataDeliver { epoch, .. } if post_restart => {
                assert!(
                    epoch >= recovered,
                    "delivery at dead epoch {epoch} after the restart served {recovered}"
                );
            }
            _ => {}
        }
    }

    // The recovery metrics rode into the merged snapshot.
    let snap = &verdict.outcome.snapshot;
    assert_eq!(snap.counter("recovery.groups_ok"), 1);
    assert_eq!(snap.counter("recovery.groups_failed"), 0);
    assert!(
        snap.counter("recovery.records_replayed") >= 4,
        "genesis + three joins at minimum"
    );
    assert!(
        snap.counter("leader.journal.appends") >= snap.counter("recovery.records_replayed"),
        "every replayed record was once an append"
    );
}

#[test]
fn kill9_restart_reconverges_seed_a() {
    crash_restart_converges(0xC0FF_EE01);
}

#[test]
fn kill9_restart_reconverges_seed_b() {
    crash_restart_converges(0xD15C_0B01);
}

/// The rewind defense: a leader restarted from a *stale* journal
/// snapshot (the stream file rolled back, the fence file current) must
/// land strictly past the fence — epochs the members have already seen
/// stay dead even though the stream that created them is gone.
#[test]
fn stale_journal_restore_is_fenced_not_rewound() {
    let dir = TempDir::new("stale");
    let net = SimNet::new(SimConfig::default());
    let leader = ActorId::new("leader").expect("static name");
    let alice = ActorId::new("alice").expect("static name");
    let wait = Duration::from_secs(5);

    let listener = net.listen("svc").expect("fresh net");
    let (service, report) =
        LeaderService::open_with_journal(Box::new(listener), &dir.0, ServiceConfig::default())
            .expect("empty journal dir initializes");
    assert!(report.recovered.is_empty() && report.failed.is_empty());

    let mut directory = Directory::new();
    directory
        .register_password(&alice, "alice-pw")
        .expect("fresh directory");
    let handle = service
        .add_group(leader.clone(), directory, LeaderConfig::default())
        .expect("fresh service");

    let rt = MemberRuntime::connect(net.dialer("svc"), alice.clone(), leader, "alice-pw")
        .expect("handshake starts");
    rt.wait_joined(wait).expect("welcome");

    // Two rotations, snapshot the stream, three more rotations: the
    // snapshot is now stale and the fence is three epochs ahead of it.
    handle.rekey().expect("live group");
    handle.rekey().expect("live group");
    let journal = JournalDir::open_or_init(&dir.0).expect("same dir");
    let stream_path = journal.stream_path(&label_for(None));
    let stale_bytes = fs::read(&stream_path).expect("stream exists");
    let stale_epoch = handle.epoch().expect("epoch established");
    handle.rekey().expect("live group");
    handle.rekey().expect("live group");
    handle.rekey().expect("live group");
    let fenced_epoch = handle.epoch().expect("epoch advanced");
    assert!(fenced_epoch > stale_epoch);

    rt.abandon();
    drop(handle);
    service.shutdown();
    assert!(net.unlisten("svc"), "release the listener name");

    // The planted fault: roll the stream back, keep the newer fence.
    fs::write(&stream_path, &stale_bytes).expect("plant stale stream");

    let listener = net.listen("svc").expect("name released");
    let (service, mut report) =
        LeaderService::open_with_journal(Box::new(listener), &dir.0, ServiceConfig::default())
            .expect("stale stream still replays");
    assert!(
        report.failed.is_empty(),
        "a stale stream is valid, just old"
    );
    assert_eq!(report.recovered.len(), 1);
    let recovered = report.recovered.remove(0);
    assert!(recovered.fenced, "the fence must have been consulted");
    let epoch = recovered.epoch.expect("epoch recovered");
    assert!(
        epoch > fenced_epoch,
        "recovery from a stale snapshot must land past the fence \
         (got {epoch}, fence covered {fenced_epoch}), never rewind to \
         epoch {stale_epoch}"
    );
    assert_eq!(
        recovered.handle.roster(),
        enclaves_wire::Roster::from_iter([alice]),
        "the stale roster still recovers"
    );
    drop(recovered);
    service.shutdown();
}

/// Event mode and the journal in one process: a journaled readiness-loop
/// service admits eight members over loopback TCP and dies without a
/// shutdown (its sockets close, nothing is flushed or said); a second one
/// opened on the same directory finds the roster and re-admits all eight
/// in epochs strictly past anything the first ever served.
#[test]
fn journaled_event_mode_service_restarts_from_its_directory() {
    let dir = TempDir::new("mux");
    let wait = Duration::from_secs(10);
    let leader = ActorId::new("leader").expect("static name");
    let group = GroupId::new("ops").expect("static tag");
    let users: Vec<ActorId> = (0..8)
        .map(|i| ActorId::new(format!("m{i}")).expect("static name"))
        .collect();
    let admit = |net: &MuxNet, addr, user: &ActorId| {
        let (session, init) = MemberSession::start_in_group(
            user.clone(),
            leader.clone(),
            &format!("{user}-pw"),
            Some(group.clone()),
        )
        .expect("password derives");
        let rt = MemberRuntime::run(net.dialer(addr), session, init, MemberOptions::default())
            .expect("handshake starts");
        rt.wait_joined(wait).expect("welcome");
        rt
    };

    // Generation 1.
    let net = MuxNet::spawn(MuxConfig::default());
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().expect("literal"), 2)
        .expect("loopback bind");
    let addr = endpoint.local_addr();
    let (service, report) =
        LeaderService::open_mux_with_journal(endpoint, &dir.0, ServiceConfig::default())
            .expect("empty journal dir initializes");
    assert!(report.recovered.is_empty() && report.failed.is_empty());
    let mut directory = Directory::new();
    for user in &users {
        directory
            .register_password(user, &format!("{user}-pw"))
            .expect("fresh directory");
    }
    let handle = service
        .add_group(
            leader.clone(),
            directory,
            LeaderConfig {
                rekey_policy: RekeyPolicy::Manual,
                tree_rekey: true,
                group: Some(group.clone()),
                ..LeaderConfig::default()
            },
        )
        .expect("fresh service");
    let first: Vec<MemberRuntime> = users.iter().map(|u| admit(&net, addr, u)).collect();
    for user in &users {
        handle.wait_member(user, wait).expect("admitted");
    }
    let served = handle.epoch().expect("eight joins keyed the group");
    let appends = service
        .snapshot()
        .counter("group.ops.leader.journal.appends");
    assert_eq!(appends, 8, "one record per join, committed before dispatch");

    // The kill.
    for rt in first {
        rt.abandon();
    }
    drop(handle);
    drop(service);
    net.shutdown();

    // Generation 2, same directory, new sockets.
    let net = MuxNet::spawn(MuxConfig::default());
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().expect("literal"), 2)
        .expect("loopback bind");
    let addr = endpoint.local_addr();
    let (service, mut report) =
        LeaderService::open_mux_with_journal(endpoint, &dir.0, ServiceConfig::default())
            .expect("the journal replays");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.recovered.len(), 1);
    let recovered = report.recovered.remove(0);
    assert_eq!(recovered.group, Some(group.clone()));
    assert_eq!(recovered.members, 8);
    assert_eq!(recovered.records, 9);
    let restarted = recovered.epoch.expect("the journal held an epoch");
    assert!(restarted > served, "{restarted} must be past {served}");

    let handle = recovered.handle;
    for user in &users {
        let rt = admit(&net, addr, user);
        let epoch = rt.group_epoch().expect("welcomed into an epoch");
        assert!(
            epoch > served,
            "{user} re-admitted at {epoch}, not past {served}"
        );
        rt.abandon();
    }
    assert_eq!(handle.roster().len(), 8, "re-admission adds nobody");
    assert!(handle.epoch().expect("still keyed") > restarted);
    drop(handle);
    service.shutdown();
    net.shutdown();
}
