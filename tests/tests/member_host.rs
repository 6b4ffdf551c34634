//! The member host at scale and at rest: a thousand members over real
//! sockets on the host's two shard threads, and no host thread left once
//! a host, or a runtime's private host, is dropped. The thousand arrive
//! as one storm into a tree-rekeyed group, which the service admits in
//! fewer commits than joins — each drain of its shard channel commits
//! every join it completed once — and every member follows the batch
//! `PathUpdate`s to the leader's epoch.
//!
//! Threads are counted by name (`/proc/self/task/*/comm`), so the tests
//! here run one at a time.

use crossbeam_channel::unbounded;
use enclaves_core::config::LeaderConfig;
use enclaves_core::directory::Directory;
use enclaves_core::liveness::{LivenessConfig, RealClock};
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{
    HostedMember, LeaderService, MemberHost, MemberOptions, MemberRuntime, ServiceConfig,
};
use enclaves_crypto::rng::OsEntropyRng;
use enclaves_load_test::{cheap_key, leader_config, leader_id, swarm_member_id};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_net::{MuxConfig, MuxNet};
use enclaves_wire::ActorId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);

/// Serializes the tests: each counts every host thread in the process.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live threads of this process named as a member host names its shards.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "enclaves-member")
        .count()
}

/// Waits (bounded) for the host thread count to settle at `want`: a
/// joined thread may linger in procfs for a moment.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while host_threads() != want {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn a_thousand_socket_members_share_two_host_threads() {
    const MEMBERS: usize = 1_000;
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let started = Instant::now();
    let server = MuxNet::spawn(MuxConfig::default());
    let endpoint = server
        .listen_events("127.0.0.1:0".parse().unwrap(), 2)
        .unwrap();
    let addr = endpoint.local_addr();
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());
    let mut directory = Directory::new();
    for i in 0..MEMBERS {
        directory.register_key(&swarm_member_id(i), cheap_key(i));
    }
    // The leader keeps the members' 30 s resend timers too: a Welcome
    // re-sent while its ack is on the way is acked again, and the second
    // ack is refused as stale, so `leader.rejected` would count the
    // storm's pace, not refused frames.
    let config = LeaderConfig {
        liveness: LivenessConfig {
            retransmit_base: Duration::from_secs(30),
            retransmit_max: Duration::from_secs(30),
            ..leader_config(MEMBERS).liveness
        },
        tree_rekey: true,
        ..leader_config(MEMBERS)
    };
    let group = service.add_group(leader_id(), directory, config).unwrap();

    let client = MuxNet::spawn(MuxConfig::default());
    let host = MemberHost::spawn(client.dialer(addr), 2, Arc::new(RealClock::new()));
    // The load rig's member timers: a handshake resend only after 30 s.
    let liveness = LivenessConfig {
        retransmit_base: Duration::from_secs(30),
        retransmit_max: Duration::from_secs(30),
        ..LivenessConfig::default()
    };
    let (welcomed_tx, welcomed) = unbounded();
    let members: Vec<HostedMember> = (0..MEMBERS)
        .map(|i| {
            let (session, init) = MemberSession::start_with_key_in_group(
                swarm_member_id(i),
                leader_id(),
                cheap_key(i),
                Box::new(OsEntropyRng::new()),
                None,
            );
            let options = MemberOptions {
                liveness: liveness.clone(),
                ..MemberOptions::default()
            };
            let tx = welcomed_tx.clone();
            host.admit(session, init, options, move |event| match event {
                MemberEvent::Welcomed { epoch, .. } | MemberEvent::GroupKeyChanged { epoch } => {
                    let _ = tx.send((i, epoch));
                }
                _ => {}
            })
            .unwrap()
        })
        .collect();

    // Every member reaches the leader's epoch: the one its Welcome (or a
    // later key change) installed.
    let mut epochs = HashMap::new();
    let behind = |epochs: &HashMap<usize, u64>| {
        let leader_epoch = group.epoch();
        epochs.len() < MEMBERS || epochs.values().any(|e| Some(*e) != leader_epoch)
    };
    while behind(&epochs) {
        let (i, epoch) = welcomed.recv_timeout(WAIT).unwrap_or_else(|_| {
            panic!(
                "{} of {MEMBERS} welcomed, not all at the leader's epoch",
                epochs.len()
            )
        });
        let held = epochs.entry(i).or_insert(epoch);
        *held = (*held).max(epoch);
    }
    // No retransmission fired, so nothing was refused as a duplicate:
    // the leader refused no frame of the storm.
    let snapshot = group.obs_registry().snapshot();
    assert_eq!(snapshot.counter("leader.retransmits"), 0);
    assert_eq!(snapshot.counter("leader.rejected"), 0);
    let commits = &snapshot.histograms["leader.commit_joins"];
    assert_eq!(commits.sum, MEMBERS as u64, "every join committed once");
    assert!(
        commits.count < commits.sum,
        "{} commits for {} joins: the storm was not batched",
        commits.count,
        commits.sum
    );
    assert_eq!(
        host_threads(),
        2,
        "one thread per shard, whatever the member count"
    );

    drop(members);
    drop(host);
    assert!(
        settles_at(0),
        "{} host threads outlived the host",
        host_threads()
    );
    service.shutdown();
    client.shutdown();
    server.shutdown();
    eprintln!(
        "{MEMBERS} socket members joined on 2 host threads in {:.2?}: {} joins in {} commits",
        started.elapsed(),
        commits.sum,
        commits.count
    );
}

#[test]
fn a_dropped_runtime_stops_its_host() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = host_threads();
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let alice = ActorId::new("alice").unwrap();
    let mut directory = Directory::new();
    directory.register_password(&alice, "alice-pw").unwrap();
    let leader = service
        .add_group(leader_id(), directory, LeaderConfig::default())
        .unwrap();

    let member =
        MemberRuntime::connect(net.dialer("leader"), alice.clone(), leader_id(), "alice-pw")
            .unwrap();
    member.wait_joined(WAIT).unwrap();
    leader.wait_member(&alice, WAIT).unwrap();
    assert_eq!(host_threads(), before + 1);

    drop(member);
    service.shutdown();
    drop(net);
    assert!(
        settles_at(before),
        "the dropped runtime's host thread is still running"
    );
}
