//! Chaos-harness acceptance tests: deterministic fault-injected scenarios
//! whose event streams are checked by the §5.4 property oracle
//! (`enclaves-verify::live`), a planted violation the oracle must catch
//! and shrink, and an opt-in randomized soak.
//!
//! Reproduce any soak failure with the recipe the shrinker prints:
//!
//! ```text
//! CHAOS_SEED=<seed> CHAOS_EVENTS=<n> CHAOS_MEMBERS=<m> \
//!     cargo test -p enclaves-integration --test chaos_soak randomized_soak -- --ignored --nocapture
//! ```

use enclaves_chaos::{
    run_schedule, shrink_failure, ChaosEvent, ChaosOptions, ChaosOutcome, Schedule, SimFabric,
    TcpProxyFabric,
};
use enclaves_net::sim::SimConfig;
use enclaves_obs::EventKind;

/// The tentpole scenario: joins, admin and data traffic, an asymmetric
/// partition with traffic inside it, a heal, a crash, a reconnect, and
/// rekeys — all under the full probabilistic fault matrix.
fn stormy_schedule(seed: u64) -> Schedule {
    use ChaosEvent::{
        AdminBroadcast, Crash, DataBroadcast, Heal, Join, Leave, Partition, Reconnect, Rekey,
        Settle,
    };
    Schedule::scripted(
        seed,
        4,
        vec![
            Join(0),
            Join(1),
            Join(2),
            AdminBroadcast(b"hello-0".to_vec()),
            DataBroadcast(b"data-0".to_vec()),
            Rekey,
            Join(3),
            DataBroadcast(b"data-1".to_vec()),
            // Asymmetric partition: m1 can still talk to the leader, but
            // hears nothing back. Traffic flows while it is cut off.
            Partition {
                member: 1,
                to_leader: false,
                to_member: true,
            },
            AdminBroadcast(b"hello-1".to_vec()),
            DataBroadcast(b"data-2".to_vec()),
            Settle(150),
            Rekey,
            DataBroadcast(b"data-3".to_vec()),
            Heal(1),
            Settle(150),
            // Full partition of m2, then a crash of m3 while m2 is dark.
            Partition {
                member: 2,
                to_leader: true,
                to_member: true,
            },
            AdminBroadcast(b"hello-2".to_vec()),
            Crash(3),
            DataBroadcast(b"data-4".to_vec()),
            Settle(150),
            Heal(2),
            Reconnect(3),
            Rekey,
            AdminBroadcast(b"hello-3".to_vec()),
            DataBroadcast(b"data-5".to_vec()),
            Leave(0),
            Settle(200),
            DataBroadcast(b"data-6".to_vec()),
        ],
    )
}

fn run_sim(schedule: &Schedule, options: &ChaosOptions) -> ChaosOutcome {
    run_schedule(&mut SimFabric::chaotic(schedule), schedule, options)
}

/// The fixed-seed acceptance scenario: partitions + crash + rekey under
/// the chaotic fault matrix, and the oracle passes.
#[test]
fn fixed_seed_storm_passes_the_oracle() {
    let schedule = stormy_schedule(0xC4A05);
    let outcome = run_sim(&schedule, &ChaosOptions::default());
    assert!(
        outcome.passed(),
        "oracle violations on the fixed-seed storm:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The chaos actually happened: frames were blocked by partitions and
    // a connection was severed by the crash.
    let snap = &outcome.snapshot;
    assert!(
        snap.counter("net.partitioned") > 0,
        "no frame ever hit a partition"
    );
    assert!(
        snap.counter("net.killed") > 0,
        "the crash severed no connection"
    );
    assert!(
        snap.counter("net.delivered") > 0,
        "nothing was delivered at all"
    );
    // The stream recorded real protocol activity end to end.
    assert!(!outcome.obs_events.is_empty());

    // Metric invariants on the merged snapshot. The registry-backed
    // counters are bumped in the same critical sections as the protocol
    // state they describe, so they must agree exactly with the stream:
    // every rotation the leader makes counts one `leader.rekeys` and
    // emits one `Rekeyed`.
    let stream_rekeys = outcome
        .obs_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Rekeyed { .. }))
        .count() as u64;
    assert_eq!(
        snap.counter("leader.rekeys"),
        stream_rekeys,
        "leader.rekeys must equal the rotations the stream recorded"
    );
    // Partitions strand in-flight admin exchanges; the 400ms ticker must
    // have re-sent something before the heal.
    assert!(
        snap.counter("leader.retransmits") > 0,
        "a partition schedule with no leader retransmissions is not chaotic"
    );
    // The oracle read a populated protocol event stream.
    assert!(!outcome.obs_events.is_empty());

    // Dump the snapshot next to the build artifacts so CI can upload it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../target/chaos-snapshot.json");
    // A fresh checkout built with CARGO_TARGET_DIR elsewhere has no target/.
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../target"))
        .expect("create target dir");
    std::fs::write(path, outcome.snapshot.to_json()).expect("write chaos snapshot");
}

/// The same storm over a different seed still passes: the properties are
/// not an artifact of one lucky fault pattern.
#[test]
fn fixed_seed_storm_alternate_seed() {
    let schedule = stormy_schedule(0xB0B);
    let outcome = run_sim(&schedule, &ChaosOptions::default());
    assert!(
        outcome.passed(),
        "violations:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The rekey storm: bursts of back-to-back rekeys under alternating
/// asymmetric/full partitions with join/leave/expel churn in between —
/// the worst case for the control plane, where cached retransmit frames,
/// queued pending payloads, and freshly sealed frames are all live at
/// once. The §5.4 oracle must stay green.
#[test]
fn rekey_storm_passes_the_oracle() {
    let schedule = Schedule::rekey_storm(0x5707, 4);
    let outcome = run_sim(&schedule, &ChaosOptions::default());
    assert!(
        outcome.passed(),
        "oracle violations on the rekey storm:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let snap = &outcome.snapshot;
    assert!(
        snap.counter("net.partitioned") > 0,
        "no frame ever hit a partition"
    );
    assert!(
        snap.counter("net.delivered") > 0,
        "nothing was delivered at all"
    );
    // Every burst's rekeys actually rotated the epoch: the stream records
    // protocol activity end to end.
    assert!(!outcome.obs_events.is_empty());
}

/// The storm over a different fault seed still passes — the control-plane
/// invariants are not an artifact of one lucky fault pattern.
#[test]
fn rekey_storm_alternate_seed() {
    let schedule = Schedule::rekey_storm(0xACE5, 4);
    let outcome = run_sim(&schedule, &ChaosOptions::default());
    assert!(
        outcome.passed(),
        "violations:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Planted violation: with the broadcast watermark disarmed and the
/// network duplicating frames, members re-deliver data broadcasts. The
/// oracle must catch it, and the shrinker must reduce the schedule to a
/// printed minimal reproduction.
#[test]
fn planted_watermark_violation_is_caught_and_shrunk() {
    use ChaosEvent::{DataBroadcast, Join, Settle};
    // Duplication cranked up so every broadcast is near-certain to arrive
    // at least twice; no drops/partitions so delivery itself is reliable.
    let config = SimConfig {
        duplicate_prob: 0.9,
        seed: 7,
        ..SimConfig::default()
    };
    let mut events = vec![Join(0), Join(1)];
    for i in 0..6u32 {
        events.push(DataBroadcast(format!("dup-bait-{i}").into_bytes()));
        events.push(Settle(60));
    }
    let schedule = Schedule::scripted(7, 2, events);

    // Control: the same duplicating network with the watermark armed is
    // clean — duplicates are absorbed, the oracle passes.
    let control = run_schedule(
        &mut SimFabric::new(config),
        &schedule,
        &ChaosOptions::default(),
    );
    assert!(
        control.passed(),
        "armed watermark must absorb duplicates:\n{}",
        control
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Sabotage: watermark off. The oracle must report duplicate data
    // delivery.
    let sabotage = ChaosOptions {
        sabotage_watermark: true,
        ..ChaosOptions::default()
    };
    let run_sabotaged = |s: &Schedule| {
        let mut fabric = SimFabric::new(SimConfig {
            duplicate_prob: 0.9,
            seed: 7,
            ..SimConfig::default()
        });
        run_schedule(&mut fabric, s, &sabotage)
    };
    let outcome = run_sabotaged(&schedule);
    assert!(
        !outcome.passed(),
        "the oracle failed to catch the planted watermark violation"
    );
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.checker.starts_with("live-data")),
        "wrong checker fired: {:?}",
        outcome.violations
    );

    // Shrink to the minimal failing prefix and print the recipe.
    let shrunk = shrink_failure(&schedule, run_sabotaged)
        .expect("a deterministic planted violation must still fail on re-run");
    let report = shrunk.to_string();
    println!("{report}");
    assert!(
        shrunk.minimal.events.len() < schedule.events.len(),
        "shrinking made no progress"
    );
    // The minimal schedule still needs a join and at least one broadcast.
    assert!(shrunk.minimal.events.len() >= 2);
    assert!(report.contains("CHAOS_SEED=7"), "repro recipe missing seed");
    assert!(
        report.contains("minimal schedule"),
        "minimal schedule not printed"
    );
}

/// Names of this process's live threads that start with `prefix`
/// (`/proc/self/task/*/comm`).
fn threads_named(prefix: &str) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

/// Transport parity: a fixed-seed chaos scenario over real TCP sockets
/// through the adversarial proxy (frame drops + duplicates; no partitions
/// — a byte stream cannot half-vanish), with the leader on the readiness
/// loop every real-socket leader runs. The same oracle must pass, and
/// dropping the fabric stops every proxy thread (this is the only test
/// in the binary that starts them).
#[test]
fn tcp_proxy_parity_passes_the_oracle() {
    use ChaosEvent::{AdminBroadcast, Crash, DataBroadcast, Join, Leave, Reconnect, Rekey, Settle};
    let schedule = Schedule::scripted(
        0x7C9,
        3,
        vec![
            Join(0),
            Join(1),
            AdminBroadcast(b"tcp-hello-0".to_vec()),
            DataBroadcast(b"tcp-data-0".to_vec()),
            Rekey,
            Join(2),
            DataBroadcast(b"tcp-data-1".to_vec()),
            AdminBroadcast(b"tcp-hello-1".to_vec()),
            Settle(150),
            Crash(2),
            DataBroadcast(b"tcp-data-2".to_vec()),
            Reconnect(2),
            Rekey,
            DataBroadcast(b"tcp-data-3".to_vec()),
            Leave(1),
            Settle(200),
            AdminBroadcast(b"tcp-hello-2".to_vec()),
        ],
    );
    let mut fabric = TcpProxyFabric::new(schedule.seed, 0.08, 0.08).expect("bind proxy");
    let outcome = run_schedule(&mut fabric, &schedule, &ChaosOptions::default());
    assert!(
        !threads_named("chaos-tcp-").is_empty(),
        "the proxy relayed nothing"
    );
    drop(fabric);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let left = threads_named("chaos-tcp-");
        if left.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "proxy threads outlived the fabric: {left:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        outcome.passed(),
        "oracle violations over TCP:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        !outcome
            .snapshot
            .counters
            .keys()
            .any(|n| n.starts_with("net.")),
        "TCP fabric has no sim counters"
    );
    assert!(!outcome.obs_events.is_empty());
}

/// Randomized soak, run by the scheduled CI job (and by hand when
/// reproducing a failure). Reads `CHAOS_SEED` / `CHAOS_EVENTS` /
/// `CHAOS_MEMBERS` from the environment; on failure, shrinks and panics
/// with the full reproduction recipe.
#[test]
#[ignore = "long-running; CI runs it on a schedule with a logged seed"]
fn randomized_soak() {
    let env_u64 = |key: &str, default: u64| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    // Default seed varies per invocation (epoch seconds) so unscheduled
    // local runs explore; CI pins it via CHAOS_SEED and logs it.
    let fallback_seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(1);
    let seed = env_u64("CHAOS_SEED", fallback_seed);
    let events = env_u64("CHAOS_EVENTS", 120) as usize;
    let members = env_u64("CHAOS_MEMBERS", 4) as usize;
    println!("randomized_soak: CHAOS_SEED={seed} CHAOS_EVENTS={events} CHAOS_MEMBERS={members}");

    let schedule = Schedule::random(seed, events, members);
    let outcome = run_sim(&schedule, &ChaosOptions::default());
    if outcome.passed() {
        return;
    }
    // Shrink before failing so the panic message is the smallest
    // reproduction, not a 120-event wall.
    match shrink_failure(&schedule, |s| run_sim(s, &ChaosOptions::default())) {
        Some(shrunk) => panic!("chaos soak failed:\n{shrunk}"),
        None => panic!(
            "chaos soak failed non-deterministically (passed on re-run); original violations:\n{}\n{schedule}",
            outcome
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        ),
    }
}
