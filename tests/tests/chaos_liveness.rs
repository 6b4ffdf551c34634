//! Liveness-layer acceptance tests: fixed-seed chaos runs with the
//! failure detector armed (virtual clock, bounded ARQ with backoff,
//! heartbeats, timeout-driven eviction, auto-rejoin).
//!
//! Three claims, each provable from the event stream, the injected
//! faults and the merged metrics:
//!
//! * a member whose wire dies silently is evicted within the ARQ budget
//!   and — once the fabric heals — rejoins on its own into a strictly
//!   newer epoch (`crash_storm`, `flapping`);
//! * a responsive member is **never** falsely evicted, even under
//!   drop/reorder/delay weather and idle stretches where only heartbeats
//!   keep the channel warm (`bounded_delay_never_falsely_evicts`);
//! * a leader blackhole (every member's connection dark at once) ends
//!   with the full cast reconnected and in agreement
//!   (`leader_blackhole_recovers`).

use enclaves_chaos::{run_schedule, ChaosEvent, ChaosOptions, ChaosOutcome, Schedule, SimFabric};
use enclaves_core::config::RekeyPolicy;
use enclaves_obs::EventKind;
use enclaves_verify::live::FaultKind;

fn liveness_options() -> ChaosOptions {
    ChaosOptions {
        // Eviction must rekey (the paper's conservative policy): the
        // `live-rejoin` property checks every post-eviction rejoin lands
        // in a strictly newer epoch, which is exactly this policy's job.
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
        liveness: true,
        ..ChaosOptions::default()
    }
}

fn run_sim(schedule: &Schedule, options: &ChaosOptions) -> ChaosOutcome {
    run_schedule(&mut SimFabric::chaotic(schedule), schedule, options)
}

fn violations(outcome: &ChaosOutcome) -> String {
    outcome
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Evictions the leader emitted onto the run's event stream.
fn stream_evictions(outcome: &ChaosOutcome) -> u64 {
    outcome
        .obs_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Evicted { .. }))
        .count() as u64
}

/// The headline scenario: two silent wire crashes in sequence, each
/// detected by heartbeat timeout, evicted, and healed into an
/// auto-rejoin. The oracle stays green, and the metrics agree exactly
/// with the event stream.
#[test]
fn crash_storm_evicts_and_rejoins() {
    let schedule = Schedule::crash_storm(0x11FE, 3);
    let outcome = run_sim(&schedule, &liveness_options());
    assert!(
        outcome.passed(),
        "oracle violations on the crash storm:\n{}",
        violations(&outcome)
    );

    // The faults actually happened and the detector actually detected:
    // every injected wire crash shows up as a fault, every eviction the
    // leader counted shows up on the stream, and each crashed member
    // made it back in.
    let crashed = outcome
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Crashed)
        .count();
    assert_eq!(crashed, 2, "both wire crashes must leave faults");
    let evicted = stream_evictions(&outcome);
    assert!(
        evicted >= 2,
        "both silent crashes must end in timeout evictions (saw {evicted})"
    );
    let snap = &outcome.snapshot;
    assert_eq!(
        snap.counter("leader.evictions"),
        evicted,
        "leader.evictions must agree with the event stream"
    );
    assert!(
        snap.counter("member.rejoins") >= 2,
        "both crashed members must have auto-rejoined"
    );
    // Heartbeats are what kept the healthy members off the eviction
    // list while the crashed ones timed out.
    assert!(snap.counter("leader.heartbeats") > 0, "no heartbeat pongs");
    assert!(snap.counter("member.heartbeats") > 0, "no heartbeat pings");
    assert!(
        snap.counter("leader.retransmits") > 0,
        "a crash storm with no ARQ retransmissions is not a storm"
    );

    // Dump the merged snapshot next to the build artifacts so CI can
    // upload it alongside the non-liveness chaos snapshot.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../target/chaos-liveness-snapshot.json"
    );
    // A fresh checkout built with CARGO_TARGET_DIR elsewhere has no target/.
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../target"))
        .expect("create target dir");
    std::fs::write(path, outcome.snapshot.to_json()).expect("write chaos liveness snapshot");
}

/// The same storm under a different fault seed still passes — detection
/// and recovery are not an artifact of one lucky weather pattern.
#[test]
fn crash_storm_alternate_seed() {
    let schedule = Schedule::crash_storm(0xD00D, 3);
    let outcome = run_sim(&schedule, &liveness_options());
    assert!(outcome.passed(), "violations:\n{}", violations(&outcome));
    assert!(
        stream_evictions(&outcome) >= 2,
        "both silent crashes must end in timeout evictions"
    );
}

/// The planted false-eviction scenario: every member responsive for the
/// whole run, but the weather delays/drops frames and long idle
/// stretches leave heartbeats as the only traffic. A failure detector
/// that is too eager — or a liveness refresh that misses heartbeat
/// frames — evicts someone here. The correct detector evicts no one.
#[test]
fn bounded_delay_never_falsely_evicts() {
    use ChaosEvent::{AdminBroadcast, DataBroadcast, Settle};
    let schedule = Schedule::scripted(
        0xFA15E,
        3,
        vec![
            ChaosEvent::Join(0),
            ChaosEvent::Join(1),
            ChaosEvent::Join(2),
            Settle(150),
            AdminBroadcast(b"quiet-1".to_vec()),
            DataBroadcast(b"quiet-2".to_vec()),
            // Idle stretch several times the liveness timeout (in
            // virtual time): only heartbeats keep the channels warm.
            Settle(1500),
            AdminBroadcast(b"quiet-3".to_vec()),
            Settle(700),
            DataBroadcast(b"quiet-4".to_vec()),
            Settle(400),
        ],
    );
    let outcome = run_sim(&schedule, &liveness_options());
    assert!(outcome.passed(), "violations:\n{}", violations(&outcome));
    assert_eq!(
        stream_evictions(&outcome),
        0,
        "a responsive member was evicted"
    );
    assert_eq!(
        outcome.snapshot.counter("leader.evictions"),
        0,
        "a responsive member was evicted (metrics)"
    );
    // The detector was armed, not absent: heartbeats flowed both ways.
    assert!(outcome.snapshot.counter("member.heartbeats") > 0);
    assert!(outcome.snapshot.counter("leader.heartbeats") > 0);
    // And nobody lost their seat: zero rejoins means zero false alarms
    // on the member side too.
    assert_eq!(outcome.snapshot.counter("member.rejoins"), 0);
}

/// Leader blackhole: every member except the survivor loses its
/// connection at once. Members must detect the silent leader, reconnect
/// on fresh links, wait out the timeout eviction of their stale slots,
/// and rejoin; the final probe proves the whole cast re-converged.
#[test]
fn leader_blackhole_recovers() {
    let schedule = Schedule::leader_blackhole(0xB1AC, 3);
    let outcome = run_sim(&schedule, &liveness_options());
    assert!(
        outcome.passed(),
        "oracle violations on the blackhole:\n{}",
        violations(&outcome)
    );
    // Both darkened members made it back (their stale slots were evicted
    // or closed, and the at-rest snapshot — checked by the oracle's
    // agreement property — saw them at the leader's epoch).
    assert!(
        outcome.snapshot.counter("member.rejoins") >= 2,
        "darkened members must auto-rejoin"
    );
    let final_members = outcome
        .at_rest
        .as_ref()
        .map(|rest| rest.members.len())
        .expect("final snapshot");
    assert_eq!(final_members, 3, "the full cast must be back at rest");
}

/// The rekey storm with the leader in tree mode: every epoch rotation is
/// one `O(log N)` `PathUpdate` multicast, and the storm's final burst
/// cuts m1 off mid-path-update — the rekey's key install is still in
/// flight when the leader→m1 direction goes dark, and three more
/// rotations land on the partition. Multicasts are fire-and-forget, so
/// m1 misses them outright; after the heal, its stale heartbeat epoch
/// must draw exactly the `PathSync` resync that brings it back to the
/// group key. The finalization probe — an AEAD proof of `(epoch, K_g)`
/// agreement, not just epoch equality — must stay green.
#[test]
fn tree_rekey_storm_recovers_missed_path_updates() {
    let schedule = Schedule::rekey_storm(0x73EE, 4);
    let options = ChaosOptions {
        tree_rekey: true,
        ..liveness_options()
    };
    let outcome = run_sim(&schedule, &options);
    assert!(
        outcome.passed(),
        "oracle violations on the tree rekey storm:\n{}",
        violations(&outcome)
    );
    let snap = &outcome.snapshot;
    // Tree mode actually ran: rotations sealed copath nodes (the flat
    // path never touches this counter).
    assert!(
        snap.counter("leader.rekey_seals") > 0,
        "tree mode sealed no copath nodes"
    );
    assert!(snap.counter("leader.rekeys") > 0, "the storm never rekeyed");
    // The chaos really cost someone their multicasts, and the resync
    // machinery (heartbeats carrying the member's epoch) was live.
    assert!(
        snap.counter("net.partitioned") > 0,
        "no frame ever hit a partition"
    );
    assert!(snap.counter("leader.heartbeats") > 0, "no heartbeat pongs");
}

/// The tree-mode storm over a different fault seed still passes — the
/// multicast-loss recovery is not an artifact of one lucky weather
/// pattern.
#[test]
fn tree_rekey_storm_alternate_seed() {
    let schedule = Schedule::rekey_storm(0x7A11, 4);
    let options = ChaosOptions {
        tree_rekey: true,
        ..liveness_options()
    };
    let outcome = run_sim(&schedule, &options);
    assert!(outcome.passed(), "violations:\n{}", violations(&outcome));
    assert!(
        outcome.snapshot.counter("leader.rekey_seals") > 0,
        "tree mode sealed no copath nodes"
    );
}

/// A flapping member (three short partitions, each healed inside the
/// liveness deadline) must ride out the flaps without losing its seat;
/// only the real outage that follows may evict it.
#[test]
fn flapping_member_keeps_its_seat_until_the_real_outage() {
    let schedule = Schedule::flapping(0xF1A9, 3);
    let outcome = run_sim(&schedule, &liveness_options());
    assert!(
        outcome.passed(),
        "oracle violations on the flapping run:\n{}",
        violations(&outcome)
    );
    let evicted = stream_evictions(&outcome);
    assert_eq!(
        outcome.snapshot.counter("leader.evictions"),
        evicted,
        "leader.evictions must agree with the event stream"
    );
    assert!(
        evicted >= 1,
        "the real outage must end in a timeout eviction"
    );
    assert!(
        outcome.snapshot.counter("member.rejoins") >= 1,
        "the flapping member must auto-rejoin after the outage"
    );
}
