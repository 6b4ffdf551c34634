//! Multi-enclave chaos: eight groups co-hosted in ONE [`LeaderService`]
//! — one service loop, one shared liveness ticker — driven
//! through interleaved per-group schedules of partitions, silent wire
//! crashes, and rekey barrages while their neighbours carry calm
//! traffic.
//!
//! Three layers of verdict:
//!
//! * every group's own §5.4 oracle, run on that group's event stream
//!   and faults, stays green;
//! * the cross-group property — no event on group A's stream ever names
//!   a member of group B;
//! * the service's merged snapshot labels each group's metrics under its
//!   own `group.<tag>.` prefix, with per-group rejections staying local.
//!
//! [`LeaderService`]: enclaves_core::runtime::LeaderService

use enclaves_chaos::ChaosOutcome;
use enclaves_chaos::{run_multigroup, ChaosOptions, MultigroupOutcome, Schedule, SimFabric};
use enclaves_core::config::RekeyPolicy;
use enclaves_obs::EventKind;
use enclaves_verify::live::FaultKind;

fn storm_options() -> ChaosOptions {
    ChaosOptions {
        // Evictions must rekey so the `live-rejoin` property can insist
        // every post-eviction rejoin lands in a strictly newer epoch.
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
        liveness: true,
        ..ChaosOptions::default()
    }
}

/// How many of `group`'s stream events `pred` accepts.
fn count(group: &ChaosOutcome, pred: impl Fn(&EventKind) -> bool) -> usize {
    group.obs_events.iter().filter(|e| pred(&e.kind)).count()
}

fn all_violations(outcome: &MultigroupOutcome) -> String {
    let mut lines: Vec<String> = outcome.cross_group_violations.clone();
    for (tag, group) in &outcome.groups {
        for v in &group.violations {
            lines.push(format!("[{tag}] {v}"));
        }
    }
    lines.join("\n")
}

#[test]
fn multigroup_storm_keeps_every_group_green_and_isolated() {
    const GROUPS: usize = 8;
    const MEMBERS: usize = 3;
    let schedules = Schedule::multigroup_storm(0x9161, GROUPS, MEMBERS);
    assert_eq!(schedules.len(), GROUPS);

    let outcome = run_multigroup(
        &mut SimFabric::chaotic(&schedules[0]),
        &schedules,
        &storm_options(),
    );

    assert!(
        outcome.passed(),
        "multigroup storm violations:\n{}",
        all_violations(&outcome)
    );
    assert_eq!(outcome.groups.len(), GROUPS);

    for (g, (tag, group)) in outcome.groups.iter().enumerate() {
        assert_eq!(tag, &format!("g{g}"));

        // Every group saw real traffic: its full cast joined and the
        // finalization probe reached everyone.
        let welcomed = count(group, |e| matches!(e, EventKind::Welcomed { .. }));
        assert!(
            welcomed >= MEMBERS,
            "group {tag}: only {welcomed} welcomes for a cast of {MEMBERS}"
        );
        let delivered = count(group, |e| matches!(e, EventKind::DataDeliver { .. }));
        assert!(delivered > 0, "group {tag}: no data deliveries at all");

        // The wire-crash weather class must actually have exercised the
        // shared ticker's failure detector.
        if g % 4 == 2 {
            let crashed = group
                .faults
                .iter()
                .filter(|f| f.kind == FaultKind::Crashed)
                .count();
            assert!(crashed >= 1, "group {tag}: wire crash left no fault");
            let evicted = count(group, |e| matches!(e, EventKind::Evicted { .. }));
            assert!(
                evicted >= 1,
                "group {tag}: silent wire crash was never evicted by the shared ticker"
            );
        }
    }

    // The merged service snapshot carries every group under its own
    // label, and nothing under the bare legacy names (no untagged group
    // was registered).
    for g in 0..GROUPS {
        assert!(
            outcome
                .service_snapshot
                .counter(&format!("group.g{g}.leader.accepted"))
                > 0,
            "group g{g} missing from the merged service snapshot"
        );
    }
    assert_eq!(outcome.service_snapshot.counter("leader.accepted"), 0);
}
