//! On-failure schedule shrinking: binary-search the smallest failing
//! event prefix of a schedule, so a violation found by a 300-event soak is
//! reported as the handful of steps that actually matter, together with
//! the seed that reproduces them.

use crate::schedule::Schedule;
use crate::world::ChaosOutcome;
use enclaves_verify::live::Violation;

/// A minimized failure: the seed, the smallest failing schedule prefix
/// found, and the violations it produces. `Display` prints a full
/// reproduction recipe.
#[derive(Debug)]
pub struct ShrunkFailure {
    /// The seed of the failing schedule.
    pub seed: u64,
    /// Length of the original schedule the shrink started from.
    pub original_len: usize,
    /// The minimal failing prefix.
    pub minimal: Schedule,
    /// The violations the minimal prefix produces.
    pub violations: Vec<Violation>,
}

impl std::fmt::Display for ShrunkFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos failure shrunk from {} to {} events (seed {}):",
            self.original_len,
            self.minimal.events.len(),
            self.seed
        )?;
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        write!(f, "minimal {}", self.minimal)?;
        writeln!(
            f,
            "reproduce with: CHAOS_SEED={} CHAOS_EVENTS={} CHAOS_MEMBERS={} \
             cargo test -p enclaves-integration --test chaos_soak randomized_soak \
             -- --ignored --nocapture",
            self.seed, self.original_len, self.minimal.members
        )
    }
}

/// Binary-searches the smallest failing prefix of `schedule`, re-running a
/// fresh world for every probe via `run`. Returns `None` if even the full
/// schedule passes on re-run (a nondeterministic failure — the original
/// violations should then be reported as-is).
///
/// The search maintains `run(prefix(lo))` passing and `run(prefix(hi))`
/// failing; each probe halves the gap, so a 300-event soak shrinks in
/// ~8 re-runs.
pub fn shrink_failure(
    schedule: &Schedule,
    mut run: impl FnMut(&Schedule) -> ChaosOutcome,
) -> Option<ShrunkFailure> {
    let full = run(schedule);
    if full.passed() {
        return None;
    }

    let mut lo = 0usize; // Largest prefix known to pass (empty always does).
    let mut hi = schedule.events.len(); // Smallest prefix known to fail.
    let mut best = full.violations;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let outcome = run(&schedule.prefix(mid));
        if outcome.passed() {
            lo = mid;
        } else {
            hi = mid;
            best = outcome.violations;
        }
    }
    Some(ShrunkFailure {
        seed: schedule.seed,
        original_len: schedule.events.len(),
        minimal: schedule.prefix(hi),
        violations: best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosEvent;
    use crate::world::ChaosOutcome;

    /// A synthetic runner: "fails" iff the prefix contains the poison
    /// event, mimicking a violation triggered by one schedule step.
    fn poisoned_runner(poison_at: usize) -> impl FnMut(&Schedule) -> ChaosOutcome {
        move |s: &Schedule| {
            let failed = s.events.len() > poison_at;
            ChaosOutcome {
                violations: if failed {
                    vec![Violation {
                        checker: "synthetic",
                        index: poison_at as u64,
                        detail: "poison".into(),
                    }]
                } else {
                    Vec::new()
                },
                snapshot: enclaves_obs::Snapshot::default(),
                obs_events: Vec::new(),
                faults: Vec::new(),
                at_rest: None,
            }
        }
    }

    fn schedule_of(n: usize) -> Schedule {
        Schedule::scripted(9, 2, (0..n).map(|_| ChaosEvent::Settle(1)).collect())
    }

    #[test]
    fn shrinks_to_the_poison_event() {
        for poison_at in [0usize, 3, 17, 62, 99] {
            let schedule = schedule_of(100);
            let shrunk =
                shrink_failure(&schedule, poisoned_runner(poison_at)).expect("full schedule fails");
            // The minimal prefix is exactly poison_at + 1 events: one
            // shorter and the poison event is gone.
            assert_eq!(shrunk.minimal.events.len(), poison_at + 1);
            assert_eq!(shrunk.violations.len(), 1);
        }
    }

    #[test]
    fn passing_schedule_does_not_shrink() {
        let schedule = schedule_of(10);
        assert!(shrink_failure(&schedule, |_| ChaosOutcome {
            violations: Vec::new(),
            snapshot: enclaves_obs::Snapshot::default(),
            obs_events: Vec::new(),
            faults: Vec::new(),
            at_rest: None,
        })
        .is_none());
    }

    #[test]
    fn report_contains_the_repro_recipe() {
        let schedule = schedule_of(20);
        let shrunk = shrink_failure(&schedule, poisoned_runner(4)).expect("fails");
        let report = shrunk.to_string();
        assert!(report.contains("CHAOS_SEED=9"));
        assert!(report.contains("minimal schedule"));
    }
}
