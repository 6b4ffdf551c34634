//! Tests that run the workloads themselves at smoke size: that a clean
//! run passes every check, that the same seed reproduces every count,
//! and that a planted fault is caught rather than passing silently.

use crate::metrics::{self, Report};
use crate::workloads::{self, Fault, RunConfig, Scale, WORKLOADS};
use std::path::PathBuf;

/// One untraced and one traced round of `workload` at smoke size. Each
/// test passes its own `label`, so tests running in parallel never share
/// a scratch directory.
fn smoke(label: &str, workload: &str, seed: u64, fault: Fault) -> Report {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{label}"));
    std::fs::create_dir_all(&out_dir).expect("create test scratch directory");
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::Smoke,
        fault,
        out_dir: out_dir.clone(),
        fixed_rounds: Some(2),
    };
    let mut w = workloads::make(workload, &cfg).expect("known workload");
    let data = workloads::run(w.as_mut(), &cfg).expect("workload runs");
    let report = metrics::report(&data, w.roster_bound());
    let _ = std::fs::remove_dir_all(&out_dir);
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is reported"))
        .value
}

#[test]
fn clean_smoke_run_passes_every_check() {
    for (name, _) in WORKLOADS {
        let report = smoke("clean", name, 11, Fault::None);
        assert!(report.correct, "{name} must be correct");
        assert_eq!(report.failed, 0, "{name} must not fail an op");
        assert!(report.attempted > 0);
        for m in &report.end_to_end {
            assert!(m.value > 0.0, "{name}: {} must never be 0", m.name);
        }
        assert!(metric(&report, "trace.coverage_ratio") > 0.0);
        assert!(metric(&report, "trace.overhead_ratio") > 0.0);
        // The result lines carry exactly the declared metrics.
        assert_eq!(report.end_to_end.len(), metrics::END_TO_END.len());
        assert_eq!(report.per_layer.len(), metrics::PER_LAYER.len());
        assert!(report
            .result_line(false)
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn same_seed_reproduces_every_count() {
    let counts: [(&str, &[&str]); 3] = [
        (
            "join_storm",
            &["bytes_per_op", "wire.frames_per_op", "crypto.seals_per_op"],
        ),
        (
            "churn_rekey",
            &["bytes_per_op", "wire.frames_per_op", "crypto.seals_per_op"],
        ),
        // The one workload that journals.
        (
            "crash_recovery",
            &[
                "bytes_per_op",
                "core.journal.appends_per_op",
                "core.journal.bytes_per_op",
            ],
        ),
    ];
    for (workload, names) in counts {
        let first = smoke("counts", workload, 42, Fault::None);
        let second = smoke("counts", workload, 42, Fault::None);
        for name in names {
            let (a, b) = (metric(&first, name), metric(&second, name));
            assert!(a > 0.0, "{workload}: {name} is counted");
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{workload}: {name} must repeat exactly"
            );
        }
    }
}

#[test]
fn flipped_broadcast_byte_raises_failed_ratio() {
    let report = smoke("flip", "churn_rekey", 5, Fault::FlippedBroadcastByte);
    assert!(
        report.failed > 0,
        "a corrupted broadcast frame must fail a check"
    );
    assert!(report.failed_ratio() > 0.0);
    assert!(!report.correct);
}

#[test]
fn truncated_journal_raises_failed_ratio() {
    let report = smoke("truncate", "crash_recovery", 5, Fault::TruncatedJournal);
    assert!(
        report.failed > 0,
        "a truncated stream must fail a cold open's checks"
    );
    assert!(report.failed_ratio() > 0.0);
    assert!(!report.correct);
}
