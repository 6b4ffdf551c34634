//! Metric names, units, and how each is computed from what a run
//! measured. The names and units here are the ones `BENCHMARK.json`
//! declares; `tests::declared_metrics_match_benchmark_json` keeps the two
//! in step.

use crate::stats::{median, quantile, summarize};
use crate::workloads::{Round, RunData};

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_ops_s", "1/s"),
    ("bytes_per_op", "B"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("latency_tail_us", "us"),
    ("crypto.seal_small_ns", "ns"),
    ("crypto.open_small_ns", "ns"),
    ("crypto.seal_ns_per_kib", "ns"),
    ("crypto.open_ns_per_kib", "ns"),
    ("crypto.seals_per_op", "count"),
    ("crypto.sealed_bytes_per_op", "B"),
    ("crypto.est_ns_per_op", "ns"),
    ("wire.encode_ns_per_op", "ns"),
    ("wire.decode_ns_per_op", "ns"),
    ("wire.frames_per_op", "count"),
    ("wire.frame_bytes_per_op", "B"),
    ("core.leader.handle_ns_per_op", "ns"),
    ("core.leader.handle_self_ns_per_op", "ns"),
    ("core.leader.welcome_bytes_last", "B"),
    ("core.leader.broadcast_call_ns", "ns"),
    ("core.leader.rekey_call_ns", "ns"),
    ("core.leader.expel_call_ns", "ns"),
    ("core.leader.retransmits", "count"),
    ("core.leader.lock_hold_ns_per_op", "ns"),
    ("core.keytree.seals_per_change", "count"),
    ("core.keytree.path_update_bytes", "B"),
    ("core.journal.appends_per_op", "count"),
    ("core.journal.bytes_per_op", "B"),
    ("core.journal.append_probe_ns", "ns"),
    ("core.journal.replay_ns_per_record", "ns"),
    ("core.journal.recover_ns_per_record", "ns"),
    ("core.member.handshake_ns", "ns"),
    ("core.member.welcome_handle_ns", "ns"),
    ("core.member.path_update_handle_ns", "ns"),
    ("core.member.broadcast_handle_ns", "ns"),
    ("core.service.open_ns", "ns"),
    ("core.service.threads", "count"),
    ("core.service.snapshot_ns", "ns"),
    ("net.mux.transit_p50_us", "us"),
    ("net.mux.transit_p99_us", "us"),
    ("net.mux.transit_large_p50_us", "us"),
    ("net.mux.heartbeat_rtt_us", "us"),
    ("net.mux.frames_out_per_op", "count"),
    ("net.mux.partial_writes", "count"),
    ("net.mux.queued_bytes_peak", "B"),
    ("net.mux.overflow_drops", "count"),
    ("net.mux.join_storm_ms", "ms"),
    ("net.mux.socket_join_p99_ms", "ms"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One computed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A run, reduced to what gets printed.
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// Which tail percentile `latency_tail_us` is, and over how many
    /// samples per round.
    pub tail_label: &'static str,
    pub samples_per_round: usize,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

/// How a per-round figure becomes the run's figure. Interference on a
/// shared host only ever slows a round down, never speeds it up, so a
/// timing is taken from the least disturbed round; measured here, the
/// median over rounds moved two to five times as much from run to run
/// as the best round did (`README.md`, "How a run is structured").
#[derive(Clone, Copy)]
enum Over {
    Lowest,
    Highest,
    Median,
}

fn over_rounds(rounds: &[Round], how: Over, f: impl FnMut(&Round) -> Option<f64>) -> f64 {
    let values: Vec<f64> = rounds.iter().filter_map(f).collect();
    if values.is_empty() {
        return 0.0;
    }
    match how {
        Over::Lowest => values.iter().copied().fold(f64::INFINITY, f64::min),
        Over::Highest => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Over::Median => median(&values),
    }
}

fn p50_us(round: &Round) -> Option<f64> {
    let mut samples = round.latencies_ns.clone();
    (!samples.is_empty()).then(|| summarize(&mut samples).p50 as f64 / 1e3)
}

fn quantile_of(samples: &[u64], pptt: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, pptt) as f64
}

/// `2·⌈log₂ n⌉ + 1`: the most AEAD seals one path refresh may cost.
pub fn path_seal_bound(n: usize) -> f64 {
    let log = n.max(2).next_power_of_two().trailing_zeros();
    f64::from(2 * log + 1)
}

pub fn report(data: &RunData, roster_bound: Option<usize>) -> Report {
    let all = || data.plain.iter().chain(&data.traced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let mut correct = failed == 0 && attempted > 0;

    // End to end, from the untraced rounds.
    let (mut tail_label, mut samples_per_round) = ("max", 0);
    let tail = over_rounds(&data.plain, Over::Lowest, |r| {
        let mut samples = r.latencies_ns.clone();
        (!samples.is_empty()).then(|| {
            let s = summarize(&mut samples);
            (tail_label, samples_per_round) = (s.tail_label, s.count);
            s.tail as f64 / 1e3
        })
    });
    let plain_p50 = over_rounds(&data.plain, Over::Lowest, p50_us);
    let values = [
        plain_p50,
        over_rounds(&data.plain, Over::Lowest, |r| {
            (!r.latencies_ns.is_empty()).then(|| quantile_of(&r.latencies_ns, 9000) / 1e3)
        }),
        over_rounds(&data.plain, Over::Highest, |r| {
            Some(ratio(r.work_units, r.timed_s))
        }),
        over_rounds(&data.plain, Over::Median, |r| {
            Some(ratio(r.bytes as f64, r.bytes_over as f64))
        }),
        data.peak_rss_mib,
        over_rounds(&data.plain, Over::Median, |r| Some(r.setup_s)),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();

    // Per layer: counts over every round, times from the traced rounds.
    let c = &data.counts;
    let p = &data.probes;
    let tr = &data.tracer;
    let ops = c.ops as f64;
    let traced_ops: f64 = data.traced.iter().map(|r| r.attempted as f64).sum();
    let per_traced_op = |name: &str| ratio(tr.total(name).total_ns as f64, traced_ops);
    let mean = |name: &'static str, tag: &'static str| {
        let t = tr.tagged(name, tag);
        ratio(t.total_ns as f64, t.count as f64)
    };
    let mean_all = |name: &str| {
        let t = tr.total(name);
        ratio(t.total_ns as f64, t.count as f64)
    };

    let seals_per_op = ratio(c.leader.seals() as f64, ops);
    let sealed_bytes_per_op = ratio(c.wire.sealed_bytes_out as f64, ops);
    let opens_per_op = ratio((c.wire.leader_frames_in + c.replayed_records) as f64, ops);
    let opened_bytes_per_op = ratio((c.wire.leader_body_bytes_in + c.replayed_bytes) as f64, ops);
    let crypto_est = seals_per_op * p.seal_small_ns
        + sealed_bytes_per_op / 1024.0 * p.seal_ns_per_kib
        + opens_per_op * p.open_small_ns
        + opened_bytes_per_op / 1024.0 * p.open_ns_per_kib;
    // One append per transition: per op where the ops are the
    // transitions, per journaled set-up transition on `crash_recovery`.
    let appends_per_op = if c.journaled_transitions > 0 {
        ratio(
            c.leader.journal_appends as f64,
            c.journaled_transitions as f64,
        )
    } else {
        ratio(c.leader.journal_appends as f64, ops)
    };
    let handle_per_op = per_traced_op("core.leader.handle_at");
    let handle_self = (handle_per_op - crypto_est - appends_per_op * p.append_ns).max(0.0);
    let seals_per_change = ratio(c.leader.rekey_seals as f64, c.changes as f64);
    if let Some(n) = roster_bound {
        if seals_per_change > path_seal_bound(n) {
            eprintln!(
                "[{}] {seals_per_change} seals per change exceeds the tree bound {}",
                data.workload,
                path_seal_bound(n)
            );
            correct = false;
        }
    }
    let joins = tr.tagged("core.member.handle", "welcome").count as f64;
    let handshake_ns = ratio(
        (tr.total("core.member.start").total_ns
            + tr.tagged("core.member.handle", "key_dist").total_ns
            + tr.tagged("core.member.handle", "welcome").total_ns
            + tr.tagged("core.member.handle", "admin").total_ns) as f64,
        joins,
    );
    let mut transit = c.transit_small_ns.clone();
    transit.extend(&c.transit_large_ns);
    let traced_p50 = over_rounds(&data.traced, Over::Lowest, p50_us);

    let values = [
        tail,
        p.seal_small_ns,
        p.open_small_ns,
        p.seal_ns_per_kib,
        p.open_ns_per_kib,
        seals_per_op,
        sealed_bytes_per_op,
        crypto_est,
        per_traced_op("wire.encode"),
        per_traced_op("wire.decode"),
        ratio(c.wire.frames as f64, ops),
        ratio(c.wire.frame_bytes as f64, ops),
        handle_per_op,
        handle_self,
        c.wire.welcome_bytes_last as f64,
        mean_all("core.leader.broadcast"),
        mean_all("core.leader.rekey"),
        mean_all("core.leader.expel"),
        c.leader.retransmits as f64,
        ratio(c.leader.lock_hold_ns as f64, ops),
        seals_per_change,
        ratio(c.wire.path_update_bytes as f64, c.wire.path_updates as f64),
        appends_per_op,
        ratio(c.journal_bytes as f64, ops),
        p.append_ns,
        p.replay_ns_per_record,
        p.recover_ns_per_record,
        handshake_ns,
        mean("core.member.handle", "welcome"),
        mean("core.member.handle", "path_update"),
        mean("core.member.handle", "broadcast"),
        mean_all("core.service.open"),
        c.threads as f64,
        quantile_of(&c.snapshot_ns, 5000),
        quantile_of(&transit, 5000) / 1e3,
        quantile_of(&transit, 9900) / 1e3,
        quantile_of(&c.transit_large_ns, 5000) / 1e3,
        quantile_of(&c.heartbeat_rtt_ns, 5000) / 1e3,
        ratio(c.mux.frames_out as f64, ops),
        c.mux.partial_writes as f64,
        c.queued_bytes_peak as f64,
        c.mux.overflow_drops as f64,
        if c.join_storm_ms.is_empty() {
            0.0
        } else {
            median(&c.join_storm_ms)
        },
        quantile_of(&c.socket_join_ns, 9900) / 1e6,
        ratio(tr.layer_self_ns() as f64, tr.op_total_ns() as f64),
        ratio(traced_p50, plain_p50),
    ];
    let per_layer = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();

    Report {
        workload: data.workload,
        correct,
        attempted,
        failed,
        rounds: data.plain.len() + data.traced.len(),
        tail_label,
        samples_per_round,
        end_to_end,
        per_layer,
    }
}

impl Report {
    /// The result line the driver reads: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_bound_matches_the_issue() {
        assert_eq!(path_seal_bound(4096), 25.0);
        assert_eq!(path_seal_bound(33), 13.0);
        assert_eq!(path_seal_bound(8), 7.0);
        assert_eq!(path_seal_bound(1), 3.0);
    }

    /// `BENCHMARK.json` declares exactly the metrics, units and workloads
    /// this binary prints.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, _) in crate::workloads::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\", \"why\"")));
        }
    }
}
