//! The four workloads and the round loop they share.
//!
//! A run is a sequence of *rounds*. A round sets the workload up from
//! nothing, warms up, then times a fixed number of operations; rounds
//! repeat until `--seconds` have passed. Every round of a run uses the
//! same seed-derived inputs, so counts repeat exactly; how the rounds'
//! figures become the run's is in `metrics.rs`.

pub mod broadcast_socket;
pub mod churn_rekey;
pub mod crash_recovery;
pub mod join_storm;
pub mod world;

use crate::sut::{Fail, LeaderCounters, MuxCounters};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use world::WireCounts;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "join_storm",
        "control-plane write path with a growing roster: Welcome build, seal, encode and parse do the work and grow with N; net.mux and the journal do none",
    ),
    (
        "broadcast_socket",
        "data-plane read path over loopback TCP: one seal, then net.mux writes and member opens; journal, keytree and Welcome code idle",
    ),
    (
        "churn_rekey",
        "same leader and keytree code at a constant roster: leaves, expels and manual rekeys beside joins, so a join-only gain that costs them shows",
    ),
    (
        "crash_recovery",
        "journal read path: decode, AEAD open and replay of histories much longer than the roster; transport and members idle",
    ),
];

/// Workload sizes. `Smoke` is about 1/32 of `Full` and exists for
/// `--check` and the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// A fault planted by the tests to prove the output checks can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one byte of one broadcast frame in flight.
    FlippedBroadcastByte,
    /// Cut one journal stream of the snapshot to half its length.
    TruncatedJournal,
}

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub fault: Fault,
    /// Where scratch journals and trace files go.
    pub out_dir: PathBuf,
    /// Run exactly this many rounds, whatever `seconds` says.
    pub fixed_rounds: Option<usize>,
}

/// Witness sessions per sans-I/O enclave.
pub const WITNESSES: usize = 8;

/// Fewest rounds a run makes, so every median is over at least three
/// set-ups (and, traced, at least two rounds of each kind).
const MIN_ROUNDS: usize = 3;
const MIN_ROUNDS_TRACED: usize = 4;

/// Counts and samples one round hands to the per-layer report.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub ops: u64,
    pub leader: LeaderCounters,
    pub wire: WireCounts,
    /// Membership changes and rekeys among the ops.
    pub changes: u64,
    /// Journal bytes written (appends) or read back (cold opens).
    pub journal_bytes: u64,
    /// Transitions the set-up journaled (`crash_recovery` only): what
    /// `leader.journal.appends` is divided by there.
    pub journaled_transitions: u64,
    /// Records and bytes the ops replayed from disk.
    pub replayed_records: u64,
    pub replayed_bytes: u64,
    pub transit_small_ns: Vec<u64>,
    pub transit_large_ns: Vec<u64>,
    pub heartbeat_rtt_ns: Vec<u64>,
    pub socket_join_ns: Vec<u64>,
    pub join_storm_ms: Vec<f64>,
    pub mux: MuxCounters,
    pub queued_bytes_peak: u64,
    pub threads: u64,
    pub snapshot_ns: Vec<u64>,
}

impl LayerCounts {
    fn merge(&mut self, other: LayerCounts) {
        self.ops += other.ops;
        self.leader = self.leader.plus(&other.leader);
        self.wire = self.wire.plus(&other.wire);
        self.changes += other.changes;
        self.journal_bytes += other.journal_bytes;
        self.journaled_transitions += other.journaled_transitions;
        self.replayed_records += other.replayed_records;
        self.replayed_bytes += other.replayed_bytes;
        self.transit_small_ns.extend(other.transit_small_ns);
        self.transit_large_ns.extend(other.transit_large_ns);
        self.heartbeat_rtt_ns.extend(other.heartbeat_rtt_ns);
        self.socket_join_ns.extend(other.socket_join_ns);
        self.join_storm_ms.extend(other.join_storm_ms);
        self.mux = self.mux.plus(&other.mux);
        self.queued_bytes_peak = self.queued_bytes_peak.max(other.queued_bytes_peak);
        self.threads = self.threads.max(other.threads);
        self.snapshot_ns.extend(other.snapshot_ns);
    }
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Latency of every timed op that passed its checks.
    pub latencies_ns: Vec<u64>,
    /// Timed ops attempted and failed (a failed op has no latency).
    pub attempted: u64,
    pub failed: u64,
    /// Throughput numerator (joins, deliveries, changes, records) and
    /// the seconds it is divided by.
    pub work_units: f64,
    pub timed_s: f64,
    /// `bytes_per_op` numerator and denominator.
    pub bytes: u64,
    pub bytes_over: u64,
    pub counts: LayerCounts,
    /// First few failures, for the log.
    pub notes: Vec<String>,
}

impl Round {
    pub fn note(&mut self, why: Fail) {
        if self.notes.len() < 5 {
            self.notes.push(why);
        }
    }

    /// Records one timed op.
    pub fn op(&mut self, started: Instant, outcome: Result<(), Fail>) {
        let elapsed = started.elapsed();
        self.attempted += 1;
        match outcome {
            Ok(()) => self
                .latencies_ns
                .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)),
            Err(why) => {
                self.failed += 1;
                self.note(why);
            }
        }
    }

    /// Records a failure of the round as a whole (a check made after the
    /// timed ops): it must show in `failed` even when every op passed.
    pub fn fail_round(&mut self, why: Fail) {
        self.attempted = self.attempted.max(1);
        self.failed = (self.failed + 1).min(self.attempted);
        self.note(why);
    }
}

/// One workload: rounds, and the probes a traced run ends with.
pub trait Workload {
    fn name(&self) -> &'static str;
    fn round(&mut self, tr: &mut Tracer, dir: &Path) -> Result<Round, Fail>;
    /// Isolated probes (`crypto.seal`, `core.journal.append`, …) run once
    /// after the rounds of a traced run.
    fn probes(&mut self, tr: &mut Tracer, dir: &Path) -> Result<Probes, Fail>;
    /// The largest roster the run's one enclave reaches, where the
    /// key-tree seal bound `2·⌈log₂N⌉+1` is to be enforced.
    fn roster_bound(&self) -> Option<usize> {
        None
    }
}

/// Results of the isolated probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub seal_small_ns: f64,
    pub open_small_ns: f64,
    pub seal_ns_per_kib: f64,
    pub open_ns_per_kib: f64,
    pub append_ns: f64,
    pub replay_ns_per_record: f64,
    pub recover_ns_per_record: f64,
}

/// AEAD seal and open at 64 B and at the largest sealed frame the run
/// produced.
pub fn crypto_probes(tr: &mut Tracer, largest_sealed: usize) -> Probes {
    let (seal_small_ns, open_small_ns) = crate::sut::aead_probe(tr, 64);
    let large = largest_sealed.max(1024);
    let (seal_large, open_large) = crate::sut::aead_probe(tr, large);
    let kib = large as f64 / 1024.0;
    Probes {
        seal_small_ns,
        open_small_ns,
        seal_ns_per_kib: seal_large / kib,
        open_ns_per_kib: open_large / kib,
        ..Probes::default()
    }
}

/// Everything a run measured, before it is turned into metrics.
pub struct RunData {
    pub workload: &'static str,
    /// Rounds with tracing off (all of them in an untraced run).
    pub plain: Vec<Round>,
    /// Rounds with tracing on.
    pub traced: Vec<Round>,
    /// Every round's counts, merged (the rounds' own are left empty).
    pub counts: LayerCounts,
    pub probes: Probes,
    pub tracer: Tracer,
    pub peak_rss_mib: f64,
}

pub fn make(name: &str, cfg: &RunConfig) -> Option<Box<dyn Workload>> {
    Some(match name {
        "join_storm" => Box::new(join_storm::JoinStorm::new(cfg)),
        "broadcast_socket" => Box::new(broadcast_socket::BroadcastSocket::new(cfg)),
        "churn_rekey" => Box::new(churn_rekey::ChurnRekey::new(cfg)),
        "crash_recovery" => Box::new(crash_recovery::CrashRecovery::new(cfg)),
        _ => return None,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Runs rounds of `workload` until `cfg.seconds` have passed. A traced
/// run alternates untraced and traced rounds, so that it can report the
/// tracing overhead from within one process.
pub fn run(workload: &mut dyn Workload, cfg: &RunConfig) -> Result<RunData, Fail> {
    let scratch = cfg.out_dir.join(format!(
        "scratch-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = run_in(workload, cfg, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(workload: &mut dyn Workload, cfg: &RunConfig, scratch: &Path) -> Result<RunData, Fail> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let min_rounds = if cfg.trace {
        MIN_ROUNDS_TRACED
    } else {
        MIN_ROUNDS
    };
    let mut tracer = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts = LayerCounts::default();
    let mut first_round_rss = 0.0;
    let mut index = 0usize;
    loop {
        let done = match cfg.fixed_rounds {
            Some(n) => index >= n,
            None => index >= min_rounds && started.elapsed() >= budget,
        };
        if done {
            break;
        }
        let trace_this = cfg.trace && index % 2 == 1;
        tracer.set_on(trace_this);
        let dir = scratch.join(format!("round-{index}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut round = workload.round(&mut tracer, &dir)?;
        tracer.fold_round();
        let _ = std::fs::remove_dir_all(&dir);
        for note in &round.notes {
            eprintln!("[{}] round {index}: {note}", workload.name());
        }
        let mut sorted = round.latencies_ns.clone();
        if !sorted.is_empty() {
            let s = crate::stats::summarize(&mut sorted);
            eprintln!(
                "[{}] round {index}{}: setup {:.4} s, p50 {:.1} us, p90 {:.1} us, {} {:.1} us, {:.1} units/s, {} failed, peak rss {:.1} MiB",
                workload.name(),
                if trace_this { " (traced)" } else { "" },
                round.setup_s,
                s.p50 as f64 / 1e3,
                crate::stats::quantile(&sorted, 9000) as f64 / 1e3,
                s.tail_label,
                s.tail as f64 / 1e3,
                round.work_units / round.timed_s.max(f64::MIN_POSITIVE),
                round.failed,
                peak_rss_mib()
            );
        }
        if index == 0 {
            // One whole round is the workload. Later rounds only add what
            // the allocator keeps from threads and buffers already freed
            // (10 to 17 MiB over eight rounds of `broadcast_socket`), by
            // an amount that depends on how many rounds fit in the run.
            first_round_rss = peak_rss_mib();
        }
        counts.merge(std::mem::take(&mut round.counts));
        if trace_this {
            traced.push(round);
        } else {
            plain.push(round);
        }
        index += 1;
    }
    let mut probes = Probes::default();
    if cfg.trace {
        tracer.set_on(true);
        tracer.set_probing(true);
        let dir = scratch.join("probes");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        probes = workload.probes(&mut tracer, &dir)?;
        tracer.set_probing(false);
        tracer.fold_round();
    }
    Ok(RunData {
        workload: workload.name(),
        plain,
        traced,
        counts,
        probes,
        tracer,
        peak_rss_mib: first_round_rss,
    })
}
