//! `crash_recovery`: cold `open_with_journal` over journals whose
//! history is much longer than their roster.
//!
//! Set-up drives several journaled enclaves through seeded churn under
//! one journal directory and records every roster and epoch; the
//! directory is what a crash would leave. Each operation times one cold
//! open of it, after which the directory is put back as it was.

use super::world::World;
use super::{crypto_probes, Fault, LayerCounts, Probes, Round, RunConfig, Workload};
use crate::seed::SeedRng;
use crate::sut::{self, Fail, Identity, Journal, Reopened};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

pub struct CrashRecovery {
    seed: u64,
    enclaves: usize,
    members: usize,
    transitions: usize,
    opens: usize,
    fault: Fault,
    largest_record: usize,
    last_journal: Option<std::path::PathBuf>,
}

impl CrashRecovery {
    pub fn new(cfg: &RunConfig) -> Self {
        CrashRecovery {
            seed: cfg.seed,
            enclaves: cfg.scale.pick(6, 2),
            members: cfg.scale.pick(12, 6),
            transitions: cfg.scale.pick(80, 12),
            opens: cfg.scale.pick(110, 12),
            fault: cfg.fault,
            largest_record: 0,
            last_journal: None,
        }
    }
}

/// What one enclave looked like when the leader "crashed".
struct Expected {
    tag: String,
    roster: Vec<String>,
    epoch: u64,
    records: u64,
    /// `leader.journal.appends` when the enclave was done.
    appends: u64,
}

enum Change {
    Leave,
    Expel,
    Join,
    Rekey,
}

fn tag_of(g: usize) -> String {
    format!("g{g:02}")
}

/// Builds one enclave's history: every member joins, then `transitions`
/// seeded changes that keep the roster between three quarters full and
/// full. Every member is a witness, so every change is followed end to
/// end.
fn build_enclave(
    tr: &mut Tracer,
    journal: &Journal,
    g: usize,
    members: usize,
    transitions: usize,
    rng: &mut SeedRng,
) -> Result<Expected, Fail> {
    let tag = tag_of(g);
    let users: Vec<Identity> = (0..members)
        .map(|i| Identity::numbered(g * 1000 + i))
        .collect();
    let mut world = World::new(&tag, &users, rng.next_u64(), Some(journal))?;
    let mut inside: Vec<usize> = Vec::new();
    let mut outside: Vec<usize> = (0..members).collect();
    rng.shuffle(&mut outside);
    while let Some(id) = outside.pop() {
        world.step(tr)?;
        let member = world.join(tr, &users[id], rng.next_u64())?;
        world.witnesses.push(member);
        inside.push(id);
    }
    let floor = (members * 3).div_ceil(4);
    for _ in 0..transitions {
        world.step(tr)?;
        let change = if inside.len() <= floor {
            Change::Join
        } else {
            match rng.below(4) {
                0 => Change::Leave,
                1 => Change::Expel,
                2 if !outside.is_empty() => Change::Join,
                _ => Change::Rekey,
            }
        };
        match change {
            Change::Leave => {
                let k = rng.below(inside.len());
                outside.push(inside.swap_remove(k));
                let member = world.witnesses.swap_remove(k);
                world.leave(tr, member)?;
            }
            Change::Expel => {
                let k = rng.below(inside.len());
                let id = inside.swap_remove(k);
                outside.push(id);
                world.witnesses.swap_remove(k);
                world.expel(tr, &users[id])?;
            }
            Change::Join => {
                let id = outside.swap_remove(rng.below(outside.len()));
                let member = world.join(tr, &users[id], rng.next_u64())?;
                world.witnesses.push(member);
                inside.push(id);
            }
            Change::Rekey => world.rekey(tr)?,
        }
    }
    Ok(Expected {
        tag,
        roster: world.leader.roster(),
        epoch: world
            .leader
            .epoch()
            .ok_or("enclave never established an epoch")?,
        records: 1 + (members + transitions) as u64,
        appends: world.leader.counters().journal_appends,
    })
}

/// The journal directory as the crash left it, held in memory so it can
/// be put back after each cold open (an open appends a `Recover` record
/// to every stream and rewrites every fence). Restoring in place, rather
/// than copying the directory per open, keeps the harness's own disk
/// traffic out of the way of the opens it is timing.
struct Snapshot {
    files: Vec<(std::ffi::OsString, Vec<u8>)>,
}

impl Snapshot {
    fn take(dir: &Path) -> Result<Self, Fail> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
            let bytes = std::fs::read(entry.path())
                .map_err(|e| format!("read {}: {e}", entry.path().display()))?;
            files.push((entry.file_name(), bytes));
        }
        Ok(Snapshot { files })
    }

    fn restore(&self, dir: &Path) -> Result<(), Fail> {
        let io = |path: &Path, e: std::io::Error| format!("restore {}: {e}", path.display());
        for entry in std::fs::read_dir(dir).map_err(|e| io(dir, e))? {
            let entry = entry.map_err(|e| io(dir, e))?;
            if !self
                .files
                .iter()
                .any(|(name, _)| *name == entry.file_name())
            {
                std::fs::remove_file(entry.path()).map_err(|e| io(&entry.path(), e))?;
            }
        }
        for (name, bytes) in &self.files {
            let path = dir.join(name);
            let now = std::fs::read(&path).map_err(|e| io(&path, e))?;
            if now == *bytes {
                continue;
            }
            if now.starts_with(bytes) {
                // An append-only stream that grew: cut the growth off.
                let file = std::fs::OpenOptions::new().write(true).open(&path);
                file.and_then(|f| f.set_len(bytes.len() as u64))
                    .map_err(|e| io(&path, e))?;
            } else {
                std::fs::write(&path, bytes).map_err(|e| io(&path, e))?;
            }
        }
        Ok(())
    }
}

/// Every check a cold open must pass.
fn verify(reopened: &Reopened, expected: &[Expected]) -> Result<(), Fail> {
    if !reopened.failed.is_empty() {
        return Err(format!(
            "streams failed replay: {}",
            reopened.failed.join("; ")
        ));
    }
    if reopened.recovered.len() != expected.len() {
        return Err(format!(
            "{} enclaves recovered, {} were journaled",
            reopened.recovered.len(),
            expected.len()
        ));
    }
    for want in expected {
        let Some(got) = reopened.recovered.iter().find(|r| r.tag == want.tag) else {
            return Err(format!("enclave {} did not recover", want.tag));
        };
        if got.roster != want.roster {
            return Err(format!("enclave {} recovered a different roster", want.tag));
        }
        if got.records != want.records {
            return Err(format!(
                "enclave {} replayed {} records, {} were written",
                want.tag, got.records, want.records
            ));
        }
        if got.epoch.is_none_or(|e| e <= want.epoch) {
            return Err(format!(
                "enclave {} recovered at epoch {:?}, not past {}",
                want.tag, got.epoch, want.epoch
            ));
        }
    }
    Ok(())
}

impl Workload for CrashRecovery {
    fn name(&self) -> &'static str {
        "crash_recovery"
    }

    fn round(&mut self, tr: &mut Tracer, dir: &Path) -> Result<Round, Fail> {
        let mut round = Round::default();
        let setup = Instant::now();
        let mut rng = SeedRng::new(self.seed).fork(4);
        let journal_dir = dir.join("journal");
        let mut expected = Vec::with_capacity(self.enclaves);
        let mut file_bytes = 0u64;
        {
            let journal = Journal::open(&journal_dir)?;
            for g in 0..self.enclaves {
                let built =
                    build_enclave(tr, &journal, g, self.members, self.transitions, &mut rng)?;
                file_bytes += journal.stream_len(&built.tag);
                // Commit before dispatch: one record per transition, plus
                // the genesis the stream was created with.
                if built.appends + 1 != built.records {
                    return Err(format!(
                        "enclave {} journaled {} appends for {} transitions",
                        built.tag,
                        built.appends,
                        built.records - 1
                    ));
                }
                expected.push(built);
            }
            if self.fault == Fault::TruncatedJournal {
                let path = journal.stream_path(&expected[0].tag);
                let len = journal.stream_len(&expected[0].tag);
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| format!("open {}: {e}", path.display()))?;
                file.set_len(len / 2)
                    .map_err(|e| format!("truncate {}: {e}", path.display()))?;
            }
        }
        let snapshot = Snapshot::take(&journal_dir)?;
        let records: u64 = expected.iter().map(|e| e.records).sum();
        self.largest_record = self.largest_record.max((file_bytes / records) as usize);
        for _ in 0..self.opens.div_ceil(100) {
            Reopened::open(tr, &journal_dir)?.shutdown();
            snapshot.restore(&journal_dir)?;
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        for _ in 0..self.opens {
            let op = tr.begin_op("op.open");
            let reopened = Reopened::open(tr, &journal_dir);
            tr.end_op(op);
            // The op is the open itself: the checks run after its clock
            // has stopped, and shutting the service down and putting the
            // directory back are the harness's business.
            round.attempted += 1;
            let verdict = reopened.and_then(|reopened| {
                let verdict = verify(&reopened, &expected).map(|()| reopened.open_time);
                reopened.shutdown();
                verdict
            });
            match verdict {
                Ok(open_time) => {
                    let ns = u64::try_from(open_time.as_nanos()).unwrap_or(u64::MAX);
                    round.latencies_ns.push(ns);
                    round.timed_s += open_time.as_secs_f64();
                    round.work_units += records as f64;
                }
                Err(why) => {
                    round.failed += 1;
                    round.note(why);
                }
            }
            snapshot.restore(&journal_dir)?;
        }
        round.bytes = file_bytes;
        round.bytes_over = records;
        round.counts = LayerCounts {
            ops: round.attempted,
            leader: crate::sut::LeaderCounters {
                journal_appends: expected.iter().map(|e| e.appends).sum(),
                ..Default::default()
            },
            journaled_transitions: records - self.enclaves as u64,
            journal_bytes: file_bytes * round.attempted,
            replayed_records: records * round.attempted,
            replayed_bytes: file_bytes * round.attempted,
            threads: super::process_threads(),
            ..LayerCounts::default()
        };
        // Keep the restored directory beside the round directories, for
        // the probes that follow the last round.
        if let Some(parent) = dir.parent() {
            let kept = parent.join("last-journal");
            let _ = std::fs::remove_dir_all(&kept);
            if std::fs::rename(&journal_dir, &kept).is_ok() {
                self.last_journal = Some(kept);
            }
        }
        Ok(round)
    }

    /// Replays and recovers every stream of the last round's journal,
    /// then re-appends one stream's records to a scratch stream.
    fn probes(&mut self, tr: &mut Tracer, dir: &Path) -> Result<Probes, Fail> {
        let mut probes = crypto_probes(tr, self.largest_record);
        let Some(journal_dir) = self.last_journal.as_deref() else {
            return Ok(probes);
        };
        let journal = Journal::open(journal_dir)?;
        let (mut records, mut replay_ns, mut recover_ns) = (0u64, 0u128, 0u128);
        let mut first = None;
        for g in 0..self.enclaves {
            let started = Instant::now();
            // A stream the fault tests damaged has nothing to probe.
            let Ok(replayed) = journal.replay(tr, &tag_of(g)) else {
                continue;
            };
            replay_ns += started.elapsed().as_nanos();
            let started = Instant::now();
            sut::recover_probe(tr, &replayed)?;
            recover_ns += started.elapsed().as_nanos();
            records += replayed.records();
            first.get_or_insert(replayed);
        }
        probes.replay_ns_per_record = replay_ns as f64 / records.max(1) as f64;
        probes.recover_ns_per_record = recover_ns as f64 / records.max(1) as f64;
        if let Some(replayed) = first {
            let scratch = Journal::open(&dir.join("append-probe"))?;
            let started = Instant::now();
            let appended = scratch.append_probe(tr, &tag_of(0), &replayed)?;
            probes.append_ns = started.elapsed().as_nanos() as f64 / appended.max(1) as f64;
        }
        Ok(probes)
    }
}
