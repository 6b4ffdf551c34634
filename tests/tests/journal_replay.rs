//! Durability property: journal replay is a **pure function of the byte
//! stream**. Whatever interleaving of joins, leaves, expels, evictions,
//! rekeys and restarts a live leader journals — flat or tree mode —
//! replaying the stream rebuilds a core whose durable digest (roster,
//! epoch stamp, key tree) is byte-identical to the live one. And a stream
//! cut mid-record (the torn tail a `kill -9` leaves behind) recovers to
//! exactly the state after the last *complete* record, never to anything
//! in between.
//!
//! A batch commit — several joins staged and committed as one epoch — is
//! one record, replayed through the same transition as a single join, and
//! a history of single joins writes exactly the records it always did.
//!
//! And the epoch fence is a leased upper bound that is on disk before the
//! record that needs it: whatever prefix of a history survives, recovery
//! restarts strictly past every epoch any record ever committed.

use enclaves_bench::{leader_id, member_id, member_key, pump, settle};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::journal::{
    genesis_for, label_for, JournalDir, JournalError, ReadMode, ReplayedStream, FENCE_LEASE,
};
use enclaves_core::protocol::{LeaderCore, MemberSession};
use enclaves_crypto::rng::SeededRng;
use enclaves_crypto::sha256::Sha256;
use enclaves_wire::codec::encode;
use enclaves_wire::journal::{EpochStamp, JournalOp, JournalPayload, JournalTransition};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Self-cleaning unique temp directory (no tempfile crate in-tree).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "enclaves-journal-replay-{tag}-{}-{n}",
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

/// One roster/epoch operation against the live leader.
#[derive(Clone, Debug)]
enum Op {
    Join(usize),
    /// The cast members the mask names, staged together and committed
    /// once.
    Batch(u8),
    Leave(usize),
    Expel(usize),
    Evict(usize),
    Rekey,
    /// The leader restarts from its journal as the service's open does
    /// (replay, rebuild, reopen, recovery epoch), every session lost,
    /// and the history goes on with the recovered core.
    Restart,
}

const CAST: usize = 4;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CAST).prop_map(Op::Join),
        (0..CAST).prop_map(Op::Join),
        (1u8..16).prop_map(Op::Batch),
        (0..CAST).prop_map(Op::Leave),
        (0..CAST).prop_map(Op::Expel),
        (0..CAST).prop_map(Op::Evict),
        Just(Op::Rekey),
        Just(Op::Restart),
    ]
}

/// The live world right after one record was committed.
struct Mark {
    /// Stream length.
    len: u64,
    /// The live core's durable digest.
    digest: [u8; 32],
    /// The live epoch (0 before the first key).
    epoch: u64,
    /// The fence file as it then was.
    fence: Option<Vec<u8>>,
}

/// A live journaled world after `ops`, plus the journal handle and the
/// marks: `marks[k]` is the world after `k + 1` records were committed
/// (`marks[0]` is the genesis).
struct Driven {
    dir: TempDir,
    journal: JournalDir,
    label: Vec<u8>,
    leader: LeaderCore,
    marks: Vec<Mark>,
}

fn fence_path(journal: &JournalDir, label: &[u8]) -> PathBuf {
    journal.stream_path(label).with_extension("fence")
}

fn drive(ops: &[Op], tree: bool, seed: u64) -> Driven {
    let dir = TempDir::new(if tree { "tree" } else { "flat" });
    let mut directory = Directory::new();
    for i in 0..CAST {
        directory.register_key(&member_id(i), member_key(i));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
        tree_rekey: tree,
        ..LeaderConfig::default()
    };
    let journal = JournalDir::open_or_init(&dir.0).expect("fresh journal dir");
    let label = label_for(None);
    let genesis = genesis_for(&leader_id(), &directory, &config);
    let writer = journal
        .create_stream(&label, &genesis)
        .expect("fresh stream");
    let mut leader = LeaderCore::with_rng(
        leader_id(),
        directory,
        config,
        Box::new(SeededRng::from_seed(seed)),
    );
    leader.attach_journal(writer);

    let stream_path = journal.stream_path(&label);
    let fence_path = fence_path(&journal, &label);
    let mark = |leader: &LeaderCore| Mark {
        len: fs::metadata(&stream_path).map_or(0, |m| m.len()),
        digest: leader.durable_digest(),
        epoch: leader.epoch().unwrap_or(0),
        fence: fs::read(&fence_path).ok(),
    };
    let mut marks = vec![mark(&leader)];

    // Placeholder pre-handshake sessions so `pump` can index the cast;
    // a `Join` replaces the slot with a fresh session and pumps its init.
    let mut members: Vec<MemberSession> = (0..CAST)
        .map(|i| {
            MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id(),
                member_key(i),
                Box::new(SeededRng::from_seed(seed ^ (1000 + i as u64))),
                None,
            )
            .0
        })
        .collect();

    for (k, op) in ops.iter().enumerate() {
        match op {
            Op::Join(i) => {
                let (session, init) = MemberSession::start_with_key_in_group(
                    member_id(*i),
                    leader_id(),
                    member_key(*i),
                    Box::new(SeededRng::from_seed(seed ^ (2000 + (k * CAST + i) as u64))),
                    None,
                );
                members[*i] = session;
                pump(&mut leader, &mut members, init);
            }
            Op::Batch(mask) => {
                let acks: Vec<_> = (0..CAST)
                    .filter(|i| mask & (1 << i) != 0)
                    .filter_map(|i| {
                        let (session, init) = MemberSession::start_with_key_in_group(
                            member_id(i),
                            leader_id(),
                            member_key(i),
                            Box::new(SeededRng::from_seed(seed ^ (3000 + (k * CAST + i) as u64))),
                            None,
                        );
                        let kd = leader.handle_at(&init, Duration::ZERO).ok()?.outgoing;
                        members[i] = session;
                        members[i].handle(kd.first()?).ok()?.reply
                    })
                    .collect();
                for ack in &acks {
                    let out = leader
                        .stage_at(ack, Duration::ZERO)
                        .expect("a fresh ack stages");
                    assert!(out.outgoing.is_empty());
                }
                let out = leader.commit().expect("the batch commits");
                settle(&mut leader, &mut members, out.outgoing);
            }
            Op::Leave(i) => {
                if let Ok(close) = members[*i].leave() {
                    pump(&mut leader, &mut members, close);
                }
            }
            Op::Expel(i) => {
                if let Ok(out) = leader.expel(&member_id(*i)) {
                    settle(&mut leader, &mut members, out.outgoing);
                }
            }
            Op::Evict(i) => {
                if let Ok(out) = leader.evict(&member_id(*i)) {
                    settle(&mut leader, &mut members, out.outgoing);
                }
            }
            Op::Rekey => {
                if let Ok(out) = leader.rekey_now() {
                    settle(&mut leader, &mut members, out.outgoing);
                }
            }
            Op::Restart => {
                drop(leader); // release the writer's file handle first
                let replay = journal
                    .replay_stream(&label, ReadMode::Recover)
                    .expect("a live stream replays");
                leader = LeaderCore::recover(&replay).expect("a live stream rebuilds");
                leader.attach_journal(journal.open_writer(&label, &replay).expect("reopen stream"));
                leader
                    .recovery_advance(replay.fenced_epoch)
                    .expect("journal the recovery epoch");
            }
        }
        let now = mark(&leader);
        if now.len > marks.last().expect("genesis mark").len {
            marks.push(now);
        }
    }

    Driven {
        dir,
        journal,
        label,
        leader,
        marks,
    }
}

/// Replays the full stream strictly and checks byte-identity with the
/// live core; then cuts the stream mid-record and checks the torn-tail
/// recovery lands exactly on the last complete record's digest.
fn check_replay(ops: &[Op], tree: bool, seed: u64, cut_selector: u64) {
    let driven = drive(ops, tree, seed);

    // Pure replay: the recovered core is byte-identical to the live one.
    let replay = driven
        .journal
        .replay_stream(&driven.label, ReadMode::Strict)
        .expect("an uncorrupted stream replays strictly");
    let recovered = LeaderCore::recover(&replay).expect("replay rebuilds the core");
    prop_assert_eq!(
        recovered.durable_digest(),
        driven.leader.durable_digest(),
        "live and replayed cores must be byte-identical"
    );
    prop_assert_eq!(recovered.roster(), driven.leader.roster());
    prop_assert_eq!(recovered.epoch(), driven.leader.epoch());
    prop_assert_eq!(replay.records, driven.marks.len() as u64);

    // Torn tail: truncate strictly inside record j+1 (marks[j] is the
    // state after j+1 records). Recovery must land on marks[j], and a
    // strict read must refuse the tail.
    if driven.marks.len() >= 2 {
        let j = 1 + (cut_selector as usize % (driven.marks.len() - 1));
        let (lo, hi) = (driven.marks[j - 1].len, driven.marks[j].len);
        let cut = lo + 1 + (cut_selector % (hi - lo - 1).max(1));
        drop(driven.leader); // release the writer's file handle first
        let path = driven.journal.stream_path(&driven.label);
        let bytes = fs::read(&path).expect("read stream");
        fs::write(&path, &bytes[..usize::try_from(cut).expect("small file")])
            .expect("truncate stream");

        prop_assert!(
            driven
                .journal
                .replay_stream(&driven.label, ReadMode::Strict)
                .is_err(),
            "a torn tail must fail a strict read"
        );
        let torn = driven
            .journal
            .replay_stream(&driven.label, ReadMode::Recover)
            .expect("recover mode tolerates exactly a trailing torn record");
        prop_assert_eq!(torn.records, j as u64, "torn replay record count");
        prop_assert!(torn.torn_bytes > 0, "the cut must register as torn");
        let rebuilt = LeaderCore::recover(&torn).expect("torn replay rebuilds");
        prop_assert_eq!(
            rebuilt.durable_digest(),
            driven.marks[j - 1].digest,
            "torn-tail recovery must land exactly on the last complete record"
        );
    }
    drop(driven.dir);
}

/// Recovers a planted (stream, fence) pair the way the service does —
/// replay tolerating a torn tail, rebuild, reattach, advance — and returns
/// the epoch the restarted leader would serve.
fn recovered_epoch(driven: &Driven, stream: &[u8], fence: Option<&[u8]>) -> Option<u64> {
    fs::write(driven.journal.stream_path(&driven.label), stream).expect("plant stream");
    let fence_path = fence_path(&driven.journal, &driven.label);
    match fence {
        Some(bytes) => fs::write(&fence_path, bytes).expect("plant fence"),
        None => drop(fs::remove_file(&fence_path)),
    }
    let replay = driven
        .journal
        .replay_stream(&driven.label, ReadMode::Recover)
        .expect("a prefix of a valid stream replays");
    let mut core = LeaderCore::recover(&replay).expect("a prefix rebuilds");
    core.attach_journal(
        driven
            .journal
            .open_writer(&driven.label, &replay)
            .expect("reopen stream"),
    );
    core.recovery_advance(replay.fenced_epoch)
        .expect("journal the recovery epoch")
}

/// Cuts a history — `burst` rekeys long enough to cross fence leases —
/// at and inside every record, and restarts from each cut twice: with
/// the fence of that moment (a crash: the record being appended may be
/// lost, its fence is already there) and with the final fence (a stale
/// stream restored behind it). Neither may re-issue an epoch.
fn check_fence(ops: &[Op], tree: bool, seed: u64, burst: usize) {
    let mut history = vec![Op::Join(0)];
    history.extend(std::iter::repeat_n(Op::Rekey, burst));
    history.extend_from_slice(ops);
    let mut driven = drive(&history, tree, seed);
    let marks = std::mem::take(&mut driven.marks);
    let last = marks.last().expect("genesis mark");
    let ever = last.epoch;
    let full = fs::read(driven.journal.stream_path(&driven.label)).expect("read stream");
    if burst as u64 > FENCE_LEASE {
        prop_assert!(last.fence != marks[1].fence, "the burst must cross a lease");
    }

    for k in 1..marks.len() {
        let (lo, hi) = (marks[k - 1].len as usize, marks[k].len as usize);
        let then = &marks[k];
        // The fence of that moment was written before record k.
        prop_assert!(then.fence.is_some(), "record {k} committed unfenced");
        // Record k lost whole (the crash fell between its fence write and
        // its append) or torn in half, alternately.
        let cut = lo + (k % 2) * (hi - lo) / 2;
        let crashed = recovered_epoch(&driven, &full[..cut], then.fence.as_deref());
        prop_assert!(
            crashed.is_some_and(|e| e > then.epoch && e <= then.epoch + FENCE_LEASE + 1),
            "crash in record {k} at byte {cut}: restarted at {crashed:?}, \
             record committed {}",
            then.epoch
        );
        let stale = recovered_epoch(&driven, &full[..cut], last.fence.as_deref());
        prop_assert!(
            stale.is_some_and(|e| e > ever),
            "stale restore cut at byte {cut}: restarted at {stale:?}, \
             members saw {ever}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fence lease: no prefix of a history, with the fence of its moment
    /// or a later one, recovers onto an epoch a record ever committed.
    #[test]
    fn recovery_lands_past_every_epoch_ever_appended(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        tree in any::<bool>(),
        seed in any::<u64>(),
        burst in 0usize..100,
    ) {
        check_fence(&ops, tree, seed, burst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flat mode: arbitrary op interleavings replay byte-identically,
    /// including after a mid-record cut.
    #[test]
    fn flat_journal_replay_is_a_pure_function_of_the_stream(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        check_replay(&ops, false, seed, cut);
    }

    /// Tree mode: the same purity holds when every transition carries
    /// key-tree surgery (path updates, refreshes, reinits).
    #[test]
    fn tree_journal_replay_is_a_pure_function_of_the_stream(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        check_replay(&ops, true, seed, cut);
    }
}

/// A live world of `CAST` members, the first `solo` joined one by one and
/// the rest staged together and committed once, journaled.
fn batch_world(tree: bool, solo: usize) -> (TempDir, JournalDir, LeaderCore) {
    let ops: Vec<Op> = (0..solo)
        .map(Op::Join)
        .chain([Op::Batch(((1u8 << CAST) - 1) & !((1u8 << solo) - 1))])
        .collect();
    let driven = drive(&ops, tree, 0xBA7C);
    (driven.dir, driven.journal, driven.leader)
}

/// A batch commit is one `Joins` record, and replaying the stream lands
/// on the live core's durable digest in both modes, a batch into an empty
/// group included.
#[test]
fn a_batch_commit_is_one_record_and_replays_to_the_live_digest() {
    for tree in [false, true] {
        for solo in [0, 1, 2] {
            let (dir, journal, leader) = batch_world(tree, solo);
            let replay = journal
                .replay_stream(&label_for(None), ReadMode::Strict)
                .expect("the stream replays");
            assert_eq!(
                replay.transitions.len(),
                solo + 1,
                "tree={tree} solo={solo}"
            );
            let batch: Vec<_> = (solo..CAST).map(member_id).collect();
            assert_eq!(
                replay.transitions.last().map(|t| &t.op),
                Some(&JournalOp::Joins(batch)),
                "tree={tree} solo={solo}"
            );
            let recovered = LeaderCore::recover(&replay).expect("replay rebuilds");
            assert_eq!(recovered.durable_digest(), leader.durable_digest());
            assert_eq!(recovered.roster().len(), CAST);
            drop(dir);
        }
    }
}

/// A history of one-by-one joins, leaves, expels and rekeys writes the
/// same transition records, byte for byte, as it did before batch commits
/// existed — the pinned digests were produced by that code — so streams
/// it wrote recover here unchanged.
#[test]
fn single_change_records_are_the_pre_batch_records() {
    let ops = [
        Op::Join(0),
        Op::Join(1),
        Op::Join(2),
        Op::Rekey,
        Op::Leave(1),
        Op::Join(3),
        Op::Expel(0),
        Op::Join(1),
    ];
    for (tree, pinned) in [
        (
            false,
            "83e3cd4209bccd3d8f13aee8b0d03c382d5c3175a317517df39c838f96972b8f",
        ),
        (
            true,
            "5d1b88070ff06b6253b6299ce84a04ec5e7716c323cc2081adf0382513f2d939",
        ),
    ] {
        let driven = drive(&ops, tree, 0x5EED);
        let replay = driven
            .journal
            .replay_stream(&driven.label, ReadMode::Strict)
            .expect("the stream replays");
        let mut h = Sha256::new();
        for t in &replay.transitions {
            h.update(&encode(&JournalPayload::Transition(t.clone())));
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, pinned, "tree={tree}");
        let recovered = LeaderCore::recover(&replay).expect("replay rebuilds");
        assert_eq!(recovered.durable_digest(), driven.leader.durable_digest());
    }
}

/// A flat history built in memory over an all-zero RNG tape: every key
/// and IV it draws is zero, so each stamp can be written down by hand and
/// a tape cut one byte short regenerates the same key (the player
/// zero-fills), leaving only the tape check to notice.
fn zero_tape_stream() -> ReplayedStream {
    let mut directory = Directory::new();
    for i in 0..2 {
        directory.register_key(&member_id(i), member_key(i));
    }
    let genesis = genesis_for(&leader_id(), &directory, &LeaderConfig::default());
    let draw = vec![0u8; 12 + 32]; // one epoch: IV, then key
    let record = |op: JournalOp, tape: &[u8], epoch: u64| JournalTransition {
        op,
        tape: tape.to_vec(),
        stamp: EpochStamp {
            epoch,
            key: [0; 32],
            iv: [0; 12],
        },
    };
    // `LeaderConfig::default()` rekeys on join and on leave.
    let transitions = vec![
        record(JournalOp::Join(member_id(0)), &draw, 1),
        record(JournalOp::Join(member_id(1)), &draw, 2),
        record(JournalOp::Rekey, &draw, 3),
        record(JournalOp::Leave(member_id(1)), &draw, 4),
        record(JournalOp::Leave(member_id(0)), &[], 4),
    ];
    ReplayedStream {
        genesis,
        records: transitions.len() as u64 + 1,
        transitions,
        torn_bytes: 0,
        valid_len: 0,
        next_seq: 0,
        fenced_epoch: None,
    }
}

/// Replay refuses every way a record can disagree with the code, each
/// with its own sequence number and text: a rekey of an empty group, a
/// stamp whose epoch or key differs from what the transition
/// regenerates, and a tape shorter or longer than the transition draws.
#[test]
fn replay_refuses_each_divergence_with_its_own_error() {
    let base = zero_tape_stream();
    let recovered = LeaderCore::recover(&base).expect("the hand-built history replays");
    assert_eq!(recovered.epoch(), Some(4));
    assert!(recovered.roster().is_empty());

    let refusal = |alter: fn(&mut Vec<JournalTransition>)| {
        let mut stream = zero_tape_stream();
        alter(&mut stream.transitions);
        match LeaderCore::recover(&stream) {
            Err(JournalError::ReplayDivergence { seq, detail }) => (seq, detail),
            other => panic!("expected a replay divergence, got {:?}", other.map(|_| ())),
        }
    };
    let diverged = |seq: u64, detail: &str| (seq, detail.to_string());
    assert_eq!(
        refusal(|t| t.push(t[2].clone())),
        diverged(7, "rekey recorded for an empty group")
    );
    assert_eq!(
        refusal(|t| t[2].stamp.epoch += 1),
        diverged(4, "epoch 3 != recorded 4")
    );
    assert_eq!(
        refusal(|t| t[2].stamp.key[7] ^= 0x40),
        diverged(4, "regenerated key material differs from the stamp")
    );
    assert_eq!(
        refusal(|t| t[2].tape.truncate(12 + 32 - 1)),
        diverged(4, "rng tape mismatch (underrun: true, leftover: 0 bytes)")
    );
    assert_eq!(
        refusal(|t| t[2].tape.push(0)),
        diverged(4, "rng tape mismatch (underrun: false, leftover: 1 bytes)")
    );
}

/// The departure of a non-member is no transition: the live core never
/// journals one, so replay refuses a record of it.
#[test]
fn replay_refuses_a_departure_of_a_non_member() {
    let mut stream = zero_tape_stream();
    let last = stream.transitions[4].clone();
    stream.transitions.push(JournalTransition {
        op: JournalOp::Expel(member_id(1)),
        ..last
    });
    assert!(matches!(
        LeaderCore::recover(&stream),
        Err(JournalError::ReplayDivergence { seq: 7, detail })
            if detail == "departure recorded for a non-member"
    ));
}
