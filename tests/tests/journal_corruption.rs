//! Journal corruption battery, in the `fuzz_protocol.rs` spirit: no
//! mutation of a sealed journal stream is ever replayed with effect.
//! Exhaustively — every single-bit flip, every truncation length, every
//! record transposition, and every fence-file flip — the reader answers
//! with a typed [`JournalError`], or (for a clean truncation in recover
//! mode) with exactly the valid prefix and nothing else.

use enclaves_bench::{leader_id, member_id, member_key, pump, settle};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::journal::{
    decode_stream, genesis_for, label_for, JournalDir, JournalError, ReadMode,
};
use enclaves_core::protocol::{LeaderCore, MemberSession};
use enclaves_crypto::rng::SeededRng;
use std::fs;
use std::path::PathBuf;

/// Self-cleaning unique temp directory (no tempfile crate in-tree).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "enclaves-journal-corruption-{tag}-{}",
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

/// A sealed five-record stream (genesis, two joins, a rekey, a leave)
/// with everything the batteries need: the raw bytes, the per-record end
/// offsets, the digest after each record count, and the open journal for
/// key access.
struct Fixture {
    _dir: TempDir,
    journal: JournalDir,
    label: Vec<u8>,
    bytes: Vec<u8>,
    /// `ends[k]` = byte offset where record `k + 1` ends.
    ends: Vec<usize>,
    /// `digests[k]` = live durable digest after `k + 1` records.
    digests: Vec<[u8; 32]>,
}

fn fixture(tag: &str) -> Fixture {
    let dir = TempDir::new(tag);
    let mut directory = Directory::new();
    for i in 0..2 {
        directory.register_key(&member_id(i), member_key(i));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::OnJoinAndLeave,
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
        Box::new(SeededRng::from_seed(7)),
    );
    leader.attach_journal(writer);

    let mut members = Vec::new();
    let mut digests = vec![leader.durable_digest()];
    for i in 0..2 {
        let (session, init) = MemberSession::start_with_key_in_group(
            member_id(i),
            leader_id(),
            member_key(i),
            Box::new(SeededRng::from_seed(100 + i as u64)),
            None,
        );
        members.push(session);
        pump(&mut leader, &mut members, init);
        digests.push(leader.durable_digest());
    }
    let out = leader.rekey_now().expect("two members to rekey");
    settle(&mut leader, &mut members, out.outgoing);
    digests.push(leader.durable_digest());
    let close = members[0].leave().expect("joined member leaves");
    pump(&mut leader, &mut members, close);
    digests.push(leader.durable_digest());

    drop(leader); // release the writer before reading the file
    let bytes = fs::read(journal.stream_path(&label)).expect("read stream");
    let mut ends = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let body_len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("length prefix"))
                as usize;
        offset += 4 + body_len;
        ends.push(offset);
    }
    assert_eq!(offset, bytes.len(), "stream must parse into whole records");
    assert_eq!(ends.len(), 5, "genesis + join + join + rekey + leave");
    assert_eq!(digests.len(), ends.len(), "one digest per record");
    Fixture {
        _dir: dir,
        journal,
        label,
        bytes,
        ends,
        digests,
    }
}

impl Fixture {
    fn replay(&self, bytes: &[u8], mode: ReadMode) -> Result<u64, JournalError> {
        decode_stream(
            &self.journal.stream_key(&self.label),
            &self.label,
            bytes,
            mode,
        )
        .map(|replay| replay.records)
    }
}

/// Every single-bit flip anywhere in the stream is rejected with a typed
/// error in strict mode — CRC-in-AAD, the AEAD seal, the sequence chain,
/// and the length-plausibility window leave no byte unguarded.
#[test]
fn every_single_bit_flip_is_rejected() {
    let fx = fixture("bitflip");
    let mut mutated = fx.bytes.clone();
    for byte in 0..mutated.len() {
        for bit in 0..8 {
            mutated[byte] ^= 1 << bit;
            let verdict = fx.replay(&mutated, ReadMode::Strict);
            assert!(
                verdict.is_err(),
                "flip of bit {bit} in byte {byte} must be detected, got {verdict:?}"
            );
            mutated[byte] ^= 1 << bit;
        }
    }
    assert_eq!(mutated, fx.bytes, "the probe must restore every flip");
    assert_eq!(
        fx.replay(&fx.bytes, ReadMode::Strict).expect("pristine"),
        5,
        "the pristine stream still replays"
    );
}

/// Every truncation length is either refused outright or — in recover
/// mode, when the cut leaves at least a whole genesis — replayed as
/// exactly the valid record prefix, whose rebuilt core matches the digest
/// the live leader had at that record count. No truncation ever yields a
/// state the live system never held.
#[test]
fn every_truncation_recovers_the_exact_valid_prefix_or_is_refused() {
    let fx = fixture("truncate");
    for cut in 0..fx.bytes.len() {
        let prefix = &fx.bytes[..cut];
        let complete = fx.ends.iter().filter(|&&end| end <= cut).count();
        let on_boundary = fx.ends.contains(&cut);

        let strict = fx.replay(prefix, ReadMode::Strict);
        if on_boundary {
            // A cut exactly on a record boundary is a valid shorter
            // stream — indistinguishable by content alone, which is what
            // the epoch fence exists to catch at recovery time.
            assert_eq!(strict.expect("boundary cut"), complete as u64);
        } else {
            assert!(strict.is_err(), "strict must refuse a cut at {cut}");
        }

        let recovered = decode_stream(
            &fx.journal.stream_key(&fx.label),
            &fx.label,
            prefix,
            ReadMode::Recover,
        );
        if complete == 0 {
            assert!(
                matches!(recovered, Err(JournalError::MissingGenesis)),
                "a cut inside the genesis cannot recover (cut {cut})"
            );
        } else {
            let replay = recovered.expect("recover mode tolerates a torn tail");
            assert_eq!(replay.records, complete as u64, "cut {cut}");
            let rebuilt = LeaderCore::recover(&replay).expect("prefix rebuilds");
            assert_eq!(
                rebuilt.durable_digest(),
                fx.digests[complete - 1],
                "cut {cut} must recover the exact state after record {complete}"
            );
        }
    }
}

/// Transposing any two whole records breaks the sequence chain: both
/// read modes refuse the stream (reorder is not a tail anomaly).
#[test]
fn swapping_any_two_records_is_rejected_in_both_modes() {
    let fx = fixture("swap");
    let starts: Vec<usize> = std::iter::once(0)
        .chain(fx.ends.iter().copied())
        .take(fx.ends.len())
        .collect();
    for i in 0..fx.ends.len() {
        for j in (i + 1)..fx.ends.len() {
            let mut swapped = Vec::with_capacity(fx.bytes.len());
            for k in 0..fx.ends.len() {
                let src = if k == i {
                    j
                } else if k == j {
                    i
                } else {
                    k
                };
                swapped.extend_from_slice(&fx.bytes[starts[src]..fx.ends[src]]);
            }
            assert!(
                fx.replay(&swapped, ReadMode::Strict).is_err(),
                "strict replay must refuse records {i} and {j} swapped"
            );
            assert!(
                fx.replay(&swapped, ReadMode::Recover).is_err(),
                "recover replay must refuse records {i} and {j} swapped"
            );
        }
    }
}

/// Every single-bit flip in the sealed fence file is detected: a
/// tampered fence must never feed a bogus epoch floor into recovery.
#[test]
fn every_fence_bit_flip_is_rejected() {
    let fx = fixture("fence");
    assert!(
        fx.journal
            .read_fence(&fx.label)
            .expect("intact fence")
            .is_some(),
        "the epoch rotations must have fenced"
    );
    let fence_path = fx.journal.stream_path(&fx.label).with_extension("fence");
    let pristine = fs::read(&fence_path).expect("fence file");
    let mut mutated = pristine.clone();
    for byte in 0..mutated.len() {
        for bit in 0..8 {
            mutated[byte] ^= 1 << bit;
            fs::write(&fence_path, &mutated).expect("write fence probe");
            assert!(
                fx.journal.read_fence(&fx.label).is_err(),
                "flip of bit {bit} in fence byte {byte} must be detected"
            );
            mutated[byte] ^= 1 << bit;
        }
    }
    fs::write(&fence_path, &pristine).expect("restore fence");
    assert!(fx
        .journal
        .read_fence(&fx.label)
        .expect("restored")
        .is_some());
}
