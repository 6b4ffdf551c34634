//! The leader's sealed write-ahead journal.
//!
//! The paper's leader is the sole committer of roster/epoch transitions,
//! which makes it a single point of *durability* failure: a restarted
//! leader forgets every enclave. This module gives each enclave an
//! append-only stream of sealed records so that a leader killed mid-flight
//! (`kill -9`) can rebuild every group core at the recorded epoch and let
//! members re-admit themselves through the auto-rejoin path.
//!
//! # Record format
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬───────────┬──────────────────────┐
//! │ len: u32 │ seq: u64 │ crc: u32 │ nonce 12B │ ciphertext (pt+16B)  │
//! └──────────┴──────────┴──────────┴───────────┴──────────────────────┘
//!              └──────── len covers seq..end ───────────────────────┘
//! AAD = "EJR1" ‖ stream label ‖ seq_be ‖ crc_be
//! ```
//!
//! * `seq` is strictly monotonic from 1 and bound into the AAD, so records
//!   cannot be reordered, duplicated, or spliced between streams.
//! * `crc` is the CRC-32 of the *plaintext*, stored in clear and bound
//!   into the AAD: a reader can fast-fail on bit rot, and a forger cannot
//!   adjust the header without failing authentication.
//! * The nonce is drawn fresh from OS entropy per record (never derived
//!   from `seq`, so a torn-tail rewrite at the same sequence number can
//!   never reuse a keystream).
//! * Per-stream keys are HKDF-derived from one master key
//!   ([`JournalKey::derive_stream`]), so renaming a stream file on disk
//!   changes its label and every seal fails.
//!
//! # Crash model
//!
//! Records are pushed to the OS on every append (`write_all`), which
//! survives process death — the `kill -9` model this journal defends
//! against. Whole-machine power loss additionally needs an fsync policy,
//! which is deliberately out of scope here.
//!
//! # Replay
//!
//! Each transition record carries the exact bytes the live transition drew
//! from the leader's RNG (recorded via [`TapeRecorder`], replayed via
//! [`TapePlayer`]) plus the epoch stamp it produced, so replay is a pure
//! function of the byte stream: re-running the same transition functions
//! over the tape regenerates roster, epoch, *and key material*
//! byte-for-byte, and the stamp cross-check turns any divergence into a
//! typed error instead of a silently wrong group key.
//!
//! # The fence: a leased upper bound
//!
//! A `<stem>.fence` file beside each stream holds a sealed epoch number
//! that is **at least** every epoch any record of the stream has ever
//! committed. It is a lease, not a mirror: when a record's epoch would
//! exceed it, the writer first rewrites the fence [`FENCE_LEASE`] epochs
//! ahead of that record and only then appends the record — both before
//! the transition's frames are dispatched. The next [`FENCE_LEASE`]
//! transitions append without touching the fence, so the rewrite is paid
//! once per lease, not once per transition. It is one 36-byte `write` at
//! offset 0 of the same file, which under the crash model below is applied
//! whole or not at all: the old bound or the new one, with no directory
//! operation. An empty fence (a first creation cut before its write) reads
//! as none; the record that needed it comes after it and was never written.
//!
//! Recovery restarts strictly past `max(replayed epoch, fence)`. Because
//! the fence is on disk before the record that needs it, this holds
//! whatever a crash or a restore did to the stream: a torn tail, a
//! record lost between the fence write and the append, or a *stale*
//! stream (an old copy restored from backup behind the current fence)
//! can never rewind members onto an epoch they have already seen. The
//! price is an epoch gap of at most [`FENCE_LEASE`] after a restart,
//! which members cannot observe as a fault: their sessions died with the
//! leader, re-admission is by `Welcome` at whatever epoch the leader now
//! serves, and "strictly newer" is the only rule an epoch must obey.
//!
//! Still open under ROADMAP item 5: an fsync policy (with group commit),
//! compaction, and a `Storage` trait for injected disk faults.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::liveness::LivenessConfig;
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::crc::crc32;
use enclaves_crypto::keys::{JournalKey, LongTermKey};
use enclaves_crypto::nonce::AeadNonce;
use enclaves_crypto::poly1305::TAG_LEN;
use enclaves_crypto::rng::{CryptoRng, OsEntropyRng};
use enclaves_wire::codec::{self, Encode as _};
use enclaves_wire::journal::{
    JournalGenesis, JournalPayload, JournalTransition, LivenessWire, RekeyPolicyWire, JOURNAL_MAGIC,
};
use enclaves_wire::{ActorId, GroupId};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File name of the journal master key inside a journal directory.
pub const MASTER_KEY_FILE: &str = "journal.key";

/// The stream label used for a solo (untagged) group. Starts with a
/// control character, which [`GroupId`] forbids, so it can never collide
/// with a real enclave tag.
pub const SOLO_LABEL: &[u8] = b"\x00solo";

/// How many epochs ahead of the record that crosses it the fence is
/// written: one fence rewrite per this many transitions, and at most this
/// large an epoch gap after a crash (see the module docs).
pub const FENCE_LEASE: u64 = 64;

/// Bytes of the fence file: nonce + sealed epoch + tag.
const FENCE_LEN: usize = 12 + 8 + TAG_LEN;

/// Bytes of a record before its ciphertext: len + seq + crc + nonce.
const RECORD_HEADER_LEN: usize = 4 + 8 + 4 + 12;

/// Minimum body length of a record: seq + crc + nonce + AEAD tag.
const MIN_BODY_LEN: u32 = (RECORD_HEADER_LEN - 4 + TAG_LEN) as u32;

/// Ceiling on a single record body; anything larger is corruption.
const MAX_BODY_LEN: u32 = 1 << 24;

/// Errors from journal I/O, decoding, and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// The OS error message.
        detail: String,
    },
    /// The master key file exists but is not exactly 32 bytes.
    BadMasterKey,
    /// A stream file name under the journal directory is not hex-decodable.
    BadStreamName {
        /// The offending file name.
        name: String,
    },
    /// A stream already exists where a new one was to be created.
    StreamExists {
        /// The stream file name.
        stream: String,
    },
    /// A stream's first record is missing or is not a genesis record.
    MissingGenesis,
    /// A genesis record appeared after the first record.
    DuplicateGenesis {
        /// The sequence number of the duplicate.
        seq: u64,
    },
    /// A complete record failed authentication, checksum, or decoding.
    Corrupt {
        /// The sequence number (the expected one if the header itself is
        /// unreadable).
        seq: u64,
        /// What failed.
        detail: &'static str,
    },
    /// A record's sequence number broke the +1 chain (reorder or splice).
    SequenceGap {
        /// The sequence number expected next.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// The stream ends in a torn (incomplete) record — rejected in
    /// [`ReadMode::Strict`], tolerated in [`ReadMode::Recover`].
    TornTail {
        /// How many trailing bytes do not form a complete record.
        bytes: u64,
    },
    /// The fence file exists but failed authentication or has the wrong
    /// size.
    BadFence,
    /// Deterministic replay did not reproduce the recorded state.
    ReplayDivergence {
        /// The sequence number of the diverging record.
        seq: u64,
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, kind, detail } => {
                write!(f, "journal i/o failure during {op}: {kind:?}: {detail}")
            }
            JournalError::BadMasterKey => write!(f, "journal master key file is malformed"),
            JournalError::BadStreamName { name } => {
                write!(f, "undecodable journal stream name {name:?}")
            }
            JournalError::StreamExists { stream } => {
                write!(f, "journal stream {stream} already exists")
            }
            JournalError::MissingGenesis => write!(f, "journal stream has no genesis record"),
            JournalError::DuplicateGenesis { seq } => {
                write!(f, "genesis record repeated at sequence {seq}")
            }
            JournalError::Corrupt { seq, detail } => {
                write!(f, "journal record {seq} corrupt: {detail}")
            }
            JournalError::SequenceGap { expected, found } => {
                write!(
                    f,
                    "journal sequence gap: expected {expected}, found {found}"
                )
            }
            JournalError::TornTail { bytes } => {
                write!(f, "journal ends in a torn record ({bytes} trailing bytes)")
            }
            JournalError::BadFence => write!(f, "journal fence file is malformed"),
            JournalError::ReplayDivergence { seq, detail } => {
                write!(f, "replay diverged at record {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(op: &'static str, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        op,
        kind: e.kind(),
        detail: e.to_string(),
    }
}

/// How strictly to read a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Any anomaly — including a torn tail — is an error. For audits and
    /// corruption tests.
    Strict,
    /// Tolerate exactly one *trailing incomplete* record (the signature of
    /// a crash mid-append) by discarding it. Any complete-but-invalid
    /// record is still a hard error: a `kill -9` can truncate a write, but
    /// it cannot rewrite committed bytes.
    Recover,
}

// ---------------------------------------------------------------------------
// RNG tapes
// ---------------------------------------------------------------------------

/// Wraps the leader's RNG, copying every drawn byte onto a tape.
///
/// A transition executed under a `TapeRecorder` can be re-executed
/// deterministically later by feeding the tape back through a
/// [`TapePlayer`].
pub struct TapeRecorder<'a> {
    inner: &'a mut dyn CryptoRng,
    tape: &'a mut Vec<u8>,
}

impl<'a> TapeRecorder<'a> {
    /// Records `inner`'s output onto `tape`.
    pub fn new(inner: &'a mut dyn CryptoRng, tape: &'a mut Vec<u8>) -> Self {
        TapeRecorder { inner, tape }
    }
}

impl CryptoRng for TapeRecorder<'_> {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
        self.tape.extend_from_slice(dest);
    }
}

/// Replays a recorded RNG tape.
///
/// Never panics: if the consumer draws past the end of the tape the
/// remainder is zero-filled and the underrun is flagged, so the caller can
/// turn the mismatch into a typed [`JournalError::ReplayDivergence`]
/// instead of a crash.
pub struct TapePlayer<'a> {
    tape: &'a [u8],
    pos: usize,
    underrun: bool,
}

impl<'a> TapePlayer<'a> {
    /// Replays `tape`.
    #[must_use]
    pub fn new(tape: &'a [u8]) -> Self {
        TapePlayer {
            tape,
            pos: 0,
            underrun: false,
        }
    }

    /// Bytes recorded but not yet consumed.
    #[must_use]
    pub fn leftover(&self) -> usize {
        self.tape.len() - self.pos
    }

    /// True if the consumer drew more bytes than the tape held.
    #[must_use]
    pub fn underrun(&self) -> bool {
        self.underrun
    }
}

impl CryptoRng for TapePlayer<'_> {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let available = self.tape.len() - self.pos;
        let take = available.min(dest.len());
        dest[..take].copy_from_slice(&self.tape[self.pos..self.pos + take]);
        self.pos += take;
        if take < dest.len() {
            dest[take..].fill(0);
            self.underrun = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Stream naming
// ---------------------------------------------------------------------------

/// The stream label for a group tag (`None` → [`SOLO_LABEL`]).
#[must_use]
pub fn label_for(group: Option<&GroupId>) -> Vec<u8> {
    group.map_or(SOLO_LABEL, |g| g.as_str().as_bytes()).to_vec()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

fn stream_file_name(label: &[u8]) -> String {
    format!("stream-{}.wal", to_hex(label))
}

pub(crate) fn fence_file_name(label: &[u8]) -> String {
    format!("stream-{}.fence", to_hex(label))
}

// ---------------------------------------------------------------------------
// Directory of streams
// ---------------------------------------------------------------------------

/// One discovered stream file.
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// The decoded stream label (enclave tag bytes or [`SOLO_LABEL`]).
    pub label: Vec<u8>,
    /// Path to the `.wal` file.
    pub path: PathBuf,
}

/// What [`JournalDir::streams`] found.
#[derive(Debug, Clone, Default)]
pub struct StreamScan {
    /// Well-named streams, sorted by label.
    pub streams: Vec<StreamInfo>,
    /// `stream-*.wal` file names whose label is not hex, sorted.
    pub misnamed: Vec<String>,
}

impl StreamScan {
    fn has_any(&self) -> bool {
        !self.streams.is_empty() || !self.misnamed.is_empty()
    }
}

/// A journal directory: one master key, one stream per enclave.
#[derive(Clone)]
pub struct JournalDir {
    root: PathBuf,
    master: [u8; 32],
}

impl std::fmt::Debug for JournalDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the master key.
        f.debug_struct("JournalDir")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        enclaves_crypto::constant_time::zeroize(&mut self.master);
    }
}

impl JournalDir {
    /// Opens a journal directory, creating it — and a fresh master key —
    /// if absent.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`JournalError::BadMasterKey`] if an existing key
    /// file has the wrong size (an empty one beside no stream, a first open
    /// cut before its write, is replaced).
    pub fn open_or_init(root: &Path) -> Result<Self, JournalError> {
        fs::create_dir_all(root).map_err(|e| io_err("create journal dir", &e))?;
        let key_path = root.join(MASTER_KEY_FILE);
        let mut dir = JournalDir {
            root: root.to_path_buf(),
            master: [0; 32],
        };
        match read_at_most(&key_path, 32) {
            Ok(key) if !key.is_empty() || dir.streams()?.has_any() => {
                dir.master = key.try_into().map_err(|_| JournalError::BadMasterKey)?;
                return Ok(dir);
            }
            Ok(_) => fs::remove_file(&key_path).map_err(|e| io_err("remove empty key", &e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("read master key", &e)),
        }
        OsEntropyRng::new().fill_bytes(&mut dir.master);
        // `create_new`: a racing init never replaces a key.
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&key_path)
            .and_then(|mut file| file.write_all(&dir.master))
            .map_err(|e| io_err("write master key", &e))?;
        Ok(dir)
    }

    /// The directory path.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derives the sealing key for a stream label.
    #[must_use]
    pub fn stream_key(&self, label: &[u8]) -> JournalKey {
        JournalKey::derive_stream(&self.master, label)
    }

    /// Path of the stream file for `label`.
    #[must_use]
    pub fn stream_path(&self, label: &[u8]) -> PathBuf {
        self.root.join(stream_file_name(label))
    }

    /// Lists every stream file in the directory. A `stream-*.wal` file
    /// whose name does not decode lands in [`StreamScan::misnamed`]
    /// instead of failing the scan: one stray file must not hide the
    /// enclaves beside it.
    ///
    /// # Errors
    ///
    /// I/O failures reading the directory itself.
    pub fn streams(&self) -> Result<StreamScan, JournalError> {
        let mut scan = StreamScan::default();
        let entries = fs::read_dir(&self.root).map_err(|e| io_err("scan journal dir", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan journal dir", &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(hex) = name
                .strip_prefix("stream-")
                .and_then(|rest| rest.strip_suffix(".wal"))
            else {
                continue;
            };
            match from_hex(hex) {
                Some(label) => scan.streams.push(StreamInfo {
                    label,
                    path: entry.path(),
                }),
                None => scan.misnamed.push(name),
            }
        }
        // Deterministic recovery order regardless of directory iteration.
        scan.streams.sort_by(|a, b| a.label.cmp(&b.label));
        scan.misnamed.sort();
        Ok(scan)
    }

    /// Creates a new stream whose first record is `genesis`, returning a
    /// writer positioned at sequence 2.
    ///
    /// # Errors
    ///
    /// [`JournalError::StreamExists`] if the stream file is already
    /// present, or any I/O failure.
    pub fn create_stream(
        &self,
        label: &[u8],
        genesis: &JournalGenesis,
    ) -> Result<JournalWriter, JournalError> {
        let path = self.stream_path(label);
        let file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::AlreadyExists {
                    JournalError::StreamExists {
                        stream: stream_file_name(label),
                    }
                } else {
                    io_err("create stream", &e)
                }
            })?;
        let mut writer = self.writer(label, file, 1, 0);
        writer.append(&JournalPayload::Genesis(genesis.clone()))?;
        Ok(writer)
    }

    /// Reopens an existing stream for appending after a replay.
    ///
    /// Truncates the file to `valid_len` first, dropping any torn tail the
    /// replay skipped, so the next append lands on a record boundary.
    ///
    /// # Errors
    ///
    /// I/O failures (including a missing stream file).
    pub fn open_writer(
        &self,
        label: &[u8],
        replay: &ReplayedStream,
    ) -> Result<JournalWriter, JournalError> {
        let path = self.stream_path(label);
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("reopen stream", &e))?;
        if replay.torn_bytes > 0 {
            file.set_len(replay.valid_len)
                .map_err(|e| io_err("truncate torn tail", &e))?;
        }
        Ok(self.writer(
            label,
            file,
            replay.next_seq,
            replay.fenced_epoch.unwrap_or(0),
        ))
    }

    /// The appender for `label` over an already opened `file`.
    fn writer(&self, label: &[u8], file: File, next_seq: u64, fenced: u64) -> JournalWriter {
        JournalWriter {
            file,
            cipher: ChaCha20Poly1305::new(self.stream_key(label).as_bytes()),
            aad: RecordAad::new(label),
            record: Vec::new(),
            label: label.to_vec(),
            next_seq,
            fence_path: self.root.join(fence_file_name(label)),
            fenced,
            fence_writes: 0,
            nonce_rng: OsEntropyRng::new(),
        }
    }

    /// Reads and decodes a whole stream, including its fence.
    ///
    /// # Errors
    ///
    /// Any decoding error per `mode` (see [`decode_stream`]), plus fence
    /// and I/O failures.
    pub fn replay_stream(
        &self,
        label: &[u8],
        mode: ReadMode,
    ) -> Result<ReplayedStream, JournalError> {
        let bytes = fs::read(self.stream_path(label)).map_err(|e| io_err("read stream", &e))?;
        let key = self.stream_key(label);
        let mut replay = decode_stream(&key, label, &bytes, mode)?;
        replay.fenced_epoch = self.read_fence(label)?;
        Ok(replay)
    }

    /// Reads the fence epoch for a stream, if a non-empty fence file exists.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadFence`] on authentication failure or malformed
    /// size; I/O failures other than absence.
    pub fn read_fence(&self, label: &[u8]) -> Result<Option<u64>, JournalError> {
        let path = self.root.join(fence_file_name(label));
        let fence: [u8; FENCE_LEN] = match read_at_most(&path, FENCE_LEN) {
            Ok(b) if b.is_empty() => return Ok(None),
            Ok(b) => b.try_into().map_err(|_| JournalError::BadFence)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read fence", &e)),
        };
        let nonce = AeadNonce::from_bytes(fence[..12].try_into().expect("12 bytes"));
        let epoch = ChaCha20Poly1305::new(self.stream_key(label).as_bytes())
            .open(&nonce, &fence[12..], &fence_aad(label))
            .map_err(|_| JournalError::BadFence)?;
        Ok(Some(u64::from_be_bytes(epoch.try_into().expect("8 bytes"))))
    }
}

fn fence_aad(label: &[u8]) -> Vec<u8> {
    [JOURNAL_MAGIC.as_slice(), label, b"fence"].concat()
}

/// Reads a file that should hold at most `max` bytes, and one byte more if
/// it is longer, so an oversized file is told without being read whole.
fn read_at_most(path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(max + 1);
    File::open(path)?
        .take(max as u64 + 1)
        .read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// A stream's record AAD, `"EJR1" ‖ label ‖ seq_be ‖ crc_be`, in one
/// buffer for the life of a writer or a decode pass: only the trailing
/// twelve bytes differ between records.
struct RecordAad(Vec<u8>);

impl RecordAad {
    fn new(label: &[u8]) -> Self {
        RecordAad([JOURNAL_MAGIC.as_slice(), label, &[0; 12]].concat())
    }

    fn for_record(&mut self, seq: u64, crc: u32) -> &[u8] {
        let at = self.0.len() - 12;
        self.0[at..at + 8].copy_from_slice(&seq.to_be_bytes());
        self.0[at + 8..].copy_from_slice(&crc.to_be_bytes());
        &self.0
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The single appender for one stream.
pub struct JournalWriter {
    file: File,
    cipher: ChaCha20Poly1305,
    aad: RecordAad,
    /// The last record as written (ciphertext), for its allocation.
    record: Vec<u8>,
    label: Vec<u8>,
    next_seq: u64,
    fence_path: PathBuf,
    /// The bound in the fence file: at least every epoch appended so far.
    fenced: u64,
    fence_writes: u64,
    nonce_rng: OsEntropyRng,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("label", &to_hex(&self.label))
            .field("next_seq", &self.next_seq)
            .field("fenced", &self.fenced)
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// The sequence number the next append will use.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The bound currently in the fence file: at least every epoch this
    /// stream has committed, at most [`FENCE_LEASE`] past the record that
    /// last crossed it (0 before the first transition).
    #[must_use]
    pub fn fenced_epoch(&self) -> u64 {
        self.fenced
    }

    /// How many times this writer has rewritten the fence file.
    #[must_use]
    pub fn fence_writes(&self) -> u64 {
        self.fence_writes
    }

    /// Seals and appends one record, returning its sequence number and
    /// the number of bytes written. A record whose epoch exceeds the fence
    /// first moves the fence [`FENCE_LEASE`] epochs past it, so the bound
    /// is on disk before the record that needs it.
    ///
    /// # Errors
    ///
    /// I/O failures. The append is pushed to the OS before this returns,
    /// so a committed record survives process death.
    pub fn append(&mut self, payload: &JournalPayload) -> Result<(u64, u64), JournalError> {
        if let JournalPayload::Transition(t) = payload {
            if t.stamp.epoch > self.fenced {
                self.write_fence(t.stamp.epoch.saturating_add(FENCE_LEASE))?;
            }
        }
        // One buffer, kept between appends, is the whole record: header,
        // then the plaintext encoded where it is sealed, then the tag.
        let mut w = codec::Writer::with_buffer(std::mem::take(&mut self.record));
        w.put_array(&[0u8; RECORD_HEADER_LEN]);
        payload.encode(&mut w);
        let mut record = w.finish();
        let seq = self.next_seq;
        let crc = crc32(&record[RECORD_HEADER_LEN..]);
        let body_len = (record.len() - 4 + TAG_LEN) as u32;
        let mut nonce = [0u8; 12];
        self.nonce_rng.fill_bytes(&mut nonce);
        record[..4].copy_from_slice(&body_len.to_be_bytes());
        record[4..12].copy_from_slice(&seq.to_be_bytes());
        record[12..16].copy_from_slice(&crc.to_be_bytes());
        record[16..RECORD_HEADER_LEN].copy_from_slice(&nonce);
        let tag = self.cipher.seal_in_place(
            &AeadNonce::from_bytes(nonce),
            self.aad.for_record(seq, crc),
            &mut record[RECORD_HEADER_LEN..],
        );
        record.extend_from_slice(&tag);
        self.file
            .write_all(&record)
            .map_err(|e| io_err("append record", &e))?;
        self.next_seq += 1;
        let written = record.len() as u64;
        self.record = record;
        Ok((seq, written))
    }

    /// Rewrites the fence in place; a short write is an error, not a retry.
    fn write_fence(&mut self, epoch: u64) -> Result<(), JournalError> {
        let mut nonce = [0u8; 12];
        self.nonce_rng.fill_bytes(&mut nonce);
        let sealed = self.cipher.seal(
            &AeadNonce::from_bytes(nonce),
            &epoch.to_be_bytes(),
            &fence_aad(&self.label),
        );
        let fence = [&nonce[..], &sealed].concat();
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.fence_path)
            .and_then(|mut file| match file.write(&fence)? {
                FENCE_LEN => Ok(()),
                _ => Err(std::io::ErrorKind::WriteZero.into()),
            })
            .map_err(|e| io_err("write fence", &e))?;
        self.fenced = epoch;
        self.fence_writes += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A fully decoded stream.
#[derive(Debug, Clone)]
pub struct ReplayedStream {
    /// The genesis (record 1).
    pub genesis: JournalGenesis,
    /// Every transition, in commit order.
    pub transitions: Vec<JournalTransition>,
    /// Total records decoded, including the genesis.
    pub records: u64,
    /// Trailing bytes discarded as a torn record (0 for a clean stream).
    pub torn_bytes: u64,
    /// Length of the valid prefix of the file, in bytes.
    pub valid_len: u64,
    /// The sequence number the next append should use.
    pub next_seq: u64,
    /// The fence epoch, if a fence file was present (filled by
    /// [`JournalDir::replay_stream`]; `None` from raw [`decode_stream`]).
    pub fenced_epoch: Option<u64>,
}

/// Decodes a stream from raw bytes.
///
/// # Errors
///
/// Typed [`JournalError`]s for every corruption class: bad AEAD seal or
/// CRC ([`JournalError::Corrupt`]), broken sequence chain
/// ([`JournalError::SequenceGap`]), missing/duplicated genesis, and — in
/// [`ReadMode::Strict`] — a torn tail.
pub fn decode_stream(
    key: &JournalKey,
    label: &[u8],
    bytes: &[u8],
    mode: ReadMode,
) -> Result<ReplayedStream, JournalError> {
    let cipher = ChaCha20Poly1305::new(key.as_bytes());
    let mut aad = RecordAad::new(label);
    let mut plaintext = Vec::new();
    let mut genesis: Option<JournalGenesis> = None;
    let mut transitions = Vec::new();
    let mut records = 0u64;
    let mut expected_seq = 1u64;
    let mut offset = 0usize;
    let torn_at = loop {
        if offset == bytes.len() {
            break None;
        }
        let remaining = &bytes[offset..];
        if remaining.len() < 4 {
            break Some(offset);
        }
        let body_len = u32::from_be_bytes(remaining[..4].try_into().expect("length checked"));
        if !(MIN_BODY_LEN..=MAX_BODY_LEN).contains(&body_len) {
            // A length field this wrong was written that way — a torn
            // append only ever truncates, it cannot invent bytes.
            return Err(JournalError::Corrupt {
                seq: expected_seq,
                detail: "implausible record length",
            });
        }
        let body_len = body_len as usize;
        if remaining.len() - 4 < body_len {
            break Some(offset);
        }
        let body = &remaining[4..4 + body_len];
        let seq = u64::from_be_bytes(body[..8].try_into().expect("length checked"));
        let crc = u32::from_be_bytes(body[8..12].try_into().expect("length checked"));
        let nonce: [u8; 12] = body[12..24].try_into().expect("length checked");
        let ct = &body[24..];
        if seq != expected_seq {
            return Err(JournalError::SequenceGap {
                expected: expected_seq,
                found: seq,
            });
        }
        cipher
            .open_into(
                &AeadNonce::from_bytes(nonce),
                ct,
                aad.for_record(seq, crc),
                &mut plaintext,
            )
            .map_err(|_| JournalError::Corrupt {
                seq,
                detail: "authentication failure",
            })?;
        if crc32(&plaintext) != crc {
            return Err(JournalError::Corrupt {
                seq,
                detail: "checksum mismatch",
            });
        }
        let payload: JournalPayload =
            codec::decode(&plaintext).map_err(|_| JournalError::Corrupt {
                seq,
                detail: "undecodable payload",
            })?;
        match payload {
            JournalPayload::Genesis(g) => {
                if genesis.is_some() {
                    return Err(JournalError::DuplicateGenesis { seq });
                }
                genesis = Some(g);
            }
            JournalPayload::Transition(t) => {
                if genesis.is_none() {
                    return Err(JournalError::MissingGenesis);
                }
                transitions.push(t);
            }
        }
        records += 1;
        expected_seq += 1;
        offset += 4 + body_len;
    };
    let torn_bytes = torn_at.map_or(0, |at| (bytes.len() - at) as u64);
    if torn_bytes > 0 && mode == ReadMode::Strict {
        return Err(JournalError::TornTail { bytes: torn_bytes });
    }
    let genesis = genesis.ok_or(JournalError::MissingGenesis)?;
    Ok(ReplayedStream {
        genesis,
        transitions,
        records,
        torn_bytes,
        valid_len: torn_at.unwrap_or(bytes.len()) as u64,
        next_seq: expected_seq,
        fenced_epoch: None,
    })
}

// ---------------------------------------------------------------------------
// Genesis <-> config mapping
// ---------------------------------------------------------------------------

fn policy_to_wire(p: crate::config::RekeyPolicy) -> RekeyPolicyWire {
    use crate::config::RekeyPolicy;
    match p {
        RekeyPolicy::Manual => RekeyPolicyWire::Manual,
        RekeyPolicy::OnJoin => RekeyPolicyWire::OnJoin,
        RekeyPolicy::OnLeave => RekeyPolicyWire::OnLeave,
        RekeyPolicy::OnJoinAndLeave => RekeyPolicyWire::OnJoinAndLeave,
        RekeyPolicy::EveryNMessages(n) => RekeyPolicyWire::EveryNMessages(n),
    }
}

fn policy_from_wire(p: RekeyPolicyWire) -> crate::config::RekeyPolicy {
    use crate::config::RekeyPolicy;
    match p {
        RekeyPolicyWire::Manual => RekeyPolicy::Manual,
        RekeyPolicyWire::OnJoin => RekeyPolicy::OnJoin,
        RekeyPolicyWire::OnLeave => RekeyPolicy::OnLeave,
        RekeyPolicyWire::OnJoinAndLeave => RekeyPolicy::OnJoinAndLeave,
        RekeyPolicyWire::EveryNMessages(n) => RekeyPolicy::EveryNMessages(n),
    }
}

#[allow(clippy::cast_possible_truncation)]
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn liveness_to_wire(l: &LivenessConfig) -> LivenessWire {
    LivenessWire {
        poll_ns: dur_ns(l.poll),
        retransmit_base_ns: dur_ns(l.retransmit_base),
        retransmit_max_ns: dur_ns(l.retransmit_max),
        jitter_pct: l.jitter_pct,
        max_attempts: l.max_attempts,
        heartbeat_interval_ns: l.heartbeat_interval.map(dur_ns),
        liveness_timeout_ns: l.liveness_timeout.map(dur_ns),
        // A retired field, always written false: the genesis bytes stay
        // those older builds write and read.
        auto_rejoin: false,
        jitter_seed: l.jitter_seed,
    }
}

fn liveness_from_wire(w: &LivenessWire) -> LivenessConfig {
    LivenessConfig {
        poll: Duration::from_nanos(w.poll_ns),
        retransmit_base: Duration::from_nanos(w.retransmit_base_ns),
        retransmit_max: Duration::from_nanos(w.retransmit_max_ns),
        jitter_pct: w.jitter_pct,
        max_attempts: w.max_attempts,
        heartbeat_interval: w.heartbeat_interval_ns.map(Duration::from_nanos),
        liveness_timeout: w.liveness_timeout_ns.map(Duration::from_nanos),
        jitter_seed: w.jitter_seed,
    }
}

/// Builds the genesis record for a new stream from the leader's identity,
/// directory, and configuration. The clock is not part of it: it belongs
/// to the service, which supplies its own at recovery.
#[must_use]
pub fn genesis_for(
    leader: &ActorId,
    directory: &Directory,
    config: &LeaderConfig,
) -> JournalGenesis {
    let mut entries: Vec<(ActorId, [u8; 32])> = directory
        .entries()
        .map(|(user, key)| (user.clone(), *key.as_bytes()))
        .collect();
    // Deterministic order so identical configurations produce identical
    // genesis bytes.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    JournalGenesis {
        leader: leader.clone(),
        group: config.group.clone(),
        rekey_policy: policy_to_wire(config.rekey_policy),
        tree_rekey: config.tree_rekey,
        membership_notices: config.membership_notices,
        max_members: config.max_members as u64,
        max_pending_admin: config.max_pending_admin as u64,
        liveness: liveness_to_wire(&config.liveness),
        directory: entries,
    }
}

/// Rebuilds `(leader, directory, config)` from a genesis record. The
/// clock is the recovering service's own.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn config_from_genesis(genesis: &JournalGenesis) -> (ActorId, Directory, LeaderConfig) {
    let mut directory = Directory::new();
    for (user, key) in &genesis.directory {
        directory.register_key(user, LongTermKey::from_bytes(*key));
    }
    let config = LeaderConfig {
        rekey_policy: policy_from_wire(genesis.rekey_policy),
        max_members: genesis.max_members as usize,
        max_pending_admin: genesis.max_pending_admin as usize,
        membership_notices: genesis.membership_notices,
        liveness: liveness_from_wire(&genesis.liveness),
        tree_rekey: genesis.tree_rekey,
        group: genesis.group.clone(),
    };
    (genesis.leader.clone(), directory, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_wire::journal::{EpochStamp, JournalOp};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_root() -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("enclaves-journal-test-{}-{n}", std::process::id()))
    }

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn sample_genesis() -> JournalGenesis {
        let mut directory = Directory::new();
        directory.register_key(&id("alice"), LongTermKey::from_bytes([1; 32]));
        directory.register_key(&id("bob"), LongTermKey::from_bytes([2; 32]));
        genesis_for(&id("leader"), &directory, &LeaderConfig::default())
    }

    fn transition(epoch: u64) -> JournalPayload {
        JournalPayload::Transition(JournalTransition {
            op: JournalOp::Join(id("alice")),
            tape: vec![epoch as u8; 44],
            stamp: EpochStamp {
                epoch,
                key: [epoch as u8; 32],
                iv: [epoch as u8; 12],
            },
        })
    }

    struct TempDir(PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn open_dir() -> (JournalDir, TempDir) {
        let root = temp_root();
        let dir = JournalDir::open_or_init(&root).unwrap();
        (dir, TempDir(root))
    }

    #[test]
    fn roundtrip_genesis_and_transitions() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        for epoch in 1..=3 {
            w.append(&transition(epoch)).unwrap();
        }
        let replay = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.transitions.len(), 3);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.next_seq, 5);
        assert_eq!(replay.fenced_epoch, Some(1 + FENCE_LEASE));
        assert_eq!(replay.genesis, sample_genesis());
        assert_eq!(replay.transitions[2].stamp.epoch, 3);
    }

    #[test]
    fn master_key_persists_across_opens() {
        let root = temp_root();
        let _guard = TempDir(root.clone());
        let label = label_for(None);
        {
            let dir = JournalDir::open_or_init(&root).unwrap();
            let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
            w.append(&transition(1)).unwrap();
        }
        // A second open must load the same master key and decode cleanly.
        let dir = JournalDir::open_or_init(&root).unwrap();
        let replay = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        assert_eq!(replay.transitions.len(), 1);
    }

    #[test]
    fn duplicate_stream_rejected() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let _w = dir.create_stream(&label, &sample_genesis()).unwrap();
        let err = dir.create_stream(&label, &sample_genesis()).unwrap_err();
        assert!(matches!(err, JournalError::StreamExists { .. }));
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        w.append(&transition(2)).unwrap();
        let path = dir.stream_path(&label);
        let full = fs::read(&path).unwrap();
        // Chop the final record at every possible torn length, including a
        // partial length field.
        let replay = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        let last_len = {
            // Find the offset of record 3 by decoding boundaries.
            let mut off = 0usize;
            for _ in 0..replay.records - 1 {
                let len = u32::from_be_bytes(full[off..off + 4].try_into().unwrap()) as usize;
                off += 4 + len;
            }
            full.len() - off
        };
        for cut in 1..last_len {
            fs::write(&path, &full[..full.len() - cut]).unwrap();
            let torn = dir.replay_stream(&label, ReadMode::Recover).unwrap();
            assert_eq!(torn.transitions.len(), 1, "cut {cut}");
            assert_eq!(torn.torn_bytes as usize, last_len - cut);
            assert!(matches!(
                dir.replay_stream(&label, ReadMode::Strict).unwrap_err(),
                JournalError::TornTail { .. }
            ));
        }
        fs::write(&path, &full).unwrap();
    }

    #[test]
    fn reopened_writer_truncates_torn_tail_and_continues() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        w.append(&transition(2)).unwrap();
        drop(w);
        let path = dir.stream_path(&label);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let replay = dir.replay_stream(&label, ReadMode::Recover).unwrap();
        assert_eq!(replay.transitions.len(), 1);
        let mut w = dir.open_writer(&label, &replay).unwrap();
        assert_eq!(w.next_seq(), 3);
        w.append(&transition(5)).unwrap();
        let healed = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        assert_eq!(healed.transitions.len(), 2);
        assert_eq!(healed.transitions[1].stamp.epoch, 5);
        assert_eq!(healed.fenced_epoch, Some(1 + FENCE_LEASE));
    }

    #[test]
    fn every_bit_flip_rejected() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        let bytes = fs::read(dir.stream_path(&label)).unwrap();
        let key = dir.stream_key(&label);
        // Exhaustive single-bit corruption over the whole stream: every
        // flip must produce a typed error, never a decoded stream with
        // different contents.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                let res = decode_stream(&key, &label, &evil, ReadMode::Recover);
                match res {
                    Err(_) => {}
                    Ok(decoded) => {
                        // A flip inside the final record's length field can
                        // only make the record look longer (torn tail) —
                        // the decoded prefix must then be untampered.
                        assert!(
                            decoded.torn_bytes > 0,
                            "flip byte {i} bit {bit} silently accepted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn record_swap_is_a_sequence_gap() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        w.append(&transition(2)).unwrap();
        let bytes = fs::read(dir.stream_path(&label)).unwrap();
        // Locate the three records.
        let mut bounds = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            bounds.push((off, off + 4 + len));
            off += 4 + len;
        }
        let (a, b, c) = (bounds[0], bounds[1], bounds[2]);
        let mut swapped = Vec::new();
        swapped.extend_from_slice(&bytes[a.0..a.1]);
        swapped.extend_from_slice(&bytes[c.0..c.1]);
        swapped.extend_from_slice(&bytes[b.0..b.1]);
        let key = dir.stream_key(&label);
        assert_eq!(
            decode_stream(&key, &label, &swapped, ReadMode::Strict).unwrap_err(),
            JournalError::SequenceGap {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn stream_cannot_be_relabeled() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        let bytes = fs::read(dir.stream_path(&label)).unwrap();
        let other = dir.stream_key(b"other-enclave");
        assert!(matches!(
            decode_stream(&other, b"other-enclave", &bytes, ReadMode::Strict).unwrap_err(),
            JournalError::Corrupt { seq: 1, .. }
        ));
    }

    #[test]
    fn missing_genesis_detected() {
        let (dir, _guard) = open_dir();
        let key = dir.stream_key(b"x");
        assert_eq!(
            decode_stream(&key, b"x", &[], ReadMode::Recover).unwrap_err(),
            JournalError::MissingGenesis
        );
    }

    #[test]
    fn stream_scan_finds_labels() {
        let (dir, _guard) = open_dir();
        let solo = label_for(None);
        let tagged = label_for(Some(&GroupId::new("alpha").unwrap()));
        dir.create_stream(&solo, &sample_genesis()).unwrap();
        dir.create_stream(&tagged, &sample_genesis()).unwrap();
        // A stray file is reported by name; the streams beside it still
        // list.
        fs::write(dir.root().join("stream-not-hex.wal"), b"junk").unwrap();
        let scan = dir.streams().unwrap();
        let labels: Vec<&[u8]> = scan.streams.iter().map(|s| s.label.as_slice()).collect();
        assert_eq!(labels, [solo.as_slice(), tagged.as_slice()]);
        assert_eq!(scan.misnamed, ["stream-not-hex.wal"]);
    }

    fn fence_bytes(dir: &JournalDir, label: &[u8]) -> Vec<u8> {
        fs::read(fence_path(dir, label)).unwrap()
    }

    /// Inside one lease the fence file is not touched at all: same bytes
    /// (its nonce is fresh per write), same write count.
    #[test]
    fn appends_inside_a_lease_leave_the_fence_alone() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        assert_eq!(w.fence_writes(), 0, "a genesis commits no epoch");
        w.append(&transition(1)).unwrap();
        assert_eq!(w.fence_writes(), 1);
        assert_eq!(w.fenced_epoch(), 1 + FENCE_LEASE);
        let leased = fence_bytes(&dir, &label);
        for epoch in 2..=1 + FENCE_LEASE {
            w.append(&transition(epoch)).unwrap();
        }
        assert_eq!(w.fence_writes(), 1);
        assert_eq!(fence_bytes(&dir, &label), leased);
        assert_eq!(dir.read_fence(&label).unwrap(), Some(1 + FENCE_LEASE));
    }

    /// The record that crosses the lease rewrites the fence exactly once,
    /// and the new bound is on disk before the record is: losing the
    /// record (a crash between the two writes) leaves a fence that already
    /// covers the epoch it would have committed.
    #[test]
    fn crossing_a_lease_fences_before_the_record() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        for epoch in 1..=1 + FENCE_LEASE {
            w.append(&transition(epoch)).unwrap();
        }
        let path = dir.stream_path(&label);
        let before = fs::metadata(&path).unwrap().len();
        let crossing = 2 + FENCE_LEASE;
        w.append(&transition(crossing)).unwrap();
        assert_eq!(w.fence_writes(), 2);
        assert_eq!(w.fenced_epoch(), crossing + FENCE_LEASE);
        drop(w);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(before)
            .unwrap();
        let replay = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        assert_eq!(replay.transitions.last().unwrap().stamp.epoch, crossing - 1);
        assert!(replay.fenced_epoch.unwrap() >= crossing);
    }

    /// The order itself, not just the outcome: on a stream that refuses
    /// the append (`/dev/full` answers every write with `ENOSPC`) the
    /// crossing record fails, and the fence has already moved.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_refused_append_has_already_moved_the_fence() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        drop(w);
        let replay = dir.replay_stream(&label, ReadMode::Strict).unwrap();
        let path = dir.stream_path(&label);
        fs::remove_file(&path).unwrap();
        std::os::unix::fs::symlink("/dev/full", &path).unwrap();
        let mut w = dir.open_writer(&label, &replay).unwrap();
        let crossing = 2 + FENCE_LEASE;
        assert!(matches!(
            w.append(&transition(crossing)),
            Err(JournalError::Io {
                op: "append record",
                ..
            })
        ));
        assert_eq!(w.next_seq(), replay.next_seq, "nothing was committed");
        assert_eq!(
            dir.read_fence(&label).unwrap(),
            Some(crossing + FENCE_LEASE)
        );
    }

    fn fence_path(dir: &JournalDir, label: &[u8]) -> PathBuf {
        dir.root().join(fence_file_name(label))
    }

    /// Every name in the journal directory, sorted.
    fn entries(dir: &JournalDir) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The fence is the same file for the life of the stream: a lease
    /// crossing and a cold open's recovery epoch both rewrite it where it
    /// is, and no other name ever appears beside the stream, the fence and
    /// the key.
    #[test]
    #[cfg(unix)]
    fn the_fence_is_rewritten_in_place() {
        use std::os::unix::fs::MetadataExt as _;
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let expected = [
            MASTER_KEY_FILE.to_string(),
            fence_file_name(&label),
            stream_file_name(&label),
        ];
        let inode = || fs::metadata(fence_path(&dir, &label)).unwrap().ino();
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        let first = inode();
        for epoch in 2..=2 + FENCE_LEASE {
            w.append(&transition(epoch)).unwrap();
            assert_eq!(entries(&dir), expected, "after epoch {epoch}");
        }
        assert_eq!(w.fence_writes(), 2, "the last append crossed the lease");
        assert_eq!(inode(), first, "a lease crossing renames nothing");
        drop(w);

        // A cold open: replay, reopen, and journal the recovery epoch past
        // `max(replayed, fence)`, which moves the fence once more.
        let dir = JournalDir::open_or_init(dir.root()).unwrap();
        let replay = dir.replay_stream(&label, ReadMode::Recover).unwrap();
        let fenced = replay.fenced_epoch.unwrap();
        assert_eq!(fenced, 2 + 2 * FENCE_LEASE);
        let mut w = dir.open_writer(&label, &replay).unwrap();
        w.append(&transition(fenced + 1)).unwrap();
        assert_eq!(w.fence_writes(), 1);
        assert_eq!(
            dir.read_fence(&label).unwrap(),
            Some(fenced + 1 + FENCE_LEASE)
        );
        assert_eq!(inode(), first, "a cold open renames nothing");
        assert_eq!(entries(&dir), expected);
    }

    /// A zero-length fence is a first creation cut before its write: it
    /// reads as no fence, and the next crossing record fills it in place.
    #[test]
    fn an_empty_fence_reads_as_none() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        drop(w);
        File::create(fence_path(&dir, &label)).unwrap();
        assert_eq!(dir.read_fence(&label).unwrap(), None);
        let replay = dir.replay_stream(&label, ReadMode::Recover).unwrap();
        assert_eq!(replay.fenced_epoch, None);
        let mut w = dir.open_writer(&label, &replay).unwrap();
        assert_eq!(w.fenced_epoch(), 0);
        w.append(&transition(2)).unwrap();
        assert_eq!(dir.read_fence(&label).unwrap(), Some(2 + FENCE_LEASE));
    }

    /// Only exactly 36 bytes (or none) are a fence: every shorter length,
    /// one byte more, and a sparse 64 GiB file, which is refused by its
    /// length without being read.
    #[test]
    fn a_fence_of_any_other_length_is_bad() {
        let (dir, _guard) = open_dir();
        let label = label_for(None);
        let mut w = dir.create_stream(&label, &sample_genesis()).unwrap();
        w.append(&transition(1)).unwrap();
        let path = fence_path(&dir, &label);
        let good = fs::read(&path).unwrap();
        assert_eq!(good.len(), FENCE_LEN);
        for len in (1..FENCE_LEN).chain([FENCE_LEN + 1]) {
            let mut bytes = good.clone();
            bytes.resize(len, 0);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(
                dir.read_fence(&label),
                Err(JournalError::BadFence),
                "{len} bytes"
            );
        }
        File::create(&path).unwrap().set_len(64 << 30).unwrap();
        assert_eq!(dir.read_fence(&label), Err(JournalError::BadFence));
    }

    /// A sparse 64 GiB key file is a malformed key, told by its length.
    #[test]
    fn an_oversized_master_key_is_bad() {
        let (dir, _guard) = open_dir();
        let key = dir.root().join(MASTER_KEY_FILE);
        File::create(&key).unwrap().set_len(64 << 30).unwrap();
        assert_eq!(
            JournalDir::open_or_init(dir.root()).unwrap_err(),
            JournalError::BadMasterKey
        );
    }

    /// An empty key beside no stream is a first open cut before its write:
    /// the next open writes a fresh key and the directory works.
    #[test]
    fn an_empty_key_in_a_fresh_directory_is_replaced() {
        let (dir, _guard) = open_dir();
        let key = dir.root().join(MASTER_KEY_FILE);
        File::create(&key).unwrap();
        let dir = JournalDir::open_or_init(dir.root()).unwrap();
        assert_eq!(fs::read(&key).unwrap().len(), 32);
        let label = label_for(None);
        dir.create_stream(&label, &sample_genesis()).unwrap();
        let reopened = JournalDir::open_or_init(dir.root()).unwrap();
        assert!(reopened.replay_stream(&label, ReadMode::Strict).is_ok());
    }

    /// Beside a stream an empty key is a lost key, and stays an error: a
    /// fresh one could open nothing that was sealed.
    #[test]
    fn an_empty_key_beside_a_stream_is_bad() {
        let (dir, _guard) = open_dir();
        dir.create_stream(&label_for(None), &sample_genesis())
            .unwrap();
        File::create(dir.root().join(MASTER_KEY_FILE)).unwrap();
        assert_eq!(
            JournalDir::open_or_init(dir.root()).unwrap_err(),
            JournalError::BadMasterKey
        );
        // A stray, undecodable stream name counts as a stream too.
        fs::remove_file(dir.stream_path(&label_for(None))).unwrap();
        fs::write(dir.root().join("stream-not-hex.wal"), b"junk").unwrap();
        assert_eq!(
            JournalDir::open_or_init(dir.root()).unwrap_err(),
            JournalError::BadMasterKey
        );
    }

    #[test]
    fn genesis_config_roundtrip() {
        let mut directory = Directory::new();
        directory.register_key(&id("alice"), LongTermKey::from_bytes([7; 32]));
        let mut config = LeaderConfig {
            group: Some(GroupId::new("alpha").unwrap()),
            tree_rekey: true,
            ..LeaderConfig::default()
        };
        config.liveness.heartbeat_interval = Some(Duration::from_millis(200));
        config.liveness.jitter_seed = 99;
        let genesis = genesis_for(&id("leader"), &directory, &config);
        let (leader, dir2, config2) = config_from_genesis(&genesis);
        assert_eq!(leader, id("leader"));
        assert_eq!(dir2.lookup(&id("alice")).unwrap().as_bytes(), &[7; 32]);
        assert_eq!(config2.group, config.group);
        assert_eq!(config2.tree_rekey, config.tree_rekey);
        assert_eq!(config2.rekey_policy, config.rekey_policy);
        assert_eq!(
            config2.liveness.heartbeat_interval,
            Some(Duration::from_millis(200))
        );
        assert_eq!(config2.liveness.jitter_seed, 99);
    }

    #[test]
    fn tape_recorder_and_player_agree() {
        let mut inner = SeededRng::from_seed(7);
        let mut tape = Vec::new();
        let mut live = [0u8; 57];
        {
            let mut rec = TapeRecorder::new(&mut inner, &mut tape);
            rec.fill_bytes(&mut live[..20]);
            rec.fill_bytes(&mut live[20..]);
            let _ = rec.next_u64();
        }
        assert_eq!(tape.len(), 57 + 8);
        let mut player = TapePlayer::new(&tape);
        let mut replayed = [0u8; 57];
        player.fill_bytes(&mut replayed[..20]);
        player.fill_bytes(&mut replayed[20..]);
        let _ = player.next_u64();
        assert_eq!(live, replayed);
        assert!(!player.underrun());
        assert_eq!(player.leftover(), 0);
        // Drawing past the end flags underrun instead of panicking.
        let mut short = TapePlayer::new(&[1, 2, 3]);
        let mut buf = [0u8; 8];
        short.fill_bytes(&mut buf);
        assert!(short.underrun());
        assert_eq!(&buf[..3], &[1, 2, 3]);
        assert_eq!(&buf[3..], &[0; 5]);
    }

    #[test]
    fn hex_roundtrip() {
        let label = label_for(Some(&GroupId::new("g-17").unwrap()));
        assert_eq!(from_hex(&to_hex(&label)).unwrap(), label);
        assert!(from_hex("zz").is_none());
        assert!(from_hex("abc").is_none());
    }

    #[test]
    fn error_display_informative() {
        let e = JournalError::SequenceGap {
            expected: 4,
            found: 9,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(JournalError::BadFence.to_string().contains("fence"));
    }
}
