//! The system under test, as the benchmark sees it.
//!
//! Every call into the workspace crates lives in this module, and every
//! such call is wrapped in a span, so this file is both the list of
//! public symbols the benchmark holds fixed (see `README.md`) and the
//! place where layer boundaries are drawn.
//!
//! Fixed configuration for all workloads: one tagged enclave per group,
//! `tree_rekey: true`, `RekeyPolicy::Manual`, `membership_notices:
//! false`, cheap long-term keys (no PBKDF2), a `SeededRng` leader where
//! the public API takes one, and a journal wherever it can be attached.

use crate::trace::Tracer;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::journal::{genesis_for, label_for, JournalDir, ReadMode, ReplayedStream};
use enclaves_core::protocol::{LeaderCore, LeaderOutput, MemberEvent, MemberSession, SessionPhase};
use enclaves_core::runtime::{GroupHandle, LeaderService, ServiceConfig};
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::nonce::AeadNonce;
use enclaves_crypto::rng::SeededRng;
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_net::{MuxConfig, MuxEvent, MuxNet, MuxToken};
use enclaves_obs::{Registry, Snapshot};
use enclaves_wire::codec;
use enclaves_wire::journal::{JournalPayload, JournalTransition};
use enclaves_wire::message::{Envelope, MsgType};
use enclaves_wire::{ActorId, GroupId};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A protocol message between one member and the leader.
pub type Env = Envelope;

/// Why a call into the system failed; workloads count these as failed
/// operations and print the first few.
pub type Fail = String;

const LEADER_NAME: &str = "leader";

fn leader_id() -> ActorId {
    ActorId::new(LEADER_NAME).expect("static leader id is valid")
}

fn group_id(tag: &str) -> GroupId {
    GroupId::new(tag).expect("generated enclave tag is valid")
}

// ---------------------------------------------------------------------------
// Identities
// ---------------------------------------------------------------------------

/// One registered user: a fixed-width name (so frame sizes do not depend
/// on which users the seed picks) and a cheap long-term key.
#[derive(Clone, Debug)]
pub struct Identity {
    id: ActorId,
    key: [u8; 32],
}

impl Identity {
    /// The `i`-th user of a workload.
    pub fn numbered(i: usize) -> Self {
        let mut key = [0x5Au8; 32];
        key[..8].copy_from_slice(&(i as u64).to_le_bytes());
        Identity {
            id: ActorId::new(format!("m{i:05}")).expect("generated member id is valid"),
            key,
        }
    }

    pub fn name(&self) -> &str {
        self.id.as_str()
    }

    fn long_term(&self) -> LongTermKey {
        LongTermKey::from_bytes(self.key)
    }
}

fn directory_of(users: &[Identity]) -> Directory {
    let mut directory = Directory::new();
    for u in users {
        directory.register_key(&u.id, u.long_term());
    }
    directory
}

fn leader_config(tag: &str, users: usize) -> LeaderConfig {
    LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        max_members: users + 16,
        membership_notices: false,
        tree_rekey: true,
        group: Some(group_id(tag)),
        ..LeaderConfig::default()
    }
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

pub fn encode(tr: &mut Tracer, env: &Env) -> Vec<u8> {
    let s = tr.begin("wire.encode");
    let bytes = codec::encode(env);
    tr.end(s);
    bytes
}

pub fn decode(tr: &mut Tracer, bytes: &[u8]) -> Result<Env, Fail> {
    let s = tr.begin("wire.decode");
    let env = codec::decode::<Envelope>(bytes);
    tr.end(s);
    env.map_err(|e| format!("decode: {e}"))
}

/// Who an envelope is addressed to.
pub fn recipient(env: &Env) -> &str {
    env.recipient.as_str()
}

/// Length of the sealed body an envelope carries.
pub fn body_len(env: &Env) -> usize {
    env.body.len()
}

// ---------------------------------------------------------------------------
// core.leader (sans-I/O)
// ---------------------------------------------------------------------------

/// One frame sealed once for many recipients.
pub struct Multicast {
    pub frame: Arc<[u8]>,
    pub recipients: usize,
}

/// What one leader step produced.
#[derive(Default)]
pub struct LeaderOut {
    pub unicast: Vec<Env>,
    pub multicast: Vec<Multicast>,
}

fn leader_out(out: LeaderOutput) -> LeaderOut {
    LeaderOut {
        unicast: out.outgoing,
        multicast: out
            .broadcasts
            .into_iter()
            .map(|b| Multicast {
                recipients: b.recipients.len(),
                frame: b.frame,
            })
            .collect(),
    }
}

/// Deltas of the leader's own `leader.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaderCounters {
    pub admin_seals: u64,
    pub rekey_seals: u64,
    pub data_seals: u64,
    pub journal_appends: u64,
    pub journal_bytes: u64,
    pub retransmits: u64,
    pub lock_hold_ns: u64,
    pub rejected: u64,
}

impl LeaderCounters {
    fn read(snap: &Snapshot, prefix: &str) -> Self {
        let c = |name: &str| snap.counter(&format!("{prefix}{name}"));
        LeaderCounters {
            admin_seals: c("leader.admin_seals"),
            rekey_seals: c("leader.rekey_seals"),
            data_seals: c("leader.data_seals"),
            journal_appends: c("leader.journal.appends"),
            journal_bytes: c("leader.journal.bytes"),
            retransmits: c("leader.retransmits"),
            lock_hold_ns: c("leader.lock_hold_ns"),
            rejected: c("leader.rejected"),
        }
    }

    pub fn since(&self, earlier: &LeaderCounters) -> LeaderCounters {
        LeaderCounters {
            admin_seals: self.admin_seals - earlier.admin_seals,
            rekey_seals: self.rekey_seals - earlier.rekey_seals,
            data_seals: self.data_seals - earlier.data_seals,
            journal_appends: self.journal_appends - earlier.journal_appends,
            journal_bytes: self.journal_bytes - earlier.journal_bytes,
            retransmits: self.retransmits - earlier.retransmits,
            lock_hold_ns: self.lock_hold_ns - earlier.lock_hold_ns,
            rejected: self.rejected - earlier.rejected,
        }
    }

    pub fn plus(&self, other: &LeaderCounters) -> LeaderCounters {
        LeaderCounters {
            admin_seals: self.admin_seals + other.admin_seals,
            rekey_seals: self.rekey_seals + other.rekey_seals,
            data_seals: self.data_seals + other.data_seals,
            journal_appends: self.journal_appends + other.journal_appends,
            journal_bytes: self.journal_bytes + other.journal_bytes,
            retransmits: self.retransmits + other.retransmits,
            lock_hold_ns: self.lock_hold_ns + other.lock_hold_ns,
            rejected: self.rejected + other.rejected,
        }
    }

    pub fn seals(&self) -> u64 {
        self.admin_seals + self.rekey_seals + self.data_seals
    }
}

/// A tree-rekeyed, tagged leader core driven directly.
pub struct Leader {
    core: LeaderCore,
    registry: Registry,
}

impl Leader {
    /// A leader for enclave `tag` whose directory holds `users`. With a
    /// `journal`, the enclave's stream is created there and attached, so
    /// every transition is committed to disk before its frames leave.
    pub fn new(
        tag: &str,
        users: &[Identity],
        rng_seed: u64,
        journal: Option<&Journal>,
    ) -> Result<Self, Fail> {
        let directory = directory_of(users);
        let config = leader_config(tag, users.len());
        let writer = match journal {
            Some(journal) => Some(
                journal
                    .dir
                    .create_stream(
                        &label_for(config.group.as_ref()),
                        &genesis_for(&leader_id(), &directory, &config),
                    )
                    .map_err(|e| format!("create journal stream: {e}"))?,
            ),
            None => None,
        };
        let mut core = LeaderCore::with_rng(
            leader_id(),
            directory,
            config,
            Box::new(SeededRng::from_seed(rng_seed)),
        );
        if let Some(writer) = writer {
            core.attach_journal(writer);
        }
        let registry = core.obs_registry();
        Ok(Leader { core, registry })
    }

    pub fn handle(&mut self, tr: &mut Tracer, env: &Env, now: Duration) -> Result<LeaderOut, Fail> {
        let s = tr.begin("core.leader.handle_at");
        let out = self.core.handle_at(env, now);
        tr.end(s);
        out.map(leader_out)
            .map_err(|e| format!("leader handle: {e}"))
    }

    pub fn broadcast(&mut self, tr: &mut Tracer, data: &[u8]) -> Result<Multicast, Fail> {
        let s = tr.begin("core.leader.broadcast");
        let out = self.core.broadcast_group_data(data);
        tr.end(s);
        out.map(|b| Multicast {
            recipients: b.recipients.len(),
            frame: b.frame,
        })
        .map_err(|e| format!("leader broadcast: {e}"))
    }

    pub fn rekey(&mut self, tr: &mut Tracer) -> Result<LeaderOut, Fail> {
        let s = tr.begin("core.leader.rekey");
        let out = self.core.rekey_now();
        tr.end(s);
        out.map(leader_out)
            .map_err(|e| format!("leader rekey: {e}"))
    }

    pub fn expel(&mut self, tr: &mut Tracer, user: &Identity) -> Result<LeaderOut, Fail> {
        let s = tr.begin("core.leader.expel");
        let out = self.core.expel(&user.id);
        tr.end(s);
        out.map(leader_out)
            .map_err(|e| format!("leader expel: {e}"))
    }

    /// Advances the liveness layer; returns how many frames fell due for
    /// retransmission and how many members it wants evicted. A closed
    /// loop acknowledges everything, so both stay zero.
    pub fn tick(&mut self, tr: &mut Tracer, now: Duration) -> (usize, usize) {
        let s = tr.begin("core.leader.tick");
        let tick = self.core.tick(now);
        tr.end(s);
        (tick.frames.len(), tick.evict.len())
    }

    pub fn epoch(&self) -> Option<u64> {
        self.core.epoch()
    }

    /// The roster as sorted names. `O(N)`; call it outside timed ops.
    pub fn roster(&self) -> Vec<String> {
        let mut names: Vec<String> = self.core.roster().iter().map(ToString::to_string).collect();
        names.sort_unstable();
        names
    }

    pub fn counters(&self) -> LeaderCounters {
        LeaderCounters::read(&self.registry.snapshot(), "")
    }
}

// ---------------------------------------------------------------------------
// core.member
// ---------------------------------------------------------------------------

/// What a member made of one envelope.
#[derive(Default)]
pub struct MemberOut {
    pub reply: Option<Env>,
    /// `(roster length, epoch)` when the envelope was the Welcome.
    pub welcomed: Option<(usize, u64)>,
    /// Payloads of data-plane broadcasts the envelope delivered.
    pub data: Vec<Vec<u8>>,
}

pub struct Member {
    session: MemberSession,
}

impl Member {
    /// Starts a session for `who` in enclave `tag`; returns it with the
    /// first handshake message.
    pub fn start(tr: &mut Tracer, who: &Identity, tag: &str, rng_seed: u64) -> (Member, Env) {
        let s = tr.begin("core.member.start");
        let (session, init) = MemberSession::start_with_key_in_group(
            who.id.clone(),
            leader_id(),
            who.long_term(),
            Box::new(SeededRng::from_seed(rng_seed)),
            Some(group_id(tag)),
        );
        tr.end(s);
        (Member { session }, init)
    }

    pub fn handle(&mut self, tr: &mut Tracer, env: &Env) -> Result<MemberOut, Fail> {
        let s = tr.begin("core.member.handle");
        let result = self.session.handle(env);
        let mut tag = match env.msg_type {
            MsgType::AuthKeyDist => "key_dist",
            MsgType::PathUpdate => "path_update",
            MsgType::GroupBroadcast => "broadcast",
            MsgType::Heartbeat => "heartbeat",
            _ => "admin",
        };
        let mut out = MemberOut::default();
        let result = match result {
            Ok(handled) => {
                out.reply = handled.reply;
                for event in handled.events {
                    match event {
                        MemberEvent::Welcomed { roster, epoch } => {
                            out.welcomed = Some((roster.len(), epoch));
                            tag = "welcome";
                        }
                        MemberEvent::Broadcast { data, .. } => out.data.push(data),
                        _ => {}
                    }
                }
                Ok(out)
            }
            Err(e) => Err(format!("member {} handle: {e}", self.session.user())),
        };
        tr.end_tagged(s, tag);
        result
    }

    pub fn leave(&mut self, tr: &mut Tracer) -> Result<Env, Fail> {
        let s = tr.begin("core.member.leave");
        let env = self.session.leave();
        tr.end(s);
        env.map_err(|e| format!("member leave: {e}"))
    }

    pub fn heartbeat(&mut self, tr: &mut Tracer) -> Result<Env, Fail> {
        let s = tr.begin("core.member.heartbeat");
        let env = self.session.heartbeat();
        tr.end(s);
        env.map_err(|e| format!("member heartbeat: {e}"))
    }

    pub fn epoch(&self) -> Option<u64> {
        self.session.group_epoch()
    }

    pub fn connected(&self) -> bool {
        self.session.phase() == SessionPhase::Connected
    }

    pub fn name(&self) -> &str {
        self.session.user().as_str()
    }
}

// ---------------------------------------------------------------------------
// core.journal
// ---------------------------------------------------------------------------

/// A journal directory (one master key, one stream per enclave).
pub struct Journal {
    dir: JournalDir,
}

/// One stream read back from disk.
pub struct Replayed {
    stream: ReplayedStream,
}

impl Replayed {
    /// Records decoded, genesis included.
    pub fn records(&self) -> u64 {
        self.stream.records
    }
}

impl Journal {
    pub fn open(root: &Path) -> Result<Self, Fail> {
        JournalDir::open_or_init(root)
            .map(|dir| Journal { dir })
            .map_err(|e| format!("open journal dir: {e}"))
    }

    /// On-disk length of enclave `tag`'s stream.
    pub fn stream_len(&self, tag: &str) -> u64 {
        let path = self.dir.stream_path(&label_for(Some(&group_id(tag))));
        std::fs::metadata(path).map_or(0, |m| m.len())
    }

    /// The file holding enclave `tag`'s stream (fault planting only).
    pub fn stream_path(&self, tag: &str) -> std::path::PathBuf {
        self.dir.stream_path(&label_for(Some(&group_id(tag))))
    }

    pub fn replay(&self, tr: &mut Tracer, tag: &str) -> Result<Replayed, Fail> {
        let s = tr.begin("core.journal.replay_stream");
        let r = self
            .dir
            .replay_stream(&label_for(Some(&group_id(tag))), ReadMode::Strict);
        tr.end(s);
        r.map(|stream| Replayed { stream })
            .map_err(|e| format!("replay stream {tag}: {e}"))
    }

    /// Re-appends `replayed`'s own records to a fresh stream `tag` in this
    /// directory, one `core.journal.append` span each; returns how many.
    pub fn append_probe(
        &self,
        tr: &mut Tracer,
        tag: &str,
        replayed: &Replayed,
    ) -> Result<u64, Fail> {
        let mut writer = self
            .dir
            .create_stream(&label_for(Some(&group_id(tag))), &replayed.stream.genesis)
            .map_err(|e| format!("create probe stream: {e}"))?;
        for t in &replayed.stream.transitions {
            let payload = JournalPayload::Transition(JournalTransition::clone(t));
            let s = tr.begin("core.journal.append");
            let r = writer.append(&payload);
            tr.end(s);
            r.map_err(|e| format!("probe append: {e}"))?;
        }
        Ok(replayed.stream.transitions.len() as u64)
    }
}

/// `LeaderCore::recover` over a replayed stream; returns the rebuilt
/// core's roster size.
pub fn recover_probe(tr: &mut Tracer, replayed: &Replayed) -> Result<usize, Fail> {
    let s = tr.begin("core.leader.recover");
    let core = LeaderCore::recover(&replayed.stream);
    tr.end(s);
    core.map(|c| c.roster().len())
        .map_err(|e| format!("recover: {e}"))
}

// ---------------------------------------------------------------------------
// crypto probes
// ---------------------------------------------------------------------------

/// Seals then opens one `len`-byte buffer under the AEAD every layer
/// above uses; returns `(seal ns, open ns)` per call, each the median of
/// nine batches so that one preempted batch does not set the figure.
pub fn aead_probe(tr: &mut Tracer, len: usize) -> (f64, f64) {
    const BATCHES: usize = 9;
    let iters = u32::try_from((1usize << 20) / len.max(64))
        .unwrap_or(1)
        .max(8);
    let cipher = ChaCha20Poly1305::new(&[7u8; 32]);
    let nonce = AeadNonce::from_bytes([3u8; 12]);
    let plain = vec![0xA5u8; len];
    let aad = b"benchmark-probe";
    let mut sealed = cipher.seal(&nonce, &plain, aad);
    let (mut seal_ns, mut open_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let s = tr.begin("crypto.seal");
        let start = Instant::now();
        for _ in 0..iters {
            sealed = cipher.seal(&nonce, std::hint::black_box(&plain), aad);
            std::hint::black_box(&sealed);
        }
        seal_ns.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
        tr.end(s);
        let s = tr.begin("crypto.open");
        let start = Instant::now();
        for _ in 0..iters {
            let opened = cipher
                .open(&nonce, std::hint::black_box(&sealed), aad)
                .expect("probe ciphertext opens");
            std::hint::black_box(&opened);
        }
        open_ns.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
        tr.end(s);
    }
    (
        crate::stats::median(&seal_ns),
        crate::stats::median(&open_ns),
    )
}

// ---------------------------------------------------------------------------
// core.service + net.mux (real loopback TCP)
// ---------------------------------------------------------------------------

/// `LeaderService::spawn_mux` on a one-shard event-mode `MuxNet`
/// listener, hosting one enclave.
pub struct SocketLeader {
    net: MuxNet,
    service: LeaderService,
    handle: GroupHandle,
    addr: SocketAddr,
    net_registry: Registry,
    tag: String,
}

/// `net.loop.*` readings of the leader-side loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxCounters {
    pub frames_out: u64,
    pub partial_writes: u64,
    pub overflow_drops: u64,
    pub queued_bytes: u64,
}

impl MuxCounters {
    /// Counter deltas; the `queued_bytes` gauge is read, not subtracted.
    pub fn since(&self, earlier: &MuxCounters) -> MuxCounters {
        MuxCounters {
            frames_out: self.frames_out - earlier.frames_out,
            partial_writes: self.partial_writes - earlier.partial_writes,
            overflow_drops: self.overflow_drops - earlier.overflow_drops,
            queued_bytes: self.queued_bytes,
        }
    }

    pub fn plus(&self, other: &MuxCounters) -> MuxCounters {
        MuxCounters {
            frames_out: self.frames_out + other.frames_out,
            partial_writes: self.partial_writes + other.partial_writes,
            overflow_drops: self.overflow_drops + other.overflow_drops,
            queued_bytes: self.queued_bytes.max(other.queued_bytes),
        }
    }
}

impl SocketLeader {
    pub fn spawn(tag: &str, users: &[Identity]) -> Result<Self, Fail> {
        let net_registry = Registry::new();
        let net = MuxNet::spawn_with_registry(MuxConfig::default(), &net_registry);
        let endpoint = net
            .listen_events("127.0.0.1:0".parse().expect("literal address"), 1)
            .map_err(|e| format!("listen: {e}"))?;
        let addr = endpoint.local_addr();
        let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());
        let handle = service
            .add_group(
                leader_id(),
                directory_of(users),
                leader_config(tag, users.len()),
            )
            .map_err(|e| format!("add group: {e}"))?;
        Ok(SocketLeader {
            net,
            service,
            handle,
            addr,
            net_registry,
            tag: tag.to_string(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GroupHandle::broadcast_data`; returns the recipient count.
    pub fn broadcast(&self, tr: &mut Tracer, data: &[u8]) -> Result<usize, Fail> {
        let s = tr.begin("core.leader.broadcast");
        let receipt = self.handle.broadcast_data(data);
        tr.end(s);
        receipt
            .map(|r| r.recipients.len())
            .map_err(|e| format!("broadcast_data: {e}"))
    }

    pub fn epoch(&self) -> Option<u64> {
        self.handle.epoch()
    }

    pub fn roster_len(&self) -> usize {
        self.handle.roster().len()
    }

    /// No handshake half-open and no admin message awaiting its ack.
    pub fn quiesced(&self) -> bool {
        self.handle.quiesced()
    }

    /// `LeaderService::snapshot`, timed, with this enclave's counters.
    pub fn snapshot(&self, tr: &mut Tracer) -> (LeaderCounters, Duration) {
        let s = tr.begin("core.service.snapshot");
        let start = Instant::now();
        let snap = self.service.snapshot();
        let took = start.elapsed();
        tr.end(s);
        let prefix = format!("group.{}.", self.tag);
        (LeaderCounters::read(&snap, &prefix), took)
    }

    pub fn mux_counters(&self) -> MuxCounters {
        let snap = self.net_registry.snapshot();
        MuxCounters {
            frames_out: snap.counter("net.loop.frames_out"),
            partial_writes: snap.counter("net.loop.partial_writes"),
            overflow_drops: snap.counter("net.loop.overflow_drops"),
            queued_bytes: u64::try_from(snap.gauge("net.loop.queued_bytes")).unwrap_or(0),
        }
    }

    /// Stops the service threads, then the loop thread; both are joined.
    pub fn shutdown(self) {
        self.service.shutdown();
        self.net.shutdown();
    }
}

/// What the client-side loop delivered to the generator.
pub enum ClientEvent {
    Frame {
        token: usize,
        bytes: Arc<[u8]>,
    },
    Closed {
        token: usize,
    },
    /// Nothing arrived within the wait.
    Idle,
}

/// One client-side `MuxNet` carrying every member connection, its events
/// routed to the generator thread.
pub struct SocketClients {
    net: MuxNet,
    tx: Sender<MuxEvent>,
    rx: Receiver<MuxEvent>,
}

impl SocketClients {
    pub fn spawn() -> Self {
        let (tx, rx) = unbounded();
        SocketClients {
            net: MuxNet::spawn(MuxConfig::default()),
            tx,
            rx,
        }
    }

    pub fn connect(&self, addr: SocketAddr) -> Result<usize, Fail> {
        let token: MuxToken = self
            .net
            .connect_routed(addr, &self.tx)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(token)
    }

    pub fn send(&self, token: usize, bytes: Vec<u8>) -> Result<(), Fail> {
        self.net
            .send_to(token, bytes.into())
            .map_err(|e| format!("send: {e}"))
    }

    /// Waits up to `wait` for the next event; the wait is the
    /// `net.mux.transit` span (time the generator is blocked on the
    /// transport).
    pub fn recv(&self, tr: &mut Tracer, wait: Duration) -> ClientEvent {
        loop {
            let event = match self.rx.try_recv() {
                Ok(event) => event,
                Err(_) => {
                    let s = tr.begin("net.mux.transit");
                    let waited = self.rx.recv_timeout(wait);
                    tr.end(s);
                    match waited {
                        Ok(event) => event,
                        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                            return ClientEvent::Idle
                        }
                    }
                }
            };
            match event {
                MuxEvent::Frame { token, frame } => {
                    return ClientEvent::Frame {
                        token,
                        bytes: frame,
                    }
                }
                MuxEvent::Closed { token } => return ClientEvent::Closed { token },
                MuxEvent::Accepted { .. } => {}
            }
        }
    }

    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

// ---------------------------------------------------------------------------
// core.service recovery
// ---------------------------------------------------------------------------

/// One enclave as `open_with_journal` rebuilt it.
pub struct RecoveredEnclave {
    pub tag: String,
    pub epoch: Option<u64>,
    pub roster: Vec<String>,
    pub records: u64,
}

/// A service reopened from a journal directory.
pub struct Reopened {
    service: LeaderService,
    pub recovered: Vec<RecoveredEnclave>,
    pub failed: Vec<String>,
    pub open_time: Duration,
}

impl Reopened {
    /// `LeaderService::open_with_journal` over `dir`. The listener is a
    /// simulated one nobody connects to: recovery exercises the journal,
    /// not the transport. The poll cadence is shortened only so that
    /// `shutdown` (untimed) returns quickly between cold opens.
    pub fn open(tr: &mut Tracer, dir: &Path) -> Result<Self, Fail> {
        let net = SimNet::new(SimConfig::default());
        let listener = net
            .listen("recovery-leader")
            .map_err(|e| format!("sim listen: {e}"))?;
        let config = ServiceConfig {
            poll: Duration::from_millis(2),
            ..ServiceConfig::default()
        };
        let s = tr.begin("core.service.open");
        let start = Instant::now();
        let opened = LeaderService::open_with_journal(Box::new(listener), dir, config);
        let open_time = start.elapsed();
        tr.end(s);
        let (service, report) = opened.map_err(|e| format!("open_with_journal: {e}"))?;
        let recovered = report
            .recovered
            .iter()
            .map(|g| {
                let mut roster: Vec<String> =
                    g.handle.roster().iter().map(ToString::to_string).collect();
                roster.sort_unstable();
                RecoveredEnclave {
                    tag: g
                        .group
                        .as_ref()
                        .map(ToString::to_string)
                        .unwrap_or_default(),
                    epoch: g.epoch,
                    roster,
                    records: g.records,
                }
            })
            .collect();
        let failed = report
            .failed
            .iter()
            .map(|f| format!("{}: {}", f.stream, f.error))
            .collect();
        Ok(Reopened {
            service,
            recovered,
            failed,
            open_time,
        })
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }
}
