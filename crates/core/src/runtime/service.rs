//! The multi-enclave leader service: many groups in one process, bounded
//! threads.
//!
//! A [`LeaderService`] hosts any number of independent enclaves (groups)
//! behind **one** front end, with a fixed thread complement that does not
//! grow with the group count:
//!
//! - on real sockets ([`LeaderService::spawn_mux`]), one handler thread
//!   per event shard of a readiness loop that owns every socket — so the
//!   thread count does not grow with the connection count either;
//! - on the simulator ([`LeaderService::spawn`]), one acceptor thread plus
//!   one handler thread per simulated connection. This thread-per-link
//!   front end serves the simulator only, until the simulated network
//!   gains the loop's event face;
//! - one shared liveness ticker driving every group's ARQ retransmits,
//!   heartbeat deadlines, and timeout evictions.
//!
//! Whoever drives a group's core — a connection handler with a frame, an
//! operator through a [`GroupHandle`], the ticker with an eviction — does
//! the same three things: call the core under its lock (which seals
//! whatever it sends, where it stands), then emit the events and route
//! the frames. Admin frames are small and a production (tree-rekey)
//! operation seals a handful, so no second path seals them anywhere
//! else, and none has to be kept in step with this one.
//!
//! Incoming frames are demultiplexed by the envelope's group tag
//! ([`enclaves_wire::message::Envelope::group`]): each frame is routed to
//! the [`GroupEntry`] registered under exactly that tag, and every group's
//! core additionally *rejects* cross-enclave traffic
//! ([`crate::error::RejectReason::WrongEnclave`]) and seals with the tag
//! bound into the AEAD header AAD — isolation holds even against a
//! registry-bypassing adversary.
//!
//! A single-group leader is this service with one group added, so every
//! integration test exercises the shared machinery.
//!
//! Lock order: `registry` → `send_order` → `core` → `routes`. Nothing
//! acquires an earlier lock while holding a later one.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::journal::{
    genesis_for, label_for, JournalDir, JournalError, ReadMode, StreamInfo, StreamScan,
};
use crate::liveness::{Clock, LivenessConfig, RealClock};
use crate::protocol::{LeaderCore, LeaderEvent, LeaderOutput};
use crate::CoreError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use enclaves_net::{Frame, Link, Listener, MuxEndpoint, MuxEvent, MuxNet, MuxToken};
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::message::Envelope;
use enclaves_wire::{ActorId, GroupId, Roster};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streams a recovery worker takes on before another is worth starting.
/// A stream replays in about a millisecond, so below this a helper saves
/// a few milliseconds of one start-up at best, and in exchange the open
/// takes as long as the slower of two threads: its time would follow
/// whatever else wants the second CPU.
const STREAMS_PER_WORKER: usize = 8;

/// Threads (the caller included) that share a cold open of `streams`
/// streams on a host that runs `parallelism` threads at once.
fn recovery_workers(parallelism: usize, streams: usize) -> usize {
    parallelism.min(streams.div_ceil(STREAMS_PER_WORKER))
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a [`GroupHandle::broadcast_data`] call actually put on the wire:
/// the `(epoch, seq)` slot the payload was sealed into and the members it
/// was fanned out to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastReceipt {
    /// Group-key epoch the frame was sealed under.
    pub epoch: u64,
    /// Broadcast sequence number within the epoch.
    pub seq: u64,
    /// The roster at seal time (the shared snapshot, not a copy).
    pub recipients: Roster,
}

// ---------------------------------------------------------------------------
// Route sinks
// ---------------------------------------------------------------------------

/// Where frames routed to one authenticated member go: the per-link
/// outbound channel of a simulated connection, or a connection token on a
/// readiness-loop [`MuxNet`]. The routing tables and the dispatch paths
/// are identical for both front ends.
#[derive(Clone)]
enum RouteSink {
    /// Simulator front end: a channel drained by that link's handler
    /// thread.
    Channel(Sender<Frame>),
    /// Readiness-loop backend: frames are enqueued on the loop's bounded
    /// outbound queue for this connection.
    Mux { net: MuxNet, token: MuxToken },
}

impl RouteSink {
    fn send(&self, frame: Frame) {
        match self {
            // A dead link (receiver gone) or a severed mux connection
            // drops the frame, as before: the transport guarantees
            // nothing, the ARQ layer recovers.
            RouteSink::Channel(tx) => {
                let _ = tx.send(frame);
            }
            RouteSink::Mux { net, token } => {
                let _ = net.send_to(*token, frame);
            }
        }
    }

    /// Whether both sinks refer to the same underlying connection — the
    /// guard that keeps a late cleanup of a dead link from severing the
    /// route a reconnected member rebound on a newer one.
    fn same_conn(&self, other: &RouteSink) -> bool {
        match (self, other) {
            (RouteSink::Channel(a), RouteSink::Channel(b)) => a.same_channel(b),
            (RouteSink::Mux { token: a, .. }, RouteSink::Mux { token: b, .. }) => a == b,
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-group state
// ---------------------------------------------------------------------------

/// One registered enclave: its protocol core plus the routing and
/// signalling state the runtime keeps per group.
struct GroupEntry {
    core: Mutex<LeaderCore>,
    /// Links bound to authenticated identities *within this group*.
    routes: Mutex<HashMap<ActorId, RouteSink>>,
    events_tx: Sender<LeaderEvent>,
    /// Bumped on every roster change; [`GroupHandle::wait_member`] blocks
    /// on the paired condvar instead of sleep-polling.
    roster_gen: Mutex<u64>,
    roster_cv: Condvar,
    /// Serializes operator- and ticker-driven fan-outs (rekey, broadcast,
    /// expel, evict) from the core call to the last dispatch, so an
    /// observer always sees an operation's events before any member can
    /// see its frames. Per group: fan-outs in different enclaves never
    /// contend.
    send_order: Mutex<()>,
}

impl GroupEntry {
    /// Routes envelopes to their recipients' links; unroutable envelopes
    /// are handed back to the caller-supplied fallback (the current link,
    /// during authentication).
    fn dispatch(&self, outgoing: Vec<Envelope>, fallback: Option<&RouteSink>) {
        let routes = self.routes.lock();
        for env in outgoing {
            let frame: Frame = encode(&env).into();
            if let Some(sink) = routes.get(&env.recipient) {
                sink.send(frame);
            } else if let Some(fb) = fallback {
                fb.send(frame);
            }
        }
    }

    /// Fans one shared frame out to every routed recipient: no
    /// per-recipient encoding or copying. Readiness-loop recipients are
    /// collected into one [`MuxNet::multicast`] — one command and at most
    /// one wakeup for the whole roster; a service has one front end, so
    /// every `Mux` route names the same loop. Simulator channels are sent
    /// to one by one.
    fn dispatch_shared(&self, frame: &Frame, recipients: &Roster) {
        let routes = self.routes.lock();
        let mut mux: Option<(&MuxNet, Vec<MuxToken>)> = None;
        for recipient in recipients.iter() {
            match routes.get(recipient) {
                Some(RouteSink::Mux { net, token }) => {
                    mux.get_or_insert_with(|| (net, Vec::with_capacity(recipients.len())))
                        .1
                        .push(*token);
                }
                Some(sink) => sink.send(Frame::clone(frame)),
                None => {}
            }
        }
        if let Some((net, tokens)) = mux {
            // A stopped loop drops the frame, as `RouteSink::send` does.
            let _ = net.multicast(tokens, Frame::clone(frame));
        }
    }

    /// Routes pre-encoded frames to their recipients' links; unroutable
    /// frames (e.g. handshake retransmits for members not yet bound) are
    /// dropped — the peer's own ARQ covers them.
    fn dispatch_frames<I: IntoIterator<Item = (ActorId, Frame)>>(&self, frames: I) {
        let routes = self.routes.lock();
        for (recipient, frame) in frames {
            if let Some(sink) = routes.get(&recipient) {
                sink.send(frame);
            }
        }
    }

    fn emit(&self, events: Vec<LeaderEvent>) {
        let roster_changed = events.iter().any(|e| {
            matches!(
                e,
                LeaderEvent::MemberJoined(_)
                    | LeaderEvent::MemberLeft(_)
                    | LeaderEvent::MemberEvicted(_)
            )
        });
        for e in events {
            let _ = self.events_tx.send(e);
        }
        if roster_changed {
            *self.roster_gen.lock() += 1;
            self.roster_cv.notify_all();
        }
    }

    /// One operator- or ticker-driven fan-out: runs `op` on the core,
    /// then emits its events *before* dispatching its frames (all under
    /// this group's send-order lock), so no observer can record a
    /// delivery before its send. `sever` names a member `op` removes: its
    /// route goes before any dispatch, so it cannot receive
    /// post-departure frames.
    fn fan_out(
        &self,
        sever: Option<&ActorId>,
        op: impl FnOnce(&mut LeaderCore) -> Result<LeaderOutput, CoreError>,
    ) -> Result<(), CoreError> {
        let _order = self.send_order.lock();
        let output = {
            let locked = Instant::now();
            let mut core = self.core.lock();
            let output = op(&mut core);
            core.note_lock_hold(elapsed_ns(locked));
            output?
        };
        if let Some(user) = sever {
            self.routes.lock().remove(user);
        }
        self.emit(output.events);
        self.dispatch(output.outgoing, None);
        // A tree-rekey PathUpdate rides the same send-order window: one
        // sealed frame, fanned out as refcount bumps.
        for b in &output.broadcasts {
            self.dispatch_shared(&b.frame, &b.recipients);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

struct ServiceShared {
    /// Registered groups, keyed by their wire tag. `None` is the single
    /// legacy untagged group (byte-compatible pre-multigroup wire format).
    registry: RwLock<HashMap<Option<GroupId>, Arc<GroupEntry>>>,
    /// The liveness clock shared by every group: real time by default,
    /// virtual under test.
    clock: Arc<dyn Clock>,
    /// Acceptor/ticker/link poll cadence.
    poll: Duration,
    running: AtomicBool,
    /// Frames whose group tag matched no registered enclave (dropped).
    unroutable: AtomicU64,
    /// The write-ahead journal directory, when this service is durable:
    /// every `add_group` creates a sealed stream and every hosted core
    /// journals its transitions.
    journal: Option<JournalDir>,
    /// Service-level metrics (`recovery.*`) — not owned by any one
    /// group's core — merged into [`LeaderService::snapshot`].
    service_obs: enclaves_obs::Registry,
}

/// Tuning for a [`LeaderService`] — the *service-wide* knobs (clock, poll
/// cadence). Per-group protocol policy stays in each group's
/// [`LeaderConfig`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Liveness clock driving every hosted group. `None` = real time.
    pub clock: Option<Arc<dyn Clock>>,
    /// Ticker/acceptor/link poll cadence.
    pub poll: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            clock: None,
            poll: LivenessConfig::default().poll,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("clock", &self.clock.as_ref().map(|_| "<clock>"))
            .field("poll", &self.poll)
            .finish()
    }
}

/// What [`LeaderService::open_with_journal`] rebuilt from disk: one entry
/// per recovered enclave stream, one typed failure per stream it had to
/// skip, and the wall-clock replay time.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Groups rebuilt and registered, with their operator handles.
    pub recovered: Vec<RecoveredGroup>,
    /// Streams that failed replay — each with its typed error; the rest
    /// of the service started anyway.
    pub failed: Vec<FailedGroup>,
    /// Wall-clock time for the whole replay pass.
    pub elapsed: Duration,
}

/// One enclave rebuilt from its journal stream.
#[derive(Debug)]
pub struct RecoveredGroup {
    /// Operator handle to the re-registered group.
    pub handle: GroupHandle,
    /// The enclave tag (`None` = the legacy untagged group).
    pub group: Option<GroupId>,
    /// The fresh post-recovery epoch (`None` for a group that never
    /// established one).
    pub epoch: Option<u64>,
    /// Members in the recovered roster (awaiting auto-rejoin).
    pub members: usize,
    /// Journal records replayed (including the genesis).
    pub records: u64,
    /// Bytes of torn tail dropped from the stream (a mid-append crash).
    pub torn_bytes: u64,
    /// Whether a fence file bounded the recovery epoch.
    pub fenced: bool,
}

/// One enclave stream that failed replay, with its typed error.
#[derive(Debug)]
pub struct FailedGroup {
    /// The stream's file name inside the journal directory.
    pub stream: String,
    /// Why replay was refused.
    pub error: JournalError,
}

/// The I/O front-end a service runs on.
enum FrontEnd {
    /// The simulator's listener: an acceptor thread, then a handler thread
    /// per connection.
    Listener(Box<dyn Listener>),
    /// Readiness loop: one handler thread per event shard.
    Mux(MuxEndpoint),
}

/// A multi-enclave leader service: one listener, one ticker, any number
/// of groups. See the module docs for the threading model.
pub struct LeaderService {
    shared: Arc<ServiceShared>,
    /// I/O threads: the acceptor (simulator) or the fixed shard handlers
    /// (readiness loop).
    io: Vec<std::thread::JoinHandle<()>>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LeaderService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderService")
            .field("groups", &self.group_count())
            .finish_non_exhaustive()
    }
}

impl LeaderService {
    /// Spawns the service on a simulated network's listener
    /// ([`enclaves_net::sim::SimListener`]): one acceptor thread, a handler
    /// thread per connection, and one shared liveness ticker. Groups are
    /// added with [`LeaderService::add_group`]. Real sockets go through
    /// [`LeaderService::spawn_mux`].
    #[must_use]
    pub fn spawn(listener: Box<dyn Listener>, config: ServiceConfig) -> Self {
        Self::start(FrontEnd::Listener(listener), &config, None)
    }

    /// Spawns the service in readiness-loop mode on a [`MuxEndpoint`]
    /// (from [`MuxNet::listen_events`]): no acceptor thread and no
    /// thread-per-connection — one handler thread per event shard drains
    /// accepted/frame/closed events for the connections pinned to it, so
    /// the whole service runs at `shards + 2` threads (the loop's own and
    /// the ticker included) regardless of how many members connect.
    ///
    /// The caller keeps the endpoint's [`MuxNet`] alive and shuts it down
    /// *after* [`LeaderService::shutdown`].
    #[must_use]
    pub fn spawn_mux(endpoint: MuxEndpoint, config: ServiceConfig) -> Self {
        Self::start(FrontEnd::Mux(endpoint), &config, None)
    }

    /// Reopens a durable service from its write-ahead journal directory:
    /// every enclave stream found in `dir` is replayed, its core rebuilt
    /// at the recorded roster and epoch, advanced into a fresh epoch
    /// strictly past the journal fence, and registered — members then
    /// re-admit themselves through the liveness layer's auto-rejoin path
    /// with no operator intervention. Groups added later through
    /// [`LeaderService::add_group`] get their own journal streams. Like
    /// [`LeaderService::spawn`], this runs on the simulator's listener;
    /// [`LeaderService::open_mux_with_journal`] is the real-socket twin.
    ///
    /// Streams are independent, so a directory of many is recovered side
    /// by side: one thread per `STREAMS_PER_WORKER` (8) streams, at most
    /// `available_parallelism` of them, the calling thread included. A
    /// handful of streams is replayed by the caller alone. The report
    /// lists them in label order regardless.
    ///
    /// A stream that fails to replay — or a `stream-*.wal` file whose
    /// name is not a stream label at all — is reported in the returned
    /// [`RecoveryReport`] with its typed [`JournalError`] and *skipped*;
    /// one corrupt enclave never takes down its neighbours.
    ///
    /// # Errors
    ///
    /// Journal-directory-level failures only (unreadable directory or
    /// master key); per-stream failures land in the report.
    pub fn open_with_journal(
        listener: Box<dyn Listener>,
        dir: &Path,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), JournalError> {
        Self::open_journaled(FrontEnd::Listener(listener), dir, &config)
    }

    /// [`LeaderService::open_with_journal`] in readiness-loop mode: the
    /// production transport ([`LeaderService::spawn_mux`]) and the
    /// production durability in one process.
    ///
    /// # Errors
    ///
    /// As [`LeaderService::open_with_journal`].
    pub fn open_mux_with_journal(
        endpoint: MuxEndpoint,
        dir: &Path,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), JournalError> {
        Self::open_journaled(FrontEnd::Mux(endpoint), dir, &config)
    }

    fn open_journaled(
        front: FrontEnd,
        dir: &Path,
        config: &ServiceConfig,
    ) -> Result<(Self, RecoveryReport), JournalError> {
        let journal = JournalDir::open_or_init(dir)?;
        let scan = journal.streams()?;
        let service = Self::start(front, config, Some(journal.clone()));
        let parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = recovery_workers(parallelism, scan.streams.len());
        let report = Self::recover_all(&service.shared, &journal, &scan, workers);
        Ok((service, report))
    }

    /// Recovers every scanned stream on at most `workers` threads, the
    /// caller's included: each pulls the next stream index until none is
    /// left, and the outcomes are put back in scan (label) order, so the
    /// report and the metrics do not depend on who recovered what.
    fn recover_all(
        shared: &Arc<ServiceShared>,
        journal: &JournalDir,
        scan: &StreamScan,
        workers: usize,
    ) -> RecoveryReport {
        let start = Instant::now();
        let workers = workers.min(scan.streams.len());
        // Relaxed: the index hands out work and publishes nothing else.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(info) = scan.streams.get(i) else {
                    break done;
                };
                done.push((i, Self::recover_stream(shared, journal, info)));
            }
        };
        let mut outcomes = std::thread::scope(|scope| {
            // A helper that fails to spawn costs speed only: whoever is
            // running drains the index.
            let helpers: Vec<_> = (1..workers)
                .filter_map(|i| {
                    std::thread::Builder::new()
                        .name(format!("enclaves-svc-recover-{i}"))
                        .spawn_scoped(scope, work)
                        .ok()
                })
                .collect();
            let mut outcomes = work();
            for helper in helpers {
                outcomes.extend(helper.join().expect("recovery worker panicked"));
            }
            outcomes
        });
        outcomes.sort_unstable_by_key(|(i, _)| *i);

        let obs = &shared.service_obs;
        obs.gauge("recovery.workers")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));
        let mut report = RecoveryReport {
            recovered: Vec::new(),
            failed: Vec::new(),
            elapsed: Duration::ZERO,
        };
        for (i, outcome) in outcomes {
            match outcome {
                Ok(group) => {
                    obs.counter("recovery.groups_ok").inc();
                    obs.counter("recovery.records_replayed").add(group.records);
                    if group.torn_bytes > 0 {
                        obs.counter("recovery.torn_tails").inc();
                    }
                    if group.fenced {
                        obs.counter("recovery.fenced").inc();
                    }
                    report.recovered.push(group);
                }
                Err(error) => {
                    let path = &scan.streams[i].path;
                    report.failed.push(FailedGroup {
                        stream: path.file_name().map_or_else(
                            || path.display().to_string(),
                            |n| n.to_string_lossy().into_owned(),
                        ),
                        error,
                    });
                }
            }
        }
        report
            .failed
            .extend(scan.misnamed.iter().map(|name| FailedGroup {
                stream: name.clone(),
                error: JournalError::BadStreamName { name: name.clone() },
            }));
        obs.counter("recovery.groups_failed")
            .add(report.failed.len() as u64);
        report.elapsed = start.elapsed();
        obs.histogram("recovery.replay_ns")
            .record(elapsed_ns(start));
        report
    }

    /// Replays one stream into a registered group: decode (tolerating a
    /// torn tail), rebuild the core, reopen the stream for appending, and
    /// jump past the fence.
    fn recover_stream(
        shared: &Arc<ServiceShared>,
        journal: &JournalDir,
        info: &StreamInfo,
    ) -> Result<RecoveredGroup, JournalError> {
        let replay = journal.replay_stream(&info.label, ReadMode::Recover)?;
        let mut core = LeaderCore::recover(&replay)?;
        if label_for(core.group_id()) != info.label {
            return Err(JournalError::ReplayDivergence {
                seq: 1,
                detail: "genesis group tag does not match the stream label".into(),
            });
        }
        core.attach_journal(journal.open_writer(&info.label, &replay)?);
        let epoch = core
            .recovery_advance(replay.fenced_epoch)
            .map_err(|e| match e {
                CoreError::Journal(j) => j,
                other => JournalError::ReplayDivergence {
                    seq: replay.next_seq,
                    detail: other.to_string(),
                },
            })?;
        let members = core.roster().len();
        let group = core.group_id().cloned();
        let handle =
            Self::register_core(shared, core).map_err(|e| JournalError::ReplayDivergence {
                seq: 1,
                detail: format!("cannot register recovered group: {e}"),
            })?;
        Ok(RecoveredGroup {
            handle,
            group,
            epoch,
            members,
            records: replay.records,
            torn_bytes: replay.torn_bytes,
            fenced: replay.fenced_epoch.is_some(),
        })
    }

    /// The one constructor: shared state, the front-end's I/O threads,
    /// the ticker.
    fn start(front: FrontEnd, config: &ServiceConfig, journal: Option<JournalDir>) -> Self {
        let shared = Self::build_shared(config, journal);
        // Which ChaCha20 kernel this host runs (1 = scalar), so a join
        // that is slower here than on the next host explains itself.
        shared
            .service_obs
            .gauge("crypto.chacha20_lanes")
            .set(i64::try_from(enclaves_crypto::chacha20::lanes()).unwrap_or(i64::MAX));
        let io = match front {
            FrontEnd::Listener(listener) => {
                let accept_shared = Arc::clone(&shared);
                let acceptor = std::thread::Builder::new()
                    .name("enclaves-svc-acceptor".into())
                    .spawn(move || {
                        while accept_shared.running.load(Ordering::Relaxed) {
                            match listener.accept_timeout(accept_shared.poll) {
                                Ok(link) => {
                                    let link_shared = Arc::clone(&accept_shared);
                                    let _ = std::thread::Builder::new()
                                        .name("enclaves-svc-link".into())
                                        .spawn(move || link_loop(&link_shared, link));
                                }
                                Err(enclaves_net::NetError::Timeout) => continue,
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn service acceptor");
                vec![acceptor]
            }
            FrontEnd::Mux(mut endpoint) => {
                let net = endpoint.net();
                endpoint
                    .take_shards()
                    .into_iter()
                    .enumerate()
                    .map(|(i, shard_rx)| {
                        let shard_shared = Arc::clone(&shared);
                        let shard_net = net.clone();
                        std::thread::Builder::new()
                            .name(format!("enclaves-svc-shard-{i}"))
                            .spawn(move || shard_loop(&shard_shared, &shard_net, &shard_rx))
                            .expect("spawn service shard handler")
                    })
                    .collect()
            }
        };
        let ticker = Self::spawn_ticker(&shared);
        LeaderService {
            shared,
            io,
            ticker: Some(ticker),
        }
    }

    fn build_shared(config: &ServiceConfig, journal: Option<JournalDir>) -> Arc<ServiceShared> {
        let clock: Arc<dyn Clock> = config
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(RealClock::new()));
        Arc::new(ServiceShared {
            registry: RwLock::new(HashMap::new()),
            clock,
            poll: config.poll,
            running: AtomicBool::new(true),
            unroutable: AtomicU64::new(0),
            journal,
            service_obs: enclaves_obs::Registry::new(),
        })
    }

    /// One liveness timer for the whole service: every poll interval it
    /// sweeps the registry and asks each group's core which ARQ frames
    /// are due and which members have exhausted their budget or missed
    /// their heartbeat deadline. Each group's deadlines come from its
    /// own core state against the shared clock, so one group's load
    /// cannot stretch another's timeouts (the tick-fairness test pins
    /// this).
    fn spawn_ticker(shared: &Arc<ServiceShared>) -> std::thread::JoinHandle<()> {
        let tick_shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("enclaves-svc-ticker".into())
            .spawn(move || {
                while tick_shared.running.load(Ordering::Relaxed) {
                    std::thread::sleep(tick_shared.poll);
                    let now = tick_shared.clock.now();
                    // Snapshot the entries, then drop the registry lock
                    // before touching any group's core (lock order:
                    // registry strictly precedes the per-group locks).
                    let entries: Vec<Arc<GroupEntry>> =
                        tick_shared.registry.read().values().cloned().collect();
                    for entry in entries {
                        let tick = entry.core.lock().tick(now);
                        entry.dispatch_frames(tick.frames);
                        // The timeout-driven `Oops(Ka)` path (Figure 3).
                        // An error means the member departed on its own
                        // between the tick and this call.
                        for user in &tick.evict {
                            let _ = entry.fan_out(Some(user), |core| core.evict(user));
                        }
                    }
                }
            })
            .expect("spawn service ticker")
    }

    /// Registers a group under the tag in `config.group` (`None` = the
    /// single legacy untagged group) and returns its handle. On a
    /// journaled service ([`LeaderService::open_with_journal`]) this also
    /// creates the group's journal stream — its genesis record snapshots
    /// the directory and config — and attaches the writer to the core.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if a group with the same tag is already
    /// registered; [`CoreError::Journal`] if the journal stream cannot be
    /// created (including a leftover stream from a removed group).
    pub fn add_group(
        &self,
        leader_id: ActorId,
        directory: Directory,
        config: LeaderConfig,
    ) -> Result<GroupHandle, CoreError> {
        let core = if let Some(journal) = &self.shared.journal {
            // Refuse the duplicate tag before touching the disk, so a
            // duplicate `add_group` does not leave an orphan stream.
            if self.shared.registry.read().contains_key(&config.group) {
                return Err(CoreError::BadPhase {
                    operation: "add group",
                    phase: "group tag already registered",
                });
            }
            let genesis = genesis_for(&leader_id, &directory, &config);
            let writer = journal.create_stream(&label_for(config.group.as_ref()), &genesis)?;
            let mut core = LeaderCore::new(leader_id, directory, config);
            core.attach_journal(writer);
            core
        } else {
            LeaderCore::new(leader_id, directory, config)
        };
        Self::register_core(&self.shared, core)
    }

    /// Registers an existing core (fresh or recovered) in the registry.
    fn register_core(
        shared: &Arc<ServiceShared>,
        core: LeaderCore,
    ) -> Result<GroupHandle, CoreError> {
        let key = core.group_id().cloned();
        let (events_tx, events_rx) = unbounded();
        let entry = Arc::new(GroupEntry {
            core: Mutex::new(core),
            routes: Mutex::new(HashMap::new()),
            events_tx,
            roster_gen: Mutex::new(0),
            roster_cv: Condvar::new(),
            send_order: Mutex::new(()),
        });
        let mut registry = shared.registry.write();
        if registry.contains_key(&key) {
            return Err(CoreError::BadPhase {
                operation: "add group",
                phase: "group tag already registered",
            });
        }
        registry.insert(key.clone(), Arc::clone(&entry));
        drop(registry);
        Ok(GroupHandle {
            entry,
            events_rx,
            group: key,
        })
    }

    /// Deregisters a group: subsequent frames tagged for it are dropped
    /// and the shared ticker stops driving it. Existing [`GroupHandle`]s
    /// keep their (now unreachable) core alive. Returns whether the tag
    /// was registered.
    pub fn remove_group(&self, group: Option<&GroupId>) -> bool {
        self.shared
            .registry
            .write()
            .remove(&group.cloned())
            .is_some()
    }

    /// Number of registered groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.shared.registry.read().len()
    }

    /// Frames dropped because their group tag matched no registered
    /// enclave.
    #[must_use]
    pub fn unroutable_frames(&self) -> u64 {
        self.shared.unroutable.load(Ordering::Relaxed)
    }

    /// One merged metric snapshot for the whole service: each group's
    /// `leader.*` metrics relabelled `group.<id>.leader.*` (the legacy
    /// untagged group keeps its bare names), disjoint by construction, so
    /// the merge never sums across enclaves.
    #[must_use]
    pub fn snapshot(&self) -> enclaves_obs::Snapshot {
        let entries: Vec<(Option<GroupId>, Arc<GroupEntry>)> = self
            .shared
            .registry
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        let mut merged = enclaves_obs::Snapshot::default();
        for (key, entry) in entries {
            let part = entry.core.lock().obs_registry().snapshot();
            let part = match key {
                Some(group) => part.with_prefix(&format!("group.{group}")),
                None => part,
            };
            // Disjoint (per-group prefixed) names cannot hit the only
            // merge failure, a shared-name histogram bucket mismatch.
            merged
                .merge_from(&part)
                .expect("per-group metric names are disjoint");
        }
        // Service-level metrics ride along under their own names
        // (`recovery.*`, `crypto.*`), disjoint from every `leader.*` name.
        merged
            .merge_from(&self.shared.service_obs.snapshot())
            .expect("service metric names are disjoint");
        merged
    }

    /// Stops the I/O threads (acceptor or shard handlers) and the ticker.
    pub fn shutdown(mut self) {
        self.shared.running.store(false, Ordering::Relaxed);
        for h in self.io.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-group handle
// ---------------------------------------------------------------------------

/// Operator handle to one group inside a [`LeaderService`], scoped to
/// this enclave: what [`LeaderService::add_group`] returns.
pub struct GroupHandle {
    entry: Arc<GroupEntry>,
    events_rx: Receiver<LeaderEvent>,
    group: Option<GroupId>,
}

impl std::fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHandle")
            .field("group", &self.group)
            .finish_non_exhaustive()
    }
}

impl GroupHandle {
    /// The enclave tag this handle is scoped to (`None` = the legacy
    /// untagged group).
    #[must_use]
    pub fn group_id(&self) -> Option<&GroupId> {
        self.group.as_ref()
    }

    /// The group's event stream.
    #[must_use]
    pub fn events(&self) -> &Receiver<LeaderEvent> {
        &self.events_rx
    }

    /// Current members: the core's shared snapshot, `O(1)` under the
    /// lock.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.entry.core.lock().roster()
    }

    /// Current group-key epoch.
    #[must_use]
    pub fn epoch(&self) -> Option<u64> {
        self.entry.core.lock().epoch()
    }

    /// Leader statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> crate::protocol::LeaderStats {
        self.entry.core.lock().stats()
    }

    /// The core's metric registry (`leader.*` names); snapshots taken from
    /// it see the live counters without taking the core lock again.
    #[must_use]
    pub fn obs_registry(&self) -> enclaves_obs::Registry {
        self.entry.core.lock().obs_registry()
    }

    /// Attaches a protocol event stream to the core: every subsequent
    /// protocol action (join, rekey, broadcast, retransmit, seal batch)
    /// is emitted in happened-before order. Sends are emitted under the
    /// core lock, before their frames reach any link.
    pub fn attach_event_stream(&self, events: enclaves_obs::EventStream) {
        self.entry.core.lock().set_event_stream(events);
    }

    /// Rotates the group key now.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn rekey(&self) -> Result<(), CoreError> {
        self.entry.fan_out(None, LeaderCore::rekey_now)
    }

    /// Broadcasts application data over the authenticated admin channel,
    /// returning the exact roster the broadcast was addressed to (captured
    /// under the core lock, so a concurrent join/leave cannot blur it —
    /// the chaos oracle needs the precise recipient set).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn broadcast(&self, data: &[u8]) -> Result<Roster, CoreError> {
        let mut recipients = Roster::default();
        self.entry.fan_out(None, |core| {
            recipients = core.roster();
            core.broadcast_admin_data(data)
        })?;
        Ok(recipients)
    }

    /// Broadcasts application data over the single-seal group-key data
    /// plane: the payload is sealed once under the current group key and
    /// the identical refcounted frame is handed to every member's link.
    /// Returns a receipt identifying the frame's `(epoch, seq)` slot and
    /// its recipients.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors ([`CoreError::BadPhase`] if the group is
    /// empty).
    pub fn broadcast_data(&self, data: &[u8]) -> Result<BroadcastReceipt, CoreError> {
        let broadcast = self.entry.core.lock().broadcast_group_data(data)?;
        self.entry
            .dispatch_shared(&broadcast.frame, &broadcast.recipients);
        Ok(BroadcastReceipt {
            epoch: broadcast.epoch,
            seq: broadcast.seq,
            recipients: broadcast.recipients,
        })
    }

    /// Whether every in-flight admin exchange has been acknowledged: no
    /// handshake half-open, no admin message awaiting its ack. Chaos runs
    /// poll this after healing the network to know when the retransmission
    /// layer has finished recovering.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.entry.core.lock().outstanding_count() == 0
    }

    /// Expels a member and runs the departure fan-out (notices, rekey).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if not connected.
    pub fn expel(&self, user: &ActorId) -> Result<(), CoreError> {
        self.entry.fan_out(Some(user), |core| core.expel(user))
    }

    /// Waits until `user` appears in the roster.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the deadline passes first.
    pub fn wait_member(&self, user: &ActorId, timeout: Duration) -> Result<(), CoreError> {
        let deadline = Instant::now() + timeout;
        // Block on the roster condvar instead of sleep-polling: the link
        // threads notify it on every join/leave, so the wait wakes the
        // moment the roster changes (plus spurious wakeups, handled by the
        // re-check loop).
        let mut gen = self.entry.roster_gen.lock();
        loop {
            if self.entry.core.lock().roster().contains(user) {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::Timeout("member join"));
            }
            let _ = self.entry.roster_cv.wait_for(&mut gen, deadline - now);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling (shared by both front ends)
// ---------------------------------------------------------------------------

/// Per-connection ingestion state, transport-independent: where replies
/// to this connection go, and which routes it has bound (one per
/// (group, identity) whose freshness was proven on it) for cleanup.
struct ConnCtx {
    sink: RouteSink,
    bound: Vec<(Arc<GroupEntry>, ActorId)>,
}

impl ConnCtx {
    fn new(sink: RouteSink) -> Self {
        ConnCtx {
            sink,
            bound: Vec::new(),
        }
    }

    /// Ingests one inbound frame: decodes it, demultiplexes to the entry
    /// registered under the envelope's group tag, pumps it into that
    /// group's core, and routes the resulting frames. One connection can
    /// in principle carry traffic for several groups (each binding its
    /// own route), though honest members speak for one.
    fn handle_frame(&mut self, shared: &ServiceShared, frame: &Frame) {
        let Ok(env) = decode::<Envelope>(frame) else {
            return; // malformed frame: drop
        };
        // Demux strictly by the (unauthenticated) group tag: a frame
        // only ever reaches the enclave whose tag it carries, and that
        // enclave's core re-checks the tag against its own configuration
        // plus the AEAD binding.
        let entry = shared.registry.read().get(&env.group).cloned();
        let Some(entry) = entry else {
            shared.unroutable.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let sender = env.sender.clone();
        // Read the clock before taking the core lock so the liveness
        // bookkeeping sees arrival time, not lock-grant time.
        let now = shared.clock.now();
        let result = entry.core.lock().handle_at(&env, now);
        match result {
            Ok(output) => {
                // Bind this connection to the claimed identity only on
                // messages whose acceptance proves *freshness*
                // (AuthAckKey/Ack echo a one-time nonce under the
                // session key). Accepted-but-replayable messages
                // (GroupData, duplicate AuthInitReq answered from the
                // ARQ cache) must NOT bind, or an attacker replaying a
                // captured frame from its own connection could capture
                // the member's route — a denial of service.
                let proves_freshness = matches!(
                    env.msg_type,
                    enclaves_wire::message::MsgType::AuthAckKey
                        | enclaves_wire::message::MsgType::Ack
                );
                let already = self
                    .bound
                    .iter()
                    .any(|(e, u)| Arc::ptr_eq(e, &entry) && u == &sender);
                if proves_freshness && !already {
                    entry
                        .routes
                        .lock()
                        .insert(sender.clone(), self.sink.clone());
                    self.bound.push((Arc::clone(&entry), sender.clone()));
                }
                // A departing member's route is dropped so a later
                // rejoin (possibly on a new connection) starts clean.
                for event in &output.events {
                    if let LeaderEvent::MemberLeft(user) | LeaderEvent::MemberEvicted(user) = event
                    {
                        entry.routes.lock().remove(user);
                    }
                }
                if env.msg_type == enclaves_wire::message::MsgType::AuthInitReq {
                    // Handshake replies always return on the connection
                    // the request arrived on: the requester is not (or no
                    // longer) route-bound, and any stale route from a
                    // previous session must not swallow the reply.
                    for out_env in output.outgoing {
                        self.sink.send(encode(&out_env).into());
                    }
                } else {
                    entry.dispatch(output.outgoing, Some(&self.sink));
                }
                // Tree-rekey PathUpdates are sealed once and fanned out
                // as refcount bumps, like data-plane broadcasts.
                for b in &output.broadcasts {
                    entry.dispatch_shared(&b.frame, &b.recipients);
                }
                entry.emit(output.events);
            }
            Err(e) => {
                entry.emit(vec![LeaderEvent::Rejected {
                    from: sender,
                    reason: match e {
                        CoreError::Rejected(r) => r,
                        _ => crate::error::RejectReason::Malformed,
                    },
                }]);
            }
        }
    }

    /// Unbinds every route this connection held, unless a newer
    /// connection has already rebound it: the member may have
    /// reconnected, and a late cleanup of the dead connection must not
    /// sever the fresh route. A vanished connection does not remove the
    /// member from the group — the member may reconnect, or the
    /// application may expel it; the protocol state is authoritative.
    fn cleanup(&self) {
        for (entry, user) in &self.bound {
            let mut routes = entry.routes.lock();
            if routes.get(user).is_some_and(|s| s.same_conn(&self.sink)) {
                routes.remove(user);
            }
        }
    }
}

/// Thread-per-link handler of the simulator front end: pumps one link's
/// inbound frames through a [`ConnCtx`] and flushes its outbound channel.
fn link_loop(shared: &Arc<ServiceShared>, link: Box<dyn Link>) {
    let (out_tx, out_rx) = unbounded::<Frame>();
    let mut ctx = ConnCtx::new(RouteSink::Channel(out_tx));

    while shared.running.load(Ordering::Relaxed) {
        // Flush anything routed to this link.
        while let Ok(frame) = out_rx.try_recv() {
            if link.send(frame).is_err() {
                ctx.cleanup();
                return;
            }
        }
        match link.recv_timeout(shared.poll) {
            Ok(frame) => ctx.handle_frame(shared, &frame),
            Err(enclaves_net::NetError::Timeout) => continue,
            Err(_) => {
                ctx.cleanup();
                return;
            }
        }
    }
}

/// Readiness-loop shard handler: drains one event shard, maintaining a
/// [`ConnCtx`] per connection pinned to this shard. The loop thread owns
/// the sockets; this thread only runs protocol work, so the service's
/// thread count is `shards`, not `connections`.
fn shard_loop(
    shared: &Arc<ServiceShared>,
    net: &MuxNet,
    shard_rx: &crossbeam_channel::Receiver<MuxEvent>,
) {
    let mut conns: HashMap<MuxToken, ConnCtx> = HashMap::new();
    while shared.running.load(Ordering::Relaxed) {
        match shard_rx.recv_timeout(shared.poll) {
            Ok(MuxEvent::Accepted { token, .. }) => {
                conns.insert(
                    token,
                    ConnCtx::new(RouteSink::Mux {
                        net: net.clone(),
                        token,
                    }),
                );
            }
            Ok(MuxEvent::Frame { token, frame }) => {
                // Insert on demand too: delivery is in order per
                // connection, but an endpoint restart could replay
                // frames without their Accepted.
                let ctx = conns.entry(token).or_insert_with(|| {
                    ConnCtx::new(RouteSink::Mux {
                        net: net.clone(),
                        token,
                    })
                });
                ctx.handle_frame(shared, &frame);
            }
            Ok(MuxEvent::Closed { token }) => {
                if let Some(ctx) = conns.remove(&token) {
                    ctx.cleanup();
                }
            }
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    for ctx in conns.values() {
        ctx.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LeaderConfig, RekeyPolicy};
    use crate::protocol::MemberEvent;
    use crate::runtime::{MemberOptions, MemberRuntime};
    use enclaves_net::sim::{SimConfig, SimNet};

    const WAIT: Duration = Duration::from_secs(5);

    fn id(s: &str) -> ActorId {
        ActorId::new(s).unwrap()
    }

    fn gid(s: &str) -> GroupId {
        GroupId::new(s).unwrap()
    }

    fn directory(users: &[&str]) -> Directory {
        let mut d = Directory::new();
        for u in users {
            d.register_password(&id(u), &format!("{u}-pw")).unwrap();
        }
        d
    }

    fn group_config(tag: &str) -> LeaderConfig {
        LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            group: Some(gid(tag)),
            ..LeaderConfig::default()
        }
    }

    fn join(
        net: &SimNet,
        conn: &str,
        user: &str,
        group: &str,
        handle: &GroupHandle,
    ) -> MemberRuntime {
        let link = net.connect(conn, "svc").unwrap();
        let member = MemberRuntime::connect_with(
            Box::new(link),
            id(user),
            id("leader"),
            &format!("{user}-pw"),
            MemberOptions {
                group: Some(gid(group)),
                ..MemberOptions::default()
            },
        )
        .unwrap();
        member.wait_joined(WAIT).unwrap();
        handle.wait_member(&id(user), WAIT).unwrap();
        member
    }

    /// Two groups behind one listener: traffic routes to the right group,
    /// broadcasts stay inside their enclave, and the merged snapshot
    /// carries per-group labels.
    #[test]
    fn two_groups_share_one_service_with_isolated_routing() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());

        // The same username exists in BOTH groups — the worst case for
        // isolation, since both enclaves derive the same password key.
        let red = service
            .add_group(id("leader"), directory(&["alice"]), group_config("red"))
            .unwrap();
        let blue = service
            .add_group(id("leader"), directory(&["alice"]), group_config("blue"))
            .unwrap();
        assert_eq!(service.group_count(), 2);

        let alice_red = join(&net, "a-red", "alice", "red", &red);
        let alice_blue = join(&net, "a-blue", "alice", "blue", &blue);

        red.broadcast(b"red only").unwrap();
        let event = alice_red
            .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
            .unwrap();
        assert_eq!(event, MemberEvent::AdminData(b"red only".to_vec()));
        assert!(
            alice_blue
                .wait_event(Duration::from_millis(200), |e| matches!(
                    e,
                    MemberEvent::AdminData(_)
                ))
                .is_err(),
            "a red broadcast must never surface in blue"
        );

        // Data-plane broadcasts are scoped the same way.
        blue.broadcast_data(b"blue data").unwrap();
        let event = alice_blue
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
        assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"blue data"));
        assert!(alice_red
            .wait_event(Duration::from_millis(200), |e| matches!(
                e,
                MemberEvent::Broadcast { .. }
            ))
            .is_err());

        // The merged snapshot labels each group's metrics disjointly.
        let snap = service.snapshot();
        assert!(snap.counter("group.red.leader.accepted") > 0);
        assert!(snap.counter("group.blue.leader.accepted") > 0);
        assert_eq!(snap.counter("leader.accepted"), 0, "no unlabeled group");

        service.shutdown();
    }

    /// A frame tagged for an unregistered enclave is dropped and counted,
    /// and never perturbs registered groups.
    #[test]
    fn unregistered_group_tag_is_counted_and_dropped() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        let red = service
            .add_group(id("leader"), directory(&["alice"]), group_config("red"))
            .unwrap();
        let alice = join(&net, "a-red", "alice", "red", &red);

        let ghost = Envelope {
            msg_type: enclaves_wire::message::MsgType::GroupData,
            sender: id("alice"),
            recipient: id("leader"),
            group: Some(gid("ghost")),
            body: vec![0xAB; 24],
        };
        let link = net.connect("ghost-conn", "svc").unwrap();
        link.send(encode(&ghost).into()).unwrap();
        let deadline = Instant::now() + WAIT;
        while service.unroutable_frames() == 0 {
            assert!(Instant::now() < deadline, "unroutable frame not counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(red.stats().rejected, 0, "drop happens before any core");

        // The registered group still works.
        red.broadcast(b"fine").unwrap();
        alice
            .wait_event(WAIT, |e| matches!(e, MemberEvent::AdminData(_)))
            .unwrap();
        service.shutdown();
    }

    /// Registering the same tag twice is an error; removing frees the tag.
    #[test]
    fn duplicate_and_removed_group_tags() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        let _red = service
            .add_group(id("leader"), directory(&[]), group_config("red"))
            .unwrap();
        assert!(matches!(
            service.add_group(id("leader"), directory(&[]), group_config("red")),
            Err(CoreError::BadPhase { .. })
        ));
        assert!(service.remove_group(Some(&gid("red"))));
        assert!(!service.remove_group(Some(&gid("red"))));
        let _red2 = service
            .add_group(id("leader"), directory(&[]), group_config("red"))
            .unwrap();
        assert_eq!(service.group_count(), 1);
        service.shutdown();
    }

    /// One process hosts a thousand registered groups with a bounded
    /// thread complement (acceptor + ticker, not one thread per group),
    /// and a group deep in the registry still serves members.
    #[test]
    fn thousand_groups_bounded_threads() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        for i in 0..1000 {
            let tag = format!("g{i:04}");
            let dir = if i == 937 {
                directory(&["alice"])
            } else {
                directory(&[])
            };
            let mut config = group_config(&tag);
            config.group = Some(gid(&tag));
            service.add_group(id("leader"), dir, config).unwrap();
        }
        assert_eq!(service.group_count(), 1000);

        // Let the shared ticker sweep the full registry a few times.
        std::thread::sleep(Duration::from_millis(100));

        #[cfg(target_os = "linux")]
        {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let threads: usize = status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!(
                threads < 256,
                "thread count must not scale with group count, got {threads}"
            );
        }

        let deep = gid("g0937");
        let link = net.connect("a-deep", "svc").unwrap();
        let member = MemberRuntime::connect_with(
            Box::new(link),
            id("alice"),
            id("leader"),
            "alice-pw",
            MemberOptions {
                group: Some(deep),
                ..MemberOptions::default()
            },
        )
        .unwrap();
        member.wait_joined(WAIT).unwrap();
        service.shutdown();
    }

    /// A journaled service restarts from its journal directory: the
    /// healthy enclave is rebuilt (roster intact, epoch strictly
    /// advanced), while a corrupted stream surfaces as a typed per-stream
    /// failure in the report — never a panic, never a casualty of a
    /// neighbouring enclave.
    #[test]
    fn journaled_service_recovers_groups_and_isolates_stream_failures() {
        use crate::journal::{label_for, JournalDir, JournalError};
        let tmp = std::env::temp_dir().join(format!("enclaves-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);

        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let (service, report) =
            LeaderService::open_with_journal(Box::new(listener), &tmp, ServiceConfig::default())
                .unwrap();
        assert!(report.recovered.is_empty() && report.failed.is_empty());
        let red = service
            .add_group(id("leader"), directory(&["alice"]), group_config("red"))
            .unwrap();
        service
            .add_group(id("leader"), directory(&["bob"]), group_config("blue"))
            .unwrap();
        let _alice = join(&net, "a-red", "alice", "red", &red);
        let epoch_before = red.epoch().unwrap();
        service.shutdown();
        assert!(net.unlisten("svc"), "crashed leader's name is reclaimed");

        // Flip one byte in the middle of blue's stream (inside the sealed
        // genesis body): replay must refuse it with a typed error.
        let dir = JournalDir::open_or_init(&tmp).unwrap();
        let blue_path = dir.stream_path(&label_for(Some(&gid("blue"))));
        let mut bytes = std::fs::read(&blue_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&blue_path, &bytes).unwrap();

        let listener = net.listen("svc").unwrap();
        let (service, report) =
            LeaderService::open_with_journal(Box::new(listener), &tmp, ServiceConfig::default())
                .unwrap();
        assert_eq!(report.recovered.len(), 1);
        let rec = &report.recovered[0];
        assert_eq!(rec.group, Some(gid("red")));
        assert_eq!(rec.members, 1, "the journaled roster survives the crash");
        assert!(
            rec.epoch.unwrap() > epoch_before,
            "recovery must land in a strictly newer epoch"
        );
        assert_eq!(report.failed.len(), 1);
        assert!(matches!(
            report.failed[0].error,
            JournalError::Corrupt { .. }
        ));
        assert!(report.failed[0].stream.starts_with("stream-"));
        assert_eq!(service.group_count(), 1, "the corrupt enclave is skipped");

        let snap = service.snapshot();
        assert_eq!(snap.counter("recovery.groups_ok"), 1);
        assert_eq!(snap.counter("recovery.groups_failed"), 1);
        assert!(snap.counter("recovery.records_replayed") >= 2);

        service.shutdown();
        let _ = std::fs::remove_dir_all(&tmp);
    }

    /// A tree-mode stream whose stamps were computed by a different key
    /// schedule — what a journal written before the schedule became one
    /// ChaCha20 block a level looks like to this code: same operation, same
    /// tape, same epoch number, other key material. The stamp cross-check
    /// exists for exactly "the journal and the code disagree", so replay
    /// refuses the stream at that transition with the typed divergence and
    /// its enclave is reported failed; its neighbours recover. There is no
    /// compatibility path.
    #[test]
    fn tree_stream_with_a_foreign_schedules_stamp_is_refused_alone() {
        use crate::journal::{genesis_for, JournalError};
        use enclaves_wire::journal::{JournalOp, JournalPayload};
        let tmp = TempDir::new("foreign-stamp");
        let tree_config = |tag: &str| LeaderConfig {
            tree_rekey: true,
            ..group_config(tag)
        };
        {
            let net = SimNet::new(SimConfig::default());
            let listener = net.listen("svc").unwrap();
            let (service, _) = LeaderService::open_with_journal(
                Box::new(listener),
                &tmp.0,
                ServiceConfig::default(),
            )
            .unwrap();
            let red = service
                .add_group(id("leader"), directory(&["alice"]), tree_config("red"))
                .unwrap();
            let blue = service
                .add_group(id("leader"), directory(&["bob"]), group_config("blue"))
                .unwrap();
            let _alice = join(&net, "a-red", "alice", "red", &red);
            let _bob = join(&net, "b-blue", "bob", "blue", &blue);
            service.shutdown();
        }

        // Hand-build the third stream from red's own first transition: a
        // tree join whose tape replays cleanly here.
        let dir = JournalDir::open_or_init(&tmp.0).unwrap();
        let red_stream = dir
            .replay_stream(&label_for(Some(&gid("red"))), ReadMode::Strict)
            .unwrap();
        let mut join_record = red_stream.transitions[0].clone();
        assert!(matches!(join_record.op, JournalOp::Join(_)));
        for b in &mut join_record.stamp.key {
            *b ^= 0x5a;
        }
        let old_config = tree_config("old");
        let genesis = genesis_for(&id("leader"), &directory(&["alice"]), &old_config);
        dir.create_stream(&label_for(old_config.group.as_ref()), &genesis)
            .unwrap()
            .append(&JournalPayload::Transition(join_record))
            .unwrap();

        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let (service, report) =
            LeaderService::open_with_journal(Box::new(listener), &tmp.0, ServiceConfig::default())
                .unwrap();
        let mut recovered: Vec<_> = report.recovered.iter().map(|g| g.group.clone()).collect();
        recovered.sort();
        assert_eq!(recovered, [Some(gid("blue")), Some(gid("red"))]);
        assert!(report.recovered.iter().all(|g| g.members == 1));
        assert_eq!(report.failed.len(), 1);
        let old_file = dir.stream_path(&label_for(old_config.group.as_ref()));
        assert_eq!(
            Some(report.failed[0].stream.as_str()),
            old_file.file_name().and_then(|n| n.to_str())
        );
        match &report.failed[0].error {
            JournalError::ReplayDivergence { seq: 2, detail } => {
                assert_eq!(detail, "regenerated key material differs from the stamp");
            }
            other => panic!("expected a replay divergence at record 2, got {other:?}"),
        }
        assert_eq!(service.group_count(), 2);
        service.shutdown();
    }

    /// A scratch directory removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("enclaves-svc-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }

        /// A file-by-file copy under a new tag.
        fn copy(&self, tag: &str) -> Self {
            let copy = TempDir::new(tag);
            std::fs::create_dir_all(&copy.0).unwrap();
            for entry in std::fs::read_dir(&self.0).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), copy.0.join(entry.file_name())).unwrap();
            }
            copy
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn quiet_service(journal: Option<JournalDir>) -> LeaderService {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        LeaderService::start(
            FrontEnd::Listener(Box::new(listener)),
            &ServiceConfig::default(),
            journal,
        )
    }

    /// Everything a [`RecoveryReport`] says except how long it took, plus
    /// a check that each recovered core is exactly what its own stream on
    /// disk replays to (the post-recovery key is fresh per run, so the
    /// digests are compared against the stream, not across runs).
    fn summarize(journal: &JournalDir, report: &RecoveryReport) -> Vec<String> {
        let mut lines = Vec::new();
        for g in &report.recovered {
            let label = label_for(g.group.as_ref());
            let replay = journal.replay_stream(&label, ReadMode::Strict).unwrap();
            assert_eq!(
                g.handle.entry.core.lock().durable_digest(),
                LeaderCore::recover(&replay).unwrap().durable_digest(),
                "group {:?} is not what its stream replays to",
                g.group
            );
            lines.push(format!(
                "ok {:?} epoch {:?} members {} records {} torn {} fenced {} roster {:?}",
                g.group,
                g.epoch,
                g.members,
                g.records,
                g.torn_bytes,
                g.fenced,
                g.handle.roster()
            ));
        }
        for f in &report.failed {
            lines.push(format!("failed {} {:?}", f.stream, f.error));
        }
        lines
    }

    /// Sixteen enclaves, one bit-flipped, one with a torn tail, plus a
    /// stray misnamed file: however many workers recover them, the report
    /// (order, counts, epochs, failures) and every recovered core are the
    /// same as one worker's.
    #[test]
    fn parallel_open_reports_exactly_what_one_worker_does() {
        let built = TempDir::new("par-built");
        let tags: Vec<String> = (0..16).map(|g| format!("g{g:02}")).collect();
        {
            let net = SimNet::new(SimConfig::default());
            let listener = net.listen("svc").unwrap();
            let (service, _) = LeaderService::open_with_journal(
                Box::new(listener),
                &built.0,
                ServiceConfig::default(),
            )
            .unwrap();
            for (g, tag) in tags.iter().enumerate() {
                let handle = service
                    .add_group(
                        id("leader"),
                        directory(&["alice", "bob"]),
                        LeaderConfig {
                            tree_rekey: true,
                            ..group_config(tag)
                        },
                    )
                    .unwrap();
                let _alice = join(&net, &format!("a-{tag}"), "alice", tag, &handle);
                let _bob = join(&net, &format!("b-{tag}"), "bob", tag, &handle);
                // Histories of different lengths, so a result filed under
                // the wrong index would show.
                for _ in 0..g % 4 {
                    handle.rekey().unwrap();
                }
            }
            service.shutdown();
        }
        let journal = JournalDir::open_or_init(&built.0).unwrap();
        let path_of = |g: usize| journal.stream_path(&label_for(Some(&gid(&tags[g]))));
        let mut flipped = std::fs::read(path_of(3)).unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(path_of(3), &flipped).unwrap();
        let torn = std::fs::read(path_of(11)).unwrap();
        std::fs::write(path_of(11), &torn[..torn.len() - 5]).unwrap();
        assert!(matches!(
            journal.replay_stream(&label_for(Some(&gid(&tags[11]))), ReadMode::Strict),
            Err(JournalError::TornTail { .. })
        ));
        std::fs::write(built.0.join("stream-nothex.wal"), b"stray").unwrap();

        let forced = |tag: &str, workers: usize| {
            let dir = built.copy(tag);
            let journal = JournalDir::open_or_init(&dir.0).unwrap();
            let scan = journal.streams().unwrap();
            let service = quiet_service(Some(journal.clone()));
            let report = LeaderService::recover_all(&service.shared, &journal, &scan, workers);
            let lines = summarize(&journal, &report);
            assert_eq!(
                service.snapshot().gauge("recovery.workers"),
                workers.min(16) as i64
            );
            service.shutdown();
            lines
        };
        let one = forced("par-one", 1);
        assert_eq!(one.len(), 17);
        assert_eq!(one.iter().filter(|l| l.starts_with("ok ")).count(), 15);
        assert!(
            one[10].contains("g11") && !one[10].contains("torn 0 "),
            "{}",
            one[10]
        );
        assert!(one[15].starts_with("failed stream-") && one[15].contains("Corrupt"));
        assert!(one[16].starts_with("failed stream-nothex.wal BadStreamName"));
        assert_eq!(forced("par-four", 4), one);
        assert_eq!(forced("par-many", 64), one);

        // And the public entry point, at whatever this host's parallelism is.
        let dir = built.copy("par-public");
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let (service, report) =
            LeaderService::open_with_journal(Box::new(listener), &dir.0, ServiceConfig::default())
                .unwrap();
        let journal = JournalDir::open_or_init(&dir.0).unwrap();
        assert_eq!(summarize(&journal, &report), one);
        let snap = service.snapshot();
        let parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(snap.gauge("recovery.workers"), parallelism.min(2) as i64);
        assert_eq!(snap.counter("recovery.groups_ok"), 15);
        assert_eq!(snap.counter("recovery.groups_failed"), 2);
        assert_eq!(snap.counter("recovery.torn_tails"), 1);
        service.shutdown();
    }

    /// The snapshot alone says which ChaCha20 kernel this process runs:
    /// the gauge is the detection the dispatch itself reads.
    #[test]
    fn snapshot_names_the_chacha20_kernel() {
        let service = quiet_service(None);
        let lanes = service.snapshot().gauge("crypto.chacha20_lanes");
        assert_eq!(lanes, enclaves_crypto::chacha20::lanes() as i64);
        assert!(
            [1, 8, 16].contains(&lanes),
            "scalar, AVX2 or AVX-512, got {lanes}"
        );
        service.shutdown();
    }

    /// A helper is started per eight streams, never more than the host
    /// runs at once: small directories are the caller's alone.
    #[test]
    fn small_directories_get_one_recovery_worker() {
        for (parallelism, streams, workers) in [
            (8, 0, 0),
            (8, 1, 1),
            (8, 8, 1),
            (8, 9, 2),
            (8, 16, 2),
            (2, 1000, 2),
            (1, 1000, 1),
            (64, 1000, 64),
        ] {
            assert_eq!(
                recovery_workers(parallelism, streams),
                workers,
                "{parallelism} CPUs, {streams} streams"
            );
        }
    }

    /// With nothing or one stream to recover there is nobody to share the
    /// work with: the caller is the only worker (helpers spawned =
    /// `recovery.workers` − 1), however many were offered.
    #[test]
    fn empty_and_single_stream_opens_spawn_no_helper() {
        let dir = TempDir::new("par-small");
        let journal = JournalDir::open_or_init(&dir.0).unwrap();
        let service = quiet_service(Some(journal.clone()));
        let scan = journal.streams().unwrap();
        let report = LeaderService::recover_all(&service.shared, &journal, &scan, 8);
        assert!(report.recovered.is_empty() && report.failed.is_empty());
        assert_eq!(service.snapshot().gauge("recovery.workers"), 0);
        service
            .add_group(id("leader"), directory(&["alice"]), group_config("red"))
            .unwrap();
        service.shutdown();

        let service = quiet_service(Some(journal.clone()));
        let scan = journal.streams().unwrap();
        let report = LeaderService::recover_all(&service.shared, &journal, &scan, 8);
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(service.snapshot().gauge("recovery.workers"), 1);
        service.shutdown();
    }
}
