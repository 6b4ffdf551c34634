//! The multi-enclave leader service: many groups in one process, bounded
//! threads.
//!
//! A [`LeaderService`] hosts any number of independent enclaves (groups)
//! behind **one** front end, a [`Listener`]: the readiness loop's
//! [`MuxEndpoint`] on real sockets, a simulated network's
//! [`enclaves_net::sim::SimListener`] in tests and batteries. Its thread
//! complement grows with neither the group count nor the connection
//! count:
//!
//! one handler thread per event shard of the front end, running
//! `shard_loop`, the one service loop. It keeps a small context per
//! connection, hands each frame to the group its tag names, and ticks
//! the groups homed on it whose [`LeaderCore::next_deadline`] has passed.
//!
//! Every frame a group sends leaves through that front end, addressed by
//! connection token: a route binds an authenticated identity to the
//! token of the connection that proved it, and a broadcast is one
//! multicast of one sealed frame to its recipients' tokens.
//!
//! Whoever drives a group's core — the service loop with a drain of
//! member frames, an operator through a [`GroupHandle`], a tick with an
//! eviction — does the same three things under the group's send-order
//! lock: call the core under its lock (which seals whatever it sends,
//! where it stands), then emit the events, then route the frames, the
//! last two in `GroupEntry::send`. Admin frames are small and a
//! production (tree-rekey) operation seals a handful, so no second path
//! seals them anywhere else, and none has to be kept in step with this
//! one.
//!
//! One commit per drain: after each blocking receive the service loop
//! takes what its event channel already holds, and each group it touched
//! stages that drain's frames and commits once (`GroupEntry::drain`), so
//! every join the drain completed lands in one epoch — one journal
//! record, one `PathUpdate` — and the backlog alone sets the batch size.
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
//! Lock order: `registry` → `send_order` → `core` → `routes`, then the
//! front end's own. Nothing acquires an earlier lock while holding a
//! later one.

use crate::config::LeaderConfig;
use crate::directory::Directory;
use crate::journal::{
    genesis_for, label_for, JournalDir, JournalError, ReadMode, StreamInfo, StreamScan,
};
use crate::liveness::{Clock, LivenessConfig, RealClock};
use crate::protocol::{BroadcastFrame, LeaderCore, LeaderEvent, LeaderOutput};
use crate::CoreError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use enclaves_crypto::rng::OsEntropyRng;
use enclaves_net::{Frame, Listener, MuxEndpoint, MuxEvent, MuxToken};
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::message::{Envelope, MsgType};
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

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
// Per-group state
// ---------------------------------------------------------------------------

/// One registered enclave: its protocol core plus the routing and
/// signalling state the runtime keeps per group.
struct GroupEntry {
    core: Mutex<LeaderCore>,
    /// Connections bound to authenticated identities *within this group*.
    routes: Mutex<HashMap<ActorId, MuxToken>>,
    /// The service's front end, the one way out for this group's frames.
    /// A stopped transport or a closed connection drops a frame: the
    /// transport guarantees nothing, the ARQ layer recovers.
    front: Arc<dyn Listener>,
    events_tx: Sender<LeaderEvent>,
    /// Bumped on every roster change; [`GroupHandle::wait_member`] blocks
    /// on the paired condvar instead of sleep-polling.
    roster_gen: Mutex<u64>,
    roster_cv: Condvar,
    /// Serializes every [`GroupEntry::fan_out`] from the core call to the
    /// last dispatch. Per group: fan-outs in different enclaves never
    /// contend.
    send_order: Mutex<()>,
    /// The core's [`LeaderCore::next_deadline`] in nanoseconds on `clock`
    /// (`u64::MAX`: none), read by the `home` shard without the lock.
    deadline: AtomicU64,
    home: usize,
    /// The service clock, read before an operator's call.
    clock: Arc<dyn Clock>,
}

/// What a member's frame, accepted on one connection, decides about that
/// connection.
struct Reply {
    /// The connection the frame arrived on: where a reply goes when its
    /// recipient has no route.
    token: MuxToken,
    /// The identity whose route now binds to `token`, if the frame proved
    /// its freshness and the route is not already this connection's.
    bind: Option<ActorId>,
    /// A handshake request: every reply returns on `token`, route or no
    /// route. The requester is not (or no longer) route-bound, and a stale
    /// route from a previous session must not swallow the reply.
    handshake: bool,
}

impl GroupEntry {
    /// Sends frames to their recipients' connections. A recipient with no
    /// route goes to `fallback` (the connection a frame arrived on, during
    /// authentication), or is dropped: e.g. a handshake retransmit for a
    /// member not yet bound, which the peer's own ARQ covers.
    fn dispatch<I: IntoIterator<Item = (ActorId, Frame)>>(
        &self,
        frames: I,
        fallback: Option<MuxToken>,
    ) {
        let routes = self.routes.lock();
        for (recipient, frame) in frames {
            if let Some(token) = routes.get(&recipient).copied().or(fallback) {
                let _ = self.front.send_to(token, frame);
            }
        }
    }

    /// Fans one shared frame out to every routed target as one
    /// multicast: no per-recipient encoding or copying, and on the
    /// readiness loop one command and at most one wakeup for the roster.
    fn dispatch_shared(&self, broadcast: &BroadcastFrame) {
        let routes = self.routes.lock();
        let mut tokens = Vec::with_capacity(broadcast.recipients.len());
        tokens.extend(broadcast.targets().filter_map(|r| routes.get(r).copied()));
        if !tokens.is_empty() {
            let _ = self.front.multicast(tokens, Frame::clone(&broadcast.frame));
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

    /// One hold of the core lock: runs `op`, records the hold, and
    /// publishes the core's next deadline before the lock is released.
    fn with_core<R>(&self, op: impl FnOnce(&mut LeaderCore) -> R) -> R {
        let locked = Instant::now();
        let mut core = self.core.lock();
        let out = op(&mut core);
        core.note_lock_hold(nanos(locked.elapsed()));
        let due = core.next_deadline().map_or(u64::MAX, nanos);
        self.deadline.store(due, Ordering::Relaxed);
        out
    }

    /// One drive of the core by an operator or a tick's eviction: under
    /// this group's send-order lock it brings the core's clock up to the
    /// service clock (an idle group's lags), runs `op` on the core, then
    /// [`GroupEntry::send`]s the output. So one group's frames reach the
    /// front end in the order its core made them: a join's `PathUpdate`
    /// cannot fall behind a concurrent rekey's.
    fn fan_out(
        &self,
        op: impl FnOnce(&mut LeaderCore) -> Result<LeaderOutput, CoreError>,
    ) -> Result<(), CoreError> {
        let _order = self.send_order.lock();
        let now = self.clock.now();
        let output = self.with_core(|core| {
            core.advance_clock(now);
            op(core)
        })?;
        self.send(None, output);
        Ok(())
    }

    /// Resends the frames the core's tick found due and evicts each member
    /// it presumed dead: the timeout-driven `Oops(Ka)` path (Figure 3).
    fn tick(&self, now: Duration) {
        let tick = self.with_core(|core| core.tick(now));
        self.dispatch(tick.frames, None);
        // An error means the member departed on its own between the tick
        // and this call.
        for user in &tick.evict {
            let _ = self.fan_out(|core| core.evict(user));
        }
    }

    /// One drain's frames for this group, in arrival order, each with
    /// what it decides about its connection. Under the send-order lock
    /// and one hold of the core lock, every frame is staged and then
    /// every join they completed is committed once; then each frame's
    /// output, and the commit's last, is sent ([`GroupEntry::send`]) in
    /// that order, a refused frame's as a `Rejected` event. Nobody else
    /// can lock the core between the stages and the commit, so no other
    /// caller ever sees a staged join. Returns which frames the core
    /// accepted.
    fn drain(&self, frames: &[Inbound], now: Duration) -> Vec<bool> {
        let _order = self.send_order.lock();
        let (staged, committed) = self.with_core(|core| {
            // A duplicate ack is refused as any stale frame, but it is the
            // ARQ's own pace, not a rejection to report.
            let staged: Vec<_> = frames
                .iter()
                .map(|(env, _)| {
                    let result = core.stage_at(env, now);
                    (result, core.refused_duplicate_ack())
                })
                .collect();
            (staged, core.commit())
        });
        let rejected = |from: &ActorId, e: &CoreError| LeaderEvent::Rejected {
            from: from.clone(),
            reason: match e {
                CoreError::Rejected(r) => *r,
                _ => crate::error::RejectReason::Malformed,
            },
        };
        let mut accepted = Vec::with_capacity(frames.len());
        for ((env, reply), (result, duplicate_ack)) in frames.iter().zip(staged) {
            accepted.push(result.is_ok());
            match result {
                Ok(output) => self.send(Some(reply), output),
                Err(_) if duplicate_ack => {}
                Err(e) => self.emit(vec![rejected(&env.sender, &e)]),
            }
        }
        match committed {
            Ok(output) => self.send(None, output),
            // The joins the commit failed to admit: one per accepted
            // handshake ack, each of which staged one.
            Err(e) => self.emit(
                frames
                    .iter()
                    .zip(&accepted)
                    .filter(|((env, _), ok)| **ok && env.msg_type == MsgType::AuthAckKey)
                    .map(|((env, _), _)| rejected(&env.sender, &e))
                    .collect(),
            ),
        }
        accepted
    }

    /// Sends one core output, the send-order lock held: binds `reply`'s
    /// route, severs the route of every member the output removes (so
    /// none receives a post-departure frame), emits the events *before*
    /// dispatching any frame (so no observer can record a delivery before
    /// its send), then dispatches.
    fn send(&self, reply: Option<&Reply>, output: LeaderOutput) {
        {
            let mut routes = self.routes.lock();
            if let Some(Reply {
                token,
                bind: Some(user),
                ..
            }) = reply
            {
                routes.insert(user.clone(), *token);
            }
            for event in &output.events {
                if let LeaderEvent::MemberLeft(user) | LeaderEvent::MemberEvicted(user) = event {
                    routes.remove(user);
                }
            }
        }
        self.emit(output.events);
        match reply {
            Some(reply) if reply.handshake => {
                for (_, frame) in addressed(output.outgoing) {
                    let _ = self.front.send_to(reply.token, frame);
                }
            }
            _ => self.dispatch(addressed(output.outgoing), reply.map(|r| r.token)),
        }
        // A tree-rekey PathUpdate or a relayed GroupData rides the same
        // send-order window: one sealed frame, fanned out as refcount bumps.
        for b in &output.broadcasts {
            self.dispatch_shared(b);
        }
    }
}

/// Each envelope encoded as one frame, addressed to its recipient.
fn addressed(outgoing: Vec<Envelope>) -> impl Iterator<Item = (ActorId, Frame)> {
    outgoing.into_iter().map(|env| {
        let frame = encode(&env).into();
        (env.recipient, frame)
    })
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

struct ServiceShared {
    /// Registered groups, keyed by their wire tag. `None` is the single
    /// legacy untagged group (byte-compatible pre-multigroup wire format).
    registry: RwLock<HashMap<Option<GroupId>, Arc<GroupEntry>>>,
    /// The front end every group sends through (each entry holds a clone).
    front: Arc<dyn Listener>,
    /// The liveness clock shared by every group: real time by default,
    /// virtual under test.
    clock: Arc<dyn Clock>,
    /// The longest a shard waits between ticks.
    poll: Duration,
    /// A group's home shard is its registration count modulo `shards`.
    shards: usize,
    registered: AtomicUsize,
    running: AtomicBool,
    /// The write-ahead journal directory, when this service is durable:
    /// every `add_group` creates a sealed stream and every hosted core
    /// journals its transitions.
    journal: Option<JournalDir>,
    /// Service-level metrics (`recovery.*`, `service.*`) — not owned by
    /// any one group's core — merged into [`LeaderService::snapshot`].
    service_obs: enclaves_obs::Registry,
    /// `service.unroutable_frames`: frames whose group tag matched no
    /// registered enclave (dropped).
    unroutable: enclaves_obs::Counter,
}

/// Tuning for a [`LeaderService`] — the *service-wide* knobs (clock, poll
/// cadence). Per-group protocol policy stays in each group's
/// [`LeaderConfig`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Liveness clock driving every hosted group. `None` = real time.
    pub clock: Option<Arc<dyn Clock>>,
    /// The longest a shard handler waits between clock readings: how late
    /// it may notice a group's passed deadline (a virtual clock is read
    /// only then), and how soon it notices a shutdown.
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

/// A multi-enclave leader service: one front end, any number of groups.
/// See the module docs for the threading model.
pub struct LeaderService {
    shared: Arc<ServiceShared>,
    /// One handler per shard of the front end.
    shards: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LeaderService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderService")
            .field("groups", &self.group_count())
            .finish_non_exhaustive()
    }
}

impl LeaderService {
    /// Spawns the service on a front end — a simulated network's
    /// [`enclaves_net::sim::SimListener`] or a readiness-loop
    /// [`MuxEndpoint`]: one handler thread per event shard drains the
    /// accepted/frame/closed events of the connections pinned to it and
    /// ticks the groups homed on it, however many members connect. Groups
    /// are added with [`LeaderService::add_group`].
    #[must_use]
    pub fn spawn(listener: Box<dyn Listener>, config: ServiceConfig) -> Self {
        Self::start(listener, &config, None)
    }

    /// [`LeaderService::spawn`] on a [`MuxEndpoint`] (from
    /// [`enclaves_net::MuxNet::listen_events`]): the whole service runs at
    /// `shards + 1` threads, the loop's own included.
    ///
    /// The caller keeps the endpoint's `MuxNet` alive and shuts it down
    /// *after* [`LeaderService::shutdown`].
    #[must_use]
    pub fn spawn_mux(endpoint: MuxEndpoint, config: ServiceConfig) -> Self {
        Self::spawn(Box::new(endpoint), config)
    }

    /// Reopens a durable service from its write-ahead journal directory:
    /// every enclave stream found in `dir` is replayed, its core rebuilt
    /// at the recorded roster and epoch, advanced into a fresh epoch
    /// strictly past the journal fence, and registered — members then
    /// re-admit themselves through the liveness layer's auto-rejoin path
    /// with no operator intervention. Groups added later through
    /// [`LeaderService::add_group`] get their own journal streams. The
    /// front end is taken as in [`LeaderService::spawn`].
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
        let journal = JournalDir::open_or_init(dir)?;
        let scan = journal.streams()?;
        let service = Self::start(listener, &config, Some(journal.clone()));
        let parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = recovery_workers(parallelism, scan.streams.len());
        let report = Self::recover_all(&service.shared, &journal, &scan, workers);
        Ok((service, report))
    }

    /// [`LeaderService::open_with_journal`] on a [`MuxEndpoint`]: the
    /// production transport and the production durability in one process.
    ///
    /// # Errors
    ///
    /// As [`LeaderService::open_with_journal`].
    pub fn open_mux_with_journal(
        endpoint: MuxEndpoint,
        dir: &Path,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), JournalError> {
        Self::open_with_journal(Box::new(endpoint), dir, config)
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
            .record(nanos(start.elapsed()));
        report
    }

    /// Replays one stream into a registered group: decode (tolerating a
    /// torn tail), rebuild the core, reopen the stream for appending, and
    /// jump past the fence. Each of the three stages is timed into its own
    /// `recovery.*_ns` histogram.
    fn recover_stream(
        shared: &Arc<ServiceShared>,
        journal: &JournalDir,
        info: &StreamInfo,
    ) -> Result<RecoveredGroup, JournalError> {
        let obs = &shared.service_obs;
        let stage = Instant::now();
        let replay = journal.replay_stream(&info.label, ReadMode::Recover)?;
        obs.histogram("recovery.decode_ns")
            .record(nanos(stage.elapsed()));
        let stage = Instant::now();
        let mut core = LeaderCore::recover(&replay)?;
        obs.histogram("recovery.rebuild_ns")
            .record(nanos(stage.elapsed()));
        if label_for(core.group_id()) != info.label {
            return Err(JournalError::ReplayDivergence {
                seq: 1,
                detail: "genesis group tag does not match the stream label".into(),
            });
        }
        let stage = Instant::now();
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
        obs.histogram("recovery.advance_ns")
            .record(nanos(stage.elapsed()));
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

    /// The one constructor: shared state and a handler thread per shard of
    /// the front end.
    fn start(
        mut front: Box<dyn Listener>,
        config: &ServiceConfig,
        journal: Option<JournalDir>,
    ) -> Self {
        let shards = front.take_shards();
        let service_obs = enclaves_obs::Registry::new();
        // Which ChaCha20 and Poly1305 kernels this host runs (1 = scalar),
        // so a join that is slower here than on the next host explains
        // itself.
        for (name, lanes) in [
            ("crypto.chacha20_lanes", enclaves_crypto::chacha20::lanes()),
            ("crypto.poly1305_lanes", enclaves_crypto::poly1305::lanes()),
        ] {
            service_obs
                .gauge(name)
                .set(i64::try_from(lanes).unwrap_or(i64::MAX));
        }
        let shared = Arc::new(ServiceShared {
            registry: RwLock::new(HashMap::new()),
            front: Arc::from(front),
            clock: config
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(RealClock::new())),
            poll: config.poll,
            shards: shards.len(),
            registered: AtomicUsize::new(0),
            running: AtomicBool::new(true),
            journal,
            unroutable: service_obs.counter("service.unroutable_frames"),
            service_obs,
        });
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard_rx)| {
                let shard_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("enclaves-svc-shard-{i}"))
                    .spawn(move || shard_loop(&shard_shared, i, &shard_rx))
                    .expect("spawn service shard handler")
            })
            .collect();
        LeaderService { shared, shards }
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
        let writer = if let Some(journal) = &self.shared.journal {
            // Refuse the duplicate tag before touching the disk, so a
            // duplicate `add_group` does not leave an orphan stream.
            if self.shared.registry.read().contains_key(&config.group) {
                return Err(CoreError::BadPhase {
                    operation: "add group",
                    phase: "group tag already registered",
                });
            }
            let genesis = genesis_for(&leader_id, &directory, &config);
            Some(journal.create_stream(&label_for(config.group.as_ref()), &genesis)?)
        } else {
            None
        };
        let mut core =
            LeaderCore::with_rng(leader_id, directory, config, Box::new(OsEntropyRng::new()));
        if let Some(writer) = writer {
            core.attach_journal(writer);
        }
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
            deadline: AtomicU64::new(core.next_deadline().map_or(u64::MAX, nanos)),
            core: Mutex::new(core),
            routes: Mutex::new(HashMap::new()),
            front: Arc::clone(&shared.front),
            events_tx,
            roster_gen: Mutex::new(0),
            roster_cv: Condvar::new(),
            send_order: Mutex::new(()),
            home: shared.registered.fetch_add(1, Ordering::Relaxed) % shared.shards.max(1),
            clock: Arc::clone(&shared.clock),
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
    /// and its home shard never ticks it again. Existing [`GroupHandle`]s
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
    /// enclave: the snapshot's `service.unroutable_frames`.
    #[must_use]
    pub fn unroutable_frames(&self) -> u64 {
        self.shared.unroutable.get()
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
        // (`recovery.*`, `crypto.*`, `service.*`), disjoint from every
        // `leader.*` name.
        merged
            .merge_from(&self.shared.service_obs.snapshot())
            .expect("service metric names are disjoint");
        merged
    }

    /// Stops the shard handlers.
    pub fn shutdown(self) {
        self.shared.running.store(false, Ordering::Relaxed);
        for h in self.shards {
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
        self.entry.fan_out(LeaderCore::rekey_now)
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
        self.entry.fan_out(|core| {
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
        let broadcast = self
            .entry
            .with_core(|core| core.broadcast_group_data(data))?;
        self.entry.dispatch_shared(&broadcast);
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
        self.entry.fan_out(|core| core.expel(user))
    }

    /// Waits until `user` appears in the roster.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the deadline passes first.
    pub fn wait_member(&self, user: &ActorId, timeout: Duration) -> Result<(), CoreError> {
        let deadline = Instant::now() + timeout;
        // Block on the roster condvar instead of sleep-polling: every
        // fan-out that emits a join or departure notifies it, so the wait
        // wakes the moment the roster changes (plus spurious wakeups,
        // handled by the re-check loop).
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
// Connection handling
// ---------------------------------------------------------------------------

/// Per-connection ingestion state: the connection's token, and which
/// routes it has bound (one per (group, identity) whose freshness was
/// proven on it) for cleanup.
struct ConnCtx {
    token: MuxToken,
    bound: Vec<(Arc<GroupEntry>, ActorId)>,
}

impl ConnCtx {
    fn new(token: MuxToken) -> Self {
        ConnCtx {
            token,
            bound: Vec::new(),
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
            if routes.get(user) == Some(&self.token) {
                routes.remove(user);
            }
        }
    }
}

/// One member frame, decoded, with what it decides about its connection.
type Inbound = (Envelope, Reply);

/// What one drain of a shard's events holds: each touched group's
/// frames, in arrival order, and the connections that closed.
#[derive(Default)]
struct Drain {
    groups: Vec<(Arc<GroupEntry>, Vec<Inbound>)>,
    closed: Vec<MuxToken>,
}

impl Drain {
    /// Takes in one inbound frame from `conn`: decodes it and files it
    /// under the entry registered for the envelope's group tag. One
    /// connection can in principle carry traffic for several groups
    /// (each binding its own route), though honest members speak for one.
    fn push(&mut self, shared: &ServiceShared, conn: &ConnCtx, frame: &Frame) {
        let Ok(env) = decode::<Envelope>(frame) else {
            return; // malformed frame: drop
        };
        // Demux strictly by the (unauthenticated) group tag: a frame
        // only ever reaches the enclave whose tag it carries, and that
        // enclave's core re-checks the tag against its own configuration
        // plus the AEAD binding.
        let entry = shared.registry.read().get(&env.group).cloned();
        let Some(entry) = entry else {
            shared.unroutable.inc();
            return;
        };
        // Bind this connection to the claimed identity only on messages
        // whose acceptance proves *freshness* (AuthAckKey/Ack echo a
        // one-time nonce under the session key). An accepted-but-replayable
        // message (a duplicate AuthInitReq answered from the ARQ cache)
        // must NOT bind, or an attacker replaying a captured frame from its
        // own connection could capture the member's route — a denial of
        // service. (A replayed GroupData or Heartbeat is refused outright:
        // both carry a strictly increasing sequence under the session key.)
        let proves_freshness = matches!(env.msg_type, MsgType::AuthAckKey | MsgType::Ack);
        let bound = conn
            .bound
            .iter()
            .any(|(e, u)| Arc::ptr_eq(e, &entry) && u == &env.sender);
        let reply = Reply {
            token: conn.token,
            bind: (proves_freshness && !bound).then(|| env.sender.clone()),
            handshake: env.msg_type == MsgType::AuthInitReq,
        };
        match self.groups.iter_mut().find(|(e, _)| Arc::ptr_eq(e, &entry)) {
            Some((_, frames)) => frames.push((env, reply)),
            None => self.groups.push((entry, vec![(env, reply)])),
        }
    }

    /// Drives every touched group with its frames, one commit each
    /// ([`GroupEntry::drain`]); records the routes the accepted frames
    /// bound on their connections; then cleans up the closed
    /// connections, whose frames all came before their close (a front
    /// end never reuses a token).
    fn run(self, now: Duration, conns: &mut HashMap<MuxToken, ConnCtx>) {
        for (entry, frames) in self.groups {
            let accepted = entry.drain(&frames, now);
            for ((_, reply), ok) in frames.into_iter().zip(accepted) {
                let (Some(user), true) = (reply.bind, ok) else {
                    continue;
                };
                let conn = conns.get_mut(&reply.token).expect("a frame's connection");
                if !conn
                    .bound
                    .iter()
                    .any(|(e, u)| Arc::ptr_eq(e, &entry) && *u == user)
                {
                    conn.bound.push((Arc::clone(&entry), user));
                }
            }
        }
        for token in self.closed {
            if let Some(ctx) = conns.remove(&token) {
                ctx.cleanup();
            }
        }
    }
}

/// The one service loop: drains one event shard of the front end,
/// keeping a [`ConnCtx`] per connection pinned to it. The transport owns
/// the connections; this thread only runs protocol work, so the
/// service's thread count is `shards`, not `connections`.
///
/// Each blocking receive starts a drain: the event it returned plus
/// whatever the channel already held behind it, no more, so a steady
/// stream cannot keep one drain open. A drain commits each group it
/// touched once, so a join storm's backlog sets its batch size.
///
/// At most once per `poll` the loop reads the clock and ticks each group
/// homed on it whose published deadline has passed, and no receive waits
/// past the next such reading.
fn shard_loop(shared: &Arc<ServiceShared>, shard: usize, shard_rx: &Receiver<MuxEvent>) {
    let mut conns: HashMap<MuxToken, ConnCtx> = HashMap::new();
    let mut next_tick = Instant::now();
    while shared.running.load(Ordering::Relaxed) {
        if Instant::now() >= next_tick {
            let now = shared.clock.now();
            // Collect, then drop the registry lock before any core lock.
            let due: Vec<Arc<GroupEntry>> = (shared.registry.read().values())
                .filter(|e| e.home == shard && e.deadline.load(Ordering::Relaxed) <= nanos(now))
                .cloned()
                .collect();
            for entry in due {
                entry.tick(now);
            }
            next_tick = Instant::now() + shared.poll;
        }
        let wait = next_tick.saturating_duration_since(Instant::now());
        let first = match shard_rx.recv_timeout(wait) {
            Ok(event) => event,
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
        };
        let held = shard_rx.len();
        let mut drain = Drain::default();
        for event in std::iter::once(first).chain(shard_rx.try_iter().take(held)) {
            match event {
                // A connection's context starts with its first frame.
                MuxEvent::Accepted { .. } => {}
                MuxEvent::Frame { token, frame } => {
                    let conn = conns.entry(token).or_insert_with(|| ConnCtx::new(token));
                    drain.push(shared, conn, &frame);
                }
                MuxEvent::Closed { token } => drain.closed.push(token),
            }
        }
        // Read the clock before taking any lock so the liveness
        // bookkeeping sees arrival time, not lock-grant time.
        drain.run(shared.clock.now(), &mut conns);
    }
    for ctx in conns.values() {
        ctx.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LeaderConfig, RekeyPolicy};
    use crate::liveness::VirtualClock;
    use crate::protocol::{MemberEvent, MemberSession};
    use crate::runtime::{MemberOptions, MemberRuntime};
    use enclaves_net::sim::{Direction, SimConfig, SimNet};

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

    fn join(net: &SimNet, user: &str, group: &str, handle: &GroupHandle) -> MemberRuntime {
        let (session, init) = MemberSession::start_in_group(
            id(user),
            id("leader"),
            &format!("{user}-pw"),
            Some(gid(group)),
        )
        .unwrap();
        let member =
            MemberRuntime::run(net.dialer("svc"), session, init, MemberOptions::default()).unwrap();
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

        let alice_red = join(&net, "alice", "red", &red);
        let alice_blue = join(&net, "alice", "blue", &blue);

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

    /// A frame tagged for the enclave "ghost", which no test registers.
    fn ghost_frame() -> Frame {
        encode(&Envelope {
            msg_type: MsgType::GroupData,
            sender: id("alice"),
            recipient: id("leader"),
            group: Some(gid("ghost")),
            body: vec![0xAB; 24],
        })
        .into()
    }

    /// Waits until `service` has dropped `n` unroutable frames.
    fn wait_unroutable(service: &LeaderService, n: u64) {
        let deadline = Instant::now() + WAIT;
        while service.unroutable_frames() < n {
            assert!(Instant::now() < deadline, "unroutable frames not counted");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A frame tagged for an unregistered enclave is dropped and counted,
    /// in the snapshot as well, and never perturbs registered groups.
    #[test]
    fn unregistered_group_tag_is_counted_and_dropped() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        let red = service
            .add_group(id("leader"), directory(&["alice"]), group_config("red"))
            .unwrap();
        let alice = join(&net, "alice", "red", &red);
        assert_eq!(service.snapshot().counter("service.unroutable_frames"), 0);

        let link = net.connect("ghost-conn", "svc").unwrap();
        link.send(ghost_frame()).unwrap();
        wait_unroutable(&service, 1);
        assert_eq!(service.snapshot().counter("service.unroutable_frames"), 1);
        assert_eq!(
            red.obs_registry().snapshot().counter("leader.rejected"),
            0,
            "drop happens before any core"
        );

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
    /// thread complement (the shard handler, not one thread per group),
    /// an idle second ticks none of them, and a group deep in the
    /// registry still serves members.
    #[test]
    fn thousand_groups_bounded_threads() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        // Beside them, one group whose member's wire died with an admin
        // frame outstanding: its resends are due every 400 ms.
        let dead = service
            .add_group(id("leader"), directory(&["bob"]), group_config("dead"))
            .unwrap();
        let _bob = join_then_cut(&net, "bob", "dead", &dead);
        dead.broadcast(b"unanswered").unwrap();
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
        assert_eq!(service.group_count(), 1001);

        let idle_ticks = |snap: &enclaves_obs::Snapshot| -> u64 {
            (snap.counters.iter())
                .filter(|(name, _)| name.starts_with("group.g") && name.ends_with(".leader.ticks"))
                .map(|(_, ticks)| ticks)
                .sum()
        };
        let before = service.snapshot();
        std::thread::sleep(Duration::from_secs(1));
        let after = service.snapshot();
        assert_eq!(
            idle_ticks(&after),
            idle_ticks(&before),
            "idle groups ticked"
        );
        assert!(after.counter("group.dead.leader.ticks") > 0);
        assert!(after.counter("group.dead.leader.retransmits") > 0);

        #[cfg(target_os = "linux")]
        {
            let threads = process_threads();
            assert!(
                threads < 256,
                "thread count must not scale with group count, got {threads}"
            );
        }

        let deep = gid("g0937");
        let (session, init) =
            MemberSession::start_in_group(id("alice"), id("leader"), "alice-pw", Some(deep))
                .unwrap();
        let member =
            MemberRuntime::run(net.dialer("svc"), session, init, MemberOptions::default()).unwrap();
        member.wait_joined(WAIT).unwrap();
        service.shutdown();
    }

    /// Joins `user` and, once the leader holds no frame unanswered, kills
    /// the member's wire: the leader still counts it a member, but nothing
    /// it sends arrives.
    fn join_then_cut(net: &SimNet, user: &str, group: &str, handle: &GroupHandle) -> MemberRuntime {
        let conn = net.adversary().connections();
        let member = join(net, user, group, handle);
        wait_until(|| handle.quiesced(), "the join's exchanges were acked");
        net.kill(conn);
        member
    }

    fn wait_until(mut done: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + WAIT;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn counter(handle: &GroupHandle, name: &str) -> u64 {
        handle.obs_registry().snapshot().counter(name)
    }

    const POLL: Duration = Duration::from_millis(5);

    /// A service on a virtual clock that its shard reads every 5 ms, and
    /// the network it listens on.
    fn virtual_service(clock: &VirtualClock) -> (SimNet, LeaderService) {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let config = ServiceConfig {
            clock: Some(Arc::new(clock.clone())),
            poll: POLL,
        };
        (net, LeaderService::spawn(Box::new(listener), config))
    }

    /// A group whose admin frames are resent every 100 ms, flat.
    fn resending_group(service: &LeaderService, tag: &str, user: &str) -> GroupHandle {
        let config = LeaderConfig {
            liveness: LivenessConfig {
                retransmit_base: Duration::from_millis(100),
                retransmit_max: Duration::from_millis(100),
                ..LivenessConfig::default()
            },
            ..group_config(tag)
        };
        service
            .add_group(id("leader"), directory(&[user]), config)
            .unwrap()
    }

    /// An operator's send times its resend from the service clock, not
    /// from the last reading the group's core saw: a group that nobody
    /// ticked for ten virtual seconds resends 100 ms after the call, not
    /// at once.
    #[test]
    fn an_operator_send_is_timed_from_the_service_clock() {
        let clock = VirtualClock::new();
        let (net, service) = virtual_service(&clock);
        let red = resending_group(&service, "red", "alice");
        let _alice = join_then_cut(&net, "alice", "red", &red);
        // The join's timers come due, and the tick that finds them
        // answered leaves nothing armed.
        clock.advance(Duration::from_millis(200));
        wait_until(
            || counter(&red, "leader.ticks") > 0,
            "the join's timers ran",
        );
        std::thread::sleep(POLL * 4);
        let ticks = counter(&red, "leader.ticks");
        clock.advance(Duration::from_secs(10));
        std::thread::sleep(POLL * 4);
        assert_eq!(counter(&red, "leader.ticks"), ticks, "nothing was armed");

        red.broadcast(b"late").unwrap();
        std::thread::sleep(POLL * 4);
        assert_eq!(counter(&red, "leader.retransmits"), 0, "resent at once");
        clock.advance(Duration::from_millis(99));
        std::thread::sleep(POLL * 4);
        assert_eq!(counter(&red, "leader.retransmits"), 0, "resent early");
        clock.advance(Duration::from_millis(1));
        wait_until(|| counter(&red, "leader.retransmits") == 1, "the resend");
        service.shutdown();
    }

    /// A data-plane broadcast holds the core lock like any operator call,
    /// and the hold counts in `leader.lock_hold_ns`. The virtual clock
    /// never reaches the join's timers and the member's link is cut, so
    /// nothing else can move the counter.
    #[test]
    fn a_data_broadcast_records_its_lock_hold() {
        let clock = VirtualClock::new();
        let (net, service) = virtual_service(&clock);
        let red = resending_group(&service, "red", "alice");
        let _alice = join_then_cut(&net, "alice", "red", &red);
        let held = counter(&red, "leader.lock_hold_ns");
        std::thread::sleep(POLL * 4);
        assert_eq!(counter(&red, "leader.lock_hold_ns"), held, "idle");
        red.broadcast_data(b"cast").unwrap();
        assert!(counter(&red, "leader.lock_hold_ns") > held);
        assert_eq!(counter(&red, "leader.ticks"), 0);
        service.shutdown();
    }

    /// A removed group holding a frame its member will never answer is
    /// never ticked again, while a registered twin keeps resending.
    #[test]
    fn a_removed_group_is_never_ticked_again() {
        let clock = VirtualClock::new();
        let (net, service) = virtual_service(&clock);
        let red = resending_group(&service, "red", "alice");
        let blue = resending_group(&service, "blue", "alice");
        let _alice_red = join_then_cut(&net, "alice", "red", &red);
        let _alice_blue = join_then_cut(&net, "alice", "blue", &blue);
        red.broadcast(b"never answered").unwrap();
        blue.broadcast(b"never answered").unwrap();
        assert!(service.remove_group(Some(&gid("red"))));
        let ticks = counter(&red, "leader.ticks");
        for _ in 0..20 {
            clock.advance(Duration::from_millis(50));
            std::thread::sleep(POLL * 2);
        }
        wait_until(|| counter(&blue, "leader.retransmits") > 0, "blue resent");
        assert_eq!(counter(&red, "leader.ticks"), ticks);
        assert_eq!(counter(&red, "leader.retransmits"), 0);
        service.shutdown();
    }

    /// The shard loops are the service's only threads: none is named
    /// for a ticker (`comm` holds the first 15 bytes of a name). A new
    /// thread names itself once it runs, so the names are read after the
    /// shard's has shown up and every other thread has had time to.
    #[cfg(target_os = "linux")]
    #[test]
    fn no_ticker_thread_runs_beside_the_shards() {
        let names = || -> Vec<String> {
            (std::fs::read_dir("/proc/self/task").unwrap())
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .map(|name| name.trim_end().to_string())
                .collect()
        };
        let service = quiet_service(None);
        wait_until(
            || names().iter().any(|n| n == "enclaves-svc-sh"),
            "the shard thread is named",
        );
        std::thread::sleep(Duration::from_millis(100));
        let names = names();
        assert!(!names.iter().any(|n| n == "enclaves-svc-ti"), "{names:?}");
        service.shutdown();
    }

    /// Live threads of this process.
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    /// A simulated service spends no thread on a connection: 256
    /// connections, each served (one unroutable frame apiece), leave the
    /// thread count where it was, give or take what the tests running
    /// beside this one start and stop.
    #[cfg(target_os = "linux")]
    #[test]
    fn simulated_connections_add_no_threads() {
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        let before = process_threads();
        let links: Vec<_> = (0..256)
            .map(|i| {
                let link = net.connect(&format!("m{i}"), "svc").unwrap();
                link.send(ghost_frame()).unwrap();
                link
            })
            .collect();
        wait_unroutable(&service, 256);
        let after = process_threads();
        assert!(
            after < before + 64,
            "{} connections took the thread count from {before} to {after}",
            links.len()
        );
        service.shutdown();
    }

    /// Every driver of a core puts its frames on the wire in the order
    /// the core made them. Joins (frames handled by the service loop)
    /// race a loop of operator rekeys; each one is a tree `PathUpdate` at
    /// the next epoch, so on every connection the epochs the tap saw
    /// leave the leader must strictly rise. A member that saw e+2 before
    /// e+1 would reject e+2 as `WrongEpoch` and wait for heartbeat
    /// resync.
    #[test]
    fn path_updates_leave_in_epoch_order_under_concurrent_rekeys() {
        const JOINS: usize = 24;
        let names: Vec<String> = (0..JOINS).map(|i| format!("m{i:02}")).collect();
        let users: Vec<&str> = names.iter().map(String::as_str).collect();
        let net = SimNet::new(SimConfig::default());
        let listener = net.listen("svc").unwrap();
        let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
        let red = service
            .add_group(
                id("leader"),
                directory(&users),
                LeaderConfig {
                    tree_rekey: true,
                    ..group_config("red")
                },
            )
            .unwrap();
        /// Stops the rekey loop however the joins end.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let done = AtomicBool::new(false);
        let members = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    // An empty group has nothing to rekey yet.
                    let _ = red.rekey();
                }
            });
            let _stop = Stop(&done);
            users
                .iter()
                .map(|user| join(&net, user, "red", &red))
                .collect::<Vec<MemberRuntime>>()
        });

        let mut last: HashMap<usize, u64> = HashMap::new();
        let mut updates = 0;
        for tapped in net.adversary().observed() {
            if tapped.dir != Direction::ToConnector {
                continue;
            }
            let env = decode::<Envelope>(&tapped.frame).unwrap();
            if env.msg_type != MsgType::PathUpdate {
                continue;
            }
            let epoch = enclaves_wire::message::PathUpdateView::parse(&env.body)
                .unwrap()
                .head
                .epoch;
            if let Some(prev) = last.insert(tapped.conn, epoch) {
                assert!(
                    epoch > prev,
                    "connection {} got epoch {epoch} after {prev}",
                    tapped.conn
                );
            }
            updates += 1;
        }
        assert!(updates > JOINS, "only {updates} path updates were sent");
        drop(members);
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
        let _alice = join(&net, "alice", "red", &red);
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
            let _alice = join(&net, "alice", "red", &red);
            let _bob = join(&net, "bob", "blue", &blue);
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
        LeaderService::start(Box::new(listener), &ServiceConfig::default(), journal)
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
                let _alice = join(&net, "alice", tag, &handle);
                let _bob = join(&net, "bob", tag, &handle);
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

    /// The cold open's breakdown is in the snapshot: six streams recover
    /// on the caller alone, so each stage's histogram holds one sample per
    /// stream, and the three stages together fit inside the whole pass.
    #[test]
    fn recovery_stages_are_timed_per_stream() {
        let dir = TempDir::new("stages");
        let open = |net: &SimNet| {
            let listener = net.listen("svc").unwrap();
            LeaderService::open_with_journal(Box::new(listener), &dir.0, ServiceConfig::default())
                .unwrap()
        };
        {
            let net = SimNet::new(SimConfig::default());
            let (service, _) = open(&net);
            for g in 0..6 {
                let tag = format!("s{g}");
                let handle = service
                    .add_group(id("leader"), directory(&["alice"]), group_config(&tag))
                    .unwrap();
                let _alice = join(&net, "alice", &tag, &handle);
            }
            service.shutdown();
        }
        let net = SimNet::new(SimConfig::default());
        let (service, report) = open(&net);
        assert_eq!(report.recovered.len(), 6);
        let snap = service.snapshot();
        assert_eq!(snap.gauge("recovery.workers"), 1);
        let pass = &snap.histograms["recovery.replay_ns"];
        assert_eq!(pass.count, 1);
        let mut stages = 0;
        for name in [
            "recovery.decode_ns",
            "recovery.rebuild_ns",
            "recovery.advance_ns",
        ] {
            let stage = &snap.histograms[name];
            assert_eq!(stage.count, 6, "{name}");
            stages += stage.sum;
        }
        assert!(
            stages <= pass.sum,
            "stages {stages} ns > pass {} ns",
            pass.sum
        );
        service.shutdown();
    }

    /// The snapshot alone says which ChaCha20 and Poly1305 kernels this
    /// process runs: each gauge is the detection the dispatch itself reads.
    #[test]
    fn snapshot_names_the_chacha20_kernel() {
        let service = quiet_service(None);
        let snapshot = service.snapshot();
        let lanes = snapshot.gauge("crypto.chacha20_lanes");
        assert_eq!(lanes, enclaves_crypto::chacha20::lanes() as i64);
        assert!(
            [1, 8, 16].contains(&lanes),
            "scalar, AVX2 or AVX-512, got {lanes}"
        );
        let lanes = snapshot.gauge("crypto.poly1305_lanes");
        assert_eq!(lanes, enclaves_crypto::poly1305::lanes() as i64);
        assert!([1, 8].contains(&lanes), "scalar or IFMA, got {lanes}");
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
