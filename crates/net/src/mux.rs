//! Readiness-loop TCP transport: every socket owned by **one** event-loop
//! thread.
//!
//! A nonblocking readiness loop over a vendored mio-style poller
//! (`polling`: epoll on Linux, a portable probe fallback elsewhere), so
//! the thread count does not grow with the connection count:
//!
//! * one loop thread owns every socket (connections *and* listeners),
//! * per-connection state machines reassemble length-prefixed frames
//!   across arbitrary read boundaries,
//! * outbound frames go into **bounded** per-connection queues; a partial
//!   write arms writable-interest and the loop resumes exactly where the
//!   kernel stopped — a slow consumer is disconnected (or shed) at the
//!   queue cap instead of wedging the loop or other connections,
//! * runtime threads enqueue frames through a command channel plus a
//!   wakeup token ([`polling::Poller::notify`]), coalesced so a burst of
//!   sends costs one wakeup; a broadcast is one command however many
//!   recipients it has ([`MuxNet::multicast`]),
//! * listeners accept at the host's maximum backlog, so a roster dialling
//!   at once is not throttled by dropped SYNs.
//!
//! Every connection delivers [`MuxEvent`]s — its frames, then one
//! [`MuxEvent::Closed`] — on a channel; outbound goes through
//! [`MuxNet::send_to`] or [`MuxNet::multicast`].
//! [`MuxNet::listen_events`] spreads accepted connections over a fixed
//! set of such channels (one shard per connection, chosen by token, so
//! per-connection frame order is preserved) and returns them as a
//! [`MuxEndpoint`], the loop's [`Listener`]: the leader service's shard
//! handlers and the load-test swarm stay at a bounded thread count
//! regardless of connection count.
//! [`MuxNet::connect_routed`] dials out onto a caller's channel, and
//! [`MuxNet::dialer`] wraps that as the loop's [`Dialer`], the member
//! host's transport; [`MuxNet::connect`] is one such connection as a
//! [`Link`].
//!
//! Loop health is observable through `enclaves-obs` as `net.loop.*`:
//! poll iterations, readiness events, wakeups, frames in/out, partial
//! writes, multicasts and their fan-out time, queue depth, and the
//! overflow counters backing the slow-consumer policy.

use crate::{Dialer, Frame, Link, Listener, NetError};
use crossbeam_channel::{unbounded, Receiver, Sender};
use enclaves_obs::{Counter, Gauge, Histogram, Registry};
use enclaves_wire::framing::MAX_FRAME_LEN;
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one connection inside a [`MuxNet`] (also its poller key).
pub type MuxToken = usize;

/// Maintenance cadence of the loop: closing-connection deadlines are
/// enforced at this granularity even with no I/O readiness.
const MAINTENANCE_TICK: Duration = Duration::from_millis(100);

/// A connection in graceful close drains its outbound queue for at most
/// this long before the socket is dropped regardless.
const CLOSING_GRACE: Duration = Duration::from_secs(5);

/// Frames whose prefix+payload fit the scratch buffer are written with a
/// single syscall; larger ones take a prefix write then zero-copy payload
/// writes.
const SCRATCH_LEN: usize = 64 * 1024;

/// Per readiness event, at most this many scratch-buffer fills are read
/// from one connection before the loop moves on (level-triggered polling
/// re-reports the remainder), so a firehose peer cannot starve others.
const READS_PER_EVENT: usize = 4;

/// What to do when a connection's outbound queue would exceed
/// [`MuxConfig::max_outbound_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxOverflow {
    /// Sever the slow consumer (counted as `net.loop.overflow_disconnects`).
    /// The protocol layer treats it like any other crash: the member can
    /// rejoin, the leader can evict. This is the default: a reader that
    /// stopped draining is indistinguishable from a dead one.
    Disconnect,
    /// Shed the newest frame (counted as `net.loop.overflow_drops`) and
    /// keep the connection; retransmission layers above recover.
    DropNewest,
}

/// Tuning for a [`MuxNet`].
#[derive(Clone, Debug)]
pub struct MuxConfig {
    /// Per-connection outbound queue cap in bytes (frame payloads plus
    /// their 4-byte prefixes). A queue always admits at least one frame
    /// regardless of the cap, so a single oversized frame cannot wedge.
    pub max_outbound_bytes: usize,
    /// Slow-consumer policy at the cap.
    pub overflow: MuxOverflow,
    /// Force the portable probe poller instead of the platform backend —
    /// used by tests to prove the loop does not depend on epoll
    /// semantics.
    pub probe_poller: bool,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_outbound_bytes: 4 * (MAX_FRAME_LEN + 4),
            overflow: MuxOverflow::Disconnect,
            probe_poller: false,
        }
    }
}

/// Loop-health metrics, registered as `net.loop.*`.
#[derive(Clone)]
struct MuxObs {
    polls: Counter,
    readiness_events: Counter,
    wakeups: Counter,
    frames_in: Counter,
    frames_out: Counter,
    partial_writes: Counter,
    accepted: Counter,
    accept_errors: Counter,
    closed: Counter,
    overflow_disconnects: Counter,
    overflow_drops: Counter,
    oversize_frames: Counter,
    multicasts: Counter,
    /// Per multicast: command pop to the last write of its fan-out.
    fanout_ns: Histogram,
    conns: Gauge,
    queued_bytes: Gauge,
}

impl MuxObs {
    fn new(registry: &Registry) -> Self {
        MuxObs {
            polls: registry.counter("net.loop.polls"),
            readiness_events: registry.counter("net.loop.readiness_events"),
            wakeups: registry.counter("net.loop.wakeups"),
            frames_in: registry.counter("net.loop.frames_in"),
            frames_out: registry.counter("net.loop.frames_out"),
            partial_writes: registry.counter("net.loop.partial_writes"),
            accepted: registry.counter("net.loop.accepted"),
            accept_errors: registry.counter("net.loop.accept_errors"),
            closed: registry.counter("net.loop.closed"),
            overflow_disconnects: registry.counter("net.loop.overflow_disconnects"),
            overflow_drops: registry.counter("net.loop.overflow_drops"),
            oversize_frames: registry.counter("net.loop.oversize_frames"),
            multicasts: registry.counter("net.loop.multicasts"),
            fanout_ns: registry.histogram("net.loop.fanout_ns"),
            conns: registry.gauge("net.loop.conns"),
            queued_bytes: registry.gauge("net.loop.queued_bytes"),
        }
    }
}

/// An event from the loop, delivered on the connection's channel. All
/// events for one connection arrive on one channel in wire order.
#[derive(Clone, Debug)]
pub enum MuxEvent {
    /// A listener accepted a connection.
    Accepted {
        /// The new connection's token.
        token: MuxToken,
    },
    /// A complete frame arrived.
    Frame {
        /// The connection it arrived on.
        token: MuxToken,
        /// The reassembled payload.
        frame: Frame,
    },
    /// The connection is gone (EOF, error, overflow disconnect, or
    /// explicit close). No further events for this token follow.
    Closed {
        /// The closed connection's token.
        token: MuxToken,
    },
}

/// Commands from runtime threads to the loop.
enum Cmd {
    /// Adopt an already-connected nonblocking stream, delivering its
    /// events on `events`.
    Register {
        token: MuxToken,
        stream: TcpStream,
        events: Sender<MuxEvent>,
    },
    /// Adopt a nonblocking listener whose accepted connections are
    /// announced and delivered on `shards[token % shards.len()]`.
    Listen {
        token: MuxToken,
        listener: TcpListener,
        shards: Vec<Sender<MuxEvent>>,
    },
    /// Enqueue one frame on a connection's outbound queue.
    Send { token: MuxToken, frame: Frame },
    /// Enqueue one shared frame on every listed connection's outbound
    /// queue, each exactly as a [`Cmd::Send`] would.
    Multicast { tokens: Vec<MuxToken>, frame: Frame },
    /// Gracefully close: drain outbound (bounded by [`CLOSING_GRACE`]),
    /// then drop the socket.
    Close { token: MuxToken },
    /// Stop the loop: best-effort flush, then drop everything.
    Shutdown,
}

/// One outbound frame with its write progress (offset counts over the
/// 4-byte prefix plus the payload).
struct OutFrame {
    frame: Frame,
    written: usize,
}

impl OutFrame {
    fn total(&self) -> usize {
        4 + self.frame.len()
    }
}

/// Frame-reassembly state: a length prefix then a payload, filled across
/// arbitrary read boundaries.
///
/// The prefix is a claim by a peer that may have proved nothing yet, so
/// it sizes no allocation beyond one scratch read: `body` holds the bytes
/// that have arrived and grows with them.
struct ReadState {
    hdr: [u8; 4],
    hdr_got: usize,
    /// The body length the completed prefix claims.
    body_len: usize,
    body: Vec<u8>,
}

impl ReadState {
    fn new() -> Self {
        ReadState {
            hdr: [0; 4],
            hdr_got: 0,
            body_len: 0,
            body: Vec::new(),
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Where this connection's frames and its close go.
    events: Sender<MuxEvent>,
    read: ReadState,
    out: VecDeque<OutFrame>,
    out_bytes: usize,
    writable_interest: bool,
    /// Set by [`Cmd::Close`]: stop reading, drain outbound, then drop.
    closing_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, events: Sender<MuxEvent>) -> Self {
        Conn {
            stream,
            events,
            read: ReadState::new(),
            out: VecDeque::new(),
            out_bytes: 0,
            writable_interest: false,
            closing_since: None,
        }
    }
}

enum Entry {
    Conn(Conn),
    Listener {
        listener: TcpListener,
        shards: Vec<Sender<MuxEvent>>,
    },
}

struct MuxShared {
    cmd_tx: Sender<Cmd>,
    /// Send-side wakeup coalescing: a sender only notifies the poller
    /// when it moves this counter off zero; the loop swaps it back to
    /// zero before draining, so a burst of sends costs one wakeup.
    cmd_pending: AtomicUsize,
    poller: Poller,
    next_token: AtomicUsize,
    running: AtomicBool,
    registry: Registry,
    obs: MuxObs,
    loop_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MuxShared {
    fn push_cmd(&self, cmd: Cmd) {
        if self.cmd_tx.send(cmd).is_err() {
            return; // loop already gone
        }
        if self.cmd_pending.fetch_add(1, Ordering::AcqRel) == 0 {
            let _ = self.poller.notify();
        }
    }
}

/// A readiness-loop transport instance: one event-loop thread, any
/// number of connections and listeners. Handles are cheaply cloneable.
#[derive(Clone)]
pub struct MuxNet {
    shared: Arc<MuxShared>,
}

impl std::fmt::Debug for MuxNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxNet")
            .field("conns", &self.shared.obs.conns.get())
            .finish_non_exhaustive()
    }
}

impl MuxNet {
    /// Starts the event loop with a private metric registry.
    #[must_use]
    pub fn spawn(config: MuxConfig) -> Self {
        Self::spawn_with_registry(config, &Registry::new())
    }

    /// Starts the event loop, mirroring loop health into `registry` as
    /// `net.loop.*`.
    ///
    /// # Panics
    ///
    /// Panics if the poller or the loop thread cannot be created.
    #[must_use]
    pub fn spawn_with_registry(config: MuxConfig, registry: &Registry) -> Self {
        let poller = if config.probe_poller {
            Poller::with_probe_backend()
        } else {
            Poller::new().expect("create poller")
        };
        let (cmd_tx, cmd_rx) = unbounded();
        let shared = Arc::new(MuxShared {
            cmd_tx,
            cmd_pending: AtomicUsize::new(0),
            poller,
            next_token: AtomicUsize::new(0),
            running: AtomicBool::new(true),
            registry: registry.clone(),
            obs: MuxObs::new(registry),
            loop_thread: Mutex::new(None),
        });
        let loop_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("enclaves-mux-loop".into())
            .spawn(move || event_loop(&loop_shared, &cmd_rx, &config))
            .expect("spawn mux event loop");
        *shared.loop_thread.lock() = Some(handle);
        MuxNet { shared }
    }

    fn alloc_token(&self) -> MuxToken {
        self.shared.next_token.fetch_add(1, Ordering::Relaxed)
    }

    fn prepare_stream(addr: SocketAddr) -> Result<TcpStream, NetError> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(stream)
    }

    /// A [`Dialer`] to `addr`: each dial is a
    /// [`MuxNet::connect_routed`] connection, with the socket owned by the
    /// loop instead of a reader thread.
    #[must_use]
    pub fn dialer(&self, addr: SocketAddr) -> Arc<dyn Dialer> {
        Arc::new(MuxDialer {
            net: self.clone(),
            addr,
        })
    }

    /// Connects to `addr` as a [`Link`] on a private channel.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connection failure, [`NetError::Disconnected`]
    /// if the loop has shut down.
    pub fn connect(&self, addr: SocketAddr) -> Result<Link, NetError> {
        Link::dial(self.dialer(addr))
    }

    /// Connects to `addr`: frames and the close arrive as [`MuxEvent`]s
    /// on `events`, outbound goes through [`MuxNet::send_to`]. Used by
    /// consumers multiplexing many connections onto few threads (the
    /// member host, through [`MuxNet::dialer`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connection failure, [`NetError::Disconnected`]
    /// if the loop has shut down.
    pub fn connect_routed(
        &self,
        addr: SocketAddr,
        events: &Sender<MuxEvent>,
    ) -> Result<MuxToken, NetError> {
        if !self.shared.running.load(Ordering::Relaxed) {
            return Err(NetError::Disconnected);
        }
        let stream = Self::prepare_stream(addr)?;
        let token = self.alloc_token();
        self.shared.push_cmd(Cmd::Register {
            token,
            stream,
            events: events.clone(),
        });
        Ok(token)
    }

    fn bind(addr: SocketAddr) -> Result<(TcpListener, SocketAddr), NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Io(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        // A leader is dialled by a whole roster at once: std's backlog of
        // 128 drops the rest of a burst's SYNs, which retry a second later.
        polling::listen_max_backlog(&listener).map_err(|e| NetError::Io(e.to_string()))?;
        Ok((listener, local))
    }

    /// Binds a listener with `shards` delivery channels.
    /// Every connection is pinned to `shards[token % shards]`, so one
    /// shard sees all of a connection's events in order; a fixed pool of
    /// consumer threads (one per shard) therefore serves any number of
    /// connections.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind fails.
    pub fn listen_events(&self, addr: SocketAddr, shards: usize) -> Result<MuxEndpoint, NetError> {
        let (listener, local) = Self::bind(addr)?;
        let token = self.alloc_token();
        let shards = shards.max(1);
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        self.shared.push_cmd(Cmd::Listen {
            token,
            listener,
            shards: txs,
        });
        Ok(MuxEndpoint {
            net: self.clone(),
            local,
            shards: rxs,
        })
    }

    /// Enqueues `frame` on `token`'s outbound queue. Fire-and-forget past
    /// the loop-liveness check: backpressure is enforced *inside* the
    /// loop by the configured [`MuxOverflow`] policy.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the loop has shut down.
    pub fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        if !self.shared.running.load(Ordering::Relaxed) {
            return Err(NetError::Disconnected);
        }
        self.shared.push_cmd(Cmd::Send { token, frame });
        Ok(())
    }

    /// Enqueues one shared `frame` on every connection in `tokens`: one
    /// command and at most one wakeup, however many recipients. The loop
    /// admits it to each queue exactly as [`MuxNet::send_to`] would, in
    /// list order, under the same cap and [`MuxOverflow`] policy; a
    /// closed or unknown token is skipped.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the loop has shut down.
    pub fn multicast(&self, tokens: Vec<MuxToken>, frame: Frame) -> Result<(), NetError> {
        if !self.shared.running.load(Ordering::Relaxed) {
            return Err(NetError::Disconnected);
        }
        self.shared.push_cmd(Cmd::Multicast { tokens, frame });
        Ok(())
    }

    /// Requests a graceful close of `token`: pending outbound frames are
    /// flushed (bounded grace), then the socket drops and a
    /// [`MuxEvent::Closed`] is delivered.
    pub fn close(&self, token: MuxToken) {
        self.shared.push_cmd(Cmd::Close { token });
    }

    /// The registry loop-health metrics are written to.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.shared.registry.clone()
    }

    /// Stops the loop thread, dropping every connection after a
    /// best-effort flush. Idempotent; safe from any handle clone.
    pub fn shutdown(&self) {
        if self.shared.running.swap(false, Ordering::Relaxed) {
            self.shared.push_cmd(Cmd::Shutdown);
            // push_cmd only notifies on the 0→1 edge; a shutdown must
            // always wake the loop.
            let _ = self.shared.poller.notify();
        }
        let handle = self.shared.loop_thread.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// [`MuxNet::dialer`]: connections to one address on this loop.
struct MuxDialer {
    net: MuxNet,
    addr: SocketAddr,
}

impl Dialer for MuxDialer {
    fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError> {
        self.net.connect_routed(self.addr, events)
    }

    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        self.net.send_to(token, frame)
    }

    fn close(&self, token: MuxToken) {
        self.net.close(token);
    }
}

/// A listener's endpoint: the bound address plus the sharded event
/// receivers. As a [`Listener`] it sends through its [`MuxNet`].
pub struct MuxEndpoint {
    net: MuxNet,
    local: SocketAddr,
    shards: Vec<Receiver<MuxEvent>>,
}

impl std::fmt::Debug for MuxEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxEndpoint")
            .field("local", &self.local)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl MuxEndpoint {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Listener for MuxEndpoint {
    fn take_shards(&mut self) -> Vec<Receiver<MuxEvent>> {
        std::mem::take(&mut self.shards)
    }

    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        self.net.send_to(token, frame)
    }

    fn multicast(&self, tokens: Vec<MuxToken>, frame: Frame) -> Result<(), NetError> {
        self.net.multicast(tokens, frame)
    }
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

fn event_loop(shared: &Arc<MuxShared>, cmd_rx: &Receiver<Cmd>, config: &MuxConfig) {
    let obs = shared.obs.clone();
    let mut entries: HashMap<MuxToken, Entry> = HashMap::new();
    // The connections in graceful close, the only ones maintenance visits.
    let mut closing: HashSet<MuxToken> = HashSet::new();
    let mut events: Vec<Event> = Vec::with_capacity(1024);
    let mut scratch = vec![0u8; SCRATCH_LEN];

    'outer: loop {
        // Drain commands first: sends enqueued while we slept must hit
        // the sockets before the next wait.
        while shared.cmd_pending.swap(0, Ordering::AcqRel) > 0 {
            while let Ok(cmd) = cmd_rx.try_recv() {
                if !apply_cmd(
                    shared,
                    &obs,
                    &mut entries,
                    &mut closing,
                    &mut scratch,
                    cmd,
                    config,
                ) {
                    break 'outer;
                }
            }
        }

        events.clear();
        match shared.poller.wait(&mut events, Some(MAINTENANCE_TICK)) {
            Ok(n) => {
                obs.polls.inc();
                obs.readiness_events.add(n as u64);
                if n == 0 && shared.cmd_pending.load(Ordering::Acquire) > 0 {
                    obs.wakeups.inc();
                }
            }
            Err(_) => break,
        }

        for ev in events.drain(..) {
            match entries.get_mut(&ev.key) {
                Some(Entry::Listener { .. }) if ev.readable => {
                    accept_ready(shared, &obs, &mut entries, ev.key);
                }
                Some(Entry::Listener { .. }) => {}
                Some(Entry::Conn(conn)) => {
                    let mut dead = false;
                    if ev.writable {
                        dead = !write_conn(shared, &obs, conn, ev.key, &mut scratch);
                    }
                    if !dead && ev.readable && conn.closing_since.is_none() {
                        dead = !read_conn(&obs, conn, ev.key, &mut scratch);
                    }
                    if !dead && conn.closing_since.is_some() && conn.out.is_empty() {
                        dead = true;
                    }
                    if dead {
                        close_entry(shared, &obs, &mut entries, ev.key);
                    }
                }
                None => {} // closed while events were in flight
            }
        }

        // Maintenance: force-close connections whose graceful drain
        // overstayed its grace period. Only closing connections are
        // visited, and those closed meanwhile leave the set here.
        let now = Instant::now();
        let overdue: Vec<MuxToken> = closing
            .iter()
            .copied()
            .filter(|token| match entries.get(token) {
                Some(Entry::Conn(c)) => c
                    .closing_since
                    .is_some_and(|since| now.duration_since(since) >= CLOSING_GRACE),
                _ => false,
            })
            .collect();
        for token in overdue {
            close_entry(shared, &obs, &mut entries, token);
        }
        closing.retain(|token| entries.contains_key(token));
    }

    // Shutdown: best-effort flush, then close everything (each
    // connection's consumer gets its `Closed`).
    let tokens: Vec<MuxToken> = entries.keys().copied().collect();
    for token in tokens {
        if let Some(Entry::Conn(conn)) = entries.get_mut(&token) {
            let _ = write_conn(shared, &obs, conn, token, &mut scratch);
        }
        close_entry(shared, &obs, &mut entries, token);
    }
}

/// Applies one command; returns `false` on [`Cmd::Shutdown`].
fn apply_cmd(
    shared: &Arc<MuxShared>,
    obs: &MuxObs,
    entries: &mut HashMap<MuxToken, Entry>,
    closing: &mut HashSet<MuxToken>,
    scratch: &mut [u8],
    cmd: Cmd,
    config: &MuxConfig,
) -> bool {
    match cmd {
        Cmd::Register {
            token,
            stream,
            events,
        } => {
            if shared.poller.add(&stream, Event::readable(token)).is_err() {
                // Registration failed (fd exhaustion): surface as an
                // immediate close.
                let _ = events.send(MuxEvent::Closed { token });
                return true;
            }
            entries.insert(token, Entry::Conn(Conn::new(stream, events)));
            obs.conns.add(1);
        }
        Cmd::Listen {
            token,
            listener,
            shards,
        } => {
            if shared.poller.add(&listener, Event::readable(token)).is_ok() {
                entries.insert(token, Entry::Listener { listener, shards });
            }
        }
        Cmd::Send { token, frame } => enqueue(shared, obs, entries, scratch, config, token, frame),
        Cmd::Multicast { tokens, frame } => {
            let popped = Instant::now();
            obs.multicasts.inc();
            for token in tokens {
                enqueue(
                    shared,
                    obs,
                    entries,
                    scratch,
                    config,
                    token,
                    Frame::clone(&frame),
                );
            }
            obs.fanout_ns
                .record(u64::try_from(popped.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Cmd::Close { token } => {
            let Some(Entry::Conn(conn)) = entries.get_mut(&token) else {
                return true;
            };
            if !write_conn(shared, obs, conn, token, scratch) || conn.out.is_empty() {
                close_entry(shared, obs, entries, token);
            } else {
                conn.closing_since = Some(Instant::now());
                closing.insert(token);
            }
        }
        Cmd::Shutdown => return false,
    }
    true
}

/// Admits `frame` to `token`'s outbound queue and flushes what the socket
/// takes: the one backpressure path, for [`Cmd::Send`] and every
/// recipient of a [`Cmd::Multicast`]. A queue at its cap applies the
/// configured [`MuxOverflow`]; an empty queue admits any one frame.
fn enqueue(
    shared: &Arc<MuxShared>,
    obs: &MuxObs,
    entries: &mut HashMap<MuxToken, Entry>,
    scratch: &mut [u8],
    config: &MuxConfig,
    token: MuxToken,
    frame: Frame,
) {
    let Some(Entry::Conn(conn)) = entries.get_mut(&token) else {
        return; // connection already gone: drop silently
    };
    let size = 4 + frame.len();
    if !conn.out.is_empty() && conn.out_bytes + size > config.max_outbound_bytes {
        match config.overflow {
            MuxOverflow::Disconnect => {
                obs.overflow_disconnects.inc();
                close_entry(shared, obs, entries, token);
            }
            MuxOverflow::DropNewest => obs.overflow_drops.inc(),
        }
        return;
    }
    conn.out.push_back(OutFrame { frame, written: 0 });
    conn.out_bytes += size;
    obs.queued_bytes.add(size as i64);
    if !write_conn(shared, obs, conn, token, scratch) {
        close_entry(shared, obs, entries, token);
    }
}

fn close_entry(
    shared: &Arc<MuxShared>,
    obs: &MuxObs,
    entries: &mut HashMap<MuxToken, Entry>,
    token: MuxToken,
) {
    let Some(entry) = entries.remove(&token) else {
        return;
    };
    match entry {
        Entry::Conn(conn) => {
            let _ = shared.poller.delete(&conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            obs.conns.sub(1);
            obs.closed.inc();
            obs.queued_bytes.sub(conn.out_bytes as i64);
            let _ = conn.events.send(MuxEvent::Closed { token });
        }
        Entry::Listener { listener, .. } => {
            let _ = shared.poller.delete(&listener);
        }
    }
}

/// Accepts until `WouldBlock`. Accept errors are counted, never
/// swallowed silently.
fn accept_ready(
    shared: &Arc<MuxShared>,
    obs: &MuxObs,
    entries: &mut HashMap<MuxToken, Entry>,
    listener_token: MuxToken,
) {
    // Take the listener out while accepting so new connections can be
    // inserted into the same map.
    let Some(Entry::Listener { listener, shards }) = entries.remove(&listener_token) else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    obs.accept_errors.inc();
                    continue;
                }
                let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
                let events = shards[token % shards.len()].clone();
                let _ = events.send(MuxEvent::Accepted { token });
                if shared.poller.add(&stream, Event::readable(token)).is_err() {
                    obs.accept_errors.inc();
                    let _ = events.send(MuxEvent::Closed { token });
                    continue;
                }
                entries.insert(token, Entry::Conn(Conn::new(stream, events)));
                obs.conns.add(1);
                obs.accepted.inc();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                obs.accept_errors.inc();
                break;
            }
        }
    }
    entries.insert(listener_token, Entry::Listener { listener, shards });
}

/// Updates the poller interest to match `conn`'s outbound state.
fn update_interest(shared: &Arc<MuxShared>, conn: &mut Conn, token: MuxToken) {
    let want_writable = !conn.out.is_empty();
    if want_writable != conn.writable_interest {
        let interest = if want_writable {
            Event::all(token)
        } else {
            Event::readable(token)
        };
        if shared.poller.modify(&conn.stream, interest).is_ok() {
            conn.writable_interest = want_writable;
        }
    }
}

/// Flushes as much outbound as the socket accepts. Returns `false` if
/// the connection died.
fn write_conn(
    shared: &Arc<MuxShared>,
    obs: &MuxObs,
    conn: &mut Conn,
    token: MuxToken,
    scratch: &mut [u8],
) -> bool {
    loop {
        let Some(head) = conn.out.front() else {
            update_interest(shared, conn, token);
            return true;
        };
        let len = head.frame.len();
        let total = head.total();
        let prefix = (len as u32).to_be_bytes();
        let result = if head.written == 0 && total <= scratch.len() {
            // Small frame, nothing written yet: one syscall for
            // prefix + payload.
            scratch[..4].copy_from_slice(&prefix);
            scratch[4..total].copy_from_slice(&head.frame);
            conn.stream.write(&scratch[..total])
        } else if head.written < 4 {
            conn.stream.write(&prefix[head.written..])
        } else {
            // Zero-copy payload write straight from the shared frame.
            conn.stream.write(&head.frame[head.written - 4..])
        };
        match result {
            Ok(0) => return false,
            Ok(n) => {
                let head = conn.out.front_mut().expect("head still queued");
                head.written += n;
                if head.written >= total {
                    conn.out.pop_front();
                    conn.out_bytes -= total;
                    obs.queued_bytes.sub(total as i64);
                    obs.frames_out.inc();
                } else {
                    obs.partial_writes.inc();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Kernel buffer full: arm writable-interest and resume
                // exactly here when the poller reports progress.
                obs.partial_writes.inc();
                update_interest(shared, conn, token);
                return true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Reads and reassembles frames until `WouldBlock` (bounded per event
/// for fairness). Returns `false` if the connection died or violated
/// framing.
fn read_conn(obs: &MuxObs, conn: &mut Conn, token: MuxToken, scratch: &mut [u8]) -> bool {
    for _ in 0..READS_PER_EVENT {
        match conn.stream.read(scratch) {
            Ok(0) => return false, // EOF
            Ok(n) => {
                let alive = feed_read(obs, &mut conn.read, &scratch[..n], |frame| {
                    conn.events.send(MuxEvent::Frame { token, frame }).is_ok()
                });
                if !alive {
                    return false;
                }
                if n < scratch.len() {
                    return true; // drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true // fairness bound hit; level-triggered poll re-reports the rest
}

/// Feeds raw bytes through the frame-reassembly state machine, handing
/// every completed frame to `deliver`. Returns `false` on a framing
/// violation or when `deliver` reports a dead consumer.
fn feed_read(
    obs: &MuxObs,
    read: &mut ReadState,
    mut buf: &[u8],
    mut deliver: impl FnMut(Frame) -> bool,
) -> bool {
    loop {
        if read.hdr_got < 4 {
            if buf.is_empty() {
                return true;
            }
            let take = (4 - read.hdr_got).min(buf.len());
            read.hdr[read.hdr_got..read.hdr_got + take].copy_from_slice(&buf[..take]);
            read.hdr_got += take;
            buf = &buf[take..];
            if read.hdr_got < 4 {
                return true;
            }
            let len = u32::from_be_bytes(read.hdr) as usize;
            if len > MAX_FRAME_LEN {
                // Reject before allocating, like `read_frame`.
                obs.oversize_frames.inc();
                return false;
            }
            read.body_len = len;
            read.body.reserve(len.min(SCRATCH_LEN));
        }
        let take = (read.body_len - read.body.len()).min(buf.len());
        read.body.extend_from_slice(&buf[..take]);
        buf = &buf[take..];
        if read.body.len() < read.body_len {
            return true; // body incomplete; buf exhausted
        }
        let frame: Frame = std::mem::take(&mut read.body).into();
        read.hdr_got = 0;
        obs.frames_in.inc();
        if !deliver(frame) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TO: Duration = Duration::from_secs(5);

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn spawn_net(probe: bool) -> MuxNet {
        MuxNet::spawn(MuxConfig {
            probe_poller: probe,
            ..MuxConfig::default()
        })
    }

    /// ROADMAP item 3's pre-authentication memory bound: a length prefix
    /// is a claim from a peer that has proved nothing, so 64 connections
    /// that each claim 1 MiB and then send one byte pin at most one scratch
    /// read apiece (they used to pin 64 MiB) — and a claim that is then
    /// honoured, in pieces that straddle every growth step, still arrives
    /// as one intact frame.
    #[test]
    fn a_claimed_length_reserves_no_more_than_one_scratch_read() {
        let obs = MuxObs::new(&Registry::new());
        let claim = (MAX_FRAME_LEN as u32).to_be_bytes();
        let mut conns: Vec<ReadState> = (0..64).map(|_| ReadState::new()).collect();
        for read in &mut conns {
            assert!(feed_read(&obs, read, &claim, |_| panic!("no frame yet")));
            assert!(feed_read(&obs, read, &[0xab], |_| panic!("no frame yet")));
        }
        let pinned: usize = conns.iter().map(|read| read.body.capacity()).sum();
        assert!(
            pinned <= 64 * SCRATCH_LEN,
            "{pinned} bytes reserved for 64 bytes received"
        );

        let rest: Vec<u8> = (1..MAX_FRAME_LEN).map(|i| (i % 251) as u8).collect();
        let mut frames = Vec::new();
        for piece in rest.chunks(SCRATCH_LEN - 7) {
            assert!(feed_read(&obs, &mut conns[0], piece, |frame| {
                frames.push(frame);
                true
            }));
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].len(), MAX_FRAME_LEN);
        assert_eq!(frames[0][0], 0xab);
        assert!(frames[0][1..] == rest[..]);
        assert_eq!(obs.frames_in.get(), 1);

        // The state is back at a header boundary: a small frame follows,
        // and an oversize claim is still refused before any reservation.
        assert!(feed_read(
            &obs,
            &mut conns[0],
            &[0, 0, 0, 2, 7, 9],
            |frame| {
                frames.push(frame);
                true
            }
        ));
        assert_eq!(&frames[1][..], &[7, 9]);
        let oversize = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let mut fresh = ReadState::new();
        assert!(!feed_read(&obs, &mut fresh, &oversize, |_| true));
        assert_eq!(fresh.body.capacity(), 0);
        assert_eq!(obs.oversize_frames.get(), 1);
    }

    /// The accepted end of a [`pair`]: its token and its listener's one
    /// event shard.
    struct Server {
        net: MuxNet,
        token: MuxToken,
        rx: Receiver<MuxEvent>,
    }

    impl Server {
        fn send(&self, frame: Frame) -> Result<(), NetError> {
            self.net.send_to(self.token, frame)
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
            match self.rx.recv_timeout(timeout) {
                Ok(MuxEvent::Frame { token, frame }) if token == self.token => Ok(frame),
                Ok(MuxEvent::Closed { token }) if token == self.token => {
                    Err(NetError::Disconnected)
                }
                Ok(other) => panic!("unexpected event {other:?}"),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                    Err(NetError::Disconnected)
                }
            }
        }
    }

    /// One client link and the connection the listener accepted for it.
    fn pair(net: &MuxNet) -> (Link, Server) {
        let mut endpoint = net.listen_events(loopback(), 1).unwrap();
        let client = net.connect(endpoint.local_addr()).unwrap();
        let rx = endpoint.take_shards().pop().unwrap();
        let Ok(MuxEvent::Accepted { token }) = rx.recv_timeout(TO) else {
            panic!("the listener accepted nothing");
        };
        let net = net.clone();
        (client, Server { net, token, rx })
    }

    fn exchange_on(probe: bool) {
        let net = spawn_net(probe);
        let (client, server) = pair(&net);
        client.send(Frame::from(&b"ping"[..])).unwrap();
        assert_eq!(&*server.recv_timeout(TO).unwrap(), b"ping");
        server.send(Frame::from(&b"pong"[..])).unwrap();
        assert_eq!(&*client.recv_timeout(TO).unwrap(), b"pong");
        net.shutdown();
    }

    #[test]
    fn connect_and_exchange() {
        exchange_on(false);
    }

    #[test]
    fn connect_and_exchange_probe_backend() {
        exchange_on(true);
    }

    #[test]
    fn recv_times_out() {
        let net = spawn_net(false);
        let (client, _server) = pair(&net);
        let err = client.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        net.shutdown();
    }

    #[test]
    fn disconnect_is_detected() {
        let net = spawn_net(false);
        let (client, server) = pair(&net);
        drop(client);
        let err = loop {
            match server.recv_timeout(TO) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, NetError::Disconnected));
        net.shutdown();
    }

    #[test]
    fn close_flushes_queued_frames_first() {
        // A send immediately followed by dropping the link must still
        // deliver the frame: Cmd::Close drains outbound before closing.
        let net = spawn_net(false);
        let (client, server) = pair(&net);
        client.send(Frame::from(&b"last words"[..])).unwrap();
        drop(client);
        assert_eq!(&*server.recv_timeout(TO).unwrap(), b"last words");
        assert!(matches!(
            server.recv_timeout(TO).unwrap_err(),
            NetError::Disconnected
        ));
        net.shutdown();
    }

    fn large_frames_on(probe: bool) {
        let net = spawn_net(probe);
        let (client, server) = pair(&net);
        // Larger than the 64 KiB scratch buffer: exercises partial
        // reassembly and the zero-copy write path.
        let big: Frame = vec![0xA7u8; 600 * 1024].into();
        client.send(Frame::clone(&big)).unwrap();
        let got = server.recv_timeout(TO).unwrap();
        assert_eq!(&*got, &*big);
        server.send(Frame::clone(&big)).unwrap();
        assert_eq!(&*client.recv_timeout(TO).unwrap(), &*big);
        net.shutdown();
    }

    #[test]
    fn large_frames_roundtrip() {
        large_frames_on(false);
    }

    #[test]
    fn large_frames_roundtrip_probe_backend() {
        large_frames_on(true);
    }

    #[test]
    fn frames_arrive_in_order() {
        let net = spawn_net(false);
        let (client, server) = pair(&net);
        for i in 0..500u32 {
            client.send(i.to_be_bytes().to_vec().into()).unwrap();
        }
        for i in 0..500u32 {
            let frame = server.recv_timeout(TO).unwrap();
            assert_eq!(u32::from_be_bytes(frame[..4].try_into().unwrap()), i);
        }
        net.shutdown();
    }

    #[test]
    fn loop_metrics_are_counted() {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(MuxConfig::default(), &registry);
        let (client, server) = pair(&net);
        client.send(Frame::from(&b"x"[..])).unwrap();
        let _ = server.recv_timeout(TO).unwrap();
        let snap = registry.snapshot();
        assert!(snap.counter("net.loop.frames_in") >= 1);
        assert!(snap.counter("net.loop.frames_out") >= 1);
        assert_eq!(snap.counter("net.loop.accepted"), 1);
        drop(client);
        drop(server);
        let deadline = Instant::now() + TO;
        while registry.snapshot().gauge("net.loop.conns") != 0 {
            assert!(Instant::now() < deadline, "conns gauge never drained");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(registry.snapshot().counter("net.loop.closed") >= 2);
        net.shutdown();
    }

    #[test]
    fn overflow_disconnects_slow_consumer() {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(
            MuxConfig {
                max_outbound_bytes: 64 * 1024,
                overflow: MuxOverflow::Disconnect,
                ..MuxConfig::default()
            },
            &registry,
        );
        let (client, server) = pair(&net);
        // `server` never reads. Push until the kernel buffers fill and
        // the bounded queue trips the disconnect policy.
        let chunk: Frame = vec![0u8; 32 * 1024].into();
        for _ in 0..4096 {
            client.send(Frame::clone(&chunk)).unwrap();
            if registry.snapshot().counter("net.loop.overflow_disconnects") > 0 {
                break;
            }
        }
        assert!(
            registry.snapshot().counter("net.loop.overflow_disconnects") >= 1,
            "slow consumer was never disconnected"
        );
        // The severed client observes the close as a disconnect.
        let err = loop {
            match client.recv_timeout(TO) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, NetError::Disconnected));
        drop(server);
        net.shutdown();
    }

    #[test]
    fn overflow_drop_newest_keeps_connection() {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(
            MuxConfig {
                max_outbound_bytes: 64 * 1024,
                overflow: MuxOverflow::DropNewest,
                ..MuxConfig::default()
            },
            &registry,
        );
        let (client, server) = pair(&net);
        let chunk: Frame = vec![0u8; 32 * 1024].into();
        for _ in 0..4096 {
            client.send(Frame::clone(&chunk)).unwrap();
            if registry.snapshot().counter("net.loop.overflow_drops") > 0 {
                break;
            }
        }
        assert!(
            registry.snapshot().counter("net.loop.overflow_drops") >= 1,
            "no frame was shed"
        );
        // The connection survives: drain what got through, then a fresh
        // round-trip still works.
        while server.recv_timeout(Duration::from_millis(200)).is_ok() {}
        client.send(Frame::from(&b"still here"[..])).unwrap();
        let got = loop {
            let f = server.recv_timeout(TO).unwrap();
            if &*f == b"still here" {
                break f;
            }
        };
        assert_eq!(&*got, b"still here");
        net.shutdown();
    }

    fn event_mode_on(probe: bool) {
        let net = spawn_net(probe);
        let mut endpoint = net.listen_events(loopback(), 2).unwrap();
        let addr = endpoint.local_addr();
        let shards = endpoint.take_shards();

        let (client_events_tx, client_events_rx) = unbounded();
        let token = net.connect_routed(addr, &client_events_tx).unwrap();
        net.send_to(token, Frame::from(&b"hello"[..])).unwrap();

        // The server sees Accepted then Frame on one shard, in order.
        let deadline = Instant::now() + TO;
        let mut server_token = None;
        let mut got_frame = false;
        while !(server_token.is_some() && got_frame) {
            assert!(Instant::now() < deadline, "server events never arrived");
            for shard in &shards {
                while let Ok(ev) = shard.try_recv() {
                    match ev {
                        MuxEvent::Accepted { token } => server_token = Some(token),
                        MuxEvent::Frame { frame, .. } => {
                            assert_eq!(&*frame, b"hello");
                            got_frame = true;
                        }
                        MuxEvent::Closed { .. } => panic!("premature close"),
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Reply travels back to the routed client, then close surfaces
        // as a Closed event.
        net.send_to(server_token.unwrap(), Frame::from(&b"world"[..]))
            .unwrap();
        match client_events_rx.recv_timeout(TO).unwrap() {
            MuxEvent::Frame { frame, token: t } => {
                assert_eq!(&*frame, b"world");
                assert_eq!(t, token);
            }
            other => panic!("expected frame, got {other:?}"),
        }
        net.close(server_token.unwrap());
        match client_events_rx.recv_timeout(TO).unwrap() {
            MuxEvent::Closed { token: t } => assert_eq!(t, token),
            other => panic!("expected close, got {other:?}"),
        }
        net.shutdown();
    }

    #[test]
    fn event_mode_roundtrip() {
        event_mode_on(false);
    }

    #[test]
    fn event_mode_roundtrip_probe_backend() {
        event_mode_on(true);
    }

    /// A one-shard listener on `net`: its address and its shard.
    fn listen(net: &MuxNet) -> (SocketAddr, Receiver<MuxEvent>) {
        let mut endpoint = net.listen_events(loopback(), 1).unwrap();
        (endpoint.local_addr(), endpoint.take_shards().pop().unwrap())
    }

    /// Links on `net` to `addr`, each having sent its index as a one-byte
    /// hello frame.
    fn hello_links(net: &MuxNet, addr: SocketAddr, n: u8) -> Vec<Link> {
        (0..n)
            .map(|i| {
                let link = net.connect(addr).unwrap();
                link.send(Frame::from(&[i][..])).unwrap();
                link
            })
            .collect()
    }

    /// Reads `shard` until the indices `0..n` have each said hello and
    /// returns the accepted tokens in index order, so a test matches the
    /// server's ends to its clients by content rather than accept order.
    fn tokens_by_hello(shard: &Receiver<MuxEvent>, n: u8) -> Vec<MuxToken> {
        let mut tokens = vec![None; usize::from(n)];
        while tokens.iter().any(Option::is_none) {
            match shard.recv_timeout(TO).expect("every client says hello") {
                MuxEvent::Frame { token, frame } => tokens[usize::from(frame[0])] = Some(token),
                MuxEvent::Accepted { .. } => {}
                MuxEvent::Closed { token } => panic!("{token} closed before its hello"),
            }
        }
        tokens.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn multicast_delivers_one_frame_to_every_listed_connection() {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(MuxConfig::default(), &registry);
        let (addr, shard) = listen(&net);
        let links = hello_links(&net, addr, 4);
        let tokens = tokens_by_hello(&shard, 4);

        net.send_to(tokens[0], Frame::from(&b"first"[..])).unwrap();
        let frame: Frame = (0..5000u32)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into();
        net.multicast(tokens, Frame::clone(&frame)).unwrap();

        // The earlier send keeps its place ahead of the multicast.
        assert_eq!(&*links[0].recv_timeout(TO).unwrap(), b"first");
        for link in &links {
            assert_eq!(&*link.recv_timeout(TO).unwrap(), &*frame);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.loop.multicasts"), 1);
        assert_eq!(snap.histograms["net.loop.fanout_ns"].count, 1);
        net.shutdown();
    }

    #[test]
    fn multicast_skips_closed_and_unknown_tokens() {
        let net = spawn_net(false);
        let (addr, shard) = listen(&net);
        let links = hello_links(&net, addr, 3);
        let tokens = tokens_by_hello(&shard, 3);
        net.close(tokens[1]);
        loop {
            if let MuxEvent::Closed { token } = shard.recv_timeout(TO).unwrap() {
                assert_eq!(token, tokens[1]);
                break;
            }
        }

        let unknown = 999_999;
        net.multicast(
            vec![tokens[0], tokens[1], unknown, tokens[2]],
            Frame::from(&b"to whoever is left"[..]),
        )
        .unwrap();
        for i in [0, 2] {
            assert_eq!(&*links[i].recv_timeout(TO).unwrap(), b"to whoever is left");
        }
        assert!(matches!(
            links[1].recv_timeout(TO).unwrap_err(),
            NetError::Disconnected
        ));
        net.shutdown();
    }

    /// Multicasts 32 KiB frames to two reading links and one raw socket
    /// that never reads, until the stalled queue trips `overflow`, then
    /// eight more. The readers take every frame in step, so only the
    /// stalled queue can reach the cap. Returns the loop's metrics.
    fn multicast_past_a_stalled_reader(overflow: MuxOverflow) -> enclaves_obs::Snapshot {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(
            MuxConfig {
                max_outbound_bytes: 64 * 1024,
                overflow,
                ..MuxConfig::default()
            },
            &registry,
        );
        let (addr, shard) = listen(&net);
        let readers = hello_links(&net, addr, 2);
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(&[0, 0, 0, 1, 2]).unwrap();
        let tokens = tokens_by_hello(&shard, 3);

        let chunk: Frame = vec![0x5a; 32 * 1024].into();
        let multicast = || {
            net.multicast(tokens.clone(), Frame::clone(&chunk)).unwrap();
            // Both readers are served by this loop, which takes no read
            // before it has applied the whole command.
            for reader in &readers {
                assert_eq!(&*reader.recv_timeout(TO).unwrap(), &*chunk);
            }
        };
        let tripped = |snap: &enclaves_obs::Snapshot| {
            snap.counter("net.loop.overflow_disconnects") + snap.counter("net.loop.overflow_drops")
                > 0
        };
        let mut sent = 0u64;
        while !tripped(&registry.snapshot()) {
            assert!(sent < 4096, "the stalled reader never reached the cap");
            multicast();
            sent += 1;
        }
        for _ in 0..8 {
            multicast();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.loop.multicasts"), sent + 8);
        drop(stalled);
        net.shutdown();
        snap
    }

    #[test]
    fn multicast_cuts_a_stalled_reader_under_disconnect() {
        let snap = multicast_past_a_stalled_reader(MuxOverflow::Disconnect);
        // Cut once; later multicasts skip its token.
        assert_eq!(snap.counter("net.loop.overflow_disconnects"), 1);
        assert_eq!(snap.counter("net.loop.overflow_drops"), 0);
    }

    #[test]
    fn multicast_sheds_for_a_stalled_reader_under_drop_newest() {
        let snap = multicast_past_a_stalled_reader(MuxOverflow::DropNewest);
        assert_eq!(snap.counter("net.loop.overflow_disconnects"), 0);
        // Still connected, so each of the eight later frames is shed too.
        assert!(snap.counter("net.loop.overflow_drops") >= 9);
    }

    /// A graceful close whose drain stalls, because the peer never reads,
    /// is forced once `CLOSING_GRACE` has passed, and the connection's
    /// consumer still gets its `Closed`: maintenance finds it in the
    /// closing set although no readiness event ever names it again.
    #[test]
    fn a_stalled_drain_is_forced_closed_after_the_grace() {
        let registry = Registry::new();
        let net = MuxNet::spawn_with_registry(
            MuxConfig {
                max_outbound_bytes: 1 << 20,
                overflow: MuxOverflow::DropNewest,
                ..MuxConfig::default()
            },
            &registry,
        );
        let (addr, shard) = listen(&net);
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(&[0, 0, 0, 1, 0]).unwrap();
        let token = tokens_by_hello(&shard, 1)[0];

        // Fill the socket buffers until frames wait in the loop's queue.
        let chunk: Frame = vec![0x5a; 64 * 1024].into();
        let deadline = Instant::now() + TO;
        while registry.snapshot().counter("net.loop.overflow_drops") == 0 {
            assert!(Instant::now() < deadline, "the queue never filled");
            net.send_to(token, Frame::clone(&chunk)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let asked = Instant::now();
        net.close(token);
        loop {
            match shard.recv_timeout(CLOSING_GRACE + TO) {
                Ok(MuxEvent::Closed { token: closed }) => {
                    assert_eq!(closed, token);
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("the stalled drain was never closed: {e:?}"),
            }
        }
        assert!(
            asked.elapsed() >= CLOSING_GRACE,
            "closed after {:?}, inside the grace",
            asked.elapsed()
        );
        drop(stalled);
        net.shutdown();
    }

    /// A leader is dialled by its whole roster at once. At std's backlog
    /// of 128, dial #130 of a burst nobody accepts from yet has its SYN
    /// dropped and retries only after a second.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_listener_queues_a_dial_burst_past_std_backlog() {
        let (_listener, addr) = MuxNet::bind(loopback()).unwrap();
        let dials: Vec<TcpStream> = (0..300)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                    .unwrap_or_else(|e| panic!("dial #{i}: {e}"))
            })
            .collect();
        assert_eq!(dials.len(), 300);
    }

    #[test]
    fn shutdown_disconnects_links() {
        let net = spawn_net(false);
        let (client, _server) = pair(&net);
        net.shutdown();
        let err = loop {
            match client.recv_timeout(TO) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, NetError::Disconnected));
        assert!(client.send(Frame::from(&b"x"[..])).is_err());
    }
}
