//! 10k-member real-socket load-test rig for the enclaves leader service.
//!
//! The rig runs as **two processes** so neither side's file-descriptor
//! budget is shared with the other: a *leader* process hosting one
//! [`LeaderService`] on the readiness-loop ([`MuxNet`]) backend, and a
//! *swarm* process driving thousands of virtual members — each a real
//! sans-io [`MemberSession`] on its own real TCP connection, all hosted by
//! one [`MemberHost`] (a loop thread per shard, dialling through the
//! swarm's readiness loop) so the member count never shows up in the
//! thread count.
//!
//! The two processes speak a tiny line protocol over stdio (abstracted as
//! [`Coordinator`] so the whole rig also runs in-process for tests):
//!
//! ```text
//! L -> S   hello <addr> <members> <waves> <shards>
//! S -> L   ready                      (all members joined)
//! S -> L   wave done                  (once per broadcast wave, counted)
//! L -> S   rekey <t0_unix_ns>
//! S -> L   armed                      (t0 recorded; safe to rekey)
//! S -> L   rekey done                 (every member saw the new epoch)
//! L -> S   churn <k>
//! S -> L   left                       (k leave envelopes sent + closed)
//! L -> S   rejoin                     (leader roster drained; admit cohort)
//! S -> L   churn done                 (k churn members welcomed)
//! L -> S   report
//! S -> L   stat <phase> <count> <min> <p50> <p99> <p999> <max>   (x4)
//! S -> L   threads <n>
//! S -> L   done
//! L -> S   exit
//! ```
//!
//! The explicit `left` / `rejoin` barrier exists because a roster holds at
//! most `enclaves_wire::MAX_ROSTER_LEN` (10 000) names and the leader
//! refuses a join past it: at the 10k design point the churn cohort may
//! only join after the leavers have actually left the roster.
//!
//! Latency clocks: join/rejoin latencies are swarm-local (`Instant` from
//! session start to `Welcomed`); broadcast latencies ride in-band (the
//! payload's first 8 bytes are the send time as big-endian unix
//! nanoseconds); rekey latency uses the `rekey <t0>` control line, armed
//! *before* the leader rotates so no `KeyDist` can outrun its epoch.
//! Cross-process clocks are both `SystemTime` on the same host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crossbeam_channel::{unbounded, Receiver, Sender};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::liveness::{LivenessConfig, RealClock};
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{
    HostedMember, LeaderService, MemberHost, MemberOptions, ServiceConfig,
};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::OsEntropyRng;
use enclaves_net::{MuxConfig, MuxNet, MuxOverflow};
use enclaves_obs::Registry;
use enclaves_wire::ActorId;

/// How long any single rig phase (join storm, wave, rekey, churn) may
/// take before the rig declares the run wedged. Generous: the 10k design
/// point moves ~400 MB of welcome rosters through one core.
const PHASE_DEADLINE: Duration = Duration::from_secs(600);

/// Poll cadence for "wait until counter reaches N" loops.
const POLL: Duration = Duration::from_millis(2);

/// How long a broadcast wave may stall before the swarm asks the leader
/// to re-send the wave payload (same t0; members dedup, so re-sends are
/// idempotent).
const WAVE_RESEND_ASK: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Identity and key helpers
// ---------------------------------------------------------------------------

/// Actor id for initial swarm member `i` (`m00042`-style, zero-padded so
/// logs sort).
///
/// # Panics
///
/// Never for reasonable `i` (the generated name is always a valid id).
#[must_use]
pub fn swarm_member_id(i: usize) -> ActorId {
    ActorId::new(format!("m{i:05}")).expect("valid member id")
}

/// Actor id for churn-cohort member `i`.
///
/// # Panics
///
/// Never for reasonable `i`.
#[must_use]
pub fn churn_member_id(i: usize) -> ActorId {
    ActorId::new(format!("c{i:05}")).expect("valid churn id")
}

/// Deterministic cheap long-term key for key-slot `i` — no PBKDF2, which
/// would dominate a 10k join storm by orders of magnitude. Churn members
/// use slots offset by [`CHURN_KEY_BASE`] so the cohorts never collide.
#[must_use]
pub fn cheap_key(i: usize) -> LongTermKey {
    let mut bytes = [0x5Au8; 32];
    bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
    LongTermKey::from_bytes(bytes)
}

/// Key-slot offset for the churn cohort.
pub const CHURN_KEY_BASE: usize = 1 << 20;

/// The leader id used by the rig.
///
/// # Panics
///
/// Never (the name is statically valid).
#[must_use]
pub fn leader_id() -> ActorId {
    ActorId::new("leader").expect("valid leader id")
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn bad(context: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("{context}: {e}"))
}

/// Live thread count of the calling process, from `/proc/self/status`
/// (`0` if the file is unavailable, e.g. off Linux).
#[must_use]
pub fn process_threads() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Latency summaries
// ---------------------------------------------------------------------------

/// Nearest-rank latency summary over a sample set, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Builds a summary from raw samples (sorted internally). Empty input
    /// yields the all-zero summary.
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank: ceil(q * n) as a 1-based rank.
        let rank = |num: usize, den: usize| samples[((n * num).div_ceil(den)).clamp(1, n) - 1];
        Summary {
            count: n,
            min: samples[0],
            p50: rank(1, 2),
            p99: rank(99, 100),
            p999: rank(999, 1000),
            max: samples[n - 1],
        }
    }

    /// Renders the wire form used by the rig's `stat` lines.
    #[must_use]
    pub fn to_line(&self, phase: &str) -> String {
        format!(
            "stat {phase} {} {} {} {} {} {}",
            self.count, self.min, self.p50, self.p99, self.p999, self.max
        )
    }

    /// Parses the payload of a `stat` line (the tokens after the phase
    /// name).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if any field is missing or non-numeric.
    pub fn parse_fields(fields: &[&str]) -> io::Result<Summary> {
        if fields.len() != 6 {
            return Err(bad(
                "stat line",
                format!("want 6 fields, got {}", fields.len()),
            ));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|e| bad("stat field", e));
        Ok(Summary {
            count: usize::try_from(num(fields[0])?).unwrap_or(usize::MAX),
            min: num(fields[1])?,
            p50: num(fields[2])?,
            p99: num(fields[3])?,
            p999: num(fields[4])?,
            max: num(fields[5])?,
        })
    }
}

// ---------------------------------------------------------------------------
// Coordinator: the leader<->swarm control channel
// ---------------------------------------------------------------------------

/// Line-oriented control channel between the leader and swarm halves of
/// the rig. Implementations: in-process channels (tests), stdio (the
/// swarm child), a child process's pipes (the leader parent).
pub trait Coordinator {
    /// Sends one line (no trailing newline).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the peer is gone.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Receives one line, blocking up to the rig's phase deadline.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on EOF, disconnect, or deadline.
    fn recv_line(&mut self) -> io::Result<String>;
}

/// In-process [`Coordinator`]: a crossbeam channel pair, for running both
/// rig halves inside one test process.
#[derive(Debug)]
pub struct ChannelCoordinator {
    tx: Sender<String>,
    rx: Receiver<String>,
}

impl ChannelCoordinator {
    /// Builds a connected pair; give one end to each rig half.
    #[must_use]
    pub fn pair() -> (ChannelCoordinator, ChannelCoordinator) {
        let (a_tx, a_rx) = unbounded();
        let (b_tx, b_rx) = unbounded();
        (
            ChannelCoordinator { tx: a_tx, rx: b_rx },
            ChannelCoordinator { tx: b_tx, rx: a_rx },
        )
    }
}

impl Coordinator for ChannelCoordinator {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.tx
            .send(line.to_string())
            .map_err(|_| bad("coordinator send", "peer hung up"))
    }

    fn recv_line(&mut self) -> io::Result<String> {
        self.rx
            .recv_timeout(PHASE_DEADLINE)
            .map_err(|e| bad("coordinator recv", format!("{e:?}")))
    }
}

/// Stdio [`Coordinator`] for the swarm child process: reads commands from
/// stdin, writes replies to stdout.
#[derive(Debug, Default)]
pub struct StdioCoordinator;

impl Coordinator for StdioCoordinator {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut out = io::stdout().lock();
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()
    }

    fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if io::stdin().lock().read_line(&mut line)? == 0 {
            return Err(bad("coordinator recv", "stdin closed"));
        }
        Ok(line.trim_end().to_string())
    }
}

/// Parent-side [`Coordinator`] wrapping a spawned swarm child's pipes.
/// Kills the child on drop so a wedged run cannot leak a 10k-socket
/// process.
#[derive(Debug)]
pub struct ProcessCoordinator {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ProcessCoordinator {
    /// Spawns `cmd` with piped stdio and wraps its pipes.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the spawn fails.
    pub fn spawn(cmd: &mut Command) -> io::Result<ProcessCoordinator> {
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take().ok_or_else(|| bad("spawn", "no stdin"))?;
        let stdout = child
            .stdout
            .take()
            .map(BufReader::new)
            .ok_or_else(|| bad("spawn", "no stdout"))?;
        Ok(ProcessCoordinator {
            child,
            stdin,
            stdout,
        })
    }
}

impl Coordinator for ProcessCoordinator {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(bad("coordinator recv", "swarm child closed stdout"));
        }
        Ok(line.trim_end().to_string())
    }
}

impl Drop for ProcessCoordinator {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Rig configuration and outcome
// ---------------------------------------------------------------------------

/// Load-rig shape.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Initial member count (the join storm).
    pub members: usize,
    /// Broadcast waves after the join storm.
    pub waves: usize,
    /// Churn size: `churn` members leave, a fresh cohort of `churn` joins.
    pub churn: usize,
    /// Broadcast payload length in bytes (min 8; the timestamp rides in
    /// the first 8).
    pub payload_len: usize,
    /// Event shards on each side (leader service shards and swarm host
    /// threads).
    pub shards: usize,
}

impl Default for LoadConfig {
    /// The 10k design point from the issue: 10 000 members, 5 broadcast
    /// waves, 100-member churn, 256-byte payloads, 4 shards.
    fn default() -> Self {
        LoadConfig {
            members: 10_000,
            waves: 5,
            churn: 100,
            payload_len: 256,
            shards: 4,
        }
    }
}

/// What a rig run measured.
#[derive(Clone, Copy, Debug)]
pub struct LoadOutcome {
    /// Join-storm latency (session start to `Welcomed`), swarm-side clock.
    pub join: Summary,
    /// Broadcast delivery latency (leader seal to member decrypt).
    pub broadcast: Summary,
    /// Rekey propagation latency (leader rotate to member epoch switch).
    pub rekey: Summary,
    /// Churn-cohort join latency.
    pub rejoin: Summary,
    /// Leader-process thread count at end of run.
    pub leader_threads: u64,
    /// Swarm-process thread count at end of run.
    pub swarm_threads: u64,
    /// Config echo: members driven.
    pub members: usize,
    /// Config echo: broadcast waves.
    pub waves: usize,
    /// Config echo: churn size.
    pub churn: usize,
}

// ---------------------------------------------------------------------------
// Leader half
// ---------------------------------------------------------------------------

/// Runs the leader half of the rig: hosts one [`LeaderService`] on the
/// readiness-loop backend, drives the phase protocol over `coord`, and
/// collects the swarm's measurements. Loop metrics land in `registry`
/// (`net.loop.*` from the mux, `load.*` gauges from the rig).
///
/// # Errors
///
/// [`io::Error`] if the swarm disconnects, a phase deadline passes, or
/// the protocol desynchronizes.
///
/// # Panics
///
/// Never for valid configs (group registration cannot collide — the
/// service is freshly spawned).
pub fn run_leader(
    cfg: &LoadConfig,
    registry: &Registry,
    coord: &mut dyn Coordinator,
) -> io::Result<LoadOutcome> {
    // Overflow policy: DropNewest, not the default Disconnect. Late in a
    // 10k join storm a Welcome carries a multi-thousand-member roster
    // (~100KB sealed) and thousands are outstanding at once on one CPU;
    // under the Disconnect policy the ARQ's re-enqueued retransmits blow
    // the per-conn cap and sever exactly the members slowest to ack —
    // a rejoin cascade. Shedding a retransmit is harmless (the ARQ
    // resends it); data-plane wave frames are a few hundred bytes and
    // never queue behind anything once joins settle.
    let net = MuxNet::spawn_with_registry(
        MuxConfig {
            overflow: MuxOverflow::DropNewest,
            ..MuxConfig::default()
        },
        registry,
    );
    let endpoint = net
        .listen_events("127.0.0.1:0".parse().expect("literal addr"), cfg.shards)
        .map_err(|e| bad("listen", e))?;
    let addr = endpoint.local_addr();
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());

    let mut directory = Directory::new();
    for i in 0..cfg.members {
        directory.register_key(&swarm_member_id(i), cheap_key(i));
    }
    for i in 0..cfg.churn {
        directory.register_key(&churn_member_id(i), cheap_key(CHURN_KEY_BASE + i));
    }
    let handle = service
        .add_group(
            leader_id(),
            directory,
            leader_config(cfg.members + cfg.churn + 16),
        )
        .map_err(|e| bad("add group", e))?;

    coord.send_line(&format!(
        "hello {addr} {} {} {}",
        cfg.members, cfg.waves, cfg.shards
    ))?;
    expect(coord, "ready")?;

    // Let the transport drain the join storm's admin tail (welcome
    // retransmits are ~100KB at 10k and queue ahead of everything) before
    // measuring the data plane: a wave frame shed behind a lingering
    // welcome inflates broadcast p99 by whole re-ask periods.
    let deadline = Instant::now() + PHASE_DEADLINE;
    while registry.snapshot().gauge("net.loop.queued_bytes") > 0 {
        if Instant::now() > deadline {
            return Err(bad("post-join drain", "outbound queues never drained"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // Broadcast waves: the timestamp rides in-band, the swarm acks each
    // wave once every member decrypted it. A stalled swarm asks "again"
    // and the leader re-sends the identical payload (same t0) to fill
    // delivery holes — members dedup by t0, so latency is still measured
    // from the wave's original send.
    for _ in 0..cfg.waves {
        let mut payload = vec![0u8; cfg.payload_len.max(8)];
        payload[..8].copy_from_slice(&unix_ns().to_be_bytes());
        handle
            .broadcast_data(&payload)
            .map_err(|e| bad("broadcast", e))?;
        loop {
            let line = coord.recv_line()?;
            match line.trim() {
                "wave done" => break,
                "again" => {
                    handle
                        .broadcast_data(&payload)
                        .map_err(|e| bad("broadcast resend", e))?;
                }
                other => return Err(bad("wave", format!("expected wave done, got {other}"))),
            }
        }
    }

    // Rekey: arm the swarm's clock first so no KeyDist can outrun its t0.
    coord.send_line(&format!("rekey {}", unix_ns()))?;
    expect(coord, "armed")?;
    handle.rekey().map_err(|e| bad("rekey", e))?;
    expect(coord, "rekey done")?;

    // Churn: leavers must drain from the roster before the cohort joins
    // (the leader refuses a join once the roster holds MAX_ROSTER_LEN).
    coord.send_line(&format!("churn {}", cfg.churn))?;
    expect(coord, "left")?;
    let deadline = Instant::now() + PHASE_DEADLINE;
    while handle.roster().len() > cfg.members - cfg.churn {
        if Instant::now() > deadline {
            return Err(bad("churn", "leavers never drained from roster"));
        }
        std::thread::sleep(POLL);
    }
    coord.send_line("rejoin")?;
    expect(coord, "churn done")?;

    // Collect the swarm's measurements.
    coord.send_line("report")?;
    let mut outcome = LoadOutcome {
        join: Summary::default(),
        broadcast: Summary::default(),
        rekey: Summary::default(),
        rejoin: Summary::default(),
        leader_threads: 0,
        swarm_threads: 0,
        members: cfg.members,
        waves: cfg.waves,
        churn: cfg.churn,
    };
    loop {
        let line = coord.recv_line()?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["done"] => break,
            ["threads", n] => {
                outcome.swarm_threads = n.parse().map_err(|e| bad("threads line", e))?;
            }
            ["stat", phase, rest @ ..] => {
                let summary = Summary::parse_fields(rest)?;
                match *phase {
                    "join" => outcome.join = summary,
                    "broadcast" => outcome.broadcast = summary,
                    "rekey" => outcome.rekey = summary,
                    "rejoin" => outcome.rejoin = summary,
                    other => return Err(bad("stat line", format!("unknown phase {other}"))),
                }
            }
            _ => return Err(bad("report", format!("unexpected line: {line}"))),
        }
    }
    outcome.leader_threads = process_threads();
    coord.send_line("exit")?;

    // Publish the headline numbers as gauges so obs snapshots (and the
    // CI artifact) carry them alongside the net.loop.* counters.
    let set = |name: &str, v: u64| {
        registry
            .gauge(name)
            .set(i64::try_from(v).unwrap_or(i64::MAX));
    };
    set("load.members", outcome.members as u64);
    set("load.leader_threads", outcome.leader_threads);
    set("load.swarm_threads", outcome.swarm_threads);
    set("load.join_p99_ns", outcome.join.p99);
    set("load.broadcast_p99_ns", outcome.broadcast.p99);
    set("load.rekey_p99_ns", outcome.rekey.p99);

    service.shutdown();
    net.shutdown();
    Ok(outcome)
}

/// The rig's leader: manual rekeys, no membership notices, room for
/// `max_members`, and a retransmit backoff that holds at 10k members.
#[must_use]
pub fn leader_config(max_members: usize) -> LeaderConfig {
    LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        max_members,
        membership_notices: false,
        // The historical flat 400ms retry-forever cadence melts down at
        // 10k: with thousands of un-acked Welcomes in flight,
        // re-enqueueing every cached frame every 400ms is hundreds of MB/s
        // of queue pressure. Exponential backoff (0.5s..16s, jittered)
        // keeps the retransmit load proportional to what the swarm can
        // actually drain.
        liveness: LivenessConfig {
            retransmit_base: Duration::from_millis(500),
            retransmit_max: Duration::from_secs(16),
            jitter_pct: 20,
            jitter_seed: 0x10ad,
            ..LivenessConfig::default()
        },
        ..LeaderConfig::default()
    }
}

fn expect(coord: &mut dyn Coordinator, want: &str) -> io::Result<()> {
    let got = coord.recv_line()?;
    if got != want {
        return Err(bad("protocol", format!("expected {want:?}, got {got:?}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Swarm half
// ---------------------------------------------------------------------------

/// Counters and sample sinks shared by the swarm's member sinks.
#[derive(Default)]
struct SwarmState {
    joined: AtomicUsize,
    rejoined: AtomicUsize,
    broadcasts: AtomicUsize,
    rekeys: AtomicUsize,
    /// Armed by the control thread before the leader rotates; `0` means
    /// "no rekey in flight" and suppresses sample recording.
    rekey_t0: AtomicU64,
    join_lat: Mutex<Vec<u64>>,
    rejoin_lat: Mutex<Vec<u64>>,
    bcast_lat: Mutex<Vec<u64>>,
    rekey_lat: Mutex<Vec<u64>>,
}

impl SwarmState {
    /// Records a rekey propagation sample while a rekey is armed.
    fn rekeyed(&self) {
        let t0 = self.rekey_t0.load(Ordering::SeqCst);
        if t0 != 0 {
            let ns = unix_ns().saturating_sub(t0);
            self.rekey_lat.lock().expect("lock").push(ns);
            self.rekeys.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Runs the swarm half of the rig: reads the `hello` line from `coord`,
/// drives the configured number of virtual members through the
/// join/broadcast/rekey/churn phases, and reports latency summaries back.
///
/// # Errors
///
/// [`io::Error`] if the leader disconnects, a phase deadline passes, or
/// the protocol desynchronizes.
pub fn run_swarm(coord: &mut dyn Coordinator) -> io::Result<()> {
    let hello = coord.recv_line()?;
    let fields: Vec<&str> = hello.split_whitespace().collect();
    let ["hello", addr, members, waves, shards] = fields.as_slice() else {
        return Err(bad("hello", format!("malformed: {hello}")));
    };
    let addr: SocketAddr = addr.parse().map_err(|e| bad("hello addr", e))?;
    let parse = |s: &str| s.parse::<usize>().map_err(|e| bad("hello field", e));
    let (members, waves, shards) = (parse(members)?, parse(waves)?, parse(shards)?);

    let registry = Registry::new();
    let net = MuxNet::spawn_with_registry(MuxConfig::default(), &registry);
    let host = MemberHost::spawn(net.dialer(addr), shards, Arc::new(RealClock::new()));
    let result = drive_swarm(coord, &host, &registry, members, waves);
    drop(host);
    net.shutdown();
    result
}

/// The swarm control loop: phases in lockstep with [`run_leader`].
fn drive_swarm(
    coord: &mut dyn Coordinator,
    host: &MemberHost,
    registry: &Registry,
    members: usize,
    waves: usize,
) -> io::Result<()> {
    let state = Arc::new(SwarmState::default());
    // Join storm.
    let mut originals: Vec<Option<HostedMember>> = (0..members)
        .map(|i| admit(host, &state, i, false).map(Some))
        .collect::<io::Result<_>>()?;
    wait_for(&state.joined, members, "join storm", || Ok(()))?;
    // Quiesce before declaring ready: the storm's tail leaves the swarm's
    // channels full of duplicate challenges and welcome retransmits, and
    // a wave-1 frame queued behind that backlog would measure the
    // storm's hangover, not broadcast delivery. Wait until the swarm's
    // loop receives no frame for half a second.
    let deadline = Instant::now() + PHASE_DEADLINE;
    let frames_in = || registry.snapshot().counter("net.loop.frames_in");
    loop {
        let seen = frames_in();
        std::thread::sleep(Duration::from_millis(500));
        if frames_in() == seen {
            break;
        }
        if Instant::now() > deadline {
            return Err(bad("post-join quiesce", "event backlog never drained"));
        }
    }
    coord.send_line("ready")?;

    // Broadcast waves arrive unannounced; ack each one. Data-plane
    // frames have no ARQ, so a wave can wedge if a member misses its
    // frame (shed under backpressure, or a rejoin mid-wave): after a
    // stall, ask the leader to re-send the identical payload — members
    // dedup counted waves by the in-band t0, so re-sends only ever fill
    // holes.
    for w in 1..=waves {
        let again = || coord.send_line("again");
        wait_for(&state.broadcasts, members * w, "broadcast wave", again)?;
        coord.send_line("wave done")?;
    }

    // Rekey.
    let line = coord.recv_line()?;
    let t0 = line
        .strip_prefix("rekey ")
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| bad("protocol", format!("expected rekey <t0>, got {line}")))?;
    state.rekey_t0.store(t0, Ordering::SeqCst);
    coord.send_line("armed")?;
    wait_for(&state.rekeys, members, "rekey propagation", || Ok(()))?;
    state.rekey_t0.store(0, Ordering::SeqCst);
    coord.send_line("rekey done")?;

    // Churn: leave phase, roster barrier (leader side), join phase.
    let line = coord.recv_line()?;
    let k = line
        .strip_prefix("churn ")
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| bad("protocol", format!("expected churn <k>, got {line}")))?;
    for member in originals.iter_mut().take(k).filter_map(Option::take) {
        let _ = member.leave();
    }
    coord.send_line("left")?;
    expect(coord, "rejoin")?;
    let _cohort = (0..k)
        .map(|i| admit(host, &state, i, true))
        .collect::<io::Result<Vec<_>>>()?;
    wait_for(&state.rejoined, k, "churn rejoin", || Ok(()))?;
    coord.send_line("churn done")?;

    // Report.
    expect(coord, "report")?;
    let take =
        |m: &Mutex<Vec<u64>>| Summary::from_samples(std::mem::take(&mut m.lock().expect("lock")));
    coord.send_line(&take(&state.join_lat).to_line("join"))?;
    coord.send_line(&take(&state.bcast_lat).to_line("broadcast"))?;
    coord.send_line(&take(&state.rekey_lat).to_line("rekey"))?;
    coord.send_line(&take(&state.rejoin_lat).to_line("rejoin"))?;
    coord.send_line(&format!("threads {}", process_threads()))?;
    coord.send_line("done")?;
    expect(coord, "exit")?;
    Ok(())
}

/// Waits for `counter` to reach `target`, running `stalled` after each
/// [`WAVE_RESEND_ASK`] without reaching it.
fn wait_for(
    counter: &AtomicUsize,
    target: usize,
    what: &str,
    mut stalled: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let deadline = Instant::now() + PHASE_DEADLINE;
    let mut last_ask = Instant::now();
    while counter.load(Ordering::SeqCst) < target {
        if Instant::now() > deadline {
            return Err(bad(
                what,
                format!("deadline: {}/{target}", counter.load(Ordering::SeqCst)),
            ));
        }
        if last_ask.elapsed() >= WAVE_RESEND_ASK {
            stalled()?;
            last_ask = Instant::now();
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Starts original member `i` (or churn-cohort member `i`) on `host`.
/// Its timers: an unwelcomed handshake is re-sent every 30 s, which only
/// wedged members hit, since duplicate inits from thousands of members
/// would swamp the leader. No heartbeats and no timeout, so a welcomed
/// member arms no timer; a member whose connection drops rejoins.
fn admit(
    host: &MemberHost,
    state: &Arc<SwarmState>,
    i: usize,
    churn: bool,
) -> io::Result<HostedMember> {
    let (user, key) = if churn {
        (churn_member_id(i), cheap_key(CHURN_KEY_BASE + i))
    } else {
        (swarm_member_id(i), cheap_key(i))
    };
    let rng = Box::new(OsEntropyRng::new());
    let (session, init) = MemberSession::start_with_key_in_group(user, leader_id(), key, rng, None);
    let liveness = LivenessConfig {
        retransmit_base: Duration::from_secs(30),
        retransmit_max: Duration::from_secs(30),
        ..LivenessConfig::default()
    };
    let options = MemberOptions {
        liveness,
        rejoin: true,
        ..MemberOptions::default()
    };
    let sink = member_sink(Arc::clone(state), churn);
    host.admit(session, init, options, sink)
        .map_err(|e| bad("admit member", e))
}

/// One member's measurements: its join latency, its waves (deduplicated
/// by the in-band t0, since the leader re-sends to fill holes) and its
/// rekey samples.
fn member_sink(state: Arc<SwarmState>, churn: bool) -> impl FnMut(MemberEvent) + Send {
    let started = Instant::now();
    let mut welcomed = false;
    let mut seen_waves: Vec<u64> = Vec::new();
    move |event| match event {
        MemberEvent::Welcomed { .. } => {
            // The first welcome is the join. A rejoin's welcome delivers
            // the *current* group key: a member that rejoined mid-rotation
            // got the new epoch here, not via GroupKeyChanged, and must
            // still count toward propagation.
            if !std::mem::replace(&mut welcomed, true) {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let (lat, count) = if churn {
                    (&state.rejoin_lat, &state.rejoined)
                } else {
                    (&state.join_lat, &state.joined)
                };
                lat.lock().expect("lock").push(ns);
                count.fetch_add(1, Ordering::SeqCst);
            }
            state.rekeyed();
        }
        MemberEvent::GroupKeyChanged { .. } => state.rekeyed(),
        MemberEvent::Broadcast { data, .. } => {
            if let Some(t0) = data.first_chunk::<8>().map(|b| u64::from_be_bytes(*b)) {
                if seen_waves.contains(&t0) {
                    return;
                }
                seen_waves.push(t0);
                let ns = unix_ns().saturating_sub(t0);
                state.bcast_lat.lock().expect("lock").push(ns);
            }
            state.broadcasts.fetch_add(1, Ordering::SeqCst);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_nearest_rank() {
        let s = Summary::from_samples((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.p999, 100);
        assert_eq!(s.max, 100);
        assert_eq!(Summary::from_samples(vec![]), Summary::default());
        let one = Summary::from_samples(vec![7]);
        assert_eq!(
            (one.min, one.p50, one.p99, one.p999, one.max),
            (7, 7, 7, 7, 7)
        );
    }

    #[test]
    fn summary_line_roundtrip() {
        let s = Summary {
            count: 3,
            min: 1,
            p50: 2,
            p99: 3,
            p999: 3,
            max: 3,
        };
        let line = s.to_line("join");
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[0], "stat");
        assert_eq!(fields[1], "join");
        assert_eq!(Summary::parse_fields(&fields[2..]).unwrap(), s);
    }

    /// A member's first welcome is its join; a rejoin's welcome counts
    /// only toward rekey propagation, and only while a rekey is armed.
    #[test]
    fn a_member_joins_once_however_often_it_is_welcomed() {
        let state = Arc::new(SwarmState::default());
        let mut sink = member_sink(Arc::clone(&state), false);
        let welcome = || MemberEvent::Welcomed {
            roster: enclaves_wire::Roster::new(),
            epoch: 1,
        };
        sink(welcome());
        sink(welcome());
        assert_eq!(state.joined.load(Ordering::SeqCst), 1);
        assert_eq!(state.join_lat.lock().unwrap().len(), 1);
        assert_eq!(state.rekeys.load(Ordering::SeqCst), 0);
        state.rekey_t0.store(unix_ns(), Ordering::SeqCst);
        sink(welcome());
        assert_eq!(state.joined.load(Ordering::SeqCst), 1);
        assert_eq!(state.rekeys.load(Ordering::SeqCst), 1);
    }

    /// End-to-end rig over real sockets, both halves in-process. Small
    /// scale (the 10k design point runs via `report --load`), but the
    /// full protocol: join storm, waves, rekey, churn, report.
    #[test]
    fn rig_runs_end_to_end_in_process() {
        let cfg = LoadConfig {
            members: 120,
            waves: 2,
            churn: 12,
            payload_len: 64,
            shards: 2,
        };
        let (mut leader_end, mut swarm_end) = ChannelCoordinator::pair();
        let swarm = std::thread::spawn(move || run_swarm(&mut swarm_end));
        let registry = Registry::new();
        let outcome = run_leader(&cfg, &registry, &mut leader_end).expect("leader run");
        swarm.join().expect("swarm thread").expect("swarm run");

        assert_eq!(outcome.join.count, 120);
        assert_eq!(outcome.broadcast.count, 240);
        assert_eq!(outcome.rekey.count, 120);
        assert_eq!(outcome.rejoin.count, 12);
        assert!(outcome.join.min > 0 && outcome.join.p99 >= outcome.join.p50);
        // Same process here, so the thread gate covers both halves at once.
        assert!(outcome.leader_threads > 0 && outcome.leader_threads < 64);
        let snap = registry.snapshot();
        assert!(snap.counter("net.loop.frames_in") > 0);
        assert_eq!(snap.gauge("load.members"), 120);
    }
}
