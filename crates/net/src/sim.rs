//! Deterministic simulated network with fault injection and a Dolev-Yao
//! adversary tap.
//!
//! A [`SimNet`] hosts named listeners. A member dials one by name through
//! [`SimNet::dialer`]; the leader holds the [`SimListener`]. Both see a
//! connection as the readiness loop presents it: the leader `Accepted`,
//! the frames and one `Closed` on its one shard, the member the frames
//! and one `Closed` on the channel it dialled onto, with sends addressed
//! by connection token. Each connection is two fault-injecting directed
//! "wires". All frames (including dropped ones) are copied to the
//! [`Adversary`], which can also inject arbitrary frames
//! into either end of any connection — exactly the attacker of
//! Section 3.1: "compromised participants and outsiders can read all the
//! messages exchanged, replay old messages, and send arbitrary messages
//! they can construct".
//!
//! Beyond the probabilistic faults in [`SimConfig`] (drop, duplicate,
//! reorder, corrupt, delay), the network supports *scheduled* outages used
//! by the chaos harness:
//!
//! * **asymmetric partitions** — [`SimNet::set_blocked`] silences one
//!   direction of one connection until healed; frames sent into the
//!   outage are observed on the tap but never delivered;
//! * **endpoint kill** — [`SimNet::kill`] severs a connection: the member
//!   and the listener each see one `Closed`, after the frames already
//!   delivered; held frames are discarded, and
//!   nothing ever flows again (a crash mid-handshake or mid-session).
//!
//! Determinism: all fault decisions come from a single seeded RNG, and
//! in-process channels preserve per-wire FIFO order (modulo the faults the
//! RNG decides), so a fixed seed and a fixed schedule of calls reproduce a
//! run exactly. "Delay" is virtual: a delayed frame is held back for a
//! jittered number of *subsequent transmissions on the same wire* rather
//! than wall-clock time, which keeps runs seed-reproducible.
//!
//! Held-back frames (reorder holdbacks and delayed frames) are flushed to
//! their receiver when the sending end — the member's connection or the
//! leader's listener — is closed, or when [`SimNet::flush_all`] is
//! called, so the tail frame of a burst is never stranded behind a fault
//! that only releases on the next send.

use crate::{Dialer, Frame, Link, Listener, MuxEvent, MuxToken, NetError};
use crossbeam_channel::{unbounded, Receiver, Sender, TrySendError};
use enclaves_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fault-injection configuration for every wire in a [`SimNet`].
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a frame is held back and delivered after the next one
    /// (pairwise reorder).
    pub reorder_prob: f64,
    /// Probability a delivered frame has one random bit flipped (link
    /// corruption; the AEAD layer must reject such frames).
    pub corrupt_prob: f64,
    /// Probability a frame is delayed: parked on the wire and released
    /// only after a jittered number of subsequent transmissions on the
    /// same wire (virtual delay, deterministic under the seed).
    pub delay_prob: f64,
    /// Maximum virtual delay, in subsequent same-wire transmissions; the
    /// actual delay of each delayed frame is drawn uniformly from
    /// `1..=max_delay_ticks`. Zero disables delay regardless of
    /// `delay_prob`.
    pub max_delay_ticks: u32,
    /// RNG seed for all fault decisions.
    pub seed: u64,
}

impl Default for SimConfig {
    /// A perfectly reliable network (no faults), seed 0.
    fn default() -> Self {
        SimConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ticks: 0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// A lossy configuration useful for robustness tests.
    #[must_use]
    pub fn lossy(seed: u64) -> Self {
        SimConfig {
            drop_prob: 0.10,
            duplicate_prob: 0.10,
            reorder_prob: 0.15,
            seed,
            ..SimConfig::default()
        }
    }

    /// Every probabilistic fault at once: loss, duplication, reordering,
    /// corruption, and delay/jitter. The chaos harness's default weather.
    #[must_use]
    pub fn chaotic(seed: u64) -> Self {
        SimConfig {
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            reorder_prob: 0.10,
            corrupt_prob: 0.05,
            delay_prob: 0.10,
            max_delay_ticks: 4,
            seed,
        }
    }
}

/// Direction of a frame on a connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// From the connecting side (member) to the listening side (leader).
    ToListener,
    /// From the listening side (leader) to the connecting side (member).
    ToConnector,
}

/// A frame observed by the adversary.
#[derive(Clone, Debug)]
pub struct TappedFrame {
    /// Connection identifier (assigned in connect order, starting at 0).
    pub conn: usize,
    /// Direction of travel.
    pub dir: Direction,
    /// The frame bytes (shared with the delivered copy — observing a
    /// frame does not deep-copy it). For corrupted frames this is the
    /// corrupted copy: the tap sees what was on the wire.
    pub frame: Frame,
    /// Whether the network actually delivered it (dropped, partitioned,
    /// and severed frames are still observed — the wire is public).
    pub delivered: bool,
}

/// The net's own registry: one `net.*` counter per fault outcome and the
/// `net.holdback_depth` gauge (frames currently parked by the
/// reorder/delay faults), all registered when the net is created.
struct NetObs {
    registry: Registry,
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
    corrupted: Counter,
    delayed: Counter,
    partitioned: Counter,
    severed: Counter,
    killed: Counter,
    injected: Counter,
    holdback_depth: Gauge,
}

impl NetObs {
    fn new() -> Self {
        let registry = Registry::new();
        NetObs {
            sent: registry.counter("net.sent"),
            delivered: registry.counter("net.delivered"),
            dropped: registry.counter("net.dropped"),
            duplicated: registry.counter("net.duplicated"),
            reordered: registry.counter("net.reordered"),
            corrupted: registry.counter("net.corrupted"),
            delayed: registry.counter("net.delayed"),
            partitioned: registry.counter("net.partitioned"),
            severed: registry.counter("net.severed"),
            killed: registry.counter("net.killed"),
            injected: registry.counter("net.injected"),
            holdback_depth: registry.gauge("net.holdback_depth"),
            registry,
        }
    }
}

struct Wire {
    /// The receiving end's channel: the one the member dialled onto, or
    /// the listener's shard.
    /// Every delivery is a [`MuxEvent::Frame`] naming the connection.
    tx: Sender<MuxEvent>,
    /// Held-back frame for pairwise reordering.
    holdback: Option<Frame>,
    /// Frames under virtual delay, each with its remaining tick count.
    delayed: Vec<(Frame, u32)>,
    /// Partition switch: while set, frames in this direction vanish.
    blocked: bool,
}

impl Wire {
    fn new(tx: Sender<MuxEvent>) -> Self {
        Wire {
            tx,
            holdback: None,
            delayed: Vec::new(),
            blocked: false,
        }
    }

    /// Takes every held frame (delayed first, in age order, then the
    /// reorder holdback) for immediate delivery.
    fn take_held(&mut self) -> Vec<Frame> {
        let mut held: Vec<Frame> = self.delayed.drain(..).map(|(f, _)| f).collect();
        held.extend(self.holdback.take());
        held
    }

    /// Hands `frames` of connection `conn` to the receiving end until it
    /// is found gone; returns how many it took.
    fn deliver(&self, conn: usize, frames: Vec<Frame>) -> usize {
        let mut delivered = 0;
        for frame in frames {
            let event = MuxEvent::Frame { token: conn, frame };
            if let Err(TrySendError::Disconnected(_)) = self.tx.try_send(event) {
                break;
            }
            delivered += 1;
        }
        delivered
    }
}

struct Connection {
    /// Wire toward the listener end.
    to_listener: Wire,
    /// Wire toward the connector end.
    to_connector: Wire,
    /// Whether the connection has been severed by [`SimNet::kill`].
    killed: bool,
}

impl Connection {
    fn wire_mut(&mut self, dir: Direction) -> &mut Wire {
        match dir {
            Direction::ToListener => &mut self.to_listener,
            Direction::ToConnector => &mut self.to_connector,
        }
    }
}

struct SimInner {
    config: SimConfig,
    rng: StdRng,
    connections: Vec<Connection>,
    /// Each listener's one shard, by name.
    listeners: std::collections::HashMap<String, Sender<MuxEvent>>,
    tap: Vec<TappedFrame>,
    obs: NetObs,
}

impl SimInner {
    /// Pushes every frame held on `(conn, dir)` to its receiver.
    fn flush_wire(&mut self, conn: usize, dir: Direction) {
        let Some(connection) = self.connections.get_mut(conn) else {
            return;
        };
        if connection.killed {
            return;
        }
        let wire = connection.wire_mut(dir);
        let held = wire.take_held();
        let released = held.len();
        let delivered = wire.deliver(conn, held);
        self.obs.delivered.add(delivered as u64);
        self.obs.holdback_depth.sub(released as i64);
    }
}

/// A deterministic in-process network.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Mutex<SimInner>>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SimNet")
            .field("connections", &inner.connections.len())
            .finish_non_exhaustive()
    }
}

impl SimNet {
    /// Creates a network with the given fault configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        SimNet {
            inner: Arc::new(Mutex::new(SimInner {
                rng: StdRng::seed_from_u64(config.seed),
                config,
                connections: Vec::new(),
                listeners: std::collections::HashMap::new(),
                tap: Vec::new(),
                obs: NetObs::new(),
            })),
        }
    }

    /// Registers a named listener (the leader): a front end with one
    /// shard.
    ///
    /// # Errors
    ///
    /// [`NetError::AcceptFailed`] if the name is already taken.
    pub fn listen(&self, name: &str) -> Result<SimListener, NetError> {
        let mut inner = self.inner.lock();
        if inner.listeners.contains_key(name) {
            return Err(NetError::AcceptFailed(format!(
                "listener {name} already registered"
            )));
        }
        let (tx, rx) = unbounded();
        inner.listeners.insert(name.to_string(), tx.clone());
        Ok(SimListener {
            net: self.clone(),
            events: tx,
            shards: vec![rx],
        })
    }

    /// Deregisters a listener name, freeing it for a fresh [`listen`]
    /// (`SimListener` has no drop-deregistration — a crashed process's
    /// name must be reclaimed explicitly before its replacement binds).
    /// Returns whether the name was registered.
    ///
    /// [`listen`]: SimNet::listen
    pub fn unlisten(&self, name: &str) -> bool {
        self.inner.lock().listeners.remove(name).is_some()
    }

    /// A [`Dialer`] to the listener `to_name`: each dial is a new
    /// connection, which the listener sees `Accepted` with the connection
    /// index as token and whose leader-bound frames reach the dialler's
    /// channel.
    #[must_use]
    pub fn dialer(&self, to_name: &str) -> Arc<dyn Dialer> {
        Arc::new(SimDialer {
            net: self.clone(),
            to: to_name.to_string(),
        })
    }

    /// Connects to the listener `to_name` as a [`Link`] on a private
    /// channel. `_from_name` is the connector's name, untrusted and not
    /// kept.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownPeer`] if no such listener exists,
    /// [`NetError::Disconnected`] if its front end has stopped reading.
    pub fn connect(&self, _from_name: &str, to_name: &str) -> Result<Link, NetError> {
        Link::dial(self.dialer(to_name))
    }

    /// Replaces the fault configuration at runtime (the RNG stream is
    /// kept). Useful for joining over a clean network and then injecting
    /// faults, or vice versa.
    pub fn set_config(&self, config: SimConfig) {
        self.inner.lock().config = config;
    }

    /// Blocks (`true`) or unblocks (`false`) one direction of one
    /// connection: an asymmetric partition. Frames sent into a blocked
    /// direction are observed on the adversary tap but never delivered;
    /// nothing is queued, so healing restores the link without a burst of
    /// stale traffic (retransmission layers recover what mattered).
    pub fn set_blocked(&self, conn: usize, dir: Direction, blocked: bool) {
        let mut inner = self.inner.lock();
        if let Some(connection) = inner.connections.get_mut(conn) {
            connection.wire_mut(dir).blocked = blocked;
        }
    }

    /// Heals every partition on every connection.
    pub fn heal_all(&self) {
        let mut inner = self.inner.lock();
        for connection in &mut inner.connections {
            connection.to_listener.blocked = false;
            connection.to_connector.blocked = false;
        }
    }

    /// Severs connection `conn` permanently: once their receive queues
    /// drain, the member and the listener each observe one `Closed`; held
    /// frames are discarded, and all future sends vanish. Models an
    /// endpoint crash or a connection reset mid-handshake or mid-session.
    pub fn kill(&self, conn: usize) {
        let mut inner = self.inner.lock();
        let Some(connection) = inner.connections.get_mut(conn) else {
            return;
        };
        if connection.killed {
            return;
        }
        connection.killed = true;
        for wire in [&connection.to_listener, &connection.to_connector] {
            let _ = wire.tx.send(MuxEvent::Closed { token: conn });
        }
        // Replace both senders with one whose receiver is already gone, as
        // the readiness loop drops a connection's sender with its `Closed`.
        let (dead_tx, _) = unbounded();
        let mut discarded = 0usize;
        for dir in [Direction::ToListener, Direction::ToConnector] {
            let wire = connection.wire_mut(dir);
            discarded += wire.delayed.len() + usize::from(wire.holdback.is_some());
            wire.holdback = None;
            wire.delayed.clear();
            wire.tx = dead_tx.clone();
        }
        inner.obs.killed.inc();
        inner.obs.holdback_depth.sub(discarded as i64);
    }

    /// Delivers every held-back frame (reorder holdbacks and delayed
    /// frames) on every wire. The chaos harness calls this while
    /// quiescing so the tail frame of a burst cannot stay stranded behind
    /// a fault that only releases on the next send.
    pub fn flush_all(&self) {
        let mut inner = self.inner.lock();
        for conn in 0..inner.connections.len() {
            inner.flush_wire(conn, Direction::ToListener);
            inner.flush_wire(conn, Direction::ToConnector);
        }
    }

    /// An adversary handle observing and injecting on every connection.
    #[must_use]
    pub fn adversary(&self) -> Adversary {
        Adversary { net: self.clone() }
    }

    /// The registry the `net.*` counters and the `net.holdback_depth`
    /// gauge are written to. Clones share the metrics, so a snapshot taken
    /// from the clone sees the live values.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.inner.lock().obs.registry.clone()
    }

    /// Transmits a frame over connection `conn` in direction `dir`,
    /// applying fault injection. `forced` bypasses faults — including
    /// partitions — and is used by the adversary, whose injections are not
    /// subject to the lossy wire (only a severed connection stops it:
    /// there is no wire left to inject into). A `conn` the net never
    /// issued names no wire: nothing is counted, tapped or delivered.
    fn transmit(&self, conn: usize, dir: Direction, frame: Frame, forced: bool) {
        let mut inner = self.inner.lock();
        let Some(connection) = inner.connections.get(conn) else {
            return;
        };
        let killed = connection.killed;
        if forced {
            inner.obs.injected.inc();
        } else {
            inner.obs.sent.inc();
        }

        if killed {
            inner.obs.severed.inc();
            inner.tap.push(TappedFrame {
                conn,
                dir,
                frame,
                delivered: false,
            });
            return;
        }

        // Draw every fault roll up front so the RNG stream depends only on
        // the sequence of transmissions, not on which faults fire.
        let (drop_roll, dup_roll, reorder_roll, corrupt_roll, delay_roll) = {
            let r = &mut inner.rng;
            (
                r.gen::<f64>(),
                r.gen::<f64>(),
                r.gen::<f64>(),
                r.gen::<f64>(),
                r.gen::<f64>(),
            )
        };
        let config = inner.config;

        let blocked = inner.connections[conn].wire_mut(dir).blocked && !forced;
        let dropped = !forced && drop_roll < config.drop_prob;
        if blocked || dropped {
            if blocked {
                inner.obs.partitioned.inc();
            } else {
                inner.obs.dropped.inc();
            }
            inner.tap.push(TappedFrame {
                conn,
                dir,
                frame,
                delivered: false,
            });
            return;
        }

        // Link corruption: flip one bit of a private copy. The tap (below)
        // observes the corrupted bytes — that is what was on the wire.
        let frame = if !forced && corrupt_roll < config.corrupt_prob && !frame.is_empty() {
            let mut bytes = frame.to_vec();
            let idx = inner.rng.gen_range(0..bytes.len());
            let bit = inner.rng.gen_range(0..8u32);
            bytes[idx] ^= 1 << bit;
            inner.obs.corrupted.inc();
            Frame::from(bytes)
        } else {
            frame
        };

        inner.tap.push(TappedFrame {
            conn,
            dir,
            frame: frame.clone(),
            delivered: true,
        });

        let delay_ticks = if !forced && config.max_delay_ticks > 0 && delay_roll < config.delay_prob
        {
            Some(inner.rng.gen_range(1..config.max_delay_ticks.max(1) + 1))
        } else {
            None
        };

        // Collect deliveries first to keep the borrow on `wire` short.
        // Each entry is a refcount bump, not a copy.
        let mut deliveries: Vec<Frame> = Vec::with_capacity(3);
        let mut reordered = 0;
        let mut duplicated = 0;
        let mut parked = 0;
        // Previously-held frames (delayed or reorder-holdback) released by
        // this transmission; they leave the holdback-depth gauge.
        let mut released = 0;
        {
            let wire = inner.connections[conn].wire_mut(dir);
            // Age every delayed frame by one tick; expired ones ride along
            // behind this transmission (they are late, after all).
            let mut expired: Vec<Frame> = Vec::new();
            wire.delayed.retain_mut(|entry| {
                entry.1 -= 1;
                if entry.1 == 0 {
                    expired.push(entry.0.clone());
                    false
                } else {
                    true
                }
            });

            if let Some(ticks) = delay_ticks {
                wire.delayed.push((frame, ticks));
                parked = 1;
            } else if let Some(held) = wire.holdback.take() {
                // Deliver the new frame first, then the held one: the pair
                // arrives swapped.
                released += 1;
                deliveries.push(frame.clone());
                deliveries.push(held);
                if !forced && dup_roll < config.duplicate_prob {
                    deliveries.push(frame);
                    duplicated = 1;
                }
            } else if !forced && reorder_roll < config.reorder_prob {
                wire.holdback = Some(frame);
                reordered = 1;
            } else {
                deliveries.push(frame.clone());
                if !forced && dup_roll < config.duplicate_prob {
                    deliveries.push(frame);
                    duplicated = 1;
                }
            }
            released += expired.len() as i64;
            deliveries.extend(expired);
        }
        inner.obs.reordered.add(reordered);
        inner.obs.duplicated.add(duplicated);
        inner.obs.delayed.add(parked);
        inner
            .obs
            .holdback_depth
            .add((parked + reordered) as i64 - released);

        let delivered = inner.connections[conn]
            .wire_mut(dir)
            .deliver(conn, deliveries);
        inner.obs.delivered.add(delivered as u64);
    }
}

/// [`SimNet::dialer`]: connections to one listener name.
struct SimDialer {
    net: SimNet,
    to: String,
}

impl Dialer for SimDialer {
    fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError> {
        let mut inner = self.net.inner.lock();
        let Some(listener) = inner.listeners.get(&self.to).cloned() else {
            return Err(NetError::UnknownPeer(self.to.clone()));
        };
        let conn = inner.connections.len();
        listener
            .send(MuxEvent::Accepted { token: conn })
            .map_err(|_| NetError::Disconnected)?;
        inner.connections.push(Connection {
            to_listener: Wire::new(listener),
            to_connector: Wire::new(events.clone()),
            killed: false,
        });
        Ok(conn)
    }

    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        self.net
            .transmit(token, Direction::ToListener, frame, false);
        Ok(())
    }

    /// Flushes what this end sent that a fault still holds (the bytes were
    /// committed before the close), then closes the member's side as the
    /// readiness loop does. The listener is not told.
    fn close(&self, token: MuxToken) {
        let mut inner = self.net.inner.lock();
        inner.flush_wire(token, Direction::ToListener);
        if let Some(connection) = inner.connections.get_mut(token) {
            let _ = connection.to_connector.tx.send(MuxEvent::Closed { token });
            connection.to_connector.tx = unbounded().0;
        }
    }
}

/// The leader's front end on a [`SimNet`] listener name: one shard,
/// sends by connection index.
pub struct SimListener {
    net: SimNet,
    /// The shard's sender, which every connection's listener-bound wire
    /// clones: how a connection is known to be this listener's.
    events: Sender<MuxEvent>,
    shards: Vec<Receiver<MuxEvent>>,
}

impl std::fmt::Debug for SimListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimListener").finish_non_exhaustive()
    }
}

impl Listener for SimListener {
    fn take_shards(&mut self) -> Vec<Receiver<MuxEvent>> {
        std::mem::take(&mut self.shards)
    }

    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        self.net
            .transmit(token, Direction::ToConnector, frame, false);
        Ok(())
    }

    fn multicast(&self, tokens: Vec<MuxToken>, frame: Frame) -> Result<(), NetError> {
        for token in tokens {
            self.send_to(token, Frame::clone(&frame))?;
        }
        Ok(())
    }
}

impl Drop for SimListener {
    /// Closing the front end flushes the frames it sent that a fault was
    /// still holding, as a member's [`Dialer::close`] does for its own.
    fn drop(&mut self) {
        let mut inner = self.net.inner.lock();
        for conn in 0..inner.connections.len() {
            if inner.connections[conn]
                .to_listener
                .tx
                .same_channel(&self.events)
            {
                inner.flush_wire(conn, Direction::ToConnector);
            }
        }
    }
}

/// The Dolev-Yao adversary: sees every frame, injects at will.
#[derive(Clone)]
pub struct Adversary {
    net: SimNet,
}

impl std::fmt::Debug for Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adversary")
            .field("observed", &self.observed().len())
            .finish()
    }
}

impl Adversary {
    /// All frames observed so far (including dropped ones).
    #[must_use]
    pub fn observed(&self) -> Vec<TappedFrame> {
        self.net.inner.lock().tap.clone()
    }

    /// Frames observed on a specific connection and direction.
    #[must_use]
    pub fn observed_on(&self, conn: usize, dir: Direction) -> Vec<Frame> {
        self.net
            .inner
            .lock()
            .tap
            .iter()
            .filter(|t| t.conn == conn && t.dir == dir)
            .map(|t| t.frame.clone())
            .collect()
    }

    /// Injects a frame into connection `conn` traveling in `dir`; the
    /// receiving end cannot distinguish it from a genuine frame.
    pub fn inject(&self, conn: usize, dir: Direction, frame: Frame) {
        self.net.transmit(conn, dir, frame, true);
    }

    /// Replays the `index`-th observed frame of the given connection and
    /// direction.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPeer`] if no such frame was observed.
    pub fn replay(&self, conn: usize, dir: Direction, index: usize) -> Result<(), NetError> {
        let frames = self.observed_on(conn, dir);
        let frame = frames
            .get(index)
            .cloned()
            .ok_or_else(|| NetError::UnknownPeer(format!("frame {index} on conn {conn}")))?;
        self.inject(conn, dir, frame);
        Ok(())
    }

    /// Number of connections established so far.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.net.inner.lock().connections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const TO: Duration = Duration::from_millis(200);

    fn reliable() -> SimNet {
        SimNet::new(SimConfig::default())
    }

    /// A listener named "leader" with its one shard, as a service holds
    /// it.
    struct Leader {
        listener: SimListener,
        shard: Receiver<MuxEvent>,
    }

    impl Leader {
        fn new(net: &SimNet) -> Self {
            let mut listener = net.listen("leader").unwrap();
            let shard = listener.take_shards().pop().unwrap();
            Leader { listener, shard }
        }

        /// The listener's end of the next accepted connection.
        fn accept(&self) -> Server<'_> {
            match self.shard.recv_timeout(TO) {
                Ok(MuxEvent::Accepted { token }) => Server {
                    leader: self,
                    token,
                },
                other => panic!("expected an accept, got {other:?}"),
            }
        }
    }

    /// One connection as the listener sees it.
    struct Server<'a> {
        leader: &'a Leader,
        token: MuxToken,
    }

    impl Server<'_> {
        fn send(&self, frame: Frame) -> Result<(), NetError> {
            self.leader.listener.send_to(self.token, frame)
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
            match self.leader.shard.recv_timeout(timeout) {
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

    /// The value of the net's counter `name`.
    fn count(net: &SimNet, name: &str) -> u64 {
        net.obs_registry().snapshot().counter(name)
    }

    #[test]
    fn registry_counts_every_fault_outcome() {
        let net = SimNet::new(SimConfig {
            seed: 7,
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            corrupt_prob: 0.2,
            delay_prob: 0.2,
            max_delay_ticks: 3,
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        for i in 0..200u8 {
            member.send(vec![i; 16].into()).unwrap();
            leader_side.send(vec![i; 16].into()).unwrap();
        }
        net.flush_all();
        let snap = net.obs_registry().snapshot();
        // Fault probabilities are high enough that a 400-frame exchange
        // exercises every branch with this seed.
        for fault in ["dropped", "duplicated", "reordered", "corrupted", "delayed"] {
            assert!(
                snap.counter(&format!("net.{fault}")) > 0,
                "no frame {fault}"
            );
        }
        // With every held frame flushed, each frame sent is either dropped
        // or delivered once, and each duplicate is one delivery more.
        assert_eq!(snap.counter("net.sent"), 400);
        assert_eq!(
            snap.counter("net.delivered"),
            400 - snap.counter("net.dropped") + snap.counter("net.duplicated")
        );
        // flush_all released every held frame.
        assert_eq!(snap.gauge("net.holdback_depth"), 0);
    }

    #[test]
    fn kill_discards_held_frames_from_gauge() {
        let net = SimNet::new(SimConfig {
            seed: 3,
            delay_prob: 1.0,
            max_delay_ticks: 10,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let _leader_side = leader.accept();
        member.send(b"a"[..].into()).unwrap();
        member.send(b"b"[..].into()).unwrap();
        let registry = net.obs_registry();
        assert!(registry.snapshot().gauge("net.holdback_depth") > 0);
        net.kill(member.token());
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("net.holdback_depth"), 0);
        assert_eq!(snap.counter("net.killed"), 1);
    }

    #[test]
    fn connect_and_exchange() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();

        member.send(b"hello"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"hello");
        leader_side.send(b"welcome"[..].into()).unwrap();
        assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"welcome");
    }

    #[test]
    fn duplicate_listener_names_rejected() {
        let net = reliable();
        let _l = net.listen("leader").unwrap();
        assert!(matches!(
            net.listen("leader"),
            Err(NetError::AcceptFailed(_))
        ));
    }

    #[test]
    fn connect_to_unknown_listener_fails() {
        let net = reliable();
        assert_eq!(
            net.connect("alice", "nobody").unwrap_err(),
            NetError::UnknownPeer("nobody".to_string())
        );
    }

    #[test]
    fn recv_times_out() {
        let net = reliable();
        let _listener = net.listen("leader").unwrap();
        let member = net.connect("alice", "leader").unwrap();
        assert_eq!(
            member.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn adversary_observes_everything() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        let adv = net.adversary();

        member.send(b"secret-looking"[..].into()).unwrap();
        leader_side.send(b"reply"[..].into()).unwrap();
        let _ = leader_side.recv_timeout(TO).unwrap();
        let _ = member.recv_timeout(TO).unwrap();

        let tapped = adv.observed();
        assert_eq!(tapped.len(), 2);
        assert_eq!(&tapped[0].frame[..], b"secret-looking");
        assert_eq!(tapped[0].dir, Direction::ToListener);
        assert_eq!(&tapped[1].frame[..], b"reply");
        assert_eq!(tapped[1].dir, Direction::ToConnector);
        assert_eq!(adv.connections(), 1);
    }

    #[test]
    fn adversary_injects_and_replays() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let _leader_side = leader.accept();
        let adv = net.adversary();

        adv.inject(0, Direction::ToConnector, b"forged"[..].into());
        assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"forged");

        // Replay it.
        adv.replay(0, Direction::ToConnector, 0).unwrap();
        assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"forged");
        assert!(adv.replay(0, Direction::ToConnector, 99).is_err());
        assert_eq!(count(&net, "net.injected"), 2);
    }

    #[test]
    fn drops_are_observed_but_not_delivered() {
        let net = SimNet::new(SimConfig {
            drop_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        member.send(b"doomed"[..].into()).unwrap();
        assert_eq!(
            leader_side
                .recv_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        let adv = net.adversary();
        let tapped = adv.observed();
        assert_eq!(tapped.len(), 1);
        assert!(!tapped[0].delivered);
        assert_eq!(count(&net, "net.dropped"), 1);
        // The adversary can resurrect a dropped frame.
        adv.inject(0, Direction::ToListener, tapped[0].frame.clone());
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"doomed");
    }

    #[test]
    fn duplication_delivers_twice() {
        let net = SimNet::new(SimConfig {
            duplicate_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        member.send(b"twice"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"twice");
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"twice");
        assert_eq!(count(&net, "net.duplicated"), 1);
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let net = SimNet::new(SimConfig {
            reorder_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        member.send(b"first"[..].into()).unwrap();
        member.send(b"second"[..].into()).unwrap();
        // With reorder_prob = 1.0, frame 1 is held and frame 2 triggers the
        // swapped flush.
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"second");
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"first");
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let run = |seed| {
            let net = SimNet::new(SimConfig {
                drop_prob: 0.5,
                seed,
                ..SimConfig::default()
            });
            let leader = Leader::new(&net);
            let member = net.connect("alice", "leader").unwrap();
            let _l = leader.accept();
            for i in 0..32u8 {
                member.send(vec![i].into()).unwrap();
            }
            count(&net, "net.dropped")
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (overwhelmingly) differ somewhere; allow
        // equality of counts but check a couple of seeds.
        let counts: Vec<u64> = (0..4).map(run).collect();
        assert!(counts.iter().any(|&c| c != counts[0]) || counts[0] > 0);
    }

    #[test]
    fn multiple_members_multiplex() {
        let net = reliable();
        let leader = Leader::new(&net);
        let alice = net.connect("alice", "leader").unwrap();
        let bob = net.connect("bob", "leader").unwrap();
        let l_alice = leader.accept();
        let l_bob = leader.accept();

        alice.send(b"from-alice"[..].into()).unwrap();
        bob.send(b"from-bob"[..].into()).unwrap();
        assert_eq!(&l_alice.recv_timeout(TO).unwrap()[..], b"from-alice");
        assert_eq!(&l_bob.recv_timeout(TO).unwrap()[..], b"from-bob");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let net = SimNet::new(SimConfig {
            corrupt_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        let original = b"pristine bytes".to_vec();
        member.send(original.clone().into()).unwrap();
        let received = leader_side.recv_timeout(TO).unwrap();
        assert_eq!(received.len(), original.len());
        let flipped: u32 = received
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        assert_eq!(count(&net, "net.corrupted"), 1);
        // The tap observed the corrupted copy, not the original.
        let tapped = net.adversary().observed();
        assert_eq!(tapped[0].frame, received);
    }

    #[test]
    fn delay_parks_frames_and_later_traffic_releases_them() {
        let net = SimNet::new(SimConfig {
            delay_prob: 1.0,
            max_delay_ticks: 1,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();

        // Every frame is delayed one tick: frame N is released by the
        // transmission of frame N+1 (which itself parks).
        member.send(b"one"[..].into()).unwrap();
        assert!(leader_side.recv_timeout(Duration::from_millis(20)).is_err());
        member.send(b"two"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"one");
        member.send(b"three"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"two");
        assert_eq!(count(&net, "net.delayed"), 3);
    }

    #[test]
    fn asymmetric_partition_blocks_one_direction_until_healed() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();

        // Block member → leader only; the reverse direction still works.
        net.set_blocked(0, Direction::ToListener, true);
        member.send(b"swallowed"[..].into()).unwrap();
        assert!(leader_side.recv_timeout(Duration::from_millis(20)).is_err());
        leader_side.send(b"downstream ok"[..].into()).unwrap();
        assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"downstream ok");
        assert_eq!(count(&net, "net.partitioned"), 1);
        // Partitioned frames are still on the public wire.
        assert!(!net.adversary().observed()[0].delivered);

        // Heal: traffic flows again (the swallowed frame is gone for good).
        net.set_blocked(0, Direction::ToListener, false);
        member.send(b"after heal"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"after heal");
    }

    #[test]
    fn kill_severs_both_ends() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        member.send(b"pre-kill"[..].into()).unwrap();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"pre-kill");

        net.kill(0);
        // Both directions are dead: senders succeed (fire and forget) but
        // nothing arrives and receivers see Disconnected.
        member.send(b"lost"[..].into()).unwrap();
        leader_side.send(b"also lost"[..].into()).unwrap();
        assert_eq!(
            leader_side.recv_timeout(TO).unwrap_err(),
            NetError::Disconnected
        );
        assert_eq!(member.recv_timeout(TO).unwrap_err(), NetError::Disconnected);
        assert_eq!(count(&net, "net.severed"), 2);
        // Idempotent.
        net.kill(0);
    }

    /// The satellite bug fix: with reordering, the last frame of a burst
    /// used to be stranded in the holdback slot until the *next* send —
    /// which, for a final frame, never came. Closing the sending link (or
    /// calling [`SimNet::flush_all`]) now flushes held frames.
    #[test]
    fn held_tail_frame_is_flushed_on_link_close() {
        let net = SimNet::new(SimConfig {
            reorder_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();

        // A one-frame "burst": the frame goes straight into the holdback
        // slot and nothing is deliverable.
        member.send(b"tail"[..].into()).unwrap();
        assert!(leader_side.recv_timeout(Duration::from_millis(20)).is_err());

        // Closing the sending link flushes the stranded frame.
        drop(member);
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"tail");
    }

    #[test]
    fn flush_all_releases_holdbacks_and_delays() {
        let net = SimNet::new(SimConfig {
            reorder_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        let leader_side = leader.accept();
        member.send(b"stuck"[..].into()).unwrap();
        assert!(leader_side.recv_timeout(Duration::from_millis(20)).is_err());
        net.flush_all();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"stuck");

        // Delay holdbacks flush the same way.
        net.set_config(SimConfig {
            delay_prob: 1.0,
            max_delay_ticks: 8,
            ..SimConfig::default()
        });
        member.send(b"parked"[..].into()).unwrap();
        assert!(leader_side.recv_timeout(Duration::from_millis(20)).is_err());
        net.flush_all();
        assert_eq!(&leader_side.recv_timeout(TO).unwrap()[..], b"parked");
    }

    #[test]
    fn conn_ids_match_connect_order() {
        let net = reliable();
        let _listener = net.listen("leader").unwrap();
        let a = net.connect("alice", "leader").unwrap();
        let b = net.connect("bob", "leader").unwrap();
        assert_eq!(a.token(), 0);
        assert_eq!(b.token(), 1);
    }

    /// A kill reaches the listener as exactly one `Closed`, behind the
    /// frames it had already delivered; held frames are not among them.
    #[test]
    fn kill_closes_the_listener_side_once_after_delivered_frames() {
        let net = reliable();
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        member.send(b"one"[..].into()).unwrap();
        member.send(b"two"[..].into()).unwrap();
        net.set_config(SimConfig {
            reorder_prob: 1.0,
            ..SimConfig::default()
        });
        member.send(b"held"[..].into()).unwrap();
        net.kill(member.token());
        net.kill(member.token());
        member.send(b"after"[..].into()).unwrap();
        drop(member);

        let events: Vec<String> = leader
            .shard
            .try_iter()
            .map(|e| match e {
                MuxEvent::Accepted { token } => format!("accepted {token}"),
                MuxEvent::Frame { token, frame } => {
                    format!("{token} {}", String::from_utf8_lossy(&frame))
                }
                MuxEvent::Closed { token } => format!("closed {token}"),
            })
            .collect();
        assert_eq!(events, ["accepted 0", "0 one", "0 two", "closed 0"]);
    }

    /// A kill reaches a dialer's channel as one `Closed` naming the
    /// connection, behind the frames already delivered, as a reset does
    /// on the readiness loop; nothing follows it.
    #[test]
    fn kill_closes_the_dialer_side_once_after_delivered_frames() {
        let net = reliable();
        let leader = Leader::new(&net);
        let (tx, rx) = unbounded();
        let dialer = net.dialer("leader");
        let token = dialer.dial(&tx).unwrap();
        let leader_side = leader.accept();
        leader_side.send(b"before"[..].into()).unwrap();
        net.kill(token);
        net.kill(token);
        leader_side.send(b"after"[..].into()).unwrap();

        let events: Vec<String> = rx
            .try_iter()
            .map(|e| match e {
                MuxEvent::Frame { token, frame } => {
                    format!("{token} {}", String::from_utf8_lossy(&frame))
                }
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(events, ["0 before", "Closed { token: 0 }"]);
    }

    /// Closing the front end flushes what it sent that a fault still held.
    #[test]
    fn dropping_the_listener_flushes_its_held_frames() {
        let net = SimNet::new(SimConfig {
            reorder_prob: 1.0,
            ..SimConfig::default()
        });
        let leader = Leader::new(&net);
        let member = net.connect("alice", "leader").unwrap();
        leader.accept().send(b"tail"[..].into()).unwrap();
        assert!(member.recv_timeout(Duration::from_millis(20)).is_err());
        drop(leader);
        assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"tail");
    }

    /// A multicast is one transmission per token, in list order, each
    /// under the wire's faults like any send.
    #[test]
    fn multicast_transmits_in_list_order() {
        let net = reliable();
        let leader = Leader::new(&net);
        let members: Vec<Link> = ["a", "b", "c"]
            .iter()
            .map(|name| net.connect(name, "leader").unwrap())
            .collect();
        leader
            .listener
            .multicast(vec![2, 0, 1], b"all"[..].into())
            .unwrap();
        let order: Vec<usize> = net.adversary().observed().iter().map(|t| t.conn).collect();
        assert_eq!(order, [2, 0, 1]);
        for member in &members {
            assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"all");
        }
        assert_eq!(count(&net, "net.sent"), 3);
    }

    /// A token the net never issued names no connection: a multicast
    /// skips it, as the readiness loop does, and still reaches every
    /// member; an injection into it is not even tapped.
    #[test]
    fn multicast_skips_unknown_tokens() {
        let net = reliable();
        let leader = Leader::new(&net);
        let members: Vec<Link> = ["a", "b"]
            .iter()
            .map(|name| net.connect(name, "leader").unwrap())
            .collect();
        leader
            .listener
            .multicast(vec![0, 999_999, 1], b"to whoever exists"[..].into())
            .unwrap();
        for member in &members {
            assert_eq!(&member.recv_timeout(TO).unwrap()[..], b"to whoever exists");
        }
        net.adversary()
            .inject(2, Direction::ToConnector, b"nowhere"[..].into());
        assert_eq!(count(&net, "net.sent"), 2);
        assert_eq!(count(&net, "net.injected"), 0);
        assert_eq!(net.adversary().observed().len(), 2);
    }
}
