//! Where the chaos happens: an abstraction over the network the scenario
//! runs on, with two implementations — the in-process simulator (full
//! fault matrix: drops, duplicates, reorders, corruption, delay,
//! asymmetric partitions, kills) and real TCP sockets behind an
//! adversarial proxy (transport parity: the oracle must pass on the
//! readiness loop every real-socket leader runs, not just the simulator).

use crate::schedule::Schedule;
use crossbeam_channel::Sender;
use enclaves_core::runtime::{LeaderService, ServiceConfig};
use enclaves_net::sim::{Direction, SimConfig, SimNet};
use enclaves_net::{Dialer, Frame, MuxConfig, MuxEndpoint, MuxEvent, MuxNet, MuxToken, NetError};
use enclaves_obs::Snapshot;
use enclaves_wire::framing::{read_frame, write_frame};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A network a chaos schedule can be executed against.
pub trait Fabric {
    /// Starts the leader service on this fabric's own front end: the
    /// simulator's listener, or the readiness loop behind the proxy.
    ///
    /// # Panics
    ///
    /// Panics if the fabric already started one.
    fn spawn_service(&mut self, config: ServiceConfig) -> LeaderService;

    /// `name`'s dialer toward the leader, made each time `name`'s member
    /// starts. Each dial opens a fresh connection, which later faults on
    /// `name` target. On the simulator a redial fails while `name` is
    /// [`Fabric::kill`]ed and not yet healed: a crashed member stays
    /// crashed until the schedule says otherwise.
    fn dialer(&self, name: &str) -> Arc<dyn Dialer>;

    /// Partitions `name`'s *current* connection: block the member→leader
    /// direction, the leader→member direction, or both. No-op on fabrics
    /// that cannot partition ([`Fabric::supports_partitions`]).
    fn partition(&mut self, name: &str, to_leader: bool, to_member: bool);

    /// Heals both directions of `name`'s current connection.
    fn heal(&mut self, name: &str);

    /// Heals every partition.
    fn heal_all(&mut self);

    /// Severs `name`'s current connection (both ends see a disconnect).
    fn kill(&mut self, name: &str);

    /// Delivers any frames a fault is still holding back.
    fn flush(&mut self);

    /// Turns all probabilistic faults off (used before the finalization
    /// probe, so recovery is limited by the protocol, not by luck).
    fn calm(&mut self);

    /// Whether [`Fabric::partition`] does anything here.
    fn supports_partitions(&self) -> bool;

    /// Whether a member here redials its [`Fabric::dialer`] and rejoins
    /// after a presumed leader death (under a liveness wiring). Default:
    /// it does not.
    fn rejoins(&self) -> bool {
        false
    }

    /// The fabric's transport counters (`net.*` names). Default: the
    /// fabric keeps none, so the snapshot is empty.
    fn net_snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// The in-process simulator fabric.
pub struct SimFabric {
    /// The underlying network (exposed for adversary access in tests).
    pub net: SimNet,
    seed: u64,
    /// Latest connection id per member name (a redial supersedes the
    /// previous connection; partition/kill always target the latest).
    /// Shared with the members' dialers, which record each dial.
    conns: Arc<Mutex<HashMap<String, usize>>>,
    /// Members whose wire was killed and not yet healed; their redials
    /// fail until the schedule heals them.
    downed: Arc<Mutex<HashSet<String>>>,
}

impl SimFabric {
    /// Builds a simulator fabric carrying `config` faults. The leader
    /// listens on it as `"leader"`.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        SimFabric {
            net: SimNet::new(config),
            seed: config.seed,
            conns: Arc::new(Mutex::new(HashMap::new())),
            downed: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// A fabric for `schedule` with the full probabilistic fault matrix
    /// seeded from the schedule's seed.
    #[must_use]
    pub fn chaotic(schedule: &Schedule) -> Self {
        Self::new(SimConfig::chaotic(schedule.seed))
    }
}

impl Fabric for SimFabric {
    fn spawn_service(&mut self, config: ServiceConfig) -> LeaderService {
        let listener = self.net.listen("leader").expect("one leader per fabric");
        LeaderService::spawn(Box::new(listener), config)
    }

    fn dialer(&self, name: &str) -> Arc<dyn Dialer> {
        Arc::new(SimMemberDialer {
            inner: self.net.dialer("leader"),
            name: name.to_string(),
            conns: Arc::clone(&self.conns),
            downed: Arc::clone(&self.downed),
            dialled: AtomicBool::new(false),
        })
    }

    fn partition(&mut self, name: &str, to_leader: bool, to_member: bool) {
        if let Some(&conn) = self.conns.lock().get(name) {
            if to_leader {
                self.net.set_blocked(conn, Direction::ToListener, true);
            }
            if to_member {
                self.net.set_blocked(conn, Direction::ToConnector, true);
            }
        }
    }

    fn heal(&mut self, name: &str) {
        self.downed.lock().remove(name);
        if let Some(&conn) = self.conns.lock().get(name) {
            self.net.set_blocked(conn, Direction::ToListener, false);
            self.net.set_blocked(conn, Direction::ToConnector, false);
        }
    }

    fn heal_all(&mut self) {
        self.downed.lock().clear();
        self.net.heal_all();
    }

    fn kill(&mut self, name: &str) {
        self.downed.lock().insert(name.to_string());
        if let Some(&conn) = self.conns.lock().get(name) {
            self.net.kill(conn);
        }
    }

    fn flush(&mut self) {
        self.net.flush_all();
    }

    fn calm(&mut self) {
        self.net.set_config(SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        });
    }

    fn supports_partitions(&self) -> bool {
        true
    }

    fn rejoins(&self) -> bool {
        true
    }

    fn net_snapshot(&self) -> Snapshot {
        self.net.obs_registry().snapshot()
    }
}

/// A simulator member's dialer: records each connection as the one
/// later faults on the member target. A member's first dial is its
/// process starting, which an earlier kill does not prevent; a redial is
/// refused while the member is killed.
struct SimMemberDialer {
    inner: Arc<dyn Dialer>,
    name: String,
    conns: Arc<Mutex<HashMap<String, usize>>>,
    downed: Arc<Mutex<HashSet<String>>>,
    dialled: AtomicBool,
}

impl Dialer for SimMemberDialer {
    fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError> {
        if self.dialled.swap(true, Ordering::Relaxed) && self.downed.lock().contains(&self.name) {
            return Err(NetError::Disconnected);
        }
        let token = self.inner.dial(events)?;
        self.conns.lock().insert(self.name.clone(), token);
        Ok(token)
    }

    fn send_to(&self, token: MuxToken, frame: Frame) -> Result<(), NetError> {
        self.inner.send_to(token, frame)
    }

    fn close(&self, token: MuxToken) {
        self.inner.close(token);
    }
}

/// Shared state of the adversarial TCP proxy.
struct ProxyShared {
    rng: Mutex<StdRng>,
    /// While set, frames pass unharmed.
    calm: AtomicBool,
    /// Probability a relayed frame is dropped (when not calm).
    drop_prob: f64,
    /// Probability a relayed frame is sent twice (when not calm).
    duplicate_prob: f64,
    /// Member names waiting to be matched to the next accepted proxy
    /// connection (the driver serializes connects, so FIFO matching is
    /// exact).
    pending: Mutex<VecDeque<String>>,
    /// Every socket pair the proxy has relayed, per member name (a
    /// reconnect adds its pair), for [`Fabric::kill`] and for the drop.
    socks: Mutex<HashMap<String, Vec<TcpStream>>>,
    /// Set when the fabric is dropped: the acceptor relays no more.
    stop: AtomicBool,
    /// The relay threads, joined when the fabric is dropped.
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// Real TCP through a fault-injecting man-in-the-middle: each member
/// connection is terminated at the proxy, which re-frames it to the
/// leader's readiness loop ([`LeaderService::spawn_mux`]) while dropping
/// or duplicating whole frames under a seeded RNG. Members dial from a
/// second readiness loop. Partitions are not supported (a TCP byte stream
/// cannot half-vanish without killing the connection); kills are.
///
/// Dropping the fabric stops the proxy's threads and both loops, so
/// shut the service down first.
pub struct TcpProxyFabric {
    shared: Arc<ProxyShared>,
    proxy_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// The leader's loop, and its listener until the service takes it.
    leader_net: MuxNet,
    endpoint: Option<MuxEndpoint>,
    /// The loop every member link lives on.
    member_net: MuxNet,
}

impl TcpProxyFabric {
    /// Binds the leader's readiness-loop listener and the proxy in front
    /// of it. `seed` drives the proxy's fault decisions; `drop_prob` /
    /// `duplicate_prob` are per relayed frame.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn new(seed: u64, drop_prob: f64, duplicate_prob: f64) -> Result<Self, NetError> {
        let ephemeral: SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
        let proxy_listener = std::net::TcpListener::bind(ephemeral)
            .map_err(|e| NetError::AcceptFailed(e.to_string()))?;
        let proxy_addr = proxy_listener
            .local_addr()
            .map_err(|e| NetError::AcceptFailed(e.to_string()))?;

        let leader_net = MuxNet::spawn(MuxConfig::default());
        let endpoint = match leader_net.listen_events(ephemeral, 1) {
            Ok(endpoint) => endpoint,
            Err(e) => {
                leader_net.shutdown();
                return Err(e);
            }
        };
        let leader_addr = endpoint.local_addr();

        let shared = Arc::new(ProxyShared {
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x7C9_F417)),
            calm: AtomicBool::new(false),
            drop_prob,
            duplicate_prob,
            pending: Mutex::new(VecDeque::new()),
            socks: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            pumps: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("chaos-tcp-proxy".into())
            .spawn(move || {
                // Blocks in `accept` until the next member connects, or
                // until the fabric's drop sets `stop` and connects once.
                for stream in proxy_listener.incoming() {
                    if accept_shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(member_side) = stream else { continue };
                    let Ok(leader_side) = TcpStream::connect(leader_addr) else {
                        continue;
                    };
                    let name = accept_shared
                        .pending
                        .lock()
                        .pop_front()
                        .unwrap_or_else(|| "?".to_string());
                    let handles = [&member_side, &leader_side]
                        .into_iter()
                        .filter_map(|s| s.try_clone().ok());
                    accept_shared
                        .socks
                        .lock()
                        .entry(name)
                        .or_default()
                        .extend(handles);
                    spawn_pump(&accept_shared, &member_side, &leader_side);
                    spawn_pump(&accept_shared, &leader_side, &member_side);
                }
            })
            .expect("spawn proxy acceptor");

        Ok(TcpProxyFabric {
            shared,
            proxy_addr,
            acceptor: Some(acceptor),
            leader_net,
            endpoint: Some(endpoint),
            member_net: MuxNet::spawn(MuxConfig::default()),
        })
    }
}

impl Drop for TcpProxyFabric {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Wake the acceptor out of `accept` so it sees the flag.
        let _ = TcpStream::connect(self.proxy_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // No pair can be added now: end every relay.
        for sock in self
            .shared
            .socks
            .lock()
            .drain()
            .flat_map(|(_, socks)| socks)
        {
            let _ = sock.shutdown(Shutdown::Both);
        }
        for pump in self.shared.pumps.lock().drain(..) {
            let _ = pump.join();
        }
        self.member_net.shutdown();
        self.leader_net.shutdown();
    }
}

/// Relays length-prefixed frames from `src` to `dst`, applying the
/// proxy's drop/duplicate faults. Both directions share the one seeded
/// RNG, so a fixed seed reproduces the fault pattern for a fixed frame
/// sequence.
fn spawn_pump(shared: &Arc<ProxyShared>, src: &TcpStream, dst: &TcpStream) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let faults = Arc::clone(shared);
    let pump = std::thread::Builder::new()
        .name("chaos-tcp-pump".into())
        .spawn(move || {
            let mut src = std::io::BufReader::new(src);
            let mut dst = std::io::BufWriter::new(dst);
            while let Ok(frame) = read_frame(&mut src) {
                let (drop_it, dup_it) = if faults.calm.load(Ordering::Relaxed) {
                    (false, false)
                } else {
                    let mut rng = faults.rng.lock();
                    (
                        rng.gen::<f64>() < faults.drop_prob,
                        rng.gen::<f64>() < faults.duplicate_prob,
                    )
                };
                if drop_it {
                    continue;
                }
                if write_frame(&mut dst, &frame).is_err() {
                    break;
                }
                if dup_it && write_frame(&mut dst, &frame).is_err() {
                    break;
                }
                if dst.flush().is_err() {
                    break;
                }
            }
            // One side died: drop both halves so the peer notices.
            if let Ok(s) = src.into_inner().try_clone() {
                let _ = s.shutdown(Shutdown::Both);
            }
            if let Ok(d) = dst.into_inner() {
                let _ = d.shutdown(Shutdown::Both);
            }
        });
    if let Ok(pump) = pump {
        shared.pumps.lock().push(pump);
    }
}

impl Fabric for TcpProxyFabric {
    fn spawn_service(&mut self, config: ServiceConfig) -> LeaderService {
        let endpoint = self.endpoint.take().expect("one leader per fabric");
        LeaderService::spawn_mux(endpoint, config)
    }

    /// A proxy member never redials, so its one connection is named to
    /// the proxy's acceptor here.
    fn dialer(&self, name: &str) -> Arc<dyn Dialer> {
        self.shared.pending.lock().push_back(name.to_string());
        self.member_net.dialer(self.proxy_addr)
    }

    fn partition(&mut self, _name: &str, _to_leader: bool, _to_member: bool) {}

    fn heal(&mut self, _name: &str) {}

    fn heal_all(&mut self) {}

    fn kill(&mut self, name: &str) {
        if let Some(handles) = self.shared.socks.lock().remove(name) {
            for sock in handles {
                let _ = sock.shutdown(Shutdown::Both);
            }
        }
    }

    fn flush(&mut self) {}

    fn calm(&mut self) {
        self.shared.calm.store(true, Ordering::Relaxed);
    }

    fn supports_partitions(&self) -> bool {
        false
    }
}
