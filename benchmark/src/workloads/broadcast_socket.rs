//! `broadcast_socket`: the data plane over real loopback TCP.
//!
//! `LeaderService::spawn_mux` on a one-shard event-mode listener; every
//! member is a session on its own connection, all multiplexed through
//! one client `MuxNet` whose events the generator thread consumes. Set-up
//! is the socket join storm (everyone connects at once, then stale
//! members resynchronise by heartbeat, as deployed members do). The
//! timed operations are closed-loop `broadcast_data` calls: one seal,
//! then the transport and the members' opens do the work.

use super::{crypto_probes, Probes, Round, RunConfig, Workload};
use crate::seed::SeedRng;
use crate::sut::{self, ClientEvent, Fail, Identity, Member, SocketClients, SocketLeader};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

const TAG: &str = "cast";
const SMALL: usize = 64;
const LARGE: usize = 4096;
/// One payload in this many is [`LARGE`]; the position inside each block
/// is drawn by seed, so the byte count does not depend on the seed.
const BLOCK: usize = 8;
/// Longest the generator waits for any one event before giving up on the
/// operation in flight.
const OP_DEADLINE: Duration = Duration::from_secs(10);
const STORM_DEADLINE: Duration = Duration::from_secs(120);

pub struct BroadcastSocket {
    seed: u64,
    members: usize,
    broadcasts: usize,
    heartbeats: usize,
}

impl BroadcastSocket {
    pub fn new(cfg: &RunConfig) -> Self {
        BroadcastSocket {
            seed: cfg.seed,
            members: cfg.scale.pick(256, 8),
            broadcasts: cfg.scale.pick(1000, 32),
            heartbeats: cfg.scale.pick(200, 8),
        }
    }
}

struct Peer {
    member: Member,
    started: Instant,
    welcomed: bool,
}

/// The member side of the rig: sessions keyed by connection.
struct Swarm {
    clients: SocketClients,
    peers: HashMap<usize, Peer>,
    welcomed: usize,
    join_ns: Vec<u64>,
}

/// What handling one event yielded.
enum Seen {
    /// A data-plane payload some member opened, and the length of the
    /// frame that carried it.
    Data {
        payload: Vec<u8>,
        frame_len: usize,
    },
    /// Protocol traffic, handled.
    Other,
    Idle,
}

impl Swarm {
    /// Waits for one event and runs it through its member's session,
    /// sending any reply. Handshake-era rejections are expected (a
    /// `PathUpdate` can overtake the `PathSync` that would let the member
    /// follow it) and are repaired by [`Swarm::resync`].
    fn pump(&mut self, tr: &mut Tracer, wait: Duration) -> Result<Seen, Fail> {
        let (token, bytes) = match self.clients.recv(tr, wait) {
            ClientEvent::Frame { token, bytes } => (token, bytes),
            ClientEvent::Closed { token } => {
                return Err(format!("connection {token} closed under the benchmark"))
            }
            ClientEvent::Idle => return Ok(Seen::Idle),
        };
        let Some(peer) = self.peers.get_mut(&token) else {
            return Ok(Seen::Other);
        };
        let env = sut::decode(tr, &bytes)?;
        let Ok(mut out) = peer.member.handle(tr, &env) else {
            return Ok(Seen::Other);
        };
        if let Some(reply) = out.reply {
            self.clients.send(token, sut::encode(tr, &reply))?;
        }
        if out.welcomed.is_some() && !peer.welcomed {
            peer.welcomed = true;
            self.welcomed += 1;
            let ns = u64::try_from(peer.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.join_ns.push(ns);
        }
        Ok(match out.data.pop() {
            Some(payload) => Seen::Data {
                payload,
                frame_len: bytes.len(),
            },
            None => Seen::Other,
        })
    }

    /// Has every member that is behind the leader's epoch ping it (the
    /// leader answers a stale ping with a `PathSync`), until all agree.
    fn resync(&mut self, tr: &mut Tracer, leader: &SocketLeader) -> Result<(), Fail> {
        let deadline = Instant::now() + STORM_DEADLINE;
        loop {
            let epoch = leader.epoch();
            let mut stale = 0;
            for (token, peer) in &mut self.peers {
                if peer.member.epoch() != epoch {
                    stale += 1;
                    let ping = peer.member.heartbeat(tr)?;
                    self.clients.send(*token, sut::encode(tr, &ping))?;
                }
            }
            if stale == 0 && leader.quiesced() {
                return Ok(());
            }
            // Drain until the transport has been quiet for a moment.
            while !matches!(self.pump(tr, Duration::from_millis(20))?, Seen::Idle) {}
            if Instant::now() > deadline {
                return Err(format!("{stale} members never reached epoch {epoch:?}"));
            }
        }
    }
}

impl Workload for BroadcastSocket {
    fn name(&self) -> &'static str {
        "broadcast_socket"
    }

    fn round(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<Round, Fail> {
        let mut round = Round::default();
        let setup = Instant::now();
        let mut rng = SeedRng::new(self.seed).fork(2);
        let mut users: Vec<Identity> = (0..self.members).map(Identity::numbered).collect();
        rng.shuffle(&mut users);
        let leader = SocketLeader::spawn(TAG, &users)?;
        let mut swarm = Swarm {
            clients: SocketClients::spawn(),
            peers: HashMap::with_capacity(self.members),
            welcomed: 0,
            join_ns: Vec::with_capacity(self.members),
        };
        let spawned = setup.elapsed();
        let outcome = self.drive(tr, &mut rng, &users, &leader, &mut swarm, &mut round);
        swarm.clients.shutdown();
        leader.shutdown();
        // `drive` timed set-up from its own start; spawning came before.
        round.setup_s += spawned.as_secs_f64();
        outcome.map(|()| round)
    }

    fn probes(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<Probes, Fail> {
        Ok(crypto_probes(tr, LARGE))
    }
}

impl BroadcastSocket {
    /// Everything between spawning the two sides and shutting them down.
    fn drive(
        &self,
        tr: &mut Tracer,
        rng: &mut SeedRng,
        users: &[Identity],
        leader: &SocketLeader,
        swarm: &mut Swarm,
        round: &mut Round,
    ) -> Result<(), Fail> {
        // The socket join storm: everyone connects and sends its first
        // handshake message back to back. Between connects the generator
        // handles whatever has already come back, without waiting, so the
        // backlog of undelivered frames (and with it the peak resident
        // set) does not depend on how far the leader got meanwhile.
        let storm = Instant::now();
        for user in users {
            let token = swarm.clients.connect(leader.addr())?;
            let (member, init) = Member::start(tr, user, TAG, rng.next_u64());
            swarm.clients.send(token, sut::encode(tr, &init))?;
            swarm.peers.insert(
                token,
                Peer {
                    member,
                    started: Instant::now(),
                    welcomed: false,
                },
            );
            while !matches!(swarm.pump(tr, Duration::ZERO)?, Seen::Idle) {}
        }
        while swarm.welcomed < self.members {
            if matches!(swarm.pump(tr, Duration::from_millis(200))?, Seen::Idle)
                && storm.elapsed() > STORM_DEADLINE
            {
                return Err(format!("join storm stalled at {} members", swarm.welcomed));
            }
        }
        swarm.resync(tr, leader)?;
        round.counts.join_storm_ms = vec![storm.elapsed().as_secs_f64() * 1e3];
        round.counts.socket_join_ns = std::mem::take(&mut swarm.join_ns);
        if leader.roster_len() != self.members {
            return Err(format!(
                "roster holds {} after the storm",
                leader.roster_len()
            ));
        }

        // The payload schedule: exactly one LARGE per BLOCK, with the
        // warm-up a whole number of blocks so the timed bytes are the
        // same for every seed.
        let warm = self.broadcasts.div_ceil(100).next_multiple_of(BLOCK);
        let total = warm + self.broadcasts;
        let large_at: Vec<usize> = (0..total.div_ceil(BLOCK))
            .map(|_| rng.below(BLOCK))
            .collect();
        let mut payload = vec![0u8; LARGE];
        let (mut leader_before, _) = leader.snapshot(tr);
        let mut mux_before = leader.mux_counters();
        let mut timed = Instant::now();
        for k in 0..total {
            if k == warm {
                round.setup_s = storm.elapsed().as_secs_f64();
                leader_before = leader.snapshot(tr).0;
                mux_before = leader.mux_counters();
                timed = Instant::now();
            }
            let len = if large_at[k / BLOCK] == k % BLOCK {
                LARGE
            } else {
                SMALL
            };
            rng.fill(&mut payload[..len]);
            payload[..8].copy_from_slice(&(k as u64).to_le_bytes());
            let measured = k >= warm;
            let op = if measured {
                tr.begin_op("op.broadcast")
            } else {
                crate::trace::NO_SPAN
            };
            let started = Instant::now();
            let outcome = self.one_broadcast(tr, leader, swarm, &payload[..len], round, measured);
            tr.end_op(op);
            if measured {
                if outcome.is_ok() {
                    round.work_units += self.members as f64;
                }
                round.op(started, outcome);
            } else {
                outcome?;
            }
        }
        round.timed_s = timed.elapsed().as_secs_f64();
        let (leader_after, _) = leader.snapshot(tr);
        round.counts.leader = leader_after.since(&leader_before);
        round.counts.mux = leader.mux_counters().since(&mux_before);
        round.counts.ops = round.attempted;
        round.bytes_over = round.attempted;
        round.bytes = round.counts.wire.leader_bytes_out;
        round.counts.threads = super::process_threads();

        // Idle-member heartbeat round trips and a service snapshot, for
        // the per-layer report only.
        if tr.is_on() {
            tr.set_probing(true);
            let tokens: Vec<usize> = swarm.peers.keys().copied().collect();
            for h in 0..self.heartbeats {
                let token = tokens[h % tokens.len()];
                let started = Instant::now();
                let peer = swarm
                    .peers
                    .get_mut(&token)
                    .expect("token came from the map");
                let ping = peer.member.heartbeat(tr)?;
                swarm.clients.send(token, sut::encode(tr, &ping))?;
                if matches!(swarm.pump(tr, OP_DEADLINE)?, Seen::Idle) {
                    return Err("heartbeat went unanswered".into());
                }
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                round.counts.heartbeat_rtt_ns.push(ns);
            }
            for _ in 0..8 {
                let (_, took) = leader.snapshot(tr);
                round
                    .counts
                    .snapshot_ns
                    .push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
            }
            tr.set_probing(false);
        }
        Ok(())
    }

    /// One closed-loop broadcast: the call, then every member's verified
    /// delivery.
    fn one_broadcast(
        &self,
        tr: &mut Tracer,
        leader: &SocketLeader,
        swarm: &mut Swarm,
        payload: &[u8],
        round: &mut Round,
        measured: bool,
    ) -> Result<(), Fail> {
        let recipients = leader.broadcast(tr, payload)?;
        let returned = Instant::now();
        if recipients != self.members {
            return Err(format!("broadcast addressed to {recipients} members"));
        }
        if measured {
            let queued = leader.mux_counters().queued_bytes;
            round.counts.queued_bytes_peak = round.counts.queued_bytes_peak.max(queued);
        }
        let mut delivered = 0;
        let mut frame_bytes = 0u64;
        while delivered < self.members {
            match swarm.pump(tr, OP_DEADLINE)? {
                Seen::Data {
                    payload: opened,
                    frame_len,
                } => {
                    if opened != payload {
                        return Err("a member opened a different payload".into());
                    }
                    delivered += 1;
                    frame_bytes = frame_len as u64;
                    if measured && tr.is_on() {
                        let ns = u64::try_from(returned.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        if payload.len() == LARGE {
                            round.counts.transit_large_ns.push(ns);
                        } else {
                            round.counts.transit_small_ns.push(ns);
                        }
                    }
                }
                Seen::Other => {}
                Seen::Idle => {
                    return Err(format!(
                        "{delivered} of {} deliveries arrived",
                        self.members
                    ))
                }
            }
        }
        if measured {
            let wire = &mut round.counts.wire;
            wire.frames += 1;
            wire.frame_bytes += frame_bytes;
            wire.leader_bytes_out += frame_bytes * recipients as u64;
            wire.sealed_bytes_out += payload.len() as u64;
        }
        Ok(())
    }
}
