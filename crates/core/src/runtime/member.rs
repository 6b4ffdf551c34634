//! The member host: the I/O around many [`MemberSession`]s. A session
//! owns every timing decision through [`MemberSession::tick`] and
//! [`MemberSession::next_deadline`], and mints its rejoin through
//! [`MemberSession::rejoin`]. A [`MemberHost`] runs one thread per shard
//! over a [`Dialer`]: it reads all its sessions' connections from one
//! channel, ticks each session from a deadline heap, and redials a lost
//! leader on a backoff scheduled in the same heap. A member costs a thread
//! only when its caller asks for a private host ([`MemberRuntime`]).

use crate::liveness::{Clock, LivenessConfig, RealClock};
use crate::protocol::{MemberEvent, MemberSession, SessionPhase};
use crate::runtime::wait_for;
use crate::CoreError;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use enclaves_net::{Dialer, Frame, MuxEvent, MuxToken};
use enclaves_obs::{EventKind, EventStream, Registry};
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::message::Envelope;
use enclaves_wire::{ActorId, Roster};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a session brings to its host. The application's own view is the
/// session's event sink.
pub struct MemberOptions {
    /// Shares a protocol event stream with the session: deliveries, key
    /// changes, handshake milestones, and ARQ retransmits are emitted onto
    /// it (typically the same stream the leader emits onto, giving one
    /// totally ordered run record).
    pub events: Option<EventStream>,
    /// The timing of the session's [`MemberSession::tick`], its shard's
    /// longest sleep, and its redial backoff. The default
    /// ([`LivenessConfig::member_default`]) retries forever.
    pub liveness: LivenessConfig,
    /// Clock of the private host [`MemberRuntime::run`] spawns (`None`:
    /// real time); a session admitted to a [`MemberHost`] runs on its
    /// host's clock.
    pub clock: Option<Arc<dyn Clock>>,
    /// After a presumed leader death, redial the same dialer and rejoin as
    /// a fresh session; otherwise a lost leader ends the session.
    pub rejoin: bool,
}

impl Default for MemberOptions {
    fn default() -> Self {
        MemberOptions {
            events: None,
            liveness: LivenessConfig::member_default(),
            clock: None,
            rejoin: false,
        }
    }
}

impl std::fmt::Debug for MemberOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberOptions")
            .field("events", &self.events.is_some())
            .field("liveness", &self.liveness)
            .field("clock", &self.clock.as_ref().map(|_| "<injected>"))
            .field("rejoin", &self.rejoin)
            .finish()
    }
}

/// The redial backoff's jitter tag, distinct from the session's handshake
/// ARQ tag (0) so their jitter streams do not collide.
const RECONNECT_CHANNEL: u64 = 1;

/// The longest a shard with no armed timer sleeps.
const IDLE_WAIT: Duration = Duration::from_secs(1);

/// A dialer never delivers `Accepted` on a member's channel, so a shard's
/// doorbell is one: read the admissions.
const DOORBELL: MuxEvent = MuxEvent::Accepted { token: 0 };

/// One hosted session, shared by its handle and its shard. The shard
/// calls the sink under the lock, so a sink must not call back into its
/// handle.
struct Seat {
    session: MemberSession,
    /// `None` between a lost leader and the redial that replaces it.
    token: Option<MuxToken>,
    /// Cleared once the host stops driving the session: it left, was
    /// abandoned, or lost its leader without rejoining.
    hosted: bool,
    liveness: LivenessConfig,
    rejoin: bool,
    stream: Option<EventStream>,
    sink: Box<dyn FnMut(MemberEvent) + Send>,
    /// Dials since the session last accepted a frame, its admission's
    /// own included. A loss redials at once only when this is 0, and
    /// otherwise after the backoff for this count, so a peer that accepts
    /// and resets every connection is not redialled as fast as it resets.
    attempt: u32,
    /// The deadline of this session's live heap entry; others are stale.
    due: Option<Duration>,
}

/// Many member sessions on one thread per shard. A shard owns its
/// sessions, the one channel its [`Dialer`] connections deliver to, and a
/// heap of their deadlines. Dropping the host joins its threads; a session
/// still admitted is no longer driven, and its handle closes its
/// connection when dropped.
pub struct MemberHost {
    dialer: Arc<dyn Dialer>,
    shards: Vec<(Sender<MuxEvent>, Sender<Admission>, JoinHandle<()>)>,
    next: AtomicUsize,
}

/// A session's first connection and its seat, from `admit` to the shard.
type Admission = (MuxToken, Arc<Mutex<Seat>>);

impl MemberHost {
    /// Starts `shards` (at least one) threads named `enclaves-member`
    /// that reach the leader through `dialer`, timed by `clock`.
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    #[must_use]
    pub fn spawn(dialer: Arc<dyn Dialer>, shards: usize, clock: Arc<dyn Clock>) -> Self {
        let shards = (0..shards.max(1))
            .map(|_| {
                let (inbox_tx, inbox) = unbounded();
                let (admit_tx, admits) = unbounded();
                let shard = Shard {
                    dialer: Arc::clone(&dialer),
                    clock: Arc::clone(&clock),
                    inbox_tx: inbox_tx.clone(),
                    inbox,
                    admits,
                    seats: HashMap::new(),
                    tokens: HashMap::new(),
                    closed_early: HashSet::new(),
                    heap: BinaryHeap::new(),
                    cap: IDLE_WAIT,
                };
                let thread = std::thread::Builder::new()
                    .name("enclaves-member".into())
                    .spawn(move || shard.run())
                    .expect("spawn member host shard");
                (inbox_tx, admit_tx, thread)
            })
            .collect();
        MemberHost {
            dialer,
            shards,
            next: AtomicUsize::new(0),
        }
    }

    /// Dials a connection for `session` on the next shard, sends `init`
    /// (its `AuthInitReq`) and drives the session from then on, handing
    /// its [`MemberEvent`]s to `sink` on the shard's thread. With an event
    /// stream, `JoinStarted` is emitted before the init leaves.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn admit(
        &self,
        mut session: MemberSession,
        init: Envelope,
        options: MemberOptions,
        sink: impl FnMut(MemberEvent) + Send + 'static,
    ) -> Result<HostedMember, CoreError> {
        let (inbox, admits, _) =
            &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        let token = self.dialer.dial(inbox)?;
        if let Some(events) = &options.events {
            events.emit(EventKind::JoinStarted {
                member: init.sender.to_string(),
            });
            session.set_event_stream(events.clone());
        }
        let member = HostedMember {
            seat: Arc::new(Mutex::new(Seat {
                session,
                token: Some(token),
                hosted: true,
                liveness: options.liveness,
                rejoin: options.rejoin,
                stream: options.events,
                sink: Box::new(sink),
                attempt: 1,
                due: None,
            })),
            dialer: Arc::clone(&self.dialer),
        };
        // Admitted before the init leaves, so before any answer to it.
        admits
            .send((token, Arc::clone(&member.seat)))
            .map_err(|_| CoreError::RuntimeGone)?;
        let _ = inbox.send(DOORBELL);
        self.dialer.send_to(token, wire(&init))?;
        Ok(member)
    }
}

impl Drop for MemberHost {
    fn drop(&mut self) {
        for (inbox, admits, thread) in self.shards.drain(..) {
            drop(admits);
            let _ = inbox.send(DOORBELL);
            let _ = thread.join();
        }
    }
}

fn wire(env: &Envelope) -> Frame {
    encode(env).into()
}

/// Why a shard drives a session.
enum Cause<'a> {
    Admitted,
    /// Its heap entry for this deadline came due (stale unless still live).
    Due(Duration),
    /// A frame on one of its connections (stale unless the current one).
    Frame(MuxToken, &'a [u8]),
    /// One of its connections closed (stale unless the current one).
    Closed(MuxToken),
}

/// One shard's loop state.
struct Shard {
    dialer: Arc<dyn Dialer>,
    clock: Arc<dyn Clock>,
    inbox_tx: Sender<MuxEvent>,
    inbox: Receiver<MuxEvent>,
    admits: Receiver<Admission>,
    /// Sessions by their first connection's token.
    seats: HashMap<MuxToken, Arc<Mutex<Seat>>>,
    /// Each connection's session, until the connection's `Closed`.
    tokens: HashMap<MuxToken, MuxToken>,
    /// Connections whose `Closed` came before their admission was read.
    closed_early: HashSet<MuxToken>,
    heap: BinaryHeap<Reverse<(Duration, MuxToken)>>,
    /// The longest wait between clock readings: the smallest `poll` of the
    /// sessions admitted, since a virtual clock advances independently of
    /// real time.
    cap: Duration,
}

impl Shard {
    fn run(mut self) {
        loop {
            let now = self.clock.now();
            while let Some(&Reverse((due, id))) = self.heap.peek().filter(|e| e.0 .0 <= now) {
                self.heap.pop();
                self.drive(id, Cause::Due(due));
            }
            let next = self.heap.peek().map(|e| e.0 .0.saturating_sub(now));
            let event = self
                .inbox
                .recv_timeout(next.unwrap_or(IDLE_WAIT).min(self.cap));
            // Admissions first: an event can only be for a session whose
            // admission was queued before it.
            loop {
                match self.admits.try_recv() {
                    Ok((token, seat)) => {
                        self.cap = self.cap.min(seat.lock().liveness.poll);
                        self.tokens.insert(token, token);
                        self.seats.insert(token, seat);
                        self.drive(token, Cause::Admitted);
                        if self.closed_early.remove(&token) {
                            self.tokens.remove(&token);
                            self.drive(token, Cause::Closed(token));
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            match event {
                Ok(MuxEvent::Frame { token, frame }) => {
                    if let Some(&id) = self.tokens.get(&token) {
                        self.drive(id, Cause::Frame(token, &frame));
                    }
                }
                Ok(MuxEvent::Closed { token }) => match self.tokens.remove(&token) {
                    Some(id) => self.drive(id, Cause::Closed(token)),
                    None => {
                        self.closed_early.insert(token);
                    }
                },
                Ok(MuxEvent::Accepted { .. }) | Err(_) => {}
            }
        }
    }

    /// Drives session `id`: handles a frame and sends the reply, ticks the
    /// session or redials its leader, and pushes its next deadline.
    fn drive(&mut self, id: MuxToken, cause: Cause<'_>) {
        let Some(seat) = self.seats.get(&id).cloned() else {
            return;
        };
        let mut guard = seat.lock();
        let s = &mut *guard;
        if !s.hosted {
            self.seats.remove(&id);
            return;
        }
        match cause {
            Cause::Due(due) if s.due != Some(due) => return,
            Cause::Due(_) => s.due = None,
            Cause::Frame(token, _) | Cause::Closed(token) if s.token != Some(token) => return,
            Cause::Closed(_) => return self.lose(id, s),
            Cause::Admitted | Cause::Frame(..) => {}
        }
        let Some(token) = s.token else {
            return self.redial(id, s);
        };
        // Rejected traffic is dropped; `member.rejected` counts it.
        if let Cause::Frame(_, frame) = cause {
            let env = decode::<Envelope>(frame).ok();
            if let Some(output) = env.and_then(|env| s.session.handle(&env).ok()) {
                s.attempt = 0;
                if let Some(reply) = output.reply {
                    let _ = self.dialer.send_to(token, wire(&reply));
                }
                output.events.into_iter().for_each(&mut s.sink);
            }
        }
        let tick = s.session.tick(self.clock.now(), &s.liveness);
        for env in &tick.frames {
            let _ = self.dialer.send_to(token, wire(env));
        }
        if tick.leader_lost {
            self.lose(id, s);
        } else {
            self.push(id, s, s.session.next_deadline(&s.liveness));
        }
    }

    /// Makes `due` the session's live heap entry, unless it already is.
    fn push(&mut self, id: MuxToken, s: &mut Seat, due: Option<Duration>) {
        if due != s.due {
            s.due = due;
            self.heap.extend(due.map(|d| Reverse((d, id))));
        }
    }

    /// The session's connection closed, or its tick presumed the leader
    /// dead: close the connection, then redial — at once if the session
    /// had accepted a frame since its last dial, else on the backoff — or
    /// let it go.
    fn lose(&mut self, id: MuxToken, s: &mut Seat) {
        if let Some(token) = s.token.take() {
            self.dialer.close(token);
        }
        s.hosted &= s.rejoin;
        if !s.hosted {
            // The session's events end here: its sink goes now, not with
            // its handle.
            s.sink = Box::new(drop);
            self.seats.remove(&id);
            return;
        }
        if let Some(stream) = &s.stream {
            stream.emit(EventKind::LeaderLost {
                member: s.session.user().to_string(),
            });
        }
        (s.sink)(MemberEvent::LeaderLost);
        let redial = match s.attempt {
            0 => Duration::ZERO,
            n => self.clock.now() + s.liveness.jittered_delay(n, RECONNECT_CHANNEL),
        };
        self.push(id, s, Some(redial));
    }

    /// Dials a new connection and rejoins on it as a fresh session, or
    /// pushes the next try on the backoff.
    fn redial(&mut self, id: MuxToken, s: &mut Seat) {
        s.attempt = s.attempt.saturating_add(1);
        let Ok(token) = self.dialer.dial(&self.inbox_tx) else {
            let retry = self.clock.now() + s.liveness.jittered_delay(s.attempt, RECONNECT_CHANNEL);
            return self.push(id, s, Some(retry));
        };
        let (session, init) = s.session.rejoin();
        // Announce the join before the init frame can reach the wire.
        if let Some(stream) = &s.stream {
            stream.emit(EventKind::JoinStarted {
                member: init.sender.to_string(),
            });
        }
        s.session = session;
        s.token = Some(token);
        self.tokens.insert(token, id);
        (s.sink)(MemberEvent::RejoinStarted);
        let _ = self.dialer.send_to(token, wire(&init));
        self.push(id, s, Some(Duration::ZERO));
    }
}

/// The handle on one hosted session. Dropping it abandons the session:
/// the host forgets it and closes its connection without a close frame.
pub struct HostedMember {
    seat: Arc<Mutex<Seat>>,
    dialer: Arc<dyn Dialer>,
}

impl HostedMember {
    /// Leaves the group: returns once the close frame was handed to the
    /// transport, ahead of the connection's close.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected.
    pub fn leave(self) -> Result<(), CoreError> {
        let mut s = self.seat.lock();
        let env = s.session.leave()?;
        if let Some(token) = s.token.filter(|_| s.hosted) {
            let _ = self.dialer.send_to(token, wire(&env));
        }
        Ok(())
    }
}

impl Drop for HostedMember {
    fn drop(&mut self) {
        let mut s = self.seat.lock();
        s.hosted = false;
        if let Some(token) = s.token.take() {
            self.dialer.close(token);
        }
    }
}

/// One member on a private one-shard [`MemberHost`], with its events on a
/// channel and blocking convenience waiters.
pub struct MemberRuntime {
    member: HostedMember,
    events_rx: Receiver<MemberEvent>,
    /// Dropped after `member`: the session is abandoned, then the host's
    /// thread exits.
    _host: MemberHost,
}

impl std::fmt::Debug for MemberRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberRuntime").finish_non_exhaustive()
    }
}

impl MemberRuntime {
    /// Connects through `dialer` with a password, untagged and with
    /// default options, starting the authentication handshake immediately.
    ///
    /// # Errors
    ///
    /// Propagates key-derivation or transport failures.
    pub fn connect(
        dialer: Arc<dyn Dialer>,
        user: ActorId,
        leader: ActorId,
        password: &str,
    ) -> Result<Self, CoreError> {
        let (session, init) = MemberSession::start_in_group(user, leader, password, None)?;
        Self::run(dialer, session, init, MemberOptions::default())
    }

    /// Runs the session it is handed on a private host: dials through
    /// `dialer` and sends `init` (the session's `AuthInitReq`).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn run(
        dialer: Arc<dyn Dialer>,
        session: MemberSession,
        init: Envelope,
        options: MemberOptions,
    ) -> Result<Self, CoreError> {
        let clock = options.clock.clone();
        let host = MemberHost::spawn(
            dialer,
            1,
            clock.unwrap_or_else(|| Arc::new(RealClock::new())),
        );
        let (events_tx, events_rx) = unbounded();
        let member = host.admit(session, init, options, move |e| {
            let _ = events_tx.send(e);
        })?;
        Ok(MemberRuntime {
            member,
            events_rx,
            _host: host,
        })
    }

    /// The member's event stream.
    #[must_use]
    pub fn events(&self) -> &Receiver<MemberEvent> {
        &self.events_rx
    }

    /// Current session phase.
    #[must_use]
    pub fn phase(&self) -> SessionPhase {
        self.member.seat.lock().session.phase()
    }

    /// The member's current roster view.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.member.seat.lock().session.roster()
    }

    /// The group-key epoch currently held.
    #[must_use]
    pub fn group_epoch(&self) -> Option<u64> {
        self.member.seat.lock().session.group_epoch()
    }

    /// The session's metric registry (`member.*` names); snapshots taken
    /// from it see the live counters. Rejoin sessions re-home onto the
    /// same registry, so the counters accumulate across generations.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.member.seat.lock().session.obs_registry()
    }

    /// Blocks until an event matching `pred` arrives, returning it.
    ///
    /// Non-matching events are consumed in the process (use a dedicated
    /// event-drain thread if the application needs all of them).
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the deadline passes first.
    pub fn wait_event(
        &self,
        timeout: Duration,
        pred: impl FnMut(&MemberEvent) -> bool,
    ) -> Result<MemberEvent, CoreError> {
        wait_for(&self.events_rx, timeout, pred).map_err(|()| CoreError::Timeout("member event"))
    }

    /// Blocks until the welcome (roster + group key) arrives.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the deadline passes first.
    pub fn wait_joined(&self, timeout: Duration) -> Result<(), CoreError> {
        self.wait_event(timeout, |e| matches!(e, MemberEvent::Welcomed { .. }))
            .map(|_| ())
            .map_err(|_| CoreError::Timeout("welcome"))
    }

    /// Sends application data to the group (via the leader relay). Between
    /// a lost leader and the rejoin the frame has nowhere to go.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] before the welcome, [`CoreError::RuntimeGone`]
    /// once the host no longer drives the session.
    pub fn send_group_data(&self, data: &[u8]) -> Result<(), CoreError> {
        let mut s = self.member.seat.lock();
        let env = s.session.send_group_data(data)?;
        match (s.hosted, s.token) {
            (false, _) => Err(CoreError::RuntimeGone),
            (true, Some(token)) => Ok(self.member.dialer.send_to(token, wire(&env))?),
            (true, None) => Ok(()),
        }
    }

    /// Leaves the group and stops the host: returns once the close frame
    /// was handed to the transport.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected.
    pub fn leave(self) -> Result<(), CoreError> {
        self.member.leave()
    }

    /// Stops the host without sending a close (simulates a crash), as a
    /// drop does.
    pub fn abandon(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::VirtualClock;
    use crossbeam_channel::RecvTimeoutError;
    use enclaves_crypto::keys::LongTermKey;
    use enclaves_crypto::rng::SeededRng;
    use enclaves_net::NetError;

    /// Numbers its connections from 0. Once armed with `(earlier, release)`,
    /// its next dial closes the new connection and then `earlier` before
    /// returning, and returns only when `release` fires.
    #[derive(Default)]
    struct ScriptedDialer {
        next: AtomicUsize,
        armed: Mutex<Option<(MuxToken, Receiver<()>)>>,
    }

    impl Dialer for ScriptedDialer {
        fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError> {
            let token = self.next.fetch_add(1, Ordering::Relaxed);
            if let Some((earlier, release)) = self.armed.lock().take() {
                let _ = events.send(MuxEvent::Closed { token });
                let _ = events.send(MuxEvent::Closed { token: earlier });
                let _ = release.recv();
            }
            Ok(token)
        }

        fn send_to(&self, _: MuxToken, _: Frame) -> Result<(), NetError> {
            Ok(())
        }

        fn close(&self, _: MuxToken) {}
    }

    /// Admits a session that does not rejoin; its events go to the
    /// returned channel, which disconnects once the host lets it go.
    fn admit(host: &MemberHost) -> (HostedMember, Receiver<MemberEvent>) {
        admit_with(host, MemberOptions::default())
    }

    fn admit_with(
        host: &MemberHost,
        options: MemberOptions,
    ) -> (HostedMember, Receiver<MemberEvent>) {
        let (session, init) = MemberSession::start_with_key_in_group(
            ActorId::new("alice").unwrap(),
            ActorId::new("leader").unwrap(),
            LongTermKey::from_bytes([7; 32]),
            Box::new(SeededRng::from_seed(1)),
            None,
        );
        let (tx, rx) = unbounded();
        let sink = move |e| {
            let _ = tx.send(e);
        };
        let member = host.admit(session, init, options, sink);
        (member.unwrap(), rx)
    }

    /// Accepts every dial and closes the new connection at once, the
    /// first `resets` times; notes the clock's reading at each dial.
    struct ResettingDialer {
        clock: VirtualClock,
        resets: usize,
        dials: Mutex<Vec<Duration>>,
    }

    impl Dialer for ResettingDialer {
        fn dial(&self, events: &Sender<MuxEvent>) -> Result<MuxToken, NetError> {
            let mut dials = self.dials.lock();
            dials.push(self.clock.now());
            let token = dials.len();
            if token <= self.resets {
                let _ = events.send(MuxEvent::Closed { token });
            }
            Ok(token)
        }

        fn send_to(&self, _: MuxToken, _: Frame) -> Result<(), NetError> {
            Ok(())
        }

        fn close(&self, _: MuxToken) {}
    }

    /// A peer that accepts and resets every connection before a frame
    /// crosses it: each redial waits out the backoff for the dials made
    /// since the session last accepted a frame, rather than following
    /// the reset at once.
    #[test]
    fn a_peer_that_resets_every_connection_is_redialled_on_the_backoff() {
        const RESETS: usize = 4;
        let clock = VirtualClock::new();
        let dialer = Arc::new(ResettingDialer {
            clock: clock.clone(),
            resets: RESETS,
            dials: Mutex::new(Vec::new()),
        });
        let host = MemberHost::spawn(dialer.clone(), 1, Arc::new(clock.clone()));
        let liveness = LivenessConfig {
            poll: Duration::from_millis(1),
            retransmit_base: Duration::from_millis(100),
            retransmit_max: Duration::from_millis(800),
            jitter_pct: 100,
            ..LivenessConfig::default()
        };
        let options = MemberOptions {
            liveness: liveness.clone(),
            rejoin: true,
            ..MemberOptions::default()
        };
        let (_member, _events) = admit_with(&host, options);
        let give_up = std::time::Instant::now() + Duration::from_secs(20);
        while dialer.dials.lock().len() <= RESETS && std::time::Instant::now() < give_up {
            clock.advance(Duration::from_millis(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        let dials = dialer.dials.lock().clone();
        assert_eq!(dials.len(), RESETS + 1, "dialled at {dials:?}");
        for (n, pair) in dials.windows(2).enumerate() {
            let attempt = u32::try_from(n + 1).unwrap();
            let backoff = liveness.jittered_delay(attempt, RECONNECT_CHANNEL);
            assert!(
                pair[1] - pair[0] >= backoff,
                "dial {} came {:?} after the last, before the {backoff:?} backoff ({dials:?})",
                n + 1,
                pair[1] - pair[0]
            );
        }
    }

    /// A connection can close before the shard reads the admission of its
    /// session: here the shard handles the new connection's `Closed`, then
    /// an earlier session's, while the admission is still being made. The
    /// session must still lose its leader once admitted.
    #[test]
    fn a_connection_closed_before_its_admission_still_loses_the_leader() {
        let dialer = Arc::new(ScriptedDialer::default());
        let host = MemberHost::spawn(dialer.clone(), 1, Arc::new(RealClock::new()));
        let wait = Duration::from_secs(5);
        let (_first, first_events) = admit(&host);
        let (release_tx, release) = unbounded();
        *dialer.armed.lock() = Some((0, release));
        std::thread::scope(|scope| {
            let second = scope.spawn(|| admit(&host));
            // The earlier session let go: its `Closed`, and so the new
            // connection's before it, were handled with the admission
            // still pending.
            assert_eq!(
                first_events.recv_timeout(wait),
                Err(RecvTimeoutError::Disconnected)
            );
            release_tx.send(()).unwrap();
            let (second, events) = second.join().unwrap();
            assert_eq!(
                events.recv_timeout(wait),
                Err(RecvTimeoutError::Disconnected)
            );
            assert!(!second.seat.lock().hosted);
        });
    }
}
