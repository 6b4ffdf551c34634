//! The threaded member runtime: the I/O around a [`MemberSession`]. The
//! session owns every timing decision (handshake resends, heartbeats,
//! leader-silence detection) through [`MemberSession::tick`] and mints
//! its rejoin through [`MemberSession::rejoin`]; the worker thread reads
//! the clock, moves frames between the link and the session, and
//! reconnects with backoff when the leader is lost.

use crate::liveness::{Clock, LivenessConfig, RealClock};
use crate::protocol::{MemberEvent, MemberSession, SessionPhase};
use crate::runtime::wait_for;
use crate::CoreError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use enclaves_net::{Frame, Link, NetError};
use enclaves_obs::{EventKind, EventStream, Registry};
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::message::Envelope;
use enclaves_wire::{ActorId, Roster};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builds a replacement [`Link`] to the leader. The rejoin loop calls it
/// (with backoff) after presuming the leader or the wire dead; an `Err`
/// means "not reachable yet, try again later".
pub type Reconnector = Box<dyn Fn() -> Result<Box<dyn Link>, NetError> + Send>;

/// Optional hooks for a [`MemberRuntime`]: the protocol event stream a
/// harness audits the member through, and the liveness knobs for the
/// member's ARQ / heartbeat / rejoin machinery. The application's own
/// view is [`MemberRuntime::events`].
pub struct MemberOptions {
    /// Shares a protocol event stream with the session: deliveries, key
    /// changes, handshake milestones, and ARQ retransmits are emitted onto
    /// it (typically the same stream the leader emits onto, giving one
    /// totally ordered run record).
    pub events: Option<EventStream>,
    /// The timing the session's [`MemberSession::tick`] runs on, plus the
    /// worker's poll cadence and reconnect backoff. The default
    /// ([`LivenessConfig::member_default`]) reproduces the historical
    /// fixed-cadence, retry-forever behavior.
    pub liveness: LivenessConfig,
    /// Clock driving every liveness deadline; `None` means real monotonic
    /// time. Chaos tests inject a [`crate::liveness::VirtualClock`].
    pub clock: Option<Arc<dyn Clock>>,
    /// How to re-reach the leader after a presumed death. With this hook
    /// the runtime reconnects and rejoins as a fresh session; without it
    /// a lost leader ends the runtime.
    pub reconnect: Option<Reconnector>,
}

impl Default for MemberOptions {
    fn default() -> Self {
        MemberOptions {
            events: None,
            liveness: LivenessConfig::member_default(),
            clock: None,
            reconnect: None,
        }
    }
}

impl std::fmt::Debug for MemberOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberOptions")
            .field("events", &self.events.is_some())
            .field("liveness", &self.liveness)
            .field("clock", &self.clock.as_ref().map(|_| "<injected>"))
            .field("reconnect", &self.reconnect.is_some())
            .finish()
    }
}

/// What the application hands the worker to write.
enum Out {
    /// A frame for the current link.
    Frame(Frame),
    /// A write barrier: the worker acks once every frame queued before it
    /// has been handed to the link (the queue is FIFO and the worker
    /// writes it in order, so the ack proves the earlier frames left).
    Flush(Sender<()>),
}

struct Shared {
    session: Mutex<MemberSession>,
    out_tx: Sender<Out>,
    running: AtomicBool,
}

/// Why one session loop ended.
enum LoopExit {
    /// `running` was cleared (leave/abandon/shutdown).
    Stopped,
    /// The link failed, or the session's tick presumed the leader lost.
    LeaderLost,
}

/// A running member: a receive loop around a
/// [`crate::protocol::MemberSession`].
pub struct MemberRuntime {
    shared: Arc<Shared>,
    events_rx: Receiver<MemberEvent>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MemberRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberRuntime").finish_non_exhaustive()
    }
}

impl MemberRuntime {
    /// Connects over `link` with a password, untagged and with default
    /// options, starting the authentication handshake immediately.
    ///
    /// # Errors
    ///
    /// Propagates key-derivation or transport failures.
    pub fn connect(
        link: Box<dyn Link>,
        user: ActorId,
        leader: ActorId,
        password: &str,
    ) -> Result<Self, CoreError> {
        let (session, init) = MemberSession::start_in_group(user, leader, password, None)?;
        Self::run(link, session, init, MemberOptions::default())
    }

    /// Runs the session it is handed: sends `init` (the session's
    /// `AuthInitReq`) over `link` and starts the receive loop. A rejoin
    /// runs the session's own [`MemberSession::rejoin`].
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn run(
        link: Box<dyn Link>,
        mut session: MemberSession,
        init: Envelope,
        options: MemberOptions,
    ) -> Result<Self, CoreError> {
        let MemberOptions {
            events: stream,
            liveness,
            clock,
            reconnect,
        } = options;
        if let Some(events) = &stream {
            // Emit the join start before the init frame can reach any
            // wire, so the stream's order is a real happened-before order.
            events.emit(EventKind::JoinStarted {
                member: init.sender.to_string(),
            });
            session.set_event_stream(events.clone());
        }
        link.send(encode(&init).into())?;
        let (events_tx, events_rx) = unbounded();
        let (out_tx, out_rx) = unbounded::<Out>();
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            out_tx,
            running: AtomicBool::new(true),
        });

        let worker = Worker {
            shared: Arc::clone(&shared),
            out_rx,
            events_tx,
            stream,
            clock: clock.unwrap_or_else(|| Arc::new(RealClock::new())),
            liveness,
            reconnect,
        };
        let handle = std::thread::Builder::new()
            .name("enclaves-member".into())
            .spawn(move || worker.run(link))
            .expect("spawn member worker");

        Ok(MemberRuntime {
            shared,
            events_rx,
            worker: Some(handle),
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
        self.shared.session.lock().phase()
    }

    /// The member's current roster view.
    #[must_use]
    pub fn roster(&self) -> Roster {
        self.shared.session.lock().roster()
    }

    /// The group-key epoch currently held.
    #[must_use]
    pub fn group_epoch(&self) -> Option<u64> {
        self.shared.session.lock().group_epoch()
    }

    /// The session's metric registry (`member.*` names); snapshots taken
    /// from it see the live counters. Rejoin sessions re-home onto the
    /// same registry, so the counters accumulate across generations.
    #[must_use]
    pub fn obs_registry(&self) -> Registry {
        self.shared.session.lock().obs_registry()
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
        wait_for(&self.events_rx, timeout, |e| {
            matches!(e, MemberEvent::Welcomed { .. })
        })
        .map(|_| ())
        .map_err(|()| CoreError::Timeout("welcome"))
    }

    /// Sends application data to the group (via the leader relay).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] before the welcome.
    pub fn send_group_data(&self, data: &[u8]) -> Result<(), CoreError> {
        let env = self.shared.session.lock().send_group_data(data)?;
        self.shared
            .out_tx
            .send(Out::Frame(encode(&env).into()))
            .map_err(|_| CoreError::RuntimeGone)?;
        Ok(())
    }

    /// Leaves the group and stops the worker.
    ///
    /// The close frame is queued ahead of a flush barrier, and the stop
    /// flag is only raised once the worker acknowledges the barrier — so
    /// the close has actually been written to the link, not raced by the
    /// shutdown.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPhase`] if not connected.
    pub fn leave(mut self) -> Result<(), CoreError> {
        let env = self.shared.session.lock().leave()?;
        let _ = self.shared.out_tx.send(Out::Frame(encode(&env).into()));
        let (ack_tx, ack_rx) = unbounded();
        let _ = self.shared.out_tx.send(Out::Flush(ack_tx));
        let _ = ack_rx.recv_timeout(Duration::from_secs(2));
        self.shared.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        Ok(())
    }

    /// Stops the worker without sending a close (simulates a crash).
    pub fn abandon(mut self) {
        self.shared.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// The worker thread: session loops joined by the rejoin loop.
struct Worker {
    shared: Arc<Shared>,
    out_rx: Receiver<Out>,
    events_tx: Sender<MemberEvent>,
    stream: Option<EventStream>,
    clock: Arc<dyn Clock>,
    liveness: LivenessConfig,
    reconnect: Option<Reconnector>,
}

/// The reconnect backoff's jitter tag, distinct from the session's
/// handshake ARQ tag (0) so their jitter streams do not collide.
const RECONNECT_CHANNEL: u64 = 1;

impl Worker {
    fn run(self, mut link: Box<dyn Link>) {
        while let LoopExit::LeaderLost = self.session_loop(link.as_ref()) {
            let Some(next) = self.reconnect_and_rejoin() else {
                return;
            };
            link = next;
        }
    }

    /// Pumps one session over one link until it stops, the link dies, or
    /// the leader is presumed dead.
    fn session_loop(&self, link: &dyn Link) -> LoopExit {
        while self.shared.running.load(Ordering::Relaxed) {
            // Write anything the application queued; a flush barrier acks
            // once the frames queued before it have been handed over.
            while let Ok(out) = self.out_rx.try_recv() {
                match out {
                    Out::Frame(frame) => {
                        if link.send(frame).is_err() {
                            return LoopExit::LeaderLost;
                        }
                    }
                    Out::Flush(ack) => {
                        let _ = ack.send(());
                    }
                }
            }
            let tick = self
                .shared
                .session
                .lock()
                .tick(self.clock.now(), &self.liveness);
            for env in &tick.frames {
                if link.send(encode(env).into()).is_err() {
                    return LoopExit::LeaderLost;
                }
            }
            if tick.leader_lost {
                return LoopExit::LeaderLost;
            }
            match link.recv_timeout(self.liveness.poll) {
                Ok(frame) => {
                    let Ok(env) = decode::<Envelope>(&frame) else {
                        continue;
                    };
                    // Rejected traffic is dropped; the session's
                    // `member.rejected` counter records it.
                    let Ok(output) = self.shared.session.lock().handle(&env) else {
                        continue;
                    };
                    if let Some(reply) = output.reply {
                        if link.send(encode(&reply).into()).is_err() {
                            return LoopExit::LeaderLost;
                        }
                    }
                    for e in output.events {
                        let _ = self.events_tx.send(e);
                    }
                }
                Err(NetError::Timeout) => continue,
                Err(_) => return LoopExit::LeaderLost,
            }
        }
        LoopExit::Stopped
    }

    /// After a presumed leader death: reconnect with backoff and start a
    /// *fresh* session (new handshake, new session key) in whatever epoch
    /// the group is in now. Returns the new link, or `None` when there is
    /// no reconnect hook or the runtime stopped while waiting.
    fn reconnect_and_rejoin(&self) -> Option<Box<dyn Link>> {
        let reconnect = self.reconnect.as_ref()?;
        let user = self.shared.session.lock().user().to_string();
        if let Some(stream) = &self.stream {
            stream.emit(EventKind::LeaderLost {
                member: user.clone(),
            });
        }
        let _ = self.events_tx.send(MemberEvent::LeaderLost);
        let mut attempt: u32 = 0;
        while self.shared.running.load(Ordering::Relaxed) {
            // Keep servicing flush barriers while between links so a
            // concurrent `leave` cannot hang; frames have nowhere to go.
            while let Ok(out) = self.out_rx.try_recv() {
                if let Out::Flush(ack) = out {
                    let _ = ack.send(());
                }
            }
            if let Ok(link) = reconnect() {
                let (session, init) = self.shared.session.lock().rejoin();
                // Announce the join before the init frame can reach the
                // wire.
                if let Some(stream) = &self.stream {
                    stream.emit(EventKind::JoinStarted {
                        member: user.clone(),
                    });
                }
                *self.shared.session.lock() = session;
                let _ = self.events_tx.send(MemberEvent::RejoinStarted);
                if link.send(encode(&init).into()).is_ok() {
                    return Some(link);
                }
                // The new link died before the init left; fall through to
                // the backoff and try again.
            }
            attempt = attempt.saturating_add(1);
            self.backoff_wait(attempt);
        }
        None
    }

    /// Sleeps out one reconnect backoff step, staying responsive to the
    /// stop flag and to virtual-clock time (which advances independently
    /// of real time).
    fn backoff_wait(&self, attempt: u32) {
        let deadline = self.clock.now() + self.liveness.jittered_delay(attempt, RECONNECT_CHANNEL);
        while self.shared.running.load(Ordering::Relaxed) && self.clock.now() < deadline {
            std::thread::sleep(self.liveness.poll);
        }
    }
}
