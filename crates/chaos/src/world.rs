//! The chaos driver: spawns a live leader and a cast of members on a
//! [`Fabric`] with one shared event stream, executes a [`Schedule`],
//! finalizes the run (calm → heal → quiesce → probe), and hands the
//! stream — plus the faults it injected and its end-of-run snapshot,
//! which only the driver knows — to the §5.4 oracle.

use crate::fabric::{Fabric, SimFabric};
use crate::schedule::{ChaosEvent, Schedule};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::liveness::{Clock, LivenessConfig, VirtualClock};
use enclaves_core::protocol::MemberSession;
use enclaves_core::runtime::{
    GroupHandle, LeaderService, MemberOptions, MemberRuntime, ServiceConfig,
};
use enclaves_obs::{EventKind, EventStream, ProtocolEvent, Registry, Snapshot};
use enclaves_verify::live::{check_run, AtRest, Fault, FaultKind, Violation};
use enclaves_wire::{ActorId, GroupId};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The name every driver-run leader takes.
const LEADER: &str = "leader";
/// How long a join may take before the driver stops waiting for the
/// welcome (the join itself keeps running — a partition may deliver the
/// welcome much later, which is part of the chaos).
const JOIN_WAIT: Duration = Duration::from_secs(10);
/// Deadline for the leader's retransmission layer to drain after healing.
const QUIESCE_WAIT: Duration = Duration::from_secs(20);
/// Deadline for every member to open the finalization probe.
const PROBE_WAIT: Duration = Duration::from_secs(10);

/// Knobs for a chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Leader rekey policy (the schedule's explicit `Rekey` events come on
    /// top of whatever the policy does).
    pub rekey_policy: RekeyPolicy,
    /// Plants the test-only broadcast-watermark violation in every member
    /// — the oracle must then catch duplicate data deliveries.
    pub sabotage_watermark: bool,
    /// Runs the world with the liveness layer armed: a shared
    /// [`VirtualClock`] (pumped at roughly 5× real time), bounded ARQ
    /// with backoff and jitter, heartbeats, timeout-driven eviction, and
    /// member auto-rejoin through [`Fabric::dialer`]. Fault
    /// injections ([`ChaosEvent::CrashWire`], [`ChaosEvent::Partition`])
    /// additionally leave `Crashed`/`Partitioned` faults in the outcome so
    /// the liveness oracle properties (`live-evict`, `live-no-false-evict`,
    /// `live-rejoin`) have ground truth to check against.
    pub liveness: bool,
    /// Runs the leader in tree-rekey mode: every epoch rotation is one
    /// `O(log N)` `PathUpdate` multicast instead of per-member admin
    /// seals. Multicasts are fire-and-forget — a partitioned member
    /// misses them outright — so recovery rides the heartbeat-driven
    /// `PathSync` resync; arm [`ChaosOptions::liveness`] alongside this
    /// knob for any schedule that partitions members across rekeys.
    pub tree_rekey: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            rekey_policy: RekeyPolicy::Manual,
            sabotage_watermark: false,
            liveness: false,
            tree_rekey: false,
        }
    }
}

/// How much virtual time the pump adds per real-time step. Small steps
/// matter: one big jump would blow every heartbeat deadline at once and
/// evict responsive members that merely hadn't been scheduled yet.
const PUMP_STEP: Duration = Duration::from_millis(5);
/// Real sleep between pump steps (≈5× speedup).
const PUMP_TICK: Duration = Duration::from_millis(1);

/// Clock and seed shared by every liveness-enabled session the driver
/// starts (including sessions restarted mid-run by a rejoin).
struct LivenessWiring {
    clock: VirtualClock,
    seed: u64,
}

/// The service-wide knobs of a run's leader: the wiring's virtual clock
/// when the liveness layer is armed, real time otherwise.
fn service_config(wiring: Option<&LivenessWiring>) -> ServiceConfig {
    ServiceConfig {
        clock: wiring.map(|w| Arc::new(w.clock.clone()) as Arc<dyn Clock>),
        ..ServiceConfig::default()
    }
}

/// Aggressive liveness knobs for chaos runs, in *virtual* milliseconds:
/// fast enough that a `Settle(900)` (≈4.5s virtual) comfortably covers a
/// full detect→evict or detect→rejoin cycle, slow enough that a healthy
/// member is never within an order of magnitude of its deadline.
fn chaos_liveness(seed: u64) -> LivenessConfig {
    LivenessConfig {
        retransmit_base: Duration::from_millis(100),
        retransmit_max: Duration::from_millis(800),
        jitter_pct: 100, // up to +10%
        max_attempts: 6,
        heartbeat_interval: Some(Duration::from_millis(200)),
        liveness_timeout: Some(Duration::from_millis(2500)),
        jitter_seed: seed,
        ..LivenessConfig::default()
    }
}

/// The result of a chaos run: the verdict plus everything needed to
/// diagnose or reproduce it.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Violations the oracle found (empty = the paper's properties held).
    pub violations: Vec<Violation>,
    /// Merged metrics from every component of the run: the fabric's
    /// `net.*` counters ([`Fabric::net_snapshot`], empty on a fabric that
    /// keeps none), the leader's `leader.*` registry, and every member
    /// session's `member.*` registry (across reconnects).
    pub snapshot: Snapshot,
    /// The run's own observability stream (leader + every member emit
    /// onto one shared, totally ordered stream).
    pub obs_events: Vec<ProtocolEvent>,
    /// The faults the driver injected, in injection order (recorded only
    /// with [`ChaosOptions::liveness`] armed).
    pub faults: Vec<Fault>,
    /// The end-of-run snapshot the oracle's agreement check reads.
    pub at_rest: Option<AtRest>,
}

impl ChaosOutcome {
    /// Whether the run satisfied every checked property.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum MemberState {
    Absent,
    Joined,
    Crashed,
    Departed,
}

struct MemberSlot {
    name: String,
    id: ActorId,
    password: String,
    state: MemberState,
    runtime: Option<MemberRuntime>,
    /// One registry per session segment (handles stay valid after the
    /// runtime is gone, so crashed sessions still contribute counters).
    registries: Vec<Registry>,
}

/// What a run records: the event stream the leader and every member
/// emit onto, and what no component of the product can know — the faults
/// the driver injected and its end-of-run snapshot. Each is stamped with
/// the stream's length when the driver recorded it, after the fault had
/// taken effect.
#[derive(Default)]
struct Record {
    stream: EventStream,
    faults: Vec<Fault>,
    at_rest: Option<AtRest>,
}

impl Record {
    /// Records a `kind` fault on `member` behind every stream event
    /// emitted so far.
    fn fault(&mut self, member: &str, kind: FaultKind) {
        self.faults.push(Fault {
            at: self.stream.len() as u64,
            member: member.to_owned(),
            kind,
        });
    }
}

/// The cast `<prefix>0`, `<prefix>1`, … of `n` members, each registered
/// in the returned directory under the password `<name>-pw`.
fn cast(prefix: &str, n: usize) -> (Directory, Vec<MemberSlot>) {
    let mut directory = Directory::new();
    let members = (0..n)
        .map(|i| {
            let name = format!("{prefix}{i}");
            let id = ActorId::new(&name).expect("generated name");
            let password = format!("{name}-pw");
            directory
                .register_password(&id, &password)
                .expect("fresh directory");
            MemberSlot {
                name,
                id,
                password,
                state: MemberState::Absent,
                runtime: None,
                registries: Vec::new(),
            }
        })
        .collect();
    (directory, members)
}

/// A run's leader configuration: the options' rekey mode in enclave
/// `group`, with the chaos liveness knobs when the layer is armed.
fn leader_config(
    options: &ChaosOptions,
    wiring: Option<&LivenessWiring>,
    group: Option<GroupId>,
) -> LeaderConfig {
    let mut config = LeaderConfig {
        rekey_policy: options.rekey_policy,
        tree_rekey: options.tree_rekey,
        group,
        ..LeaderConfig::default()
    };
    if let Some(w) = wiring {
        config.liveness = chaos_liveness(w.seed);
    }
    config
}

/// The time pump: virtual time flows in small steps at ~5× real time,
/// so deadline order is preserved (no member can be evicted because the
/// clock leapt over its heartbeat window). Runs until `stop` is set.
fn spawn_time_pump(clock: &VirtualClock, stop: &Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    let clock = clock.clone();
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name("chaos-time-pump".into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(PUMP_TICK);
                clock.advance(PUMP_STEP);
            }
        })
        .expect("spawn chaos time pump")
}

/// Stops every member runtime without a `Close`.
fn abandon_all(members: &mut [MemberSlot]) {
    for slot in members {
        if let Some(rt) = slot.runtime.take() {
            rt.abandon();
        }
    }
}

/// A finished run's verdict. `parts` (the fabric's and the leaders'
/// snapshots) and every member session's registry merge into one
/// run-level snapshot; all histograms use the shared default bounds, so
/// merging cannot fail. The oracle checks the run's event stream with
/// the driver's faults and snapshot beside it.
fn outcome(record: Record, parts: Vec<Snapshot>, members: &[MemberSlot]) -> ChaosOutcome {
    let sessions = members
        .iter()
        .flat_map(|slot| &slot.registries)
        .map(Registry::snapshot);
    let mut snapshot = Snapshot::default();
    for part in parts.into_iter().chain(sessions) {
        snapshot
            .merge_from(&part)
            .expect("uniform histogram bounds");
    }
    let obs_events = record.stream.events();
    ChaosOutcome {
        violations: check_run(&obs_events, &record.faults, record.at_rest.as_ref()),
        snapshot,
        obs_events,
        faults: record.faults,
        at_rest: record.at_rest,
    }
}

/// Executes `schedule` against a live leader + member cast on `fabric`,
/// then replays the run's event stream through the §5.4 live oracle. The
/// leader is a one-group service on the fabric's own front end
/// ([`Fabric::spawn_service`]).
#[must_use]
pub fn run_schedule(
    fabric: &mut dyn Fabric,
    schedule: &Schedule,
    options: &ChaosOptions,
) -> ChaosOutcome {
    let leader_id = ActorId::new(LEADER).expect("static name");

    // One protocol-event stream shared by the leader and every member:
    // emissions interleave under a single buffer lock, so the stream order
    // is a happened-before order across the whole world.
    let mut record = Record::default();
    let (directory, mut members) = cast("m", schedule.members);

    let wiring = options.liveness.then(|| LivenessWiring {
        clock: VirtualClock::new(),
        seed: schedule.seed,
    });
    let service = fabric.spawn_service(service_config(wiring.as_ref()));
    let leader = service
        .add_group(
            leader_id.clone(),
            directory,
            leader_config(options, wiring.as_ref(), None),
        )
        .expect("fresh service");
    leader.attach_event_stream(record.stream.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let pump = wiring.as_ref().map(|w| spawn_time_pump(&w.clock, &stop));

    for event in &schedule.events {
        execute(
            fabric,
            &leader,
            &leader_id,
            &mut members,
            &mut record,
            options,
            wiring.as_ref(),
            event,
        );
    }

    finalize(fabric, &leader, &mut members, &mut record, wiring.is_some());

    let leader_registry = leader.obs_registry();

    // Teardown: leader first (stops retransmissions), then the members.
    service.shutdown();
    abandon_all(&mut members);
    stop.store(true, Ordering::Relaxed);
    if let Some(pump) = pump {
        let _ = pump.join();
    }

    outcome(
        record,
        vec![fabric.net_snapshot(), leader_registry.snapshot()],
        &members,
    )
}

/// The verdict of a multi-enclave chaos run: every group's own outcome
/// plus the cross-group isolation checks.
#[derive(Debug)]
pub struct MultigroupOutcome {
    /// Per-group results, keyed by the group's enclave tag.
    pub groups: Vec<(String, ChaosOutcome)>,
    /// Cross-group violations: any event on group A's stream that names
    /// a member of another group (isolation demands there are none).
    pub cross_group_violations: Vec<String>,
    /// The service's merged labeled snapshot (`group.<tag>.leader.*`),
    /// taken after finalization.
    pub service_snapshot: Snapshot,
}

impl MultigroupOutcome {
    /// Whether every group's oracle passed and no cross-group leakage
    /// was observed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.cross_group_violations.is_empty() && self.groups.iter().all(|(_, o)| o.passed())
    }
}

/// Member names an event refers to (used by the cross-group check). The
/// leader's own retransmissions name no member.
fn event_members(kind: &EventKind) -> Vec<&str> {
    match kind {
        EventKind::JoinStarted { member }
        | EventKind::AuthAccepted { member }
        | EventKind::SessionEstablished { member }
        | EventKind::MemberJoined { member, .. }
        | EventKind::Welcomed { member, .. }
        | EventKind::KeyChanged { member, .. }
        | EventKind::AdminDeliver { member, .. }
        | EventKind::AdminAcked { member }
        | EventKind::DataDeliver { member, .. }
        | EventKind::CloseRequested { member }
        | EventKind::MemberClosed { member }
        | EventKind::Expelled { member }
        | EventKind::Evicted { member }
        | EventKind::LeaderLost { member } => vec![member.as_str()],
        EventKind::Retransmit { actor, .. } if actor != LEADER => vec![actor.as_str()],
        EventKind::AdminSend { recipients, .. } | EventKind::DataSend { recipients, .. } => {
            recipients.iter().map(String::as_str).collect()
        }
        EventKind::Retransmit { .. } | EventKind::Rekeyed { .. } | EventKind::SealBatch { .. } => {
            Vec::new()
        }
    }
}

/// Cross-group isolation: one report per name on group `tag`'s stream
/// that is not in its cast (`cast_prefix…`).
fn foreign_names(tag: &str, cast_prefix: &str, events: &[ProtocolEvent]) -> Vec<String> {
    events
        .iter()
        .flat_map(|event| {
            event_members(&event.kind)
                .into_iter()
                .filter(|member| !member.starts_with(cast_prefix))
                .map(move |member| {
                    format!(
                        "group {tag}: seq {} names foreign member {member}: {:?}",
                        event.seq, event.kind
                    )
                })
        })
        .collect()
}

/// Per-group world state for [`run_multigroup`].
struct GroupWorld {
    tag: String,
    cast_prefix: String,
    handle: GroupHandle,
    record: Record,
    members: Vec<MemberSlot>,
}

/// Executes one schedule **per group** against a single multi-enclave
/// [`LeaderService`] on one fabric: group `g` gets enclave tag `g<g>` and
/// cast `g<g>m0..`, schedules interleave round-robin (event `k` of every
/// group before event `k+1` of any), so partitions, crashes, and rekeys
/// in one enclave land while its neighbours carry live traffic — all on
/// the service's one shard loop, which ticks every group's timers.
///
/// Each group's own event stream feeds the same §5.4 oracle as a
/// single-group run; on top, the cross-group check asserts no group's
/// stream ever names another group's member.
#[must_use]
pub fn run_multigroup(
    fabric: &mut dyn Fabric,
    schedules: &[Schedule],
    options: &ChaosOptions,
) -> MultigroupOutcome {
    let leader_id = ActorId::new(LEADER).expect("static name");
    let wiring = options.liveness.then(|| LivenessWiring {
        clock: VirtualClock::new(),
        seed: schedules.first().map_or(0, |s| s.seed),
    });
    let service = fabric.spawn_service(service_config(wiring.as_ref()));

    let mut worlds: Vec<GroupWorld> = Vec::new();
    for (g, schedule) in schedules.iter().enumerate() {
        let tag = format!("g{g}");
        let cast_prefix = format!("{tag}m");
        let (directory, members) = cast(&cast_prefix, schedule.members);
        let group = GroupId::new(&tag).expect("generated tag");
        let handle = service
            .add_group(
                leader_id.clone(),
                directory,
                leader_config(options, wiring.as_ref(), Some(group)),
            )
            .expect("fresh tag");
        let record = Record::default();
        handle.attach_event_stream(record.stream.clone());
        worlds.push(GroupWorld {
            tag,
            cast_prefix,
            handle,
            record,
            members,
        });
    }
    let stop = Arc::new(AtomicBool::new(false));
    let pump = wiring.as_ref().map(|w| spawn_time_pump(&w.clock, &stop));

    // Round-robin interleave: every group advances one event per round.
    let rounds = schedules.iter().map(|s| s.events.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (world, schedule) in worlds.iter_mut().zip(schedules) {
            if let Some(event) = schedule.events.get(round) {
                execute(
                    fabric,
                    &world.handle,
                    &leader_id,
                    &mut world.members,
                    &mut world.record,
                    options,
                    wiring.as_ref(),
                    event,
                );
            }
        }
    }

    for world in &mut worlds {
        finalize(
            fabric,
            &world.handle,
            &mut world.members,
            &mut world.record,
            wiring.is_some(),
        );
    }

    let service_snapshot = service.snapshot();
    let leader_registries: Vec<Registry> = worlds.iter().map(|w| w.handle.obs_registry()).collect();
    service.shutdown();
    stop.store(true, Ordering::Relaxed);
    for world in &mut worlds {
        abandon_all(&mut world.members);
    }
    if let Some(pump) = pump {
        let _ = pump.join();
    }

    let mut cross_group_violations = Vec::new();
    let mut groups = Vec::new();
    for (world, leader_registry) in worlds.into_iter().zip(leader_registries) {
        let outcome = outcome(
            world.record,
            vec![leader_registry.snapshot()],
            &world.members,
        );
        cross_group_violations.extend(foreign_names(
            &world.tag,
            &world.cast_prefix,
            &outcome.obs_events,
        ));
        groups.push((world.tag, outcome));
    }

    MultigroupOutcome {
        groups,
        cross_group_violations,
        service_snapshot,
    }
}

/// The verdict of a kill-9 → restart-from-journal run: the usual chaos
/// outcome computed over the whole two-generation stream, plus the
/// recovery facts the crash-recovery battery asserts on.
#[derive(Debug)]
pub struct CrashRestartOutcome {
    /// Oracle verdict, event stream, and merged metrics across both leader
    /// generations (the snapshot includes the restarted service's
    /// `recovery.*` counters).
    pub outcome: ChaosOutcome,
    /// Leader epoch at the instant of the kill (`None`: nobody ever
    /// joined before the crash).
    pub pre_crash_epoch: Option<u64>,
    /// The epoch the journal replay + fence advance produced, before any
    /// member re-admitted itself.
    pub recovered_epoch: Option<u64>,
    /// Leader epoch at the end of the run.
    pub final_epoch: Option<u64>,
    /// Roster size the journal replay reconstructed (members the dead
    /// leader still owed a group to).
    pub recovered_members: usize,
    /// Journal records replayed at restart (including the genesis).
    pub recovered_records: u64,
    /// Whether a fence file bounded the recovery epoch.
    pub recovered_fenced: bool,
    /// Streams whose recovery failed (empty on a healthy run).
    pub failed_streams: Vec<String>,
}

/// Executes `schedule` against a journaled leader service, then kills the
/// leader the way `kill -9` would — no `Close` frames, no flush, the
/// listener name simply vanishes from the network — restarts a fresh
/// service from the same journal directory, runs `post_events` against
/// the recovered group, and finalizes as usual. Member runtimes live
/// through the whole run: their liveness layer detects the dead wire and
/// re-admits them through auto-rejoin once the restarted leader answers.
///
/// The event stream spans both generations and feeds the same §5.4
/// oracle, so convergence after the restart is checked by the
/// same properties as any other run — plus the recovery facts in
/// [`CrashRestartOutcome`].
///
/// Takes the simulator fabric concretely: reclaiming and re-binding the
/// leader's listener name between generations is a simulator-only
/// operation.
///
/// # Panics
///
/// Panics if `options.liveness` is off (without auto-rejoin no member
/// could survive the leader's death), or if the simulated network
/// refuses either generation's listener.
#[must_use]
pub fn run_crash_restart(
    fabric: &mut SimFabric,
    schedule: &Schedule,
    post_events: &[ChaosEvent],
    options: &ChaosOptions,
    journal_dir: &Path,
) -> CrashRestartOutcome {
    assert!(
        options.liveness,
        "run_crash_restart needs the liveness layer: auto-rejoin is the \
         only path back into the group after the leader dies"
    );
    let leader_id = ActorId::new(LEADER).expect("static name");
    let mut record = Record::default();
    let (directory, mut members) = cast("m", schedule.members);
    let wiring = LivenessWiring {
        clock: VirtualClock::new(),
        seed: schedule.seed,
    };

    // Generation 1: a journaled service on a fresh (or empty) directory.
    let listener = fabric.net.listen("leader").expect("fresh fabric");
    let (service, _) = LeaderService::open_with_journal(
        Box::new(listener),
        journal_dir,
        service_config(Some(&wiring)),
    )
    .expect("journal directory must initialize");
    let handle = service
        .add_group(
            leader_id.clone(),
            directory,
            leader_config(options, Some(&wiring), None),
        )
        .expect("fresh service");
    handle.attach_event_stream(record.stream.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let pump = spawn_time_pump(&wiring.clock, &stop);

    for event in &schedule.events {
        execute(
            fabric,
            &handle,
            &leader_id,
            &mut members,
            &mut record,
            options,
            Some(&wiring),
            event,
        );
    }

    let pre_crash_epoch = handle.epoch();
    let gen1_registry = handle.obs_registry();

    // The kill: unbind the listener name first (no new connection can
    // reach a dying process), then tear the service down without a single
    // protocol frame — exactly what the members observe when the leader
    // process is killed mid-flight. Their runtimes stay up; their redials
    // fail (nothing listens) and back off until the restarted service
    // answers.
    //
    assert!(
        fabric.net.unlisten("leader"),
        "the leader listener must exist until the kill"
    );
    drop(handle);
    service.shutdown();
    // The kill is an injected fault that severed every member↔leader
    // link at once: record the same per-member fault a scripted
    // partition leaves, so the oracle can attribute any liveness
    // eviction during the rejoin storm to the fault rather than flag a
    // false judgment.
    for slot in &members {
        if slot.runtime.is_some() {
            record.fault(&slot.name, FaultKind::Partitioned);
        }
    }

    // Generation 2: restart from the journal under the same virtual
    // clock. The replay rebuilds the roster and epoch and advances past
    // the fence before the listener takes its first connection.
    let listener = fabric
        .net
        .listen("leader")
        .expect("the kill released the leader name");
    let (service, mut report) = LeaderService::open_with_journal(
        Box::new(listener),
        journal_dir,
        service_config(Some(&wiring)),
    )
    .expect("journal must replay after a crash");
    let failed_streams: Vec<String> = report.failed.iter().map(|f| f.stream.clone()).collect();
    assert_eq!(
        report.recovered.len(),
        1,
        "exactly the one journaled group must come back"
    );
    let recovered = report.recovered.remove(0);
    let handle = recovered.handle;
    handle.attach_event_stream(record.stream.clone());

    // Members the driver crashed before the kill are in the recovered
    // roster but have no process to rejoin from: expel them now (their
    // `Crashed` faults justify the departure to the oracle) instead of
    // letting finalize wait out its whole convergence deadline on slots
    // that can never converge.
    for slot in members.iter_mut() {
        if slot.runtime.is_none() && handle.roster().contains(&slot.id) {
            let _ = handle.expel(&slot.id);
            if slot.state == MemberState::Crashed {
                slot.state = MemberState::Departed;
            }
        }
    }

    for event in post_events {
        execute(
            fabric,
            &handle,
            &leader_id,
            &mut members,
            &mut record,
            options,
            Some(&wiring),
            event,
        );
    }

    finalize(fabric, &handle, &mut members, &mut record, true);

    let final_epoch = handle.epoch();
    // The restarted service's snapshot carries generation 2's `leader.*`
    // registry (the group is untagged, so the names are bare) plus the
    // service-level `recovery.*` counters.
    let gen2_snapshot = service.snapshot();
    drop(handle);
    service.shutdown();
    stop.store(true, Ordering::Relaxed);
    abandon_all(&mut members);
    let _ = pump.join();

    CrashRestartOutcome {
        outcome: outcome(
            record,
            vec![
                fabric.net_snapshot(),
                gen1_registry.snapshot(),
                gen2_snapshot,
            ],
            &members,
        ),
        pre_crash_epoch,
        recovered_epoch: recovered.epoch,
        final_epoch,
        recovered_members: recovered.members,
        recovered_records: recovered.records,
        recovered_fenced: recovered.fenced,
        failed_streams,
    }
}

/// Starts (or restarts) a member's session on `stream` (the runtime
/// emits the segment's `JoinStarted`), connects through the fabric, and
/// waits (bounded) for the welcome.
fn start_join(
    fabric: &mut dyn Fabric,
    leader_id: &ActorId,
    group: Option<&GroupId>,
    slot: &mut MemberSlot,
    stream: &EventStream,
    options: &ChaosOptions,
    wiring: Option<&LivenessWiring>,
) {
    let Ok((mut session, init)) = MemberSession::start_in_group(
        slot.id.clone(),
        leader_id.clone(),
        &slot.password,
        group.cloned(),
    ) else {
        slot.state = MemberState::Absent;
        return;
    };
    if options.sabotage_watermark {
        session.disable_broadcast_watermark_for_tests();
    }
    let mut member_options = MemberOptions {
        events: Some(stream.clone()),
        ..MemberOptions::default()
    };
    if let Some(w) = wiring {
        // Per-member jitter seed: identical backoff schedules across the
        // cast would synchronize every rejoin handshake.
        let name_tag: u64 = slot.name.bytes().map(u64::from).sum();
        let mut liveness = chaos_liveness(w.seed);
        liveness.jitter_seed = w.seed.wrapping_mul(0x9e37_79b9).wrapping_add(name_tag);
        member_options.liveness = liveness;
        member_options.clock = Some(Arc::new(w.clock.clone()));
        member_options.rejoin = fabric.rejoins();
    }
    match MemberRuntime::run(fabric.dialer(&slot.name), session, init, member_options) {
        Ok(rt) => {
            slot.registries.push(rt.obs_registry());
            // Bounded wait: under faults the welcome may be late; the
            // session keeps trying either way (handshake ARQ).
            let _ = rt.wait_joined(JOIN_WAIT);
            slot.runtime = Some(rt);
            slot.state = MemberState::Joined;
        }
        Err(_) => slot.state = MemberState::Absent,
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn execute(
    fabric: &mut dyn Fabric,
    leader: &GroupHandle,
    leader_id: &ActorId,
    members: &mut [MemberSlot],
    record: &mut Record,
    options: &ChaosOptions,
    wiring: Option<&LivenessWiring>,
    event: &ChaosEvent,
) {
    match event {
        ChaosEvent::Join(i) | ChaosEvent::Reconnect(i) => {
            let Some(slot) = members.get_mut(*i) else {
                return;
            };
            if slot.runtime.is_some() {
                return; // Already live: the schedule generator avoids this.
            }
            // A stale slot survives at the leader after a crash (and after
            // a leave whose Close the chaos ate); clear it or the new
            // handshake is ignored until the old session closes.
            if leader.roster().contains(&slot.id) {
                let _ = leader.expel(&slot.id);
            }
            start_join(
                fabric,
                leader_id,
                leader.group_id(),
                slot,
                &record.stream,
                options,
                wiring,
            );
        }
        ChaosEvent::Leave(i) => {
            let Some(slot) = members.get_mut(*i) else {
                return;
            };
            if let Some(rt) = slot.runtime.take() {
                let _ = rt.leave();
                slot.state = MemberState::Departed;
            }
        }
        ChaosEvent::Expel(i) => {
            let Some(slot) = members.get_mut(*i) else {
                return;
            };
            if leader.expel(&slot.id).is_ok() {
                if let Some(rt) = slot.runtime.take() {
                    rt.abandon();
                }
                slot.state = MemberState::Departed;
            }
        }
        ChaosEvent::Crash(i) => {
            let Some(slot) = members.get_mut(*i) else {
                return;
            };
            if let Some(rt) = slot.runtime.take() {
                // Sever the wire first (mid-session kill), then stop the
                // runtime without a Close.
                fabric.kill(&slot.name);
                rt.abandon();
                slot.state = MemberState::Crashed;
                // With the liveness layer armed the leader will evict this
                // slot by timeout: record the fault that justifies the
                // eviction to the oracle.
                if wiring.is_some() {
                    record.fault(&slot.name, FaultKind::Crashed);
                }
            }
        }
        ChaosEvent::CrashWire(i) => {
            let Some(slot) = members.get_mut(*i) else {
                return;
            };
            if slot.runtime.is_none() {
                return;
            }
            fabric.kill(&slot.name);
            if wiring.is_some() {
                // The runtime stays alive: its own liveness layer must
                // detect the dead wire and drive the rejoin once healed.
                record.fault(&slot.name, FaultKind::Crashed);
            } else if let Some(rt) = slot.runtime.take() {
                // Without a liveness layer nobody would ever notice the
                // dead wire: degrade to a plain crash so the run can
                // still finalize.
                rt.abandon();
                slot.state = MemberState::Crashed;
            }
        }
        // The leader emits the rekey's and the sends' events itself,
        // under its core lock; an empty group simply refuses them.
        ChaosEvent::Rekey => {
            let _ = leader.rekey();
        }
        ChaosEvent::AdminBroadcast(payload) => {
            let _ = leader.broadcast(payload);
        }
        ChaosEvent::DataBroadcast(payload) => {
            let _ = leader.broadcast_data(payload);
        }
        ChaosEvent::Partition {
            member,
            to_leader,
            to_member,
        } => {
            if let Some(slot) = members.get(*member) {
                fabric.partition(&slot.name, *to_leader, *to_member);
                if wiring.is_some() {
                    record.fault(&slot.name, FaultKind::Partitioned);
                }
            }
        }
        ChaosEvent::Heal(i) => {
            if let Some(slot) = members.get(*i) {
                fabric.heal(&slot.name);
            }
        }
        ChaosEvent::HealAll => fabric.heal_all(),
        ChaosEvent::Settle(ms) => std::thread::sleep(Duration::from_millis(*ms)),
    }
}

/// Drives the system to a checkable resting state: calm the network, heal
/// every partition, clear dead slots, wait for the retransmission layer to
/// drain, then send one probe broadcast and snapshot everyone's epoch.
fn finalize(
    fabric: &mut dyn Fabric,
    leader: &GroupHandle,
    members: &mut [MemberSlot],
    record: &mut Record,
    liveness: bool,
) {
    fabric.calm();
    fabric.heal_all();
    fabric.flush();

    // With the liveness layer armed, recovery is the system's job, not
    // the driver's: wait (bounded) for timeout evictions to clear dead
    // slots and for every still-running member to rejoin and converge on
    // the leader's epoch, *before* the manual dead-slot sweep below runs
    // as a fallback. Expelling here too early would rob the oracle of the
    // eviction it is owed for each `Crashed` fault.
    if liveness {
        let deadline = Instant::now() + QUIESCE_WAIT;
        while Instant::now() < deadline {
            fabric.flush();
            let roster = leader.roster();
            let leader_epoch = leader.epoch();
            let converged = members.iter().all(|slot| match &slot.runtime {
                Some(rt) => rt.group_epoch().is_some() && rt.group_epoch() == leader_epoch,
                None => !roster.contains(&slot.id),
            });
            if converged && leader.quiesced() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    // Clear slots of members the driver knows are gone (crashed, or a
    // departure whose Close was lost to the chaos): the leader would
    // otherwise retransmit to them forever and never quiesce.
    let roster = leader.roster();
    for slot in members.iter_mut() {
        let live = slot.runtime.is_some();
        if !live && roster.contains(&slot.id) {
            let _ = leader.expel(&slot.id);
            if slot.state == MemberState::Crashed {
                slot.state = MemberState::Departed;
            }
        }
    }

    // Quiesce: every outstanding admin exchange acked. Flush the fabric
    // while waiting — a reorder holdback from the chaotic phase may still
    // be parked on a wire.
    let deadline = Instant::now() + QUIESCE_WAIT;
    while !leader.quiesced() && Instant::now() < deadline {
        fabric.flush();
        std::thread::sleep(Duration::from_millis(50));
    }

    // Members whose join never completed (welcome lost in a partition and
    // not recovered by quiescence) are not "connected": take them out of
    // the final roster on both sides.
    for slot in members.iter_mut() {
        if slot.runtime.is_some()
            && slot
                .runtime
                .as_ref()
                .is_some_and(|rt| rt.group_epoch().is_none())
        {
            let _ = leader.expel(&slot.id);
            if let Some(rt) = slot.runtime.take() {
                rt.abandon();
            }
            slot.state = MemberState::Departed;
        }
    }

    // The probe: one data-plane broadcast every connected member must
    // open (an AEAD proof of key agreement, not just epoch equality); an
    // empty group at rest has nothing to probe. Wait until every live
    // member's delivery of it is on the stream (bounded; a member that
    // never opens it is the oracle's problem to report, not ours to mask).
    if let Ok(receipt) = leader.broadcast_data(b"chaos-final-probe") {
        let live: Vec<&str> = members
            .iter()
            .filter(|s| s.runtime.is_some())
            .map(|s| s.name.as_str())
            .collect();
        let deadline = Instant::now() + PROBE_WAIT;
        loop {
            let events = record.stream.events();
            let delivered = live
                .iter()
                .filter(|name| {
                    events.iter().any(|e| {
                        matches!(&e.kind, EventKind::DataDeliver { member, epoch, seq, .. }
                            if member == *name
                                && *epoch == receipt.epoch
                                && *seq == receipt.seq)
                    })
                })
                .count();
            if delivered == live.len() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    let final_members: Vec<(String, Option<u64>)> = members
        .iter()
        .filter(|s| s.runtime.is_some())
        .map(|s| {
            (
                s.name.clone(),
                s.runtime.as_ref().and_then(MemberRuntime::group_epoch),
            )
        })
        .collect();
    record.at_rest = Some(AtRest {
        at: record.stream.len() as u64,
        leader_epoch: leader.epoch(),
        members: final_members,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m0() -> String {
        "m0".into()
    }

    fn joined_then_evicted() -> EventStream {
        let stream = EventStream::new();
        stream.emit(EventKind::MemberJoined {
            member: m0(),
            epoch: 1,
        });
        stream.emit(EventKind::Evicted { member: m0() });
        stream
    }

    #[test]
    fn an_eviction_needs_a_fault_marker_stamped_before_it() {
        let events = joined_then_evicted().events();
        // `live-no-false-evict` reports on `[MemberJoined m0, Evicted m0]`
        // with a crash of m0 stamped at `at`, if any.
        let false_evictions = |at: Option<u64>| -> Vec<Violation> {
            let faults: Vec<Fault> = at
                .map(|at| Fault {
                    at,
                    member: m0(),
                    kind: FaultKind::Crashed,
                })
                .into_iter()
                .collect();
            check_run(&events, &faults, None)
                .into_iter()
                .filter(|v| v.checker.starts_with("live-no-false-evict"))
                .collect()
        };
        let unjustified = false_evictions(None);
        assert_eq!(unjustified.len(), 1);
        assert_eq!(unjustified[0].index, events[1].seq);
        assert!(false_evictions(Some(1)).is_empty());
        assert_eq!(false_evictions(Some(2)).len(), 1);
    }

    #[test]
    fn a_mark_lands_behind_every_event_emitted_before_it() {
        let mut record = Record {
            stream: joined_then_evicted(),
            ..Record::default()
        };
        record.fault("m0", FaultKind::Crashed);
        // Stamped behind both events, ahead of the next one.
        assert_eq!(record.faults[0].at, 2);
        record.stream.emit(EventKind::Welcomed {
            member: m0(),
            epoch: 2,
        });
        assert_eq!(record.stream.events()[2].seq, record.faults[0].at);
    }

    #[test]
    fn the_cross_group_check_reads_every_variant() {
        let foreign = || "g1m0".to_string();
        let recipients = || vec!["g0m0".to_string(), foreign()];
        // Every variant that names a member, naming one of group g1's.
        let naming = [
            EventKind::JoinStarted { member: foreign() },
            EventKind::AuthAccepted { member: foreign() },
            EventKind::SessionEstablished { member: foreign() },
            EventKind::MemberJoined {
                member: foreign(),
                epoch: 1,
            },
            EventKind::Welcomed {
                member: foreign(),
                epoch: 1,
            },
            EventKind::KeyChanged {
                member: foreign(),
                epoch: 2,
            },
            EventKind::AdminSend {
                payload: vec![],
                recipients: recipients(),
            },
            EventKind::AdminDeliver {
                member: foreign(),
                payload: vec![],
            },
            EventKind::AdminAcked { member: foreign() },
            EventKind::DataSend {
                epoch: 2,
                seq: 1,
                payload: vec![],
                recipients: recipients(),
            },
            EventKind::DataDeliver {
                member: foreign(),
                epoch: 2,
                seq: 1,
                payload: vec![],
            },
            EventKind::CloseRequested { member: foreign() },
            EventKind::MemberClosed { member: foreign() },
            EventKind::Expelled { member: foreign() },
            EventKind::Evicted { member: foreign() },
            EventKind::LeaderLost { member: foreign() },
            EventKind::Retransmit {
                actor: foreign(),
                frames: 1,
            },
        ];
        // The variants that name no member, and the leader's own
        // retransmissions.
        let silent = [
            EventKind::Rekeyed { epoch: 2 },
            EventKind::SealBatch {
                frames: 1,
                elapsed_ns: 1,
            },
            EventKind::Retransmit {
                actor: LEADER.into(),
                frames: 1,
            },
        ];
        let stream = EventStream::new();
        for kind in naming.iter().chain(&silent) {
            stream.emit(kind.clone());
        }
        let reports = foreign_names("g0", "g0m", &stream.events());
        assert_eq!(reports.len(), naming.len(), "{reports:#?}");
        for (report, kind) in reports.iter().zip(&naming) {
            assert!(report.contains(kind.name()), "{report}");
        }
        let names: std::collections::BTreeSet<&str> =
            naming.iter().chain(&silent).map(EventKind::name).collect();
        assert_eq!(names.len(), 19, "every EventKind variant is covered");
    }
}
