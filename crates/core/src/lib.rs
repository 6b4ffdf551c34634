//! Intrusion-tolerant group management in Enclaves.
//!
//! A Rust implementation of the group-management system from
//! *Intrusion-Tolerant Group Management in Enclaves* (DSN 2001): a
//! leader-mediated secure group (Figure 1) running the hardened
//! authentication and group-management protocol of Section 3.2, alongside
//! the original (vulnerable) protocol of Section 2.2 as a baseline, and an
//! attack library that demonstrates the Section 2.3 attacks against both.
//!
//! # Layers
//!
//! * [`protocol`] — sans-I/O state machines for the improved protocol:
//!   [`protocol::MemberSession`] (Figure 2) and [`protocol::LeaderCore`]
//!   (Figure 3, one slot per member). These are pure: they consume
//!   envelopes and produce envelopes + events, so they are exhaustively
//!   testable and transport-agnostic. Each has one way in: the leader's
//!   [`protocol::LeaderCore::handle_at`] takes an envelope and the time
//!   (the service splits it in two, staging a drain's frames with
//!   [`protocol::LeaderCore::stage_at`] and committing their joins once
//!   with [`protocol::LeaderCore::commit`]), and a session starts from a
//!   password
//!   ([`protocol::MemberSession::start_in_group`]) or from a long-term key
//!   ([`protocol::MemberSession::start_with_key_in_group`]).
//! * [`legacy`] — the same, for the original protocol, vulnerabilities
//!   faithfully included.
//! * [`runtime`] — threaded leader/member event loops binding the protocol
//!   cores to an `enclaves-net` transport: the leader service on the
//!   readiness loop (real sockets) or on the simulator, and the member
//!   host, many sessions per shard loop behind one dialer
//!   ([`runtime::MemberHost`]). [`runtime::MemberRuntime::run`] runs the
//!   session it is handed on a private one-shard host;
//!   [`runtime::MemberRuntime::connect`] is the untagged password
//!   shorthand.
//! * [`attacks`] — scripted Dolev-Yao attacks run through the
//!   `enclaves-net` adversary tap: each returns whether it succeeded, so
//!   the same script demonstrates the vulnerability on the legacy protocol
//!   and its absence on the improved one.
//! * [`liveness`] — injectable [`liveness::Clock`]s and the
//!   [`liveness::LivenessConfig`] bounded-ARQ / failure-detection policy
//!   both runtimes share (heartbeats, backoff, timeout eviction, rejoin).
//! * [`group`], [`config`], [`directory`] — group state, rekey policy, and
//!   the leader's user directory.
//! * [`journal`] — the sealed write-ahead journal of roster/epoch
//!   transitions that lets a crashed leader recover every enclave and
//!   re-admit members through the auto-rejoin path.
//!
//! # Quickstart
//!
//! ```
//! use enclaves_core::config::LeaderConfig;
//! use enclaves_core::directory::Directory;
//! use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
//! use enclaves_net::sim::{SimConfig, SimNet};
//! use enclaves_wire::ActorId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = SimNet::new(SimConfig::default());
//! let listener = net.listen("leader")?;
//!
//! let mut directory = Directory::new();
//! directory.register_password(&ActorId::new("alice")?, "alice-pw")?;
//!
//! let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
//! let leader = service.add_group(ActorId::new("leader")?, directory, LeaderConfig::default())?;
//!
//! let alice = MemberRuntime::connect(
//!     net.dialer("leader"),
//!     ActorId::new("alice")?,
//!     ActorId::new("leader")?,
//!     "alice-pw",
//! )?;
//! alice.wait_joined(std::time::Duration::from_secs(2))?;
//! leader.wait_member(&ActorId::new("alice")?, std::time::Duration::from_secs(2))?;
//! alice.leave()?;
//! service.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The same handshake without a transport: the leader core's frames go
//! straight to the session, and the session's replies straight back.
//!
//! ```
//! use enclaves_core::config::LeaderConfig;
//! use enclaves_core::directory::Directory;
//! use enclaves_core::protocol::{LeaderCore, MemberSession, SessionPhase};
//! use enclaves_crypto::rng::OsEntropyRng;
//! use enclaves_wire::ActorId;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (alice, leader) = (ActorId::new("alice")?, ActorId::new("leader")?);
//! let mut directory = Directory::new();
//! directory.register_password(&alice, "alice-pw")?;
//! let rng = Box::new(OsEntropyRng::new());
//! let mut core = LeaderCore::with_rng(leader.clone(), directory, LeaderConfig::default(), rng);
//!
//! let (mut session, init) = MemberSession::start_in_group(alice, leader, "alice-pw", None)?;
//! let mut to_leader = vec![init];
//! while let Some(env) = to_leader.pop() {
//!     for frame in core.handle_at(&env, Duration::ZERO)?.outgoing {
//!         to_leader.extend(session.handle(&frame)?.reply);
//!     }
//! }
//! assert_eq!(session.phase(), SessionPhase::Connected);
//! assert_eq!(core.roster().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod config;
pub mod directory;
pub mod group;
pub mod journal;
pub mod legacy;
pub mod liveness;
pub mod protocol;
pub mod runtime;

mod error;

pub use error::{CoreError, RejectReason};
