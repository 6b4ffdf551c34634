//! Deterministic chaos harness for the Enclaves group-management stack.
//!
//! The paper's §5.4 guarantees are proved over an abstract model; this
//! crate throws *live* threaded sessions into the weather the model never
//! sees — seeded schedules of joins, leaves, expels, rekeys, broadcasts,
//! partitions, heals, crashes, and reconnects over a fault-injecting
//! network — with the leader and every member emitting onto one shared
//! `enclaves_obs::EventStream`. After the run, the network is healed and
//! the system driven to quiescence; the stream, in the product's own
//! `EventKind` vocabulary, is checked by the same property predicates the
//! model checker uses ([`enclaves_verify::live`]). The driver records
//! nothing the product can say itself: only the faults it injected and
//! the end-of-run snapshot, each stamped with its position in the stream.
//!
//! The moving parts:
//!
//! * [`schedule`] — [`ChaosEvent`] vocabulary, scripted schedules, and the
//!   seeded state-aware random generator behind the soak test.
//! * [`fabric`] — the [`Fabric`] abstraction over where the chaos happens:
//!   [`SimFabric`] (in-process simulator with partitions, kills, and every
//!   probabilistic fault) and [`TcpProxyFabric`] (real TCP through an
//!   adversarial proxy, for transport parity).
//! * [`world`] — the driver: spawns leader + members on one event stream,
//!   executes a schedule, finalizes (heal → quiesce → probe), and returns
//!   the verdict.
//! * [`shrink`] — on failure, binary-searches the minimal failing schedule
//!   prefix and prints the seed + schedule needed to reproduce it.
//!
//! A fixed `(seed, schedule)` pair reproduces the same fault pattern
//! exactly; thread interleavings still vary, which is the point — the
//! properties must hold on *every* interleaving, and any failure is
//! reported with its reproduction recipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod schedule;
pub mod shrink;
pub mod world;

pub use fabric::{Fabric, SimFabric, TcpProxyFabric};
pub use schedule::{ChaosEvent, Schedule};
pub use shrink::{shrink_failure, ShrunkFailure};
pub use world::{
    run_crash_restart, run_multigroup, run_schedule, ChaosOptions, ChaosOutcome,
    CrashRestartOutcome, MultigroupOutcome,
};
