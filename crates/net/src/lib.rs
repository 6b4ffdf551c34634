//! Insecure asynchronous network substrate for the Enclaves reproduction.
//!
//! The paper assumes "a set of agents connected via an insecure
//! asynchronous network": messages can be observed, dropped, duplicated,
//! reordered, replayed, and forged. This crate provides that network in two
//! forms:
//!
//! * [`sim`] — an in-process, deterministic (seeded) simulated network with
//!   configurable fault injection and a Dolev-Yao [`sim::Adversary`] tap
//!   that observes every frame and can inject arbitrary frames. All attack
//!   demonstrations run on this substrate.
//! * [`mux`] — the real TCP transport: **one** readiness-loop thread owns
//!   every socket (vendored mio-style poller), so the thread count does
//!   not grow with the connection count, and outbound queues are bounded
//!   with an explicit slow-consumer policy. Every real-socket leader, the
//!   CLI example and the 10k-member load rig run on it.
//!
//! Both present the same two faces, the loop's [`MuxEvent`]s on channels
//! and sends by connection token. A member host holds a
//! [`link::Dialer`] ([`sim::SimNet::dialer`] or [`MuxNet::dialer`]),
//! which opens connections onto the host's own channels. A leader holds
//! a [`link::Listener`] (a simulated listener, or a readiness-loop
//! [`MuxEndpoint`]): every connection's events on shard channels. So one
//! host serves every member and one service loop every leader, simulated
//! or not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod mux;
pub mod sim;

mod error;

pub use error::NetError;
pub use link::{Dialer, Frame, Link, Listener};
pub use mux::{MuxConfig, MuxEndpoint, MuxEvent, MuxNet, MuxOverflow, MuxToken};
