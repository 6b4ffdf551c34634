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
//! * [`tcp`] — a real TCP transport (threads + length-prefixed frames) for
//!   the runnable examples.
//! * [`mux`] — a real TCP transport where **one** readiness-loop thread
//!   owns every socket (vendored mio-style poller): bounded thread count
//!   independent of connection count, bounded outbound queues with an
//!   explicit slow-consumer policy. This is the backend the 10k-member
//!   load rig runs on.
//!
//! All of them implement the [`link::Link`] / [`link::Listener`] traits
//! consumed by the runtime in `enclaves-core`, so the same leader/member
//! code runs on any backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod mux;
pub mod sim;
pub mod tcp;

mod error;

pub use error::NetError;
pub use link::{Frame, Link, Listener};
pub use mux::{
    MuxAcceptor, MuxConfig, MuxEndpoint, MuxEvent, MuxLink, MuxNet, MuxOverflow, MuxToken,
};
