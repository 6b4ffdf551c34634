//! Observability for the Enclaves runtimes: typed metrics, structured
//! protocol events, and stable snapshots.
//!
//! A production operator of an intrusion-tolerant group (the ROADMAP
//! north-star) needs to *see* a rekey storm, a stuck retransmit loop, or a
//! seal-time regression as it happens — not reconstruct it afterwards from
//! a chaos trace. This crate provides the three pieces the rest of the
//! workspace wires together:
//!
//! * [`Registry`] — a registry of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s. Registration takes a short lock;
//!   recording is a relaxed atomic operation on a shared cell, so the hot
//!   paths (one increment per accepted frame, per seal, per broadcast)
//!   stay lock-free and cost nanoseconds. The tree-rekey control plane
//!   reports through the same registry: `leader.rekey_seals` counts
//!   copath-node seals per rotation (the `O(log N)` bound the bench
//!   report enforces) and `leader.path_depth` histograms the refreshed
//!   path depths.
//! * [`EventStream`] — an ordered, timestamped stream of
//!   [`ProtocolEvent`]s (join/auth/rekey/expel/retransmit/seal, each
//!   carrying epoch, channel sequence numbers, and monotonic timestamps).
//!   The §5.4 oracle in `enclaves-verify::live` checks a run from this
//!   stream directly — divergence between the metrics view and the event
//!   view of a run is itself a test failure. A component without an
//!   attached stream pays one `Option` check per would-be event.
//! * [`Snapshot`] — a point-in-time copy of a registry with a *stable*
//!   JSON encoding (sorted keys, integers only — dashboards can depend on
//!   the schema), a decoder, a merge operation (union of disjoint names,
//!   sum of shared ones), and a human `fmt` renderer.
//!
//! The dependency surface is intentionally zero: every other crate in the
//! workspace can depend on this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod snapshot;

pub use event::{EventKind, EventStream, ProtocolEvent};
pub use metrics::{Counter, Gauge, Histogram, Registry, DEFAULT_NS_BOUNDS};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotError};
