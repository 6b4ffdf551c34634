//! Verification harness reproducing Section 5 of *Intrusion-Tolerant
//! Group Management in Enclaves* (DSN 2001).
//!
//! The paper proves its requirements in PVS over an unbounded model; this
//! crate evaluates the *same* properties over every state of the bounded
//! executable model in `enclaves-model`:
//!
//! * [`secrecy`] — §5.1 (secrecy of the long-term key `P_a`, via the
//!   regularity argument) and §5.2 (secrecy of in-use session keys, via
//!   the ideal/coideal invariant `trace(q) ⊆ C({K_a, P_a})`).
//! * [`diagram`] — §5.3: the Figure 4 verification diagram as an
//!   executable disjunctive invariant — every reachable state must satisfy
//!   exactly one box predicate and every transition must follow a diagram
//!   edge.
//! * [`properties`] — §5.4: the properties read off the diagram — proper
//!   distribution (`rcv_A` is a prefix of `snd_A`), proper authentication
//!   (acceptances pair with requests in order), and key/nonce agreement
//!   when both sides are connected.
//! * [`treekem`] — §5.2 extended to the `O(log N)` rekey tree: an
//!   expelled member's accumulated node-key closure opens no
//!   post-expulsion `PathUpdate` seal and reaches no post-expulsion root.
//! * [`runner`] — packaged verification suites and result tables used by
//!   the benchmark report and `EXPERIMENTS.md`.
//! * [`live`] — the §5.4 predicates over a *threaded* run's own
//!   `enclaves_obs` event stream, plus the faults a driver injected and
//!   its end-of-run snapshot, so the chaos harness asserts the paper's
//!   guarantees against live sessions.
//! * [`obs`] — the model-to-event mapping: the event each honest model
//!   move obliges the implementation to emit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
pub mod live;
pub mod obs;
pub mod properties;
pub mod runner;
pub mod secrecy;
pub mod treekem;
