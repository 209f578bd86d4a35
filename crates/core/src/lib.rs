//! **Re-Chord**: a self-stabilizing Chord overlay network.
//!
//! This crate implements the primary contribution of Kniesburges,
//! Koutsopoulos & Scheideler (SPAA 2011): a distributed protocol of six
//! purely local rules that recovers the Re-Chord topology — a locally
//! checkable extension of Chord — from **any weakly connected initial
//! state**, in `O(n log n)` synchronous rounds w.h.p., and re-stabilizes
//! after an isolated join in `O(log² n)` / leave in `O(log n)` rounds.
//!
//! # Model recap (paper §2)
//!
//! Every peer `u` has an immutable identifier in `[0,1)` and simulates
//! virtual nodes `u_i = u + 1/2^i (mod 1)` for `i = 1..=m`, where `u_m` is
//! the first virtual node that falls inside the gap to `u`'s closest known
//! clockwise real neighbor. Nodes carry three classes of outgoing edges —
//! unmarked (`E_u`), ring (`E_r`), connection (`E_c`) — and run, every
//! round, the six rules of §2.3:
//!
//! 1. **Virtual nodes** — create levels `1..=m`, delete deeper ones, handing
//!    their neighborhoods to `u_m`.
//! 2. **Overlapping neighborhood** — move an unmarked neighbor `w` of `u_i`
//!    to the sibling `u_j` lying between `w` and `u_i`.
//! 3. **Closest real neighbor** — find the nearest real node on each side
//!    within the peer's knowledge, connect to it, and tell the neighbors
//!    that might care.
//! 4. **Linearization** — keep only the closest neighbor per side, delegate
//!    the rest pairwise toward their position (forwarding), and mirror
//!    backward edges from the closest neighbors.
//! 5. **Ring edges** — nodes missing a left/right neighbor are wired to the
//!    extremal candidates by special marked edges, which are greedily
//!    forwarded until the global min and max hold each other.
//! 6. **Connection edges** — contiguous virtual siblings launch connection
//!    edges that hop toward each other so the virtual graph can never fall
//!    apart into per-peer islands.
//!
//! The stable state contains Chord as a subgraph (Fact 2.1), so Chord
//! applications (routing, DHT storage — see `rechord-routing`) run on top
//! unchanged.
//!
//! # Crate layout
//!
//! * [`state`] — per-peer protocol state (`N_u`, `N_r`, `N_c`, `rl`, `rr`
//!   per virtual level) and the knowledge/`m` computations;
//! * [`msg`] — the delayed-assignment message (`A <- B` of the paper);
//! * [`rules`] — one module per rule, in paper order;
//! * [`protocol`] — the [`ReChordProtocol`] glue implementing
//!   `rechord_sim::SyncProtocol`;
//! * [`network`] — [`ReChordNetwork`], the user-facing handle: build from an
//!   initial topology, run to stability, join/leave/crash peers;
//!   [`network::Overlay`], the overlay read off peer states for the checks
//!   and for rendering;
//! * [`oracle`] — the *target* stable topology, one value computed once
//!   from the identifier set (what the protocol must converge to), plus the
//!   Chord edge set for Fact 2.1;
//! * [`stability`] — the one comparison of peer states with that target:
//!   almost-stability and the stable-state audit report;
//! * [`phases`] — the §3.1 proof phases, read off the same comparison;
//! * [`projection`] — `E_ReChord = {(u,v) ∈ V_r² : ∃i (u_i,v) ∈ E_u ∪ E_r}`;
//! * [`metrics`] — the quantities plotted in the paper's Figures 5–7;
//! * [`churn`] — join / graceful-leave / crash drivers (§4);
//! * [`adversary`] — Byzantine fault injection: the crime catalog, per-peer
//!   crime sets, and the honest-subset convergence harness;
//! * [`ablation`] — switching one of rules 2–6 off: every peer commits
//!   `ViolateRule(k)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adversary;
pub mod churn;
pub mod metrics;
pub mod msg;
pub mod network;
pub mod oracle;
pub mod phases;
pub mod projection;
pub mod protocol;
pub mod rules;
pub mod stability;
pub mod state;

pub use adversary::{AdversaryMap, Crime, CrimeSet};
pub use metrics::NetworkMetrics;
pub use msg::Msg;
pub use network::ReChordNetwork;
pub use protocol::ReChordProtocol;
pub use state::{PeerState, RefSet, VirtualState};

#[cfg(test)]
mod proptests;
