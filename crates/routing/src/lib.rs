//! Routing and storage on the stabilized Re-Chord overlay.
//!
//! Fact 2.1 of the paper: the stable Re-Chord network contains Chord as a
//! subgraph, "so it can faithfully emulate any applications on top of
//! Chord". This crate is that application layer:
//!
//! * [`RoutingTable`] — every live peer's knowledge, read off its state;
//! * [`route`] — greedy Chord routing over the projected peer overlay
//!   (§1.1's binary-search path: always hop to the neighbor that gets
//!   closest to the key without overshooting), `O(log n)` hops w.h.p.;
//! * [`route_step`] — the same algorithm one decision at a time, and
//!   [`walk`] — the one loop over it, through a peer's free local steps up
//!   to its next network hop, for request drivers that re-read the live
//!   overlay (or a peer's own view) between hops;
//! * [`KvStore`] — consistent-hashing key-value storage where the key's
//!   cyclic successor peer is responsible, with puts/gets resolved by
//!   routing and placement delegated to the shared
//!   [`rechord_placement::PlacementMap`] engine (incremental repair after
//!   churn).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dht;
mod greedy;

pub use dht::{KvStore, LookupOutcome};
pub use greedy::{route, route_step, walk, HopDecision, RouteResult, RoutingTable, Walk};

#[cfg(test)]
mod proptests;
