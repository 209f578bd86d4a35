//! The sharded placement engine: key→replica assignment on the identifier
//! ring, with **incremental** repair.
//!
//! Re-Chord's value proposition (Kniesburges/Koutsopoulos/Scheideler,
//! SPAA 2011) is locality: the overlay re-stabilizes in `O(log² n)` rounds
//! after a join and `O(log n)` after a leave, because a topology change only
//! perturbs the ring near the changed peer. The data layer must not throw
//! that locality away by rebuilding the entire key→replica placement at
//! every stabilization fixpoint. This crate owns placement for both the DHT
//! ([`rechord_routing`]'s `KvStore`) and the discrete-event workload
//! simulator ([`rechord_workload`]), so the successor-window arithmetic
//! exists exactly once:
//!
//! * [`PlacementMap`] — key→version records **sharded by ring arc** (one
//!   shard per primary peer), plus a per-peer copy index;
//! * [`PlacementMap::replica_set`] — the canonical "responsible peer and its
//!   `replication − 1` cyclic successors" computation;
//! * [`PlacementMap::apply_join`] / [`PlacementMap::apply_leave`] — O(moved
//!   keys) topology deltas: arc split/merge, graceful max-merge handoff to
//!   the successor, crash loss;
//! * [`PlacementMap::begin_repair`] / [`PlacementMap::repair_step`] — the
//!   **paced** repair plan: dirty arcs drain in deterministic ring order,
//!   at most `max_keys` records moved per step, with a resume cursor
//!   between steps, a per-peer capacity cap on surplus repair copies
//!   ([`PlacementMap::set_peer_capacity`]), and automatic invalidation by
//!   churn (the next plan re-begins from the surviving dirty set);
//! * [`PlacementMap::repair_delta`] — the one-shot incremental anti-entropy
//!   pass: it re-replicates only the arcs adjacent to changed peers,
//!   O(moved keys) instead of O(all keys);
//! * [`PlacementMap::rebuild`] — the full recomputation, kept solely as the
//!   property-test oracle (`repair_delta`, or any schedule of bounded
//!   `repair_step` calls, composed over any churn trace must be
//!   bit-identical to `rebuild` on the final snapshot).
//!
//! [`rechord_routing`]: https://docs.rs/rechord_routing
//! [`rechord_workload`]: https://docs.rs/rechord_workload
//!
//! ```
//! use rechord_id::{IdSpace, Ident};
//! use rechord_placement::{Departure, PlacementMap};
//!
//! let space = IdSpace::new(7);
//! let peers: Vec<Ident> = (0..16u64).map(|a| space.ident_of(a)).collect();
//! let mut map: PlacementMap<()> = PlacementMap::from_peers(&peers, 3);
//! for key in 0..1_000u64 {
//!     map.put(space.key_position(key), key, 0, ());
//! }
//!
//! // A join splits one arc and dirties the replication-wide window around
//! // it; repairing touches only those keys — a tiny fraction of the map.
//! map.apply_join(space.ident_of(99));
//! let stats = map.repair_delta();
//! assert!(stats.keys_examined < 1_000 / 2);
//! assert_eq!(stats.arcs_touched, 3);
//!
//! // The incremental result is bit-identical to the full-rebuild oracle.
//! let mut oracle = map.clone();
//! oracle.rebuild();
//! assert_eq!(map, oracle);
//!
//! // Paced repair spreads the same work over bounded steps: a bandwidth
//! // model moves at most `max_keys` records per tick and resumes where it
//! // left off — converging to the very same placement.
//! map.apply_join(space.ident_of(123));
//! let backlog = map.begin_repair();
//! let mut steps = 0;
//! while !map.repair_step(8).done {
//!     steps += 1;
//! }
//! assert!(backlog > 8 && steps > 0, "several bounded steps drained the backlog");
//! assert_eq!(map.repair_backlog_keys(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;

pub use map::{Departure, PlacementMap, Probe, Record, RepairStats, RepairStep};

#[cfg(test)]
mod proptests;
