//! Discrete-event traffic over the self-stabilizing overlay — the question
//! the convergence theorems leave open: **what do clients experience while
//! the network stabilizes?**
//!
//! The paper (Kniesburges/Koutsopoulos/Scheideler, SPAA 2011) bounds how
//! fast Re-Chord returns to its stable topology; this crate measures what
//! that recovery *feels like* from the application side. A [`TrafficSim`]
//! puts protocol rounds, churn, and an open-loop get/put request stream on
//! one virtual clock:
//!
//! * [`EventQueue`] — binary-heap future-event list with deterministic
//!   same-instant ordering: an order key, then scheduling order;
//! * [`TrafficGen`] — Poisson arrivals over Zipf key popularity, with a
//!   hot-key override for flash crowds;
//! * [`LatencyModel`] — uniform / exponential per-hop delays;
//! * [`ServiceQueue`] — per-peer service capacity: a hop through a loaded
//!   peer pays deterministic FIFO queueing delay;
//! * request lifecycle — hop-by-hop greedy routing that re-reads the live
//!   routing table between hops (requests issued mid-stabilization can
//!   stall, retry — paying a counted hop and its sampled latency on
//!   re-entry — or be lost), successor-list replication through the shared
//!   `rechord_placement` engine with an **incremental** anti-entropy
//!   repair pass opened at each fixpoint (O(moved keys), not O(all keys));
//! * **paced repair** — `repair_bandwidth` caps keys moved per tick, every
//!   transferred copy is admitted through the receiver's service queue
//!   (repair competes with foreground traffic), `max_keys_per_peer` lets a
//!   full peer refuse surplus repair copies, and churn preempts a pass
//!   mid-drain; until a key's window is re-replicated, gets probing a
//!   not-yet-copied replica surface as `StaleRead` — the client-visible
//!   repair lag an instantaneous model would hide;
//! * [`SloSink`] — p50/p90/p99 virtual latency, availability, throughput,
//!   windowed timelines, and the repair timeline ([`RepairEvent`]: pass
//!   start/end, time-to-full-replication, per-tick backlog gauge);
//! * **fault injection** — [`AdversaryConfig`] corrupts a seeded fraction
//!   of peers with a typed crime set (drop/misroute forwards, poison
//!   reads, sybil join waves, stalled heartbeats — see
//!   `rechord_core::adversary`); the same crime map drives protocol
//!   rounds *and* the request lifecycle, and poisoned answers surface as
//!   [`OutcomeKind::Corrupted`];
//! * [`FailureDetector`] — false suspicions on top of the global
//!   `detection_lag`, raised only by peers committing `StallHeartbeats`:
//!   requests bounce off live-but-suspected peers, and the suspect/clear
//!   timeline is reported per run. The default [`DetectorConfig`]
//!   reproduces the legacy accurate detector bit-for-bit.
//!
//! The simulator is single-threaded: one [`EventQueue`] holds every event,
//! control events first at each instant, then request events by request
//! id, and every draw is a keyed hash. Its traces are pinned by the literal
//! goldens in `tests/data_plane_golden.rs`.
//!
//! ```
//! use rechord_core::network::ReChordNetwork;
//! use rechord_topology::TimedChurnPlan;
//! use rechord_workload::{TrafficSim, WorkloadConfig};
//!
//! let (net, report) = ReChordNetwork::bootstrap_stable(10, 42, 1, 50_000);
//! assert!(report.converged);
//!
//! let cfg = WorkloadConfig { seed: 42, traffic_end: 1_000, ..Default::default() };
//! let mut sim = TrafficSim::new(cfg, net, &TimedChurnPlan::default());
//! sim.preload();
//! let report = sim.run();
//! assert_eq!(report.summary.availability, 1.0); // stable overlay: no failures
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod detector;
mod event;
mod generator;
mod latency;
mod metrics;
mod sim;

pub use adversary::AdversaryConfig;
pub use detector::{DetectorConfig, FailureDetector, SuspicionEvent};
pub use event::EventQueue;
pub use generator::{Op, Request, TrafficConfig, TrafficGen};
pub use latency::{LatencyModel, ServiceQueue};
pub use metrics::{OutcomeKind, RepairEvent, RequestOutcome, SloSink, SloSummary, WindowStat};
pub use sim::{SimReport, TrafficSim, WorkloadConfig};
