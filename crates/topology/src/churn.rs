//! Churn schedules: timed join/leave sequences applied to a running network.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One churn event, scheduled relative to the experiment's round clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A fresh peer (identified by an address to be hashed) joins by
    /// contacting a uniformly chosen existing peer (paper §4.1: "a peer
    /// connects to one peer in the network").
    Join {
        /// New peer's address (hashed onto the ring by the driver).
        address: u64,
    },
    /// A uniformly chosen existing peer leaves gracefully (informs its
    /// neighbors; paper §4.2).
    GracefulLeave,
    /// A uniformly chosen existing peer crashes: it vanishes with all its
    /// edges and cannot say goodbye (paper §4.2 "a fault can occur").
    Crash,
}

/// A deterministic schedule of churn events with inter-event gaps measured
/// in *stabilization opportunities* (the driver lets the network re-stabilize
/// or run a fixed number of rounds between events).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Events in application order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// `joins` joins followed by nothing else — Theorem 4.1's workload.
    pub fn joins_only(joins: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        ChurnPlan { events: (0..joins).map(|_| ChurnEvent::Join { address: rng.gen() }).collect() }
    }

    /// `crashes` crash failures — Theorem 4.2's fault variant.
    pub fn crashes_only(crashes: usize) -> Self {
        ChurnPlan { events: vec![ChurnEvent::Crash; crashes] }
    }

    /// A mixed schedule: each event is a join with probability `p_join`,
    /// otherwise a crash or graceful leave with equal probability.
    pub fn mixed(events: usize, p_join: f64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let events = (0..events)
            .map(|_| {
                if rng.gen_bool(p_join.clamp(0.0, 1.0)) {
                    ChurnEvent::Join { address: rng.gen() }
                } else if rng.gen_bool(0.5) {
                    ChurnEvent::GracefulLeave
                } else {
                    ChurnEvent::Crash
                }
            })
            .collect();
        ChurnPlan { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A churn event pinned to an instant of a discrete-event clock (virtual
/// ticks), for drivers that interleave churn with request traffic instead of
/// politely waiting for re-stabilization between events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedChurnEvent {
    /// Virtual time at which the event strikes.
    pub at: u64,
    /// The event itself.
    pub event: ChurnEvent,
}

/// A deterministic schedule of [`TimedChurnEvent`]s, kept sorted by time
/// (ties preserve insertion order, so merged plans replay identically).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimedChurnPlan {
    events: Vec<TimedChurnEvent>,
}

impl TimedChurnPlan {
    /// Lays an untimed plan out on the clock: event `k` fires at
    /// `start + k * spacing`.
    pub fn from_plan(plan: &ChurnPlan, start: u64, spacing: u64) -> Self {
        TimedChurnPlan {
            events: plan
                .events
                .iter()
                .enumerate()
                .map(|(k, &event)| TimedChurnEvent { at: start + k as u64 * spacing, event })
                .collect(),
        }
    }

    /// A churn storm: `events` mixed join/leave/crash events starting at
    /// `start`, one every `spacing` ticks — far faster than re-stabilization,
    /// which is the point.
    pub fn storm(events: usize, p_join: f64, start: u64, spacing: u64, seed: u64) -> Self {
        Self::from_plan(&ChurnPlan::mixed(events, p_join, seed), start, spacing)
    }

    /// A join wave: `joins` fresh peers arriving every `spacing` ticks from
    /// `start` (Theorem 4.1's workload under load).
    pub fn join_wave(joins: usize, start: u64, spacing: u64, seed: u64) -> Self {
        Self::from_plan(&ChurnPlan::joins_only(joins, seed), start, spacing)
    }

    /// A crash wave: `crashes` peers failing every `spacing` ticks.
    pub fn crash_wave(crashes: usize, start: u64, spacing: u64) -> Self {
        Self::from_plan(&ChurnPlan::crashes_only(crashes), start, spacing)
    }

    /// Merges two plans into one schedule, re-sorted by time (stable, so
    /// same-instant events keep `self`-before-`other` order).
    pub fn merged(mut self, other: TimedChurnPlan) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The events, ascending by time.
    pub fn events(&self) -> &[TimedChurnEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `(first, last)` strike times, or `None` when empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => Some((a.at, b.at)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_only_is_deterministic_and_join_only() {
        let a = ChurnPlan::joins_only(5, 1);
        let b = ChurnPlan::joins_only(5, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.events.iter().all(|e| matches!(e, ChurnEvent::Join { .. })));
    }

    #[test]
    fn leaves_and_crashes() {
        assert_eq!(ChurnPlan::crashes_only(2).events, vec![ChurnEvent::Crash; 2]);
        let departures = ChurnPlan::mixed(20, 0.0, 7).events;
        assert!(departures.contains(&ChurnEvent::GracefulLeave));
        assert!(departures.contains(&ChurnEvent::Crash));
    }

    #[test]
    fn mixed_respects_probability_extremes() {
        let all_joins = ChurnPlan::mixed(20, 1.0, 7);
        assert!(all_joins.events.iter().all(|e| matches!(e, ChurnEvent::Join { .. })));
        let no_joins = ChurnPlan::mixed(20, 0.0, 7);
        assert!(no_joins.events.iter().all(|e| !matches!(e, ChurnEvent::Join { .. })));
    }

    #[test]
    fn empty_plan() {
        let p = ChurnPlan::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn timed_plan_lays_out_on_the_clock() {
        let plan = TimedChurnPlan::from_plan(&ChurnPlan::crashes_only(3), 100, 25);
        assert_eq!(plan.len(), 3);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 125, 150]);
        assert_eq!(plan.span(), Some((100, 150)));
        assert!(plan.events().iter().all(|e| matches!(e.event, ChurnEvent::Crash)));
    }

    #[test]
    fn timed_plan_merge_sorts_stably() {
        let joins = TimedChurnPlan::join_wave(2, 50, 100, 7); // 50, 150
        let crashes = TimedChurnPlan::crash_wave(2, 50, 50); // 50, 100
        let merged = joins.clone().merged(crashes);
        let times: Vec<u64> = merged.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![50, 50, 100, 150]);
        // stable: the join scheduled at 50 precedes the crash at 50
        assert!(matches!(merged.events()[0].event, ChurnEvent::Join { .. }));
        assert!(matches!(merged.events()[1].event, ChurnEvent::Crash));
        // determinism end to end
        let again =
            TimedChurnPlan::join_wave(2, 50, 100, 7).merged(TimedChurnPlan::crash_wave(2, 50, 50));
        assert_eq!(merged, again);
    }

    #[test]
    fn timed_plan_empty_and_storm() {
        assert!(TimedChurnPlan::default().is_empty());
        assert_eq!(TimedChurnPlan::default().span(), None);
        let storm = TimedChurnPlan::storm(10, 0.4, 1_000, 10, 3);
        assert_eq!(storm.len(), 10);
        assert_eq!(storm.span(), Some((1_000, 1_090)));
        assert_eq!(storm, TimedChurnPlan::storm(10, 0.4, 1_000, 10, 3));
    }
}
