//! Observation of the proof's convergence phases (paper §3.1).
//!
//! The correctness proof splits self-stabilization into five phases, each
//! with its own completion predicate. They are *proof* phases — the real
//! execution interleaves them — but each predicate is monotone once the
//! previous ones hold, so observing the first round where each becomes true
//! gives an empirical phase timeline (the `phases` experiment binary):
//!
//! 1. **Connection** (Lemma 3.2): all nodes weakly connected by unmarked
//!    edges alone.
//! 2. **Linearization** (Lemma 3.6): consecutive nodes (in sorted order)
//!    are mutually connected by unmarked edges — the sorted list exists.
//! 3. **Ring** (Lemma 3.9): the extremal ring-edge pair closes the cycle.
//! 4. **Closest real neighbor** (Lemma 3.10): every node's `rl`/`rr` edges
//!    match the oracle.
//! 5. **Finish** (Lemma 3.11): no unnecessary (extra unmarked) edges
//!    remain.

use crate::oracle;
use rechord_graph::{connectivity, Edge, EdgeKind, OverlayGraph};
use rechord_id::Ident;

/// Which phase predicates currently hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStatus {
    /// Phase 1: weak connectivity through unmarked edges only.
    pub connected_unmarked: bool,
    /// Phase 2: consecutive sorted nodes mutually linked by unmarked edges.
    pub linearized: bool,
    /// Phase 3: the extremal ring-edge pair exists.
    pub ring_closed: bool,
    /// Phase 4: all closest-real-neighbor edges of the oracle exist.
    pub real_neighbors: bool,
    /// Phase 5: no unmarked edges beyond the oracle's desired set.
    pub cleanup_done: bool,
}

impl PhaseStatus {
    /// Number of completed phases, counting prefix-wise (phase `k` counts
    /// only if phases `1..k` also hold, matching the proof's ordering).
    pub fn completed_prefix(&self) -> usize {
        let flags = [
            self.connected_unmarked,
            self.linearized,
            self.ring_closed,
            self.real_neighbors,
            self.cleanup_done,
        ];
        flags.iter().take_while(|&&f| f).count()
    }

    /// All five predicates hold.
    pub fn all(&self) -> bool {
        self.completed_prefix() == 5
    }
}

/// Evaluates all five phase predicates on a snapshot.
pub fn observe(snapshot: &OverlayGraph, real_ids: &[Ident]) -> PhaseStatus {
    let oracle_nodes = oracle::stable_nodes(real_ids);
    let desired = oracle::desired_unmarked(real_ids);

    // Phase 1: connectivity over unmarked edges only.
    let unmarked_only: OverlayGraph = {
        let mut g: OverlayGraph =
            snapshot.edges().filter(|e| e.kind == EdgeKind::Unmarked).collect();
        for n in snapshot.nodes() {
            g.add_node(*n);
        }
        g
    };
    let connected_unmarked = connectivity::weakly_connected(&unmarked_only);

    // Phase 2: Lemma 3.6's endpoint — consecutive (oracle) nodes mutually
    // connected by unmarked edges. Only meaningful once the oracle's node
    // set is simulated; missing nodes fail the predicate.
    let linearized = oracle_nodes.windows(2).all(|w| {
        let (a, b) = (w[0], w[1]);
        snapshot.has_edge(&Edge::unmarked(a, b)) && snapshot.has_edge(&Edge::unmarked(b, a))
    });

    // Phase 3: the persistent extremal ring pair.
    let ring_closed = oracle::desired_ring_pair(real_ids)
        .map(|(x, y)| snapshot.has_edge(&x) && snapshot.has_edge(&y))
        .unwrap_or(true);

    // Phase 4: every desired closest-real edge exists. The rl/rr edges are
    // exactly the desired edges whose target is real and which are not the
    // pred/succ edge; checking the full desired set's real-target edges is
    // equivalent and avoids reaching into peer state.
    let real_neighbors = desired.edges().filter(|e| e.to.is_real()).all(|e| snapshot.has_edge(&e));

    // Phase 5: no unnecessary unmarked edges.
    let cleanup_done =
        snapshot.edges().filter(|e| e.kind == EdgeKind::Unmarked).all(|e| desired.has_edge(&e));

    PhaseStatus { connected_unmarked, linearized, ring_closed, real_neighbors, cleanup_done }
}

/// The first round (1-based) at which each phase predicate held, observed
/// over a run. `None` means the phase was never observed within the budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimeline {
    /// First round each of the five predicates held.
    pub first_true: [Option<u64>; 5],
    /// Round at which the run reached the fixpoint, if it did.
    pub stable_round: Option<u64>,
}

impl PhaseTimeline {
    /// Records the status after `round`.
    pub fn record(&mut self, round: u64, status: PhaseStatus) {
        let flags = [
            status.connected_unmarked,
            status.linearized,
            status.ring_closed,
            status.real_neighbors,
            status.cleanup_done,
        ];
        for (slot, flag) in self.first_true.iter_mut().zip(flags) {
            if slot.is_none() && flag {
                *slot = Some(round);
            }
        }
    }
}

/// Runs a network to its fixpoint while recording the phase timeline.
pub fn run_with_timeline(
    net: &mut crate::network::ReChordNetwork,
    max_rounds: u64,
) -> PhaseTimeline {
    let ids = net.real_ids();
    let mut timeline = PhaseTimeline::default();
    for round in 1..=max_rounds {
        let out = net.round();
        timeline.record(round, observe(&net.snapshot(), &ids));
        if !out.changed {
            timeline.stable_round = Some(round);
            break;
        }
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReChordNetwork;
    use rechord_topology::TopologyKind;

    #[test]
    fn oracle_state_satisfies_all_phases() {
        let topo = TopologyKind::Random.generate(10, 3);
        let mut snapshot = oracle::desired_unmarked(&topo.ids);
        if let Some((a, b)) = oracle::desired_ring_pair(&topo.ids) {
            snapshot.add_edge(a);
            snapshot.add_edge(b);
        }
        let status = observe(&snapshot, &topo.ids);
        assert!(status.all(), "{status:?}");
        assert_eq!(status.completed_prefix(), 5);
    }

    #[test]
    fn initial_random_state_fails_later_phases() {
        let topo = TopologyKind::Random.generate(10, 3);
        let net = ReChordNetwork::from_topology(&topo, 1);
        let status = observe(&net.snapshot(), &topo.ids);
        assert!(!status.linearized);
        assert!(!status.real_neighbors);
    }

    #[test]
    fn timeline_is_monotone_and_complete_on_convergence() {
        let topo = TopologyKind::Random.generate(12, 9);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let tl = run_with_timeline(&mut net, 50_000);
        let stable = tl.stable_round.expect("must converge");
        for (k, ft) in tl.first_true.iter().enumerate() {
            let r = ft.unwrap_or_else(|| panic!("phase {} never held", k + 1));
            assert!(r <= stable, "phase {} after stabilization", k + 1);
        }
        // prefix ordering: each phase's first-true is not before phase 1's
        assert!(
            tl.first_true[0].unwrap() <= tl.first_true[1].unwrap().max(tl.first_true[0].unwrap())
        );
    }

    #[test]
    fn completed_prefix_requires_earlier_phases() {
        let s = PhaseStatus {
            connected_unmarked: false,
            linearized: true,
            ring_closed: true,
            real_neighbors: true,
            cleanup_done: true,
        };
        assert_eq!(s.completed_prefix(), 0, "phase 1 gates everything");
    }
}
