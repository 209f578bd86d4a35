//! Observation of the proof's convergence phases (paper §3.1).
//!
//! The correctness proof splits self-stabilization into five phases, each
//! with its own completion predicate. They are *proof* phases — the real
//! execution interleaves them — so observing the first round where each
//! becomes true gives an empirical phase timeline (the `phases` experiment
//! binary):
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
//!
//! Predicates 1–4 are observed to stay true once they hold. Predicate 5 is
//! not monotone: a rule can create an extra unmarked edge after none was
//! left (3 of the 48 runs at n = 16 in this module's tests re-open it
//! once), so its first round marks when cleanup first completed, not when
//! it stayed complete.
//!
//! Phases 2–5 are read off one [`Comparison`] of the peer states with the
//! [`StableTopology`]: no pred/succ edge missing, the ring pair present, no
//! real-target edge missing, no extra edge. Phase 1 is a connectivity
//! question over the nodes and unmarked edges of the [`Overlay`] the same
//! states hold.

use crate::network::Overlay;
use crate::oracle::StableTopology;
use crate::protocol::ReChordProtocol;
use crate::stability::Comparison;
use rechord_graph::EdgeKind;
use rechord_sim::Engine;

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
    /// Evaluates the five predicates on the states of `engine`'s peers.
    pub fn new(target: &StableTopology, engine: &Engine<ReChordProtocol>) -> Self {
        // Phase 1 counts every node of the overlay, including nodes that
        // are only referenced.
        let unmarked = Overlay::new(engine.iter()).components(&[EdgeKind::Unmarked]);
        let cmp = Comparison::new(target, engine);
        PhaseStatus {
            connected_unmarked: unmarked <= 1,
            linearized: cmp.missing_linear == 0,
            ring_closed: cmp.ring_pair_present,
            real_neighbors: cmp.missing_real == 0,
            cleanup_done: cmp.extra_unmarked.is_empty(),
        }
    }

    /// The five predicates in phase order.
    pub fn flags(&self) -> [bool; 5] {
        [
            self.connected_unmarked,
            self.linearized,
            self.ring_closed,
            self.real_neighbors,
            self.cleanup_done,
        ]
    }

    /// Number of completed phases, counting prefix-wise (phase `k` counts
    /// only if phases `1..k` also hold, matching the proof's ordering).
    pub fn completed_prefix(&self) -> usize {
        self.flags().iter().take_while(|&&f| f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReChordNetwork;
    use crate::stability::stable_states;
    use rechord_topology::TopologyKind;

    #[test]
    fn oracle_state_satisfies_all_phases() {
        let topo = TopologyKind::Random.generate(10, 3);
        let target = StableTopology::new(&topo.ids);
        let net = ReChordNetwork::from_raw_states(stable_states(&target, true), 1);
        let status = PhaseStatus::new(&target, net.engine());
        assert_eq!(status.completed_prefix(), 5, "{status:?}");
    }

    #[test]
    fn initial_random_state_fails_later_phases() {
        let topo = TopologyKind::Random.generate(10, 3);
        let net = ReChordNetwork::from_topology(&topo, 1);
        let status = PhaseStatus::new(&StableTopology::new(&topo.ids), net.engine());
        assert!(!status.linearized);
        assert!(!status.real_neighbors);
    }

    #[test]
    fn timeline_is_monotone_and_complete_on_convergence() {
        // Every run of the grid converges with all five phases holding.
        // Phases 1–4 never turn false once they held; phase 5 re-opens
        // (turns false again after holding) in exactly these runs, once each.
        let mut reopened = Vec::new();
        for kind in TopologyKind::ALL {
            for seed in 0..6 {
                let topo = kind.generate(16, seed);
                let mut net = ReChordNetwork::from_topology(&topo, 1);
                let target = StableTopology::new(&topo.ids);
                let mut last = [false; 5];
                let report =
                    net.engine_mut().run_until_fixpoint_observed(50_000, |round, _, engine| {
                        let flags = PhaseStatus::new(&target, engine).flags();
                        for (k, (&was, &holds)) in last.iter().zip(&flags).enumerate() {
                            if was && !holds {
                                reopened.push((kind.name(), seed, k + 1, round));
                            }
                        }
                        last = flags;
                    });
                assert!(report.converged, "{} seed {seed} must converge", kind.name());
                assert_eq!(last, [true; 5], "{} seed {seed}: phases at the fixpoint", kind.name());
            }
        }
        let phases: Vec<_> =
            reopened.iter().map(|&(name, seed, phase, _)| (name, seed, phase)).collect();
        assert_eq!(
            phases,
            [("random-line", 3, 5), ("star", 3, 5), ("binary-tree", 1, 5)],
            "re-openings (kind, seed, phase, round): {reopened:?}"
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
