//! Property-based tests of the protocol's global invariants.

use crate::network::ReChordNetwork;
use crate::oracle;
use proptest::prelude::*;
use rechord_graph::connectivity;
use rechord_topology::TopologyKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence (Theorem 1.1, bounded n): from random weakly connected
    /// states the network reaches a fixpoint whose desired edges all exist.
    #[test]
    fn converges_from_random_states(n in 2usize..14, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(20_000);
        prop_assert!(report.converged, "n={n} seed={seed} did not stabilize");
        let audit = net.audit();
        prop_assert!(audit.missing_unmarked.is_empty(),
            "missing edges at fixpoint: {:?}", audit.missing_unmarked);
        prop_assert!(audit.weakly_connected);
        prop_assert!(audit.virtual_set_matches);
    }

    /// Peer-level weak connectivity is never lost on the way to stability
    /// (the precondition of the proofs must be an invariant of the rules).
    #[test]
    fn connectivity_is_invariant(n in 2usize..10, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        for _ in 0..60 {
            let out = net.round();
            prop_assert!(
                connectivity::peers_weakly_connected(&net.snapshot()),
                "peers disconnected mid-stabilization (n={n} seed={seed})"
            );
            if !out.changed {
                break;
            }
        }
    }

    /// Oracle sanity: the desired topology's per-node out-degree is at most
    /// 4 unmarked edges (paper §2.2: "each node in Re-Chord has at most 4
    /// outgoing unmarked edges").
    #[test]
    fn oracle_degree_bound(n in 1usize..40, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let desired = oracle::desired_unmarked(&topo.ids);
        for node in desired.nodes() {
            let deg = desired.adjacency(node).map(|a| a.unmarked.len()).unwrap_or(0);
            prop_assert!(deg <= 4, "node {node:?} has degree {deg}");
        }
    }

    /// Oracle sanity: every Chord edge's endpoints are real peers and the
    /// edge set grows like Θ(n log n).
    #[test]
    fn chord_edge_set_well_formed(n in 2usize..40, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let edges = oracle::chord_edges(&topo.ids);
        prop_assert!(edges.iter().all(|e| e.from != e.to));
        prop_assert!(edges.iter().all(|e| topo.ids.contains(&e.from) && topo.ids.contains(&e.to)));
        // at least the ring (2n directed edges) and at most ~n * (log2 n + 3)
        prop_assert!(edges.len() >= 2 * n);
    }

    /// Stability is genuinely a fixpoint: running more rounds after
    /// convergence changes nothing.
    #[test]
    fn fixpoint_is_absorbing(n in 2usize..10, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(20_000);
        prop_assert!(report.converged);
        let frozen = net.snapshot();
        for _ in 0..5 {
            net.round();
            prop_assert_eq!(net.snapshot(), frozen.clone());
        }
    }

    /// Honest-subset convergence: with a byzantine minority suppressing
    /// their own rules, the honest subset still quiesces and its ring
    /// ordering (level-0 rl/rr against the true sorted order of all live
    /// peers) survives intact. The initial state is a clique so no
    /// knowledge is held *exclusively* by the silent minority — from such
    /// states a byzantine cut vertex can legitimately strand information,
    /// which is an envelope edge the `adversary` binary measures, not a
    /// property to assert.
    #[test]
    fn honest_subset_converges_below_threshold(n in 6usize..14, seed in any::<u64>()) {
        use crate::adversary::{honest_ring_ok, AdversaryMap, HONEST_QUIET_ROUNDS};
        let crimes: crate::CrimeSet = (2u8..=6).map(crate::Crime::ViolateRule).collect();
        let topo = TopologyKind::Clique.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let map = AdversaryMap::assign(&net.real_ids(), 0.125, crimes, 0.0, 0.0, seed);
        let byz: std::collections::BTreeSet<_> = map.byzantine_peers().into_iter().collect();
        net.set_adversary(std::sync::Arc::new(map));
        let mut quiet = 0;
        let mut converged = false;
        for _ in 0..40_000u64 {
            let (_, dirty) = net.round_dirty();
            if dirty.iter().all(|id| byz.contains(id)) {
                quiet += 1;
                if quiet >= HONEST_QUIET_ROUNDS { converged = true; break; }
            } else {
                quiet = 0;
            }
        }
        prop_assert!(converged, "n={n} seed={seed}: honest subset did not quiesce");
        prop_assert!(honest_ring_ok(&net, &byz),
            "n={n} seed={seed}: a {}-peer byzantine minority corrupted the honest ring",
            byz.len());
    }

    /// A fraction-0 adversarial run *is* the plain protocol: same rounds,
    /// same converged flag, for any seed — not just the pinned ones the
    /// unit tests check.
    #[test]
    fn fraction_zero_is_plain_protocol(n in 2usize..12, seed in any::<u64>()) {
        let crimes = crate::CrimeSet::single(crate::Crime::LieAboutSuccessor);
        let (out, net) = crate::adversary::run_adversarial(n, seed, 0.0, crimes, 20_000);
        let topo = TopologyKind::Random.generate(n, seed);
        let mut plain = ReChordNetwork::from_topology(&topo, 1);
        let report = plain.run_until_stable(20_000);
        prop_assert!(report.converged);
        prop_assert_eq!(out.byzantine, 0);
        prop_assert!(out.converged);
        prop_assert_eq!(net.snapshot(), plain.snapshot());
    }
}
