//! Integration: robustness beyond the synchronous model — the paper notes
//! the rules tolerate parallel/partial application. Under a *fair* random
//! activation schedule (each peer fires each round with probability `p`),
//! the desired Re-Chord structure still emerges; a synchronous tail then
//! confirms the full fixpoint quickly.
//!
//! (The exact fixpoint is a synchronous-model artifact: the stable state
//! carries periodic in-flight ring/connection streams whose pattern depends
//! on the firing schedule, so "state unchanged after one full round" is not
//! the right convergence probe mid-schedule. "All desired edges exist" is.)

mod support;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rechord::core::network::ReChordNetwork;
use rechord::core::oracle::StableTopology;
use rechord::core::stability::Comparison;
use rechord::topology::TopologyKind;

/// Drives `net` with a fair random activation schedule until the
/// almost-stable milestone (all desired edges exist). Returns the number of
/// partial rounds taken, or `None` on budget exhaustion.
fn partial_rounds_until_almost_stable(
    net: &mut ReChordNetwork,
    p: f64,
    seed: u64,
    max_rounds: u64,
) -> Option<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = StableTopology::new(&net.real_ids());
    for round in 1..=max_rounds {
        let ids = net.real_ids();
        let active: std::collections::BTreeSet<_> =
            ids.iter().copied().filter(|_| rng.gen_bool(p)).collect();
        net.engine_mut().round_with_schedule(|id| active.contains(&id));
        // probing every round is O(oracle); every 4th is plenty
        if round % 4 == 0 && Comparison::new(&target, net.engine()).almost_stable() {
            return Some(round);
        }
    }
    None
}

#[test]
fn desired_structure_emerges_under_half_rate_activation() {
    for seed in 0..3u64 {
        let topo = TopologyKind::Random.generate(14, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let rounds = partial_rounds_until_almost_stable(&mut net, 0.5, seed ^ 0xa5, 20_000)
            .expect("fair half-rate schedule must build the desired structure");
        assert!(rounds > 0);
        // a synchronous tail confirms the true fixpoint promptly
        let tail = net.run_until_stable(10_000);
        assert!(tail.converged, "seed={seed}");
        let audit = net.audit();
        assert!(audit.missing_unmarked.is_empty(), "seed={seed}: {:?}", audit.missing_unmarked);
        assert!(audit.projection_strongly_connected);
    }
}

#[test]
fn desired_structure_emerges_under_sparse_activation() {
    let topo = TopologyKind::RandomLine.generate(10, 77);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let rounds = partial_rounds_until_almost_stable(&mut net, 0.2, 9, 60_000)
        .expect("sparse but fair schedule must still converge");
    assert!(rounds > 0, "took {rounds} partial rounds");
    assert!(net.run_until_stable(10_000).converged);
    assert!(net.audit().missing_unmarked.is_empty());
}

#[test]
fn same_final_structure_as_synchronous_run() {
    let topo = TopologyKind::Random.generate(12, 5);
    let mut sync_net = ReChordNetwork::from_topology(&topo, 1);
    assert!(sync_net.run_until_stable(100_000).converged);

    let mut async_net = ReChordNetwork::from_topology(&topo, 1);
    partial_rounds_until_almost_stable(&mut async_net, 0.6, 31, 60_000).expect("converges");
    assert!(async_net.run_until_stable(10_000).converged);

    // The stable topology is unique for a given identifier set, so both
    // executions end with identical desired structure (in-flight streams
    // may differ; desired unmarked edges cannot).
    for net in [&sync_net, &async_net] {
        let audit = net.audit();
        assert!(audit.missing_unmarked.is_empty());
        assert!(audit.extra_unmarked.is_empty());
    }
}

#[test]
fn stalled_peer_does_not_break_others() {
    // One peer never fires (unfair to it), the rest run; the network cannot
    // fully stabilize (its edges stay stale) but must remain connected and
    // keep every other peer's structure intact.
    let topo = TopologyKind::Random.generate(10, 21);
    let stalled = topo.ids[4];
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    for _ in 0..500 {
        net.engine_mut().round_with_schedule(|id| id != stalled);
    }
    assert!(support::peers_weakly_connected(&net));
}
