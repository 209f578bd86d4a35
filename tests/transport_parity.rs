//! Integration: the transport subsystem joins the reproducibility
//! contract — protocol rounds replayed through `InMemTransport` (each
//! peer owning only its own state, exchanging `StateSync`/`RoundMsgs`
//! frames) converge in the same number of rounds, with the same per-round
//! message counts, to the same per-peer states as the direct-call engine,
//! on the same golden scenarios `tests/determinism.rs` pins.
//!
//! This is the claim that makes the simulator's numbers transfer to real
//! deployments: the wire changes *how* state moves, never *what* the
//! protocol computes.

mod support;

use rechord::core::network::ReChordNetwork;
use rechord::net::{stabilize_lockstep, ClusterConfig};
use rechord::placement::PlacementMap;
use rechord::topology::{InitialTopology, TopologyKind};

/// The golden scenarios of `tests/determinism.rs`, verbatim.
fn golden() -> Vec<(&'static str, InitialTopology)> {
    vec![
        ("random-40", TopologyKind::Random.generate(40, 0xd15c)),
        ("clique-12", TopologyKind::Clique.generate(12, 7)),
        ("binary-tree-18", TopologyKind::BinaryTree.generate(18, 3)),
    ]
}

#[test]
fn lockstep_transport_matches_engine_on_golden_scenarios() {
    for (name, topo) in golden() {
        // Direct-call reference: the engine, one round at a time up to the
        // first round that changes nothing, keeping each round's counts.
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let mut trace: Vec<(usize, usize)> = Vec::new();
        let converged = loop {
            let out = net.round();
            trace.push((out.delivered, out.dropped));
            if !out.changed || trace.len() == 100_000 {
                break !out.changed;
            }
        };
        assert!(converged, "{name}: engine must converge");
        let rounds = trace.len() as u64;
        let total_messages: usize = trace.iter().map(|(d, x)| d + x).sum();

        // The same topology as message-passing peers over the loopback
        // fabric, pumped in lock step.
        let cfg = ClusterConfig {
            topology: topo.clone(),
            space_seed: 0,
            replication: 1,
            max_rounds: 100_000,
        };
        let (lockstep, states) = stabilize_lockstep(&cfg).expect(name);

        assert!(lockstep.converged, "{name}: every transport node must converge");
        assert_eq!(lockstep.rounds, rounds, "{name}: round counts diverged");
        assert_eq!(
            lockstep.total_messages, total_messages,
            "{name}: total message counts diverged"
        );
        assert_eq!(lockstep.per_round.len(), trace.len(), "{name}: trace lengths diverged");
        for (round, (got, want)) in lockstep.per_round.iter().zip(&trace).enumerate() {
            assert_eq!(got, want, "{name}: round {} message counts diverged", round + 1);
        }

        // Same states, peer for peer (so the same overlay)...
        assert_eq!(states, support::states(&net), "{name}: converged states diverged");

        // ...and the same key placement a DHT would build on top.
        let peers: Vec<_> = states.iter().map(|(id, _)| *id).collect();
        let transport_placement = PlacementMap::<String>::from_peers(&peers, 2);
        let engine_placement = PlacementMap::<String>::from_peers(&net.real_ids(), 2);
        assert_eq!(
            transport_placement.digest(),
            engine_placement.digest(),
            "{name}: placement digests diverged"
        );
    }
}
