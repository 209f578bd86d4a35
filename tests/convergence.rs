//! Integration: Theorem 1.1 — self-stabilization from every adversarial
//! initial-state family, audited against the oracle topology.

mod support;

use rechord::core::network::ReChordNetwork;
use rechord::core::oracle::StableTopology;
use rechord::core::stability::Comparison;
use rechord::topology::TopologyKind;

const MAX_ROUNDS: u64 = 100_000;

fn assert_clean_stable(net: &ReChordNetwork, context: &str) {
    let audit = net.audit();
    assert!(audit.missing_unmarked.is_empty(), "{context}: missing {:?}", audit.missing_unmarked);
    assert!(audit.extra_unmarked.is_empty(), "{context}: extras {:?}", audit.extra_unmarked);
    assert!(audit.ring_pair_present, "{context}: extremal ring edges absent");
    assert!(audit.weakly_connected, "{context}: node graph disconnected");
    assert!(audit.projection_strongly_connected, "{context}: overlay not strongly connected");
    assert!(audit.chord.missing_linear.is_empty(), "{context}: non-wrap Chord edges missing");
    assert!(audit.virtual_set_matches, "{context}: virtual node set differs from oracle");
}

#[test]
fn every_family_converges_and_audits_clean() {
    for kind in TopologyKind::ALL {
        for n in [2usize, 3, 8, 24] {
            let topo = kind.generate(n, 0xfeed ^ n as u64);
            let mut net = ReChordNetwork::from_topology(&topo, 2);
            let report = net.run_until_stable(MAX_ROUNDS);
            assert!(report.converged, "{} n={n} did not converge", kind.name());
            assert_clean_stable(&net, &format!("{} n={n}", kind.name()));
        }
    }
}

#[test]
fn larger_random_network_converges() {
    let topo = TopologyKind::Random.generate(80, 0x80);
    let mut net = ReChordNetwork::from_topology(&topo, 4);
    let report = net.run_until_stable(MAX_ROUNDS);
    assert!(report.converged);
    assert_clean_stable(&net, "random n=80");
    // Theorem 1.1 envelope: comfortably below c·n·log n with small c.
    let bound = 80.0 * 80f64.log2();
    assert!(
        (report.rounds_to_stable() as f64) < bound,
        "rounds {} exceed n·log n = {bound:.0}",
        report.rounds_to_stable()
    );
}

#[test]
fn connectivity_never_lost_during_stabilization() {
    // The proofs rely on weak connectivity being invariant; check it every
    // round on a hostile shape.
    let topo = TopologyKind::RandomLine.generate(24, 9);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    for round in 0..MAX_ROUNDS {
        let out = net.round();
        assert!(support::peers_weakly_connected(&net), "peers disconnected at round {round}");
        if !out.changed {
            return;
        }
    }
    panic!("did not converge");
}

#[test]
fn stable_state_is_locally_checkable_fixpoint() {
    let topo = TopologyKind::Star.generate(16, 77);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    assert!(net.run_until_stable(MAX_ROUNDS).converged);
    let frozen = support::states(&net);
    for _ in 0..10 {
        net.round();
        assert_eq!(support::states(&net), frozen, "fixpoint must be absorbing");
    }
}

#[test]
fn two_and_three_peer_edge_cases() {
    for n in [1usize, 2, 3] {
        let topo = TopologyKind::Random.generate(n, 5);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(MAX_ROUNDS);
        assert!(report.converged, "n={n}");
        if n >= 2 {
            assert_clean_stable(&net, &format!("tiny n={n}"));
        }
    }
}

#[test]
fn almost_stable_always_precedes_stable() {
    for seed in 0..5u64 {
        let topo = TopologyKind::Random.generate(20, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 2);
        let target = StableTopology::new(&topo.ids);
        let mut almost = None;
        let report =
            net.engine_mut().run_until_fixpoint_observed(MAX_ROUNDS, |round, _, engine| {
                if almost.is_none() && Comparison::new(&target, engine).almost_stable() {
                    almost = Some(round);
                }
            });
        assert!(report.converged);
        let almost = almost.expect("must pass the milestone");
        assert!(almost <= report.rounds, "almost={almost} > stable={}", report.rounds);
    }
}
