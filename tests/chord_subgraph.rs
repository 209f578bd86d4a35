//! Integration: Fact 2.1 — the stable Re-Chord network contains Chord as a
//! subgraph, so Chord applications run on top unchanged.

use rechord::core::network::{Overlay, ReChordNetwork};
use rechord::core::oracle::{ChordEdgeKind, StableTopology};
use rechord::core::projection::{chord_coverage, Projection};
use rechord::topology::TopologyKind;

fn stable_projection(n: usize, seed: u64) -> (ReChordNetwork, Projection) {
    let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 2, 100_000);
    assert!(report.converged);
    let overlay = Overlay::new(net.engine().iter());
    let p = Projection::new(overlay.nodes(), overlay.edges());
    (net, p)
}

#[test]
fn all_non_wrap_chord_edges_realized() {
    for (n, seed) in [(8usize, 1u64), (20, 2), (48, 3), (105, 4)] {
        let (net, p) = stable_projection(n, seed);
        let cov = chord_coverage(&p, &StableTopology::new(&net.real_ids()));
        assert!(
            cov.missing_linear.is_empty(),
            "n={n}: non-wrap Chord edges missing: {:?}",
            cov.missing_linear
        );
        // wrap edges are a constant-per-peer-ish set, so their share shrinks
        // with n; small networks legitimately have a larger wrap fraction.
        let floor = if n >= 20 { 0.9 } else { 0.75 };
        assert!(cov.fraction() > floor, "n={n}: only {:.1}% realized", 100.0 * cov.fraction());
    }
}

#[test]
fn wrap_edges_are_closed_by_the_ring_chain() {
    // Every missing wrap edge must still be *routable*: the projection is
    // strongly connected, so the emulation completes the wrap through the
    // extremal ring edges (the paper's phase-3 closure).
    for (n, seed) in [(20usize, 7u64), (48, 8)] {
        let (net, p) = stable_projection(n, seed);
        let cov = chord_coverage(&p, &StableTopology::new(&net.real_ids()));
        assert!(p.strongly_connected(), "n={n}");
        for (u, w) in &cov.missing_wrap {
            // the wrap edge's endpoints are mutually reachable by definition
            // of strong connectivity; sanity-check they are live peers.
            assert!(net.real_ids().contains(u) && net.real_ids().contains(w));
        }
    }
}

#[test]
fn oracle_chord_is_subgraph_of_oracle_rechord_projection() {
    // The pure-oracle statement of Fact 2.1: project the *desired* stable
    // topology and check the Chord edges against it.
    for n in [4usize, 12, 40] {
        let topo = TopologyKind::Random.generate(n, 0xc0de + n as u64);
        let target = StableTopology::new(&topo.ids);
        let ring = target.ring_pair().into_iter().flat_map(|(a, b)| [a, b]);
        let p =
            Projection::new(target.nodes().iter().copied(), target.desired_unmarked().chain(ring));
        let cov = chord_coverage(&p, &target);
        assert!(
            cov.missing_linear.is_empty(),
            "n={n}: oracle itself misses non-wrap edges {:?}",
            cov.missing_linear
        );
    }
}

#[test]
fn projected_degree_stays_logarithmic() {
    // §2.2: |E_u ∪ E_r| ≤ 4·|E_Chord| — per-peer projected degree is
    // O(log n) w.h.p. (one constant per simulated virtual node).
    let (net, p) = stable_projection(64, 21);
    let target = StableTopology::new(&net.real_ids());
    let max_levels = usize::from(target.nodes().iter().map(|n| n.level).max().unwrap());
    let bound = 6 * (max_levels + 1) + 8;
    assert!(
        p.max_out_degree() <= bound,
        "max projected out-degree {} exceeds {bound}",
        p.max_out_degree()
    );
}

#[test]
fn virtual_node_positions_realize_finger_targets() {
    // The mechanism behind Fact 2.1: u's virtual node u_i sits exactly at
    // u + 1/2^i, so its closest-right-real edge is the Chord finger.
    let (net, p) = stable_projection(32, 33);
    let ids = net.real_ids();
    for e in StableTopology::new(&ids).chord_edges() {
        if let ChordEdgeKind::Finger(_) = e.kind {
            if !e.crosses_wrap() {
                assert!(p.has_edge(e.from, e.to), "finger {:?} not realized", e);
            }
        }
    }
}
