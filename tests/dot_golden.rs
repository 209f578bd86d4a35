//! Integration: the Graphviz rendering of the overlay, byte for byte.
//!
//! `examples/visualize.rs` writes these two renderings of a 16-peer random
//! line, before and after stabilizing. Their FNV-1a hashes were recorded
//! from the build that rendered a snapshot graph of the overlay (rev
//! `7a98ad5`), so a change to the node or edge order, or to the styling,
//! shows.

mod support;

use rechord::core::network::{Overlay, ReChordNetwork};
use rechord::graph::dot::{to_dot, DotStyle};
use rechord::topology::TopologyKind;
use support::fnv1a;

fn render(net: &ReChordNetwork, name: &str) -> String {
    let overlay = Overlay::new(net.engine().iter());
    to_dot(overlay.nodes(), overlay.edges(), &DotStyle { name: name.into(), ..Default::default() })
}

#[test]
fn visualize_renderings_match_their_goldens() {
    let topo = TopologyKind::RandomLine.generate(16, 99);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let initial = render(&net, "initial");
    assert!(net.run_until_stable(10_000).converged);
    let stable = render(&net, "stable");
    assert_eq!(
        (initial.len(), fnv1a(initial.as_bytes()), stable.len(), fnv1a(stable.as_bytes())),
        (2381, 9684151170911385725, 61559, 2871767748410120607)
    );
}
