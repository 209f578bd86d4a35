//! Weak-connectivity analysis.
//!
//! Self-stabilization is only possible from states where a legal state is
//! reachable, i.e. the initial directed graph is **weakly connected** (paper
//! §2.1). The convergence proof additionally tracks connectivity of the
//! *real-peer* projection (an edge `(u_i, v_j)` of any class weakly connects
//! peers `u` and `v`). [`components`] is the one union-find count, over
//! numbered nodes: the checks of `rechord_core` feed it the overlay read off
//! peer states, and the functions over an [`OverlayGraph`] feed it the
//! graph's nodes, or its peers, and its edges.

use crate::{NodeRef, OverlayGraph};
use rechord_id::Ident;
use std::collections::BTreeSet;

/// Disjoint-set forest with path halving and union by size.
#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n], components: n }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }
}

/// Number of weakly connected components of the graph on the nodes
/// `0..nodes` whose edges are `edges` (direction ignored). No nodes means
/// no components.
pub fn components(nodes: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> usize {
    let mut uf = UnionFind::new(nodes);
    for (a, b) in edges {
        uf.union(a, b);
    }
    uf.components
}

/// Is the multigraph weakly connected over **all** nodes (edges of every
/// class, direction ignored)? Empty and single-node graphs count as
/// connected.
pub fn weakly_connected(g: &OverlayGraph) -> bool {
    component_count(g) <= 1
}

/// Number of weakly connected components over all nodes.
pub fn component_count(g: &OverlayGraph) -> usize {
    let nodes: Vec<NodeRef> = g.nodes().copied().collect();
    let at = |n: NodeRef| nodes.binary_search(&n).expect("every edge endpoint is a node");
    components(nodes.len(), g.edges().map(|e| (at(e.from), at(e.to))))
}

/// Is the **real-peer projection** weakly connected? Two peers are joined
/// when any edge (any class) runs between any of their nodes — and a peer's
/// own virtual nodes always count as attached to it (they are simulated
/// locally; paper §2.2 notes `V_r ∩ N(u_0) ≠ ∅`).
pub fn peers_weakly_connected(g: &OverlayGraph) -> bool {
    peer_component_count(g) <= 1
}

/// Number of weakly connected components of the real-peer projection.
pub fn peer_component_count(g: &OverlayGraph) -> usize {
    let peers: Vec<Ident> =
        g.nodes().map(|n| n.owner).collect::<BTreeSet<_>>().into_iter().collect();
    let at = |p: Ident| peers.binary_search(&p).expect("every edge endpoint is a node");
    components(peers.len(), g.edges().map(|e| (at(e.from.owner), at(e.to.owner))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    fn r(x: f64) -> NodeRef {
        NodeRef::real(Ident::from_f64(x))
    }

    fn v(x: f64, lvl: u8) -> NodeRef {
        NodeRef::virtual_node(Ident::from_f64(x), lvl)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components, 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components, 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.components, 1);
    }

    #[test]
    fn components_counts_numbered_nodes() {
        assert_eq!(components(5, [(1, 0), (3, 4), (4, 3)]), 3);
        assert_eq!(components(0, []), 0);
    }

    #[test]
    fn direction_is_ignored() {
        let g: OverlayGraph =
            [Edge::unmarked(r(0.1), r(0.5)), Edge::unmarked(r(0.9), r(0.5))].into_iter().collect();
        assert!(weakly_connected(&g));
    }

    #[test]
    fn disconnected_components_counted() {
        let mut g: OverlayGraph = [Edge::unmarked(r(0.1), r(0.2))].into_iter().collect();
        g.add_node(r(0.7));
        assert_eq!(component_count(&g), 2);
        assert!(!weakly_connected(&g));
    }

    #[test]
    fn all_edge_classes_connect() {
        let g: OverlayGraph =
            [Edge::ring(r(0.1), r(0.2)), Edge::connection(r(0.2), r(0.3))].into_iter().collect();
        assert!(weakly_connected(&g));
    }

    #[test]
    fn peer_projection_joins_siblings_implicitly() {
        // u's virtual node and u's real node have no explicit edge, but the
        // peer projection treats them as one peer.
        let mut g = OverlayGraph::new();
        g.add_node(r(0.1));
        g.add_node(v(0.1, 3));
        g.add_node(r(0.6));
        g.add_edge(Edge::unmarked(v(0.1, 3), r(0.6)));
        // Node-level: r(0.1) is isolated from the rest.
        assert_eq!(component_count(&g), 2);
        // Peer-level: only two peers, connected.
        assert_eq!(peer_component_count(&g), 1);
        assert!(peers_weakly_connected(&g));
    }

    #[test]
    fn empty_graph_is_trivially_connected() {
        let g = OverlayGraph::new();
        assert!(weakly_connected(&g));
        assert_eq!(component_count(&g), 0);
        assert_eq!(peer_component_count(&g), 0);
    }
}
