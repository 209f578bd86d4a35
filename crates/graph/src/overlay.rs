//! A snapshot multigraph of the overlay, for rendering and as a reference.
//!
//! The protocol keeps neighborhoods in per-node state (crate `rechord_core`),
//! and its checks read them there. An [`OverlayGraph`] collects the global
//! view `G = (V, E_u ∪ E_r ∪ E_c)` into one value: what [`crate::dot`]
//! renders and what tests compare runs and expected graphs by.

use crate::{Edge, EdgeKind, NodeRef};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Out-neighborhoods of one node, per edge class
/// (`N_u(v)`, `N_r(v)`, `N_c(v)` of §2.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeAdjacency {
    /// Unmarked out-neighbors `N_u(v)`.
    pub unmarked: BTreeSet<NodeRef>,
    /// Ring out-neighbors `N_r(v)`.
    pub ring: BTreeSet<NodeRef>,
    /// Connection out-neighbors `N_c(v)`.
    pub connection: BTreeSet<NodeRef>,
}

impl NodeAdjacency {
    /// The set for one edge class.
    pub fn of(&self, kind: EdgeKind) -> &BTreeSet<NodeRef> {
        match kind {
            EdgeKind::Unmarked => &self.unmarked,
            EdgeKind::Ring => &self.ring,
            EdgeKind::Connection => &self.connection,
        }
    }

    /// Mutable set for one edge class.
    pub fn of_mut(&mut self, kind: EdgeKind) -> &mut BTreeSet<NodeRef> {
        match kind {
            EdgeKind::Unmarked => &mut self.unmarked,
            EdgeKind::Ring => &mut self.ring,
            EdgeKind::Connection => &mut self.connection,
        }
    }
}

/// Edge totals per class — the quantities plotted in the paper's Figure 5
/// ("normal edges" are unmarked + ring; "connection edges" are `E_c`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// `|E_u|`.
    pub unmarked: usize,
    /// `|E_r|`.
    pub ring: usize,
    /// `|E_c|`.
    pub connection: usize,
}

impl EdgeCounts {
    /// The paper's "normal edges": everything that is not a connection edge.
    pub fn normal(&self) -> usize {
        self.unmarked + self.ring
    }

    /// All edges of the multigraph.
    pub fn total(&self) -> usize {
        self.unmarked + self.ring + self.connection
    }
}

/// A directed multigraph snapshot over [`NodeRef`] nodes with classed edges.
///
/// Deterministic iteration order everywhere (`BTreeMap`/`BTreeSet`), so two
/// snapshots compare with `==` — that equality is exactly the paper's
/// "no more state changes" stability criterion when applied to consecutive
/// rounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverlayGraph {
    nodes: BTreeMap<NodeRef, NodeAdjacency>,
}

impl OverlayGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a node with empty neighborhoods (no-op if present).
    pub fn add_node(&mut self, node: NodeRef) {
        self.nodes.entry(node).or_default();
    }

    /// Inserts an edge, creating endpoints as needed. Self-loops are
    /// rejected (the protocol never stores an edge from a node to itself).
    /// Returns `true` if the edge was new.
    pub fn add_edge(&mut self, edge: Edge) -> bool {
        if edge.from == edge.to {
            return false;
        }
        self.add_node(edge.to);
        let adj = self.nodes.entry(edge.from).or_default();
        adj.of_mut(edge.kind).insert(edge.to)
    }

    /// Removes an edge; returns `true` if it existed.
    pub fn remove_edge(&mut self, edge: &Edge) -> bool {
        match self.nodes.entry(edge.from) {
            Entry::Occupied(mut o) => o.get_mut().of_mut(edge.kind).remove(&edge.to),
            Entry::Vacant(_) => false,
        }
    }

    /// Removes a node and every edge incident to it (both directions).
    pub fn remove_node(&mut self, node: &NodeRef) {
        self.nodes.remove(node);
        for adj in self.nodes.values_mut() {
            adj.unmarked.remove(node);
            adj.ring.remove(node);
            adj.connection.remove(node);
        }
    }

    /// Does the graph contain this exact classed edge?
    pub fn has_edge(&self, edge: &Edge) -> bool {
        self.nodes.get(&edge.from).is_some_and(|adj| adj.of(edge.kind).contains(&edge.to))
    }

    /// All nodes, in position order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeRef> + '_ {
        self.nodes.keys()
    }

    /// Real nodes only (`V_r`).
    pub fn real_nodes(&self) -> impl Iterator<Item = &NodeRef> + '_ {
        self.nodes.keys().filter(|n| n.is_real())
    }

    /// Number of real nodes.
    pub fn real_count(&self) -> usize {
        self.real_nodes().count()
    }

    /// The adjacency record of one node, if present.
    pub fn adjacency(&self, node: &NodeRef) -> Option<&NodeAdjacency> {
        self.nodes.get(node)
    }

    /// Iterates every classed edge, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes.iter().flat_map(|(&from, adj)| {
            EdgeKind::ALL
                .into_iter()
                .flat_map(move |kind| adj.of(kind).iter().map(move |&to| Edge { from, to, kind }))
        })
    }

    /// Edge totals per class.
    pub fn edge_counts(&self) -> EdgeCounts {
        self.edges().collect()
    }

    /// Is every edge of `self` present in `other`? (Subgraph on edges; node
    /// sets may differ.) This is the check behind both Fact 2.1
    /// (Chord ⊆ Re-Chord) and the "almost stable" criterion of Figure 6.
    pub fn edges_subset_of(&self, other: &OverlayGraph) -> bool {
        self.edges().all(|e| other.has_edge(&e))
    }
}

impl FromIterator<Edge> for EdgeCounts {
    /// Counts edges by class.
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut c = EdgeCounts::default();
        for e in iter {
            *match e.kind {
                EdgeKind::Unmarked => &mut c.unmarked,
                EdgeKind::Ring => &mut c.ring,
                EdgeKind::Connection => &mut c.connection,
            } += 1;
        }
        c
    }
}

impl FromIterator<Edge> for OverlayGraph {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut g = OverlayGraph::new();
        for e in iter {
            g.add_edge(e);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_id::Ident;

    fn r(x: f64) -> NodeRef {
        NodeRef::real(Ident::from_f64(x))
    }

    #[test]
    fn multigraph_allows_same_pair_in_distinct_classes() {
        let a = r(0.1);
        let b = r(0.2);
        let mut g = OverlayGraph::new();
        assert!(g.add_edge(Edge::unmarked(a, b)));
        assert!(g.add_edge(Edge::ring(a, b)));
        assert!(g.add_edge(Edge::connection(a, b)));
        assert!(!g.add_edge(Edge::unmarked(a, b)), "within a class: a set");
        let c = g.edge_counts();
        assert_eq!((c.unmarked, c.ring, c.connection), (1, 1, 1));
        assert_eq!(c.normal(), 2);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn self_loops_rejected() {
        let a = r(0.5);
        let mut g = OverlayGraph::new();
        assert!(!g.add_edge(Edge::unmarked(a, a)));
        assert_eq!(g.edge_counts().total(), 0);
    }

    #[test]
    fn remove_node_clears_incident_edges() {
        let (a, b, c) = (r(0.1), r(0.2), r(0.3));
        let mut g: OverlayGraph =
            [Edge::unmarked(a, b), Edge::unmarked(b, c), Edge::ring(c, b)].into_iter().collect();
        g.remove_node(&b);
        assert_eq!(g.nodes().copied().collect::<Vec<_>>(), [a, c]);
        assert_eq!(g.edge_counts().total(), 0, "all incident edges gone");
    }

    #[test]
    fn subset_and_difference() {
        let (a, b, c) = (r(0.1), r(0.2), r(0.3));
        let small: OverlayGraph = [Edge::unmarked(a, b)].into_iter().collect();
        let big: OverlayGraph = [Edge::unmarked(a, b), Edge::unmarked(b, c)].into_iter().collect();
        assert!(small.edges_subset_of(&big));
        assert!(!big.edges_subset_of(&small));
        let difference: Vec<Edge> = big.edges().filter(|e| !small.has_edge(e)).collect();
        assert_eq!(difference, vec![Edge::unmarked(b, c)]);
    }

    #[test]
    fn counts_split_real_virtual() {
        let a = r(0.1);
        let v = NodeRef::virtual_node(Ident::from_f64(0.1), 2);
        let mut g = OverlayGraph::new();
        g.add_edge(Edge::unmarked(a, v));
        assert_eq!(g.real_count(), 1);
        assert_eq!(g.nodes().filter(|n| n.is_virtual()).count(), 1);
        assert_eq!(g.nodes().count(), 2);
    }

    #[test]
    fn snapshot_equality_is_structural() {
        let (a, b) = (r(0.1), r(0.2));
        let g1: OverlayGraph = [Edge::unmarked(a, b)].into_iter().collect();
        let mut g2 = OverlayGraph::new();
        g2.add_node(b);
        g2.add_edge(Edge::unmarked(a, b));
        assert_eq!(g1, g2);
        g2.add_edge(Edge::ring(b, a));
        assert_ne!(g1, g2);
    }
}
