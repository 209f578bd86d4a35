//! Shared by the integration tests: peer states as comparable values, the
//! real-peer connectivity check, the goldens' hash, and [`Graph`], a
//! reference overlay built edge by edge, independently of
//! `core::network::Overlay`, for the tests that hold the library's walk
//! against it.

// Each test binary compiles this module and uses only a part of it.
#![allow(dead_code)]

use rechord::core::network::ReChordNetwork;
use rechord::core::{PeerState, ReChordProtocol};
use rechord::graph::{connectivity, Edge, EdgeCounts, EdgeKind, NodeRef};
use rechord::id::Ident;
use rechord::sim::Engine;
use std::collections::{BTreeMap, BTreeSet};

/// The 64-bit FNV-1a hash of `bytes`, which recorded goldens pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every peer's state, ascending by peer. A run is a function of these, so
/// two runs that agree on them agree on everything derived from them.
pub fn states(net: &ReChordNetwork) -> Vec<(Ident, PeerState)> {
    net.engine().iter().map(|(id, st)| (id, st.clone())).collect()
}

/// Is the real-peer projection of `net`'s overlay weakly connected? Two
/// peers are joined when an edge of any class runs between any of their
/// nodes; a peer's own nodes always count as one.
pub fn peers_weakly_connected(net: &ReChordNetwork) -> bool {
    Graph::of(net.engine()).peer_components() <= 1
}

/// A directed multigraph over [`NodeRef`]s with classed edges: per node, its
/// out-neighbours per class, in [`EdgeKind::ALL`] order. Self-loops are not
/// edges.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: BTreeMap<NodeRef, [BTreeSet<NodeRef>; 3]>,
}

impl Graph {
    /// The overlay of `engine`'s states: every node a peer simulates, and
    /// every entry of its neighbourhoods as an edge.
    pub fn of(engine: &Engine<ReChordProtocol>) -> Graph {
        let mut g = Graph::default();
        for (id, st) in engine.iter() {
            for (&level, vs) in &st.levels {
                let from = NodeRef { owner: id, level };
                g.add_node(from);
                for kind in EdgeKind::ALL {
                    for &to in vs.of(kind) {
                        g.add_edge(Edge { from, to, kind });
                    }
                }
            }
        }
        g
    }

    /// Inserts a node with no out-edges (no-op if present).
    pub fn add_node(&mut self, node: NodeRef) {
        self.nodes.entry(node).or_default();
    }

    /// Inserts an edge and its endpoints, unless it is a self-loop.
    pub fn add_edge(&mut self, edge: Edge) {
        if edge.from != edge.to {
            self.add_node(edge.to);
            self.nodes.entry(edge.from).or_default()[class(edge.kind)].insert(edge.to);
        }
    }

    /// Does the graph hold this exact classed edge?
    pub fn has_edge(&self, edge: &Edge) -> bool {
        self.nodes.get(&edge.from).is_some_and(|out| out[class(edge.kind)].contains(&edge.to))
    }

    /// Every node, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.nodes.keys().copied()
    }

    /// Every edge, by source node, then class, then target.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes.iter().flat_map(|(&from, out)| {
            EdgeKind::ALL.into_iter().flat_map(move |kind| {
                out[class(kind)].iter().map(move |&to| Edge { from, to, kind })
            })
        })
    }

    /// Edge totals per class.
    pub fn edge_counts(&self) -> EdgeCounts {
        self.edges().collect()
    }

    /// Is every edge of `self` an edge of `other`?
    pub fn edges_subset_of(&self, other: &Graph) -> bool {
        self.edges().all(|e| other.has_edge(&e))
    }

    /// The graph's edges of one class, over all its nodes.
    pub fn only(&self, kind: EdgeKind) -> Graph {
        let mut g: Graph = self.edges().filter(|e| e.kind == kind).collect();
        for n in self.nodes() {
            g.add_node(n);
        }
        g
    }

    /// Is the graph weakly connected over all its nodes? No nodes, or one,
    /// counts as connected.
    pub fn weakly_connected(&self) -> bool {
        let nodes: Vec<NodeRef> = self.nodes().collect();
        let at = |n: NodeRef| nodes.binary_search(&n).expect("every edge endpoint is a node");
        connectivity::components(nodes.len(), self.edges().map(|e| (at(e.from), at(e.to)))) <= 1
    }

    /// Number of weakly connected components of the real-peer projection.
    pub fn peer_components(&self) -> usize {
        let peers: BTreeSet<Ident> = self.nodes().map(|n| n.owner).collect();
        let peers: Vec<Ident> = peers.into_iter().collect();
        let at = |p: Ident| peers.binary_search(&p).expect("every edge endpoint is a node");
        connectivity::components(
            peers.len(),
            self.edges().map(|e| (at(e.from.owner), at(e.to.owner))),
        )
    }
}

impl FromIterator<Edge> for Graph {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut g = Graph::default();
        for e in iter {
            g.add_edge(e);
        }
        g
    }
}

/// The index of `kind` in [`EdgeKind::ALL`].
fn class(kind: EdgeKind) -> usize {
    match kind {
        EdgeKind::Unmarked => 0,
        EdgeKind::Ring => 1,
        EdgeKind::Connection => 2,
    }
}
