//! The Re-Chord network projection (paper §2.2):
//!
//! `E_ReChord = { (u, v) ∈ V_r² : ∃i, (u_i, v) ∈ E_u ∪ E_r }`
//!
//! — the overlay actually visible to applications: an edge between real
//! peers `u` and `v` whenever any node simulated by `u` holds an unmarked or
//! ring edge to `v`'s real node. Connection edges never participate
//! ("they do not participate in the routing"). The audit projects the
//! [`Overlay`](crate::network::Overlay) of the peers' states.

use crate::oracle::StableTopology;
use rechord_graph::{Edge, EdgeKind, NodeRef};
use rechord_id::Ident;
use std::collections::{BTreeMap, BTreeSet};

/// The projected peer-level overlay: adjacency over real identifiers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Projection {
    adj: BTreeMap<Ident, BTreeSet<Ident>>,
}

impl Projection {
    /// Projects the overlay with nodes `nodes` and edges `edges` (of an
    /// [`Overlay`](crate::network::Overlay), or any list of them) onto the
    /// nodes' owners.
    pub fn new(
        nodes: impl IntoIterator<Item = NodeRef>,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Self {
        let mut adj: BTreeMap<Ident, BTreeSet<Ident>> =
            nodes.into_iter().map(|n| (n.owner, BTreeSet::new())).collect();
        for e in edges {
            // (u, u) is not an overlay edge.
            if e.kind != EdgeKind::Connection && e.to.is_real() && e.from.owner != e.to.owner {
                adj.entry(e.from.owner).or_default().insert(e.to.owner);
            }
        }
        Self { adj }
    }

    /// Out-neighbors of peer `u`.
    pub fn neighbors(&self, u: Ident) -> Option<&BTreeSet<Ident>> {
        self.adj.get(&u)
    }

    /// Does the directed projected edge `(u, v)` exist?
    pub fn has_edge(&self, u: Ident, v: Ident) -> bool {
        self.adj.get(&u).is_some_and(|s| s.contains(&v))
    }

    /// All peers.
    pub fn peers(&self) -> impl Iterator<Item = Ident> + '_ {
        self.adj.keys().copied()
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed projected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(|s| s.len()).sum()
    }

    /// Largest out-degree (paper: each real node contributes at most 4
    /// unmarked out-edges per simulated node, so projected degree is
    /// `O(log n)` w.h.p.).
    pub fn max_out_degree(&self) -> usize {
        self.adj.values().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Is the projected overlay strongly connected? (Every peer can route to
    /// every other peer.) Checked with a forward and a reverse reachability
    /// pass from an arbitrary root.
    pub fn strongly_connected(&self) -> bool {
        let n = self.adj.len();
        if n <= 1 {
            return true;
        }
        let root = *self.adj.keys().next().expect("nonempty");
        let fwd = self.reach(root, false);
        if fwd.len() != n {
            return false;
        }
        self.reach(root, true).len() == n
    }

    fn reach(&self, root: Ident, reversed: bool) -> BTreeSet<Ident> {
        let mut rev: BTreeMap<Ident, BTreeSet<Ident>> = BTreeMap::new();
        if reversed {
            for (&u, outs) in &self.adj {
                for &v in outs {
                    rev.entry(v).or_default().insert(u);
                }
            }
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        seen.insert(root);
        while let Some(u) = stack.pop() {
            let empty = BTreeSet::new();
            let outs: &BTreeSet<Ident> = if reversed {
                rev.get(&u).unwrap_or(&empty)
            } else {
                self.adj.get(&u).unwrap_or(&empty)
            };
            for &v in outs {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen
    }
}

/// How much of the Chord edge set the projection realizes (Fact 2.1 audit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChordCoverage {
    /// Total Chord edges (ring + fingers over the real id set).
    pub total: usize,
    /// Chord edges present in the projection.
    pub present: usize,
    /// Missing Chord edges that do *not* cross the `[0,1)` wrap-around
    /// (the theory guarantees these; must be empty in a stable state).
    pub missing_linear: Vec<(Ident, Ident)>,
    /// Missing Chord edges whose realizing virtual node sits in the final
    /// segment of the ring (wrap-around fingers/successors). The audit
    /// takes them as closed through the ring-edge chain (README,
    /// Interpretations "Wrap edges").
    pub missing_wrap: Vec<(Ident, Ident)>,
}

impl ChordCoverage {
    /// Fraction of Chord edges directly present.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.present as f64 / self.total as f64
        }
    }
}

/// Audits Fact 2.1 against a projection: which Chord edges are realized?
///
/// A missing edge is classified as *wrap* when it crosses the `0/1`
/// boundary in its natural direction (see
/// [`crate::oracle::ChordEdge::crosses_wrap`]) — those are the edges the
/// audit takes as closed through the ring-edge chain rather than through a
/// direct unmarked edge (README, Interpretations "Wrap edges").
pub fn chord_coverage(projection: &Projection, target: &StableTopology) -> ChordCoverage {
    let chord = target.chord_edges();
    let mut cov = ChordCoverage {
        total: chord.len(),
        present: 0,
        missing_linear: Vec::new(),
        missing_wrap: Vec::new(),
    };
    for e in chord {
        if projection.has_edge(e.from, e.to) {
            cov.present += 1;
        } else if e.crosses_wrap() {
            cov.missing_wrap.push((e.from, e.to));
        } else {
            cov.missing_linear.push((e.from, e.to));
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Projects the graph of `edges`, whose nodes are their endpoints.
    fn project(edges: &[Edge]) -> Projection {
        Projection::new(edges.iter().flat_map(|e| [e.from, e.to]), edges.iter().copied())
    }

    fn r(x: f64) -> NodeRef {
        NodeRef::real(Ident::from_f64(x))
    }

    fn v(x: f64, lvl: u8) -> NodeRef {
        NodeRef::virtual_node(Ident::from_f64(x), lvl)
    }

    #[test]
    fn virtual_source_projects_to_owner() {
        let p = project(&[Edge::unmarked(v(0.1, 2), r(0.7))]);
        assert!(p.has_edge(Ident::from_f64(0.1), Ident::from_f64(0.7)));
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn virtual_targets_and_connection_edges_excluded() {
        let p = project(&[Edge::unmarked(r(0.1), v(0.7, 1)), Edge::connection(r(0.1), r(0.7))]);
        assert_eq!(p.edge_count(), 0, "neither edge projects");
    }

    #[test]
    fn ring_edges_project() {
        let p = project(&[Edge::ring(v(0.9, 1), r(0.05))]);
        assert!(p.has_edge(Ident::from_f64(0.9), Ident::from_f64(0.05)));
    }

    #[test]
    fn own_peer_edges_collapse() {
        let p = project(&[Edge::unmarked(v(0.2, 1), r(0.2))]);
        assert_eq!(p.edge_count(), 0, "(u,u) is not an overlay edge");
    }

    #[test]
    fn strong_connectivity_detection() {
        let cycle = [
            Edge::unmarked(r(0.1), r(0.5)),
            Edge::unmarked(r(0.5), r(0.9)),
            Edge::unmarked(r(0.9), r(0.1)),
        ];
        assert!(project(&cycle).strongly_connected());
        assert!(!project(&cycle[..2]).strongly_connected());
    }

    #[test]
    fn coverage_classifies_missing_edges() {
        let ids = vec![Ident::from_f64(0.1), Ident::from_f64(0.6)];
        // Projection with only the forward (0.1 → 0.6) edge.
        let p = project(&[Edge::unmarked(r(0.1), r(0.6))]);
        let cov = chord_coverage(&p, &StableTopology::new(&ids));
        assert!(cov.present >= 1);
        assert_eq!(cov.present + cov.missing_wrap.len() + cov.missing_linear.len(), cov.total);
    }
}
