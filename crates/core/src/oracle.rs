//! The oracle: what the stable Re-Chord topology *must* look like, computed
//! directly (non-distributedly) from the set of real identifiers.
//!
//! Used to (a) decide "almost stable" (Figure 6's early milestone: all
//! desired edges exist), (b) audit the reached fixpoint, and (c) state the
//! Chord edge set for the Fact 2.1 subgraph check.

use rechord_graph::{Edge, NodeRef, OverlayGraph};
use rechord_id::{successor_index, Ident};
use std::collections::BTreeMap;

/// The stable-state virtual level count `m` of each peer: the finger level
/// of its cyclic gap to the next real node (paper §2.2; README, Interpretations A1).
/// A single peer has `m = 1`.
pub fn stable_levels(real_ids: &[Ident]) -> BTreeMap<Ident, u8> {
    let mut sorted: Vec<Ident> = real_ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len();
    let mut out = BTreeMap::new();
    for (k, &u) in sorted.iter().enumerate() {
        let m = if n == 1 {
            1
        } else {
            let succ = sorted[(k + 1) % n];
            Ident::finger_level_for_gap(u.dist_cw(succ))
        };
        out.insert(u, m);
    }
    out
}

/// Every node (real and virtual) of the stable network, ascending by ring
/// position.
pub fn stable_nodes(real_ids: &[Ident]) -> Vec<NodeRef> {
    let levels = stable_levels(real_ids);
    let mut nodes: Vec<NodeRef> = Vec::new();
    for (&u, &m) in &levels {
        for lvl in 0..=m {
            nodes.push(NodeRef { owner: u, level: lvl });
        }
    }
    nodes.sort_unstable();
    nodes
}

/// The **desired unmarked edges** of the stable state: every node points at
/// its closest left and right node and its closest left and right *real*
/// node, in the linear order on `[0,1)` (paper §2.2's stable-state
/// description). Extremal nodes lack the respective side.
pub fn desired_unmarked(real_ids: &[Ident]) -> OverlayGraph {
    let nodes = stable_nodes(real_ids);
    let mut g = OverlayGraph::new();
    for n in &nodes {
        g.add_node(*n);
    }
    for (k, &x) in nodes.iter().enumerate() {
        if k > 0 {
            g.add_edge(Edge::unmarked(x, nodes[k - 1]));
        }
        if k + 1 < nodes.len() {
            g.add_edge(Edge::unmarked(x, nodes[k + 1]));
        }
        if let Some(rl) = nodes[..k].iter().rev().find(|r| r.is_real()) {
            g.add_edge(Edge::unmarked(x, *rl));
        }
        if let Some(rr) = nodes[k + 1..].iter().find(|r| r.is_real()) {
            g.add_edge(Edge::unmarked(x, *rr));
        }
    }
    g
}

/// The persistent stable ring edges: the global minimum holds a marked edge
/// to the global maximum and vice versa (rule 5's fixpoint; the in-transit
/// re-creation stream is *extra*, not desired).
pub fn desired_ring_pair(real_ids: &[Ident]) -> Option<(Edge, Edge)> {
    let nodes = stable_nodes(real_ids);
    let (first, last) = (nodes.first()?, nodes.last()?);
    if first == last {
        return None;
    }
    Some((Edge::ring(*first, *last), Edge::ring(*last, *first)))
}

/// The role a Chord edge plays (§1.1 of the paper: "Chord has two kinds of
/// edges, successor-predecessor edges that form the Chord ring, as well as
/// fingers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChordEdgeKind {
    /// Clockwise ring edge to the cyclic successor.
    Successor,
    /// Counter-clockwise ring edge to the cyclic predecessor.
    Predecessor,
    /// Finger `p_i(v)` for the given level.
    Finger(u8),
}

/// One directed edge of the Chord graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChordEdge {
    /// Source peer.
    pub from: Ident,
    /// Target peer.
    pub to: Ident,
    /// Role of the edge.
    pub kind: ChordEdgeKind,
}

impl ChordEdge {
    /// Does the edge cross the `0/1` boundary in its natural direction?
    /// Successor and finger edges run clockwise (crossing iff `to < from`);
    /// predecessor edges run counter-clockwise (crossing iff `to > from`).
    pub fn crosses_wrap(&self) -> bool {
        match self.kind {
            ChordEdgeKind::Predecessor => self.to > self.from,
            _ => self.to < self.from,
        }
    }
}

/// The classic Chord edge set over the real identifiers (paper §1.1):
/// successor and predecessor edges forming the Chord ring, plus the fingers
/// `p_i(v) = argmin{ w : h(w) >= h(v) + 1/2^i (mod 1) }` for `i = 1..=m(v)`
/// (cyclic; a finger that resolves to `v` itself is skipped).
pub fn chord_edges(real_ids: &[Ident]) -> Vec<ChordEdge> {
    let mut sorted: Vec<Ident> = real_ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len();
    if n < 2 {
        return Vec::new();
    }
    let levels = stable_levels(&sorted);
    let mut edges = Vec::new();
    for (k, &u) in sorted.iter().enumerate() {
        let succ = sorted[(k + 1) % n];
        let pred = sorted[(k + n - 1) % n];
        edges.push(ChordEdge { from: u, to: succ, kind: ChordEdgeKind::Successor });
        edges.push(ChordEdge { from: u, to: pred, kind: ChordEdgeKind::Predecessor });
        for i in 1..=levels[&u] {
            let target = u.virtual_position(i);
            let finger = cyclic_successor(&sorted, target);
            if finger != u {
                edges.push(ChordEdge { from: u, to: finger, kind: ChordEdgeKind::Finger(i) });
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The first identifier at or clockwise-after `point` (cyclic successor).
/// Panics on an empty slice.
pub fn cyclic_successor(sorted_ids: &[Ident], point: Ident) -> Ident {
    sorted_ids[successor_index(sorted_ids, point).expect("cyclic successor of an empty ring")]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[f64]) -> Vec<Ident> {
        xs.iter().map(|&x| Ident::from_f64(x)).collect()
    }

    #[test]
    fn levels_match_finger_condition() {
        // peers at 0.0 and 0.5: both gaps exactly 1/2 → m = 1 for both.
        let l = stable_levels(&ids(&[0.0, 0.5]));
        assert_eq!(l[&Ident::from_f64(0.0)], 1);
        assert_eq!(l[&Ident::from_f64(0.5)], 1);
        // peers at 0.0 and 0.3: gap(0.0→0.3)=0.3 → m=2; gap(0.3→0.0)=0.7 → m=1.
        let l = stable_levels(&ids(&[0.0, 0.3]));
        assert_eq!(l[&Ident::from_f64(0.0)], 2);
        assert_eq!(l[&Ident::from_f64(0.3)], 1);
        // singleton
        let l = stable_levels(&ids(&[0.4]));
        assert_eq!(l[&Ident::from_f64(0.4)], 1);
    }

    #[test]
    fn stable_nodes_sorted_and_complete() {
        let nodes = stable_nodes(&ids(&[0.0, 0.3]));
        // 0.0 contributes levels 0,1,2 → positions 0.0, 0.5, 0.25
        // 0.3 contributes levels 0,1  → positions 0.3, 0.8
        assert_eq!(nodes.len(), 5);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(nodes.iter().filter(|n| n.is_real()).count(), 2);
    }

    #[test]
    fn desired_unmarked_has_four_edge_classes_per_inner_node() {
        let g = desired_unmarked(&ids(&[0.0, 0.3, 0.6]));
        // every non-extremal node has pred+succ; every node left of a real
        // has an rr, etc. Spot-check an inner real node: 0.3.
        let x = NodeRef::real(Ident::from_f64(0.3));
        let adj = g.adjacency(&x).expect("node present");
        assert!(adj.unmarked.len() >= 2);
        // the extremes have no outer side
        let nodes = stable_nodes(&ids(&[0.0, 0.3, 0.6]));
        let first = nodes.first().unwrap();
        let adj_first = g.adjacency(first).unwrap();
        assert!(adj_first.unmarked.iter().all(|t| t > first), "nothing to the left");
    }

    #[test]
    fn ring_pair_connects_extremes() {
        let (lo, hi) = desired_ring_pair(&ids(&[0.1, 0.4, 0.9])).unwrap();
        assert!(lo.from < lo.to);
        assert_eq!(lo.from, hi.to);
        assert_eq!(lo.to, hi.from);
        assert!(desired_ring_pair(&[]).is_none());
    }

    #[test]
    fn chord_edges_contain_ring_and_fingers() {
        let v = ids(&[0.0, 0.3, 0.6]);
        let e = chord_edges(&v);
        let has = |from: Ident, to: Ident| e.iter().any(|ce| ce.from == from && ce.to == to);
        let (a, b, c) = (v[0], v[1], v[2]);
        // ring (succ + pred both directions)
        assert!(has(a, b) && has(b, c) && has(c, a));
        assert!(has(b, a) && has(c, b) && has(a, c));
        // finger of 0.0 at level 1: first real >= 0.5 → 0.6
        assert!(e
            .iter()
            .any(|ce| ce.from == a && ce.to == c && ce.kind == ChordEdgeKind::Finger(1)));
        // wrap classification: succ edge of the max (c → a) crosses; the
        // pred edge of the min (a → c) crosses counter-clockwise.
        assert!(e
            .iter()
            .find(|ce| ce.from == c && ce.to == a && ce.kind == ChordEdgeKind::Successor)
            .unwrap()
            .crosses_wrap());
        assert!(e
            .iter()
            .find(|ce| ce.from == a && ce.to == c && ce.kind == ChordEdgeKind::Predecessor)
            .unwrap()
            .crosses_wrap());
        assert!(!e
            .iter()
            .find(|ce| ce.from == a && ce.to == b && ce.kind == ChordEdgeKind::Successor)
            .unwrap()
            .crosses_wrap());
    }

    #[test]
    fn cyclic_successor_wraps() {
        let v = ids(&[0.2, 0.5, 0.8]);
        assert_eq!(cyclic_successor(&v, Ident::from_f64(0.6)), Ident::from_f64(0.8));
        assert_eq!(cyclic_successor(&v, Ident::from_f64(0.9)), Ident::from_f64(0.2));
        assert_eq!(cyclic_successor(&v, Ident::from_f64(0.5)), Ident::from_f64(0.5));
    }

    #[test]
    fn single_peer_has_no_chord_edges() {
        assert!(chord_edges(&ids(&[0.5])).is_empty());
    }
}
