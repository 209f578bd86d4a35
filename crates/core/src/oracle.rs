//! The oracle: what the stable Re-Chord topology *must* look like, computed
//! directly (non-distributedly) from the set of real identifiers.
//!
//! The stable topology of an identifier set is unique (paper §2.2), so it is
//! one value, [`StableTopology`], built once per identifier set: the level
//! count `m` of every peer, then every node, then each node's desired
//! unmarked targets, the persistent ring pair and the Chord edge set. A run
//! over a fixed peer set builds it once and holds every round's peer states
//! against it ([`crate::stability::Comparison`]); that comparison decides
//! almost-stability (Figure 6's milestone), the §3.1 phases and the
//! stable-state audit. The Chord edges state Fact 2.1's subgraph check.

use rechord_graph::{Edge, NodeRef};
use rechord_id::{successor_index, Ident};

/// The desired unmarked targets of one node of the stable topology: its
/// closest left and right node and its closest left and right *real* node,
/// in the linear order on `[0,1)` (paper §2.2's stable-state description).
/// Extremal nodes lack the respective side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Targets {
    /// The closest node to the left.
    pub pred: Option<NodeRef>,
    /// The closest node to the right.
    pub succ: Option<NodeRef>,
    /// The closest real node to the left (the stable `rl`).
    pub rl: Option<NodeRef>,
    /// The closest real node to the right (the stable `rr`).
    pub rr: Option<NodeRef>,
}

impl Targets {
    /// The distinct targets, ascending by ring position. `rl` lies at or
    /// left of `pred` and `rr` at or right of `succ`; each coincides with
    /// its neighbour when that neighbour is real.
    pub fn distinct(&self) -> impl Iterator<Item = NodeRef> {
        let rl = self.rl.filter(|&r| self.pred != Some(r));
        let rr = self.rr.filter(|&r| self.succ != Some(r));
        [rl, self.pred, self.succ, rr].into_iter().flatten()
    }

    /// Is `to` one of the targets?
    pub fn contains(&self, to: &NodeRef) -> bool {
        [self.pred, self.succ, self.rl, self.rr].contains(&Some(*to))
    }
}

/// The stable topology of one identifier set.
///
/// ```
/// use rechord_core::oracle::StableTopology;
/// use rechord_id::Ident;
///
/// // Gaps 0.3 and 0.7: peer 0.0 simulates levels 0..=2, peer 0.3 levels 0..=1.
/// let target = StableTopology::new(&[Ident::from_f64(0.0), Ident::from_f64(0.3)]);
/// assert_eq!(target.nodes().len(), 5);
/// assert_eq!(target.targets_of(Ident::from_f64(0.0)).map(<[_]>::len), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct StableTopology {
    /// The real identifiers, ascending and distinct.
    ids: Vec<Ident>,
    /// Per peer (aligned with `ids`), the targets of its nodes by level
    /// `0..=m`.
    targets: Vec<Vec<Targets>>,
    /// Every node, real and virtual, ascending by ring position.
    nodes: Vec<NodeRef>,
    /// The Chord edge set, sorted.
    chord: Vec<ChordEdge>,
}

impl StableTopology {
    /// Computes the stable topology of `real_ids` (any order; duplicates
    /// count once).
    pub fn new(real_ids: &[Ident]) -> Self {
        let mut ids = real_ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let n = ids.len();
        // Each peer's `m` is the finger level of its cyclic gap to the next
        // real node (README, Interpretations A1); a single peer has m = 1.
        let levels: Vec<u8> = (0..n)
            .map(|k| {
                if n == 1 {
                    1
                } else {
                    Ident::finger_level_for_gap(ids[k].dist_cw(ids[(k + 1) % n]))
                }
            })
            .collect();
        let mut nodes: Vec<NodeRef> = ids
            .iter()
            .zip(&levels)
            .flat_map(|(&owner, &m)| (0..=m).map(move |level| NodeRef { owner, level }))
            .collect();
        nodes.sort_unstable();

        let mut targets: Vec<Vec<Targets>> =
            levels.iter().map(|&m| vec![Targets::default(); usize::from(m) + 1]).collect();
        let slot = |x: NodeRef| {
            let peer = ids.binary_search(&x.owner).expect("every node's owner is a peer");
            (peer, usize::from(x.level))
        };
        let mut last_real = None;
        for (k, &x) in nodes.iter().enumerate() {
            let (peer, level) = slot(x);
            let t = &mut targets[peer][level];
            t.pred = k.checked_sub(1).map(|j| nodes[j]);
            t.succ = nodes.get(k + 1).copied();
            t.rl = last_real;
            if x.is_real() {
                last_real = Some(x);
            }
        }
        let mut next_real = None;
        for &x in nodes.iter().rev() {
            let (peer, level) = slot(x);
            targets[peer][level].rr = next_real;
            if x.is_real() {
                next_real = Some(x);
            }
        }

        // Chord (paper §1.1): successor and predecessor edges forming the
        // ring, plus the fingers `p_i(v) = argmin{ w : h(w) >= h(v) + 1/2^i
        // (mod 1) }` for `i = 1..=m(v)`; a finger that resolves to `v`
        // itself is skipped.
        let mut chord = Vec::new();
        if n >= 2 {
            for (k, (&u, &m)) in ids.iter().zip(&levels).enumerate() {
                let succ = ids[(k + 1) % n];
                let pred = ids[(k + n - 1) % n];
                chord.push(ChordEdge { from: u, to: succ, kind: ChordEdgeKind::Successor });
                chord.push(ChordEdge { from: u, to: pred, kind: ChordEdgeKind::Predecessor });
                for i in 1..=m {
                    let at = successor_index(&ids, u.virtual_position(i));
                    let finger = ids[at.expect("two or more peers")];
                    if finger != u {
                        chord.push(ChordEdge {
                            from: u,
                            to: finger,
                            kind: ChordEdgeKind::Finger(i),
                        });
                    }
                }
            }
            chord.sort_unstable();
            chord.dedup();
        }
        StableTopology { ids, targets, nodes, chord }
    }

    /// Every node (real and virtual), ascending by ring position.
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// Every peer with the targets of its nodes by level `0..=m`, ascending
    /// by identifier.
    pub fn peers(&self) -> impl Iterator<Item = (Ident, &[Targets])> + '_ {
        self.ids.iter().copied().zip(self.targets.iter().map(Vec::as_slice))
    }

    /// The targets of `owner`'s nodes by level `0..=m`; `None` if `owner` is
    /// not one of the peers.
    pub fn targets_of(&self, owner: Ident) -> Option<&[Targets]> {
        let peer = self.ids.binary_search(&owner).ok()?;
        Some(&self.targets[peer])
    }

    /// The targets of `node`; `None` if it is not a node of the topology.
    pub fn targets(&self, node: &NodeRef) -> Option<&Targets> {
        self.targets_of(node.owner)?.get(usize::from(node.level))
    }

    /// The **desired unmarked edges**: every node to each of its targets,
    /// by source position, then target.
    pub fn desired_unmarked(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes.iter().flat_map(move |&from| {
            let targets = self.targets(&from).expect("every node has targets");
            targets.distinct().map(move |to| Edge::unmarked(from, to))
        })
    }

    /// The persistent stable ring edges: the global minimum holds a marked
    /// edge to the global maximum and vice versa (rule 5's fixpoint; the
    /// in-transit re-creation stream is *extra*, not desired).
    pub fn ring_pair(&self) -> Option<(Edge, Edge)> {
        let (first, last) = (*self.nodes.first()?, *self.nodes.last()?);
        (first != last).then(|| (Edge::ring(first, last), Edge::ring(last, first)))
    }

    /// The classic Chord edge set over the peers (paper §1.1), sorted.
    pub fn chord_edges(&self) -> &[ChordEdge] {
        &self.chord
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_graph::EdgeKind;

    fn ids(xs: &[f64]) -> Vec<Ident> {
        xs.iter().map(|&x| Ident::from_f64(x)).collect()
    }

    /// Each peer's level count `m`, ascending by identifier.
    fn levels(xs: &[f64]) -> Vec<usize> {
        StableTopology::new(&ids(xs)).peers().map(|(_, t)| t.len() - 1).collect()
    }

    #[test]
    fn levels_match_finger_condition() {
        // peers at 0.0 and 0.5: both gaps exactly 1/2 → m = 1 for both.
        assert_eq!(levels(&[0.0, 0.5]), [1, 1]);
        // peers at 0.0 and 0.3: gap(0.0→0.3)=0.3 → m=2; gap(0.3→0.0)=0.7 → m=1.
        assert_eq!(levels(&[0.0, 0.3]), [2, 1]);
        // singleton
        assert_eq!(levels(&[0.4]), [1]);
    }

    #[test]
    fn stable_nodes_sorted_and_complete() {
        let target = StableTopology::new(&ids(&[0.0, 0.3]));
        let nodes = target.nodes();
        // 0.0 contributes levels 0,1,2 → positions 0.0, 0.5, 0.25
        // 0.3 contributes levels 0,1  → positions 0.3, 0.8
        assert_eq!(nodes.len(), 5);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(nodes.iter().filter(|n| n.is_real()).count(), 2);
    }

    #[test]
    fn desired_unmarked_has_four_edge_classes_per_inner_node() {
        let target = StableTopology::new(&ids(&[0.0, 0.3, 0.6]));
        let edges: Vec<Edge> = target.desired_unmarked().collect();
        let out_of = |from: NodeRef| edges.iter().filter(move |e| e.from == from).map(|e| e.to);
        // every non-extremal node has pred+succ; every node left of a real
        // has an rr, etc. Spot-check an inner real node: 0.3.
        assert!(out_of(NodeRef::real(Ident::from_f64(0.3))).count() >= 2);
        // the extremes have no outer side
        let first = *target.nodes().first().unwrap();
        assert!(out_of(first).count() > 0);
        assert!(out_of(first).all(|t| t > first), "nothing to the left");
        // the edges come out distinct, by source, then target
        assert!(edges.windows(2).all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
        assert!(edges.iter().all(|e| e.kind == EdgeKind::Unmarked && e.from != e.to));
    }

    #[test]
    fn ring_pair_connects_extremes() {
        let (lo, hi) = StableTopology::new(&ids(&[0.1, 0.4, 0.9])).ring_pair().unwrap();
        assert!(lo.from < lo.to);
        assert_eq!(lo.from, hi.to);
        assert_eq!(lo.to, hi.from);
        assert!(StableTopology::new(&[]).ring_pair().is_none());
    }

    #[test]
    fn chord_edges_contain_ring_and_fingers() {
        let v = ids(&[0.0, 0.3, 0.6]);
        let target = StableTopology::new(&v);
        let e = target.chord_edges();
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
        // Peer 0.1's level-1 finger position 0.6 resolves to 0.65; peer
        // 0.45's, 0.95, lies past the largest peer and wraps to the smallest.
        let v = ids(&[0.1, 0.45, 0.65]);
        let target = StableTopology::new(&v);
        let finger = |from: Ident| {
            let edges = target.chord_edges().iter();
            edges
                .filter(|ce| ce.from == from && ce.kind == ChordEdgeKind::Finger(1))
                .map(|ce| ce.to)
                .next()
        };
        assert_eq!(finger(v[0]), Some(v[2]));
        assert_eq!(finger(v[1]), Some(v[0]));
    }

    #[test]
    fn single_peer_has_no_chord_edges() {
        assert!(StableTopology::new(&ids(&[0.5])).chord_edges().is_empty());
    }
}
