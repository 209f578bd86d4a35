//! Per-peer protocol state: the neighborhoods of every simulated node.
//!
//! A peer's state is a `BTreeMap` from virtual level to [`VirtualState`],
//! and each node's three neighborhoods are [`RefSet`]s: sorted vectors of
//! [`NodeRef`]s in ring order. A neighborhood holds about four references
//! at the stable state, so a binary search over one short slice answers the
//! rules' membership and `max{w < x}` / `min{w > x}` queries, and clone,
//! comparison and iteration are slice operations. `Eq`, `Ord` and `Debug`
//! of a `RefSet` are those of a `BTreeSet<NodeRef>` with the same elements,
//! so the engine's fixpoint check, the wire encoding and the printed state
//! (which state digests hash) do not depend on the representation.

use core::fmt;
use core::ops::{Bound, RangeBounds};
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::{Ident, MAX_LEVEL};
use std::collections::{BTreeMap, BTreeSet};

/// A set of [`NodeRef`]s: a vector kept sorted by `NodeRef`'s ring order
/// and free of duplicates.
///
/// It offers the subset of `BTreeSet<NodeRef>`'s interface the protocol
/// uses, with the same semantics; [`RefSet::as_slice`] exposes the sorted
/// elements for callers that search them directly.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefSet(Vec<NodeRef>);

impl RefSet {
    /// The empty set.
    pub fn new() -> Self {
        RefSet(Vec::new())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The elements in ascending ring order.
    pub fn iter(&self) -> core::slice::Iter<'_, NodeRef> {
        self.0.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[NodeRef] {
        &self.0
    }

    /// Is `r` an element?
    pub fn contains(&self, r: &NodeRef) -> bool {
        self.0.binary_search(r).is_ok()
    }

    /// Adds `r`; returns whether it was absent.
    pub fn insert(&mut self, r: NodeRef) -> bool {
        match self.0.binary_search(&r) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, r);
                true
            }
        }
    }

    /// Removes `r`; returns whether it was present.
    pub fn remove(&mut self, r: &NodeRef) -> bool {
        match self.0.binary_search(r) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps only the elements for which `keep` returns `true`.
    pub fn retain(&mut self, keep: impl FnMut(&NodeRef) -> bool) {
        self.0.retain(keep);
    }

    /// Removes every element (keeping the allocation).
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The smallest element.
    pub fn first(&self) -> Option<&NodeRef> {
        self.0.first()
    }

    /// The largest element.
    pub fn last(&self) -> Option<&NodeRef> {
        self.0.last()
    }

    /// The elements within `range`, ascending (double-ended, so
    /// `range(..x).next_back()` is `max{w : w < x}`). An empty or inverted
    /// range yields nothing.
    pub fn range(&self, range: impl RangeBounds<NodeRef>) -> core::slice::Iter<'_, NodeRef> {
        let lo = match range.start_bound() {
            Bound::Included(x) => self.0.partition_point(|r| r < x),
            Bound::Excluded(x) => self.0.partition_point(|r| r <= x),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(x) => self.0.partition_point(|r| r <= x),
            Bound::Excluded(x) => self.0.partition_point(|r| r < x),
            Bound::Unbounded => self.0.len(),
        };
        self.0[lo..hi.max(lo)].iter()
    }
}

impl fmt::Debug for RefSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

impl Extend<NodeRef> for RefSet {
    fn extend<I: IntoIterator<Item = NodeRef>>(&mut self, refs: I) {
        let before = self.0.len();
        self.0.extend(refs);
        if self.0.len() > before {
            self.0.sort_unstable();
            self.0.dedup();
        }
    }
}

impl FromIterator<NodeRef> for RefSet {
    fn from_iter<I: IntoIterator<Item = NodeRef>>(refs: I) -> Self {
        let mut refs: Vec<NodeRef> = refs.into_iter().collect();
        refs.sort_unstable();
        refs.dedup();
        RefSet(refs)
    }
}

impl IntoIterator for RefSet {
    type Item = NodeRef;
    type IntoIter = std::vec::IntoIter<NodeRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a RefSet {
    type Item = &'a NodeRef;
    type IntoIter = core::slice::Iter<'a, NodeRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<BTreeSet<NodeRef>> for RefSet {
    fn from(set: BTreeSet<NodeRef>) -> Self {
        RefSet(set.into_iter().collect())
    }
}

/// State of one (real or virtual) node: its outgoing neighborhoods and the
/// closest-real-neighbor registers of rule 3.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualState {
    /// Unmarked out-neighbors `N_u(u_i)`.
    pub nu: RefSet,
    /// Ring out-neighbors `N_r(u_i)`.
    pub nr: RefSet,
    /// Connection out-neighbors `N_c(u_i)`.
    pub nc: RefSet,
    /// `rl(u_i)`: closest known real node left of `u_i` (rule 3).
    pub rl: Option<NodeRef>,
    /// `rr(u_i)`: closest known real node right of `u_i` (rule 3).
    pub rr: Option<NodeRef>,
}

impl VirtualState {
    /// The neighborhood set of one edge class.
    pub fn of(&self, kind: EdgeKind) -> &RefSet {
        match kind {
            EdgeKind::Unmarked => &self.nu,
            EdgeKind::Ring => &self.nr,
            EdgeKind::Connection => &self.nc,
        }
    }

    /// Mutable neighborhood set of one edge class.
    pub fn of_mut(&mut self, kind: EdgeKind) -> &mut RefSet {
        match kind {
            EdgeKind::Unmarked => &mut self.nu,
            EdgeKind::Ring => &mut self.nr,
            EdgeKind::Connection => &mut self.nc,
        }
    }

    /// All outgoing targets across the three classes.
    pub fn all_targets(&self) -> impl Iterator<Item = &NodeRef> {
        self.nu.iter().chain(self.nr.iter()).chain(self.nc.iter())
    }
}

/// Protocol state of one peer: one [`VirtualState`] per simulated level.
///
/// Level `0` is the real node `u_0 = u` and always exists; levels `1..=m`
/// are the virtual nodes currently alive (rule 1 adjusts the set each
/// round). The engine's fixpoint check compares `PeerState`s structurally,
/// so every container here is ordered: levels ascend by number, and every
/// [`RefSet`] ascends by ring position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerState {
    /// Per-level node state, keyed by virtual level (`0` = real node).
    pub levels: BTreeMap<u8, VirtualState>,
}

impl Default for PeerState {
    fn default() -> Self {
        Self::new()
    }
}

impl PeerState {
    /// A fresh peer that knows nobody (level 0 only, empty neighborhoods).
    pub fn new() -> Self {
        let mut levels = BTreeMap::new();
        levels.insert(0u8, VirtualState::default());
        PeerState { levels }
    }

    /// A fresh peer whose real node initially knows `contacts` — how an
    /// initial topology or a joining peer (§4.1: "it is connected to an
    /// arbitrary real node of the network") is seeded.
    pub fn with_contacts(contacts: impl IntoIterator<Item = NodeRef>) -> Self {
        let mut st = Self::new();
        st.levels.get_mut(&0).expect("level 0").nu.extend(contacts);
        st
    }

    /// The [`NodeRef`] of this peer's node at `level`.
    #[inline]
    pub fn node_ref(owner: Ident, level: u8) -> NodeRef {
        NodeRef { owner, level }
    }

    /// `S(u)`: the sibling node references currently simulated, ascending by
    /// ring position (note: *not* by level — levels wrap around the ring).
    pub fn siblings(&self, owner: Ident) -> Vec<NodeRef> {
        let mut refs: Vec<NodeRef> =
            self.levels.keys().map(|&lvl| Self::node_ref(owner, lvl)).collect();
        refs.sort_unstable();
        refs
    }

    /// `N(u) = S(u) ∪ ⋃_j N_u(u_j)`: the peer's known neighborhood through
    /// unmarked edges (paper §2.2). Identical for every sibling, so a rule
    /// computes it once per peer per round.
    pub fn known(&self, owner: Ident) -> RefSet {
        let edges: usize = self.levels.values().map(|vs| vs.nu.len()).sum();
        let mut known = Vec::with_capacity(self.levels.len() + edges);
        known.extend(self.levels.keys().map(|&lvl| Self::node_ref(owner, lvl)));
        for vs in self.levels.values() {
            known.extend_from_slice(vs.nu.as_slice());
        }
        known.into_iter().collect()
    }

    /// The clockwise gap from `owner` to the nearest known real node other
    /// than itself, over **all** outgoing edges (`N_u ∪ N_r ∪ N_c` of every
    /// level). `None` when no other real node is known.
    pub fn closest_real_gap(&self, owner: Ident) -> Option<u64> {
        let mut best: Option<u64> = None;
        for vs in self.levels.values() {
            for t in vs.all_targets() {
                if t.is_real() && t.owner != owner {
                    let d = owner.dist_cw(t.pos());
                    best = Some(best.map_or(d, |b| b.min(d)));
                }
            }
        }
        best
    }

    /// The paper's `m`: the level of the virtual node with the smallest
    /// distance to `u` such that no known real node lies strictly inside
    /// `(u, u + 1/2^m)` — equivalently the Chord finger condition
    /// `1/2^m <= gap < 1/2^(m-1)` (README, Interpretations A1). A peer that
    /// knows no other real node has `m = 1`.
    pub fn compute_m(&self, owner: Ident) -> u8 {
        match self.closest_real_gap(owner) {
            Some(gap) => Ident::finger_level_for_gap(gap),
            None => 1,
        }
    }

    /// Removes degenerate references an adversarial initial state may
    /// contain: self-edges (a node listed in its own neighborhood) and
    /// out-of-range levels. Run at the top of every step (self-stabilization
    /// must tolerate arbitrary initial garbage).
    pub fn sanitize(&mut self, owner: Ident) {
        for (&lvl, vs) in self.levels.iter_mut() {
            let me = Self::node_ref(owner, lvl);
            for kind in EdgeKind::ALL {
                vs.of_mut(kind).retain(|r| *r != me && r.level <= MAX_LEVEL);
            }
            if vs.rl == Some(me) {
                vs.rl = None;
            }
            if vs.rr == Some(me) {
                vs.rr = None;
            }
        }
    }

    /// The state of the node at `level`, if simulated.
    pub fn level(&self, level: u8) -> Option<&VirtualState> {
        self.levels.get(&level)
    }

    /// Mutable state of the node at `level`, if simulated.
    pub fn level_mut(&mut self, level: u8) -> Option<&mut VirtualState> {
        self.levels.get_mut(&level)
    }

    /// The deepest currently simulated level (`u_m`; `0` for a bare peer).
    pub fn deepest_level(&self) -> u8 {
        self.levels.keys().next_back().copied().unwrap_or(0)
    }

    /// Drops every reference to the peer `dead` from all neighborhoods —
    /// models §4.2's crash semantics where "the node, as well as its
    /// connections, fail".
    pub fn purge_peer(&mut self, dead: Ident) {
        for vs in self.levels.values_mut() {
            vs.nu.retain(|r| r.owner != dead);
            vs.nr.retain(|r| r.owner != dead);
            vs.nc.retain(|r| r.owner != dead);
            if vs.rl.is_some_and(|r| r.owner == dead) {
                vs.rl = None;
            }
            if vs.rr.is_some_and(|r| r.owner == dead) {
                vs.rr = None;
            }
        }
    }

    /// Total number of stored edges (all levels, all classes).
    pub fn edge_count(&self) -> usize {
        self.levels.values().map(|v| v.nu.len() + v.nr.len() + v.nc.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(x: f64) -> Ident {
        Ident::from_f64(x)
    }

    #[test]
    fn debug_form_is_the_recorded_one() {
        // Recorded from the build whose neighbourhoods were
        // `BTreeSet<NodeRef>`; state digests hash this string.
        let id = Ident::from_raw;
        let mut st = PeerState::with_contacts([
            NodeRef::real(id(0x8000_0000_0000_0000)),
            NodeRef::virtual_node(id(0xf000_0000_0000_0000), 3),
        ]);
        st.levels.insert(2, VirtualState::default());
        let vs = st.level_mut(2).unwrap();
        vs.nr.insert(NodeRef::real(id(0x1000)));
        vs.nc.insert(NodeRef::virtual_node(id(0x4000_0000_0000_0000), 1));
        vs.nc.insert(NodeRef::real(id(0x2000_0000_0000_0000)));
        vs.rl = Some(NodeRef::real(id(0x1000)));
        assert_eq!(
            format!("{st:?}"),
            "PeerState { levels: {0: VirtualState { nu: {V[0.937500+2^-3 @0.062500], \
             R[0.500000]}, nr: {}, nc: {}, rl: None, rr: None }, 2: VirtualState { nu: {}, \
             nr: {R[0.000000]}, nc: {R[0.125000], V[0.250000+2^-1 @0.750000]}, \
             rl: Some(R[0.000000]), rr: None }} }"
        );
    }

    #[test]
    fn new_peer_has_level_zero_only() {
        let st = PeerState::new();
        assert_eq!(st.levels.len(), 1);
        assert!(st.level(0).is_some());
        assert_eq!(st.deepest_level(), 0);
        assert_eq!(st.edge_count(), 0);
    }

    #[test]
    fn compute_m_matches_finger_condition() {
        let u = ident(0.2);
        let mut st = PeerState::new();
        // Knows a real node 0.3 clockwise away (gap ~ 0.1):
        // 1/2^4 = 0.0625 <= 0.1 < 0.125 = 1/2^3  =>  m = 4.
        st.levels.get_mut(&0).unwrap().nu.insert(NodeRef::real(ident(0.3)));
        assert_eq!(st.compute_m(u), 4);
        // A closer real node deepens m.
        st.levels.get_mut(&0).unwrap().nu.insert(NodeRef::real(ident(0.2 + 0.01)));
        assert_eq!(st.compute_m(u), Ident::finger_level_for_gap(u.dist_cw(ident(0.21))));
        // Lone peer: m = 1.
        assert_eq!(PeerState::new().compute_m(u), 1);
    }

    #[test]
    fn gap_considers_all_edge_classes_and_wraps() {
        let u = ident(0.9);
        let mut st = PeerState::new();
        st.levels.get_mut(&0).unwrap().nr.insert(NodeRef::real(ident(0.1)));
        // clockwise 0.9 -> 0.1 wraps: gap 0.2
        let gap = st.closest_real_gap(u).unwrap();
        assert_eq!(gap, u.dist_cw(ident(0.1)));
        // virtual targets are ignored
        let mut st2 = PeerState::new();
        st2.levels.get_mut(&0).unwrap().nu.insert(NodeRef::virtual_node(ident(0.95), 2));
        assert_eq!(st2.closest_real_gap(u), None);
    }

    #[test]
    fn known_unions_all_levels_and_siblings() {
        let u = ident(0.1);
        let mut st = PeerState::new();
        st.levels.insert(3, VirtualState::default());
        let a = NodeRef::real(ident(0.5));
        let b = NodeRef::real(ident(0.7));
        st.levels.get_mut(&0).unwrap().nu.insert(a);
        st.levels.get_mut(&3).unwrap().nu.insert(b);
        let known = st.known(u);
        assert!(known.contains(&a) && known.contains(&b));
        assert!(known.contains(&PeerState::node_ref(u, 0)));
        assert!(known.contains(&PeerState::node_ref(u, 3)));
        assert_eq!(known.len(), 4);
    }

    #[test]
    fn siblings_sorted_by_position_not_level() {
        // owner at 0.6: u1 = 0.1 (wraps), u2 = 0.85; position order is
        // u1 < u0 < u2 even though levels are 0 < 1 < 2.
        let u = ident(0.6);
        let mut st = PeerState::new();
        st.levels.insert(1, VirtualState::default());
        st.levels.insert(2, VirtualState::default());
        let sib = st.siblings(u);
        assert_eq!(sib.len(), 3);
        assert!(sib[0].pos() <= sib[1].pos() && sib[1].pos() <= sib[2].pos());
        assert_eq!(sib[0].level, 1);
        assert_eq!(sib[1].level, 0);
        assert_eq!(sib[2].level, 2);
    }

    #[test]
    fn sanitize_removes_self_references() {
        let u = ident(0.4);
        let mut st = PeerState::new();
        let me = PeerState::node_ref(u, 0);
        st.levels.get_mut(&0).unwrap().nu.insert(me);
        st.levels.get_mut(&0).unwrap().rl = Some(me);
        st.sanitize(u);
        assert!(st.level(0).unwrap().nu.is_empty());
        assert_eq!(st.level(0).unwrap().rl, None);
    }

    #[test]
    fn purge_peer_clears_all_traces() {
        let u = ident(0.4);
        let dead = ident(0.8);
        let mut st = PeerState::with_contacts([NodeRef::real(dead), NodeRef::real(ident(0.5))]);
        st.levels.get_mut(&0).unwrap().nc.insert(NodeRef::virtual_node(dead, 2));
        st.levels.get_mut(&0).unwrap().rr = Some(NodeRef::real(dead));
        st.purge_peer(dead);
        let vs = st.level(0).unwrap();
        assert_eq!(vs.nu.len(), 1);
        assert!(vs.nc.is_empty());
        assert_eq!(vs.rr, None);
        let _ = u;
    }
}
