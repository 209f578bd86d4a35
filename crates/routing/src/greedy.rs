//! Greedy Chord routing on the stabilized overlay.
//!
//! The paper's lookup path (§1.1) is a binary search along finger edges —
//! in Re-Chord, along the *node-level* graph: each peer controls its real
//! node **and** its virtual nodes, so one routing step may use any outgoing
//! unmarked or ring edge of any of its simulated nodes. The wrap-around is
//! closed only at node level (the phase-3 ring-edge chain), so routing must
//! operate there: a peer-level projection loses the chain through the final
//! arc and strands lookups just short of a wrapping key.
//!
//! The cursor advances monotonically clockwise toward the key and never
//! overshoots; when the current peer knows no node strictly inside
//! `(cursor, key]`, the key's position has been bracketed and the
//! responsible peer is the closest *real* node at-or-after the key among
//! the peer's knowledge (its `rr`-edge by construction in a stable state).

use rechord_core::state::PeerState;
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::{successor_index, Ident};
use std::collections::{BTreeMap, BTreeSet};

/// A routing view: every live peer's node-level knowledge (all unmarked and
/// ring out-edges of all its simulated nodes, plus its own nodes), read off
/// the peers' states. Built in one shot by [`RoutingTable::from_network`],
/// or kept current against a live network with the incremental
/// [`RoutingTable::refresh_peer`] / [`RoutingTable::refresh_dirty`] family.
/// A peer that some state only names is no routing peer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTable {
    peers: Vec<Ident>,
    knowledge: BTreeMap<Ident, BTreeSet<NodeRef>>,
}

impl RoutingTable {
    /// Builds the table from the live per-peer states of a network: its
    /// peers are the network's peers.
    pub fn from_network(net: &rechord_core::network::ReChordNetwork) -> Self {
        let engine = net.engine();
        RoutingTable {
            peers: engine.ids().to_vec(),
            knowledge: engine
                .iter()
                .map(|(id, st)| (id, Self::knowledge_from_state(id, st)))
                .collect(),
        }
    }

    /// All peers, ascending.
    pub fn peers(&self) -> &[Ident] {
        &self.peers
    }

    /// The peer responsible for `key`: its cyclic successor among the real
    /// peers (consistent hashing, paper §1.1).
    pub fn responsible_for(&self, key: Ident) -> Option<Ident> {
        successor_index(&self.peers, key).map(|i| self.peers[i])
    }

    /// The node-level knowledge of one peer.
    pub fn knowledge_of(&self, peer: Ident) -> Option<&BTreeSet<NodeRef>> {
        self.knowledge.get(&peer)
    }

    /// The routing view of a *single* peer in a real deployment: the full
    /// peer roster (every node knows who is in the cluster, so
    /// [`RoutingTable::responsible_for`] agrees everywhere) but only this
    /// peer's own knowledge. [`route_step`] evaluated at `peer` needs
    /// nothing more, so a distributed recursive lookup — each node deciding
    /// one hop from its local view and forwarding — replays [`route`] over
    /// the global table decision for decision.
    pub fn local_view(peer: Ident, st: &PeerState, roster: &[Ident]) -> Self {
        let mut peers = roster.to_vec();
        peers.sort_unstable();
        peers.dedup();
        let mut knowledge = BTreeMap::new();
        knowledge.insert(peer, Self::knowledge_from_state(peer, st));
        RoutingTable { peers, knowledge }
    }

    /// One peer's routing knowledge computed straight from its live protocol
    /// state: its own simulated nodes plus the targets of its unmarked and
    /// ring out-edges (connection edges do not participate in routing).
    fn knowledge_from_state(peer: Ident, st: &PeerState) -> BTreeSet<NodeRef> {
        let mut k = BTreeSet::new();
        for (&lvl, vs) in &st.levels {
            k.insert(PeerState::node_ref(peer, lvl));
            for kind in [EdgeKind::Unmarked, EdgeKind::Ring] {
                k.extend(vs.of(kind).iter().copied());
            }
        }
        k
    }

    /// Recomputes one peer's knowledge from the live network, inserting the
    /// peer if it is new and dropping it if it no longer exists. Returns
    /// `true` iff the peer is (still) present. `O(log n + k log k)` for a
    /// peer with `k` out-edges — the incremental alternative to rebuilding
    /// the whole table via [`RoutingTable::from_network`].
    pub fn refresh_peer(
        &mut self,
        net: &rechord_core::network::ReChordNetwork,
        peer: Ident,
    ) -> bool {
        match net.engine().state(peer) {
            Some(st) => {
                if let Err(pos) = self.peers.binary_search(&peer) {
                    self.peers.insert(pos, peer);
                }
                self.knowledge.insert(peer, Self::knowledge_from_state(peer, st));
                true
            }
            None => {
                self.remove_peer(peer);
                false
            }
        }
    }

    /// Drops a peer (and its knowledge) from the table, e.g. after a crash.
    /// Returns `true` iff it was present. References *to* the dead peer held
    /// by others decay through their own refreshes, mirroring how the
    /// protocol itself purges them.
    pub fn remove_peer(&mut self, peer: Ident) -> bool {
        let existed = match self.peers.binary_search(&peer) {
            Ok(pos) => {
                self.peers.remove(pos);
                true
            }
            Err(_) => false,
        };
        self.knowledge.remove(&peer);
        existed
    }

    /// Refreshes exactly the peers in `dirty` (as reported by
    /// `ReChordNetwork::round_dirty`) — the steady-state cost of keeping a
    /// table current drops to zero when a round changes nothing.
    pub fn refresh_dirty(&mut self, net: &rechord_core::network::ReChordNetwork, dirty: &[Ident]) {
        for &peer in dirty {
            self.refresh_peer(net, peer);
        }
    }

    /// Rebuilds the whole view in place: [`RoutingTable::from_network`].
    pub fn refresh_from_network(&mut self, net: &rechord_core::network::ReChordNetwork) {
        *self = Self::from_network(net);
    }
}

/// The outcome of one greedy route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteResult {
    /// Did the route reach the responsible peer?
    pub success: bool,
    /// Peers visited, source first; the last entry is where routing ended.
    /// Consecutive entries are distinct (hops within one peer's own virtual
    /// nodes are free — the peer simulates them locally).
    pub path: Vec<Ident>,
}

impl RouteResult {
    /// Overlay (peer-to-peer) hops taken.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// What one greedy routing step decided (see [`route_step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopDecision {
    /// The current peer is the responsible peer: the lookup is done.
    Arrived,
    /// Move to `peer` with the cursor advanced to `cursor`. `peer` may equal
    /// the current peer (a free local step through its own virtual nodes) or
    /// differ (one network hop).
    Next {
        /// Peer holding the chosen node.
        peer: Ident,
        /// New cursor position (unchanged for knowledge-gap delegation).
        cursor: Ident,
    },
    /// No progress is possible from here — imperfect knowledge, typically a
    /// state still stabilizing. The caller may retry from elsewhere.
    Stuck,
}

/// One step of the greedy route: the decision the peer `peer` makes for a
/// request whose monotone cursor has reached `cursor`, bound for `key`.
///
/// Callers go through [`walk`]. [`route`] folds it over a frozen table; a
/// discrete-event workload re-evaluates it hop by hop against the *live*
/// table, so requests issued mid-stabilization see knowledge exactly as it
/// evolves.
pub fn route_step(table: &RoutingTable, peer: Ident, cursor: Ident, key: Ident) -> HopDecision {
    let Some(responsible) = table.responsible_for(key) else {
        return HopDecision::Stuck;
    };
    if peer == responsible {
        return HopDecision::Arrived;
    }
    let Some(known) = table.knowledge_of(peer) else {
        return HopDecision::Stuck;
    };
    let remaining = cursor.dist_cw(key); // > 0: cursor == key only if done

    // Best strictly-progressing node: maximal clockwise advance from the
    // cursor without passing the key.
    let next = known
        .iter()
        .filter(|t| {
            let adv = cursor.dist_cw(t.pos());
            adv > 0 && adv <= remaining
        })
        .max_by_key(|t| cursor.dist_cw(t.pos()))
        .copied();

    match next {
        Some(t) => HopDecision::Next { peer: t.owner, cursor: t.pos() },
        None => {
            // Key bracketed: the responsible peer is the first real node
            // at-or-after the key in this peer's knowledge. If that node is
            // someone else's, delegate without moving the cursor (imperfect
            // knowledge bounces are capped by the caller's hop budget).
            let landing =
                known.iter().filter(|t| t.is_real()).min_by_key(|t| key.dist_cw(t.pos())).copied();
            match landing {
                Some(t) if t.owner != peer => HopDecision::Next { peer: t.owner, cursor },
                _ => HopDecision::Stuck,
            }
        }
    }
}

/// Route steps (`Next` decisions, local and network alike) one request may
/// take. The cursor is strictly monotone, and with finger structure each hop
/// at least halves the remaining arc; 2·64 bounds the stable case, the rest
/// guards broken topologies.
const ROUTE_STEP_BUDGET: u32 = 2 * 64;

/// Where a [`walk`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Walk {
    /// The walking peer is responsible for the key.
    Arrived,
    /// The route leaves the walking peer for another one.
    Forward {
        /// The next peer.
        peer: Ident,
        /// The cursor the greedy hop carries (the caller's cursor is not
        /// advanced to it).
        cursor: Ident,
    },
    /// [`route_step`] found no way forward.
    Stuck,
    /// The caller's step counter reached the budget of 2·64 steps.
    OutOfSteps,
}

/// Repeats [`route_step`] at `peer` through its free local steps (moves
/// between its own simulated nodes) until the request arrives, moves to
/// another peer, gets stuck, or uses up the caller's step counter. Every
/// `Next` decision counts one step, the network hop included; a caller
/// without a budget passes `None`. `cursor` is left where the local steps
/// put it, so the caller decides what a forward carries.
///
/// This is the one loop over [`route_step`]: [`route`] folds it over a
/// frozen table, and a distributed or discrete-event request driver calls
/// it once per peer the request visits.
pub fn walk(
    table: &RoutingTable,
    peer: Ident,
    cursor: &mut Ident,
    key: Ident,
    mut steps: Option<&mut u32>,
) -> Walk {
    loop {
        if steps.as_deref().is_some_and(|&s| s >= ROUTE_STEP_BUDGET) {
            return Walk::OutOfSteps;
        }
        match route_step(table, peer, *cursor, key) {
            HopDecision::Arrived => return Walk::Arrived,
            HopDecision::Next { peer: next, cursor: c } => {
                if let Some(s) = steps.as_deref_mut() {
                    *s += 1;
                }
                if next != peer {
                    return Walk::Forward { peer: next, cursor: c };
                }
                *cursor = c;
            }
            HopDecision::Stuck => return Walk::Stuck,
        }
    }
}

/// Routes from peer `from` toward the peer responsible for `key` (see
/// module docs for the algorithm), within 2·64 route steps.
pub fn route(table: &RoutingTable, from: Ident, key: Ident) -> RouteResult {
    let mut path = vec![from];
    let (mut peer, mut cursor, mut steps) = (from, from, 0);
    loop {
        match walk(table, peer, &mut cursor, key, Some(&mut steps)) {
            Walk::Arrived => return RouteResult { success: true, path },
            Walk::Forward { peer: next, cursor: c } => {
                (peer, cursor) = (next, c);
                path.push(next);
            }
            Walk::Stuck | Walk::OutOfSteps => return RouteResult { success: false, path },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_core::network::ReChordNetwork;

    fn stable_table(n: usize, seed: u64) -> RoutingTable {
        let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 1, 20_000);
        assert!(report.converged);
        RoutingTable::from_network(&net)
    }

    #[test]
    fn responsible_peer_is_cyclic_successor() {
        let t = stable_table(8, 42);
        let peers = t.peers().to_vec();
        let key = Ident::from_raw(peers[2].raw().wrapping_sub(1));
        assert_eq!(t.responsible_for(key), Some(peers[2]));
        let key = Ident::from_raw(peers.last().unwrap().raw().wrapping_add(1));
        assert_eq!(t.responsible_for(key), Some(peers[0]), "wraps to the first peer");
    }

    #[test]
    fn all_pairs_route_on_stable_overlay() {
        let t = stable_table(16, 7);
        let peers = t.peers().to_vec();
        for &src in &peers {
            for &dst in &peers {
                let r = route(&t, src, dst);
                assert!(r.success, "route {src} → {dst} failed (path {:?})", r.path);
                assert_eq!(*r.path.last().unwrap(), dst);
            }
        }
    }

    #[test]
    fn wrap_gap_keys_route_through_the_ring_chain() {
        // Keys strictly beyond the largest peer: the responsible peer is the
        // smallest one, reachable only across the 0/1 boundary.
        for seed in [5074u64, 1, 2, 3] {
            let t = stable_table(16, seed);
            let peers = t.peers().to_vec();
            let max = *peers.last().unwrap();
            // a key strictly beyond the largest peer: responsible = peers[0]
            let key = Ident::from_raw(max.raw() + (u64::MAX - max.raw()) / 2 + 1);
            assert!(key > max);
            for &src in &peers {
                let r = route(&t, src, key);
                assert!(r.success, "seed {seed}: {src} → {key} path {:?}", r.path);
                assert_eq!(*r.path.last().unwrap(), peers[0]);
            }
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let t = stable_table(48, 11);
        let peers = t.peers().to_vec();
        let mut max_hops = 0usize;
        for &src in &peers {
            for k in 0..8u64 {
                let key = Ident::from_raw(k.wrapping_mul(0x2222_2222_2222_2222) ^ 0x5a5a);
                let r = route(&t, src, key);
                assert!(r.success, "{src} → {key}: {:?}", r.path);
                max_hops = max_hops.max(r.hops());
            }
        }
        assert!(max_hops <= 24, "max hops {max_hops} is not logarithmic-ish");
    }

    #[test]
    fn route_to_self_is_zero_hops() {
        let t = stable_table(5, 3);
        let p = t.peers()[2];
        let r = route(&t, p, p);
        assert!(r.success);
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn empty_table_fails_gracefully() {
        let t = RoutingTable::default();
        let r = route(&t, Ident::from_raw(1), Ident::from_raw(2));
        assert!(!r.success);
    }

    #[test]
    fn a_peer_that_is_only_named_does_not_route() {
        // Live a names the absent b; c is live. b is no peer, so c answers
        // for a key between a and b, and no route ends at b.
        let [a, b, c] = [0.1, 0.5, 0.7].map(Ident::from_f64);
        let mut named = PeerState::new();
        named.level_mut(0).unwrap().nu.insert(NodeRef::real(b));
        let net = ReChordNetwork::from_raw_states([(a, named), (c, PeerState::new())], 1);
        let t = RoutingTable::from_network(&net);
        assert_eq!(t.peers(), [a, c]);
        assert!(t.knowledge_of(b).is_none());
        let key = Ident::from_f64(0.45);
        assert_eq!(t.responsible_for(key), Some(c));
        let r = route(&t, a, key);
        assert!(!r.success, "a route to a peer that does not exist: {:?}", r.path);
    }

    #[test]
    fn refresh_dirty_tracks_a_stabilizing_network() {
        // Start from scratch, refresh only dirty peers each round; at the
        // fixpoint the table must equal the one-shot snapshot build.
        let topo = rechord_topology::TopologyKind::Random.generate(12, 5);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let mut table = RoutingTable::default();
        table.refresh_from_network(&net);
        for _ in 0..20_000 {
            let (out, dirty) = net.round_dirty();
            table.refresh_dirty(&net, &dirty);
            if !out.changed {
                break;
            }
        }
        assert_eq!(table, RoutingTable::from_network(&net));
    }

    #[test]
    fn refresh_peer_handles_joins_and_removals() {
        let (mut net, _) = ReChordNetwork::bootstrap_stable(8, 3, 1, 20_000);
        let mut table = RoutingTable::from_network(&net);
        let contact = table.peers()[0];
        let joiner = Ident::from_raw(0xdead_beef_1234_5678);
        assert!(net.join_via(joiner, contact));
        assert!(table.refresh_peer(&net, joiner));
        assert!(table.peers().contains(&joiner));
        // The joiner knows its contact straight away.
        assert!(table.knowledge_of(joiner).unwrap().iter().any(|t| t.owner == contact));
        // Crash it again: refresh drops it.
        assert!(net.crash(joiner));
        assert!(!table.refresh_peer(&net, joiner));
        assert!(!table.peers().contains(&joiner));
        assert!(table.knowledge_of(joiner).is_none());
        assert!(!table.remove_peer(joiner), "already gone");
    }

    #[test]
    fn route_step_agrees_with_route() {
        let t = stable_table(20, 13);
        let peers = t.peers().to_vec();
        for &src in peers.iter().take(6) {
            for k in 0..6u64 {
                let key = Ident::from_raw(k.wrapping_mul(0x3333_9999_aaaa_0001) ^ 0x77);
                let full = route(&t, src, key);
                // Fold route_step by hand.
                let (mut peer, mut cursor) = (src, src);
                let mut path = vec![src];
                let mut arrived = false;
                for _ in 0..128 {
                    match route_step(&t, peer, cursor, key) {
                        HopDecision::Arrived => {
                            arrived = true;
                            break;
                        }
                        HopDecision::Next { peer: p, cursor: c } => {
                            cursor = c;
                            if p != peer {
                                peer = p;
                                path.push(p);
                            }
                        }
                        HopDecision::Stuck => break,
                    }
                }
                assert_eq!(arrived, full.success);
                assert_eq!(path, full.path);
            }
        }
    }

    #[test]
    fn route_step_on_empty_table_is_stuck() {
        let t = RoutingTable::default();
        let p = Ident::from_raw(1);
        assert_eq!(route_step(&t, p, p, Ident::from_raw(9)), HopDecision::Stuck);
    }

    #[test]
    fn knowledge_summary_is_logarithmic_per_peer() {
        let t = stable_table(64, 9);
        let sizes: Vec<usize> =
            t.peers().iter().map(|&p| t.knowledge_of(p).unwrap().len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = sizes.iter().copied().max().unwrap();
        // each simulated node contributes O(1) edges; O(log n) nodes/peer
        assert!(mean >= 4.0);
        assert!(max <= 30 * 7, "per-peer knowledge {max} should be O(log n)-ish");
    }
}
