//! [`ReChordNetwork`]: the user-facing handle on a running Re-Chord overlay.

use crate::metrics::NetworkMetrics;
use crate::oracle::StableTopology;
use crate::protocol::ReChordProtocol;
use crate::stability::StableStateAudit;
use crate::state::{PeerState, VirtualState};
use rechord_graph::{connectivity, Edge, EdgeKind, NodeRef};
use rechord_id::Ident;
use rechord_sim::{Engine, FixpointReport, RoundOutcome};
use rechord_topology::InitialTopology;
use std::collections::BTreeMap;

/// A Re-Chord overlay network under simulation.
///
/// Wraps the synchronous engine with Re-Chord-specific operations: building
/// from an initial topology, driving to stability, metrics and the audit,
/// and (via [`crate::churn`]) joins and leaves. A driver that watches a run
/// round by round observes the engine's one fixpoint loop,
/// [`Engine::run_until_fixpoint_observed`], through
/// [`ReChordNetwork::engine_mut`].
///
/// The `threads` argument of the constructors is accepted and ignored:
/// rounds are evaluated serially.
pub struct ReChordNetwork {
    engine: Engine<ReChordProtocol>,
}

impl ReChordNetwork {
    /// Builds a network whose peers initially know exactly the edges of
    /// `topology` (loaded into `N_u(u_0)`).
    ///
    /// ```
    /// use rechord_core::network::ReChordNetwork;
    /// use rechord_topology::TopologyKind;
    ///
    /// let topo = TopologyKind::SortedLine.generate(8, 7);
    /// let mut net = ReChordNetwork::from_topology(&topo, 1);
    /// assert_eq!(net.len(), 8);
    ///
    /// let report = net.run_until_stable(10_000);
    /// assert!(report.converged);
    /// assert!(net.audit().missing_unmarked.is_empty());
    /// ```
    pub fn from_topology(topology: &InitialTopology, _threads: usize) -> Self {
        let mut engine = Engine::new(ReChordProtocol::full());
        for &id in &topology.ids {
            engine.insert_node(id, PeerState::new());
        }
        for &(a, b) in &topology.edges {
            let (from, to) = (topology.ids[a], topology.ids[b]);
            if let Some(st) = engine.state_mut(from) {
                st.level_mut(0).expect("level 0").nu.insert(NodeRef::real(to));
            }
        }
        ReChordNetwork { engine }
    }

    /// Builds a network from **raw peer states** — the strongest reading of
    /// self-stabilization: the initial state need not be a clean knowledge
    /// graph; any garbage a transient fault could leave behind (wrong
    /// levels, stale registers, arbitrary edge sets of every class) is
    /// legal input, as long as the peers are weakly connected.
    pub fn from_raw_states(
        states: impl IntoIterator<Item = (Ident, PeerState)>,
        _threads: usize,
    ) -> Self {
        let mut engine = Engine::new(ReChordProtocol::full());
        for (id, st) in states {
            engine.insert_node(id, st);
        }
        ReChordNetwork { engine }
    }

    /// Convenience: generates the paper's random weakly connected initial
    /// state with `n` peers and runs it to stability.
    pub fn bootstrap_stable(
        n: usize,
        seed: u64,
        threads: usize,
        max_rounds: u64,
    ) -> (Self, FixpointReport) {
        let topo = rechord_topology::TopologyKind::Random.generate(n, seed);
        let mut net = Self::from_topology(&topo, threads);
        let report = net.run_until_stable(max_rounds);
        (net, report)
    }

    /// Live peer identifiers, ascending.
    pub fn real_ids(&self) -> Vec<Ident> {
        self.engine.ids().to_vec()
    }

    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True iff the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Executes one synchronous round.
    pub fn round(&mut self) -> RoundOutcome {
        self.engine.round()
    }

    /// Executes one round and reports which peers' states changed — the
    /// co-simulation hook for drivers that keep derived views (routing
    /// tables, workload state) current between rounds without re-reading
    /// the whole network.
    pub fn round_dirty(&mut self) -> (RoundOutcome, Vec<Ident>) {
        self.engine.round_dirty_with_schedule(|_| true)
    }

    /// Runs until the global state is a fixpoint (the paper's stable state)
    /// or `max_rounds` elapse.
    pub fn run_until_stable(&mut self, max_rounds: u64) -> FixpointReport {
        self.engine.run_until_fixpoint(max_rounds)
    }

    /// Measures the current state (Figure 5/7 series, Lemma 3.1 gaps).
    pub fn metrics(&self) -> NetworkMetrics {
        NetworkMetrics::of(&self.engine)
    }

    /// Audits the current state against the oracle topology.
    pub fn audit(&self) -> StableStateAudit {
        StableStateAudit::new(&StableTopology::new(self.engine.ids()), &self.engine)
    }

    /// Installs per-peer crime sets ([`crate::adversary`]), replacing the
    /// current map; crimes apply from the next round. An all-honest map is
    /// the honest protocol.
    pub fn set_adversary(&mut self, map: std::sync::Arc<crate::adversary::AdversaryMap>) {
        self.engine.protocol_mut().adversary = map;
    }

    /// Read access to the underlying engine.
    pub fn engine(&self) -> &Engine<ReChordProtocol> {
        &self.engine
    }

    /// Mutable access to the underlying engine (used by the churn driver).
    pub fn engine_mut(&mut self) -> &mut Engine<ReChordProtocol> {
        &mut self.engine
    }
}

/// The overlay `G = (V, E_u ∪ E_r ∪ E_c)` of a set of peer states (paper
/// §2.2), read off their neighbourhoods: its nodes are every node a peer
/// simulates and every node an edge names, its edges the neighbourhoods'
/// entries without self-references. This is the one definition of the
/// overlay: the phases, the audit, the projection, the metrics and the
/// [`dot`](rechord_graph::dot) rendering read it.
pub struct Overlay<'a> {
    /// The simulated nodes with their states, by peer, then level.
    simulated: Vec<(NodeRef, &'a VirtualState)>,
    /// The nodes that only edges name, ascending.
    named: Vec<NodeRef>,
    /// Every edge as its source's number, its target's number and its
    /// class. A simulated node's number is its position in `simulated`; the
    /// `k`-th node that only edges name, in the order they first do, has
    /// `simulated.len() + k`.
    numbered: Vec<(usize, usize, EdgeKind)>,
}

impl<'a> Overlay<'a> {
    /// Reads the overlay of `states`, whose peers must be distinct.
    pub fn new(states: impl IntoIterator<Item = (Ident, &'a PeerState)>) -> Self {
        let mut states: Vec<(Ident, &PeerState)> = states.into_iter().collect();
        states.sort_unstable_by_key(|&(id, _)| id);
        // Per peer: its levels as bits (all at most `MAX_LEVEL`) and where
        // its nodes start in `simulated`.
        let mut peers: Vec<(Ident, u128, usize)> = Vec::with_capacity(states.len());
        let mut simulated = Vec::new();
        for (owner, st) in states {
            let levels = st.levels.keys().fold(0, |bits, &level| bits | 1 << level);
            peers.push((owner, levels, simulated.len()));
            simulated.extend(st.levels.iter().map(|(&level, vs)| (NodeRef { owner, level }, vs)));
        }
        let position = |node: &NodeRef| {
            let peer = peers.binary_search_by_key(&node.owner, |&(id, _, _)| id).ok()?;
            let (_, levels, first) = peers[peer];
            let below = (levels & ((1 << node.level) - 1)).count_ones() as usize;
            (levels >> node.level & 1 == 1).then_some(first + below)
        };
        let mut named: BTreeMap<NodeRef, usize> = BTreeMap::new();
        let mut numbered = Vec::new();
        for (at, &(from, vs)) in simulated.iter().enumerate() {
            for e in edges_of(from, vs) {
                let next = simulated.len() + named.len();
                let to = position(&e.to).unwrap_or_else(|| *named.entry(e.to).or_insert(next));
                numbered.push((at, to, e.kind));
            }
        }
        Overlay { named: named.into_keys().collect(), simulated, numbered }
    }

    /// Every node, ascending.
    pub fn nodes(&self) -> Vec<NodeRef> {
        let mut nodes: Vec<NodeRef> = self.simulated.iter().map(|&(n, _)| n).collect();
        nodes.extend_from_slice(&self.named);
        nodes.sort_unstable();
        nodes
    }

    /// Every edge, by source node (ascending), then class, then target.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let mut sources = self.simulated.clone();
        sources.sort_unstable_by_key(|&(from, _)| from);
        sources.into_iter().flat_map(|(from, vs)| edges_of(from, vs))
    }

    /// Number of weakly connected components of all the nodes over the
    /// edges of the classes `kinds` (direction ignored).
    pub fn components(&self, kinds: &[EdgeKind]) -> usize {
        let edges = self.numbered.iter().filter(|(_, _, kind)| kinds.contains(kind));
        let nodes = self.simulated.len() + self.named.len();
        connectivity::components(nodes, edges.map(|&(from, to, _)| (from, to)))
    }
}

/// The out-edges of the node `from` with state `vs`, by class, then target.
fn edges_of(from: NodeRef, vs: &VirtualState) -> impl Iterator<Item = Edge> + '_ {
    EdgeKind::ALL.into_iter().flat_map(move |kind| {
        vs.of(kind).iter().filter(move |&&to| to != from).map(move |&to| Edge { from, to, kind })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::Comparison;
    use rechord_topology::TopologyKind;

    #[test]
    fn from_topology_seeds_level_zero_knowledge() {
        let topo = TopologyKind::SortedLine.generate(4, 1);
        let net = ReChordNetwork::from_topology(&topo, 1);
        assert_eq!(net.len(), 4);
        // the first peer knows the second
        let first = topo.ids[0];
        let second = topo.ids[1];
        let st = net.engine().state(first).unwrap();
        assert!(st.level(0).unwrap().nu.contains(&NodeRef::real(second)));
    }

    #[test]
    fn overlay_nodes_are_simulated_or_named() {
        let (a, b) = (Ident::from_f64(0.2), Ident::from_f64(0.6));
        let mut sa = PeerState::new();
        sa.levels.insert(64, VirtualState::default());
        let mut sb = PeerState::new();
        let vs = sb.level_mut(0).unwrap();
        vs.nu.insert(NodeRef::virtual_node(a, 64)); // simulated
        vs.nc.insert(NodeRef::virtual_node(a, 63)); // only named
        let overlay = Overlay::new([(a, &sa), (b, &sb)]);
        assert_eq!(overlay.nodes().len(), 4);
        assert_eq!(overlay.components(&EdgeKind::ALL), 2, "a_0 stands alone");
        assert_eq!(overlay.components(&[EdgeKind::Unmarked]), 3);
    }

    #[test]
    fn overlay_reads_the_topology_back() {
        let topo = TopologyKind::Star.generate(5, 2);
        let net = ReChordNetwork::from_topology(&topo, 1);
        let overlay = Overlay::new(net.engine().iter());
        let mut ids = topo.ids.clone();
        ids.sort_unstable();
        assert!(overlay.nodes().into_iter().eq(ids.into_iter().map(NodeRef::real)));
        let edges: Vec<Edge> = overlay.edges().collect();
        let mut expected: Vec<Edge> = topo
            .edges
            .iter()
            .map(|&(a, b)| Edge::unmarked(NodeRef::real(topo.ids[a]), NodeRef::real(topo.ids[b])))
            .collect();
        expected.sort_unstable_by_key(|e| (e.from, e.kind, e.to));
        expected.dedup();
        assert_eq!(edges, expected, "by source, then class, then target");
    }

    #[test]
    fn small_network_stabilizes_and_audits_clean() {
        let topo = TopologyKind::Random.generate(8, 7);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(5_000);
        assert!(report.converged, "8-peer random graph must stabilize");
        let audit = net.audit();
        assert!(
            audit.missing_unmarked.is_empty(),
            "missing desired edges: {:?}",
            audit.missing_unmarked
        );
        assert!(audit.weakly_connected);
    }

    #[test]
    fn almost_stable_no_later_than_stable() {
        let topo = TopologyKind::Random.generate(6, 3);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let target = StableTopology::new(&topo.ids);
        let mut almost = None;
        let report = net.engine_mut().run_until_fixpoint_observed(5_000, |round, _, engine| {
            if almost.is_none() && Comparison::new(&target, engine).almost_stable() {
                almost = Some(round);
            }
        });
        assert!(report.converged);
        let almost = almost.expect("stable implies almost-stable was seen");
        assert!(almost <= report.rounds);
    }

    #[test]
    fn metrics_reflect_stable_structure() {
        let topo = TopologyKind::Random.generate(10, 11);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        net.run_until_stable(5_000);
        let m = net.metrics();
        assert_eq!(m.real_nodes, 10);
        assert!(m.virtual_nodes >= 10, "every peer simulates at least u_1");
        assert!(m.total_edges() > 0);
    }
}
