//! Stability criteria: live peer states held against the one stable target.
//!
//! [`Comparison`] walks the peers' states once against a [`StableTopology`]
//! and is the only place the verdicts below are decided:
//!
//! * **Almost stable** (Figure 6's earlier milestone): "all the desired
//!   edges of the Re-Chord network exist, but also some extra edges exist"
//!   — no desired unmarked edge is missing;
//! * the five §3.1 phase predicates ([`crate::phases::PhaseStatus`]);
//! * the stable-state audit ([`StableStateAudit`]).
//!
//! **Stable** (the paper's legal state) is a fixpoint of the round, which
//! the engine detects as "round changed nothing";
//! [`StableStateAudit::is_clean`] accepts or rejects the state it reached.
//! The audit's connectivity, projection and Fact 2.1 fields, like phase 1,
//! read the [`Overlay`] of the same states.

use crate::network::Overlay;
use crate::oracle::StableTopology;
use crate::projection::{chord_coverage, ChordCoverage, Projection};
use crate::protocol::ReChordProtocol;
use rechord_graph::{Edge, EdgeKind, NodeRef};
use rechord_sim::Engine;

/// Live peer states held against a [`StableTopology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comparison {
    /// Desired unmarked edges that are missing, by source node position,
    /// then target.
    pub missing_unmarked: Vec<Edge>,
    /// Unmarked edges beyond the desired set, in the same order.
    pub extra_unmarked: Vec<Edge>,
    /// How many of the missing edges join a node to its closest node on
    /// either side (its `pred` or `succ`).
    pub missing_linear: usize,
    /// How many of the missing edges point at a real node.
    pub missing_real: usize,
    /// Are both persistent extremal ring edges present?
    pub ring_pair_present: bool,
    /// Do the peers simulate exactly the target's virtual nodes? A
    /// reference to a virtual node does not simulate it.
    pub virtual_set_matches: bool,
}

impl Comparison {
    /// Compares the states of `engine`'s peers with `target`.
    pub fn new(target: &StableTopology, engine: &Engine<ReChordProtocol>) -> Self {
        let holds = |e: &Edge| {
            let vs = engine.state(e.from.owner).and_then(|st| st.level(e.from.level));
            vs.is_some_and(|vs| vs.of(e.kind).contains(&e.to))
        };
        let mut cmp = Comparison {
            missing_unmarked: Vec::new(),
            extra_unmarked: Vec::new(),
            missing_linear: 0,
            missing_real: 0,
            ring_pair_present: target.ring_pair().is_none_or(|(a, b)| holds(&a) && holds(&b)),
            virtual_set_matches: true,
        };
        // The target's nodes in ring order, so the missing edges come out
        // sorted.
        for &from in target.nodes() {
            let want = target.targets(&from).expect("every node has targets");
            let state = engine.state(from.owner);
            cmp.virtual_set_matches &= state.is_some();
            let held = state.and_then(|st| st.level(from.level));
            for to in want.distinct() {
                if !held.is_some_and(|vs| vs.nu.contains(&to)) {
                    cmp.missing_unmarked.push(Edge::unmarked(from, to));
                    cmp.missing_linear +=
                        usize::from(want.pred == Some(to) || want.succ == Some(to));
                    cmp.missing_real += usize::from(to.is_real());
                }
            }
        }
        for (owner, state) in engine.iter() {
            let wanted = target.targets_of(owner);
            // A peer outside the target should simulate its real node only.
            let levels = wanted.map_or(1, <[_]>::len);
            cmp.virtual_set_matches &= state.levels.keys().map(|&l| usize::from(l)).eq(0..levels);
            for (&level, vs) in &state.levels {
                let from = NodeRef { owner, level };
                let want = wanted.and_then(|w| w.get(usize::from(level)));
                // A self-reference is no edge (the `Overlay` drops it too).
                let extra = vs
                    .nu
                    .iter()
                    .filter(|&&to| to != from && !want.is_some_and(|w| w.contains(&to)));
                cmp.extra_unmarked.extend(extra.map(|&to| Edge::unmarked(from, to)));
            }
        }
        cmp.extra_unmarked.sort_unstable();
        cmp
    }

    /// Almost stable: no desired unmarked edge is missing.
    pub fn almost_stable(&self) -> bool {
        self.missing_unmarked.is_empty()
    }
}

/// Full audit of a (purportedly stable) state against the oracle.
#[derive(Clone, Debug)]
pub struct StableStateAudit {
    /// Desired unmarked edges that are missing (must be empty when stable).
    pub missing_unmarked: Vec<Edge>,
    /// Unmarked edges beyond the desired set (the paper's fixpoint carries
    /// none — extras live only in `E_r`/`E_c` streams).
    pub extra_unmarked: Vec<Edge>,
    /// Are both persistent extremal ring edges present?
    pub ring_pair_present: bool,
    /// Is the whole node graph weakly connected?
    pub weakly_connected: bool,
    /// Is the projected peer overlay strongly connected (every peer can
    /// route to every peer)?
    pub projection_strongly_connected: bool,
    /// Fact 2.1 audit: Chord edge coverage in the projection.
    pub chord: ChordCoverage,
    /// Do the peers simulate exactly the oracle's virtual nodes?
    pub virtual_set_matches: bool,
}

impl StableStateAudit {
    /// Audits the states of `engine`'s peers (typically a reached fixpoint)
    /// against `target`.
    pub fn new(target: &StableTopology, engine: &Engine<ReChordProtocol>) -> Self {
        let cmp = Comparison::new(target, engine);
        let overlay = Overlay::new(engine.iter());
        let projection = Projection::new(overlay.nodes(), overlay.edges());
        StableStateAudit {
            missing_unmarked: cmp.missing_unmarked,
            extra_unmarked: cmp.extra_unmarked,
            ring_pair_present: cmp.ring_pair_present,
            weakly_connected: overlay.components(&EdgeKind::ALL) <= 1,
            projection_strongly_connected: projection.strongly_connected(),
            chord: chord_coverage(&projection, target),
            virtual_set_matches: cmp.virtual_set_matches,
        }
    }

    /// The reproduction's acceptance predicate for a stable state: all
    /// desired structure present, no spurious unmarked edges, connectivity
    /// intact, and every non-wrap Chord edge realized (wrap edges are
    /// exempt: README, Interpretations "Wrap edges").
    pub fn is_clean(&self) -> bool {
        self.missing_unmarked.is_empty()
            && self.extra_unmarked.is_empty()
            && self.ring_pair_present
            && self.weakly_connected
            && self.projection_strongly_connected
            && self.chord.missing_linear.is_empty()
            && self.virtual_set_matches
    }
}

/// The stable topology `target` as peer states: every desired unmarked
/// edge, the stable `rl`/`rr` registers and, if `ring`, the ring pair.
#[cfg(test)]
pub(crate) fn stable_states(
    target: &StableTopology,
    ring: bool,
) -> Vec<(rechord_id::Ident, crate::state::PeerState)> {
    use crate::state::{PeerState, VirtualState};
    let mut states: Vec<_> = target
        .peers()
        .map(|(owner, wanted)| {
            let mut st = PeerState::new();
            for (level, want) in (0u8..).zip(wanted) {
                let vs = VirtualState {
                    nu: want.distinct().collect(),
                    rl: want.rl,
                    rr: want.rr,
                    ..VirtualState::default()
                };
                st.levels.insert(level, vs);
            }
            (owner, st)
        })
        .collect();
    if let Some((a, b)) = target.ring_pair().filter(|_| ring) {
        for e in [a, b] {
            let (_, st) = states.iter_mut().find(|(id, _)| *id == e.from.owner).expect("a peer");
            st.level_mut(e.from.level).expect("a stable level").nr.insert(e.to);
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReChordNetwork;
    use crate::state::{PeerState, VirtualState};
    use rechord_id::Ident;

    fn ids(xs: &[f64]) -> Vec<Ident> {
        xs.iter().map(|&x| Ident::from_f64(x)).collect()
    }

    /// The stable topology of `xs` and a network holding it as its state.
    fn oracle_net(xs: &[f64], ring: bool) -> (StableTopology, ReChordNetwork) {
        let target = StableTopology::new(&ids(xs));
        let net = ReChordNetwork::from_raw_states(stable_states(&target, ring), 1);
        (target, net)
    }

    fn extra() -> Edge {
        Edge::unmarked(NodeRef::real(Ident::from_f64(0.1)), NodeRef::real(Ident::from_f64(0.8)))
    }

    fn add(net: &mut ReChordNetwork, e: Edge) {
        let st = net.engine_mut().state_mut(e.from.owner).expect("a peer");
        st.level_mut(e.from.level).expect("a level").nu.insert(e.to);
    }

    #[test]
    fn oracle_topology_is_almost_stable_for_itself() {
        let (target, net) = oracle_net(&[0.1, 0.4, 0.8], false);
        assert!(Comparison::new(&target, net.engine()).almost_stable());
    }

    #[test]
    fn missing_edge_breaks_almost_stability() {
        let (target, mut net) = oracle_net(&[0.1, 0.4, 0.8], false);
        let victim = target.desired_unmarked().next().unwrap();
        let st = net.engine_mut().state_mut(victim.from.owner).unwrap();
        st.level_mut(victim.from.level).unwrap().nu.remove(&victim.to);
        let cmp = Comparison::new(&target, net.engine());
        assert!(!cmp.almost_stable());
        assert_eq!(cmp.missing_unmarked, vec![victim]);
    }

    #[test]
    fn extra_edges_do_not_break_almost_stability() {
        let (target, mut net) = oracle_net(&[0.1, 0.4, 0.8], false);
        add(&mut net, extra());
        assert!(Comparison::new(&target, net.engine()).almost_stable(), "supersets still qualify");
    }

    #[test]
    fn audit_flags_extras_and_missing() {
        let (_, mut net) = oracle_net(&[0.1, 0.4, 0.8], false);
        add(&mut net, extra());
        let report = net.audit();
        assert_eq!(report.extra_unmarked, vec![extra()]);
        assert!(report.missing_unmarked.is_empty());
        assert!(!report.ring_pair_present, "oracle-unmarked lacks ring edges");
        assert!(!report.is_clean());
    }

    #[test]
    fn audit_accepts_fully_desired_state() {
        let (_, net) = oracle_net(&[0.1, 0.6], true);
        let report = net.audit();
        assert!(report.missing_unmarked.is_empty());
        assert!(report.extra_unmarked.is_empty());
        assert!(report.ring_pair_present);
        assert!(report.weakly_connected);
        assert!(report.virtual_set_matches);
    }

    #[test]
    fn a_reference_to_a_virtual_node_does_not_simulate_it() {
        // Peers 0.0 and 0.3: the oracle wants 0.0 to simulate levels
        // {0, 1, 2} and 0.3 levels {0, 1}; 0.0 simulates only {0, 1}.
        let (a, b) = (Ident::from_f64(0.0), Ident::from_f64(0.3));
        let with_levels = |levels: &[u8]| {
            let mut st = PeerState::new();
            for &l in levels {
                st.levels.insert(l, VirtualState::default());
            }
            st
        };
        let short = with_levels(&[1]);
        let mut referrer = with_levels(&[1]);
        let net = ReChordNetwork::from_raw_states([(a, short.clone()), (b, referrer.clone())], 1);
        assert!(!net.audit().virtual_set_matches);
        // An edge to (0.0, level 2) names the missing node but does not
        // simulate it.
        referrer.level_mut(0).unwrap().nu.insert(NodeRef::virtual_node(a, 2));
        let net = ReChordNetwork::from_raw_states([(a, short), (b, referrer)], 1);
        assert!(!net.audit().virtual_set_matches, "a reference is not a simulation");
    }
}
