//! Glue: the Re-Chord rules as a [`SyncProtocol`] for the round engine.

use crate::adversary::{AdversaryMap, Crime, CrimeSet};
use crate::msg::Msg;
use crate::rules::{self, RuleCtx};
use crate::state::PeerState;
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::Ident;
use rechord_sim::{Outbox, RoundView, SyncProtocol};
use std::sync::Arc;

/// The Re-Chord protocol: per round, each peer sanitizes its state,
/// recomputes `m` and its neighborhoods (paper: "Before a node applies the
/// set of rules, it updates its variables"), then fires rules 1–6 in paper
/// order for all of its simulated nodes.
///
/// The `adversary` map is the one place a run departs from honest peers
/// running all six rules ([`crate::adversary`]): a peer may suppress
/// individual rules on its own state ([`Crime::ViolateRule`]; every peer
/// doing so is [`crate::ablation`]'s experiment) or rewrite its outgoing
/// edge payloads to claim itself as everyone's neighbor
/// ([`Crime::LieAboutSuccessor`]). With the empty map (the default) — or
/// any map in which every peer is honest — the step function is the
/// honest protocol.
#[derive(Clone, Debug, Default)]
pub struct ReChordProtocol {
    /// Per-peer crime sets (default: empty — all peers honest).
    pub adversary: Arc<AdversaryMap>,
}

impl ReChordProtocol {
    /// The full (paper) protocol.
    pub fn full() -> Self {
        Self::default()
    }
}

/// Realizes the paper's *graph-deletion semantics* in message passing: in
/// the paper, deleting a node removes its incident edges from the global
/// graph `G`, but a peer that holds an edge to a since-deleted virtual node
/// cannot know this without checking. Each round, every reference is
/// validated against the previous-round snapshot: references to vanished
/// peers are dropped (their "connections fail", §4.2), and references to a
/// live peer's deleted virtual level are redirected to that peer's deepest
/// level — the same hand-over target rule 1 uses for the deleted node's own
/// neighborhood. Without this, stale refs to deleted virtuals freeze into
/// fixpoints that are not the Re-Chord topology.
fn validate_references(me: Ident, state: &mut PeerState, view: &RoundView<'_, PeerState>) {
    // Own levels as of the round start: a reference to one of the peer's
    // *own* deleted virtual nodes is just as much a phantom as a foreign
    // one (it arises when another node mirrors an edge back after the level
    // was deleted) and is redirected to the deepest live level likewise.
    // `sanitize` has dropped every reference above `MAX_LEVEL`, so the
    // levels queried all fit the mask.
    let own_levels = state.levels.keys().fold(0u128, |mask, &lvl| mask | level_bit(lvl));
    let own_deepest = state.deepest_level();
    let is_stale = |r: &NodeRef| {
        if r.owner == me {
            own_levels & level_bit(r.level) == 0
        } else {
            view.get(r.owner).is_none_or(|peer| !peer.levels.contains_key(&r.level))
        }
    };
    let remap = |r: &NodeRef| -> Option<NodeRef> {
        if r.owner == me {
            return Some(PeerState::node_ref(me, own_deepest));
        }
        let peer = view.get(r.owner)?; // dead peer → drop the reference
        if peer.levels.contains_key(&r.level) {
            Some(*r)
        } else {
            Some(PeerState::node_ref(r.owner, peer.deepest_level()))
        }
    };
    for (&lvl, vs) in state.levels.iter_mut() {
        let my_ref = PeerState::node_ref(me, lvl);
        for kind in EdgeKind::ALL {
            let set = vs.of_mut(kind);
            if !set.iter().any(is_stale) {
                continue;
            }
            let stale: Vec<NodeRef> = set.iter().copied().filter(is_stale).collect();
            set.retain(|r| !stale.contains(r));
            for r in stale {
                if let Some(fixed) = remap(&r) {
                    if fixed != my_ref {
                        set.insert(fixed);
                    }
                }
            }
        }
        // rl/rr point at level-0 nodes; only peer death can invalidate them.
        if vs.rl.is_some_and(|r| r.owner != me && view.get(r.owner).is_none()) {
            vs.rl = None;
        }
        if vs.rr.is_some_and(|r| r.owner != me && view.get(r.owner).is_none()) {
            vs.rr = None;
        }
    }
}

/// `level`'s bit in a `u128` level mask (none for levels past the mask).
fn level_bit(level: u8) -> u128 {
    1u128.checked_shl(u32::from(level)).unwrap_or(0)
}

impl ReChordProtocol {
    /// The shared rule pipeline. `crimes` suppresses individual rules on
    /// this peer only ([`Crime::ViolateRule`]); the empty set is the honest
    /// path and computes exactly what the pre-adversary protocol did.
    fn run_rules(
        &self,
        me: Ident,
        state: &mut PeerState,
        view: &RoundView<'_, PeerState>,
        out: &mut Outbox<Msg>,
        crimes: CrimeSet,
    ) {
        state.sanitize(me);
        validate_references(me, state, view);
        let m = state.compute_m(me);
        let mut ctx = RuleCtx { me, state, view, out };
        if !crimes.contains(Crime::ViolateRule(1)) {
            rules::virtual_nodes::apply(&mut ctx, m); // rule 1
        }
        if !crimes.contains(Crime::ViolateRule(2)) {
            rules::overlap::apply(&mut ctx); //      rule 2
        }
        if !crimes.contains(Crime::ViolateRule(3)) {
            rules::closest_real::apply(&mut ctx); // rule 3
        }
        if !crimes.contains(Crime::ViolateRule(4)) {
            rules::linearize::apply(&mut ctx); //    rule 4
        }
        if !crimes.contains(Crime::ViolateRule(5)) {
            rules::ring::apply(&mut ctx); //         rule 5
        }
        if !crimes.contains(Crime::ViolateRule(6)) {
            rules::connection::apply(&mut ctx); //   rule 6
        }
    }
}

impl SyncProtocol for ReChordProtocol {
    type State = PeerState;
    type Msg = Msg;

    fn step(
        &self,
        me: Ident,
        state: &mut PeerState,
        view: &RoundView<'_, PeerState>,
        out: &mut Outbox<Msg>,
    ) {
        let crimes = self.adversary.crimes_of(me);
        if crimes.contains(Crime::LieAboutSuccessor) {
            // Run the rules into a scratch outbox, then rewrite every
            // outgoing introduction: whatever neighbor the rules meant to
            // hand out, the liar claims *itself* instead. Messages to its
            // own siblings stay truthful (lying to yourself gains nothing);
            // a receiver that IS the claimed node discards the self-edge on
            // apply, so the lie spreads `real(liar)` everywhere else.
            let mut scratch = Outbox::new();
            self.run_rules(me, state, view, &mut scratch, crimes);
            let lie = NodeRef::real(me);
            for (to, mut msg) in scratch.into_inner() {
                if to != me {
                    msg.edge = lie;
                }
                out.send(to, msg);
            }
        } else {
            self.run_rules(me, state, view, out, crimes);
        }
    }

    fn deliver(&self, me: Ident, state: &mut PeerState, msg: &Msg) {
        msg.apply(me, state);
    }

    /// The rules read three things of another peer: that it exists, which
    /// levels it simulates (`validate_references`) and each level's
    /// `rl`/`rr` (rule 3's guards through `rules::observed`). Its edge sets
    /// are private to it.
    fn observably_equal(&self, a: &PeerState, b: &PeerState) -> bool {
        a.levels.len() == b.levels.len()
            && a.levels
                .iter()
                .zip(&b.levels)
                .all(|((la, va), (lb, vb))| la == lb && va.rl == vb.rl && va.rr == vb.rr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_graph::NodeRef;
    use rechord_sim::Engine;

    #[test]
    fn two_peers_stabilize_into_mutual_knowledge() {
        let a = Ident::from_f64(0.2);
        let b = Ident::from_f64(0.7);
        let mut engine = Engine::new(ReChordProtocol::full());
        engine.insert_node(a, PeerState::with_contacts([NodeRef::real(b)]));
        engine.insert_node(b, PeerState::new());
        let report = engine.run_until_fixpoint(500);
        assert!(report.converged, "two-peer network must stabilize");
        // both peers must know each other as closest real neighbors at level 0
        let sa = engine.state(a).unwrap().level(0).unwrap();
        let sb = engine.state(b).unwrap().level(0).unwrap();
        assert_eq!(sa.rr, Some(NodeRef::real(b)));
        assert_eq!(sb.rl, Some(NodeRef::real(a)));
        assert!(sa.nu.contains(&NodeRef::real(b)));
        assert!(sb.nu.contains(&NodeRef::real(a)));
    }

    #[test]
    fn lone_peer_reaches_a_quiet_fixpoint() {
        let a = Ident::from_f64(0.42);
        let mut engine = Engine::new(ReChordProtocol::full());
        engine.insert_node(a, PeerState::new());
        let report = engine.run_until_fixpoint(100);
        assert!(report.converged, "a singleton must quiesce");
        // it simulates u_1 (m = 1 for a peer that knows no other real node)
        assert!(engine.state(a).unwrap().level(1).is_some());
    }

    #[test]
    fn virtual_levels_track_the_gap() {
        let a = Ident::from_f64(0.0);
        let b = Ident::from_f64(0.26); // gap 0.26: 1/4 <= gap < 1/2 → m = 2
        let mut engine = Engine::new(ReChordProtocol::full());
        engine.insert_node(a, PeerState::with_contacts([NodeRef::real(b)]));
        engine.insert_node(b, PeerState::with_contacts([NodeRef::real(a)]));
        engine.run_until_fixpoint(500);
        let sa = engine.state(a).unwrap();
        assert_eq!(sa.deepest_level(), 2, "m must match the finger condition");
    }
}
