//! Rule 6 — *Connection Edges*: keep contiguous virtual siblings connected.
//!
//! Rule 1 can delete or recreate virtual nodes, so the graph over virtual
//! nodes is not automatically weakly connected even when the peers are. Each
//! pair of contiguous siblings therefore launches a *connection edge* every
//! round, which hops greedily rightward (toward its target) through the
//! launching peer's knowledge; a holder that is itself the last known node
//! below the target dissolves the edge into a backward unmarked edge:
//!
//! * `connect-virtual-nodes(u)`: `u_i, u_j ∈ S(u) ∧ u_j = min{u_l > u_i}`
//!   → `N_c(u_i) := N_c(u_i) ∪ {u_j}`
//! * `forward-cedges-1(u_i)`: `v ∈ N_c(u_i) ∧
//!   w = max{x ∈ N_u(u_i) ∪ S(u_i) : x < v} ∧ w ≠ u_i`
//!   → `N_c(w) <- N_c(w) ∪ {v}; N_c(u_i) := N_c(u_i) \ {v}`
//! * `forward-cedges-2(u_i)`: `... ∧ w = u_i`
//!   → `N_u(v) <- N_u(v) ∪ {u_i}; N_c(u_i) := N_c(u_i) \ {v}`
//!
//! The steady state is a constant in-flight stream of connection edges along
//! each sibling gap — `Θ(log n)` per virtual node in expectation (paper
//! §2.2), which is what Figure 5 counts as "connection edges".

use super::{max_below, send_insert, RuleCtx};
use crate::state::{PeerState, RefSet};
use rechord_graph::EdgeKind;

/// Applies rule 6: sibling linking, then forwarding, per level.
pub fn apply(ctx: &mut RuleCtx<'_, '_>) {
    // connect-virtual-nodes: contiguous siblings by ring position.
    let siblings: RefSet = ctx.state.siblings(ctx.me).into_iter().collect();
    for pair in siblings.as_slice().windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if let Some(vs) = ctx.state.level_mut(a.level) {
            vs.nc.insert(b);
        }
    }

    // forward-cedges-{1,2}: every held edge leaves `N_c(u_i)` this round,
    // by one action or the other.
    for (&lvl, vs) in ctx.state.levels.iter_mut() {
        let ui = PeerState::node_ref(ctx.me, lvl);
        for &v in vs.nc.iter().filter(|&&v| v != ui) {
            // w = max{x ∈ N_u(u_i) ∪ S(u_i) : x < v}
            match [max_below(&vs.nu, v), max_below(&siblings, v)].into_iter().flatten().max() {
                // hop the edge to the known node closest below v
                Some(w) if w != ui => send_insert(ctx.out, w, EdgeKind::Connection, v),
                // u_i is the last known node below v: backward unmarked
                // edge from v to u_i closes the gap. When v lies below
                // everything we know (possible only in corrupted initial
                // states), the same dissolution keeps the pair weakly
                // connected.
                _ => send_insert(ctx.out, v, EdgeKind::Unmarked, ui),
            }
        }
        vs.nc.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::msg::Msg;
    use crate::rules::testkit::run_rule;
    use crate::state::PeerState;
    use rechord_graph::{EdgeKind, NodeRef};
    use rechord_id::Ident;

    fn real(x: f64) -> NodeRef {
        NodeRef::real(Ident::from_f64(x))
    }

    #[test]
    fn contiguous_siblings_get_linked_each_round() {
        // owner 0.6: siblings by position u_1(0.1) < u_0(0.6) < u_2(0.85).
        let me = Ident::from_f64(0.6);
        let mut st = PeerState::new();
        st.levels.entry(1).or_default();
        st.levels.entry(2).or_default();
        run_rule(me, &mut st, &[], super::apply);
        // (u_1 → u_0) and (u_0 → u_2) are created; with empty knowledge the
        // forwarding immediately dissolves them into backward unmarked sends,
        // removing them from nc again — so check the messages instead.
        let mut st2 = PeerState::new();
        st2.levels.entry(1).or_default();
        st2.levels.entry(2).or_default();
        let msgs = run_rule(me, &mut st2, &[], super::apply);
        let backward: Vec<(NodeRef, NodeRef)> =
            msgs.iter().filter(|m| m.kind == EdgeKind::Unmarked).map(|m| (m.at, m.edge)).collect();
        let u0 = PeerState::node_ref(me, 0);
        let u1 = PeerState::node_ref(me, 1);
        let u2 = PeerState::node_ref(me, 2);
        assert!(backward.contains(&(u0, u1)), "u_0 told to point back at u_1");
        assert!(backward.contains(&(u2, u0)), "u_2 told to point back at u_0");
    }

    #[test]
    fn forwarding_hops_to_max_known_below_target() {
        // u_0 (0.1) holds a connection edge to v = 0.9 and knows w = 0.5:
        // the edge hops to w.
        let me = Ident::from_f64(0.1);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nc.insert(real(0.9));
        st.level_mut(0).unwrap().nu.insert(real(0.5));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let hops: Vec<(NodeRef, NodeRef)> = msgs
            .iter()
            .filter(|m| m.kind == EdgeKind::Connection)
            .map(|m| (m.at, m.edge))
            .collect();
        assert!(hops.contains(&(real(0.5), real(0.9))));
        assert!(st.level(0).unwrap().nc.iter().all(|&t| t != real(0.9)), "edge moved on");
    }

    #[test]
    fn last_node_below_target_dissolves_to_backward_edge() {
        // u_0 (0.5) holds a connection edge to v = 0.9 and knows only nodes
        // ≤ itself: u_0 is the max below v → v is told to point back.
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nc.insert(real(0.9));
        st.level_mut(0).unwrap().nu.insert(real(0.2));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let m: Vec<&Msg> = msgs.iter().filter(|m| m.kind == EdgeKind::Unmarked).collect();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].at, real(0.9));
        assert_eq!(m[0].edge, NodeRef::real(me));
        assert!(st.level(0).unwrap().nc.is_empty());
    }

    #[test]
    fn forwarding_pool_is_level_local_plus_siblings() {
        // Knowledge of *other* levels must not be used by forwarding:
        // u_0 (0.1) holds c-edge to 0.9; u_1 (0.6) knows 0.7, but the pool
        // for u_0 is N_u(u_0) ∪ S = {0.6 sibling}; max below 0.9 is u_1.
        let me = Ident::from_f64(0.1);
        let mut st = PeerState::new();
        st.levels.entry(1).or_default(); // u_1 at 0.6
        st.level_mut(1).unwrap().nu.insert(real(0.7));
        st.level_mut(0).unwrap().nc.insert(real(0.9));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let hops: Vec<(NodeRef, NodeRef)> = msgs
            .iter()
            .filter(|m| m.kind == EdgeKind::Connection)
            .map(|m| (m.at, m.edge))
            .collect();
        let u1 = PeerState::node_ref(me, 1);
        assert!(hops.contains(&(u1, real(0.9))), "hop to sibling, not to u_1's neighbor");
    }

    #[test]
    fn self_targeted_connection_edge_removed() {
        let me = Ident::from_f64(0.4);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nc.insert(NodeRef::real(me));
        run_rule(me, &mut st, &[], super::apply);
        assert!(st.level(0).unwrap().nc.is_empty());
    }

    #[test]
    fn single_level_peer_creates_no_connection_edges() {
        let me = Ident::from_f64(0.4);
        let mut st = PeerState::new();
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(msgs.is_empty());
        assert!(st.level(0).unwrap().nc.is_empty());
    }
}
