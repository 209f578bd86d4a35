//! Rule 2 — *Overlapping Neighborhood*: a peer re-homes an unmarked edge to
//! the sibling closest to its target.
//!
//! > For each `u_i` check the neighborhood `N_u(u_i)`. If there is a
//! > `w ∈ N_u(u_i)` and a `u_j ∈ S(u_i)` such that `w < u_j < u_i` or
//! > `w > u_j > u_i`, then replace `(u_i, w)` by `(u_j, w)`. This is done
//! > because `u_j` is closer to `w` and `u_i` is aware of this fact as
//! > `u_i` and `u_j` belong to the same real node (Fig. 2).
//!
//! Both the removal and the insertion are immediate (`:=`): siblings live on
//! the same peer. We re-home to the qualifying sibling *closest to `w`*,
//! which is the fixpoint any sequence of single-sibling moves would reach
//! within the round (the paper fires the action "for all combinations of
//! parameters").

use super::RuleCtx;
use rechord_graph::NodeRef;

/// Applies rule 2 to every level.
pub fn apply(ctx: &mut RuleCtx<'_, '_>) {
    let siblings = ctx.state.siblings(ctx.me);
    for lvl in ctx.levels() {
        let ui = ctx.node(lvl);
        let Some(vs) = ctx.state.level(lvl) else { continue };
        let move_of = |&w: &NodeRef| best_sibling_between(&siblings, w, ui).map(|uj| (w, uj));
        if !vs.nu.iter().any(|w| move_of(w).is_some()) {
            continue;
        }
        let moves: Vec<(NodeRef, NodeRef)> = vs.nu.iter().filter_map(move_of).collect();
        for (w, uj) in moves {
            if let Some(vs) = ctx.state.level_mut(lvl) {
                vs.nu.remove(&w);
            }
            if w != uj {
                if let Some(vsj) = ctx.state.level_mut(uj.level) {
                    vsj.nu.insert(w);
                }
            }
        }
    }
}

/// The sibling strictly between `w` and `ui` that is closest to `w`, if any
/// (`siblings` ascends by position).
fn best_sibling_between(siblings: &[NodeRef], w: NodeRef, ui: NodeRef) -> Option<NodeRef> {
    if w < ui {
        // w < u_j < u_i: the minimal such sibling is closest to w.
        let above_w = siblings.partition_point(|&s| s <= w);
        siblings.get(above_w).copied().filter(|&s| s < ui)
    } else if w > ui {
        // w > u_j > u_i: the maximal such sibling is closest to w.
        let below_w = siblings.partition_point(|&s| s < w);
        below_w.checked_sub(1).map(|i| siblings[i]).filter(|&s| s > ui)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testkit::run_rule;
    use crate::state::PeerState;
    use rechord_graph::NodeRef;
    use rechord_id::Ident;

    /// Owner at 0.6 has u_1 = 0.1, u_2 = 0.85; sorted siblings: u_1, u_0, u_2.
    fn peer_with_levels(_me: Ident, levels: &[u8]) -> PeerState {
        let mut st = PeerState::new();
        for &l in levels {
            st.levels.entry(l).or_default();
        }
        st
    }

    #[test]
    fn edge_rehomed_to_closest_sibling_below() {
        let me = Ident::from_f64(0.6);
        let mut st = peer_with_levels(me, &[1, 2]);
        // w at 0.7: for u_2 (0.85), sibling u_0 (0.6)?? w>u_j>u_i fails;
        // use the paper's Fig 2 shape instead: w < u_j < u_i.
        // w = 0.05 is a left neighbor of u_0 (0.6); sibling u_1 (0.1) lies
        // between: 0.05 < 0.1 < 0.6, so the edge moves to u_1.
        let w = NodeRef::real(Ident::from_f64(0.05));
        st.level_mut(0).unwrap().nu.insert(w);
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(msgs.is_empty(), "rule 2 is local to the peer");
        assert!(!st.level(0).unwrap().nu.contains(&w));
        assert!(st.level(1).unwrap().nu.contains(&w));
    }

    #[test]
    fn edge_rehomed_to_closest_sibling_above() {
        let me = Ident::from_f64(0.6);
        let mut st = peer_with_levels(me, &[1, 2]);
        // w = 0.95 right of u_0 (0.6); sibling u_2 (0.85) lies between:
        // 0.95 > 0.85 > 0.6.
        let w = NodeRef::real(Ident::from_f64(0.95));
        st.level_mut(0).unwrap().nu.insert(w);
        run_rule(me, &mut st, &[], super::apply);
        assert!(!st.level(0).unwrap().nu.contains(&w));
        assert!(st.level(2).unwrap().nu.contains(&w));
    }

    #[test]
    fn closest_of_several_siblings_wins() {
        // owner at 0.9: u_1=0.4, u_2=0.15, u_3=0.025 (wrapping). For u_0
        // (0.9) and w=0.3 the only sibling in (0.3, 0.9) is u_1 at 0.4, the
        // qualifying sibling closest to w; deeper levels sit below w.
        let me = Ident::from_f64(0.9);
        let mut st = peer_with_levels(me, &[1, 2, 3]);
        let w = NodeRef::real(Ident::from_f64(0.3));
        st.level_mut(0).unwrap().nu.insert(w);
        run_rule(me, &mut st, &[], super::apply);
        assert!(st.level(1).unwrap().nu.contains(&w));
        assert!(!st.level(2).unwrap().nu.contains(&w));
        assert!(!st.level(3).unwrap().nu.contains(&w));
    }

    #[test]
    fn no_move_when_no_sibling_between() {
        let me = Ident::from_f64(0.6);
        let mut st = peer_with_levels(me, &[1]); // u_1 = 0.1
                                                 // w = 0.3: sibling set between 0.3 and 0.6 is empty (u_1=0.1 < w).
        let w = NodeRef::real(Ident::from_f64(0.3));
        st.level_mut(0).unwrap().nu.insert(w);
        let before = st.clone();
        run_rule(me, &mut st, &[], super::apply);
        assert_eq!(st, before);
    }

    #[test]
    fn already_closest_level_keeps_edge() {
        let me = Ident::from_f64(0.6);
        let mut st = peer_with_levels(me, &[1, 2]);
        // edge held by u_1 (0.1) to w = 0.05: no sibling in (0.05, 0.1).
        let w = NodeRef::real(Ident::from_f64(0.05));
        st.level_mut(1).unwrap().nu.insert(w);
        let before = st.clone();
        run_rule(me, &mut st, &[], super::apply);
        assert_eq!(st, before);
    }

    #[test]
    fn ring_and_connection_edges_untouched() {
        let me = Ident::from_f64(0.6);
        let mut st = peer_with_levels(me, &[1]);
        let w = NodeRef::real(Ident::from_f64(0.05));
        st.level_mut(0).unwrap().nr.insert(w);
        st.level_mut(0).unwrap().nc.insert(w);
        let before = st.clone();
        run_rule(me, &mut st, &[], super::apply);
        assert_eq!(st, before, "rule 2 only reads N_u");
    }
}
