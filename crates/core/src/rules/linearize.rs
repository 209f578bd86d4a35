//! Rule 4 — *Linearization*: sort the unmarked neighborhood into a line.
//!
//! > For each `u_i`: sort all `w ∈ N_u(u_i), w < u_i` in descending order
//! > and create edges `(w_l, w_{l+1})` [forwarding — the edge's start moves
//! > to a node closer to its endpoint]. Sort all `w > u_i` ascending
//! > likewise. Create backward edges from the closest neighbors to `u_i`
//! > \[mirroring\]. Note: when the mirroring rule is executed, `u_i` has only
//! > its two closest (left and right) neighbors, by rule 3.
//!
//! Formal actions:
//!
//! * `lin-left(u_i)`: `w, v ∈ N_u(u_i) ∧ v, w < u_i ∧ v = max{y : y < w}`
//!   → `N_u(w) <- N_u(w) ∪ {v}; N_u(u_i) := N_u(u_i) \ {v}` — `u_i` keeps
//!   only its closest left neighbor, delegating each farther one to the next
//!   closer one.
//! * `lin-right` symmetric.
//! * `mirroring(u_i)`: `v ∈ N(u_i)` → `N_u(v) <- N_u(v) ∪ {u_i}`, then
//!   `N_u(u_i) := N_u(u_i) ∪ {rl(u_i)} ∪ {rr(u_i)}` — per the paper's note,
//!   the mirror targets are the closest left/right neighbors remaining after
//!   lin-left/lin-right, after which the closest-real edges are re-added so
//!   the stable neighborhood is `{closest-left, closest-right, rl, rr}`.

use super::{send_insert, RuleCtx};
use crate::state::PeerState;
use rechord_graph::EdgeKind;
use std::ops::Bound;

/// Applies rule 4 to every level.
pub fn apply(ctx: &mut RuleCtx<'_, '_>) {
    for (&lvl, vs) in ctx.state.levels.iter_mut() {
        let ui = PeerState::node_ref(ctx.me, lvl);
        let lefts = vs.nu.range(..ui).as_slice();
        let rights = vs.nu.range((Bound::Excluded(ui), Bound::Unbounded)).as_slice();

        // lin-left: descending left neighbors w_0 > w_1 > ...; each w_l is
        // told about w_{l+1}; u_i unlearns everything but w_0.
        for pair in lefts.windows(2) {
            send_insert(ctx.out, pair[1], EdgeKind::Unmarked, pair[0]);
        }
        // lin-right: ascending right neighbors, likewise.
        for pair in rights.windows(2) {
            send_insert(ctx.out, pair[0], EdgeKind::Unmarked, pair[1]);
        }
        let (closest_left, closest_right) = (lefts.last().copied(), rights.first().copied());
        vs.nu.retain(|&w| {
            if w < ui {
                Some(w) == closest_left
            } else {
                w == ui || Some(w) == closest_right
            }
        });

        // mirroring: the remaining closest neighbors learn about u_i...
        for &v in vs.nu.iter() {
            send_insert(ctx.out, v, EdgeKind::Unmarked, ui);
        }
        // ...and the closest-real edges are restored.
        for r in [vs.rl, vs.rr].into_iter().flatten() {
            if r != ui {
                vs.nu.insert(r);
            }
        }
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

    fn unmarked_msgs(msgs: &[Msg]) -> Vec<(NodeRef, NodeRef)> {
        msgs.iter().filter(|m| m.kind == EdgeKind::Unmarked).map(|m| (m.at, m.edge)).collect()
    }

    #[test]
    fn left_side_chains_descending() {
        let me = Ident::from_f64(0.9);
        let mut st = PeerState::new();
        // left neighbors 0.2 < 0.5 < 0.7 — u keeps 0.7; 0.7 learns 0.5;
        // 0.5 learns 0.2.
        for n in [real(0.2), real(0.5), real(0.7)] {
            st.level_mut(0).unwrap().nu.insert(n);
        }
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let sent = unmarked_msgs(&msgs);
        assert!(sent.contains(&(real(0.7), real(0.5))));
        assert!(sent.contains(&(real(0.5), real(0.2))));
        let nu = &st.level(0).unwrap().nu;
        assert!(nu.contains(&real(0.7)));
        assert!(!nu.contains(&real(0.5)) && !nu.contains(&real(0.2)));
    }

    #[test]
    fn right_side_chains_ascending() {
        let me = Ident::from_f64(0.1);
        let mut st = PeerState::new();
        for n in [real(0.3), real(0.6), real(0.8)] {
            st.level_mut(0).unwrap().nu.insert(n);
        }
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let sent = unmarked_msgs(&msgs);
        assert!(sent.contains(&(real(0.3), real(0.6))));
        assert!(sent.contains(&(real(0.6), real(0.8))));
        assert!(st.level(0).unwrap().nu.contains(&real(0.3)));
        assert_eq!(st.level(0).unwrap().nu.len(), 1);
    }

    #[test]
    fn mirroring_targets_closest_survivors_only() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        for n in [real(0.2), real(0.4), real(0.7), real(0.9)] {
            st.level_mut(0).unwrap().nu.insert(n);
        }
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let ui = NodeRef::real(me);
        let mirrors: Vec<NodeRef> = msgs.iter().filter(|m| m.edge == ui).map(|m| m.at).collect();
        assert!(mirrors.contains(&real(0.4)), "closest left is mirrored");
        assert!(mirrors.contains(&real(0.7)), "closest right is mirrored");
        assert!(!mirrors.contains(&real(0.2)) && !mirrors.contains(&real(0.9)));
    }

    #[test]
    fn closest_real_edges_restored_after_stripping() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        // rl register points to a *farther* left real (0.1); a virtual
        // neighbor 0.4 is closer. lin-left would strip 0.1; mirroring
        // restores it because it is the rl register.
        let rl = real(0.1);
        let closer = NodeRef::virtual_node(Ident::from_f64(0.15), 2); // pos 0.4
        st.level_mut(0).unwrap().nu.insert(rl);
        st.level_mut(0).unwrap().nu.insert(closer);
        st.level_mut(0).unwrap().rl = Some(rl);
        run_rule(me, &mut st, &[], super::apply);
        let nu = &st.level(0).unwrap().nu;
        assert!(nu.contains(&closer), "closest left kept");
        assert!(nu.contains(&rl), "rl restored by mirroring step");
    }

    #[test]
    fn stable_neighborhood_is_a_fixpoint_shape() {
        // With nu = {cl, cr, rl, rr} where rl < cl < u < cr < rr and
        // registers set, the round's net effect leaves nu unchanged.
        let me = Ident::from_f64(0.5);
        let (rl, cl, cr, rr) = (real(0.2), real(0.4), real(0.6), real(0.8));
        let mut st = PeerState::new();
        let vs = st.level_mut(0).unwrap();
        for n in [rl, cl, cr, rr] {
            vs.nu.insert(n);
        }
        vs.rl = Some(rl);
        vs.rr = Some(rr);
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let nu = &st.level(0).unwrap().nu;
        assert_eq!(nu.len(), 4, "cl, cr, rl, rr survive the round");
        assert!(nu.contains(&rl) && nu.contains(&cl) && nu.contains(&cr) && nu.contains(&rr));
        // the forwarded edges are exactly (cl -> rl) and (cr -> rr): both
        // already exist in the stable state at their targets.
        let sent = unmarked_msgs(&msgs);
        assert!(sent.contains(&(cl, rl)));
        assert!(sent.contains(&(cr, rr)));
    }

    #[test]
    fn single_neighbor_side_is_untouched() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nu.insert(real(0.4));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(st.level(0).unwrap().nu.contains(&real(0.4)));
        // only the mirror message is emitted
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].at, real(0.4));
        assert_eq!(msgs[0].edge, NodeRef::real(me));
    }
}
