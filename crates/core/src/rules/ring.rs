//! Rule 5 — *Ring Edge*: close the `[0,1)` wrap-around.
//!
//! Linearization alone produces a sorted *list*; the extremal nodes miss a
//! neighbor. A node missing its left (resp. right) neighbor asks the
//! largest (resp. smallest) node its peer knows to hold a marked ring edge
//! pointing back at it. Holders forward such edges greedily toward the true
//! extremum, or dissolve them into an unmarked edge once they know a node
//! beyond the requester (which proves the requester is not extremal):
//!
//! * `create-ring-edge-left(u_i)`:
//!   `v = max{x ∈ N(u)} ∧ ∄w ∈ N_u(u_i) : w < u_i` → `N_r(v) <- {u_i} ∪ N_r(v)`
//! * `forward-ring-edge-l1(u_i)`: `w ∈ N_r(u_i) ∧ w > u_i ∧
//!   v = min{x ∈ N(u_i)} ∧ v ≠ u_i ∧ ∄x ∈ N(u_i) ∪ N_r(u_i) : x > w`
//!   → `N_r(v) <- {w} ∪ N_r(v); N_r(u_i) := N_r(u_i) \ {w}`
//! * `forward-ring-edge-l2(u_i)`: `w ∈ N_r(u_i) ∧ w > u_i ∧
//!   ∃x ∈ N(u_i) ∪ N_r(u_i) : x > w`
//!   → `N_u(x) <- {w} ∪ N_u(x); N_r(u_i) := N_r(u_i) \ {w}`
//! * `r1`/`r2` symmetric for `w < u_i`.
//!
//! In the stable state the global minimum holds a persistent ring edge to
//! the global maximum and vice versa (they cannot forward: no better
//! candidate exists), while the per-round re-creations flow as a constant
//! in-transit stream along the greedy path — the state is a fixpoint even
//! though edges keep being recreated, because the stream pattern repeats
//! identically each round (README, Interpretations A7).
//!
//! `N(u)` in the create guard is the peer-wide knowledge (README,
//! Interpretations A5); when `l2`/`r2` can choose among several witnesses
//! `x`, we take the one closest to `w` (deterministic, and it minimizes the
//! new edge's range, matching the Phase-5 "unnecessary edges shrink"
//! argument).

use super::{max_below, min_above, send_insert, RuleCtx};
use crate::state::PeerState;
use rechord_graph::{EdgeKind, NodeRef};

/// Applies rule 5 to every level.
pub fn apply(ctx: &mut RuleCtx<'_, '_>) {
    let known = ctx.state.known(ctx.me);
    let global_min = known.first().copied();
    let global_max = known.last().copied();

    for (&lvl, vs) in ctx.state.levels.iter_mut() {
        let ui = PeerState::node_ref(ctx.me, lvl);

        // create-ring-edge-left: no unmarked left neighbor.
        if vs.nu.first().is_none_or(|&w| w >= ui) {
            if let Some(v) = global_max.filter(|&v| v != ui) {
                send_insert(ctx.out, v, EdgeKind::Ring, ui);
            }
        }
        // create-ring-edge-right: no unmarked right neighbor.
        if vs.nu.last().is_none_or(|&w| w <= ui) {
            if let Some(v) = global_min.filter(|&v| v != ui) {
                send_insert(ctx.out, v, EdgeKind::Ring, ui);
            }
        }

        // forward-ring-edge-{l1,l2,r1,r2}, over the held edges in ascending
        // order. The witness pool is `N(u) ∪ N_r(u_i)` with the edges
        // already passed on this round gone from `N_r(u_i)`, so it is
        // queried on the live set.
        let mut next = 0;
        while let Some(&w) = vs.nr.as_slice().get(next) {
            if w == ui {
                // degenerate self-target from an arbitrary initial state
                vs.nr.remove(&w);
                continue;
            }
            let disposition = if w > ui {
                // the requester believes it is the minimum
                let witness =
                    [min_above(&known, w), min_above(&vs.nr, w)].into_iter().flatten().min();
                if let Some(x) = witness {
                    Disposition::Dissolve(x)
                } else if let Some(v) = global_min.filter(|&v| v != ui && v < ui) {
                    Disposition::Forward(v)
                } else {
                    Disposition::Hold
                }
            } else {
                // w < ui: the requester believes it is the maximum
                let witness =
                    [max_below(&known, w), max_below(&vs.nr, w)].into_iter().flatten().max();
                if let Some(x) = witness {
                    Disposition::Dissolve(x)
                } else if let Some(v) = global_max.filter(|&v| v != ui && v > ui) {
                    Disposition::Forward(v)
                } else {
                    Disposition::Hold
                }
            };

            match disposition {
                Disposition::Dissolve(x) => send_insert(ctx.out, x, EdgeKind::Unmarked, w),
                Disposition::Forward(v) => send_insert(ctx.out, v, EdgeKind::Ring, w),
                Disposition::Hold => {
                    next += 1;
                    continue;
                }
            }
            vs.nr.remove(&w);
        }
    }
}

enum Disposition {
    /// A witness beyond `w` exists: convert to an unmarked edge `(x, w)`.
    Dissolve(NodeRef),
    /// Pass the ring edge to a better extremal candidate `v`.
    Forward(NodeRef),
    /// This node is the best candidate it knows: keep holding.
    Hold,
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

    fn ring_msgs(msgs: &[Msg]) -> Vec<(NodeRef, NodeRef)> {
        msgs.iter().filter(|m| m.kind == EdgeKind::Ring).map(|m| (m.at, m.edge)).collect()
    }

    #[test]
    fn missing_left_neighbor_requests_edge_from_max_known() {
        let me = Ident::from_f64(0.1);
        let mut st = PeerState::new();
        // only right neighbors known: u believes it may be the minimum
        st.level_mut(0).unwrap().nu.insert(real(0.4));
        st.level_mut(0).unwrap().nu.insert(real(0.8));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(
            ring_msgs(&msgs).contains(&(real(0.8), NodeRef::real(me))),
            "largest known node is asked to hold a ring edge to u"
        );
    }

    #[test]
    fn missing_right_neighbor_requests_edge_from_min_known() {
        let me = Ident::from_f64(0.9);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nu.insert(real(0.2));
        st.level_mut(0).unwrap().nu.insert(real(0.5));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(ring_msgs(&msgs).contains(&(real(0.2), NodeRef::real(me))));
    }

    #[test]
    fn dissolves_when_witness_beyond_target_exists() {
        // u holds a ring edge to w = 0.7 (w thinks it's the max) but u knows
        // x = 0.9 > w: the ring edge becomes the unmarked edge (x, w).
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nr.insert(real(0.7));
        st.level_mut(0).unwrap().nu.insert(real(0.9));
        st.level_mut(0).unwrap().nu.insert(real(0.4)); // keep left side closed
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let unmarked: Vec<(NodeRef, NodeRef)> =
            msgs.iter().filter(|m| m.kind == EdgeKind::Unmarked).map(|m| (m.at, m.edge)).collect();
        assert!(unmarked.contains(&(real(0.9), real(0.7))));
        assert!(st.level(0).unwrap().nr.is_empty(), "ring edge removed");
    }

    #[test]
    fn forwards_toward_better_extremal_candidate() {
        // u (0.5) holds a ring edge to w = 0.9 (w > u: w thinks it is the
        // max and wants the minimum). u knows nothing above w but knows a
        // smaller node v = 0.2: forward the ring edge to v.
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nr.insert(real(0.9));
        st.level_mut(0).unwrap().nu.insert(real(0.2));
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(ring_msgs(&msgs).contains(&(real(0.2), real(0.9))));
        assert!(st.level(0).unwrap().nr.is_empty());
    }

    #[test]
    fn extremal_holder_keeps_the_edge() {
        // u = 0.1 holds ring edge to w = 0.9; u knows nobody smaller than
        // itself and nobody above w: u is the best minimum candidate → hold.
        let me = Ident::from_f64(0.1);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nr.insert(real(0.9));
        st.level_mut(0).unwrap().nu.insert(real(0.9)); // knows w as neighbor too
        run_rule(me, &mut st, &[], super::apply);
        assert!(st.level(0).unwrap().nr.contains(&real(0.9)), "held");
    }

    #[test]
    fn self_targeted_ring_edge_is_garbage_collected() {
        let me = Ident::from_f64(0.3);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nr.insert(NodeRef::real(me));
        run_rule(me, &mut st, &[], super::apply);
        assert!(st.level(0).unwrap().nr.is_empty());
    }

    #[test]
    fn lone_peer_creates_no_ring_edges() {
        // A peer that knows nobody: max known = min known = itself.
        let me = Ident::from_f64(0.3);
        let mut st = PeerState::new();
        let msgs = run_rule(me, &mut st, &[], super::apply);
        assert!(ring_msgs(&msgs).is_empty());
    }

    #[test]
    fn stable_two_extremes_hold_each_other() {
        // min holds →max, max holds →min; neither can improve: fixpoint.
        let min_id = Ident::from_f64(0.1);
        let max_id = Ident::from_f64(0.9);
        let mut min_st = PeerState::new();
        min_st.level_mut(0).unwrap().nu.insert(real(0.9)); // right neighbor
        min_st.level_mut(0).unwrap().nr.insert(real(0.9)); // ring edge to max
        let before = min_st.clone();
        let msgs = run_rule(min_id, &mut min_st, &[(max_id, PeerState::new())], super::apply);
        // the held ring edge must survive; the (re)creation toward the max
        // known node is idempotent with the existing state
        assert_eq!(min_st.level(0).unwrap().nr, before.level(0).unwrap().nr);
        assert!(
            ring_msgs(&msgs).contains(&(real(0.9), NodeRef::real(min_id))),
            "min still misses a left neighbor and re-requests from max"
        );
    }
}
