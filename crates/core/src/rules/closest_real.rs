//! Rule 3 — *Closest Real Neighbor*: every node locates and links the
//! nearest real node on each side, and spreads the news.
//!
//! > For each `u_i` find the closest left and right real neighbor. Inform
//! > all neighbors in the interval between the closest real neighbors about
//! > the found closest real neighbors. We define
//! > `rl(u_i) = max{w ∈ N(u_i) : w ∈ V_r ∧ w < u_i}` and
//! > `rr(u_i) = min{w ∈ N(u_i) : w ∈ V_r ∧ w > u_i}`.
//! >
//! > `left-realneighbor(u_i)`:
//! >   `v = max{w ∈ N(u_i) : w ∈ V_r ∧ w < u_i}; y ∈ N_u(u_i);
//! >    y > u_i ∨ v < y < u_i; v > rl(y)`
//! >   → `N_u(u_i) := N_u(u_i) ∪ {v}; N_u(y) <- N_u(y) ∪ {v}; rl(u_i) := v`
//! >
//! > (`right-realneighbor` symmetric.)
//!
//! `N(u_i)` is the peer-wide knowledge (identical for all siblings), so `v`
//! is computed once per peer per side-per-level. The `v > rl(y)` guard reads
//! the neighbor's register from the previous-round snapshot (README, Interpretations A3);
//! an unknown `rl(y)` counts as `-∞` (the message is sent — inserts are
//! idempotent). When no real node is known on a side, the register is
//! cleared: a stale `rl`/`rr` must not survive arbitrary initial states.

use super::{max_real_below, min_real_above, observed, send_insert, RuleCtx};
use rechord_graph::{EdgeKind, NodeRef};

/// Applies rule 3 to every level.
pub fn apply(ctx: &mut RuleCtx<'_, '_>) {
    let known = ctx.state.known(ctx.me);
    for lvl in ctx.levels() {
        let ui = ctx.node(lvl);
        // left-realneighbor(u_i), then right-realneighbor(u_i): the right
        // side's guard sees the left side's insert.
        realneighbor(ctx, lvl, ui, max_real_below(&known, ui), Side::Left);
        realneighbor(ctx, lvl, ui, min_real_above(&known, ui), Side::Right);
    }
}

#[derive(Clone, Copy)]
enum Side {
    Left,
    Right,
}

/// One side of rule 3 at `u_i`: tells every `y ∈ N_u(u_i)` that satisfies
/// the informing guard about the found real neighbor `v`, then links `v`
/// and records it in the side's register (or clears the register when the
/// side has no real node).
fn realneighbor(ctx: &mut RuleCtx<'_, '_>, lvl: u8, ui: NodeRef, v: Option<NodeRef>, side: Side) {
    let RuleCtx { me, state, view, out } = ctx;
    let Some(vs) = state.level(lvl) else { return };
    if let Some(v) = v {
        // The guard is evaluated on the state before this side's update.
        for &y in vs.nu.iter().filter(|&&y| y != v) {
            let register = observed(*me, state, view, y);
            let wants = match side {
                // y > u_i ∨ v < y < u_i, and v improves on y's register
                Side::Left => {
                    (y > ui || (v < y && y < ui))
                        && register.and_then(|r| r.rl).is_none_or(|rly| v > rly)
                }
                // y < u_i ∨ v > y > u_i
                Side::Right => {
                    (y < ui || (v > y && y > ui))
                        && register.and_then(|r| r.rr).is_none_or(|rry| v < rry)
                }
            };
            if wants {
                send_insert(out, y, EdgeKind::Unmarked, v);
            }
        }
    }
    let Some(vs) = state.level_mut(lvl) else { return };
    if let Some(v) = v {
        vs.nu.insert(v);
    }
    match side {
        Side::Left => vs.rl = v,
        Side::Right => vs.rr = v,
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
    fn finds_and_links_closest_reals() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        // knowledge: reals at 0.2, 0.4 (left), 0.7 (right), virtual 0.45
        for n in [real(0.2), real(0.4), real(0.7)] {
            st.level_mut(0).unwrap().nu.insert(n);
        }
        st.level_mut(0).unwrap().nu.insert(NodeRef::virtual_node(Ident::from_f64(0.2), 2));
        run_rule(me, &mut st, &[], super::apply);
        let vs = st.level(0).unwrap();
        assert_eq!(vs.rl, Some(real(0.4)), "closest left real");
        assert_eq!(vs.rr, Some(real(0.7)), "closest right real");
        assert!(vs.nu.contains(&real(0.4)) && vs.nu.contains(&real(0.7)));
    }

    #[test]
    fn knowledge_is_peer_wide() {
        // The real neighbor is only known to a *different* level: rule 3
        // still finds it because N(u_i) unions all siblings' N_u.
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.levels.entry(1).or_default(); // u_1 at 0.0
        st.level_mut(1).unwrap().nu.insert(real(0.45));
        run_rule(me, &mut st, &[], super::apply);
        assert_eq!(st.level(0).unwrap().rl, Some(real(0.45)));
    }

    #[test]
    fn informs_neighbors_in_interval_and_above() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        let v = real(0.3);
        // `between` must be virtual: a real node at 0.42 would itself be the
        // closest left real. Owner 0.17, level 2 → position 0.42.
        let between = NodeRef::virtual_node(Ident::from_f64(0.17), 2); // v < y < u_i → informed
        let above = real(0.8); // y > u_i       → informed
        let below = real(0.1); // y < v         → not informed (left side)
        for n in [v, between, above, below] {
            st.level_mut(0).unwrap().nu.insert(n);
        }
        let msgs = run_rule(me, &mut st, &[], super::apply);
        let left_informs: Vec<&Msg> =
            msgs.iter().filter(|m| m.kind == EdgeKind::Unmarked && m.edge == v).collect();
        let targets: Vec<NodeRef> = left_informs.iter().map(|m| m.at).collect();
        assert!(targets.contains(&between));
        assert!(targets.contains(&above));
        assert!(!targets.contains(&below));
    }

    #[test]
    fn snapshot_guard_suppresses_redundant_informs() {
        let me = Ident::from_f64(0.5);
        let y_id = Ident::from_f64(0.8);
        let v = real(0.3);
        // y already records rl = 0.3: guard v > rl(y) fails, no message.
        let mut y_state = PeerState::new();
        y_state.level_mut(0).unwrap().rl = Some(v);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().nu.insert(v);
        st.level_mut(0).unwrap().nu.insert(NodeRef::real(y_id));
        let msgs = run_rule(me, &mut st, &[(y_id, y_state)], super::apply);
        assert!(
            !msgs.iter().any(|m| m.at == NodeRef::real(y_id) && m.edge == v),
            "y already knows a better-or-equal rl"
        );
    }

    #[test]
    fn stale_register_cleared_when_side_empty() {
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.level_mut(0).unwrap().rl = Some(real(0.2)); // garbage from initial state
        st.level_mut(0).unwrap().nu.insert(real(0.9)); // only a right real known
        run_rule(me, &mut st, &[], super::apply);
        let vs = st.level(0).unwrap();
        assert_eq!(vs.rl, None, "no left real in knowledge → cleared");
        assert_eq!(vs.rr, Some(real(0.9)));
    }

    #[test]
    fn own_real_node_can_be_a_sibling_register() {
        // A virtual level's closest real is often its own peer: u_0 ∈ N(u).
        let me = Ident::from_f64(0.5);
        let mut st = PeerState::new();
        st.levels.entry(2).or_default(); // u_2 at 0.75
        run_rule(me, &mut st, &[], super::apply);
        assert_eq!(st.level(2).unwrap().rl, Some(NodeRef::real(me)));
    }
}
