//! Rule 1 — *Virtual Nodes*: keep exactly the levels `1..=m` alive.
//!
//! > Create all virtual nodes `u_i`, `i <= m` (if not existing). Delete all
//! > virtual nodes `u_j`, `j > m` (if existing) as they are needless. In
//! > case a virtual node `u_i` is deleted, the virtual node `u_m` is
//! > informed about `u_i`'s neighborhood:
//! > `N_u(u_m) := N_u(u_m) ∪ N_u(u_i) ∪ N_r(u_i) ∪ N_c(u_i)`.

use super::RuleCtx;

/// Applies rule 1 with the freshly computed `m` (see
/// [`crate::state::PeerState::compute_m`]).
pub fn apply(ctx: &mut RuleCtx<'_, '_>, m: u8) {
    // create-virtualnodes(u): u_i ∉ S(u) ∧ i <= m  →  S(u) := S(u) ∪ {u_i}
    for i in 1..=m {
        ctx.state.levels.entry(i).or_default();
    }

    // delete-virtualnodes(u): u_i ∈ S(u) ∧ i > m  →  hand over, then drop.
    let Some(first_doomed) = m.checked_add(1) else { return };
    let doomed = ctx.state.levels.split_off(&first_doomed);
    if doomed.is_empty() {
        return;
    }
    let um_ref = ctx.node(m);
    let um = ctx.state.levels.get_mut(&m).expect("u_m exists after creation");
    um.nu.extend(
        doomed
            .into_values()
            .flat_map(|vs| vs.nu.into_iter().chain(vs.nr).chain(vs.nc))
            .filter(|&t| t != um_ref),
    );
}

#[cfg(test)]
mod tests {
    use crate::rules::testkit::run_rule;
    use crate::state::PeerState;
    use rechord_graph::NodeRef;
    use rechord_id::Ident;

    #[test]
    fn creates_levels_up_to_m() {
        let me = Ident::from_f64(0.2);
        let mut st = PeerState::new();
        let msgs = run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 4));
        assert!(msgs.is_empty(), "rule 1 is purely local");
        assert_eq!(st.levels.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deletes_deeper_levels_and_hands_over() {
        let me = Ident::from_f64(0.2);
        let mut st = PeerState::new();
        for l in [1u8, 2, 3, 4, 5, 6] {
            st.levels.entry(l).or_default();
        }
        let a = NodeRef::real(Ident::from_f64(0.5));
        let b = NodeRef::real(Ident::from_f64(0.6));
        let c = NodeRef::real(Ident::from_f64(0.7));
        st.level_mut(5).unwrap().nu.insert(a);
        st.level_mut(6).unwrap().nr.insert(b);
        st.level_mut(6).unwrap().nc.insert(c);
        run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 4));
        assert_eq!(st.deepest_level(), 4);
        let um = st.level(4).unwrap();
        // all classes of the deleted nodes land in N_u(u_m)
        assert!(um.nu.contains(&a) && um.nu.contains(&b) && um.nu.contains(&c));
        assert!(um.nr.is_empty() && um.nc.is_empty());
    }

    #[test]
    fn handover_drops_self_reference() {
        let me = Ident::from_f64(0.2);
        let mut st = PeerState::new();
        st.levels.entry(4).or_default();
        st.levels.entry(7).or_default();
        // deleted node held an edge to u_4 itself
        let um_ref = PeerState::node_ref(me, 4);
        st.level_mut(7).unwrap().nu.insert(um_ref);
        run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 4));
        assert!(st.level(4).unwrap().nu.is_empty());
    }

    #[test]
    fn idempotent_when_levels_match() {
        let me = Ident::from_f64(0.9);
        let mut st = PeerState::new();
        run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 3));
        let snapshot = st.clone();
        run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 3));
        assert_eq!(st, snapshot);
    }

    #[test]
    fn level_zero_survives_any_m() {
        let me = Ident::from_f64(0.4);
        let mut st = PeerState::new();
        st.levels.entry(9).or_default();
        run_rule(me, &mut st, &[], |ctx| super::apply(ctx, 1));
        assert!(st.level(0).is_some());
        assert_eq!(st.deepest_level(), 1);
    }
}
