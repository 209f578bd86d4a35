//! The classic Chord maintenance protocol on the synchronous engine.

use crate::state::{ChordState, FINGER_SLOTS, SUCCESSOR_LIST_LEN};
use rechord_id::Ident;
use rechord_sim::{Outbox, RoundView, SyncProtocol};

/// Chord's only asynchronous message: `notify` (the rest of the protocol is
/// modeled as one-round RPCs against the snapshot; see crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChordMsg {
    /// "I believe I might be your predecessor."
    Notify {
        /// The notifying node.
        from: Ident,
    },
}

/// Classic Chord: bootstrap, stabilize, notify, fix-fingers, each round.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChordProtocol;

impl SyncProtocol for ChordProtocol {
    type State = ChordState;
    type Msg = ChordMsg;

    fn step(
        &self,
        me: Ident,
        state: &mut ChordState,
        view: &RoundView<'_, ChordState>,
        out: &mut Outbox<ChordMsg>,
    ) {
        // Drop pointers to vanished peers (failure detection).
        let dead: Vec<Ident> =
            state.all_pointers().into_iter().filter(|p| view.get(*p).is_none()).collect();
        for d in dead {
            state.purge(d);
        }
        state.successor_list.retain(|&s| s != me);

        // Re-adopt a successor: first backup from the list, else the best
        // (closest clockwise) pointer we still have.
        if state.successor.is_none() || state.successor == Some(me) {
            state.successor = state
                .successor_list
                .first()
                .copied()
                .or_else(|| closest_clockwise(me, state.all_pointers().into_iter()));
        }

        let Some(mut succ) = state.successor else { return };

        // stabilize: x = successor.predecessor; if x ∈ (me, successor) adopt.
        if let Some(sp) = view.get(succ).and_then(|s| s.predecessor) {
            if sp != me && sp != succ && sp.in_open_arc(me, succ) && view.get(sp).is_some() {
                succ = sp;
                state.successor = Some(sp);
            }
        }

        // successor list: our successor plus its list, truncated.
        let mut list = vec![succ];
        if let Some(ss) = view.get(succ) {
            list.extend(ss.successor_list.iter().copied());
        }
        list.retain(|&s| s != me);
        list.dedup();
        list.truncate(SUCCESSOR_LIST_LEN);
        state.successor_list = list;

        // notify our successor.
        out.send(succ, ChordMsg::Notify { from: me });

        // fix_fingers: resolve every finger target by snapshot lookup.
        for i in 0..FINGER_SLOTS {
            let target = me.virtual_position((i + 1) as u8);
            state.fingers[i] = snapshot_lookup(view, me, target);
        }
    }

    fn deliver(&self, me: Ident, state: &mut ChordState, msg: &ChordMsg) {
        match *msg {
            ChordMsg::Notify { from } => {
                if from == me {
                    return;
                }
                let adopt = match state.predecessor {
                    None => true,
                    Some(p) => from.in_open_arc(p, me),
                };
                if adopt {
                    state.predecessor = Some(from);
                }
            }
        }
    }
}

/// The pointer minimizing clockwise distance from `me` (bootstrap helper).
fn closest_clockwise(me: Ident, pointers: impl Iterator<Item = Ident>) -> Option<Ident> {
    pointers.filter(|&p| p != me).min_by_key(|&p| me.dist_cw(p))
}

/// Chord's `find_successor(target)`, resolved greedily against the
/// snapshot: follow closest-preceding fingers until the target falls in
/// `(current, successor(current)]`. Returns `None` when the chain is broken
/// or does not terminate within a hop budget.
pub fn snapshot_lookup(
    view: &RoundView<'_, ChordState>,
    from: Ident,
    target: Ident,
) -> Option<Ident> {
    snapshot_lookup_traced(view, from, target).map(|(succ, _)| succ)
}

/// Like [`snapshot_lookup`], also returning the hop count.
pub fn snapshot_lookup_traced(
    view: &RoundView<'_, ChordState>,
    from: Ident,
    target: Ident,
) -> Option<(Ident, usize)> {
    let mut current = from;
    for hops in 0..(2 * FINGER_SLOTS) {
        let st = view.get(current)?;
        let succ = st.successor?;
        if target == succ || target.in_open_arc(current, succ) || current == succ {
            return Some((succ, hops));
        }
        // closest preceding node from fingers + successor
        let next = st
            .fingers
            .iter()
            .flatten()
            .copied()
            .chain(std::iter::once(succ))
            .filter(|&f| f != current && f.in_open_arc(current, target))
            .max_by_key(|&f| current.dist_cw(f));
        match next {
            Some(n) if n != current => current = n,
            _ => return Some((succ, hops)),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_sim::Engine;

    fn ids(xs: &[f64]) -> Vec<Ident> {
        xs.iter().map(|&x| Ident::from_f64(x)).collect()
    }

    /// Engine with every node knowing its clockwise neighbor (a valid ring
    /// bootstrap).
    fn ring_engine(xs: &[f64]) -> Engine<ChordProtocol> {
        let v = ids(xs);
        let mut e = Engine::new(ChordProtocol);
        for (k, &id) in v.iter().enumerate() {
            let next = v[(k + 1) % v.len()];
            e.insert_node(id, ChordState::with_contacts([next]));
        }
        e
    }

    #[test]
    fn sorted_ring_stabilizes() {
        let mut e = ring_engine(&[0.1, 0.3, 0.5, 0.7, 0.9]);
        let report = e.run_until_fixpoint(500);
        assert!(report.converged);
        let v = ids(&[0.1, 0.3, 0.5, 0.7, 0.9]);
        for (k, &id) in v.iter().enumerate() {
            let st = e.state(id).unwrap();
            assert_eq!(st.successor, Some(v[(k + 1) % v.len()]), "succ of {id}");
            assert_eq!(st.predecessor, Some(v[(k + v.len() - 1) % v.len()]), "pred of {id}");
        }
    }

    #[test]
    fn fingers_point_at_cyclic_successors() {
        let xs = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
        let mut e = ring_engine(&xs);
        e.run_until_fixpoint(500);
        let v = ids(&xs);
        // finger 1 of 0.05 targets 0.55 → first node ≥ 0.55 is 0.65
        let st = e.state(v[0]).unwrap();
        assert_eq!(st.fingers[0], Some(v[4]));
        // finger 2 targets 0.3 → 0.35
        assert_eq!(st.fingers[1], Some(v[2]));
    }

    #[test]
    fn lookup_routes_to_responsible_node() {
        let xs = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
        let mut e = ring_engine(&xs);
        e.run_until_fixpoint(500);
        let v = ids(&xs);
        // run one more round to get a view; emulate via a fresh snapshot
        // by reading through a probe round
        let mut found = None;
        let probe_ids: Vec<Ident> = e.ids().to_vec();
        let states: Vec<ChordState> =
            probe_ids.iter().map(|i| e.state(*i).unwrap().clone()).collect();
        let view = RoundView::new(&probe_ids, &states);
        // key 0.4 → responsible node is 0.5
        let key = Ident::from_f64(0.4);
        for &src in &v {
            found = snapshot_lookup(&view, src, key);
            assert_eq!(found, Some(v[3]), "lookup from {src}");
        }
        assert!(found.is_some());
    }

    #[test]
    fn crash_recovery_through_successor_list() {
        let xs = [0.1, 0.3, 0.5, 0.7, 0.9];
        let mut e = ring_engine(&xs);
        e.run_until_fixpoint(500);
        let v = ids(&xs);
        e.remove_node(v[2]); // crash 0.5
        let report = e.run_until_fixpoint(500);
        assert!(report.converged, "chord must survive a single crash");
        // 0.3's successor must now be 0.7
        assert_eq!(e.state(v[1]).unwrap().successor, Some(v[3]));
    }
}
