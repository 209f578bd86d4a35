//! The six self-stabilization rules of paper §2.3, one module each, applied
//! in paper order by [`crate::protocol::ReChordProtocol`].
//!
//! Shared conventions (paper §2.3 "Note that these rules are…"):
//!
//! * Immediate assignments (`:=`) only ever touch the executing peer's own
//!   sibling states and are visible to later rules in the same round;
//!   a locally deleted edge is *not* considered again this round.
//! * Delayed assignments (`<-`) become [`Msg`] inserts applied at the round
//!   boundary.
//! * Guards may read a neighbor's variables; those reads go against the
//!   previous round's snapshot (README, Interpretations A3).

use crate::msg::Msg;
use crate::state::{PeerState, RefSet, VirtualState};
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::Ident;
use rechord_sim::{Outbox, RoundView};
use std::ops::Bound;

pub mod closest_real;
pub mod connection;
pub mod linearize;
pub mod overlap;
pub mod ring;
pub mod virtual_nodes;

/// Everything a rule can touch while executing for one peer.
pub struct RuleCtx<'a, 'v> {
    /// The executing peer's identifier (`u = u_0`).
    pub me: Ident,
    /// The peer's own state — immediate assignments go here.
    pub state: &'a mut PeerState,
    /// Previous-round snapshot of all peers — neighbor-variable guards read
    /// from here.
    pub view: &'a RoundView<'v, PeerState>,
    /// Delayed assignments.
    pub out: &'a mut Outbox<Msg>,
}

impl<'a, 'v> RuleCtx<'a, 'v> {
    /// The executing peer's node reference at `level`.
    pub fn node(&self, level: u8) -> NodeRef {
        PeerState::node_ref(self.me, level)
    }

    /// Levels currently simulated, ascending by level number.
    pub fn levels(&self) -> Vec<u8> {
        self.state.levels.keys().copied().collect()
    }
}

/// The state of node `y` as observable by peer `me`: own siblings read the
/// current in-round `state`; foreign nodes read the snapshot. Rule 3 reads
/// `rl(y)`/`rr(y)` through it; `None` means "unknown", which its guards
/// treat as `-∞` (the information is sent). It takes the context's parts,
/// not the context, so a rule can read while it holds the outbox.
fn observed<'s>(
    me: Ident,
    state: &'s PeerState,
    view: &RoundView<'s, PeerState>,
    y: NodeRef,
) -> Option<&'s VirtualState> {
    if y.owner == me {
        state.level(y.level)
    } else {
        view.get(y.owner).and_then(|st| st.level(y.level))
    }
}

/// Emits the delayed assignment `N_kind(at) <- N_kind(at) ∪ {edge}`.
/// Self-edges are dropped at the source.
pub fn send_insert(out: &mut Outbox<Msg>, at: NodeRef, kind: EdgeKind, edge: NodeRef) {
    if at == edge {
        return;
    }
    out.send(at.owner, Msg { at, kind, edge });
}

/// Largest element of `set` strictly below `x` (paper's `max{w : w < x}`).
pub fn max_below(set: &RefSet, x: NodeRef) -> Option<NodeRef> {
    set.range(..x).next_back().copied()
}

/// Smallest element of `set` strictly above `x` (paper's `min{w : w > x}`).
pub fn min_above(set: &RefSet, x: NodeRef) -> Option<NodeRef> {
    set.range((Bound::Excluded(x), Bound::Unbounded)).next().copied()
}

/// Largest **real** element strictly below `x`.
pub fn max_real_below(set: &RefSet, x: NodeRef) -> Option<NodeRef> {
    set.range(..x).rev().find(|r| r.is_real()).copied()
}

/// Smallest **real** element strictly above `x`.
pub fn min_real_above(set: &RefSet, x: NodeRef) -> Option<NodeRef> {
    set.range((Bound::Excluded(x), Bound::Unbounded)).find(|r| r.is_real()).copied()
}

/// Test scaffolding shared by the per-rule unit tests: builds a [`RuleCtx`]
/// over an explicit neighbor snapshot and captures the emitted messages.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;

    /// Runs `f` in a [`RuleCtx`] for peer `me` with state `state`, against a
    /// snapshot holding `neighbors` (sorted internally). Returns the emitted
    /// messages in deterministic order.
    pub fn run_rule(
        me: Ident,
        state: &mut PeerState,
        neighbors: &[(Ident, PeerState)],
        f: impl FnOnce(&mut RuleCtx<'_, '_>),
    ) -> Vec<Msg> {
        let mut sorted: Vec<(Ident, PeerState)> = neighbors.to_vec();
        sorted.sort_by_key(|(id, _)| *id);
        let ids: Vec<Ident> = sorted.iter().map(|(id, _)| *id).collect();
        let states: Vec<PeerState> = sorted.iter().map(|(_, st)| st.clone()).collect();
        let view = RoundView::new(&ids, &states);
        let mut out = Outbox::new();
        {
            let mut ctx = RuleCtx { me, state, view: &view, out: &mut out };
            f(&mut ctx);
        }
        let mut msgs: Vec<Msg> = out.into_inner().into_iter().map(|(_, m)| m).collect();
        msgs.sort_unstable();
        msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(raw: u64) -> NodeRef {
        NodeRef::real(Ident::from_raw(raw))
    }

    fn v(raw: u64, lvl: u8) -> NodeRef {
        NodeRef::virtual_node(Ident::from_raw(raw), lvl)
    }

    #[test]
    fn range_helpers() {
        let set: RefSet = [r(10), v(20, 4), r(30)].into_iter().collect();
        // v(20,4) sits at 20 + 2^60, i.e. position way above 30
        assert_eq!(max_below(&set, r(30)), Some(r(10)));
        assert_eq!(min_above(&set, r(10)), Some(r(30)));
        assert_eq!(max_real_below(&set, v(20, 4)), Some(r(30)));
        assert_eq!(min_real_above(&set, r(30)), None);
        assert_eq!(min_real_above(&set, r(5)), Some(r(10)));
        assert_eq!(max_below(&set, r(10)), None);
    }

    #[test]
    fn real_filters_skip_virtuals() {
        let set: RefSet = [v(1, 1), r(100), v(2, 1)].into_iter().collect();
        // virtuals at ~half the ring; r(100) is the only real
        assert_eq!(max_real_below(&set, v(1, 1)), Some(r(100)));
        assert_eq!(min_real_above(&set, r(100)), None);
    }
}
