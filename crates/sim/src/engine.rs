//! The deterministic synchronous round engine.

use crate::report::FixpointReport;
use crate::{Outbox, SyncProtocol};
use rechord_id::Ident;

/// Read-only access to the previous round's global state (the snapshot
/// against which all nodes compute; see crate docs).
pub struct RoundView<'a, S> {
    ids: &'a [Ident],
    states: &'a [S],
}

impl<'a, S> RoundView<'a, S> {
    /// Builds a view over externally supplied `(ids, states)` columns.
    /// `ids` must be sorted ascending and aligned with `states`. Intended
    /// for unit-testing protocol rules in isolation and for custom drivers;
    /// the engine constructs its own views internally.
    pub fn new(ids: &'a [Ident], states: &'a [S]) -> Self {
        debug_assert_eq!(ids.len(), states.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        RoundView { ids, states }
    }

    /// The previous-round state of the peer `id`, if it exists.
    #[inline]
    pub fn get(&self, id: Ident) -> Option<&'a S> {
        self.ids.binary_search(&id).ok().map(|i| &self.states[i])
    }

    /// All peers in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (Ident, &'a S)> + '_ {
        self.ids.iter().copied().zip(self.states.iter())
    }

    /// Number of peers in the snapshot.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// What happened in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Did the global state change relative to the round start? A `false`
    /// here is exactly the paper's stability criterion ("no more state
    /// changes are taking place").
    pub changed: bool,
    /// Messages delivered at the round boundary.
    pub delivered: usize,
    /// Messages addressed to peers that no longer exist (dropped — models a
    /// crashed receiver).
    pub dropped: usize,
}

/// A population of peers evolving under a [`SyncProtocol`].
///
/// Peers are kept sorted by identifier; all iteration and message delivery
/// orders are deterministic, and rounds are pure functions of the global
/// state, so runs are reproducible bit-for-bit.
pub struct Engine<P: SyncProtocol> {
    protocol: P,
    ids: Vec<Ident>,
    states: Vec<P::State>,
}

impl<P: SyncProtocol> Engine<P> {
    /// Creates an empty engine. The second argument (once a thread count)
    /// is accepted and ignored: rounds are evaluated serially, and the
    /// parameter survives only because `benchmark/` passes one through the
    /// network constructors.
    pub fn new(protocol: P, _threads: usize) -> Self {
        Engine { protocol, ids: Vec::new(), states: Vec::new() }
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol instance — for drivers that
    /// reconfigure protocol-level knobs (rule masks, adversary policies)
    /// between rounds. Changes apply from the next round.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Adds a peer. Returns `false` (and leaves the engine unchanged) if the
    /// identifier is already present.
    pub fn insert_node(&mut self, id: Ident, state: P::State) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.states.insert(pos, state);
                true
            }
        }
    }

    /// Removes a peer (a crash or leave), returning its final state.
    pub fn remove_node(&mut self, id: Ident) -> Option<P::State> {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                Some(self.states.remove(pos))
            }
            Err(_) => None,
        }
    }

    /// Is the peer present?
    pub fn contains(&self, id: Ident) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Read a peer's current state.
    pub fn state(&self, id: Ident) -> Option<&P::State> {
        self.ids.binary_search(&id).ok().map(|i| &self.states[i])
    }

    /// Mutate a peer's current state (used by churn drivers to seed edges).
    pub fn state_mut(&mut self, id: Ident) -> Option<&mut P::State> {
        match self.ids.binary_search(&id) {
            Ok(i) => Some(&mut self.states[i]),
            Err(_) => None,
        }
    }

    /// All peers with their states, ascending by identifier.
    pub fn iter(&self) -> impl Iterator<Item = (Ident, &P::State)> + '_ {
        self.ids.iter().copied().zip(self.states.iter())
    }

    /// Peer identifiers, ascending.
    pub fn ids(&self) -> &[Ident] {
        &self.ids
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no peers exist.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Executes one synchronous round: snapshot, per-node step, sorted
    /// message merge, delivery.
    pub fn round(&mut self) -> RoundOutcome {
        self.round_with_schedule(|_| true)
    }

    /// Executes one round in which only the peers selected by `active`
    /// fire their actions (all peers still receive messages).
    ///
    /// This models *partial synchrony / asynchrony*: the paper's rules are
    /// formulated for the fully synchronous model but notes that "a parallel
    /// application will not violate the correctness" — and self-stabilizing
    /// rules must tolerate peers that are slow to act. A fixpoint detected
    /// under a partial schedule is only meaningful if the schedule is fair;
    /// use full rounds (or [`Engine::run_until_fixpoint`]) to confirm
    /// stability.
    pub fn round_with_schedule(&mut self, active: impl Fn(Ident) -> bool) -> RoundOutcome {
        let (prev, delivered, dropped) = self.round_core(&active);
        // Short-circuits at the first differing peer — the hot path for
        // fixpoint loops that never look at *which* peers changed.
        RoundOutcome { changed: prev != self.states, delivered, dropped }
    }

    /// Like [`Engine::round_with_schedule`], additionally reporting exactly
    /// which peers' states changed this round (ascending by identifier).
    ///
    /// This is the co-simulation hook: a workload driver interleaving its
    /// own events with protocol rounds uses the dirty set to refresh derived
    /// views (e.g. a routing table) incrementally — at a true fixpoint the
    /// set is empty and the refresh is free.
    pub fn round_dirty_with_schedule(
        &mut self,
        active: impl Fn(Ident) -> bool,
    ) -> (RoundOutcome, Vec<Ident>) {
        let (prev, delivered, dropped) = self.round_core(&active);
        // The id column is fixed within a round, so prev and states align.
        let dirty: Vec<Ident> = self
            .ids
            .iter()
            .zip(prev.iter().zip(self.states.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(&id, _)| id)
            .collect();
        (RoundOutcome { changed: !dirty.is_empty(), delivered, dropped }, dirty)
    }

    /// The shared round body: step, merge, deliver. Returns the pre-round
    /// states (for change detection) plus delivery counts.
    fn round_core(&mut self, active: &impl Fn(Ident) -> bool) -> (Vec<P::State>, usize, usize) {
        let prev = self.states.clone();
        let mut msgs = self.step_all(&prev, active);

        // Canonical delivery order: by (target, message). Ties carry equal
        // messages, so unstable sorting cannot perturb outcomes.
        msgs.sort_unstable();

        // Targets ascend, so one cursor walks the (sorted) id column.
        let mut delivered = 0usize;
        let mut dropped = 0usize;
        let mut at = 0usize;
        for (to, msg) in &msgs {
            while self.ids.get(at).is_some_and(|id| id < to) {
                at += 1;
            }
            if self.ids.get(at) == Some(to) {
                self.protocol.deliver(*to, &mut self.states[at], msg);
                delivered += 1;
            } else {
                dropped += 1;
            }
        }

        (prev, delivered, dropped)
    }

    /// Runs up to `max_rounds` rounds, stopping at the first fixpoint
    /// (a round after which the global state is unchanged).
    pub fn run_until_fixpoint(&mut self, max_rounds: u64) -> FixpointReport {
        let mut total_messages = 0usize;
        for r in 0..max_rounds {
            let out = self.round();
            total_messages += out.delivered + out.dropped;
            if !out.changed {
                return FixpointReport { rounds: r + 1, converged: true, total_messages };
            }
        }
        FixpointReport { rounds: max_rounds, converged: false, total_messages }
    }

    /// Evaluates the scheduled nodes' steps against `prev`, in identifier
    /// order.
    fn step_all(
        &mut self,
        prev: &[P::State],
        active: &impl Fn(Ident) -> bool,
    ) -> Vec<(Ident, P::Msg)> {
        let view = RoundView { ids: &self.ids, states: prev };
        let mut out = Outbox::new();
        for (id, st) in self.ids.iter().zip(self.states.iter_mut()) {
            if active(*id) {
                self.protocol.step(*id, st, &view, &mut out);
            }
        }
        out.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy gossip protocol: every node's state is a set of known values;
    /// each round it gossips its minimum to its successor (next larger id,
    /// wrapping). Converges when everyone knows the global minimum.
    struct MinGossip;

    impl SyncProtocol for MinGossip {
        type State = Vec<u64>;
        type Msg = u64;

        fn step(
            &self,
            me: Ident,
            state: &mut Vec<u64>,
            view: &RoundView<'_, Vec<u64>>,
            out: &mut Outbox<u64>,
        ) {
            state.sort_unstable();
            state.dedup();
            // successor = smallest id > me, else global smallest
            let succ = view
                .iter()
                .map(|(id, _)| id)
                .find(|&id| id > me)
                .or_else(|| view.iter().map(|(id, _)| id).next());
            if let (Some(succ), Some(&min)) = (succ, state.first()) {
                if succ != me {
                    out.send(succ, min);
                }
            }
        }

        fn deliver(&self, _me: Ident, state: &mut Vec<u64>, msg: &u64) {
            if !state.contains(msg) {
                state.push(*msg);
                state.sort_unstable();
            }
        }
    }

    fn engine_with(n: u64) -> Engine<MinGossip> {
        let mut e = Engine::new(MinGossip, 1);
        for i in 0..n {
            e.insert_node(Ident::from_raw(i * 1000 + 17), vec![i + 100]);
        }
        e
    }

    #[test]
    fn gossip_reaches_fixpoint() {
        let mut e = engine_with(16);
        let report = e.run_until_fixpoint(1000);
        assert!(report.converged, "gossip must stabilize");
        // Everyone ends up knowing the global minimum, 100.
        for (_, st) in e.iter() {
            assert!(st.contains(&100));
        }
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut e = engine_with(3);
        let id = Ident::from_raw(999_999);
        assert!(e.insert_node(id, vec![1]));
        assert!(!e.insert_node(id, vec![2]), "duplicate rejected");
        assert_eq!(e.len(), 4);
        assert_eq!(e.remove_node(id), Some(vec![1]));
        assert_eq!(e.remove_node(id), None);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn ids_stay_sorted() {
        let mut e = Engine::new(MinGossip, 1);
        for raw in [50u64, 10, 90, 30] {
            e.insert_node(Ident::from_raw(raw), vec![raw]);
        }
        let ids: Vec<u64> = e.ids().iter().map(|i| i.raw()).collect();
        assert_eq!(ids, vec![10, 30, 50, 90]);
    }

    /// Every node sends one token per round to the ident its state names
    /// and counts the tokens it receives, up to three.
    struct Courier;

    impl SyncProtocol for Courier {
        type State = (Ident, u8);
        type Msg = ();

        fn step(
            &self,
            _me: Ident,
            state: &mut (Ident, u8),
            _view: &RoundView<'_, (Ident, u8)>,
            out: &mut Outbox<()>,
        ) {
            out.send(state.0, ());
        }

        fn deliver(&self, _me: Ident, state: &mut (Ident, u8), _msg: &()) {
            state.1 = (state.1 + 1).min(3);
        }
    }

    #[test]
    fn messages_to_missing_peers_are_dropped() {
        let [a, b, c] = [10, 20, 30].map(Ident::from_raw);
        let mut e = Engine::new(Courier, 1);
        for (id, target) in [(a, b), (b, c), (c, a)] {
            e.insert_node(id, (target, 0));
        }
        let out = e.round();
        assert_eq!((out.delivered, out.dropped), (3, 0), "everyone is present");

        // c leaves between rounds; b still names it.
        e.remove_node(c);
        let out = e.round();
        assert_eq!(out.dropped, 1, "b's token has no receiver");
        assert_eq!(out.delivered, 1, "a's token still reaches b");
        assert_eq!(e.state(b), Some(&(c, 2)));
        assert_eq!(e.state(a), Some(&(b, 1)), "nobody sends to a any more");

        // The fixpoint report's message total counts both kinds: one more
        // round saturates b's counter, the next one changes nothing.
        let report = e.run_until_fixpoint(10);
        assert!(report.converged);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.total_messages, 2 * (1 + 1), "delivered and dropped both count");
    }

    #[test]
    fn empty_engine_is_a_fixpoint() {
        let mut e: Engine<MinGossip> = Engine::new(MinGossip, 1);
        let report = e.run_until_fixpoint(10);
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn dirty_set_matches_state_diffs() {
        let mut tracked = engine_with(17);
        let mut control = engine_with(17);
        loop {
            let before: Vec<_> = control.iter().map(|(i, s)| (i, s.clone())).collect();
            let (out, dirty) = tracked.round_dirty_with_schedule(|_| true);
            control.round();
            let after: Vec<_> = control.iter().map(|(i, s)| (i, s.clone())).collect();
            let expected: Vec<Ident> = before
                .iter()
                .zip(after.iter())
                .filter(|(a, b)| a.1 != b.1)
                .map(|(a, _)| a.0)
                .collect();
            assert_eq!(dirty, expected);
            assert_eq!(out.changed, !dirty.is_empty());
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty ids ascend");
            if !out.changed {
                break;
            }
        }
        // At the fixpoint the dirty set stays empty.
        let (out, dirty) = tracked.round_dirty_with_schedule(|_| true);
        assert!(!out.changed && dirty.is_empty());
    }

    #[test]
    fn partial_schedule_fires_only_selected_nodes() {
        let mut e = engine_with(6);
        let ids = e.ids().to_vec();
        let only = ids[2];
        let out = e.round_with_schedule(|id| id == only);
        // exactly one node gossiped: at most one message
        assert!(out.delivered <= 1, "only the scheduled node may send");
        // an empty schedule is a no-op round
        let before: Vec<_> = e.iter().map(|(i, s)| (i, s.clone())).collect();
        let out = e.round_with_schedule(|_| false);
        assert_eq!(out.delivered + out.dropped, 0);
        assert!(!out.changed);
        let after: Vec<_> = e.iter().map(|(i, s)| (i, s.clone())).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn fair_alternating_schedule_still_converges() {
        let mut e = engine_with(12);
        // odd/even alternation is fair: everyone fires every other round
        let ids = e.ids().to_vec();
        let mut stable_streak = 0;
        for round in 0..10_000u64 {
            let parity = round % 2;
            let out = e.round_with_schedule(|id| {
                (ids.binary_search(&id).expect("live") as u64) % 2 == parity
            });
            if out.changed {
                stable_streak = 0;
            } else {
                stable_streak += 1;
                if stable_streak >= 3 {
                    break;
                }
            }
        }
        for (_, st) in e.iter() {
            assert!(st.contains(&100), "everyone learns the global minimum");
        }
    }
}
