//! The deterministic synchronous round engine.

use crate::report::FixpointReport;
use crate::{Outbox, SyncProtocol};
use rechord_id::Ident;
use std::cell::RefCell;

/// Read-only access to the previous round's global state (the snapshot
/// against which all nodes compute; see crate docs).
pub struct RoundView<'a, S> {
    ids: &'a [Ident],
    states: &'a [S],
    /// Where the engine records the index of every peer a step reads.
    reads: Option<&'a RefCell<Vec<usize>>>,
}

impl<'a, S> RoundView<'a, S> {
    /// Builds a view over externally supplied `(ids, states)` columns.
    /// `ids` must be sorted ascending and aligned with `states`. Intended
    /// for unit-testing protocol rules in isolation and for custom drivers;
    /// the engine constructs its own views internally.
    pub fn new(ids: &'a [Ident], states: &'a [S]) -> Self {
        debug_assert_eq!(ids.len(), states.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        RoundView { ids, states, reads: None }
    }

    /// The previous-round state of the peer `id`, if it exists.
    #[inline]
    pub fn get(&self, id: Ident) -> Option<&'a S> {
        let at = self.ids.binary_search(&id).ok()?;
        if let Some(reads) = self.reads {
            reads.borrow_mut().push(at);
        }
        Some(&self.states[at])
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
    /// Peers whose `step` ran this round; the others reused their last
    /// step (see [`Engine`]). At the fixpoint it falls to zero.
    pub stepped: usize,
}

/// A population of peers evolving under a [`SyncProtocol`].
///
/// Peers are kept sorted by identifier; all iteration and message delivery
/// orders are deterministic, and rounds are pure functions of the global
/// state, so runs are reproducible bit-for-bit.
///
/// A round steps only the peers whose inputs changed. A step is a pure
/// function of the peer's own start state and of what it reads of other
/// peers through the [`RoundView`], so the engine records each step's
/// reads and keeps its post-step state and sorted outbox. A peer re-steps
/// when its own state changed, when a peer it read changed as
/// [`SyncProtocol::observably_equal`] sees it, or when the cache was
/// dropped; otherwise its last step is reused. A reused peer whose inbox
/// is also unchanged (no sender's messages to it changed) keeps its state
/// without delivery or comparison, so a round at the fixpoint steps,
/// delivers and compares nothing.
pub struct Engine<P: SyncProtocol> {
    protocol: P,
    ids: Vec<Ident>,
    states: Vec<P::State>,
    /// Inserted since the last round. A peer's first round almost surely
    /// changes it, so it delivers onto its post-step state in place rather
    /// than keep a copy: a cold start, in which every peer steps, then
    /// holds one state copy per peer, not two.
    fresh: Vec<bool>,
    memo: Memo<P::State, P::Msg>,
}

/// Each peer's last step, column-wise and aligned with the id column.
///
/// A peer whose state just changed steps (or is skipped) next round
/// anyway, so its post-step state and reads are dropped. Its outbox stays:
/// the next round replaces it and compares the two, target by target.
struct Memo<S, M> {
    /// The post-step state; `None` forces a step.
    post: Vec<Option<S>>,
    /// The messages it sent to live peers, by `(target index, message)`.
    /// A target's inbox is the union of its slices, so a target none of
    /// whose slices changed keeps its inbox.
    outbox: Vec<Vec<(usize, M)>>,
    /// How many messages it sent to absent peers.
    dropped: Vec<usize>,
    /// Indices of the peers its step read, ascending.
    reads: Vec<Vec<usize>>,
    /// Changed observably since its readers last stepped.
    seen: Vec<bool>,
}

impl<S, M> Memo<S, M> {
    /// No cached step for any of `n` peers: all of them step next round.
    fn new(n: usize) -> Self {
        Memo {
            post: (0..n).map(|_| None).collect(),
            outbox: (0..n).map(|_| Vec::new()).collect(),
            dropped: vec![0; n],
            reads: (0..n).map(|_| Vec::new()).collect(),
            seen: vec![false; n],
        }
    }
}

/// Marks every target whose slice of messages differs between two outboxes
/// of one sender, both sorted by `(target index, message)`.
fn mark_changed_targets<M: PartialEq>(
    mut old: &[(usize, M)],
    mut new: &[(usize, M)],
    marks: &mut [bool],
) {
    while let Some(t) = old.first().into_iter().chain(new.first()).map(|&(t, _)| t).min() {
        let (was, rest_old) = old.split_at(old.iter().take_while(|&&(u, _)| u == t).count());
        let (is, rest_new) = new.split_at(new.iter().take_while(|&&(u, _)| u == t).count());
        if was != is {
            marks[t] = true;
        }
        (old, new) = (rest_old, rest_new);
    }
}

impl<P: SyncProtocol> Engine<P> {
    /// Creates an empty engine.
    pub fn new(protocol: P) -> Self {
        Engine {
            protocol,
            ids: Vec::new(),
            states: Vec::new(),
            fresh: Vec::new(),
            memo: Memo::new(0),
        }
    }

    /// Drops every cached step; the next round rebuilds the cache for the
    /// current peers. Membership decides both which reads miss and which
    /// messages drop, and the protocol is an input of every step.
    fn forget(&mut self) {
        self.memo = Memo::new(0);
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol instance — for drivers that
    /// reconfigure the protocol (Re-Chord's adversary policies) between
    /// rounds. Changes apply from the next round.
    pub fn protocol_mut(&mut self) -> &mut P {
        self.forget();
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
                self.fresh.insert(pos, true);
                self.forget();
                true
            }
        }
    }

    /// Removes a peer (a crash or leave), returning its final state.
    pub fn remove_node(&mut self, id: Ident) -> Option<P::State> {
        let pos = self.ids.binary_search(&id).ok()?;
        self.ids.remove(pos);
        self.fresh.remove(pos);
        self.forget();
        Some(self.states.remove(pos))
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
    /// The peer and every peer that read it re-step next round.
    pub fn state_mut(&mut self, id: Ident) -> Option<&mut P::State> {
        let i = self.ids.binary_search(&id).ok()?;
        // An empty cache (just dropped) already makes everyone step.
        if let Some(post) = self.memo.post.get_mut(i) {
            *post = None;
            self.memo.seen[i] = true;
        }
        Some(&mut self.states[i])
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

    /// Executes one synchronous round: per-node step against the round
    /// start, per-target message merge, delivery.
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
        self.round_core(&active).0
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
        self.round_core(&active)
    }

    /// The shared round body: step the peers whose inputs changed, deliver
    /// to the peers whose post-step state or inbox changed, and compare
    /// those with their start states. Returns the outcome and the dirty
    /// peers, ascending.
    fn round_core(&mut self, active: &impl Fn(Ident) -> bool) -> (RoundOutcome, Vec<Ident>) {
        let n = self.ids.len();
        if self.memo.post.len() != n {
            self.memo = Memo::new(n);
        }
        let memo = &mut self.memo;
        // Step, then replace each outbox. An active peer with a cached step
        // none of whose reads changed observably since reuses it; a peer
        // the schedule skips sends nothing and keeps no cached step. A
        // peer needs delivery if it did not reuse, or if its slice of a
        // replaced outbox changed; a reusing peer with an unchanged inbox
        // keeps its state: no delivery, no comparison.
        let any_seen = memo.seen.contains(&true);
        let mut stepped = 0;
        let mut needs = vec![false; n];
        let mut scratch = Outbox::new();
        let reads = RefCell::new(Vec::new());
        for i in 0..n {
            if !active(self.ids[i]) {
                memo.post[i] = None;
            } else if memo.post[i].is_none()
                || (any_seen && memo.reads[i].iter().any(|&j| memo.seen[j]))
            {
                stepped += 1;
                let mut post = self.states[i].clone();
                let view = RoundView { ids: &self.ids, states: &self.states, reads: Some(&reads) };
                self.protocol.step(self.ids[i], &mut post, &view, &mut scratch);
                let mut read = reads.borrow_mut();
                read.sort_unstable();
                read.dedup();
                memo.reads[i] = read.drain(..).collect();
                memo.post[i] = Some(post);
            } else {
                continue;
            }
            // Targets ascend after the sort, so one cursor walks the ids.
            scratch.msgs.sort_unstable();
            let mut outbox = Vec::with_capacity(scratch.msgs.len());
            let mut dropped = 0;
            let mut at = 0;
            for (to, msg) in scratch.msgs.drain(..) {
                while self.ids.get(at).is_some_and(|&id| id < to) {
                    at += 1;
                }
                if self.ids.get(at) == Some(&to) {
                    outbox.push((at, msg));
                } else {
                    dropped += 1;
                }
            }
            needs[i] = true;
            mark_changed_targets(&memo.outbox[i], &outbox, &mut needs);
            memo.outbox[i] = outbox;
            memo.dropped[i] = dropped;
        }
        memo.seen.fill(false);

        let mut changed = Vec::new();
        if needs.contains(&true) {
            // The inboxes of those peers, bucketed by target (a counting
            // sort): a bucket sorted is its slice of the canonical
            // `(target, message)` delivery order. Ties are equal messages,
            // so unstable sorting cannot perturb outcomes.
            let mut bucket = vec![0usize; n + 1];
            for &(t, _) in memo.outbox.iter().flatten() {
                if needs[t] {
                    bucket[t + 1] += 1;
                }
            }
            for t in 0..n {
                bucket[t + 1] += bucket[t];
            }
            let mut inbox: Vec<Option<&P::Msg>> = vec![None; bucket[n]];
            let mut fill = bucket.clone();
            for (t, msg) in memo.outbox.iter().flatten() {
                if needs[*t] {
                    inbox[fill[*t]] = Some(msg);
                    fill[*t] += 1;
                }
            }
            for t in (0..n).filter(|&t| needs[t]) {
                let msgs = &mut inbox[bucket[t]..bucket[t + 1]];
                msgs.sort_unstable();
                let id = self.ids[t];
                let start = &self.states[t];
                // Deliver onto a copy and keep the post-step state for the
                // next round, unless the peer is fresh.
                let mut next = match memo.post[t].take() {
                    Some(post) if !self.fresh[t] => {
                        let next = post.clone();
                        memo.post[t] = Some(post);
                        next
                    }
                    Some(post) => post,
                    None => start.clone(),
                };
                for msg in msgs.iter().flatten() {
                    self.protocol.deliver(id, &mut next, msg);
                }
                self.fresh[t] = false;
                if next != *start {
                    memo.seen[t] = !self.protocol.observably_equal(&next, start);
                    // The peer steps or is skipped next round, which
                    // replaces its outbox and drop count: only its post-step
                    // state and reads go. Freed here, so the round never
                    // holds a post-step and a delivered state for every
                    // peer at once.
                    memo.post[t] = None;
                    memo.reads[t] = Vec::new();
                    self.states[t] = next;
                    changed.push(t);
                }
            }
        }
        let outcome = RoundOutcome {
            changed: !changed.is_empty(),
            delivered: memo.outbox.iter().map(Vec::len).sum(),
            dropped: memo.dropped.iter().sum(),
            stepped,
        };
        (outcome, changed.into_iter().map(|t| self.ids[t]).collect())
    }

    /// Runs up to `max_rounds` rounds, stopping at the first fixpoint
    /// (a round after which the global state is unchanged).
    pub fn run_until_fixpoint(&mut self, max_rounds: u64) -> FixpointReport {
        self.run_until_fixpoint_observed(max_rounds, |_, _, _| {})
    }

    /// [`Engine::run_until_fixpoint`], calling `observe(round, &outcome,
    /// &engine)` after every round (`round` counts from 1, so the last call
    /// of a converged run sees the report's `rounds`). This is the one loop
    /// that runs rounds to a fixpoint: a driver that watches a run (a
    /// milestone, a per-round series) observes it here.
    pub fn run_until_fixpoint_observed(
        &mut self,
        max_rounds: u64,
        mut observe: impl FnMut(u64, &RoundOutcome, &Self),
    ) -> FixpointReport {
        let mut total_messages = 0usize;
        for round in 1..=max_rounds {
            let out = self.round();
            total_messages += out.delivered + out.dropped;
            observe(round, &out, self);
            if !out.changed {
                return FixpointReport { rounds: round, converged: true, total_messages };
            }
        }
        FixpointReport { rounds: max_rounds, converged: false, total_messages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy gossip protocol: every node knows a set of values and its
    /// successor (next larger id, wrapping); each round it pushes its
    /// minimum to the successor if the successor's state lacks it.
    /// Converges when everyone knows the global minimum.
    struct MinGossip;

    #[derive(Clone, Debug, PartialEq)]
    struct Gossip {
        succ: Ident,
        known: Vec<u64>,
    }

    impl SyncProtocol for MinGossip {
        type State = Gossip;
        type Msg = u64;

        fn step(
            &self,
            me: Ident,
            state: &mut Gossip,
            view: &RoundView<'_, Gossip>,
            out: &mut Outbox<u64>,
        ) {
            state.known.sort_unstable();
            state.known.dedup();
            let Some(&min) = state.known.first() else { return };
            if state.succ != me && view.get(state.succ).is_some_and(|s| !s.known.contains(&min)) {
                out.send(state.succ, min);
            }
        }

        fn deliver(&self, _me: Ident, state: &mut Gossip, msg: &u64) {
            if !state.known.contains(msg) {
                state.known.push(*msg);
                state.known.sort_unstable();
            }
        }
    }

    fn gossip_id(i: u64) -> Ident {
        Ident::from_raw(i * 1000 + 17)
    }

    fn engine_with(n: u64) -> Engine<MinGossip> {
        let mut e = Engine::new(MinGossip);
        for i in 0..n {
            e.insert_node(
                gossip_id(i),
                Gossip { succ: gossip_id((i + 1) % n), known: vec![i + 100] },
            );
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
            assert!(st.known.contains(&100));
        }
    }

    #[test]
    fn idle_rounds_step_nobody() {
        let mut e = engine_with(16);
        assert!(e.run_until_fixpoint(1000).converged);
        for _ in 0..3 {
            let out = e.round();
            assert_eq!(out, RoundOutcome { changed: false, delivered: 0, dropped: 0, stepped: 0 });
        }
    }

    #[test]
    fn an_edit_wakes_the_peer_and_its_readers() {
        let mut e = engine_with(16);
        assert!(e.run_until_fixpoint(1000).converged);
        // Peer 5 learns a new minimum; peer 4 reads it (its successor).
        e.state_mut(gossip_id(5)).expect("peer 5 lives").known.push(1);
        let out = e.round();
        assert_eq!(out.stepped, 2, "peer 5 and its one reader step");
        assert_eq!((out.delivered, out.changed), (1, true), "peer 5 pushes 1 to peer 6");
        assert!(e.run_until_fixpoint(1000).converged);
        for (_, st) in e.iter() {
            assert!(st.known.contains(&1));
        }
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut e = engine_with(3);
        let id = Ident::from_raw(999_999);
        let lone = |v| Gossip { succ: id, known: vec![v] };
        assert!(e.insert_node(id, lone(1)));
        assert!(!e.insert_node(id, lone(2)), "duplicate rejected");
        assert_eq!(e.len(), 4);
        assert_eq!(e.remove_node(id), Some(lone(1)));
        assert_eq!(e.remove_node(id), None);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn ids_stay_sorted() {
        let mut e = Engine::new(MinGossip);
        for raw in [50u64, 10, 90, 30] {
            let id = Ident::from_raw(raw);
            e.insert_node(id, Gossip { succ: id, known: vec![raw] });
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
        let mut e = Engine::new(Courier);
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

        // At the fixpoint nobody steps, yet the tallies still count the
        // messages every round sends.
        let out = e.round();
        assert_eq!(out, RoundOutcome { changed: false, delivered: 1, dropped: 1, stepped: 0 });
    }

    #[test]
    fn empty_engine_is_a_fixpoint() {
        let mut e: Engine<MinGossip> = Engine::new(MinGossip);
        let report = e.run_until_fixpoint(10);
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
    }

    /// Every node sends the values its state lists to their targets and
    /// keeps the largest value it received; the protocol logs the receiver
    /// of every delivered message.
    #[derive(Default)]
    struct Relay {
        delivered_to: RefCell<Vec<Ident>>,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Sends {
        to: Vec<(Ident, u64)>,
        got: u64,
    }

    impl SyncProtocol for Relay {
        type State = Sends;
        type Msg = u64;

        fn step(
            &self,
            _me: Ident,
            state: &mut Sends,
            _view: &RoundView<'_, Sends>,
            out: &mut Outbox<u64>,
        ) {
            for &(to, v) in &state.to {
                out.send(to, v);
            }
        }

        fn deliver(&self, me: Ident, state: &mut Sends, msg: &u64) {
            self.delivered_to.borrow_mut().push(me);
            state.got = state.got.max(*msg);
        }
    }

    /// Peers `0..6`, each sending 1 to the next two; run to the fixpoint,
    /// with the log cleared.
    fn relay() -> Engine<Relay> {
        let mut e = Engine::new(Relay::default());
        for i in 0..6 {
            let to = [1, 2].map(|d| (gossip_id((i + d) % 6), 1)).to_vec();
            e.insert_node(gossip_id(i), Sends { to, got: 0 });
        }
        assert!(e.run_until_fixpoint(10).converged);
        e.protocol().delivered_to.take();
        e
    }

    /// The peers (by index) that were delivered a message since last asked.
    fn receivers(e: &Engine<Relay>) -> Vec<u64> {
        let mut got: Vec<u64> =
            e.protocol().delivered_to.take().iter().map(|id| id.raw() / 1000).collect();
        got.dedup();
        got
    }

    /// Peer 0 raises the value it sends to peer 1, its first target: the
    /// round delivers to peer 0 (it stepped) and peer 1 only, and peer 1
    /// changes.
    fn raise_zero_to_one(e: &mut Engine<Relay>) {
        e.state_mut(gossip_id(0)).expect("peer 0 lives").to[0].1 = 5;
        let (out, dirty) = e.round_dirty_with_schedule(|_| true);
        assert_eq!(out.stepped, 1);
        assert_eq!(receivers(e), [0, 1], "only the target whose messages changed re-delivers");
        assert_eq!(dirty, [gossip_id(1)]);
    }

    #[test]
    fn a_changed_message_re_delivers_only_its_target() {
        let mut e = relay();
        raise_zero_to_one(&mut e);
    }

    #[test]
    fn a_changed_peer_with_the_same_outbox_re_delivers_only_itself() {
        let mut e = relay();
        raise_zero_to_one(&mut e);
        // Peer 1 re-steps and sends what it sent before: its targets keep
        // their inboxes.
        let out = e.round();
        assert_eq!((out.stepped, out.changed), (1, false));
        assert_eq!(receivers(&e), [1], "peer 1's targets 2 and 3 keep their inboxes");
    }

    #[test]
    fn a_changed_peer_skipped_next_round_re_delivers_all_its_old_targets() {
        let mut e = relay();
        raise_zero_to_one(&mut e);
        // Skipped, peer 1 sends nothing: both of its targets lose a message.
        let out = e.round_with_schedule(|id| id != gossip_id(1));
        assert_eq!((out.stepped, out.delivered, out.changed), (0, 10, false));
        assert_eq!(receivers(&e), [1, 2, 3]);
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
        assert_eq!(out.stepped, 1);
        // an empty schedule is a no-op round
        let before: Vec<_> = e.iter().map(|(i, s)| (i, s.clone())).collect();
        let out = e.round_with_schedule(|_| false);
        assert_eq!(out.delivered + out.dropped + out.stepped, 0);
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
            assert!(st.known.contains(&100), "everyone learns the global minimum");
        }
    }
}
