//! Bulk-synchronous replay of the simulator's round semantics over a
//! message transport.
//!
//! The direct-call [`Engine`](rechord_sim::Engine) computes a round as:
//! snapshot all states, step every node against the snapshot, sort the
//! message union by `(target, message)`, deliver. [`RoundSync`] is the
//! distributed equivalent for ONE node: each cycle it
//!
//! 1. **announces** its current state (a `StateSync` broadcast),
//! 2. **collects** the states of every roster peer, rebuilding the exact
//!    global snapshot the engine would have taken,
//! 3. **steps** the protocol against that snapshot, partitioning the
//!    outbox into one batch per roster peer (a batch is sent even when
//!    empty — it doubles as the round barrier),
//! 4. **exchanges** batches, sorts the received union by message, and
//!    delivers.
//!
//! Sorting the per-receiver union by `Msg` is equivalent to the engine's
//! global `(target, message)` sort restricted to one receiver, and
//! delivery only touches the receiver's own state — so the distributed
//! run is bit-identical to the engine, which `tests/transport_parity.rs`
//! pins on the golden determinism scenarios.
//!
//! **Fixpoint.** The engine stops after the first round that changes no
//! state. A node only learns the round was globally quiet one cycle
//! later, when the collected snapshot equals the previous one; every node
//! compares the same two snapshots, so all of them detect convergence at
//! the same cycle without any extra coordination. The detection cycle
//! costs one `StateSync` exchange but executes no round and counts no
//! messages — matching the engine's message totals exactly.
//!
//! **Pacing.** A peer may run at most one cycle ahead of another: its
//! next `StateSync` can arrive while we still collect the current one
//! (buffered in `future`), but its next message batch cannot, because
//! producing it requires *our* next `StateSync`, which we have not sent
//! yet. One cycle of state buffering is therefore sufficient.

use rechord_id::Ident;
use rechord_sim::{Outbox, RoundView, SyncProtocol};
use std::collections::BTreeMap;
use std::fmt;

/// Local accounting for one executed round (summed across nodes these
/// match the engine's per-round delivered/dropped counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetRoundStats {
    /// 1-based round number: the engine has run this many rounds once the
    /// round completes.
    pub round: u64,
    /// Messages this node delivered to itself at the round boundary.
    pub delivered: usize,
    /// Messages this node addressed to targets outside the roster (the
    /// engine drops these at delivery; a fixed roster drops them at send).
    pub dropped: usize,
}

/// Protocol-violation errors: a peer sent something the lock-step schedule
/// cannot produce (wrong round tag, unknown sender, duplicate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// A message arrived tagged with a round the schedule cannot reach.
    WrongRound {
        /// Round tag carried by the offending message.
        got: u64,
        /// The cycle this node is currently in.
        expected: u64,
    },
    /// The sender is not part of the agreed roster.
    UnknownSender(Ident),
    /// The same peer contributed twice to one phase of one cycle.
    Duplicate(Ident),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::WrongRound { got, expected } => {
                write!(f, "message for round {got} in cycle {expected}")
            }
            SyncError::UnknownSender(id) => write!(f, "sender {id} not in roster"),
            SyncError::Duplicate(id) => write!(f, "duplicate contribution from {id}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// What `try_step` produced.
pub enum StepOutcome<P: SyncProtocol> {
    /// The snapshot is still incomplete — keep receiving.
    Pending,
    /// The collected snapshot equals the previous one: the prior round was
    /// globally quiet. `rounds` matches `FixpointReport::rounds`.
    Converged {
        /// Executed rounds, counting the final quiet round.
        rounds: u64,
    },
    /// The step ran; send each batch to its peer (empty batches included —
    /// they are the round barrier).
    Batches(Vec<(Ident, Vec<P::Msg>)>),
}

enum Phase {
    /// Waiting for the driver to announce this cycle's state.
    Announce,
    /// Announced; collecting roster states for the snapshot.
    Collect,
    /// Stepped; collecting message batches before delivery.
    Exchange,
}

/// The BSP state machine executing [`SyncProtocol`] rounds for one node.
pub struct RoundSync<P: SyncProtocol> {
    protocol: P,
    me: Ident,
    roster: Vec<Ident>,
    state: P::State,
    executed: u64,
    phase: Phase,
    /// Snapshot used by the previous cycle's step (fixpoint comparand).
    prev_view: Option<Vec<P::State>>,
    /// States collected for the current cycle, aligned with `roster`.
    collecting: BTreeMap<Ident, P::State>,
    /// States that arrived one cycle early.
    future: BTreeMap<Ident, P::State>,
    /// Message batches collected for the current cycle, keyed by sender.
    batches: BTreeMap<Ident, Vec<P::Msg>>,
    converged: Option<u64>,
    dropped_this_round: usize,
    trace: Vec<NetRoundStats>,
}

impl<P: SyncProtocol> RoundSync<P> {
    /// A node `me` with `initial` state, synchronizing with `roster` (which
    /// must contain `me`; it is sorted internally).
    pub fn new(protocol: P, me: Ident, roster: Vec<Ident>, initial: P::State) -> Self {
        let mut roster = roster;
        roster.sort_unstable();
        roster.dedup();
        debug_assert!(roster.binary_search(&me).is_ok(), "roster must contain me");
        RoundSync {
            protocol,
            me,
            roster,
            state: initial,
            executed: 0,
            phase: Phase::Announce,
            prev_view: None,
            collecting: BTreeMap::new(),
            future: BTreeMap::new(),
            batches: BTreeMap::new(),
            converged: None,
            dropped_this_round: 0,
            trace: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn me(&self) -> Ident {
        self.me
    }

    /// The agreed roster, ascending.
    pub fn roster(&self) -> &[Ident] {
        &self.roster
    }

    /// The node's current protocol state.
    pub fn state(&self) -> &P::State {
        &self.state
    }

    /// Executed rounds so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// `Some(rounds)` once convergence was detected.
    pub fn converged(&self) -> Option<u64> {
        self.converged
    }

    /// Per-round local accounting, one entry per executed round.
    pub fn trace(&self) -> &[NetRoundStats] {
        &self.trace
    }

    /// Opens a cycle: returns `(round_tag, state)` for the `StateSync`
    /// broadcast and records our own contribution to the snapshot. Returns
    /// `None` when a cycle is already open (announce once per cycle).
    pub fn announce(&mut self) -> Option<(u64, P::State)> {
        if !matches!(self.phase, Phase::Announce) || self.converged.is_some() {
            return None;
        }
        self.phase = Phase::Collect;
        self.collecting.insert(self.me, self.state.clone());
        Some((self.executed, self.state.clone()))
    }

    /// Accepts a roster peer's `StateSync`. States tagged one cycle ahead
    /// are buffered; anything else is a schedule violation.
    pub fn on_state(&mut self, from: Ident, round: u64, state: P::State) -> Result<(), SyncError> {
        if self.roster.binary_search(&from).is_err() {
            return Err(SyncError::UnknownSender(from));
        }
        if round == self.executed {
            if self.collecting.insert(from, state).is_some() && from != self.me {
                return Err(SyncError::Duplicate(from));
            }
            Ok(())
        } else if round == self.executed + 1 {
            if self.future.insert(from, state).is_some() {
                return Err(SyncError::Duplicate(from));
            }
            Ok(())
        } else {
            Err(SyncError::WrongRound { got: round, expected: self.executed })
        }
    }

    /// Accepts a roster peer's message batch for the current cycle.
    pub fn on_msgs(&mut self, from: Ident, round: u64, msgs: Vec<P::Msg>) -> Result<(), SyncError> {
        if self.roster.binary_search(&from).is_err() {
            return Err(SyncError::UnknownSender(from));
        }
        if round != self.executed {
            return Err(SyncError::WrongRound { got: round, expected: self.executed });
        }
        if self.batches.insert(from, msgs).is_some() && from != self.me {
            return Err(SyncError::Duplicate(from));
        }
        Ok(())
    }

    /// Once every roster state arrived: check the fixpoint, then step the
    /// protocol against the snapshot and partition the outbox per peer.
    pub fn try_step(&mut self) -> StepOutcome<P> {
        if let Some(rounds) = self.converged {
            return StepOutcome::Converged { rounds };
        }
        if !matches!(self.phase, Phase::Collect) || self.collecting.len() != self.roster.len() {
            return StepOutcome::Pending;
        }

        // Fixpoint: the previous cycle's snapshot equals this one, so the
        // round just executed changed nothing, globally. Every node runs
        // this same comparison on the same data. Every key is a roster
        // member and every member arrived, so the map's order is the
        // roster's.
        if self.prev_view.as_ref().is_some_and(|prev| prev.iter().eq(self.collecting.values())) {
            self.converged = Some(self.executed);
            return StepOutcome::Converged { rounds: self.executed };
        }

        // The snapshot, aligned with the sorted roster — exactly the
        // engine's (ids, states) columns.
        let view_states: Vec<P::State> =
            std::mem::take(&mut self.collecting).into_values().collect();
        let view = RoundView::new(&self.roster, &view_states);
        let mut out = Outbox::new();
        self.protocol.step(self.me, &mut self.state, &view, &mut out);

        // Partition the outbox per roster peer, preserving emission order
        // within each batch (the engine's sort makes order irrelevant, but
        // FIFO batches keep the wire deterministic). Targets outside the
        // roster would be dropped at the engine's delivery; with a fixed
        // roster we can count them at the sender.
        let mut batches: BTreeMap<Ident, Vec<P::Msg>> =
            self.roster.iter().map(|&id| (id, Vec::new())).collect();
        self.dropped_this_round = 0;
        for (to, msg) in out.into_inner() {
            match batches.get_mut(&to) {
                Some(batch) => batch.push(msg),
                None => self.dropped_this_round += 1,
            }
        }

        self.prev_view = Some(view_states);
        self.phase = Phase::Exchange;

        // Our own batch joins the exchange directly.
        let mine = batches.remove(&self.me).unwrap_or_default();
        self.batches.insert(self.me, mine);
        StepOutcome::Batches(batches.into_iter().collect())
    }

    /// Once every batch arrived: sort the union by message and deliver —
    /// the engine's canonical `(target, message)` order restricted to this
    /// receiver. Closes the cycle and returns its accounting.
    pub fn try_finish(&mut self) -> Option<NetRoundStats> {
        if !matches!(self.phase, Phase::Exchange) || self.batches.len() != self.roster.len() {
            return None;
        }
        let mut inbox: Vec<P::Msg> =
            std::mem::take(&mut self.batches).into_values().flatten().collect();
        inbox.sort_unstable();
        let delivered = inbox.len();
        for msg in &inbox {
            self.protocol.deliver(self.me, &mut self.state, msg);
        }

        self.executed += 1;
        let stats =
            NetRoundStats { round: self.executed, delivered, dropped: self.dropped_this_round };
        self.trace.push(stats);
        self.dropped_this_round = 0;

        // States that arrived one cycle early now belong to the cycle we
        // are entering.
        self.collecting = std::mem::take(&mut self.future);
        self.phase = Phase::Announce;
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_chord::{ChordProtocol, ChordState};
    use rechord_id::Ident;
    use rechord_sim::Engine;

    fn ids(n: u64) -> Vec<Ident> {
        (0..n).map(|i| Ident::from_raw(i * 97 + 13)).collect()
    }

    /// Drives N RoundSync instances by direct method calls (no transport)
    /// and pins the outcome against the engine — proving the BSP seam is
    /// protocol-generic, not something special-cased for Re-Chord.
    #[test]
    fn lockstep_chord_matches_engine() {
        let peers = ids(12);
        let contacts = |i: usize| {
            // A ring of singleton contacts: each knows its list successor.
            vec![peers[(i + 1) % peers.len()]]
        };

        let mut engine = Engine::new(ChordProtocol);
        for (i, &id) in peers.iter().enumerate() {
            engine.insert_node(id, ChordState::with_contacts(contacts(i)));
        }
        let report = engine.run_until_fixpoint(10_000);
        assert!(report.converged);

        let mut nodes: Vec<RoundSync<ChordProtocol>> = peers
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                RoundSync::new(
                    ChordProtocol,
                    id,
                    peers.clone(),
                    ChordState::with_contacts(contacts(i)),
                )
            })
            .collect();

        let mut rounds = None;
        'outer: loop {
            // Announce phase: everyone broadcasts, everyone receives.
            let announces: Vec<(Ident, u64, ChordState)> = nodes
                .iter_mut()
                .filter_map(|n| n.announce().map(|(r, s)| (n.me(), r, s)))
                .collect();
            for (from, r, st) in &announces {
                for node in nodes.iter_mut() {
                    if node.me() != *from {
                        node.on_state(*from, *r, st.clone()).unwrap();
                    }
                }
            }
            // Step phase: collect outgoing batches, then exchange. Every
            // node sees the same snapshots, so convergence is unanimous
            // within one cycle.
            let mut sends: Vec<(Ident, u64, Ident, Vec<_>)> = Vec::new();
            let mut converged_here = 0usize;
            for node in nodes.iter_mut() {
                match node.try_step() {
                    StepOutcome::Converged { rounds: r } => {
                        rounds = Some(r);
                        converged_here += 1;
                    }
                    StepOutcome::Batches(batches) => {
                        let (from, r) = (node.me(), node.executed());
                        sends.extend(batches.into_iter().map(|(to, b)| (from, r, to, b)));
                    }
                    StepOutcome::Pending => panic!("snapshot incomplete in lock step"),
                }
            }
            if converged_here > 0 {
                assert_eq!(converged_here, nodes.len(), "convergence must be unanimous");
                break 'outer;
            }
            for (from, r, to, batch) in sends {
                let node = nodes.iter_mut().find(|n| n.me() == to).unwrap();
                node.on_msgs(from, r, batch).unwrap();
            }
            for node in nodes.iter_mut() {
                node.try_finish().expect("all batches present in lock step");
            }
        }

        assert_eq!(rounds, Some(report.rounds), "round counts must match the engine");
        let total: usize =
            nodes.iter().flat_map(|n| n.trace()).map(|s| s.delivered + s.dropped).sum();
        assert_eq!(total, report.total_messages, "message totals must match the engine");
        for node in &nodes {
            assert_eq!(node.converged(), Some(report.rounds));
            assert_eq!(
                Some(node.state()),
                engine.state(node.me()),
                "state of {} must match the engine",
                node.me()
            );
        }
    }

    #[test]
    fn schedule_violations_are_typed_errors() {
        let peers = ids(3);
        let mut node = RoundSync::new(
            ChordProtocol,
            peers[0],
            peers.clone(),
            ChordState::with_contacts([peers[1]]),
        );
        node.announce().unwrap();
        let st = ChordState::with_contacts([peers[0]]);
        assert_eq!(
            node.on_state(Ident::from_raw(999), 0, st.clone()),
            Err(SyncError::UnknownSender(Ident::from_raw(999)))
        );
        assert_eq!(
            node.on_state(peers[1], 5, st.clone()),
            Err(SyncError::WrongRound { got: 5, expected: 0 })
        );
        node.on_state(peers[1], 0, st.clone()).unwrap();
        assert_eq!(node.on_state(peers[1], 0, st.clone()), Err(SyncError::Duplicate(peers[1])));
        // One cycle ahead is legal (buffered), further ahead is not.
        node.on_state(peers[2], 1, st.clone()).unwrap();
        assert_eq!(
            node.on_state(peers[2], 2, st),
            Err(SyncError::WrongRound { got: 2, expected: 0 })
        );
    }
}
