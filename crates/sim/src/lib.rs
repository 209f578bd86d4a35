//! The synchronous message-passing execution model of the Re-Chord paper
//! (§2.1), as a reusable engine.
//!
//! The model: time proceeds in rounds; in round `i` every node inspects only
//! its own state (plus, per Gall et al., the variables of its neighbors from
//! the **previous** round), performs immediate assignments on its own state,
//! and issues *delayed assignments* (`A <- B`) that take effect "right before
//! the next round". All messages generated in round `i` are delivered
//! simultaneously at its end, which makes the global state at each round
//! boundary well defined and the whole computation a deterministic function
//! `s_{i+1} = F(s_i)`.
//!
//! One round, then: every node's step runs against the round-start states
//! (each node mutates only a copy of its own state), the emitted messages
//! reach each target in message order, and each target's result is
//! compared with its start state. Because a step is a pure function of the
//! node's start state and of what it reads of other nodes, the engine
//! re-runs only the steps whose inputs changed and reuses the rest; a node
//! whose step and inbox are both unchanged keeps its state untouched (see
//! [`Engine`]). The result is the same as stepping every node every round.
//! The engine is single-threaded; independent runs parallelise across
//! seeds instead (`rechord_analysis::parallel_trials`).
//!
//! A *legal / stable* state (the paper's self-stabilization target) is a
//! fixpoint of `F`; [`Engine::run_until_fixpoint`] detects it as the first
//! round in which no node's state changed. At the fixpoint a round steps
//! no node at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod outbox;
mod report;

pub use engine::{Engine, RoundOutcome, RoundView};
pub use outbox::Outbox;
pub use report::FixpointReport;

use rechord_id::Ident;

/// A protocol executable on the synchronous engine.
///
/// `step` is the body of one round for one node: it may mutate the node's own
/// state freely (the paper's immediate `:=` assignments, which for Re-Chord
/// only ever touch the executing peer's own virtual siblings) and may read
/// any other node's **previous-round** state through the [`RoundView`]. All
/// cross-node effects must go through the [`Outbox`] (the delayed `<-`
/// assignments).
///
/// `deliver` applies one received message at the round boundary.
///
/// `step` must be a pure function of `me`, the node's start state, the
/// protocol value and what it reads through the view: the engine reuses a
/// node's last step while none of those changed.
pub trait SyncProtocol {
    /// Per-node state. `Clone` gives a step its own copy of the start state
    /// and keeps quiescent nodes' post-step states; `PartialEq` detects the
    /// fixpoint.
    type State: Clone + PartialEq;
    /// A delayed assignment. `Ord` fixes the deterministic delivery order.
    type Msg: Clone + Ord;

    /// One round of local computation for the node at `me`.
    fn step(
        &self,
        me: Ident,
        state: &mut Self::State,
        view: &RoundView<'_, Self::State>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Applies one message to the target node's state (end of round).
    fn deliver(&self, me: Ident, state: &mut Self::State, msg: &Self::Msg);

    /// Do `a` and `b` look the same to every *other* node's step? When a
    /// node's state changes from `a` to `b` and this holds, the nodes that
    /// read it through the view keep their last step.
    ///
    /// It must be an equivalence relation, and `step` must behave
    /// identically (same post-step state, same messages) whether a node it
    /// reads holds `a` or `b`. The default, `a == b`, is always sound.
    fn observably_equal(&self, a: &Self::State, b: &Self::State) -> bool {
        a == b
    }
}
