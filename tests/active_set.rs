//! Integration: the engine's active-set rounds against the full sweep.
//!
//! `Engine` steps only the peers whose inputs changed and reuses every
//! other peer's last step. This file keeps a copy of the full-sweep round
//! the engine used to run (clone every state, step every peer against the
//! clone, sort every message by `(target, message)`, deliver, compare) and
//! runs it beside the engine, round by round: the states, the
//! `(changed, delivered, dropped)` tallies and the dirty list must agree.
//! On every round at the fixpoint the engine must step nobody.
//!
//! Scenarios: cold `Random` starts, the benchmark's join/join/leave/crash
//! sequence, a `state_mut` edit of a stable network, a successor-lying
//! adversary installed mid-run, a coin-flip activation schedule, a
//! schedule that skips every peer the round after it changed, and
//! classic Chord (which keeps the default `observably_equal`). The
//! benchmark-sized runs are release-only.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rechord::chord::{ChordProtocol, ChordState};
use rechord::core::adversary::mix;
use rechord::core::network::ReChordNetwork;
use rechord::core::{AdversaryMap, Crime, CrimeSet};
use rechord::id::Ident;
use rechord::sim::{Engine, Outbox, RoundOutcome, RoundView, SyncProtocol};
use rechord::topology::{ChurnEvent, TopologyKind};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

/// Round cap of any one fixpoint run.
const MAX_ROUNDS: u64 = 20_000;

/// What the full sweep computes for one round.
struct Sweep<S> {
    states: Vec<S>,
    changed: bool,
    delivered: usize,
    dropped: usize,
    dirty: Vec<Ident>,
}

/// The full-sweep round over the engine's current states, leaving the
/// engine untouched.
fn sweep<P: SyncProtocol>(engine: &Engine<P>, active: &impl Fn(Ident) -> bool) -> Sweep<P::State> {
    let ids = engine.ids();
    let prev: Vec<P::State> = engine.iter().map(|(_, st)| st.clone()).collect();
    let mut states = prev.clone();
    let view = RoundView::new(ids, &prev);
    let mut out = Outbox::new();
    for (&id, st) in ids.iter().zip(states.iter_mut()) {
        if active(id) {
            engine.protocol().step(id, st, &view, &mut out);
        }
    }
    let mut msgs = out.into_inner();
    msgs.sort_unstable();
    let (mut delivered, mut dropped) = (0, 0);
    for (to, msg) in &msgs {
        match ids.binary_search(to) {
            Ok(at) => {
                engine.protocol().deliver(*to, &mut states[at], msg);
                delivered += 1;
            }
            Err(_) => dropped += 1,
        }
    }
    let dirty: Vec<Ident> = ids
        .iter()
        .zip(prev.iter().zip(&states))
        .filter(|(_, (a, b))| a != b)
        .map(|(&id, _)| id)
        .collect();
    Sweep { states, changed: !dirty.is_empty(), delivered, dropped, dirty }
}

/// Runs one engine round under `active` and asserts it equals the full
/// sweep. Even rounds go through `round_dirty_with_schedule` (and check
/// the dirty list), odd ones through `round_with_schedule`.
fn checked_round<P: SyncProtocol>(
    engine: &mut Engine<P>,
    round: u64,
    active: impl Fn(Ident) -> bool,
) -> RoundOutcome
where
    P::State: Debug,
{
    let want = sweep(engine, &active);
    let out = if round.is_multiple_of(2) {
        let (out, dirty) = engine.round_dirty_with_schedule(&active);
        assert_eq!(dirty, want.dirty, "round {round}: dirty list");
        out
    } else {
        engine.round_with_schedule(&active)
    };
    assert_eq!(
        (out.changed, out.delivered, out.dropped),
        (want.changed, want.delivered, want.dropped),
        "round {round}: (changed, delivered, dropped)"
    );
    for ((id, got), want) in engine.iter().zip(&want.states) {
        assert!(got == want, "round {round}: peer {id} differs\n got {got:?}\nwant {want:?}");
    }
    out
}

/// Checked full rounds until the fixpoint.
fn checked_fixpoint<P: SyncProtocol>(engine: &mut Engine<P>, round: &mut u64)
where
    P::State: Debug,
{
    for _ in 0..MAX_ROUNDS {
        let out = checked_round(engine, *round, |_| true);
        *round += 1;
        if !out.changed {
            return;
        }
    }
    panic!("no fixpoint within {MAX_ROUNDS} rounds");
}

/// Checked rounds at the fixpoint: nothing changes and nobody steps.
fn checked_idle<P: SyncProtocol>(engine: &mut Engine<P>, round: &mut u64, rounds: u64)
where
    P::State: Debug,
{
    for _ in 0..rounds {
        let out = checked_round(engine, *round, |_| true);
        assert!(!out.changed, "round {round}: an idle round changed the state");
        assert_eq!(out.stepped, 0, "round {round}: an idle round stepped peers");
        *round += 1;
    }
}

fn cold_run(peers: usize, seed: u64) {
    let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(peers, seed), 1);
    let mut round = 0;
    checked_fixpoint(net.engine_mut(), &mut round);
    checked_idle(net.engine_mut(), &mut round, 3);
}

/// A stable `Random` network of `peers` peers, reached through checked
/// rounds.
fn stable(peers: usize, seed: u64, round: &mut u64) -> ReChordNetwork {
    let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(peers, seed), 1);
    checked_fixpoint(net.engine_mut(), round);
    net
}

fn churn_run(peers: usize, seed: u64, idle_rounds: u64) {
    const EVENTS: [ChurnEvent; 4] = [
        ChurnEvent::Join { address: 0x10_0000 },
        ChurnEvent::Join { address: 0x10_0001 },
        ChurnEvent::GracefulLeave,
        ChurnEvent::Crash,
    ];
    let mut round = 0;
    let mut net = stable(peers, seed, &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);
    for (k, event) in EVENTS.iter().enumerate() {
        let selector = mix(&[seed, 0xc4, k as u64]);
        net.apply_event(event, selector, seed).expect("a stable network takes every event");
        checked_fixpoint(net.engine_mut(), &mut round);
    }
    checked_idle(net.engine_mut(), &mut round, idle_rounds);
}

#[test]
fn cold_random_starts_match_the_sweep() {
    for peers in [16, 64] {
        for seed in [1, 2, 229] {
            cold_run(peers, seed);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark-sized: run with --release")]
fn cold_random_160_matches_the_sweep() {
    cold_run(160, 229);
}

#[test]
fn churn_sequence_matches_the_sweep() {
    churn_run(40, 229, 30);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark-sized: run with --release")]
fn churn_sequence_96_matches_the_sweep() {
    churn_run(96, 229, 100);
}

#[test]
fn an_edit_wakes_the_peer_and_its_readers() {
    let mut round = 0;
    let mut net = stable(24, 3, &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);
    // Forget one peer's closest left real neighbour: an observable edit.
    let victim = net.real_ids()[5];
    let st = net.engine_mut().state_mut(victim).expect("victim lives");
    st.level_mut(0).expect("level 0").rl = None;
    let out = checked_round(net.engine_mut(), round, |_| true);
    round += 1;
    assert!(out.stepped >= 2, "the edited peer and its readers step, got {}", out.stepped);
    assert!(out.stepped < 24, "peers that read nothing edited stay idle");
    checked_fixpoint(net.engine_mut(), &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);

    // An edit no reader can see still wakes the edited peer itself.
    let st = net.engine_mut().state_mut(victim).expect("victim lives");
    st.level_mut(0).expect("level 0").nc.clear();
    let out = checked_round(net.engine_mut(), round, |_| true);
    round += 1;
    assert!(out.stepped >= 1);
    checked_fixpoint(net.engine_mut(), &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);
}

#[test]
fn an_adversary_installed_mid_run_matches_the_sweep() {
    let mut round = 0;
    let mut net = stable(24, 7, &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);
    let liars = CrimeSet::single(Crime::LieAboutSuccessor);
    net.set_adversary(Arc::new(AdversaryMap::assign(&net.real_ids(), 0.25, liars, 7)));
    for _ in 0..150 {
        let out = checked_round(net.engine_mut(), round, |_| true);
        round += 1;
        if !out.changed {
            checked_idle(net.engine_mut(), &mut round, 2);
            break;
        }
    }
}

#[test]
fn a_coin_flip_schedule_matches_the_sweep() {
    let topo = TopologyKind::Random.generate(16, 11);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut round = 0;
    for _ in 0..80 {
        let active: BTreeSet<Ident> =
            net.real_ids().into_iter().filter(|_| rng.gen_bool(0.5)).collect();
        checked_round(net.engine_mut(), round, |id| active.contains(&id));
        round += 1;
    }
    // Everyone sits out one round, then one peer sits out every round.
    checked_round(net.engine_mut(), round, |_| false);
    round += 1;
    let stalled = net.real_ids()[3];
    for _ in 0..6 {
        checked_round(net.engine_mut(), round, |id| id != stalled);
        round += 1;
    }
    checked_fixpoint(net.engine_mut(), &mut round);
    checked_idle(net.engine_mut(), &mut round, 2);
}

#[test]
fn peers_skipped_the_round_after_they_changed_match_the_sweep() {
    // The second run starts on an odd round, so its skip rounds are the
    // ones that check the dirty list.
    for (first, seed) in [(0, 3), (1, 13)] {
        let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(24, seed), 1);
        let mut round = first;
        let mut skipped = 0;
        // A full round, then a round that skips exactly the peers it
        // changed: each of them sends nothing where it sent its old outbox.
        for _ in 0..30 {
            let before: Vec<_> = net.engine().iter().map(|(_, st)| st.clone()).collect();
            checked_round(net.engine_mut(), round, |_| true);
            let changed: BTreeSet<Ident> = net
                .engine()
                .iter()
                .zip(&before)
                .filter(|((_, st), was)| st != was)
                .map(|((id, _), _)| id)
                .collect();
            skipped += changed.len();
            checked_round(net.engine_mut(), round + 1, |id| !changed.contains(&id));
            round += 2;
        }
        assert!(skipped > 0, "seed {seed}: no peer changed, so none was skipped");
        checked_fixpoint(net.engine_mut(), &mut round);
        checked_idle(net.engine_mut(), &mut round, 2);
    }
}

#[test]
fn classic_chord_matches_the_sweep() {
    let topo = TopologyKind::Random.generate(32, 5);
    let mut engine = Engine::new(ChordProtocol);
    for &id in &topo.ids {
        engine.insert_node(id, ChordState::with_contacts([]));
    }
    for &(a, b) in &topo.edges {
        engine.state_mut(topo.ids[a]).expect("listed peer").known.insert(topo.ids[b]);
    }
    let mut round = 0;
    checked_fixpoint(&mut engine, &mut round);
    checked_idle(&mut engine, &mut round, 2);
    engine.remove_node(topo.ids[9]);
    checked_fixpoint(&mut engine, &mut round);
    checked_idle(&mut engine, &mut round, 2);
}
