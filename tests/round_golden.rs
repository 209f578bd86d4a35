//! Integration: literal goldens of whole protocol runs, round by round.
//!
//! The determinism suites compare one run with another run of the same
//! build; these compare runs with constants recorded from the build whose
//! neighbourhoods were `BTreeSet<NodeRef>` (rev `b4d801b`). The file passes
//! unchanged on that build and on the sorted-vector one that replaced it.
//! Per scenario it pins the number of rounds, the message total, a hash of
//! the per-round `(delivered, dropped, changed)` sequence and a hash of
//! every peer's final state in its `Debug` form (the same string the
//! benchmark's `state_digest` hashes), so a change to any rule's output in
//! any round, to the delivery order or to the state's printed form shows.
//!
//! Scenarios: cold `Random` starts at two sizes and three seeds, the
//! benchmark's join/join/leave/crash sequence, one rule ablation, one
//! successor-lying adversary (the rewritten-outbox path) and classic Chord
//! (the engine's delivery order for a protocol whose messages do not
//! commute). The two benchmark-sized runs are release-only.
//!
//! A change that moves one of these constants changed what the protocol
//! does: re-record only when that is the intent.

mod support;

use rechord::chord::{ChordProtocol, ChordState};
use rechord::core::ablation;
use rechord::core::adversary::mix;
use rechord::core::network::ReChordNetwork;
use rechord::core::{AdversaryMap, Crime, CrimeSet};
use rechord::sim::{Engine, SyncProtocol};
use rechord::topology::{ChurnEvent, TopologyKind};
use std::fmt::{Debug, Write};
use std::sync::Arc;

/// Round cap of any one fixpoint run (far above Theorem 1.1's envelope at
/// these sizes).
const MAX_ROUNDS: u64 = 200_000;

/// Everything a run externalizes.
#[derive(Debug, PartialEq)]
struct Golden {
    rounds: u64,
    messages: usize,
    rounds_fnv1a: u64,
    states_fnv1a: u64,
}

/// The per-round record of one scenario, across all its phases.
#[derive(Default)]
struct Log {
    rounds: u64,
    messages: usize,
    per_round: String,
}

impl Log {
    /// Runs one round and records it; returns whether the state changed.
    fn round<P: SyncProtocol>(&mut self, engine: &mut Engine<P>) -> bool {
        let out = engine.round();
        self.rounds += 1;
        self.messages += out.delivered + out.dropped;
        write!(self.per_round, "{},{},{};", out.delivered, out.dropped, out.changed)
            .expect("writing to a String cannot fail");
        out.changed
    }

    /// Runs rounds until the fixpoint or `cap` rounds; returns whether the
    /// fixpoint was reached.
    fn until_fixpoint<P: SyncProtocol>(&mut self, engine: &mut Engine<P>, cap: u64) -> bool {
        (0..cap).any(|_| !self.round(engine))
    }

    fn golden<P: SyncProtocol>(&self, engine: &Engine<P>) -> Golden
    where
        P::State: Debug,
    {
        let mut states = String::new();
        for (id, st) in engine.iter() {
            write!(states, "{}:{st:?};", id.raw()).expect("writing to a String cannot fail");
        }
        Golden {
            rounds: self.rounds,
            messages: self.messages,
            rounds_fnv1a: support::fnv1a(self.per_round.as_bytes()),
            states_fnv1a: support::fnv1a(states.as_bytes()),
        }
    }
}

/// A cold `Random` start of `peers` peers, run to its fixpoint.
fn cold(peers: usize, seed: u64) -> Golden {
    let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(peers, seed), 1);
    let mut log = Log::default();
    assert!(log.until_fixpoint(net.engine_mut(), MAX_ROUNDS), "n={peers} seed={seed}");
    log.golden(net.engine())
}

/// The benchmark's `churn-restabilize` sequence: a stabilized network takes
/// two joins, a graceful leave and a crash, each run to its fixpoint, then
/// idles at the fixpoint.
fn churn(peers: usize, seed: u64, idle_rounds: u64) -> Golden {
    const EVENTS: [ChurnEvent; 4] = [
        ChurnEvent::Join { address: 0x10_0000 },
        ChurnEvent::Join { address: 0x10_0001 },
        ChurnEvent::GracefulLeave,
        ChurnEvent::Crash,
    ];
    let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(peers, seed), 1);
    let mut log = Log::default();
    assert!(log.until_fixpoint(net.engine_mut(), MAX_ROUNDS));
    for (k, event) in EVENTS.iter().enumerate() {
        let selector = mix(&[seed, 0xc4, k as u64]);
        net.apply_event(event, selector, seed).expect("a stable network takes every event");
        assert!(log.until_fixpoint(net.engine_mut(), MAX_ROUNDS), "event {k}");
    }
    for _ in 0..idle_rounds {
        assert!(!log.round(net.engine_mut()), "an idle round changed the state");
    }
    log.golden(net.engine())
}

#[test]
fn cold_random_runs_match_their_goldens() {
    let got: Vec<(usize, u64, Golden)> = [16, 64]
        .into_iter()
        .flat_map(|n| [1, 2, 229].map(|seed| (n, seed, cold(n, seed))))
        .collect();
    let want = vec![
        (
            16,
            1,
            Golden {
                rounds: 14,
                messages: 9101,
                rounds_fnv1a: 4983899383361131820,
                states_fnv1a: 8804179560994994805,
            },
        ),
        (
            16,
            2,
            Golden {
                rounds: 14,
                messages: 8619,
                rounds_fnv1a: 1932356050267016673,
                states_fnv1a: 14671642155235097413,
            },
        ),
        (
            16,
            229,
            Golden {
                rounds: 15,
                messages: 9622,
                rounds_fnv1a: 10603000614888407511,
                states_fnv1a: 3337788815651137337,
            },
        ),
        (
            64,
            1,
            Golden {
                rounds: 31,
                messages: 134421,
                rounds_fnv1a: 6976552941210087453,
                states_fnv1a: 17165132521289224915,
            },
        ),
        (
            64,
            2,
            Golden {
                rounds: 44,
                messages: 200394,
                rounds_fnv1a: 17658651563592718966,
                states_fnv1a: 9440013460615881899,
            },
        ),
        (
            64,
            229,
            Golden {
                rounds: 47,
                messages: 212677,
                rounds_fnv1a: 6536386343806045414,
                states_fnv1a: 16620569034922280707,
            },
        ),
    ];
    assert_eq!(got, want);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark-sized: run with --release")]
fn cold_random_160_matches_its_golden() {
    // `stabilize-cold` at full scale, the benchmark's seed.
    let want = Golden {
        rounds: 99,
        messages: 1584782,
        rounds_fnv1a: 16611667784501321730,
        states_fnv1a: 7461383376470331292,
    };
    assert_eq!(cold(160, 229), want);
}

#[test]
fn churn_sequence_matches_its_golden() {
    let want = Golden {
        rounds: 126,
        messages: 320491,
        rounds_fnv1a: 14452844268460938145,
        states_fnv1a: 13524350879666334221,
    };
    assert_eq!(churn(40, 229, 30), want);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark-sized: run with --release")]
fn churn_sequence_96_matches_its_golden() {
    // `churn-restabilize` at full scale, the benchmark's seed.
    let want = Golden {
        rounds: 331,
        messages: 2796406,
        rounds_fnv1a: 395606998717316197,
        states_fnv1a: 8610116199210671087,
    };
    assert_eq!(churn(96, 229, 100), want);
}

#[test]
fn ablated_run_matches_its_golden() {
    // Without rule 2, edges park at the wrong sibling: a run under a
    // partial rule pipeline.
    let topo = TopologyKind::Random.generate(24, 5);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    ablation::ablate(&mut net, 2);
    let mut log = Log::default();
    log.until_fixpoint(net.engine_mut(), 400);
    let want = Golden {
        rounds: 21,
        messages: 24931,
        rounds_fnv1a: 14763974826924911590,
        states_fnv1a: 12723757908766069208,
    };
    assert_eq!(log.golden(net.engine()), want);
}

#[test]
fn lying_successor_run_matches_its_golden() {
    // A quarter of the peers rewrite every edge they hand out to point at
    // themselves: the rules run into a scratch outbox that is rewritten.
    let topo = TopologyKind::Random.generate(24, 7);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let liars = CrimeSet::single(Crime::LieAboutSuccessor);
    net.set_adversary(Arc::new(AdversaryMap::assign(&net.real_ids(), 0.25, liars, 7)));
    let mut log = Log::default();
    log.until_fixpoint(net.engine_mut(), 300);
    let want = Golden {
        rounds: 19,
        messages: 17969,
        rounds_fnv1a: 14096154968979118749,
        states_fnv1a: 13138310882595399520,
    };
    assert_eq!(log.golden(net.engine()), want);
}

#[test]
fn classic_chord_run_matches_its_golden() {
    // Classic Chord from the same kind of start: its deliveries do not
    // commute, so this pins the engine's delivery order itself.
    let topo = TopologyKind::Random.generate(32, 5);
    let mut engine = Engine::new(ChordProtocol);
    for &id in &topo.ids {
        engine.insert_node(id, ChordState::with_contacts([]));
    }
    for &(a, b) in &topo.edges {
        engine.state_mut(topo.ids[a]).expect("listed peer").known.insert(topo.ids[b]);
    }
    let mut log = Log::default();
    assert!(log.until_fixpoint(&mut engine, 5_000));
    let want = Golden {
        rounds: 19,
        messages: 528,
        rounds_fnv1a: 12164259242956551465,
        states_fnv1a: 18326278337873254101,
    };
    assert_eq!(log.golden(&engine), want);
}
