//! Integration: the stable-state verdicts, round by round.
//!
//! Every scenario below runs to its fixpoint (or a round cap) and records,
//! after every round, the almost-stable bit and the five §3.1 phase flags,
//! then the final audit in its `Debug` form. The record is pinned as a
//! literal hash, recorded from the build that decided every verdict on a
//! snapshot graph of the overlay (rev `1860cfa`), so a change to any
//! verdict in any round shows. A second record holds every round's audit
//! fields that read the overlay's nodes and edges (connectivity,
//! projection, Fact 2.1), pinned as a hash recorded from the build whose
//! audit built a snapshot for them (rev `ecb0e94`).
//!
//! Every round also holds the state-based checks against references built
//! here on `support::Graph`, as the library built them before it read peer
//! states: the graph (the walk's nodes and edges, the metrics' edge
//! counts), the desired edges (the almost-stable verdict), the unmarked
//! subgraph (phase 1) and the projection (the audit). At the end of every
//! run, the routing table holds against the table built from the graph.
//!
//! Corpus: every `TopologyKind` at n = 16; `Random` at n ∈ {8, 64} with
//! seeds {1, 2, 229}; rules 2…6 each ablated at n = 24 (fixpoints that are
//! not the stable topology); the benchmark's join/join/leave/crash sequence
//! at n = 40; two garbage `from_raw_states` starts.

mod support;

use rechord::core::ablation;
use rechord::core::adversary::mix;
use rechord::core::metrics::NetworkMetrics;
use rechord::core::network::{Overlay, ReChordNetwork};
use rechord::core::oracle::StableTopology;
use rechord::core::phases::PhaseStatus;
use rechord::core::projection::{chord_coverage, Projection};
use rechord::core::stability::{Comparison, StableStateAudit};
use rechord::core::{PeerState, ReChordProtocol};
use rechord::graph::{EdgeKind, NodeRef};
use rechord::id::Ident;
use rechord::routing::RoutingTable;
use rechord::sim::Engine;
use rechord::topology::{ChurnEvent, TopologyKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use support::{fnv1a, Graph};

/// Round cap of a run expected to reach its fixpoint.
const MAX_ROUNDS: u64 = 50_000;

/// Round cap of an ablated run, which need not reach one.
const ABLATED_ROUNDS: u64 = 600;

/// The projection of a graph: an adjacency over every node's owner, with an
/// edge `(u, v)` for each unmarked or ring edge from a node of `u` to the
/// real node of another peer `v`.
fn reference_projection(g: &Graph) -> BTreeMap<Ident, BTreeSet<Ident>> {
    let mut adj: BTreeMap<Ident, BTreeSet<Ident>> =
        g.nodes().map(|n| (n.owner, BTreeSet::new())).collect();
    for e in g.edges() {
        if e.kind != EdgeKind::Connection && e.to.is_real() && e.from.owner != e.to.owner {
            adj.entry(e.from.owner).or_default().insert(e.to.owner);
        }
    }
    adj
}

/// The routing table of a graph: every node's owner is a peer, and knows
/// its own nodes and the targets of its unmarked and ring edges.
fn reference_table(g: &Graph) -> BTreeMap<Ident, BTreeSet<NodeRef>> {
    let mut knowledge: BTreeMap<Ident, BTreeSet<NodeRef>> = BTreeMap::new();
    for n in g.nodes() {
        knowledge.entry(n.owner).or_default().insert(n);
    }
    for e in g.edges().filter(|e| e.kind != EdgeKind::Connection) {
        knowledge.entry(e.from.owner).or_default().insert(e.to);
    }
    knowledge
}

/// Holds every check that reads the overlay of `engine` against the graph
/// references built from `reference`, its [`Graph::of`];
/// `connected_unmarked` is phase 1's verdict.
fn check_walk(
    round: u64,
    target: &StableTopology,
    engine: &Engine<ReChordProtocol>,
    reference: &Graph,
    connected_unmarked: bool,
    audit: &StableStateAudit,
) {
    let overlay = Overlay::new(engine.iter());
    assert!(overlay.nodes().into_iter().eq(reference.nodes()), "round {round}: nodes");
    assert!(overlay.edges().eq(reference.edges()), "round {round}: edges");

    let unmarked = reference.only(EdgeKind::Unmarked);
    assert_eq!(connected_unmarked, unmarked.weakly_connected(), "round {round}");

    let projection = Projection::new(reference.nodes(), reference.edges());
    let adjacency = reference_projection(reference);
    assert_eq!(projection.peer_count(), adjacency.len(), "round {round}");
    for (u, outs) in &adjacency {
        assert_eq!(projection.neighbors(*u), Some(outs), "round {round}: peer {u}");
    }
    assert_eq!(
        (audit.weakly_connected, audit.projection_strongly_connected, &audit.chord),
        (
            reference.weakly_connected(),
            projection.strongly_connected(),
            &chord_coverage(&projection, target)
        ),
        "round {round}"
    );
    assert_eq!(NetworkMetrics::of(engine).edges, reference.edge_counts(), "round {round}");
}

/// The verdicts of one scenario, round by round.
#[derive(Default)]
struct Record {
    rounds: u64,
    log: String,
    audits: String,
}

impl Record {
    /// Runs `net` until its fixpoint or `cap` rounds, recording the
    /// verdicts after every round; returns whether the fixpoint was reached.
    fn run(&mut self, net: &mut ReChordNetwork, cap: u64) -> bool {
        let target = StableTopology::new(&net.real_ids());
        let reference: Graph = target.desired_unmarked().collect();
        let report = net.engine_mut().run_until_fixpoint_observed(cap, |round, _, engine| {
            let cmp = Comparison::new(&target, engine);
            let almost = cmp.almost_stable();
            let graph = Graph::of(engine);
            assert_eq!(almost, reference.edges_subset_of(&graph), "round {round}");
            let missing: Vec<_> = reference.edges().filter(|e| !graph.has_edge(e)).collect();
            let extra: Vec<_> = graph
                .edges()
                .filter(|e| e.kind == EdgeKind::Unmarked && !reference.has_edge(e))
                .collect();
            assert_eq!(
                (cmp.missing_unmarked, cmp.extra_unmarked),
                (missing, extra),
                "round {round}"
            );
            let p = PhaseStatus::new(&target, engine);
            for flag in [almost].into_iter().chain(p.flags()) {
                self.log.push(if flag { '1' } else { '0' });
            }
            self.log.push(';');
            let a = StableStateAudit::new(&target, engine);
            let fields = (a.weakly_connected, a.projection_strongly_connected, &a.chord);
            write!(self.audits, "{fields:?};").expect("writing to a String cannot fail");
            check_walk(round, &target, engine, &graph, p.connected_unmarked, &a);
        });
        let table = RoutingTable::from_network(net);
        let reference = reference_table(&Graph::of(net.engine()));
        assert!(table.peers().iter().eq(reference.keys()), "peers");
        for (peer, knows) in &reference {
            assert_eq!(table.knowledge_of(*peer), Some(knows), "peer {peer}");
        }
        self.rounds += report.rounds;
        report.converged
    }
    /// The scenario's golden: rounds run and the hash of the record plus
    /// the final audit.
    fn golden(mut self, net: &ReChordNetwork) -> (u64, u64, u64) {
        write!(self.log, "|{:?}", net.audit()).expect("writing to a String cannot fail");
        (self.rounds, fnv1a(self.log.as_bytes()), fnv1a(self.audits.as_bytes()))
    }
}

fn to_fixpoint(mut net: ReChordNetwork) -> (u64, u64, u64) {
    let mut record = Record::default();
    assert!(record.run(&mut net, MAX_ROUNDS), "no fixpoint within {MAX_ROUNDS} rounds");
    record.golden(&net)
}

/// The benchmark's `churn-restabilize` sequence at `peers` peers: a stable
/// network takes two joins, a graceful leave and a crash, each run to its
/// fixpoint.
fn churn(peers: usize, seed: u64) -> (u64, u64, u64) {
    const EVENTS: [ChurnEvent; 4] = [
        ChurnEvent::Join { address: 0x10_0000 },
        ChurnEvent::Join { address: 0x10_0001 },
        ChurnEvent::GracefulLeave,
        ChurnEvent::Crash,
    ];
    let mut net = ReChordNetwork::from_topology(&TopologyKind::Random.generate(peers, seed), 1);
    let mut record = Record::default();
    assert!(record.run(&mut net, MAX_ROUNDS));
    for (k, event) in EVENTS.iter().enumerate() {
        let selector = mix(&[seed, 0xc4, k as u64]);
        net.apply_event(event, selector, seed).expect("a stable network takes every event");
        assert!(record.run(&mut net, MAX_ROUNDS), "event {k}");
    }
    record.golden(&net)
}

/// Every peer believes a wrong-side closest real neighbour and holds
/// references to phantom levels.
fn wrong_sides() -> Vec<(Ident, PeerState)> {
    let ids: Vec<Ident> = (1..=6u64).map(|k| Ident::from_raw(k * 0x2aaa_aaaa_aaaa_aaaa)).collect();
    ids.iter()
        .enumerate()
        .map(|(k, &id)| {
            let mut st = PeerState::new();
            let vs = st.level_mut(0).expect("level 0");
            let next = ids[(k + 1) % ids.len()];
            let prev = ids[(k + ids.len() - 1) % ids.len()];
            vs.nu.insert(NodeRef::real(next));
            vs.rl = Some(NodeRef::real(next));
            vs.rr = Some(NodeRef::real(prev));
            vs.nr.insert(NodeRef { owner: prev, level: 13 });
            vs.nc.insert(NodeRef { owner: next, level: 9 });
            (id, st)
        })
        .collect()
}

/// Seeded garbage over `n` peers: stray levels, edges of every class to
/// any level of any peer, a lying register, and a chain through level 0
/// that keeps the peers weakly connected.
fn garbage(n: usize, seed: u64) -> Vec<(Ident, PeerState)> {
    let ids: Vec<Ident> = (0..n as u64).map(|k| Ident::from_raw(mix(&[seed, k]))).collect();
    ids.iter()
        .enumerate()
        .map(|(k, &id)| {
            let h = |salt: u64| mix(&[seed, k as u64, salt]);
            let mut st = PeerState::new();
            for j in 0..h(1) % 4 {
                st.levels.entry((h(10 + j) % 12) as u8).or_default();
            }
            let levels: Vec<u8> = st.levels.keys().copied().collect();
            for j in 0..8 {
                let target = NodeRef {
                    owner: ids[(h(20 + j) % n as u64) as usize],
                    level: (h(30 + j) % 14) as u8,
                };
                let at = levels[(h(40 + j) % levels.len() as u64) as usize];
                let vs = st.level_mut(at).expect("level exists");
                match h(50 + j) % 3 {
                    0 => vs.nu.insert(target),
                    1 => vs.nr.insert(target),
                    _ => vs.nc.insert(target),
                };
            }
            let vs = st.level_mut(0).expect("level 0");
            vs.rl = Some(NodeRef::real(ids[(h(60) % n as u64) as usize]));
            if k + 1 < n {
                vs.nu.insert(NodeRef::real(ids[k + 1]));
            }
            (id, st)
        })
        .collect()
}

fn assert_goldens(actual: &[(String, (u64, u64, u64))], expected: &[(&str, u64, u64, u64)]) {
    let listing: String = actual
        .iter()
        .map(|(name, (rounds, hash, audits))| {
            format!("        (\"{name}\", {rounds}, {hash}, {audits}),\n")
        })
        .collect();
    let actual: Vec<(&str, u64, u64, u64)> = actual
        .iter()
        .map(|(name, (rounds, hash, audits))| (name.as_str(), *rounds, *hash, *audits))
        .collect();
    assert_eq!(actual, expected, "recorded now:\n{listing}");
}

#[test]
fn cold_starts_match_their_goldens() {
    let mut actual = Vec::new();
    for kind in TopologyKind::ALL {
        let net = ReChordNetwork::from_topology(&kind.generate(16, 16), 1);
        actual.push((format!("{} n=16", kind.name()), to_fixpoint(net)));
    }
    for peers in [8, 64] {
        for seed in [1, 2, 229] {
            let topo = TopologyKind::Random.generate(peers, seed);
            let net = ReChordNetwork::from_topology(&topo, 1);
            actual.push((format!("random n={peers} seed={seed}"), to_fixpoint(net)));
        }
    }
    assert_goldens(
        &actual,
        &[
            ("random n=16", 16, 777055478884276088, 18150968397115490035),
            ("random-line n=16", 18, 3022267657909880186, 1840077296412842068),
            ("sorted-line n=16", 22, 14721202535885165635, 12866105411110474669),
            ("star n=16", 15, 8078516804090777432, 9679607275427458149),
            ("clique n=16", 13, 6976014836856888792, 9120692308606068237),
            ("binary-tree n=16", 17, 8585161422284884231, 12978180807654436762),
            ("double-ring-bridge n=16", 18, 25174003706939199, 8034886203707262364),
            ("finger-ring n=16", 13, 3287133988614650311, 11659847441014488519),
            ("random n=8 seed=1", 12, 8201241107962539882, 9628859680875470085),
            ("random n=8 seed=2", 12, 300927445191061614, 937770311393468851),
            ("random n=8 seed=229", 10, 15447917216089554434, 9065260707714794774),
            ("random n=64 seed=1", 31, 10770599700008178562, 14824939581086809709),
            ("random n=64 seed=2", 44, 17700072613830876208, 13403014112259271840),
            ("random n=64 seed=229", 47, 9740028236230399793, 4164011553897998207),
        ],
    );
}

#[test]
fn ablated_runs_match_their_goldens() {
    let mut actual = Vec::new();
    for rule in 2..=6 {
        let topo = TopologyKind::Random.generate(24, 3);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        ablation::ablate(&mut net, rule);
        let mut record = Record::default();
        let converged = record.run(&mut net, ABLATED_ROUNDS);
        actual.push((format!("without rule {rule}, converged={converged}"), record.golden(&net)));
    }
    assert_goldens(
        &actual,
        &[
            ("without rule 2, converged=true", 20, 6996403317800369882, 11558596029429498104),
            ("without rule 3, converged=true", 38, 18346565750423719477, 3975073841345861105),
            ("without rule 4, converged=true", 15, 675833856214314530, 594166136797844734),
            ("without rule 5, converged=true", 22, 5914312377164607425, 11061241302020291256),
            ("without rule 6, converged=true", 25, 7803712232834975459, 3336535577235979938),
        ],
    );
}

#[test]
fn churn_and_garbage_match_their_goldens() {
    let actual = vec![
        ("churn n=40 seed=229".to_string(), churn(40, 229)),
        (
            "wrong sides n=6".to_string(),
            to_fixpoint(ReChordNetwork::from_raw_states(wrong_sides(), 1)),
        ),
        (
            "garbage n=10".to_string(),
            to_fixpoint(ReChordNetwork::from_raw_states(garbage(10, 31), 1)),
        ),
    ];
    assert_goldens(
        &actual,
        &[
            ("churn n=40 seed=229", 96, 9428251845466817272, 7047998105154869104),
            ("wrong sides n=6", 9, 9629606120451102065, 3922463119317655324),
            ("garbage n=10", 9, 12265079168720961543, 526573675674325696),
        ],
    );
}
