//! Property-based tests of the protocol's global invariants.

use crate::msg::Msg;
use crate::network::{Overlay, ReChordNetwork};
use crate::oracle::StableTopology;
use crate::protocol::ReChordProtocol;
use crate::state::{PeerState, RefSet, VirtualState};
use proptest::prelude::*;
use rechord_graph::{connectivity, NodeRef};
use rechord_id::Ident;
use rechord_sim::{Outbox, RoundView, SyncProtocol};
use rechord_topology::TopologyKind;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Owners for the `RefSet` model test: a few, so that operations collide,
/// placed so that virtual positions wrap past `1.0` and land on one
/// another.
const OWNERS: [u64; 6] =
    [0, 1, 0x4000_0000_0000_0000, 0x7fff_ffff_ffff_ffff, 0xc000_0000_0000_0001, u64::MAX];

fn node_ref() -> impl Strategy<Value = NodeRef> {
    (0..OWNERS.len(), prop_oneof![0u8..7, Just(64u8)])
        .prop_map(|(k, level)| NodeRef { owner: Ident::from_raw(OWNERS[k]), level })
}

/// One mutation, applied to a `RefSet` and a `BTreeSet<NodeRef>` alike.
#[derive(Clone, Debug)]
enum SetOp {
    Insert(NodeRef),
    Remove(NodeRef),
    /// Keep the refs whose level is not `≡ k (mod 3)`.
    Retain(u8),
    Extend(Vec<NodeRef>),
    Clear,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    (0u8..9, node_ref(), prop::collection::vec(node_ref(), 0..5)).prop_map(|(kind, r, more)| {
        match kind {
            0..=2 => SetOp::Insert(r),
            3..=4 => SetOp::Remove(r),
            5 => SetOp::Retain(r.level % 3),
            6..=7 => SetOp::Extend(more),
            _ => SetOp::Clear,
        }
    })
}

/// Applies `ops` to both sets, asserting the returns agree on the way.
fn apply_ops(ops: &[SetOp]) -> (RefSet, BTreeSet<NodeRef>) {
    let (mut flat, mut tree) = (RefSet::new(), BTreeSet::new());
    for op in ops {
        match op {
            SetOp::Insert(r) => assert_eq!(flat.insert(*r), tree.insert(*r)),
            SetOp::Remove(r) => assert_eq!(flat.remove(r), tree.remove(r)),
            SetOp::Retain(k) => {
                flat.retain(|r| r.level % 3 != *k);
                tree.retain(|r| r.level % 3 != *k);
            }
            SetOp::Extend(more) => {
                flat.extend(more.iter().copied());
                tree.extend(more.iter().copied());
            }
            SetOp::Clear => {
                flat.clear();
                tree.clear();
            }
        }
    }
    (flat, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `RefSet` is a drop-in for `BTreeSet<NodeRef>`: after any sequence of
    /// mutations both hold the same elements, answer every query the rules
    /// make alike, and compare and print alike (state digests hash the
    /// printed form).
    #[test]
    fn ref_set_models_btree_set(
        ops in prop::collection::vec(set_op(), 0..40),
        other in prop::collection::vec(set_op(), 0..12),
        probes in prop::collection::vec(node_ref(), 1..6),
    ) {
        let (flat, tree) = apply_ops(&ops);
        prop_assert!(flat.iter().eq(tree.iter()));
        prop_assert!(flat.as_slice().iter().eq(&tree));
        prop_assert_eq!(flat.len(), tree.len());
        prop_assert_eq!(flat.is_empty(), tree.is_empty());
        prop_assert_eq!(flat.first(), tree.first());
        prop_assert_eq!(flat.last(), tree.last());
        for x in probes {
            prop_assert_eq!(flat.contains(&x), tree.contains(&x));
            prop_assert!(flat.range(..x).eq(tree.range(..x)));
            prop_assert!(flat.range(..x).rev().eq(tree.range(..x).rev()));
            let above = (Bound::Excluded(x), Bound::Unbounded);
            prop_assert!(flat.range(above).eq(tree.range(above)));
            prop_assert!(flat.range(above).rev().eq(tree.range(above).rev()));
        }
        let (flat2, tree2) = apply_ops(&other);
        prop_assert_eq!(flat == flat2, tree == tree2);
        prop_assert_eq!(flat.cmp(&flat2), tree.cmp(&tree2));
        prop_assert_eq!(format!("{flat:?}"), format!("{tree:?}"));
        prop_assert_eq!(&RefSet::from(tree.clone()), &flat);
        prop_assert_eq!(tree.iter().copied().collect::<RefSet>(), flat);
    }
}

/// Every peer's state, ascending by peer.
fn states(net: &ReChordNetwork) -> Vec<(Ident, PeerState)> {
    net.engine().iter().map(|(id, st)| (id, st.clone())).collect()
}

/// Number of weakly connected components of the real-peer projection: two
/// peers are joined when an edge of any class runs between any of their
/// nodes.
fn peer_components(net: &ReChordNetwork) -> usize {
    let overlay = Overlay::new(net.engine().iter());
    let peers: BTreeSet<Ident> = overlay.nodes().iter().map(|n| n.owner).collect();
    let peers: Vec<Ident> = peers.into_iter().collect();
    let at = |p: Ident| peers.binary_search(&p).expect("every edge endpoint is a node");
    connectivity::components(
        peers.len(),
        overlay.edges().map(|e| (at(e.from.owner), at(e.to.owner))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence (Theorem 1.1, bounded n): from random weakly connected
    /// states the network reaches a fixpoint whose desired edges all exist.
    #[test]
    fn converges_from_random_states(n in 2usize..14, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(20_000);
        prop_assert!(report.converged, "n={n} seed={seed} did not stabilize");
        let audit = net.audit();
        prop_assert!(audit.missing_unmarked.is_empty(),
            "missing edges at fixpoint: {:?}", audit.missing_unmarked);
        prop_assert!(audit.weakly_connected);
        prop_assert!(audit.virtual_set_matches);
    }

    /// Peer-level weak connectivity is never lost on the way to stability
    /// (the precondition of the proofs must be an invariant of the rules).
    #[test]
    fn connectivity_is_invariant(n in 2usize..10, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        for _ in 0..60 {
            let out = net.round();
            prop_assert!(
                peer_components(&net) <= 1,
                "peers disconnected mid-stabilization (n={n} seed={seed})"
            );
            if !out.changed {
                break;
            }
        }
    }

    /// Oracle sanity: the desired topology's per-node out-degree is at most
    /// 4 unmarked edges (paper §2.2: "each node in Re-Chord has at most 4
    /// outgoing unmarked edges").
    #[test]
    fn oracle_degree_bound(n in 1usize..40, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let target = StableTopology::new(&topo.ids);
        for node in target.nodes() {
            let deg = target.targets(node).map_or(0, |t| t.distinct().count());
            prop_assert!(deg <= 4, "node {node:?} has degree {deg}");
        }
    }

    /// Oracle sanity: every Chord edge's endpoints are real peers and the
    /// edge set grows like Θ(n log n).
    #[test]
    fn chord_edge_set_well_formed(n in 2usize..40, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let target = StableTopology::new(&topo.ids);
        let edges = target.chord_edges();
        prop_assert!(edges.iter().all(|e| e.from != e.to));
        prop_assert!(edges.iter().all(|e| topo.ids.contains(&e.from) && topo.ids.contains(&e.to)));
        // at least the ring (2n directed edges) and at most ~n * (log2 n + 3)
        prop_assert!(edges.len() >= 2 * n);
    }

    /// Stability is genuinely a fixpoint: running more rounds after
    /// convergence changes nothing.
    #[test]
    fn fixpoint_is_absorbing(n in 2usize..10, seed in any::<u64>()) {
        let topo = TopologyKind::Random.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(20_000);
        prop_assert!(report.converged);
        let frozen = states(&net);
        for _ in 0..5 {
            net.round();
            prop_assert_eq!(states(&net), frozen.clone());
        }
    }

    /// Honest-subset convergence: with a byzantine minority suppressing
    /// their own rules, the honest subset still quiesces and its ring
    /// ordering (level-0 rl/rr against the true sorted order of all live
    /// peers) survives intact. The initial state is a clique so no
    /// knowledge is held *exclusively* by the silent minority — from such
    /// states a byzantine cut vertex can legitimately strand information,
    /// which is an envelope edge the `adversary` binary measures, not a
    /// property to assert.
    #[test]
    fn honest_subset_converges_below_threshold(n in 6usize..14, seed in any::<u64>()) {
        use crate::adversary::{honest_ring_ok, AdversaryMap, HONEST_QUIET_ROUNDS};
        let crimes: crate::CrimeSet = (2u8..=6).map(crate::Crime::ViolateRule).collect();
        let topo = TopologyKind::Clique.generate(n, seed);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let map = AdversaryMap::assign(&net.real_ids(), 0.125, crimes, seed);
        let byz: std::collections::BTreeSet<_> = map.byzantine_peers().into_iter().collect();
        net.set_adversary(std::sync::Arc::new(map));
        let mut quiet = 0;
        let mut converged = false;
        for _ in 0..40_000u64 {
            let (_, dirty) = net.round_dirty();
            if dirty.iter().all(|id| byz.contains(id)) {
                quiet += 1;
                if quiet >= HONEST_QUIET_ROUNDS { converged = true; break; }
            } else {
                quiet = 0;
            }
        }
        prop_assert!(converged, "n={n} seed={seed}: honest subset did not quiesce");
        prop_assert!(honest_ring_ok(&net, &byz),
            "n={n} seed={seed}: a {}-peer byzantine minority corrupted the honest ring",
            byz.len());
    }

    /// A fraction-0 adversarial run *is* the plain protocol: same rounds,
    /// same converged flag, for any seed — not just the pinned ones the
    /// unit tests check.
    #[test]
    fn fraction_zero_is_plain_protocol(n in 2usize..12, seed in any::<u64>()) {
        let crimes = crate::CrimeSet::single(crate::Crime::LieAboutSuccessor);
        let (out, net) = crate::adversary::run_adversarial(n, seed, 0.0, crimes, 20_000);
        let topo = TopologyKind::Random.generate(n, seed);
        let mut plain = ReChordNetwork::from_topology(&topo, 1);
        let report = plain.run_until_stable(20_000);
        prop_assert!(report.converged);
        prop_assert_eq!(out.byzantine, 0);
        prop_assert!(out.converged);
        prop_assert_eq!(states(&net), states(&plain));
    }
}

/// The peers of the `observably_equal` contract test: a reader, the peer
/// `X` it observes, and a bystander, at fixed ring positions.
const CONTRACT_PEERS: [u64; 3] =
    [0x3000_0000_0000_0000, 0x9000_0000_0000_0000, 0xd000_0000_0000_0000];
const X: usize = 1;

fn contract_ref() -> impl Strategy<Value = NodeRef> {
    (0..CONTRACT_PEERS.len(), 0u8..4)
        .prop_map(|(k, level)| NodeRef { owner: Ident::from_raw(CONTRACT_PEERS[k]), level })
}

fn virtual_state() -> impl Strategy<Value = VirtualState> {
    let refs = || prop::collection::vec(contract_ref(), 0..5);
    (refs(), refs(), refs(), prop::option::of(contract_ref()), prop::option::of(contract_ref()))
        .prop_map(|(nu, nr, nc, rl, rr)| VirtualState {
            nu: nu.into_iter().collect(),
            nr: nr.into_iter().collect(),
            nc: nc.into_iter().collect(),
            rl,
            rr,
        })
}

/// Arbitrary garbage: level 0 plus any of levels 1–3, every field random.
fn peer_state() -> impl Strategy<Value = PeerState> {
    (0u8..8, prop::collection::vec(virtual_state(), 4)).prop_map(|(mask, vs)| PeerState {
        levels: vs
            .into_iter()
            .enumerate()
            .filter(|&(lvl, _)| lvl == 0 || mask & (1 << (lvl - 1)) != 0)
            .map(|(lvl, vs)| (lvl as u8, vs))
            .collect(),
    })
}

/// `a` with `b`'s edge sets, then at most one register of one level
/// rewritten: `(level index, rr rather than rl, new value)`.
fn edges_swapped(
    a: &PeerState,
    b: &PeerState,
    register: Option<(usize, bool, Option<NodeRef>)>,
) -> PeerState {
    let mut out = a.clone();
    for (lvl, vs) in out.levels.iter_mut() {
        let src = b.level(*lvl).cloned().unwrap_or_default();
        (vs.nu, vs.nr, vs.nc) = (src.nu, src.nr, src.nc);
    }
    if let Some((k, right, value)) = register {
        let vs = out.levels.values_mut().nth(k % a.levels.len()).expect("k is reduced into range");
        *if right { &mut vs.rr } else { &mut vs.rl } = value;
    }
    out
}

/// One Re-Chord step of the reader against a view in which `X` holds `x`.
fn step_reader(reader: &PeerState, x: &PeerState, bystander: &PeerState) -> (PeerState, Vec<Msg>) {
    let ids = CONTRACT_PEERS.map(Ident::from_raw);
    let states = [reader.clone(), x.clone(), bystander.clone()];
    let view = RoundView::new(&ids, &states);
    let mut post = reader.clone();
    let mut out = Outbox::new();
    ReChordProtocol::full().step(ids[0], &mut post, &view, &mut out);
    let mut msgs: Vec<Msg> = out.into_inner().into_iter().map(|(_, m)| m).collect();
    msgs.sort_unstable();
    (post, msgs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The contract behind `ReChordProtocol::observably_equal`, which lets
    /// the engine keep a reader's last step when only what the override
    /// ignores changed: whenever it calls two states of `X` equal, a
    /// reader that references `X` steps identically against either. The
    /// second state differs from the first in its edge sets and, half the
    /// time, in one `rl`/`rr` register, so an override that ignored a
    /// register would be caught.
    #[test]
    fn observably_equal_states_step_readers_alike(
        reader in peer_state(),
        x_level in 0u8..4,
        a in peer_state(),
        edges in peer_state(),
        register in prop::option::of((0usize..4, any::<bool>(), prop::option::of(contract_ref()))),
        bystander in peer_state(),
    ) {
        let mut reader = reader;
        let x = Ident::from_raw(CONTRACT_PEERS[X]);
        reader.levels.get_mut(&0).expect("level 0").nu.extend([NodeRef::real(x), NodeRef { owner: x, level: x_level }]);
        let b = edges_swapped(&a, &edges, register);
        if ReChordProtocol::full().observably_equal(&a, &b) {
            prop_assert_eq!(step_reader(&reader, &a, &bystander), step_reader(&reader, &b, &bystander));
        }
    }
}
