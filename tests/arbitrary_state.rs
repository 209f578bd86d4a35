//! Integration: self-stabilization from **arbitrary states** — not just
//! clean knowledge graphs. Theorem 1.1 promises recovery "from any initial
//! state in which the n peers are weakly connected"; transient faults can
//! corrupt *every* field of peer state (wrong virtual levels, garbage edge
//! sets of all three classes, stale closest-real registers, self-references,
//! references to nonexistent levels). This suite fuzzes exactly that.

use proptest::prelude::*;
use rechord::core::network::ReChordNetwork;
use rechord::core::{PeerState, RefSet, VirtualState};
use rechord::graph::NodeRef;
use rechord::id::Ident;

/// Strategy: a corrupted peer state over the given peer population.
fn corrupted_state(peers: Vec<Ident>) -> impl Strategy<Value = PeerState> {
    let peers2 = peers.clone();
    (
        prop::collection::btree_set(0u8..12, 0..5), // extra levels beyond 0
        prop::collection::vec(
            (0..peers.len(), 0u8..14, 0usize..3), // (peer idx, level, class)
            0..18,
        ),
        prop::option::of((0..peers.len(), proptest::bool::ANY)),
    )
        .prop_map(move |(levels, edges, register)| {
            let mut st = PeerState::new();
            for l in levels {
                if l > 0 {
                    st.levels.insert(l, VirtualState::default());
                }
            }
            let my_levels: Vec<u8> = st.levels.keys().copied().collect();
            for (k, (pidx, lvl, class)) in edges.into_iter().enumerate() {
                let target = NodeRef { owner: peers2[pidx], level: lvl % 15 };
                let at = my_levels[k % my_levels.len()];
                let vs = st.levels.get_mut(&at).expect("level exists");
                match class {
                    0 => vs.nu.insert(target),
                    1 => vs.nr.insert(target),
                    _ => vs.nc.insert(target),
                };
            }
            if let Some((pidx, left)) = register {
                let r = NodeRef::real(peers2[pidx]);
                let vs = st.levels.get_mut(&0).expect("level 0");
                if left {
                    vs.rl = Some(r); // possibly *wrong side* — must be repaired
                } else {
                    vs.rr = Some(r);
                }
            }
            st
        })
}

/// Strategy: a whole corrupted network over `n` peers, guaranteed weakly
/// connected by threading a spanning chain through level-0 knowledge.
fn corrupted_network(n: usize) -> impl Strategy<Value = Vec<(Ident, PeerState)>> {
    prop::collection::btree_set(any::<u64>(), n).prop_flat_map(move |raw_ids| {
        let peers: Vec<Ident> = raw_ids.into_iter().map(Ident::from_raw).collect();
        let peers2 = peers.clone();
        prop::collection::vec(corrupted_state(peers.clone()), n).prop_map(move |mut states| {
            // weak-connectivity floor: peer k knows peer k+1
            for k in 0..peers2.len().saturating_sub(1) {
                states[k]
                    .levels
                    .get_mut(&0)
                    .expect("level 0")
                    .nu
                    .insert(NodeRef::real(peers2[k + 1]));
            }
            peers2.iter().copied().zip(states).collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// From any corrupted-but-weakly-connected state, the network reaches
    /// the Re-Chord topology.
    #[test]
    fn recovers_from_corrupted_states(states in corrupted_network(8)) {
        let mut net = ReChordNetwork::from_raw_states(states, 1);
        let report = net.run_until_stable(50_000);
        prop_assert!(report.converged, "did not converge");
        let audit = net.audit();
        prop_assert!(audit.missing_unmarked.is_empty(),
            "missing desired edges: {:?}", audit.missing_unmarked);
        prop_assert!(audit.extra_unmarked.is_empty(),
            "spurious unmarked edges: {:?}", audit.extra_unmarked);
        prop_assert!(audit.weakly_connected);
        prop_assert!(audit.projection_strongly_connected);
    }

    /// Corruption of a *stable* network (a burst of transient faults) is
    /// also repaired.
    #[test]
    fn recovers_from_corruption_of_stable_network(seed in any::<u64>(),
                                                  garbage in corrupted_state(
                                                      vec![Ident::from_raw(1)])) {
        let (mut net, report) = ReChordNetwork::bootstrap_stable(10, seed, 1, 50_000);
        prop_assume!(report.converged);
        // smash one peer's state with the generated garbage (rewiring its
        // refs onto a live peer so they are not trivially dropped)
        let victim = net.real_ids()[3];
        let alive = net.real_ids()[7];
        let mut smashed = garbage.clone();
        for vs in smashed.levels.values_mut() {
            let rewrite = |set: &RefSet| {
                set.iter().map(|r| NodeRef { owner: alive, level: r.level }).collect()
            };
            vs.nu = rewrite(&vs.nu);
            vs.nr = rewrite(&vs.nr);
            vs.nc = rewrite(&vs.nc);
        }
        // keep it connected: it still knows one live peer
        smashed.levels.get_mut(&0).expect("level 0").nu.insert(NodeRef::real(alive));
        *net.engine_mut().state_mut(victim).expect("victim lives") = smashed;

        let report = net.run_until_stable(50_000);
        prop_assert!(report.converged);
        let audit = net.audit();
        prop_assert!(audit.missing_unmarked.is_empty(), "{:?}", audit.missing_unmarked);
        prop_assert!(audit.projection_strongly_connected);
    }
}

#[test]
fn pathological_hand_crafted_state_recovers() {
    // Every peer believes a *wrong-side* closest real neighbor, holds ring
    // edges to itself-adjacent garbage and deep phantom levels.
    let ids: Vec<Ident> = (1..=6u64).map(|k| Ident::from_raw(k * 0x2aaa_aaaa_aaaa_aaaa)).collect();
    let states: Vec<(Ident, PeerState)> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let mut st = PeerState::new();
            let vs = st.levels.get_mut(&0).expect("level 0");
            let next = ids[(k + 1) % ids.len()];
            let prev = ids[(k + ids.len() - 1) % ids.len()];
            vs.nu.insert(NodeRef::real(next));
            vs.rl = Some(NodeRef::real(next)); // wrong side
            vs.rr = Some(NodeRef::real(prev)); // wrong side
            vs.nr.insert(NodeRef { owner: prev, level: 13 }); // phantom level
            vs.nc.insert(NodeRef { owner: next, level: 9 }); // phantom level
            (id, st)
        })
        .collect();
    let mut net = ReChordNetwork::from_raw_states(states, 1);
    let report = net.run_until_stable(50_000);
    assert!(report.converged);
    let audit = net.audit();
    assert!(audit.missing_unmarked.is_empty(), "{:?}", audit.missing_unmarked);
    assert!(audit.extra_unmarked.is_empty());
    assert!(audit.ring_pair_present);
}
