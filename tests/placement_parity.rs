//! Integration: the DHT and the workload simulator must compute the *same*
//! replica sets for the same peer snapshot — there is exactly one
//! implementation, in `rechord_placement`, and both consumers delegate to
//! it. (Before the placement engine existed, `KvStore::replica_peers` and
//! the simulator's private copy disagreed in shape; this pins the unified
//! behavior so the duplication cannot creep back.)

use rechord::core::network::ReChordNetwork;
use rechord::core::PeerState;
use rechord::graph::NodeRef;
use rechord::id::{IdSpace, Ident};
use rechord::placement::{Departure, PlacementMap};
use rechord::routing::{KvStore, RoutingTable};

fn stable_table(n: usize, seed: u64) -> RoutingTable {
    let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 1, 50_000);
    assert!(report.converged);
    RoutingTable::from_network(&net)
}

/// Deterministic probe positions spread over the whole ring, including the
/// wrap-around past the largest peer.
fn probe_positions(table: &RoutingTable, seed: u64) -> Vec<Ident> {
    let mut ps: Vec<Ident> = (0..256u64)
        .map(|i| Ident::from_raw(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed))
        .collect();
    // Positions straddling every peer boundary (the off-by-one hotspots).
    for &p in table.peers() {
        ps.push(p);
        ps.push(Ident::from_raw(p.raw().wrapping_add(1)));
        ps.push(Ident::from_raw(p.raw().wrapping_sub(1)));
    }
    ps
}

#[test]
fn kvstore_and_engine_pin_identical_replica_sets() {
    for seed in [1u64, 7, 23] {
        let table = stable_table(14, seed);
        for replication in [1usize, 2, 3, 5, 100] {
            let kv = KvStore::with_replication(table.clone(), IdSpace::new(seed), replication);
            let engine: PlacementMap<()> = PlacementMap::from_peers(table.peers(), replication);
            for pos in probe_positions(&table, seed) {
                let from_kv = kv.replica_peers(pos);
                let from_engine = engine.replica_set(pos);
                assert_eq!(
                    from_kv, from_engine,
                    "replica sets diverged (seed {seed}, r {replication}, pos {pos})"
                );
                // Shape invariants both consumers rely on.
                assert_eq!(from_engine.len(), replication.min(table.peers().len()));
                assert_eq!(from_engine[0], engine.primary_for(pos).unwrap());
            }
        }
    }
}

#[test]
fn replica_sets_stay_identical_through_churn() {
    // The engine's snapshot evolves via deltas, the KvStore's via rebuild;
    // after the same membership change they must still agree everywhere.
    let seed = 11u64;
    let table = stable_table(12, seed);
    let mut kv = KvStore::with_replication(table.clone(), IdSpace::new(seed), 3);
    let mut engine: PlacementMap<()> = PlacementMap::from_peers(table.peers(), 3);

    // A peer departs: rebuild the KvStore on the survivor table, delta the engine.
    let victim = table.peers()[5];
    let survivors: Vec<Ident> = table.peers().iter().copied().filter(|&p| p != victim).collect();
    let mesh = survivors.iter().map(|&a| {
        let others = survivors.iter().filter(|&&b| b != a).map(|&b| NodeRef::real(b));
        (a, PeerState::with_contacts(others))
    });
    kv.rebuild(RoutingTable::from_network(&ReChordNetwork::from_raw_states(mesh, 1)));
    engine.apply_leave(victim, Departure::Crash);
    engine.repair_delta();

    assert_eq!(kv.table().peers(), engine.peers());
    for pos in probe_positions(kv.table(), seed) {
        assert_eq!(kv.replica_peers(pos), engine.replica_set(pos));
    }
}
