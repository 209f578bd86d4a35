//! A consistent-hashing key-value store on the Re-Chord overlay — the kind
//! of application Chord was built for (§1 of the Chord paper), running
//! unchanged on Re-Chord per Fact 2.1.
//!
//! Routing (who answers) lives here; placement (who *stores*) is delegated
//! to the shared [`PlacementMap`] engine, so the replica-set arithmetic is
//! the same one the workload simulator uses and repair after churn is
//! incremental — O(moved keys), not O(all keys).

use crate::greedy::{route, RoutingTable};
use rechord_id::{IdSpace, Ident};
use rechord_placement::{Departure, PlacementMap, RepairStats};
use std::collections::BTreeSet;

/// What a `get`/`put` experienced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Peer that stores (or would store) the key.
    pub responsible: Ident,
    /// Overlay hops the request took from the querying peer.
    pub hops: usize,
    /// Did routing reach the responsible peer?
    pub routed: bool,
}

/// A DHT view over a *stable* overlay snapshot: keys are hashed onto the
/// ring and stored at their cyclic-successor peer (optionally replicated to
/// the following peers, as Chord's successor-list replication does);
/// requests are routed greedily from a querying peer. The store models the
/// application layer, so it lives outside the protocol state; after churn
/// the overlay re-stabilizes and the application [`KvStore::rebuild`]s its
/// routing view, keeping surviving peers' data.
#[derive(Debug)]
pub struct KvStore {
    table: RoutingTable,
    space: IdSpace,
    placement: PlacementMap<String>,
    /// Monotone write counter: the version stream the engine orders
    /// last-write-wins by.
    writes: u64,
}

impl KvStore {
    /// Creates an empty store over a routing table. `space` maps raw keys
    /// onto the identifier ring.
    pub fn new(table: RoutingTable, space: IdSpace) -> Self {
        Self::with_replication(table, space, 1)
    }

    /// Like [`KvStore::new`] with each key stored at the responsible peer
    /// and its `replication - 1` cyclic successors (Chord's successor-list
    /// replication; `replication` is clamped to at least 1).
    pub fn with_replication(table: RoutingTable, space: IdSpace, replication: usize) -> Self {
        let placement = PlacementMap::from_peers(table.peers(), replication);
        KvStore { table, space, placement, writes: 0 }
    }

    /// The responsible peer plus its replication successors for a ring
    /// position, deduplicated (small networks may have fewer peers than
    /// replicas). Delegates to the one engine implementation shared with
    /// the workload simulator.
    pub fn replica_peers(&self, pos: Ident) -> Vec<Ident> {
        self.placement.replica_set(pos)
    }

    /// Swaps in a freshly stabilized routing view: peers that vanished are
    /// treated as crashes (their copies die with them), new peers join, and
    /// an incremental repair re-replicates exactly the keys whose replica
    /// sets changed — O(moved keys), not O(all keys). Returns what the
    /// repair did.
    pub fn rebuild(&mut self, table: RoutingTable) -> RepairStats {
        let fresh: BTreeSet<Ident> = table.peers().iter().copied().collect();
        let old: Vec<Ident> = self.placement.peers().to_vec();
        for peer in old.iter().filter(|p| !fresh.contains(p)) {
            self.placement.apply_leave(*peer, Departure::Crash);
        }
        let old: BTreeSet<Ident> = old.into_iter().collect();
        for &peer in table.peers().iter().filter(|p| !old.contains(p)) {
            self.placement.apply_join(peer);
        }
        self.table = table;
        self.placement.repair_delta()
    }

    /// The routing table in use.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The placement engine underneath (replica sets, loads, repair state).
    pub fn placement(&self) -> &PlacementMap<String> {
        &self.placement
    }

    /// Stores `value` under `key`, issued from peer `via`. Returns the
    /// outcome; the value is stored (at the responsible peer and its
    /// replicas) only when routing succeeded.
    pub fn put(&mut self, via: Ident, key: u64, value: impl Into<String>) -> Option<LookupOutcome> {
        let pos = self.space.key_position(key);
        let responsible = self.table.responsible_for(pos)?;
        let r = route(&self.table, via, pos);
        let outcome = LookupOutcome { responsible, hops: r.hops(), routed: r.success };
        if r.success {
            self.writes += 1;
            self.placement.put(pos, key, self.writes, value.into());
        }
        Some(outcome)
    }

    /// Fetches the value under `key`, issued from peer `via`. On a miss at
    /// the responsible peer (e.g. after churn remapped the key), the
    /// replicas are consulted — each costing one extra hop.
    pub fn get(&self, via: Ident, key: u64) -> Option<(Option<&str>, LookupOutcome)> {
        let pos = self.space.key_position(key);
        let responsible = self.table.responsible_for(pos)?;
        let r = route(&self.table, via, pos);
        let mut outcome = LookupOutcome { responsible, hops: r.hops(), routed: r.success };
        if !r.success {
            return Some((None, outcome));
        }
        let probe = self.placement.lookup(pos, key);
        match probe.hit {
            Some((misses, rec)) => {
                outcome.hops += misses; // successor probes before the hit
                Some((Some(rec.value.as_str()), outcome))
            }
            None => {
                outcome.hops += probe.replicas; // probed the whole window
                Some((None, outcome))
            }
        }
    }

    /// Number of keys stored at `peer`.
    pub fn load_of(&self, peer: Ident) -> usize {
        self.placement.load_of(peer)
    }

    /// `(max load, mean load)` over all peers — consistent hashing's load
    /// balance (`O(log n)` imbalance factor w.h.p.).
    pub fn load_balance(&self) -> (usize, f64) {
        self.placement.load_balance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::RoutingTable;
    use rechord_core::network::ReChordNetwork;
    use rechord_core::state::PeerState;
    use rechord_graph::NodeRef;

    fn store(n: usize, seed: u64) -> KvStore {
        let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 1, 20_000);
        assert!(report.converged);
        let table = RoutingTable::from_network(&net);
        KvStore::new(table, IdSpace::new(seed))
    }

    #[test]
    fn put_then_get_roundtrips() {
        let mut kv = store(12, 5);
        let via = kv.table().peers()[0];
        let other = kv.table().peers()[7];
        for key in 0..50u64 {
            let out = kv.put(via, key, format!("value-{key}")).unwrap();
            assert!(out.routed, "put of {key} must route");
        }
        for key in 0..50u64 {
            let (val, out) = kv.get(other, key).unwrap();
            assert!(out.routed);
            assert_eq!(val, Some(format!("value-{key}").as_str()));
        }
    }

    #[test]
    fn missing_key_returns_none_but_routes() {
        let base = store(6, 9);
        let via = base.table().peers()[1];
        let route_hops = route(base.table(), via, IdSpace::new(9).key_position(999)).hops();
        for replication in [1, 3] {
            let kv = KvStore::with_replication(base.table().clone(), IdSpace::new(9), replication);
            let (val, out) = kv.get(via, 999).unwrap();
            assert!(out.routed);
            assert_eq!(val, None);
            // A full miss charges the whole replica window: one hop more
            // than a hit on the last replica, which costs `replicas - 1`.
            // `NodePeer::serve` copies this charge, while `TrafficSim`
            // charges `replicas - 1` for an acknowledged miss and 0 for a
            // never-written key — a known inconsistency between the three
            // request paths, kept until a benchmark re-record fixes it.
            assert_eq!(out.hops, route_hops + replication);
        }
    }

    #[test]
    fn same_key_same_responsible_peer_from_any_source() {
        let mut kv = store(10, 13);
        let peers = kv.table().peers().to_vec();
        let out1 = kv.put(peers[0], 7, "x").unwrap();
        let out2 = kv.put(peers[5], 7, "y").unwrap();
        assert_eq!(out1.responsible, out2.responsible);
        let (val, _) = kv.get(peers[9], 7).unwrap();
        assert_eq!(val, Some("y"), "last write wins at the same peer");
    }

    #[test]
    fn replication_stores_at_successor_peers() {
        let mut kv = {
            let base = store(10, 23);
            KvStore::with_replication(base.table().clone(), IdSpace::new(23), 3)
        };
        let via = kv.table().peers()[0];
        kv.put(via, 11, "replicated").unwrap();
        let pos = IdSpace::new(23).key_position(11);
        let replicas = kv.replica_peers(pos);
        assert_eq!(replicas.len(), 3);
        for peer in &replicas {
            assert_eq!(kv.load_of(*peer), 1, "replica {peer} must hold the key");
        }
    }

    #[test]
    fn rebuild_drops_dead_peers_and_replicas_answer() {
        let base = store(10, 29);
        let space = IdSpace::new(29);
        let mut kv = KvStore::with_replication(base.table().clone(), space, 3);
        let via = kv.table().peers()[0];
        for key in 0..40u64 {
            assert!(kv.put(via, key, format!("v{key}")).unwrap().routed);
        }
        // Simulate the primary of key 7 dying: rebuild with a table lacking it.
        let pos = space.key_position(7);
        let primary = kv.replica_peers(pos)[0];
        let survivors: Vec<Ident> =
            kv.table().peers().iter().copied().filter(|&p| p != primary).collect();
        // Build a fully-connected routing table over the survivors (the
        // overlay re-stabilizes; here the graph detail is irrelevant).
        let mesh = survivors.iter().map(|&a| {
            let others = survivors.iter().filter(|&&b| b != a).map(|&b| NodeRef::real(b));
            (a, PeerState::with_contacts(others))
        });
        kv.rebuild(RoutingTable::from_network(&ReChordNetwork::from_raw_states(mesh, 1)));
        let reader = kv.table().peers()[0];
        let (value, out) = kv.get(reader, 7).unwrap();
        assert!(out.routed);
        assert_eq!(value, Some("v7"), "a replica must still hold key 7");
    }

    #[test]
    fn replication_survives_minority_crash_churn() {
        // End-to-end survivability: acknowledge writes at replication 2,
        // crash-churn a non-adjacent minority of peers, let the overlay
        // re-stabilize, rebuild the application view — and every
        // acknowledged key must still be readable (the crashed primaries'
        // keys through their successor replicas, including the keys that
        // wrap past the largest peer onto the smallest).
        let (mut net, report) = ReChordNetwork::bootstrap_stable(12, 37, 1, 50_000);
        assert!(report.converged);
        let space = IdSpace::new(37);
        let mut kv = KvStore::with_replication(RoutingTable::from_network(&net), space, 2);
        let via = kv.table().peers()[0];
        let mut acked = Vec::new();
        for key in 0..150u64 {
            let out = kv.put(via, key, format!("v{key}")).unwrap();
            assert!(out.routed, "stable overlay must route put {key}");
            acked.push(key);
        }
        // Every fourth peer crashes: 3 of 12, no two ring-adjacent, so each
        // key keeps at least one of its two replicas.
        let peers = kv.table().peers().to_vec();
        let victims: Vec<Ident> = peers.iter().copied().step_by(4).collect();
        assert_eq!(victims.len(), 3);
        for v in &victims {
            assert!(net.crash(*v));
        }
        let report = net.run_until_stable(50_000);
        assert!(report.converged, "survivors must re-stabilize");
        kv.rebuild(RoutingTable::from_network(&net));
        assert_eq!(kv.table().peers().len(), 9);
        let reader = kv.table().peers()[1];
        for key in acked {
            let (val, out) = kv.get(reader, key).unwrap();
            assert!(out.routed, "key {key} must route after rebuild");
            assert_eq!(
                val,
                Some(format!("v{key}").as_str()),
                "acknowledged key {key} lost in the crash churn"
            );
        }
    }

    #[test]
    fn replication_clamps_to_population() {
        let base = store(3, 31);
        let kv = KvStore::with_replication(base.table().clone(), IdSpace::new(31), 10);
        let replicas = kv.replica_peers(Ident::from_raw(5));
        assert_eq!(replicas.len(), 3, "cannot replicate past the population");
        let mut dedup = replicas.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), replicas.len());
    }

    #[test]
    fn load_is_spread_across_peers() {
        let mut kv = store(16, 17);
        let via = kv.table().peers()[0];
        for key in 0..400u64 {
            kv.put(via, key, "v").unwrap();
        }
        let (max, mean) = kv.load_balance();
        assert!(mean > 0.0);
        // consistent hashing: no peer should hold everything
        assert!(max < 400, "one peer holds every key");
        // and at least a handful of peers hold something
        let loaded = kv.table().peers().iter().filter(|p| kv.load_of(**p) > 0).count();
        assert!(loaded >= 4, "only {loaded} peers loaded");
    }
}
