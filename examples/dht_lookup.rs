//! A Chord application on top of Re-Chord (Fact 2.1): a consistent-hashing
//! key-value store with greedy O(log n) lookups on the stabilized overlay.
//!
//! ```sh
//! cargo run --release --example dht_lookup
//! ```

use rechord::core::network::{Overlay, ReChordNetwork};
use rechord::core::projection::Projection;
use rechord::id::IdSpace;
use rechord::routing::{KvStore, RoutingTable};

fn main() {
    // Stabilize a 40-peer overlay, then project it and build its routing
    // table.
    let (net, report) = ReChordNetwork::bootstrap_stable(40, 12, 1, 100_000);
    println!("overlay of 40 peers stable after {} rounds", report.rounds_to_stable());

    let overlay = Overlay::new(net.engine().iter());
    let projection = Projection::new(overlay.nodes(), overlay.edges());
    println!(
        "projected overlay: {} peers, {} directed edges, max out-degree {}",
        projection.peer_count(),
        projection.edge_count(),
        projection.max_out_degree()
    );

    let table = RoutingTable::from_network(&net);
    let mut kv = KvStore::new(table, IdSpace::new(777));

    // Store a small catalogue from one peer...
    let via = kv.table().peers()[0];
    let entries = [(1u64, "alpha"), (2, "bravo"), (3, "charlie"), (4, "delta"), (5, "echo")];
    for (key, value) in entries {
        let out = kv.put(via, key, value).expect("network is nonempty");
        assert!(out.routed);
        println!("put  key {key} → stored at peer {} in {} hops", out.responsible, out.hops);
    }

    // ...and read it back from the far side of the ring.
    let reader = *kv.table().peers().last().unwrap();
    println!();
    for (key, expected) in entries {
        let (value, out) = kv.get(reader, key).expect("network is nonempty");
        assert_eq!(value, Some(expected));
        println!(
            "get  key {key} = {expected:8} from peer {} in {} hops",
            out.responsible, out.hops
        );
    }

    // Bulk load to look at consistent hashing's balance.
    for key in 100..600u64 {
        kv.put(via, key, "bulk").expect("routed");
    }
    let (max, mean) = kv.load_balance();
    println!(
        "\nload balance over 505 keys: max {max} per peer, mean {mean:.1} (log-factor imbalance is expected)"
    );
    println!("dht_lookup OK");
}
