//! The motivating scenario: a state that classic Chord can never repair but
//! Re-Chord heals — two interleaved successor rings, weakly connected by a
//! single dormant bridge (the "loopy" states of the Chord literature).
//!
//! ```sh
//! cargo run --release --example partition_heal
//! ```

use rechord::chord::ChordNetwork;
use rechord::core::network::ReChordNetwork;
use rechord::id::Ident;
use rechord::topology::TopologyKind;

fn main() {
    let n = 20;
    let topo = TopologyKind::DoubleRingBridge.generate(n, 31);
    println!("adversarial state: {n} peers in two interleaved rings + one bridge edge\n");

    // --- classic Chord, starting from the established loopy pointer state.
    let mut chord = ChordNetwork::loopy_double_ring(&topo.ids);
    println!("classic Chord: {} successor rings before stabilization", chord.ring_count());
    let report = chord.run_until_stable(50_000);
    let keys: Vec<Ident> = (0..32u64).map(|k| Ident::from_raw(k << 58 ^ 0xdead)).collect();
    println!(
        "classic Chord: quiesced after {} rounds into {} rings; lookup success rate {:.1}%",
        report.rounds,
        chord.ring_count(),
        100.0 * chord.lookup_success_rate(&keys)
    );
    assert!(chord.ring_count() > 1, "classic Chord must stay loopy");

    // --- Re-Chord, from the equivalent knowledge graph.
    let mut rechord = ReChordNetwork::from_topology(&topo, 1);
    let report = rechord.run_until_stable(50_000);
    assert!(report.converged);
    let audit = rechord.audit();
    println!(
        "\nRe-Chord: self-stabilized in {} rounds; one overlay = {}, all desired edges present = {}",
        report.rounds_to_stable(),
        audit.projection_strongly_connected,
        audit.missing_unmarked.is_empty()
    );
    assert!(audit.projection_strongly_connected);
    assert!(audit.missing_unmarked.is_empty());

    println!("\nclassic Chord is stuck with a partitioned overlay; Re-Chord healed it.");
}
