//! Integration: the motivation (E10) — classic Chord cannot self-stabilize
//! from loopy weakly connected states; Re-Chord can.

use rechord::chord::ChordNetwork;
use rechord::core::network::ReChordNetwork;
use rechord::id::Ident;
use rechord::topology::TopologyKind;

#[test]
fn classic_chord_stuck_in_loopy_state_rechord_recovers() {
    for n in [10usize, 16, 30] {
        let topo = TopologyKind::DoubleRingBridge.generate(n, n as u64);

        // Classic Chord from the established two-cycle pointer state.
        let mut chord = ChordNetwork::loopy_double_ring(&topo.ids);
        assert_eq!(chord.ring_count(), 2, "n={n}: setup must be two rings");
        let report = chord.run_until_stable(50_000);
        assert!(report.converged, "n={n}: chord should quiesce");
        assert!(chord.ring_count() > 1, "n={n}: chord must remain loopy");

        // Re-Chord from the equivalent knowledge graph.
        let mut rechord = ReChordNetwork::from_topology(&topo, 1);
        let report = rechord.run_until_stable(50_000);
        assert!(report.converged, "n={n}: rechord must converge");
        let audit = rechord.audit();
        assert!(audit.projection_strongly_connected, "n={n}: rechord must merge");
        assert!(audit.missing_unmarked.is_empty());
    }
}

#[test]
fn loopy_chord_lookups_degrade() {
    let topo = TopologyKind::Random.generate(24, 99);
    let mut chord = ChordNetwork::loopy_double_ring(&topo.ids);
    chord.run_until_stable(50_000);
    let keys: Vec<Ident> = (0..64u64).map(|k| Ident::from_raw(k << 57 ^ 0xbeef)).collect();
    let rate = chord.lookup_success_rate(&keys);
    assert!(rate < 0.95, "loopy lookups should miss often, got {rate:.3}");
}

#[test]
fn classic_chord_is_fine_under_plain_churn() {
    // Fairness check: the baseline is a correct Chord — it handles the
    // situations Chord was designed for.
    let topo = TopologyKind::SortedLine.generate(12, 7);
    let mut chord = ChordNetwork::from_topology(&topo);
    chord.run_until_stable(50_000);
    assert_eq!(chord.ring_count(), 1);
    assert!(chord.join_via(Ident::from_raw(0x1357_9bdf_2468_ace0), chord.real_ids()[2]));
    chord.run_until_stable(50_000);
    assert_eq!(chord.ring_count(), 1);
    let victim = chord.real_ids()[5];
    assert!(chord.crash(victim));
    chord.run_until_stable(50_000);
    assert_eq!(chord.ring_count(), 1);
}

#[test]
fn rechord_also_recovers_where_chord_succeeds() {
    // Re-Chord dominates: it succeeds on the baseline's easy cases too.
    let topo = TopologyKind::SortedLine.generate(12, 7);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let report = net.run_until_stable(50_000);
    assert!(report.converged);
    assert!(net.audit().missing_unmarked.is_empty());
}
