//! Quickstart: build a network from an arbitrary weakly connected state,
//! self-stabilize it, and inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rechord::core::network::ReChordNetwork;
use rechord::core::oracle::StableTopology;
use rechord::core::stability::Comparison;
use rechord::topology::TopologyKind;

fn main() {
    // 32 peers with uniform random identifiers, initially knowing each
    // other only along a random weakly connected graph — the paper's §5
    // starting point. No peer knows the network size or any global state.
    let initial = TopologyKind::Random.generate(32, 2024);
    println!(
        "initial state: {} peers, {} directed knowledge edges, weakly connected = {}",
        initial.len(),
        initial.edges.len(),
        initial.is_weakly_connected()
    );

    let mut net = ReChordNetwork::from_topology(&initial, 1);

    // Drive the six local rules (paper §2.3) to the global fixpoint,
    // watching for the round the "almost stable" milestone is passed
    // (Figure 6): every edge of the stable topology exists.
    let target = StableTopology::new(&initial.ids);
    let mut almost = None;
    let report = net.engine_mut().run_until_fixpoint_observed(100_000, |round, _, engine| {
        if almost.is_none() && Comparison::new(&target, engine).almost_stable() {
            almost = Some(round);
        }
    });
    println!(
        "self-stabilized in {} rounds (almost stable after {:?} rounds), {} messages",
        report.rounds_to_stable(),
        almost,
        report.total_messages
    );

    // What did we converge to?
    let m = net.metrics();
    println!(
        "stable overlay: {} real + {} virtual nodes, {} normal edges, {} connection edges",
        m.real_nodes,
        m.virtual_nodes,
        m.normal_edges(),
        m.connection_edges()
    );

    // Audit against the oracle topology (what the stable state must be).
    let audit = net.audit();
    println!("desired edges missing:        {}", audit.missing_unmarked.len());
    println!("spurious unmarked edges:      {}", audit.extra_unmarked.len());
    println!("extremal ring edges present:  {}", audit.ring_pair_present);
    println!("projection strongly connected: {}", audit.projection_strongly_connected);
    println!(
        "Chord subgraph (Fact 2.1):     {:.1}% of Chord edges realized directly, {} wrap edges via ring chain",
        100.0 * audit.chord.fraction(),
        audit.chord.missing_wrap.len()
    );
    assert!(audit.missing_unmarked.is_empty(), "stable state must contain all desired edges");
    assert!(audit.chord.missing_linear.is_empty(), "all non-wrap Chord edges must be realized");

    println!("\nquickstart OK");
}
