//! Visualize self-stabilization: watch the §3.1 proof phases complete
//! round by round, chart the edge populations over time, and dump Graphviz
//! DOT snapshots of the initial and final overlays.
//!
//! ```sh
//! cargo run --release --example visualize
//! # then e.g.:  dot -Tsvg results/final.dot -o final.svg
//! ```

use rechord::analysis::{AsciiChart, Series};
use rechord::core::network::{Overlay, ReChordNetwork};
use rechord::core::oracle::StableTopology;
use rechord::core::phases::PhaseStatus;
use rechord::core::NetworkMetrics;
use rechord::graph::dot::{to_dot, DotStyle};
use rechord::topology::TopologyKind;

fn main() {
    let n = 16;
    let topo = TopologyKind::RandomLine.generate(n, 99);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let target = StableTopology::new(&topo.ids);

    std::fs::create_dir_all("results").expect("mkdir results");
    let render = |net: &ReChordNetwork, name: &str| {
        let overlay = Overlay::new(net.engine().iter());
        to_dot(
            overlay.nodes(),
            overlay.edges(),
            &DotStyle { name: name.into(), ..Default::default() },
        )
    };
    std::fs::write("results/initial.dot", render(&net, "initial")).expect("write initial.dot");

    // Per-round observation: edge populations + phase completion.
    let (mut rounds, mut normal, mut conn, mut phases_done) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_true = [None; 5];
    let report = net.engine_mut().run_until_fixpoint_observed(10_000, |round, _, engine| {
        let m = NetworkMetrics::of(engine);
        let status = PhaseStatus::new(&target, engine);
        rounds.push(round as f64);
        normal.push(m.normal_edges() as f64);
        conn.push(m.connection_edges() as f64);
        phases_done.push(status.completed_prefix() as f64);
        for (first, holds) in first_true.iter_mut().zip(status.flags()) {
            if holds {
                first.get_or_insert(round);
            }
        }
    });
    assert!(report.converged, "must converge");
    let stable_round = report.rounds;

    println!(
        "{}",
        AsciiChart::new(
            format!("edge populations while stabilizing {n} peers from a random line"),
            72,
            16
        )
        .series(Series::new("normal edges", '#', &rounds, &normal))
        .series(Series::new("connection edges", '.', &rounds, &conn))
        .render()
    );
    println!(
        "{}",
        AsciiChart::new("§3.1 proof phases completed (prefix of 5)", 72, 8)
            .series(Series::new("phases done", 'P', &rounds, &phases_done))
            .render()
    );

    println!("stable after {stable_round} rounds; phase milestones:");
    for (k, name) in
        ["connection", "linearization", "ring", "closest-real", "cleanup"].iter().enumerate()
    {
        println!("  phase {} ({name:13}) first holds at round {:?}", k + 1, first_true[k]);
    }

    std::fs::write("results/final.dot", render(&net, "stable")).expect("write final.dot");
    println!("\nwrote results/initial.dot and results/final.dot (render with `dot -Tsvg`)");
}
