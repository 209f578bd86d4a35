//! The figure and theorem experiments: each is one [`Harness::sweep`] over
//! its pinned seeds, a table of the per-point statistics, the `fit` lines
//! that compare the observed shape with the paper's claim, and a CSV.

use rechord_analysis::{fit, AsciiChart, Series, Table};
use rechord_bench::{
    cell, means, stabilized_random, write_table, Harness, MAX_ROUNDS, PAPER_SIZES,
};
use rechord_chord::ChordNetwork;
use rechord_core::ablation::{self, run_ablated};
use rechord_core::network::ReChordNetwork;
use rechord_core::oracle::StableTopology;
use rechord_core::phases::PhaseStatus;
use rechord_core::stability::Comparison;
use rechord_id::{hash_address, Ident};
use rechord_routing::{route, RoutingTable};
use rechord_topology::TopologyKind;

/// The sweep's x axis for the `fit` lines and charts.
fn sizes(points: &[usize]) -> Vec<f64> {
    points.iter().map(|&n| n as f64).collect()
}

/// **Figure 5** — edges and nodes at the stable state vs. number of real
/// nodes: the "normal edges", "connection edges" and "virtual nodes" series,
/// means over 30 random weakly connected graphs per size (paper §5).
///
/// Expected shape (paper): virtual nodes grow slightly super-linearly
/// (Θ(n log n)); normal edges a bit faster than linear; connection edges
/// fastest (≈ c·n·log²n), overtaking normal edges as n grows.
pub fn fig5(h: &Harness) {
    let (trials, threads) = (h.trials, h.threads);
    println!("Figure 5: stable-state edges and nodes ({trials} trials/size, {threads} threads)\n");
    let points = h.sweep(
        trials,
        &PAPER_SIZES,
        |n| 0x5000_0000 + n as u64 * 1000,
        |n, seed| {
            let (net, _) = stabilized_random(n, seed);
            let m = net.metrics();
            [m.normal_edges() as f64, m.connection_edges() as f64, m.virtual_nodes as f64]
        },
    );

    let mut table = Table::new(&[
        "n",
        "normal_edges",
        "conn_edges",
        "virtual_nodes",
        "normal_sd",
        "conn_sd",
        "virt_sd",
    ]);
    for p in &points {
        let [normal, conn, virt] = p.stats;
        table.row(&[
            p.at.to_string(),
            cell(normal.mean, 1),
            cell(conn.mean, 1),
            cell(virt.mean, 1),
            cell(normal.std_dev, 1),
            cell(conn.std_dev, 1),
            cell(virt.std_dev, 1),
        ]);
    }
    table.print();
    println!();

    let ns = sizes(&PAPER_SIZES);
    let (normal_means, conn_means, virt_means) =
        (means(&points, 0), means(&points, 1), means(&points, 2));
    for (label, ys) in [
        ("normal edges", &normal_means),
        ("connection edges", &conn_means),
        ("virtual nodes", &virt_means),
    ] {
        let shape = fit::classify_growth(&ns, ys);
        println!(
            "shape of {label:17}: best fit {:8} (r² = {:.4}); n·log²n r² = {:.4}",
            shape.best(),
            shape.ranking[0].1,
            shape.r2_of("n·log²n").unwrap_or(0.0)
        );
    }
    let crossover = ns
        .iter()
        .zip(normal_means.iter().zip(&conn_means))
        .find(|(_, (nm, cm))| cm > nm)
        .map(|(n, _)| *n);
    match crossover {
        Some(n) => println!("\nconnection edges overtake normal edges at n ≈ {n} (paper: 'increase faster ... as the number of real nodes gets higher')"),
        None => println!("\nno crossover observed in this sweep"),
    }

    println!(
        "\n{}",
        AsciiChart::new("Figure 5: edges and nodes vs real nodes", 72, 18)
            .series(Series::new("normal edges", '#', &ns, &normal_means))
            .series(Series::new("connection edges", '.', &ns, &conn_means))
            .series(Series::new("virtual nodes", 'v', &ns, &virt_means))
            .render()
    );
    write_table("fig5", &table);
}

/// **Figure 6** — number of steps to reach the stable state and the
/// "almost stable" state vs. number of real nodes (means over 30 random
/// graphs per size, paper §5).
///
/// Expected shape (paper): small absolute counts (tens), growing sublinearly
/// ("seem to increase sublinear, or at most linear" — far below the
/// O(n log n) upper bound of Theorem 1.1), with the almost-stable milestone
/// reached well before the stable state.
pub fn fig6(h: &Harness) {
    let (trials, threads) = (h.trials, h.threads);
    println!(
        "Figure 6: rounds to stable / almost-stable ({trials} trials/size, {threads} threads)\n"
    );
    let points = h.sweep(
        trials,
        &PAPER_SIZES,
        |n| 0x6000_0000 + n as u64 * 1000,
        |n, seed| {
            let topo = TopologyKind::Random.generate(n, seed);
            let mut net = ReChordNetwork::from_topology(&topo, 1);
            let target = StableTopology::new(&topo.ids);
            let mut almost = None;
            let report =
                net.engine_mut().run_until_fixpoint_observed(MAX_ROUNDS, |round, _, engine| {
                    if almost.is_none() && Comparison::new(&target, engine).almost_stable() {
                        almost = Some(round);
                    }
                });
            assert!(report.converged, "n={n} seed={seed}");
            let almost = almost.expect("stable ⇒ almost-stable observed");
            [report.rounds_to_stable() as f64, almost as f64]
        },
    );

    let mut table = Table::new(&["n", "stable", "almost", "stable_sd", "almost_sd", "stable_max"]);
    for p in &points {
        let [stable, almost] = p.stats;
        table.row(&[
            p.at.to_string(),
            cell(stable.mean, 1),
            cell(almost.mean, 1),
            cell(stable.std_dev, 1),
            cell(almost.std_dev, 1),
            cell(stable.max, 0),
        ]);
    }
    table.print();
    println!();

    let ns = sizes(&PAPER_SIZES);
    let (stable_means, almost_means) = (means(&points, 0), means(&points, 1));
    for (label, ys) in [("rounds to stable", &stable_means), ("rounds to almost", &almost_means)] {
        let shape = fit::classify_growth(&ns, ys);
        let lin = fit::linear(&ns, ys);
        println!(
            "shape of {label:17}: best fit {:8} (r² = {:.4}); linear slope {:.3}",
            shape.best(),
            shape.ranking[0].1,
            lin.slope
        );
    }
    // the theorem's bound, for contrast
    let bound_ratio: Vec<f64> =
        ns.iter().zip(&stable_means).map(|(n, s)| s / (n * n.log2())).collect();
    println!(
        "\nratio rounds/(n·log n): first {:.3} → last {:.3} (decreasing ⇒ comfortably below the Theorem 1.1 bound)",
        bound_ratio.first().unwrap(),
        bound_ratio.last().unwrap()
    );
    let earlier = stable_means.iter().zip(&almost_means).all(|(s, a)| a <= s);
    println!("almost-stable precedes stable in every size: {earlier}");

    println!(
        "\n{}",
        AsciiChart::new("Figure 6: rounds to stable / almost-stable vs real nodes", 72, 14)
            .series(Series::new("rounds to stable", '#', &ns, &stable_means))
            .series(Series::new("rounds to almost-stable", '.', &ns, &almost_means))
            .render()
    );
    write_table("fig6", &table);
}

/// **Figure 7** — total number of edges vs. total number of nodes in the
/// final (stable) graph: one scatter point per run, up to ≈1000 total nodes
/// (paper §5).
///
/// Expected shape (paper): the total edge count grows at a rate comparable
/// to the total node count (near-linear scatter with a log-factor drift
/// from the connection edges).
pub fn fig7(h: &Harness) {
    let trials = h.trials.min(10); // scatter needs fewer repeats
    println!("Figure 7: total edges vs total nodes in the final graph ({trials} trials/size)\n");
    let points = h.sweep(
        trials,
        &PAPER_SIZES,
        |n| 0x7000_0000 + n as u64 * 1000,
        |n, seed| {
            let (net, _) = stabilized_random(n, seed);
            let m = net.metrics();
            [m.total_nodes() as f64, m.total_edges() as f64]
        },
    );

    let mut table = Table::new(&["n_real", "total_nodes", "total_edges"]);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for p in &points {
        for &[nodes, edges] in &p.raw {
            table.row(&[p.at.to_string(), cell(nodes, 0), cell(edges, 0)]);
            xs.push(nodes);
            ys.push(edges);
        }
    }
    table.print();

    let lin = fit::linear(&xs, &ys);
    println!(
        "\nedges ≈ {:.2} × nodes + {:.1}   (r² = {:.4}; paper: edges grow at a rate comparable to nodes)",
        lin.slope, lin.intercept, lin.r_squared
    );
    println!(
        "max total nodes observed: {:.0} (paper's axis reaches ~1000)",
        xs.iter().copied().fold(0.0f64, f64::max)
    );
    println!(
        "\n{}",
        AsciiChart::new("Figure 7: total edges vs total nodes (scatter)", 72, 16)
            .series(Series::new("one run", '*', &xs, &ys))
            .render()
    );
    write_table("fig7", &table);
}

/// **Lemma 3.1** — the number of virtual nodes between two consecutive real
/// nodes is `O(log n)` w.h.p., and the total node count is `Θ(n log n)`.
pub fn lemma31(h: &Harness) {
    let trials = h.trials;
    println!("Lemma 3.1: virtual nodes per real gap and total node count ({trials} trials/size)\n");
    let points = h.sweep(
        trials,
        &PAPER_SIZES,
        |n| 0x1e31 + n as u64 * 131,
        |n, seed| {
            let (net, _) = stabilized_random(n, seed);
            let m = net.metrics();
            [m.max_virtuals_per_gap as f64, m.mean_virtuals_per_gap, m.total_nodes() as f64]
        },
    );

    let mut table = Table::new(&["n", "max_per_gap", "mean_per_gap", "total_nodes", "log2(n)"]);
    for p in &points {
        let [max_gap, mean_gap, total] = p.stats;
        table.row(&[
            p.at.to_string(),
            cell(max_gap.mean, 1),
            cell(mean_gap.mean, 2),
            cell(total.mean, 1),
            cell((p.at as f64).log2(), 2),
        ]);
    }
    table.print();

    let ns = sizes(&PAPER_SIZES);
    let gap_shape = fit::classify_growth(&ns, &means(&points, 0));
    let total_shape = fit::classify_growth(&ns, &means(&points, 2));
    println!(
        "\nmax virtuals per gap: best fit {} (r² = {:.4}) — lemma says O(log n), r²(log n) = {:.4}",
        gap_shape.best(),
        gap_shape.ranking[0].1,
        gap_shape.r2_of("log n").unwrap_or(0.0)
    );
    println!(
        "total nodes:          best fit {} (r² = {:.4}) — lemma says Θ(n log n), r²(n·log n) = {:.4}",
        total_shape.best(),
        total_shape.ranking[0].1,
        total_shape.r2_of("n·log n").unwrap_or(0.0)
    );
    write_table("lemma31", &table);
}

/// **Theorem 1.1** — self-stabilization from *any* weakly connected state in
/// `O(n log n)` rounds: convergence sweep across adversarial topology
/// families, with the observed/bound ratio.
pub fn convergence(h: &Harness) {
    let trials = h.trials.min(15);
    println!(
        "Theorem 1.1: convergence from adversarial weakly connected states ({trials} trials)\n"
    );
    let grid: Vec<(TopologyKind, usize)> = TopologyKind::ALL
        .into_iter()
        .flat_map(|kind| [8usize, 16, 32, 64].map(|n| (kind, n)))
        .collect();
    let points = h.sweep(
        trials,
        &grid,
        |(_, n)| 0xc0 + n as u64 * 977,
        |(kind, n), seed| {
            let topo = kind.generate(n, seed);
            let mut net = ReChordNetwork::from_topology(&topo, 1);
            let report = net.run_until_stable(MAX_ROUNDS);
            assert!(report.converged, "{} n={n} seed={seed}", kind.name());
            let audit = net.audit();
            let clean = audit.missing_unmarked.is_empty()
                && audit.chord.missing_linear.is_empty()
                && audit.weakly_connected;
            [report.rounds_to_stable() as f64, f64::from(clean)]
        },
    );

    let mut table =
        Table::new(&["topology", "n", "rounds_mean", "rounds_max", "per_nlogn", "clean"]);
    for p in &points {
        let ((kind, n), [rounds, clean]) = (p.at, p.stats);
        let bound = n as f64 * (n as f64).log2();
        table.row(&[
            kind.name().to_string(),
            n.to_string(),
            cell(rounds.mean, 1),
            cell(rounds.max, 0),
            cell(rounds.mean / bound, 3),
            (clean.min == 1.0).to_string(),
        ]);
    }
    table.print();
    println!("\nper_nlogn is the mean rounds divided by n·log2(n): bounded and shrinking ⇒ within the theorem's envelope.");
    write_table("convergence", &table);
}

/// Applies `event` to a fresh stable network and measures (integration
/// rounds, fixpoint rounds, peer-steps summed to the fixpoint).
fn churn_cost(n: usize, seed: u64, event: impl FnOnce(&mut ReChordNetwork)) -> (f64, f64, f64) {
    let (mut net, _) = stabilized_random(n, seed);
    event(&mut net);
    let target = StableTopology::new(&net.real_ids());
    let mut integ = Comparison::new(&target, net.engine()).almost_stable().then_some(0);
    let mut steps = 0;
    let report = net.engine_mut().run_until_fixpoint_observed(MAX_ROUNDS, |round, out, engine| {
        steps += out.stepped;
        if integ.is_none() && Comparison::new(&target, engine).almost_stable() {
            integ = Some(round);
        }
    });
    assert!(report.converged, "n={n} seed={seed} did not re-stabilize");
    let integ = integ.expect("the fixpoint is almost stable");
    (integ as f64, report.rounds_to_stable() as f64, steps as f64)
}

/// **Theorems 4.1 / 4.2** — re-stabilization cost of isolated churn:
/// a join into a stable network re-integrates in `O(log² n)` rounds; a
/// graceful leave or crash in `O(log n)` rounds.
///
/// The theorems' criterion is *structural integration* — "every node has
/// stable next and next real neighbors and all virtual nodes are created" —
/// which is exactly the almost-stable milestone (`integ_*` columns). The
/// `fix_*` columns additionally wait for the global fixpoint, i.e. for the
/// in-flight ring/connection streams to settle into their new steady
/// pattern (the paper likewise notes leftover "unnecessary edges ... will
/// be eliminated after at most O(n log n) rounds" beyond integration).
///
/// The `steps_*` columns restate the theorems as a cost: the peer-steps
/// the engine runs from the event to the fixpoint. The event changes
/// membership, so every peer steps in the first round after it; from then
/// on only the peers whose inputs changed do.
pub fn join_leave(h: &Harness) {
    let trials = h.trials;
    println!("Theorems 4.1/4.2: isolated join / leave / crash ({trials} trials/size)\n");
    let points = h.sweep(
        trials,
        &PAPER_SIZES,
        |n| 0x4a00_0000 + n as u64 * 1000,
        |n, seed| {
            let join = churn_cost(n, seed, |net| {
                let ids = net.real_ids();
                let contact = ids[(seed as usize) % ids.len()];
                let joiner = hash_address(seed ^ 0xfeed_beef, 0x1234);
                assert!(net.join_via(joiner, contact));
            });
            let leave = churn_cost(n, seed ^ 0x55aa, |net| {
                let ids = net.real_ids();
                assert!(net.graceful_leave(ids[(seed as usize / 7) % ids.len()]));
            });
            let crash = churn_cost(n, seed ^ 0x33cc, |net| {
                let ids = net.real_ids();
                assert!(net.crash(ids[(seed as usize / 3) % ids.len()]));
            });
            [join.0, leave.0, crash.0, join.1, leave.1, crash.1, join.2, leave.2, crash.2]
        },
    );

    let mut table = Table::new(&[
        "n",
        "integ_join",
        "integ_leave",
        "integ_crash",
        "fix_join",
        "fix_leave",
        "fix_crash",
        "steps_join",
        "steps_leave",
        "steps_crash",
        "log2n",
        "log2n^2",
    ]);
    for p in &points {
        let l2 = (p.at as f64).log2();
        let mut row = vec![p.at.to_string()];
        row.extend(p.stats.iter().map(|s| cell(s.mean, 1)));
        row.extend([cell(l2, 2), cell(l2 * l2, 1)]);
        table.row(&row);
    }
    table.print();
    println!();

    let ns = sizes(&PAPER_SIZES);
    for (label, k, bound) in [
        ("join  integration", 0, "log²n"),
        ("leave integration", 1, "log n"),
        ("crash integration", 2, "log n"),
    ] {
        let shape = fit::classify_growth(&ns, &means(&points, k));
        println!(
            "shape of {label}: best fit {:8} (r² = {:.4}); theorem bound O({bound}), r²({bound}) = {:.4}",
            shape.best(),
            shape.ranking[0].1,
            shape.r2_of(bound).unwrap_or(0.0)
        );
    }
    let log_ns: Vec<f64> = ns.iter().map(|n| n.ln()).collect();
    for (label, k) in [("join  peer-steps", 6), ("leave peer-steps", 7), ("crash peer-steps", 8)] {
        let steps = means(&points, k);
        let shape = fit::classify_growth(&ns, &steps);
        let log_steps: Vec<f64> = steps.iter().map(|s| s.ln()).collect();
        println!(
            "shape of {label}: best fit {:8} (r² = {:.4}); log-log slope {:.2} (1 is linear: the first round alone steps all n peers)",
            shape.best(),
            shape.ranking[0].1,
            fit::linear(&log_ns, &log_steps).slope
        );
    }
    println!("\n(n and polylog(n) are weakly separable on an 8-point sweep up to n=105; the load-bearing observation is the absolute scale — integration takes a handful of rounds, far below the cold-start figures of fig6.)");
    write_table("join_leave", &table);
}

/// **§3.1 phase timeline** — the proof divides convergence into five phases
/// (connection, linearization, ring, closest-real, cleanup). This measures
/// the first round at which each phase predicate holds, showing how the
/// phases actually overlap in execution.
pub fn phases(h: &Harness) {
    let trials = h.trials.min(15);
    println!("Proof-phase timeline (first round each §3.1 phase predicate holds; {trials} trials/size)\n");
    let points = h.sweep(
        trials,
        &[5usize, 15, 35, 65, 105],
        |n| 0x9a5e + n as u64 * 71,
        |n, seed| {
            let topo = TopologyKind::Random.generate(n, seed);
            let mut net = ReChordNetwork::from_topology(&topo, 1);
            let target = StableTopology::new(&topo.ids);
            let mut first = [None; 5];
            let report =
                net.engine_mut().run_until_fixpoint_observed(MAX_ROUNDS, |round, _, engine| {
                    for (first, holds) in
                        first.iter_mut().zip(PhaseStatus::new(&target, engine).flags())
                    {
                        if holds {
                            first.get_or_insert(round);
                        }
                    }
                });
            assert!(report.converged, "must converge");
            let first = first.map(|round| round.expect("every phase holds at the fixpoint") as f64);
            [first[0], first[1], first[2], first[3], first[4], report.rounds as f64]
        },
    );

    let mut table = Table::new(&[
        "n",
        "p1_connect",
        "p2_linearize",
        "p3_ring",
        "p4_real_nbrs",
        "p5_cleanup",
        "stable",
    ]);
    for p in &points {
        let mut row = vec![p.at.to_string()];
        row.extend(p.stats.iter().map(|s| cell(s.mean, 1)));
        table.row(&row);
    }
    table.print();
    println!("\nthe proof treats the phases sequentially as a worst case; execution overlaps them heavily (all milestones land well before the fixpoint).");
    write_table("phases", &table);
}

/// **Ablation** — which of the six rules are load-bearing? Runs the
/// protocol with each of rules 2–6 individually disabled on random weakly
/// connected instances and reports what breaks (not a paper figure, but
/// the paper's §2.3 motivates every rule).
///
/// Besides fixpoint convergence and desired-edge completeness, two
/// application-level probes expose subtler damage:
///
/// * `ring_pair` — did rule 5 close the `[0,1)` wrap-around?
/// * `wrap_lookups` — fraction of lookups that must cross the `0/1`
///   boundary and still succeed (they need the ring closure).
pub fn ablation(h: &Harness) {
    let trials = h.trials.min(10);
    let n = 24usize;
    let budget = 5_000u64;
    println!("Rule ablation at n={n} ({trials} trials, {budget}-round budget)\n");

    let mut rules = vec![None];
    rules.extend((2u8..=6).map(Some));
    let points = h.sweep(
        trials,
        &rules,
        |_| 0xab1a + n as u64,
        |rule, seed| {
            let (out, net) = run_ablated(rule, n, seed, budget);
            // wrap-routing probe: from the last (largest) peer, look up keys
            // just past 0 — greedy progress must cross the boundary.
            let t = RoutingTable::from_network(&net);
            let peers = t.peers().to_vec();
            let (mut wrap_ok, mut wrap_total) = (0usize, 0usize);
            if let (Some(&src), Some(&first)) = (peers.last(), peers.first()) {
                for k in 0..8u64 {
                    // keys in (src, first]: strictly beyond the max peer
                    let key = Ident::from_raw(
                        src.raw().wrapping_add(1 + k % first.raw().wrapping_sub(src.raw()).max(1)),
                    );
                    wrap_total += 1;
                    if route(&t, src, key).success {
                        wrap_ok += 1;
                    }
                }
            }
            [
                f64::from(out.converged),
                out.rounds as f64,
                out.missing_desired as f64,
                f64::from(out.overlay_connected),
                f64::from(out.ring_pair_present),
                wrap_ok as f64,
                wrap_total as f64,
            ]
        },
    );

    let mut table = Table::new(&[
        "rules",
        "converged",
        "rounds_mean",
        "missing_desired",
        "overlay_conn",
        "ring_pair",
        "wrap_lookups",
    ]);
    for p in &points {
        table.row(&[
            ablation::label(p.at).to_string(),
            format!("{}/{trials}", p.sum(0)),
            cell(p.stats[1].mean, 1),
            cell(p.stats[2].mean, 1),
            format!("{}/{trials}", p.sum(3)),
            format!("{}/{trials}", p.sum(4)),
            cell(p.sum(5) / p.sum(6).max(1.0), 2),
        ]);
    }
    table.print();
    println!("\nrules 3 and 4 are existential (no Re-Chord topology without them); rule 5 is what makes the wrap-around routable; rule 2 accelerates finger placement and rule 6 insures sibling connectivity against level churn (its failure mode needs virtual-island states that random knowledge graphs rarely produce).");
    write_table("ablation", &table);
}

/// **E10 (motivation)** — classic Chord is not self-stabilizing; Re-Chord
/// is. Both protocols face the canonical loopy state (two interleaved
/// successor cycles, weakly connected by one dormant bridge) and random
/// weakly connected states.
pub fn baseline_compare(h: &Harness) {
    let trials = h.trials.min(10);
    println!("Baseline comparison: classic Chord vs Re-Chord on adversarial states ({trials} trials/size)\n");
    let points = h.sweep(
        trials,
        &[8usize, 16, 32, 64],
        |n| 0xba5e + n as u64 * 211,
        |n, seed| {
            // identical identifier sets for both systems
            let topo = TopologyKind::DoubleRingBridge.generate(n, seed);

            // classic Chord from the established loopy pointer state
            let mut chord = ChordNetwork::loopy_double_ring(&topo.ids);
            chord.run_until_stable(MAX_ROUNDS);
            let keys: Vec<Ident> = (0..32u64)
                .map(|k| Ident::from_raw(k.wrapping_mul(0x0809_7a5b_3c2d_1e0f)))
                .collect();
            let lookup_ok = chord.lookup_success_rate(&keys);

            // Re-Chord from the equivalent knowledge graph
            let mut rechord = ReChordNetwork::from_topology(&topo, 1);
            let report = rechord.run_until_stable(MAX_ROUNDS);
            assert!(report.converged);
            let audit = rechord.audit();
            let healthy = audit.missing_unmarked.is_empty()
                && audit.projection_strongly_connected
                && audit.weakly_connected;

            [
                chord.ring_count() as f64,
                lookup_ok,
                report.rounds_to_stable() as f64,
                f64::from(healthy),
            ]
        },
    );

    let mut table = Table::new(&[
        "n",
        "chord_rings_after",
        "chord_lookup_ok",
        "rechord_rounds",
        "rechord_one_overlay",
    ]);
    for p in &points {
        let [rings, lookups, rounds, healthy] = p.stats;
        table.row(&[
            p.at.to_string(),
            cell(rings.mean, 1),
            cell(lookups.mean, 3),
            cell(rounds.mean, 1),
            (healthy.min == 1.0).to_string(),
        ]);
    }
    table.print();
    println!("\nclassic Chord quiesces with >1 successor ring and degraded lookups; Re-Chord always merges to one overlay (rechord_one_overlay = audit passed).");
    write_table("baseline_compare", &table);
}

/// **§1.1 / Fact 2.1** — Chord emulation on the stabilized overlay:
/// greedy lookups take `O(log n)` hops, and the stable Re-Chord projection
/// realizes the Chord edge set (wrap-around edges via the ring chain).
pub fn routing(h: &Harness) {
    let trials = h.trials.min(10);
    let grid = [8usize, 16, 32, 64, 105];
    let lookups_per_net = 64usize;
    println!(
        "Routing on the stable overlay ({trials} trials/size, {lookups_per_net} lookups each)\n"
    );
    let points = h.sweep(
        trials,
        &grid,
        |n| 0x40u64 + n as u64 * 313,
        |n, seed| {
            let (net, _) = stabilized_random(n, seed);
            let coverage = net.audit().chord;
            let t = RoutingTable::from_network(&net);
            let peers = t.peers().to_vec();
            let (mut hops_sum, mut hops_max, mut successes) = (0usize, 0usize, 0usize);
            for k in 0..lookups_per_net as u64 {
                let src = peers[(seed.wrapping_add(k) as usize) % peers.len()];
                let key =
                    Ident::from_raw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k << 32));
                let r = route(&t, src, key);
                if r.success {
                    successes += 1;
                }
                hops_sum += r.hops();
                hops_max = hops_max.max(r.hops());
            }
            [
                hops_sum as f64,
                hops_max as f64,
                successes as f64,
                coverage.fraction(),
                coverage.missing_wrap.len() as f64,
            ]
        },
    );

    let mut table = Table::new(&[
        "n",
        "hops_mean",
        "hops_max",
        "log2(n)",
        "success",
        "chord_cov",
        "wrap_missing",
    ]);
    // Hop counts are small integers, so the per-trial sums add up exactly:
    // the mean over all lookups of a size is their total over the count.
    let total_lookups = (trials * lookups_per_net) as f64;
    let hop_means: Vec<f64> = points.iter().map(|p| p.sum(0) / total_lookups).collect();
    for (p, hops_mean) in points.iter().zip(&hop_means) {
        table.row(&[
            p.at.to_string(),
            cell(*hops_mean, 2),
            cell(p.stats[1].max, 0),
            cell((p.at as f64).log2(), 2),
            cell(p.sum(2) / total_lookups, 3),
            cell(p.stats[3].mean, 3),
            cell(p.sum(4) / trials as f64, 1),
        ]);
    }
    table.print();

    let shape = fit::classify_growth(&sizes(&grid), &hop_means);
    println!(
        "\nhop growth: best fit {} (r² = {:.4}); r²(log n) = {:.4} — §1.1 promises O(log n) w.h.p.",
        shape.best(),
        shape.ranking[0].1,
        shape.r2_of("log n").unwrap_or(0.0)
    );
    println!("chord_cov is the directly realized fraction of Chord edges; the missing ones are all wrap-around edges closed via the ring chain (Fact 2.1 audit).");
    write_table("routing", &table);
}
