//! Integration: reproducibility guarantees of the simulation substrate —
//! every run is a pure function of its seed, so repetitions are
//! bit-identical (`tests/data_plane_golden.rs` pins the same traces to
//! literal constants).

mod support;

use rechord::core::adversary::run_adversarial;
use rechord::core::network::ReChordNetwork;
use rechord::core::{Crime, CrimeSet};
use rechord::topology::{TimedChurnPlan, TopologyKind};
use rechord::workload::{AdversaryConfig, DetectorConfig, TrafficSim, WorkloadConfig};

#[test]
fn repeated_runs_are_bit_identical() {
    let run = || {
        let topo = TopologyKind::Clique.generate(12, 7);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        let report = net.run_until_stable(100_000);
        (report.rounds, report.total_messages, support::states(&net))
    };
    assert_eq!(run(), run());
}

#[test]
fn per_round_trajectories_match() {
    let topo = TopologyKind::BinaryTree.generate(18, 3);
    let mut a = ReChordNetwork::from_topology(&topo, 1);
    let mut b = ReChordNetwork::from_topology(&topo, 1);
    for round in 0..60 {
        let oa = a.round();
        let ob = b.round();
        assert_eq!(oa, ob, "round {round} outcome diverged");
        assert_eq!(support::states(&a), support::states(&b), "round {round} state diverged");
        if !oa.changed {
            break;
        }
    }
}

#[test]
fn workload_traces_are_bit_identical() {
    // Identical seeds ⇒ byte-identical per-request traces and metric
    // summaries across repetitions — the whole discrete-event stack
    // (arrivals, Zipf keys, latencies, hop-by-hop routing under churn,
    // repair) is a pure function of the seed.
    let run = || {
        let (net, report) = ReChordNetwork::bootstrap_stable(16, 0x77, 1, 100_000);
        assert!(report.converged);
        let cfg = WorkloadConfig { seed: 0x77, traffic_end: 5_000, ..Default::default() };
        let plan = TimedChurnPlan::storm(6, 0.5, 1_000, 300, 0x77);
        let mut sim = TrafficSim::new(cfg, net, &plan);
        sim.preload();
        let r = sim.run();
        (r.sink.trace(), r.summary.to_string(), r.rounds, r.final_peers)
    };
    let a = run();
    assert!(!a.0.is_empty(), "the run produced a trace");
    assert_eq!(a, run(), "repetition must be bit-identical");
}

#[test]
fn honest_adversary_config_is_trace_identical_to_legacy() {
    // The fault-injection subsystem must be invisible when nobody is
    // corrupted: a config that *names* crimes but corrupts a zero fraction
    // (and arms no detector) reproduces the legacy trace byte for byte —
    // same requests, same latencies, same rounds, same data-plane event
    // count, same final placement.
    let run = |adversary: AdversaryConfig, detector: DetectorConfig| {
        let (net, report) = ReChordNetwork::bootstrap_stable(16, 0x77, 1, 100_000);
        assert!(report.converged);
        let cfg = WorkloadConfig {
            seed: 0x77,
            traffic_end: 5_000,
            adversary,
            detector,
            ..Default::default()
        };
        let plan = TimedChurnPlan::storm(6, 0.5, 1_000, 300, 0x77);
        let mut sim = TrafficSim::new(cfg, net, &plan);
        sim.preload();
        let r = sim.run();
        let summary = r.summary.to_string();
        (
            r.sink.trace(),
            summary,
            r.rounds,
            r.final_peers,
            r.suspicions,
            r.events,
            r.placement_digest,
        )
    };
    let legacy = run(AdversaryConfig::default(), DetectorConfig::default());
    let fraction_zero = run(
        AdversaryConfig {
            fraction: 0.0,
            crimes: CrimeSet::single(Crime::DropForward)
                .with(Crime::StaleReadPoison)
                .with(Crime::LieAboutSuccessor),
            ..Default::default()
        },
        DetectorConfig::default(),
    );
    let empty_crimes = run(
        AdversaryConfig { fraction: 0.5, crimes: CrimeSet::EMPTY, ..Default::default() },
        DetectorConfig::default(),
    );
    assert_eq!(legacy, fraction_zero, "fraction 0 must be the legacy simulator");
    assert_eq!(legacy, empty_crimes, "an empty crime set corrupts nobody");
    assert_eq!(legacy.4, 0, "the legacy detector raises no suspicions");
}

#[test]
fn adversarial_runs_are_bit_identical() {
    // Byzantine behavior is part of the deterministic substrate: all
    // adversarial coins come from the pure `mix` hash, never the sim RNGs,
    // so a corrupted run replays exactly — crimes, bounces, corruption
    // and all.
    let crimes = CrimeSet::single(Crime::DropForward)
        .with(Crime::MisrouteForward)
        .with(Crime::StaleReadPoison)
        .with(Crime::StallHeartbeats);
    let run = || {
        let (net, report) = ReChordNetwork::bootstrap_stable(14, 0x99, 1, 100_000);
        assert!(report.converged);
        let cfg = WorkloadConfig {
            seed: 0x99,
            traffic_end: 5_000,
            adversary: AdversaryConfig { fraction: 0.25, crimes, ..Default::default() },
            detector: DetectorConfig { suspect_for: 300 },
            ..Default::default()
        };
        let plan = TimedChurnPlan::storm(4, 0.5, 1_000, 300, 0x99);
        let mut sim = TrafficSim::new(cfg, net, &plan);
        sim.preload();
        let r = sim.run();
        (r.sink.trace(), r.summary.to_string(), r.rounds, r.suspicions)
    };
    let a = run();
    assert!(a.3 > 0, "heartbeat stalling raises suspicions in this scenario");
    assert_eq!(a, run(), "adversarial reruns must be bit-identical");

    // And the core-layer scan replays too.
    let (o1, n1) = run_adversarial(20, 5, 0.25, crimes, 50_000);
    let (o2, n2) = run_adversarial(20, 5, 0.25, crimes, 50_000);
    assert_eq!((o1.rounds, o1.converged, o1.byzantine), (o2.rounds, o2.converged, o2.byzantine));
    assert_eq!(support::states(&n1), support::states(&n2));
}

#[test]
fn generator_determinism_feeds_through() {
    // Same seed → same topology → same stabilization → same metrics.
    let m1 = {
        let (net, _) = ReChordNetwork::bootstrap_stable(25, 424242, 1, 100_000);
        net.metrics()
    };
    let m2 = {
        let (net, _) = ReChordNetwork::bootstrap_stable(25, 424242, 1, 100_000);
        net.metrics()
    };
    assert_eq!(m1, m2);
}
