//! Integration: the sharded data plane is an implementation detail.
//!
//! `WorkloadConfig::workers` spawns real scoped threads that drain per-arc
//! event heaps between epoch barriers; `WorkloadConfig::arcs` controls how
//! the ring is partitioned under them. Neither knob may change a single
//! byte of output: per-request traces, metric summaries, round counts,
//! event counts, and the final placement digest must be identical at
//! 1, 2, 4, and 8 workers — on a million-key store, across the sweep's
//! smoke grid, with live byzantine peers corrupting the run, and on a
//! 2k-peer finger ring serving pure traffic (the data plane alone, at a
//! real event volume).

use rechord::core::network::ReChordNetwork;
use rechord::core::{Crime, CrimeSet};
use rechord::topology::{TimedChurnPlan, TopologyKind};
use rechord::workload::{
    AdversaryConfig, DetectorConfig, TrafficConfig, TrafficSim, WorkloadConfig,
};

/// The pinned `(workers, arcs)` grid, serial baseline first: an even
/// split, more workers than the box has cores (threads are real either
/// way), a count that exceeds several arc choices (clamped internally) —
/// `arcs = 0` is auto, 8 arcs per worker, so each count picks a different
/// partition — and an explicitly awkward partition: arc count prime and
/// smaller than the worker count, so ranges are uneven and some workers
/// idle.
const WORKER_GRID: [(usize, usize); 5] = [(1, 0), (2, 0), (4, 0), (8, 0), (8, 5)];

/// Everything a run externalizes. The trace is the full per-request log
/// (one line per outcome: id, key, op, timings, hops, retries, kind), so
/// equality here is byte-equality of the simulator's entire output.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    trace: String,
    summary: String,
    rounds: u64,
    final_peers: usize,
    events: u64,
    placement_digest: u64,
    availability: f64,
}

fn fingerprint(cfg: WorkloadConfig, plan: &TimedChurnPlan, net: ReChordNetwork) -> Fingerprint {
    let mut sim = TrafficSim::new(cfg, net, plan);
    sim.preload();
    let r = sim.run();
    Fingerprint {
        trace: r.sink.trace(),
        summary: r.summary.to_string(),
        rounds: r.rounds,
        final_peers: r.final_peers,
        events: r.events,
        placement_digest: r.placement_digest,
        availability: r.summary.availability,
    }
}

/// Runs the scenario at every `(workers, arcs)` of `grid` and asserts each
/// run's fingerprint equals the first one's, which it returns.
fn assert_grid_invariant(
    mut cfg: WorkloadConfig,
    plan: &TimedChurnPlan,
    net: &dyn Fn() -> ReChordNetwork,
    grid: &[(usize, usize)],
) -> Fingerprint {
    let mut runs = grid.iter().map(|&(workers, arcs)| {
        (cfg.workers, cfg.arcs) = (workers, arcs);
        fingerprint(cfg, plan, net())
    });
    let serial = runs.next().expect("the grid starts with the serial run");
    assert!(!serial.trace.is_empty(), "the scenario produced traffic");
    for (run, (workers, arcs)) in runs.zip(&grid[1..]) {
        assert_eq!(serial, run, "workers={workers}/arcs={arcs} diverged");
    }
    serial
}

/// The overlay the churn scenarios start from: `peers` peers, stabilized.
fn stable(peers: usize, seed: u64) -> ReChordNetwork {
    let (net, report) = ReChordNetwork::bootstrap_stable(peers, seed, 1, 100_000);
    assert!(report.converged);
    net
}

#[test]
fn million_key_store_is_worker_count_invariant() {
    // A preloaded 1M-key placement (the bulk-load fast path) under storm
    // churn: repair deltas, staleness windows, and per-key completions all
    // flow through the sharded views — and the final placement digest over
    // all million records matches the serial run exactly.
    let cfg = WorkloadConfig {
        seed: 0xA1_1C_E5,
        traffic: TrafficConfig {
            mean_interarrival: 2.0,
            key_universe: 1_000_000,
            ..Default::default()
        },
        traffic_end: 3_000,
        replication: 2,
        service_time: 2,
        ..Default::default()
    };
    let plan = TimedChurnPlan::storm(5, 0.5, 800, 300, 0xA1_1C_E5);
    assert_grid_invariant(cfg, &plan, &|| stable(20, cfg.seed), &WORKER_GRID);
}

#[test]
fn sweep_smoke_grid_is_worker_count_invariant() {
    // The sweep bench's smoke-sized grid: several network sizes, finite
    // service capacity, paced repair. Every cell must be worker-invariant,
    // not just one lucky configuration.
    for (peers, seed) in [(5usize, 0x5E_ED_05u64), (15, 0x5E_ED_15), (25, 0x5E_ED_25)] {
        let cfg = WorkloadConfig {
            seed,
            traffic: TrafficConfig {
                mean_interarrival: 10.0,
                key_universe: 256,
                ..Default::default()
            },
            traffic_end: 4_000,
            replication: 2,
            service_time: 2,
            repair_bandwidth: 4,
            ..Default::default()
        };
        let plan = TimedChurnPlan::storm(3, 0.5, 1_000, 400, seed);
        assert_grid_invariant(cfg, &plan, &|| stable(peers, seed), &WORKER_GRID);
    }
}

#[test]
fn adversarial_runs_are_worker_count_invariant() {
    // Live byzantine peers (fraction > 0): dropped and misrouted forwards,
    // poisoned reads, stalled heartbeats driving the failure detector. All
    // adversarial coins are keyed hashes of stable request state, so the
    // crimes land on the same hops at any worker count.
    let cfg = WorkloadConfig {
        seed: 0xBAD_F00D,
        traffic: TrafficConfig { mean_interarrival: 8.0, key_universe: 512, ..Default::default() },
        traffic_end: 6_000,
        replication: 2,
        service_time: 2,
        adversary: AdversaryConfig {
            fraction: 0.25,
            crimes: CrimeSet::single(Crime::DropForward)
                .with(Crime::MisrouteForward)
                .with(Crime::StaleReadPoison)
                .with(Crime::StallHeartbeats),
            ..Default::default()
        },
        detector: DetectorConfig { suspect_for: 300, ..Default::default() },
        ..Default::default()
    };
    let plan = TimedChurnPlan::storm(4, 0.5, 1_500, 400, 0xBAD_F00D);
    assert_grid_invariant(cfg, &plan, &|| stable(16, cfg.seed), &WORKER_GRID);
}

#[test]
fn finger_ring_data_plane_is_worker_count_invariant() {
    // Pure foreground traffic at scale: a 2048-peer finger ring is greedy-
    // routable in O(log n) hops with no stabilization up front, and no
    // protocol round lands inside the horizon (one audit round runs after
    // the traffic drains) — so every event is routing, queueing or
    // service, the part of the simulator the workers actually shard. The
    // ring routes every request to its exact responsible peer.
    const PEERS: usize = 2_048;
    let cfg = WorkloadConfig {
        seed: 0x10_000,
        traffic: TrafficConfig {
            mean_interarrival: 1.0,
            key_universe: 200_000,
            zipf_exponent: 0.0,
            ..Default::default()
        },
        traffic_end: 12_000,
        round_every: 100_000_000,
        max_rounds: 1,
        replication: 2,
        service_time: 2,
        ..Default::default()
    };
    let ring =
        || ReChordNetwork::from_topology(&TopologyKind::FingerRing.generate(PEERS, cfg.seed), 1);
    let serial = assert_grid_invariant(cfg, &TimedChurnPlan::default(), &ring, &[(1, 0), (4, 0)]);
    assert_eq!(serial.availability, 1.0, "the finger ring must serve every request");
    assert!(serial.events > 100_000, "a real event volume (got {})", serial.events);
}
