//! Integration: literal goldens of the traffic simulator's whole output.
//!
//! The other determinism suites compare one run with another run of the
//! same build; these compare a run with constants. They were recorded from
//! the build that still had the arc-sharded data plane and the threaded
//! engine step (rev `022c78e`, the configuration every parity test proved
//! equivalent to the others: one worker), and this file passes unchanged on
//! that build and on the single-heap simulator that replaced it — per-request
//! trace, metric summary, round count, event count and placement digest,
//! byte for byte. Four scenarios: a million-key store under storm churn, the
//! sweep experiment's smoke grid (finite service capacity, paced repair),
//! live byzantine peers, and a 2048-peer finger ring serving pure traffic
//! (the data plane alone, at a real event volume).
//!
//! A change that moves one of these constants changed what clients observe:
//! re-record only when that is the intent.

mod support;

use rechord::core::network::ReChordNetwork;
use rechord::core::{Crime, CrimeSet};
use rechord::topology::{TimedChurnPlan, TopologyKind};
use rechord::workload::{
    AdversaryConfig, DetectorConfig, SimReport, TrafficConfig, TrafficSim, WorkloadConfig,
};

/// Everything a run externalizes. The trace is the full per-request log
/// (one line per outcome: id, key, op, timings, hops, retries, kind), so
/// its hash pins the simulator's entire output.
#[derive(Debug, PartialEq)]
struct Golden<'a> {
    trace_fnv1a: u64,
    summary: &'a str,
    rounds: u64,
    final_peers: usize,
    events: u64,
    placement_digest: u64,
}

/// Runs the preloaded scenario once and asserts its fingerprint is `want`.
fn assert_golden(
    cfg: WorkloadConfig,
    plan: &TimedChurnPlan,
    net: ReChordNetwork,
    want: &Golden<'_>,
) -> SimReport {
    let mut sim = TrafficSim::new(cfg, net, plan);
    sim.preload();
    let r = sim.run();
    let summary = r.summary.to_string();
    let got = Golden {
        trace_fnv1a: support::fnv1a(r.sink.trace().as_bytes()),
        summary: &summary,
        rounds: r.rounds,
        final_peers: r.final_peers,
        events: r.events,
        placement_digest: r.placement_digest,
    };
    assert_eq!(&got, want, "seed {:#x}: the run left its golden", cfg.seed);
    r
}

/// The overlay the churn scenarios start from: `peers` peers, stabilized.
fn stable(peers: usize, seed: u64) -> ReChordNetwork {
    let (net, report) = ReChordNetwork::bootstrap_stable(peers, seed, 1, 100_000);
    assert!(report.converged);
    net
}

#[test]
fn million_key_store_matches_its_golden() {
    // A preloaded 1M-key placement (the bulk-load fast path) under storm
    // churn: repair deltas, staleness windows and per-key completions — and
    // the final placement digest over all million records.
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
    let want = Golden {
        trace_fnv1a: 13270906259167323284,
        summary: "1348 reqs | avail 0.9978 (1345 ok / 3 stale / 0 corrupt / 0 lost) | latency p50/p90/p99/max 42/79/130/215 | 3.52 hops | 439.1 req/ktick | 1 repairs (205578 keys moved, 7 arcs) | backlog peak 0 / slowest repair 0t",
        rounds: 55,
        final_peers: 21,
        events: 12106,
        placement_digest: 6777333221343185789,
    };
    assert_golden(cfg, &plan, stable(20, cfg.seed), &want);
}

#[test]
fn sweep_smoke_grid_matches_its_goldens() {
    // The sweep experiment's smoke-sized grid: several network sizes,
    // finite service capacity, paced repair. Every cell is pinned, not just
    // one lucky configuration.
    let cells = [
        (
            5usize,
            0x5E_ED_05u64,
            Golden {
                trace_fnv1a: 9707589862183856363,
                summary: "376 reqs | avail 1.0000 (376 ok / 0 stale / 0 corrupt / 0 lost) | latency p50/p90/p99/max 13/42/142/230 | 0.98 hops | 94.0 req/ktick | 3 repairs (319 keys moved, 6 arcs) | backlog peak 256 / slowest repair 39t",
                rounds: 39,
                final_peers: 2,
                events: 1488,
                placement_digest: 3472693911543485168,
            },
        ),
        (
            15,
            0x5E_ED_15,
            Golden {
                trace_fnv1a: 8208528613038634175,
                summary: "412 reqs | avail 1.0000 (412 ok / 0 stale / 0 corrupt / 0 lost) | latency p50/p90/p99/max 40/70/110/203 | 3.19 hops | 102.3 req/ktick | 1 repairs (156 keys moved, 6 arcs) | backlog peak 192 / slowest repair 39t",
                rounds: 44,
                final_peers: 14,
                events: 3455,
                placement_digest: 1208069770447263482,
            },
        ),
        (
            25,
            0x5E_ED_25,
            Golden {
                trace_fnv1a: 11550714255561213421,
                summary: "415 reqs | avail 1.0000 (415 ok / 0 stale / 0 corrupt / 0 lost) | latency p50/p90/p99/max 43/74/102/126 | 3.57 hops | 102.6 req/ktick | 1 repairs (32 keys moved, 6 arcs) | backlog peak 35 / slowest repair 7t",
                rounds: 53,
                final_peers: 26,
                events: 3788,
                placement_digest: 8294243079989971032,
            },
        ),
    ];
    for (peers, seed, want) in cells {
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
        assert_golden(cfg, &plan, stable(peers, seed), &want);
    }
}

#[test]
fn adversarial_run_matches_its_golden() {
    // Live byzantine peers (fraction > 0): dropped and misrouted forwards,
    // poisoned reads, stalled heartbeats driving the failure detector. All
    // adversarial coins are keyed hashes of stable request state, so the
    // crimes land on the same hops in every build.
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
        detector: DetectorConfig { suspect_for: 300 },
        ..Default::default()
    };
    let plan = TimedChurnPlan::storm(4, 0.5, 1_500, 400, 0xBAD_F00D);
    let want = Golden {
        trace_fnv1a: 13511891412902940974,
        summary: "780 reqs | avail 0.2744 (214 ok / 0 stale / 115 corrupt / 451 lost) | latency p50/p90/p99/max 34/127/179/191 | 2.59 hops | 34.9 req/ktick | 1 repairs (203 keys moved, 7 arcs) | backlog peak 0 / slowest repair 0t",
        rounds: 67,
        final_peers: 18,
        events: 7363,
        placement_digest: 8801227685635475936,
    };
    assert_golden(cfg, &plan, stable(16, cfg.seed), &want);
}

#[test]
fn finger_ring_data_plane_matches_its_golden() {
    // Pure foreground traffic at scale: a 2048-peer finger ring is greedy-
    // routable in O(log n) hops with no stabilization up front, and no
    // protocol round lands inside the horizon (one audit round runs after
    // the traffic drains) — so every event is routing, queueing or
    // service. The ring routes every request to its exact responsible peer.
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
        ReChordNetwork::from_topology(&TopologyKind::FingerRing.generate(PEERS, cfg.seed), 1);
    let want = Golden {
        trace_fnv1a: 6782231293172396152,
        summary: "8894 reqs | avail 1.0000 (8894 ok / 0 stale / 0 corrupt / 0 lost) | latency p50/p90/p99/max 79/108/130/157 | 6.47 hops | 735.5 req/ktick | 0 repairs (0 keys moved, 0 arcs) | backlog peak 0 / slowest repair 0t",
        rounds: 1,
        final_peers: 2048,
        events: 132958,
        placement_digest: 5518234750158300682,
    };
    let r = assert_golden(cfg, &TimedChurnPlan::default(), ring, &want);
    assert_eq!(r.summary.availability, 1.0, "the finger ring must serve every request");
    assert!(r.events > 100_000, "a real event volume (got {})", r.events);
}
