//! The two traffic-simulator workloads.
//!
//! * `traffic-churn` — the `1m-keys` scenario of the legacy `shard` bench:
//!   64 stabilized peers, a million preloaded keys, a round every 10 ticks,
//!   paced repair at 400 keys per tick, and a four-event churn storm. It is
//!   what clients see while the overlay re-stabilizes, and its wall time is
//!   almost all `TrafficSim::on_round` → engine rounds at the fixpoint,
//!   then paced repair and `refresh_dirty`; the data plane hardly matters.
//! * `traffic-dataplane` — a 4096-peer finger ring (routable without one
//!   stabilization round), a million keys, no rounds inside the horizon:
//!   pure request lifecycle (`route_step`, `ServiceQueue`, `EventQueue`,
//!   placement lookup/put, `SloSink`). A change to protocol rounds predicts
//!   no change here; the sharding verdict is read here.
//!
//! `TrafficSim::run` is one opaque call, so the timed segment is the whole
//! run; [`run_fixed_s`] measures the part of it that is not traffic.

use super::{fnv1a, repeat, timed, Ctx, Detail, RepOutcome, Report};
use crate::stats;
use rechord_core::network::ReChordNetwork;
use rechord_topology::{TimedChurnPlan, TopologyKind};
use rechord_workload::{LatencyModel, SimReport, TrafficConfig, TrafficSim, WorkloadConfig};
use std::collections::BTreeMap;

/// Stabilization round cap for the 64-peer bootstrap.
const MAX_ROUNDS: u64 = 200_000;

/// The physics every legacy traffic binary started from
/// (`rechord_bench::scenario_config`): 250-tick crash detection, 5–15-tick
/// hops, replication 2, 2-tick service time, 128-hop budget with 2 retries
/// at 40-tick backoff. Copied, not imported: the benchmark depends on the
/// library crates only.
pub fn scenario_config(seed: u64, horizon: u64, interarrival: f64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        traffic: TrafficConfig {
            mean_interarrival: interarrival,
            key_universe: 256,
            zipf_exponent: 0.9,
            put_fraction: 0.1,
            hot_key: None,
        },
        traffic_start: 0,
        traffic_end: horizon,
        round_every: 50,
        latency: LatencyModel::Uniform { lo: 5, hi: 15 },
        replication: 2,
        max_retries: 2,
        retry_backoff: 40,
        hop_budget: 128,
        max_rounds: MAX_ROUNDS,
        detection_lag: 250,
        service_time: 2,
        repair_bandwidth: 0,
        max_keys_per_peer: 0,
        adversary: Default::default(),
        detector: Default::default(),
        workers: 1,
        arcs: 0,
    }
}

/// One scenario: configuration, network, churn.
pub type Scenario = (WorkloadConfig, ReChordNetwork, TimedChurnPlan);

/// The `1m-keys` scenario with everything drawn from `seed`.
pub fn churn_scenario(ctx: &Ctx, seed: u64, keys: u64, horizon: u64) -> Scenario {
    let mut cfg = scenario_config(seed, horizon, 5.0);
    cfg.traffic.key_universe = keys;
    cfg.traffic.zipf_exponent = 0.0;
    cfg.round_every = 10;
    cfg.repair_bandwidth = 400;
    let (net, report) = {
        let _s = ctx.tracer.span("core.bootstrap_stable");
        ReChordNetwork::bootstrap_stable(64, seed, 1, MAX_ROUNDS)
    };
    assert!(report.converged, "the 64-peer overlay must stabilize");
    (cfg, net, TimedChurnPlan::storm(4, 0.5, horizon / 4, horizon / 8, seed))
}

/// The finger-ring scenario: no churn, no rounds inside the horizon (one
/// audit round runs after the traffic drains).
pub fn dataplane_scenario(
    ctx: &Ctx,
    seed: u64,
    peers: usize,
    keys: u64,
    horizon: u64,
    workers: usize,
) -> Scenario {
    let mut cfg = scenario_config(seed, horizon, 1.0);
    cfg.traffic.key_universe = keys;
    cfg.traffic.zipf_exponent = 0.0;
    cfg.round_every = 100_000_000; // beyond any horizon used here
    cfg.max_rounds = 1;
    cfg.workers = workers;
    let topo = {
        let _s = ctx.tracer.span("topology.generate");
        TopologyKind::FingerRing.generate(peers, seed)
    };
    let _s = ctx.tracer.span("core.from_topology");
    (cfg, ReChordNetwork::from_topology(&topo, 1), TimedChurnPlan::default())
}

/// Builds the simulator and preloads the key universe (set-up).
pub fn build(ctx: &Ctx, (cfg, net, plan): Scenario) -> TrafficSim {
    let mut sim = {
        let _s = ctx.tracer.span("workload.new");
        TrafficSim::new(cfg, net, &plan)
    };
    let _s = ctx.tracer.span("workload.preload");
    sim.preload();
    sim
}

/// The simulated statistics of a run: they must not move when only speed
/// changes.
pub fn fingerprint(r: &SimReport) -> BTreeMap<String, String> {
    BTreeMap::from([
        ("trace_hash".to_string(), format!("{:#018x}", fnv1a(r.sink.trace().as_bytes()))),
        ("summary".to_string(), r.summary.to_string()),
        ("rounds".to_string(), r.rounds.to_string()),
        ("events".to_string(), r.events.to_string()),
        ("placement_digest".to_string(), format!("{:#018x}", r.placement_digest)),
        ("lost_keys".to_string(), r.lost_keys.to_string()),
        ("availability".to_string(), format!("{:.6}", r.summary.availability)),
        ("stable_at_end".to_string(), r.stable_at_end.to_string()),
        ("requests".to_string(), r.summary.total.to_string()),
        ("non_success".to_string(), (r.summary.total - r.summary.success).to_string()),
    ])
}

/// Wall time of a `run()` whose traffic window is empty: the final audit
/// round plus the lost-key scan. Both traffic workloads pay it once per
/// run, so it is subtracted to read their `events_per_s`.
pub fn run_fixed_s(ctx: &Ctx, mut scenario: Scenario) -> f64 {
    scenario.0.traffic_start = 1;
    scenario.0.traffic_end = 0;
    scenario.2 = TimedChurnPlan::default();
    let sim = build(ctx, scenario);
    timed(|| sim.run()).1.secs
}

/// `op` names the fingerprint count (`events` or `rounds`) the common
/// throughput metric is normalised by: the one this workload's wall time
/// is proportional to, so that the metric is steady across seeds.
fn report(
    ctx: &Ctx,
    sizes: Vec<(&'static str, String)>,
    must_end_stable: bool,
    op: (&'static str, &'static str),
    scenario: impl Fn() -> Scenario,
) -> Report {
    let rep = repeat(
        ctx,
        || build(ctx, scenario()),
        |sim| {
            let (r, seg) = timed(|| {
                let _s = ctx.tracer.span("workload.run");
                sim.run()
            });
            RepOutcome { phases: vec![("run", vec![seg])], fingerprint: fingerprint(&r) }
        },
    );
    let fp = &rep.fingerprint;
    let number = |k: &str| super::number(fp, k);
    let (events, requests) = (number("events"), number("requests"));
    let run_s = stats::min_wall(rep.phase("run"));
    let mut errors = rep.errors.clone();
    if must_end_stable && fp.get("stable_at_end").map(String::as_str) != Some("true") {
        errors.push("the overlay was not at its fixpoint when the run ended".into());
    }
    Report {
        setup_s: rep.setup_s.clone(),
        op: op.0,
        ops_per_s: number(op.1) / run_s,
        op_us: run_s * 1e6 / number(op.1),
        details: vec![
            Detail::new("events_per_s", events / run_s, "1/s"),
            Detail::new("run_s", run_s, "s"),
            Detail::new("events", events, "count"),
            Detail::new("requests", requests, "count"),
            Detail::new("rounds", number("rounds"), "count"),
        ],
        fingerprint: fp.clone(),
        attempted: requests as u64,
        failed: number("lost_keys") as u64,
        sizes,
        reps: rep.reps,
        traced_window_s: run_s,
        errors,
    }
}

/// Sizes of `traffic-churn`: `(keys, horizon)`.
pub fn churn_sizes(ctx: &Ctx) -> (u64, u64) {
    (ctx.scale.pick(200_000, 50_000), ctx.scale.pick(4_000, 1_500))
}

/// Sizes of `traffic-dataplane`: `(peers, keys, horizon)`.
pub fn dataplane_sizes(ctx: &Ctx) -> (usize, u64, u64) {
    (ctx.scale.pick(2048, 512), ctx.scale.pick(200_000, 50_000), ctx.scale.pick(100_000, 8_000))
}

/// `traffic-churn`.
pub fn churn(ctx: &Ctx) -> Report {
    let (keys, horizon) = churn_sizes(ctx);
    let sizes = vec![
        ("peers", "64".to_string()),
        ("keys", keys.to_string()),
        ("horizon", horizon.to_string()),
        ("round_every", "10".into()),
        ("repair_bandwidth", "400".into()),
        ("storm_events", "4".into()),
    ];
    // Wall time here follows the protocol rounds (`workload.rounds_share_churn`),
    // whose count the horizon fixes; the event count swings ±10 % with the seed.
    report(ctx, sizes, true, ("round", "rounds"), || churn_scenario(ctx, ctx.seed, keys, horizon))
}

/// `traffic-dataplane`.
pub fn dataplane(ctx: &Ctx) -> Report {
    let (peers, keys, horizon) = dataplane_sizes(ctx);
    let sizes = vec![
        ("peers", peers.to_string()),
        ("topology", "FingerRing".into()),
        ("keys", keys.to_string()),
        ("horizon", horizon.to_string()),
        ("workers", "1".into()),
    ];
    // The finger ring is routable but not a fixpoint: its one audit round
    // changes state, so `stable_at_end` is recorded, not required.
    report(ctx, sizes, false, ("event", "events"), || {
        dataplane_scenario(ctx, ctx.seed, peers, keys, horizon, 1)
    })
}
