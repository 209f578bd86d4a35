//! The two round-engine workloads: the same `sim` + `core` layers driven
//! the two opposite ways.
//!
//! * `stabilize-cold` (Theorem 1.1) — from a random weakly connected
//!   topology to the fixpoint. Every peer changes every round, so the six
//!   rules and the engine's clone / sort-merge / deliver / compare do all
//!   the work and nothing else runs.
//! * `churn-restabilize` (Theorems 4.1/4.2) — a stabilized network takes
//!   two joins, a graceful leave and a crash, each run to the fixpoint,
//!   then idles at the fixpoint. Almost every peer is quiescent, so a
//!   change that makes the stable state cheap moves this workload and
//!   hardly the other, and a change that speeds chaotic rounds at the cost
//!   of idle ones shows here.

use super::{fnv1a, repeat, Ctx, Detail, RepOutcome, Report};
use crate::stats::{self, Segment};
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::Ident;
use rechord_topology::{ChurnEvent, TopologyKind};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// Round cap of any one fixpoint run (far above Theorem 1.1's envelope at
/// these sizes; reaching it is a failed operation, not a tuning matter).
const MAX_ROUNDS: u64 = 200_000;
/// Rounds executed at the fixpoint by `churn-restabilize`.
const IDLE_ROUNDS: u64 = 100;

/// Digest of the global protocol state (every peer, every level, every
/// edge class), streamed through the states' `Debug` form.
pub fn state_digest(net: &ReChordNetwork) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(fnv1a(b""));
    for (id, st) in net.engine().iter() {
        write!(h, "{}:{st:?};", id.raw()).expect("hashing cannot fail");
    }
    h.0
}

/// What one run to the fixpoint did.
struct Fixpoint {
    rounds: u64,
    messages: usize,
    converged: bool,
}

/// Runs rounds until the fixpoint, one timed segment per round.
fn run_to_fixpoint(ctx: &Ctx, net: &mut ReChordNetwork, segs: &mut Vec<Segment>) -> Fixpoint {
    let mut fx = Fixpoint { rounds: 0, messages: 0, converged: false };
    while fx.rounds < MAX_ROUNDS {
        ctx.tracer.set_group(segs.len() as u64);
        let t = Instant::now();
        let out = {
            let _s = ctx.tracer.span("sim.round");
            net.round()
        };
        segs.push(Segment::of(t.elapsed().as_secs_f64()));
        fx.rounds += 1;
        fx.messages += out.delivered + out.dropped;
        if !out.changed {
            fx.converged = true;
            break;
        }
    }
    fx
}

fn round_ms_detail(name: &'static str, reps: &[Vec<Segment>]) -> (Detail, f64) {
    let rounds: Vec<f64> = stats::elementwise_min(reps).iter().map(|s| s.secs * 1e3).collect();
    let p = stats::percentiles(rounds);
    (Detail { name, value: p.p50, unit: "ms", samples: p.n }, p.p50)
}

/// `stabilize-cold`.
pub fn stabilize_cold(ctx: &Ctx) -> Report {
    let peers = ctx.scale.pick(160, 64);
    let seed = ctx.seed;
    let rep = repeat(
        ctx,
        || {
            let topo = {
                let _s = ctx.tracer.span("topology.generate");
                TopologyKind::Random.generate(peers, seed)
            };
            let _s = ctx.tracer.span("core.from_topology");
            ReChordNetwork::from_topology(&topo, 1)
        },
        |mut net| {
            let mut segs = Vec::new();
            let fx = run_to_fixpoint(ctx, &mut net, &mut segs);
            let audit = {
                let _s = ctx.tracer.span("core.audit");
                net.audit()
            };
            let fingerprint = BTreeMap::from([
                ("rounds".to_string(), fx.rounds.to_string()),
                ("messages".to_string(), fx.messages.to_string()),
                ("converged".to_string(), fx.converged.to_string()),
                ("audit_clean".to_string(), audit.is_clean().to_string()),
                ("state_digest".to_string(), format!("{:#018x}", state_digest(&net))),
            ]);
            RepOutcome { phases: vec![("stabilize", segs)], fingerprint }
        },
    );
    let reps = rep.phase("stabilize");
    let rounds = reps.first().map_or(0, Vec::len) as f64;
    let stabilize_s = stats::min_wall(reps);
    let (round_detail, round_p50_ms) = round_ms_detail("round_p50_ms", reps);
    let failed = u64::from(rep.fingerprint.get("converged").map(String::as_str) != Some("true"));
    let mut errors = rep.errors.clone();
    if rep.fingerprint.get("audit_clean").map(String::as_str) != Some("true") {
        errors.push("the fixpoint does not audit clean against the oracle topology".into());
    }
    Report {
        setup_s: rep.setup_s.clone(),
        op: "round",
        ops_per_s: rounds / stabilize_s,
        op_us: round_p50_ms * 1e3,
        details: vec![
            Detail::new("stabilize_s", stabilize_s, "s"),
            Detail::new("stabilize_rounds", rounds, "count"),
            round_detail,
        ],
        fingerprint: rep.fingerprint.clone(),
        attempted: 1,
        failed,
        sizes: vec![("peers", peers.to_string()), ("topology", "Random".into())],
        reps: rep.reps,
        traced_window_s: stabilize_s,
        errors,
    }
}

/// The four churn events of `churn-restabilize`, in order.
const EVENTS: [(&str, ChurnEvent); 4] = [
    ("join1", ChurnEvent::Join { address: 0x10_0000 }),
    ("join2", ChurnEvent::Join { address: 0x10_0001 }),
    ("leave", ChurnEvent::GracefulLeave),
    ("crash", ChurnEvent::Crash),
];

/// Applies churn event `k`; the contact or victim is drawn from the seed.
fn apply_event(net: &mut ReChordNetwork, seed: u64, k: usize) -> Ident {
    let selector = mix(&[seed, 0xc4u64, k as u64]);
    net.apply_event(&EVENTS[k].1, selector, seed).expect("a stable network takes every event")
}

/// `churn-restabilize`.
pub fn churn_restabilize(ctx: &Ctx) -> Report {
    let peers = ctx.scale.pick(96, 40);
    let idle_rounds = ctx.scale.pick(IDLE_ROUNDS, 30);
    let seed = ctx.seed;
    let rep = repeat(
        ctx,
        || {
            let _s = ctx.tracer.span("core.bootstrap_stable");
            let (net, report) = ReChordNetwork::bootstrap_stable(peers, seed, 1, MAX_ROUNDS);
            assert!(report.converged, "pre-stabilization must reach the fixpoint");
            net
        },
        |mut net| {
            let mut fingerprint = BTreeMap::new();
            let mut restab = Vec::new();
            let mut failed = 0u64;
            for (k, (event, _)) in EVENTS.iter().enumerate() {
                let peer = {
                    let _s = ctx.tracer.span("core.churn_event");
                    apply_event(&mut net, seed, k)
                };
                let fx = run_to_fixpoint(ctx, &mut net, &mut restab);
                failed += u64::from(!fx.converged);
                fingerprint.insert(
                    (*event).to_string(),
                    format!(
                        "peer={:#018x} rounds={} messages={}",
                        peer.raw(),
                        fx.rounds,
                        fx.messages
                    ),
                );
            }
            let audit_clean = net.audit().is_clean();
            let mut idle = Vec::new();
            let mut idle_messages = 0usize;
            let mut idle_changed = 0u64;
            for r in 0..idle_rounds {
                ctx.tracer.set_group(1_000_000 + r);
                let t = Instant::now();
                let out = {
                    let _s = ctx.tracer.span("sim.round");
                    net.round()
                };
                idle.push(Segment::of(t.elapsed().as_secs_f64()));
                idle_messages += out.delivered + out.dropped;
                idle_changed += u64::from(out.changed);
            }
            fingerprint.insert("failed_fixpoints".into(), failed.to_string());
            fingerprint.insert("audit_clean".into(), audit_clean.to_string());
            fingerprint.insert("idle_messages".into(), idle_messages.to_string());
            fingerprint.insert("idle_rounds_that_changed".into(), idle_changed.to_string());
            fingerprint.insert("state_digest".into(), format!("{:#018x}", state_digest(&net)));
            RepOutcome { phases: vec![("restabilize", restab), ("idle", idle)], fingerprint }
        },
    );
    let restab = rep.phase("restabilize");
    let restab_rounds = restab.first().map_or(0, Vec::len) as f64;
    let restabilize_s = stats::min_wall(restab);
    let (idle_detail, idle_p50_ms) = round_ms_detail("idle_round_ms", rep.phase("idle"));
    let failed = rep.fingerprint.get("failed_fixpoints").and_then(|f| f.parse().ok()).unwrap_or(1);
    let mut errors = rep.errors.clone();
    if rep.fingerprint.get("audit_clean").map(String::as_str) != Some("true") {
        errors.push("the re-stabilized network does not audit clean".into());
    }
    if rep.fingerprint.get("idle_rounds_that_changed").map(String::as_str) != Some("0") {
        errors.push("a round at the fixpoint changed the state".into());
    }
    Report {
        setup_s: rep.setup_s.clone(),
        op: "round",
        ops_per_s: restab_rounds / restabilize_s,
        op_us: idle_p50_ms * 1e3,
        details: vec![
            Detail::new("restabilize_s", restabilize_s, "s"),
            Detail::new("restabilize_rounds", restab_rounds, "count"),
            idle_detail,
        ],
        fingerprint: rep.fingerprint.clone(),
        attempted: EVENTS.len() as u64,
        failed,
        sizes: vec![
            ("peers", peers.to_string()),
            ("events", EVENTS.map(|e| e.0).join("+")),
            ("idle_rounds", idle_rounds.to_string()),
        ],
        reps: rep.reps,
        traced_window_s: restabilize_s + stats::min_wall(rep.phase("idle")),
        errors,
    }
}
