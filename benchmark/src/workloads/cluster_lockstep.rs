//! `cluster-lockstep`: the message-passing stack with zero scheduler
//! involvement.
//!
//! `NodePeer`s and one `ClusterClient` run on **one thread** over the
//! benchmark's own transport ([`crate::transport`]): every message is
//! framed, split and decoded exactly as on a socket, and a blocked client
//! pumps the nodes itself. Bring-up runs the BSP stabilization to
//! `serving`; then the same request stream is served at window 1 (per-RPC
//! cost) and at window 64 (what batching buys). It exercises `net` —
//! client, codec, `RoundSync`, `NodePeer::handle` — over `routing` and the
//! nodes' stores, and every per-RPC result must equal a direct-call
//! `KvStore` replay.

use super::{fnv1a, repeat, Ctx, Detail, RepOutcome, Report};
use crate::stats::{self, Segment};
use crate::transport::{Cluster, Endpoint, Fabric};
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::{IdSpace, Ident};
use rechord_net::{ClusterClient, ClusterConfig, NetError, NodePeer, RpcResult};
use rechord_routing::{KvStore, RoutingTable};
use rechord_topology::TopologyKind;
use rechord_workload::{Op, Request, TrafficConfig, TrafficGen};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Replica-set width of the cluster's stores.
const REPLICATION: usize = 2;
/// Stabilization round cap.
const MAX_ROUNDS: u64 = 200_000;
/// Keys the request stream draws from (Zipf 0.9, 10 % puts).
const KEY_UNIVERSE: u64 = 65_536;
/// The pipelined phase's window.
pub const WINDOW: usize = 64;
/// Identifier of the client actor (roster identifiers are random draws;
/// the top of the space is free).
pub const CLIENT: Ident = Ident::from_raw(u64::MAX);
/// A traced run records the first rounds of bring-up and the first batches
/// of each RPC phase; the rest are the same calls over again and go under
/// one `untraced.*` span.
const TRACED_ROUNDS: u64 = 1;
const TRACED_BATCHES: usize = 1;
/// The client never sleeps on this transport; the deadline only bounds a
/// wedged run.
const REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Cluster nodes.
    pub nodes: usize,
    /// RPCs served at window 1.
    pub rpcs_w1: usize,
    /// RPCs served at window [`WINDOW`].
    pub rpcs_w64: usize,
    /// RPCs per timed segment at window 1.
    pub batch_w1: usize,
    /// RPCs per timed segment at window [`WINDOW`].
    pub batch_w64: usize,
}

/// The sizes at a scale.
pub fn sizes(ctx: &Ctx) -> Sizes {
    Sizes {
        nodes: ctx.scale.pick(64, 16),
        rpcs_w1: ctx.scale.pick(100_000, 6_000),
        rpcs_w64: ctx.scale.pick(100_000, 12_000),
        batch_w1: ctx.scale.pick(2_000, 500),
        batch_w64: ctx.scale.pick(4_096, 1_024),
    }
}

/// The cluster description every actor and the oracle share.
pub fn cluster_config(nodes: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        topology: TopologyKind::Random.generate(nodes, seed),
        space_seed: seed,
        replication: REPLICATION,
        max_rounds: MAX_ROUNDS,
    }
}

/// The seeded request stream.
pub fn requests(seed: u64, count: usize) -> Vec<Request> {
    let cfg = TrafficConfig {
        mean_interarrival: 1.0,
        key_universe: KEY_UNIVERSE,
        zipf_exponent: 0.9,
        put_fraction: 0.1,
        hot_key: None,
    };
    let mut gen = TrafficGen::new(cfg, seed);
    (0..count as u64).map(|k| gen.next_request(k)).collect()
}

/// The put payload is a pure function of the request, so the cluster
/// writes and the oracle expects the same bytes.
pub fn put_value(req: &Request) -> String {
    format!("v{}-{}", req.id, req.key)
}

/// A constructed cluster and the fabric under it.
pub struct Built {
    /// The shared transport state.
    pub fabric: Rc<Fabric>,
    /// The nodes, ascending.
    pub cluster: Rc<Cluster>,
}

/// Registers every actor and builds the nodes (no message sent yet).
pub fn construct(ctx: &Ctx, cfg: &ClusterConfig) -> Built {
    let _s = ctx.tracer.span("net.construct");
    let fabric = Fabric::new(Rc::clone(&ctx.tracer));
    // Every endpoint exists before any node can send.
    let endpoints: Vec<(Ident, Endpoint)> =
        cfg.topology.ids.iter().map(|&id| (id, fabric.endpoint(id))).collect();
    let nodes =
        endpoints.into_iter().map(|(id, ep)| NodePeer::new(ep, cfg.node_config(id))).collect();
    Built { fabric, cluster: Cluster::new(nodes) }
}

/// What bring-up did.
pub struct BringUp {
    /// One segment per protocol round, plus the gossip tail.
    pub segments: Vec<Segment>,
    /// Rounds to the fixpoint, as every node counted them.
    pub rounds: u64,
    /// Delivered plus dropped protocol messages, summed over nodes.
    pub messages: u64,
}

/// BSP stabilization to `serving`: pumps every node in ascending order,
/// pass after pass, exactly as `rechord_net::stabilize_lockstep` does.
pub fn stabilize(ctx: &Ctx, built: &Built) -> Result<BringUp, NetError> {
    built.cluster.with_nodes(|nodes| {
        let mut segments = Vec::new();
        let mut seg_start = Instant::now();
        let mut seen = 0u64;
        let mut untraced = None;
        for _ in 0..MAX_ROUNDS.saturating_mul(8) {
            ctx.tracer.set_group(seen);
            if seen == TRACED_ROUNDS && untraced.is_none() {
                untraced = ctx.tracer.span("untraced.sync_rounds");
                ctx.tracer.record(false);
            }
            for node in nodes.iter_mut() {
                let _s = ctx.tracer.span("net.node_pump");
                node.pump()?;
            }
            let done = nodes.iter().all(|n| n.serving()) && built.fabric.pending() == 0;
            let executed = nodes.first().map_or(0, |n| n.executed());
            if executed > seen || done {
                // A protocol round (or the gossip tail) just completed.
                segments.push(Segment::of(seg_start.elapsed().as_secs_f64()));
                seg_start = Instant::now();
                seen = executed;
            }
            if done {
                break;
            }
        }
        ctx.tracer.record(true);
        drop(untraced);
        if !nodes.iter().all(|n| n.serving()) {
            return Err(NetError::Io("the cluster never reached serving".into()));
        }
        let rounds = nodes.first().and_then(|n| n.converged()).unwrap_or(0);
        let messages = nodes.iter().map(|n| n.report()).map(|r| r.delivered + r.dropped).sum();
        Ok(BringUp { segments, rounds, messages })
    })
}

/// A serving client on `built`.
pub fn client(built: &Built, roster: &[Ident], seed: u64) -> ClusterClient<Endpoint> {
    let endpoint = built.fabric.endpoint(CLIENT).drive(Rc::clone(&built.cluster));
    ClusterClient::new(endpoint, roster.to_vec(), seed, REPLY_DEADLINE)
}

/// Replays `stream` through `client` in batches of `batch`, one timed
/// segment per batch (the pipeline is drained at each batch end, so a
/// segment holds exactly its own RPCs and their latencies).
pub fn drive(
    ctx: &Ctx,
    client: &mut ClusterClient<Endpoint>,
    stream: &[Request],
    batch: usize,
    results: &mut Vec<RpcResult>,
) -> Result<Vec<Segment>, NetError> {
    let mut segments = Vec::with_capacity(stream.len().div_ceil(batch));
    let mut untraced = None;
    for (i, chunk) in stream.chunks(batch).enumerate() {
        ctx.tracer.set_group(chunk[0].id);
        if i == TRACED_BATCHES {
            untraced = ctx.tracer.span("untraced.rpc_batches");
            ctx.tracer.record(false);
        }
        let _b = ctx.tracer.span("bench.rpc_batch");
        let t = Instant::now();
        for req in chunk {
            let _s = ctx.tracer.span("net.client");
            let done = match req.op {
                Op::Put => client.submit_put(req.key, put_value(req))?,
                Op::Get => client.submit_get(req.key)?,
            };
            results.extend(done);
        }
        {
            let _s = ctx.tracer.span("net.client");
            results.extend(client.drain()?);
        }
        let secs = t.elapsed().as_secs_f64();
        let samples_us = client.take_latencies_us().into_iter().map(|x| x as f32).collect();
        segments.push(Segment { secs, samples_us });
    }
    ctx.tracer.record(true);
    drop(untraced);
    Ok(segments)
}

/// The direct-call oracle: the same topology stabilized in the engine, the
/// same stream replayed against a `KvStore` with the client's rpc ids and
/// entry-peer draws.
pub fn oracle_replay(cfg: &ClusterConfig, stream: &[Request]) -> (Vec<RpcResult>, u64, usize) {
    let mut net = ReChordNetwork::from_topology(&cfg.topology, 1);
    let report = net.run_until_stable(cfg.max_rounds);
    assert!(report.converged, "the oracle overlay must stabilize");
    let table = RoutingTable::from_network(&net);
    let mut kv = KvStore::with_replication(table, IdSpace::new(cfg.space_seed), cfg.replication);
    let roster = &cfg.topology.ids;
    let results = stream
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let rpc = i as u64 + 1; // client rpc ids are 1-based
            let via = roster[(mix(&[cfg.space_seed, rpc]) % roster.len() as u64) as usize];
            match req.op {
                Op::Put => {
                    let out = kv.put(via, req.key, put_value(req)).expect("non-empty roster");
                    RpcResult {
                        rpc,
                        ok: out.routed,
                        hops: out.hops as u32,
                        responsible: out.responsible,
                        value: None,
                    }
                }
                Op::Get => {
                    let (value, out) = kv.get(via, req.key).expect("non-empty roster");
                    RpcResult {
                        rpc,
                        ok: out.routed,
                        hops: out.hops as u32,
                        responsible: out.responsible,
                        value: value.map(str::to_string),
                    }
                }
            }
        })
        .collect();
    (results, report.rounds, report.total_messages)
}

/// Digest of a result stream.
fn results_digest(results: &[RpcResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        use std::fmt::Write;
        write!(text, "{},{},{},{},{:?};", r.rpc, r.ok, r.hops, r.responsible.raw(), r.value)
            .expect("writing to a string");
    }
    fnv1a(text.as_bytes())
}

/// `cluster-lockstep`.
pub fn run(ctx: &Ctx) -> Report {
    let sz = sizes(ctx);
    let seed = ctx.seed;
    let cfg = cluster_config(sz.nodes, seed);
    let stream = requests(seed, sz.rpcs_w1 + sz.rpcs_w64);
    let (oracle, oracle_rounds, oracle_messages) = oracle_replay(&cfg, &stream);

    let mut mismatches = 0u64;
    let mut first_mismatch = None;
    let rep = repeat(
        ctx,
        || {
            // Bring-up: construct, stabilize to serving, confirm by ping.
            let built = construct(ctx, &cfg);
            let bring_up = stabilize(ctx, &built).expect("lock-step stabilization");
            let sync_bytes = built.fabric.counters().1;
            let mut client = client(&built, &cfg.topology.ids, seed);
            let serving = client.wait_serving(REPLY_DEADLINE).expect("ping poll");
            assert!(serving, "every node answers ping with serving");
            (built, client, bring_up, sync_bytes)
        },
        |(built, mut client, bring_up, sync_bytes)| {
            let (msgs0, bytes0) = built.fabric.counters();
            let mut results = Vec::with_capacity(stream.len());
            let w1 = drive(ctx, &mut client, &stream[..sz.rpcs_w1], sz.batch_w1, &mut results)
                .expect("window-1 replay");
            let mut client = client.with_window(WINDOW);
            let w64 = drive(ctx, &mut client, &stream[sz.rpcs_w1..], sz.batch_w64, &mut results)
                .expect("windowed replay");
            let (msgs1, bytes1) = built.fabric.counters();
            for (got, want) in results.iter().zip(&oracle) {
                if got != want {
                    mismatches += 1;
                    first_mismatch.get_or_insert_with(|| format!("{got:?} vs oracle {want:?}"));
                }
            }
            let failed = results.iter().filter(|r| !r.ok).count() as u64
                + oracle.len().saturating_sub(results.len()) as u64;
            let hops: u64 = results.iter().map(|r| r.hops as u64).sum();
            let fingerprint = BTreeMap::from([
                ("stabilize_rounds".to_string(), bring_up.rounds.to_string()),
                ("stabilize_messages".to_string(), bring_up.messages.to_string()),
                ("sync_bytes".to_string(), sync_bytes.to_string()),
                ("rpcs".to_string(), results.len().to_string()),
                ("rpc_failed".to_string(), failed.to_string()),
                ("rpc_hops".to_string(), hops.to_string()),
                ("rpc_messages".to_string(), (msgs1 - msgs0).to_string()),
                ("rpc_bytes".to_string(), (bytes1 - bytes0).to_string()),
                ("results_digest".to_string(), format!("{:#018x}", results_digest(&results))),
            ]);
            RepOutcome {
                phases: vec![("stabilize", bring_up.segments), ("w1", w1), ("w64", w64)],
                fingerprint,
            }
        },
    );

    let fp = &rep.fingerprint;
    let number = |k: &str| super::number(fp, k);
    let mut errors = rep.errors.clone();
    if mismatches > 0 {
        errors.push(format!(
            "{mismatches} per-RPC results differ from the KvStore oracle; first: {}",
            first_mismatch.unwrap_or_default()
        ));
    }
    if number("stabilize_rounds") as u64 != oracle_rounds
        || number("stabilize_messages") as usize != oracle_messages
    {
        errors.push(format!(
            "lock-step stabilization ({} rounds, {} messages) differs from the engine ({oracle_rounds}, {oracle_messages})",
            number("stabilize_rounds"),
            number("stabilize_messages")
        ));
    }
    let w1_s = stats::min_wall(rep.phase("w1"));
    let w64_s = stats::min_wall(rep.phase("w64"));
    let lat = stats::percentiles(
        stats::winning_samples(rep.phase("w1")).into_iter().map(f64::from).collect(),
    );
    let rpcs = number("rpcs");
    let mut details = vec![
        Detail::new("cluster_stabilize_s", stats::min_wall(rep.phase("stabilize")), "s"),
        Detail::new("rpc_per_s_w1", sz.rpcs_w1 as f64 / w1_s, "1/s"),
        Detail { name: "rpc_p50_us_w1", value: lat.p50, unit: "us", samples: lat.n },
        Detail::new("rpc_per_s_w64", sz.rpcs_w64 as f64 / w64_s, "1/s"),
        Detail::new("rpc_mean_us_w1", w1_s * 1e6 / sz.rpcs_w1 as f64, "us"),
        Detail::new("msgs_per_rpc", number("rpc_messages") / rpcs, "count"),
        Detail::new("bytes_per_rpc", number("rpc_bytes") / rpcs, "count"),
        Detail::new("hops_per_rpc", number("rpc_hops") / rpcs, "count"),
        Detail::new("stabilize_rounds", number("stabilize_rounds"), "count"),
        Detail::new(
            "sync_bytes_per_round",
            number("sync_bytes") / number("stabilize_rounds"),
            "count",
        ),
    ];
    if let Some((label, value)) = lat.tail {
        let name = match label {
            "p99.99" => "rpc_p99.99_us_w1",
            "p99.9" => "rpc_p99.9_us_w1",
            "p99" => "rpc_p99_us_w1",
            _ => "rpc_p90_us_w1",
        };
        details.push(Detail { name, value, unit: "us", samples: lat.n });
    }
    Report {
        setup_s: rep.setup_s.clone(),
        op: "rpc",
        ops_per_s: sz.rpcs_w64 as f64 / w64_s,
        op_us: lat.p50,
        details,
        fingerprint: fp.clone(),
        attempted: 1 + stream.len() as u64,
        failed: number("rpc_failed") as u64 + mismatches.min(1),
        sizes: vec![
            ("nodes", sz.nodes.to_string()),
            ("rpcs_w1", sz.rpcs_w1.to_string()),
            ("rpcs_w64", sz.rpcs_w64.to_string()),
            ("window", WINDOW.to_string()),
            ("key_universe", KEY_UNIVERSE.to_string()),
            ("replication", REPLICATION.to_string()),
        ],
        reps: rep.reps,
        traced_window_s: traced_window(rep.phase("stabilize"), TRACED_ROUNDS as usize)
            + traced_window(rep.phase("w1"), TRACED_BATCHES)
            + traced_window(rep.phase("w64"), TRACED_BATCHES),
        errors,
    }
}

/// Min-estimate of the first `segments` segments of a phase.
fn traced_window(reps: &[Vec<Segment>], segments: usize) -> f64 {
    stats::elementwise_min(reps).iter().take(segments).map(|s| s.secs).sum()
}
