//! The per-layer ledger: every layer's public functions timed on inputs
//! built from the seed the way the workloads build them, so an end-to-end
//! number can be read as a sum of layer costs (`benchmark/README.md` has
//! the two sums: one RPC, one stable round).
//!
//! The ledger is the same whichever workload the traced run names; the
//! span-derived metrics ([`span_metrics`]) are the part that follows the
//! workload. Micro-measurements take the best of [`BATCHES`] batches; the
//! metrics measured with threads or sockets say "host loopback" in
//! `BENCHMARK.json` and are there to be subtracted, not gated.

use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::transport::{Captured, Endpoint, Fabric, Mode};
use crate::workloads::cluster_lockstep::{self as lockstep, CLIENT};
use crate::workloads::{secs, traffic, Ctx, Report};
use rechord_core::network::ReChordNetwork;
use rechord_core::{PeerState, ReChordProtocol};
use rechord_id::{IdSpace, Ident};
use rechord_net::{
    ClusterClient, ClusterConfig, NetError, NetMsg, NodePeer, PeerAddr, RpcOp, TcpTransport,
    ThreadedCluster, Transport,
};
use rechord_placement::PlacementMap;
use rechord_routing::{route_step, HopDecision, KvStore, RoutingTable};
use rechord_sim::{Outbox, RoundView, SyncProtocol};
use rechord_topology::TopologyKind;
use rechord_workload::{EventQueue, Op, ServiceQueue, TrafficConfig, TrafficGen};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Batches per micro-measurement (the fastest is reported). This host
/// alternates, several times a second, between a fast mode and one about
/// 1.45x slower; eight short batches see the fast one with near certainty.
const BATCHES: usize = 8;
/// RPCs per timed batch of the ledger's own lock-step runs.
const LEDGER_BATCH: usize = 2_000;
/// Round cap for the ledger's own stabilizations.
const MAX_ROUNDS: u64 = 200_000;

/// The fastest of [`BATCHES`] executions of `f`, which returns the seconds
/// its measured part took (so it can build fresh inputs untimed).
fn best(mut f: impl FnMut() -> f64) -> f64 {
    (0..BATCHES).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `f(i)`, `i` in `0..iters`, best batch.
fn ns_per(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    best(|| {
        secs(|| {
            for i in 0..iters {
                f(i);
            }
        })
        .1
    }) * 1e9
        / iters as f64
}

/// What the ledger measured.
#[derive(Default)]
pub struct Out {
    /// The `per_layer` metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Measured only where the host has a loopback interface (the driver's
    /// sandbox has no network), so printed but not declared.
    pub optional: Vec<Metric>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Runs the whole ledger.
pub fn run(ctx: &Ctx) -> Out {
    // The ledger's own calls are not part of the workload's trace.
    let quiet = Ctx { tracer: Rc::new(Tracer::new(false)), fixed_reps: Some(1), ..ctx.clone() };
    let mut out = Out::default();
    id_layer(&quiet, &mut out);
    let engine = engine_layers(&quiet, &mut out);
    topology_layer(&quiet, &mut out);
    routing_layer(&quiet, &mut out);
    placement_layer(&quiet, &mut out);
    workload_layer(&quiet, &mut out, engine.round_dirty_stable_ms_64);
    net_layer(&quiet, &mut out);
    host_loopback(&quiet, &mut out);
    out
}

// ---- id --------------------------------------------------------------------

fn id_layer(ctx: &Ctx, out: &mut Out) {
    let space = IdSpace::new(ctx.seed);
    let ids: Vec<Ident> = (0..4096u64).map(|a| space.ident_of(a)).collect();
    let n = ids.len();
    // The four ring operations every routing and placement decision is made
    // of, in equal parts.
    let ring = ns_per(n * 16, |i| {
        let (a, b, c) = (ids[i % n], ids[(i * 7 + 1) % n], ids[(i * 13 + 5) % n]);
        black_box(a.dist_cw(b));
        black_box(c.in_open_arc(a, b));
        black_box(a.virtual_position((i % 20) as u8 + 1));
        black_box(a.midpoint_cw(b));
    }) / 4.0;
    out.put("id.ring_math_ns", ring, "ns");
    out.put(
        "id.key_position_ns",
        ns_per(1 << 18, |i| {
            black_box(space.key_position(i as u64));
        }),
        "ns",
    );
}

// ---- core + sim ------------------------------------------------------------

struct EngineFacts {
    round_dirty_stable_ms_64: f64,
}

type States = Vec<(Ident, PeerState)>;

fn states_of(net: &ReChordNetwork) -> States {
    net.engine().iter().map(|(id, st)| (id, st.clone())).collect()
}

/// Steps every peer once against `states` (clones excluded); returns
/// `(seconds, messages emitted)`.
fn step_all(states: &States) -> (f64, Vec<(Ident, rechord_core::Msg)>) {
    let proto = ReChordProtocol::full();
    let ids: Vec<Ident> = states.iter().map(|s| s.0).collect();
    let prev: Vec<PeerState> = states.iter().map(|s| s.1.clone()).collect();
    let mut work = prev.clone();
    let view = RoundView::new(&ids, &prev);
    let mut outbox = Outbox::new();
    let ((), t) = secs(|| {
        for (id, st) in ids.iter().zip(work.iter_mut()) {
            proto.step(*id, st, &view, &mut outbox);
        }
    });
    (t, outbox.into_inner())
}

fn engine_layers(ctx: &Ctx, out: &mut Out) -> EngineFacts {
    let peers = ctx.scale.pick(128, 48);
    let topo = TopologyKind::Random.generate(peers, ctx.seed);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    net.round();
    net.round();
    let chaotic = states_of(&net); // the round-2 state: every peer in flux
    assert!(net.run_until_stable(MAX_ROUNDS).converged, "the ledger network stabilizes");
    let stable = states_of(&net);
    let n = peers as f64;

    // core: one rule-set step, the snapshot clone, the fixpoint compare,
    // one delivery.
    out.put("core.step_chaotic_us", best(|| step_all(&chaotic).0) * 1e6 / n, "us");
    let step_stable_s = best(|| step_all(&stable).0);
    out.put("core.step_stable_us", step_stable_s * 1e6 / n, "us");
    let mut msgs = step_all(&stable).1;
    out.put("core.msgs_per_step_stable", msgs.len() as f64 / n, "count");
    // The engine's canonical delivery order: one sort of the round's outbox.
    let sort_s = best(|| {
        let mut unsorted = msgs.clone();
        secs(|| unsorted.sort_unstable()).1
    });
    out.put("sim.sort_stable_ms", sort_s * 1e3, "ms");
    let column: Vec<PeerState> = stable.iter().map(|s| s.1.clone()).collect();
    let clone_s = best(|| secs(|| black_box(column.clone())).1);
    out.put("core.state_clone_us", clone_s * 1e6 / n, "us");
    let copy = column.clone();
    let eq_s = best(|| secs(|| black_box(black_box(&copy) == black_box(&column))).1);
    out.put("core.state_eq_ns", eq_s * 1e9 / n, "ns");
    msgs.sort_unstable();
    let proto = ReChordProtocol::full();
    let ids: Vec<Ident> = stable.iter().map(|s| s.0).collect();
    let deliver_s = best(|| {
        let mut work = column.clone();
        secs(|| {
            for (to, msg) in &msgs {
                let i = ids.binary_search(to).expect("stable messages target live peers");
                proto.deliver(*to, &mut work[i], msg);
            }
        })
        .1
    });
    out.put("core.deliver_ns", deliver_s * 1e9 / msgs.len() as f64, "ns");
    out.put("core.audit_ms", best(|| secs(|| black_box(net.audit())).1) * 1e3, "ms");

    // sim: whole rounds, chaotic and at the fixpoint.
    let chaotic_round = best(|| {
        let mut fresh = ReChordNetwork::from_raw_states(chaotic.clone(), 1);
        secs(|| fresh.round()).1
    });
    out.put("sim.round_chaotic_ms", chaotic_round * 1e3, "ms");
    let mut msgs_per_round = 0;
    let stable_round = best(|| {
        let (o, t) = secs(|| net.round());
        assert!(!o.changed, "a round at the fixpoint changes nothing");
        msgs_per_round = o.delivered + o.dropped;
        t
    });
    out.put("sim.round_stable_ms", stable_round * 1e3, "ms");
    out.put("sim.round_dirty_stable_ms", best(|| secs(|| net.round_dirty()).1) * 1e3, "ms");
    out.put("sim.msgs_per_round_stable", msgs_per_round as f64, "count");
    // What the engine itself adds to a stable round: sort, merge, allocation.
    let parts = step_stable_s + clone_s + eq_s + deliver_s;
    out.put("sim.round_self_stable_ms", (stable_round - parts) * 1e3, "ms");
    let mut two = ReChordNetwork::from_raw_states(stable.clone(), 2);
    out.put("sim.round_stable_ms_t2", best(|| secs(|| two.round()).1) * 1e3, "ms");

    // The stable dirty round at the traffic-churn workload's 64 peers.
    let (mut net64, report) = ReChordNetwork::bootstrap_stable(64, ctx.seed, 1, MAX_ROUNDS);
    assert!(report.converged);
    let round_dirty_stable_ms_64 = best(|| secs(|| net64.round_dirty()).1) * 1e3;

    // routing: keeping a table current after one peer changed.
    let mut table = RoutingTable::from_network(&net);
    let refresh = ns_per(ids.len() * 4, |i| table.refresh_dirty(&net, &ids[i % ids.len()..][..1]));
    out.put("routing.refresh_dirty_us", refresh / 1e3, "us");
    EngineFacts { round_dirty_stable_ms_64 }
}

// ---- topology --------------------------------------------------------------

fn topology_layer(ctx: &Ctx, out: &mut Out) {
    let peers = ctx.scale.pick(256, 64);
    let t = best(|| secs(|| black_box(TopologyKind::Random.generate(peers, ctx.seed))).1);
    out.put("topology.generate_ms", t * 1e3, "ms");
}

// ---- routing ---------------------------------------------------------------

fn routing_layer(ctx: &Ctx, out: &mut Out) {
    let (peers, ..) = traffic::dataplane_sizes(ctx);
    let topo = TopologyKind::FingerRing.generate(peers, ctx.seed);
    let net = ReChordNetwork::from_topology(&topo, 1);
    let mut table = RoutingTable::default();
    let build = best(|| secs(|| table.refresh_from_network(&net)).1);
    out.put("routing.table_build_ms", build * 1e3, "ms");

    // Greedy routes between seeded (entry, key) pairs: cost per decision.
    let space = IdSpace::new(ctx.seed);
    let ids = table.peers().to_vec();
    let routes = 5_000usize;
    let (mut steps, mut hops) = (0u64, 0u64);
    let t = best(|| {
        (steps, hops) = (0, 0);
        secs(|| {
            for k in 0..routes {
                let key = space.key_position(k as u64 + 1);
                let mut peer = ids[(k * 2_654_435_761) % ids.len()];
                let mut cursor = peer;
                loop {
                    steps += 1;
                    match route_step(&table, peer, cursor, key) {
                        HopDecision::Next { peer: p, cursor: c } => {
                            hops += u64::from(p != peer);
                            (peer, cursor) = (p, c);
                        }
                        HopDecision::Arrived | HopDecision::Stuck => break,
                    }
                }
            }
        })
        .1
    });
    out.put("routing.route_step_ns", t * 1e9 / steps as f64, "ns");
    out.put("routing.hops_mean", hops as f64 / routes as f64, "count");

    // The direct-call oracle floor under one cluster RPC: the same request
    // stream against a KvStore over the same overlay.
    let sz = lockstep::sizes(ctx);
    for (suffix, nodes) in [("", sz.nodes), ("_n1", 1)] {
        let cfg = lockstep::cluster_config(nodes, ctx.seed);
        let mut net = ReChordNetwork::from_topology(&cfg.topology, 1);
        assert!(net.run_until_stable(MAX_ROUNDS).converged);
        let stream = lockstep::requests(ctx.seed, 30_000);
        let roster = cfg.topology.ids.clone();
        let (mut get_s, mut put_s) = (f64::INFINITY, f64::INFINITY);
        let (mut gets, mut puts) = (0u64, 0u64);
        for _ in 0..BATCHES {
            let table = RoutingTable::from_network(&net);
            let mut kv = KvStore::with_replication(table, IdSpace::new(ctx.seed), cfg.replication);
            let (mut g, mut p) = (0.0, 0.0);
            (gets, puts) = (0, 0);
            // Runs of equal operations are timed together (a clock read per
            // operation would cost as much as the operation).
            for run in stream.chunk_by(|a, b| a.op == b.op) {
                let ((), t) = secs(|| {
                    for req in run {
                        let via = roster[(req.id % roster.len() as u64) as usize];
                        match req.op {
                            Op::Get => {
                                black_box(kv.get(via, req.key));
                            }
                            Op::Put => {
                                black_box(kv.put(via, req.key, lockstep::put_value(req)));
                            }
                        }
                    }
                });
                match run[0].op {
                    Op::Get => (g, gets) = (g + t, gets + run.len() as u64),
                    Op::Put => (p, puts) = (p + t, puts + run.len() as u64),
                }
            }
            (get_s, put_s) = (get_s.min(g), put_s.min(p));
        }
        out.put(&format!("routing.kv_get_ns{suffix}"), get_s * 1e9 / gets as f64, "ns");
        if suffix.is_empty() {
            out.put("routing.kv_put_ns", put_s * 1e9 / puts as f64, "ns");
        }
    }
}

// ---- placement -------------------------------------------------------------

fn placement_layer(ctx: &Ctx, out: &mut Out) {
    let keys = ctx.scale.pick(200_000u64, 50_000);
    let space = IdSpace::new(ctx.seed);
    let peers: Vec<Ident> = (0..64u64).map(|a| space.ident_of(a)).collect();
    let rows = || (1..=keys).map(|k| (space.key_position(k), k, 0u64, ()));
    let mut map: PlacementMap<()> = PlacementMap::from_peers(&peers, 2);
    let load = best(|| {
        map = PlacementMap::from_peers(&peers, 2);
        secs(|| map.bulk_load(rows())).1
    });
    out.put("placement.bulk_load_ns_per_key", load * 1e9 / keys as f64, "ns");

    let probes: Vec<(Ident, u64)> =
        (0..50_000u64).map(|i| (i * 7919) % keys + 1).map(|k| (space.key_position(k), k)).collect();
    out.put(
        "placement.lookup_ns",
        ns_per(probes.len(), |i| {
            black_box(map.lookup(probes[i].0, probes[i].1));
        }),
        "ns",
    );
    let mut version = 0;
    out.put(
        "placement.put_ns",
        ns_per(probes.len(), |i| {
            version += 1;
            black_box(map.put(probes[i].0, probes[i].1, version, ()));
        }),
        "ns",
    );
    out.put("placement.digest_ms", best(|| secs(|| black_box(map.digest())).1) * 1e3, "ms");
    let rebuild = best(|| {
        let mut m = map.clone();
        secs(|| black_box(m.rebuild())).1
    });
    out.put("placement.rebuild_ms", rebuild * 1e3, "ms");

    // One join: the arc split plus the incremental repair it makes due.
    let mut moved = 0;
    let join = best(|| {
        let mut m = map.clone();
        let joiner = space.ident_of(1_000_003);
        secs(|| {
            m.apply_join(joiner);
            moved = m.repair_delta().keys_moved;
        })
        .1
    });
    out.put("placement.join_repair_ms", join * 1e3, "ms");
    out.put("placement.keys_moved_per_join", moved as f64, "count");
    // The same repair paced at the traffic-churn workload's 400 keys a tick.
    let step = best(|| {
        let mut m = map.clone();
        m.apply_join(space.ident_of(1_000_003));
        m.begin_repair();
        let mut steps = 0;
        let ((), t) = secs(|| loop {
            steps += 1;
            if m.repair_step(400).done {
                break;
            }
        });
        t / steps as f64
    });
    out.put("placement.repair_step_us", step * 1e6, "us");
}

// ---- workload --------------------------------------------------------------

fn workload_layer(ctx: &Ctx, out: &mut Out, round_dirty_stable_ms_64: f64) {
    let traffic_cfg = TrafficConfig {
        mean_interarrival: 1.0,
        key_universe: 1_000_000,
        zipf_exponent: 0.0,
        put_fraction: 0.1,
        hot_key: None,
    };
    let mut gen = TrafficGen::new(traffic_cfg, ctx.seed);
    out.put(
        "workload.gen_ns",
        ns_per(100_000, |i| {
            black_box(gen.next_request(i as u64));
            black_box(gen.next_gap());
        }),
        "ns",
    );
    // A future-event list holding about a thousand events, one push and
    // one pop per event — the data plane's steady state.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..1024u64 {
        queue.push(i * 3 % 1024, i);
    }
    out.put(
        "workload.event_queue_ns",
        ns_per(1 << 18, |i| {
            let (now, e) = queue.pop().expect("the queue never drains");
            queue.push(now + 5 + (e * 7 + i as u64) % 11, e);
        }),
        "ns",
    );
    let space = IdSpace::new(ctx.seed);
    let peers: Vec<Ident> = (0..4096u64).map(|a| space.ident_of(a)).collect();
    let mut service = ServiceQueue::new(2);
    service.sync_peers(&peers);
    out.put(
        "workload.service_queue_ns",
        ns_per(1 << 18, |i| {
            black_box(service.admit(peers[(i * 31) % peers.len()], i as u64 / 8));
        }),
        "ns",
    );

    // Whole runs, at the workloads' own sizes.
    let (peers, keys, horizon) = traffic::dataplane_sizes(ctx);
    let data = |workers| traffic::dataplane_scenario(ctx, ctx.seed, peers, keys, horizon, workers);
    let fixed = traffic::run_fixed_s(ctx, data(1));
    out.put("workload.run_fixed_s", fixed, "s");
    let sim = traffic::build(ctx, data(1));
    let (report, run_s) = secs(|| sim.run());
    out.put("workload.ns_per_event", (run_s - fixed).max(0.0) * 1e9 / report.events as f64, "ns");
    out.put(
        "workload.summary_ms",
        best(|| secs(|| black_box(report.sink.summary())).1) * 1e3,
        "ms",
    );
    let sim2 = traffic::build(ctx, data(2));
    let (report2, run2_s) = secs(|| sim2.run());
    out.put("workload.events_per_s_w2", report2.events as f64 / run2_s, "1/s");

    let (keys, horizon) = traffic::churn_sizes(ctx);
    let churn = || traffic::churn_scenario(ctx, ctx.seed, keys, horizon);
    out.put("workload.run_fixed_churn_s", traffic::run_fixed_s(ctx, churn()), "s");
    let mut rounds = 0;
    let churn_s = (0..2)
        .map(|_| {
            let sim = traffic::build(ctx, churn());
            let (report, t) = secs(|| sim.run());
            rounds = report.rounds;
            t
        })
        .fold(f64::INFINITY, f64::min);
    // The share of the traffic-churn run that is protocol rounds at the
    // fixpoint: why its events/s is a statement about rounds.
    let share = rounds as f64 * round_dirty_stable_ms_64 / 1e3 / churn_s;
    out.put("workload.rounds_share_churn", share, "ratio");
}

// ---- net -------------------------------------------------------------------

/// Encode (frame) and decode (split + decode) cost of one message, ns, and
/// its frame size.
fn codec(msg: &NetMsg, iters: usize) -> (f64, f64, usize) {
    let mut buf = Vec::new();
    let enc = ns_per(iters, |_| {
        buf.clear();
        black_box(msg).frame_into(&mut buf);
    });
    let frame = msg.to_frame();
    let dec = ns_per(iters, |_| {
        let (payload, _) = rechord_net::wire::split_frame(black_box(&frame))
            .expect("a well-formed frame")
            .expect("a complete frame");
        black_box(NetMsg::decode(payload).expect("decodes"));
    });
    (enc, dec, frame.len())
}

/// A transport that answers every request at once: what remains is the
/// client's own bookkeeping (window, fencing, correlation, latency log).
struct InstantReply {
    me: Ident,
    inbox: std::collections::VecDeque<(Ident, NetMsg)>,
}

impl Transport for InstantReply {
    fn local(&self) -> Ident {
        self.me
    }
    fn connect(&mut self, _: Ident, _: &PeerAddr) -> Result<(), NetError> {
        Ok(())
    }
    fn send(&mut self, to: Ident, msg: NetMsg) -> Result<(), NetError> {
        let rpc = match msg {
            NetMsg::GetReq { rpc, .. } | NetMsg::PutReq { rpc, .. } => rpc,
            _ => return Ok(()),
        };
        let reply = NetMsg::Reply { rpc, ok: true, hops: 0, responsible: to, value: None };
        self.inbox.push_back((to, reply));
        Ok(())
    }
    fn recv(&mut self, _: Option<Duration>) -> Result<(Ident, NetMsg), NetError> {
        self.inbox.pop_front().ok_or(NetError::Timeout)
    }
}

/// Is this message part of serving a get (`Some(false)`), a put
/// (`Some(true)`), or neither?
fn is_put(msg: &NetMsg) -> Option<bool> {
    match msg {
        NetMsg::GetReq { .. } => Some(false),
        NetMsg::PutReq { .. } | NetMsg::ReplicaPut { .. } => Some(true),
        NetMsg::Forward(f) => match f.op {
            RpcOp::Get => Some(false),
            RpcOp::Put => Some(true),
            RpcOp::Lookup => None,
        },
        _ => None,
    }
}

/// The captured node-bound messages of one class (`put` or not), cloned.
fn inputs_of(captured: &[Captured], put: bool) -> Vec<Captured> {
    captured.iter().filter(|c| is_put(&c.2) == Some(put)).cloned().collect()
}

/// Replays captured node input through `NodePeer::handle` with every send
/// discarded; returns `(ns per get-path handle, ns per put-path handle)`.
fn replay_handles(built: &lockstep::Built, captured: &[Captured]) -> (f64, f64) {
    built.fabric.set_mode(Mode::OnlyFrom(CLIENT));
    let result = built.cluster.with_nodes(|nodes| {
        let ids: Vec<Ident> = nodes.iter().map(|n| n.me()).collect();
        [false, true].map(|put| {
            let inputs = inputs_of(captured, put);
            let calls = inputs.len().max(1) as f64;
            best(|| {
                let fresh = inputs.clone();
                secs(|| {
                    for (to, from, msg) in fresh {
                        let i = ids.binary_search(&to).expect("a node");
                        nodes[i].handle(from, msg).expect("handle");
                    }
                })
                .1
            }) * 1e9
                / calls
        })
    });
    built.fabric.set_mode(Mode::Deliver);
    (result[0], result[1])
}

/// The same captured input, this time through the whole lock-step path:
/// the client's endpoint frames each message to its node, then blocks in
/// `recv`, which pumps that node (decode, tick, handle) and gives up when
/// the cluster is quiet — what the node sends in answer is discarded.
/// Nanoseconds per node-bound message.
///
/// With `empty`, every message is replaced by a `Pong`, which a node
/// decodes and ignores: what remains is the driver itself — framing,
/// queues, ready set, the node's pump loop.
fn replay_through_driver(run: &mut LockstepRun, empty: bool) -> f64 {
    run.built.fabric.set_mode(Mode::OnlyFrom(CLIENT));
    let inputs: Vec<Captured> = run
        .captured
        .iter()
        .filter(|c| is_put(&c.2).is_some())
        .map(|(to, from, msg)| {
            let msg = if empty { NetMsg::Pong { serving: true } } else { msg.clone() };
            (*to, *from, msg)
        })
        .collect();
    let endpoint = run.client.transport_mut();
    let quiet_poll = ns_per(50_000, |_| {
        black_box(endpoint.recv(Some(Duration::from_secs(1))).is_err());
    });
    let ns = best(|| {
        let fresh = inputs.clone();
        secs(|| {
            for (to, _, msg) in fresh {
                endpoint.send(to, msg).expect("send");
                let quiet = endpoint.recv(Some(Duration::from_secs(1)));
                debug_assert!(quiet.is_err(), "every answer is discarded");
            }
        })
        .1
    }) * 1e9
        / inputs.len().max(1) as f64;
    run.built.fabric.set_mode(Mode::Deliver);
    ns - quiet_poll
}

/// A lock-step cluster of `nodes` brought to serving, plus the window-1
/// latencies of `rpcs` requests on it.
struct LockstepRun {
    built: lockstep::Built,
    client: ClusterClient<Endpoint>,
    bring_up_s: f64,
    rounds: u64,
    sync_bytes: u64,
    /// Mean RPC latency of the fastest batch, microseconds (batches hold
    /// the same number of statistically alike requests; the fastest ran
    /// in the host's fast mode, like the best-of-batches parts it is
    /// compared with).
    best_mean_us: f64,
    lat_us: Vec<f64>,
    msgs: u64,
    bytes: u64,
    captured: Vec<Captured>,
}

fn lockstep_run(ctx: &Ctx, cfg: &ClusterConfig, rpcs: usize) -> LockstepRun {
    let built = lockstep::construct(ctx, cfg);
    let (bring_up, bring_up_s) = secs(|| lockstep::stabilize(ctx, &built).expect("stabilizes"));
    let sync_bytes = built.fabric.counters().1;
    let mut client = lockstep::client(&built, &cfg.topology.ids, ctx.seed);
    assert!(client.wait_serving(Duration::from_secs(30)).expect("ping"), "serving");
    let stream = lockstep::requests(ctx.seed, rpcs);
    let (m0, b0) = built.fabric.counters();
    built.fabric.capture(60_000);
    let mut results = Vec::with_capacity(rpcs);
    let segments = lockstep::drive(ctx, &mut client, &stream, LEDGER_BATCH, &mut results)
        .expect("window-1 replay");
    let captured = built.fabric.take_captured();
    let (m1, b1) = built.fabric.counters();
    assert!(results.iter().all(|r| r.ok), "a stable cluster serves every RPC");
    LockstepRun {
        built,
        client,
        bring_up_s,
        rounds: bring_up.rounds,
        sync_bytes,
        best_mean_us: segments
            .iter()
            .filter(|s| s.samples_us.len() == LEDGER_BATCH)
            .map(|s| s.secs * 1e6 / LEDGER_BATCH as f64)
            .fold(f64::INFINITY, f64::min),
        lat_us: segments.iter().flat_map(|s| s.samples_us.iter().map(|&x| f64::from(x))).collect(),
        msgs: m1 - m0,
        bytes: b1 - b0,
        captured,
    }
}

fn net_layer(ctx: &Ctx, out: &mut Out) {
    let sz = lockstep::sizes(ctx);
    let rpcs = ctx.scale.pick(60_000, 6_000);
    let cfg = lockstep::cluster_config(sz.nodes, ctx.seed);
    let mut run = lockstep_run(ctx, &cfg, rpcs);

    // Codec, on the data plane's two commonest messages and on a full
    // protocol state as stabilization broadcasts it.
    let (enc, dec, bytes) = codec(&NetMsg::GetReq { rpc: 77, key: 12_345 }, 50_000);
    out.put("net.encode_ns.get", enc, "ns");
    out.put("net.decode_ns.get", dec, "ns");
    out.put("net.frame_bytes.get", bytes as f64, "count");
    let reply = NetMsg::Reply {
        rpc: 77,
        ok: true,
        hops: 6,
        responsible: cfg.topology.ids[0],
        value: Some("v123456-12345".into()),
    };
    let (enc, dec, _) = codec(&reply, 50_000);
    out.put("net.encode_ns.reply", enc, "ns");
    out.put("net.decode_ns.reply", dec, "ns");
    let states: Vec<PeerState> =
        run.built.cluster.with_nodes(|n| n.iter().map(|n| n.state().clone()).collect());
    let (mut enc_s, mut dec_s, mut frame_s) = (0.0, 0.0, 0.0);
    for st in &states {
        let (e, d, b) = codec(&NetMsg::StateSync { round: 9, state: Box::new(st.clone()) }, 50);
        (enc_s, dec_s, frame_s) = (enc_s + e, dec_s + d, frame_s + b as f64);
    }
    let n = states.len() as f64;
    out.put("net.encode_us.state", enc_s / n / 1e3, "us");
    out.put("net.decode_us.state", dec_s / n / 1e3, "us");
    out.put("net.frame_bytes.state", frame_s / n, "count");

    // One RPC's parts.
    let (get_ns, put_ns) = replay_handles(&run.built, &run.captured);
    out.put("net.handle_ns.get", get_ns, "ns");
    out.put("net.handle_ns.put", put_ns, "ns");
    out.put("net.lockstep.node_msg_ns", replay_through_driver(&mut run, false), "ns");
    out.put("net.lockstep.driver_ns", replay_through_driver(&mut run, true), "ns");
    let instant = InstantReply { me: CLIENT, inbox: Default::default() };
    let mut client =
        ClusterClient::new(instant, cfg.topology.ids.clone(), ctx.seed, Duration::from_secs(1));
    out.put(
        "net.client_ns",
        ns_per(50_000, |i| {
            drop(black_box(client.submit_get(i as u64 % 65_536).expect("instant reply")))
        }),
        "ns",
    );
    // A forwarded request is the commonest message of a route; the reply
    // is the one message of an RPC that a node frames and the client decodes.
    let forward =
        run.captured.iter().find(|c| matches!(c.2, NetMsg::Forward(_))).map(|c| c.2.clone());
    let (enc, dec, _) = codec(&forward.unwrap_or(NetMsg::GetReq { rpc: 1, key: 1 }), 50_000);
    out.put("net.codec_ns.forward", enc + dec, "ns");
    let fabric = Fabric::new(Rc::new(Tracer::new(false)));
    let (a, b) = (Ident::from_raw(1), Ident::from_raw(2));
    let (mut ea, mut eb): (Endpoint, Endpoint) = (fabric.endpoint(a), fabric.endpoint(b));
    let reply_whole = ns_per(50_000, |_| {
        ea.send(b, reply.clone()).expect("send");
        black_box(eb.try_recv().expect("recv"));
    });
    out.put("net.lockstep.reply_msg_ns", reply_whole, "ns");

    out.put("net.msgs_per_rpc", run.msgs as f64 / rpcs as f64, "count");
    out.put("net.bytes_per_rpc", run.bytes as f64 / rpcs as f64, "count");
    out.put("net.sync.round_ms", run.bring_up_s * 1e3 / run.rounds as f64, "ms");
    out.put("net.sync.bytes_per_round", run.sync_bytes as f64 / run.rounds as f64, "count");
    out.put("net.lockstep.rpc_mean_us_w1", run.best_mean_us, "us");
    let mut lat = run.lat_us.clone();
    lat.sort_by(f64::total_cmp);
    out.put("net.lockstep.rpc_p99_us_w1", stats::quantile_sorted(&lat, 0.99), "us");

    // The one-node cluster the host-loopback ladder is built on: an RPC,
    // and the ping whose round trip defines a hand-off there.
    let mut one = lockstep_run(ctx, &lockstep::cluster_config(1, ctx.seed), 0);
    let walls: Vec<f64> = lockstep::requests(ctx.seed, rpcs)
        .iter()
        .map(|req| {
            secs(|| {
                match req.op {
                    Op::Put => {
                        one.client.submit_put(req.key, lockstep::put_value(req)).expect("put")
                    }
                    Op::Get => one.client.submit_get(req.key).expect("get"),
                };
                one.client.drain().expect("drain");
            })
            .1
        })
        .collect();
    out.put("net.lockstep.rpc_p50_us_w1_n1", stats::median(&walls) * 1e6, "us");
    let node = one.built.cluster.with_nodes(|n| n[0].me());
    let endpoint = one.client.transport_mut();
    let ping = ns_per(50_000, |_| {
        endpoint.send(node, NetMsg::Ping).expect("ping");
        black_box(endpoint.recv(Some(Duration::from_secs(1))).expect("pong"));
    });
    out.put("net.lockstep.ping_us_n1", ping / 1e3, "us");
}

// ---- host loopback (threads and sockets: this host's scheduler) -------------

/// What a client on this thread sees of one node on another thread.
struct Loopback {
    /// Median one-way hand-off: half a ping's round trip through the
    /// node's own receive loop, microseconds.
    handoff_us: f64,
    /// Median window-1 RPC latency, microseconds.
    rpc_p50_us_w1: f64,
    /// RPC/s at window 64.
    rpc_per_s_w64: f64,
}

/// Pings and window-1 RPCs, interleaved so that both see the same
/// scheduler, then windowed RPCs, against an already running one-node
/// cluster; shuts the node down at the end.
fn loopback_client<T: Transport>(ctx: &Ctx, transport: T, node: Ident) -> Loopback {
    let (w1, windowed) = (ctx.scale.pick(10_000, 1_000), ctx.scale.pick(40_000, 4_000));
    let patience = Some(Duration::from_secs(30));
    let mut client = ClusterClient::new(transport, vec![node], ctx.seed, Duration::from_secs(30));
    assert!(client.wait_serving(Duration::from_secs(60)).expect("ping"), "the node serves");
    let stream = lockstep::requests(ctx.seed, w1 + windowed);
    let submit = |client: &mut ClusterClient<T>, req: &rechord_workload::Request| match req.op {
        Op::Put => client.submit_put(req.key, lockstep::put_value(req)).expect("put"),
        Op::Get => client.submit_get(req.key).expect("get"),
    };
    let (mut round_trips, mut rpcs) = (Vec::with_capacity(w1), Vec::with_capacity(w1));
    for req in &stream[..w1] {
        let transport = client.transport_mut();
        round_trips.push(
            secs(|| {
                transport.send(node, NetMsg::Ping).expect("ping leaves");
                transport.recv(patience).expect("pong arrives");
            })
            .1,
        );
        // Timed here, send included: the client's own latency log starts
        // its clock after the request has left.
        rpcs.push(
            secs(|| {
                submit(&mut client, req);
                client.drain().expect("drain");
            })
            .1,
        );
    }
    let rpc_p50_us_w1 = stats::median(&rpcs) * 1e6;
    let mut client = client.with_window(lockstep::WINDOW);
    let ((), t) = secs(|| {
        for req in &stream[w1..] {
            submit(&mut client, req);
        }
        client.drain().expect("drain");
    });
    client.shutdown_all().expect("shutdown");
    Loopback {
        handoff_us: stats::median(&round_trips) * 1e6 / 2.0,
        rpc_p50_us_w1,
        rpc_per_s_w64: windowed as f64 / t,
    }
}

/// Can this process open a TCP connection to itself?
fn has_loopback() -> bool {
    let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else { return false };
    listener.local_addr().and_then(std::net::TcpStream::connect).is_ok()
}

/// Two threads only — one node, one client — over the in-memory fabric and,
/// where the host has a loopback interface, over TCP on it. These numbers
/// measure this host's scheduler and loopback; they exist to be subtracted
/// from a threaded or socket measurement, and nothing gates on them.
fn host_loopback(ctx: &Ctx, out: &mut Out) {
    let cfg = lockstep::cluster_config(1, ctx.seed);
    let node_id = cfg.topology.ids[0];

    let cluster = ThreadedCluster::launch(&cfg);
    let inmem = loopback_client(ctx, cluster.client_endpoint(CLIENT), node_id);
    cluster.join().expect("node thread");
    out.put("net.inmem.handoff_us", inmem.handoff_us, "us");
    out.put("net.threaded.rpc_p50_us_w1", inmem.rpc_p50_us_w1, "us");
    out.put("net.threaded.rpc_per_s_w64", inmem.rpc_per_s_w64, "1/s");

    if !has_loopback() {
        return;
    }
    let loopback = "127.0.0.1:0".parse().expect("a socket address");
    let node_transport = TcpTransport::bind(node_id, loopback).expect("bind");
    let addr = node_transport.local_addr();
    let node_cfg = cfg.node_config(node_id);
    let node = std::thread::spawn(move || {
        NodePeer::new(node_transport, node_cfg).run(Duration::from_millis(2))
    });
    let mut transport = TcpTransport::bind(CLIENT, loopback).expect("bind");
    transport.connect(node_id, &PeerAddr::Socket(addr)).expect("dial");
    let tcp = loopback_client(ctx, transport, node_id);
    node.join().expect("node thread").expect("node run");
    out.optional.push(("net.tcp.handoff_us".into(), tcp.handoff_us, "us"));
    out.optional.push(("net.tcp.rpc_p50_us_w1".into(), tcp.rpc_p50_us_w1, "us"));
}

// ---- spans -----------------------------------------------------------------

/// Layers a workload's trace can attribute self time to.
const SPAN_LAYERS: [&str; 7] = ["bench", "topology", "core", "sim", "workload", "net", "untraced"];

/// The metrics that follow the traced workload: self time per layer from
/// its spans, and what tracing cost.
pub fn span_metrics(spans: &[Span], plain: &Report, traced: &Report) -> Vec<Metric> {
    let by_layer = trace::self_ns_by_layer(spans);
    let mut out: Vec<Metric> = SPAN_LAYERS
        .iter()
        .map(|l| {
            (format!("trace.self_ms.{l}"), by_layer.get(l).copied().unwrap_or(0) as f64 / 1e6, "ms")
        })
        .collect();
    out.push(("trace.spans".into(), spans.len() as f64, "count"));
    // Both runs executed the same fixed work; the traced one recorded spans
    // in part of it, and that part is what the two are compared on.
    let overhead = (traced.traced_window_s / plain.traced_window_s - 1.0) * 100.0;
    out.push(("trace_overhead_pct".into(), overhead, "%"));
    out
}
