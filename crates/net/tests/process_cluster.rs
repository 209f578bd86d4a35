//! Integration: a live cluster answers exactly like a function call. One
//! seeded 10k-RPC get/put stream is served by the direct-call `KvStore`
//! oracle, by an in-memory cluster (one OS thread per node), and by three
//! real `node` *processes* over TCP loopback — strictly serially
//! (`window = 1`, one client), pipelined (`window = 16`), and pipelined
//! from four concurrent clients — and every per-RPC `(ok, hops,
//! responsible, value)` must agree at every setting.
//!
//! Concurrent clients own disjoint key shards (`key % clients == c`), so
//! per-shard results are independent of how their pipelines interleave and
//! the oracle can replay the shards one after another. Entry peers are
//! drawn per client as `mix(entry_seed, rpc) % n` with client-local
//! 1-based rpc ids; the oracle replays each shard with the same draw.
//!
//! The node processes must also report convergence and zero wire errors,
//! and exit with status 0 on shutdown; a `Reaper` kills them if an
//! assertion panics first.

use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::{IdSpace, Ident};
use rechord_net::{
    ClusterClient, ClusterConfig, PeerAddr, RpcResult, TcpTransport, ThreadedCluster, Transport,
};
use rechord_routing::{KvStore, RoutingTable};
use rechord_topology::TopologyKind;
use rechord_workload::{Op, Request, TrafficConfig, TrafficGen};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 0xc1;
const NODES: usize = 3;
const RPCS: u64 = 10_000;
const WINDOW: usize = 16;
const CLIENTS: usize = 4;

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        topology: TopologyKind::Random.generate(NODES, SEED),
        space_seed: SEED,
        replication: 2,
        max_rounds: 200_000,
    }
}

/// The shared request stream: every backend replays exactly these.
fn workload() -> Vec<Request> {
    let cfg = TrafficConfig {
        mean_interarrival: 1.0,
        key_universe: 256,
        zipf_exponent: 0.9,
        put_fraction: 0.1,
        hot_key: None,
    };
    let mut gen = TrafficGen::new(cfg, SEED);
    (0..RPCS).map(|k| gen.next_request(k)).collect()
}

/// The put payload is a pure function of the request, so every backend
/// writes (and the oracle expects) the same bytes.
fn put_value(req: &Request) -> String {
    format!("v{}-{}", req.id, req.key)
}

/// Splits the stream into per-client shards by `key % clients`.
fn shard(requests: &[Request], clients: usize) -> Vec<Vec<Request>> {
    let mut shards = vec![Vec::new(); clients];
    for &req in requests {
        shards[(req.key % clients as u64) as usize].push(req);
    }
    shards
}

/// Entry-peer seed of one client: a single client uses the cluster seed, a
/// fleet gets distinct deterministic seeds, mirrored by the oracle replay.
fn client_entry_seed(client: usize, clients: usize) -> u64 {
    if clients == 1 {
        SEED
    } else {
        mix(&[SEED, 0x5eed, client as u64])
    }
}

/// Identifier of worker client `c`. Roster ids are random draws well away
/// from the top of the space; `u64::MAX` itself is the control client.
fn client_ident(c: usize) -> Ident {
    Ident::from_raw(u64::MAX - 1 - c as u64)
}

/// The direct-call reference: the same topology stabilized in the engine,
/// the shards replayed one after another against one fresh `KvStore` with
/// the clients' rpc-id and entry-peer draws.
fn oracle(cfg: &ClusterConfig, shards: &[Vec<Request>]) -> Vec<Vec<RpcResult>> {
    let mut net = ReChordNetwork::from_topology(&cfg.topology, 1);
    assert!(net.run_until_stable(cfg.max_rounds).converged, "oracle overlay must stabilize");
    let table = RoutingTable::from_network(&net);
    let mut kv = KvStore::with_replication(table, IdSpace::new(cfg.space_seed), cfg.replication);
    let roster = &cfg.topology.ids;
    let mut replay = |seed: u64, i: usize, req: &Request| {
        let rpc = i as u64 + 1; // client rpc ids are 1-based
        let via = roster[(mix(&[seed, rpc]) as usize) % roster.len()];
        let (value, out) = match req.op {
            Op::Put => (None, kv.put(via, req.key, put_value(req)).expect("non-empty roster")),
            Op::Get => {
                let (value, out) = kv.get(via, req.key).expect("non-empty roster");
                (value.map(str::to_string), out)
            }
        };
        RpcResult {
            rpc,
            ok: out.routed,
            hops: out.hops as u32,
            responsible: out.responsible,
            value,
        }
    };
    shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            let seed = client_entry_seed(c, shards.len());
            shard.iter().enumerate().map(|(i, req)| replay(seed, i, req)).collect()
        })
        .collect()
}

/// One worker client on its own thread: wait for serving, replay its shard
/// pipelined up to `window`, hand back the results in issue order.
fn spawn_client<T: Transport + Send + 'static>(
    transport: T,
    roster: Vec<Ident>,
    seed: u64,
    window: usize,
    shard: Vec<Request>,
) -> std::thread::JoinHandle<Vec<RpcResult>> {
    std::thread::spawn(move || {
        let mut client = ClusterClient::new(transport, roster, seed, Duration::from_secs(30))
            .with_window(window);
        assert!(
            client.wait_serving(Duration::from_secs(120)).expect("ping poll"),
            "cluster must reach serving"
        );
        let mut results = Vec::with_capacity(shard.len());
        for req in &shard {
            let done = match req.op {
                Op::Put => client.submit_put(req.key, put_value(req)),
                Op::Get => client.submit_get(req.key),
            };
            results.extend(done.expect("pipelined rpc"));
        }
        results.extend(client.drain().expect("drain"));
        results
    })
}

/// Serves `shards` (one client each) on a fresh in-memory cluster.
fn inmem_run(cfg: &ClusterConfig, shards: &[Vec<Request>], window: usize) -> Vec<Vec<RpcResult>> {
    let cluster = ThreadedCluster::launch(cfg);
    let workers: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            spawn_client(
                cluster.client_endpoint(client_ident(c)),
                cluster.roster().to_vec(),
                client_entry_seed(c, shards.len()),
                window,
                shard.clone(),
            )
        })
        .collect();
    let results = workers.into_iter().map(|w| w.join().expect("client thread")).collect();

    let mut control = ClusterClient::new(
        cluster.client_endpoint(Ident::from_raw(u64::MAX)),
        cluster.roster().to_vec(),
        SEED,
        Duration::from_secs(30),
    );
    control.shutdown_all().expect("shutdown");
    let reports = cluster.join().expect("node threads");
    assert!(reports.iter().all(|r| r.converged), "every in-mem node must converge");
    assert!(reports.iter().all(|r| r.wire_errors == 0), "a healthy cluster decodes every frame");
    results
}

/// Kills every child on drop, so a panicked assertion cannot leak node
/// processes past the test.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Dials every node from a fresh client socket.
fn tcp_client_transport(id: Ident, roster: &[Ident], addrs: &[SocketAddr]) -> TcpTransport {
    let mut transport =
        TcpTransport::bind(id, "127.0.0.1:0".parse().unwrap()).expect("bind client");
    for (peer, addr) in roster.iter().zip(addrs) {
        transport.connect(*peer, &PeerAddr::Socket(*addr)).expect("dial node");
    }
    transport
}

/// Serves `shards` (one client socket each) on freshly spawned `node`
/// processes, then audits their counters and shuts them down cleanly.
fn tcp_run(cfg: &ClusterConfig, shards: &[Vec<Request>], window: usize) -> Vec<Vec<RpcResult>> {
    let roster = cfg.topology.ids.clone();
    // Reserve distinct loopback ports by binding and releasing port-0
    // listeners; the window between release and the child's bind is the
    // standard (benign on an otherwise-idle loopback) race.
    let addrs: Vec<SocketAddr> = {
        let listeners: Vec<TcpListener> =
            roster.iter().map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve")).collect();
        listeners.iter().map(|l| l.local_addr().expect("local addr")).collect()
    };
    let roster_arg = roster
        .iter()
        .zip(&addrs)
        .map(|(id, addr)| format!("{}@{addr}", id.raw()))
        .collect::<Vec<_>>()
        .join(",");

    let mut children = Reaper(Vec::new());
    for (&id, addr) in roster.iter().zip(&addrs) {
        let contacts = cfg
            .topology
            .contacts_of(id)
            .iter()
            .map(|c| c.raw().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let child = Command::new(env!("CARGO_BIN_EXE_node"))
            .args(["--ident", &id.raw().to_string()])
            .args(["--listen", &addr.to_string()])
            .args(["--roster", &roster_arg])
            .args(["--contacts", &contacts])
            .args(["--seed", &cfg.space_seed.to_string()])
            .args(["--replication", &cfg.replication.to_string()])
            .args(["--max-rounds", &cfg.max_rounds.to_string()])
            .stdout(Stdio::null()) // its one "done" line would land inside libtest's report
            .spawn()
            .expect("spawn node process");
        children.0.push(child);
    }

    let workers: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            spawn_client(
                tcp_client_transport(client_ident(c), &roster, &addrs),
                roster.clone(),
                client_entry_seed(c, shards.len()),
                window,
                shard.clone(),
            )
        })
        .collect();
    let results = workers.into_iter().map(|w| w.join().expect("client thread")).collect();

    let mut control = ClusterClient::new(
        tcp_client_transport(Ident::from_raw(u64::MAX), &roster, &addrs),
        roster.clone(),
        SEED,
        Duration::from_secs(30),
    );
    for &peer in &roster {
        let report = control.stats_of(peer).expect("node stats");
        assert!(report.converged, "node {peer} must report convergence");
        assert_eq!(report.wire_errors, 0, "node {peer} dropped frames as undecodable");
    }
    control.shutdown_all().expect("shutdown");
    for child in &mut children.0 {
        let status = child.wait().expect("wait node");
        assert!(status.success(), "node process exited nonzero: {status}");
    }
    results
}

fn assert_matches(name: &str, got: &[Vec<RpcResult>], want: &[Vec<RpcResult>]) {
    assert_eq!(got.len(), want.len(), "{name}: shard count mismatch");
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{name}: shard {c} length mismatch");
        for (i, (gr, wr)) in g.iter().zip(w).enumerate() {
            assert_eq!(gr, wr, "{name}: client {c} diverged at its rpc {}", i + 1);
        }
    }
}

type Backend = fn(&ClusterConfig, &[Vec<Request>], usize) -> Vec<Vec<RpcResult>>;

/// The three settings on one backend, each checked against the oracle
/// replay with the matching sharding. The serial row is the regression
/// anchor: `window = 1` behaves exactly like a one-in-flight client.
fn assert_backend_matches_oracle(name: &str, run: Backend) {
    let cfg = cluster_cfg();
    let requests = workload();
    let single = vec![requests.clone()];
    let sharded = shard(&requests, CLIENTS);
    let want_single = oracle(&cfg, &single);
    assert!(want_single[0].iter().all(|r| r.ok), "a stable cluster must serve every RPC");

    let serial = run(&cfg, &single, 1);
    assert_matches(&format!("{name} serial"), &serial, &want_single);
    let windowed = run(&cfg, &single, WINDOW);
    assert_matches(&format!("{name} windowed"), &windowed, &want_single);
    let fleet = run(&cfg, &sharded, WINDOW);
    assert_matches(&format!("{name} fleet"), &fleet, &oracle(&cfg, &sharded));
}

#[test]
fn threaded_cluster_matches_oracle_at_every_setting() {
    assert_backend_matches_oracle("inmem", inmem_run);
}

#[test]
fn node_processes_match_oracle_at_every_setting() {
    if !rechord_net::tcp::loopback_or_skip() {
        return;
    }
    assert_backend_matches_oracle("tcp", tcp_run);
}
