//! Integration: pipelining never changes an answer. The same seeded
//! get/put workload replayed through `ClusterClient` at `window ∈
//! {1, 4, 32}` — over the in-memory fabric and over real TCP sockets —
//! produces per-RPC `RpcResult`s identical to the direct-call `KvStore`
//! oracle and to the strictly serial `window=1` run.
//!
//! This is the contract that lets the benchmark report pipelined
//! throughput as *the same computation, faster*: the reply-correlation
//! map restores issue order, and the client's per-key fence keeps
//! conflicting requests (any pair on one key where either is a put) from
//! overlapping, so every interleaving the transports can produce yields
//! the serial answers.

use rechord::core::adversary::mix;
use rechord::core::network::ReChordNetwork;
use rechord::id::{IdSpace, Ident};
use rechord::net::{
    ClusterClient, ClusterConfig, NodeConfig, NodePeer, PeerAddr, RpcResult, TcpTransport,
    ThreadedCluster, Transport,
};
use rechord::routing::{KvStore, RoutingTable};
use rechord::topology::TopologyKind;
use rechord::workload::{Op, Request, TrafficConfig, TrafficGen};
use std::time::Duration;

const SEED: u64 = 0x9e;
const NODES: usize = 5;
const REPLICATION: usize = 2;
const RPCS: usize = 400;
const WINDOWS: [usize; 3] = [1, 4, 32];

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        topology: TopologyKind::Random.generate(NODES, SEED),
        space_seed: SEED,
        replication: REPLICATION,
        max_rounds: 50_000,
    }
}

/// A small zipfian stream with enough puts to exercise the per-key fence.
fn workload() -> Vec<Request> {
    let cfg = TrafficConfig {
        mean_interarrival: 1.0,
        key_universe: 32, // tight universe: put/get conflicts are common
        zipf_exponent: 0.9,
        put_fraction: 0.25,
        hot_key: None,
    };
    let mut gen = TrafficGen::new(cfg, SEED);
    (0..RPCS as u64).map(|k| gen.next_request(k)).collect()
}

fn put_value(req: &Request) -> String {
    format!("v{}-{}", req.id, req.key)
}

/// The direct-call reference for the stream, with the client's rpc-id and
/// entry-peer draws.
fn oracle(cfg: &ClusterConfig, requests: &[Request]) -> Vec<RpcResult> {
    let mut net = ReChordNetwork::from_topology(&cfg.topology, 1);
    assert!(net.run_until_stable(cfg.max_rounds).converged, "oracle must stabilize");
    let table = RoutingTable::from_network(&net);
    let mut kv = KvStore::with_replication(table, IdSpace::new(cfg.space_seed), cfg.replication);
    let roster = &cfg.topology.ids;
    requests
        .iter()
        .map(|req| {
            let rpc = req.id + 1;
            let via = roster[(mix(&[cfg.space_seed, rpc]) as usize) % roster.len()];
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
        .collect()
}

/// Replays the stream through a serving client at the given window.
fn replay<T: Transport>(client: &mut ClusterClient<T>, requests: &[Request]) -> Vec<RpcResult> {
    assert!(
        client.wait_serving(Duration::from_secs(120)).expect("ping poll"),
        "cluster must reach serving"
    );
    let mut results = Vec::with_capacity(requests.len());
    for req in requests {
        let done = match req.op {
            Op::Put => client.submit_put(req.key, put_value(req)),
            Op::Get => client.submit_get(req.key),
        }
        .expect("pipelined rpc");
        results.extend(done);
    }
    results.extend(client.drain().expect("drain"));
    results
}

fn assert_matches(name: &str, got: &[RpcResult], want: &[RpcResult]) {
    assert_eq!(got.len(), want.len(), "{name}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{name}: diverged at rpc {}", w.rpc);
    }
}

#[test]
fn inmem_pipeline_matches_oracle_at_every_window() {
    let cfg = cluster_cfg();
    let requests = workload();
    let want = oracle(&cfg, &requests);

    let mut serial: Option<Vec<RpcResult>> = None;
    for window in WINDOWS {
        let cluster = ThreadedCluster::launch(&cfg);
        let transport = cluster.client_endpoint(Ident::from_raw(u64::MAX));
        let mut client = ClusterClient::new(
            transport,
            cluster.roster().to_vec(),
            cfg.space_seed,
            Duration::from_secs(30),
        )
        .with_window(window);
        let got = replay(&mut client, &requests);
        client.shutdown_all().expect("shutdown");
        let reports = cluster.join().expect("node threads");
        assert!(reports.iter().all(|r| r.converged));
        assert!(reports.iter().all(|r| r.wire_errors == 0));

        assert_matches(&format!("in-mem window={window}"), &got, &want);
        match &serial {
            None => serial = Some(got), // window=1 runs first
            Some(s) => assert_matches(&format!("in-mem window={window} vs serial"), &got, s),
        }
    }
}

#[test]
fn tcp_pipeline_matches_oracle_at_every_window() {
    if !rechord::net::tcp::loopback_or_skip() {
        return;
    }
    let cfg = cluster_cfg();
    let requests = workload();
    let want = oracle(&cfg, &requests);

    let mut serial: Option<Vec<RpcResult>> = None;
    for window in WINDOWS {
        // An in-process TCP cluster: every node is a `NodePeer` over a
        // real socket transport on its own thread, full mesh on loopback.
        let transports: Vec<TcpTransport> = cfg
            .topology
            .ids
            .iter()
            .map(|&id| TcpTransport::bind(id, "127.0.0.1:0".parse().unwrap()).expect("bind node"))
            .collect();
        let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect();
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(i, mut transport)| {
                let node_cfg = NodeConfig {
                    me: cfg.topology.ids[i],
                    roster: cfg.topology.ids.clone(),
                    contacts: cfg.topology.contacts_of(cfg.topology.ids[i]),
                    space_seed: cfg.space_seed,
                    replication: cfg.replication,
                    max_rounds: cfg.max_rounds,
                };
                let dials: Vec<(Ident, std::net::SocketAddr)> = cfg
                    .topology
                    .ids
                    .iter()
                    .copied()
                    .zip(addrs.iter().copied())
                    .filter(|&(peer, _)| peer != node_cfg.me)
                    .collect();
                std::thread::spawn(move || {
                    for (peer, addr) in dials {
                        transport.connect(peer, &PeerAddr::Socket(addr)).expect("dial peer");
                    }
                    NodePeer::new(transport, node_cfg).run(Duration::from_millis(2))
                })
            })
            .collect();

        let mut transport =
            TcpTransport::bind(Ident::from_raw(u64::MAX), "127.0.0.1:0".parse().unwrap())
                .expect("bind client");
        for (&peer, &addr) in cfg.topology.ids.iter().zip(&addrs) {
            transport.connect(peer, &PeerAddr::Socket(addr)).expect("dial node");
        }
        let mut client = ClusterClient::new(
            transport,
            cfg.topology.ids.clone(),
            cfg.space_seed,
            Duration::from_secs(30),
        )
        .with_window(window);
        let got = replay(&mut client, &requests);
        client.shutdown_all().expect("shutdown");
        for h in handles {
            let report = h.join().expect("node thread").expect("node run");
            assert!(report.converged);
            assert_eq!(report.wire_errors, 0, "healthy cluster must decode every frame");
        }

        assert_matches(&format!("tcp window={window}"), &got, &want);
        match &serial {
            None => serial = Some(got),
            Some(s) => assert_matches(&format!("tcp window={window} vs serial"), &got, s),
        }
    }
}
