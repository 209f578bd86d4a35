//! In-process clusters over the loopback fabric: the deterministic
//! lock-step driver (bit-for-bit engine parity) and the threaded serving
//! cluster (one OS thread per node, a blocking client in the caller).
//!
//! The lock-step driver is the reference: it pumps every node round-robin
//! in ascending identifier order, so message interleavings are a pure
//! function of the configuration and the convergence trace can be compared
//! against the direct-call engine equality-by-equality
//! (`tests/transport_parity.rs`). The threaded cluster gives up scheduling
//! determinism — the BSP barriers restore it for protocol state, and the
//! closed-loop client restores it for data-plane results, which is exactly
//! the claim `tests/process_cluster.rs` checks across in-mem, TCP, and the
//! oracle.

use crate::inmem::{InMemFabric, InMemTransport};
use crate::peer::{NodeConfig, NodePeer, NodeReport};
use crate::transport::NetError;
use rechord_core::state::PeerState;
use rechord_id::Ident;
use rechord_topology::InitialTopology;
use std::time::Duration;

/// Shared description of an in-process cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Initial knowledge topology; its `ids` are the roster.
    pub topology: InitialTopology,
    /// Key-hashing seed shared by peers, clients, and oracles.
    pub space_seed: u64,
    /// Replica-set width for puts.
    pub replication: usize,
    /// Stabilization round cap.
    pub max_rounds: u64,
}

impl ClusterConfig {
    /// Per-node configuration for the peer `id`.
    pub fn node_config(&self, id: Ident) -> NodeConfig {
        NodeConfig {
            me: id,
            roster: self.topology.ids.clone(),
            contacts: self.topology.contacts_of(id),
            space_seed: self.space_seed,
            replication: self.replication,
            max_rounds: self.max_rounds,
        }
    }
}

/// Convergence outcome of a lock-step run, aggregated across nodes into
/// the engine's [`rechord_sim::FixpointReport`] shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockstepReport {
    /// Rounds to the fixpoint (counting the final quiet round).
    pub rounds: u64,
    /// Did every node observe the fixpoint?
    pub converged: bool,
    /// Delivered plus dropped protocol messages over the whole run.
    pub total_messages: usize,
    /// Per-round `(delivered, dropped)` sums across nodes, 1-based.
    pub per_round: Vec<(usize, usize)>,
}

/// Runs the whole cluster to its fixpoint inside one thread, pumping the
/// nodes round-robin in ascending identifier order. Returns the aggregate
/// report and every node's converged state (ascending by identifier) —
/// directly comparable against `Engine::run_until_fixpoint` plus
/// `Engine::iter` on the same topology.
pub fn stabilize_lockstep(
    cfg: &ClusterConfig,
) -> Result<(LockstepReport, Vec<(Ident, PeerState)>), NetError> {
    let fabric = InMemFabric::new();
    let mut nodes: Vec<NodePeer<InMemTransport>> = cfg
        .topology
        .ids
        .iter()
        .map(|&id| NodePeer::new(fabric.endpoint(id), cfg.node_config(id)))
        .collect();

    // Each pass pumps every node once; progress is guaranteed while the
    // fabric holds messages or a node can announce. The bound is generous:
    // a round costs a handful of passes.
    let max_passes = cfg.max_rounds.saturating_mul(8).max(64);
    for _ in 0..max_passes {
        for node in nodes.iter_mut() {
            node.pump()?;
        }
        if nodes.iter().all(|n| n.converged().is_some()) && fabric.pending() == 0 {
            break;
        }
    }

    let converged = nodes.iter().all(|n| n.converged().is_some());
    let rounds = nodes.first().map_or(0, |n| n.executed());
    let longest = nodes.iter().map(|n| n.trace().len()).max().unwrap_or(0);
    let mut per_round = vec![(0usize, 0usize); longest];
    for node in &nodes {
        for (i, s) in node.trace().iter().enumerate() {
            per_round[i].0 += s.delivered;
            per_round[i].1 += s.dropped;
        }
    }
    let total_messages = per_round.iter().map(|(d, x)| d + x).sum();
    let states: Vec<(Ident, PeerState)> =
        nodes.iter().map(|n| (n.me(), n.state().clone())).collect();
    Ok((LockstepReport { rounds, converged, total_messages, per_round }, states))
}

/// A running threaded cluster: every node on its own OS thread, all on one
/// loopback fabric.
pub struct ThreadedCluster {
    fabric: InMemFabric,
    roster: Vec<Ident>,
    handles: Vec<std::thread::JoinHandle<Result<NodeReport, NetError>>>,
}

impl ThreadedCluster {
    /// Spawns one thread per roster peer, each running `NodePeer::run`.
    pub fn launch(cfg: &ClusterConfig) -> Self {
        let fabric = InMemFabric::new();
        let roster = cfg.topology.ids.clone();
        // Register every endpoint before any thread starts, so early sends
        // never race the receiver's registration.
        let endpoints: Vec<(Ident, InMemTransport)> =
            roster.iter().map(|&id| (id, fabric.endpoint(id))).collect();
        let handles = endpoints
            .into_iter()
            .map(|(id, endpoint)| {
                let node_cfg = cfg.node_config(id);
                std::thread::spawn(move || {
                    NodePeer::new(endpoint, node_cfg).run(Duration::from_millis(2))
                })
            })
            .collect();
        ThreadedCluster { fabric, roster, handles }
    }

    /// The cluster roster, ascending.
    pub fn roster(&self) -> &[Ident] {
        &self.roster
    }

    /// A client endpoint on the cluster's fabric. `client_id` must not
    /// collide with any roster identifier.
    pub fn client_endpoint(&self, client_id: Ident) -> InMemTransport {
        debug_assert!(!self.roster.contains(&client_id), "client id collides with a peer");
        self.fabric.endpoint(client_id)
    }

    /// Waits for every node thread to finish (send [`crate::message::NetMsg::Shutdown`]
    /// first, e.g. via `ClusterClient::shutdown_all`). Returns the node
    /// reports in spawn (roster) order.
    pub fn join(self) -> Result<Vec<NodeReport>, NetError> {
        self.handles
            .into_iter()
            .map(|h| h.join().map_err(|_| NetError::Io("node thread panicked".into()))?)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClusterClient;
    use rechord_topology::TopologyKind;

    fn small_cfg(n: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            topology: TopologyKind::Random.generate(n, seed),
            space_seed: seed,
            replication: 2,
            max_rounds: 20_000,
        }
    }

    #[test]
    fn lockstep_cluster_converges() {
        let cfg = small_cfg(8, 11);
        let (report, states) = stabilize_lockstep(&cfg).unwrap();
        assert!(report.converged);
        assert_eq!(states.len(), 8);
        assert_eq!(report.per_round.len() as u64, report.rounds);
        assert!(report.total_messages > 0);
    }

    #[test]
    fn threaded_cluster_serves_the_data_plane() {
        let cfg = small_cfg(6, 3);
        let cluster = ThreadedCluster::launch(&cfg);
        let client_id = Ident::from_raw(u64::MAX); // random ids never collide here
        let transport = cluster.client_endpoint(client_id);
        let mut client = ClusterClient::new(
            transport,
            cluster.roster().to_vec(),
            cfg.space_seed,
            Duration::from_secs(30),
        );
        assert!(client.wait_serving(Duration::from_secs(60)).unwrap(), "cluster must go ready");
        let put = client.put(7, "hello").unwrap();
        assert!(put.ok);
        let get = client.get(7).unwrap();
        assert!(get.ok);
        assert_eq!(get.value.as_deref(), Some("hello"));
        assert_eq!(get.responsible, put.responsible);
        let miss = client.get(9999).unwrap();
        assert!(miss.ok);
        assert_eq!(miss.value, None);
        let look = client.lookup(7).unwrap();
        assert_eq!(look.responsible, put.responsible);
        client.shutdown_all().unwrap();
        let reports = cluster.join().unwrap();
        assert!(reports.iter().all(|r| r.converged));
        assert!(reports.iter().map(|r| r.served).sum::<u64>() >= 4);
    }
}
