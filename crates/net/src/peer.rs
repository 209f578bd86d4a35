//! One Re-Chord peer as a cluster actor: stabilization, gossip, and
//! data-plane serving over any [`Transport`].
//!
//! A [`NodePeer`] lives through three phases:
//!
//! 1. **Stabilize** — run protocol rounds through [`RoundSync`] until the
//!    global fixpoint, reproducing the direct-call engine bit for bit.
//! 2. **Gossip** — broadcast the successor list read out of the converged
//!    state: the known real peers, nearest clockwise first. Each receiver
//!    checks the list against the ring the core defines over the shared
//!    roster, the ring that placement also uses: the head must be the
//!    sender's roster successor. The one exception is the roster maximum,
//!    whose successor edge crosses 0/1. The stable topology closes that
//!    edge through the ring edge between the extreme *nodes*, which may be
//!    virtual, so the maximum need not know the minimum directly (README,
//!    Interpretations "Wrap edges"). The peer flips to `serving` only when
//!    its own list and every peer's list verify. A stabilization that
//!    produced a wrong ring is caught here, so the gossip is load-bearing,
//!    not decorative.
//! 3. **Serve** — answer get/put/lookup RPCs with recursive greedy
//!    routing: each peer [`walk`]s the request through its free local steps
//!    against its *local* routing view ([`RoutingTable::local_view`]) and
//!    forwards it, peer to peer, until the responsible peer replies
//!    straight to the client. The hop and probe accounting mirrors
//!    [`rechord_routing::KvStore`] exactly, which
//!    `tests/process_cluster.rs` pins (`TCP ≡ in-mem ≡ direct-call
//!    oracle`).

use crate::message::{ForwardedRpc, NetMsg, RpcOp};
use crate::sync::{RoundSync, StepOutcome};
use crate::transport::{NetError, Transport};
use rechord_core::oracle::{ChordEdge, ChordEdgeKind};
use rechord_core::protocol::ReChordProtocol;
use rechord_core::state::PeerState;
use rechord_graph::NodeRef;
use rechord_id::{successor_index, successors, IdSpace, Ident};
use rechord_routing::{walk, RoutingTable, Walk};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Successor-list length gossiped after stabilization.
const GOSSIP_SUCCESSORS: usize = 3;

/// Static configuration of one node process.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This peer's identifier.
    pub me: Ident,
    /// Every peer in the cluster (must include `me`).
    pub roster: Vec<Ident>,
    /// Initial knowledge: the out-contacts seeded into `N_u(u_0)`,
    /// matching `InitialTopology::contacts_of`.
    pub contacts: Vec<Ident>,
    /// Seed of the [`IdSpace`] hashing application keys onto the ring
    /// (shared by every actor, including the client and the oracle).
    pub space_seed: u64,
    /// Replica-set width for puts (clamped to at least 1).
    pub replication: usize,
    /// Stabilization round cap; exceeding it is a run failure.
    pub max_rounds: u64,
}

/// Final counters of one node, reported over [`NetMsg::Stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeReport {
    /// Protocol rounds executed.
    pub rounds: u64,
    /// Did the node observe the global fixpoint?
    pub converged: bool,
    /// Protocol messages delivered locally (this node's share of the
    /// engine's `total_messages`).
    pub delivered: u64,
    /// Protocol messages addressed outside the roster.
    pub dropped: u64,
    /// Data-plane RPCs this node answered as responsible peer.
    pub served: u64,
    /// Frames the transport dropped as undecodable (corrupt header or
    /// payload); zero on a healthy cluster.
    pub wire_errors: u64,
}

/// What a message told the driver to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep running.
    Continue,
    /// An orderly [`NetMsg::Shutdown`] arrived.
    Shutdown,
}

/// One Re-Chord peer bound to a transport endpoint.
pub struct NodePeer<T: Transport> {
    transport: T,
    cfg: NodeConfig,
    sync: RoundSync<ReChordProtocol>,
    space: IdSpace,
    /// Local routing view, built once from the converged state.
    table: Option<RoutingTable>,
    /// Replicated key-value shard: `key → (version, value)`.
    store: BTreeMap<u64, (u64, String)>,
    gossip_sent: bool,
    /// Peers whose gossiped successor list verified against the roster.
    gossip_ok: BTreeSet<Ident>,
    serving: bool,
    served: u64,
}

impl<T: Transport> NodePeer<T> {
    /// A peer over `transport` (already connected to the roster), seeded
    /// with the initial contacts of `cfg`.
    pub fn new(transport: T, cfg: NodeConfig) -> Self {
        let initial = PeerState::with_contacts(cfg.contacts.iter().map(|&c| NodeRef::real(c)));
        let sync = RoundSync::new(ReChordProtocol::full(), cfg.me, cfg.roster.clone(), initial);
        let space = IdSpace::new(cfg.space_seed);
        NodePeer {
            transport,
            cfg,
            sync,
            space,
            table: None,
            store: BTreeMap::new(),
            gossip_sent: false,
            gossip_ok: BTreeSet::new(),
            serving: false,
            served: 0,
        }
    }

    /// This peer's identifier.
    pub fn me(&self) -> Ident {
        self.cfg.me
    }

    /// The converged protocol state (the live state before convergence).
    pub fn state(&self) -> &PeerState {
        self.sync.state()
    }

    /// `Some(rounds)` once the global fixpoint was observed.
    pub fn converged(&self) -> Option<u64> {
        self.sync.converged()
    }

    /// Ready to answer data-plane RPCs?
    pub fn serving(&self) -> bool {
        self.serving
    }

    /// Protocol rounds executed so far.
    pub fn executed(&self) -> u64 {
        self.sync.executed()
    }

    /// Per-round local accounting (see [`crate::sync::NetRoundStats`]).
    pub fn trace(&self) -> &[crate::sync::NetRoundStats] {
        self.sync.trace()
    }

    /// Final counters for reports and [`NetMsg::Stats`].
    pub fn report(&self) -> NodeReport {
        let (delivered, dropped) = self
            .sync
            .trace()
            .iter()
            .fold((0u64, 0u64), |(d, x), s| (d + s.delivered as u64, x + s.dropped as u64));
        NodeReport {
            rounds: self.sync.executed(),
            converged: self.sync.converged().is_some(),
            delivered,
            dropped,
            served: self.served,
            wire_errors: self.transport.wire_errors(),
        }
    }

    /// The other roster peers, ascending.
    fn others(&self) -> Vec<Ident> {
        self.sync.roster().iter().copied().filter(|&p| p != self.cfg.me).collect()
    }

    /// Does `peer`'s successor list agree with the ring the core defines?
    /// Its head must be `peer`'s roster successor, except on the one
    /// successor edge that crosses 0/1, the roster maximum's: the stable
    /// topology closes that edge through the ring edge between the extreme
    /// nodes, which may be virtual, so the maximum need not know the
    /// minimum directly (README, Interpretations "Wrap edges";
    /// `StableStateAudit::is_clean` exempts the same edge).
    fn successors_agree(&self, peer: Ident, successors: &[Ident]) -> bool {
        let roster = self.sync.roster();
        if roster.len() < 2 {
            return true;
        }
        let after = Ident::from_raw(peer.raw().wrapping_add(1));
        let succ = roster[successor_index(roster, after).expect("the roster is non-empty")];
        ChordEdge { from: peer, to: succ, kind: ChordEdgeKind::Successor }.crosses_wrap()
            || successors.first() == Some(&succ)
    }

    /// Successor list read out of the local protocol state: known real
    /// nodes ordered by clockwise distance. In a correctly stabilized
    /// state, the head is the roster successor (bar the wrap edge) — which
    /// every receiver checks.
    fn successor_list(&self) -> Vec<Ident> {
        let me = self.cfg.me;
        let mut reals: Vec<Ident> = self
            .state()
            .levels
            .values()
            .flat_map(|vs| vs.all_targets())
            .filter(|t| t.is_real() && t.owner != me)
            .map(|t| t.owner)
            .collect();
        reals.sort_unstable_by_key(|&p| me.dist_cw(p));
        reals.dedup();
        reals.truncate(GOSSIP_SUCCESSORS);
        reals
    }

    /// Drives the BSP state machine: announces when a cycle opens, steps
    /// when the snapshot completes, finishes when the batches complete,
    /// and transitions to gossip once converged. Call after every handled
    /// message and on idle.
    pub fn tick(&mut self) -> Result<(), NetError> {
        if self.sync.converged().is_none() {
            if let Some((round, state)) = self.sync.announce() {
                for peer in self.others() {
                    self.transport.send_corked(
                        peer,
                        NetMsg::StateSync { round, state: Box::new(state.clone()) },
                    )?;
                }
            }
            match self.sync.try_step() {
                StepOutcome::Pending => {}
                StepOutcome::Batches(batches) => {
                    let round = self.sync.executed();
                    for (peer, msgs) in batches {
                        self.transport.send_corked(peer, NetMsg::RoundMsgs { round, msgs })?;
                    }
                }
                StepOutcome::Converged { .. } => {}
            }
            self.sync.try_finish();
            if self.sync.converged().is_none() && self.sync.executed() >= self.cfg.max_rounds {
                return Err(NetError::Io(format!(
                    "no fixpoint within {} rounds",
                    self.cfg.max_rounds
                )));
            }
        }
        if self.sync.converged().is_some() && !self.gossip_sent {
            self.table =
                Some(RoutingTable::local_view(self.cfg.me, self.sync.state(), self.sync.roster()));
            let successors = self.successor_list();
            for peer in self.others() {
                self.transport.send_corked(
                    peer,
                    NetMsg::GossipSuccessors { successors: successors.clone() },
                )?;
            }
            self.gossip_sent = true;
            self.update_serving();
        }
        Ok(())
    }

    /// Re-evaluates the serving gate: converged, own successor list agrees
    /// with the roster, and every other peer's gossip verified.
    fn update_serving(&mut self) {
        if self.sync.converged().is_none() {
            return;
        }
        let own_ok = self.successors_agree(self.cfg.me, &self.successor_list());
        let all_gossip = self.gossip_ok.len() == self.others().len();
        self.serving = own_ok && all_gossip;
    }

    /// Handles one inbound message. Returns [`Control::Shutdown`] on an
    /// orderly shutdown request.
    pub fn handle(&mut self, from: Ident, msg: NetMsg) -> Result<Control, NetError> {
        match msg {
            NetMsg::Hello { .. } => {} // transport-level; nothing protocol to do
            NetMsg::StateSync { round, state } => {
                self.sync.on_state(from, round, *state).map_err(|e| NetError::Io(e.to_string()))?;
            }
            NetMsg::RoundMsgs { round, msgs } => {
                self.sync.on_msgs(from, round, msgs).map_err(|e| NetError::Io(e.to_string()))?;
            }
            NetMsg::GossipSuccessors { successors } => {
                // Load-bearing check: if the overlay ring and the placement
                // ring disagree, serving would corrupt data.
                if self.successors_agree(from, &successors) {
                    self.gossip_ok.insert(from);
                } else {
                    self.gossip_ok.remove(&from);
                }
                self.update_serving();
            }
            NetMsg::Ping => {
                self.transport.send_corked(from, NetMsg::Pong { serving: self.serving })?;
            }
            NetMsg::Pong { .. } => {} // peers don't poll each other; ignore
            NetMsg::GetReq { rpc, key } => {
                self.start_rpc(from, rpc, RpcOp::Get, key, String::new(), 0)?;
            }
            NetMsg::PutReq { rpc, key, value, version } => {
                self.start_rpc(from, rpc, RpcOp::Put, key, value, version)?;
            }
            NetMsg::LookupReq { rpc, key } => {
                self.start_rpc(from, rpc, RpcOp::Lookup, key, String::new(), 0)?;
            }
            NetMsg::Forward(fwd) => {
                self.advance_rpc(*fwd)?;
            }
            NetMsg::ReplicaPut { key, version, value, .. } => {
                let newer = self.store.get(&key).is_none_or(|(v, _)| version >= *v);
                if newer {
                    self.store.insert(key, (version, value));
                }
            }
            NetMsg::Reply { .. } => {} // client-side message; ignore
            NetMsg::StatsReq => self.transport.send_corked(from, NetMsg::Stats(self.report()))?,
            NetMsg::Shutdown => return Ok(Control::Shutdown),
            NetMsg::Stats(_) => {} // client-side message; ignore
        }
        Ok(Control::Continue)
    }

    /// Entry point of an RPC at this peer: wrap it into a routed envelope
    /// with the cursor at our own position (exactly how `route` starts its
    /// fold) and advance it.
    fn start_rpc(
        &mut self,
        client: Ident,
        rpc: u64,
        op: RpcOp,
        key: u64,
        value: String,
        version: u64,
    ) -> Result<(), NetError> {
        let fwd = ForwardedRpc {
            rpc,
            client,
            op,
            key,
            value,
            version,
            cursor: self.cfg.me,
            hops: 0,
            steps: 0,
        };
        self.advance_rpc(fwd)
    }

    /// [`walk`]s the local view until the request either arrives here
    /// (serve + reply), moves to another peer (forward), gets stuck, or
    /// exhausts the step budget it carries across forwards — the
    /// distributed replay of `route`, decision for decision.
    fn advance_rpc(&mut self, mut fwd: ForwardedRpc) -> Result<(), NetError> {
        let Some(table) = self.table.as_ref() else {
            // Not yet stabilized: refuse rather than route on a half-built
            // ring (clients gate on Pong{serving} so this is a protocol
            // violation, answered gracefully).
            return self.reply(fwd, false, None);
        };
        let pos = self.space.key_position(fwd.key);
        match walk(table, self.cfg.me, &mut fwd.cursor, pos, Some(&mut fwd.steps)) {
            Walk::Arrived => self.serve(fwd, pos),
            Walk::Forward { peer, cursor } => {
                fwd.cursor = cursor;
                fwd.hops += 1;
                self.transport.send_corked(peer, NetMsg::Forward(Box::new(fwd)))
            }
            Walk::Stuck | Walk::OutOfSteps => self.reply(fwd, false, None),
        }
    }

    /// The responsible peer answers: store access plus the probe-hop
    /// accounting of `KvStore::{get, put}`. The replica set is
    /// `PlacementMap::replica_set` over the roster, the [`successors`]
    /// window at `pos`: the responsible peer (this one) and the next
    /// `replication - 1` peers, clamped.
    fn serve(&mut self, mut fwd: ForwardedRpc, pos: Ident) -> Result<(), NetError> {
        self.served += 1;
        let replicas =
            successors(self.sync.roster(), pos).take(self.cfg.replication.max(1)).count();
        match fwd.op {
            RpcOp::Lookup => {
                let f = fwd;
                self.reply(f, true, None)
            }
            RpcOp::Put => {
                let newer = self.store.get(&fwd.key).is_none_or(|(v, _)| fwd.version >= *v);
                if newer {
                    self.store.insert(fwd.key, (fwd.version, fwd.value.clone()));
                }
                for peer in successors(self.sync.roster(), pos).take(replicas).skip(1) {
                    self.transport.send_corked(
                        peer,
                        NetMsg::ReplicaPut {
                            pos,
                            key: fwd.key,
                            version: fwd.version,
                            value: fwd.value.clone(),
                        },
                    )?;
                }
                self.reply(fwd, true, None)
            }
            RpcOp::Get => match self.store.get(&fwd.key) {
                // Hit at the primary: zero probe misses, as in the oracle's
                // static-placement lookup.
                Some((_, value)) => {
                    let value = value.clone();
                    self.reply(fwd, true, Some(value))
                }
                // Absent: the oracle charges the whole replica window.
                None => {
                    fwd.hops += replicas as u32;
                    self.reply(fwd, true, None)
                }
            },
        }
    }

    /// Terminal answer, straight to the client that issued the RPC.
    fn reply(
        &mut self,
        fwd: ForwardedRpc,
        ok: bool,
        value: Option<String>,
    ) -> Result<(), NetError> {
        let responsible = self
            .table
            .as_ref()
            .and_then(|t| t.responsible_for(self.space.key_position(fwd.key)))
            .unwrap_or(self.cfg.me);
        self.transport.send_corked(
            fwd.client,
            NetMsg::Reply { rpc: fwd.rpc, ok, hops: fwd.hops, responsible, value },
        )
    }

    /// Non-blocking pump: tick, then drain and handle everything pending,
    /// ticking after each message; corked output is flushed once at the
    /// end of the drain. For deterministic in-process drivers.
    pub fn pump(&mut self) -> Result<Control, NetError> {
        self.tick()?;
        while let Some((from, msg)) = self.transport.try_recv()? {
            if self.handle(from, msg)? == Control::Shutdown {
                self.transport.flush_all()?;
                return Ok(Control::Shutdown);
            }
            self.tick()?;
        }
        self.transport.flush_all()?;
        Ok(Control::Continue)
    }

    /// Blocking main loop for a node process, structured as batch drains:
    /// tick, handle *everything already queued* without blocking (ticking
    /// between messages), flush the corked replies in one write per peer,
    /// and only then wait up to `poll` for the next wakeup. Pipelined
    /// clients land whole windows in the inbox at once, so this turns N
    /// request/reply syscall pairs into one read and one write per batch.
    /// Runs until an orderly shutdown; returns the final counters.
    pub fn run(mut self, poll: Duration) -> Result<NodeReport, NetError> {
        loop {
            // The batch drain ends in a flush: never block with corked
            // frames queued.
            if self.pump()? == Control::Shutdown {
                return Ok(self.report());
            }
            match self.transport.recv(Some(poll)) {
                Ok((from, msg)) => {
                    if self.handle(from, msg)? == Control::Shutdown {
                        self.transport.flush_all()?;
                        return Ok(self.report());
                    }
                }
                Err(NetError::Timeout) => {} // idle: loop and tick again
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::inmem::InMemFabric;
    use rechord_core::network::ReChordNetwork;
    use rechord_routing::KvStore;
    use rechord_topology::TopologyKind;

    /// The responsible peer copies a put to the rest of
    /// `PlacementMap::replica_set` (read through `KvStore`) and charges a
    /// miss the whole set, clamps included: a static cluster always hits
    /// the primary, so nothing end to end would notice a drift.
    #[test]
    fn serve_replicates_to_the_placement_replica_set() {
        let topology = TopologyKind::Random.generate(6, 7);
        let net = ReChordNetwork::from_topology(&topology, 1);
        let client = Ident::from_raw(u64::MAX);
        for replication in [1, 3, 9] {
            let cfg = ClusterConfig {
                topology: topology.clone(),
                space_seed: 7,
                replication,
                max_rounds: 1,
            };
            let oracle = KvStore::with_replication(
                RoutingTable::from_network(&net),
                IdSpace::new(7),
                replication,
            );
            let fabric = InMemFabric::new();
            let mut inboxes: Vec<_> = topology.ids.iter().map(|&p| fabric.endpoint(p)).collect();
            let mut client_inbox = fabric.endpoint(client);
            let me = topology.ids[0];
            let mut node = NodePeer::new(fabric.endpoint(me), cfg.node_config(me));
            for key in 0..16 {
                let pos = IdSpace::new(7).key_position(key);
                let set = oracle.replica_peers(pos);
                let fwd = |op| ForwardedRpc {
                    rpc: key,
                    client,
                    op,
                    key,
                    value: "v".into(),
                    version: 1,
                    cursor: pos,
                    hops: 0,
                    steps: 0,
                };
                node.store.clear();
                node.serve(fwd(RpcOp::Get), pos).unwrap();
                node.serve(fwd(RpcOp::Put), pos).unwrap();
                node.transport.flush_all().unwrap();
                let mut targets = Vec::new();
                for inbox in &mut inboxes {
                    while let Some((_, msg)) = inbox.try_recv().unwrap() {
                        if let NetMsg::ReplicaPut { .. } = msg {
                            targets.push(inbox.local());
                        }
                    }
                }
                targets.sort_by_key(|&p| pos.dist_cw(p));
                assert_eq!(targets, set[1..], "replication {replication}, key {key}");
                let mut replies = std::iter::from_fn(|| client_inbox.try_recv().unwrap());
                let Some((_, NetMsg::Reply { hops, .. })) = replies.next() else {
                    panic!("the miss is answered first");
                };
                assert_eq!(hops as usize, set.len(), "a miss probes the whole set");
                assert!(matches!(replies.next(), Some((_, NetMsg::Reply { hops: 0, .. }))));
            }
        }
    }
}
