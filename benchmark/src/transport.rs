//! The benchmark's own [`Transport`]: the TCP path minus the kernel, on
//! one thread.
//!
//! Every message is framed into its destination's byte stream with
//! [`NetMsg::frame_into`] and comes back out through
//! [`wire::split_frame`] and [`NetMsg::decode`] — the exact codec work a
//! socket backend does, with a grow-only buffer per destination instead of
//! a socket. Delivery is FIFO per destination (hence per pair), and a
//! *ready set* names the destinations with pending input.
//!
//! There are no threads and no sleeps: when the client endpoint blocks in
//! `recv`, it pumps exactly the nodes that have pending input, in
//! ascending identifier order, until a reply lands in its own queue. The
//! scheduler of the host therefore never appears in a lock-step number.

use crate::trace::Tracer;
use rechord_id::Ident;
use rechord_net::{wire, NetError, NetMsg, NodePeer, PeerAddr, Transport};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

/// One destination's inbound byte stream.
#[derive(Default)]
struct Inbox {
    /// Back-to-back frames; `head` is the first unread byte.
    stream: Vec<u8>,
    head: usize,
    /// Sender of each unread frame, in stream order.
    senders: VecDeque<Ident>,
}

/// What the fabric does with a sent message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Frame it into the destination's stream (the normal path).
    Deliver,
    /// Deliver what this one actor sends; count and drop everything else.
    /// Lets a caller feed a node one message and time how it is handled,
    /// with nobody listening to the replies and forwards that produces.
    OnlyFrom(Ident),
}

/// A message observed on its way into a node (see [`Fabric::capture`]).
pub type Captured = (Ident, Ident, NetMsg);

/// The shared state behind every [`Endpoint`].
pub struct Fabric {
    inboxes: RefCell<BTreeMap<Ident, Inbox>>,
    ready: RefCell<BTreeSet<Ident>>,
    mode: Cell<Mode>,
    msgs: Cell<u64>,
    bytes: Cell<u64>,
    /// `(to, from, message)` of deliveries to nodes, kept while enabled.
    captured: RefCell<Option<Vec<Captured>>>,
    capture_limit: Cell<usize>,
    tracer: Rc<Tracer>,
}

impl Fabric {
    /// An empty fabric recording its codec calls into `tracer`.
    pub fn new(tracer: Rc<Tracer>) -> Rc<Self> {
        Rc::new(Fabric {
            inboxes: RefCell::default(),
            ready: RefCell::default(),
            mode: Cell::new(Mode::Deliver),
            msgs: Cell::new(0),
            bytes: Cell::new(0),
            captured: RefCell::new(None),
            capture_limit: Cell::new(0),
            tracer,
        })
    }

    /// Registers `me` and returns its endpoint.
    pub fn endpoint(self: &Rc<Self>, me: Ident) -> Endpoint {
        self.inboxes.borrow_mut().entry(me).or_default();
        Endpoint { me, fabric: Rc::clone(self), cluster: None }
    }

    /// Switches between delivering all sends and one actor's only.
    pub fn set_mode(&self, mode: Mode) {
        self.mode.set(mode);
    }

    /// Frames sent so far, and their total size on the wire.
    pub fn counters(&self) -> (u64, u64) {
        (self.msgs.get(), self.bytes.get())
    }

    /// Frames queued and not yet received, over all destinations.
    pub fn pending(&self) -> usize {
        self.inboxes.borrow().values().map(|i| i.senders.len()).sum()
    }

    /// Starts keeping a copy of the next `limit` messages received.
    pub fn capture(&self, limit: usize) {
        *self.captured.borrow_mut() = Some(Vec::with_capacity(limit));
        self.capture_limit.set(limit);
    }

    /// Stops capturing and hands back what was kept.
    pub fn take_captured(&self) -> Vec<Captured> {
        self.captured.borrow_mut().take().unwrap_or_default()
    }

    fn send(&self, from: Ident, to: Ident, msg: &NetMsg) -> Result<(), NetError> {
        if matches!(self.mode.get(), Mode::OnlyFrom(only) if only != from) {
            self.msgs.set(self.msgs.get() + 1);
            return Ok(());
        }
        let _own = self.tracer.span("bench.fabric_send");
        let mut inboxes = self.inboxes.borrow_mut();
        let inbox = inboxes.get_mut(&to).ok_or(NetError::Unreachable(to))?;
        let before = inbox.stream.len();
        {
            let _s = self.tracer.span("net.encode");
            msg.frame_into(&mut inbox.stream);
        }
        if inbox.senders.is_empty() {
            self.ready.borrow_mut().insert(to);
        }
        inbox.senders.push_back(from);
        self.msgs.set(self.msgs.get() + 1);
        self.bytes.set(self.bytes.get() + (inbox.stream.len() - before) as u64);
        Ok(())
    }

    fn recv(&self, me: Ident) -> Result<Option<(Ident, NetMsg)>, NetError> {
        let mut inboxes = self.inboxes.borrow_mut();
        let inbox = inboxes.get_mut(&me).ok_or(NetError::Closed)?;
        let Some(from) = inbox.senders.pop_front() else { return Ok(None) };
        let _own = self.tracer.span("bench.fabric_recv");
        let msg = {
            let _s = self.tracer.span("net.decode");
            let (payload, used) = wire::split_frame(&inbox.stream[inbox.head..])?
                .expect("a queued sender implies a complete frame");
            let msg = NetMsg::decode(payload)?;
            inbox.head += used;
            msg
        };
        if inbox.senders.is_empty() {
            inbox.stream.clear();
            inbox.head = 0;
            self.ready.borrow_mut().remove(&me);
        }
        drop(inboxes);
        if let Some(kept) = self.captured.borrow_mut().as_mut() {
            if kept.len() < self.capture_limit.get() {
                kept.push((me, from, msg.clone()));
            }
        }
        Ok(Some((from, msg)))
    }

    /// Destinations with pending input other than `except`, ascending.
    fn ready_except(&self, except: Ident) -> Vec<Ident> {
        self.ready.borrow().iter().copied().filter(|&id| id != except).collect()
    }
}

/// The nodes of a lock-step cluster, ascending by identifier.
pub struct Cluster {
    ids: Vec<Ident>,
    nodes: RefCell<Vec<NodePeer<Endpoint>>>,
}

impl Cluster {
    /// Wraps nodes that were built in ascending identifier order.
    pub fn new(nodes: Vec<NodePeer<Endpoint>>) -> Rc<Self> {
        let ids: Vec<Ident> = nodes.iter().map(|n| n.me()).collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        Rc::new(Cluster { ids, nodes: RefCell::new(nodes) })
    }

    /// Runs `f` on the nodes.
    pub fn with_nodes<R>(&self, f: impl FnOnce(&mut [NodePeer<Endpoint>]) -> R) -> R {
        f(&mut self.nodes.borrow_mut())
    }
}

/// One actor's endpoint on a [`Fabric`].
pub struct Endpoint {
    me: Ident,
    fabric: Rc<Fabric>,
    /// Set on the client's endpoint only: the nodes a blocked `recv` pumps.
    cluster: Option<Rc<Cluster>>,
}

impl Endpoint {
    /// Makes this endpoint's blocking `recv` drive `cluster`.
    pub fn drive(mut self, cluster: Rc<Cluster>) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

impl Transport for Endpoint {
    fn local(&self) -> Ident {
        self.me
    }

    fn connect(&mut self, peer: Ident, _addr: &PeerAddr) -> Result<(), NetError> {
        if self.fabric.inboxes.borrow().contains_key(&peer) {
            Ok(())
        } else {
            Err(NetError::Unreachable(peer))
        }
    }

    fn send(&mut self, to: Ident, msg: NetMsg) -> Result<(), NetError> {
        self.fabric.send(self.me, to, &msg)
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<(Ident, NetMsg), NetError> {
        loop {
            if let Some(pair) = self.fabric.recv(self.me)? {
                return Ok(pair);
            }
            // Nothing queued. A node, or a non-blocking poll, reports that;
            // a blocked client runs the cluster until something arrives.
            let (Some(_), Some(cluster)) = (deadline, self.cluster.as_ref()) else {
                return Err(NetError::Timeout);
            };
            let ready = self.fabric.ready_except(self.me);
            if ready.is_empty() {
                return Err(NetError::Timeout); // quiescent: waiting cannot help
            }
            let mut nodes = cluster.nodes.borrow_mut();
            for id in ready {
                let i = cluster.ids.binary_search(&id).map_err(|_| NetError::Unreachable(id))?;
                let _s = self.fabric.tracer.span("net.node_pump");
                nodes[i].pump()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::cluster_lockstep::{client, cluster_config, construct, stabilize};
    use crate::workloads::{Ctx, Scale};

    fn id(x: u64) -> Ident {
        Ident::from_raw(x)
    }

    fn quiet_ctx(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 1.0,
            scale: Scale::Smoke,
            tracer: Rc::new(Tracer::new(false)),
            fixed_reps: Some(1),
        }
    }

    #[test]
    fn delivery_is_fifo_per_pair_through_the_codec() {
        let fabric = Fabric::new(Rc::new(Tracer::new(false)));
        let (mut a, mut b, mut c) =
            (fabric.endpoint(id(1)), fabric.endpoint(id(2)), fabric.endpoint(id(3)));
        let from_a: Vec<NetMsg> = (0..3).map(|k| NetMsg::GetReq { rpc: k, key: 10 + k }).collect();
        let from_b: Vec<NetMsg> = (0..2)
            .map(|k| NetMsg::PutReq { rpc: k, key: k, value: format!("v{k}"), version: k })
            .collect();
        a.send(id(3), from_a[0].clone()).unwrap();
        b.send(id(3), from_b[0].clone()).unwrap();
        a.send(id(3), from_a[1].clone()).unwrap();
        a.send(id(3), from_a[2].clone()).unwrap();
        b.send(id(3), from_b[1].clone()).unwrap();
        assert_eq!(fabric.pending(), 5);
        assert_eq!(fabric.ready_except(id(9)), vec![id(3)], "only c has input");

        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        while let Some((from, msg)) = c.try_recv().unwrap() {
            if from == id(1) { &mut got_a } else { &mut got_b }.push(msg);
        }
        // Each pair's messages arrive in send order and decode to what was
        // sent: the frame → split → decode round trip loses nothing.
        assert_eq!(got_a, from_a);
        assert_eq!(got_b, from_b);
        assert_eq!(fabric.pending(), 0);
        assert!(fabric.ready_except(id(9)).is_empty(), "a drained inbox leaves the ready set");
        let (msgs, bytes) = fabric.counters();
        let framed: usize = from_a.iter().chain(&from_b).map(|m| m.to_frame().len()).sum();
        assert_eq!((msgs, bytes), (5, framed as u64));
        assert_eq!(a.send(id(7), NetMsg::Ping), Err(NetError::Unreachable(id(7))));
    }

    #[test]
    fn only_from_mode_drops_everyone_elses_sends() {
        let fabric = Fabric::new(Rc::new(Tracer::new(false)));
        let (mut a, mut b) = (fabric.endpoint(id(1)), fabric.endpoint(id(2)));
        fabric.set_mode(Mode::OnlyFrom(id(1)));
        b.send(id(1), NetMsg::Ping).unwrap();
        a.send(id(2), NetMsg::Ping).unwrap();
        assert_eq!(a.try_recv().unwrap(), None, "b's send was counted and dropped");
        assert_eq!(b.try_recv().unwrap(), Some((id(1), NetMsg::Ping)));
        assert_eq!(fabric.counters().0, 2);
    }

    #[test]
    fn four_node_stabilization_equals_the_in_memory_fabric() {
        // The same cluster over the library's InMemFabric (messages passed
        // as values) and over this transport (every message through the
        // codec): same rounds, same message totals, same converged states.
        let cfg = cluster_config(4, 0xbeef);
        let (reference, reference_states) = rechord_net::stabilize_lockstep(&cfg).unwrap();
        assert!(reference.converged);

        let ctx = quiet_ctx(0xbeef);
        let built = construct(&ctx, &cfg);
        let bring_up = stabilize(&ctx, &built).unwrap();
        assert_eq!(bring_up.rounds, reference.rounds);
        assert_eq!(bring_up.messages as usize, reference.total_messages);
        assert_eq!(
            bring_up.segments.len() as u64,
            reference.rounds + 1,
            "a segment per round, plus gossip"
        );
        let states: Vec<_> = built
            .cluster
            .with_nodes(|nodes| nodes.iter().map(|n| (n.me(), n.state().clone())).collect());
        assert_eq!(states, reference_states);
    }

    #[test]
    fn a_blocked_client_pumps_the_cluster_itself() {
        let cfg = cluster_config(4, 7);
        let ctx = quiet_ctx(7);
        let built = construct(&ctx, &cfg);
        stabilize(&ctx, &built).unwrap();
        let mut client = client(&built, &cfg.topology.ids, 7);
        assert!(client.wait_serving(Duration::from_secs(1)).unwrap());
        let put = client.put(42, "hello").unwrap();
        assert!(put.ok);
        let get = client.get(42).unwrap();
        assert_eq!(
            (get.ok, get.value.as_deref(), get.responsible),
            (true, Some("hello"), put.responsible)
        );
        // A quiescent cluster cannot produce a reply: the blocked receive
        // reports a timeout at once instead of sleeping out its deadline.
        let t = std::time::Instant::now();
        assert_eq!(
            client.transport_mut().recv(Some(Duration::from_secs(5))),
            Err(NetError::Timeout)
        );
        assert!(t.elapsed() < Duration::from_secs(1));
    }
}
