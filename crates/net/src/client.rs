//! The client side of the data plane: a windowed, pipelined RPC issuer
//! over any [`Transport`].
//!
//! The client participates in the cluster as one more identifier-addressed
//! actor: it connects to every node, waits until all of them report
//! `serving` (via ping polling), then issues get/put/lookup RPCs with up
//! to `window` requests in flight. Replies are correlated on the rpc id
//! (they may arrive out of issue order when requests enter at different
//! peers) and results are handed back **in issue order**, so the per-RPC
//! oracle parity check is unchanged at any window. `window = 1`
//! reproduces the strictly serial one-in-flight client exactly.
//!
//! Two invariants make pipelined results identical to a serial replay:
//!
//! * **Per-key fencing** — a request is never issued while a *conflicting*
//!   request on the same key is in flight (conflicting = at least one of
//!   the two is a put). Two concurrent requests on different keys touch
//!   disjoint store entries, and concurrent gets are read-only, so every
//!   interleaving the cluster can produce yields the serial answer.
//! * **Cork discipline** — requests are sent corked ([`Transport::send_corked`])
//!   and flushed when the window fills or before the client blocks on a
//!   reply, so back-to-back requests coalesce into one write without ever
//!   waiting on an unsent frame.
//!
//! The entry peer of each RPC is drawn deterministically from the request
//! id (`mix(seed, rpc) % n`), so the in-memory run, the TCP run, and the
//! oracle replay all route from the same peer.

use crate::message::{NetMsg, RpcOp};
use crate::peer::NodeReport;
use crate::transport::{NetError, Transport};
use rechord_core::adversary::mix;
use rechord_id::Ident;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Outcome of one client RPC, aligned field-for-field with what the
/// direct-call `KvStore` oracle reports (`LookupOutcome` plus the value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcResult {
    /// Request id.
    pub rpc: u64,
    /// Did routing reach the responsible peer?
    pub ok: bool,
    /// Overlay hops, probe misses included.
    pub hops: u32,
    /// The responsible peer.
    pub responsible: Ident,
    /// The value (gets that hit).
    pub value: Option<String>,
}

/// One issued, not-yet-completed RPC.
struct Inflight {
    rpc: u64,
    key: u64,
    put: bool,
    issued: Instant,
}

/// A windowed RPC client bound to a transport endpoint.
pub struct ClusterClient<T: Transport> {
    transport: T,
    roster: Vec<Ident>,
    entry_seed: u64,
    window: usize,
    next_rpc: u64,
    puts_issued: u64,
    reply_deadline: Duration,
    /// Issued requests awaiting completion, in issue order.
    inflight: VecDeque<Inflight>,
    /// Replies that arrived ahead of an earlier in-flight rpc, keyed on
    /// rpc id until the head of `inflight` catches up.
    ready: BTreeMap<u64, RpcResult>,
    /// Issue→completion latency of every completed rpc, in microseconds,
    /// since the last [`ClusterClient::take_latencies_us`].
    lat_us: Vec<f64>,
}

impl<T: Transport> ClusterClient<T> {
    /// A client talking to `roster` (sorted internally). `entry_seed`
    /// fixes the entry-peer sequence; `reply_deadline` bounds each wait.
    /// The window starts at 1 (strictly serial); see
    /// [`ClusterClient::with_window`].
    pub fn new(
        transport: T,
        roster: Vec<Ident>,
        entry_seed: u64,
        reply_deadline: Duration,
    ) -> Self {
        let mut roster = roster;
        roster.sort_unstable();
        roster.dedup();
        ClusterClient {
            transport,
            roster,
            entry_seed,
            window: 1,
            next_rpc: 0,
            puts_issued: 0,
            reply_deadline,
            inflight: VecDeque::new(),
            ready: BTreeMap::new(),
            lat_us: Vec::new(),
        }
    }

    /// Sets the pipelining window: up to `window` RPCs in flight (clamped
    /// to at least 1, which is the serial client).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The pipelining window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The transport underneath (e.g. to connect to peers before use).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The entry peer for a request id — deterministic, uniform over the
    /// roster, identical across backends and the oracle replay.
    pub fn entry_peer(&self, rpc: u64) -> Ident {
        self.roster[(mix(&[self.entry_seed, rpc]) % self.roster.len() as u64) as usize]
    }

    /// Polls every node with pings until all report `serving`, or the
    /// deadline passes. Returns whether the cluster is ready.
    pub fn wait_serving(&mut self, deadline: Duration) -> Result<bool, NetError> {
        let until = Instant::now() + deadline;
        'poll: loop {
            if Instant::now() >= until {
                return Ok(false);
            }
            for i in 0..self.roster.len() {
                let peer = self.roster[i];
                self.transport.send(peer, NetMsg::Ping)?;
                // Credit only *this peer's* pong: a stale pong from another
                // peer's earlier poll must not vouch for this one.
                if !self.await_pong_from(peer, Duration::from_secs(5))? {
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'poll;
                }
            }
            return Ok(true);
        }
    }

    /// Waits for a `Pong` *from `peer`*, skipping unrelated messages.
    /// `Ok(false)` on a timeout or a not-serving pong.
    fn await_pong_from(&mut self, peer: Ident, deadline: Duration) -> Result<bool, NetError> {
        let until = Instant::now() + deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            match self.transport.recv(Some(left)) {
                Ok((from, NetMsg::Pong { serving })) if from == peer => return Ok(serving),
                Ok(_) => continue, // stale pong from another peer, or noise
                Err(NetError::Timeout) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    /// Issues a get and waits for the reply (drains the whole pipeline;
    /// use [`ClusterClient::submit_get`] when pipelining).
    pub fn get(&mut self, key: u64) -> Result<RpcResult, NetError> {
        self.blocking(RpcOp::Get, key, String::new())
    }

    /// Issues a put (the client assigns the next monotone version) and
    /// waits for the reply (drains the whole pipeline; use
    /// [`ClusterClient::submit_put`] when pipelining).
    pub fn put(&mut self, key: u64, value: impl Into<String>) -> Result<RpcResult, NetError> {
        self.blocking(RpcOp::Put, key, value.into())
    }

    /// Resolves the responsible peer for a key without touching the store
    /// (blocking, like [`ClusterClient::get`]).
    pub fn lookup(&mut self, key: u64) -> Result<RpcResult, NetError> {
        self.blocking(RpcOp::Lookup, key, String::new())
    }

    /// Pipelined get: issues the request (waiting only if the window is
    /// full or a conflicting put is in flight) and returns whatever
    /// requests completed, in issue order.
    pub fn submit_get(&mut self, key: u64) -> Result<Vec<RpcResult>, NetError> {
        self.submit(RpcOp::Get, key, String::new())
    }

    /// Pipelined put (client-assigned monotone version); see
    /// [`ClusterClient::submit_get`] for the completion contract.
    pub fn submit_put(
        &mut self,
        key: u64,
        value: impl Into<String>,
    ) -> Result<Vec<RpcResult>, NetError> {
        self.submit(RpcOp::Put, key, value.into())
    }

    /// Waits for every in-flight request and returns their results in
    /// issue order.
    pub fn drain(&mut self) -> Result<Vec<RpcResult>, NetError> {
        let mut done = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            self.await_one()?;
            self.pop_ready(&mut done);
        }
        Ok(done)
    }

    /// Asks one node for its final counters.
    pub fn stats_of(&mut self, peer: Ident) -> Result<NodeReport, NetError> {
        self.transport.send(peer, NetMsg::StatsReq)?;
        let until = Instant::now() + self.reply_deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            if let (got_from, NetMsg::Stats(report)) = self.transport.recv(Some(left))? {
                if got_from == peer {
                    return Ok(report);
                }
            }
        }
    }

    /// Sends an orderly shutdown to every node.
    pub fn shutdown_all(&mut self) -> Result<(), NetError> {
        for i in 0..self.roster.len() {
            let peer = self.roster[i];
            self.transport.send_corked(peer, NetMsg::Shutdown)?;
        }
        self.transport.flush_all()
    }

    /// Puts issued so far (the client-side mirror of the oracle's write
    /// counter while availability is 1.0).
    pub fn puts_issued(&self) -> u64 {
        self.puts_issued
    }

    /// Issue→completion latencies (µs) of requests completed since the
    /// last call, in completion order. Drains the internal record.
    pub fn take_latencies_us(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.lat_us)
    }

    fn fresh_rpc(&mut self) -> u64 {
        self.next_rpc += 1;
        self.next_rpc
    }

    /// Serial wrapper over the pipelined path: drains everything, so
    /// exactly this call's result comes back. Mixing blocking calls into
    /// an open pipeline would discard completions — drain first.
    fn blocking(&mut self, op: RpcOp, key: u64, value: String) -> Result<RpcResult, NetError> {
        debug_assert!(self.inflight.is_empty(), "drain() the pipeline before blocking calls");
        let mut done = self.submit(op, key, value)?;
        let rpc = self.next_rpc;
        done.extend(self.drain()?);
        done.into_iter().find(|r| r.rpc == rpc).ok_or(NetError::Timeout)
    }

    /// The pipelined issue path: fence conflicting keys, make window
    /// room, send corked, and hand back whatever completed.
    fn submit(&mut self, op: RpcOp, key: u64, value: String) -> Result<Vec<RpcResult>, NetError> {
        let mut done = Vec::new();
        let put = op == RpcOp::Put;
        // Per-key fence: wait out any in-flight request this one conflicts
        // with (see module docs), so pipelined answers stay serial.
        while self.inflight.iter().any(|f| f.key == key && (f.put || put)) {
            self.await_one()?;
            self.pop_ready(&mut done);
        }
        // Window room: at most `window` in flight after this issue.
        while self.inflight.len() >= self.window {
            self.await_one()?;
            self.pop_ready(&mut done);
        }
        let rpc = self.fresh_rpc();
        let entry = self.entry_peer(rpc);
        let msg = match op {
            RpcOp::Get => NetMsg::GetReq { rpc, key },
            RpcOp::Lookup => NetMsg::LookupReq { rpc, key },
            RpcOp::Put => {
                self.puts_issued += 1;
                NetMsg::PutReq { rpc, key, value, version: self.puts_issued }
            }
        };
        self.transport.send_corked(entry, msg)?;
        self.inflight.push_back(Inflight { rpc, key, put, issued: Instant::now() });
        if self.inflight.len() >= self.window {
            // Window full: the next submit must wait for a reply, so the
            // corked requests have to be on the wire now.
            self.transport.flush_all()?;
        }
        self.pop_ready(&mut done);
        Ok(done)
    }

    /// Blocks until one more in-flight request completes, stashing its
    /// result in `ready`. Replies for unknown rpc ids (stale retries,
    /// duplicates) are skipped, as are non-reply messages.
    fn await_one(&mut self) -> Result<(), NetError> {
        // Queue-empty cork rule: never wait on requests still in a buffer.
        self.transport.flush_all()?;
        let until = Instant::now() + self.reply_deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            let (_, msg) = self.transport.recv(Some(left))?;
            if let NetMsg::Reply { rpc, ok, hops, responsible, value } = msg {
                if self.ready.contains_key(&rpc) {
                    continue; // duplicate reply
                }
                let Some(f) = self.inflight.iter().find(|f| f.rpc == rpc) else {
                    continue; // stale reply for a completed rpc
                };
                self.lat_us.push(f.issued.elapsed().as_secs_f64() * 1e6);
                self.ready.insert(rpc, RpcResult { rpc, ok, hops, responsible, value });
                return Ok(());
            }
        }
    }

    /// Moves completed results out in issue order: the head of `inflight`
    /// leaves only once its reply is in `ready`, which is what keeps the
    /// output stream identical to the serial client's.
    fn pop_ready(&mut self, out: &mut Vec<RpcResult>) {
        while let Some(front) = self.inflight.front() {
            match self.ready.remove(&front.rpc) {
                Some(r) => {
                    self.inflight.pop_front();
                    out.push(r);
                }
                None => break,
            }
        }
    }
}
