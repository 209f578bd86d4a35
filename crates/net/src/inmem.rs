//! The deterministic loopback backend: a process-local message fabric
//! with per-actor FIFO queues.
//!
//! Semantics match the simulator exactly: a send enqueues synchronously,
//! a receive pops the oldest pending message, and nothing else happens in
//! between — so a driver that pumps actors in a fixed order replays the
//! direct-call engine bit for bit (pinned by `tests/transport_parity.rs`).
//! The fabric is internally locked, so endpoints may also be moved onto
//! threads; determinism then becomes the driver's problem, exactly as
//! with real sockets.
//!
//! Corked sends ([`Transport::send_corked`]) keep their default meaning
//! here — enqueue immediately, flush is a no-op. There is no syscall to
//! coalesce on a loopback fabric, and eager delivery preserves the
//! simulator's synchronous-send semantics, so lock-step replays see the
//! exact same interleavings whether callers cork or not.

use crate::lock::{lock_or_poison, lock_or_recover};
use crate::message::NetMsg;
use crate::transport::{NetError, PeerAddr, Transport};
use rechord_id::Ident;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Default)]
struct FabricInner {
    queues: BTreeMap<Ident, VecDeque<(Ident, NetMsg)>>,
}

#[derive(Default)]
struct Shared {
    inner: Mutex<FabricInner>,
    /// Woken on every send, so threaded receivers block
    /// instead of polling (lock-step drivers never wait here).
    wake: Condvar,
}

/// A process-local message fabric. Clone handles freely; all clones share
/// the same queues.
#[derive(Clone, Default)]
pub struct InMemFabric {
    shared: Arc<Shared>,
}

impl InMemFabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the actor `me` and returns its transport endpoint. An
    /// actor must be registered before anyone can send to it; repeated
    /// registration keeps the existing queue.
    pub fn endpoint(&self, me: Ident) -> InMemTransport {
        lock_or_recover(&self.shared.inner).queues.entry(me).or_default();
        InMemTransport { me, shared: Arc::clone(&self.shared) }
    }

    /// Total messages currently queued across all actors.
    pub fn pending(&self) -> usize {
        lock_or_recover(&self.shared.inner).queues.values().map(|q| q.len()).sum()
    }
}

/// One actor's endpoint on an [`InMemFabric`].
pub struct InMemTransport {
    me: Ident,
    shared: Arc<Shared>,
}

impl Transport for InMemTransport {
    fn local(&self) -> Ident {
        self.me
    }

    fn connect(&mut self, peer: Ident, _addr: &PeerAddr) -> Result<(), NetError> {
        // The fabric resolves by identifier; "connecting" just checks the
        // peer exists, mirroring a successful dial.
        let inner = lock_or_poison(&self.shared.inner, "fabric")?;
        if inner.queues.contains_key(&peer) {
            Ok(())
        } else {
            Err(NetError::Unreachable(peer))
        }
    }

    fn send(&mut self, to: Ident, msg: NetMsg) -> Result<(), NetError> {
        let mut inner = lock_or_poison(&self.shared.inner, "fabric")?;
        match inner.queues.get_mut(&to) {
            Some(q) => {
                q.push_back((self.me, msg));
                drop(inner);
                self.shared.wake.notify_all();
                Ok(())
            }
            None => Err(NetError::Unreachable(to)),
        }
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<(Ident, NetMsg), NetError> {
        let until = deadline.map(|d| Instant::now() + d);
        let mut inner = lock_or_poison(&self.shared.inner, "fabric")?;
        loop {
            match inner.queues.get_mut(&self.me) {
                Some(q) => {
                    if let Some(pair) = q.pop_front() {
                        return Ok(pair);
                    }
                }
                None => return Err(NetError::Closed),
            }
            // Queue empty: block on the condvar until a send wakes us or
            // the deadline passes (lock-step drivers pass None and bail).
            let Some(until) = until else { return Err(NetError::Timeout) };
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            let (guard, _timed_out) = self.shared.wake.wait_timeout(inner, left).map_err(|_| {
                NetError::Io(
                    "fabric mutex poisoned: a peer thread panicked while holding it".into(),
                )
            })?;
            inner = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> Ident {
        Ident::from_raw(x)
    }

    #[test]
    fn fifo_per_pair_and_by_arrival() {
        let fabric = InMemFabric::new();
        let mut a = fabric.endpoint(id(1));
        let mut b = fabric.endpoint(id(2));
        a.send(id(2), NetMsg::Ping).unwrap();
        a.send(id(2), NetMsg::Shutdown).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some((id(1), NetMsg::Ping)));
        assert_eq!(b.try_recv().unwrap(), Some((id(1), NetMsg::Shutdown)));
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn unknown_target_is_unreachable() {
        let fabric = InMemFabric::new();
        let mut a = fabric.endpoint(id(1));
        assert_eq!(a.send(id(9), NetMsg::Ping), Err(NetError::Unreachable(id(9))));
        assert_eq!(a.connect(id(9), &PeerAddr::Mem), Err(NetError::Unreachable(id(9))));
        let _b = fabric.endpoint(id(9));
        assert_eq!(a.connect(id(9), &PeerAddr::Mem), Ok(()));
    }

    #[test]
    fn deadline_times_out() {
        let fabric = InMemFabric::new();
        let mut a = fabric.endpoint(id(1));
        let t = Instant::now();
        assert_eq!(a.recv(Some(Duration::from_millis(5))), Err(NetError::Timeout));
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
