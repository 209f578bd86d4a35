//! The socket backend: [`NetMsg`] frames over `std::net` TCP.
//!
//! Lifecycle: an actor `bind`s a listener (an accept thread runs for the
//! transport's lifetime), then `connect`s to the peers it wants to dial —
//! each dial retries with linear backoff until the attempt budget runs
//! out, sends a [`NetMsg::Hello`] so the acceptor knows who arrived, and
//! spawns a reader thread that decodes frames into one shared inbox
//! channel. Accepted connections are identified by their leading `Hello`
//! and their write halves are registered too, so an actor can reply to
//! someone who dialed *it* (how server peers answer a dial-only client).
//!
//! Per pair, exactly one stream is ever used for sending (first
//! registered wins), so the FIFO guarantee of the [`Transport`] contract
//! reduces to TCP's own in-order delivery. A send onto a broken stream
//! triggers one reconnect/backoff cycle for dialed peers before
//! surfacing [`NetError::Unreachable`].
//!
//! **Send path.** Each peer owns its own locked `ConnWriter`: a cork
//! buffer frames are encoded into *in place* ([`NetMsg::frame_into`], no
//! per-send allocation) plus the stream they flush to. The registry map
//! is only locked long enough to clone the per-peer handle, so a blocked
//! write to one peer never stalls sends to another (the old design held
//! one global mutex across every `write_all`). [`Transport::send`]
//! flushes eagerly; [`Transport::send_corked`] defers so back-to-back
//! frames coalesce into one syscall at the next flush — the cork buffer
//! also force-flushes past `CORK_FLUSH_BYTES` to bound memory.
//!
//! **Receive path.** Each reader thread reuses one grow-only payload
//! buffer across frames (allocation-free after warm-up) and counts every
//! corrupt header or undecodable payload in a shared transport stat
//! ([`TcpTransport::wire_errors`]) before dropping the connection, so a
//! mis-speaking peer is observable instead of just "hung".

use crate::lock::{lock_or_poison, lock_or_recover};
use crate::message::NetMsg;
use crate::transport::{NetError, PeerAddr, Transport};
use crate::wire::{check_header, HEADER_LEN};
use rechord_id::Ident;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Dial attempts before a connect gives up.
const DIAL_ATTEMPTS: u32 = 60;
/// Base backoff between dial attempts (linear: `attempt * base`, capped).
const DIAL_BACKOFF: Duration = Duration::from_millis(50);
/// Backoff cap so a long outage doesn't grow unbounded sleeps.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(500);
/// A cork buffer past this size force-flushes on the next enqueue, so a
/// caller corking a large batch cannot grow the buffer without bound.
const CORK_FLUSH_BYTES: usize = 256 * 1024;

/// Test support: whether this process can open a TCP connection to itself
/// on `127.0.0.1`. In a network-less sandbox (`unshare -n`) the bind or the
/// connect fails, and there every TCP test calls this first and returns
/// early — saying so — instead of panicking in `bind` or `connect`.
/// `ci.sh` asserts the probe succeeds, so a skip never passes for a run.
pub fn loopback_or_skip() -> bool {
    let up = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| TcpStream::connect(listener.local_addr()?))
        .is_ok();
    if !up {
        eprintln!("skipped: no loopback interface");
    }
    up
}

/// Shared per-endpoint transport counters.
#[derive(Default)]
struct TcpStats {
    /// Frames dropped as undecodable (bad header or payload decode).
    wire_errors: AtomicU64,
}

/// The send half of one peer connection: the stream plus a grow-only cork
/// buffer frames are encoded straight into. Flushing writes the whole
/// buffer with one `write_all` and keeps the capacity.
struct ConnWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter { stream, buf: Vec::new() }
    }

    /// Encodes `msg` onto the cork buffer; force-flushes first if the
    /// buffer already exceeds its size bound.
    fn enqueue(&mut self, msg: &NetMsg) -> std::io::Result<()> {
        if self.buf.len() >= CORK_FLUSH_BYTES {
            self.flush()?;
        }
        msg.frame_into(&mut self.buf);
        Ok(())
    }

    /// Writes every corked byte in one syscall. On failure the buffer is
    /// kept, so a reconnect can replay the unsent frames.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// One peer's locked writer, shared between the owning transport and the
/// accept thread that may register it.
type PeerWriter = Arc<Mutex<ConnWriter>>;

/// Registry of send halves. The outer lock is held only to look up or
/// register a peer (never across a write), so sends to different peers
/// proceed in parallel and a full socket buffer on one connection cannot
/// stall the rest.
type WriteMap = Arc<Mutex<BTreeMap<Ident, PeerWriter>>>;

/// Read-side buffer: a whole pipelined window of frames usually lands in
/// one syscall, so the per-frame header+payload reads hit memory.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Reads frames off `stream` and pushes decoded messages, tagged with
/// `from`, into the shared inbox until EOF or a wire/socket error. The
/// stream is read through a [`BufReader`] (coalesced sends arrive as one
/// syscall) and one payload buffer is reused across frames (grow-only,
/// allocation-free after warm-up); undecodable input bumps
/// `stats.wire_errors` before the connection is dropped.
fn reader_loop(
    from: Ident,
    stream: TcpStream,
    inbox: mpsc::Sender<(Ident, NetMsg)>,
    stats: Arc<TcpStats>,
) {
    let mut stream = std::io::BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut header = [0u8; HEADER_LEN];
    let mut payload: Vec<u8> = Vec::new();
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // EOF or reset: the peer hung up
        }
        let len = match check_header(&header) {
            Ok(len) => len as usize,
            Err(_) => {
                // Corrupt stream: count it, then drop the connection.
                stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if payload.len() < len {
            payload.resize(len, 0);
        }
        if stream.read_exact(&mut payload[..len]).is_err() {
            return;
        }
        match NetMsg::decode(&payload[..len]) {
            Ok(msg) => {
                if inbox.send((from, msg)).is_err() {
                    return; // transport dropped
                }
            }
            Err(_) => {
                stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Handles one accepted connection: the first frame must be a `Hello`
/// identifying the dialer; the write half is then registered (unless a
/// stream for that peer already exists) and the reader loop takes over.
fn accept_conn(
    stream: TcpStream,
    writes: WriteMap,
    inbox: mpsc::Sender<(Ident, NetMsg)>,
    stats: Arc<TcpStats>,
) {
    let mut s = stream;
    let mut header = [0u8; HEADER_LEN];
    if s.read_exact(&mut header).is_err() {
        return;
    }
    let Ok(len) = check_header(&header) else {
        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut payload = vec![0u8; len as usize];
    if s.read_exact(&mut payload).is_err() {
        return;
    }
    let Ok(NetMsg::Hello { from }) = NetMsg::decode(&payload) else {
        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let _ = s.set_nodelay(true); // RPC frames, not bulk: Nagle only adds latency
    if let Ok(clone) = s.try_clone() {
        // First registered stream wins: if we also dialed this peer, the
        // existing entry keeps sends on one stream (FIFO per pair).
        lock_or_recover(&writes)
            .entry(from)
            .or_insert_with(|| Arc::new(Mutex::new(ConnWriter::new(clone))));
    }
    reader_loop(from, s, inbox, stats);
}

/// The TCP transport endpoint of one cluster actor.
pub struct TcpTransport {
    me: Ident,
    local_addr: SocketAddr,
    writes: WriteMap,
    dialed: BTreeMap<Ident, SocketAddr>,
    /// Peers with (possibly) corked frames since the last flush.
    corked: BTreeSet<Ident>,
    stats: Arc<TcpStats>,
    inbox: mpsc::Receiver<(Ident, NetMsg)>,
    inbox_tx: mpsc::Sender<(Ident, NetMsg)>,
}

impl TcpTransport {
    /// Binds `listen` (use port 0 for an OS-assigned port) and starts the
    /// accept thread.
    pub fn bind(me: Ident, listen: SocketAddr) -> Result<Self, NetError> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let writes: WriteMap = Arc::default();
        let stats: Arc<TcpStats> = Arc::default();
        let (inbox_tx, inbox) = mpsc::channel();
        let (w, tx, st) = (Arc::clone(&writes), inbox_tx.clone(), Arc::clone(&stats));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let (w, tx, st) = (Arc::clone(&w), tx.clone(), Arc::clone(&st));
                std::thread::spawn(move || accept_conn(stream, w, tx, st));
            }
        });
        Ok(TcpTransport {
            me,
            local_addr,
            writes,
            dialed: BTreeMap::new(),
            corked: BTreeSet::new(),
            stats,
            inbox,
            inbox_tx,
        })
    }

    /// The bound listen address (with the OS-assigned port filled in).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// One dial cycle: connect with linear backoff, introduce ourselves,
    /// register the write half, and start a reader for the responses the
    /// peer will send back down this stream.
    fn dial(&mut self, peer: Ident, addr: SocketAddr) -> Result<(), NetError> {
        let mut last_err = NetError::Unreachable(peer);
        for attempt in 1..=DIAL_ATTEMPTS {
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.write_all(&NetMsg::Hello { from: self.me }.to_frame())?;
                    let clone = stream.try_clone()?;
                    let tx = self.inbox_tx.clone();
                    let st = Arc::clone(&self.stats);
                    std::thread::spawn(move || reader_loop(peer, stream, tx, st));
                    // A fresh dial replaces any stale stream: the old one
                    // is the reason we are reconnecting.
                    lock_or_poison(&self.writes, "write map")?
                        .insert(peer, Arc::new(Mutex::new(ConnWriter::new(clone))));
                    self.dialed.insert(peer, addr);
                    return Ok(());
                }
                Err(e) => {
                    last_err = NetError::Io(e.to_string());
                    std::thread::sleep((DIAL_BACKOFF * attempt).min(DIAL_BACKOFF_CAP));
                }
            }
        }
        Err(last_err)
    }

    /// The registered writer for `to`, if any. Holds the registry lock
    /// only for the lookup.
    fn writer_of(&self, to: Ident) -> Option<PeerWriter> {
        lock_or_recover(&self.writes).get(&to).cloned()
    }

    /// Encodes `msg` onto the peer's cork buffer (flushing inline only
    /// past the size bound).
    fn enqueue(&self, to: Ident, msg: &NetMsg) -> Result<(), NetError> {
        match self.writer_of(to) {
            Some(w) => lock_or_poison(&w, "conn writer")?.enqueue(msg).map_err(NetError::from),
            None => Err(NetError::Unreachable(to)),
        }
    }

    /// Flushes the peer's cork buffer. On a socket error, runs one
    /// reconnect cycle (dialed peers only) and replays the unsent bytes
    /// over the fresh stream.
    fn flush_peer(&mut self, to: Ident) -> Result<(), NetError> {
        let Some(w) = self.writer_of(to) else { return Err(NetError::Unreachable(to)) };
        let flushed = lock_or_poison(&w, "conn writer")?.flush();
        match flushed {
            Ok(()) => Ok(()),
            Err(first) => {
                // Reconnect path: only dialed peers have a known address.
                let Some(addr) = self.dialed.get(&to).copied() else {
                    return Err(NetError::Io(first.to_string()));
                };
                // The failed writer kept its unsent frames; carry them over.
                let pending = std::mem::take(&mut lock_or_poison(&w, "conn writer")?.buf);
                lock_or_poison(&self.writes, "write map")?.remove(&to);
                self.dial(to, addr)?;
                let w = self.writer_of(to).ok_or(NetError::Unreachable(to))?;
                let mut fresh = lock_or_poison(&w, "conn writer")?;
                fresh.buf = pending;
                fresh.flush().map_err(NetError::from)
            }
        }
    }
}

impl Transport for TcpTransport {
    fn local(&self) -> Ident {
        self.me
    }

    fn connect(&mut self, peer: Ident, addr: &PeerAddr) -> Result<(), NetError> {
        let PeerAddr::Socket(addr) = addr else {
            return Err(NetError::Io("TcpTransport requires PeerAddr::Socket".into()));
        };
        // Keep an existing stream (first wins, FIFO per pair) but remember
        // the address so reconnect-on-send knows where to go.
        self.dialed.insert(peer, *addr);
        if lock_or_poison(&self.writes, "write map")?.contains_key(&peer) {
            return Ok(());
        }
        self.dial(peer, *addr)
    }

    fn send(&mut self, to: Ident, msg: NetMsg) -> Result<(), NetError> {
        self.send_corked(to, msg)?;
        self.flush(to)
    }

    fn send_corked(&mut self, to: Ident, msg: NetMsg) -> Result<(), NetError> {
        match self.enqueue(to, &msg) {
            Ok(()) => {
                self.corked.insert(to);
                Ok(())
            }
            Err(first) => {
                // An enqueue only touches the socket when the buffer bound
                // forces an inline flush, so a failure here is a dead
                // stream: run one reconnect cycle, carry the unsent corked
                // bytes over, and retry.
                let Some(addr) = self.dialed.get(&to).copied() else { return Err(first) };
                let pending = match self.writer_of(to) {
                    Some(w) => std::mem::take(&mut lock_or_poison(&w, "conn writer")?.buf),
                    None => Vec::new(),
                };
                lock_or_poison(&self.writes, "write map")?.remove(&to);
                self.dial(to, addr)?;
                let w = self.writer_of(to).ok_or(NetError::Unreachable(to))?;
                lock_or_poison(&w, "conn writer")?.buf = pending;
                self.enqueue(to, &msg)?;
                self.corked.insert(to);
                Ok(())
            }
        }
    }

    fn flush(&mut self, to: Ident) -> Result<(), NetError> {
        self.corked.remove(&to);
        self.flush_peer(to)
    }

    fn flush_all(&mut self) -> Result<(), NetError> {
        while let Some(peer) = self.corked.pop_first() {
            self.flush_peer(peer)?;
        }
        Ok(())
    }

    fn wire_errors(&self) -> u64 {
        self.stats.wire_errors.load(Ordering::Relaxed)
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<(Ident, NetMsg), NetError> {
        match deadline {
            None => match self.inbox.try_recv() {
                Ok(pair) => Ok(pair),
                Err(mpsc::TryRecvError::Empty) => Err(NetError::Timeout),
                Err(mpsc::TryRecvError::Disconnected) => Err(NetError::Closed),
            },
            Some(d) => match self.inbox.recv_timeout(d) {
                Ok(pair) => Ok(pair),
                Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> Ident {
        Ident::from_raw(x)
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("loopback addr")
    }

    /// `ci.sh` runs this one (`-- --ignored`) ahead of the test leg: where
    /// it fails, every test below skipped and the leg proved nothing.
    #[test]
    #[ignore = "the loopback assertion of ci.sh; fails by design without a network"]
    fn loopback_is_up() {
        assert!(loopback_or_skip(), "no loopback interface: the TCP tests only skip here");
    }

    #[test]
    fn dial_handshake_and_roundtrip() {
        if !loopback_or_skip() {
            return;
        }
        let mut a = TcpTransport::bind(id(1), loopback()).unwrap();
        let mut b = TcpTransport::bind(id(2), loopback()).unwrap();
        a.connect(id(2), &PeerAddr::Socket(b.local_addr())).unwrap();
        a.send(id(2), NetMsg::Ping).unwrap();
        let (from, msg) = b.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((from, msg), (id(1), NetMsg::Ping));
        // b replies over the accepted connection without ever dialing a.
        b.send(id(1), NetMsg::Pong { serving: true }).unwrap();
        let (from, msg) = a.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((from, msg), (id(2), NetMsg::Pong { serving: true }));
        assert_eq!(a.wire_errors(), 0);
        assert_eq!(b.wire_errors(), 0);
    }

    #[test]
    fn per_pair_order_is_preserved() {
        if !loopback_or_skip() {
            return;
        }
        let mut a = TcpTransport::bind(id(1), loopback()).unwrap();
        let mut b = TcpTransport::bind(id(2), loopback()).unwrap();
        a.connect(id(2), &PeerAddr::Socket(b.local_addr())).unwrap();
        for rpc in 0..100u64 {
            a.send(id(2), NetMsg::GetReq { rpc, key: rpc }).unwrap();
        }
        for rpc in 0..100u64 {
            let (_, msg) = b.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(msg, NetMsg::GetReq { rpc, key: rpc });
        }
    }

    #[test]
    fn corked_sends_coalesce_and_flush_in_order() {
        if !loopback_or_skip() {
            return;
        }
        let mut a = TcpTransport::bind(id(1), loopback()).unwrap();
        let mut b = TcpTransport::bind(id(2), loopback()).unwrap();
        a.connect(id(2), &PeerAddr::Socket(b.local_addr())).unwrap();
        for rpc in 0..64u64 {
            a.send_corked(id(2), NetMsg::GetReq { rpc, key: rpc }).unwrap();
        }
        a.flush_all().unwrap();
        for rpc in 0..64u64 {
            let (_, msg) = b.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(msg, NetMsg::GetReq { rpc, key: rpc });
        }
        // Interleaving corked and eager sends keeps per-pair FIFO.
        a.send_corked(id(2), NetMsg::Ping).unwrap();
        a.send(id(2), NetMsg::Shutdown).unwrap();
        assert_eq!(b.recv(Some(Duration::from_secs(5))).unwrap().1, NetMsg::Ping);
        assert_eq!(b.recv(Some(Duration::from_secs(5))).unwrap().1, NetMsg::Shutdown);
    }

    #[test]
    fn corrupt_frames_are_counted_not_silent() {
        if !loopback_or_skip() {
            return;
        }
        let mut b = TcpTransport::bind(id(2), loopback()).unwrap();
        // Speak raw garbage at b after a valid handshake: the reader must
        // count a wire error when it drops the connection.
        let mut s = TcpStream::connect(b.local_addr()).unwrap();
        s.write_all(&NetMsg::Hello { from: id(7) }.to_frame()).unwrap();
        s.write_all(&NetMsg::Ping.to_frame()).unwrap();
        assert_eq!(b.recv(Some(Duration::from_secs(5))).unwrap(), (id(7), NetMsg::Ping));
        assert_eq!(b.wire_errors(), 0);
        s.write_all(b"this is not a frame, not even close....").unwrap();
        s.flush().unwrap();
        // The reader drops the connection and bumps the counter.
        let t0 = std::time::Instant::now();
        while b.wire_errors() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.wire_errors(), 1);
    }

    #[test]
    fn send_without_route_is_unreachable() {
        if !loopback_or_skip() {
            return;
        }
        let mut a = TcpTransport::bind(id(1), loopback()).unwrap();
        assert_eq!(a.send(id(9), NetMsg::Ping), Err(NetError::Unreachable(id(9))));
    }

    #[test]
    fn big_state_frames_survive_the_socket() {
        if !loopback_or_skip() {
            return;
        }
        use rechord_core::state::PeerState;
        use rechord_graph::NodeRef;
        let mut st = PeerState::new();
        for i in 0..512u64 {
            st.levels.get_mut(&0).unwrap().nu.insert(NodeRef::real(id(i * 7 + 3)));
        }
        let mut a = TcpTransport::bind(id(1), loopback()).unwrap();
        let mut b = TcpTransport::bind(id(2), loopback()).unwrap();
        a.connect(id(2), &PeerAddr::Socket(b.local_addr())).unwrap();
        let msg = NetMsg::StateSync { round: 1, state: Box::new(st) };
        a.send(id(2), msg.clone()).unwrap();
        let (_, got) = b.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(got, msg);
    }
}
