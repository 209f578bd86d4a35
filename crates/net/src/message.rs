//! The typed message set of the cluster protocol — protocol plane
//! (state/message exchange for synchronous rounds), repair plane
//! (successor-list gossip, replica pushes), data plane (get/put/lookup
//! RPCs with recursive forwarding), and control plane (ping, shutdown,
//! stats) — plus its byte codec over the [`crate::wire`] frame format.
//!
//! Every variant encodes to `tag byte + fixed-width big-endian fields`;
//! collections carry a `u32` length prefix that is sanity-checked against
//! the remaining payload before anything is allocated. Decode of any byte
//! string either yields a message that re-encodes to the same bytes or a
//! typed [`WireError`] — never a panic (pinned by the property tests in
//! `src/proptests.rs`). So a level above `MAX_LEVEL` (which names no
//! node), a reference set out of strictly ascending order and a state's
//! level keys out of ascending order are errors: a set or a map built from
//! them would re-sort, and re-encode differently.

use crate::peer::NodeReport;
use crate::wire::{put_string, put_u32, put_u64, Reader, WireError};
use rechord_core::msg::Msg;
use rechord_core::state::{PeerState, RefSet, VirtualState};
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::{Ident, MAX_LEVEL};
use std::collections::BTreeMap;

/// Encoded size of a [`NodeRef`]: owner (8) + level (1).
const NODEREF_LEN: usize = 9;
/// Encoded size of a protocol [`Msg`]: two refs + the edge-class byte.
const MSG_LEN: usize = 2 * NODEREF_LEN + 1;

/// The DHT operation a forwarded request performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RpcOp {
    /// Read the value under the key.
    Get,
    /// Write a fresh version under the key.
    Put,
    /// Resolve the responsible peer only (no store access).
    Lookup,
}

impl RpcOp {
    fn to_byte(self) -> u8 {
        match self {
            RpcOp::Get => 0,
            RpcOp::Put => 1,
            RpcOp::Lookup => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(RpcOp::Get),
            1 => Ok(RpcOp::Put),
            2 => Ok(RpcOp::Lookup),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// One in-flight RPC being routed hop by hop toward the responsible peer.
///
/// Carried whole in [`NetMsg::Forward`] so any peer can resume the route:
/// the cursor is the monotone ring position greedy routing has reached,
/// `hops` counts peer-to-peer transfers, and `steps` counts route-step
/// evaluations against the shared budget (the same 2·64 cap
/// [`rechord_routing::route`] uses, so a distributed route can never loop
/// longer than the direct-call one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForwardedRpc {
    /// Client-assigned request id; replies correlate on it.
    pub rpc: u64,
    /// Peer to send the final [`NetMsg::Reply`] to.
    pub client: Ident,
    /// The operation to perform at the responsible peer.
    pub op: RpcOp,
    /// Application key.
    pub key: u64,
    /// Value for puts (empty for gets/lookups).
    pub value: String,
    /// Client-assigned version for puts (monotone write counter).
    pub version: u64,
    /// Greedy-routing cursor: ring position reached so far.
    pub cursor: Ident,
    /// Peer-to-peer hops taken so far.
    pub hops: u32,
    /// Route-step evaluations consumed so far (shared budget).
    pub steps: u32,
}

/// A message between cluster actors (peers and clients).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    /// Connection handshake: identifies the dialing actor. First message
    /// on every TCP connection; the accepting side routes replies to
    /// `from` over it.
    Hello {
        /// The dialer's identifier.
        from: Ident,
    },
    /// Full protocol state of the sender at the start of `round` — the
    /// bulk-synchronous broadcast every peer uses to reconstruct the
    /// engine's global round snapshot.
    StateSync {
        /// The 1-based round this state is an input to.
        round: u64,
        /// The sender's complete per-peer state.
        state: Box<PeerState>,
    },
    /// All delayed-assignment messages the sender's `step` addressed to
    /// the receiver in `round`. Sent to every peer each executed round —
    /// an empty batch is the round barrier.
    RoundMsgs {
        /// The 1-based round these messages were generated in.
        round: u64,
        /// The messages, in sender-local order (receivers sort).
        msgs: Vec<Msg>,
    },
    /// Repair-plane gossip: the sender's successor list (its view of the
    /// next peers clockwise), exchanged after stabilization. Receivers
    /// cross-check it against the shared roster before serving traffic.
    GossipSuccessors {
        /// The sender's successors, nearest first.
        successors: Vec<Ident>,
    },
    /// Liveness/readiness probe.
    Ping,
    /// Probe answer: `serving` is true once the peer has stabilized and
    /// verified gossip, i.e. will answer data-plane RPCs.
    Pong {
        /// Ready to serve get/put/lookup traffic?
        serving: bool,
    },
    /// Client-issued read.
    GetReq {
        /// Client-assigned request id.
        rpc: u64,
        /// Application key.
        key: u64,
    },
    /// Client-issued write.
    PutReq {
        /// Client-assigned request id.
        rpc: u64,
        /// Application key.
        key: u64,
        /// The value to store.
        value: String,
        /// Client-assigned monotone version (last write wins).
        version: u64,
    },
    /// Client-issued responsible-peer resolution.
    LookupReq {
        /// Client-assigned request id.
        rpc: u64,
        /// Application key.
        key: u64,
    },
    /// An RPC in flight between peers (recursive routing).
    Forward(Box<ForwardedRpc>),
    /// Terminal answer for an RPC, sent straight to the client.
    Reply {
        /// Echo of the request id.
        rpc: u64,
        /// Did routing reach the responsible peer?
        ok: bool,
        /// Total overlay hops the request took (probe misses included,
        /// mirroring [`rechord_routing::KvStore`] accounting).
        hops: u32,
        /// The peer that answered (or would store the key).
        responsible: Ident,
        /// The value, for gets that hit.
        value: Option<String>,
    },
    /// Fire-and-forget replica copy pushed from the responsible peer to a
    /// successor after a put.
    ReplicaPut {
        /// Ring position of the key.
        pos: Ident,
        /// Application key.
        key: u64,
        /// Version of the copy (last write wins).
        version: u64,
        /// The value.
        value: String,
    },
    /// Orderly termination request.
    Shutdown,
    /// Request for end-of-run counters.
    StatsReq,
    /// End-of-run counters, for cross-checking against the direct-call
    /// engine's [`rechord_sim::FixpointReport`].
    Stats(NodeReport),
}

const TAG_HELLO: u8 = 0x01;
const TAG_STATE_SYNC: u8 = 0x02;
const TAG_ROUND_MSGS: u8 = 0x03;
const TAG_GOSSIP: u8 = 0x04;
const TAG_PING: u8 = 0x05;
const TAG_PONG: u8 = 0x06;
const TAG_GET: u8 = 0x07;
const TAG_PUT: u8 = 0x08;
const TAG_LOOKUP: u8 = 0x09;
const TAG_FORWARD: u8 = 0x0a;
const TAG_REPLY: u8 = 0x0b;
const TAG_REPLICA_PUT: u8 = 0x0c;
const TAG_SHUTDOWN: u8 = 0x0d;
const TAG_STATS_REQ: u8 = 0x0e;
const TAG_STATS: u8 = 0x0f;

fn put_node_ref(out: &mut Vec<u8>, r: NodeRef) {
    put_u64(out, r.owner.raw());
    out.push(r.level);
}

fn read_level(r: &mut Reader<'_>) -> Result<u8, WireError> {
    match r.u8()? {
        level @ 0..=MAX_LEVEL => Ok(level),
        level => Err(WireError::BadLevel(level)),
    }
}

fn read_node_ref(r: &mut Reader<'_>) -> Result<NodeRef, WireError> {
    let owner = Ident::from_raw(r.u64()?);
    let level = read_level(r)?;
    Ok(NodeRef { owner, level })
}

fn put_opt_node_ref(out: &mut Vec<u8>, r: Option<NodeRef>) {
    match r {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_node_ref(out, r);
        }
    }
}

fn read_opt_node_ref(r: &mut Reader<'_>) -> Result<Option<NodeRef>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_node_ref(r)?)),
        other => Err(WireError::BadTag(other)),
    }
}

fn put_ref_set(out: &mut Vec<u8>, set: &RefSet) {
    put_u32(out, set.len() as u32);
    for &r in set {
        put_node_ref(out, r);
    }
}

fn read_ref_set(r: &mut Reader<'_>) -> Result<RefSet, WireError> {
    let n = r.len(NODEREF_LEN)?;
    // Exactly `n` slots, as a clone would hold: collecting through
    // `Result` cannot size the vector and leaves up to twice that.
    let mut refs = Vec::with_capacity(n);
    for _ in 0..n {
        refs.push(read_node_ref(r)?);
    }
    if refs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(WireError::UnorderedSet);
    }
    Ok(refs.into_iter().collect())
}

fn put_edge_kind(out: &mut Vec<u8>, kind: EdgeKind) {
    out.push(match kind {
        EdgeKind::Unmarked => 0,
        EdgeKind::Ring => 1,
        EdgeKind::Connection => 2,
    });
}

fn read_edge_kind(r: &mut Reader<'_>) -> Result<EdgeKind, WireError> {
    match r.u8()? {
        0 => Ok(EdgeKind::Unmarked),
        1 => Ok(EdgeKind::Ring),
        2 => Ok(EdgeKind::Connection),
        other => Err(WireError::BadKind(other)),
    }
}

/// Appends the encoding of one protocol [`Msg`].
fn put_msg(out: &mut Vec<u8>, m: &Msg) {
    put_node_ref(out, m.at);
    put_edge_kind(out, m.kind);
    put_node_ref(out, m.edge);
}

fn read_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    let at = read_node_ref(r)?;
    let kind = read_edge_kind(r)?;
    let edge = read_node_ref(r)?;
    Ok(Msg { at, kind, edge })
}

/// Appends the encoding of a full [`PeerState`].
fn put_peer_state(out: &mut Vec<u8>, st: &PeerState) {
    put_u32(out, st.levels.len() as u32);
    for (&lvl, vs) in &st.levels {
        out.push(lvl);
        put_ref_set(out, &vs.nu);
        put_ref_set(out, &vs.nr);
        put_ref_set(out, &vs.nc);
        put_opt_node_ref(out, vs.rl);
        put_opt_node_ref(out, vs.rr);
    }
}

fn read_peer_state(r: &mut Reader<'_>) -> Result<PeerState, WireError> {
    // Each level entry is at least: level byte + three empty set prefixes
    // + two absent-option bytes.
    let n = r.len(1 + 3 * 4 + 2)?;
    let mut levels = BTreeMap::new();
    for _ in 0..n {
        let lvl = read_level(r)?;
        if levels.last_key_value().is_some_and(|(&last, _)| last >= lvl) {
            return Err(WireError::UnorderedLevels(lvl));
        }
        let nu = read_ref_set(r)?;
        let nr = read_ref_set(r)?;
        let nc = read_ref_set(r)?;
        let rl = read_opt_node_ref(r)?;
        let rr = read_opt_node_ref(r)?;
        levels.insert(lvl, VirtualState { nu, nr, nc, rl, rr });
    }
    Ok(PeerState { levels })
}

fn put_opt_string(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_string(out, s);
        }
    }
}

fn read_opt_string(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.string()?)),
        other => Err(WireError::BadTag(other)),
    }
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::BadTag(other)),
    }
}

impl NetMsg {
    /// Encodes the message body (tag byte + fields, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the message body to `out` — the allocation-free wire path:
    /// callers reuse one grow-only scratch buffer per connection instead
    /// of allocating a fresh `Vec` per send. Bytes already in `out` are
    /// left untouched.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            NetMsg::Hello { from } => {
                out.push(TAG_HELLO);
                put_u64(out, from.raw());
            }
            NetMsg::StateSync { round, state } => {
                out.push(TAG_STATE_SYNC);
                put_u64(out, *round);
                put_peer_state(out, state);
            }
            NetMsg::RoundMsgs { round, msgs } => {
                out.push(TAG_ROUND_MSGS);
                put_u64(out, *round);
                put_u32(out, msgs.len() as u32);
                for m in msgs {
                    put_msg(out, m);
                }
            }
            NetMsg::GossipSuccessors { successors } => {
                out.push(TAG_GOSSIP);
                put_u32(out, successors.len() as u32);
                for s in successors {
                    put_u64(out, s.raw());
                }
            }
            NetMsg::Ping => out.push(TAG_PING),
            NetMsg::Pong { serving } => {
                out.push(TAG_PONG);
                put_bool(out, *serving);
            }
            NetMsg::GetReq { rpc, key } => {
                out.push(TAG_GET);
                put_u64(out, *rpc);
                put_u64(out, *key);
            }
            NetMsg::PutReq { rpc, key, value, version } => {
                out.push(TAG_PUT);
                put_u64(out, *rpc);
                put_u64(out, *key);
                put_string(out, value);
                put_u64(out, *version);
            }
            NetMsg::LookupReq { rpc, key } => {
                out.push(TAG_LOOKUP);
                put_u64(out, *rpc);
                put_u64(out, *key);
            }
            NetMsg::Forward(f) => {
                out.push(TAG_FORWARD);
                put_u64(out, f.rpc);
                put_u64(out, f.client.raw());
                out.push(f.op.to_byte());
                put_u64(out, f.key);
                put_string(out, &f.value);
                put_u64(out, f.version);
                put_u64(out, f.cursor.raw());
                put_u32(out, f.hops);
                put_u32(out, f.steps);
            }
            NetMsg::Reply { rpc, ok, hops, responsible, value } => {
                out.push(TAG_REPLY);
                put_u64(out, *rpc);
                put_bool(out, *ok);
                put_u32(out, *hops);
                put_u64(out, responsible.raw());
                put_opt_string(out, value);
            }
            NetMsg::ReplicaPut { pos, key, version, value } => {
                out.push(TAG_REPLICA_PUT);
                put_u64(out, pos.raw());
                put_u64(out, *key);
                put_u64(out, *version);
                put_string(out, value);
            }
            NetMsg::Shutdown => out.push(TAG_SHUTDOWN),
            NetMsg::StatsReq => out.push(TAG_STATS_REQ),
            NetMsg::Stats(r) => {
                out.push(TAG_STATS);
                put_u64(out, r.rounds);
                put_bool(out, r.converged);
                put_u64(out, r.delivered);
                put_u64(out, r.dropped);
                put_u64(out, r.served);
                put_u64(out, r.wire_errors);
            }
        }
    }

    /// Decodes a message body (as produced by [`NetMsg::encode`]). The
    /// whole input must be consumed; trailing bytes are an error.
    pub fn decode(buf: &[u8]) -> Result<NetMsg, WireError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_HELLO => NetMsg::Hello { from: Ident::from_raw(r.u64()?) },
            TAG_STATE_SYNC => {
                let round = r.u64()?;
                let state = Box::new(read_peer_state(&mut r)?);
                NetMsg::StateSync { round, state }
            }
            TAG_ROUND_MSGS => {
                let round = r.u64()?;
                let n = r.len(MSG_LEN)?;
                let mut msgs = Vec::with_capacity(n);
                for _ in 0..n {
                    msgs.push(read_msg(&mut r)?);
                }
                NetMsg::RoundMsgs { round, msgs }
            }
            TAG_GOSSIP => {
                let n = r.len(8)?;
                let mut successors = Vec::with_capacity(n);
                for _ in 0..n {
                    successors.push(Ident::from_raw(r.u64()?));
                }
                NetMsg::GossipSuccessors { successors }
            }
            TAG_PING => NetMsg::Ping,
            TAG_PONG => NetMsg::Pong { serving: read_bool(&mut r)? },
            TAG_GET => NetMsg::GetReq { rpc: r.u64()?, key: r.u64()? },
            TAG_PUT => NetMsg::PutReq {
                rpc: r.u64()?,
                key: r.u64()?,
                value: r.string()?,
                version: r.u64()?,
            },
            TAG_LOOKUP => NetMsg::LookupReq { rpc: r.u64()?, key: r.u64()? },
            TAG_FORWARD => NetMsg::Forward(Box::new(ForwardedRpc {
                rpc: r.u64()?,
                client: Ident::from_raw(r.u64()?),
                op: RpcOp::from_byte(r.u8()?)?,
                key: r.u64()?,
                value: r.string()?,
                version: r.u64()?,
                cursor: Ident::from_raw(r.u64()?),
                hops: r.u32()?,
                steps: r.u32()?,
            })),
            TAG_REPLY => NetMsg::Reply {
                rpc: r.u64()?,
                ok: read_bool(&mut r)?,
                hops: r.u32()?,
                responsible: Ident::from_raw(r.u64()?),
                value: read_opt_string(&mut r)?,
            },
            TAG_REPLICA_PUT => NetMsg::ReplicaPut {
                pos: Ident::from_raw(r.u64()?),
                key: r.u64()?,
                version: r.u64()?,
                value: r.string()?,
            },
            TAG_SHUTDOWN => NetMsg::Shutdown,
            TAG_STATS_REQ => NetMsg::StatsReq,
            TAG_STATS => NetMsg::Stats(NodeReport {
                rounds: r.u64()?,
                converged: read_bool(&mut r)?,
                delivered: r.u64()?,
                dropped: r.u64()?,
                served: r.u64()?,
                wire_errors: r.u64()?,
            }),
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encodes the message into a complete wire frame (header + body).
    /// Thin wrapper over [`NetMsg::frame_into`], kept for compatibility
    /// and one-shot sends (handshakes, tests).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_into(&mut out);
        out
    }

    /// Appends a complete wire frame (header + body) to `out`, encoding
    /// the body in place and backfilling the length prefix — zero
    /// intermediate allocations. Corked senders call this repeatedly on
    /// one buffer so back-to-back frames coalesce into a single write.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        let mark = crate::wire::begin_frame(out);
        self.encode_into(out);
        crate::wire::end_frame(out, mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> PeerState {
        let mut st = PeerState::new();
        let a = NodeRef::real(Ident::from_raw(0x1111));
        let b = NodeRef::virtual_node(Ident::from_raw(0x2222), 3);
        st.levels.get_mut(&0).unwrap().nu.insert(a);
        st.levels.get_mut(&0).unwrap().nr.insert(b);
        st.levels.get_mut(&0).unwrap().rr = Some(a);
        st.levels.insert(
            5,
            VirtualState {
                nu: [a, b].into_iter().collect(),
                nc: [b].into_iter().collect(),
                rl: Some(b),
                ..Default::default()
            },
        );
        st
    }

    #[test]
    fn every_variant_roundtrips() {
        let id = Ident::from_raw(0xfeed_beef);
        let msgs = vec![
            NetMsg::Hello { from: id },
            NetMsg::StateSync { round: 17, state: Box::new(sample_state()) },
            NetMsg::RoundMsgs {
                round: 3,
                msgs: vec![Msg {
                    at: NodeRef::real(id),
                    kind: EdgeKind::Ring,
                    edge: NodeRef::virtual_node(Ident::from_raw(9), 2),
                }],
            },
            NetMsg::RoundMsgs { round: 4, msgs: vec![] },
            NetMsg::GossipSuccessors { successors: vec![id, Ident::from_raw(1)] },
            NetMsg::Ping,
            NetMsg::Pong { serving: true },
            NetMsg::GetReq { rpc: 1, key: 42 },
            NetMsg::PutReq { rpc: 2, key: 42, value: "näf".into(), version: 7 },
            NetMsg::LookupReq { rpc: 3, key: 0 },
            NetMsg::Forward(Box::new(ForwardedRpc {
                rpc: 4,
                client: id,
                op: RpcOp::Put,
                key: 9,
                value: "v".into(),
                version: 2,
                cursor: Ident::from_raw(55),
                hops: 3,
                steps: 11,
            })),
            NetMsg::Reply { rpc: 4, ok: true, hops: 3, responsible: id, value: Some("v".into()) },
            NetMsg::Reply { rpc: 5, ok: false, hops: 0, responsible: id, value: None },
            NetMsg::ReplicaPut { pos: id, key: 9, version: 2, value: "v".into() },
            NetMsg::Shutdown,
            NetMsg::StatsReq,
            NetMsg::Stats(NodeReport {
                rounds: 9,
                converged: true,
                delivered: 100,
                dropped: 2,
                served: 50,
                wire_errors: 1,
            }),
        ];
        for m in msgs {
            let bytes = m.encode();
            assert_eq!(NetMsg::decode(&bytes), Ok(m.clone()), "body roundtrip");
            let frame = m.to_frame();
            let (payload, used) = crate::wire::split_frame(&frame).unwrap().unwrap();
            assert_eq!(used, frame.len());
            // The in-place path appends the identical bytes to a dirty
            // buffer without disturbing what is already there.
            let mut corked = vec![0xAA, 0xBB];
            m.frame_into(&mut corked);
            assert_eq!(&corked[..2], &[0xAA, 0xBB]);
            assert_eq!(&corked[2..], &frame[..], "frame_into ≡ to_frame");
            assert_eq!(NetMsg::decode(payload), Ok(m), "frame roundtrip");
        }
    }

    #[test]
    fn stats_encoding_is_pinned() {
        // The fields go out in `NodeReport`'s declaration order. Round
        // trips alone would not notice a reordering, so the bytes are pinned.
        let m = NetMsg::Stats(NodeReport {
            rounds: 9,
            converged: true,
            delivered: 300,
            dropped: 2,
            served: 50,
            wire_errors: 1,
        });
        let want: [u8; 42] = [
            15, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 1, 44, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0,
            0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 1,
        ];
        assert_eq!(m.encode(), want);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(NetMsg::decode(&[0xff]), Err(WireError::BadTag(0xff)));
        assert_eq!(NetMsg::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = NetMsg::Ping.encode();
        bytes.push(0);
        assert_eq!(NetMsg::decode(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn bad_edge_kind_rejected() {
        let m = NetMsg::RoundMsgs {
            round: 1,
            msgs: vec![Msg {
                at: NodeRef::real(Ident::from_raw(1)),
                kind: EdgeKind::Unmarked,
                edge: NodeRef::real(Ident::from_raw(2)),
            }],
        };
        let mut bytes = m.encode();
        // The kind byte sits after tag(1) + round(8) + count(4) + at(9).
        bytes[1 + 8 + 4 + 9] = 7;
        assert_eq!(NetMsg::decode(&bytes), Err(WireError::BadKind(7)));
    }

    #[test]
    fn non_canonical_states_rejected() {
        let (a, b) = (NodeRef::real(Ident::from_raw(1)), NodeRef::real(Ident::from_raw(2)));
        let mut state = PeerState::new();
        state.levels.insert(3, VirtualState::default());
        state.level_mut(0).unwrap().nu = [a, b].into_iter().collect();
        let m = NetMsg::StateSync { round: 1, state: Box::new(state) };
        let bytes = m.encode();
        // Level 0's `nu` starts after tag(1) + round(8) + count(4) + key(1)
        // + its own count(4); each reference is owner(8) + level(1).
        let nu = 1 + 8 + 4 + 1 + 4;

        let mut level = bytes.clone();
        level[nu + 8] = 200;
        assert_eq!(NetMsg::decode(&level), Err(WireError::BadLevel(200)));

        let mut swapped = bytes.clone();
        let (first, second) = swapped[nu..nu + 2 * NODEREF_LEN].split_at_mut(NODEREF_LEN);
        first[..8].swap_with_slice(&mut second[..8]);
        assert_eq!(NetMsg::decode(&swapped), Err(WireError::UnorderedSet));

        let key3 = nu + 2 * NODEREF_LEN + 4 + 4 + 1 + 1;
        let mut keys = bytes.clone();
        keys[key3] = 0;
        assert_eq!(NetMsg::decode(&keys), Err(WireError::UnorderedLevels(0)));
        keys[key3] = MAX_LEVEL + 1;
        assert_eq!(NetMsg::decode(&keys), Err(WireError::BadLevel(MAX_LEVEL + 1)));
    }
}
