//! Wire-codec property tests: every message variant round-trips through
//! encode/decode (bare body and full frame), and malformed input — any
//! truncation, bad version bytes, oversized length prefixes, out-of-range
//! levels, reordered sets, arbitrary byte soup — produces a typed
//! [`WireError`], never a panic; what does decode re-encodes to its bytes.

use crate::message::{ForwardedRpc, NetMsg, RpcOp};
use crate::peer::NodeReport;
use crate::wire::{self, split_frame, WireError, HEADER_LEN, MAX_FRAME_LEN};
use proptest::prelude::*;
use rechord_core::msg::Msg;
use rechord_core::state::{PeerState, VirtualState};
use rechord_graph::{EdgeKind, NodeRef};
use rechord_id::Ident;
use std::collections::BTreeMap;

fn ident() -> impl Strategy<Value = Ident> {
    any::<u64>().prop_map(Ident::from_raw)
}

fn node_ref() -> impl Strategy<Value = NodeRef> {
    (any::<u64>(), 0u8..12).prop_map(|(o, l)| NodeRef { owner: Ident::from_raw(o), level: l })
}

fn edge_kind() -> impl Strategy<Value = EdgeKind> {
    prop_oneof![Just(EdgeKind::Unmarked), Just(EdgeKind::Ring), Just(EdgeKind::Connection)]
}

fn proto_msg() -> impl Strategy<Value = Msg> {
    (node_ref(), edge_kind(), node_ref()).prop_map(|(at, kind, edge)| Msg { at, kind, edge })
}

fn virtual_state() -> impl Strategy<Value = VirtualState> {
    (
        prop::collection::btree_set(node_ref(), 0..5),
        prop::collection::btree_set(node_ref(), 0..4),
        prop::collection::btree_set(node_ref(), 0..3),
        prop::option::of(node_ref()),
        prop::option::of(node_ref()),
    )
        .prop_map(|(nu, nr, nc, rl, rr)| VirtualState {
            nu: nu.into(),
            nr: nr.into(),
            nc: nc.into(),
            rl,
            rr,
        })
}

fn peer_state() -> impl Strategy<Value = PeerState> {
    prop::collection::vec((0u8..10, virtual_state()), 1..5).prop_map(|lvls| {
        let levels: BTreeMap<u8, VirtualState> = lvls.into_iter().collect();
        PeerState { levels }
    })
}

fn value_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        any::<u64>().prop_map(|x| format!("value-{x}")),
        Just("π ≠ RC — ünïcodé".to_string()),
    ]
}

fn rpc_op() -> impl Strategy<Value = RpcOp> {
    prop_oneof![Just(RpcOp::Get), Just(RpcOp::Put), Just(RpcOp::Lookup)]
}

fn forwarded() -> impl Strategy<Value = ForwardedRpc> {
    (
        (any::<u64>(), ident(), rpc_op(), any::<u64>()),
        (value_string(), any::<u64>(), ident(), 0u32..1000, 0u32..1000),
    )
        .prop_map(|((rpc, client, op, key), (value, version, cursor, hops, steps))| {
            ForwardedRpc { rpc, client, op, key, value, version, cursor, hops, steps }
        })
}

/// Every variant, weighted so the structurally rich ones dominate.
fn net_msg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        ident().prop_map(|from| NetMsg::Hello { from }),
        (any::<u64>(), peer_state())
            .prop_map(|(round, st)| NetMsg::StateSync { round, state: Box::new(st) }),
        (any::<u64>(), prop::collection::vec(proto_msg(), 0..6))
            .prop_map(|(round, msgs)| NetMsg::RoundMsgs { round, msgs }),
        prop::collection::vec(ident(), 0..5)
            .prop_map(|successors| NetMsg::GossipSuccessors { successors }),
        Just(NetMsg::Ping),
        any::<bool>().prop_map(|serving| NetMsg::Pong { serving }),
        (any::<u64>(), any::<u64>()).prop_map(|(rpc, key)| NetMsg::GetReq { rpc, key }),
        ((any::<u64>(), any::<u64>()), (value_string(), any::<u64>()))
            .prop_map(|((rpc, key), (value, version))| NetMsg::PutReq { rpc, key, value, version }),
        (any::<u64>(), any::<u64>()).prop_map(|(rpc, key)| NetMsg::LookupReq { rpc, key }),
        forwarded().prop_map(|f| NetMsg::Forward(Box::new(f))),
        ((any::<u64>(), any::<bool>(), 0u32..500), (ident(), prop::option::of(value_string())))
            .prop_map(|((rpc, ok, hops), (responsible, value))| NetMsg::Reply {
                rpc,
                ok,
                hops,
                responsible,
                value
            }),
        ((ident(), any::<u64>()), (any::<u64>(), value_string())).prop_map(
            |((pos, key), (version, value))| NetMsg::ReplicaPut { pos, key, version, value }
        ),
        Just(NetMsg::Shutdown),
        Just(NetMsg::StatsReq),
        ((any::<u64>(), any::<bool>()), (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()))
            .prop_map(|((rounds, converged), (delivered, dropped, served, wire_errors))| {
                NetMsg::Stats(NodeReport {
                    rounds,
                    converged,
                    delivered,
                    dropped,
                    served,
                    wire_errors,
                })
            }),
    ]
}

/// Bytes of one encoded `NodeRef`: owner, then level.
const NODEREF_LEN: usize = 9;

/// A `StateSync` or a nonempty `RoundMsgs`: the messages that carry node
/// references.
fn ref_msg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        (any::<u64>(), peer_state())
            .prop_map(|(round, st)| NetMsg::StateSync { round, state: Box::new(st) }),
        (any::<u64>(), prop::collection::vec(proto_msg(), 1..6))
            .prop_map(|(round, msgs)| NetMsg::RoundMsgs { round, msgs }),
    ]
}

/// Where the body of a [`ref_msg`] holds its node references.
#[derive(Default)]
struct Layout {
    /// Each reference's offset, with the number of the set it belongs to
    /// (`None` for a reference outside a set).
    refs: Vec<(usize, Option<usize>)>,
    /// The offsets of a state's level keys.
    level_keys: Vec<usize>,
}

fn layout(msg: &NetMsg) -> Layout {
    let mut layout = Layout::default();
    let mut at = 1 + 8 + 4; // tag, round, count
    match msg {
        NetMsg::StateSync { state, .. } => {
            let mut set = 0;
            for vs in state.levels.values() {
                layout.level_keys.push(at);
                at += 1;
                for refs in [&vs.nu, &vs.nr, &vs.nc] {
                    at += 4;
                    for _ in refs {
                        layout.refs.push((at, Some(set)));
                        at += NODEREF_LEN;
                    }
                    set += 1;
                }
                for r in [vs.rl, vs.rr] {
                    at += 1;
                    if r.is_some() {
                        layout.refs.push((at, None));
                        at += NODEREF_LEN;
                    }
                }
            }
        }
        NetMsg::RoundMsgs { msgs, .. } => {
            for _ in msgs {
                layout.refs.push((at, None));
                layout.refs.push((at + NODEREF_LEN + 1, None));
                at += 2 * NODEREF_LEN + 1;
            }
        }
        other => panic!("{other:?} carries no node references"),
    }
    assert_eq!(at, msg.encode().len(), "layout covers the body");
    layout
}

proptest! {
    #[test]
    fn every_message_roundtrips(msg in net_msg()) {
        let body = msg.encode();
        prop_assert_eq!(NetMsg::decode(&body).unwrap(), msg.clone());
        // And through a full frame.
        let framed = msg.to_frame();
        let (payload, used) = split_frame(&framed).unwrap().expect("complete frame");
        prop_assert_eq!(used, framed.len());
        prop_assert_eq!(NetMsg::decode(payload).unwrap(), msg);
    }

    #[test]
    fn encode_into_matches_legacy_framing(msg in net_msg(), prefix in prop::collection::vec(any::<u8>(), 0..32)) {
        // The allocation-free path must be byte-identical to the legacy
        // allocate-per-message path — appended after arbitrary dirty
        // prefixes, as a cork buffer holds earlier frames.
        let legacy_body = msg.encode();
        let legacy_frame = wire::frame(&legacy_body);
        prop_assert_eq!(&msg.to_frame(), &legacy_frame);

        let mut buf = prefix.clone();
        msg.encode_into(&mut buf);
        prop_assert_eq!(&buf[prefix.len()..], &legacy_body[..]);

        let mut buf = prefix.clone();
        msg.frame_into(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &legacy_frame[..]);
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(msg in net_msg(), frac in 0u32..1000) {
        // A strict prefix of a valid body can never decode: the bytes up to
        // the cut parse identically, the read crossing the cut fails — and
        // a parse completing exactly at the cut would contradict the full
        // body parsing with no trailing bytes.
        let body = msg.encode();
        let cut = (frac as usize * body.len()) / 1000;
        prop_assume!(cut < body.len());
        prop_assert!(NetMsg::decode(&body[..cut]).is_err());
    }

    #[test]
    fn bad_version_and_reserved_bytes_are_rejected(msg in net_msg(), v in 0u8..250) {
        let mut framed = msg.to_frame();
        framed[2] = v;
        match split_frame(&framed) {
            Ok(Some(_)) => prop_assert_eq!(v, wire::WIRE_VERSION),
            Err(WireError::BadVersion(got)) => prop_assert_eq!(got, v),
            other => panic!("unexpected outcome for version {v}: {other:?}"),
        }
        let mut framed = msg.to_frame();
        framed[3] = v.max(1); // any nonzero reserved byte
        prop_assert_eq!(split_frame(&framed), Err(WireError::BadReserved(v.max(1))));
    }

    #[test]
    fn oversized_length_prefixes_never_allocate(msg in net_msg(), extra in 1u32..(u32::MAX - MAX_FRAME_LEN)) {
        let mut framed = msg.to_frame();
        let bogus = MAX_FRAME_LEN + extra;
        framed[4..8].copy_from_slice(&bogus.to_be_bytes());
        prop_assert_eq!(split_frame(&framed), Err(WireError::Oversized(bogus)));
    }

    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Whatever arrives, decoding returns — Ok for the rare accidental
        // valid message, a typed error otherwise. No panics, no unbounded
        // allocation (collection lengths are checked against remaining
        // payload before any reservation).
        let _ = NetMsg::decode(&bytes);
        let _ = split_frame(&bytes);
    }

    #[test]
    fn out_of_range_levels_are_typed_errors(
        msg in ref_msg(),
        pick in any::<prop::sample::Index>(),
        level in 65u8..=255,
    ) {
        // A reference's level byte or a level key past MAX_LEVEL names no
        // node: it must not reach `NodeRef::pos`.
        let layout = layout(&msg);
        let mut spots: Vec<usize> = layout.refs.iter().map(|&(at, _)| at + 8).collect();
        spots.extend(&layout.level_keys);
        let mut body = msg.encode();
        body[spots[pick.index(spots.len())]] = level;
        prop_assert_eq!(NetMsg::decode(&body), Err(WireError::BadLevel(level)));
    }

    #[test]
    fn swapped_refs_are_typed_errors_or_roundtrip(
        msg in ref_msg(),
        first in any::<prop::sample::Index>(),
        step in any::<prop::sample::Index>(),
    ) {
        // Two references trade places. Within one set that breaks the
        // ascending order a set encodes in, which must be an error, not a
        // silent re-sort; anywhere else the result may be a valid message,
        // which must re-encode to exactly the swapped bytes.
        let refs = layout(&msg).refs;
        prop_assume!(refs.len() >= 2);
        let i = first.index(refs.len());
        let j = (i + 1 + step.index(refs.len() - 1)) % refs.len();
        let ((x, x_set), (y, y_set)) = (refs[i.min(j)], refs[i.max(j)]);
        let mut body = msg.encode();
        let (head, tail) = body.split_at_mut(y);
        head[x..x + NODEREF_LEN].swap_with_slice(&mut tail[..NODEREF_LEN]);
        match NetMsg::decode(&body) {
            Ok(decoded) => {
                prop_assert!(x_set.is_none() || x_set != y_set, "a reordered set decoded");
                prop_assert_eq!(decoded.encode(), body);
            }
            Err(e) => prop_assert_eq!(e, WireError::UnorderedSet),
        }
    }

    #[test]
    fn patched_bodies_error_or_reencode_exactly(
        msg in net_msg(),
        pick in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        // The codec's promise over one changed byte anywhere in any body.
        let mut body = msg.encode();
        let at = pick.index(body.len());
        body[at] = byte;
        if let Ok(decoded) = NetMsg::decode(&body) {
            prop_assert_eq!(decoded.encode(), body);
        }
    }

    #[test]
    fn declared_collection_lengths_are_capped_by_payload(n in 20u32..u32::MAX) {
        // A RoundMsgs header declaring n messages with no bytes behind it
        // must die on the length check, not in an allocation.
        let mut body = vec![0x03]; // RoundMsgs tag
        body.extend_from_slice(&7u64.to_be_bytes());
        body.extend_from_slice(&n.to_be_bytes());
        prop_assert_eq!(NetMsg::decode(&body), Err(WireError::BadLength(n)));
    }
}

#[test]
fn truncated_frame_headers_want_more_input_not_errors() {
    let framed = NetMsg::Ping.to_frame();
    for cut in 0..framed.len() {
        assert_eq!(split_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
    }
    assert!(framed.len() > HEADER_LEN);
}
