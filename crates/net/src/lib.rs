//! `rechord_net` — the transport subsystem: Re-Chord as real processes.
//!
//! Everything below the simulator assumes direct calls: the engine owns
//! all states and rounds are function applications. This crate removes
//! that assumption while keeping the semantics byte-identical:
//!
//! * [`wire`] — a hand-rolled, versioned, length-prefixed frame codec
//!   (fixed-width big-endian integers, no serde); every malformed input
//!   is a typed [`wire::WireError`], never a panic.
//! * [`message`] — the [`message::NetMsg`] protocol: BSP state/message
//!   exchange, repair-plane gossip, and the get/put/lookup data plane.
//! * [`transport`] — the [`transport::Transport`] trait: identifier-
//!   addressed, reliable, per-pair-FIFO messaging with deadline-aware
//!   receive.
//! * [`inmem`] — deterministic loopback fabric (simulator semantics).
//! * [`tcp`] — the same contract over `std::net` sockets with a
//!   connect/accept lifecycle and per-peer reconnect/backoff.
//! * [`sync`] — [`sync::RoundSync`], the bulk-synchronous round state
//!   machine replaying the engine bit for bit for any
//!   [`rechord_sim::SyncProtocol`].
//! * [`peer`] / [`client`] / [`cluster`] — a full Re-Chord node actor,
//!   the closed-loop RPC client, and in-process cluster drivers.
//!
//! The `node` binary hosts one peer over TCP; `tests/process_cluster.rs`
//! spawns three of them on loopback and pins TCP ≡ in-mem ≡ oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod inmem;
pub mod lock;
pub mod message;
pub mod peer;
pub mod sync;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use client::{ClusterClient, RpcResult};
pub use cluster::{stabilize_lockstep, ClusterConfig, LockstepReport, ThreadedCluster};
pub use inmem::{InMemFabric, InMemTransport};
pub use lock::{lock_or_poison, lock_or_recover};
pub use message::{ForwardedRpc, NetMsg, RpcOp};
pub use peer::{Control, NodeConfig, NodePeer, NodeReport};
pub use sync::{NetRoundStats, RoundSync, StepOutcome, SyncError};
pub use tcp::TcpTransport;
pub use transport::{NetError, PeerAddr, Transport};
pub use wire::WireError;

#[cfg(test)]
mod proptests;
