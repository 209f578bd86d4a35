//! The overlay graph model of Re-Chord (paper §2.2).
//!
//! Re-Chord's state is a directed multigraph `G = (V_r ∪ V_v, E_u ∪ E_c ∪ E_r)`:
//! real nodes and the virtual nodes they simulate, connected by three
//! disjoint classes of directed edges — *unmarked* (the working topology),
//! *ring* (wrap-around closure), and *connection* (sibling connectivity).
//! The graph itself lives in the peers' states (crate `rechord_core`, whose
//! `network::Overlay` reads its nodes and edges off them); this crate
//! provides its vocabulary:
//!
//! * [`NodeRef`] — a handle naming a (real or virtual) node by its owner and
//!   level, with its derived ring position;
//! * [`EdgeKind`] / [`Edge`] — the three edge classes, and [`EdgeCounts`],
//!   the edge totals per class;
//! * [`connectivity`] — the weak-connectivity count (the paper's
//!   precondition "the n peers are weakly connected" and the invariant its
//!   proofs track);
//! * [`dot`] — Graphviz rendering of a list of nodes and edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod dot;
mod edge;
mod noderef;
mod overlay;

pub use edge::{Edge, EdgeKind};
pub use noderef::NodeRef;
pub use overlay::EdgeCounts;

#[cfg(test)]
mod proptests;
