//! The overlay graph model of Re-Chord (paper §2.2).
//!
//! Re-Chord's state is a directed multigraph `G = (V_r ∪ V_v, E_u ∪ E_c ∪ E_r)`:
//! real nodes and the virtual nodes they simulate, connected by three
//! disjoint classes of directed edges — *unmarked* (the working topology),
//! *ring* (wrap-around closure), and *connection* (sibling connectivity).
//! This crate provides:
//!
//! * [`NodeRef`] — a handle naming a (real or virtual) node by its owner and
//!   level, with its derived ring position;
//! * [`EdgeKind`] / [`Edge`] — the three edge classes;
//! * [`OverlayGraph`] — a snapshot multigraph with per-class neighborhoods,
//!   for rendering ([`dot`]) and as tests' reference;
//! * [`connectivity`] — weak-connectivity analysis (the paper's precondition
//!   "the n peers are weakly connected" and the invariant its proofs track).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod dot;
mod edge;
mod noderef;
mod overlay;

pub use edge::{Edge, EdgeKind};
pub use noderef::NodeRef;
pub use overlay::{EdgeCounts, OverlayGraph};

#[cfg(test)]
mod proptests;
