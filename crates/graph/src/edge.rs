//! The three edge classes of the Re-Chord multigraph.

use crate::NodeRef;
use core::fmt;

/// Edge marking (paper §2.2): the multigraph may hold the same `(u,v)` pair
/// once per class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// `E_u`: unmarked edges — the working topology that linearization sorts;
    /// only these (plus ring edges) project into the final Re-Chord network.
    Unmarked,
    /// `E_r`: ring edges — special marked edges that close the `[0,1)`
    /// wrap-around between the extremal nodes (rule 5).
    Ring,
    /// `E_c`: connection edges — keep contiguous virtual siblings in one
    /// weakly connected component (rule 6); never used for routing.
    Connection,
}

impl EdgeKind {
    /// All three classes, in rule order.
    pub const ALL: [EdgeKind; 3] = [EdgeKind::Unmarked, EdgeKind::Ring, EdgeKind::Connection];
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::Unmarked => write!(f, "unmarked"),
            EdgeKind::Ring => write!(f, "ring"),
            EdgeKind::Connection => write!(f, "connection"),
        }
    }
}

/// A directed, classed edge of the overlay multigraph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Source node (the node whose neighborhood set holds the edge).
    pub from: NodeRef,
    /// Target node.
    pub to: NodeRef,
    /// Which of `E_u`, `E_r`, `E_c` the edge belongs to.
    pub kind: EdgeKind,
}

impl Edge {
    /// Convenience constructor for an unmarked edge.
    pub fn unmarked(from: NodeRef, to: NodeRef) -> Self {
        Edge { from, to, kind: EdgeKind::Unmarked }
    }

    /// Convenience constructor for a ring edge.
    pub fn ring(from: NodeRef, to: NodeRef) -> Self {
        Edge { from, to, kind: EdgeKind::Ring }
    }

    /// Convenience constructor for a connection edge.
    pub fn connection(from: NodeRef, to: NodeRef) -> Self {
        Edge { from, to, kind: EdgeKind::Connection }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_and_order() {
        assert_eq!(EdgeKind::Unmarked.to_string(), "unmarked");
        assert_eq!(EdgeKind::ALL.len(), 3);
        assert!(EdgeKind::Unmarked < EdgeKind::Ring);
    }
}
