//! Edge totals of the overlay `G = (V, E_u ∪ E_r ∪ E_c)`, per class.
//!
//! The protocol keeps neighborhoods in per-node state (crate `rechord_core`),
//! and its checks read the overlay there; [`EdgeCounts`] tallies the edges
//! such a walk yields.

use crate::{Edge, EdgeKind};

/// Edge totals per class — the quantities plotted in the paper's Figure 5
/// ("normal edges" are unmarked + ring; "connection edges" are `E_c`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// `|E_u|`.
    pub unmarked: usize,
    /// `|E_r|`.
    pub ring: usize,
    /// `|E_c|`.
    pub connection: usize,
}

impl EdgeCounts {
    /// The paper's "normal edges": everything that is not a connection edge.
    pub fn normal(&self) -> usize {
        self.unmarked + self.ring
    }

    /// All edges of the multigraph.
    pub fn total(&self) -> usize {
        self.unmarked + self.ring + self.connection
    }
}

impl FromIterator<Edge> for EdgeCounts {
    /// Counts edges by class.
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut c = EdgeCounts::default();
        for e in iter {
            *match e.kind {
                EdgeKind::Unmarked => &mut c.unmarked,
                EdgeKind::Ring => &mut c.ring,
                EdgeKind::Connection => &mut c.connection,
            } += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeRef;
    use rechord_id::Ident;

    #[test]
    fn multigraph_allows_same_pair_in_distinct_classes() {
        let a = NodeRef::real(Ident::from_f64(0.1));
        let b = NodeRef::real(Ident::from_f64(0.2));
        let c: EdgeCounts =
            [Edge::unmarked(a, b), Edge::ring(a, b), Edge::connection(a, b)].into_iter().collect();
        assert_eq!((c.unmarked, c.ring, c.connection), (1, 1, 1));
        assert_eq!(c.normal(), 2);
        assert_eq!(c.total(), 3);
    }
}
