//! Property tests for the connectivity count and the edge totals.

use crate::{connectivity, Edge, EdgeCounts, EdgeKind, NodeRef};
use proptest::prelude::*;
use rechord_id::Ident;

fn node_refs() -> impl Strategy<Value = NodeRef> {
    (any::<u64>(), 0u8..=8).prop_map(|(o, l)| NodeRef { owner: Ident::from_raw(o), level: l })
}

fn kinds() -> impl Strategy<Value = EdgeKind> {
    prop_oneof![Just(EdgeKind::Unmarked), Just(EdgeKind::Ring), Just(EdgeKind::Connection)]
}

fn edges() -> impl Strategy<Value = Edge> {
    (node_refs(), node_refs(), kinds()).prop_map(|(from, to, kind)| Edge { from, to, kind })
}

/// A graph on the nodes `0..n`: its node count and its edges.
fn numbered_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..24).prop_flat_map(|n| (Just(n), prop::collection::vec((0..n, 0..n), 0..40)))
}

/// Components by flood fill over an adjacency matrix, direction ignored.
fn naive_components(n: usize, edges: &[(usize, usize)]) -> usize {
    let mut adjacent = vec![vec![false; n]; n];
    for &(a, b) in edges {
        adjacent[a][b] = true;
        adjacent[b][a] = true;
    }
    let mut seen = vec![false; n];
    let mut count = 0;
    for root in 0..n {
        if seen[root] {
            continue;
        }
        count += 1;
        seen[root] = true;
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            for y in 0..n {
                if adjacent[x][y] && !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    count
}

proptest! {
    /// The union-find count equals a flood fill's.
    #[test]
    fn components_match_naive_search((n, es) in numbered_graph()) {
        prop_assert_eq!(connectivity::components(n, es.iter().copied()), naive_components(n, &es));
    }

    /// Adding an edge never raises the number of weak components, and
    /// lowers it by at most one.
    #[test]
    fn edges_only_merge_components((n, es) in numbered_graph(), extra in (0usize..24, 0usize..24)) {
        let extra = (extra.0 % n, extra.1 % n);
        let before = connectivity::components(n, es.iter().copied());
        let after = connectivity::components(n, es.iter().copied().chain([extra]));
        prop_assert!(after <= before && after + 1 >= before);
    }

    /// Edge counts agree with the edge iterator they are collected from.
    #[test]
    fn counts_agree_with_iterator(es in prop::collection::vec(edges(), 0..60)) {
        let c: EdgeCounts = es.iter().copied().collect();
        prop_assert_eq!(c.total(), es.len());
        prop_assert_eq!(c.unmarked, es.iter().filter(|e| e.kind == EdgeKind::Unmarked).count());
        prop_assert_eq!(c.ring, es.iter().filter(|e| e.kind == EdgeKind::Ring).count());
        prop_assert_eq!(c.connection, es.iter().filter(|e| e.kind == EdgeKind::Connection).count());
        prop_assert_eq!(c.normal(), c.unmarked + c.ring);
    }
}
