//! Weak-connectivity analysis.
//!
//! Self-stabilization is only possible from states where a legal state is
//! reachable, i.e. the initial directed graph is **weakly connected** (paper
//! §2.1). The convergence proof additionally tracks connectivity of the
//! *real-peer* projection (an edge `(u_i, v_j)` of any class weakly connects
//! peers `u` and `v`). [`components`] is the one union-find count, over
//! numbered nodes: the checks of `rechord_core` feed it the overlay read off
//! peer states, numbered by node (or, in tests, by peer).

/// Disjoint-set forest with path halving and union by size.
#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n], components: n }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }
}

/// Number of weakly connected components of the graph on the nodes
/// `0..nodes` whose edges are `edges` (direction ignored). No nodes means
/// no components.
pub fn components(nodes: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> usize {
    let mut uf = UnionFind::new(nodes);
    for (a, b) in edges {
        uf.union(a, b);
    }
    uf.components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components, 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components, 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.components, 1);
    }

    #[test]
    fn components_counts_numbered_nodes() {
        assert_eq!(components(5, [(1, 0), (3, 4), (4, 3)]), 3);
    }

    #[test]
    fn direction_is_ignored() {
        assert_eq!(components(3, [(0, 2), (1, 2)]), 1);
    }

    #[test]
    fn disconnected_components_counted() {
        assert_eq!(components(3, [(0, 1)]), 2, "an isolated node is a component");
        assert_eq!(components(4, [(0, 1), (2, 3)]), 2);
    }

    #[test]
    fn empty_graph_is_trivially_connected() {
        assert_eq!(components(0, []), 0);
        assert_eq!(components(1, []), 1);
    }
}
