//! The quantities the paper's evaluation plots (Figures 5–7, Lemma 3.1),
//! measured on the live peer states: the edge totals count the edges of
//! their [`Overlay`], which every other check reads too.

use crate::network::Overlay;
use crate::protocol::ReChordProtocol;
use rechord_graph::EdgeCounts;
use rechord_sim::Engine;

/// A measurement of one network state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkMetrics {
    /// `n`: number of peers (real nodes).
    pub real_nodes: usize,
    /// Number of *simulated* virtual nodes (sum of per-peer `m`).
    pub virtual_nodes: usize,
    /// Edge totals per class.
    pub edges: EdgeCounts,
    /// Largest number of virtual nodes in one real-to-real gap
    /// (Lemma 3.1: `O(log n)` w.h.p.).
    pub max_virtuals_per_gap: usize,
    /// Mean number of virtual nodes per real-to-real gap.
    pub mean_virtuals_per_gap: f64,
}

impl NetworkMetrics {
    /// Measures the live state of `engine`'s peers. Only simulated virtual
    /// nodes count: an edge to a level its owner does not simulate names no
    /// node of a gap.
    pub fn of(engine: &Engine<ReChordProtocol>) -> Self {
        let reals = engine.ids();
        // Virtual nodes per clockwise gap between consecutive reals, each
        // counted at the real at or before it (cyclically).
        let gaps = reals.len().max(1);
        let mut per_gap = vec![0usize; gaps];
        for (id, st) in engine.iter() {
            for &level in st.levels.keys().filter(|&&l| l > 0) {
                let at = reals.partition_point(|r| *r <= id.virtual_position(level));
                per_gap[at.checked_sub(1).unwrap_or(gaps - 1)] += 1;
            }
        }
        let virtual_nodes = per_gap.iter().sum();
        NetworkMetrics {
            real_nodes: reals.len(),
            virtual_nodes,
            edges: Overlay::new(engine.iter()).edges().collect(),
            max_virtuals_per_gap: per_gap.iter().copied().max().unwrap_or(0),
            mean_virtuals_per_gap: virtual_nodes as f64 / gaps as f64,
        }
    }

    /// Figure 5's "virtual nodes" series.
    pub fn total_nodes(&self) -> usize {
        self.real_nodes + self.virtual_nodes
    }

    /// Figure 5's "normal edges" series (everything but connection edges).
    pub fn normal_edges(&self) -> usize {
        self.edges.normal()
    }

    /// Figure 5's "connection edges" series.
    pub fn connection_edges(&self) -> usize {
        self.edges.connection
    }

    /// Figure 7's y-axis: all edges of the final multigraph.
    pub fn total_edges(&self) -> usize {
        self.edges.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReChordNetwork;
    use crate::state::{PeerState, VirtualState};
    use rechord_graph::NodeRef;
    use rechord_id::Ident;

    fn id(x: f64) -> Ident {
        Ident::from_f64(x)
    }

    /// A peer at `x` simulating `levels` besides its real node.
    fn peer(x: f64, levels: &[u8]) -> (Ident, PeerState) {
        let mut st = PeerState::new();
        for &l in levels {
            st.levels.insert(l, VirtualState::default());
        }
        (id(x), st)
    }

    fn metrics(peers: Vec<(Ident, PeerState)>) -> NetworkMetrics {
        ReChordNetwork::from_raw_states(peers, 1).metrics()
    }

    #[test]
    fn gap_attribution_is_cyclic() {
        // 0.2 simulates 0.325 (its own gap); 0.8 simulates 0.925 and 0.05,
        // both in the 0.8 → 0.2 gap across the wrap.
        let m = metrics(vec![peer(0.2, &[3]), peer(0.8, &[2, 3])]);
        assert_eq!(m.max_virtuals_per_gap, 2);
        assert!((m.mean_virtuals_per_gap - 1.5).abs() < 1e-12);
        assert_eq!(m.total_nodes(), 5);
    }

    #[test]
    fn edge_series_split_matches_figure5() {
        let (a, mut sa) = peer(0.1, &[]);
        let (b, mut sb) = peer(0.5, &[]);
        let vs = sa.level_mut(0).unwrap();
        vs.nu.insert(NodeRef::real(b));
        vs.nc.insert(NodeRef::real(b));
        sb.level_mut(0).unwrap().nr.insert(NodeRef::real(a));
        let m = metrics(vec![(a, sa), (b, sb)]);
        assert_eq!(m.normal_edges(), 2, "unmarked + ring");
        assert_eq!(m.connection_edges(), 1);
        assert_eq!(m.total_edges(), 3);
    }

    #[test]
    fn single_real_attributes_all_virtuals_to_it() {
        // 0.4 simulates 0.9 and 0.65.
        let m = metrics(vec![peer(0.4, &[1, 2])]);
        assert_eq!(m.max_virtuals_per_gap, 2);
        assert_eq!(m.real_nodes, 1);
        assert_eq!(m.virtual_nodes, 2);
    }
}
