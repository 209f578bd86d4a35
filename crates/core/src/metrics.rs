//! The quantities the paper's evaluation plots (Figures 5–7, Lemma 3.1).

use crate::network::snapshot_states;
use crate::protocol::ReChordProtocol;
use rechord_graph::{EdgeCounts, OverlayGraph};
use rechord_id::Ident;
use rechord_sim::Engine;

/// A measurement of one network snapshot.
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
    /// Measures the live state of `engine`'s peers.
    pub fn of(engine: &Engine<ReChordProtocol>) -> Self {
        let mut virtuals: Vec<Ident> = engine
            .iter()
            .flat_map(|(id, st)| {
                st.levels.keys().filter(|&&l| l > 0).map(move |&l| id.virtual_position(l))
            })
            .collect();
        virtuals.sort_unstable();
        measure(&snapshot_states(engine.iter()), engine.ids(), &virtuals)
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

/// Measures a snapshot. `real_ids` are the live peers; `virtual_positions`
/// are the positions of all *simulated* virtual nodes (snapshot targets can
/// reference phantom levels, so the caller supplies the authoritative set).
pub fn measure(
    snapshot: &OverlayGraph,
    real_ids: &[Ident],
    virtual_positions: &[Ident],
) -> NetworkMetrics {
    let mut sorted_reals: Vec<Ident> = real_ids.to_vec();
    sorted_reals.sort_unstable();

    // Virtual nodes per real gap: count virtual positions in each clockwise
    // arc between consecutive reals.
    let (max_gap, mean_gap) = if sorted_reals.len() < 2 {
        (virtual_positions.len(), virtual_positions.len() as f64)
    } else {
        let mut counts = vec![0usize; sorted_reals.len()];
        for &vp in virtual_positions {
            // gap index: the real predecessor of vp (cyclic)
            let idx = match sorted_reals.binary_search(&vp) {
                Ok(i) => i,
                Err(0) => sorted_reals.len() - 1, // wraps before the first real
                Err(i) => i - 1,
            };
            counts[idx] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        (max, mean)
    };

    NetworkMetrics {
        real_nodes: sorted_reals.len(),
        virtual_nodes: virtual_positions.len(),
        edges: snapshot.edge_counts(),
        max_virtuals_per_gap: max_gap,
        mean_virtuals_per_gap: mean_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_graph::{Edge, NodeRef};

    fn id(x: f64) -> Ident {
        Ident::from_f64(x)
    }

    #[test]
    fn gap_attribution_is_cyclic() {
        let reals = vec![id(0.2), id(0.8)];
        // virtuals at 0.3 (gap of 0.2), 0.9 and 0.1 (both in the 0.8→0.2 gap)
        let virts = vec![id(0.3), id(0.9), id(0.1)];
        let m = measure(&OverlayGraph::new(), &reals, &virts);
        assert_eq!(m.max_virtuals_per_gap, 2);
        assert!((m.mean_virtuals_per_gap - 1.5).abs() < 1e-12);
        assert_eq!(m.total_nodes(), 5);
    }

    #[test]
    fn edge_series_split_matches_figure5() {
        let a = NodeRef::real(id(0.1));
        let b = NodeRef::real(id(0.5));
        let g: OverlayGraph =
            [Edge::unmarked(a, b), Edge::ring(b, a), Edge::connection(a, b)].into_iter().collect();
        let m = measure(&g, &[id(0.1), id(0.5)], &[]);
        assert_eq!(m.normal_edges(), 2, "unmarked + ring");
        assert_eq!(m.connection_edges(), 1);
        assert_eq!(m.total_edges(), 3);
    }

    #[test]
    fn single_real_attributes_all_virtuals_to_it() {
        let m = measure(&OverlayGraph::new(), &[id(0.4)], &[id(0.9), id(0.65)]);
        assert_eq!(m.max_virtuals_per_gap, 2);
        assert_eq!(m.real_nodes, 1);
        assert_eq!(m.virtual_nodes, 2);
    }
}
