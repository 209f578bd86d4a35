//! Stability criteria and the stable-state audit.
//!
//! * **Stable** (the paper's legal state): the global protocol state is a
//!   fixpoint — detected by the engine as "round changed nothing".
//! * **Almost stable** (Figure 6's earlier milestone): "all the desired
//!   edges of the Re-Chord network exist, but also some extra edges exist"
//!   — checked against the oracle's desired unmarked edge set.

use crate::oracle;
use crate::projection::{chord_coverage, ChordCoverage, Projection};
use rechord_graph::{connectivity, Edge, EdgeKind, OverlayGraph};
use rechord_id::Ident;

/// Is the snapshot *almost stable*: does it contain every desired unmarked
/// edge of the oracle topology for `real_ids`?
pub fn is_almost_stable(snapshot: &OverlayGraph, real_ids: &[Ident]) -> bool {
    oracle::desired_unmarked(real_ids).edges_subset_of(snapshot)
}

/// Full audit of a (purportedly stable) snapshot against the oracle.
#[derive(Clone, Debug)]
pub struct StableStateAudit {
    /// Desired unmarked edges that are missing (must be empty when stable).
    pub missing_unmarked: Vec<Edge>,
    /// Unmarked edges beyond the desired set (the paper's fixpoint carries
    /// none — extras live only in `E_r`/`E_c` streams).
    pub extra_unmarked: Vec<Edge>,
    /// Are both persistent extremal ring edges present?
    pub ring_pair_present: bool,
    /// Is the whole node graph weakly connected?
    pub weakly_connected: bool,
    /// Is the projected peer overlay strongly connected (every peer can
    /// route to every peer)?
    pub projection_strongly_connected: bool,
    /// Fact 2.1 audit: Chord edge coverage in the projection.
    pub chord: ChordCoverage,
    /// Does the set of simulated virtual nodes match the oracle's?
    pub virtual_set_matches: bool,
}

impl StableStateAudit {
    /// The reproduction's acceptance predicate for a stable state: all
    /// desired structure present, no spurious unmarked edges, connectivity
    /// intact, and every non-wrap Chord edge realized (wrap edges are
    /// exempt: README, Interpretations "Wrap edges").
    pub fn is_clean(&self) -> bool {
        self.missing_unmarked.is_empty()
            && self.extra_unmarked.is_empty()
            && self.ring_pair_present
            && self.weakly_connected
            && self.projection_strongly_connected
            && self.chord.missing_linear.is_empty()
            && self.virtual_set_matches
    }
}

/// Audits `snapshot` (typically a reached fixpoint) against the oracle
/// topology for `real_ids`.
pub fn audit(snapshot: &OverlayGraph, real_ids: &[Ident]) -> StableStateAudit {
    let desired = oracle::desired_unmarked(real_ids);
    let missing_unmarked: Vec<Edge> = desired.edges().filter(|e| !snapshot.has_edge(e)).collect();
    let extra_unmarked: Vec<Edge> =
        snapshot.edges().filter(|e| e.kind == EdgeKind::Unmarked && !desired.has_edge(e)).collect();

    let ring_pair_present = oracle::desired_ring_pair(real_ids)
        .map(|(a, b)| snapshot.has_edge(&a) && snapshot.has_edge(&b))
        .unwrap_or(true);

    let projection = Projection::from_overlay(snapshot);
    let chord = chord_coverage(&projection, real_ids);

    let oracle_nodes = oracle::stable_nodes(real_ids);
    let virtual_set_matches = {
        let snapshot_virtuals: Vec<_> =
            snapshot.nodes().filter(|n| n.is_virtual()).copied().collect();
        let oracle_virtuals: Vec<_> =
            oracle_nodes.iter().filter(|n| n.is_virtual()).copied().collect();
        // The snapshot may contain *referenced* phantom nodes (targets of
        // in-flight edges); require the oracle set to be simulated, i.e.
        // a subset match in the forward direction.
        oracle_virtuals.iter().all(|v| snapshot.contains_node(v))
            && snapshot_virtuals.len() >= oracle_virtuals.len()
    };

    StableStateAudit {
        missing_unmarked,
        extra_unmarked,
        ring_pair_present,
        weakly_connected: connectivity::weakly_connected(snapshot),
        projection_strongly_connected: projection.strongly_connected(),
        chord,
        virtual_set_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_graph::NodeRef;

    fn ids(xs: &[f64]) -> Vec<Ident> {
        xs.iter().map(|&x| Ident::from_f64(x)).collect()
    }

    #[test]
    fn oracle_topology_is_almost_stable_for_itself() {
        let ids = ids(&[0.1, 0.4, 0.8]);
        let snapshot = oracle::desired_unmarked(&ids);
        assert!(is_almost_stable(&snapshot, &ids));
    }

    #[test]
    fn missing_edge_breaks_almost_stability() {
        let ids = ids(&[0.1, 0.4, 0.8]);
        let mut snapshot = oracle::desired_unmarked(&ids);
        let victim = snapshot.edges().next().unwrap();
        snapshot.remove_edge(&victim);
        assert!(!is_almost_stable(&snapshot, &ids));
    }

    #[test]
    fn extra_edges_do_not_break_almost_stability() {
        let ids = ids(&[0.1, 0.4, 0.8]);
        let mut snapshot = oracle::desired_unmarked(&ids);
        snapshot.add_edge(Edge::unmarked(
            NodeRef::real(Ident::from_f64(0.1)),
            NodeRef::real(Ident::from_f64(0.8)),
        ));
        assert!(is_almost_stable(&snapshot, &ids), "supersets still qualify");
    }

    #[test]
    fn audit_flags_extras_and_missing() {
        let ids = ids(&[0.1, 0.4, 0.8]);
        let mut snapshot = oracle::desired_unmarked(&ids);
        let extra = Edge::unmarked(
            NodeRef::real(Ident::from_f64(0.1)),
            NodeRef::real(Ident::from_f64(0.8)),
        );
        snapshot.add_edge(extra);
        let report = audit(&snapshot, &ids);
        assert_eq!(report.extra_unmarked, vec![extra]);
        assert!(report.missing_unmarked.is_empty());
        assert!(!report.ring_pair_present, "oracle-unmarked lacks ring edges");
        assert!(!report.is_clean());
    }

    #[test]
    fn audit_accepts_fully_desired_state() {
        let ids = ids(&[0.1, 0.6]);
        let mut snapshot = oracle::desired_unmarked(&ids);
        if let Some((a, b)) = oracle::desired_ring_pair(&ids) {
            snapshot.add_edge(a);
            snapshot.add_edge(b);
        }
        let report = audit(&snapshot, &ids);
        assert!(report.missing_unmarked.is_empty());
        assert!(report.extra_unmarked.is_empty());
        assert!(report.ring_pair_present);
        assert!(report.weakly_connected);
        assert!(report.virtual_set_matches);
    }
}
