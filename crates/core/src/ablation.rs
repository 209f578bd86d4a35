//! Rule ablation: which of the six rules are load-bearing?
//!
//! The paper motivates each rule informally (§2.3) and uses all of them in
//! the convergence proof. The ablation harness switches individual rules
//! off and measures what breaks — the experiment behind `repro ablation`
//! (README, Interpretations "Ablation"):
//!
//! * without **linearization** (rule 4) the sorted order never forms;
//! * without **ring edges** (rule 5) the wrap-around never closes and the
//!   extremal nodes never learn each other;
//! * without **connection edges** (rule 6) the virtual-node graph can fall
//!   apart into per-peer islands after rule 1 rebuilds levels;
//! * without **closest-real** (rule 3) `m` can never grow beyond the
//!   initial knowledge and the finger structure is wrong;
//! * without **overlap** (rule 2) edges park at the wrong sibling and the
//!   Chord-finger realization breaks.
//!
//! Rule 1 (virtual nodes) cannot be ablated: without it there is no node
//! set to maintain.

/// Which rules run. Rule 1 is always on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleMask {
    /// Rule 2 — overlapping neighborhood.
    pub overlap: bool,
    /// Rule 3 — closest real neighbor.
    pub closest_real: bool,
    /// Rule 4 — linearization.
    pub linearize: bool,
    /// Rule 5 — ring edges.
    pub ring: bool,
    /// Rule 6 — connection edges.
    pub connection: bool,
}

impl Default for RuleMask {
    fn default() -> Self {
        Self::ALL
    }
}

impl RuleMask {
    /// The full protocol.
    pub const ALL: RuleMask = RuleMask {
        overlap: true,
        closest_real: true,
        linearize: true,
        ring: true,
        connection: true,
    };

    /// The full protocol minus one named rule (2–6).
    pub fn without(rule: u8) -> RuleMask {
        let mut m = RuleMask::ALL;
        match rule {
            2 => m.overlap = false,
            3 => m.closest_real = false,
            4 => m.linearize = false,
            5 => m.ring = false,
            6 => m.connection = false,
            _ => panic!("only rules 2..=6 can be ablated"),
        }
        m
    }

    /// Human-readable label of the ablated rule set.
    pub fn label(&self) -> String {
        if *self == RuleMask::ALL {
            return "full".to_string();
        }
        let mut off = Vec::new();
        if !self.overlap {
            off.push("overlap(2)");
        }
        if !self.closest_real {
            off.push("closest-real(3)");
        }
        if !self.linearize {
            off.push("linearize(4)");
        }
        if !self.ring {
            off.push("ring(5)");
        }
        if !self.connection {
            off.push("connection(6)");
        }
        format!("-{}", off.join(",-"))
    }
}

/// Outcome of one ablated run (see the `ablation` binary).
#[derive(Clone, Debug)]
pub struct AblationOutcome {
    /// The rule set used.
    pub mask: RuleMask,
    /// Did the run reach a fixpoint within budget?
    pub converged: bool,
    /// Rounds executed.
    pub rounds: u64,
    /// Desired unmarked edges missing at the end.
    pub missing_desired: usize,
    /// Was the final projection strongly connected (routable overlay)?
    pub overlay_connected: bool,
    /// Did the extremal ring-edge pair close the wrap-around? (Rule 5's
    /// deliverable; without it, lookups that cross the 0/1 boundary cannot
    /// make greedy progress.)
    pub ring_pair_present: bool,
}

/// Runs the ablated protocol on a random weakly connected instance,
/// returning the outcome and the final network (for deeper probes, e.g.
/// wrap-routing checks in the `ablation` binary).
pub fn run_ablated(
    mask: RuleMask,
    n: usize,
    seed: u64,
    max_rounds: u64,
) -> (AblationOutcome, crate::network::ReChordNetwork) {
    use crate::network::ReChordNetwork;
    let topo = rechord_topology::TopologyKind::Random.generate(n, seed);
    let mut net = ReChordNetwork::from_topology_with_mask(&topo, 1, mask);
    let report = net.run_until_stable(max_rounds);
    let audit = net.audit();
    let outcome = AblationOutcome {
        mask,
        converged: report.converged,
        rounds: report.rounds,
        missing_desired: audit.missing_unmarked.len(),
        overlay_connected: audit.projection_strongly_connected,
        ring_pair_present: audit.ring_pair_present,
    };
    (outcome, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(RuleMask::ALL.label(), "full");
        assert_eq!(RuleMask::without(4).label(), "-linearize(4)");
        let mut m = RuleMask::ALL;
        m.ring = false;
        m.connection = false;
        assert_eq!(m.label(), "-ring(5),-connection(6)");
    }

    #[test]
    #[should_panic(expected = "only rules 2..=6")]
    fn rule_one_cannot_be_ablated() {
        let _ = RuleMask::without(1);
    }

    #[test]
    fn full_mask_converges_cleanly() {
        let (out, _) = run_ablated(RuleMask::ALL, 10, 3, 50_000);
        assert!(out.converged);
        assert_eq!(out.missing_desired, 0);
        assert!(out.overlay_connected);
        assert!(out.ring_pair_present);
    }

    #[test]
    fn ablating_linearization_breaks_the_topology() {
        let (out, _) = run_ablated(RuleMask::without(4), 10, 3, 2_000);
        assert!(
            !out.converged || out.missing_desired > 0,
            "without linearization the Re-Chord topology must not emerge: {out:?}"
        );
    }

    #[test]
    fn ablating_closest_real_breaks_the_topology() {
        let (out, _) = run_ablated(RuleMask::without(3), 10, 3, 2_000);
        assert!(!out.converged || out.missing_desired > 0, "{out:?}");
    }

    #[test]
    fn ablating_ring_rule_leaves_wrap_open() {
        let (out, _) = run_ablated(RuleMask::without(5), 10, 3, 50_000);
        assert!(out.converged, "converges to a sorted *list*...");
        assert!(!out.ring_pair_present, "...but the wrap-around never closes");
    }
}
