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
//!
//! An ablation is an adversary in which every peer commits
//! [`Crime::ViolateRule`]`(k)` ([`ablate`]): a peer's [`CrimeSet`] is the
//! only place a run departs from honest peers running all six rules.

use crate::adversary::{AdversaryMap, Crime, CrimeSet};
use crate::network::ReChordNetwork;
use std::sync::Arc;

/// Ablates `rule` (2–6) on every peer present: each commits
/// [`Crime::ViolateRule`]`(rule)`, the gate
/// [`crate::protocol::ReChordProtocol`] checks before firing a rule. The
/// map replaces any installed adversary. The ablation covers the peers
/// present now: a peer that joins later has no crimes and runs every rule.
pub fn ablate(net: &mut ReChordNetwork, rule: u8) {
    assert!((2..=6).contains(&rule), "only rules 2..=6 can be ablated");
    let crimes = CrimeSet::single(Crime::ViolateRule(rule));
    net.set_adversary(Arc::new(AdversaryMap::assign(&net.real_ids(), 1.0, crimes, 0)));
}

/// Human-readable label of a run: `full`, or the one ablated rule.
pub fn label(rule: Option<u8>) -> &'static str {
    match rule {
        None => "full",
        Some(2) => "-overlap(2)",
        Some(3) => "-closest-real(3)",
        Some(4) => "-linearize(4)",
        Some(5) => "-ring(5)",
        Some(6) => "-connection(6)",
        Some(_) => panic!("only rules 2..=6 can be ablated"),
    }
}

/// Outcome of one ablated run (see the `ablation` binary).
#[derive(Clone, Debug)]
pub struct AblationOutcome {
    /// The ablated rule (`None`: the full protocol).
    pub rule: Option<u8>,
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
    rule: Option<u8>,
    n: usize,
    seed: u64,
    max_rounds: u64,
) -> (AblationOutcome, ReChordNetwork) {
    let topo = rechord_topology::TopologyKind::Random.generate(n, seed);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    if let Some(rule) = rule {
        ablate(&mut net, rule);
    }
    let report = net.run_until_stable(max_rounds);
    let audit = net.audit();
    let outcome = AblationOutcome {
        rule,
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
        assert_eq!(label(None), "full");
        assert_eq!(label(Some(4)), "-linearize(4)");
        assert_eq!(label(Some(6)), "-connection(6)");
    }

    #[test]
    #[should_panic(expected = "only rules 2..=6")]
    fn rule_one_cannot_be_ablated() {
        let topo = rechord_topology::TopologyKind::Random.generate(4, 1);
        ablate(&mut ReChordNetwork::from_topology(&topo, 1), 1);
    }

    #[test]
    fn a_joiner_after_ablation_runs_every_rule() {
        let topo = rechord_topology::TopologyKind::Random.generate(6, 2);
        let mut net = ReChordNetwork::from_topology(&topo, 1);
        ablate(&mut net, 4);
        let original = net.real_ids();
        let joiner = rechord_id::Ident::from_raw(0x5eed_0000_0000_0001);
        assert!(!original.contains(&joiner));
        assert!(net.join_via(joiner, original[0]));
        let adversary = &net.engine().protocol().adversary;
        for &peer in &original {
            assert_eq!(adversary.crimes_of(peer), CrimeSet::single(Crime::ViolateRule(4)));
        }
        assert_eq!(adversary.crimes_of(joiner), CrimeSet::EMPTY);
    }

    #[test]
    fn full_mask_converges_cleanly() {
        let (out, _) = run_ablated(None, 10, 3, 50_000);
        assert!(out.converged);
        assert_eq!(out.missing_desired, 0);
        assert!(out.overlay_connected);
        assert!(out.ring_pair_present);
    }

    #[test]
    fn ablating_linearization_breaks_the_topology() {
        let (out, _) = run_ablated(Some(4), 10, 3, 2_000);
        assert!(
            !out.converged || out.missing_desired > 0,
            "without linearization the Re-Chord topology must not emerge: {out:?}"
        );
    }

    #[test]
    fn ablating_closest_real_breaks_the_topology() {
        let (out, _) = run_ablated(Some(3), 10, 3, 2_000);
        assert!(!out.converged || out.missing_desired > 0, "{out:?}");
    }

    #[test]
    fn ablating_ring_rule_leaves_wrap_open() {
        let (out, _) = run_ablated(Some(5), 10, 3, 50_000);
        assert!(out.converged, "converges to a sorted *list*...");
        assert!(!out.ring_pair_present, "...but the wrap-around never closes");
    }
}
