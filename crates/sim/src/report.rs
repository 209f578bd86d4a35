//! Run reports.

/// Result of driving an engine toward a fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointReport {
    /// Rounds executed (including the final unchanged round when converged).
    pub rounds: u64,
    /// Did the run reach a fixpoint within the round budget?
    pub converged: bool,
    /// Total messages generated over the run (delivered + dropped).
    pub total_messages: usize,
}

impl FixpointReport {
    /// Rounds of actual change: the paper counts "steps needed to reach the
    /// stable state", which excludes the final confirming round.
    pub fn rounds_to_stable(&self) -> u64 {
        self.rounds.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_stable_excludes_confirming_round() {
        let r = FixpointReport { rounds: 12, converged: true, total_messages: 100 };
        assert_eq!(r.rounds_to_stable(), 11);
        let zero = FixpointReport { rounds: 0, converged: false, total_messages: 0 };
        assert_eq!(zero.rounds_to_stable(), 0);
    }
}
