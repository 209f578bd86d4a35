//! Failure detection with false suspicions.
//!
//! Every crash becomes visible to every survivor exactly `detection_lag`
//! ticks later (`WorkloadConfig::detection_lag`). Real failure detectors
//! are not accurate — they sometimes suspect peers that are merely slow.
//! [`FailureDetector`] holds those false suspicions, and the adversary is
//! their only source: a peer committing `Crime::StallHeartbeats` starves
//! its clockwise neighbor's heartbeats, so every `detection_lag` ticks the
//! detector suspects that live *victim* for `suspect_for` ticks. Requests
//! bounce off suspected peers (entry points avoid them, hops landing on
//! them retry) even though the peer is perfectly healthy — the
//! availability tax of an over-eager detector.
//!
//! A zero `suspect_for` (the default [`DetectorConfig`]) makes every
//! suspicion a no-op: the legacy accurate detector.

use rechord_id::Ident;
use std::collections::BTreeMap;

/// Failure-detector knobs. The default reproduces the legacy behavior: no
/// false suspicions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Ticks a suspicion lasts before it clears. `0` makes suspicions
    /// no-ops (the legacy accurate detector).
    pub suspect_for: u64,
}

/// One entry of the suspect/clear timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspicionEvent {
    /// Instant the suspicion was raised.
    pub at: u64,
    /// The suspected (live) peer.
    pub peer: Ident,
    /// Instant the suspicion clears.
    pub until: u64,
}

/// The failure detector's suspicion state (see module docs).
#[derive(Clone, Debug)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    /// Currently suspected peers → instant the suspicion clears.
    suspected: BTreeMap<Ident, u64>,
    timeline: Vec<SuspicionEvent>,
}

impl FailureDetector {
    /// A detector with no active suspicions.
    pub fn new(cfg: DetectorConfig) -> Self {
        FailureDetector { cfg, suspected: BTreeMap::new(), timeline: Vec::new() }
    }

    /// Suspects `peer` from `now` for the configured duration (extending an
    /// existing suspicion, never shortening it). A zero `suspect_for` is a
    /// no-op.
    pub fn suspect(&mut self, peer: Ident, now: u64) {
        let until = now + self.cfg.suspect_for;
        if until <= now {
            return;
        }
        let entry = self.suspected.entry(peer).or_insert(0);
        *entry = (*entry).max(until);
        self.timeline.push(SuspicionEvent { at: now, peer, until });
    }

    /// Is `peer` under suspicion at `now`?
    pub fn is_suspected(&self, peer: Ident, now: u64) -> bool {
        self.suspected.get(&peer).is_some_and(|&until| until > now)
    }

    /// Is *anyone* under suspicion at `now`? (The fast-path gate: honest
    /// legacy runs never pay for per-peer checks.)
    pub fn has_active(&self, now: u64) -> bool {
        self.suspected.values().any(|&until| until > now)
    }

    /// Drops suspicions that have cleared by `now`.
    pub fn prune(&mut self, now: u64) {
        self.suspected.retain(|_, &mut until| until > now);
    }

    /// The full suspect/clear timeline, in raise order.
    pub fn timeline(&self) -> &[SuspicionEvent] {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_config_is_the_legacy_detector() {
        let mut d = FailureDetector::new(DetectorConfig::default());
        let v = Ident::from_raw(42);
        d.suspect(v, 100);
        assert!(!d.is_suspected(v, 100), "suspect_for 0 never suspects");
        assert!(!d.has_active(0));
        assert!(d.timeline().is_empty());
    }

    #[test]
    fn suspicions_raise_extend_and_clear() {
        let cfg = DetectorConfig { suspect_for: 50 };
        let mut d = FailureDetector::new(cfg);
        let v = Ident::from_raw(5);
        d.suspect(v, 100);
        assert!(d.is_suspected(v, 100));
        assert!(d.is_suspected(v, 149));
        assert!(!d.is_suspected(v, 150), "clears at now + suspect_for");
        assert!(d.has_active(120));
        assert!(!d.has_active(200));
        // Re-suspecting extends; it never shortens.
        d.suspect(v, 140);
        assert!(d.is_suspected(v, 170));
        d.prune(1_000);
        assert!(!d.has_active(0) || d.timeline().len() == 2);
        assert_eq!(d.timeline().len(), 2, "every raise is on the timeline");
        assert_eq!(d.timeline()[0], SuspicionEvent { at: 100, peer: v, until: 150 });
    }
}
