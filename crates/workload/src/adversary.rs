//! Workload-layer adversary wiring: how many peers misbehave, what they
//! do, and when the sybil wave strikes.
//!
//! The crime catalog and per-peer crime sets themselves live in
//! `rechord_core::adversary` (the protocol layer consults the same map);
//! this module owns the *scenario* knobs — fraction corrupted, crimes,
//! sybil timing — and builds the immutable crime map a
//! [`crate::TrafficSim`] installs into both layers at construction.

use rechord_core::adversary::{mix, AdversaryMap, Crime, CrimeSet};
use rechord_id::Ident;

/// Scenario-level adversary knobs. The default is fully honest and is
/// byte-for-byte the legacy simulator: no policy map is installed, no
/// event is scheduled, no random draw is consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of the initial peers turned byzantine (⌊fraction·n⌋,
    /// selected deterministically from the seed).
    pub fraction: f64,
    /// The crime set every byzantine peer commits.
    pub crimes: CrimeSet,
    /// Sybil identities each [`Crime::SybilJoinWave`] attacker injects.
    pub sybil_wave: usize,
    /// Virtual instant the sybil wave strikes.
    pub sybil_at: u64,
}

impl AdversaryConfig {
    /// Builds the crime map over the initial `peers`, plus the
    /// `(attacker, sybil)` join list for the wave (empty unless the crime
    /// set includes [`Crime::SybilJoinWave`]). Sybil identities are
    /// precomputed here so the map can be frozen behind an `Arc` before
    /// the simulation starts — a sybil is byzantine from the instant it
    /// joins.
    pub fn build(&self, peers: &[Ident], seed: u64) -> (AdversaryMap, Vec<(Ident, Ident)>) {
        let mut map = AdversaryMap::assign(peers, self.fraction, self.crimes, seed);
        let mut sybils = Vec::new();
        if self.sybil_wave > 0 && self.crimes.contains(Crime::SybilJoinWave) {
            for attacker in map.byzantine_peers() {
                for k in 0..self.sybil_wave {
                    let sybil = Ident::from_raw(mix(&[seed, attacker.raw(), 0x5b11, k as u64]));
                    map.set(sybil, self.crimes);
                    sybils.push((attacker, sybil));
                }
            }
        }
        (map, sybils)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest_and_inactive() {
        let cfg = AdversaryConfig::default();
        let peers: Vec<Ident> = (1..=8).map(Ident::from_raw).collect();
        let (map, sybils) = cfg.build(&peers, 7);
        assert!(map.is_all_honest());
        assert!(sybils.is_empty());
    }

    #[test]
    fn sybil_wave_precomputes_byzantine_identities() {
        let cfg = AdversaryConfig {
            fraction: 0.25,
            crimes: CrimeSet::single(Crime::SybilJoinWave).with(Crime::StaleReadPoison),
            sybil_wave: 3,
            ..Default::default()
        };
        let peers: Vec<Ident> = (0..8).map(|k| Ident::from_raw(k * 1_000_003)).collect();
        let (map, sybils) = cfg.build(&peers, 11);
        assert_eq!(map.byzantine_peers().len(), 2 + 2 * 3, "attackers + their sybils");
        assert_eq!(sybils.len(), 6);
        for &(attacker, sybil) in &sybils {
            assert!(map.commits(attacker, Crime::SybilJoinWave));
            assert!(map.commits(sybil, Crime::StaleReadPoison), "sybils inherit the crimes");
            assert!(!peers.contains(&sybil), "sybils are fresh identities");
        }
        let (again, sybils_again) = cfg.build(&peers, 11);
        assert_eq!(map, again);
        assert_eq!(sybils, sybils_again);
    }

    #[test]
    fn no_wave_without_the_crime() {
        let cfg = AdversaryConfig {
            fraction: 0.5,
            crimes: CrimeSet::single(Crime::DropForward),
            sybil_wave: 4,
            ..Default::default()
        };
        let peers: Vec<Ident> = (1..=6).map(Ident::from_raw).collect();
        let (_, sybils) = cfg.build(&peers, 3);
        assert!(sybils.is_empty(), "sybil_wave is inert without SybilJoinWave");
    }
}
