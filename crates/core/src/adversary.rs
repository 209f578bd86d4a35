//! Byzantine fault injection: a typed crime catalog and per-peer crime
//! sets, probing the edge of the self-stabilization envelope.
//!
//! The paper's Theorem 1.1 assumes every peer *executes the rules*: crashed
//! peers simply vanish (their connections fail, §4.2) and the six rules
//! repair the ring from any weakly connected state. This module asks the
//! question the paper leaves open — what happens when peers stay alive but
//! **lie**? Each peer's policy is a [`CrimeSet`]: empty for an honest peer,
//! the crimes it commits for a byzantine one. Policies are assigned
//! deterministically from a seed, so every adversarial run is
//! bit-reproducible.
//!
//! Crimes split into two layers:
//!
//! * **protocol crimes** (consulted by [`crate::protocol::ReChordProtocol`]
//!   each round): [`Crime::ViolateRule`] suppresses one of the six §2.3
//!   rules on the liar's own state, and [`Crime::LieAboutSuccessor`]
//!   rewrites every outgoing edge payload to claim the liar itself is the
//!   neighbor being introduced;
//! * **data-path crimes** (consulted by the workload simulator per hop):
//!   [`Crime::MisrouteForward`], [`Crime::DropForward`],
//!   [`Crime::SybilJoinWave`], [`Crime::StaleReadPoison`] and
//!   [`Crime::StallHeartbeats`].
//!
//! All adversarial randomness flows through the pure [`mix`] hash — never
//! through a stateful RNG — so enabling an adversary cannot shift the draw
//! stream of an otherwise-identical honest run (fraction 0 stays
//! bit-identical to a run with no adversary installed at all).

use crate::network::ReChordNetwork;
use crate::oracle::StableTopology;
use rechord_graph::NodeRef;
use rechord_id::Ident;
use std::collections::{BTreeMap, BTreeSet};

/// One offense from the catalog. `ViolateRule(r)` carries the rule number
/// (1–6, paper §2.3); rule 1 can only be suppressed on the liar's *own*
/// levels (there is no global ablation of rule 1 — see [`crate::ablation`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crime {
    /// Suppress rule `r` (1..=6) on this peer's own state.
    ViolateRule(u8),
    /// Rewrite every outgoing edge payload to `real(self)`: the liar claims
    /// itself as the neighbor in every introduction it forwards.
    LieAboutSuccessor,
    /// Forward requests to the *worst* known next hop instead of the
    /// greedy-best one (progress is still made only by accident).
    MisrouteForward,
    /// Silently drop requests instead of forwarding them (the client pays a
    /// timeout and retries from a fresh entry point).
    DropForward,
    /// Inject a wave of sybil identities into the overlay, all controlled
    /// by this peer (and inheriting its crime set).
    SybilJoinWave,
    /// Serve deleted/stale copies during repair: reads answered by this
    /// replica surface as `Corrupted`.
    StaleReadPoison,
    /// Stall heartbeats so the failure detector falsely suspects this
    /// peer's live clockwise neighbor.
    StallHeartbeats,
}

impl Crime {
    /// Bit position inside a [`CrimeSet`].
    const fn bit(self) -> u16 {
        match self {
            Crime::ViolateRule(r) => {
                assert!(r >= 1 && r <= 6, "rules are numbered 1..=6");
                1 << (r - 1)
            }
            Crime::LieAboutSuccessor => 1 << 6,
            Crime::MisrouteForward => 1 << 7,
            Crime::DropForward => 1 << 8,
            Crime::SybilJoinWave => 1 << 9,
            Crime::StaleReadPoison => 1 << 10,
            Crime::StallHeartbeats => 1 << 11,
        }
    }

    /// Compact label for reports.
    pub fn label(self) -> String {
        match self {
            Crime::ViolateRule(r) => format!("violate-rule-{r}"),
            Crime::LieAboutSuccessor => "lie-successor".into(),
            Crime::MisrouteForward => "misroute".into(),
            Crime::DropForward => "drop-forward".into(),
            Crime::SybilJoinWave => "sybil-wave".into(),
            Crime::StaleReadPoison => "stale-poison".into(),
            Crime::StallHeartbeats => "stall-heartbeats".into(),
        }
    }

    /// Every catalogued crime, in bit order.
    pub const ALL: [Crime; 12] = [
        Crime::ViolateRule(1),
        Crime::ViolateRule(2),
        Crime::ViolateRule(3),
        Crime::ViolateRule(4),
        Crime::ViolateRule(5),
        Crime::ViolateRule(6),
        Crime::LieAboutSuccessor,
        Crime::MisrouteForward,
        Crime::DropForward,
        Crime::SybilJoinWave,
        Crime::StaleReadPoison,
        Crime::StallHeartbeats,
    ];
}

/// A set of crimes, packed into a bitmask (`Copy`, order-independent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrimeSet(u16);

impl CrimeSet {
    /// No crimes: indistinguishable from honesty.
    pub const EMPTY: CrimeSet = CrimeSet(0);

    /// A singleton set.
    pub const fn single(crime: Crime) -> CrimeSet {
        CrimeSet(crime.bit())
    }

    /// This set plus `crime`.
    pub const fn with(self, crime: Crime) -> CrimeSet {
        CrimeSet(self.0 | crime.bit())
    }

    /// Does the set contain `crime`?
    pub const fn contains(self, crime: Crime) -> bool {
        self.0 & crime.bit() != 0
    }

    /// True iff no crime is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Human-readable `+`-joined labels (`"honest"` when empty).
    pub fn label(self) -> String {
        if self.is_empty() {
            return "honest".into();
        }
        let labels: Vec<String> =
            Crime::ALL.iter().filter(|c| self.contains(**c)).map(|c| c.label()).collect();
        labels.join("+")
    }
}

impl FromIterator<Crime> for CrimeSet {
    fn from_iter<T: IntoIterator<Item = Crime>>(iter: T) -> Self {
        iter.into_iter().fold(CrimeSet::EMPTY, CrimeSet::with)
    }
}

/// A [`CrimeSet`] per peer.
///
/// Installed once (behind an `Arc`) into both the protocol and the workload
/// simulator. A byzantine peer commits every crime in its set, every
/// opportunity it gets; lookups on peers without an entry return
/// [`CrimeSet::EMPTY`] (honest), so the empty map
/// (`AdversaryMap::default()`) is the honest network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdversaryMap {
    policies: BTreeMap<Ident, CrimeSet>,
}

impl AdversaryMap {
    /// Pins `peer`'s crime set (used by [`AdversaryMap::assign`] and
    /// tests; setting [`CrimeSet::EMPTY`] removes the entry).
    pub fn set(&mut self, peer: Ident, crimes: CrimeSet) {
        if crimes.is_empty() {
            self.policies.remove(&peer);
        } else {
            self.policies.insert(peer, crimes);
        }
    }

    /// The crime set of `peer` (empty unless byzantine).
    pub fn crimes_of(&self, peer: Ident) -> CrimeSet {
        self.policies.get(&peer).copied().unwrap_or(CrimeSet::EMPTY)
    }

    /// Does `peer` commit `crime`?
    pub fn commits(&self, peer: Ident, crime: Crime) -> bool {
        self.crimes_of(peer).contains(crime)
    }

    /// All byzantine peers, ascending.
    pub fn byzantine_peers(&self) -> Vec<Ident> {
        self.policies.keys().copied().collect()
    }

    /// True iff every peer is honest.
    pub fn is_all_honest(&self) -> bool {
        self.policies.is_empty()
    }

    /// Does any peer commit `crime`?
    pub fn any_commits(&self, crime: Crime) -> bool {
        self.policies.values().any(|c| c.contains(crime))
    }

    /// Deterministically corrupts `⌊fraction·n⌋` peers with `crimes`.
    /// Selection ranks peers by `mix(seed, id)` — a fixed seed pins *which*
    /// peers turn byzantine, independent of call order, and growing the
    /// fraction only ever *adds* liars (monotone-degradation scans compare
    /// like with like).
    pub fn assign(peers: &[Ident], fraction: f64, crimes: CrimeSet, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut ranked: Vec<Ident> = peers.to_vec();
        ranked.sort_by_key(|&id| (mix(&[seed, id.raw()]), id));
        let n_byz = (fraction * peers.len() as f64).floor() as usize;
        let mut map = AdversaryMap::default();
        for &id in ranked.iter().take(n_byz) {
            map.set(id, crimes);
        }
        map
    }
}

/// Pure splitmix-style hash over a part list — the *only* source of
/// adversarial randomness. Stateless, so adversarial decisions never
/// consume draws from (and therefore never perturb) the simulation RNGs.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        h ^= p;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// How many consecutive rounds the honest subset must be quiet before a run
/// counts as *honest-stable*. With persistent liars the global state may
/// never reach a fixpoint (the liar re-emits every round), so the paper's
/// criterion is projected onto the honest peers: none of them changed for
/// this many rounds in a row.
pub const HONEST_QUIET_ROUNDS: u64 = 3;

/// Outcome of one adversarial convergence run (see the `adversary` binary).
#[derive(Clone, Debug)]
pub struct AdversaryOutcome {
    /// Fraction of peers corrupted.
    pub fraction: f64,
    /// The crime set given to every byzantine peer.
    pub crimes: CrimeSet,
    /// How many peers actually turned byzantine.
    pub byzantine: usize,
    /// Did the honest subset quiesce within budget?
    pub converged: bool,
    /// Rounds executed (to honest-stability, or the cutoff).
    pub rounds: u64,
    /// At the end, did every honest peer's level-0 `rl`/`rr` registers agree
    /// with the true sorted order of *all* live peers? (Byzantine peers are
    /// legitimate ring members — they hold positions; they just lie.)
    pub honest_ring_ok: bool,
}

/// Checks each honest peer's level-0 closest-real-neighbor registers
/// against the stable topology of all live peers: the immediate neighbors
/// in their ascending order (`None` at the extremes — rule 3 is linear;
/// rule 5 closes the wrap with ring edges, not registers).
pub fn honest_ring_ok(net: &ReChordNetwork, byzantine: &BTreeSet<Ident>) -> bool {
    let target = StableTopology::new(&net.real_ids());
    net.engine().iter().filter(|(u, _)| !byzantine.contains(u)).all(|(u, st)| {
        let want = target.targets(&NodeRef::real(u)).expect("every live peer is in the target");
        st.level(0).is_some_and(|level0| level0.rl == want.rl && level0.rr == want.rr)
    })
}

/// Runs the full protocol on a random weakly connected instance with
/// `⌊fraction·n⌋` byzantine peers committing `crimes`, until the honest
/// subset is quiet for [`HONEST_QUIET_ROUNDS`] consecutive rounds or
/// `max_rounds` elapse. [`crate::ablation::run_ablated`] is the same setup
/// at fraction 1 with one [`Crime::ViolateRule`], run to the global
/// fixpoint.
pub fn run_adversarial(
    n: usize,
    seed: u64,
    fraction: f64,
    crimes: CrimeSet,
    max_rounds: u64,
) -> (AdversaryOutcome, ReChordNetwork) {
    let topo = rechord_topology::TopologyKind::Random.generate(n, seed);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let map = AdversaryMap::assign(&net.real_ids(), fraction, crimes, seed);
    let byzantine: BTreeSet<Ident> = map.byzantine_peers().into_iter().collect();
    net.set_adversary(std::sync::Arc::new(map));

    let mut rounds = 0u64;
    let mut quiet = 0u64;
    let mut converged = false;
    while rounds < max_rounds {
        let (_, dirty) = net.round_dirty();
        rounds += 1;
        if dirty.iter().all(|id| byzantine.contains(id)) {
            quiet += 1;
            if quiet >= HONEST_QUIET_ROUNDS {
                converged = true;
                break;
            }
        } else {
            quiet = 0;
        }
    }

    let outcome = AdversaryOutcome {
        fraction,
        crimes,
        byzantine: byzantine.len(),
        converged,
        rounds,
        honest_ring_ok: honest_ring_ok(&net, &byzantine),
    };
    (outcome, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crime_set_roundtrips() {
        let set = CrimeSet::single(Crime::LieAboutSuccessor).with(Crime::ViolateRule(4));
        assert!(set.contains(Crime::LieAboutSuccessor));
        assert!(set.contains(Crime::ViolateRule(4)));
        assert!(!set.contains(Crime::ViolateRule(5)));
        assert!(!set.contains(Crime::DropForward));
        assert_eq!(set.label(), "violate-rule-4+lie-successor");
        assert_eq!(CrimeSet::EMPTY.label(), "honest");
    }

    #[test]
    fn crime_bits_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Crime::ALL {
            assert!(seen.insert(c.bit()), "{c:?} collides");
        }
    }

    #[test]
    fn assign_is_deterministic_and_monotone_in_fraction() {
        let peers: Vec<Ident> = (0..40).map(|k| Ident::from_raw(k * 7919 + 13)).collect();
        let crimes = CrimeSet::single(Crime::DropForward);
        let a = AdversaryMap::assign(&peers, 0.25, crimes, 99);
        let b = AdversaryMap::assign(&peers, 0.25, crimes, 99);
        assert_eq!(a, b, "same inputs, same map");
        assert_eq!(a.byzantine_peers().len(), 10);
        // Growing the fraction only adds liars, never swaps them out.
        let wider = AdversaryMap::assign(&peers, 0.5, crimes, 99);
        let small: BTreeSet<Ident> = a.byzantine_peers().into_iter().collect();
        let large: BTreeSet<Ident> = wider.byzantine_peers().into_iter().collect();
        assert!(small.is_subset(&large));
        // A different seed picks a different set (with overwhelming odds).
        let other = AdversaryMap::assign(&peers, 0.25, crimes, 100);
        assert_ne!(a.byzantine_peers(), other.byzantine_peers());
    }

    #[test]
    fn empty_crime_set_assigns_nobody() {
        let peers: Vec<Ident> = (0..10).map(|k| Ident::from_raw(k + 1)).collect();
        let map = AdversaryMap::assign(&peers, 0.5, CrimeSet::EMPTY, 1);
        assert!(map.is_all_honest());
    }

    #[test]
    fn mix_is_pure_and_sensitive() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[0]), mix(&[0, 0]));
    }

    #[test]
    fn fraction_zero_matches_plain_stabilization() {
        // Installing an empty adversary map must not perturb convergence.
        let (out, net) = run_adversarial(12, 3, 0.0, CrimeSet::single(Crime::DropForward), 50_000);
        assert!(out.converged);
        assert_eq!(out.byzantine, 0);
        assert!(out.honest_ring_ok);
        let (plain, plain_net) = crate::ablation::run_ablated(None, 12, 3, 50_000);
        assert!(plain.converged);
        assert_eq!(net.audit().missing_unmarked.len(), 0);
        assert!(net.engine().iter().eq(plain_net.engine().iter()));
    }

    #[test]
    fn suppressing_own_rules_leaves_honest_ring_intact() {
        // One peer that silently stops maintaining its own structure: the
        // honest majority still linearizes around it.
        let crimes: CrimeSet = (2..=6).map(Crime::ViolateRule).collect();
        let (out, _) = run_adversarial(12, 5, 0.1, crimes, 50_000);
        assert_eq!(out.byzantine, 1);
        assert!(out.converged, "honest subset must quiesce: {out:?}");
        assert!(out.honest_ring_ok, "honest rl/rr must match the oracle");
    }
}
