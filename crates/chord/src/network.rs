//! [`ChordNetwork`]: driver and diagnostics for the classic-Chord baseline.

use crate::protocol::{snapshot_lookup, ChordProtocol};
use crate::state::ChordState;
use rechord_id::{successor_index, Ident};
use rechord_sim::{Engine, FixpointReport, RoundView};
use rechord_topology::InitialTopology;
use std::collections::{BTreeMap, BTreeSet};

/// A classic-Chord network under simulation.
pub struct ChordNetwork {
    engine: Engine<ChordProtocol>,
}

impl ChordNetwork {
    /// Seeds each peer's bootstrap knowledge with the topology's directed
    /// edges — the same initial information Re-Chord receives.
    pub fn from_topology(topology: &InitialTopology) -> Self {
        let mut engine = Engine::new(ChordProtocol);
        for &id in &topology.ids {
            engine.insert_node(id, ChordState::with_contacts([]));
        }
        for &(a, b) in &topology.edges {
            let (from, to) = (topology.ids[a], topology.ids[b]);
            if let Some(st) = engine.state_mut(from) {
                st.known.insert(to);
            }
        }
        ChordNetwork { engine }
    }

    /// The canonical **loopy** adversarial state (Liben-Nowell et al.):
    /// successor pointers over the sorted identifiers form `i → i+2 (mod n)`
    /// — two interleaved cycles, each winding once around the ring — and the
    /// smallest peer additionally *knows* its true successor (a bridge, so
    /// the state is weakly connected). Classic stabilize/notify never uses
    /// the dormant bridge and never merges the cycles; Re-Chord, seeded with
    /// the identical knowledge graph
    /// ([`rechord_topology::TopologyKind::DoubleRingBridge`]), recovers.
    pub fn loopy_double_ring(ids: &[Ident]) -> Self {
        let mut sorted: Vec<Ident> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        let mut engine = Engine::new(ChordProtocol);
        for (k, &id) in sorted.iter().enumerate() {
            let mut st = ChordState::with_contacts([]);
            if n > 1 {
                st.successor = Some(sorted[(k + 2) % n]);
            }
            if k == 0 && n > 1 {
                st.known.insert(sorted[1]); // the weakly-connecting bridge
            }
            engine.insert_node(id, st);
        }
        ChordNetwork { engine }
    }

    /// Runs to a fixpoint or until `max_rounds`.
    pub fn run_until_stable(&mut self, max_rounds: u64) -> FixpointReport {
        self.engine.run_until_fixpoint(max_rounds)
    }

    /// Live peers, ascending.
    pub fn real_ids(&self) -> Vec<Ident> {
        self.engine.ids().to_vec()
    }

    /// Number of distinct successor-pointer cycles ("rings"). A healthy
    /// Chord network has exactly one; a loopy state that classic
    /// stabilization cannot repair has more.
    pub fn ring_count(&self) -> usize {
        let mut cycle_reps: BTreeSet<Ident> = BTreeSet::new();
        let succ: BTreeMap<Ident, Option<Ident>> =
            self.engine.iter().map(|(id, st)| (id, st.successor)).collect();
        for &start in succ.keys() {
            // follow successor pointers until a repeat; the cycle is
            // identified by its minimal member.
            let mut seen: Vec<Ident> = Vec::new();
            let mut cur = start;
            let rep = loop {
                if let Some(pos) = seen.iter().position(|&s| s == cur) {
                    break seen[pos..].iter().copied().min();
                }
                seen.push(cur);
                match succ.get(&cur).copied().flatten() {
                    Some(next) => cur = next,
                    None => break None, // dangling chain: no ring reached
                }
                if seen.len() > succ.len() + 1 {
                    break None;
                }
            };
            if let Some(rep) = rep {
                cycle_reps.insert(rep);
            }
        }
        cycle_reps.len()
    }

    /// Fraction of `(source, key)` probes for which a lookup reaches the
    /// globally responsible node (the true cyclic successor of the key).
    /// In a loopy state, lookups starting in the wrong ring miss.
    pub fn lookup_success_rate(&self, keys: &[Ident]) -> f64 {
        let ids = self.real_ids();
        if ids.is_empty() || keys.is_empty() {
            return 0.0;
        }
        let states: Vec<ChordState> =
            ids.iter().map(|i| self.engine.state(*i).expect("live").clone()).collect();
        let view = RoundView::new(&ids, &states);
        let mut ok = 0usize;
        let mut total = 0usize;
        for &key in keys {
            let responsible = ids[successor_index(&ids, key).expect("ids is non-empty")];
            for &src in &ids {
                total += 1;
                if snapshot_lookup(&view, src, key) == Some(responsible) {
                    ok += 1;
                }
            }
        }
        ok as f64 / total as f64
    }

    /// A peer joins via `contact` (standard Chord join: look up the
    /// successor of the joiner's identifier from the contact).
    pub fn join_via(&mut self, joiner: Ident, contact: Ident) -> bool {
        if self.engine.contains(joiner) || !self.engine.contains(contact) {
            return false;
        }
        self.engine.insert_node(joiner, ChordState::with_contacts([contact]))
    }

    /// A peer crashes without goodbye.
    pub fn crash(&mut self, victim: Ident) -> bool {
        self.engine.remove_node(victim).is_some()
    }

    /// Read access to the engine.
    pub fn engine(&self) -> &Engine<ChordProtocol> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_topology::TopologyKind;

    #[test]
    fn healthy_bootstrap_forms_one_ring() {
        let topo = TopologyKind::SortedLine.generate(10, 3);
        let mut net = ChordNetwork::from_topology(&topo);
        let report = net.run_until_stable(2_000);
        assert!(report.converged);
        assert_eq!(net.ring_count(), 1, "sorted-line bootstrap must form one ring");
        let keys: Vec<Ident> =
            (0..16).map(|k| Ident::from_raw(k * 0x1111_1111_1111_1111)).collect();
        assert!(net.lookup_success_rate(&keys) > 0.99);
    }

    #[test]
    fn loopy_state_defeats_classic_chord() {
        // The motivating failure: successor pointers forming two interleaved
        // cycles. Classic stabilize/notify cannot merge them, even though a
        // bridge contact keeps the state weakly connected.
        let topo = TopologyKind::Random.generate(16, 5);
        let mut net = ChordNetwork::loopy_double_ring(&topo.ids);
        assert_eq!(net.ring_count(), 2, "initial state is two rings");
        let report = net.run_until_stable(3_000);
        assert!(report.converged, "chord quiesces...");
        assert!(net.ring_count() > 1, "...but into a loopy multi-ring state");
        // and lookups are broken: many probes resolve in the wrong ring
        let keys: Vec<Ident> =
            (0..16).map(|k| Ident::from_raw(k * 0x0f0f_0f0f_0f0f_0f0f)).collect();
        assert!(net.lookup_success_rate(&keys) < 0.9);
    }

    #[test]
    fn smart_bootstrap_from_knowledge_can_still_merge() {
        // With successor pointers *unset* and only knowledge edges, Chord's
        // join-style bootstrap may merge the two halves — the weakness is
        // specifically about repairing an established loopy pointer state.
        let topo = TopologyKind::DoubleRingBridge.generate(16, 5);
        let mut net = ChordNetwork::from_topology(&topo);
        let report = net.run_until_stable(3_000);
        assert!(report.converged);
        assert!(net.ring_count() >= 1);
    }

    #[test]
    fn join_and_crash_maintain_single_ring() {
        let topo = TopologyKind::SortedLine.generate(8, 9);
        let mut net = ChordNetwork::from_topology(&topo);
        net.run_until_stable(2_000);
        let joiner = Ident::from_raw(0xaaaa_bbbb_cccc_dddd);
        assert!(net.join_via(joiner, net.real_ids()[0]));
        net.run_until_stable(2_000);
        assert_eq!(net.ring_count(), 1);
        assert!(net.crash(net.real_ids()[3]));
        net.run_until_stable(2_000);
        assert_eq!(net.ring_count(), 1, "chord handles isolated churn fine");
    }
}
