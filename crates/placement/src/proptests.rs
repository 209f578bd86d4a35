//! Property tests: the incremental repair path composed over an arbitrary
//! churn trace must be **bit-identical** to the full-rebuild oracle on the
//! final snapshot, and every intermediate state must satisfy the structural
//! invariants.

use crate::{Departure, PlacementMap};
use proptest::prelude::*;
use rechord_id::IdSpace;

/// One step of a churn/traffic trace, in address space (hashed to idents
/// through an [`IdSpace`] so positions are uniform on the ring).
#[derive(Clone, Debug)]
enum TraceOp {
    /// Join the peer with this address (no-op if already present).
    Join(u64),
    /// Remove the `i mod population`-th current peer (no-op when empty);
    /// `true` = graceful handoff, `false` = crash.
    Leave(u64, bool),
    /// Write this key (version supplied by a monotone counter).
    Put(u64),
    /// Run an incremental repair pass mid-trace.
    Repair,
    /// Run one bounded paced-repair step with this move budget.
    Step(usize),
}

fn trace() -> impl Strategy<Value = Vec<TraceOp>> {
    let op = prop_oneof![
        (0u64..48).prop_map(TraceOp::Join),
        ((0u64..48), any::<bool>()).prop_map(|(i, g)| TraceOp::Leave(i, g)),
        (0u64..256).prop_map(TraceOp::Put),
        Just(TraceOp::Repair),
        (0usize..24).prop_map(TraceOp::Step),
    ];
    proptest::collection::vec(op, 0..40)
}

fn run_trace(
    seed: u64,
    initial_peers: u64,
    replication: usize,
    ops: &[TraceOp],
) -> PlacementMap<u64> {
    let space = IdSpace::new(seed);
    let peers: Vec<_> = (0..initial_peers).map(|a| space.ident_of(a)).collect();
    let mut pm: PlacementMap<u64> = PlacementMap::from_peers(&peers, replication);
    // Seed some data so early leaves have something to move.
    let mut version = 0u64;
    for k in 0..64u64 {
        version += 1;
        pm.put(space.key_position(k), k, version, k);
    }
    for op in ops {
        match *op {
            TraceOp::Join(addr) => {
                pm.apply_join(space.ident_of(addr));
            }
            TraceOp::Leave(i, graceful) => {
                if !pm.peers().is_empty() {
                    let victim = pm.peers()[(i as usize) % pm.peers().len()];
                    let dep = if graceful { Departure::Graceful } else { Departure::Crash };
                    pm.apply_leave(victim, dep);
                }
            }
            TraceOp::Put(key) => {
                version += 1;
                pm.put(space.key_position(key), key, version, key);
            }
            TraceOp::Repair => {
                pm.repair_delta();
            }
            TraceOp::Step(budget) => {
                pm.repair_step(budget);
            }
        }
        pm.check_invariants().expect("invariants hold after every step");
    }
    pm
}

proptest! {
    /// The headline property: `repair_delta` composed over any churn trace,
    /// with repairs interleaved at arbitrary points, reaches the exact state
    /// the full `rebuild()` oracle computes on the final snapshot.
    #[test]
    fn delta_repair_equals_rebuild_oracle(
        seed in 1u64..1_000,
        initial in 0u64..12,
        replication in 1usize..5,
        ops in trace(),
    ) {
        let mut delta = run_trace(seed, initial, replication, &ops);
        let mut oracle = delta.clone();
        let delta_stats = delta.repair_delta();
        let oracle_stats = oracle.rebuild();
        prop_assert_eq!(&delta, &oracle, "delta and oracle placements diverged");
        delta.check_invariants().expect("delta invariants");
        oracle.check_invariants().expect("oracle invariants");
        // Incrementality: the delta pass never examines more than the whole
        // map, never touches more arcs than the oracle, and moves a subset.
        prop_assert!(delta_stats.keys_examined <= delta.key_count());
        prop_assert!(delta_stats.arcs_touched <= oracle_stats.arcs_touched);
        prop_assert!(delta_stats.keys_moved <= delta_stats.keys_examined);
    }

    /// The paced-repair property: draining the same trace's residue through
    /// bounded `repair_step` calls — any budget schedule — converges to the
    /// exact placement the one-shot `repair_delta` (and `rebuild`) computes.
    #[test]
    fn paced_steps_converge_to_the_one_shot_repair(
        seed in 1u64..1_000,
        initial in 1u64..12,
        replication in 1usize..5,
        ops in trace(),
        budgets in proptest::collection::vec(1usize..17, 1..8),
    ) {
        let paced = run_trace(seed, initial, replication, &ops);
        let mut oneshot = paced.clone();
        oneshot.repair_delta();

        let mut paced = paced;
        let backlog = paced.begin_repair();
        let mut moved_total = 0;
        let mut cycle = budgets.iter().cycle();
        loop {
            let step = paced.repair_step(*cycle.next().expect("cycle never ends"));
            moved_total += step.stats.keys_moved;
            let transferred: usize = step.transfers.iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(transferred, step.stats.copies_added);
            paced.check_invariants().expect("invariants hold mid-plan");
            if step.done {
                break;
            }
        }
        prop_assert_eq!(&paced, &oneshot, "paced drain diverged from one-shot repair");
        prop_assert!(moved_total <= backlog, "moved {moved_total} of a {backlog}-key backlog");
        prop_assert!(!paced.repair_pending());

        let mut rebuilt = paced.clone();
        prop_assert!(rebuilt.rebuild().is_noop(), "paced result is a rebuild fixpoint");
    }

    /// Bulk preload is bit-identical to the same rows written through
    /// `put`, for any key set and peer population.
    #[test]
    fn bulk_load_matches_per_key_puts(
        seed in 1u64..1_000,
        peers in 1u64..20,
        replication in 1usize..5,
        keys in proptest::collection::btree_set(0u64..4_096, 0..200),
    ) {
        let space = IdSpace::new(seed);
        let ids: Vec<_> = (0..peers).map(|a| space.ident_of(a)).collect();
        let mut bulk: PlacementMap<u64> = PlacementMap::from_peers(&ids, replication);
        let mut slow: PlacementMap<u64> = PlacementMap::from_peers(&ids, replication);
        for &k in &keys {
            slow.put(space.key_position(k), k, k, k);
        }
        let n = bulk.bulk_load(keys.iter().map(|&k| (space.key_position(k), k, k, k)));
        prop_assert_eq!(n, keys.len());
        bulk.check_invariants().expect("bulk invariants");
        prop_assert_eq!(&bulk, &slow, "bulk_load diverged from puts");
    }

    /// Repair is idempotent and a repaired map is a `rebuild` fixpoint.
    #[test]
    fn repair_is_idempotent(
        seed in 1u64..500,
        initial in 1u64..10,
        ops in trace(),
    ) {
        let mut pm = run_trace(seed, initial, 2, &ops);
        pm.repair_delta();
        let again = pm.repair_delta();
        prop_assert!(again.is_noop(), "second repair must be free: {again:?}");
        prop_assert_eq!(again.arcs_touched, 0);
        let mut oracle = pm.clone();
        prop_assert!(oracle.rebuild().is_noop(), "repaired map is a rebuild fixpoint");
    }

    /// Graceful traces never lose data while at least one peer remains.
    #[test]
    fn graceful_churn_preserves_every_key(
        seed in 1u64..500,
        victims in proptest::collection::vec(0u64..32, 0..8),
    ) {
        let space = IdSpace::new(seed);
        let peers: Vec<_> = (0..10u64).map(|a| space.ident_of(a)).collect();
        let mut pm: PlacementMap<()> = PlacementMap::from_peers(&peers, 2);
        for k in 0..100u64 {
            pm.put(space.key_position(k), k, 0, ());
        }
        for v in victims {
            if pm.peers().len() > 1 {
                let victim = pm.peers()[(v as usize) % pm.peers().len()];
                pm.apply_leave(victim, Departure::Graceful);
                pm.repair_delta();
            }
        }
        prop_assert_eq!(pm.key_count(), 100, "graceful churn must not lose keys");
        for k in 0..100u64 {
            prop_assert!(pm.lookup(space.key_position(k), k).hit.is_some());
        }
    }
}
