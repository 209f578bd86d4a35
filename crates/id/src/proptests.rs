//! Property-based tests for the identifier ring algebra.

use crate::ident::level_span;
use crate::{hash_address, successor_index, successors, Ident, RingArc, MAX_LEVEL};
use proptest::prelude::*;

fn idents() -> impl Strategy<Value = Ident> {
    any::<u64>().prop_map(Ident::from_raw)
}

proptest! {
    /// Clockwise and counter-clockwise distances are complementary.
    #[test]
    fn distances_complement(a in idents(), b in idents()) {
        prop_assume!(a != b);
        prop_assert_eq!(a.dist_cw(b).wrapping_add(a.dist_ccw(b)), 0u64);
        prop_assert_eq!(a.dist_cw(b), b.dist_ccw(a));
    }

    /// Ring distance is a metric-like symmetric function bounded by half.
    #[test]
    fn ring_distance_symmetric_and_bounded(a in idents(), b in idents()) {
        prop_assert_eq!(a.dist_ring(b), b.dist_ring(a));
        prop_assert!(a.dist_ring(b) <= 1u64 << 63);
        prop_assert_eq!(a.dist_ring(a), 0u64);
    }

    /// An open arc never contains its endpoints, and exactly one of the two
    /// complementary arcs contains any third distinct point.
    #[test]
    fn arc_trichotomy(a in idents(), b in idents(), x in idents()) {
        prop_assume!(a != b && x != a && x != b);
        prop_assert!(!a.in_open_arc(a, b));
        prop_assert!(!b.in_open_arc(a, b));
        let fwd = x.in_open_arc(a, b);
        let bwd = x.in_open_arc(b, a);
        prop_assert!(fwd ^ bwd, "x must be in exactly one of the arcs");
    }

    /// `virtual_position` is an involution at level 1 and injective across
    /// levels for one owner (all spans differ).
    #[test]
    fn virtual_positions_distinct(u in idents()) {
        let mut seen = std::collections::BTreeSet::new();
        for lvl in 0..=MAX_LEVEL {
            prop_assert!(seen.insert(u.virtual_position(lvl).raw()));
        }
        prop_assert_eq!(u.virtual_position(1).virtual_position(1), u);
    }

    /// The finger level sandwiches the gap: `1/2^m <= gap < 1/2^(m-1)`.
    #[test]
    fn finger_level_sandwich(gap in 1u64..) {
        let m = Ident::finger_level_for_gap(gap);
        prop_assert!((1..=MAX_LEVEL).contains(&m));
        prop_assert!(level_span(m) <= gap);
        if m > 1 {
            prop_assert!(level_span(m - 1) > gap);
        }
    }

    /// The virtual node at the gap's finger level lands inside the half-open
    /// arc to the successor: `u_m ∈ (u, succ]` — the paper's "there is always
    /// a node u_m between u and its closest real neighbor".
    #[test]
    fn deepest_virtual_lands_in_gap(u in idents(), gap in 1u64..) {
        let succ = Ident::from_raw(u.raw().wrapping_add(gap));
        let m = Ident::finger_level_for_gap(gap);
        let um = u.virtual_position(m);
        prop_assert!(RingArc::new(u, succ).contains_half_open(um),
            "u={u:?} gap={gap} m={m} um={um:?} succ={succ:?}");
    }

    /// The ring rule picks the identifier at the least clockwise distance
    /// from the point (a linear scan over the ring, the rule's definition).
    #[test]
    fn successor_index_is_nearest_clockwise(
        set in prop::collection::btree_set(any::<u64>(), 0..24usize),
        point in idents(),
        hit in any::<bool>(),
    ) {
        let sorted: Vec<Ident> = set.into_iter().map(Ident::from_raw).collect();
        // Half the cases query an identifier itself, which is its own successor.
        let point = match sorted.first() {
            Some(&first) if hit => first,
            _ => point,
        };
        let scan = (0..sorted.len()).min_by_key(|&i| point.dist_cw(sorted[i]));
        prop_assert_eq!(successor_index(&sorted, point), scan);
    }

    /// The cyclic window lists every identifier once, nearest clockwise
    /// first.
    #[test]
    fn successors_ascend_by_clockwise_distance(
        set in prop::collection::btree_set(any::<u64>(), 0..24usize),
        point in idents(),
    ) {
        let sorted: Vec<Ident> = set.into_iter().map(Ident::from_raw).collect();
        let mut scan = sorted.clone();
        scan.sort_by_key(|&p| point.dist_cw(p));
        prop_assert_eq!(successors(&sorted, point).collect::<Vec<_>>(), scan);
    }

    /// Hashing is deterministic and seed-sensitive.
    #[test]
    fn hashing_deterministic(addr in any::<u64>(), seed in any::<u64>()) {
        prop_assert_eq!(hash_address(addr, seed), hash_address(addr, seed));
    }

    /// Midpoint of a clockwise arc lies on the closed arc.
    #[test]
    fn midpoint_in_arc(a in idents(), b in idents()) {
        prop_assume!(a != b);
        let mid = a.midpoint_cw(b);
        prop_assert!(RingArc::new(a, b).contains_half_open(mid) || mid == a);
    }
}
