//! The [`Ident`] fixed-point position and its ring arithmetic.

use core::fmt;

/// Deepest virtual-node level representable: `1/2^64` is one ulp of the ring.
pub const MAX_LEVEL: u8 = 64;

/// A position on the identifier ring `[0,1)`, stored as the numerator of
/// `x / 2^64` (64-bit fixed point).
///
/// `Ord`/`PartialOrd` are the paper's **linear** order on `[0,1)` (the
/// protocol sorts nodes into a line and closes the wrap-around with ring
/// edges; see README, Interpretations A2). Use [`Ident::dist_cw`] and
/// [`Ident::in_open_arc`] for the cyclic notions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ident(pub u64);

impl Ident {
    /// The largest representable position, `1 - 2^-64`.
    pub const MAX: Ident = Ident(u64::MAX);

    /// Builds an identifier from its raw fixed-point numerator.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        Ident(raw)
    }

    /// Raw fixed-point numerator (`x * 2^64`).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts from a float in `[0,1)`. Intended for tests and display-level
    /// interop; protocol code never goes through floats.
    ///
    /// Values outside `[0,1)` are wrapped into the ring.
    pub fn from_f64(x: f64) -> Self {
        let frac = x.rem_euclid(1.0);
        // 2^64 as f64 is exact; the product may round but stays in range.
        let raw = (frac * 18_446_744_073_709_551_616.0) as u64;
        Ident(raw)
    }

    /// Converts to a float in `[0,1)` (lossy for display/plotting only).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 18_446_744_073_709_551_616.0
    }

    /// `self + 1/2^level (mod 1)`: the position of the `level`-th virtual
    /// node of a real node at `self` (paper §2.2, `u_i = u + 1/2^i mod 1`).
    ///
    /// `level` must be in `1..=MAX_LEVEL`; level `0` is the real node itself
    /// and is returned unchanged.
    #[inline]
    pub fn virtual_position(self, level: u8) -> Ident {
        debug_assert!(level <= MAX_LEVEL);
        if level == 0 {
            self
        } else {
            Ident(self.0.wrapping_add(level_span(level)))
        }
    }

    /// Clockwise (increasing-identifier, wrapping) distance from `self` to
    /// `to`. Returns `0` iff the positions coincide; the full circle cannot
    /// be represented (a node is at distance `0`, not `1`, from itself).
    #[inline]
    pub fn dist_cw(self, to: Ident) -> u64 {
        to.0.wrapping_sub(self.0)
    }

    /// Counter-clockwise distance from `self` to `to`.
    #[inline]
    pub fn dist_ccw(self, to: Ident) -> u64 {
        self.0.wrapping_sub(to.0)
    }

    /// Ring distance: the shorter of the two ways around.
    ///
    /// ```
    /// use rechord_id::Ident;
    ///
    /// let a = Ident::from_raw(10);
    /// let b = Ident::from_raw(u64::MAX - 9); // 20 steps counter-clockwise
    /// assert_eq!(a.dist_ring(b), 20);
    /// assert_eq!(a.dist_ring(b), b.dist_ring(a));
    /// assert_eq!(a.dist_ring(a), 0);
    /// ```
    #[inline]
    pub fn dist_ring(self, to: Ident) -> u64 {
        self.dist_cw(to).min(self.dist_ccw(to))
    }

    /// Is `self` strictly inside the clockwise open arc `(a, b)`?
    ///
    /// This is the paper's interval `[u,v] = { w : u < w < v }` with
    /// wrap-around when `u > v` (§2.2: `0.2 ∈ [0.8, 0.3]` but
    /// `0.2 ∉ [0.3, 0.8]`). An arc with `a == b` is empty.
    #[inline]
    pub fn in_open_arc(self, a: Ident, b: Ident) -> bool {
        if a == b {
            return false;
        }
        let span = a.dist_cw(b);
        let off = a.dist_cw(self);
        off > 0 && off < span
    }

    /// The finger level `m` for a clockwise gap of `gap` to the nearest known
    /// real node: the unique `i >= 1` with `1/2^i <= gap < 1/2^(i-1)`
    /// (paper §1.1's finger condition; README, Interpretations A1).
    ///
    /// `gap == 0` (no other real node known: the "gap" is the full circle,
    /// which wraps to zero) yields `1`, matching Chord's single-node network
    /// where only the antipodal finger is defined.
    #[inline]
    pub fn finger_level_for_gap(gap: u64) -> u8 {
        if gap == 0 {
            return 1;
        }
        // gap in [2^(64-i), 2^(64-i+1))  <=>  i = leading_zeros(gap) + 1.
        (gap.leading_zeros() as u8) + 1
    }

    /// Midpoint of the clockwise arc from `self` to `to` (used by topology
    /// generators; not part of the protocol).
    #[inline]
    pub fn midpoint_cw(self, to: Ident) -> Ident {
        Ident(self.0.wrapping_add(self.dist_cw(to) / 2))
    }
}

/// Consistent hashing's ownership rule (paper §1.1, Fact 2.1): the index of
/// the first identifier at or clockwise after `point` in the ascending slice
/// `sorted`, wrapping past the largest to the smallest. `None` iff the slice
/// is empty.
///
/// ```
/// use rechord_id::{successor_index, Ident};
///
/// let peers = [10, 20, 30].map(Ident::from_raw);
/// assert_eq!(successor_index(&peers, Ident::from_raw(20)), Some(1));
/// assert_eq!(successor_index(&peers, Ident::from_raw(21)), Some(2));
/// assert_eq!(successor_index(&peers, Ident::from_raw(31)), Some(0));
/// assert_eq!(successor_index(&[], Ident::from_raw(5)), None);
/// ```
#[inline]
pub fn successor_index(sorted: &[Ident], point: Ident) -> Option<usize> {
    if sorted.is_empty() {
        return None;
    }
    let i = sorted.binary_search(&point).unwrap_or_else(|i| i);
    Some(if i == sorted.len() { 0 } else { i })
}

/// The cyclic window clockwise from `point`: every identifier of the
/// ascending slice `sorted` once, starting at [`successor_index`] and
/// wrapping past the largest to the smallest. A replica set of `r` copies
/// is `successors(sorted, pos).take(r)`, clamped to the population.
///
/// ```
/// use rechord_id::{successors, Ident};
///
/// let peers = [10, 20, 30].map(Ident::from_raw);
/// let window: Vec<u64> = successors(&peers, Ident::from_raw(21)).map(Ident::raw).collect();
/// assert_eq!(window, [30, 10, 20]);
/// ```
pub fn successors(sorted: &[Ident], point: Ident) -> impl Iterator<Item = Ident> + Clone + '_ {
    let (before, from) = sorted.split_at(successor_index(sorted, point).unwrap_or(0));
    from.iter().chain(before).copied()
}

/// The fixed-point length of `1/2^level`, for `level` in `1..=64`.
#[inline]
pub(crate) fn level_span(level: u8) -> u64 {
    debug_assert!((1..=MAX_LEVEL).contains(&level));
    // 1/2^64 is one ulp; 1/2^1 is half the ring.
    1u64 << (MAX_LEVEL - level)
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ident({:.6}~{:#018x})", self.to_f64(), self.0)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

impl From<u64> for Ident {
    fn from(raw: u64) -> Self {
        Ident(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_position_matches_paper_formula() {
        let u = Ident::from_f64(0.3);
        // u1 = u + 1/2 mod 1 = 0.8
        assert!((u.virtual_position(1).to_f64() - 0.8).abs() < 1e-12);
        // u2 = u + 1/4 = 0.55
        assert!((u.virtual_position(2).to_f64() - 0.55).abs() < 1e-12);
        // wrap: 0.9 + 1/2 = 0.4
        let w = Ident::from_f64(0.9);
        assert!((w.virtual_position(1).to_f64() - 0.4).abs() < 1e-12);
        // level 0 is the node itself
        assert_eq!(u.virtual_position(0), u);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let a = Ident::from_f64(0.8);
        let b = Ident::from_f64(0.3);
        let half = 1u64 << 63;
        assert_eq!(a.dist_cw(b), a.dist_cw(b)); // deterministic
        assert!(a.dist_cw(b) < half); // 0.8 -> 0.3 clockwise is 0.5 - eps.. actually exactly 0.5
        assert_eq!(a.dist_cw(a), 0);
        assert_eq!(a.dist_cw(b).wrapping_add(b.dist_cw(a)), 0); // sums to full circle
    }

    #[test]
    fn open_arc_matches_paper_example() {
        // Paper §2.2: 0, 0.2 ∈ [0.8, 0.3] but 0.2 ∉ [0.3, 0.8].
        let a = Ident::from_f64(0.8);
        let b = Ident::from_f64(0.3);
        assert!(Ident::from_f64(0.0).in_open_arc(a, b));
        assert!(Ident::from_f64(0.2).in_open_arc(a, b));
        assert!(!Ident::from_f64(0.2).in_open_arc(b, a));
        assert!(Ident::from_f64(0.5).in_open_arc(b, a));
        // endpoints excluded
        assert!(!a.in_open_arc(a, b));
        assert!(!b.in_open_arc(a, b));
        // empty arc
        assert!(!Ident::from_f64(0.1).in_open_arc(a, a));
    }

    #[test]
    fn finger_level_brackets_the_gap() {
        // gap = 1/2 exactly -> m = 1 (1/2^1 <= gap)
        assert_eq!(Ident::finger_level_for_gap(1u64 << 63), 1);
        // gap slightly below 1/2 -> m = 2
        assert_eq!(Ident::finger_level_for_gap((1u64 << 63) - 1), 2);
        // gap = 1/4 -> m = 2
        assert_eq!(Ident::finger_level_for_gap(1u64 << 62), 2);
        // smallest gap -> deepest level
        assert_eq!(Ident::finger_level_for_gap(1), 64);
        // lone node
        assert_eq!(Ident::finger_level_for_gap(0), 1);
    }

    #[test]
    fn finger_level_satisfies_chord_condition() {
        // For every gap, u + 1/2^m <= u + gap (i.e. 2^(64-m) <= gap) and
        // gap < 2^(64-m+1): the paper's §1.1 sandwich.
        for gap in [1u64, 2, 3, 7, 1 << 10, (1 << 40) + 12345, u64::MAX] {
            let m = Ident::finger_level_for_gap(gap);
            let span = level_span(m);
            assert!(span <= gap, "gap={gap} m={m}");
            if m > 1 {
                assert!(level_span(m - 1) > gap, "gap={gap} m={m}");
            }
        }
    }

    #[test]
    fn ring_distance_symmetric() {
        let a = Ident::from_f64(0.1);
        let b = Ident::from_f64(0.7);
        assert_eq!(a.dist_ring(b), b.dist_ring(a));
    }

    #[test]
    fn f64_roundtrip_is_close() {
        for x in [0.0, 0.1, 0.25, 0.5, 0.999999] {
            let id = Ident::from_f64(x);
            assert!((id.to_f64() - x).abs() < 1e-9);
        }
    }
}
