//! Half-open/open arcs on the ring, used by the oracle and the generators.

use crate::Ident;

/// A directed (clockwise) arc on the identifier ring, described by its two
/// endpoints. The arc runs clockwise from `from` to `to`; when
/// `from == to` the arc is empty (consistent with [`Ident::in_open_arc`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RingArc {
    /// Clockwise start (excluded from the open arc).
    pub from: Ident,
    /// Clockwise end (excluded from the open arc).
    pub to: Ident,
}

impl RingArc {
    /// Builds the clockwise arc `from -> to`.
    pub fn new(from: Ident, to: Ident) -> Self {
        RingArc { from, to }
    }

    /// Does the *open* arc contain `x` (both endpoints excluded)?
    #[inline]
    pub fn contains_open(&self, x: Ident) -> bool {
        x.in_open_arc(self.from, self.to)
    }

    /// Does the arc contain `x` when the clockwise end is included
    /// (half-open `(from, to]`)? Used where the paper allows a finger to
    /// coincide with the successor.
    #[inline]
    pub fn contains_half_open(&self, x: Ident) -> bool {
        x == self.to && self.from != self.to || self.contains_open(x)
    }

    /// Clockwise length of the arc (zero when the endpoints coincide).
    #[inline]
    pub fn len(&self) -> u64 {
        self.from.dist_cw(self.to)
    }

    /// True iff the arc is empty (`from == to`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.from == self.to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_includes_clockwise_end() {
        let arc = RingArc::new(Ident::from_f64(0.2), Ident::from_f64(0.6));
        assert!(arc.contains_half_open(Ident::from_f64(0.6)));
        assert!(!arc.contains_open(Ident::from_f64(0.6)));
        assert!(!arc.contains_half_open(Ident::from_f64(0.2)));
    }

    #[test]
    fn wrapping_arc_contains() {
        let arc = RingArc::new(Ident::from_f64(0.9), Ident::from_f64(0.1));
        assert!(arc.contains_open(Ident::from_f64(0.95)));
        assert!(arc.contains_open(Ident::from_f64(0.05)));
        assert!(!arc.contains_open(Ident::from_f64(0.5)));
        assert_eq!(arc.len(), Ident::from_f64(0.9).dist_cw(Ident::from_f64(0.1)));
    }

    #[test]
    fn empty_arc() {
        let p = Ident::from_f64(0.4);
        let arc = RingArc::new(p, p);
        assert!(arc.is_empty());
        assert!(!arc.contains_open(Ident::from_f64(0.5)));
        assert!(!arc.contains_half_open(p));
        assert_eq!(arc.len(), 0);
    }
}
