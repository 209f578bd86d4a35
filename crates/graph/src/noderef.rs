//! Node handles: a node is named by the real peer that simulates it plus its
//! virtual level.

use core::fmt;
use rechord_id::{Ident, MAX_LEVEL};

/// A reference to a node of the Re-Chord graph.
///
/// * `level == 0`: the **real** node `u_0 = u` (the peer itself, `V_r`).
/// * `level == i >= 1`: the **virtual** node `u_i = u + 1/2^i (mod 1)`
///   simulated by the peer at `owner` (`V_v`).
///
/// An edge to a virtual node is physically an edge to the peer simulating
/// it, so a `NodeRef` is exactly the information a message needs to carry.
///
/// Ordering is by ring position first (the paper's linear order on `[0,1)`),
/// with `(owner, level)` as a deterministic tie-break for the measure-zero
/// case of two nodes occupying the same position.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// The real peer simulating this node.
    pub owner: Ident,
    /// Virtual level; `0` means the real node itself.
    pub level: u8,
}

impl NodeRef {
    /// The real node of the peer at `owner`.
    #[inline]
    pub fn real(owner: Ident) -> Self {
        NodeRef { owner, level: 0 }
    }

    /// The `level`-th virtual node of the peer at `owner`
    /// (`level` in `1..=MAX_LEVEL`).
    #[inline]
    pub fn virtual_node(owner: Ident, level: u8) -> Self {
        debug_assert!((1..=MAX_LEVEL).contains(&level));
        NodeRef { owner, level }
    }

    /// Ring position of this node: `owner + 1/2^level (mod 1)`.
    #[inline]
    pub fn pos(&self) -> Ident {
        self.owner.virtual_position(self.level)
    }

    /// Is this a real node (`V_r`)? The paper's `w ∈ V_r` guard.
    #[inline]
    pub fn is_real(&self) -> bool {
        self.level == 0
    }
}

impl PartialOrd for NodeRef {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeRef {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.pos(), self.owner, self.level).cmp(&(other.pos(), other.owner, other.level))
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_real() {
            write!(f, "R[{}]", self.owner)
        } else {
            write!(f, "V[{}+2^-{} @{}]", self.owner, self.level, self.pos())
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_derivation() {
        let u = Ident::from_f64(0.3);
        assert_eq!(NodeRef::real(u).pos(), u);
        let v1 = NodeRef::virtual_node(u, 1);
        assert!((v1.pos().to_f64() - 0.8).abs() < 1e-12);
        assert!(!v1.is_real());
    }

    #[test]
    fn ordering_is_by_position() {
        let a = NodeRef::real(Ident::from_f64(0.9));
        // virtual node of a at level 1 sits at 0.4 < 0.9
        let a1 = NodeRef::virtual_node(a.owner, 1);
        assert!(a1 < a);
        let b = NodeRef::real(Ident::from_f64(0.5));
        assert!(a1 < b && b < a);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Construct two distinct nodes at the same position: owner x level 1
        // and owner x + 1/2 level 0 share pos.
        let x = Ident::from_f64(0.25);
        let v = NodeRef::virtual_node(x, 1);
        let r = NodeRef::real(x.virtual_position(1));
        assert_eq!(v.pos(), r.pos());
        assert_ne!(v, r);
        // total order still separates them, consistently
        assert_eq!(v.cmp(&r), v.cmp(&r));
        assert_ne!(v.cmp(&r), core::cmp::Ordering::Equal);
    }
}
