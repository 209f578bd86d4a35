//! Collection of delayed assignments emitted during a round.

use rechord_id::Ident;

/// The per-node buffer of delayed (`<-`) assignments produced in a round.
///
/// Every message is addressed to the *peer* (real node identifier) that
/// simulates the target; routing to the right virtual sibling is the
/// receiving protocol's business.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) msgs: Vec<(Ident, M)>,
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues `msg` for delivery to the peer `to` at the end of the round.
    #[inline]
    pub fn send(&mut self, to: Ident, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True iff nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Consumes the outbox, yielding the queued `(target, message)` pairs.
    /// Used by the engine at the round boundary and by rule-level tests.
    pub fn into_inner(self) -> Vec<(Ident, M)> {
        self.msgs
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_and_drain() {
        let mut o: Outbox<u32> = Outbox::new();
        assert!(o.is_empty());
        o.send(Ident::from_raw(5), 1);
        o.send(Ident::from_raw(5), 2);
        o.send(Ident::from_raw(9), 3);
        assert_eq!(o.len(), 3);
        let inner = o.into_inner();
        assert_eq!(
            inner,
            vec![(Ident::from_raw(5), 1), (Ident::from_raw(5), 2), (Ident::from_raw(9), 3)]
        );
    }
}
