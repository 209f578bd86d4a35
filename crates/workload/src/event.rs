//! The discrete-event heart: a binary-heap queue over virtual time with a
//! seeded-in-stone tie-break, so every run of a workload is reproducible bit
//! for bit. Same-instant events pop by an optional order key, then in
//! scheduling order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One queued event. Ordering is `(time, key, seq)` — `seq` is the global
/// scheduling counter, so simultaneous events with equal keys replay in the
/// order they were scheduled, never in allocator or hash order.
struct Scheduled<E, K> {
    time: u64,
    key: K,
    seq: u64,
    event: E,
}

impl<E, K: Ord> PartialEq for Scheduled<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E, K: Ord> Eq for Scheduled<E, K> {}

impl<E, K: Ord> PartialOrd for Scheduled<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E, K: Ord> Ord for Scheduled<E, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, &other.key, other.seq).cmp(&(self.time, &self.key, self.seq))
    }
}

/// A future-event list over virtual time (unitless "ticks").
///
/// Popping advances the clock monotonically; pushing into the past is
/// clamped to `now` (an event scheduled "immediately" from a handler runs at
/// the current instant, after every event already queued for it with the
/// same key). `K` orders events of one instant before scheduling order
/// does; the default `()` leaves pure scheduling order.
pub struct EventQueue<E, K = ()> {
    heap: BinaryHeap<Scheduled<E, K>>,
    seq: u64,
    now: u64,
}

impl<E, K: Ord> Default for EventQueue<E, K> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to `now`).
    pub fn push(&mut self, at: u64, event: E) {
        self.push_keyed(at, (), event);
    }
}

impl<E, K: Ord> EventQueue<E, K> {
    /// The current virtual time (the instant of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to `now`),
    /// behind every same-instant event with a smaller `key`.
    pub fn push_keyed(&mut self, at: u64, key: K, event: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, key, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for k in 0..16u32 {
            q.push(5, k);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn clock_is_monotone_and_past_pushes_clamp() {
        let mut q = EventQueue::new();
        q.push(100, "late");
        assert_eq!(q.pop(), Some((100, "late")));
        assert_eq!(q.now(), 100);
        q.push(3, "past"); // clamped to now
        assert_eq!(q.pop(), Some((100, "past")));
        assert_eq!(q.now(), 100);
    }

    #[test]
    fn keyed_events_pop_by_time_then_key_then_schedule_order() {
        let mut q: EventQueue<&str, u64> = EventQueue::default();
        q.push_keyed(7, 0, "late");
        q.push_keyed(5, 9, "c");
        q.push_keyed(5, 2, "a");
        q.push_keyed(5, 9, "d");
        q.push_keyed(5, 2, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(5, "a"), (5, "b"), (5, "c"), (5, "d"), (7, "late")]);
    }

    #[test]
    fn unkeyed_queue_keeps_pure_schedule_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(4, 0);
        q.push(2, 1);
        q.push(4, 2);
        q.push(2, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(2, 1), (2, 3), (4, 0), (4, 2)]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 0);
        q.push(1, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.push(0, 0u64);
            let mut next = 1u64;
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
                if next < 20 {
                    q.push(t + (e % 3), next);
                    next += 1;
                    q.push(t + 2, next);
                    next += 1;
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
