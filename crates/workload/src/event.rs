//! The discrete-event heart: a binary-heap queue over virtual time with a
//! seeded-in-stone tie-break (same-instant events pop in scheduling order),
//! so every run of a workload is reproducible bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One queued event. Ordering is `(time, seq)` — `seq` is the global
/// scheduling counter, so simultaneous events replay in the order they were
/// scheduled, never in allocator or hash order.
struct Scheduled<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A future-event list over virtual time (unitless "ticks").
///
/// Popping advances the clock monotonically; pushing into the past is
/// clamped to `now` (an event scheduled "immediately" from a handler runs at
/// the current instant, after every event already queued for it).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time `0`.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// The current virtual time (the instant of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to `now`).
    pub fn push(&mut self, at: u64, event: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// The instant of the earliest pending event without popping it —
    /// `None` when the queue is empty. The simulator uses this to bound a
    /// data-plane batch: request events run up to (not including) the next
    /// control-event instant.
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|s| s.time)
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
    fn next_time_peeks_without_advancing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(40, "b");
        q.push(15, "a");
        assert_eq!(q.next_time(), Some(15));
        assert_eq!(q.now(), 0, "peeking does not advance the clock");
        q.pop();
        assert_eq!(q.next_time(), Some(40));
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
