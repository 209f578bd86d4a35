//! Per-link latency models — how many virtual ticks one overlay hop takes —
//! and per-peer service capacity (queueing delay at a loaded peer).

use rechord_core::adversary::mix;
use rechord_id::Ident;

/// The latency law applied to every peer-to-peer hop (local steps through a
/// peer's own virtual nodes are free — the peer simulates them in memory).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Uniform in `[lo, hi]` ticks, floored at 1 — a hop always takes at
    /// least one tick of virtual time, like every other model.
    Uniform {
        /// Smallest possible hop latency (a draw of 0 is floored to 1).
        lo: u64,
        /// Largest possible hop latency (inclusive; must be `>= lo`).
        hi: u64,
    },
    /// Exponentially distributed with the given mean, rounded to ticks and
    /// floored at 1 (a heavy-ish tail, the classic network-delay stand-in).
    Exponential {
        /// Mean hop latency in ticks (must be `> 0`).
        mean: f64,
    },
}

impl LatencyModel {
    /// Draws one hop latency as a *pure function* of the given key words
    /// (hashed through the splitmix finalizer), not of a position in an rng
    /// stream. Two draws agree iff their key words agree — the data plane
    /// keys every draw by `(seed, tag, request id, attempt)` so the trace
    /// is independent of the order requests are processed in.
    pub fn sample_keyed(&self, words: &[u64]) -> u64 {
        let h = mix(words);
        match *self {
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency needs lo <= hi");
                // Full-width range: `hi - lo + 1` would overflow, and the
                // hash is already uniform over all of u64.
                let x = if hi.wrapping_sub(lo) == u64::MAX { h } else { lo + h % (hi - lo + 1) };
                x.max(1)
            }
            LatencyModel::Exponential { mean } => {
                // Inverse-CDF with 53 uniform bits, rounded to ticks and
                // floored at 1 like the other models.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let draw = -mean.max(f64::MIN_POSITIVE) * (1.0 - u).ln();
                (draw.round() as u64).max(1)
            }
        }
    }

    /// The model's mean hop latency in ticks (approximate for a `Uniform`
    /// with `lo: 0`, where the ≥1 floor shifts the true mean slightly up).
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Uniform { lo, hi } => ((lo as f64 + hi as f64) / 2.0).max(1.0),
            LatencyModel::Exponential { mean } => mean,
        }
    }
}

/// Deterministic per-peer service capacity: a peer serves one request per
/// `service_time` ticks, FIFO, so a hop *through a loaded peer* waits for
/// the backlog ahead of it — queueing delay without randomness.
///
/// `service_time == 0` models infinite service rate (no queueing, no
/// bookkeeping): the pre-capacity behavior of the simulator.
///
/// Layout is structure-of-arrays: a sorted column of peer idents parallel
/// to a column of free-at instants, so iteration order is the ident order
/// by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceQueue {
    service_time: u64,
    /// Sorted peer idents; `free_at[i]` belongs to `peers[i]`.
    peers: Vec<Ident>,
    /// Virtual instant each peer's server frees up (0 = idle; a missing
    /// peer is equivalent to an entry at 0).
    free_at: Vec<u64>,
}

impl ServiceQueue {
    /// A queue where every peer serves one request per `service_time` ticks.
    pub fn new(service_time: u64) -> Self {
        ServiceQueue { service_time, peers: Vec::new(), free_at: Vec::new() }
    }

    /// Ticks one request occupies a peer's server (0 = infinite capacity).
    pub fn service_time(&self) -> u64 {
        self.service_time
    }

    /// Admits a request arriving at `peer` at instant `arrival`; returns
    /// when the peer is done serving it. An idle peer serves immediately
    /// (`arrival + service_time`); a busy one appends the request to its
    /// FIFO backlog.
    pub fn admit(&mut self, peer: Ident, arrival: u64) -> u64 {
        if self.service_time == 0 {
            return arrival;
        }
        let i = match self.peers.binary_search(&peer) {
            Ok(i) => i,
            Err(i) => {
                self.peers.insert(i, peer);
                self.free_at.insert(i, 0);
                i
            }
        };
        let done = arrival.max(self.free_at[i]) + self.service_time;
        self.free_at[i] = done;
        done
    }

    /// How many ticks of backlog `peer` has at instant `now`.
    pub fn backlog_of(&self, peer: Ident, now: u64) -> u64 {
        match self.peers.binary_search(&peer) {
            Ok(i) => self.free_at[i].saturating_sub(now),
            Err(_) => 0,
        }
    }

    /// Forgets a departed peer's backlog.
    pub fn forget(&mut self, peer: Ident) {
        if let Ok(i) = self.peers.binary_search(&peer) {
            self.peers.remove(i);
            self.free_at.remove(i);
        }
    }

    /// Ensures every peer in `live` (any order) has an entry, inserting
    /// idle (`free_at = 0`) rows for the missing ones. Inserting at 0 is
    /// observationally identical to the peer being absent, and
    /// [`ServiceQueue::admit`] inserts on demand, so the simulator never
    /// calls this: it stays `pub` because `benchmark/` pre-sizes a queue
    /// with it.
    pub fn sync_peers(&mut self, live: &[Ident]) {
        if self.service_time == 0 {
            return;
        }
        let mut sorted: Vec<Ident> = live.to_vec();
        sorted.sort_unstable();
        let mut merged_peers = Vec::with_capacity(self.peers.len() + sorted.len());
        let mut merged_free = Vec::with_capacity(self.peers.len() + sorted.len());
        let (mut i, mut j) = (0, 0);
        while i < self.peers.len() || j < sorted.len() {
            if i < self.peers.len() && (j >= sorted.len() || self.peers[i] <= sorted[j]) {
                if j < sorted.len() && self.peers[i] == sorted[j] {
                    j += 1;
                }
                merged_peers.push(self.peers[i]);
                merged_free.push(self.free_at[i]);
                i += 1;
            } else {
                merged_peers.push(sorted[j]);
                merged_free.push(0);
                j += 1;
            }
        }
        self.peers = merged_peers;
        self.free_at = merged_free;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform { lo: 5, hi: 15 };
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..2_000u64 {
            let x = m.sample_keyed(&[42, 0xabc, id]);
            assert!((5..=15).contains(&x));
            seen.insert(x);
        }
        assert_eq!(seen.len(), 11, "all 11 values of [5,15] are reachable");
        assert_eq!(m.mean(), 10.0);
    }

    #[test]
    fn uniform_full_width_and_zero_lo_are_safe() {
        // `hi - lo + 1` overflows at full width; the draw must cover the
        // whole range without panicking.
        let full = LatencyModel::Uniform { lo: 0, hi: u64::MAX };
        for id in 0..100u64 {
            assert!(full.sample_keyed(&[id]) >= 1, "even the widest draw is floored at 1");
        }
        let top = LatencyModel::Uniform { lo: u64::MAX, hi: u64::MAX };
        assert_eq!(top.sample_keyed(&[7]), u64::MAX);
        // `lo: 0` draws are floored: a hop never takes zero virtual time.
        let low = LatencyModel::Uniform { lo: 0, hi: 3 };
        let mut floored = 0;
        for id in 0..2_000u64 {
            let x = low.sample_keyed(&[7, id]);
            assert!((1..=3).contains(&x));
            floored += u64::from(x == 1);
        }
        assert!(floored > 600, "0 and 1 both collapse onto the 1-tick floor ({floored})");
        assert_eq!(LatencyModel::Uniform { lo: 0, hi: 0 }.mean(), 1.0);
    }

    #[test]
    fn service_queue_builds_deterministic_backlog() {
        let p = Ident::from_raw(7);
        let q2 = Ident::from_raw(9);
        let mut q = ServiceQueue::new(10);
        assert_eq!(q.service_time(), 10);
        // Idle peer: served immediately.
        assert_eq!(q.admit(p, 100), 110);
        // Arriving while busy: queue behind the previous request.
        assert_eq!(q.admit(p, 105), 120);
        assert_eq!(q.admit(p, 105), 130);
        assert_eq!(q.backlog_of(p, 105), 25);
        // Another peer is unaffected.
        assert_eq!(q.admit(q2, 105), 115);
        // After the backlog drains the peer is idle again.
        assert_eq!(q.admit(p, 500), 510);
        assert_eq!(q.backlog_of(q2, 400), 0);
        q.forget(p);
        assert_eq!(q.backlog_of(p, 0), 0);
    }

    #[test]
    fn forget_never_resurrects_backlog() {
        // Crash semantics: `forget()` must wipe a peer's backlog for good —
        // a later admission (only possible for a *live* peer of the same
        // ident, e.g. after a rejoin) starts from an idle server, never
        // from the ghost's queue.
        let p = Ident::from_raw(3);
        let mut q = ServiceQueue::new(10);
        q.admit(p, 100);
        q.admit(p, 100);
        q.admit(p, 100);
        assert_eq!(q.backlog_of(p, 100), 30);
        q.forget(p);
        assert_eq!(q.backlog_of(p, 100), 0, "forgotten backlog is gone");
        assert_eq!(q.admit(p, 101), 111, "post-forget admission starts idle");
        assert_eq!(q.backlog_of(p, 101), 10);
        // Forgetting an unknown peer is a no-op, not a panic.
        q.forget(Ident::from_raw(999));
    }

    #[test]
    fn backlog_is_monotone_nonincreasing_between_admissions() {
        // Between admissions the backlog can only drain: for any admission
        // schedule, `backlog_of` evaluated at non-decreasing instants with
        // no admission in between never grows.
        let mut rng = SmallRng::seed_from_u64(11);
        let p = Ident::from_raw(5);
        for _ in 0..200 {
            let mut q = ServiceQueue::new(rng.gen_range(1u64..12));
            let mut now = 0u64;
            for _ in 0..rng.gen_range(1usize..20) {
                now += rng.gen_range(0u64..30);
                q.admit(p, now);
            }
            let mut last = q.backlog_of(p, now);
            for _ in 0..20 {
                now += rng.gen_range(0u64..15);
                let b = q.backlog_of(p, now);
                assert!(b <= last, "backlog grew from {last} to {b} with no admission");
                last = b;
            }
            assert_eq!(q.backlog_of(p, now + 1_000_000), 0, "every backlog drains");
        }
    }

    #[test]
    fn zero_service_time_is_infinite_capacity() {
        let p = Ident::from_raw(1);
        let mut q = ServiceQueue::new(0);
        for t in 0..100 {
            assert_eq!(q.admit(p, t), t, "no queueing at infinite rate");
        }
        assert_eq!(q.backlog_of(p, 0), 0);
    }

    #[test]
    fn keyed_draws_are_pure_bounded_and_key_sensitive() {
        let m = LatencyModel::Uniform { lo: 5, hi: 15 };
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..64u64 {
            let x = m.sample_keyed(&[42, 0xabc, id]);
            assert!((5..=15).contains(&x));
            assert_eq!(x, m.sample_keyed(&[42, 0xabc, id]), "same key, same draw");
            seen.insert(x);
        }
        assert!(seen.len() > 1, "different keys draw different latencies");
    }

    #[test]
    fn keyed_exponential_mean_roughly_holds() {
        let m = LatencyModel::Exponential { mean: 20.0 };
        let n = 20_000u64;
        let sum: u64 = (0..n).map(|id| m.sample_keyed(&[7, id])).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "empirical keyed mean {mean}");
        // never zero
        assert!((0..1000u64).all(|id| m.sample_keyed(&[8, id]) >= 1));
    }

    #[test]
    fn sync_peers_inserts_idle_rows_only() {
        let a = Ident::from_raw(10);
        let b = Ident::from_raw(20);
        let c = Ident::from_raw(30);
        let mut q = ServiceQueue::new(5);
        q.admit(b, 100);
        let before = q.backlog_of(b, 100);
        q.sync_peers(&[c, a, b]);
        assert_eq!(q.backlog_of(b, 100), before, "existing backlog survives sync");
        assert_eq!(q.backlog_of(a, 0), 0);
        assert_eq!(q.backlog_of(c, 0), 0);
        // Synced-at-idle is observationally identical to absent.
        let mut fresh = ServiceQueue::new(5);
        assert_eq!(q.admit(a, 7), fresh.admit(a, 7));
    }
}
