//! Peer-address hashing onto the identifier ring.
//!
//! Chord uses SHA-1 as the consistent-hashing function `h : U -> [0,1)`.
//! The overlay only needs `h` to be a fixed pseudo-random uniform map, so we
//! substitute a keyed SplitMix64 finalizer (see README, Interpretations
//! "Hashing"): deterministic under a seed (required for reproducible
//! experiments), uniform on `u64`, and free of external dependencies.

use crate::Ident;

/// A seeded identifier space: maps peer addresses to ring positions.
#[derive(Clone, Copy, Debug)]
pub struct IdSpace {
    seed: u64,
}

impl IdSpace {
    /// Creates an identifier space keyed by `seed`. Two spaces with the same
    /// seed assign identical positions; different seeds give independent
    /// pseudo-random placements (the "random hash function" of the paper).
    pub fn new(seed: u64) -> Self {
        IdSpace { seed }
    }

    /// Hashes a peer address to its ring position, `h(addr)`.
    #[inline]
    pub fn ident_of(&self, addr: u64) -> Ident {
        hash_address(addr, self.seed)
    }

    /// Hashes an application key (e.g. a DHT key) to the ring. Identical to
    /// [`IdSpace::ident_of`]; a separate name keeps call sites readable.
    #[inline]
    pub fn key_position(&self, key: u64) -> Ident {
        hash_address(key, self.seed ^ 0x9e37_79b9_7f4a_7c15)
    }
}

/// SplitMix64 finalizer over `addr ^ seed`: the stand-in for SHA-1.
#[inline]
pub fn hash_address(addr: u64, seed: u64) -> Ident {
    let mut z = addr ^ seed;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Ident(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let s = IdSpace::new(42);
        assert_eq!(s.ident_of(7), IdSpace::new(42).ident_of(7));
        assert_ne!(s.ident_of(7), IdSpace::new(43).ident_of(7));
        assert_ne!(s.ident_of(7), s.ident_of(8));
    }

    #[test]
    fn keys_and_addresses_use_independent_streams() {
        let s = IdSpace::new(1);
        assert_ne!(s.ident_of(7), s.key_position(7));
    }

    #[test]
    fn roughly_uniform_buckets() {
        // 4096 addresses into 16 buckets: each bucket should be populated
        // and no bucket should hold more than 3x the expected count.
        let s = IdSpace::new(0xdead_beef);
        let mut buckets = [0usize; 16];
        for a in 0..4096u64 {
            let id = s.ident_of(a);
            buckets[(id.raw() >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 0, "empty bucket {i}");
            assert!(b < 3 * 4096 / 16, "overfull bucket {i}: {b}");
        }
    }

    #[test]
    fn no_trivial_collisions() {
        let s = IdSpace::new(9);
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..10_000u64 {
            assert!(seen.insert(s.ident_of(a).raw()), "collision at {a}");
        }
    }
}
