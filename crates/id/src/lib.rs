//! Exact identifier arithmetic on the `[0,1)` ring used by Re-Chord.
//!
//! The paper (Kniesburges, Koutsopoulos, Scheideler, SPAA'11) places every
//! peer at a real number in `[0,1)` and derives *virtual nodes* at positions
//! `u + 1/2^i (mod 1)`. All protocol guards are interval tests on these
//! positions, so representing them as floating point would make guard
//! outcomes depend on rounding. Instead we use **64-bit fixed point**: an
//! [`Ident`] is the numerator of `x / 2^64`, so
//!
//! * `u + 1/2^i (mod 1)` is `u.wrapping_add(1 << (64 - i))` — exact;
//! * clockwise distance is a wrapping subtraction — exact;
//! * the finger level `m` of the paper (the unique `i` with
//!   `1/2^i <= d < 1/2^(i-1)`) is a leading-zeros count — exact.
//!
//! The paper hashes peer addresses with SHA-1; we substitute a SplitMix64
//! finalizer (uniform, deterministic, dependency-free — cryptographic
//! strength is irrelevant to the overlay topology; see README,
//! Interpretations "Hashing").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arc;
mod hashing;
mod ident;

pub use arc::RingArc;
pub use hashing::{hash_address, IdSpace};
pub use ident::{successor_index, successors, Ident, MAX_LEVEL};

#[cfg(test)]
mod proptests;
