//! A fast, non-cryptographic hasher used by every hash-based collection in
//! this crate.
//!
//! The general-purpose and swiss-table collections must share a hash
//! function so that performance comparisons between them (paper Table III)
//! measure the table *design*, not the hasher. This is the FxHash
//! multiply-rotate scheme used by rustc, implemented from scratch.
//!
//! # Examples
//!
//! ```
//! use std::hash::{Hash, Hasher};
//! use ade_collections::fx::FxHasher;
//!
//! let mut h = FxHasher::default();
//! 42u64.hash(&mut h);
//! let a = h.finish();
//! let mut h = FxHasher::default();
//! 42u64.hash(&mut h);
//! assert_eq!(a, h.finish());
//! ```

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Seed constant: 2^64 / phi, the usual Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast multiply-rotate hasher (the FxHash scheme).
///
/// Not collision-resistant against adversarial inputs; the execution
/// substrate only hashes trusted program data.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`] instances.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash `value` with an [`FxHasher`] whose state starts at `seed`: the
/// state another hasher reached after hashing a prefix. A table whose
/// keys all share a prefix (say, an enum discriminant) can store them
/// without it and still hash every key exactly as the prefixed value.
///
/// # Examples
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use ade_collections::fx::{hash_one, hash_seeded, FxHasher};
///
/// let mut h = FxHasher::default();
/// 2usize.hash(&mut h);
/// assert_eq!(hash_seeded(h.finish(), &7u64), hash_one(&(2usize, 7u64)));
/// ```
#[inline]
pub fn hash_seeded<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut hasher = FxHasher { state: seed };
    value.hash(&mut hasher);
    hasher.finish()
}

/// Hash a single value with [`FxHasher`].
///
/// # Examples
///
/// ```
/// let a = ade_collections::fx::hash_one(&"key");
/// let b = ade_collections::fx::hash_one(&"key");
/// assert_eq!(a, b);
/// ```
#[inline]
pub fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    hash_seeded(0, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&12345u64), hash_one(&12345u64));
        assert_eq!(hash_one("abc"), hash_one("abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one("ab"), hash_one("ba"));
    }

    #[test]
    fn spreads_small_integers() {
        // Consecutive integers should land in distinct high bits often
        // enough for open addressing; check no two of the first 64 share
        // a full hash.
        let hashes: Vec<u64> = (0u64..64).map(|i| hash_one(&i)).collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len());
    }

    #[test]
    fn partial_tail_bytes_differ_from_padded() {
        // "a" vs "a\0" must not collide because of zero-padding.
        assert_ne!(hash_one(&b"a"[..]), hash_one(&b"a\0"[..]));
    }
}
