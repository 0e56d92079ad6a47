//! A dynamically resizing bitset: the `BitSet` selection of Table I.
//!
//! Stands in for `boost::dynamic_bitset` in the paper's implementation
//! (§III-H): a contiguous array of bits that grows on demand, which is
//! required because enumerations are constructed on the fly.

use std::fmt;

const WORD_BITS: usize = u64::BITS as usize;

/// A growable set of `usize` keys stored as a contiguous bit array.
///
/// Storage is proportional to the *largest* key ever inserted (Table I:
/// storage `k`), not to the number of elements — the tradeoff data
/// enumeration makes worthwhile by keeping keys contiguous in `[0, N)`.
///
/// # Examples
///
/// ```
/// use ade_collections::DynamicBitSet;
///
/// let mut s = DynamicBitSet::new();
/// assert!(s.insert(2));
/// assert!(!s.insert(2));
/// assert!(s.contains(2));
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
/// ```
#[derive(Clone, Default)]
pub struct DynamicBitSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally so `len` is O(1).
    len: usize,
}

impl DynamicBitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the largest key currently representable without growth.
    ///
    /// This is the paper's `k` storage parameter.
    pub fn universe(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    #[inline]
    fn slot(key: usize) -> (usize, u64) {
        (key / WORD_BITS, 1u64 << (key % WORD_BITS))
    }

    /// Returns `true` if `key` is in the set.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        let (word, mask) = Self::slot(key);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Adds `key`, growing the bit array if needed. Returns `true` if the
    /// key was not already present.
    ///
    /// # Panics
    ///
    /// Panics on `usize::MAX`, which is reserved as the not-enumerated
    /// sentinel (and would demand an impossible allocation anyway).
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        assert_ne!(key, usize::MAX, "usize::MAX is the reserved sentinel key");
        let (word, mask) = Self::slot(key);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let fresh = *w & mask == 0;
        *w |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `key`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: usize) -> bool {
        let (word, mask) = Self::slot(key);
        match self.words.get_mut(word) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Adds every element of `other` to `self` (word-parallel).
    ///
    /// This is the operation behind the enormous union speedups in the
    /// paper's Table III: 64 candidate elements per instruction versus a
    /// hash probe per element.
    pub fn union_with(&mut self, other: &DynamicBitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0usize;
        for (dst, src) in self.words.iter_mut().zip(other.words.iter()) {
            *dst |= *src;
            len += dst.count_ones() as usize;
        }
        // Words beyond `other`'s length were untouched; add their counts.
        len += self.words[other.words.len()..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        self.len = len;
    }

    /// The heap footprint, in constant time: the word array's capacity.
    pub fn heap_bytes_fast(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over a [`DynamicBitSet`], produced by
/// [`DynamicBitSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
    }
}

impl<'a> IntoIterator for &'a DynamicBitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for DynamicBitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl Extend<usize> for DynamicBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for key in iter {
            self.insert(key);
        }
    }
}

impl PartialEq for DynamicBitSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Trailing zero words must not affect equality.
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|w| *w == 0)
            && other.words[common..].iter().all(|w| *w == 0)
    }
}

impl Eq for DynamicBitSet {}

impl fmt::Debug for DynamicBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = DynamicBitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(1000));
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(65));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_beyond_universe_is_false() {
        let s = DynamicBitSet::new();
        assert!(!s.contains(1_000_000));
    }

    #[test]
    fn iter_is_ascending() {
        let s: DynamicBitSet = [5usize, 1, 200, 64, 63].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 63, 64, 200]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s: DynamicBitSet = (0..500).collect();
        let cap = s.heap_bytes_fast();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.heap_bytes_fast(), cap);
        assert!(!s.contains(10));
    }

    #[test]
    fn union_counts_and_grows() {
        let mut a: DynamicBitSet = [1usize, 2, 3].into_iter().collect();
        let b: DynamicBitSet = [3usize, 500].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.len(), 4);
        assert!(a.contains(500));
    }

    #[test]
    fn union_with_shorter_keeps_high_words() {
        let mut a: DynamicBitSet = [700usize, 1].into_iter().collect();
        let b: DynamicBitSet = [2usize].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 700]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = DynamicBitSet::new();
        a.insert(1);
        let mut b = DynamicBitSet::new();
        b.insert(1);
        b.insert(1000);
        b.remove(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_lists_elements() {
        let s: DynamicBitSet = [2usize, 7].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 7}");
    }
}
