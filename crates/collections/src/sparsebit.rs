//! Compressed sparse bitset: the `SparseBitSet` selection of Table I.
//!
//! A from-scratch implementation of the Roaring bitmap design (Lemire et
//! al.) that the paper uses via the Roaring library: keys are split into a
//! 16-bit *chunk* (high bits) and a 16-bit offset; each chunk owns one of
//! two container kinds chosen by density —
//!
//! * **Array**: sorted `u16` offsets, for sparse chunks (≤ 4096 entries);
//! * **Bitmap**: a fixed 8 KiB bit array, for dense chunks.
//!
//! Containers convert automatically as they grow or shrink, giving `O(1)`
//! membership with storage proportional to the *populated* part of the key
//! universe — the paper's RQ4 fix for bitsets that are sparse over a
//! shared enumeration.

use std::fmt;

/// Array containers convert to bitmaps above this length (the Roaring
/// threshold: 4096 × 2 bytes = 8 KiB, the size of a bitmap container).
const ARRAY_MAX: usize = 4096;
/// Bitmap container size in 64-bit words (65536 bits).
const BITMAP_WORDS: usize = 1024;
/// Bytes the footprint estimate charges per chunk entry, its key and
/// container: the size of `(u64, Container)` on 64-bit targets while a
/// third, run-length container kind existed. The memory figures are
/// calibrated against that layout, as the interpreter's are against
/// boxed elements, so they do not move with the enum's packing.
const CHUNK_ENTRY_BYTES: usize = 40;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    Array(Vec<u16>),
    Bitmap {
        words: Box<[u64; BITMAP_WORDS]>,
        len: u32,
    },
}

impl Container {
    fn new_array() -> Self {
        Container::Array(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { len, .. } => *len as usize,
        }
    }

    fn contains(&self, off: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&off).is_ok(),
            Container::Bitmap { words, .. } => {
                words[(off / 64) as usize] & (1u64 << (off % 64)) != 0
            }
        }
    }

    /// Inserts `off`; returns `true` if newly added. May change the
    /// container kind (array → bitmap above [`ARRAY_MAX`]).
    fn insert(&mut self, off: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&off) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, off);
                    if v.len() > ARRAY_MAX {
                        *self = Self::array_to_bitmap(v);
                    }
                    true
                }
            },
            Container::Bitmap { words, len } => {
                let (w, m) = ((off / 64) as usize, 1u64 << (off % 64));
                if words[w] & m == 0 {
                    words[w] |= m;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes `off`; returns `true` if it was present. May shrink a
    /// bitmap back to an array at the threshold.
    fn remove(&mut self, off: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&off) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { words, len } => {
                let (w, m) = ((off / 64) as usize, 1u64 << (off % 64));
                if words[w] & m != 0 {
                    words[w] &= !m;
                    *len -= 1;
                    if (*len as usize) <= ARRAY_MAX / 2 {
                        *self = Self::bitmap_to_array(words);
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    fn array_to_bitmap(v: &[u16]) -> Container {
        let mut words = Box::new([0u64; BITMAP_WORDS]);
        for &off in v {
            words[(off / 64) as usize] |= 1u64 << (off % 64);
        }
        Container::Bitmap {
            words,
            len: v.len() as u32,
        }
    }

    fn bitmap_to_array(words: &[u64; BITMAP_WORDS]) -> Container {
        let mut v = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                v.push((w * 64) as u16 + bits.trailing_zeros() as u16);
                bits &= bits - 1;
            }
        }
        Container::Array(v)
    }

    fn to_offsets(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bitmap { words, .. } => {
                let Container::Array(v) = Self::bitmap_to_array(words) else {
                    unreachable!()
                };
                v
            }
        }
    }

    fn union_in_place(&mut self, other: &Container) {
        // Dense result path: bitmap |= bitmap is word-parallel.
        if let (
            Container::Bitmap { words, len },
            Container::Bitmap {
                words: other_words, ..
            },
        ) = (&mut *self, other)
        {
            let mut n = 0u32;
            for (a, b) in words.iter_mut().zip(other_words.iter()) {
                *a |= *b;
                n += a.count_ones();
            }
            *len = n;
            return;
        }
        for off in other.to_offsets() {
            self.insert(off);
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(v) => v.capacity() * 2,
            Container::Bitmap { .. } => BITMAP_WORDS * 8,
        }
    }
}

/// A compressed bitset over `usize` keys (Roaring design).
///
/// # Examples
///
/// ```
/// use ade_collections::SparseBitSet;
///
/// let mut s = SparseBitSet::new();
/// s.insert(7);
/// s.insert(1_000_000);
/// assert!(s.contains(7) && s.contains(1_000_000));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SparseBitSet {
    /// Sorted by chunk key (the high bits of the element keys). The key
    /// is the full upper word so 64-bit elements never alias.
    chunks: Vec<(u64, Container)>,
    len: usize,
}

impl SparseBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    #[inline]
    fn split(key: usize) -> (u64, u16) {
        ((key >> 16) as u64, (key & 0xffff) as u16)
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: usize) -> bool {
        let (hi, off) = Self::split(key);
        match self.chunks.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(pos) => self.chunks[pos].1.contains(off),
            Err(_) => false,
        }
    }

    /// Adds `key`. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics on `usize::MAX`, the reserved not-enumerated sentinel.
    pub fn insert(&mut self, key: usize) -> bool {
        assert_ne!(key, usize::MAX, "usize::MAX is the reserved sentinel key");
        let (hi, off) = Self::split(key);
        let pos = match self.chunks.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(pos) => pos,
            Err(pos) => {
                self.chunks.insert(pos, (hi, Container::new_array()));
                pos
            }
        };
        let fresh = self.chunks[pos].1.insert(off);
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: usize) -> bool {
        let (hi, off) = Self::split(key);
        let Ok(pos) = self.chunks.binary_search_by_key(&hi, |&(h, _)| h) else {
            return false;
        };
        let removed = self.chunks[pos].1.remove(off);
        if removed {
            self.len -= 1;
            if self.chunks[pos].1.len() == 0 {
                self.chunks.remove(pos);
            }
        }
        removed
    }

    /// Adds every element of `other` to `self`, chunk by chunk.
    pub fn union_with(&mut self, other: &SparseBitSet) {
        for (hi, container) in &other.chunks {
            match self.chunks.binary_search_by_key(hi, |&(h, _)| h) {
                Ok(pos) => self.chunks[pos].1.union_in_place(container),
                Err(pos) => self.chunks.insert(pos, (*hi, container.clone())),
            }
        }
        self.len = self.chunks.iter().map(|(_, c)| c.len()).sum();
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().flat_map(|(hi, container)| {
            let base = (*hi as usize) << 16;
            container
                .to_offsets()
                .into_iter()
                .map(move |o| base | o as usize)
        })
    }

    /// Estimate of the heap footprint in time proportional to the number
    /// of chunk containers (each container reports in constant time).
    pub fn heap_bytes_fast(&self) -> usize {
        self.chunks.capacity() * CHUNK_ENTRY_BYTES
            + self
                .chunks
                .iter()
                .map(|(_, c)| c.heap_bytes())
                .sum::<usize>()
    }
}

impl fmt::Debug for SparseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for SparseBitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl Extend<usize> for SparseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for key in iter {
            self.insert(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_across_chunks() {
        let mut s = SparseBitSet::new();
        assert!(s.insert(0));
        assert!(s.insert(65_535));
        assert!(s.insert(65_536));
        assert!(s.insert(10_000_000));
        assert!(!s.insert(65_536));
        assert_eq!(s.len(), 4);
        assert_eq!(s.chunks.len(), 3);
        assert!(s.contains(10_000_000));
        assert!(!s.contains(10_000_001));
    }

    #[test]
    fn array_converts_to_bitmap_and_back() {
        let mut s = SparseBitSet::new();
        for i in 0..5000 {
            s.insert(i);
        }
        assert_eq!(s.len(), 5000);
        assert!(matches!(s.chunks[0].1, Container::Bitmap { .. }));
        for i in 0..5000 {
            assert!(s.contains(i));
        }
        for i in 3000..5000 {
            s.remove(i);
        }
        // 3000 elements > 2048 threshold: still a bitmap.
        assert!(matches!(s.chunks[0].1, Container::Bitmap { .. }));
        for i in 1000..3000 {
            s.remove(i);
        }
        assert!(matches!(s.chunks[0].1, Container::Array(_)));
        assert_eq!(s.len(), 1000);
        assert!(s.contains(999) && !s.contains(1000));
    }

    #[test]
    fn empty_chunk_is_freed() {
        let mut s = SparseBitSet::new();
        s.insert(100);
        assert_eq!(s.chunks.len(), 1);
        assert!(s.remove(100));
        assert_eq!(s.chunks.len(), 0);
        assert!(!s.remove(100));
    }

    #[test]
    fn iter_ascending_across_chunks() {
        let s: SparseBitSet = [70_000usize, 5, 65_536, 1].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 65_536, 70_000]);
    }

    #[test]
    fn union_merges_containers() {
        let mut a: SparseBitSet = (0..100).collect();
        let b: SparseBitSet = (50..150).chain(200_000..200_010).collect();
        a.union_with(&b);
        assert_eq!(a.len(), 160);
        assert!(a.contains(149) && a.contains(200_005));
    }

    #[test]
    fn union_of_dense_chunks_is_word_parallel_correct() {
        let mut a: SparseBitSet = (0..5000).collect();
        let b: SparseBitSet = (4000..9000).collect();
        a.union_with(&b);
        assert_eq!(a.len(), 9000);
        for k in [0, 4500, 8999] {
            assert!(a.contains(k));
        }
    }

    #[test]
    fn equality_and_debug() {
        let a: SparseBitSet = [1usize, 2].into_iter().collect();
        let b: SparseBitSet = [2usize, 1].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "{1, 2}");
    }
}
