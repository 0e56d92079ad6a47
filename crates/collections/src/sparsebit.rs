//! Compressed sparse bitset: the `SparseBitSet` selection of Table I.
//!
//! A from-scratch implementation of the Roaring bitmap design (Lemire et
//! al.) that the paper uses via the Roaring library: keys are split into a
//! 16-bit *chunk* (high bits) and a 16-bit offset; each chunk owns one of
//! three container kinds chosen by density —
//!
//! * **Array**: sorted `u16` offsets, for sparse chunks (≤ 4096 entries);
//! * **Bitmap**: a fixed 8 KiB bit array, for dense chunks;
//! * **Run**: sorted `(start, length)` intervals, produced by
//!   [`SparseBitSet::run_optimize`] for highly clustered chunks.
//!
//! Containers convert automatically as they grow or shrink, giving `O(1)`
//! membership with storage proportional to the *populated* part of the key
//! universe — the paper's RQ4 fix for bitsets that are sparse over a
//! shared enumeration.

use std::fmt;

use crate::HeapSize;

/// Array containers convert to bitmaps above this length (the Roaring
/// threshold: 4096 × 2 bytes = 8 KiB, the size of a bitmap container).
const ARRAY_MAX: usize = 4096;
/// Bitmap container size in 64-bit words (65536 bits).
const BITMAP_WORDS: usize = 1024;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    Array(Vec<u16>),
    Bitmap {
        words: Box<[u64; BITMAP_WORDS]>,
        len: u32,
    },
    Run(Vec<(u16, u16)>), // (start, inclusive end)
}

impl Container {
    fn new_array() -> Self {
        Container::Array(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { len, .. } => *len as usize,
            Container::Run(runs) => runs.iter().map(|&(s, e)| (e - s) as usize + 1).sum(),
        }
    }

    fn contains(&self, off: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&off).is_ok(),
            Container::Bitmap { words, .. } => {
                words[(off / 64) as usize] & (1u64 << (off % 64)) != 0
            }
            Container::Run(runs) => runs
                .binary_search_by(|&(s, e)| {
                    if off < s {
                        std::cmp::Ordering::Greater
                    } else if off > e {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
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
            Container::Run(_) => {
                if self.contains(off) {
                    return false;
                }
                let Container::Run(runs) = self else {
                    unreachable!()
                };
                let pos = runs.partition_point(|&(s, _)| s < off);
                // Try extending the previous or next run.
                let prev_adjacent = pos > 0 && runs[pos - 1].1.checked_add(1) == Some(off);
                let next_adjacent = pos < runs.len() && off.checked_add(1) == Some(runs[pos].0);
                match (prev_adjacent, next_adjacent) {
                    (true, true) => {
                        runs[pos - 1].1 = runs[pos].1;
                        runs.remove(pos);
                    }
                    (true, false) => runs[pos - 1].1 = off,
                    (false, true) => runs[pos].0 = off,
                    (false, false) => runs.insert(pos, (off, off)),
                }
                true
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
            Container::Run(runs) => {
                let Ok(pos) = runs.binary_search_by(|&(s, e)| {
                    if off < s {
                        std::cmp::Ordering::Greater
                    } else if off > e {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                }) else {
                    return false;
                };
                let (s, e) = runs[pos];
                if s == e {
                    runs.remove(pos);
                } else if off == s {
                    runs[pos].0 = s + 1;
                } else if off == e {
                    runs[pos].1 = e - 1;
                } else {
                    runs[pos].1 = off - 1;
                    runs.insert(pos + 1, (off + 1, e));
                }
                true
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
            Container::Run(runs) => runs.iter().flat_map(|&(s, e)| s..=e).collect(),
        }
    }

    /// Number of runs of consecutive offsets; used by `run_optimize`.
    fn count_runs(&self) -> usize {
        let offs = self.to_offsets();
        let mut runs = 0;
        let mut prev: Option<u16> = None;
        for &o in &offs {
            if prev.is_none_or(|p| p.checked_add(1) != Some(o)) {
                runs += 1;
            }
            prev = Some(o);
        }
        runs
    }

    fn to_runs(&self) -> Container {
        let offs = self.to_offsets();
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for &o in &offs {
            match runs.last_mut() {
                Some(last) if last.1.checked_add(1) == Some(o) => last.1 = o,
                _ => runs.push((o, o)),
            }
        }
        Container::Run(runs)
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
            Container::Run(runs) => runs.capacity() * 4,
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

    /// Converts clustered containers to run-length encoding where that is
    /// smaller, mirroring Roaring's `runOptimize`.
    pub fn run_optimize(&mut self) {
        for (_, container) in &mut self.chunks {
            let runs = container.count_runs();
            // A run container costs 4 bytes per run; compare with current.
            if runs * 4 < container.heap_bytes() && runs * 4 < container.len() * 2 {
                *container = container.to_runs();
            }
        }
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

    /// Number of chunk containers currently allocated (diagnostic).
    pub fn container_count(&self) -> usize {
        self.chunks.len()
    }

    /// Estimate of the heap footprint in time proportional to the number
    /// of chunk containers (each container reports in constant time).
    pub fn heap_bytes_fast(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<(u64, Container)>()
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

impl HeapSize for SparseBitSet {
    fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<(u64, Container)>()
            + self
                .chunks
                .iter()
                .map(|(_, c)| c.heap_bytes())
                .sum::<usize>()
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
        assert_eq!(s.container_count(), 3);
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
        assert_eq!(s.container_count(), 1);
        assert!(s.remove(100));
        assert_eq!(s.container_count(), 0);
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
    fn run_optimize_compresses_contiguous_ranges() {
        let mut s: SparseBitSet = (100..4200).collect(); // > ARRAY_MAX: bitmap
        let before = s.heap_bytes();
        s.run_optimize();
        assert!(matches!(s.chunks[0].1, Container::Run(_)));
        assert!(s.heap_bytes() < before);
        assert_eq!(s.len(), 4100);
        assert!(s.contains(100) && s.contains(4199) && !s.contains(4200));
    }

    #[test]
    fn run_container_insert_and_remove() {
        let mut s: SparseBitSet = (10..20).collect();
        s.run_optimize();
        // Adjacent-both: bridges two runs.
        s.remove(15);
        assert!(matches!(s.chunks[0].1, Container::Run(ref r) if r.len() == 2));
        s.insert(15);
        assert!(matches!(s.chunks[0].1, Container::Run(ref r) if r.len() == 1));
        // Extend front and back.
        s.insert(9);
        s.insert(20);
        assert_eq!(s.iter().collect::<Vec<_>>(), (9..21).collect::<Vec<_>>());
        // Isolated point.
        s.insert(100);
        assert!(s.contains(100));
        // Remove endpoints and interior.
        s.remove(9);
        s.remove(20);
        s.remove(14);
        assert!(!s.contains(9) && !s.contains(20) && !s.contains(14));
        assert!(s.contains(13) && s.contains(15));
    }

    #[test]
    fn run_optimize_skips_scattered_data() {
        let mut s: SparseBitSet = (0..1000).map(|i| i * 2).collect();
        s.run_optimize();
        // 1000 runs of length 1 would cost 4000 bytes vs 2000 as an array.
        assert!(matches!(s.chunks[0].1, Container::Array(_)));
    }

    #[test]
    fn equality_and_debug() {
        let a: SparseBitSet = [1usize, 2].into_iter().collect();
        let b: SparseBitSet = [2usize, 1].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "{1, 2}");
    }
}
