//! Dense array map: the `BitMap` selection of Table I.
//!
//! Maps keys from a contiguous range `[0, N)` — manufactured by data
//! enumeration — to values, using a presence bit per key plus a dense
//! value array (Table I storage: `k · (1 + bits(T))`). Reads, writes and
//! inserts are single array accesses.

use std::fmt;

use crate::bitset::DynamicBitSet;

/// A map from `usize` keys to values, stored as presence bits plus a
/// dense value array indexed directly by key.
///
/// # Examples
///
/// ```
/// use ade_collections::BitMap;
///
/// let mut m = BitMap::new();
/// m.insert(3, "c");
/// assert_eq!(m.get(3), Some(&"c"));
/// assert_eq!(m.get(2), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone)]
pub struct BitMap<V> {
    present: DynamicBitSet,
    values: Vec<V>,
}

impl<V> Default for BitMap<V> {
    fn default() -> Self {
        Self {
            present: DynamicBitSet::new(),
            values: Vec::new(),
        }
    }
}

impl<V: Default> BitMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Returns `true` if the map contains no entries.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.present.clear();
        self.values.iter_mut().for_each(|v| *v = V::default());
    }

    /// Returns `true` if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: usize) -> bool {
        self.present.contains(key)
    }

    /// Returns a reference to the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: usize) -> Option<&V> {
        if self.present.contains(key) {
            Some(&self.values[key])
        } else {
            None
        }
    }

    /// Inserts `key → value`, growing the dense array if needed. Returns
    /// the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics on `usize::MAX`, which is reserved as the not-enumerated
    /// sentinel (and `key + 1` slots could not be allocated regardless).
    #[inline]
    pub fn insert(&mut self, key: usize, value: V) -> Option<V> {
        assert_ne!(key, usize::MAX, "usize::MAX is the reserved sentinel key");
        if key >= self.values.len() {
            self.values.resize_with(key + 1, V::default);
        }
        let old = std::mem::replace(&mut self.values[key], value);
        if self.present.insert(key) {
            None
        } else {
            Some(old)
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: usize) -> Option<V> {
        if self.present.remove(key) {
            Some(std::mem::take(&mut self.values[key]))
        } else {
            None
        }
    }

    /// Constant-time estimate of the heap footprint (presence bits plus
    /// dense value array capacity; value-owned heap data excluded).
    pub fn heap_bytes_fast(&self) -> usize {
        self.heap_bytes_fast_as(std::mem::size_of::<V>())
    }

    /// [`BitMap::heap_bytes_fast`] priced as if each dense slot were
    /// `value_bytes` wide, so a monomorphic instantiation can report
    /// its boxed twin's footprint (`resize_with` growth is element-size
    /// independent within the small-element class, so the capacity
    /// trajectory matches).
    pub fn heap_bytes_fast_as(&self, value_bytes: usize) -> usize {
        self.present.heap_bytes_fast() + self.values.capacity() * value_bytes
    }

    /// Iterates over `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.present.iter().map(|k| (k, &self.values[k]))
    }
}

impl<V: fmt::Debug + Default> fmt::Debug for BitMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Default> FromIterator<(usize, V)> for BitMap<V> {
    fn from_iter<I: IntoIterator<Item = (usize, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

impl<V: Default> Extend<(usize, V)> for BitMap<V> {
    fn extend<I: IntoIterator<Item = (usize, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_remove() {
        let mut m = BitMap::new();
        assert_eq!(m.insert(5, 50u64), None);
        assert_eq!(m.insert(5, 55), Some(50));
        assert_eq!(m.get(5), Some(&55));
        assert_eq!(m.remove(5), Some(55));
        assert_eq!(m.remove(5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn default_values_are_not_entries() {
        let mut m: BitMap<u32> = BitMap::new();
        m.insert(10, 0);
        assert_eq!(m.get(10), Some(&0));
        assert_eq!(m.get(3), None, "slack slots below 10 are absent");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_ascending() {
        let m: BitMap<&str> = [(9, "i"), (2, "b"), (5, "e")].into_iter().collect();
        let pairs: Vec<(usize, &&str)> = m.iter().collect();
        assert_eq!(pairs, vec![(2, &"b"), (5, &"e"), (9, &"i")]);
    }

    #[test]
    fn storage_proportional_to_largest_key() {
        let mut m: BitMap<u64> = BitMap::new();
        m.insert(10_000, 1);
        // One entry, but k ~ 10_000 slots of storage: the Table I tradeoff.
        assert_eq!(m.len(), 1);
        assert!(m.heap_bytes_fast() >= 10_000 * 8);
    }

    #[test]
    fn clear_keeps_allocation_and_absence() {
        let mut m: BitMap<u32> = (0..100usize).map(|i| (i, i as u32)).collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(50), None);
        m.insert(50, 1);
        assert_eq!(m.len(), 1);
    }
}
