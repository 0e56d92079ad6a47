//! Separate-chaining hash table: the `HashSet`/`HashMap` selections of
//! Table I, standing in for `std::unordered_set`/`std::unordered_map`.
//!
//! Like the C++ standard containers these chain colliding entries and
//! rehash at a load factor of 1.0, which is what gives swiss tables (one
//! contiguous probe sequence, no per-node indirection) their edge in the
//! paper's Table III microbenchmarks.
//!
//! As a wall-clock concession the first entry of every chain is stored
//! inline in the bucket array ([`Bucket`]): at load factor ≤ 1.0 most
//! chains hold zero or one entry, so this removes the per-bucket heap
//! allocation from the hot insert path while keeping chaining semantics
//! (and iteration order) bit-for-bit what a `Vec`-per-bucket table gives.
//! The *modeled* cost and the fast byte estimate are unchanged — figures
//! never see this.

use std::fmt;
use std::hash::Hash;

use crate::fx::hash_seeded;

const MIN_BUCKETS: usize = 8;

/// A chain bucket. The first entry lives inline in the bucket array; a
/// heap-allocated spill vector is materialized only on collision. Every
/// operation mirrors the `Vec<(K, V)>` chain it replaces — same entry
/// order, same swap-remove semantics — so iteration order is identical
/// for any insertion/removal history.
#[derive(Clone)]
enum Bucket<K, V> {
    /// No entries.
    Empty,
    /// Exactly one entry, stored inline (the common case at load ≤ 1.0).
    One((K, V)),
    /// Two or more entries — or a drained spill retained for reuse,
    /// exactly as a cleared `Vec` chain would retain its capacity.
    Many(Vec<(K, V)>),
}

impl<K, V> Bucket<K, V> {
    fn as_slice(&self) -> &[(K, V)] {
        match self {
            Bucket::Empty => &[],
            Bucket::One(pair) => std::slice::from_ref(pair),
            Bucket::Many(chain) => chain,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(K, V)] {
        match self {
            Bucket::Empty => &mut [],
            Bucket::One(pair) => std::slice::from_mut(pair),
            Bucket::Many(chain) => chain,
        }
    }

    /// Appends an entry whose key the caller has already established is
    /// not in the chain (mirrors `Vec::push` on the old representation).
    fn push(&mut self, pair: (K, V)) {
        match self {
            Bucket::Empty => *self = Bucket::One(pair),
            Bucket::One(_) => {
                let Bucket::One(first) = std::mem::replace(self, Bucket::Empty) else {
                    unreachable!()
                };
                *self = Bucket::Many(vec![first, pair]);
            }
            Bucket::Many(chain) => chain.push(pair),
        }
    }

    /// Removes and returns the entry at `pos` with `Vec::swap_remove`
    /// order semantics.
    fn swap_remove(&mut self, pos: usize) -> (K, V) {
        match self {
            Bucket::Empty => unreachable!("remove from empty bucket"),
            Bucket::One(_) => {
                debug_assert_eq!(pos, 0);
                let Bucket::One(pair) = std::mem::replace(self, Bucket::Empty) else {
                    unreachable!()
                };
                pair
            }
            Bucket::Many(chain) => chain.swap_remove(pos),
        }
    }

    /// Drops all entries, retaining any spill allocation (as `Vec::clear`
    /// retains capacity).
    fn clear(&mut self) {
        match self {
            Bucket::Empty => {}
            Bucket::One(_) => *self = Bucket::Empty,
            Bucket::Many(chain) => chain.clear(),
        }
    }
}

/// A hash map with separate chaining.
///
/// # Examples
///
/// ```
/// use ade_collections::ChainedHashMap;
///
/// let mut m = ChainedHashMap::new();
/// m.insert("a", 1);
/// m.insert("b", 2);
/// assert_eq!(m.get(&"a"), Some(&1));
/// assert_eq!(m.insert("a", 10), Some(1));
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone)]
pub struct ChainedHashMap<K, V> {
    buckets: Vec<Bucket<K, V>>,
    len: usize,
    /// The hasher state every key's hash starts from (see
    /// [`hash_seeded`]); 0 for a plain FxHash.
    seed: u64,
}

impl<K, V> Default for ChainedHashMap<K, V> {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

impl<K, V> ChainedHashMap<K, V> {
    /// Creates an empty map whose keys hash from `seed` (see
    /// [`hash_seeded`]).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            buckets: Vec::new(),
            len: 0,
            seed,
        }
    }
}

impl<K: Hash + Eq, V> ChainedHashMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map contains no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all entries, keeping the bucket array.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Bucket::clear);
        self.len = 0;
    }

    #[inline]
    fn bucket_of(&self, key: &K) -> usize {
        debug_assert!(!self.buckets.is_empty());
        (hash_seeded(self.seed, key) as usize) & (self.buckets.len() - 1)
    }

    fn grow_if_needed(&mut self) {
        if self.buckets.is_empty() {
            self.buckets = (0..MIN_BUCKETS).map(|_| Bucket::Empty).collect();
            return;
        }
        if self.len < self.buckets.len() {
            return;
        }
        let new_size = self.buckets.len() * 2;
        let old = std::mem::take(&mut self.buckets);
        self.buckets = (0..new_size).map(|_| Bucket::Empty).collect();
        // Entries are re-appended in old-table iteration order, exactly
        // as the `Vec`-chain rehash did, so chain order (and therefore
        // iteration order) is preserved bit-for-bit.
        for bucket in old {
            match bucket {
                Bucket::Empty => {}
                Bucket::One(pair) => Self::rehash_into(&mut self.buckets, self.seed, pair),
                Bucket::Many(chain) => {
                    for pair in chain {
                        Self::rehash_into(&mut self.buckets, self.seed, pair);
                    }
                }
            }
        }
    }

    /// Re-appends an entry during a rehash (keys are already unique, so
    /// no chain scan is needed).
    fn rehash_into(buckets: &mut [Bucket<K, V>], seed: u64, pair: (K, V)) {
        let b = (hash_seeded(seed, &pair.0) as usize) & (buckets.len() - 1);
        buckets[b].push(pair);
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = self.bucket_of(key);
        self.buckets[b]
            .as_slice()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Returns `true` if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.grow_if_needed();
        let b = self.bucket_of(&key);
        let chain = &mut self.buckets[b];
        if let Some((_, v)) = chain.as_mut_slice().iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(v, value));
        }
        chain.push((key, value));
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = self.bucket_of(key);
        let chain = &mut self.buckets[b];
        let pos = chain.as_slice().iter().position(|(k, _)| k == key)?;
        self.len -= 1;
        Some(chain.swap_remove(pos).1)
    }

    /// A constant-time estimate of the heap footprint: the bucket array
    /// plus roughly two slots of chain capacity per entry (element-owned
    /// heap data excluded).
    pub fn heap_bytes_fast(&self) -> usize {
        self.heap_bytes_fast_as(std::mem::size_of::<(K, V)>())
    }

    /// [`ChainedHashMap::heap_bytes_fast`] priced as if each entry were
    /// `entry_bytes` wide. Lets a monomorphic instantiation report the
    /// footprint its boxed twin would have (the accounting the memory
    /// figures are calibrated against) while storing something smaller.
    /// The bucket-array term prices each slot at a chain-header width
    /// (`size_of::<Vec<_>>`, a model constant independent of both the
    /// entry type and the inline-bucket layout actually in memory), so
    /// only the entry term varies — which is what keeps boxed and
    /// unboxed twins in exact byte agreement.
    pub fn heap_bytes_fast_as(&self, entry_bytes: usize) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<(K, V)>>() + self.len * entry_bytes * 2
    }

    /// Iterates over `(key, value)` pairs in unspecified (but
    /// deterministic for a fixed insertion history) order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets
            .iter()
            .flat_map(Bucket::as_slice)
            .map(|(k, v)| (k, v))
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ChainedHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.buckets
                    .iter()
                    .flat_map(Bucket::as_slice)
                    .map(|(k, v)| (k, v)),
            )
            .finish()
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for ChainedHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for ChainedHashMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// A hash set with separate chaining (a [`ChainedHashMap`] with unit
/// values).
///
/// # Examples
///
/// ```
/// use ade_collections::ChainedHashSet;
///
/// let mut s = ChainedHashSet::new();
/// assert!(s.insert(7));
/// assert!(!s.insert(7));
/// assert!(s.contains(&7));
/// assert!(s.remove(&7));
/// assert!(s.is_empty());
/// ```
#[derive(Clone)]
pub struct ChainedHashSet<T> {
    map: ChainedHashMap<T, ()>,
}

impl<T> Default for ChainedHashSet<T> {
    fn default() -> Self {
        Self {
            map: ChainedHashMap::default(),
        }
    }
}

impl<T: Hash + Eq> ChainedHashSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set whose elements hash from `seed` (see
    /// [`ChainedHashMap::with_seed`]).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            map: ChainedHashMap::with_seed(seed),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }

    /// Adds `value`. Returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Removes `value`. Returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    /// Constant-time estimate of the heap footprint (see
    /// [`ChainedHashMap::heap_bytes_fast`]).
    pub fn heap_bytes_fast(&self) -> usize {
        self.map.heap_bytes_fast()
    }

    /// Footprint priced at a different entry width (see
    /// [`ChainedHashMap::heap_bytes_fast_as`]); `entry_bytes` should be
    /// the boxed twin's `size_of::<(T, ())>()`.
    pub fn heap_bytes_fast_as(&self, entry_bytes: usize) -> usize {
        self.map.heap_bytes_fast_as(entry_bytes)
    }

    /// Iterates over the elements in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.iter().map(|(k, _)| k)
    }
}

impl<T: fmt::Debug> fmt::Debug for ChainedHashSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(
                self.map
                    .buckets
                    .iter()
                    .flat_map(Bucket::as_slice)
                    .map(|(k, _)| k),
            )
            .finish()
    }
}

impl<T: Hash + Eq> FromIterator<T> for ChainedHashSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl<T: Hash + Eq> Extend<T> for ChainedHashSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_update_remove() {
        let mut m = ChainedHashMap::new();
        assert_eq!(m.insert(1u64, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&"uno"));
        assert_eq!(m.remove(&1), Some("uno"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_grows_past_initial_buckets() {
        let mut m = ChainedHashMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.get(&10_000), None);
    }

    #[test]
    fn map_iter_yields_all_entries() {
        let m: ChainedHashMap<u32, u32> = (0..100).map(|i| (i, i + 1)).collect();
        let mut pairs: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 100);
        assert_eq!(pairs[3], (3, 4));
    }

    #[test]
    fn map_clear_keeps_buckets() {
        let mut m: ChainedHashMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        m.insert(5, 5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_map_queries() {
        let m: ChainedHashMap<u32, u32> = ChainedHashMap::new();
        assert_eq!(m.get(&1), None);
        assert!(!m.contains_key(&1));
        let mut m = m;
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn set_basic_operations() {
        let mut s = ChainedHashSet::new();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
        assert!(s.contains(&"x"));
        assert!(!s.contains(&"y"));
        assert!(s.remove(&"x"));
        assert!(s.is_empty());
    }

    #[test]
    fn set_from_iterator_dedups() {
        let s: ChainedHashSet<u32> = [1, 2, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn heap_bytes_grows_with_contents() {
        let empty: ChainedHashMap<u64, u64> = ChainedHashMap::new();
        let full: ChainedHashMap<u64, u64> = (0..1000).map(|i| (i, i)).collect();
        assert!(full.heap_bytes_fast() > empty.heap_bytes_fast());
        assert!(full.heap_bytes_fast() >= 1000 * 16);
    }
}
