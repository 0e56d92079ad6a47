//! Swiss-table set and map: the `SwissSet`/`SwissMap` selections of
//! Table I, standing in for Abseil's `flat_hash_{set,map}`.
//!
//! The defining features of the swiss design are reproduced here:
//! open addressing into one contiguous slot array, a parallel array of
//! 1-byte control words holding 7 bits of hash (`h2`), and group-wise
//! probing that tests 8 control bytes per step with word-parallel (SWAR)
//! matching — so most probes never touch the slot array at all.

use std::fmt;
use std::hash::Hash;

use crate::fx::hash_seeded;

/// Control byte for an empty slot (high bit set).
const EMPTY: u8 = 0x80;
/// Control byte for a deleted slot (tombstone, high bit set).
const DELETED: u8 = 0xFE;
/// Probe group width in control bytes.
const GROUP: usize = 8;
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn h1(hash: u64) -> usize {
    hash as usize
}

#[inline]
fn h2(hash: u64) -> u8 {
    // Top 7 bits; high bit clear marks the slot FULL.
    ((hash >> 57) & 0x7f) as u8
}

/// Bitmask of bytes in `group` equal to `byte` (one bit per byte, in the
/// byte's high bit position).
///
/// Like all SWAR zero-byte detectors this may set *spurious* bits at
/// positions directly above a true match (borrow propagation); existence
/// is exact, and the lowest set bit is always a true match. Callers
/// filter candidates with a full key comparison, so false positives only
/// cost an extra probe — the same contract as hashbrown's portable group
/// match.
#[inline]
fn match_byte(group: u64, byte: u8) -> u64 {
    let x = group ^ (LO * u64::from(byte));
    x.wrapping_sub(LO) & !x & HI
}

/// Bitmask of bytes in `group` that are EMPTY or DELETED (high bit set).
#[inline]
fn match_nonfull(group: u64) -> u64 {
    group & HI
}

/// Bitmask of bytes in `group` that are exactly EMPTY.
#[inline]
fn match_empty(group: u64) -> u64 {
    match_byte(group, EMPTY)
}

/// A swiss-table hash map.
///
/// # Examples
///
/// ```
/// use ade_collections::SwissMap;
///
/// let mut m = SwissMap::new();
/// m.insert(10u64, "x");
/// assert_eq!(m.get(&10), Some(&"x"));
/// assert_eq!(m.remove(&10), Some("x"));
/// assert!(m.is_empty());
/// ```
#[derive(Clone)]
pub struct SwissMap<K, V> {
    /// Control bytes; `ctrl.len() == slots.len()` and is a multiple of
    /// [`GROUP`] (also a power of two), or 0 before first insert.
    ctrl: Vec<u8>,
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// Entries counted against the load factor: live + tombstones.
    growth_used: usize,
    /// The hasher state every key's hash starts from (see
    /// [`hash_seeded`]); 0 for a plain FxHash.
    seed: u64,
}

impl<K, V> Default for SwissMap<K, V> {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

impl<K, V> SwissMap<K, V> {
    /// Creates an empty map whose keys hash from `seed` (see
    /// [`hash_seeded`]).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            ctrl: Vec::new(),
            slots: Vec::new(),
            len: 0,
            growth_used: 0,
            seed,
        }
    }
}

impl<K: Hash + Eq, V> SwissMap<K, V> {
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

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.ctrl.iter_mut().for_each(|c| *c = EMPTY);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
        self.growth_used = 0;
    }

    #[inline]
    fn mask(&self) -> usize {
        self.ctrl.len() - 1
    }

    #[inline]
    fn group_at(&self, base: usize) -> u64 {
        // `base` is GROUP-aligned and ctrl.len() is a multiple of GROUP.
        u64::from_le_bytes(
            self.ctrl[base..base + GROUP]
                .try_into()
                .expect("aligned group"),
        )
    }

    /// Finds the slot holding `key`, if present.
    fn find(&self, key: &K, hash: u64) -> Option<usize> {
        if self.ctrl.is_empty() {
            return None;
        }
        let mask = self.mask();
        let tag = h2(hash);
        let mut base = h1(hash) & mask & !(GROUP - 1);
        let mut stride = 0;
        loop {
            let group = self.group_at(base);
            let mut candidates = match_byte(group, tag);
            while candidates != 0 {
                let byte = (candidates.trailing_zeros() / 8) as usize;
                let idx = base + byte;
                if let Some((k, _)) = &self.slots[idx] {
                    if k == key {
                        return Some(idx);
                    }
                }
                candidates &= candidates - 1;
            }
            if match_empty(group) != 0 {
                return None;
            }
            stride += GROUP;
            base = (base + stride) & mask & !(GROUP - 1);
            if stride > self.ctrl.len() {
                return None;
            }
        }
    }

    /// Finds the insertion slot for a key known to be absent.
    fn find_insert_slot(&self, hash: u64) -> usize {
        let mask = self.mask();
        let mut base = h1(hash) & mask & !(GROUP - 1);
        let mut stride = 0;
        loop {
            let group = self.group_at(base);
            let nonfull = match_nonfull(group);
            if nonfull != 0 {
                let byte = (nonfull.trailing_zeros() / 8) as usize;
                return base + byte;
            }
            stride += GROUP;
            base = (base + stride) & mask & !(GROUP - 1);
            debug_assert!(stride <= self.ctrl.len(), "table overfull");
        }
    }

    fn resize(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= GROUP);
        let old_slots = std::mem::take(&mut self.slots);
        self.ctrl = vec![EMPTY; new_cap];
        self.slots = (0..new_cap).map(|_| None).collect();
        self.growth_used = self.len;
        for entry in old_slots.into_iter().flatten() {
            let hash = hash_seeded(self.seed, &entry.0);
            let idx = self.find_insert_slot(hash);
            self.ctrl[idx] = h2(hash);
            self.slots[idx] = Some(entry);
        }
    }

    fn grow_if_needed(&mut self) {
        if self.ctrl.is_empty() {
            self.resize(GROUP * 2);
        } else if (self.growth_used + 1) * 8 > self.ctrl.len() * 7 {
            // Keep load (including tombstones) at or below 7/8.
            let target = if self.len * 2 >= self.growth_used {
                self.ctrl.len() * 2
            } else {
                // Mostly tombstones: rehash in place at the same size.
                self.ctrl.len()
            };
            self.resize(target);
        }
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let idx = self.find(key, hash_seeded(self.seed, key))?;
        self.slots[idx].as_ref().map(|(_, v)| v)
    }

    /// Returns `true` if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key, hash_seeded(self.seed, key)).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_seeded(self.seed, &key);
        if let Some(idx) = self.find(&key, hash) {
            let slot = self.slots[idx].as_mut().expect("found slot is full");
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.grow_if_needed();
        let idx = self.find_insert_slot(hash);
        if self.ctrl[idx] == EMPTY {
            self.growth_used += 1;
        }
        self.ctrl[idx] = h2(hash);
        self.slots[idx] = Some((key, value));
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.find(key, hash_seeded(self.seed, key))?;
        self.ctrl[idx] = DELETED;
        self.len -= 1;
        self.slots[idx].take().map(|(_, v)| v)
    }

    /// A constant-time estimate of the heap footprint: control bytes
    /// plus the slot array (element-owned heap data excluded).
    pub fn heap_bytes_fast(&self) -> usize {
        self.heap_bytes_fast_as(std::mem::size_of::<Option<(K, V)>>())
    }

    /// [`SwissMap::heap_bytes_fast`] priced as if each slot were
    /// `slot_bytes` wide, so a monomorphic instantiation can report its
    /// boxed twin's footprint (slot capacity depends on the entry count
    /// alone).
    pub fn heap_bytes_fast_as(&self, slot_bytes: usize) -> usize {
        self.ctrl.capacity() + self.slots.capacity() * slot_bytes
    }

    /// Iterates over `(key, value)` pairs in unspecified (but
    /// deterministic for a fixed history) order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SwissMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.slots.iter().flatten().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for SwissMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for SwissMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// A swiss-table hash set (a [`SwissMap`] with unit values).
///
/// # Examples
///
/// ```
/// use ade_collections::SwissSet;
///
/// let mut s = SwissSet::new();
/// assert!(s.insert(1u32));
/// assert!(s.contains(&1));
/// assert!(!s.insert(1));
/// ```
#[derive(Clone)]
pub struct SwissSet<T> {
    map: SwissMap<T, ()>,
}

impl<T> Default for SwissSet<T> {
    fn default() -> Self {
        Self {
            map: SwissMap::default(),
        }
    }
}

impl<T: Hash + Eq> SwissSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set whose elements hash from `seed` (see
    /// [`SwissMap::with_seed`]).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            map: SwissMap::with_seed(seed),
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
    /// [`SwissMap::heap_bytes_fast`]).
    pub fn heap_bytes_fast(&self) -> usize {
        self.map.heap_bytes_fast()
    }

    /// Footprint priced at a different slot width (see
    /// [`SwissMap::heap_bytes_fast_as`]).
    pub fn heap_bytes_fast_as(&self, slot_bytes: usize) -> usize {
        self.map.heap_bytes_fast_as(slot_bytes)
    }

    /// Iterates over the elements in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.iter().map(|(k, _)| k)
    }
}

impl<T: fmt::Debug> fmt::Debug for SwissSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.map.slots.iter().flatten().map(|(k, _)| k))
            .finish()
    }
}

impl<T: Hash + Eq> FromIterator<T> for SwissSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl<T: Hash + Eq> Extend<T> for SwissSet<T> {
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
    fn swar_match_byte_superset_contract() {
        let bytes = [1, 2, 3, 2, EMPTY, 2, 7, 8];
        let group = u64::from_le_bytes(bytes);
        let m = match_byte(group, 2);
        let positions: Vec<usize> = (0..8).filter(|i| m & (0x80 << (i * 8)) != 0).collect();
        // Every true match must be reported; spurious bits may only sit
        // directly above a true match (borrow propagation), and the lowest
        // reported position must be a true match.
        for want in [1, 3, 5] {
            assert!(positions.contains(&want), "missing true match {want}");
        }
        for &p in &positions {
            assert!(
                bytes[p] == 2 || (p > 0 && bytes[p - 1] == 2),
                "bad spurious bit {p}"
            );
        }
        assert_eq!(bytes[positions[0]], 2);
        // No matches at all -> zero mask (existence is exact).
        assert_eq!(match_byte(group, 9), 0);
    }

    #[test]
    fn swar_match_empty_ignores_deleted() {
        let group = u64::from_le_bytes([EMPTY, DELETED, 5, EMPTY, 0, 0, 0, 0]);
        let e = match_empty(group);
        let positions: Vec<usize> = (0..8).filter(|i| e & (0x80 << (i * 8)) != 0).collect();
        assert_eq!(positions, vec![0, 3]);
        let nf = match_nonfull(group);
        let positions: Vec<usize> = (0..8).filter(|i| nf & (0x80 << (i * 8)) != 0).collect();
        assert_eq!(positions, vec![0, 1, 3]);
    }

    #[test]
    fn insert_get_update_remove() {
        let mut m = SwissMap::new();
        assert_eq!(m.insert(1u64, 10u64), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(&11));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.get(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn many_inserts_and_lookups() {
        let mut m = SwissMap::new();
        for i in 0..20_000u64 {
            m.insert(i, i + 1);
        }
        assert_eq!(m.len(), 20_000);
        for i in 0..20_000u64 {
            assert_eq!(m.get(&i), Some(&(i + 1)), "key {i}");
        }
        assert_eq!(m.get(&20_000), None);
    }

    #[test]
    fn tombstones_do_not_break_probing() {
        let mut m = SwissMap::new();
        for i in 0..1000u64 {
            m.insert(i, i);
        }
        for i in (0..1000).step_by(2) {
            assert_eq!(m.remove(&i), Some(i));
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i).is_some(), i % 2 == 1, "key {i}");
        }
        // Re-insert into tombstoned territory.
        for i in (0..1000).step_by(2) {
            m.insert(i, i * 10);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&4), Some(&40));
    }

    #[test]
    fn churn_triggers_same_size_rehash() {
        let mut m = SwissMap::new();
        // Insert/remove cycles create tombstones without raising len.
        for round in 0..50u64 {
            for i in 0..100u64 {
                m.insert(round * 1000 + i, i);
            }
            for i in 0..100u64 {
                m.remove(&(round * 1000 + i));
            }
        }
        assert!(m.is_empty());
        m.insert(42, 42);
        assert_eq!(m.get(&42), Some(&42));
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut m: SwissMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let bytes = m.heap_bytes_fast();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        assert_eq!(m.heap_bytes_fast(), bytes);
    }

    #[test]
    fn set_wraps_map() {
        let mut s = SwissSet::new();
        for i in 0..100u32 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 100);
        assert!(s.contains(&99));
        assert!(s.remove(&99));
        assert!(!s.contains(&99));
        let collected: SwissSet<u32> = s.iter().copied().collect();
        assert_eq!(collected.len(), 99);
    }

    #[test]
    fn string_keys() {
        let mut m = SwissMap::new();
        m.insert("alpha".to_string(), 1);
        m.insert("beta".to_string(), 2);
        assert_eq!(m.get(&"alpha".to_string()), Some(&1));
        assert!(m.heap_bytes_fast() > 0);
    }
}
