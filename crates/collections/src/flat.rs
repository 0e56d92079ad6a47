//! Sorted-array set: the `FlatSet` selection of Table I.
//!
//! Stores only the items present (no key-universe storage), with `log n`
//! membership tests, `O(n)` inserts, cache-friendly ordered iteration and
//! linear merge-based set union — the implementation the paper's RQ4 case
//! study selects for the points-to analysis inner sets.

use std::fmt;

/// A set stored as a sorted, deduplicated array.
///
/// # Examples
///
/// ```
/// use ade_collections::FlatSet;
///
/// let mut s = FlatSet::new();
/// s.insert(5);
/// s.insert(1);
/// s.insert(5);
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 5]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FlatSet<T> {
    items: Vec<T>,
}

impl<T> Default for FlatSet<T> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<T: Ord> FlatSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Returns `true` if `value` is in the set (`O(log n)`).
    pub fn contains(&self, value: &T) -> bool {
        self.items.binary_search(value).is_ok()
    }

    /// Adds `value`, keeping the array sorted (`O(n)` shift on insert).
    /// Returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        match self.items.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, value);
                true
            }
        }
    }

    /// Removes `value`. Returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.items.binary_search(value) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Borrows the elements as a sorted slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Constant-time estimate of the heap footprint (array capacity;
    /// element-owned heap data excluded).
    pub fn heap_bytes_fast(&self) -> usize {
        self.heap_bytes_fast_as(std::mem::size_of::<T>())
    }

    /// [`FlatSet::heap_bytes_fast`] priced as if each element were
    /// `elem_bytes` wide. Valid because `Vec`'s growth policy does not
    /// depend on the element size within the small-element class (locked
    /// in by a test in `ade-interp`).
    pub fn heap_bytes_fast_as(&self, elem_bytes: usize) -> usize {
        self.items.capacity() * elem_bytes
    }
}

impl<T: Ord + Clone> FlatSet<T> {
    /// Adds every element of `other` with a single linear merge — the hot
    /// operation the paper's RQ4 case study exploits (Table III: 25–50×
    /// faster union than a hash set).
    pub fn union_with(&mut self, other: &FlatSet<T>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.items = other.items.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
        let mut a = self.items.iter();
        let mut b = other.items.iter();
        let (mut x, mut y) = (a.next(), b.next());
        loop {
            match (x, y) {
                (Some(va), Some(vb)) => match va.cmp(vb) {
                    std::cmp::Ordering::Less => {
                        merged.push(va.clone());
                        x = a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(vb.clone());
                        y = b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(va.clone());
                        x = a.next();
                        y = b.next();
                    }
                },
                (Some(va), None) => {
                    merged.push(va.clone());
                    merged.extend(a.cloned());
                    break;
                }
                (None, Some(vb)) => {
                    merged.push(vb.clone());
                    merged.extend(b.cloned());
                    break;
                }
                (None, None) => break,
            }
        }
        self.items = merged;
    }
}

impl<T: fmt::Debug> fmt::Debug for FlatSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: Ord> FromIterator<T> for FlatSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        Self { items }
    }
}

impl<T: Ord> Extend<T> for FlatSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a, T> IntoIterator for &'a FlatSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_dedup() {
        let mut s = FlatSet::new();
        for v in [9, 3, 7, 3, 1, 9] {
            s.insert(v);
        }
        assert_eq!(s.as_slice(), &[1, 3, 7, 9]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn contains_and_remove() {
        let mut s: FlatSet<u32> = [4, 8, 15, 16, 23, 42].into_iter().collect();
        assert!(s.contains(&15));
        assert!(!s.contains(&14));
        assert!(s.remove(&15));
        assert!(!s.remove(&15));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn from_iterator_sorts_and_dedups() {
        let s: FlatSet<i32> = [5, 5, 2, 9, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[2, 5, 9]);
    }

    #[test]
    fn union_merges_linear() {
        let mut a: FlatSet<u32> = [1, 3, 5].into_iter().collect();
        let b: FlatSet<u32> = [2, 3, 6].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.as_slice(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn union_with_empty_sides() {
        let mut a: FlatSet<u32> = FlatSet::new();
        let b: FlatSet<u32> = [1, 2].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.as_slice(), &[1, 2]);
        let empty = FlatSet::new();
        a.union_with(&empty);
        assert_eq!(a.as_slice(), &[1, 2]);
    }

    #[test]
    fn union_disjoint_tails() {
        let mut a: FlatSet<u32> = [10, 11].into_iter().collect();
        let b: FlatSet<u32> = [1, 2].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.as_slice(), &[1, 2, 10, 11]);
    }

    #[test]
    fn iteration_ascending() {
        let s: FlatSet<u32> = [3, 1, 2].into_iter().collect();
        let doubled: Vec<u32> = s.iter().map(|v| v * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }
}
