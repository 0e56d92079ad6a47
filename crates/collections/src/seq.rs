//! Resizeable array sequence: the `Seq<T>`/`Array` selection of Table I.
//!
//! A thin, instrumentable wrapper over a growable array providing the
//! MEMOIR sequence operations (indexed read/write, positional insert and
//! remove, append, iteration).

use std::fmt;

/// A sequence backed by a resizeable array.
///
/// # Examples
///
/// ```
/// use ade_collections::ArraySeq;
///
/// let mut s = ArraySeq::new();
/// s.push(10);
/// s.push(30);
/// s.insert(1, 20);
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
/// assert_eq!(s.remove(0), 10);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ArraySeq<T> {
    items: Vec<T>,
}

impl<T> Default for ArraySeq<T> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<T> ArraySeq<T> {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sequence with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the sequence contains no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Returns a reference to the element at `index`, if in bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index)
    }

    /// Returns a mutable reference to the element at `index`, if in
    /// bounds.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.items.get_mut(index)
    }

    /// Overwrites the element at `index`, returning the old value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&mut self, index: usize, value: T) -> T {
        std::mem::replace(&mut self.items[index], value)
    }

    /// Appends `value` to the end.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.items.push(value);
    }

    /// Removes and returns the last element, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop()
    }

    /// Inserts `value` at `index`, shifting later elements right (`O(n)`).
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        self.items.insert(index, value);
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements left (`O(n)`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        self.items.remove(index)
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Iterates mutably over the elements in index order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// Borrows the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Constant-time estimate of the heap footprint (array capacity;
    /// element-owned heap data excluded).
    pub fn heap_bytes_fast(&self) -> usize {
        self.heap_bytes_fast_as(std::mem::size_of::<T>())
    }

    /// [`ArraySeq::heap_bytes_fast`] priced as if each element were
    /// `elem_bytes` wide, so a monomorphic instantiation can report its
    /// boxed twin's footprint. Valid because `Vec`'s growth policy does
    /// not depend on the element size within the small-element class —
    /// the capacity trajectory for a given operation history is the
    /// same at both widths (locked in by a test in `ade-interp`).
    pub fn heap_bytes_fast_as(&self, elem_bytes: usize) -> usize {
        self.items.capacity() * elem_bytes
    }
}

impl<T: fmt::Debug> fmt::Debug for ArraySeq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<T> FromIterator<T> for ArraySeq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            items: iter.into_iter().collect(),
        }
    }
}

impl<T> Extend<T> for ArraySeq<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<'a, T> IntoIterator for &'a ArraySeq<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> IntoIterator for ArraySeq<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_pop() {
        let mut s = ArraySeq::new();
        s.push(1);
        s.push(2);
        assert_eq!(s.get(0), Some(&1));
        assert_eq!(s.set(0, 10), 1);
        assert_eq!(s.get(0), Some(&10));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(5), None);
    }

    #[test]
    fn positional_insert_remove_shift() {
        let mut s: ArraySeq<u32> = [1, 3].into_iter().collect();
        s.insert(1, 2);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.remove(0), 1);
        assert_eq!(s.as_slice(), &[2, 3]);
    }

    #[test]
    fn iter_mut_modifies() {
        let mut s: ArraySeq<u32> = [1, 2, 3].into_iter().collect();
        s.iter_mut().for_each(|v| *v *= 10);
        assert_eq!(s.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn into_iterator_forms() {
        let s: ArraySeq<u32> = [1, 2].into_iter().collect();
        let by_ref: Vec<u32> = (&s).into_iter().copied().collect();
        assert_eq!(by_ref, vec![1, 2]);
        let owned: Vec<u32> = s.into_iter().collect();
        assert_eq!(owned, vec![1, 2]);
    }
}
