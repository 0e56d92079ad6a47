//! Collection implementations for automatic data enumeration (ADE).
//!
//! This crate provides from-scratch implementations of every collection
//! design listed in Table I of *Automatic Data Enumeration for Fast
//! Collections* (CGO 2026):
//!
//! | Type | Selection | This crate | Design |
//! |---|---|---|---|
//! | `Seq<T>` | `Array` | [`ArraySeq`] | resizeable array |
//! | `Set<T>` | `HashSet` | [`ChainedHashSet`] | separate-chaining hash table |
//! | `Set<T>` | `FlatSet` | [`FlatSet`] | sorted array |
//! | `Set<T>` | `SwissSet` | [`SwissSet`] | open addressing with control bytes |
//! | `Set<T>` | `BitSet` | [`DynamicBitSet`] | contiguous, growable bit array |
//! | `Set<T>` | `SparseBitSet` | [`SparseBitSet`] | roaring-style hybrid containers |
//! | `Map<K,T>` | `HashMap` | [`ChainedHashMap`] | separate-chaining hash table |
//! | `Map<K,T>` | `SwissMap` | [`SwissMap`] | open addressing with control bytes |
//! | `Map<K,T>` | `BitMap` | [`BitMap`] | presence bits + dense value array |
//!
//! The *enumerated* implementations ([`DynamicBitSet`], [`SparseBitSet`],
//! [`BitMap`]) require keys drawn from a contiguous range `[0, N)` — the
//! property that data enumeration manufactures. The general-purpose
//! implementations accept arbitrary hashable/ordered keys.
//!
//! Every collection reports its heap footprint through [`HeapSize`], which
//! the execution substrate uses to reproduce the paper's maximum-resident-
//! set-size measurements.
//!
//! # Examples
//!
//! ```
//! use ade_collections::{DynamicBitSet, SwissSet};
//!
//! // A bitset over enumerated identifiers.
//! let mut dense = DynamicBitSet::new();
//! dense.insert(3);
//! dense.insert(100);
//! assert!(dense.contains(3) && !dense.contains(4));
//!
//! // A swiss-table set over arbitrary keys.
//! let mut sparse = SwissSet::new();
//! sparse.insert("foo");
//! assert!(sparse.contains(&"foo"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitmap;
mod bitset;
mod flat;
pub mod fx;
mod hash;
mod seq;
mod sparsebit;
mod swiss;

pub use bitmap::BitMap;
pub use bitset::DynamicBitSet;
pub use flat::FlatSet;
pub use hash::{ChainedHashMap, ChainedHashSet};
pub use seq::ArraySeq;
pub use sparsebit::SparseBitSet;
pub use swiss::{SwissMap, SwissSet};

/// Types that can report the number of heap bytes they own.
///
/// Used by the interpreter to account for collection storage, standing in
/// for the paper's `/usr/bin/time` maximum-resident-set-size measurements.
/// Implementations report *capacity* (allocated bytes), not live bytes,
/// because allocated-but-unused slack is exactly what resident-set
/// measurements observe.
pub trait HeapSize {
    /// Heap bytes owned by `self`, excluding `size_of::<Self>()` itself.
    fn heap_bytes(&self) -> usize;
}

impl HeapSize for () {
    fn heap_bytes(&self) -> usize {
        0
    }
}

macro_rules! heap_size_zero {
    ($($t:ty),*) => {
        $(impl HeapSize for $t {
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}
heap_size_zero!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize + ?Sized> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<T>(self) + (**self).heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_size_of_scalars_is_zero() {
        assert_eq!(5u32.heap_bytes(), 0);
        assert_eq!(1.5f64.heap_bytes(), 0);
    }

    #[test]
    fn heap_size_of_vec_counts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(v.heap_bytes(), 16 * 8);
    }

    #[test]
    fn heap_size_of_string_counts_capacity() {
        let s = String::from("hello");
        assert!(s.heap_bytes() >= 5);
    }

    #[test]
    fn heap_size_of_nested_vec_counts_elements() {
        let v = vec![vec![1u8, 2, 3], Vec::with_capacity(8)];
        assert!(v.heap_bytes() >= 3 + 8);
    }
}
