//! Collection implementations for automatic data enumeration (ADE).
//!
//! This crate provides from-scratch implementations of the collection
//! designs listed in Table I of *Automatic Data Enumeration for Fast
//! Collections* (CGO 2026). The sequence row is `std`'s growable `Vec`,
//! which the interpreter holds directly:
//!
//! | Type | Selection | This crate | Design |
//! |---|---|---|---|
//! | `Seq<T>` | `Array` | `Vec` (std) | resizeable array |
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
//! Every collection estimates its heap footprint in constant time with
//! `heap_bytes_fast`, and with `heap_bytes_fast_as`, which prices each
//! element at a given width. The estimates count capacity, not live
//! bytes, because allocated-but-unused slack is what resident-set
//! measurements observe. The interpreter sums `heap_bytes_fast_as` at
//! its boxed value widths to stand in for the paper's maximum resident
//! set size.
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
mod sparsebit;
mod swiss;

pub use bitmap::BitMap;
pub use bitset::DynamicBitSet;
pub use flat::FlatSet;
pub use hash::{ChainedHashMap, ChainedHashSet};
pub use sparsebit::SparseBitSet;
pub use swiss::{SwissMap, SwissSet};
