//! Runtime collections: one enum dispatching to the Table I
//! implementations, selected from the static type annotation.

use ade_collections::{
    ArraySeq, BitMap, ChainedHashMap, ChainedHashSet, DynamicBitSet, FlatSet, SparseBitSet,
    SwissMap, SwissSet,
};
use ade_ir::{MapSel, SetSel, Type};

use crate::stats::ImplKind;
use crate::trap::{TrapKind, ENC_SENTINEL};
use crate::value::{ScalarVal, Value};

/// Handle into the interpreter's collection heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollId(pub u32);

/// Defaults used for `Auto` (empty) selections: this knob realizes the
/// evaluation's `memoir` (hash defaults) versus `memoir-abseil` (swiss
/// defaults) configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectionDefaults {
    /// Implementation for `Set{•}`.
    pub set: SetSel,
    /// Implementation for `Map{•}`.
    pub map: MapSel,
}

impl Default for SelectionDefaults {
    fn default() -> Self {
        Self {
            set: SetSel::Hash,
            map: MapSel::Hash,
        }
    }
}

/// A runtime collection.
#[derive(Clone, Debug)]
pub enum Collection {
    /// Resizeable array sequence.
    Seq(ArraySeq<Value>),
    /// Chained hash set.
    HashSet(ChainedHashSet<Value>),
    /// Swiss-table set.
    SwissSet(SwissSet<Value>),
    /// Sorted-array set.
    FlatSet(FlatSet<Value>),
    /// Dense bitset (enumerated keys).
    BitSet(DynamicBitSet),
    /// Roaring-style compressed bitset (enumerated keys).
    SparseBitSet(SparseBitSet),
    /// Chained hash map.
    HashMap(ChainedHashMap<Value, Value>),
    /// Swiss-table map.
    SwissMap(SwissMap<Value, Value>),
    /// Dense bitmap (enumerated keys).
    BitMap(BitMap<Value>),
    /// [`Collection::Seq`] with unboxed scalar elements.
    ///
    /// The unboxed variants are pure physical-representation swaps: the
    /// same backend code instantiated at [`ScalarVal`] instead of
    /// [`Value`], picked by [`Collection::new_for`] when the static
    /// element/key type is scalar. They report the boxed twin's
    /// [`ImplKind`] and byte accounting, so statistics, modeled cost,
    /// and the memory figures cannot tell the difference — only wall
    /// time can.
    UnboxedSeq(ArraySeq<ScalarVal>),
    /// [`Collection::HashSet`] with unboxed scalar elements. Same
    /// hash/eq as the boxed twin (see [`ScalarVal`]), hence the same
    /// bucket order.
    UnboxedHashSet(ChainedHashSet<ScalarVal>),
    /// [`Collection::HashMap`] with unboxed scalar keys and values.
    UnboxedHashMap(ChainedHashMap<ScalarVal, ScalarVal>),
    /// [`Collection::BitMap`] with unboxed scalar values.
    UnboxedBitMap(BitMap<ScalarVal>),
}

/// Whether a static element/key type can be stored unboxed.
fn unboxable(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Bool | Type::U64 | Type::I64 | Type::F64 | Type::Idx
    )
}

/// Packs a key or element of an unboxed backend, whose static type the
/// verifier has checked to be scalar.
#[inline]
fn unbox(value: &Value) -> ScalarVal {
    ScalarVal::from_value(value).unwrap_or_else(|| {
        unreachable!("expected a scalar, got {value:?}: the verifier types unboxed operands scalar")
    })
}

/// An operation reached an implementation that cannot perform it, which
/// the verifier rules out.
#[cold]
fn unsupported(op: &str, on: &Collection) -> ! {
    unreachable!(
        "{op} on {:?}: the verifier types every collection operand",
        on.impl_kind()
    )
}

impl Collection {
    /// Allocates the implementation selected by `ty` (with `defaults`
    /// resolving empty selections). When the static element/key/value
    /// types are scalar, the chained-hash, sequence, and dense-map
    /// backends store packed [`ScalarVal`]s instead of boxed [`Value`]s;
    /// the boxed variants remain the general fallback (and the
    /// swiss/flat/bit backends are unaffected — the bit sets already
    /// store raw indices).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a collection type.
    pub fn new_for(ty: &Type, defaults: SelectionDefaults) -> Collection {
        match ty {
            Type::Seq(elem) if unboxable(elem) => Collection::UnboxedSeq(ArraySeq::new()),
            Type::Seq(_) => Collection::Seq(ArraySeq::new()),
            Type::Set { elem, sel } => {
                let sel = if *sel == SetSel::Auto {
                    defaults.set
                } else {
                    *sel
                };
                match sel {
                    SetSel::Auto | SetSel::Hash if unboxable(elem) => {
                        Collection::UnboxedHashSet(ChainedHashSet::new())
                    }
                    SetSel::Auto | SetSel::Hash => Collection::HashSet(ChainedHashSet::new()),
                    SetSel::Swiss => Collection::SwissSet(SwissSet::new()),
                    SetSel::Flat => Collection::FlatSet(FlatSet::new()),
                    SetSel::Bit => Collection::BitSet(DynamicBitSet::new()),
                    SetSel::SparseBit => Collection::SparseBitSet(SparseBitSet::new()),
                }
            }
            Type::Map { key, val, sel } => {
                let sel = if *sel == MapSel::Auto {
                    defaults.map
                } else {
                    *sel
                };
                match sel {
                    MapSel::Auto | MapSel::Hash if unboxable(key) && unboxable(val) => {
                        Collection::UnboxedHashMap(ChainedHashMap::new())
                    }
                    MapSel::Auto | MapSel::Hash => Collection::HashMap(ChainedHashMap::new()),
                    MapSel::Swiss => Collection::SwissMap(SwissMap::new()),
                    MapSel::Bit if unboxable(val) => Collection::UnboxedBitMap(BitMap::new()),
                    MapSel::Bit => Collection::BitMap(BitMap::new()),
                }
            }
            other => panic!("cannot allocate non-collection type {other}"),
        }
    }

    /// The instantiated backend's physical-layout label, for the
    /// `exec_backend_selected_total{kind=…}` metric. Unlike
    /// [`Collection::impl_kind`], this *does* distinguish the unboxed
    /// twins from their boxed fallbacks — the metric
    /// exists to observe which physical layouts a run instantiated.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Collection::Seq(_) => "seq",
            Collection::HashSet(_) => "hash_set",
            Collection::SwissSet(_) => "swiss_set",
            Collection::FlatSet(_) => "flat_set",
            Collection::BitSet(_) => "bit_set",
            Collection::SparseBitSet(_) => "sparse_bit_set",
            Collection::HashMap(_) => "hash_map",
            Collection::SwissMap(_) => "swiss_map",
            Collection::BitMap(_) => "bit_map",
            Collection::UnboxedSeq(_) => "unboxed_seq",
            Collection::UnboxedHashSet(_) => "unboxed_hash_set",
            Collection::UnboxedHashMap(_) => "unboxed_hash_map",
            Collection::UnboxedBitMap(_) => "unboxed_bit_map",
        }
    }

    /// Which implementation this is (for statistics and cost modeling).
    pub fn impl_kind(&self) -> ImplKind {
        match self {
            Collection::Seq(_) => ImplKind::Seq,
            Collection::HashSet(_) => ImplKind::HashSet,
            Collection::SwissSet(_) => ImplKind::SwissSet,
            Collection::FlatSet(_) => ImplKind::FlatSet,
            Collection::BitSet(_) => ImplKind::BitSet,
            Collection::SparseBitSet(_) => ImplKind::SparseBitSet,
            Collection::HashMap(_) => ImplKind::HashMap,
            Collection::SwissMap(_) => ImplKind::SwissMap,
            Collection::BitMap(_) => ImplKind::BitMap,
            // Unboxing is a physical-representation choice, not a Table I
            // implementation: report the boxed twin's kind so statistics
            // and modeled cost are keyed identically.
            Collection::UnboxedSeq(_) => ImplKind::Seq,
            Collection::UnboxedHashSet(_) => ImplKind::HashSet,
            Collection::UnboxedHashMap(_) => ImplKind::HashMap,
            Collection::UnboxedBitMap(_) => ImplKind::BitMap,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Collection::Seq(s) => s.len(),
            Collection::HashSet(s) => s.len(),
            Collection::SwissSet(s) => s.len(),
            Collection::FlatSet(s) => s.len(),
            Collection::BitSet(s) => s.len(),
            Collection::SparseBitSet(s) => s.len(),
            Collection::HashMap(m) => m.len(),
            Collection::SwissMap(m) => m.len(),
            Collection::BitMap(m) => m.len(),
            Collection::UnboxedSeq(s) => s.len(),
            Collection::UnboxedHashSet(s) => s.len(),
            Collection::UnboxedHashMap(m) => m.len(),
            Collection::UnboxedBitMap(m) => m.len(),
        }
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant-time-ish heap footprint estimate (see the collection
    /// crate's `heap_bytes_fast` methods).
    pub fn bytes_estimate(&self) -> usize {
        match self {
            Collection::Seq(s) => s.heap_bytes_fast(),
            Collection::HashSet(s) => s.heap_bytes_fast(),
            Collection::SwissSet(s) => s.heap_bytes_fast(),
            Collection::FlatSet(s) => s.heap_bytes_fast(),
            Collection::BitSet(s) => s.heap_bytes_fast(),
            Collection::SparseBitSet(s) => s.heap_bytes_fast(),
            Collection::HashMap(m) => m.heap_bytes_fast(),
            Collection::SwissMap(m) => m.heap_bytes_fast(),
            Collection::BitMap(m) => m.heap_bytes_fast(),
            // Unboxed backends price their footprint at the boxed entry
            // width: the figures' memory accounting is calibrated
            // against the boxed layouts, and the backends' capacity
            // trajectories are identical at both widths, so the boxed
            // and unboxed runs report byte-identical sizes.
            Collection::UnboxedSeq(s) => s.heap_bytes_fast_as(std::mem::size_of::<Value>()),
            Collection::UnboxedHashSet(s) => {
                s.heap_bytes_fast_as(std::mem::size_of::<(Value, ())>())
            }
            Collection::UnboxedHashMap(m) => {
                m.heap_bytes_fast_as(std::mem::size_of::<(Value, Value)>())
            }
            Collection::UnboxedBitMap(m) => m.heap_bytes_fast_as(std::mem::size_of::<Value>()),
        }
    }

    /// Membership test (sets and maps). The `enc` sentinel is a member
    /// of no collection, so probing for it is well-defined (`false`).
    #[inline]
    pub fn has(&self, key: &Value) -> bool {
        match self {
            Collection::HashSet(s) => s.contains(key),
            Collection::SwissSet(s) => s.contains(key),
            Collection::FlatSet(s) => s.contains(key),
            Collection::BitSet(s) => s.contains(key.as_index()),
            Collection::SparseBitSet(s) => s.contains(key.as_index()),
            Collection::HashMap(m) => m.contains_key(key),
            Collection::SwissMap(m) => m.contains_key(key),
            Collection::BitMap(m) => m.contains_key(key.as_index()),
            Collection::UnboxedHashSet(s) => s.contains(&unbox(key)),
            Collection::UnboxedHashMap(m) => m.contains_key(&unbox(key)),
            Collection::UnboxedBitMap(m) => m.contains_key(key.as_index()),
            other => unsupported("has", other),
        }
    }

    /// Keyed/indexed read (maps and sequences).
    ///
    /// # Errors
    ///
    /// [`TrapKind::MissingKey`]/[`TrapKind::OutOfBounds`] when the key is
    /// absent (undefined behavior in the paper's semantics).
    #[inline]
    pub fn try_read(&self, key: &Value) -> Result<Value, TrapKind> {
        let absent = || TrapKind::MissingKey {
            key: key.to_string(),
        };
        match self {
            Collection::Seq(s) => {
                let i = key.as_u64();
                s.get(i as usize).cloned().ok_or(TrapKind::OutOfBounds {
                    index: i,
                    len: s.len(),
                })
            }
            Collection::HashMap(m) => m.get(key).cloned().ok_or_else(absent),
            Collection::SwissMap(m) => m.get(key).cloned().ok_or_else(absent),
            Collection::BitMap(m) => m.get(key.as_index()).cloned().ok_or_else(absent),
            Collection::UnboxedSeq(s) => {
                let i = key.as_u64();
                s.get(i as usize)
                    .map(|v| v.to_value())
                    .ok_or(TrapKind::OutOfBounds {
                        index: i,
                        len: s.len(),
                    })
            }
            Collection::UnboxedHashMap(m) => {
                m.get(&unbox(key)).map(|v| v.to_value()).ok_or_else(absent)
            }
            Collection::UnboxedBitMap(m) => m
                .get(key.as_index())
                .map(|v| v.to_value())
                .ok_or_else(absent),
            other => unsupported("read", other),
        }
    }

    /// Keyed/indexed write (upsert for maps; in-bounds store for
    /// sequences).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] on out-of-bounds sequence indices;
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense map.
    #[inline]
    pub fn try_write(&mut self, key: &Value, value: Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => {
                let i = key.as_u64();
                if i as usize >= s.len() {
                    return Err(TrapKind::OutOfBounds {
                        index: i,
                        len: s.len(),
                    });
                }
                s.set(i as usize, value);
            }
            Collection::HashMap(m) => {
                m.insert(key.clone(), value);
            }
            Collection::SwissMap(m) => {
                m.insert(key.clone(), value);
            }
            Collection::BitMap(m) => {
                m.insert(Self::dense_key(key)?, value);
            }
            Collection::UnboxedSeq(s) => {
                let i = key.as_u64();
                if i as usize >= s.len() {
                    return Err(TrapKind::OutOfBounds {
                        index: i,
                        len: s.len(),
                    });
                }
                s.set(i as usize, unbox(&value));
            }
            Collection::UnboxedHashMap(m) => {
                m.insert(unbox(key), unbox(&value));
            }
            Collection::UnboxedBitMap(m) => {
                m.insert(Self::dense_key(key)?, unbox(&value));
            }
            other => unsupported("write", other),
        }
        Ok(())
    }

    /// Set-element insertion. Returns `true` if newly added.
    ///
    /// # Errors
    ///
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense set.
    #[inline]
    pub fn try_insert_elem(&mut self, value: Value) -> Result<bool, TrapKind> {
        Ok(match self {
            Collection::HashSet(s) => s.insert(value),
            Collection::SwissSet(s) => s.insert(value),
            Collection::FlatSet(s) => s.insert(value),
            Collection::BitSet(s) => s.insert(Self::dense_key(&value)?),
            Collection::SparseBitSet(s) => s.insert(Self::dense_key(&value)?),
            Collection::UnboxedHashSet(s) => s.insert(unbox(&value)),
            other => unsupported("set insert", other),
        })
    }

    /// Map-key insertion: default-initializes the slot if absent.
    ///
    /// # Errors
    ///
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense map.
    pub fn try_insert_key_default(&mut self, key: &Value, default: Value) -> Result<(), TrapKind> {
        match self {
            Collection::HashMap(m) => {
                if !m.contains_key(key) {
                    m.insert(key.clone(), default);
                }
            }
            Collection::SwissMap(m) => {
                if !m.contains_key(key) {
                    m.insert(key.clone(), default);
                }
            }
            Collection::BitMap(m) => {
                let i = Self::dense_key(key)?;
                if !m.contains_key(i) {
                    m.insert(i, default);
                }
            }
            Collection::UnboxedHashMap(m) => {
                let k = unbox(key);
                if !m.contains_key(&k) {
                    m.insert(k, unbox(&default));
                }
            }
            Collection::UnboxedBitMap(m) => {
                let i = Self::dense_key(key)?;
                if !m.contains_key(i) {
                    m.insert(i, unbox(&default));
                }
            }
            other => unsupported("map insert", other),
        }
        Ok(())
    }

    /// Sequence insertion at `index` (appends when `index == len`).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] past the end.
    #[inline]
    pub fn try_insert_seq(&mut self, index: usize, value: Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => {
                if index == s.len() {
                    s.push(value);
                } else if index < s.len() {
                    s.insert(index, value);
                } else {
                    return Err(TrapKind::OutOfBounds {
                        index: index as u64,
                        len: s.len(),
                    });
                }
                Ok(())
            }
            Collection::UnboxedSeq(s) => {
                if index > s.len() {
                    return Err(TrapKind::OutOfBounds {
                        index: index as u64,
                        len: s.len(),
                    });
                }
                let v = unbox(&value);
                if index == s.len() {
                    s.push(v);
                } else {
                    s.insert(index, v);
                }
                Ok(())
            }
            other => unsupported("seq insert", other),
        }
    }

    /// Removes a key/element/index. Like `has`, removal is a membership
    /// probe: the `enc` sentinel may flow here (and removes nothing).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] on out-of-bounds sequence removals.
    pub fn try_remove(&mut self, key: &Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => {
                let i = key.as_u64();
                if i as usize >= s.len() {
                    return Err(TrapKind::OutOfBounds {
                        index: i,
                        len: s.len(),
                    });
                }
                s.remove(i as usize);
            }
            Collection::HashSet(s) => {
                s.remove(key);
            }
            Collection::SwissSet(s) => {
                s.remove(key);
            }
            Collection::FlatSet(s) => {
                s.remove(key);
            }
            Collection::BitSet(s) => {
                s.remove(key.as_index());
            }
            Collection::SparseBitSet(s) => {
                s.remove(key.as_index());
            }
            Collection::HashMap(m) => {
                m.remove(key);
            }
            Collection::SwissMap(m) => {
                m.remove(key);
            }
            Collection::BitMap(m) => {
                m.remove(key.as_index());
            }
            Collection::UnboxedSeq(s) => {
                let i = key.as_u64();
                if i as usize >= s.len() {
                    return Err(TrapKind::OutOfBounds {
                        index: i,
                        len: s.len(),
                    });
                }
                s.remove(i as usize);
            }
            Collection::UnboxedHashSet(s) => {
                s.remove(&unbox(key));
            }
            Collection::UnboxedHashMap(m) => {
                m.remove(&unbox(key));
            }
            Collection::UnboxedBitMap(m) => {
                m.remove(key.as_index());
            }
        }
        Ok(())
    }

    /// A key bound for a dense-implementation *insert* (or upsert): the
    /// `enc` sentinel must never materialize as a stored element — the
    /// invariant a correct ADE compilation maintains, and the trap a
    /// broken one raises.
    fn dense_key(key: &Value) -> Result<usize, TrapKind> {
        let i = key.as_index();
        if i == ENC_SENTINEL {
            return Err(TrapKind::SentinelInsert);
        }
        Ok(i)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        match self {
            Collection::Seq(s) => s.clear(),
            Collection::HashSet(s) => s.clear(),
            Collection::SwissSet(s) => s.clear(),
            Collection::FlatSet(s) => s.clear(),
            Collection::BitSet(s) => s.clear(),
            Collection::SparseBitSet(s) => s.clear(),
            Collection::HashMap(m) => m.clear(),
            Collection::SwissMap(m) => m.clear(),
            Collection::BitMap(m) => m.clear(),
            Collection::UnboxedSeq(s) => s.clear(),
            Collection::UnboxedHashSet(s) => s.clear(),
            Collection::UnboxedHashMap(m) => m.clear(),
            Collection::UnboxedBitMap(m) => m.clear(),
        }
    }

    /// Snapshot of `(key, value)` pairs for iteration, in the
    /// implementation's order (sets yield `(elem, Void)`; sequences yield
    /// `(index, elem)`).
    pub fn snapshot(&self) -> Vec<(Value, Value)> {
        match self {
            Collection::Seq(s) => s
                .iter()
                .enumerate()
                .map(|(i, v)| (Value::U64(i as u64), v.clone()))
                .collect(),
            Collection::HashSet(s) => s.iter().map(|v| (v.clone(), Value::Void)).collect(),
            Collection::SwissSet(s) => s.iter().map(|v| (v.clone(), Value::Void)).collect(),
            Collection::FlatSet(s) => s.iter().map(|v| (v.clone(), Value::Void)).collect(),
            Collection::BitSet(s) => s.iter().map(|i| (Value::Idx(i), Value::Void)).collect(),
            Collection::SparseBitSet(s) => s.iter().map(|i| (Value::Idx(i), Value::Void)).collect(),
            Collection::HashMap(m) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            Collection::SwissMap(m) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            Collection::BitMap(m) => m.iter().map(|(k, v)| (Value::Idx(k), v.clone())).collect(),
            Collection::UnboxedSeq(s) => s
                .iter()
                .enumerate()
                .map(|(i, v)| (Value::U64(i as u64), v.to_value()))
                .collect(),
            Collection::UnboxedHashSet(s) => {
                s.iter().map(|v| (v.to_value(), Value::Void)).collect()
            }
            Collection::UnboxedHashMap(m) => m
                .iter()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
            Collection::UnboxedBitMap(m) => m
                .iter()
                .map(|(k, v)| (Value::Idx(k), v.to_value()))
                .collect(),
        }
    }

    /// Machine words an iteration must scan beyond the yielded elements
    /// (zero for element-at-a-time implementations; the whole occupancy
    /// structure for bit-array implementations).
    pub fn iter_scan_words(&self) -> u64 {
        match self {
            Collection::BitSet(s) => (s.universe() / 64) as u64,
            Collection::SparseBitSet(s) => (s.heap_bytes_fast() / 8) as u64,
            Collection::BitMap(m) => (m.heap_bytes_fast() / 8) as u64,
            // Hash/swiss tables scan their slot arrays too; charge words
            // proportional to capacity over 8 slots per word equivalent.
            Collection::HashSet(s) => (s.heap_bytes_fast() / 64) as u64,
            Collection::SwissSet(s) => (s.heap_bytes_fast() / 64) as u64,
            Collection::HashMap(m) => (m.heap_bytes_fast() / 64) as u64,
            Collection::SwissMap(m) => (m.heap_bytes_fast() / 64) as u64,
            // Unboxed twins charge from the boxed-width estimate so the
            // IterWord counts (and hence modeled time) match the boxed
            // run exactly.
            Collection::UnboxedBitMap(_) => (self.bytes_estimate() / 8) as u64,
            Collection::UnboxedHashSet(_) | Collection::UnboxedHashMap(_) => {
                (self.bytes_estimate() / 64) as u64
            }
            Collection::Seq(_) | Collection::UnboxedSeq(_) | Collection::FlatSet(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(sel: SetSel) -> Collection {
        Collection::new_for(
            &Type::set_with(Type::Idx, sel),
            SelectionDefaults::default(),
        )
    }

    /// The boxed backend behind a scalar-typed hash/sequence/dense-map
    /// type: the storage reference its unboxed twin is diffed against.
    fn boxed_for(ty: &Type) -> Collection {
        match ty {
            Type::Seq(_) => Collection::Seq(ArraySeq::new()),
            Type::Set { .. } => Collection::HashSet(ChainedHashSet::new()),
            Type::Map {
                sel: MapSel::Bit, ..
            } => Collection::BitMap(BitMap::new()),
            Type::Map { .. } => Collection::HashMap(ChainedHashMap::new()),
            other => panic!("no boxed twin for {other}"),
        }
    }

    #[test]
    fn selection_drives_implementation() {
        assert_eq!(set_of(SetSel::Hash).impl_kind(), ImplKind::HashSet);
        assert_eq!(set_of(SetSel::Swiss).impl_kind(), ImplKind::SwissSet);
        assert_eq!(set_of(SetSel::Flat).impl_kind(), ImplKind::FlatSet);
        assert_eq!(set_of(SetSel::Bit).impl_kind(), ImplKind::BitSet);
        assert_eq!(
            set_of(SetSel::SparseBit).impl_kind(),
            ImplKind::SparseBitSet
        );
        let m = Collection::new_for(
            &Type::map_with(Type::Idx, Type::U64, MapSel::Bit),
            SelectionDefaults::default(),
        );
        assert_eq!(m.impl_kind(), ImplKind::BitMap);
    }

    #[test]
    fn auto_uses_defaults() {
        let swiss_default = SelectionDefaults {
            set: SetSel::Swiss,
            map: MapSel::Swiss,
        };
        let s = Collection::new_for(&Type::set(Type::U64), swiss_default);
        assert_eq!(s.impl_kind(), ImplKind::SwissSet);
        let m = Collection::new_for(&Type::map(Type::U64, Type::U64), swiss_default);
        assert_eq!(m.impl_kind(), ImplKind::SwissMap);
    }

    #[test]
    fn set_ops_across_impls() {
        for sel in [
            SetSel::Hash,
            SetSel::Swiss,
            SetSel::Flat,
            SetSel::Bit,
            SetSel::SparseBit,
        ] {
            let mut s = set_of(sel);
            assert!(s.try_insert_elem(Value::Idx(5)).expect("a set"));
            assert!(!s.try_insert_elem(Value::Idx(5)).expect("a set"));
            assert!(s.has(&Value::Idx(5)));
            assert!(!s.has(&Value::Idx(6)));
            assert_eq!(s.len(), 1);
            s.try_remove(&Value::Idx(5)).expect("a set");
            assert!(s.is_empty(), "{sel:?}");
        }
    }

    #[test]
    fn map_ops_across_impls() {
        for sel in [MapSel::Hash, MapSel::Swiss, MapSel::Bit] {
            let mut m = Collection::new_for(
                &Type::map_with(Type::Idx, Type::U64, sel),
                SelectionDefaults::default(),
            );
            m.try_insert_key_default(&Value::Idx(3), Value::U64(0))
                .expect("a map");
            assert_eq!(m.try_read(&Value::Idx(3)), Ok(Value::U64(0)));
            m.try_write(&Value::Idx(3), Value::U64(9)).expect("a map");
            assert_eq!(m.try_read(&Value::Idx(3)), Ok(Value::U64(9)));
            // insert on existing key must not reset the value
            m.try_insert_key_default(&Value::Idx(3), Value::U64(0))
                .expect("a map");
            assert_eq!(m.try_read(&Value::Idx(3)), Ok(Value::U64(9)), "{sel:?}");
        }
    }

    #[test]
    fn seq_ops() {
        let mut s = Collection::new_for(&Type::seq(Type::U64), SelectionDefaults::default());
        s.try_insert_seq(0, Value::U64(1)).expect("in range");
        s.try_insert_seq(1, Value::U64(3)).expect("in range");
        s.try_insert_seq(1, Value::U64(2)).expect("in range");
        assert_eq!(s.len(), 3);
        assert_eq!(s.try_read(&Value::U64(1)), Ok(Value::U64(2)));
        s.try_write(&Value::U64(0), Value::U64(10))
            .expect("in range");
        assert_eq!(s.try_read(&Value::U64(0)), Ok(Value::U64(10)));
        let snap = s.snapshot();
        assert_eq!(snap[2], (Value::U64(2), Value::U64(3)));
    }

    #[test]
    fn bitset_snapshot_ascending() {
        let mut s = set_of(SetSel::Bit);
        s.try_insert_elem(Value::Idx(9)).expect("a set");
        s.try_insert_elem(Value::Idx(2)).expect("a set");
        let keys: Vec<Value> = s.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Value::Idx(2), Value::Idx(9)]);
        assert!(s.iter_scan_words() >= 1);
    }

    #[test]
    fn bytes_estimate_tracks_growth() {
        let mut s = set_of(SetSel::Bit);
        let before = s.bytes_estimate();
        s.try_insert_elem(Value::Idx(100_000)).expect("a set");
        assert!(s.bytes_estimate() > before);
    }

    /// Every scalar-typed collection flavor selects the unboxed backend,
    /// and it stays observationally identical to its boxed twin —
    /// same reported implementation kind, same snapshot (iteration
    /// order included), same byte estimate — across an op history long
    /// enough to trigger bucket growth and `Vec` reallocation.
    #[test]
    fn unboxed_twins_are_observationally_identical() {
        let defaults = SelectionDefaults::default();
        let tys = [
            Type::seq(Type::U64),
            Type::set_with(Type::U64, SetSel::Hash),
            Type::map_with(Type::U64, Type::U64, MapSel::Hash),
            Type::map_with(Type::Idx, Type::U64, MapSel::Bit),
        ];
        for ty in tys {
            let mut boxed = boxed_for(&ty);
            let mut unboxed = Collection::new_for(&ty, defaults);
            assert!(unboxed.kind_label().starts_with("unboxed_"), "{ty:?}");
            assert_eq!(boxed.impl_kind(), unboxed.impl_kind(), "{ty:?}");
            for target in [&mut boxed, &mut unboxed] {
                for i in 0..100u64 {
                    // A mix that exercises growth, overwrite and removal.
                    let k = (i * 7) % 64;
                    match &ty {
                        Type::Seq(_) => target.try_insert_seq(target.len(), Value::U64(k)),
                        Type::Set { .. } => target.try_insert_elem(Value::U64(k)).map(drop),
                        Type::Map { key, .. } if **key == Type::Idx => {
                            target.try_write(&Value::Idx(k as usize), Value::U64(i))
                        }
                        _ => target.try_write(&Value::U64(k), Value::U64(i)),
                    }
                    .expect("in range");
                }
                match &ty {
                    Type::Seq(_) => Ok(()),
                    Type::Map { key, .. } if **key == Type::Idx => {
                        target.try_remove(&Value::Idx(7))
                    }
                    _ => target.try_remove(&Value::U64(7)),
                }
                .expect("removable");
            }
            assert_eq!(boxed.len(), unboxed.len(), "{ty:?}");
            assert_eq!(
                boxed.snapshot(),
                unboxed.snapshot(),
                "{ty:?} iteration order"
            );
            assert_eq!(
                boxed.bytes_estimate(),
                unboxed.bytes_estimate(),
                "{ty:?} byte accounting"
            );
            assert_eq!(boxed.iter_scan_words(), unboxed.iter_scan_words(), "{ty:?}");
        }
    }

    /// The `enc` sentinel must never reach a dense insert — the unboxed
    /// dense backends trap exactly as their boxed twins do, while
    /// membership probes observe clean absence.
    #[test]
    fn unboxed_dense_backends_keep_the_sentinel_discipline() {
        let ty = Type::map_with(Type::Idx, Type::U64, MapSel::Bit);
        for mut m in [
            boxed_for(&ty),
            Collection::new_for(&ty, SelectionDefaults::default()),
        ] {
            let sentinel = Value::Idx(ENC_SENTINEL);
            assert!(matches!(
                m.try_write(&sentinel, Value::U64(1)),
                Err(TrapKind::SentinelInsert),
            ));
            assert!(!m.has(&sentinel), "the probe tolerates the sentinel");
        }
    }

    /// `Vec`'s growth policy is element-size independent in the small
    /// element class, so an unboxed backend priced via
    /// `heap_bytes_fast_as(boxed width)` reports exactly its boxed
    /// twin's capacity trajectory. This is the assumption behind
    /// `heap_bytes_fast_as` (see `ade_collections::seq`); the twin test
    /// above exercises it end-to-end, this one isolates the claim.
    #[test]
    fn capacity_trajectories_match_across_element_widths() {
        use crate::value::ScalarVal;
        let mut boxed: ade_collections::ArraySeq<Value> = ade_collections::ArraySeq::new();
        let mut unboxed: ade_collections::ArraySeq<ScalarVal> = ade_collections::ArraySeq::new();
        for i in 0..1000u64 {
            boxed.push(Value::U64(i));
            unboxed.push(ScalarVal::from_value(&Value::U64(i)).expect("scalar"));
            assert_eq!(
                boxed.heap_bytes_fast(),
                unboxed.heap_bytes_fast_as(std::mem::size_of::<Value>()),
                "capacity diverged at push {i}"
            );
        }
    }
}
