//! Runtime collections: one type dispatching to the Table I
//! implementations, selected from the static type annotation, and the
//! runtime enumeration tables.
//!
//! The heap's interface is register bits. Every keyed kernel takes its
//! key and value as an [`Arg`] (a register's `u64` bits, or a boxed
//! `str` or tuple) and returns one, so the executor moves results
//! straight into registers. A collection whose keys and values are all
//! of register kinds stores raw bits; one holding a `str` or tuple
//! stores boxed [`Value`]s. The static type fixes which at allocation,
//! and with it the kinds a register operand is boxed by on meeting boxed
//! storage. Each kernel is written once, generic over the stored
//! element ([`Elem`]).

use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use ade_collections::fx::FxHasher;
use ade_collections::{
    BitMap, ChainedHashMap, ChainedHashSet, DynamicBitSet, FlatSet, SparseBitSet, SwissMap,
    SwissSet,
};
use ade_ir::{MapSel, SetSel, Type};

use crate::stats::{CollOp, ImplKind};
use crate::trap::{TrapKind, ENC_SENTINEL};
use crate::value::{Kind, Value};

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

/// A heap operand or result, as a frame slot holds it.
#[derive(Clone, Copy, Debug)]
pub enum Arg<'a> {
    /// The bits of a register kind.
    Bits(u64),
    /// A `str` or tuple.
    Boxed(&'a Value),
}

impl Arg<'_> {
    /// The register bits: a dense key, a sequence index or a register
    /// result.
    #[inline]
    pub fn bits(self) -> u64 {
        match self {
            Arg::Bits(b) => b,
            Arg::Boxed(v) => v.bits(),
        }
    }
}

/// What a backend stores: register bits, or boxed values in a collection
/// of `str` or tuples. Hashing and equality agree across the two (see
/// [`seed`]), so both iterate in the same order.
pub(crate) trait Elem: Clone + Debug + Default + Eq + Hash + Ord {
    /// Runs `f` on `arg`, a value of static kind `kind`, as a stored
    /// element.
    fn with<R>(arg: Arg<'_>, kind: Kind, f: impl FnOnce(&Self) -> R) -> R;

    /// The element as a heap result.
    fn arg(&self) -> Arg<'_>;

    /// The element mapped into (`to_flat`) or out of its [`FlatSet`]
    /// form, whose order is [`Value`]'s.
    fn flat(self, kind: Kind, to_flat: bool) -> Self;

    /// `arg`, a value of static kind `kind`, as an owned element.
    #[inline]
    fn own(arg: Arg<'_>, kind: Kind) -> Self {
        Self::with(arg, kind, Self::clone)
    }
}

impl Elem for u64 {
    #[inline]
    fn with<R>(arg: Arg<'_>, _: Kind, f: impl FnOnce(&u64) -> R) -> R {
        f(&arg.bits())
    }

    #[inline]
    fn arg(&self) -> Arg<'_> {
        Arg::Bits(*self)
    }

    /// Unsigned order of the mapped bits is `Value`'s: signed for `i64`,
    /// `total_cmp` for `f64` (a negative double's bits all flip, a
    /// positive one's sign bit sets).
    fn flat(self, kind: Kind, to_flat: bool) -> u64 {
        const SIGN: u64 = 1 << 63;
        match kind {
            Kind::I64 => self ^ SIGN,
            Kind::F64 if (self & SIGN != 0) == to_flat => !self,
            Kind::F64 => self ^ SIGN,
            _ => self,
        }
    }
}

impl Elem for Value {
    #[inline]
    fn with<R>(arg: Arg<'_>, kind: Kind, f: impl FnOnce(&Value) -> R) -> R {
        match arg {
            Arg::Boxed(v) => f(v),
            Arg::Bits(b) => f(&Value::from_bits(kind, b)),
        }
    }

    #[inline]
    fn arg(&self) -> Arg<'_> {
        match self {
            Value::Str(_) | Value::Tuple(_) => Arg::Boxed(self),
            v => Arg::Bits(v.bits()),
        }
    }

    fn flat(self, _: Kind, _: bool) -> Value {
        self
    }
}

/// The FxHash state after a [`Value`] of register kind `kind` has hashed
/// its discriminant. A hash table of raw bits of that kind starts every
/// key's hash here, so each key hashes exactly as its boxed `Value`
/// does, and the table iterates in the boxed table's order.
pub(crate) fn seed(kind: Kind) -> u64 {
    let mut h = FxHasher::default();
    std::mem::discriminant(&Value::from_bits(kind, 0)).hash(&mut h);
    h.finish()
}

/// One Table I implementation, storing `E`s.
#[derive(Clone)]
enum Imp<E> {
    Seq(Vec<E>),
    HashSet(ChainedHashSet<E>),
    SwissSet(SwissSet<E>),
    FlatSet(FlatSet<E>),
    BitSet(DynamicBitSet),
    SparseBitSet(SparseBitSet),
    HashMap(ChainedHashMap<E, E>),
    SwissMap(SwissMap<E, E>),
    BitMap(BitMap<E>),
}

/// Storage of register bits, or of boxed values.
#[derive(Clone, Debug)]
enum Flavor<B, V> {
    Bits(B),
    Boxed(V),
}

/// Runs `$body` with `$x` bound to the storage of either flavor.
macro_rules! on_flavor {
    ($storage:expr, $x:ident => $body:expr) => {
        match $storage {
            Flavor::Bits($x) => $body,
            Flavor::Boxed($x) => $body,
        }
    };
}

/// A runtime collection: its implementation, and the static kinds of its
/// keys (a sequence's are `u64` indices) and values (a set's are
/// `void`).
#[derive(Clone)]
pub struct Collection {
    imp: Flavor<Imp<u64>, Imp<Value>>,
    key: Kind,
    val: Kind,
}

impl Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.kind_label(), self.len())
    }
}

/// A key bound for a dense-implementation *insert* (or upsert): the `enc`
/// sentinel must never materialize as a stored element — the invariant a
/// correct ADE compilation maintains, and the trap a broken one raises.
#[inline]
fn dense_key(key: Arg<'_>) -> Result<usize, TrapKind> {
    let i = key.bits() as usize;
    if i == ENC_SENTINEL {
        return Err(TrapKind::SentinelInsert);
    }
    Ok(i)
}

/// A sequence index past the end of a sequence of `len` elements.
#[cold]
fn out_of_bounds(index: u64, len: usize) -> TrapKind {
    TrapKind::OutOfBounds { index, len }
}

/// An operation reached an implementation that cannot perform it, which
/// the verifier rules out.
#[cold]
fn unsupported(op: &str, on: ImplKind) -> ! {
    unreachable!("{op} on {on:?}: the verifier types every collection operand")
}

impl<E: Elem> Imp<E> {
    /// The implementation `ty` selects, `defaults` resolving `Auto`; a
    /// hash table's keys hash from `seed`.
    fn new(ty: &Type, defaults: SelectionDefaults, seed: u64) -> Imp<E> {
        match ty {
            Type::Set { sel, .. } => {
                let sel = if *sel == SetSel::Auto {
                    defaults.set
                } else {
                    *sel
                };
                match sel {
                    SetSel::Auto | SetSel::Hash => Imp::HashSet(ChainedHashSet::with_seed(seed)),
                    SetSel::Swiss => Imp::SwissSet(SwissSet::with_seed(seed)),
                    SetSel::Flat => Imp::FlatSet(FlatSet::new()),
                    SetSel::Bit => Imp::BitSet(DynamicBitSet::new()),
                    SetSel::SparseBit => Imp::SparseBitSet(SparseBitSet::new()),
                }
            }
            Type::Map { sel, .. } => {
                let sel = if *sel == MapSel::Auto {
                    defaults.map
                } else {
                    *sel
                };
                match sel {
                    MapSel::Auto | MapSel::Hash => Imp::HashMap(ChainedHashMap::with_seed(seed)),
                    MapSel::Swiss => Imp::SwissMap(SwissMap::with_seed(seed)),
                    MapSel::Bit => Imp::BitMap(BitMap::new()),
                }
            }
            _ => Imp::Seq(Vec::new()),
        }
    }

    /// The implementation kind, and its backend labels storing boxed
    /// values and register bits ([`Collection::kind_label`]).
    fn labels(&self) -> (ImplKind, &'static str, &'static str) {
        match self {
            Imp::Seq(_) => (ImplKind::Seq, "seq", "unboxed_seq"),
            Imp::HashSet(_) => (ImplKind::HashSet, "hash_set", "unboxed_hash_set"),
            Imp::SwissSet(_) => (ImplKind::SwissSet, "swiss_set", "unboxed_swiss_set"),
            Imp::FlatSet(_) => (ImplKind::FlatSet, "flat_set", "unboxed_flat_set"),
            Imp::BitSet(_) => (ImplKind::BitSet, "bit_set", "bit_set"),
            Imp::SparseBitSet(_) => (ImplKind::SparseBitSet, "sparse_bit_set", "sparse_bit_set"),
            Imp::HashMap(_) => (ImplKind::HashMap, "hash_map", "unboxed_hash_map"),
            Imp::SwissMap(_) => (ImplKind::SwissMap, "swiss_map", "unboxed_swiss_map"),
            Imp::BitMap(_) => (ImplKind::BitMap, "bit_map", "unboxed_bit_map"),
        }
    }

    fn len(&self) -> usize {
        match self {
            Imp::Seq(s) => s.len(),
            Imp::HashSet(s) => s.len(),
            Imp::SwissSet(s) => s.len(),
            Imp::FlatSet(s) => s.len(),
            Imp::BitSet(s) => s.len(),
            Imp::SparseBitSet(s) => s.len(),
            Imp::HashMap(m) => m.len(),
            Imp::SwissMap(m) => m.len(),
            Imp::BitMap(m) => m.len(),
        }
    }

    /// The footprint estimate, every element priced at the boxed width
    /// whatever is stored: the memory figures are calibrated against the
    /// boxed layouts, and capacity grows alike at both widths.
    fn bytes_estimate(&self) -> usize {
        match self {
            Imp::Seq(s) => s.capacity() * size_of::<Value>(),
            Imp::HashSet(s) => s.heap_bytes_fast_as(size_of::<(Value, ())>()),
            Imp::SwissSet(s) => s.heap_bytes_fast_as(size_of::<Option<(Value, ())>>()),
            Imp::FlatSet(s) => s.heap_bytes_fast_as(size_of::<Value>()),
            Imp::BitSet(s) => s.heap_bytes_fast(),
            Imp::SparseBitSet(s) => s.heap_bytes_fast(),
            Imp::HashMap(m) => m.heap_bytes_fast_as(size_of::<(Value, Value)>()),
            Imp::SwissMap(m) => m.heap_bytes_fast_as(size_of::<Option<(Value, Value)>>()),
            Imp::BitMap(m) => m.heap_bytes_fast_as(size_of::<Value>()),
        }
    }

    /// Machine words an iteration scans beyond the yielded elements:
    /// none for element-at-a-time implementations, the occupancy
    /// structure for bit arrays, and a hash or swiss table's slot array
    /// at 8 slots per word.
    fn iter_scan_words(&self) -> u64 {
        (match self {
            Imp::BitSet(s) => s.universe() / 64,
            Imp::SparseBitSet(_) | Imp::BitMap(_) => self.bytes_estimate() / 8,
            Imp::HashSet(_) | Imp::SwissSet(_) | Imp::HashMap(_) | Imp::SwissMap(_) => {
                self.bytes_estimate() / 64
            }
            Imp::Seq(_) | Imp::FlatSet(_) => 0,
        }) as u64
    }

    #[inline]
    fn has(&self, key: Arg<'_>, kind: Kind) -> bool {
        match self {
            Imp::HashSet(s) => E::with(key, kind, |k| s.contains(k)),
            Imp::SwissSet(s) => E::with(key, kind, |k| s.contains(k)),
            Imp::FlatSet(s) => s.contains(&E::own(key, kind).flat(kind, true)),
            Imp::BitSet(s) => s.contains(key.bits() as usize),
            Imp::SparseBitSet(s) => s.contains(key.bits() as usize),
            Imp::HashMap(m) => E::with(key, kind, |k| m.contains_key(k)),
            Imp::SwissMap(m) => E::with(key, kind, |k| m.contains_key(k)),
            Imp::BitMap(m) => m.contains_key(key.bits() as usize),
            Imp::Seq(_) => unsupported("has", ImplKind::Seq),
        }
    }

    #[inline]
    fn read(&self, key: Arg<'_>, kind: Kind) -> Option<Arg<'_>> {
        let v = match self {
            Imp::Seq(s) => s.get(key.bits() as usize),
            Imp::BitMap(m) => m.get(key.bits() as usize),
            Imp::HashMap(m) => E::with(key, kind, |k| m.get(k)),
            Imp::SwissMap(m) => E::with(key, kind, |k| m.get(k)),
            other => unsupported("read", other.labels().0),
        };
        v.map(E::arg)
    }

    #[inline]
    fn write(&mut self, key: Arg<'_>, val: E, kind: Kind) -> Result<(), TrapKind> {
        match self {
            Imp::Seq(s) => {
                let i = key.bits();
                if i as usize >= s.len() {
                    return Err(out_of_bounds(i, s.len()));
                }
                s[i as usize] = val;
            }
            Imp::HashMap(m) => drop(m.insert(E::own(key, kind), val)),
            Imp::SwissMap(m) => drop(m.insert(E::own(key, kind), val)),
            Imp::BitMap(m) => drop(m.insert(dense_key(key)?, val)),
            other => unsupported("write", other.labels().0),
        }
        Ok(())
    }

    #[inline]
    fn insert(&mut self, elem: Arg<'_>, kind: Kind) -> Result<bool, TrapKind> {
        Ok(match self {
            Imp::HashSet(s) => s.insert(E::own(elem, kind)),
            Imp::SwissSet(s) => s.insert(E::own(elem, kind)),
            Imp::FlatSet(s) => s.insert(E::own(elem, kind).flat(kind, true)),
            Imp::BitSet(s) => s.insert(dense_key(elem)?),
            Imp::SparseBitSet(s) => s.insert(dense_key(elem)?),
            other => unsupported("set insert", other.labels().0),
        })
    }

    #[inline]
    fn insert_at(&mut self, index: usize, val: E) -> Result<(), TrapKind> {
        let Imp::Seq(s) = self else {
            unsupported("seq insert", self.labels().0)
        };
        if index > s.len() {
            return Err(out_of_bounds(index as u64, s.len()));
        }
        if index == s.len() {
            s.push(val);
        } else {
            s.insert(index, val);
        }
        Ok(())
    }

    #[inline]
    fn remove(&mut self, key: Arg<'_>, kind: Kind) -> Result<(), TrapKind> {
        match self {
            Imp::Seq(s) => {
                let i = key.bits();
                if i as usize >= s.len() {
                    return Err(out_of_bounds(i, s.len()));
                }
                s.remove(i as usize);
            }
            Imp::HashSet(s) => drop(E::with(key, kind, |k| s.remove(k))),
            Imp::SwissSet(s) => drop(E::with(key, kind, |k| s.remove(k))),
            Imp::FlatSet(s) => drop(s.remove(&E::own(key, kind).flat(kind, true))),
            Imp::BitSet(s) => drop(s.remove(key.bits() as usize)),
            Imp::SparseBitSet(s) => drop(s.remove(key.bits() as usize)),
            Imp::HashMap(m) => drop(E::with(key, kind, |k| m.remove(k))),
            Imp::SwissMap(m) => drop(E::with(key, kind, |k| m.remove(k))),
            Imp::BitMap(m) => drop(m.remove(key.bits() as usize)),
        }
        Ok(())
    }

    fn clear(&mut self) {
        match self {
            Imp::Seq(s) => s.clear(),
            Imp::HashSet(s) => s.clear(),
            Imp::SwissSet(s) => s.clear(),
            Imp::FlatSet(s) => s.clear(),
            Imp::BitSet(s) => s.clear(),
            Imp::SparseBitSet(s) => s.clear(),
            Imp::HashMap(m) => m.clear(),
            Imp::SwissMap(m) => m.clear(),
            Imp::BitMap(m) => m.clear(),
        }
    }

    /// See [`Collection::union_merge`].
    fn merge(&mut self, src: &Imp<E>) -> Option<(CollOp, u64)> {
        Some(match (self, src) {
            (Imp::BitSet(d), Imp::BitSet(s)) => {
                let words = (d.universe().max(s.universe()) / 64) as u64;
                d.union_with(s);
                (CollOp::UnionWord, words)
            }
            (Imp::SparseBitSet(d), Imp::SparseBitSet(s)) => {
                let words = (s.heap_bytes_fast() / 8) as u64;
                d.union_with(s);
                (CollOp::UnionWord, words.max(1))
            }
            (Imp::FlatSet(d), Imp::FlatSet(s)) => {
                let elems = (d.len() + s.len()) as u64;
                d.union_with(s);
                (CollOp::UnionElem, elems)
            }
            _ => return None,
        })
    }

    /// Calls `f` on every `(key, value)` entry in the implementation's
    /// order: a sequence's are `(index, element)`, a set's values are 0.
    fn for_each(&self, kind: Kind, mut f: impl FnMut(Arg<'_>, Arg<'_>)) {
        let none = Arg::Bits(0);
        match self {
            Imp::Seq(s) => s
                .iter()
                .enumerate()
                .for_each(|(i, v)| f(Arg::Bits(i as u64), v.arg())),
            Imp::HashSet(s) => s.iter().for_each(|k| f(k.arg(), none)),
            Imp::SwissSet(s) => s.iter().for_each(|k| f(k.arg(), none)),
            Imp::FlatSet(s) => s
                .iter()
                .for_each(|k| f(k.clone().flat(kind, false).arg(), none)),
            Imp::BitSet(s) => s.iter().for_each(|i| f(Arg::Bits(i as u64), none)),
            Imp::SparseBitSet(s) => s.iter().for_each(|i| f(Arg::Bits(i as u64), none)),
            Imp::HashMap(m) => m.iter().for_each(|(k, v)| f(k.arg(), v.arg())),
            Imp::SwissMap(m) => m.iter().for_each(|(k, v)| f(k.arg(), v.arg())),
            Imp::BitMap(m) => m.iter().for_each(|(i, v)| f(Arg::Bits(i as u64), v.arg())),
        }
    }
}

impl Collection {
    /// Allocates the implementation selected by `ty`, `defaults`
    /// resolving empty selections. Register-kind keys and values are
    /// stored as raw bits; a collection holding a `str` or tuple stores
    /// boxed values.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a collection type.
    pub fn new_for(ty: &Type, defaults: SelectionDefaults) -> Collection {
        let (key, val) = match ty {
            Type::Seq(elem) => (Kind::U64, Kind::of(elem)),
            Type::Set { elem, .. } => (Kind::of(elem), Kind::Void),
            Type::Map { key, val, .. } => (Kind::of(key), Kind::of(val)),
            other => panic!("cannot allocate non-collection type {other}"),
        };
        let imp = if key == Kind::Boxed || val == Kind::Boxed {
            Flavor::Boxed(Imp::new(ty, defaults, 0))
        } else {
            Flavor::Bits(Imp::new(ty, defaults, seed(key)))
        };
        Collection { imp, key, val }
    }

    /// The backend's physical-layout label, by which a run counts its
    /// allocations ([`crate::RunCounts::backends`]): the implementation,
    /// prefixed `unboxed_` when it stores register bits (bit sets store
    /// raw indices either way).
    pub fn kind_label(&self) -> &'static str {
        match &self.imp {
            Flavor::Bits(i) => i.labels().2,
            Flavor::Boxed(i) => i.labels().1,
        }
    }

    /// Which implementation this is (for statistics and cost modeling).
    /// Storing bits is a physical-representation choice, not a Table I
    /// implementation, so both flavors report the same kind.
    pub fn impl_kind(&self) -> ImplKind {
        on_flavor!(&self.imp, i => i.labels().0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        on_flavor!(&self.imp, i => i.len())
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant-time-ish heap footprint estimate (see the collection
    /// crate's `heap_bytes_fast` methods), at the boxed element widths.
    pub fn bytes_estimate(&self) -> usize {
        on_flavor!(&self.imp, i => i.bytes_estimate())
    }

    /// Machine words an iteration must scan beyond the yielded elements
    /// (zero for element-at-a-time implementations; the whole occupancy
    /// structure for bit-array implementations).
    pub fn iter_scan_words(&self) -> u64 {
        on_flavor!(&self.imp, i => i.iter_scan_words())
    }

    /// Membership test (sets and maps). The `enc` sentinel is a member
    /// of no collection, so probing for it is well-defined (`false`).
    #[inline]
    pub fn has(&self, key: Arg<'_>) -> bool {
        on_flavor!(&self.imp, i => i.has(key, self.key))
    }

    /// Keyed/indexed read (maps and sequences).
    ///
    /// # Errors
    ///
    /// [`TrapKind::MissingKey`]/[`TrapKind::OutOfBounds`] when the key is
    /// absent (undefined behavior in the paper's semantics).
    #[inline]
    pub fn read(&self, key: Arg<'_>) -> Result<Arg<'_>, TrapKind> {
        on_flavor!(&self.imp, i => i.read(key, self.key)).ok_or_else(|| self.absent(key))
    }

    /// The trap of a read of the absent `key`.
    #[cold]
    fn absent(&self, key: Arg<'_>) -> TrapKind {
        if self.impl_kind() == ImplKind::Seq {
            return out_of_bounds(key.bits(), self.len());
        }
        TrapKind::MissingKey {
            key: Value::with(key, self.key, Value::to_string),
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
    pub fn write(&mut self, key: Arg<'_>, val: Arg<'_>) -> Result<(), TrapKind> {
        let (kind, vk) = (self.key, self.val);
        on_flavor!(&mut self.imp, i => i.write(key, Elem::own(val, vk), kind))
    }

    /// Set-element insertion. Returns `true` if newly added.
    ///
    /// # Errors
    ///
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense set.
    #[inline]
    pub fn insert(&mut self, elem: Arg<'_>) -> Result<bool, TrapKind> {
        on_flavor!(&mut self.imp, i => i.insert(elem, self.key))
    }

    /// Sequence insertion at `index` (appends when `index == len`).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] past the end.
    #[inline]
    pub fn insert_at(&mut self, index: usize, val: Arg<'_>) -> Result<(), TrapKind> {
        on_flavor!(&mut self.imp, i => i.insert_at(index, Elem::own(val, self.val)))
    }

    /// Removes a key/element/index. Like `has`, removal is a membership
    /// probe: the `enc` sentinel may flow here (and removes nothing).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] on out-of-bounds sequence removals.
    pub fn remove(&mut self, key: Arg<'_>) -> Result<(), TrapKind> {
        on_flavor!(&mut self.imp, i => i.remove(key, self.key))
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        on_flavor!(&mut self.imp, i => i.clear());
    }

    /// Calls `f` on every `(key, value)` entry in the implementation's
    /// order (a sequence's are `(index, element)`, a set's values are
    /// 0): what a `foreach` binds, with no entry boxed that is not boxed
    /// in storage.
    pub fn for_each(&self, f: impl FnMut(Arg<'_>, Arg<'_>)) {
        on_flavor!(&self.imp, i => i.for_each(self.key, f));
    }

    /// `union` as one merge, when `src` is the same dense or flat
    /// implementation: the op and count it charges this collection. `None`
    /// (nothing done) leaves the element-wise union to the caller.
    pub(crate) fn union_merge(&mut self, src: &Collection) -> Option<(CollOp, u64)> {
        match (&mut self.imp, &src.imp) {
            (Flavor::Bits(d), Flavor::Bits(s)) => d.merge(s),
            (Flavor::Boxed(d), Flavor::Boxed(s)) => d.merge(s),
            _ => None,
        }
    }
}

/// One enumeration class at run time: the paper's `Enum = (Enc, Dec)`
/// pair (§III-B), populated on the fly, over keys of one static kind,
/// stored as the collections store them.
#[derive(Debug)]
pub(crate) struct Enumeration {
    tables: Flavor<EnumTables<u64>, EnumTables<Value>>,
    kind: Kind,
    /// The byte estimate the heap total last counted.
    pub(crate) cached_bytes: usize,
}

#[derive(Debug)]
struct EnumTables<E> {
    enc: SwissMap<E, usize>,
    dec: Vec<E>,
}

impl<E: Elem> EnumTables<E> {
    fn new(seed: u64) -> EnumTables<E> {
        EnumTables {
            enc: SwissMap::with_seed(seed),
            dec: Vec::new(),
        }
    }

    #[inline]
    fn enc(&self, key: Arg<'_>, kind: Kind) -> Option<usize> {
        E::with(key, kind, |k| self.enc.get(k).copied())
    }

    #[inline]
    fn dec(&self, id: usize) -> Result<Arg<'_>, TrapKind> {
        let len = self.dec.len();
        self.dec
            .get(id)
            .map(E::arg)
            .ok_or_else(|| out_of_bounds(id as u64, len))
    }

    fn add(&mut self, key: Arg<'_>, kind: Kind) -> usize {
        let key = E::own(key, kind);
        let id = self.dec.len();
        self.enc.insert(key.clone(), id);
        self.dec.push(key);
        id
    }

    /// The footprint estimate, priced at the boxed widths as collections
    /// are.
    fn bytes_estimate(&self) -> usize {
        self.enc
            .heap_bytes_fast_as(size_of::<Option<(Value, usize)>>())
            + self.dec.capacity() * size_of::<Value>()
    }
}

impl Enumeration {
    /// An empty enumeration of keys of static kind `kind`.
    pub(crate) fn new(kind: Kind) -> Enumeration {
        let tables = match kind {
            Kind::Boxed => Flavor::Boxed(EnumTables::new(0)),
            kind => Flavor::Bits(EnumTables::new(seed(kind))),
        };
        Enumeration {
            tables,
            kind,
            cached_bytes: 0,
        }
    }

    /// The identifier of `key`, if it has one.
    #[inline]
    pub(crate) fn enc(&self, key: Arg<'_>) -> Option<usize> {
        on_flavor!(&self.tables, t => t.enc(key, self.kind))
    }

    /// The key identifier `id` stands for.
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] for an identifier never issued.
    #[inline]
    pub(crate) fn dec(&self, id: usize) -> Result<Arg<'_>, TrapKind> {
        on_flavor!(&self.tables, t => t.dec(id))
    }

    /// Issues the next identifier to `key`, which has none.
    pub(crate) fn add(&mut self, key: Arg<'_>) -> usize {
        on_flavor!(&mut self.tables, t => t.add(key, self.kind))
    }

    /// Constant-time heap footprint estimate.
    pub(crate) fn bytes_estimate(&self) -> usize {
        on_flavor!(&self.tables, t => t.bytes_estimate())
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

    /// The collection of type `ty` storing boxed values whatever its
    /// kinds: the storage reference a collection of register bits is
    /// diffed against.
    fn boxed_for(ty: &Type) -> Collection {
        let bits = Collection::new_for(ty, SelectionDefaults::default());
        Collection {
            imp: Flavor::Boxed(Imp::new(ty, SelectionDefaults::default(), 0)),
            ..bits
        }
    }

    /// Every entry, keys and values as their register bits.
    fn entries(c: &Collection) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        c.for_each(|k, v| out.push((k.bits(), v.bits())));
        out
    }

    const fn idx(i: u64) -> Arg<'static> {
        Arg::Bits(i)
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
            assert!(s.insert(idx(5)).expect("a set"));
            assert!(!s.insert(idx(5)).expect("a set"));
            assert!(s.has(idx(5)));
            assert!(!s.has(idx(6)));
            assert_eq!(s.len(), 1);
            s.remove(idx(5)).expect("a set");
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
            m.write(idx(3), Arg::Bits(0)).expect("a map");
            assert_eq!(m.read(idx(3)).map(Arg::bits), Ok(0));
            m.write(idx(3), Arg::Bits(9)).expect("a map");
            assert_eq!(m.read(idx(3)).map(Arg::bits), Ok(9), "{sel:?}");
            assert_eq!(
                m.read(idx(4)).map(Arg::bits),
                Err(TrapKind::MissingKey { key: "#4".into() }),
                "{sel:?}"
            );
        }
    }

    #[test]
    fn seq_ops() {
        let mut s = Collection::new_for(&Type::seq(Type::U64), SelectionDefaults::default());
        s.insert_at(0, Arg::Bits(1)).expect("in range");
        s.insert_at(1, Arg::Bits(3)).expect("in range");
        s.insert_at(1, Arg::Bits(2)).expect("in range");
        assert_eq!(s.len(), 3);
        assert_eq!(s.read(Arg::Bits(1)).map(Arg::bits), Ok(2));
        s.write(Arg::Bits(0), Arg::Bits(10)).expect("in range");
        assert_eq!(s.read(Arg::Bits(0)).map(Arg::bits), Ok(10));
        assert_eq!(entries(&s)[2], (2, 3));
        let past = TrapKind::OutOfBounds { index: 3, len: 3 };
        assert_eq!(s.read(Arg::Bits(3)).map(Arg::bits), Err(past.clone()));
        assert_eq!(s.write(Arg::Bits(3), Arg::Bits(0)), Err(past.clone()));
        assert_eq!(s.remove(Arg::Bits(3)), Err(past));
        assert!(s.insert_at(4, Arg::Bits(0)).is_err());
    }

    #[test]
    fn bitset_snapshot_ascending() {
        let mut s = set_of(SetSel::Bit);
        s.insert(idx(9)).expect("a set");
        s.insert(idx(2)).expect("a set");
        assert_eq!(entries(&s), vec![(2, 0), (9, 0)]);
        assert!(s.iter_scan_words() >= 1);
    }

    #[test]
    fn bytes_estimate_tracks_growth() {
        let mut s = set_of(SetSel::Bit);
        let before = s.bytes_estimate();
        s.insert(idx(100_000)).expect("a set");
        assert!(s.bytes_estimate() > before);
    }

    /// Every implementation storing register bits, collection-valued ones
    /// included, stays observationally identical to its twin storing
    /// boxed values — same reported implementation kind, same entries in
    /// the same order (iteration order included), same byte estimate and
    /// scan words — across an op history long enough to trigger bucket
    /// growth and `Vec` reallocation.
    #[test]
    fn unboxed_twins_are_observationally_identical() {
        let swiss = SelectionDefaults {
            set: SetSel::Swiss,
            map: MapSel::Swiss,
        };
        let coll = || Type::seq(Type::U64);
        let tys = [
            Type::seq(Type::U64),
            Type::seq(Type::set(Type::U64)),
            Type::set_with(Type::I64, SetSel::Hash),
            Type::set_with(Type::F64, SetSel::Swiss),
            Type::set_with(Type::I64, SetSel::Flat),
            Type::set_with(Type::F64, SetSel::Flat),
            Type::map_with(Type::U64, Type::U64, MapSel::Hash),
            Type::map_with(Type::U64, coll(), MapSel::Hash),
            Type::map_with(Type::Bool, Type::F64, MapSel::Swiss),
            Type::map_with(Type::Idx, coll(), MapSel::Swiss),
            Type::map_with(Type::Idx, Type::U64, MapSel::Bit),
            Type::map_with(Type::U64, coll(), MapSel::Bit),
        ];
        for ty in tys {
            let mut boxed = boxed_for(&ty);
            let mut unboxed = Collection::new_for(&ty, swiss);
            assert!(unboxed.kind_label().starts_with("unboxed_"), "{ty:?}");
            assert_eq!(boxed.impl_kind(), unboxed.impl_kind(), "{ty:?}");
            // Keys of every sign (f64 -0.0 and NaN among them), as a
            // register of the key kind holds them.
            let key = |x: u64| {
                let k = x.wrapping_sub(32).rotate_left(63);
                match &ty {
                    Type::Map {
                        sel: MapSel::Bit, ..
                    } => k % 97,
                    Type::Map { key, .. } if **key == Type::Bool => k & 1,
                    _ => k,
                }
            };
            for target in [&mut boxed, &mut unboxed] {
                for i in 0..100u64 {
                    // A mix that exercises growth, overwrite and removal.
                    let k = key((i * 7) % 64);
                    match &ty {
                        // Collection handles are 32 bits wide.
                        Type::Seq(e) if e.is_collection() => {
                            target.insert_at(target.len(), Arg::Bits(i))
                        }
                        Type::Seq(_) => target.insert_at(target.len(), Arg::Bits(k)),
                        Type::Set { .. } => target.insert(Arg::Bits(k)).map(drop),
                        _ => target.write(Arg::Bits(k), Arg::Bits(i)),
                    }
                    .expect("in range");
                }
                match &ty {
                    Type::Seq(_) => target.remove(Arg::Bits(7)),
                    _ => target.remove(Arg::Bits(key(14))),
                }
                .expect("removable");
            }
            assert_eq!(boxed.len(), unboxed.len(), "{ty:?}");
            assert_eq!(entries(&boxed), entries(&unboxed), "{ty:?} iteration order");
            assert_eq!(
                boxed.bytes_estimate(),
                unboxed.bytes_estimate(),
                "{ty:?} byte accounting"
            );
            assert_eq!(boxed.iter_scan_words(), unboxed.iter_scan_words(), "{ty:?}");
        }
    }

    /// A typed enumeration prices its tables as the boxed `Value` tables
    /// did: a swiss `enc` map of `(Value, usize)` slots and a `dec`
    /// vector of `Value`s.
    #[test]
    fn typed_enumeration_bytes_match_value_tables() {
        let mut typed = Enumeration::new(Kind::U64);
        let mut enc: SwissMap<Value, usize> = SwissMap::new();
        let mut dec: Vec<Value> = Vec::new();
        for i in 0..200u64 {
            let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(typed.add(Arg::Bits(k)), dec.len());
            enc.insert(Value::U64(k), dec.len());
            dec.push(Value::U64(k));
            assert_eq!(
                typed.bytes_estimate(),
                enc.heap_bytes_fast() + dec.capacity() * size_of::<Value>(),
                "after {i} adds"
            );
        }
        assert_eq!(typed.enc(Arg::Bits(0)), Some(0));
        assert_eq!(typed.dec(1).map(Arg::bits), Ok(0x9e37_79b9_7f4a_7c15));
        assert!(typed.dec(200).is_err());
    }

    /// The `enc` sentinel must never reach a dense insert — both storage
    /// flavors trap alike, while membership probes observe clean
    /// absence.
    #[test]
    fn unboxed_dense_backends_keep_the_sentinel_discipline() {
        let ty = Type::map_with(Type::Idx, Type::U64, MapSel::Bit);
        for mut m in [
            boxed_for(&ty),
            Collection::new_for(&ty, SelectionDefaults::default()),
        ] {
            let sentinel = Arg::Bits(ENC_SENTINEL as u64);
            assert!(matches!(
                m.write(sentinel, Arg::Bits(1)),
                Err(TrapKind::SentinelInsert),
            ));
            assert!(!m.has(sentinel), "the probe tolerates the sentinel");
        }
    }

    /// `Vec`'s growth policy is element-size independent in the small
    /// element class, so a sequence of register bits priced at the boxed
    /// width (`Imp::bytes_estimate`) reports exactly its boxed twin's
    /// capacity trajectory. The twin test above exercises it end to end;
    /// this one isolates the claim.
    #[test]
    fn capacity_trajectories_match_across_element_widths() {
        let mut boxed: Vec<Value> = Vec::new();
        let mut unboxed: Vec<u64> = Vec::new();
        for i in 0..1000u64 {
            boxed.push(Value::U64(i));
            unboxed.push(i);
            assert_eq!(
                boxed.capacity(),
                unboxed.capacity(),
                "capacity diverged at push {i}"
            );
        }
    }
}
