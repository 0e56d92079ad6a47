//! Runtime values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ade_ir::Type;

use crate::heap::CollId;

/// A runtime value.
///
/// Scalar values are self-contained; collections are handles into the
/// interpreter's heap (SSA collection updates mutate in place, which the
/// verifier's linearity check makes sound — the same lowering MEMOIR
/// itself performs).
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// No value.
    #[default]
    Void,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Double. Compared and hashed by bit pattern so values are usable as
    /// collection keys (the paper enumerates `f32` histogram keys).
    F64(f64),
    /// Immutable shared string.
    Str(Arc<str>),
    /// Enumeration identifier (dense, `[0, N)`).
    Idx(usize),
    /// Tuple of values.
    Tuple(Arc<[Value]>),
    /// Collection handle.
    Coll(CollId),
}

impl Value {
    // The accessors below read operands the verifier has typed, so a
    // mismatch is a host bug, never guest behaviour.

    /// The `u64` inside, or a numeric coercion of `idx`.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            Value::Idx(v) => *v as u64,
            other => {
                unreachable!("expected u64, got {other:?}: the verifier types indices u64 or idx")
            }
        }
    }

    /// The `idx` inside (accepting `U64` for directive-forced dense
    /// implementations over integer keys).
    #[inline]
    pub fn as_index(&self) -> usize {
        match self {
            Value::Idx(i) => *i,
            Value::U64(v) => *v as usize,
            other => {
                unreachable!("expected idx, got {other:?}: the verifier keys dense ops by idx/u64")
            }
        }
    }

    /// The register bits of a value of a register [`Kind`]: what a
    /// heap result or a projected field becomes in the register file.
    #[inline]
    pub fn bits(&self) -> u64 {
        match self {
            Value::Void => 0,
            Value::Bool(b) => u64::from(*b),
            Value::U64(v) => *v,
            Value::I64(v) => *v as u64,
            Value::F64(v) => v.to_bits(),
            Value::Idx(i) => *i as u64,
            Value::Coll(c) => u64::from(c.0),
            other => unreachable!("{other:?} is boxed: the verifier types register slots"),
        }
    }

    /// The value of register kind `kind` held as `bits`: how a register
    /// is boxed for the heap, `print` and the entry's result.
    #[inline]
    pub fn from_bits(kind: Kind, bits: u64) -> Value {
        match kind {
            Kind::Void => Value::Void,
            Kind::Bool => Value::Bool(bits != 0),
            Kind::U64 => Value::U64(bits),
            Kind::I64 => Value::I64(bits as i64),
            Kind::F64 => Value::F64(f64::from_bits(bits)),
            Kind::Idx => Value::Idx(bits as usize),
            Kind::Coll => Value::Coll(CollId(bits as u32)),
            Kind::Boxed => unreachable!("a boxed slot has no register bits"),
        }
    }
}

/// How a frame slot holds its value, read off the slot's verified static
/// type. Every kind but [`Kind::Boxed`] is a register kind: its values
/// live as raw bits in the activation's `u64` register file (`bool` as
/// 0 or 1, `i64` in two's complement, `f64` as its bit pattern, `idx` as
/// the index, a collection as its heap handle). `str` and tuples are
/// [`Kind::Boxed`]: whole [`Value`]s in the activation's side file.
///
/// With no runtime tag, a dense key and a `u64` are the same bits: the
/// static type alone decides how a register is boxed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `void`.
    Void,
    /// `bool`.
    Bool,
    /// `u64`.
    U64,
    /// `i64`.
    I64,
    /// `f64`.
    F64,
    /// `idx`.
    Idx,
    /// A collection handle.
    Coll,
    /// `str` or a tuple, held in the side file.
    Boxed,
}

impl Kind {
    /// The kind of a slot of static type `ty`.
    pub fn of(ty: &Type) -> Kind {
        match ty {
            Type::Void => Kind::Void,
            Type::Bool => Kind::Bool,
            Type::U64 => Kind::U64,
            Type::I64 => Kind::I64,
            Type::F64 => Kind::F64,
            Type::Idx => Kind::Idx,
            Type::Str | Type::Tuple(_) => Kind::Boxed,
            Type::Seq(_) | Type::Set { .. } | Type::Map { .. } => Kind::Coll,
        }
    }
}

/// An unboxed scalar: the packed `(tag, bits)` representation the
/// monomorphic collection backends store instead of a full [`Value`].
///
/// Bijective with the scalar `Value` variants (`Bool`/`U64`/`I64`/
/// `F64`/`Idx`, plus `Void` as the vacant filler dense maps pad with),
/// so `U64(5)` and `Idx(5)` stay distinct exactly as they do boxed.
/// `Copy` and 16 bytes against `Value`'s 24, with no niche for `Arc`
/// drop glue — cloning an unboxed backend's element is a register move.
///
/// Equality and hashing MUST agree with the boxed twin: the chained
/// hash backends are instantiated at this type, and their bucket
/// assignment/iteration order is observable through `snapshot()` (and
/// from there through enumeration assignment order, heap growth, and
/// ultimately figure bytes). `Hash` therefore delegates to the
/// corresponding `Value` — constructing a scalar `Value` on the stack
/// is free of allocation — which makes hash parity true by definition
/// rather than by mirroring std's discriminant hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalarVal {
    tag: ScalarTag,
    bits: u64,
}

/// Discriminant of a [`ScalarVal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScalarTag {
    Void,
    Bool,
    U64,
    I64,
    F64,
    Idx,
}

impl Default for ScalarVal {
    /// The vacant filler value ([`Value::Void`]): only ever stored in
    /// dense-map padding slots whose presence bit is clear, never
    /// observed by guest code.
    fn default() -> ScalarVal {
        ScalarVal {
            tag: ScalarTag::Void,
            bits: 0,
        }
    }
}

impl ScalarVal {
    /// Packs a scalar `Value`; `None` for `Str`/`Tuple`/`Coll`, which
    /// only the boxed backends can store.
    #[inline]
    pub fn from_value(v: &Value) -> Option<ScalarVal> {
        let (tag, bits) = match v {
            Value::Void => (ScalarTag::Void, 0),
            Value::Bool(b) => (ScalarTag::Bool, u64::from(*b)),
            Value::U64(v) => (ScalarTag::U64, *v),
            Value::I64(v) => (ScalarTag::I64, *v as u64),
            Value::F64(v) => (ScalarTag::F64, v.to_bits()),
            Value::Idx(i) => (ScalarTag::Idx, *i as u64),
            Value::Str(_) | Value::Tuple(_) | Value::Coll(_) => return None,
        };
        Some(ScalarVal { tag, bits })
    }

    /// Unpacks back into the boxed representation.
    #[inline]
    pub fn to_value(self) -> Value {
        match self.tag {
            ScalarTag::Void => Value::Void,
            ScalarTag::Bool => Value::Bool(self.bits != 0),
            ScalarTag::U64 => Value::U64(self.bits),
            ScalarTag::I64 => Value::I64(self.bits as i64),
            ScalarTag::F64 => Value::F64(f64::from_bits(self.bits)),
            ScalarTag::Idx => Value::Idx(self.bits as usize),
        }
    }
}

impl Hash for ScalarVal {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Delegate to the boxed twin so bucket assignment (and hence
        // iteration order) is identical by construction.
        self.to_value().hash(state);
    }
}

impl ade_collections::HeapSize for ScalarVal {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Void, Void) => true,
            (Bool(a), Bool(b)) => a == b,
            (U64(a), U64(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Idx(a), Idx(b)) => a == b,
            (Tuple(a), Tuple(b)) => a == b,
            (Coll(a), Coll(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Void => {}
            Value::Bool(b) => b.hash(state),
            Value::U64(v) => v.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Idx(i) => i.hash(state),
            Value::Tuple(t) => t.hash(state),
            Value::Coll(c) => c.0.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Void => 0,
                Bool(_) => 1,
                U64(_) => 2,
                I64(_) => 3,
                F64(_) => 4,
                Str(_) => 5,
                Idx(_) => 6,
                Tuple(_) => 7,
                Coll(_) => 8,
            }
        }
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (U64(a), U64(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Idx(a), Idx(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a.cmp(b),
            (Coll(a), Coll(b)) => a.0.cmp(&b.0),
            (a, b) => rank(a).cmp(&rank(b)).then(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Idx(i) => write!(f, "#{i}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Coll(c) => write!(f, "<coll {}>", c.0),
        }
    }
}

impl ade_collections::HeapSize for Value {
    fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            Value::Tuple(t) => {
                t.len() * std::mem::size_of::<Value>()
                    + t.iter()
                        .map(ade_collections::HeapSize::heap_bytes)
                        .sum::<usize>()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_keys_compare_by_bits() {
        assert_eq!(Value::F64(1.5), Value::F64(1.5));
        assert_ne!(Value::F64(0.0), Value::F64(-0.0));
        assert_eq!(Value::F64(f64::NAN), Value::F64(f64::NAN));
    }

    #[test]
    fn ordering_is_total_across_kinds() {
        let mut vals = vec![
            Value::Str("b".into()),
            Value::U64(3),
            Value::Bool(false),
            Value::Str("a".into()),
            Value::U64(1),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Bool(false),
                Value::U64(1),
                Value::U64(3),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::U64(4).as_u64(), 4);
        assert_eq!(Value::Idx(4).as_u64(), 4);
        assert_eq!(Value::Idx(9).as_index(), 9);
        assert_eq!(Value::U64(9).as_index(), 9);
    }

    /// Register bits round-trip through every register kind, and a
    /// dense key and a `u64` are the same bits.
    #[test]
    fn register_bits_round_trip() {
        let samples = [
            (Kind::Void, Value::Void),
            (Kind::Bool, Value::Bool(true)),
            (Kind::U64, Value::U64(u64::MAX)),
            (Kind::I64, Value::I64(i64::MIN)),
            (Kind::F64, Value::F64(-0.0)),
            (Kind::Idx, Value::Idx(7)),
            (Kind::Coll, Value::Coll(CollId(3))),
        ];
        for (kind, v) in samples {
            assert_eq!(Value::from_bits(kind, v.bits()), v, "{kind:?}");
        }
        assert_eq!(Value::Idx(7).bits(), Value::U64(7).bits());
        assert_eq!(Kind::of(&Type::seq(Type::Str)), Kind::Coll);
        assert_eq!(Kind::of(&Type::Tuple(vec![Type::U64])), Kind::Boxed);
    }

    #[test]
    #[should_panic(expected = "expected idx")]
    fn as_index_rejects_others() {
        let _ = Value::Bool(true).as_index();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::U64(3).to_string(), "3");
        assert_eq!(Value::Idx(3).to_string(), "#3");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(
            Value::Tuple(vec![Value::U64(1), Value::Bool(true)].into()).to_string(),
            "(1, true)"
        );
    }

    /// The unboxed scalar must hash exactly like its boxed twin under
    /// the collections' hasher: identical hashes mean identical bucket
    /// assignment, which is what makes unboxed hash backends iterate in
    /// the same order as boxed ones (and hence keeps enumeration
    /// assignment — and every downstream figure — bit-identical).
    #[test]
    fn scalar_hash_matches_boxed_value_hash() {
        use ade_collections::fx::hash_one;
        let samples = [
            Value::Void,
            Value::Bool(false),
            Value::Bool(true),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-5),
            Value::F64(1.5),
            Value::F64(-0.0),
            Value::Idx(0),
            Value::Idx(12345),
        ];
        for v in samples {
            let s = ScalarVal::from_value(&v).expect("scalar");
            assert_eq!(hash_one(&v), hash_one(&s), "{v:?}");
            assert_eq!(s.to_value(), v, "round trip");
        }
    }

    /// `U64(n)` and `Idx(n)` carry the same bits but are distinct keys —
    /// the packed form must preserve that distinction.
    #[test]
    fn scalar_tags_keep_kinds_distinct() {
        let u = ScalarVal::from_value(&Value::U64(5)).expect("scalar");
        let i = ScalarVal::from_value(&Value::Idx(5)).expect("scalar");
        assert_ne!(u, i);
        assert!(ScalarVal::from_value(&Value::Str("s".into())).is_none());
        assert!(ScalarVal::from_value(&Value::Tuple(vec![].into())).is_none());
    }
}
