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
        assert_eq!(Value::U64(4).bits(), 4);
        assert_eq!(Value::Idx(4).bits(), 4);
        assert_eq!(Value::I64(-1).bits(), u64::MAX);
        assert_eq!(Value::Bool(true).bits(), 1);
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
    fn display_forms() {
        assert_eq!(Value::U64(3).to_string(), "3");
        assert_eq!(Value::Idx(3).to_string(), "#3");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(
            Value::Tuple(vec![Value::U64(1), Value::Bool(true)].into()).to_string(),
            "(1, true)"
        );
    }

    /// A key stored as raw bits must hash exactly like its boxed
    /// `Value` under the collections' hasher: a table of bits hashes
    /// each key from its kind's seed (`heap::seed`), and identical
    /// hashes mean identical bucket assignment, which is what makes such
    /// tables iterate in the boxed tables' order (and hence keeps
    /// enumeration assignment — and every downstream figure —
    /// bit-identical). Covers every register kind at its edge bits.
    #[test]
    fn scalar_hash_matches_boxed_value_hash() {
        use ade_collections::fx::{hash_one, hash_seeded};
        let edges = [
            0,
            1,
            u64::MAX,
            1 << 63,
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1.5f64.to_bits(),
            12345,
            crate::trap::ENC_SENTINEL as u64,
        ];
        for kind in [
            Kind::Void,
            Kind::Bool,
            Kind::U64,
            Kind::I64,
            Kind::F64,
            Kind::Idx,
            Kind::Coll,
        ] {
            for bits in edges {
                // A register of the kind holds only its own bit patterns.
                let bits = match kind {
                    Kind::Void => 0,
                    Kind::Bool => bits & 1,
                    Kind::Coll => u64::from(bits as u32),
                    _ => bits,
                };
                let v = Value::from_bits(kind, bits);
                assert_eq!(v.bits(), bits, "{kind:?} round trip");
                assert_eq!(
                    hash_seeded(crate::heap::seed(kind), &bits),
                    hash_one(&v),
                    "{kind:?} {bits:#x}"
                );
            }
        }
    }
}
