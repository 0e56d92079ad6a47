//! The IR type system (paper Fig. 2), extended with selection annotations
//! (paper §III-A: `Set{HashSet}<f32>`).

use std::fmt;

/// Implementation selection for `Set` types (paper Table I).
///
/// `Auto` is the paper's *empty selection* `Set{•}<T>`: the collection
/// selection pass (or the lowering default) picks the implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SetSel {
    /// Empty selection: to be chosen by the compiler.
    #[default]
    Auto,
    /// Separate-chaining hash table (`std::unordered_set` stand-in).
    Hash,
    /// Sorted array.
    Flat,
    /// Swiss table (Abseil stand-in).
    Swiss,
    /// Contiguous dynamic bitset — requires enumerated keys.
    Bit,
    /// Roaring-style compressed bitset — requires enumerated keys.
    SparseBit,
}

named!(SetSel {
    Auto => "Auto",
    Hash => "Hash",
    Flat => "Flat",
    Swiss => "Swiss",
    Bit => "Bit",
    SparseBit => "SparseBit",
});

impl SetSel {
    /// Whether this implementation requires keys in a contiguous range
    /// `[0, N)` (the property data enumeration manufactures).
    pub fn requires_enumeration(self) -> bool {
        matches!(self, SetSel::Bit | SetSel::SparseBit)
    }
}

/// Implementation selection for `Map` types (paper Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MapSel {
    /// Empty selection: to be chosen by the compiler.
    #[default]
    Auto,
    /// Separate-chaining hash table (`std::unordered_map` stand-in).
    Hash,
    /// Swiss table (Abseil stand-in).
    Swiss,
    /// Presence bits plus dense value array — requires enumerated keys.
    Bit,
}

named!(MapSel {
    Auto => "Auto",
    Hash => "Hash",
    Swiss => "Swiss",
    Bit => "Bit",
});

impl MapSel {
    /// Whether this implementation requires keys in a contiguous range.
    pub fn requires_enumeration(self) -> bool {
        matches!(self, MapSel::Bit)
    }
}

/// An IR type (paper Fig. 2).
///
/// Scalar types cover the paper's primitive lattice (plus `Str`, used by
/// the string-interning motivating examples and the FIM benchmark).
/// `Idx` is the identifier type produced by enumeration translations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// No value.
    Void,
    /// Boolean.
    Bool,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// Immutable string.
    Str,
    /// An enumeration identifier (paper: `idx`, dense in `[0, N)`).
    Idx,
    /// Fixed product of element types.
    Tuple(Vec<Type>),
    /// Sequence of elements.
    Seq(Box<Type>),
    /// Set of elements with an implementation selection.
    Set {
        /// Element type.
        elem: Box<Type>,
        /// Implementation selection.
        sel: SetSel,
    },
    /// Map from keys to values with an implementation selection.
    Map {
        /// Key type.
        key: Box<Type>,
        /// Value type.
        val: Box<Type>,
        /// Implementation selection.
        sel: MapSel,
    },
}

impl Type {
    /// Builds a `Seq<elem>`.
    pub fn seq(elem: Type) -> Type {
        Type::Seq(Box::new(elem))
    }

    /// Builds a `Set<elem>` with the empty selection.
    pub fn set(elem: Type) -> Type {
        Type::Set {
            elem: Box::new(elem),
            sel: SetSel::Auto,
        }
    }

    /// Builds a `Set{sel}<elem>`.
    pub fn set_with(elem: Type, sel: SetSel) -> Type {
        Type::Set {
            elem: Box::new(elem),
            sel,
        }
    }

    /// Builds a `Map<key, val>` with the empty selection.
    pub fn map(key: Type, val: Type) -> Type {
        Type::Map {
            key: Box::new(key),
            val: Box::new(val),
            sel: MapSel::Auto,
        }
    }

    /// Builds a `Map{sel}<key, val>`.
    pub fn map_with(key: Type, val: Type, sel: MapSel) -> Type {
        Type::Map {
            key: Box::new(key),
            val: Box::new(val),
            sel,
        }
    }

    /// Whether this is any collection type (seq, set or map).
    pub fn is_collection(&self) -> bool {
        matches!(self, Type::Seq(_) | Type::Set { .. } | Type::Map { .. })
    }

    /// Whether this is an associative collection (set or map) — the types
    /// eligible for enumeration (paper §III).
    pub fn is_assoc(&self) -> bool {
        matches!(self, Type::Set { .. } | Type::Map { .. })
    }

    /// The key domain of this collection: a set's element type, a map's
    /// key type, a sequence's index type (`U64`).
    pub fn key_type(&self) -> Option<&Type> {
        match self {
            Type::Set { elem, .. } => Some(elem),
            Type::Map { key, .. } => Some(key),
            Type::Seq(_) => Some(&Type::U64),
            _ => None,
        }
    }

    /// The element/value type stored by this collection.
    pub fn value_type(&self) -> Option<&Type> {
        match self {
            Type::Seq(elem) => Some(elem),
            Type::Set { .. } => Some(&Type::Void),
            Type::Map { val, .. } => Some(val),
            _ => None,
        }
    }

    /// Whether values of this type are valid enumeration keys (hashable,
    /// comparable scalars — not collections).
    pub fn is_enumerable_key(&self) -> bool {
        matches!(
            self,
            Type::Bool | Type::U64 | Type::I64 | Type::F64 | Type::Str | Type::Idx
        )
    }

    /// Whether this type is scalar (non-collection, non-tuple).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Type::Tuple(_)) && !self.is_collection()
    }

    /// Whether this is a numeric scalar usable in arithmetic.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::U64 | Type::I64 | Type::F64 | Type::Idx)
    }

    /// Resolves a nesting path against this type: `Index` steps descend
    /// into sequence/map values, `Field` steps into tuples. Returns
    /// `None` when the path does not match the type shape.
    pub fn at_path(&self, path: &[crate::Access]) -> Option<&Type> {
        let mut ty = self;
        for access in path {
            ty = match (access, ty) {
                (crate::Access::Index(_), Type::Seq(elem)) => elem,
                (crate::Access::Index(_), Type::Map { val, .. }) => val,
                (crate::Access::Field(n), Type::Tuple(elems)) => elems.get(*n as usize)?,
                _ => return None,
            };
        }
        Some(ty)
    }

    /// The collection type `depth` value-levels below this one (`0` is
    /// the type itself): `Map<K, Set<V>>` at depth 1 is `Set<V>`.
    /// Returns `None` when the nesting runs out or hits a non-collection.
    pub fn value_at_depth(&self, depth: usize) -> Option<Type> {
        let mut ty = self.clone();
        for _ in 0..depth {
            ty = match ty {
                Type::Seq(elem) => *elem,
                Type::Map { val, .. } => *val,
                _ => return None,
            };
        }
        ty.is_collection().then_some(ty)
    }

    /// Returns a copy of this type with its top-level selection replaced.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a set or map, or the selection kind does
    /// not match the type.
    pub fn with_selection(&self, choice: crate::SelectionChoice) -> Type {
        use crate::SelectionChoice as C;
        match (self, choice) {
            (Type::Set { elem, .. }, c) => Type::Set {
                elem: elem.clone(),
                sel: match c {
                    C::Hash => SetSel::Hash,
                    C::Flat => SetSel::Flat,
                    C::Swiss => SetSel::Swiss,
                    C::Bit => SetSel::Bit,
                    C::SparseBit => SetSel::SparseBit,
                },
            },
            (Type::Map { key, val, .. }, c) => Type::Map {
                key: key.clone(),
                val: val.clone(),
                sel: match c {
                    C::Hash => MapSel::Hash,
                    C::Swiss => MapSel::Swiss,
                    C::Bit => MapSel::Bit,
                    C::Flat | C::SparseBit => {
                        panic!("selection {c:?} does not apply to maps")
                    }
                },
            },
            (other, c) => panic!("cannot select {c:?} for non-associative type {other:?}"),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::U64 => write!(f, "u64"),
            Type::I64 => write!(f, "i64"),
            Type::F64 => write!(f, "f64"),
            Type::Str => write!(f, "str"),
            Type::Idx => write!(f, "idx"),
            Type::Tuple(elems) => {
                write!(f, "(")?;
                for (i, t) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Type::Seq(elem) => write!(f, "Seq<{elem}>"),
            Type::Set { elem, sel } => match sel {
                SetSel::Auto => write!(f, "Set<{elem}>"),
                _ => write!(f, "Set{{{}}}<{elem}>", sel.name()),
            },
            Type::Map { key, val, sel } => match sel {
                MapSel::Auto => write!(f, "Map<{key}, {val}>"),
                _ => write!(f, "Map{{{}}}<{key}, {val}>", sel.name()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_forms() {
        assert_eq!(Type::seq(Type::F64).to_string(), "Seq<f64>");
        assert_eq!(Type::set(Type::U64).to_string(), "Set<u64>");
        assert_eq!(
            Type::set_with(Type::Idx, SetSel::Bit).to_string(),
            "Set{Bit}<idx>"
        );
        assert_eq!(
            Type::map_with(Type::Str, Type::U64, MapSel::Swiss).to_string(),
            "Map{Swiss}<str, u64>"
        );
        assert_eq!(
            Type::Tuple(vec![Type::U64, Type::Bool]).to_string(),
            "(u64, bool)"
        );
    }

    #[test]
    fn classification() {
        assert!(Type::set(Type::U64).is_assoc());
        assert!(!Type::seq(Type::U64).is_assoc());
        assert!(Type::seq(Type::U64).is_collection());
        assert!(Type::U64.is_enumerable_key());
        assert!(!Type::set(Type::U64).is_enumerable_key());
        assert!(SetSel::Bit.requires_enumeration());
        assert!(!SetSel::Swiss.requires_enumeration());
        assert!(MapSel::Bit.requires_enumeration());
    }

    #[test]
    fn key_and_value_types() {
        let m = Type::map(Type::Str, Type::U64);
        assert_eq!(m.key_type(), Some(&Type::Str));
        assert_eq!(m.value_type(), Some(&Type::U64));
        let s = Type::set(Type::F64);
        assert_eq!(s.key_type(), Some(&Type::F64));
        assert_eq!(s.value_type(), Some(&Type::Void));
        let q = Type::seq(Type::I64);
        assert_eq!(q.key_type(), Some(&Type::U64));
        assert_eq!(q.value_type(), Some(&Type::I64));
        assert_eq!(Type::U64.key_type(), None);
    }

    #[test]
    fn with_selection_replaces() {
        use crate::SelectionChoice;
        let s = Type::set(Type::Idx).with_selection(SelectionChoice::SparseBit);
        assert_eq!(s, Type::set_with(Type::Idx, SetSel::SparseBit));
        let m = Type::map(Type::Idx, Type::U64).with_selection(SelectionChoice::Bit);
        assert_eq!(m, Type::map_with(Type::Idx, Type::U64, MapSel::Bit));
    }

    #[test]
    #[should_panic(expected = "does not apply to maps")]
    fn with_selection_rejects_flat_map() {
        use crate::SelectionChoice;
        let _ = Type::map(Type::U64, Type::U64).with_selection(SelectionChoice::Flat);
    }
}
