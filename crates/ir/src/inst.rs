//! Instructions, operands and constants (paper Fig. 1).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{EnumId, FuncId, RegionId, Type, ValueId};

/// A scalar position used inside operand paths (paper Fig. 1:
/// `s ::= v | n | end`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// A dynamic SSA value.
    Value(ValueId),
    /// A constant index.
    Const(u64),
    /// One past the last element of a sequence (append position).
    End,
}

/// One step of an operand path (paper Fig. 1: `x ::= v | x[s] | x.n`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Index into a collection at this nesting level: `x[s]`.
    Index(Scalar),
    /// Project a tuple field: `x.n`.
    Field(u32),
}

/// An instruction operand: a base SSA value plus a (possibly empty)
/// nesting path. `%x[%k]` denotes the collection stored at key `%k`
/// inside `%x` (paper §III-G).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Operand {
    /// The root SSA value.
    pub base: ValueId,
    /// Nesting accesses applied to the base, outermost first.
    pub path: Vec<Access>,
}

impl Operand {
    /// An operand with no nesting path.
    pub fn value(base: ValueId) -> Self {
        Operand {
            base,
            path: Vec::new(),
        }
    }

    /// An operand addressing the nested collection `base[key]`.
    pub fn nested(base: ValueId, key: Scalar) -> Self {
        Operand {
            base,
            path: vec![Access::Index(key)],
        }
    }

    /// An operand projecting tuple field `k` of `base` (`x.k`).
    pub fn field(base: ValueId, k: u32) -> Self {
        Operand {
            base,
            path: vec![Access::Field(k)],
        }
    }

    /// SSA values referenced by this operand (the base plus any dynamic
    /// path indices).
    pub fn referenced_values(&self) -> impl Iterator<Item = ValueId> + '_ {
        std::iter::once(self.base).chain(self.path.iter().filter_map(|a| match a {
            Access::Index(Scalar::Value(v)) => Some(*v),
            _ => None,
        }))
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::value(v)
    }
}

/// A compile-time constant.
#[derive(Clone, Debug)]
pub enum ConstVal {
    /// Boolean constant.
    Bool(bool),
    /// Unsigned integer constant.
    U64(u64),
    /// Signed integer constant.
    I64(i64),
    /// Floating-point constant.
    F64(f64),
    /// String constant.
    Str(String),
}

impl ConstVal {
    /// The type of this constant.
    pub fn ty(&self) -> Type {
        match self {
            ConstVal::Bool(_) => Type::Bool,
            ConstVal::U64(_) => Type::U64,
            ConstVal::I64(_) => Type::I64,
            ConstVal::F64(_) => Type::F64,
            ConstVal::Str(_) => Type::Str,
        }
    }
}

impl PartialEq for ConstVal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ConstVal::Bool(a), ConstVal::Bool(b)) => a == b,
            (ConstVal::U64(a), ConstVal::U64(b)) => a == b,
            (ConstVal::I64(a), ConstVal::I64(b)) => a == b,
            (ConstVal::F64(a), ConstVal::F64(b)) => a.to_bits() == b.to_bits(),
            (ConstVal::Str(a), ConstVal::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ConstVal {}

/// Hashes floats by bit pattern, consistent with `PartialEq`.
impl Hash for ConstVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            ConstVal::Bool(b) => b.hash(state),
            ConstVal::U64(n) => n.hash(state),
            ConstVal::I64(n) => n.hash(state),
            ConstVal::F64(x) => x.to_bits().hash(state),
            ConstVal::Str(s) => s.hash(state),
        }
    }
}

/// The elements of a literal collection ([`InstKind::Literal`]): a
/// program's input data, carried as one table instead of one `insert`
/// per element. Shared, so cloning an instruction or a function does
/// not copy it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiteralData {
    /// `u64` elements.
    U64(Arc<[u64]>),
    /// String elements.
    Str(Arc<[String]>),
}

impl LiteralData {
    /// The element type of the table.
    pub fn elem_ty(&self) -> Type {
        match self {
            LiteralData::U64(_) => Type::U64,
            LiteralData::Str(_) => Type::Str,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            LiteralData::U64(v) => v.len(),
            LiteralData::Str(v) => v.len(),
        }
    }

    /// Whether the table has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&[u64]> for LiteralData {
    fn from(elems: &[u64]) -> Self {
        LiteralData::U64(elems.into())
    }
}

impl From<&[&str]> for LiteralData {
    fn from(elems: &[&str]) -> Self {
        LiteralData::Str(elems.iter().map(|s| (*s).to_string()).collect())
    }
}

impl fmt::Display for ConstVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstVal::Bool(b) => write!(f, "{b}"),
            ConstVal::U64(v) => write!(f, "{v}u64"),
            ConstVal::I64(v) => write!(f, "{v}i64"),
            ConstVal::F64(v) => write!(f, "{v}f64"),
            ConstVal::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Binary arithmetic/logic operators (the paper's "LLVM" instruction
/// bucket).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

named!(BinOp {
    Add => "add",
    Sub => "sub",
    Mul => "mul",
    Div => "div",
    Rem => "rem",
    Min => "min",
    Max => "max",
    And => "and",
    Or => "or",
    Xor => "xor",
    Shl => "shl",
    Shr => "shr",
});

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

named!(CmpOp {
    Eq => "eq",
    Ne => "ne",
    Lt => "lt",
    Le => "le",
    Gt => "gt",
    Ge => "ge",
});

/// Instruction opcodes.
///
/// Collection opcodes follow paper Fig. 1. Control-flow opcodes own
/// regions (see [`crate::Region`]); enumeration opcodes (`Enc`, `Dec`,
/// `EnumAdd`) are the translation functions of §III-B, referencing a
/// module-level enumeration class.
#[derive(Clone, Debug, PartialEq)]
pub enum InstKind {
    /// Materialize a constant. No operands; one result.
    Const(ConstVal),
    /// Allocate a new collection (or tuple) of the given type. One result.
    New(Type),
    /// Materialize a literal collection: a fresh `Seq` of `elems`, in
    /// order. With an `enumeration`, each element is first added to it
    /// and the sequence holds the identifiers `add(e, x)` returns, typed
    /// `Seq<idx>` (the form ADE gives a literal whose elements it
    /// propagates, §III-E). No operands; one result
    /// ([`InstKind::literal_ty`]).
    Literal {
        /// The elements.
        elems: LiteralData,
        /// The enumeration the elements are added to, if any.
        enumeration: Option<EnumId>,
    },
    /// `read(c, k) → v` for maps, `read(s, i) → v` for sequences.
    /// Operands `[c, k]`; one result.
    Read,
    /// `write(c, k, v) → c'`. Operands `[c, k, v]`; one result (the new
    /// collection state).
    Write,
    /// `has(c, k) → bool`. Operands `[c, k]`; one result.
    Has,
    /// Insert a key/element: sets `insert(c, v) → c'` (operands `[c, v]`);
    /// maps `insert(c, k) → c'` (slot default-initialized); sequences
    /// `insert(c, i, v) → c'` (operands `[c, i, v]`, `i` may be `end`).
    Insert,
    /// Remove a key/element/index: `remove(c, k) → c'`. Operands `[c, k]`.
    Remove,
    /// Remove all elements: `clear(c) → c'`. Operands `[c]`.
    Clear,
    /// Number of elements: `size(c) → u64`. Operands `[c]`.
    Size,
    /// Bulk set union `union(dst, src) → dst'` (operands `[dst, src]`).
    ///
    /// An extension over Fig. 1: the paper measures `Union` as a basic
    /// operation (Table III) and relies on it being hot in PTA (RQ4), so
    /// we expose it as an instruction rather than forcing an element loop.
    UnionInto,
    /// Binary arithmetic. Operands `[a, b]`; one result.
    Bin(BinOp),
    /// Comparison. Operands `[a, b]`; one `bool` result.
    Cmp(CmpOp),
    /// Logical negation. Operands `[a]`; one result.
    Not,
    /// Numeric conversion to the given type. Operands `[a]`; one result.
    Cast(Type),
    /// Pack operands into a tuple value. Operands `[f0, f1, ...]` (at
    /// least one); one result of type `Tuple(tys...)`.
    Tuple,
    /// Direct call. Operands are arguments; results match callee returns.
    Call(FuncId),
    /// Write operands to the program output (newline-terminated record).
    Print,
    /// `enc(e, v) → idx` (paper §III-B). Undefined if `v` is not in the
    /// enumeration. Operands `[v]`; one `idx` result.
    Enc(EnumId),
    /// `dec(e, i) → v`. Undefined if `i` is not in the enumeration.
    /// Operands `[i]`; one result of the enumeration's key type.
    Dec(EnumId),
    /// `add(e, v) → idx`: insert `v` if absent, return its identifier.
    /// Operands `[v]`; one `idx` result.
    EnumAdd(EnumId),
    /// Structured if-else. Operands `[cond]`; regions `[then, else]`;
    /// results are the regions' yields (the paper's if-else-exit φ).
    If,
    /// For-each over a collection (paper §III-A extension). Operands
    /// `[c, init...]`; one body region whose arguments bind the iteration
    /// variables then the carried values; results are the final carried
    /// values.
    ///
    /// Body argument shapes: `Seq`: `[index, elem, carried...]`;
    /// `Set`: `[elem, carried...]`; `Map`: `[key, val, carried...]`.
    ForEach,
    /// Counted loop over `[lo, hi)`. Operands `[lo, hi, init...]`; body
    /// arguments `[i, carried...]`; results are the final carried values.
    ForRange,
    /// Do-while loop. Operands `[init...]`; body arguments `[carried...]`;
    /// the body yields `[cond, carried'...]`; loops while `cond` holds.
    /// Results are the final carried values (the loop-exit φ).
    DoWhile,
    /// Region terminator carrying the region's results to its parent.
    Yield,
    /// Function return. Operands `[v]` or `[]` for `void`.
    Ret,
    /// Region-of-interest marker (`true` = begin): separates benchmark
    /// initialization from the measured kernel (paper Fig. 5b).
    Roi(bool),
}

impl InstKind {
    /// The opcode's mnemonic in the textual IR.
    pub fn opcode(&self) -> &'static str {
        match self {
            InstKind::Const(_) => "const",
            InstKind::New(_) => "new",
            InstKind::Literal { .. } => "literal",
            InstKind::Read => "read",
            InstKind::Write => "write",
            InstKind::Has => "has",
            InstKind::Insert => "insert",
            InstKind::Remove => "remove",
            InstKind::Clear => "clear",
            InstKind::Size => "size",
            InstKind::UnionInto => "union",
            InstKind::Bin(op) => op.name(),
            InstKind::Cmp(op) => op.name(),
            InstKind::Not => "not",
            InstKind::Cast(_) => "cast",
            InstKind::Tuple => "tuple",
            InstKind::Call(_) => "call",
            InstKind::Print => "print",
            InstKind::Enc(_) => "enc",
            InstKind::Dec(_) => "dec",
            InstKind::EnumAdd(_) => "enumadd",
            InstKind::If => "if",
            InstKind::ForEach => "foreach",
            InstKind::ForRange => "forrange",
            InstKind::DoWhile => "dowhile",
            InstKind::Yield => "yield",
            InstKind::Ret => "ret",
            InstKind::Roi(_) => "roi",
        }
    }

    /// The result type of a [`InstKind::Literal`] of `elems`: `Seq<idx>`
    /// when its elements are added to an enumeration, else a sequence of
    /// the table's element type.
    pub fn literal_ty(elems: &LiteralData, enumeration: Option<EnumId>) -> Type {
        match enumeration {
            Some(_) => Type::seq(Type::Idx),
            None => Type::seq(elems.elem_ty()),
        }
    }

    /// Whether this opcode updates a collection (consumes its first
    /// operand's base and returns the new state). These are the ops whose
    /// results form the redefinition chain `Redefs(v)` of Algorithm 1.
    pub fn is_collection_update(&self) -> bool {
        matches!(
            self,
            InstKind::Write
                | InstKind::Insert
                | InstKind::Remove
                | InstKind::Clear
                | InstKind::UnionInto
        )
    }

    /// Whether this opcode reads a collection without updating it.
    pub fn is_collection_query(&self) -> bool {
        matches!(self, InstKind::Read | InstKind::Has | InstKind::Size)
    }

    /// Whether this opcode owns regions.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            InstKind::If | InstKind::ForEach | InstKind::ForRange | InstKind::DoWhile
        )
    }

    /// Whether this opcode terminates a region.
    pub fn is_terminator(&self) -> bool {
        matches!(self, InstKind::Yield | InstKind::Ret)
    }
}

/// One instruction: an opcode plus operands, owned regions and result
/// values.
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    /// Opcode.
    pub kind: InstKind,
    /// Operands (SSA values with optional nesting paths).
    pub operands: Vec<Operand>,
    /// Owned regions (control-flow opcodes only).
    pub regions: Vec<RegionId>,
    /// Result values.
    pub results: Vec<ValueId>,
}

impl Inst {
    /// The single result of this instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction does not have exactly one result.
    pub fn result(&self) -> ValueId {
        assert_eq!(self.results.len(), 1, "expected single result");
        self.results[0]
    }

    /// All SSA values this instruction reads (operand bases and dynamic
    /// path indices).
    pub fn used_values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.operands.iter().flat_map(Operand::referenced_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_referenced_values_include_path_indices() {
        let op = Operand {
            base: ValueId(1),
            path: vec![
                Access::Index(Scalar::Value(ValueId(2))),
                Access::Field(0),
                Access::Index(Scalar::Const(3)),
            ],
        };
        let vals: Vec<ValueId> = op.referenced_values().collect();
        assert_eq!(vals, vec![ValueId(1), ValueId(2)]);
        assert!(!op.path.is_empty());
    }

    #[test]
    fn const_types() {
        assert_eq!(ConstVal::Bool(true).ty(), Type::Bool);
        assert_eq!(ConstVal::Str("x".into()).ty(), Type::Str);
        assert_eq!(ConstVal::F64(1.5).ty(), Type::F64);
    }

    #[test]
    fn const_eq_uses_bit_pattern_for_floats() {
        assert_eq!(ConstVal::F64(f64::NAN), ConstVal::F64(f64::NAN));
        assert_ne!(ConstVal::F64(0.0), ConstVal::F64(-0.0));
        let hash = |c: &ConstVal| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(
            hash(&ConstVal::F64(f64::NAN)),
            hash(&ConstVal::F64(f64::NAN))
        );
    }

    #[test]
    fn literal_types() {
        let nums = LiteralData::from(&[3u64, 1][..]);
        assert_eq!(nums.len(), 2);
        assert_eq!(InstKind::literal_ty(&nums, None), Type::seq(Type::U64));
        assert_eq!(
            InstKind::literal_ty(&nums, Some(EnumId::from_index(0))),
            Type::seq(Type::Idx)
        );
        let strs = LiteralData::from(&["a"][..]);
        assert_eq!(InstKind::literal_ty(&strs, None), Type::seq(Type::Str));
    }

    #[test]
    fn opcode_classification() {
        assert!(InstKind::Insert.is_collection_update());
        assert!(InstKind::UnionInto.is_collection_update());
        assert!(!InstKind::Read.is_collection_update());
        assert!(InstKind::Has.is_collection_query());
        assert!(InstKind::ForEach.is_control());
        assert!(InstKind::Yield.is_terminator());
        assert!(!InstKind::Print.is_control());
    }
}
