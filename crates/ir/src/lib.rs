//! A MEMOIR-like SSA intermediate representation with first-class data
//! collections.
//!
//! This crate reproduces the compiler substrate of *Automatic Data
//! Enumeration for Fast Collections* (CGO 2026, §III-A): an SSA-form IR
//! where sequences, sets, maps and tuples are first-class types and
//! collection operations (`new`, `read`, `write`, `has`, `insert`,
//! `remove`, `clear`, `size`) are instructions, not opaque calls.
//!
//! Control flow is *structured* (paper Fig. 1: if-else, for-each,
//! do-while). We realize the paper's implicit-ordering φ convention with
//! region-based SSA: every control-flow instruction owns regions whose
//! block arguments and yields play the role of the φ functions —
//!
//! * a loop's carried values are region arguments (`φ(init, backedge)`),
//! * an `if`'s results are its two regions' yields (`φ(v_true, v_false)`),
//! * a loop's results are the final carried values (`φ(final)`).
//!
//! Enumeration translations (`enc`, `dec`, `add`, paper §III-B) are
//! first-class instructions referencing module-level enumeration classes —
//! the fixed point of the paper's interprocedural design, which stores each
//! enumeration equivalence class in a global (§III-F).
//!
//! # Examples
//!
//! Build the paper's Listing 1 (histogram of a sequence) and verify it:
//!
//! ```
//! use ade_ir::builder::FunctionBuilder;
//! use ade_ir::{Module, Type};
//!
//! let mut b = FunctionBuilder::new("count", &[("input", Type::seq(Type::F64))], Type::Void);
//! let input = b.param(0);
//! let hist = b.new_collection(Type::map(Type::F64, Type::U64));
//! let hist = b.for_each(input, &[hist], |b, _i, val, carried| {
//!     let h = carried[0];
//!     let val = val.expect("seq iteration binds an element");
//!     let cond = b.has(h, val);
//!     let zero = b.const_u64(0);
//!     let r = b.if_else(
//!         cond,
//!         |b| {
//!             let f = b.read(h, val);
//!             vec![h, f]
//!         },
//!         |b| {
//!             let h2 = b.insert(h, val);
//!             vec![h2, zero]
//!         },
//!     );
//!     let one = b.const_u64(1);
//!     let freq1 = b.add(r[1], one);
//!     let h = b.write(r[0], val, freq1);
//!     vec![h]
//! })[0];
//! let _ = hist;
//! b.ret_void();
//! let mut module = Module::new();
//! module.add_function(b.finish());
//! assert!(ade_ir::verify::verify_module(&module).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Gives a textual enum of the IR one name table: `name()` for the
/// printer, `from_name` for the parser and `ALL` listing every variant.
macro_rules! named {
    ($ty:ident { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// The variant's name in the textual IR.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),*
                }
            }

            /// The variant called `name`.
            pub fn from_name(name: &str) -> Option<$ty> {
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }
    };
}

pub mod builder;
pub mod directive;
mod func;
mod ids;
mod inst;
pub mod parse;
pub mod print;
mod types;
pub mod typing;
pub mod verify;

pub use directive::{DirectiveSet, SelectionChoice};
pub use func::{EnumDecl, Function, Module, Region, ValueData, ValueDef};
pub use ids::{EnumId, FuncId, InstId, RegionId, ValueId};
pub use inst::{Access, BinOp, CmpOp, ConstVal, Inst, InstKind, LiteralData, Operand, Scalar};
pub use types::{MapSel, SetSel, Type};
