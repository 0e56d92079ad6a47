//! Execution substrate for the ADE IR.
//!
//! The paper lowers MEMOIR to LLVM and runs natively on two servers; this
//! crate substitutes a deterministic, instrumented interpreter:
//!
//! * collection operations dispatch to the real data structures of
//!   [`ade_collections`], chosen by each collection's *selection*
//!   annotation (falling back to configurable defaults, which is how the
//!   evaluation's `memoir`, `memoir-abseil`, … configurations arise);
//! * every operation is counted and classified **sparse** (hash, swiss,
//!   flat, enumeration-encode) or **dense** (array, bitset, bitmap,
//!   enumeration-decode), reproducing Table II;
//! * collection and enumeration storage is tracked incrementally,
//!   reproducing the maximum-resident-set-size comparisons (Fig. 5c);
//! * a per-architecture [`cost::CostModel`] folds the operation counts
//!   into a modeled execution time, which is how the AArch64 results
//!   (Fig. 6) are reproduced without ARM hardware — the paper itself
//!   attributes the cross-architecture differences to per-operation cost
//!   shifts (Table III).
//!
//! # Examples
//!
//! ```
//! use ade_interp::{ExecConfig, Interpreter};
//! use ade_ir::parse::parse_module;
//!
//! let module = parse_module(
//!     "fn @main() -> void {
//!        %s = new Set<u64>
//!        %x = const 7u64
//!        %s1 = insert %s, %x
//!        %n = size %s1
//!        print %n
//!        ret
//!      }",
//! ).expect("parses");
//! let outcome = Interpreter::new(&module, ExecConfig::default())
//!     .run("main")
//!     .expect("runs");
//! assert_eq!(outcome.output, "1\n");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod decode;
mod exec;
mod heap;
mod session;
mod stats;
pub mod trap;
mod value;

pub use decode::{DecodeOptions, DecodedModule};
pub use exec::{ExecConfig, ExecError, Interpreter, Outcome, RunCounts};
pub use heap::{Arg, CollId, Collection, SelectionDefaults};
pub use session::{ExecSession, Step};
pub use stats::{CollOp, ImplKind, OpCounts, Phase, Stats};
pub use trap::{Limit, TrapKind, TrapSite, ENC_SENTINEL};
pub use value::{Kind, Value};
