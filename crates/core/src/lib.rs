//! Automatic Data Enumeration (ADE): the compiler transformation of
//! *Automatic Data Enumeration for Fast Collections* (CGO 2026).
//!
//! ADE decomposes associative collections `K —sparse→ V` into a sparse
//! *enumeration* `K → E` (with `E = [0, |K|)`) plus a dense *enumerated
//! collection* `E → V`, letting sets and maps become bitsets and bitmaps
//! (paper §III). The pass pipeline mirrors the paper:
//!
//! 1. [`patch`] — Algorithm 1 (uses to patch for an enumerated
//!    collection) and Algorithm 4 (uses to patch for a propagator);
//! 2. [`rte`] — Algorithm 2: redundant-translation discovery and the
//!    static benefit heuristic `|TrimEnc| + |TrimDec| + |TrimAdd|`;
//! 3. [`share`] — Algorithm 3: greedy candidate formation for sharing
//!    (§III-D) and identifier propagation (§III-E), honoring the
//!    optimization directives of §III-I;
//! 4. [`interproc`] — Algorithm 5: unify collections across calls,
//!    clone partially-enumerated callees (§III-F);
//! 5. [`transform`] — insert `enc`/`dec`/`add` translations, retype the
//!    collection chains to `idx` keys (§III-B);
//! 6. [`select`] — collection selection: enumerated collections become
//!    `BitSet`/`BitMap` (or `SparseBitSet` under the corresponding knob),
//!    `select(...)` directives override (§III-H);
//! 7. [`peephole`] — IR-level rewrites of the three §III-C rules plus
//!    local CSE of translations, followed by [`opt`] cleanup (dead code
//!    elimination and constant folding).
//!
//! Steps 1–4 query each function through one [`index::FuncIndex`] (use
//! sites, parent regions, region owners) built once per function, so
//! the pass stays near-linear in function size.
//!
//! # Examples
//!
//! Enumerate the paper's Listing 1 histogram and check the program still
//! verifies:
//!
//! ```
//! use ade_core::{run_ade, AdeOptions};
//! use ade_ir::parse::parse_module;
//!
//! let text = "
//! fn @main() -> void {
//!   %input = new Seq<f64>
//!   %x = const 2.5f64
//!   %n = size %input
//!   %i0 = insert %input, %n, %x
//!   %n1 = size %i0
//!   %i1 = insert %i0, %n1, %x
//!   %hist = new Map<f64, u64>
//!   %out = foreach %i1 carry(%hist) as (%i: u64, %v: f64, %h: Map<f64, u64>) {
//!     %c = has %h, %v
//!     %h2, %f = if %c then {
//!       %f0 = read %h, %v
//!       yield %h, %f0
//!     } else {
//!       %h1 = insert %h, %v
//!       %z = const 0u64
//!       yield %h1, %z
//!     }
//!     %one = const 1u64
//!     %f1 = add %f, %one
//!     %h3 = write %h2, %v, %f1
//!     yield %h3
//!   }
//!   %k = const 2.5f64
//!   %r = read %out, %k
//!   print %r
//!   ret
//! }
//! ";
//! let mut module = parse_module(text).expect("parses");
//! let report = run_ade(&mut module, &AdeOptions::default());
//! assert_eq!(report.enums_created, 1);
//! ade_ir::verify::verify_module(&module).expect("still verifies");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod index;
pub mod interproc;
pub mod opt;
pub mod patch;
pub mod peephole;
pub mod rte;
pub mod select;
pub mod share;
pub mod transform;
pub mod web;

use ade_ir::{Module, SetSel};
use ade_obs::Tracer;

pub use patch::{CollectionEntity, OperandPos, PatchSets, UseSite};
pub use rte::{find_redundant, Trims};
pub use share::{Candidate, MemberRole};

/// Configuration for the ADE pass, mirroring the paper artifact's
/// evaluation configurations.
#[derive(Clone, Debug)]
pub struct AdeOptions {
    /// Redundant translation elimination (§III-C). Disabling yields the
    /// `ade-noredundant` ablation (Fig. 7a).
    pub rte: bool,
    /// Identifier propagation (§III-E). Disabling yields
    /// `ade-nopropagation` (Fig. 7b).
    pub propagation: bool,
    /// Enumeration sharing (§III-D). Disabling also disables propagation
    /// (the paper: a propagator is only introduced if it can share) and
    /// yields `ade-nosharing` (Fig. 7c, Fig. 8).
    pub sharing: bool,
    /// Implementation for enumerated sets (`Bit` by default; `SparseBit`
    /// gives the `ade-sparse` configuration).
    pub enumerated_set_impl: SetSel,
    /// Override for *nested* enumerated sets (the `ade-nested-sparse`
    /// configuration of the RQ4 case study); `None` uses
    /// `enumerated_set_impl`.
    pub nested_set_impl: Option<SetSel>,
}

impl Default for AdeOptions {
    fn default() -> Self {
        Self {
            rte: true,
            propagation: true,
            sharing: true,
            enumerated_set_impl: SetSel::Bit,
            nested_set_impl: None,
        }
    }
}

impl AdeOptions {
    /// The `ade-noredundant` ablation configuration.
    pub fn without_rte() -> Self {
        Self {
            rte: false,
            ..Self::default()
        }
    }

    /// The `ade-nopropagation` ablation configuration.
    pub fn without_propagation() -> Self {
        Self {
            propagation: false,
            ..Self::default()
        }
    }

    /// The `ade-nosharing` ablation configuration (also disables
    /// propagation, as in the paper).
    pub fn without_sharing() -> Self {
        Self {
            sharing: false,
            propagation: false,
            ..Self::default()
        }
    }
}

/// What the pass did. Every decision behind it is an event on the
/// tracer given to [`run_ade_traced`]; the report keeps only the count
/// callers read without tracing.
#[derive(Clone, Debug, Default)]
pub struct AdeReport {
    /// Number of enumerations the pass declared.
    pub enums_created: usize,
}

/// Runs the full ADE pipeline over `module` in place.
pub fn run_ade(module: &mut Module, options: &AdeOptions) -> AdeReport {
    run_ade_traced(module, options, &Tracer::disabled())
}

/// [`run_ade`] with observability: each pass runs inside a span on
/// `tracer` and emits structured decision events (escape verdicts,
/// candidate formation, RTE trims, clone/retarget choices, translation
/// insertions with each candidate's members and benefit, selection
/// choices, peephole rewrites). These events are the pass's only
/// decision record. With a disabled tracer this is exactly `run_ade`,
/// and no decision text is built.
pub fn run_ade_traced(module: &mut Module, options: &AdeOptions, tracer: &Tracer) -> AdeReport {
    let plan = {
        let _span = tracer.span("pass", "plan");
        interproc::plan_module_traced(module, options, tracer)
    };
    {
        let _span = tracer.span("pass", "transform");
        transform::apply_traced(module, &plan, tracer);
    }
    {
        let _span = tracer.span("pass", "select");
        select::apply_selection_traced(module, &plan, options, tracer);
    }
    if options.rte {
        {
            let _span = tracer.span("pass", "peephole");
            let removed = peephole::run(module);
            tracer.counter("peephole", "rewrites-removed", removed as u64);
        }
        {
            let _span = tracer.span("pass", "cleanup");
            let removed = opt::cleanup(module);
            tracer.counter("cleanup", "insts-removed", removed as u64);
        }
    }
    AdeReport {
        enums_created: plan.enum_key_tys.len(),
    }
}
