//! Typed guest-failure taxonomy.
//!
//! Guest undefined behavior used to abort the interpreter with a panic;
//! every such condition is now a value of [`TrapKind`], carried by
//! [`crate::ExecError::GuestTrap`] together with the instruction site
//! that raised it. Only behaviour of well-typed programs traps: decode
//! verifies every module, so a value of the wrong kind reaching an
//! operation is a host bug and panics. Execution-limit violations (fuel, heap cells, depth)
//! are a separate [`crate::ExecError::LimitExceeded`] arm keyed by
//! [`Limit`], so harnesses can distinguish "this program is wrong" from
//! "this program is too big for the configured budget".

use std::fmt;

/// The `enc` sentinel: the identifier produced for a value outside its
/// enumeration (`usize::MAX`). It is a member of no collection; only
/// membership probes may observe it. A dense-collection insert or write
/// of this identifier raises [`TrapKind::SentinelInsert`].
pub const ENC_SENTINEL: usize = usize::MAX;

/// What kind of guest undefined behavior was trapped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// The `enc` sentinel (`usize::MAX`) reached a dense-collection
    /// insert or write — the CLAUDE.md invariant a correct ADE
    /// compilation never violates.
    SentinelInsert,
    /// A keyed read of an absent key (undefined in the paper's
    /// semantics).
    MissingKey {
        /// Rendering of the absent key.
        key: String,
    },
    /// A sequence access past the end.
    OutOfBounds {
        /// The requested index.
        index: u64,
        /// The sequence length at the time of access.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::SentinelInsert => {
                write!(
                    f,
                    "enc sentinel (usize::MAX) reached a dense-collection insert"
                )
            }
            TrapKind::MissingKey { key } => write!(f, "read of absent key {key}"),
            TrapKind::OutOfBounds { index, len } => {
                write!(
                    f,
                    "sequence access out of bounds: index {index}, length {len}"
                )
            }
            TrapKind::DivideByZero => write!(f, "division by zero"),
        }
    }
}

impl TrapKind {
    /// Short machine-readable code (stable across releases; used by
    /// failure reports and figure placeholders).
    pub fn code(&self) -> &'static str {
        match self {
            TrapKind::SentinelInsert => "sentinel-insert",
            TrapKind::MissingKey { .. } => "missing-key",
            TrapKind::OutOfBounds { .. } => "out-of-bounds",
            TrapKind::DivideByZero => "div-by-zero",
        }
    }
}

/// Where a trap was raised: the function and decoded-instruction index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrapSite {
    /// Function name (without the `@`).
    pub func: String,
    /// Index into the function's decoded instruction stream.
    pub inst: u32,
}

impl fmt::Display for TrapSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:{}", self.func, self.inst)
    }
}

/// Which execution limit was exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limit {
    /// [`crate::ExecConfig::fuel`]: total instructions executed.
    Fuel,
    /// [`crate::ExecConfig::max_heap_cells`]: collections allocated.
    HeapCells,
    /// [`crate::ExecConfig::max_depth`]: nested region/call depth.
    Depth,
}

impl Limit {
    /// Short machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            Limit::Fuel => "fuel",
            Limit::HeapCells => "heap-cells",
            Limit::Depth => "depth",
        }
    }
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_kind_codes_are_stable() {
        assert_eq!(TrapKind::SentinelInsert.code(), "sentinel-insert");
        assert_eq!(TrapKind::DivideByZero.code(), "div-by-zero");
        assert_eq!(Limit::Fuel.code(), "fuel");
    }

    #[test]
    fn displays_are_informative() {
        let t = TrapKind::OutOfBounds { index: 4, len: 2 };
        assert_eq!(
            t.to_string(),
            "sequence access out of bounds: index 4, length 2"
        );
        let s = TrapSite {
            func: "main".to_string(),
            inst: 3,
        };
        assert_eq!(s.to_string(), "@main:3");
    }
}
