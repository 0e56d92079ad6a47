//! The selection ledger: a structured record of every backend decision
//! the selection pass makes — which implementations each keyed member
//! received, and whether a `select(...)` directive or the static default
//! decided them.
//!
//! The ledger is pure data plus a deterministic text renderer; the
//! selection pass builds it, `adec --explain[=FILE]` prints it. It holds
//! no timings, so the rendered report is byte-identical across runs,
//! job counts and interpreter-optimization settings.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// What decided a selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionSource {
    /// A `select(...)` directive forced the choice.
    Directive,
    /// The static default applied (no directive).
    Static,
}

impl DecisionSource {
    fn as_str(self) -> &'static str {
        match self {
            DecisionSource::Directive => "directive",
            DecisionSource::Static => "static",
        }
    }
}

impl fmt::Display for DecisionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One keyed site's selection decision.
#[derive(Clone, Debug)]
pub struct SelectionDecision {
    /// Function holding the site.
    pub func: String,
    /// The collection root's printable label (e.g. `%visited`).
    pub member: String,
    /// Nesting depth of the selected collection below the root.
    pub depth: usize,
    /// Enumeration class index (decisions are made per class so members
    /// unified across call boundaries keep identical physical types).
    pub enum_class: usize,
    /// The applied set implementation (`Bit`, `SparseBit`, …).
    pub set_impl: String,
    /// The applied map implementation.
    pub map_impl: String,
    /// What decided the choice.
    pub source: DecisionSource,
    /// Human-readable rule that decided (the directive or the static
    /// default it applied).
    pub deciding: String,
}

/// The whole pass's selection decisions, in deterministic pass order.
#[derive(Clone, Debug, Default)]
pub struct SelectionLedger {
    /// One entry per keyed member, in pass order.
    pub decisions: Vec<SelectionDecision>,
}

impl SelectionLedger {
    /// Whether the pass made no keyed-site decisions.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    fn count(&self, source: DecisionSource) -> usize {
        self.decisions.iter().filter(|d| d.source == source).count()
    }

    /// Renders the human-readable explain report: one block per decision
    /// plus a per-function summary. Deterministic for a deterministic
    /// pass.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "selection ledger: {} decision(s) ({} static, {} directive)",
            self.decisions.len(),
            self.count(DecisionSource::Static),
            self.count(DecisionSource::Directive),
        );
        for d in &self.decisions {
            let _ = writeln!(
                out,
                "\n@{} {} (depth {}, class {}) -> set={} map={} [{}]",
                d.func, d.member, d.depth, d.enum_class, d.set_impl, d.map_impl, d.source
            );
            let _ = writeln!(out, "  deciding: {}", d.deciding);
        }

        let mut per_func: BTreeMap<&str, Vec<&SelectionDecision>> = BTreeMap::new();
        for d in &self.decisions {
            per_func.entry(d.func.as_str()).or_default().push(d);
        }
        let _ = writeln!(out, "\nper-function summary:");
        if per_func.is_empty() {
            let _ = writeln!(out, "  (no keyed sites)");
        }
        for (func, decisions) in per_func {
            let mut by_impl: BTreeMap<&str, usize> = BTreeMap::new();
            let mut by_source: BTreeMap<&'static str, usize> = BTreeMap::new();
            for d in &decisions {
                *by_impl.entry(d.set_impl.as_str()).or_default() += 1;
                *by_source.entry(d.source.as_str()).or_default() += 1;
            }
            let impls: Vec<String> = by_impl
                .iter()
                .map(|(name, n)| format!("{name} x{n}"))
                .collect();
            let sources: Vec<String> = by_source
                .iter()
                .map(|(name, n)| format!("{name} x{n}"))
                .collect();
            let _ = writeln!(
                out,
                "  @{func}: {} keyed site(s); set {}; {}",
                decisions.len(),
                impls.join(", "),
                sources.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelectionLedger {
        SelectionLedger {
            decisions: vec![
                SelectionDecision {
                    func: "main".to_string(),
                    member: "%visited".to_string(),
                    depth: 0,
                    enum_class: 0,
                    set_impl: "SparseBit".to_string(),
                    map_impl: "Bit".to_string(),
                    source: DecisionSource::Directive,
                    deciding: "select(...) directive governs the class".to_string(),
                },
                SelectionDecision {
                    func: "helper".to_string(),
                    member: "%seen".to_string(),
                    depth: 1,
                    enum_class: 0,
                    set_impl: "Bit".to_string(),
                    map_impl: "Bit".to_string(),
                    source: DecisionSource::Static,
                    deciding: "static heuristic (Bit)".to_string(),
                },
            ],
        }
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let ledger = sample();
        let a = ledger.render_report();
        let b = ledger.render_report();
        assert_eq!(a, b);
        assert!(
            a.starts_with("selection ledger: 2 decision(s) (1 static, 1 directive)"),
            "{a}"
        );
        assert!(
            a.contains("@main %visited (depth 0, class 0) -> set=SparseBit map=Bit [directive]"),
            "{a}"
        );
        assert!(
            a.contains("  deciding: select(...) directive governs the class"),
            "{a}"
        );
        assert!(a.contains("per-function summary:"), "{a}");
        assert!(
            a.contains("@helper: 1 keyed site(s); set Bit x1; static x1"),
            "{a}"
        );
        assert!(
            a.contains("@main: 1 keyed site(s); set SparseBit x1; directive x1"),
            "{a}"
        );
    }

    #[test]
    fn empty_ledger_renders_a_stub() {
        let text = SelectionLedger::default().render_report();
        assert!(text.contains("0 decision(s)"), "{text}");
        assert!(text.contains("(no keyed sites)"), "{text}");
    }
}
