//! In-memory span recorder for the traced run.
//!
//! Every call into a layer is wrapped in a span keyed by workload,
//! program, configuration and repetition. A repetition is one root span:
//! a set-up, a timed pass, or a reference phase, labelled by its scope.
//! The ADE pass's own `Tracer` pass spans are imported as children of the
//! compile span. A span's self time is its duration minus its children's;
//! per-layer times are summed per scope and divided by that scope's root
//! count, so the layer self times add up to the mean root time exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    layer: String,
    program: &'static str,
    config: &'static str,
    scope: &'static str,
    rep: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder; a disabled recorder ignores every call.
pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    scope: &'static str,
    rep: u32,
}

/// Per-layer times derived from the recorded spans, in milliseconds per
/// root of each scope.
pub struct LayerTimes {
    self_ms: BTreeMap<String, f64>,
    total_ms: BTreeMap<String, f64>,
    /// Mean root duration, summed over scopes.
    pub root_ms: f64,
}

impl LayerTimes {
    /// Total (inclusive) time of `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.total_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Self time of `layer`.
    pub fn self_of(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time (equals `root_ms`).
    pub fn self_sum(&self) -> f64 {
        self.self_ms.values().sum()
    }
}

impl Trace {
    /// A recorder that starts disabled.
    pub fn new() -> Trace {
        Trace {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            scope: "",
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds on this recorder's clock; also aligns spans taken by
    /// another clock (the ADE pass `Tracer`).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Turns recording on or off (between repetitions only).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Opens a root span for one repetition of `scope`.
    pub fn begin_root(&mut self, scope: &'static str, rep: u32) {
        self.scope = scope;
        self.rep = rep;
        self.begin(scope, "", "");
    }

    /// Opens a span around a call into `layer`.
    pub fn begin(&mut self, layer: &str, program: &'static str, config: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer: layer.to_string(),
            program,
            config,
            scope: self.scope,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its id.
    pub fn end(&mut self) -> Option<usize> {
        if !self.on {
            return None;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("span closed without being opened");
        self.spans[id].end_ns = end_ns;
        Some(id)
    }

    /// Imports the top-level `pass` spans of an ADE pass `Tracer` created
    /// at `base_ns` as children of the closed span `parent`, named
    /// `core.<pass>`.
    pub fn import_passes(&mut self, parent: usize, tracer: &ade_obs::Tracer, base_ns: u64) {
        let (lo, hi, program, config) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.program, p.config)
        };
        for e in tracer.events() {
            let (ade_obs::EventKind::SpanEnd, Some(dur), "pass", 0) =
                (e.kind, e.dur_ns, e.cat, e.depth)
            else {
                continue;
            };
            let end_ns = (base_ns + e.ts_ns).clamp(lo, hi);
            self.spans.push(Span {
                layer: format!("core.{}", e.name),
                program,
                config,
                scope: self.scope,
                rep: self.rep,
                parent: Some(parent),
                start_ns: end_ns.saturating_sub(dur).max(lo),
                end_ns,
            });
        }
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Derives per-layer self and total times (see the module docs).
    pub fn layer_times(&self) -> LayerTimes {
        let self_ns = self.self_ns();
        let mut roots: BTreeMap<&str, (u32, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            let r = roots.entry(s.scope).or_default();
            r.0 += 1;
            r.1 += s.end_ns - s.start_ns;
        }
        let mut out = LayerTimes {
            self_ms: BTreeMap::new(),
            total_ms: BTreeMap::new(),
            root_ms: roots
                .values()
                .map(|&(n, ns)| ns as f64 / 1e6 / f64::from(n))
                .sum(),
        };
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            let n = f64::from(roots[s.scope].0);
            *out.self_ms.entry(s.layer.clone()).or_default() += own as f64 / 1e6 / n;
            *out.total_ms.entry(s.layer.clone()).or_default() +=
                (s.end_ns - s.start_ns) as f64 / 1e6 / n;
        }
        out
    }

    /// Checks that every root's self times add up to its duration and
    /// returns the largest discrepancy in nanoseconds (zero unless a
    /// child outlived its parent).
    pub fn max_self_gap_ns(&self) -> u64 {
        let self_ns = self.self_ns();
        let mut per_root: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, own) in self_ns.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            *per_root.entry(root).or_default() += own;
        }
        per_root
            .iter()
            .map(|(&r, &sum)| sum.abs_diff(self.spans[r].end_ns - self.spans[r].start_ns))
            .max()
            .unwrap_or(0)
    }

    /// Renders every span as one JSON object per line.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\",\"scope\":\"{}\",\"rep\":{},\"layer\":\"{}\",\"program\":\"{}\",\"config\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{own}}}",
                s.scope,
                s.rep,
                s.layer,
                s.program,
                s.config,
                s.start_ns,
                s.end_ns - s.start_ns,
            );
        }
        out
    }
}
