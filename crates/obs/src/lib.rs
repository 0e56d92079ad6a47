//! Zero-dependency observability layer for the ADE pipeline.
//!
//! Two pieces, both built on `std` alone:
//!
//! - [`Tracer`]: a cheaply clonable handle over a thread-safe event sink.
//!   A *disabled* tracer (the default) is a `None` and every call on it
//!   is a branch on a discriminant — the zero-cost-when-disabled
//!   contract. An *enabled* tracer appends [`Event`]s (span begin/end
//!   markers, instant decision events, counters) with nanosecond
//!   timestamps from one monotonic clock.
//! - [`json::Value`]: the workspace's one JSON writer (its `Display`)
//!   and reader (`Value::parse`); every emitted artifact is built as a
//!   `Value` tree, so emitted files can be checked — and read back —
//!   without external dependencies.
//!
//! The event list is the one record of the ADE pass's decisions:
//! `adec` renders its `[ade]` lines, its `--explain` selection report
//! and its `--trace` log from the same events.
//!
//! Run-time counts are not here: the interpreter returns them with the
//! run (`ade_interp::Outcome`).
//!
//! Event *sequences* are deterministic for a deterministic caller; only
//! the timestamps vary run to run. Rendering helpers therefore take an
//! `include_ts` switch so tests can compare timestamp-stripped output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (a pass or analysis started).
    SpanBegin,
    /// A span closed; `dur_ns` holds its duration.
    SpanEnd,
    /// A point-in-time decision event or counter sample.
    Instant,
}

impl EventKind {
    /// Short machine-readable tag used in the JSON dump.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "begin",
            EventKind::SpanEnd => "end",
            EventKind::Instant => "event",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<&FieldValue> for json::Value {
    fn from(v: &FieldValue) -> json::Value {
        match v {
            FieldValue::U64(v) => (*v).into(),
            FieldValue::I64(v) => (*v).into(),
            FieldValue::F64(v) => (*v).into(),
            FieldValue::Bool(v) => (*v).into(),
            FieldValue::Str(v) => v.as_str().into(),
        }
    }
}

/// The value as the text log prints it (floats to three places).
impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

macro_rules! field_from {
    ($ty:ty, $variant:ident) => {
        impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self {
                FieldValue::$variant(v.into())
            }
        }
    };
}

field_from!(u64, U64);
field_from!(u32, U64);
field_from!(i64, I64);
field_from!(f64, F64);
field_from!(bool, Bool);
field_from!(String, Str);
field_from!(&str, Str);

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

/// One recorded observability event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Nanoseconds since the tracer was created (monotonic).
    pub ts_ns: u64,
    /// Span duration for [`EventKind::SpanEnd`], otherwise `None`.
    pub dur_ns: Option<u64>,
    /// Span nesting depth at emission (for indentation).
    pub depth: u32,
    /// Kind of event.
    pub kind: EventKind,
    /// Category (`"pass"`, `"escape"`, `"select"`, …).
    pub cat: &'static str,
    /// Event name.
    pub name: String,
    /// Structured key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// The value of the field named `key`, if the event carries one.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct Sink {
    start: Instant,
    events: Mutex<Vec<Event>>,
    depth: AtomicU32,
}

/// A cheaply clonable tracer handle. The default handle is disabled and
/// every operation on it is a near-free early return.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer with a fresh monotonic clock and empty sink.
    pub fn enabled() -> Tracer {
        Tracer {
            sink: Some(Arc::new(Sink {
                start: Instant::now(),
                events: Mutex::new(Vec::new()),
                depth: AtomicU32::new(0),
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn push(&self, mut event: Event) {
        if let Some(sink) = &self.sink {
            event.ts_ns = u64::try_from(sink.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            event.depth = sink.depth.load(Ordering::Relaxed);
            sink.events.lock().expect("obs sink poisoned").push(event);
        }
    }

    /// Starts building an instant decision event. Free when disabled.
    pub fn event(&self, cat: &'static str, name: &str) -> EventBuilder<'_> {
        EventBuilder {
            tracer: self,
            event: self.is_enabled().then(|| Event {
                ts_ns: 0,
                dur_ns: None,
                depth: 0,
                kind: EventKind::Instant,
                cat,
                name: name.to_string(),
                fields: Vec::new(),
            }),
        }
    }

    /// Records a named counter sample (an instant event with a `value`
    /// field).
    pub fn counter(&self, cat: &'static str, name: &str, value: u64) {
        self.event(cat, name).field("value", value).emit();
    }

    /// Opens a span; the returned guard emits the matching end event
    /// (with duration) when dropped.
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        let opened = if let Some(sink) = &self.sink {
            self.push(Event {
                ts_ns: 0,
                dur_ns: None,
                depth: 0,
                kind: EventKind::SpanBegin,
                cat,
                name: name.to_string(),
                fields: Vec::new(),
            });
            sink.depth.fetch_add(1, Ordering::Relaxed);
            Some(Instant::now())
        } else {
            None
        };
        Span {
            tracer: self.clone(),
            cat,
            name: name.to_string(),
            opened,
        }
    }

    /// Snapshot of all events recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        match &self.sink {
            Some(sink) => sink.events.lock().expect("obs sink poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Renders events as an indented human-readable log. With `include_ts`
/// false the output is deterministic for a deterministic caller
/// (timestamps and durations are omitted).
pub fn render_events(events: &[Event], include_ts: bool) -> String {
    let mut out = String::new();
    for e in events {
        let indent = "  ".repeat(e.depth as usize);
        if include_ts {
            out.push_str(&format!("[{:>12}ns] ", e.ts_ns));
        }
        out.push_str(&indent);
        match e.kind {
            EventKind::SpanBegin => {
                out.push_str(&format!("> {} [{}]", e.name, e.cat));
            }
            EventKind::SpanEnd => {
                out.push_str(&format!("< {} [{}]", e.name, e.cat));
                if include_ts {
                    if let Some(d) = e.dur_ns {
                        out.push_str(&format!(" ({d} ns)"));
                    }
                }
            }
            EventKind::Instant => {
                out.push_str(&format!("- {} [{}]", e.name, e.cat));
            }
        }
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Serializes events as a JSON array, one object per event:
/// `{"ts_ns":u64, "kind":"begin|end|event", "cat":str, "name":str,
/// "dur_ns":u64?, "args":{...}}`, keys in that order.
pub fn events_to_json(events: &[Event]) -> String {
    let events: json::Value = events
        .iter()
        .map(|e| {
            let mut entries = vec![
                ("ts_ns", e.ts_ns.into()),
                ("kind", e.kind.tag().into()),
                ("cat", e.cat.into()),
                ("name", e.name.as_str().into()),
            ];
            if let Some(d) = e.dur_ns {
                entries.push(("dur_ns", d.into()));
            }
            let args = e.fields.iter().map(|(k, v)| (*k, v.into()));
            entries.push(("args", json::Value::object(args)));
            json::Value::object(entries)
        })
        .collect();
    format!("{events}\n")
}

/// Builder for an instant event; a no-op shell when the tracer is
/// disabled.
pub struct EventBuilder<'t> {
    tracer: &'t Tracer,
    event: Option<Event>,
}

impl EventBuilder<'_> {
    /// Attaches a field (only materialized when enabled).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(e) = &mut self.event {
            e.fields.push((key, value.into()));
        }
        self
    }

    /// Emits the event to the sink.
    pub fn emit(self) {
        if let Some(e) = self.event {
            self.tracer.push(e);
        }
    }
}

/// Guard for an open span; emits the end event on drop.
pub struct Span {
    tracer: Tracer,
    cat: &'static str,
    name: String,
    opened: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(opened), Some(sink)) = (self.opened, &self.tracer.sink) {
            let dur = u64::try_from(opened.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.depth.fetch_sub(1, Ordering::Relaxed);
            self.tracer.push(Event {
                ts_ns: 0,
                dur_ns: Some(dur),
                depth: 0,
                kind: EventKind::SpanEnd,
                cat: self.cat,
                name: std::mem::take(&mut self.name),
                fields: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("pass", "plan");
            t.event("escape", "verdict").field("root", "v1").emit();
            t.counter("x", "n", 3);
        }
        assert!(t.events().is_empty());
        assert_eq!(render_events(&t.events(), false), "");
    }

    #[test]
    fn spans_nest_and_events_keep_order() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("pass", "compile");
            t.event("decision", "first").field("n", 1u64).emit();
            {
                let _inner = t.span("pass", "select");
                t.event("decision", "second").emit();
            }
        }
        let events = t.events();
        let shape: Vec<(EventKind, &str, u32)> = events
            .iter()
            .map(|e| (e.kind, e.name.as_str(), e.depth))
            .collect();
        assert_eq!(
            shape,
            vec![
                (EventKind::SpanBegin, "compile", 0),
                (EventKind::Instant, "first", 1),
                (EventKind::SpanBegin, "select", 1),
                (EventKind::Instant, "second", 2),
                (EventKind::SpanEnd, "select", 1),
                (EventKind::SpanEnd, "compile", 0),
            ]
        );
        // Timestamps are monotone non-decreasing in emission order.
        for pair in events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
        let end = events.last().expect("end event");
        assert!(end.dur_ns.is_some());
    }

    #[test]
    fn text_rendering_is_stable_without_timestamps() {
        let t = Tracer::enabled();
        {
            let _s = t.span("pass", "plan");
            t.event("escape", "escaped").field("root", "%x").emit();
        }
        let text = render_events(&t.events(), false);
        assert_eq!(
            text,
            "> plan [pass]\n  - escaped [escape] root=%x\n< plan [pass]\n"
        );
        let with_ts = render_events(&t.events(), true);
        assert!(with_ts.contains("ns]"));
    }

    #[test]
    fn json_dump_is_valid_and_carries_fields() {
        let t = Tracer::enabled();
        {
            let _s = t.span("pass", "transform");
            t.event("rewrite", "enc \"quoted\"")
                .field("count", 7u64)
                .field("forced", true)
                .field("ratio", 0.5f64)
                .emit();
        }
        let dump = events_to_json(&t.events());
        json::Value::parse(&dump).expect("valid JSON");
        assert!(dump.contains("\"kind\":\"begin\""));
        assert!(dump.contains("\"count\":7"));
        assert!(dump.contains("\"forced\":true"));
        assert!(dump.contains("enc \\\"quoted\\\""));
    }
}
