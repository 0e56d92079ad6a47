//! A bounded flight recorder for post-mortem dumps.
//!
//! [`FlightRecorder`] keeps the last N structured events (site enters,
//! quantum grants, budget trips) in a ring buffer. When a cell degrades
//! to `✗(code)`/`✗(timeout)`, the ring
//! is dumped as a deterministic JSON post-mortem
//! ([`FlightRecorder::dump_json`], schema `ade-postmortem-v1`).
//!
//! Determinism: events carry a monotone sequence number and structured
//! fields but **no timestamps**, so a dump is byte-identical across
//! runs as long as the recorded execution is. Recorders are therefore
//! scoped to one deterministic entity (one evaluation cell) rather
//! than shared across racing threads.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::FieldValue;

/// One recorded event: a category (`"exec"`, `"pool"`), a
/// name (`"grant"`, `"trip"`, …) and structured fields.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Monotone per-recorder sequence number (0-based, never reused —
    /// gaps reveal evicted events).
    pub seq: u64,
    /// Event category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Structured payload.
    pub fields: Vec<(String, FieldValue)>,
}

#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<FlightEvent>,
}

/// A bounded ring buffer of recent [`FlightEvent`]s; see the module
/// docs.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events (oldest evicted
    /// first). A zero capacity keeps nothing but still counts.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { cap: capacity, ring: Mutex::new(Ring::default()) }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&self, cat: &str, name: &str, fields: &[(&str, FieldValue)]) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        while ring.events.len() >= self.cap {
            if ring.events.pop_front().is_none() {
                break;
            }
            ring.dropped += 1;
        }
        if self.cap > 0 {
            ring.events.push_back(FlightEvent {
                seq,
                cat: cat.to_string(),
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        } else {
            ring.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("flight ring poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// How many events have been evicted (or discarded by a zero
    /// capacity).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").dropped
    }

    /// Serializes the ring as a post-mortem (schema
    /// `ade-postmortem-v1`). `context` identifies what died — cell key,
    /// request id, reason code — and is rendered ahead of the events.
    /// No timestamps: the dump is byte-identical across runs for a
    /// deterministic execution.
    pub fn dump_json(&self, context: &[(&str, FieldValue)]) -> String {
        use crate::json::write_string;
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = String::from("{\"schema\":\"ade-postmortem-v1\",\"context\":{");
        for (i, (k, v)) in context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, k);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push_str(&format!(
            "}},\"capacity\":{},\"dropped\":{},\"events\":[",
            self.cap, ring.dropped
        ));
        for (i, e) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  {{\"seq\":{},\"cat\":", e.seq));
            write_string(&mut out, &e.cat);
            out.push_str(",\"name\":");
            write_string(&mut out, &e.name);
            out.push_str(",\"fields\":{");
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_string(&mut out, k);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record("exec", "grant", &[("fuel", FieldValue::from(i))]);
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let fr = FlightRecorder::new(0);
        fr.record("exec", "enter", &[]);
        fr.record("exec", "stop", &[]);
        assert!(fr.events().is_empty());
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn dump_is_valid_json_with_context_and_fields() {
        let fr = FlightRecorder::new(8);
        fr.record("exec", "enter", &[("entry", FieldValue::from("main"))]);
        fr.record(
            "exec",
            "trip",
            &[("code", FieldValue::from("fuel")), ("fuel", FieldValue::from(100u64))],
        );
        let dump = fr.dump_json(&[
            ("cell", FieldValue::from("BFS_ade")),
            ("code", FieldValue::from("fuel")),
        ]);
        crate::json::validate(&dump).expect("valid JSON");
        assert!(dump.contains("\"schema\":\"ade-postmortem-v1\""), "{dump}");
        assert!(dump.contains("\"cell\":\"BFS_ade\""), "{dump}");
        assert!(dump.contains("\"name\":\"trip\""), "{dump}");
        assert!(dump.contains("\"fuel\":100"), "{dump}");
    }

    #[test]
    fn dump_is_reproducible() {
        let make = || {
            let fr = FlightRecorder::new(2);
            for i in 0..4u64 {
                fr.record("pool", "attempt", &[("n", FieldValue::from(i))]);
            }
            fr.dump_json(&[("cell", FieldValue::from("X"))])
        };
        assert_eq!(make(), make());
    }
}
