//! A zero-dependency runtime metrics registry.
//!
//! [`MetricsRegistry`] is the always-on accounting surface the
//! interpreter publishes into: monotonic counters
//! and gauges with high-water-mark semantics, each addressed by a name
//! plus a small, sorted label set. Like [`crate::Tracer`], the default handle is
//! *disabled* and every operation on it is a branch on an `Option`
//! discriminant — attaching telemetry costs nothing until someone asks
//! for it. Clones share the underlying store, so one registry can be
//! threaded through many layers and threads.
//!
//! Determinism: every update is a commutative aggregate (addition,
//! maximum), so the snapshot's *values* are
//! independent of thread interleaving — a parallel run publishes the
//! same numbers as a serial one as long as the work itself is
//! deterministic. The snapshot renders metrics sorted by id, making its
//! JSON ([`MetricsSnapshot::to_json`]) byte-identical across runs and
//! worker counts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What one metric holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A high-water-mark sample.
    Gauge(u64),
}

/// One metric as captured by [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Full id: `name` or `name{k="v",…}` with labels sorted by key.
    pub id: String,
    /// Base metric name (id without labels).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// Every metric by id: its base name, sorted labels and value.
type Store = BTreeMap<String, (String, Vec<(String, String)>, MetricValue)>;

/// A cheaply clonable metrics handle; see the module docs. The default
/// handle is disabled and every operation on it is a near-free early
/// return.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    store: Option<Arc<Mutex<Store>>>,
}

fn metric_id(name: &str, labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
    let mut sorted: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    sorted.sort();
    if sorted.is_empty() {
        return (name.to_string(), sorted);
    }
    let mut id = String::with_capacity(name.len() + 16);
    id.push_str(name);
    id.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            id.push(',');
        }
        id.push_str(k);
        id.push_str("=\"");
        id.push_str(v);
        id.push('"');
    }
    id.push('}');
    (id, sorted)
}

impl MetricsRegistry {
    /// A disabled registry (same as `MetricsRegistry::default()`).
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// An enabled registry with an empty store.
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            store: Some(Arc::new(Mutex::new(Store::default()))),
        }
    }

    /// Whether updates are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    fn with_store(&self, f: impl FnOnce(&mut Store)) {
        if let Some(store) = &self.store {
            f(&mut store.lock().expect("metrics store poisoned"));
        }
    }

    /// Adds `n` to the counter `name{labels}` (creating it at zero).
    pub fn add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.with_store(|s| {
            let (id, sorted) = metric_id(name, labels);
            match s
                .entry(id)
                .or_insert_with(|| (name.to_string(), sorted, MetricValue::Counter(0)))
            {
                (_, _, MetricValue::Counter(c)) => *c = c.saturating_add(n),
                _ => debug_assert!(false, "metric {name} is not a counter"),
            }
        });
    }

    /// Raises the gauge `name{labels}` to `v` if `v` exceeds its current
    /// value — high-water-mark semantics, commutative across threads.
    pub fn gauge_max(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.with_store(|s| {
            let (id, sorted) = metric_id(name, labels);
            match s
                .entry(id)
                .or_insert_with(|| (name.to_string(), sorted, MetricValue::Gauge(v)))
            {
                (_, _, MetricValue::Gauge(g)) => *g = (*g).max(v),
                _ => debug_assert!(false, "metric {name} is not a gauge"),
            }
        });
    }

    /// Captures every metric, sorted by id. A disabled registry
    /// snapshots empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let rows = match &self.store {
            None => Vec::new(),
            Some(store) => {
                let s = store.lock().expect("metrics store poisoned");
                s.iter()
                    .map(|(id, (name, labels, value))| MetricRow {
                        id: id.clone(),
                        name: name.clone(),
                        labels: labels.clone(),
                        value: value.clone(),
                    })
                    .collect()
            }
        };
        MetricsSnapshot { rows }
    }
}

/// An immutable, id-sorted capture of a [`MetricsRegistry`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Captured metrics, sorted by id.
    pub rows: Vec<MetricRow>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as JSON (schema `ade-metrics-v1`),
    /// metrics sorted by id, byte-identical across runs, worker counts
    /// and scheduling for a deterministic workload.
    pub fn to_json(&self) -> String {
        use crate::json::Value;
        let metrics: Value = self
            .rows
            .iter()
            .map(|r| {
                let labels = r
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str().into()));
                let (kind, value) = match r.value {
                    MetricValue::Counter(c) => ("counter", c),
                    MetricValue::Gauge(g) => ("gauge", g),
                };
                Value::object([
                    ("id", r.id.as_str().into()),
                    ("name", r.name.as_str().into()),
                    ("labels", Value::object(labels)),
                    ("type", kind.into()),
                    ("value", value.into()),
                ])
            })
            .collect();
        let snapshot = Value::object([("schema", "ade-metrics-v1".into()), ("metrics", metrics)]);
        format!("{snapshot}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.add("a", &[], 3);
        m.gauge_max("b", &[], 9);
        assert!(m.snapshot().rows.is_empty());
        assert_eq!(
            m.snapshot().to_json(),
            "{\"schema\":\"ade-metrics-v1\",\"metrics\":[]}\n"
        );
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let m = MetricsRegistry::enabled();
        m.add("req_total", &[("code", "ok")], 2);
        m.add("req_total", &[("code", "ok")], 3);
        m.add("req_total", &[("code", "err")], 1);
        m.gauge_max("depth_hwm", &[], 4);
        m.gauge_max("depth_hwm", &[], 2); // lower sample does not regress
        let snap = m.snapshot();
        let by_id: BTreeMap<&str, &MetricValue> = snap
            .rows
            .iter()
            .map(|r| (r.id.as_str(), &r.value))
            .collect();
        assert_eq!(by_id["req_total{code=\"ok\"}"], &MetricValue::Counter(5));
        assert_eq!(by_id["req_total{code=\"err\"}"], &MetricValue::Counter(1));
        assert_eq!(by_id["depth_hwm"], &MetricValue::Gauge(4));
    }

    #[test]
    fn label_order_is_normalized_into_one_id() {
        let m = MetricsRegistry::enabled();
        m.add("x", &[("b", "2"), ("a", "1")], 1);
        m.add("x", &[("a", "1"), ("b", "2")], 1);
        let snap = m.snapshot();
        assert_eq!(snap.rows.len(), 1);
        assert_eq!(snap.rows[0].id, "x{a=\"1\",b=\"2\"}");
        assert_eq!(snap.rows[0].value, MetricValue::Counter(2));
    }

    #[test]
    fn snapshot_values_are_interleaving_independent() {
        // Commutative updates from racing threads publish the same
        // totals as a serial run — the registry's core determinism
        // claim.
        let m = MetricsRegistry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        m.add("n", &[], 1);
                        m.gauge_max("hwm", &[], i);
                    }
                });
            }
        });
        let snap = m.snapshot();
        let by_id: BTreeMap<&str, &MetricValue> = snap
            .rows
            .iter()
            .map(|r| (r.id.as_str(), &r.value))
            .collect();
        assert_eq!(by_id["n"], &MetricValue::Counter(400));
        assert_eq!(by_id["hwm"], &MetricValue::Gauge(99));
    }

    #[test]
    fn json_is_valid_and_sorted() {
        let m = MetricsRegistry::enabled();
        m.add("z_total", &[], 1);
        m.add("a_total", &[], 2);
        m.gauge_max("depth_hwm", &[("worker", "0")], 123);
        let snap = m.snapshot();
        let json = snap.to_json();
        crate::json::Value::parse(&json).expect("valid JSON");
        assert!(json.find("\"a_total\"").expect("a") < json.find("\"z_total\"").expect("z"));
        assert!(json.contains("\"type\":\"gauge\",\"value\":123"), "{json}");
        assert_eq!(snap.rows.len(), 3);
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::enabled();
        let clone = m.clone();
        clone.add("shared", &[], 1);
        m.add("shared", &[], 1);
        assert_eq!(m.snapshot().rows[0].value, MetricValue::Counter(2));
    }
}
