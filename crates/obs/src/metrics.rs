//! Metrics registry: named counters and gauges.
//!
//! A registry holds the numbers that have no result struct to travel
//! in: process-wide event counts (recovery retries, checkpoint saves,
//! `serve.*` engine events), the wire traffic a served job's
//! `lra_comm::CommStats::export_metrics` folds in, and the summary
//! gauges a bench run reports. A number that already travels in a
//! result (`KernelTimers`, `MemStats`, `JobReport`) is not mirrored
//! here; DESIGN.md "Observability" lists every name with its emitter
//! and its reader.
//!
//! Names are dotted paths (`comm.rank0.msgs_sent`); the registry keeps
//! them sorted so snapshots and JSON exports are deterministic.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
}

/// Thread-safe registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name` (created at zero).
    pub fn inc_counter(&self, name: &str, delta: u64) {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Set the gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut map = self.lock();
        map.insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Current value of a metric, if registered.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.lock().get(name).cloned()
    }

    /// All metrics in name order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Export as a JSON object of numbers.
    pub fn to_json(&self) -> Json {
        let pairs = self
            .snapshot()
            .into_iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(c) => Json::Num(c as f64),
                    MetricValue::Gauge(g) => Json::Num(g),
                };
                (name, v)
            })
            .collect();
        Json::Obj(pairs)
    }

    /// All metrics whose dotted name starts with `prefix.`, in name
    /// order (a scrape reads one namespace this way).
    pub fn snapshot_prefixed(&self, prefix: &str) -> Vec<(String, MetricValue)> {
        let dotted = format!("{prefix}.");
        self.lock()
            .iter()
            .filter(|(k, _)| k.starts_with(&dotted))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricValue>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Process-global registry for events that have no natural measurement
/// scope to thread a [`MetricsRegistry`] through — recovery retries,
/// guard trips, checkpoint saves. Scoped registries (one per bench run
/// or SPMD execution) remain the norm for everything else; harnesses
/// that want the global events in their report can merge
/// [`global().snapshot()`](MetricsRegistry::snapshot) in.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().inc_counter("test.obs.global_shared", 1);
        global().inc_counter("test.obs.global_shared", 2);
        assert_eq!(
            global().get("test.obs.global_shared"),
            Some(MetricValue::Counter(3))
        );
    }

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.inc_counter("a.b", 2);
        reg.inc_counter("a.b", 3);
        assert_eq!(reg.get("a.b"), Some(MetricValue::Counter(5)));
        assert_eq!(reg.get("missing"), None);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("x", 1.0);
        reg.set_gauge("x", -2.5);
        assert_eq!(reg.get("x"), Some(MetricValue::Gauge(-2.5)));
    }

    #[test]
    fn snapshot_sorted_and_json_stable() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("z", 1.0);
        reg.inc_counter("a", 7);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "z".to_string()]);
        assert_eq!(reg.to_json().to_string(), "{\"a\":7,\"z\":1}");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("m", 1.0);
        reg.inc_counter("m", 1);
    }

    #[test]
    fn prefixed_snapshot_excludes_siblings() {
        let reg = MetricsRegistry::new();
        reg.inc_counter("serve.a.driver_calls", 2);
        reg.set_gauge("serve.a.wall_s", 0.25);
        reg.inc_counter("serve.ab.driver_calls", 9);
        let names: Vec<String> = reg
            .snapshot_prefixed("serve.a")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec!["serve.a.driver_calls".to_string(), "serve.a.wall_s".to_string()]
        );
    }
}
