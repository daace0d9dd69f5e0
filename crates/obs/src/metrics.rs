//! Metrics registry: named counters, gauges and histograms.
//!
//! One [`MetricsRegistry`] per measurement scope (a bench run, one
//! SPMD execution). The measurement systems that predate this crate
//! feed into it through `export_metrics` adapters implemented next to
//! the data they own:
//!
//! - `lra_core::KernelTimers::export_metrics` — per-kernel seconds as
//!   histogram observations,
//! - `lra_comm::CommStats::export_metrics` — per-rank message/byte/
//!   collective counters.
//!
//! Names are dotted paths (`comm.rank0.msgs_sent`); the registry keeps
//! them sorted so snapshots and JSON exports are deterministic.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Running aggregate of observed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    fn new() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Aggregate of repeated observations.
    Histogram(HistogramSnapshot),
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

    /// Record one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert(MetricValue::Histogram(HistogramSnapshot::new()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
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

    /// Export as a JSON object: counters and gauges as numbers,
    /// histograms as `{count, sum, min, max, mean}`.
    pub fn to_json(&self) -> Json {
        let pairs = self
            .snapshot()
            .into_iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(c) => Json::Num(c as f64),
                    MetricValue::Gauge(g) => Json::Num(g),
                    MetricValue::Histogram(h) => Json::Obj(vec![
                        ("count".to_string(), Json::Num(h.count as f64)),
                        ("sum".to_string(), Json::Num(h.sum)),
                        (
                            "min".to_string(),
                            if h.count == 0 { Json::Null } else { Json::Num(h.min) },
                        ),
                        (
                            "max".to_string(),
                            if h.count == 0 { Json::Null } else { Json::Num(h.max) },
                        ),
                        ("mean".to_string(), Json::Num(h.mean())),
                    ]),
                };
                (name, v)
            })
            .collect();
        Json::Obj(pairs)
    }

    /// A prefixed view of this registry: every metric name recorded
    /// through the returned handle is rewritten to `prefix.name`. This
    /// is how per-job (or per-tenant) observability shares one backing
    /// registry — a job engine hands each job
    /// `registry.scoped(format!("serve.job.{id}"))` and the job's
    /// counters, gauges and histograms land under its own dotted
    /// namespace without any coordination.
    pub fn scoped(&self, prefix: impl Into<String>) -> ScopedMetrics<'_> {
        ScopedMetrics {
            registry: self,
            prefix: prefix.into(),
        }
    }

    /// All metrics whose dotted name starts with `prefix.`, in name
    /// order — the read side of [`MetricsRegistry::scoped`].
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

/// A name-prefixing view over a [`MetricsRegistry`] (see
/// [`MetricsRegistry::scoped`]). Cloning is cheap; the view borrows the
/// backing registry.
#[derive(Debug, Clone)]
pub struct ScopedMetrics<'a> {
    registry: &'a MetricsRegistry,
    prefix: String,
}

impl ScopedMetrics<'_> {
    /// The prefix every recorded name is rewritten under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// [`MetricsRegistry::inc_counter`] under the scope prefix.
    pub fn inc_counter(&self, name: &str, delta: u64) {
        self.registry
            .inc_counter(&format!("{}.{name}", self.prefix), delta);
    }

    /// [`MetricsRegistry::set_gauge`] under the scope prefix.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.registry
            .set_gauge(&format!("{}.{name}", self.prefix), value);
    }

    /// [`MetricsRegistry::observe`] under the scope prefix.
    pub fn observe(&self, name: &str, value: f64) {
        self.registry
            .observe(&format!("{}.{name}", self.prefix), value);
    }

    /// [`MetricsRegistry::get`] under the scope prefix.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.registry.get(&format!("{}.{name}", self.prefix))
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
    fn histograms_aggregate() {
        let reg = MetricsRegistry::new();
        reg.observe("h", 1.0);
        reg.observe("h", 3.0);
        match reg.get("h").unwrap() {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 4.0);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 3.0);
                assert_eq!(h.mean(), 2.0);
            }
            other => panic!("{other:?}"),
        }
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
    fn scoped_view_prefixes_and_reads_back() {
        let reg = MetricsRegistry::new();
        let job = reg.scoped("serve.job.7");
        job.inc_counter("driver_calls", 2);
        job.set_gauge("wall_s", 0.25);
        job.observe("iter_s", 0.5);
        assert_eq!(
            reg.get("serve.job.7.driver_calls"),
            Some(MetricValue::Counter(2))
        );
        assert_eq!(job.get("wall_s"), Some(MetricValue::Gauge(0.25)));
        // Prefixed snapshot sees exactly the scope, not siblings.
        reg.inc_counter("serve.job.70.driver_calls", 9);
        let names: Vec<String> = reg
            .snapshot_prefixed("serve.job.7")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec![
                "serve.job.7.driver_calls".to_string(),
                "serve.job.7.iter_s".to_string(),
                "serve.job.7.wall_s".to_string(),
            ]
        );
    }
}
