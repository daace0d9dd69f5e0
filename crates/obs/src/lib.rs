//! Unified observability layer: span tracing, metrics, bench reports.
//!
//! The repository previously had three disjoint measurement systems —
//! per-kernel wall-clock buckets (`lra_core::KernelTimers`), per-rank
//! communication counters (`lra_comm::CommStats`), and the LPT
//! strong-scaling simulator (`lra_par::Profile`) — and the benchmark
//! binaries emitted only free-form text. This crate unifies them:
//!
//! - [`trace`] — hierarchical span tracing with per-rank timelines.
//!   Spans carry a lane id (the SPMD rank), a label, and their parent
//!   span. Tracing is env-gated (`LRA_TRACE=path.json`): when off, the
//!   entire fast path is a single relaxed atomic load and no
//!   allocation, so instrumented kernels cost nothing in production.
//!   The collected events export as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto, one lane per rank).
//! - [`metrics`] — a registry of named counters, gauges and
//!   histograms. The owning crates feed it: `KernelTimers` and
//!   `CommStats` both provide `export_metrics` adapters.
//! - [`report`] — the machine-readable [`report::BenchReport`] schema
//!   (per-algorithm wall time, per-kernel breakdown, achieved rank,
//!   true vs. estimated relative error) the `lra-bench` bins write as
//!   `BENCH_*.json`, establishing a diffable perf baseline across PRs.
//! - [`json`] — the minimal JSON value/parser/writer the exporters are
//!   built on (the build environment vendors no serde).
//! - [`crc`] — CRC-32 checksums for durability layers that need to
//!   detect torn writes and bit flips in serialized state (the
//!   `lra-recover` checkpoint envelopes stamp their payload with it;
//!   corruption surfaces as `recover.corrupt_checkpoint` /
//!   `recover.rollback` counters in [`metrics`]).
//!
//! This crate is a *leaf*: it depends only on `std`, so every other
//! workspace crate can hook into it without dependency cycles.

pub mod crc;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use json::Json;
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry, ScopedMetrics};
pub use report::{BenchEntry, BenchReport, KernelTime, BENCH_SCHEMA_VERSION};
pub use trace::{SpanGuard, TraceEvent};
