//! The machine-readable benchmark report schema (`BENCH_*.json`).
//!
//! Each report-writing bin of crates/bench (`paper`, `kernel_bench`)
//! writes one [`BenchReport`] per run:
//! per-algorithm wall time, per-kernel time breakdown, achieved rank,
//! and true vs. estimated relative Frobenius error — the quantities
//! the paper's accuracy-vs-cost argument is made of (Figs. 4-6,
//! Table II). The JSON shape is frozen by the golden-schema test in
//! `tests/golden.rs`: field names carry their units (`wall_s`,
//! `seconds`), and [`BENCH_SCHEMA_VERSION`] is bumped on any breaking
//! change so future PRs can diff baselines mechanically.

use crate::json::{obj, Json};

/// Version of the `BENCH_*.json` schema. Bump on breaking changes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Fraction of the reported wall time that the per-kernel breakdown
/// (including the `other` bucket) must account for. [`BenchReport::validate`]
/// enforces it.
pub const KERNEL_SUM_TOLERANCE: f64 = 0.10;

/// One `(kernel, seconds)` bucket of an entry's time breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTime {
    /// Kernel label (`schur`, `col_qr_tp`, …; `other` holds the
    /// remainder so buckets always sum to the wall time).
    pub kernel: String,
    /// Accumulated wall-clock seconds.
    pub seconds: f64,
}

/// One benchmarked `(algorithm, matrix, parameters)` combination.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Algorithm name (`rand_qb_ei`, `lu_crtp`, `ilut_crtp`,
    /// `rand_ubv`, the `ilut_crtp_spmd` report label, …).
    pub algorithm: String,
    /// Matrix label (`M1'`, `S042`, …).
    pub matrix: String,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Matrix stored entries.
    pub nnz: usize,
    /// Requested relative tolerance.
    pub tau: f64,
    /// Block size `k`.
    pub k: usize,
    /// SPMD rank count (1 for shared-memory/sequential runs).
    pub np: usize,
    /// End-to-end wall time in seconds.
    pub wall_s: f64,
    /// Per-kernel breakdown; sums to `wall_s` within
    /// [`KERNEL_SUM_TOLERANCE`] (an `other` bucket absorbs untimed
    /// work).
    pub kernels: Vec<KernelTime>,
    /// Achieved rank `K`.
    pub rank: usize,
    /// Block iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the rank cap.
    pub converged: bool,
    /// The algorithm's own error estimate, relative to `||A||_F`
    /// (eq. 4 for RandQB_EI, `||A^(i+1)||_F` for LU_CRTP, eq. 26 for
    /// ILUT_CRTP).
    pub est_rel_err: f64,
    /// Exactly computed `||A - H_K W_K||_F / ||A||_F`.
    pub true_rel_err: f64,
}

impl BenchEntry {
    /// Total seconds across the kernel buckets.
    pub fn kernel_sum_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.seconds).sum()
    }
}

/// A full benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Producing harness (`paper`, `kernel_bench`, …).
    pub bench: String,
    /// Whether the reduced `--quick` preset ran.
    pub quick: bool,
    /// Preset size multiplier.
    pub scale: usize,
    /// Worker/rank cap of the run.
    pub max_np: usize,
    /// Benchmarked combinations.
    pub entries: Vec<BenchEntry>,
    /// Snapshot of the unified metrics registry (counters from
    /// `CommStats`, histograms from `KernelTimers`, gauges from
    /// `lra_par::Profile`). Always a JSON object.
    pub metrics: Json,
}

impl BenchReport {
    /// Serialize to the frozen JSON shape.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("bench", Json::Str(self.bench.clone())),
            ("quick", Json::Bool(self.quick)),
            ("scale", Json::Num(self.scale as f64)),
            ("max_np", Json::Num(self.max_np as f64)),
            (
                "entries",
                Json::Arr(self.entries.iter().map(entry_to_json).collect()),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Serialize to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse a report back from JSON text.
    pub fn from_json_str(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        Self::from_json(&v)
    }

    /// Parse a report from a JSON value.
    pub fn from_json(v: &Json) -> Result<BenchReport, String> {
        let entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing entries array")?
            .iter()
            .map(entry_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version: req_u64(v, "schema_version")?,
            bench: req_str(v, "bench")?,
            quick: req_bool(v, "quick")?,
            scale: req_u64(v, "scale")? as usize,
            max_np: req_u64(v, "max_np")? as usize,
            entries,
            metrics: v.get("metrics").cloned().unwrap_or(Json::Obj(Vec::new())),
        })
    }

    /// Structural validation: schema version, metrics is an object,
    /// per-entry invariants (finite non-negative times, kernel buckets
    /// summing to `wall_s` within [`KERNEL_SUM_TOLERANCE`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {BENCH_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if !matches!(self.metrics, Json::Obj(_)) {
            return Err("metrics is not a JSON object".to_string());
        }
        if self.entries.is_empty() {
            return Err("report has no entries".to_string());
        }
        for (i, e) in self.entries.iter().enumerate() {
            let ctx = format!("entry {i} ({} on {})", e.algorithm, e.matrix);
            if !(e.wall_s.is_finite() && e.wall_s >= 0.0) {
                return Err(format!("{ctx}: bad wall_s {}", e.wall_s));
            }
            for kt in &e.kernels {
                if !(kt.seconds.is_finite() && kt.seconds >= 0.0) {
                    return Err(format!("{ctx}: bad kernel time {} {}", kt.kernel, kt.seconds));
                }
            }
            let sum = e.kernel_sum_s();
            if (sum - e.wall_s).abs() > KERNEL_SUM_TOLERANCE * e.wall_s.max(1e-9) {
                return Err(format!(
                    "{ctx}: kernel sum {sum:.6}s deviates from wall {:.6}s by more than {}%",
                    e.wall_s,
                    KERNEL_SUM_TOLERANCE * 100.0
                ));
            }
            for (label, v) in [
                ("est_rel_err", e.est_rel_err),
                ("true_rel_err", e.true_rel_err),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("{ctx}: bad {label} {v}"));
                }
            }
            if e.rank > e.rows.min(e.cols) {
                return Err(format!("{ctx}: rank {} exceeds min dimension", e.rank));
            }
        }
        Ok(())
    }
}

fn entry_to_json(e: &BenchEntry) -> Json {
    obj(vec![
        ("algorithm", Json::Str(e.algorithm.clone())),
        ("matrix", Json::Str(e.matrix.clone())),
        ("rows", Json::Num(e.rows as f64)),
        ("cols", Json::Num(e.cols as f64)),
        ("nnz", Json::Num(e.nnz as f64)),
        ("tau", Json::Num(e.tau)),
        ("k", Json::Num(e.k as f64)),
        ("np", Json::Num(e.np as f64)),
        ("wall_s", Json::Num(e.wall_s)),
        (
            "kernels",
            Json::Arr(
                e.kernels
                    .iter()
                    .map(|kt| {
                        obj(vec![
                            ("kernel", Json::Str(kt.kernel.clone())),
                            ("seconds", Json::Num(kt.seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rank", Json::Num(e.rank as f64)),
        ("iterations", Json::Num(e.iterations as f64)),
        ("converged", Json::Bool(e.converged)),
        ("est_rel_err", Json::Num(e.est_rel_err)),
        ("true_rel_err", Json::Num(e.true_rel_err)),
    ])
}

fn entry_from_json(v: &Json) -> Result<BenchEntry, String> {
    let kernels = v
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("entry missing kernels array")?
        .iter()
        .map(|kt| {
            Ok(KernelTime {
                kernel: req_str(kt, "kernel")?,
                seconds: req_f64(kt, "seconds")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchEntry {
        algorithm: req_str(v, "algorithm")?,
        matrix: req_str(v, "matrix")?,
        rows: req_u64(v, "rows")? as usize,
        cols: req_u64(v, "cols")? as usize,
        nnz: req_u64(v, "nnz")? as usize,
        tau: req_f64(v, "tau")?,
        k: req_u64(v, "k")? as usize,
        np: req_u64(v, "np")? as usize,
        wall_s: req_f64(v, "wall_s")?,
        kernels,
        rank: req_u64(v, "rank")? as usize,
        iterations: req_u64(v, "iterations")? as usize,
        converged: req_bool(v, "converged")?,
        est_rel_err: req_f64(v, "est_rel_err")?,
        true_rel_err: req_f64(v, "true_rel_err")?,
    })
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing or non-numeric field {key}"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing or non-integer field {key}"))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or(format!("missing or non-boolean field {key}"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("missing or non-string field {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: "bench_suite".to_string(),
            quick: true,
            scale: 1,
            max_np: 4,
            entries: vec![BenchEntry {
                algorithm: "rand_qb_ei".to_string(),
                matrix: "M2'".to_string(),
                rows: 1200,
                cols: 1200,
                nnz: 45000,
                tau: 0.01,
                k: 32,
                np: 1,
                wall_s: 0.5,
                kernels: vec![
                    KernelTime {
                        kernel: "sketch".to_string(),
                        seconds: 0.3,
                    },
                    KernelTime {
                        kernel: "other".to_string(),
                        seconds: 0.2,
                    },
                ],
                rank: 64,
                iterations: 2,
                converged: true,
                est_rel_err: 0.009,
                true_rel_err: 0.0088,
            }],
            metrics: Json::Obj(vec![("comm.msgs".to_string(), Json::Num(12.0))]),
        }
    }

    #[test]
    fn roundtrip_preserves_report() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_rejects_kernel_sum_mismatch() {
        let mut r = sample_report();
        r.entries[0].kernels[1].seconds = 0.0; // sum 0.3 vs wall 0.5
        let err = r.validate().unwrap_err();
        assert!(err.contains("kernel sum"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_version() {
        let mut r = sample_report();
        r.schema_version = 99;
        assert!(r.validate().is_err());
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = BenchReport::from_json_str("{\"schema_version\":1}").unwrap_err();
        assert!(err.contains("entries"), "{err}");
    }
}
