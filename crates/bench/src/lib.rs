//! The benchmark harness: the memoized run table ([`sweep`]) and the
//! tables, figures, claims and BENCH report derived from it ([`views`])
//! behind the `paper` bin, plus the helpers the other bins share (see
//! DESIGN.md for the per-experiment index and EXPERIMENTS.md for
//! recorded outputs).

use lra_obs::{BenchEntry, BenchReport, MetricsRegistry, BENCH_SCHEMA_VERSION};
use lra_par::Parallelism;
use std::time::Instant;

pub mod sweep;
pub mod views;

/// Command-line configuration shared by all benchmark binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Linear size multiplier for the preset matrices.
    pub scale: usize,
    /// Include the large M6' experiment.
    pub large: bool,
    /// Reduced tolerance grid / iteration counts for smoke runs.
    pub quick: bool,
    /// Worker cap (defaults to all hardware threads).
    pub max_np: usize,
    /// Compute the exact TSVD reference where requested (slow).
    pub tsvd: bool,
}

/// One-line usage string shared by every benchmark binary.
pub const USAGE: &str = "usage: <bench> [--scale N] [--np N] [--large] [--quick] [--tsvd]";

impl BenchConfig {
    /// Defaults: scale 1, all hardware threads, nothing optional.
    pub fn defaults() -> Self {
        BenchConfig {
            scale: 1,
            large: false,
            quick: false,
            max_np: lra_par::available_parallelism(),
            tsvd: false,
        }
    }

    /// Parse flags (`--scale N`, `--np N`, `--large`, `--quick`,
    /// `--tsvd`) from an argument slice *excluding* the program name.
    /// Unrecognized flags, missing values and unparsable numbers are
    /// errors, not panics.
    pub fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::defaults();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<usize, String> {
            *i += 1;
            let raw = args
                .get(*i)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            raw.parse()
                .map_err(|_| format!("{flag} expects a positive integer, got {raw:?}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => cfg.scale = value(&mut i, "--scale")?,
                "--np" => cfg.max_np = value(&mut i, "--np")?,
                "--large" => cfg.large = true,
                "--quick" => cfg.quick = true,
                "--tsvd" => cfg.tsvd = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
            i += 1;
        }
        Ok(cfg)
    }

    /// Full parallelism under the configured cap.
    pub fn par(&self) -> Parallelism {
        Parallelism::new(self.max_np)
    }
}

/// Wall-clock a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Assemble a BENCH v1 report from `entries` and the registry snapshot,
/// validate it, write it to `path` and say so.
pub fn write_report(
    bench: &str,
    cfg: &BenchConfig,
    max_np: usize,
    entries: Vec<BenchEntry>,
    reg: &MetricsRegistry,
    path: &str,
) -> Result<(), String> {
    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: bench.to_string(),
        quick: cfg.quick,
        scale: cfg.scale,
        max_np,
        entries,
        metrics: reg.to_json(),
    };
    report.validate().map_err(|err| format!("generated report failed validation: {err}"))?;
    std::fs::write(path, report.to_json_string() + "\n")
        .map_err(|err| format!("cannot write {path}: {err}"))?;
    println!("wrote {path} ({} entries)", report.entries.len());
    Ok(())
}

/// Read back and structurally validate a `BENCH_*.json` report.
pub fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let report = BenchReport::from_json_str(&text).and_then(|r| r.validate().map(|()| r));
    report.map_err(|err| format!("{path}: invalid report: {err}"))
}

/// Numerical rank of a matrix from its singular values:
/// `#{ i : s_i > max(m,n) * eps * s_0 }`.
pub fn numerical_rank(s: &[f64], m: usize, n: usize) -> usize {
    if s.is_empty() || s[0] == 0.0 {
        return 0;
    }
    let thresh = m.max(n) as f64 * f64::EPSILON * s[0];
    s.iter().take_while(|&&x| x > thresh).count()
}

/// Format seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s < 0.001 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 10.0 {
        format!("{s:.3}")
    } else {
        format!("{s:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerical_rank_counts_above_threshold() {
        let s = [1.0, 0.5, 1e-20];
        assert_eq!(numerical_rank(&s, 10, 10), 2);
        assert_eq!(numerical_rank(&[], 3, 3), 0);
        assert_eq!(numerical_rank(&[0.0], 3, 3), 0);
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_accepts_known_flags() {
        let cfg = BenchConfig::parse_args(&sv(&["--scale", "3", "--quick", "--np", "7"])).unwrap();
        assert_eq!(cfg.scale, 3);
        assert_eq!(cfg.max_np, 7);
        assert!(cfg.quick);
        assert!(!cfg.large);
        assert!(!cfg.tsvd);
    }

    #[test]
    fn parse_args_rejects_unknown_flag() {
        let err = BenchConfig::parse_args(&sv(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn parse_args_rejects_missing_or_bad_value() {
        let err = BenchConfig::parse_args(&sv(&["--scale"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = BenchConfig::parse_args(&sv(&["--np", "many"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }
}
