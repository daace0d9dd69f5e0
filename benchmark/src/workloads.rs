//! The four batch workloads: a fixed solve list run as repeated passes.
//!
//! A run is set-up — generation, `‖A‖_F`, and one untimed warm-up pass
//! in which every returned factorization is checked against the
//! fixed-precision postcondition and ILUT gets its `u_estimate` — and
//! then the timed passes. The solves are
//! deterministic, so a timed solve is checked by comparing the digest of
//! its factor bits with the warm-up's; only one that differs is put
//! through the full check again.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use lra::sparse::CscMatrix;

use crate::adapter::{self, Method, Problem, SolveSpec, Solved};
use crate::report::Results;
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, percentile, summarize, Summary};
use crate::{inputs, probes, serve_mix};

pub const NAMES: [&str; 5] = [
    "tp_sparse",
    "fill_dense",
    "qb_dense",
    "spmd_ckpt",
    "serve_mix",
];

/// Fewest and most timed passes of a run; `--seconds` picks in between.
pub const MIN_PASSES: usize = 3;
pub const MAX_PASSES: usize = 5;

pub struct RunArgs {
    /// One of [`NAMES`].
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `benchmark/out`: results, traces and the on-disk checkpoint probe.
    pub out_dir: PathBuf,
    /// When the process started: the origin of `setup_s`.
    pub started: Instant,
}

/// Never more than `min(nproc, 2)` busy threads.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

const fn spec(name: &'static str, method: Method, tau: f64) -> SolveSpec {
    SolveSpec { name, method, tau }
}

struct Batch {
    generate: fn(u64) -> CscMatrix,
    solves: &'static [SolveSpec],
}

const TP_SPARSE: &[SolveSpec] = &[
    spec("lu_crtp_1e-2", Method::LuCrtp, 1e-2),
    spec("ilut_crtp_1e-2", Method::IlutCrtp, 1e-2),
    spec("ilut_crtp_1e-3", Method::IlutCrtp, 1e-3),
];

const FILL_DENSE: &[SolveSpec] = &[
    spec("lu_crtp_1e-2", Method::LuCrtp, 1e-2),
    spec("ilut_crtp_1e-2", Method::IlutCrtp, 1e-2),
    spec("lu_crtp_1e-4", Method::LuCrtp, 1e-4),
    spec("ilut_crtp_1e-4", Method::IlutCrtp, 1e-4),
];

const QB_DENSE: &[SolveSpec] = &[
    spec("rand_qb_p0_1e-2", Method::RandQb { power: 0 }, 1e-2),
    spec("rand_qb_p1_1e-2", Method::RandQb { power: 1 }, 1e-2),
    spec("rand_qb_p2_1e-2", Method::RandQb { power: 2 }, 1e-2),
    spec("rand_qb_p1_1e-3", Method::RandQb { power: 1 }, 1e-3),
    spec("rand_ubv_1e-2", Method::RandUbv, 1e-2),
    spec("rand_ubv_1e-3", Method::RandUbv, 1e-3),
];

const fn spmd(np: usize, checkpointed: bool) -> Method {
    Method::IlutSpmd { np, checkpointed }
}

// On the `fill_dense` matrix.
const SPMD_CKPT: &[SolveSpec] = &[
    spec("ilut_spmd_np1_1e-4", spmd(1, false), 1e-4),
    spec("ilut_spmd_np2_1e-4", spmd(2, false), 1e-4),
    spec("ilut_spmd_np2_ckpt_1e-4", spmd(2, true), 1e-4),
];

fn batch(workload: &str) -> Option<Batch> {
    let (generate, solves): (fn(u64) -> CscMatrix, _) = match workload {
        "tp_sparse" => (inputs::tp_sparse, TP_SPARSE),
        "fill_dense" => (inputs::fill_dense, FILL_DENSE),
        "qb_dense" => (inputs::qb_dense, QB_DENSE),
        "spmd_ckpt" => (inputs::fill_dense, SPMD_CKPT),
        _ => return None,
    };
    Some(Batch { generate, solves })
}

pub fn run(args: &RunArgs) -> Results {
    match batch(args.workload) {
        Some(b) => run_batch(args, &b),
        None => serve_mix::run(args),
    }
}

/// Close a run: `fail_ratio`, the results document and the trace.
pub fn finish(
    args: &RunArgs,
    rec: &Recorder,
    attempted: u64,
    failures: Vec<String>,
    mut values: BTreeMap<&'static str, f64>,
    timings: BTreeMap<String, Summary>,
) -> Results {
    values.insert("fail_ratio", failures.len() as f64 / attempted as f64);
    let results = Results {
        workload: args.workload,
        seed: args.seed,
        traced: args.traced,
        attempted,
        failures,
        values,
        timings,
    };
    crate::write_outputs(args, &results, rec);
    results
}

/// How many timed passes fit `seconds`, given what one pass took. A
/// traced run takes at least four, two with its spans on and two off.
pub fn timed_passes(seconds: f64, pass_s: f64, traced: bool) -> usize {
    let min = if traced { MIN_PASSES + 1 } else { MIN_PASSES };
    ((seconds / pass_s.max(1e-9)) as usize).clamp(min, MAX_PASSES)
}

/// What the warm-up pass established about one solve of the list.
struct Checked {
    fingerprint: u64,
    rank: usize,
    iterations: usize,
    factor_bytes: u64,
    factor_nnz: u64,
    est_rel_err: f64,
    true_rel_err: f64,
}

/// One solve under `catch_unwind`: a panic is a failed solve, not a
/// failed benchmark.
fn guarded_solve(spec: &SolveSpec, p: &Problem, threads: usize) -> Result<Solved, String> {
    catch_unwind(AssertUnwindSafe(|| adapter::solve(spec, p, threads)))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}

/// The fixed-precision gate on one returned factorization: converged
/// and `‖A − H W‖_F < τ ‖A‖_F`. Returns the true relative error.
fn gate(
    spec: &SolveSpec,
    s: &Solved,
    p: &Problem,
    threads: usize,
    rec: &Recorder,
) -> Result<f64, String> {
    let err = rec.span(&format!("verify.{}", spec.name), || {
        adapter::true_error(&s.factors, &p.a, threads)
    });
    let rel = err / p.a_norm;
    if !s.converged {
        return Err(format!("{}: did not converge (rank {})", spec.name, s.rank));
    }
    // A NaN error compares false and fails.
    if rel < spec.tau {
        Ok(rel)
    } else {
        Err(format!(
            "{}: true error {rel:e} >= tau {:e}",
            spec.name, spec.tau
        ))
    }
}

fn digits(true_rel_err: f64) -> f64 {
    -true_rel_err.log10()
}

fn run_batch(args: &RunArgs, b: &Batch) -> Results {
    let rec = Recorder::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let threads = threads();

    // ---- set-up --------------------------------------------------------
    let t = Instant::now();
    let a = (b.generate)(args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let a_norm = a.fro_norm();
    let mut p = Problem {
        a,
        a_norm,
        u_estimates: Vec::new(),
        sketch_seed: inputs::derive(args.seed, 99),
    };

    // ---- warm-up pass: every factorization fully checked ---------------
    let mut checked: Vec<Option<Checked>> = Vec::new();
    let mut warm_s = 0.0;
    for spec in b.solves {
        // ILUT takes LU_CRTP's iteration count at its tolerance as
        // `u_estimate`: from the list's own LU solve where it has one,
        // from an extra LU_CRTP run here where it has not.
        let known = p.u_estimates.iter().any(|(tau, _)| *tau == spec.tau);
        if !known && matches!(spec.method, Method::IlutCrtp | Method::IlutSpmd { .. }) {
            let u = adapter::lu_iterations(&p.a, spec.tau, threads);
            p.u_estimates.push((spec.tau, u));
        }
        attempted += 1;
        let outcome = guarded_solve(spec, &p, threads).and_then(|s| {
            warm_s += s.wall_s;
            if !known && spec.method == Method::LuCrtp {
                p.u_estimates.push((spec.tau, s.iterations.max(1)));
            }
            let true_rel_err = gate(spec, &s, &p, threads, &rec)?;
            Ok(Checked {
                fingerprint: s.fingerprint,
                rank: s.rank,
                iterations: s.iterations,
                factor_bytes: s.factor_bytes,
                factor_nnz: s.factor_nnz,
                est_rel_err: s.est_rel_err,
                true_rel_err,
            })
        });
        checked.push(match outcome {
            Ok(c) => Some(c),
            Err(e) => {
                failures.push(format!("warm-up {}: {e}", spec.name));
                None
            }
        });
    }
    let setup_s = args.started.elapsed().as_secs_f64();

    // ---- timed passes ---------------------------------------------------
    let n_passes = timed_passes(args.seconds, warm_s, args.traced);
    let mut series: Vec<Series> = b.solves.iter().map(|_| Series::default()).collect();
    let mut bucket_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in 1..=n_passes {
        // A traced run records spans on every other pass, so that one
        // run yields both sides of the tracing-overhead ratio.
        let spans_on = args.traced && pass % 2 == 0;
        rec.set_enabled(spans_on);
        rec.set_pass(pass as u32);
        let mut buckets: BTreeMap<&'static str, f64> = BTreeMap::new();
        rec.span("pass", || {
            for (i, spec) in b.solves.iter().enumerate() {
                attempted += 1;
                let solved = rec.span(&format!("solve.{}", spec.name), || {
                    guarded_solve(spec, &p, threads)
                });
                let s = match solved {
                    Ok(s) => s,
                    Err(e) => {
                        failures.push(format!("pass {pass} {}: {e}", spec.name));
                        continue;
                    }
                };
                let true_rel_err = match &checked[i] {
                    Some(c) if c.fingerprint == s.fingerprint => Some(c.true_rel_err),
                    _ => gate(spec, &s, &p, threads, &rec)
                        .map_err(|e| failures.push(format!("pass {pass} {e}")))
                        .ok(),
                };
                let ser = &mut series[i];
                if spans_on {
                    ser.traced_wall_s.push(s.wall_s);
                } else {
                    ser.wall_s.push(s.wall_s);
                }
                if let Some(rel) = true_rel_err {
                    ser.s_per_digit.push(s.wall_s / digits(rel));
                }
                ser.comm = s.comm;
                ser.checkpoint_saves = s.checkpoint_saves;
                for &(name, secs) in &s.buckets {
                    *buckets.entry(name).or_default() += secs;
                }
            }
        });
        for (name, secs) in buckets {
            bucket_s.entry(name).or_default().push(secs);
        }
    }
    rec.set_enabled(args.traced);
    rec.set_pass(0);
    let peak_rss = peak_rss_mb().unwrap_or(0.0);

    // ---- metrics ----------------------------------------------------------
    // Each solve's median over the passes, then the sum over the list: a
    // slow spell of the machine has to hit the same solve in half the
    // passes before it moves the result.
    let solve_medians: Vec<f64> = series.iter().map(|s| median(&s.all_wall_s())).collect();
    let solve_s: f64 = solve_medians.iter().sum();
    let done: Vec<&Checked> = checked.iter().flatten().collect();
    let sum = |f: fn(&Checked) -> f64| done.iter().map(|c| f(c)).sum::<f64>();
    values.insert("setup_s", setup_s);
    values.insert("solve_s", solve_s);
    values.insert(
        "s_per_digit",
        series.iter().map(|s| median(&s.s_per_digit)).sum(),
    );
    values.insert("rank_sum", sum(|c| c.rank as f64));
    values.insert("factor_mb", sum(|c| c.factor_bytes as f64) / 1e6);
    values.insert("peak_rss_mb", peak_rss);
    // A job of a batch workload is one solve of the list, its latency
    // the solve's median wall time over the passes.
    values.insert("job_p50_s", percentile(&solve_medians, 50.0));
    values.insert("job_p95_s", percentile(&solve_medians, 95.0));
    let index_of = |name: &str| b.solves.iter().position(|s| s.name == name);
    let time_of = |name: &str| index_of(name).map(|i| solve_medians[i]);
    let spmd = (
        index_of("ilut_spmd_np1_1e-4"),
        index_of("ilut_spmd_np2_1e-4"),
        index_of("ilut_spmd_np2_ckpt_1e-4"),
    );
    if let (Some(np1), Some(np2), _) = spmd {
        let scale_eff = solve_medians[np1] / (2.0 * solve_medians[np2]);
        values.insert("scale_eff_np2", scale_eff);
        values.insert("comm.scale_eff_np2", scale_eff);
    }

    let mut timings = BTreeMap::new();
    for (spec, ser) in b.solves.iter().zip(&series) {
        timings.insert(format!("solve.{}", spec.name), summarize(&ser.all_wall_s()));
    }

    if args.traced {
        for (spec, med) in b.solves.iter().zip(&solve_medians) {
            values.insert(core_metric(spec.name), *med);
        }
        for (name, v) in &bucket_s {
            values.insert(bucket_metric(name), median(v));
        }
        let nnz_a = p.a.nnz() as f64;
        values.insert("core.iterations_sum", sum(|c| c.iterations as f64));
        values.insert(
            "core.fill_ratio",
            sum(|c| c.factor_nnz as f64) / (done.len().max(1) as f64 * nnz_a),
        );
        let max_of = |f: &dyn Fn(&Checked, &SolveSpec) -> f64| {
            checked
                .iter()
                .zip(b.solves)
                .filter_map(|(c, s)| c.as_ref().map(|c| f(c, s)))
                .fold(0.0, f64::max)
        };
        values.insert(
            "core.est_over_true_max",
            max_of(&|c, _| c.est_rel_err / c.true_rel_err),
        );
        values.insert(
            "core.err_over_tau_max",
            max_of(&|c, s| c.true_rel_err / s.tau),
        );
        values.insert("matgen.generate_s", generate_s);
        let spans_on_s: f64 = series.iter().map(|s| median(&s.traced_wall_s)).sum();
        let spans_off_s: f64 = series.iter().map(|s| median(&s.wall_s)).sum();
        values.insert("obs.bench_trace_overhead_ratio", spans_on_s / spans_off_s);
        program_traced_pass(b, &p, threads, solve_s, &mut values);

        if let (_, Some(np2), Some(ckpt)) = spmd {
            let (t_np2, t_ckpt) = (solve_medians[np2], solve_medians[ckpt]);
            if let Some(c) = series[np2].comm {
                values.insert("comm.msgs", c.msgs as f64);
                values.insert("comm.bytes_sent", c.bytes_sent as f64);
                values.insert("comm.collectives", c.collectives as f64);
                values.insert(
                    "comm.overlap_hidden_ratio",
                    c.overlap_hidden_s / (c.overlap_hidden_s + c.overlap_wait_s),
                );
                values.insert("comm.overlap_wait_s", c.overlap_wait_s);
            }
            let saves = series[ckpt].checkpoint_saves.unwrap_or(0);
            values.insert("recover.saves", saves as f64);
            values.insert("recover.ckpt_overhead_ratio", t_ckpt / t_np2);
            if saves > 0 {
                values.insert("recover.ckpt_s_per_save", (t_ckpt - t_np2) / saves as f64);
            }
            let iterations = checked[np2].as_ref().map_or(0, |c| c.iterations);
            let found = probes::recovery(
                &p,
                1e-4,
                t_np2,
                iterations,
                &args.out_dir,
                &rec,
                &mut values,
            );
            failures.extend(found);
        }
        probes::layers(&p, threads, time_of("ilut_crtp_1e-2"), &rec, &mut values);
    }

    finish(args, &rec, attempted, failures, values, timings)
}

/// What the timed passes recorded about one solve of the list.
#[derive(Default)]
struct Series {
    /// Wall seconds per pass, by whether the benchmark's spans were on.
    wall_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    /// Wall seconds over correct digits, per pass.
    s_per_digit: Vec<f64>,
    /// Of the latest pass.
    comm: Option<adapter::CommTotals>,
    checkpoint_saves: Option<u64>,
}

impl Series {
    fn all_wall_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .chain(&self.traced_wall_s)
            .copied()
            .collect()
    }
}

/// One extra pass under the program's own `lra_obs` tracing — the only
/// place the benchmark switches it on.
fn program_traced_pass(
    b: &Batch,
    p: &Problem,
    threads: usize,
    untraced_pass_s: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    lra::obs::trace::enable();
    let wall: f64 = b
        .solves
        .iter()
        .filter_map(|spec| guarded_solve(spec, p, threads).ok())
        .map(|s| s.wall_s)
        .sum();
    lra::obs::trace::disable();
    let events = lra::obs::trace::take_events().len();
    values.insert("obs.program_trace_overhead_ratio", wall / untraced_pass_s);
    values.insert("obs.program_trace_events", events as f64);
}

fn catalogue_name(name: String) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
}

fn core_metric(solve: &str) -> &'static str {
    catalogue_name(format!("core.{solve}_s"))
}

fn bucket_metric(bucket: &str) -> &'static str {
    catalogue_name(format!("core.bucket.{bucket}_s"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_follows_seconds_within_its_limits() {
        assert_eq!(timed_passes(12.0, 3.6, false), 3);
        assert_eq!(timed_passes(12.0, 2.9, false), 4);
        assert_eq!(timed_passes(12.0, 0.5, false), MAX_PASSES);
        assert_eq!(timed_passes(1.0, 30.0, false), MIN_PASSES);
        assert_eq!(timed_passes(1.0, 30.0, true), MIN_PASSES + 1);
        assert_eq!(timed_passes(5.0, 0.0, true), MAX_PASSES);
    }

    #[test]
    fn every_solve_and_bucket_has_a_catalogue_entry() {
        for w in NAMES {
            if let Some(b) = batch(w) {
                for s in b.solves {
                    assert!(core_metric(s.name).starts_with("core."));
                }
            }
        }
        for bucket in [
            "col_qr_tp",
            "panel_qr",
            "row_qr_tp",
            "permute",
            "l_solve",
            "schur",
            "drop",
            "concat",
            "indicator",
            "sketch",
            "orth",
            "power_iter",
            "b_update",
            "other",
        ] {
            assert!(bucket_metric(bucket).ends_with("_s"));
        }
    }

    #[test]
    fn more_correct_digits_make_a_second_cheaper() {
        assert!((digits(1e-2) - 2.0).abs() < 1e-12);
        assert!(1.0 / digits(9e-5) < 1.0 / digits(9e-3));
    }
}
