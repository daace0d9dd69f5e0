//! Machine-readable benchmark baseline: the quick preset sweep as one
//! `BENCH_*.json` report.
//!
//! Runs RandQB_EI, LU_CRTP, ILUT_CRTP (shared-memory) and ILUT_CRTP
//! over SPMD ranks on the Table-I preset matrices, and writes a
//! [`lra_obs::BenchReport`]: per-algorithm wall time, per-kernel
//! breakdown (an `other` bucket absorbs untimed work so buckets sum to
//! the wall time), achieved rank `K`, and true vs. estimated relative
//! Frobenius error. The unified metrics registry snapshot (comm
//! counters, kernel histograms) rides along under `metrics`.
//!
//! ```sh
//! LRA_TRACE=trace.json cargo run -p lra-bench --release --bin bench_suite -- --quick
//! cargo run -p lra-bench --bin bench_suite -- --validate BENCH_pr2.json
//! ```
//!
//! With `LRA_TRACE=path.json` set, a Chrome trace (one lane per SPMD
//! rank, driver lanes for shared-memory runs) is written on exit.

use lra_bench::{fmt_s, timed, BenchConfig, USAGE};
use lra_core::{
    factorize_ranks, ilut_crtp, lu_crtp, rand_qb_ei, CheckpointStore, IlutOpts, LuCrtpCheckpoint,
    LuCrtpOpts, LuCrtpResult, QbOpts, RecoveryHooks, RunConfig,
};
use lra_matgen::TestMatrix;
use lra_obs::{BenchEntry, BenchReport, Json, KernelTime, MetricsRegistry, BENCH_SCHEMA_VERSION};
use lra_sparse::CscMatrix;

/// Block size used for every algorithm in the suite.
const BLOCK_K: usize = 32;

fn main() {
    // bench_suite-specific flags are peeled off before the shared
    // BenchConfig parse.
    let mut out_path = "BENCH_pr2.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            "--validate" => {
                validate_path =
                    Some(args.next().unwrap_or_else(|| fail("--validate requires a value")));
            }
            _ => rest.push(a),
        }
    }
    if let Some(path) = validate_path {
        validate_file(&path);
        return;
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));

    lra_obs::trace::init_from_env();
    let reg = MetricsRegistry::new();
    let np = cfg.max_np.clamp(2, 4);
    let taus: &[f64] = if cfg.quick { &[1e-2] } else { &[1e-2, 1e-4] };
    let matrices: Vec<TestMatrix> = if cfg.quick {
        vec![lra_matgen::m1(cfg.scale), lra_matgen::m2(cfg.scale)]
    } else {
        vec![
            lra_matgen::m1(cfg.scale),
            lra_matgen::m2(cfg.scale),
            lra_matgen::m3(cfg.scale),
        ]
    };

    println!(
        "BENCH SUITE — {} matrices x tau {taus:?}, k={BLOCK_K}, np={np} (schema v{BENCH_SCHEMA_VERSION})",
        matrices.len()
    );
    let mut entries: Vec<BenchEntry> = Vec::new();
    for tm in &matrices {
        for &tau in taus {
            entries.extend(run_combination(tm, tau, np, &cfg, &reg));
        }
    }

    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "bench_suite".to_string(),
        quick: cfg.quick,
        scale: cfg.scale,
        max_np: cfg.max_np,
        entries,
        metrics: reg.to_json(),
    };
    report
        .validate()
        .and_then(|()| check_checkpoint_size(&report.metrics))
        .unwrap_or_else(|err| fail(&format!("generated report failed validation: {err}")));
    let mut text = report.to_json_string();
    text.push('\n');
    std::fs::write(&out_path, text)
        .unwrap_or_else(|err| fail(&format!("cannot write {out_path}: {err}")));
    println!("\nwrote {out_path} ({} entries)", report.entries.len());
    match lra_obs::trace::flush_to_env_path() {
        Ok(Some(path)) => println!("wrote Chrome trace to {path} (open in chrome://tracing)"),
        Ok(None) => {}
        Err(err) => fail(&format!("cannot write trace: {err}")),
    }
}

/// All four algorithm entries for one `(matrix, tau)` combination.
fn run_combination(
    tm: &TestMatrix,
    tau: f64,
    np: usize,
    cfg: &BenchConfig,
    reg: &MetricsRegistry,
) -> Vec<BenchEntry> {
    let a = &tm.a;
    let par = cfg.par();
    let mut out = Vec::with_capacity(4);
    println!(
        "\n--- {} ({}x{}, {} nnz), tau={tau:.0e} ---",
        tm.label,
        a.rows(),
        a.cols(),
        a.nnz()
    );

    // RandQB_EI.
    let mut qb_opts = QbOpts::new(BLOCK_K, tau);
    qb_opts.par = par;
    let (qb, wall) = timed(|| rand_qb_ei(a, &qb_opts).expect("tau above indicator floor"));
    qb.timers.export_metrics(reg, "rand_qb_ei");
    let true_rel = qb.exact_error(a, par) / qb.a_norm_f;
    out.push(entry(
        "rand_qb_ei",
        tm,
        tau,
        1,
        wall,
        qb.timers.report_with_other(wall),
        qb.rank,
        qb.iterations,
        qb.converged,
        qb.indicator / qb.a_norm_f,
        true_rel,
    ));

    // LU_CRTP (also provides the iteration estimate ILUT needs).
    let lu_opts = LuCrtpOpts::new(BLOCK_K, tau).with_par(par);
    let (lu, wall) = timed(|| lu_crtp(a, &lu_opts));
    lu.timers.export_metrics(reg, "lu_crtp");
    push_lu_entry(&mut out, "lu_crtp", tm, tau, 1, wall, &lu, a, par);
    let u_estimate = lu.iterations.max(1);

    // ILUT_CRTP, shared-memory.
    let mut ilut_opts = IlutOpts::new(BLOCK_K, tau, u_estimate);
    ilut_opts.base.par = par;
    let (il, wall) = timed(|| ilut_crtp(a, &ilut_opts));
    il.timers.export_metrics(reg, "ilut_crtp");
    push_lu_entry(&mut out, "ilut_crtp", tm, tau, 1, wall, &il, a, par);

    // ILUT_CRTP over SPMD ranks (the traced distributed path).
    let on_ranks = |hooks| {
        factorize_ranks(a, &ilut_opts, np, &RunConfig::default(), hooks).expect("valid input")
    };
    let (spmd_report, wall) = timed(|| on_ranks(None));
    for (rank, stats) in spmd_report.stats.iter().enumerate() {
        stats.export_metrics(reg, rank);
    }
    let dist = spmd_report.unwrap_all().swap_remove(0);
    dist.timers.export_metrics(reg, "ilut_crtp_spmd");
    push_lu_entry(&mut out, "ilut_crtp_spmd", tm, tau, np, wall, &dist, a, par);

    // Same distributed run with per-iteration checkpointing — the
    // recovery layer's steady-state cost. The overhead is reported, not
    // gated (no wall-clock checks); what is gated is that the envelope
    // stays binary-sized, see `check_checkpoint_size`.
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let (ckpt_report, ckpt_wall) = timed(|| on_ranks(Some(&hooks)));
    let ckpt = ckpt_report.unwrap_all().swap_remove(0);
    ckpt.timers.export_metrics(reg, "ilut_crtp_spmd_ckpt");
    reg.set_gauge("recover.checkpoint_overhead_pct", (ckpt_wall / wall - 1.0) * 100.0);
    let envelope = store.raw().ok().flatten().unwrap_or_default();
    let state_words = store.load().ok().flatten().map_or(0, |ck| state_words(&ck));
    reg.set_gauge("recover.checkpoint_bytes", envelope.len() as f64);
    reg.set_gauge("recover.checkpoint_state_words", state_words as f64);
    println!(
        "    checkpointing: {} snapshots, overhead {:+.1}% ({:.4}s vs {:.4}s)",
        store.saves(),
        (ckpt_wall / wall - 1.0) * 100.0,
        ckpt_wall,
        wall
    );
    push_lu_entry(&mut out, "ilut_crtp_spmd_ckpt", tm, tau, np, ckpt_wall, &ckpt, a, par);
    out
}

#[allow(clippy::too_many_arguments)]
fn push_lu_entry(
    out: &mut Vec<BenchEntry>,
    algorithm: &str,
    tm: &TestMatrix,
    tau: f64,
    np: usize,
    wall: f64,
    res: &LuCrtpResult,
    a: &CscMatrix,
    par: lra_core::Parallelism,
) {
    let true_rel = res.exact_error(a, par) / res.a_norm_f;
    out.push(entry(
        algorithm,
        tm,
        tau,
        np,
        wall,
        res.timers.report_with_other(wall),
        res.rank,
        res.iterations,
        res.converged,
        res.indicator / res.a_norm_f,
        true_rel,
    ));
}

#[allow(clippy::too_many_arguments)]
fn entry(
    algorithm: &str,
    tm: &TestMatrix,
    tau: f64,
    np: usize,
    wall: f64,
    kernels: Vec<(&'static str, f64)>,
    rank: usize,
    iterations: usize,
    converged: bool,
    est_rel_err: f64,
    true_rel_err: f64,
) -> BenchEntry {
    println!(
        "{algorithm:<16} np={np} wall={:<8} rank={rank:<4} est={est_rel_err:.3e} true={true_rel_err:.3e}",
        fmt_s(wall)
    );
    BenchEntry {
        algorithm: algorithm.to_string(),
        matrix: tm.label.clone(),
        rows: tm.a.rows(),
        cols: tm.a.cols(),
        nnz: tm.a.nnz(),
        tau,
        k: BLOCK_K,
        np,
        wall_s: wall,
        kernels: kernels
            .into_iter()
            .map(|(kernel, seconds)| KernelTime {
                kernel: kernel.to_string(),
                seconds,
            })
            .collect(),
        rank,
        iterations,
        converged,
        est_rel_err,
        true_rel_err,
    }
}

/// `--validate PATH`: parse + structurally validate an existing report.
fn validate_file(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(&format!("cannot read {path}: {err}")));
    // `mem_scaling` and `serve_bench` reports are validated here too;
    // only this binary's own reports carry the checkpoint gauges.
    let checked = BenchReport::from_json_str(&text).and_then(|r| {
        r.validate()?;
        if r.bench == "bench_suite" {
            check_checkpoint_size(&r.metrics)?;
        }
        Ok(r)
    });
    match checked {
        Ok(r) => println!(
            "{path}: valid BENCH schema v{} ({} entries)",
            r.schema_version,
            r.entries.len()
        ),
        Err(err) => fail(&format!("{path}: invalid report: {err}")),
    }
}

/// Index + value words in a loop snapshot, counted from the decoded
/// state rather than from the envelope's own section table.
fn state_words(ck: &LuCrtpCheckpoint) -> usize {
    let panel_entries: usize = ck.l_cols.iter().chain(ck.ut_cols.iter()).map(Vec::len).sum();
    let r_diags: usize = ck.trace.iter().map(|t| t.r_diag.len()).sum();
    let index_words = ck.s.colptr().len()
        + ck.s.rowidx().len()
        + ck.row_map.len()
        + ck.col_map.len()
        + ck.l_cols.len()
        + ck.ut_cols.len()
        + panel_entries
        + ck.pivot_cols.len()
        + ck.pivot_rows.len()
        + 4 * ck.trace.len();
    let value_words = ck.s.values().len() + panel_entries + 3 * ck.trace.len() + r_diags;
    index_words + value_words
}

/// The newest envelope of the per-iteration checkpointed run must stay
/// binary-sized: at most 8 bytes per index or value word of its state
/// plus the header. Deterministic, so it can gate where a time cannot.
fn check_checkpoint_size(metrics: &Json) -> Result<(), String> {
    let gauge = |name: &str| {
        let value = metrics.get(name).and_then(Json::as_f64);
        value.ok_or_else(|| format!("metrics lack {name}"))
    };
    let bytes = gauge("recover.checkpoint_bytes")?;
    let words = gauge("recover.checkpoint_state_words")?;
    if words < 1.0 || bytes > 8.0 * words + 4096.0 {
        return Err(format!(
            "checkpoint envelope of {bytes} bytes for {words} state words exceeds 8 bytes/word + 4096"
        ));
    }
    Ok(())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out PATH] [--validate PATH]");
    std::process::exit(2);
}
