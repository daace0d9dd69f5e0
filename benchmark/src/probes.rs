//! Layer probes of the traced run: public functions of one crate each,
//! timed from outside on inputs cut from the workload's own matrix
//! (`m` = its rows). A kernel probe is the median of [`CALLS`] timed
//! calls after one untimed call; a probe that is a whole solve takes
//! [`SOLVE_CALLS`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use lra::comm::{run_with, Ctx, RunConfig};
use lra::dense::{matmul, matmul_tn, orth, qr, qrcp, tsqr_r, DenseMatrix};
use lra::ordering::{etree_postorder, fill_reducing_order};
use lra::par::{parallel_for, split_ranges, Parallelism};
use lra::qrtp::{panel_r, tournament_columns, tournament_rows_dense, TournamentTree};
use lra::sparse::{gather_csc, scatter_csc, spgemm, spmm_dense, spmm_t_dense};

use crate::adapter::{self, Method, Problem, SolveSpec, BLOCK_K};
use crate::inputs::splitmix64;
use crate::spans::Recorder;
use crate::stats::median;

pub const CALLS: usize = 5;
pub const SOLVE_CALLS: usize = 3;

type Values = BTreeMap<&'static str, f64>;

/// Median of the `calls` samples `sample` returns after one discarded
/// call, under a `probe.<metric>` span.
fn probe_samples(
    rec: &Recorder,
    metric: &'static str,
    calls: usize,
    mut sample: impl FnMut() -> f64,
) -> f64 {
    rec.span(&format!("probe.{metric}"), || {
        sample();
        let samples: Vec<f64> = (0..calls).map(|_| sample()).collect();
        median(&samples)
    })
}

/// Wall seconds of one call of `f`.
pub fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median seconds of `CALLS` timed calls of `f`, stored as `metric`.
fn probe<T>(
    rec: &Recorder,
    values: &mut Values,
    metric: &'static str,
    mut f: impl FnMut() -> T,
) -> f64 {
    let med = probe_samples(rec, metric, CALLS, || secs(&mut f));
    values.insert(metric, med);
    med
}

fn random_dense(rows: usize, cols: usize, state: &mut u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| {
        (splitmix64(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    })
}

/// The kernel probes every workload runs, on `threads` workers.
/// `ilut_par_s` is the median ILUT_CRTP τ=1e-2 time of the passes where
/// the solve list has one.
pub fn layers(
    p: &Problem,
    threads: usize,
    ilut_par_s: Option<f64>,
    rec: &Recorder,
    values: &mut Values,
) {
    let a = &p.a;
    let (m, n, nnz) = (a.rows(), a.cols(), a.nnz());
    let par = Parallelism::new(threads);
    let seq = Parallelism::seq();
    let tree = TournamentTree::Binary;
    let mut state = p.sketch_seed;

    // ---- lra-qrtp ---------------------------------------------------------
    let cols_par = probe(rec, values, "qrtp.tournament_cols_s", || {
        tournament_columns(a, None, BLOCK_K, tree, par)
    });
    values.insert(
        "qrtp.tournament_cols_ns_per_nnz",
        cols_par * 1e9 / nnz as f64,
    );
    let first_cols: Vec<usize> = (0..n.min(2 * BLOCK_K)).collect();
    probe(rec, values, "qrtp.panel_r_s", || {
        panel_r(a, &first_cols, par)
    });
    let tall32 = random_dense(m, BLOCK_K, &mut state);
    let q_panel = orth(&tall32, par);
    probe(rec, values, "qrtp.tournament_rows_s", || {
        tournament_rows_dense(&q_panel, BLOCK_K, tree, par)
    });

    // ---- lra-dense --------------------------------------------------------
    let g = 512;
    let (ga, gb) = (
        random_dense(g, g, &mut state),
        random_dense(g, g, &mut state),
    );
    let gemm_par = probe(rec, values, "dense.gemm_s", || matmul(&ga, &gb, par));
    let gemm_flops = 2.0 * (g * g * g) as f64;
    values.insert("dense.gemm_flops", gemm_flops);
    values.insert("dense.gemm_gflops", gemm_flops / gemm_par / 1e9);
    let tall256 = random_dense(m, 256, &mut state);
    probe(rec, values, "dense.gemm_tn_s", || {
        matmul_tn(&tall256, &tall32, par)
    });
    drop(tall256);
    probe(rec, values, "dense.qr_s", || qr(&tall32, par));
    probe(rec, values, "dense.orth_s", || orth(&tall32, par));
    let tall64 = random_dense(m, 2 * BLOCK_K, &mut state);
    probe(rec, values, "dense.tsqr_r_s", || tsqr_r(&tall64, par));
    let wide = random_dense(128, 64, &mut state);
    probe(rec, values, "dense.qrcp_s", || qrcp(&wide, 64));

    // ---- lra-sparse -------------------------------------------------------
    let omega = random_dense(n, BLOCK_K, &mut state);
    probe(rec, values, "sparse.spmm_s", || spmm_dense(a, &omega, par));
    probe(rec, values, "sparse.spmm_t_s", || {
        spmm_t_dense(a, &tall32, par)
    });
    values.insert("sparse.spmm_flops", 2.0 * nnz as f64 * BLOCK_K as f64);
    probe(rec, values, "sparse.spgemm_s", || spgemm(a, a, par));
    probe(rec, values, "sparse.transpose_s", || a.transpose());
    // The threshold that drops half the entries, so that both sides of
    // the comparison are taken as often as each other.
    let mut magnitudes: Vec<f64> = a.values().iter().map(|v| v.abs()).collect();
    magnitudes.sort_by(f64::total_cmp);
    let threshold = magnitudes[magnitudes.len() / 2];
    probe(rec, values, "sparse.drop_below_s", || {
        a.drop_below(threshold)
    });
    let ranges = split_ranges(n, 2);
    probe(rec, values, "sparse.scatter_gather_s", || {
        gather_csc(&scatter_csc(a, &ranges))
    });
    probe(rec, values, "sparse.fingerprint_s", || a.fingerprint());

    // ---- lra-ordering -----------------------------------------------------
    probe(rec, values, "ordering.colamd_s", || fill_reducing_order(a));
    probe(rec, values, "ordering.etree_postorder_s", || {
        etree_postorder(a)
    });

    // ---- lra-par ----------------------------------------------------------
    let regions = 200;
    let region_s = probe(rec, values, "par.region_overhead_s", || {
        for _ in 0..regions {
            parallel_for(Parallelism::new(2), 2, 1, |r| {
                black_box(r);
            });
        }
    });
    values.insert("par.region_overhead_s", region_s / regions as f64);
    // Speed-ups are over the plain single-threaded run of the same call.
    let cols_seq = probe_samples(rec, "par.tournament_speedup_np2", CALLS, || {
        secs(|| tournament_columns(a, None, BLOCK_K, tree, seq))
    });
    values.insert("par.tournament_speedup_np2", cols_seq / cols_par);
    let gemm_seq = probe_samples(rec, "par.gemm_speedup_np2", CALLS, || {
        secs(|| matmul(&ga, &gb, seq))
    });
    values.insert("par.gemm_speedup_np2", gemm_seq / gemm_par);
    if let Some(ilut_par_s) = ilut_par_s {
        let spec = SolveSpec {
            name: "ilut_crtp_1e-2",
            method: Method::IlutCrtp,
            tau: 1e-2,
        };
        let ilut_seq = probe_samples(rec, "par.ilut_speedup_np2", SOLVE_CALLS, || {
            adapter::solve(&spec, p, 1).map_or(0.0, |s| s.wall_s)
        });
        values.insert("par.ilut_speedup_np2", ilut_seq / ilut_par_s);
    }

    // ---- lra-comm ---------------------------------------------------------
    let config = RunConfig::default();
    probe(rec, values, "comm.spawn_join_s", || {
        run_with(2, &config, |_| ())
    });
    // Per-operation time as rank 0 sees it, over `ops` back-to-back
    // operations inside one rank group.
    let mut per_op = |metric: &'static str, ops: usize, op: &(dyn Fn(&Ctx) + Sync)| {
        let med = probe_samples(rec, metric, CALLS, || {
            let report = run_with(2, &config, |ctx| {
                let t = Instant::now();
                for _ in 0..ops {
                    op(ctx);
                }
                t.elapsed().as_secs_f64() / ops as f64
            });
            report
                .results
                .into_iter()
                .next()
                .and_then(Result::ok)
                .unwrap_or(0.0)
        });
        values.insert(metric, med);
    };
    per_op("comm.barrier_s", 1000, &|ctx| ctx.barrier());
    per_op("comm.allreduce_s", 1000, &|ctx| {
        black_box(ctx.allreduce(ctx.rank() as f64, |x, y| x + y));
    });
    // 64 KiB to each peer per round.
    per_op("comm.alltoallv_s", 100, &|ctx| {
        let parts: Vec<Vec<f64>> = (0..ctx.size()).map(|_| vec![1.0; 8192]).collect();
        black_box(ctx.alltoallv(parts));
    });
}

/// Checkpoint probes of `spmd_ckpt`: the checkpointed np=2 solve against
/// an on-disk store, and a run stopped half-way and resumed, both
/// relative to the plain np=2 solve (`plain_s`). Returns what failed.
pub fn recovery(
    p: &Problem,
    tau: f64,
    plain_s: f64,
    iterations: usize,
    out_dir: &Path,
    rec: &Recorder,
    values: &mut Values,
) -> Vec<String> {
    let mut failures = Vec::new();
    let dir = out_dir.join(format!("ckpt-{}", std::process::id()));
    let (mut saves, mut bytes) = (0, 0);
    let disk_s = probe_samples(rec, "recover.ckpt_disk_s_per_save", SOLVE_CALLS, || {
        match adapter::ilut_spmd_disk_checkpointed(p, tau, &dir) {
            Ok((wall_s, s, b)) => {
                (saves, bytes) = (s, b);
                wall_s
            }
            Err(e) => {
                failures.push(format!("on-disk checkpointed solve: {e}"));
                0.0
            }
        }
    });
    values.insert("recover.ckpt_bytes", bytes as f64);
    if saves > 0 {
        values.insert(
            "recover.ckpt_disk_s_per_save",
            (disk_s - plain_s) / saves as f64,
        );
    }
    let cap = (iterations / 2).max(1) as u64;
    let mut converged = true;
    let resumed_s = probe_samples(rec, "recover.resume_overhead_s", SOLVE_CALLS, || {
        match adapter::ilut_spmd_interrupt_resume(p, tau, cap) {
            Ok((wall_s, ok)) => {
                converged &= ok;
                wall_s
            }
            Err(e) => {
                failures.push(format!("interrupt and resume: {e}"));
                0.0
            }
        }
    });
    if !converged {
        failures.push("resumed solve did not converge".to_string());
    }
    values.insert("recover.resume_overhead_s", resumed_s - plain_s);
    failures
}
