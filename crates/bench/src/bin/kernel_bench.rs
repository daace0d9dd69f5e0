//! Gated micro-benchmark for the compute kernels under the drivers:
//! the cache-blocked dense GEMM and the
//! comm/compute overlap of the per-panel re-shard, plus an ungated
//! ILUT_CRTP sweep on a fill-heavy preset that supplies the report's
//! entries and ungated timings of the two kernels ahead of and inside
//! every LU_CRTP / ILUT_CRTP iteration that the benchmark's buckets
//! only show summed: COLAMD on the circuit preset
//! (`kernel.colamd_s`), one Schur update of a fully dense
//! complement as `lu_crtp` runs it, in place over runs
//! (`kernel.schur_dense_s`), and `qr` of a tournament leaf's
//! shape holding 8 entries a column and holding none that is zero
//! (`kernel.qr_sparse_panel_s`, `kernel.qr_dense_panel_s` and their
//! ratio: what applying a reflector through its nonzeros is worth).
//!
//! Four claims are enforced, not just measured (exit 1 on regression):
//!
//! 1. **Blocked GEMM** must beat the naive triple loop by at least
//!    [`GEMM_MIN_SPEEDUP`]x at `n = `[`GEMM_N`] (best-of-[`REPS`],
//!    sequential, after a bitwise-equality sanity check — the blocked
//!    kernel is required to reproduce naive summation order exactly).
//! 2. **Overlap** must hide at least [`OVERLAP_MIN_HIDDEN`] of the
//!    re-shard's post→complete window at `np = `[`OVERLAP_NP`]:
//!    `hidden / (hidden + wait)` of the skew-free rank (the one with
//!    the least `overlap_wait_ns`), each summed over [`OVERLAP_REPS`]
//!    reps.
//! 3. **Two workers never lose to one**: interleaved best-of
//!    `t(np=1) / t(np=2)` must reach [`GEMM_PAR2_MIN`] for blocked GEMM
//!    at `n = `[`GEMM_N`], [`QB_PAR2_MIN`] for `rand_qb_ei` p=1 on
//!    the economic preset, whose ~170 Householder and TSQR regions per
//!    block iteration are the finest-grained in the workspace, and
//!    [`TS_PAR2_MIN`] for the two kernels that solve is made of at the
//!    benchmark's shape: `matmul_sub_assign` [`TS_M`]`x`[`QB_K`] `.`
//!    [`QB_K`]`x`[`QB_K`] (the projection `Y -= Q_j T`) and `orth` of
//!    [`TS_M`]`x`[`QB_K`]. Skipped (reported, not gated) on a host with
//!    fewer than two cores. Process CPU time is read around each
//!    round's np=2 samples: a round that used less than
//!    [`MIN_CPU_PER_WALL`] CPU seconds per wall second ran on one core
//!    and does not count, and rounds go on until [`QB_REPS`] got two
//!    cores, up to [`PAR2_WALL_LIMIT`] from the first. Only when none
//!    did the gate fails on the host condition and prints the ratios.
//!    The per-region cost of the `lra-par` pool is reported beside it.
//! 4. **Lane-panel `qr`** of the dense [`PANEL_M`]` x `[`PANEL_N`] leaf
//!    must beat the one-column reference (`qr_reference`: each column
//!    through the one-column formula, one reflector at a time) by at
//!    least [`QR_MIN_SPEEDUP`]x (interleaved best-of-[`QR_REPS`] in
//!    each of [`QR_ROUNDS`] rounds [`SAMPLE_GAP`] apart, sequential,
//!    after checking `R` and `Q` bit for bit against it).
//!    Each sample is timed in the CPU time of the calling thread, so a
//!    sample the host preempts is not read as a slow kernel.
//!    Four columns to a vector lane is what clears it: the column-major
//!    sweep the lanes replaced read about 1.9x.
//!
//! ```sh
//! cargo run -p lra-bench --release --bin kernel_bench -- --out BENCH_kernels.json
//! cargo run -p lra-bench --release --bin kernel_bench -- --validate BENCH_kernels.json [results/BENCH_kernels.json]
//! ```
//!
//! The `BENCH_kernels.json` report (frozen v1 schema) carries one
//! entry per ILUT run plus dimensionless `kernel.*` gauges
//! (`gemm_speedup`, `overlap_hidden_ratio`, `qr_speedup`,
//! `gemm_par2_speedup`, `qb_par2_speedup`, `gemm_ts_par2_speedup`,
//! `orth_par2_speedup`)
//! under `metrics`, so CI can diff machine-independent ratios against
//! the committed baseline in `results/`; the absolute `kernel.*_s`
//! timings ride along for the trajectory.

use lra_bench::sweep::Run;
use lra_bench::{fmt_s, read_report, timed, write_report, BenchConfig, USAGE};
use lra_comm::RunConfig;
use lra_core::{
    factorize_ranks, ilut_crtp, rand_qb_ei, schur_update_runs, IlutOpts, Parallelism, QbOpts,
    SchurWorkspace, SCHUR_GRAIN,
};
use lra_dense::{matmul, matmul_naive, matmul_sub_assign, orth, qr, qr_reference, DenseMatrix};
use lra_obs::{BenchEntry, BenchReport, Json, MetricsRegistry, BENCH_SCHEMA_VERSION};
use lra_sparse::{BlockSplit, CscMatrix, CscRuns};

/// GEMM problem size for the speedup gate.
const GEMM_N: usize = 512;
/// Minimum blocked-over-naive GEMM speedup (measured margin ~2.6-3.0x).
const GEMM_MIN_SPEEDUP: f64 = 2.0;
/// Best-of repetitions for the GEMM section (best-of damps CI runner
/// noise; the gated quantities are ratios of bests).
const REPS: usize = 5;
/// Best-of repetitions per ILUT run of the sweep.
const ILUT_REPS: usize = 7;
/// Block size for the ILUT sweep.
const BLOCK_K: usize = 16;
/// Rank count for the overlap gate — the acceptance point of the
/// comm/compute-overlap claim.
const OVERLAP_NP: usize = 4;
/// Minimum fraction of the re-shard window the pipeline must hide:
/// `hidden / (hidden + wait)`.
const OVERLAP_MIN_HIDDEN: f64 = 0.5;
/// Repetitions of the overlap gate. The gated ratio divides times
/// *summed across the reps*, so a rep with a short window weighs
/// little.
const OVERLAP_REPS: usize = 5;
/// Minimum `t(np=1) / t(np=2)` for blocked GEMM at `n = `[`GEMM_N`]
/// (measured ~1.7x on two cores).
const GEMM_PAR2_MIN: f64 = 1.2;
/// Minimum `t(np=1) / t(np=2)` for `rand_qb_ei` p=1: a second worker
/// must at least pay for its regions (measured ~1.3x on two cores).
const QB_PAR2_MIN: f64 = 1.0;
/// Two-core rounds of the np=2 pairs, [`SAMPLE_GAP`] apart, one QB
/// solve per side and round: the best of each side is taken over several seconds
/// rather than the ~0.2 s three back-to-back rounds took. The solve's
/// time is bimodal on a shared host (one mode ~40 % slower), and three
/// samples a side left the np=2 side in its slow mode often enough to
/// read 0.92x; a phase in which another tenant loads the second core
/// now has to outlast the whole window to decide the ratio.
const QB_REPS: usize = 16;
/// Block size for the QB pair (the benchmark's `k`).
const QB_K: usize = 32;
/// Rows of the tall-skinny pair (the benchmark's `qb_dense` height).
const TS_M: usize = 4000;
/// Minimum `t(np=1) / t(np=2)` for the tall-skinny `matmul_sub_assign`
/// and for `orth` (measured ~2.0x and ~1.8x on two cores).
const TS_PAR2_MIN: f64 = 1.0;
/// Samples per side and round of the tall-skinny pair (sub-millisecond
/// kernels: more samples than [`REPS`] cost nothing).
const TS_REPS: usize = 20;
/// Process CPU seconds per wall second below which an np=2 round ran on
/// one core (two busy workers read about 2).
const MIN_CPU_PER_WALL: f64 = 1.5;
/// Wall time from the first np=2 round after which no more rounds are
/// added for those that ran on one core: a one-core spell covered all
/// 16 rounds of a `--quick` run (~10 s) in 1 of 16 runs.
const PAR2_WALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(70);
/// Order of the circuit matrix COLAMD is timed on (the benchmark's
/// `tp_sparse` input).
const COLAMD_N: usize = 2400;
/// Order of the fully dense Schur complement of the Schur probe: what
/// the benchmark's `fill_dense` input has left from its fifth iteration
/// on.
const SCHUR_N: usize = 848;
/// Shape of the `qr` panel pair (a `tp_sparse` leaf at the benchmark's
/// `k`: `2k` columns on one chunk of row support) and the entries a
/// column of the sparse one holds.
const PANEL_M: usize = 256;
const PANEL_N: usize = 64;
const PANEL_PER_COL: usize = 8;
/// Minimum `qr` speedup over `qr_reference` on the dense panel
/// (measured 2.6-3.3x; the column-major sweep before the lanes ~1.9x).
const QR_MIN_SPEEDUP: f64 = 2.3;
/// Interleaved samples per side and round of the `qr` gate (a few
/// hundred microseconds each).
const QR_REPS: usize = 10;
/// Rounds of the `qr` gate, [`SAMPLE_GAP`] apart: the best of each side
/// is taken over about two seconds instead of the ~40 ms fifty
/// back-to-back pairs took, which a busy co-runner on the other vCPU
/// could cover whole (it slows `qr` 1.43x and `qr_reference` 1.21x).
const QR_ROUNDS: usize = 20;
/// Pause between the rounds of a gate that spreads its samples.
const SAMPLE_GAP: std::time::Duration = std::time::Duration::from_millis(100);
/// Gauges a kernel report must carry for `--validate` to accept it.
const REQUIRED_GAUGES: [&str; 10] = [
    "kernel.gemm_ts_s",
    "kernel.gemm_ts_par2_speedup",
    "kernel.orth_s",
    "kernel.orth_par2_speedup",
    "kernel.colamd_s",
    "kernel.schur_dense_s",
    "kernel.qr_sparse_panel_s",
    "kernel.qr_dense_panel_s",
    "kernel.qr_sparse_over_dense_panel",
    "kernel.qr_speedup",
];
/// Empty two-chunk regions timed for `kernel.region_overhead_s`.
const REGIONS: usize = 2000;

fn main() {
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            "--validate" => {
                let path = args.next().unwrap_or_else(|| fail("--validate requires a value"));
                return validate_file(&path, args.next_if(|a| !a.starts_with("--")).as_deref());
            }
            _ => rest.push(a),
        }
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));

    let reg = MetricsRegistry::new();
    let mut entries: Vec<BenchEntry> = Vec::new();

    println!("KERNEL BENCH (schema v{BENCH_SCHEMA_VERSION})");
    let gemm_ok = gemm_gate(&reg);
    ilut_sweep(&cfg, &reg, &mut entries);
    ordering_and_schur(&reg);
    qr_panels(&reg);
    let qr_ok = qr_gate(&reg);
    let overlap_ok = overlap_gate(&cfg, &reg);
    let par2_ok = par2_gate(&cfg, &reg);

    write_report("kernel_bench", &cfg, 1, entries, &reg, &out_path).unwrap_or_else(|err| fail(&err));

    if !(gemm_ok && qr_ok && overlap_ok && par2_ok) {
        std::process::exit(1);
    }
}

/// Deterministic pseudo-random dense operand (no RNG dependency).
fn dense_operand(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
            .wrapping_add(salt);
        ((h >> 11) % 2003) as f64 / 2003.0 - 0.5
    })
}

/// Gate 1: blocked GEMM >= [`GEMM_MIN_SPEEDUP`]x naive at n = [`GEMM_N`].
fn gemm_gate(reg: &MetricsRegistry) -> bool {
    let a = dense_operand(GEMM_N, GEMM_N, 1);
    let b = dense_operand(GEMM_N, GEMM_N, 2);

    // The speedup is only meaningful under the bitwise contract.
    let blocked = matmul(&a, &b, Parallelism::SEQ);
    let slow = matmul_naive(&a, &b, Parallelism::SEQ);
    let agree = blocked
        .as_slice()
        .iter()
        .zip(slow.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    if !agree {
        eprintln!("FAIL: blocked GEMM is not bitwise equal to naive at n={GEMM_N}");
        return false;
    }

    // Interleaved best-of: alternating the kernels keeps runner load
    // spikes from loading one side of the speedup ratio.
    let mut blocked_s = f64::INFINITY;
    let mut naive_s = f64::INFINITY;
    for _ in 0..REPS {
        let ((), s) = timed(|| {
            std::hint::black_box(matmul(&a, &b, Parallelism::SEQ));
        });
        blocked_s = blocked_s.min(s);
        let ((), s) = timed(|| {
            std::hint::black_box(matmul_naive(&a, &b, Parallelism::SEQ));
        });
        naive_s = naive_s.min(s);
    }
    let speedup = naive_s / blocked_s.max(1e-12);
    reg.set_gauge("kernel.gemm_n", GEMM_N as f64);
    reg.set_gauge("kernel.gemm_naive_s", naive_s);
    reg.set_gauge("kernel.gemm_blocked_s", blocked_s);
    reg.set_gauge("kernel.gemm_speedup", speedup);
    println!(
        "gemm n={GEMM_N}: naive {} blocked {} speedup {speedup:.2}x (gate >= {GEMM_MIN_SPEEDUP}x)",
        fmt_s(naive_s),
        fmt_s(blocked_s)
    );
    if speedup < GEMM_MIN_SPEEDUP {
        eprintln!("FAIL: blocked GEMM speedup {speedup:.2}x below {GEMM_MIN_SPEEDUP}x");
        return false;
    }
    true
}

/// The ILUT_CRTP tau sweep on a fill-heavy preset: the report's entries
/// and the `kernel.ilut_sparse_s` trajectory point. Measured, not gated.
fn ilut_sweep(cfg: &BenchConfig, reg: &MetricsRegistry, entries: &mut Vec<BenchEntry>) {
    // Coupled fluid blocks with decay: the Schur complement densifies
    // within a few panels.
    let dim_blocks = if cfg.quick { 48 } else { 72 } * cfg.scale.max(1);
    let a = lra_matgen::with_decay(&lra_matgen::fluid_block(dim_blocks, 10, 31), 1e-7, 33);
    let label = format!("fluid{dim_blocks}x10");
    let taus: &[f64] = if cfg.quick { &[1e-2] } else { &[1e-2, 1e-3] };
    println!(
        "ilut sweep — {label} ({}x{}, {} nnz), k={BLOCK_K}, taus {taus:?}",
        a.rows(),
        a.cols(),
        a.nnz()
    );
    let mut total = 0.0;
    for &tau in taus {
        let opts = IlutOpts::new(BLOCK_K, tau, 4);
        let (mut res, mut best_s) = timed(|| ilut_crtp(&a, &opts));
        for _ in 1..ILUT_REPS {
            let (r, s) = timed(|| ilut_crtp(&a, &opts));
            if s < best_s {
                best_s = s;
                res = r;
            }
        }
        println!(
            "  tau={tau:.0e}: {} (rank {}, converged {})",
            fmt_s(best_s),
            res.rank,
            res.converged
        );
        let run = Run::of_lu(res, best_s, &a, Parallelism::SEQ);
        entries.push(run.bench_entry("ilut_crtp", &label, &a, (tau, BLOCK_K, 1)));
        total += best_s;
    }
    reg.set_gauge("kernel.ilut_sparse_s", total);
    println!("ilut sweep: {}", fmt_s(total));
}

/// COLAMD on the circuit preset and one Schur update of a fully dense
/// complement at the benchmark's `k` and worker count, best of
/// [`REPS`]. Measured, not gated.
fn ordering_and_schur(reg: &MetricsRegistry) {
    let circuit = lra_matgen::circuit(COLAMD_N, 5, 20, 103);
    let mut colamd_s = f64::INFINITY;
    for _ in 0..REPS {
        let ((), s) = timed(|| {
            std::hint::black_box(lra_ordering::colamd(&circuit));
        });
        colamd_s = colamd_s.min(s);
    }
    reg.set_gauge("kernel.colamd_s", colamd_s);
    println!("colamd circuit{COLAMD_N}: {}", fmt_s(colamd_s));

    // The shared-memory engine's update: the old complement in runs,
    // the panel's `QB_K` pivot columns leading it, `Ā12`/`Ā22` routed
    // out of the old runs as they are read.
    let n = SCHUR_N + QB_K;
    let dense = CscMatrix::from_dense(&dense_operand(n, n, 6));
    let old = CscRuns::from_csc(&dense, SCHUR_GRAIN);
    drop(dense);
    let pivots: Vec<usize> = (0..QB_K).collect();
    let split = BlockSplit::new(n, n, &pivots, &pivots);
    let x = dense_operand(SCHUR_N, QB_K, 8);
    let x_rows: Vec<usize> = (0..SCHUR_N).collect();
    let two = Parallelism::new(2);
    let mut ws = SchurWorkspace::new();
    // The update measures each column it writes, here at a drop
    // threshold, as an ILUT iteration does.
    let mu = 1e-2;
    let mut meas = Vec::with_capacity(SCHUR_N);
    // The untimed first update grows the workspace.
    let mut s = old.clone();
    schur_update_runs(&mut s, &split, &x_rows, &x, mu, &mut ws, two, &mut meas);
    let mut schur_s = f64::INFINITY;
    for _ in 0..REPS {
        s = old.clone();
        meas.clear();
        let ((), t) =
            timed(|| schur_update_runs(&mut s, &split, &x_rows, &x, mu, &mut ws, two, &mut meas));
        schur_s = schur_s.min(t);
    }
    let below: u64 = meas.iter().map(|m| m.2).sum();
    reg.set_gauge("kernel.schur_dense_s", schur_s);
    println!(
        "schur update dense {SCHUR_N}x{SCHUR_N} k={QB_K} np=2, in place over runs: {} ({} entries, {below} below mu = {mu:e})",
        fmt_s(schur_s),
        s.nnz()
    );
}

/// `qr` of a [`PANEL_M`]` x `[`PANEL_N`] panel with [`PANEL_PER_COL`]
/// scattered entries a column, and of the same shape with every entry
/// nonzero, interleaved best of [`TS_REPS`]. The first is applied
/// through reflector supports until fill-in makes the reflectors dense,
/// the second never is. Measured, not gated.
fn qr_panels(reg: &MetricsRegistry) {
    let dense = dense_operand(PANEL_M, PANEL_N, 9);
    let mut sparse = DenseMatrix::zeros(PANEL_M, PANEL_N);
    for j in 0..PANEL_N {
        for t in 0..PANEL_PER_COL {
            let i = (j * 97 + t * 61 + (j * t) % 13) % PANEL_M;
            sparse.set(i, j, dense.get(i, j) + 0.75);
        }
    }
    let (mut sparse_s, mut dense_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TS_REPS {
        let ((), s) = timed(|| {
            std::hint::black_box(qr(&sparse, Parallelism::SEQ));
        });
        sparse_s = sparse_s.min(s);
        let ((), s) = timed(|| {
            std::hint::black_box(qr(&dense, Parallelism::SEQ));
        });
        dense_s = dense_s.min(s);
    }
    let ratio = sparse_s / dense_s.max(1e-12);
    reg.set_gauge("kernel.qr_sparse_panel_s", sparse_s);
    reg.set_gauge("kernel.qr_dense_panel_s", dense_s);
    reg.set_gauge("kernel.qr_sparse_over_dense_panel", ratio);
    println!(
        "qr {PANEL_M}x{PANEL_N}: {PANEL_PER_COL} per column {} full {} ratio {ratio:.2}",
        fmt_s(sparse_s),
        fmt_s(dense_s)
    );
}

/// Gate 4: lane-panel `qr` of the dense [`PANEL_M`]` x `[`PANEL_N`] leaf
/// must beat `qr_reference` by at least [`QR_MIN_SPEEDUP`]x, after a
/// bitwise check of `R` and `Q`: the speedup is only meaningful under
/// the "no bit moves" contract.
fn qr_gate(reg: &MetricsRegistry) -> bool {
    let a = dense_operand(PANEL_M, PANEL_N, 9);
    let (fast, slow) = (qr(&a, Parallelism::SEQ), qr_reference(&a));
    let same = |x: DenseMatrix, y: DenseMatrix| {
        x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let seq = Parallelism::SEQ;
    if !same(fast.r(), slow.r()) || !same(fast.q_thin(seq), slow.q_thin(seq)) {
        eprintln!("FAIL: qr is not bitwise equal to qr_reference at {PANEL_M}x{PANEL_N}");
        return false;
    }
    let (mut qr_s, mut ref_s) = (f64::INFINITY, f64::INFINITY);
    for round in 0..QR_ROUNDS {
        if round > 0 {
            std::thread::sleep(SAMPLE_GAP);
        }
        for _ in 0..QR_REPS {
            qr_s = qr_s.min(thread_cpu_timed(|| qr(&a, seq)));
            ref_s = ref_s.min(thread_cpu_timed(|| qr_reference(&a)));
        }
    }
    let speedup = ref_s / qr_s.max(1e-12);
    reg.set_gauge("kernel.qr_reference_s", ref_s);
    reg.set_gauge("kernel.qr_speedup", speedup);
    println!(
        "qr {PANEL_M}x{PANEL_N}: reference {} lanes {} speedup {speedup:.2}x (gate >= {QR_MIN_SPEEDUP}x)",
        fmt_s(ref_s),
        fmt_s(qr_s)
    );
    if speedup < QR_MIN_SPEEDUP {
        eprintln!("FAIL: qr speedup {speedup:.2}x over qr_reference below {QR_MIN_SPEEDUP}x");
        return false;
    }
    true
}

/// Gate 2: the re-shard hides >= [`OVERLAP_MIN_HIDDEN`] of its wire
/// time behind compute at [`OVERLAP_NP`].
///
/// Both quantities are the sharded driver's own
/// [`lra_comm::CommStats`]: `overlap_hidden_ns` is the compute run
/// between posting a re-shard and entering its completion, and
/// `overlap_wait_ns` is what is left blocked in the drain after it.
///
/// Each rep reads **one rank**: the one with the least
/// `overlap_wait_ns`. Per-rank waits are dominated by arrival skew —
/// ranks that get to the exchange early sit blocked on the straggler —
/// and skew waits overlap each other in wall-clock terms: the
/// last-arriving rank never pays them, so they never land on the run's
/// critical path, and no amount of overlap (or core count) can remove
/// them. Summed over ranks (the repository benchmark's
/// `comm.overlap_hidden_ratio`), skew reads as unhidden wire; the
/// skew-free rank isolates what the window itself hides.
fn overlap_gate(cfg: &BenchConfig, reg: &MetricsRegistry) -> bool {
    // Same fill-heavy family as the ILUT sweep: fill keeps the
    // re-shard payloads (and therefore the wire time) large enough to
    // measure against timer resolution.
    let dim_blocks = if cfg.quick { 36 } else { 56 } * cfg.scale.max(1);
    let a = lra_matgen::with_decay(&lra_matgen::fluid_block(dim_blocks, 10, 37), 1e-7, 35);
    let opts = IlutOpts::new(BLOCK_K, 1e-2, 4);
    println!(
        "overlap np={OVERLAP_NP} — fluid{dim_blocks}x10 ({}x{}, {} nnz), k={BLOCK_K}",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    let (mut hidden_ns, mut wait_ns, mut posted_total) = (0u64, 0u64, 0u64);
    for _ in 0..OVERLAP_REPS {
        let report = factorize_ranks(&a, &opts, OVERLAP_NP, &RunConfig::default(), None)
            .expect("valid input");
        if let Some(s) = report.stats.iter().min_by_key(|s| s.overlap_wait_ns) {
            hidden_ns += s.overlap_hidden_ns;
            wait_ns += s.overlap_wait_ns;
        }
        posted_total += report.stats.iter().map(|s| s.overlap_posted).sum::<u64>();
        report.unwrap_all();
    }
    let hidden = hidden_ns as f64 / ((hidden_ns + wait_ns) as f64).max(1.0);
    reg.set_gauge("kernel.overlap_np", OVERLAP_NP as f64);
    reg.set_gauge("kernel.overlap_wait_s", wait_ns as f64 / 1e9);
    reg.set_gauge("kernel.overlap_hidden_ratio", hidden);
    println!(
        "overlap np={OVERLAP_NP}: hidden {} wait {} hidden {:.1}% \
         (gate >= {:.0}%, skew-free rank over {OVERLAP_REPS} reps)",
        fmt_s(hidden_ns as f64 / 1e9),
        fmt_s(wait_ns as f64 / 1e9),
        100.0 * hidden,
        100.0 * OVERLAP_MIN_HIDDEN
    );
    if posted_total == 0 {
        eprintln!("FAIL: overlapped driver never posted a re-shard — pipeline not engaged");
        return false;
    }
    if hidden < OVERLAP_MIN_HIDDEN {
        eprintln!(
            "FAIL: overlap hides {:.1}% of the re-shard window, below {:.0}%",
            100.0 * hidden,
            100.0 * OVERLAP_MIN_HIDDEN
        );
        return false;
    }
    true
}

/// Gate 3: a second worker must pay for itself — blocked GEMM at
/// n = [`GEMM_N`], a whole `rand_qb_ei` p=1 solve, and that solve's two
/// tall-skinny kernels, each as the ratio of interleaved best-of wall
/// times at np=1 and np=2.
fn par2_gate(cfg: &BenchConfig, reg: &MetricsRegistry) -> bool {
    let two = Parallelism::new(2);
    let gated = lra_par::available_parallelism() >= 2;

    // Per-region cost of the pool: caller plus one helper, one empty
    // chunk each. The untimed first round starts the helper thread.
    let empty_regions = || {
        for _ in 0..REGIONS {
            lra_par::parallel_for(two, 2, 1, |r| {
                std::hint::black_box(r);
            });
        }
    };
    empty_regions();
    let region_s = timed(empty_regions).1 / REGIONS as f64;
    reg.set_gauge("kernel.region_overhead_s", region_s);
    println!("par region: {:.2} us per empty np=2 region", 1e6 * region_s);

    // One loop for all pairs, so the kernel samples are spread over the
    // seconds the QB solves take: a phase in which the host runs the
    // two workers on one core (seen for up to a few seconds on shared
    // runners) then has to outlast the whole gate to fail it.
    let a = dense_operand(GEMM_N, GEMM_N, 1);
    let b = dense_operand(GEMM_N, GEMM_N, 2);
    let tall = dense_operand(TS_M, QB_K, 3);
    let coeff = dense_operand(QB_K, QB_K, 4);
    let mut y = dense_operand(TS_M, QB_K, 5);
    let n = if cfg.quick { 2000 } else { 4000 } * cfg.scale.max(1);
    let econ = lra_matgen::with_decay_rank(&lra_matgen::economic(n, 40, 105), 1e-6, n / 5, 15);
    // One side of one round: best-of wall times of GEMM, the
    // tall-skinny `matmul_sub_assign` and `orth`, and the QB solve's
    // wall time; `None` if the solve did not converge.
    let mut side = |par: Parallelism| -> Option<[f64; 4]> {
        let mut best = [f64::INFINITY; 4];
        for _ in 0..REPS {
            let ((), s) = timed(|| {
                std::hint::black_box(matmul(&a, &b, par));
            });
            best[0] = best[0].min(s);
        }
        for _ in 0..TS_REPS {
            let ((), s) = timed(|| matmul_sub_assign(&mut y, &tall, &coeff, par));
            best[1] = best[1].min(s);
            let ((), s) = timed(|| {
                std::hint::black_box(orth(&tall, par));
            });
            best[2] = best[2].min(s);
        }
        let opts = QbOpts::new(QB_K, 1e-2).with_power(1).with_par(par);
        let (res, s) = timed(|| rand_qb_ei(&econ, &opts));
        best[3] = s;
        res.is_ok_and(|r| r.converged).then_some(best)
    };
    let fold = |into: &mut [f64; 4], from: [f64; 4]| {
        for (b, s) in into.iter_mut().zip(from) {
            *b = b.min(s);
        }
    };
    // A round whose np=2 side used less than MIN_CPU_PER_WALL seconds
    // of process CPU time per second of wall time ran on one core: it
    // does not count, and its np=2 samples are judged only if no round
    // got two cores — in which case the gate fails on the host.
    let mut seq = [f64::INFINITY; 4];
    let (mut par2, mut par2_one_core) = ([f64::INFINITY; 4], [f64::INFINITY; 4]);
    let (mut round_ratios, mut one_core_ratios): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut two_core_rounds = 0usize;
    let started = std::time::Instant::now();
    for round in 0.. {
        if two_core_rounds >= QB_REPS || started.elapsed() > PAR2_WALL_LIMIT {
            break;
        }
        if round > 0 {
            std::thread::sleep(SAMPLE_GAP);
        }
        let Some(round_seq) = side(Parallelism::SEQ) else {
            eprintln!("FAIL: rand_qb_ei p=1 did not converge on economic{n}");
            return false;
        };
        fold(&mut seq, round_seq);
        let cpu_before = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
        let (round_par2, wall) = timed(|| side(two));
        let Some(round_par2) = round_par2 else {
            eprintln!("FAIL: rand_qb_ei p=1 did not converge on economic{n}");
            return false;
        };
        let cpu_per_wall = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
            .zip(cpu_before)
            .map(|(t1, t0)| (t1 - t0) / wall);
        round_ratios.extend(cpu_per_wall);
        match cpu_per_wall {
            Some(ratio) if gated && ratio < MIN_CPU_PER_WALL => {
                one_core_ratios.push(ratio);
                fold(&mut par2_one_core, round_par2);
            }
            _ => {
                fold(&mut par2, round_par2);
                two_core_rounds += 1;
            }
        }
    }
    let ratios: Vec<String> = one_core_ratios.iter().map(|r| format!("{r:.2}")).collect();
    println!(
        "par2: np=2 CPU/wall per round {}; {} round(s) on one core, not counted",
        round_ratios
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
        ratios.len()
    );
    if two_core_rounds == 0 {
        par2 = par2_one_core;
    }
    let [gemm, gemm_ts, orth_s, qb] = [0, 1, 2, 3].map(|i| [seq[i], par2[i]]);
    let gemm_speedup = gemm[0] / gemm[1].max(1e-12);
    reg.set_gauge("kernel.gemm_par2_speedup", gemm_speedup);
    let qb_speedup = qb[0] / qb[1].max(1e-12);
    reg.set_gauge("kernel.qb_par2_speedup", qb_speedup);
    let gemm_ts_speedup = gemm_ts[0] / gemm_ts[1].max(1e-12);
    reg.set_gauge("kernel.gemm_ts_s", gemm_ts[0]);
    reg.set_gauge("kernel.gemm_ts_par2_speedup", gemm_ts_speedup);
    let orth_speedup = orth_s[0] / orth_s[1].max(1e-12);
    reg.set_gauge("kernel.orth_s", orth_s[0]);
    reg.set_gauge("kernel.orth_par2_speedup", orth_speedup);

    println!(
        "par2 gemm n={GEMM_N}: np=1 {} np=2 {} speedup {gemm_speedup:.2}x \
         (gate >= {GEMM_PAR2_MIN}x)",
        fmt_s(gemm[0]),
        fmt_s(gemm[1])
    );
    println!(
        "par2 rand_qb_ei p=1 economic{n}: np=1 {} np=2 {} speedup {qb_speedup:.2}x \
         (gate >= {QB_PAR2_MIN}x)",
        fmt_s(qb[0]),
        fmt_s(qb[1])
    );
    println!(
        "par2 matmul_sub_assign {TS_M}x{QB_K}.{QB_K}x{QB_K}: np=1 {} np=2 {} speedup \
         {gemm_ts_speedup:.2}x (gate >= {TS_PAR2_MIN}x)",
        fmt_s(gemm_ts[0]),
        fmt_s(gemm_ts[1])
    );
    println!(
        "par2 orth {TS_M}x{QB_K}: np=1 {} np=2 {} speedup {orth_speedup:.2}x \
         (gate >= {TS_PAR2_MIN}x)",
        fmt_s(orth_s[0]),
        fmt_s(orth_s[1])
    );
    if !gated {
        println!("par2: single-core host, ratios reported but not gated");
        return true;
    }
    if two_core_rounds == 0 {
        eprintln!(
            "FAIL: every np=2 round ran on one core (CPU/wall {} < {MIN_CPU_PER_WALL}) for \
             {PAR2_WALL_LIMIT:?}: the host did not give the two workers two cores, so no np=2 \
             speedup was measured",
            ratios.join(", ")
        );
        return false;
    }
    if gemm_speedup < GEMM_PAR2_MIN {
        eprintln!("FAIL: GEMM np=2 speedup {gemm_speedup:.2}x below {GEMM_PAR2_MIN}x");
        return false;
    }
    if qb_speedup < QB_PAR2_MIN {
        eprintln!("FAIL: rand_qb_ei np=2 speedup {qb_speedup:.2}x below {QB_PAR2_MIN}x");
        return false;
    }
    for (what, speedup) in [("matmul_sub_assign", gemm_ts_speedup), ("orth", orth_speedup)] {
        if speedup < TS_PAR2_MIN {
            eprintln!("FAIL: tall-skinny {what} np=2 speedup {speedup:.2}x below {TS_PAR2_MIN}x");
            return false;
        }
    }
    true
}

/// Seconds of CPU time the calling thread spends in `f`; wall seconds
/// where that clock is not available.
fn thread_cpu_timed<T>(f: impl FnOnce() -> T) -> f64 {
    let (cpu0, wall0) = (cpu_seconds(CLOCK_THREAD_CPUTIME_ID), std::time::Instant::now());
    std::hint::black_box(f());
    match (cpu0, cpu_seconds(CLOCK_THREAD_CPUTIME_ID)) {
        (Some(t0), Some(t1)) => t1 - t0,
        _ => wall0.elapsed().as_secs_f64(),
    }
}

/// `clock_gettime` clocks: CPU time, user plus system, of this process
/// (all its threads) and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds on a CPU-time `clock` (`None` off Linux).
fn cpu_seconds(clock: i32) -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_long};
        #[repr(C)]
        struct Timespec {
            sec: c_long,
            nsec: c_long,
        }
        extern "C" {
            fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
        }
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` (two
        // `long`s on Linux), and `clock_gettime` writes nothing else.
        if unsafe { clock_gettime(clock, &mut ts) } == 0 {
            return Some(ts.sec as f64 + ts.nsec as f64 * 1e-9);
        }
    }
    None
}

/// Machine-independent ratios `--validate REPORT BASELINE` holds to
/// within 20% below the baseline's; the second group is `t(np=1) /
/// t(np=2)`, which means nothing on a single-core host (the gates do
/// not read it there either).
const BASELINE_RATIOS: [&str; 3] =
    ["kernel.gemm_speedup", "kernel.overlap_hidden_ratio", "kernel.qr_speedup"];
const BASELINE_PAR2_RATIOS: [&str; 4] = [
    "kernel.gemm_par2_speedup",
    "kernel.qb_par2_speedup",
    "kernel.gemm_ts_par2_speedup",
    "kernel.orth_par2_speedup",
];

/// `--validate REPORT [BASELINE]`: parse + structurally validate an
/// existing report; with a baseline (the committed
/// `results/BENCH_kernels.json`), also hold its dimensionless ratios
/// to at least 0.8x the baseline's. Absolute seconds are never
/// compared — they depend on runner and preset.
fn validate_file(path: &str, baseline: Option<&str>) {
    let report = read_report(path).unwrap_or_else(|err| fail(&err));
    let gauge = |r: &BenchReport, key: &str| r.metrics.get(key).and_then(Json::as_f64);
    for key in REQUIRED_GAUGES {
        if gauge(&report, key).is_none() {
            fail(&format!("{path}: invalid report: missing gauge {key}"));
        }
    }
    println!("{path}: valid kernel report ({} entries)", report.entries.len());
    let Some(baseline) = baseline else { return };
    let base = read_report(baseline).unwrap_or_else(|err| fail(&err));
    let two_cores = lra_par::available_parallelism() >= 2;
    let par2: &[&str] = if two_cores { &BASELINE_PAR2_RATIOS } else { &[] };
    for key in BASELINE_RATIOS.iter().chain(par2) {
        let (Some(fresh), Some(was)) = (gauge(&report, key), gauge(&base, key)) else {
            fail(&format!("{key} missing from {path} or {baseline}"));
        };
        if fresh < 0.8 * was {
            eprintln!("FAIL: {key} {fresh:.3} fell >20% below the baseline's {was:.3} ({baseline})");
            std::process::exit(1);
        }
        println!("{key} {fresh:.3} (baseline {was:.3})");
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out PATH] [--validate PATH [BASELINE]]");
    std::process::exit(2);
}
