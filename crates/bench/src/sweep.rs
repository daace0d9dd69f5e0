//! The memoized run table behind the `paper` bin: every table, figure,
//! claim and the BENCH report is a view ([`crate::views`]) that asks a
//! [`Sweep`] for the runs it reads, and each distinct [`RunKey`]
//! executes once per process.

use crate::{fmt_s, timed, BenchConfig};
use lra_core::{
    factorize_ranks, ilut_crtp, lu_crtp, rand_qb_ei, rand_ubv, CheckpointStore, CommStats,
    IlutOpts, IterTrace, KernelTimers, LuCrtpCheckpoint, LuCrtpOpts, LuCrtpResult, OrderingMode,
    Parallelism, QbOpts, QbResult, RecoveryHooks, RunConfig, ThresholdReport, UbvOpts,
};
use lra_dense::DenseMatrix;
use lra_matgen::TestMatrix;
use lra_obs::{BenchEntry, KernelTime};
use lra_par::{record, Profile};
use lra_sparse::CscMatrix;
use std::rc::Rc;

/// Which algorithm a run executes, with the parameters that make it a
/// different computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// RandUBV.
    Ubv,
    /// RandQB_EI with power parameter `p`.
    Qb(usize),
    /// LU_CRTP under a fill-reducing mode.
    Lu(OrderingMode),
    /// ILUT_CRTP with `u` = the iteration count of the [`LU`] run of
    /// the same key (the paper's protocol).
    Ilut,
    /// ILUT_CRTP over `np` SPMD ranks; `ckpt` snapshots every iteration
    /// into an in-memory store.
    IlutSpmd { np: usize, ckpt: bool },
}

/// LU_CRTP as the paper runs it: COLAMD before the first iteration.
pub const LU: Algo = Algo::Lu(OrderingMode::FirstIteration);

/// One distinct run: matrix label, algorithm, block size, tolerance,
/// rank cap (Fig. 1 left stops at the numerical rank), and whether it
/// runs under the `lra-par` cost recorder (sequential, every chunk
/// timed) instead of on the worker pool.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    pub matrix: String,
    pub algo: Algo,
    pub k: usize,
    pub tau: f64,
    pub max_rank: Option<usize>,
    pub recorded: bool,
}

/// What the views read of one finished run; the factors are dropped.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Wall seconds of the factorization alone.
    pub wall: f64,
    pub rank: usize,
    pub iterations: usize,
    pub converged: bool,
    pub a_norm_f: f64,
    /// The method's own error estimate (absolute).
    pub indicator: f64,
    /// `||A - H_K W_K||_F`, computed outside the timed section. NaN for
    /// RandUBV, whose error no view reads (Table II lists its
    /// iterations only) and whose residual costs a dense `m x n` GEMM.
    pub exact: f64,
    /// A RandQB_EI run's result with its factors emptied, for
    /// [`QbResult::min_rank_for`].
    pub qb: Option<QbResult>,
    /// `nnz(L) + nnz(U)`, the threshold report and per-iteration Schur
    /// fill (deterministic methods).
    pub factor_nnz: usize,
    pub threshold: Option<ThresholdReport>,
    pub trace: Vec<IterTrace>,
    pub timers: KernelTimers,
    /// Chunk-cost profile of a recorded run.
    pub profile: Option<Profile>,
    /// Per-rank communication counters of an SPMD run.
    pub stats: Vec<CommStats>,
    /// `(envelope bytes, state words)` of a checkpointed run's newest
    /// snapshot.
    pub checkpoint: Option<(usize, usize)>,
}

/// The fields every result type carries under the same name.
macro_rules! summary {
    ($r:ident, $wall:expr, $exact:expr) => {
        Run {
            wall: $wall,
            rank: $r.rank,
            iterations: $r.iterations,
            converged: $r.converged,
            a_norm_f: $r.a_norm_f,
            indicator: $r.indicator,
            exact: $exact,
            timers: $r.timers.clone(),
            ..Run::default()
        }
    };
}

impl Run {
    /// Summarize an LU_CRTP / ILUT_CRTP result that took `wall` seconds
    /// (the exact error is evaluated here, on `par` workers).
    pub fn of_lu(r: LuCrtpResult, wall: f64, a: &CscMatrix, par: Parallelism) -> Run {
        let base = summary!(r, wall, r.exact_error(a, par));
        Run { factor_nnz: r.factor_nnz(), threshold: r.threshold, trace: r.trace, ..base }
    }

    /// `exact / ||A||_F`.
    pub fn true_rel_err(&self) -> f64 {
        self.exact / self.a_norm_f
    }

    /// `indicator / ||A||_F`.
    pub fn est_rel_err(&self) -> f64 {
        self.indicator / self.a_norm_f
    }

    /// Table II's metric, `wall / -log10(true relative error)` — the
    /// definition of `benchmark/src/workloads.rs::digits`. `None` for
    /// an unconverged run or one that gained no digit.
    pub fn s_per_digit(&self) -> Option<f64> {
        let digits = -self.true_rel_err().log10();
        (self.converged && digits > 0.0).then(|| self.wall / digits)
    }

    /// This run as a BENCH v1 entry; an `other` bucket absorbs untimed
    /// work so the kernel buckets sum to the wall time.
    pub fn bench_entry(
        &self,
        algorithm: &str,
        matrix: &str,
        a: &CscMatrix,
        (tau, k, np): (f64, usize, usize),
    ) -> BenchEntry {
        let kernels = self.timers.report_with_other(self.wall).into_iter();
        BenchEntry {
            algorithm: algorithm.to_string(),
            matrix: matrix.to_string(),
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            tau,
            k,
            np,
            wall_s: self.wall,
            kernels: kernels
                .map(|(k, seconds)| KernelTime { kernel: k.to_string(), seconds })
                .collect(),
            rank: self.rank,
            iterations: self.iterations,
            converged: self.converged,
            est_rel_err: self.est_rel_err(),
            true_rel_err: self.true_rel_err(),
        }
    }
}

/// Produces the run of a key; the `usize` is ILUT's iteration estimate.
pub type Executor = Box<dyn FnMut(&TestMatrix, &RunKey, usize) -> Run>;

/// The run table. Views share one `Sweep`, so a run two figures read
/// (every `fig3` row at a Table II tolerance, say) executes once.
pub struct Sweep {
    runs: Vec<(RunKey, Rc<Run>)>,
    exec: Executor,
}

impl Sweep {
    /// An empty table whose unrecorded runs use `cfg.par()`.
    pub fn new(cfg: &BenchConfig) -> Self {
        let par = cfg.par();
        Self::with_executor(Box::new(move |tm, key, u| execute(tm, key, u, par)))
    }

    /// A table that obtains missing runs from `exec` (a test passes a
    /// fake that counts calls).
    pub fn with_executor(exec: Executor) -> Self {
        Sweep { runs: Vec::new(), exec }
    }

    /// The unrecorded, uncapped run of `algo` on `tm`.
    pub fn run(&mut self, tm: &TestMatrix, algo: Algo, k: usize, tau: f64) -> Rc<Run> {
        let matrix = tm.label.clone();
        self.get(tm, RunKey { matrix, algo, k, tau, max_rank: None, recorded: false })
    }

    /// [`Sweep::run`] stopped at rank `cap`.
    pub fn capped(
        &mut self,
        tm: &TestMatrix,
        algo: Algo,
        k: usize,
        tau: f64,
        cap: usize,
    ) -> Rc<Run> {
        let (matrix, max_rank) = (tm.label.clone(), Some(cap));
        self.get(tm, RunKey { matrix, algo, k, tau, max_rank, recorded: false })
    }

    /// The run of `algo` under the cost recorder (`profile` is set).
    pub fn recorded(&mut self, tm: &TestMatrix, algo: Algo, k: usize, tau: f64) -> Rc<Run> {
        let matrix = tm.label.clone();
        self.get(tm, RunKey { matrix, algo, k, tau, max_rank: None, recorded: true })
    }

    /// Runs executed so far (= distinct keys asked for).
    pub fn executed(&self) -> usize {
        self.runs.len()
    }

    fn get(&mut self, tm: &TestMatrix, key: RunKey) -> Rc<Run> {
        if let Some((_, run)) = self.runs.iter().find(|(have, _)| *have == key) {
            return Rc::clone(run);
        }
        let u = match key.algo {
            Algo::Ilut | Algo::IlutSpmd { .. } => {
                self.get(tm, RunKey { algo: LU, ..key.clone() }).iterations.max(1)
            }
            _ => 0,
        };
        let run = Rc::new((self.exec)(tm, &key, u));
        eprintln!("  {}s {key:?}", fmt_s(run.wall));
        self.runs.push((key, Rc::clone(&run)));
        run
    }
}

/// `f` timed — under the cost recorder when `recorded`, which ends
/// before anything else (the exact-error evaluation) can be charged.
fn measured<T>(recorded: bool, f: impl FnOnce() -> T) -> (T, f64, Option<Profile>) {
    if recorded {
        record::start();
    }
    let (out, wall) = timed(f);
    (out, wall, recorded.then(record::finish))
}

/// Execute one key. `par` threads the unrecorded runs and every
/// exact-error evaluation.
fn execute(tm: &TestMatrix, key: &RunKey, u: usize, par: Parallelism) -> Run {
    let a = &tm.a;
    let (k, tau, rec) = (key.k, key.tau, key.recorded);
    // A recorded run's `par` sets chunk widths, not real threads.
    let run_par = if rec { Parallelism::new(1 << 20) } else { par };
    let mut lu_opts = LuCrtpOpts::new(k, tau).with_par(run_par);
    lu_opts.max_rank = key.max_rank;
    let mut ilut_opts = IlutOpts::new(k, tau, u);
    ilut_opts.base = lu_opts.clone();
    match key.algo {
        Algo::Ubv => {
            let mut o = UbvOpts::new(k, tau);
            (o.par, o.max_rank) = (run_par, key.max_rank);
            let (r, wall, profile) = measured(rec, || rand_ubv(a, &o));
            Run { profile, ..summary!(r, wall, f64::NAN) }
        }
        Algo::Qb(p) => {
            let mut o = QbOpts::new(k, tau).with_power(p).with_par(run_par);
            o.max_rank = key.max_rank;
            let (r, wall, profile) = measured(rec, || rand_qb_ei(a, &o));
            let mut r = r.expect("every view's tolerance is above the indicator floor");
            let base = summary!(r, wall, r.exact_error(a, par));
            (r.q, r.b) = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
            Run { profile, qb: Some(r), ..base }
        }
        Algo::Lu(ordering) => {
            let o = lu_opts.with_ordering(ordering);
            let (r, wall, profile) = measured(rec, || lu_crtp(a, &o));
            Run { profile, ..Run::of_lu(r, wall, a, par) }
        }
        Algo::Ilut => {
            let (r, wall, profile) = measured(rec, || ilut_crtp(a, &ilut_opts));
            Run { profile, ..Run::of_lu(r, wall, a, par) }
        }
        Algo::IlutSpmd { np, ckpt } => {
            let store = CheckpointStore::in_memory();
            let hooks = RecoveryHooks::new(&store, 1);
            let hooks = ckpt.then_some(&hooks);
            let (report, wall, profile) =
                measured(rec, || factorize_ranks(a, &ilut_opts, np, &RunConfig::default(), hooks));
            let report = report.expect("preset matrices and view options are valid input");
            let stats = report.stats.clone();
            let checkpoint = ckpt.then(|| {
                let bytes = store.raw().ok().flatten().map_or(0, |e| e.len());
                (bytes, store.load().ok().flatten().map_or(0, |ck| state_words(&ck)))
            });
            let r = report.unwrap_all().swap_remove(0);
            Run { profile, stats, checkpoint, ..Run::of_lu(r, wall, a, par) }
        }
    }
}

/// Index + value words in a loop snapshot, counted from the decoded
/// state rather than from the envelope's own section table.
fn state_words(ck: &LuCrtpCheckpoint) -> usize {
    let st = &ck.state;
    let panel_entries: usize = st.l_cols.iter().chain(st.ut_cols.iter()).map(Vec::len).sum();
    let r_diags: usize = st.trace.iter().map(|t| t.r_diag.len()).sum();
    let s = ck.schur();
    let index_words = s.colptr().len()
        + s.rowidx().len()
        + st.row_map.len()
        + st.col_map.len()
        + st.l_cols.len()
        + st.ut_cols.len()
        + panel_entries
        + st.pivot_cols.len()
        + st.pivot_rows.len()
        + 4 * st.trace.len();
    let value_words = s.values().len() + panel_entries + 3 * st.trace.len() + r_diags;
    index_words + value_words
}
