//! The one file that names the program's factorization entry points,
//! option builders and result fields. Everything else in the benchmark
//! sees [`SolveSpec`], [`Solved`] and [`Served`]; a change to the
//! `lra::core` / `lra::serve` surface is a change to this file only.
//!
//! Calls are timed here, from outside, around the public function and
//! nothing else: options are built before the clock starts and results
//! are digested after it stops.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lra::comm::{run_with, CommStats, RunConfig};
use lra::core::{
    ilut_crtp, ilut_crtp_spmd_checkpointed, lu_crtp, rand_qb_ei, rand_ubv, Budget, CheckpointStore,
    IlutOpts, LuCrtpOpts, LuCrtpResult, Parallelism, QbOpts, QbResult, RecoveryHooks, UbvOpts,
    UbvResult,
};
use lra::dense::{matmul_nt, matmul_sub_assign, DenseMatrix};
use lra::serve::{Algorithm, JobId, JobSpec, Server, ServerConfig};
use lra::sparse::CscMatrix;

/// Block size of every batch solve.
pub const BLOCK_K: usize = 32;
/// Checkpoint cadence of the checkpointed SPMD solve, in iterations.
pub const CKPT_EVERY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    LuCrtp,
    IlutCrtp,
    RandQb {
        power: usize,
    },
    RandUbv,
    /// ILUT_CRTP over `np` SPMD ranks, sequential inside each rank;
    /// `checkpointed` snapshots into an in-memory store every
    /// [`CKPT_EVERY`] iterations.
    IlutSpmd {
        np: usize,
        checkpointed: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSpec {
    /// Stable name: the `core.<name>_s` per-layer metric.
    pub name: &'static str,
    pub method: Method,
    pub tau: f64,
}

/// One generated input and what the solves need to know about it.
pub struct Problem {
    pub a: CscMatrix,
    /// `‖A‖_F`, computed by the benchmark.
    pub a_norm: f64,
    /// LU_CRTP iteration counts per tolerance: ILUT's `u_estimate`.
    pub u_estimates: Vec<(f64, usize)>,
    /// Seed of the random sketches (RandQB_EI, RandUBV).
    pub sketch_seed: u64,
}

impl Problem {
    fn u_estimate(&self, tau: f64) -> Result<usize, String> {
        self.u_estimates
            .iter()
            .find(|(t, _)| *t == tau)
            .map(|&(_, u)| u)
            .ok_or_else(|| format!("no u_estimate prepared for tau {tau:e}"))
    }
}

/// The returned factors, kept only while they are being checked.
pub enum Factors {
    Lu(LuCrtpResult),
    Qb(QbResult),
    Ubv(UbvResult),
}

/// Message-passing totals over the ranks of one SPMD solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommTotals {
    pub msgs: u64,
    pub bytes_sent: u64,
    pub collectives: u64,
    pub overlap_hidden_s: f64,
    pub overlap_wait_s: f64,
}

impl CommTotals {
    fn from_stats(stats: &[CommStats]) -> Self {
        let mut t = CommTotals::default();
        for s in stats {
            t.msgs += s.msgs_sent;
            t.bytes_sent += s.bytes_sent;
            t.collectives += s.collectives;
            t.overlap_hidden_s += s.overlap_hidden_ns as f64 * 1e-9;
            t.overlap_wait_s += s.overlap_wait_ns as f64 * 1e-9;
        }
        t
    }
}

/// What one solve returned, digested.
pub struct Solved {
    pub wall_s: f64,
    pub rank: usize,
    pub iterations: usize,
    pub converged: bool,
    /// The program's own error indicator over `‖A‖_F`.
    pub est_rel_err: f64,
    pub factor_bytes: u64,
    pub factor_nnz: u64,
    /// Digest of the factor bits: equal digests mean equal factors.
    pub fingerprint: u64,
    /// The kernel buckets the result carries, plus `other`, summing to
    /// `wall_s` (program-reported).
    pub buckets: Vec<(&'static str, f64)>,
    pub comm: Option<CommTotals>,
    pub checkpoint_saves: Option<u64>,
    pub factors: Factors,
}

fn par(threads: usize) -> Parallelism {
    Parallelism::new(threads)
}

fn ilut_opts(p: &Problem, tau: f64, threads: usize) -> Result<IlutOpts, String> {
    let mut opts =
        IlutOpts::try_new(BLOCK_K, tau, p.u_estimate(tau)?).map_err(|e| e.to_string())?;
    opts.base.par = par(threads);
    Ok(opts)
}

/// Iterations LU_CRTP needs at `tau` — the `u_estimate` ILUT_CRTP takes.
pub fn lu_iterations(a: &CscMatrix, tau: f64, threads: usize) -> usize {
    lu_crtp(a, &LuCrtpOpts::new(BLOCK_K, tau).with_par(par(threads)))
        .iterations
        .max(1)
}

/// Run one solve of the list, the shared-memory ones on `threads`
/// workers. `Err` is a solve that could not return factors at all
/// (typed error or failed rank).
pub fn solve(spec: &SolveSpec, p: &Problem, threads: usize) -> Result<Solved, String> {
    let a = &p.a;
    match spec.method {
        Method::LuCrtp => {
            let opts = LuCrtpOpts::new(BLOCK_K, spec.tau).with_par(par(threads));
            let t = Instant::now();
            let r = lu_crtp(a, &opts);
            Ok(digest_lu(r, t.elapsed().as_secs_f64(), None, None))
        }
        Method::IlutCrtp => {
            let opts = ilut_opts(p, spec.tau, threads)?;
            let t = Instant::now();
            let r = ilut_crtp(a, &opts);
            Ok(digest_lu(r, t.elapsed().as_secs_f64(), None, None))
        }
        Method::RandQb { power } => {
            let opts = QbOpts::new(BLOCK_K, spec.tau)
                .with_power(power)
                .with_par(par(threads))
                .with_seed(p.sketch_seed);
            let t = Instant::now();
            let r = rand_qb_ei(a, &opts);
            let wall_s = t.elapsed().as_secs_f64();
            let r = r.map_err(|e| e.to_string())?;
            Ok(Solved {
                wall_s,
                rank: r.rank,
                iterations: r.iterations,
                converged: r.converged,
                est_rel_err: r.indicator / r.a_norm_f,
                factor_bytes: 8 * dense_entries(&[&r.q, &r.b]),
                factor_nnz: dense_entries(&[&r.q, &r.b]),
                fingerprint: dense_fingerprint(&[&r.q, &r.b]),
                buckets: r.timers.report_with_other(wall_s),
                comm: None,
                checkpoint_saves: None,
                factors: Factors::Qb(r),
            })
        }
        Method::RandUbv => {
            let mut opts = UbvOpts::new(BLOCK_K, spec.tau);
            opts.par = par(threads);
            opts.seed = p.sketch_seed;
            let t = Instant::now();
            let r = rand_ubv(a, &opts);
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Solved {
                wall_s,
                rank: r.rank,
                iterations: r.iterations,
                converged: r.converged,
                est_rel_err: r.indicator / r.a_norm_f,
                factor_bytes: 8 * dense_entries(&[&r.u, &r.b, &r.v]),
                factor_nnz: dense_entries(&[&r.u, &r.b, &r.v]),
                fingerprint: dense_fingerprint(&[&r.u, &r.b, &r.v]),
                buckets: r.timers.report_with_other(wall_s),
                comm: None,
                checkpoint_saves: None,
                factors: Factors::Ubv(r),
            })
        }
        Method::IlutSpmd { np, checkpointed } => {
            let opts = ilut_opts(p, spec.tau, 1)?;
            let store = checkpointed.then(CheckpointStore::in_memory);
            let (r, wall_s, comm) = ilut_spmd(a, &opts, np, store.as_ref(), CKPT_EVERY)?;
            Ok(digest_lu(r, wall_s, Some(comm), store.map(|s| s.saves())))
        }
    }
}

/// ILUT_CRTP on `np` ranks through `run_with`, timed around the whole
/// rank group (spawn to join). Rank 0's result is the result.
fn ilut_spmd(
    a: &CscMatrix,
    opts: &IlutOpts,
    np: usize,
    store: Option<&CheckpointStore>,
    every: usize,
) -> Result<(LuCrtpResult, f64, CommTotals), String> {
    let hooks = store.map(|s| RecoveryHooks::new(s, every));
    let t = Instant::now();
    let report = run_with(np, &RunConfig::default(), |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, a, opts, hooks.as_ref())
    });
    let wall_s = t.elapsed().as_secs_f64();
    if let Some(summary) = report.failure_summary() {
        return Err(summary);
    }
    let comm = CommTotals::from_stats(&report.stats);
    let first = report.results.into_iter().next().ok_or("no ranks ran")?;
    let r = first
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    Ok((r, wall_s, comm))
}

fn digest_lu(
    r: LuCrtpResult,
    wall_s: f64,
    comm: Option<CommTotals>,
    checkpoint_saves: Option<u64>,
) -> Solved {
    Solved {
        wall_s,
        rank: r.rank,
        iterations: r.iterations,
        converged: r.converged,
        est_rel_err: r.indicator / r.a_norm_f,
        factor_bytes: r.l.resident_bytes() + r.u.resident_bytes(),
        factor_nnz: r.factor_nnz() as u64,
        fingerprint: lu_fingerprint(&r),
        buckets: r.timers.report_with_other(wall_s),
        comm,
        checkpoint_saves,
        factors: Factors::Lu(r),
    }
}

fn dense_entries(ms: &[&DenseMatrix]) -> u64 {
    ms.iter().map(|m| (m.rows() * m.cols()) as u64).sum()
}

/// FNV-1a over 64-bit words.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn dense_fingerprint(ms: &[&DenseMatrix]) -> u64 {
    let mut h = FNV_OFFSET;
    for m in ms {
        h = fnv(fnv(h, m.rows() as u64), m.cols() as u64);
        for v in m.as_slice() {
            h = fnv(h, v.to_bits());
        }
    }
    h
}

fn lu_fingerprint(r: &LuCrtpResult) -> u64 {
    let mut h = fnv(fnv(FNV_OFFSET, r.l.fingerprint()), r.u.fingerprint());
    for &i in r.pivot_rows.iter().chain(&r.pivot_cols) {
        h = fnv(h, i as u64);
    }
    h
}

/// `‖A − H W‖_F` of the returned factors: the fixed-precision
/// postcondition's left-hand side, never the program's indicator.
///
/// The sparse factors go through the result's own column-at-a-time
/// `exact_error`. The dense factors are checked here on blocks of 256
/// columns instead: their `exact_error` forms two dense `n × n`
/// matrices, which would make `peak_rss_mb` a measurement of the check.
pub fn true_error(f: &Factors, a: &CscMatrix, threads: usize) -> f64 {
    let par = par(threads);
    match f {
        Factors::Lu(r) => r.exact_error(a, par),
        Factors::Qb(r) => blocked_residual(a, |cols, resid| {
            let b = r.b.select_columns(cols);
            matmul_sub_assign(resid, &r.q, &b, par);
        }),
        Factors::Ubv(r) => blocked_residual(a, |cols, resid| {
            let bvt = matmul_nt(&r.b, &r.v.select_rows(cols), par);
            matmul_sub_assign(resid, &r.u, &bvt, par);
        }),
    }
}

fn blocked_residual(a: &CscMatrix, subtract: impl Fn(&[usize], &mut DenseMatrix)) -> f64 {
    let mut sq = 0.0;
    let all: Vec<usize> = (0..a.cols()).collect();
    for cols in all.chunks(256) {
        let mut resid = a.gather_columns_dense(cols);
        subtract(cols, &mut resid);
        sq += resid.fro_norm_sq();
    }
    sq.sqrt()
}

/// Bitwise equality of two sets of sparse factors (pivots included).
pub fn same_bits(x: &Factors, y: &Factors) -> bool {
    match (x, y) {
        (Factors::Lu(x), Factors::Lu(y)) => {
            x.rank == y.rank && lu_fingerprint(x) == lu_fingerprint(y)
        }
        _ => false,
    }
}

// ---- recovery probes ---------------------------------------------------

/// The checkpointed np=2 solve against an on-disk store under `dir`:
/// `(wall seconds, saves, bytes of the newest generation)`.
pub fn ilut_spmd_disk_checkpointed(
    p: &Problem,
    tau: f64,
    dir: &Path,
) -> Result<(f64, u64, u64), String> {
    let opts = ilut_opts(p, tau, 1)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = CheckpointStore::on_disk(dir.join("ilut.ckpt"));
    let out = ilut_spmd(&p.a, &opts, 2, Some(&store), CKPT_EVERY);
    let bytes = store
        .raw()
        .ok()
        .flatten()
        .map_or(0, |text| text.len() as u64);
    store.clear();
    let _ = std::fs::remove_dir(dir);
    let (_, wall_s, _) = out?;
    Ok((wall_s, store.saves(), bytes))
}

/// The np=2 solve stopped by an iteration cap at `cap` and resumed
/// from the trip checkpoint: wall seconds of both legs together, and
/// whether the resumed run converged.
pub fn ilut_spmd_interrupt_resume(p: &Problem, tau: f64, cap: u64) -> Result<(f64, bool), String> {
    let opts = ilut_opts(p, tau, 1)?;
    let capped = opts
        .clone()
        .with_budget(Budget::unlimited().with_iteration_cap(cap));
    let store = CheckpointStore::in_memory();
    // A cadence beyond the run's length: the only save is the trip's.
    let (first, first_s, _) = ilut_spmd(&p.a, &capped, 2, Some(&store), usize::MAX)?;
    if first.trip.is_none() {
        return Err(format!("iteration cap {cap} did not trip"));
    }
    let (second, second_s, _) = ilut_spmd(&p.a, &opts, 2, Some(&store), usize::MAX)?;
    Ok((first_s + second_s, second.converged))
}

// ---- job engine ----------------------------------------------------------

/// One tenant request: ILUT_CRTP on `ranks` ranks at `priority`.
#[derive(Clone)]
pub struct JobRequest {
    pub matrix: Arc<CscMatrix>,
    pub k: usize,
    pub tau: f64,
    pub u_estimate: usize,
    pub ranks: usize,
    pub priority: u8,
}

impl JobRequest {
    fn opts(&self) -> IlutOpts {
        IlutOpts::new(self.k, self.tau, self.u_estimate)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(JobId);

/// What the engine handed back for one job.
pub struct Served {
    /// Service latency, admission to completion (`JobReport::wall`).
    pub wall_s: f64,
    pub completed: bool,
    pub converged: bool,
    pub from_cache: bool,
    pub preemptions: usize,
    pub driver_calls: usize,
    pub rank: usize,
    pub factor_bytes: u64,
    pub factors: Factors,
}

pub struct Service(Server);

impl Service {
    pub fn start(ranks: usize) -> Self {
        Service(Server::new(ServerConfig::default().with_ranks(ranks)))
    }

    pub fn submit(&self, req: &JobRequest) -> Result<Ticket, String> {
        let spec = JobSpec::new(Arc::clone(&req.matrix), Algorithm::IlutCrtp(req.opts()))
            .with_ranks(req.ranks)
            .with_priority(req.priority);
        self.0.submit(spec).map(Ticket).map_err(|e| e.to_string())
    }

    pub fn wait_until_running(&self, t: Ticket) {
        self.0.wait_until_running(t.0);
    }

    pub fn wait(&self, t: Ticket) -> Served {
        let report = self.0.wait(t.0);
        let completed = !report.outcome.is_interrupted();
        let r = report.outcome.into_value();
        Served {
            wall_s: report.wall.as_secs_f64(),
            completed,
            converged: r.converged,
            from_cache: report.from_cache,
            preemptions: report.preemptions,
            driver_calls: report.driver_calls,
            rank: r.rank,
            factor_bytes: r.l.resident_bytes() + r.u.resident_bytes(),
            factors: Factors::Lu(r),
        }
    }

    pub fn scrape(&self) -> String {
        self.0.scrape()
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// The same request factorized directly on its own rank group, outside
/// the engine: `(factors, wall seconds)`.
pub fn solo(req: &JobRequest) -> Result<(Factors, f64), String> {
    let (r, wall_s, _) = ilut_spmd(&req.matrix, &req.opts(), req.ranks, None, 1)?;
    Ok((Factors::Lu(r), wall_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    const LIST: [SolveSpec; 3] = [
        SolveSpec {
            name: "lu_crtp_1e-2",
            method: Method::LuCrtp,
            tau: 1e-2,
        },
        SolveSpec {
            name: "ilut_crtp_1e-2",
            method: Method::IlutCrtp,
            tau: 1e-2,
        },
        SolveSpec {
            name: "rand_qb_p1_1e-2",
            method: Method::RandQb { power: 1 },
            tau: 1e-2,
        },
    ];

    /// A small stand-in for a workload: `(rank_sum, factor digests)`.
    fn run_list(seed: u64) -> (usize, Vec<u64>) {
        let a = std::sync::Arc::unwrap_or_clone(inputs::serve_victim(seed, 0, 0));
        let p = Problem {
            a_norm: a.fro_norm(),
            u_estimates: vec![(1e-2, lu_iterations(&a, 1e-2, 1))],
            sketch_seed: inputs::derive(seed, 99),
            a,
        };
        let solved: Vec<Solved> = LIST.iter().map(|s| solve(s, &p, 2).unwrap()).collect();
        for (spec, s) in LIST.iter().zip(&solved) {
            assert!(s.converged, "{}", spec.name);
            let rel = true_error(&s.factors, &p.a, 2) / p.a_norm;
            assert!(rel < spec.tau, "{}: {rel:e}", spec.name);
            let bucket_sum: f64 = s.buckets.iter().map(|b| b.1).sum();
            assert!(
                (bucket_sum - s.wall_s).abs() <= 1e-6 + 0.01 * s.wall_s,
                "{}",
                spec.name
            );
        }
        (
            solved.iter().map(|s| s.rank).sum(),
            solved.iter().map(|s| s.fingerprint).collect(),
        )
    }

    #[test]
    fn same_seed_repeats_rank_sum_and_factor_bits() {
        assert_eq!(run_list(7), run_list(7));
    }

    #[test]
    fn another_seed_keeps_the_ranks_on_different_factors() {
        let (ranks_a, digests_a) = run_list(7);
        let (ranks_b, digests_b) = run_list(8);
        assert_eq!(ranks_a, ranks_b);
        assert_ne!(digests_a, digests_b);
    }

    #[test]
    fn blocked_dense_check_agrees_with_the_results_own() {
        let a = std::sync::Arc::unwrap_or_clone(inputs::serve_victim(3, 0, 0));
        let p = Problem {
            a_norm: a.fro_norm(),
            u_estimates: Vec::new(),
            sketch_seed: 5,
            a,
        };
        let par = Parallelism::new(2);
        for spec in [
            SolveSpec {
                name: "rand_qb_p1_1e-3",
                method: Method::RandQb { power: 1 },
                tau: 1e-3,
            },
            SolveSpec {
                name: "rand_ubv_1e-3",
                method: Method::RandUbv,
                tau: 1e-3,
            },
        ] {
            let s = solve(&spec, &p, 2).unwrap();
            let ours = true_error(&s.factors, &p.a, 2);
            let theirs = match &s.factors {
                Factors::Qb(r) => r.exact_error(&p.a, par),
                Factors::Ubv(r) => r.exact_error(&p.a, par),
                Factors::Lu(_) => unreachable!(),
            };
            assert!(
                (ours - theirs).abs() <= 1e-9 * theirs.max(1e-300),
                "{}: {ours:e} vs {theirs:e}",
                spec.name
            );
        }
    }

    #[test]
    fn a_served_job_matches_its_solo_run_bit_for_bit() {
        let req = JobRequest {
            matrix: inputs::serve_short(7, 0, 0, 1),
            k: 4,
            tau: 1e-3,
            u_estimate: 8,
            ranks: 2,
            priority: 1,
        };
        let service = Service::start(2);
        let ticket = service.submit(&req).unwrap();
        let served = service.wait(ticket);
        let again = service.wait(service.submit(&req).unwrap());
        service.shutdown();
        assert!(served.completed && served.converged && !served.from_cache);
        assert!(again.from_cache && again.driver_calls == 0);
        let (alone, _) = solo(&req).unwrap();
        assert!(same_bits(&served.factors, &alone));
        assert!(same_bits(&again.factors, &alone));
    }
}
