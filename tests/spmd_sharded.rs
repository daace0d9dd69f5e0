//! The sharded SPMD driver vs. its replicated oracle.
//!
//! The sharded driver owns only a block-column shard of the Schur
//! complement per rank but partitions every per-column computation
//! exactly as the replicated driver partitions its per-rank work, and
//! combines partials through the same reduction trees — so the two
//! must agree *bit for bit* on every result field (timers and the
//! `mem` report excepted, which measure the run rather than the
//! factorization). The sharded driver posts each panel's re-shard and
//! Schur-updates the pieces as they arrive, so the same pin covers the
//! overlapped pipeline.

use lra_comm::{CommStats, Ctx, RunConfig};
use lra_core::{
    factorize, factorize_ranks, Budget, CancelToken, Exec, IlutOpts, LuCrtpOpts, LuCrtpResult,
    Method,
};
use lra_par::{split_ranges, Parallelism};
use lra_qrtp::{tournament_columns_spmd, tournament_columns_spmd_sharded};
use lra_sparse::CscMatrix;

mod common;
use common::{assert_factors_on_rank0_only, rand_sparse};

fn circuit_matrix() -> CscMatrix {
    lra_matgen::with_decay(&lra_matgen::circuit(220, 4, 4, 17), 1e-7, 19)
}

fn fill_heavy() -> CscMatrix {
    lra_matgen::with_decay(&lra_matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_csc_bitwise(a: &CscMatrix, b: &CscMatrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: rows");
    assert_eq!(a.cols(), b.cols(), "{what}: cols");
    assert_eq!(a.colptr(), b.colptr(), "{what}: colptr");
    assert_eq!(a.rowidx(), b.rowidx(), "{what}: rowidx");
    assert_eq!(bits(a.values()), bits(b.values()), "{what}: values");
}

fn assert_result_bitwise(sharded: &LuCrtpResult, oracle: &LuCrtpResult, what: &str) {
    assert_eq!(sharded.rank, oracle.rank, "{what}: rank");
    assert_eq!(sharded.iterations, oracle.iterations, "{what}: iterations");
    assert_eq!(sharded.converged, oracle.converged, "{what}: converged");
    assert_eq!(sharded.breakdown, oracle.breakdown, "{what}: breakdown");
    assert_eq!(sharded.pivot_rows, oracle.pivot_rows, "{what}: pivot_rows");
    assert_eq!(sharded.pivot_cols, oracle.pivot_cols, "{what}: pivot_cols");
    assert_eq!(
        sharded.indicator.to_bits(),
        oracle.indicator.to_bits(),
        "{what}: indicator"
    );
    assert_eq!(sharded.r11.to_bits(), oracle.r11.to_bits(), "{what}: r11");
    assert_csc_bitwise(&sharded.l, &oracle.l, &format!("{what}: L"));
    assert_csc_bitwise(&sharded.u, &oracle.u, &format!("{what}: U"));
    assert_eq!(sharded.trace.len(), oracle.trace.len(), "{what}: trace len");
    for (s, o) in sharded.trace.iter().zip(&oracle.trace) {
        assert_eq!(s.iteration, o.iteration, "{what}: trace iteration");
        assert_eq!(s.rank, o.rank, "{what}: trace rank");
        assert_eq!(
            s.indicator.to_bits(),
            o.indicator.to_bits(),
            "{what}: trace indicator"
        );
        assert_eq!(s.schur_nnz, o.schur_nnz, "{what}: trace schur_nnz");
        assert_eq!(
            s.schur_density.to_bits(),
            o.schur_density.to_bits(),
            "{what}: trace schur_density"
        );
        assert_eq!(
            s.schur_nnz_per_row.to_bits(),
            o.schur_nnz_per_row.to_bits(),
            "{what}: trace schur_nnz_per_row"
        );
        assert_eq!(bits(&s.r_diag), bits(&o.r_diag), "{what}: trace r_diag");
    }
    match (&sharded.threshold, &oracle.threshold) {
        (None, None) => {}
        (Some(s), Some(o)) => {
            assert_eq!(s.mu.to_bits(), o.mu.to_bits(), "{what}: mu");
            assert_eq!(s.phi.to_bits(), o.phi.to_bits(), "{what}: phi");
            assert_eq!(s.dropped, o.dropped, "{what}: dropped");
            assert_eq!(
                s.dropped_mass_sq.to_bits(),
                o.dropped_mass_sq.to_bits(),
                "{what}: dropped_mass_sq"
            );
            assert_eq!(
                s.control_triggered, o.control_triggered,
                "{what}: control_triggered"
            );
        }
        _ => panic!("{what}: threshold presence mismatch"),
    }
}

/// Rank 0's result of `method` over `np` ranks of the engine `exec`
/// names.
fn rank0<'m>(
    np: usize,
    a: &CscMatrix,
    method: impl Into<Method<'m>>,
    exec: for<'c> fn(&'c Ctx) -> Exec<'c>,
) -> LuCrtpResult {
    let method = method.into();
    lra_comm::run_infallible(np, |ctx| factorize(a, method, exec(ctx), None)).swap_remove(0)
}

/// Rank 0's result of `method` over `np` ranks of the sharded engine,
/// with rank 0's comm counters.
fn sharded_rank0<'m>(
    np: usize,
    a: &CscMatrix,
    method: impl Into<Method<'m>>,
) -> (LuCrtpResult, CommStats) {
    let method = method.into();
    lra_comm::run_infallible(np, |ctx| {
        (factorize(a, method, Exec::Spmd(ctx), None), ctx.stats())
    })
    .swap_remove(0)
}

/// The sharded column tournament selects what the replicated one
/// selects, bit for bit, and its panel — the one every SPMD engine
/// hands to the panel TSQR and the split — is an exact copy of the
/// selected columns. The 30 x 5 input at np = 8 leaves the high ranks
/// owning empty shards.
#[test]
fn sharded_matches_replicated_bitwise() {
    let wide = rand_sparse(100, 48, 4, 1);
    let narrow = rand_sparse(30, 5, 3, 4);
    for (a, np) in [(&wide, 1usize), (&wide, 2), (&wide, 4), (&wide, 7), (&narrow, 8)] {
        for k in [3usize, 8] {
            let replicated = lra_comm::run_infallible(np, |ctx| {
                let sel = tournament_columns_spmd(ctx, a, None, k);
                (sel.selected, sel.r_diag)
            });
            let sharded = lra_comm::run_infallible(np, |ctx| {
                let ranges = split_ranges(a.cols(), ctx.size());
                let range = lra_par::owned_range(&ranges, ctx.rank());
                let (shard, offset) = (a.slice_columns(range.clone()), range.start);
                let (sel, panel) = tournament_columns_spmd_sharded(ctx, &shard, offset, k);
                (sel.selected, sel.r_diag, panel)
            });
            for (rank, (sel, rd, panel)) in sharded.iter().enumerate() {
                let (rsel, rrd) = &replicated[rank];
                assert_eq!(sel, rsel, "np={np} k={k} rank={rank}");
                assert_eq!(sel, &sharded[0].0, "np={np} k={k}: ranks disagree");
                assert_eq!(sel.len(), k.min(a.cols()), "np={np} k={k}");
                assert_eq!(rd.len(), rrd.len());
                for (x, y) in rd.iter().zip(rrd) {
                    assert_eq!(x.to_bits(), y.to_bits(), "np={np} k={k}");
                }
                // The panel is an exact copy of the selected
                // columns.
                assert_eq!(*panel, a.select_columns(sel), "np={np} k={k}");
            }
        }
    }
}

#[test]
fn sharded_lu_matches_replicated_bitwise() {
    let a = circuit_matrix();
    let opts = LuCrtpOpts::new(8, 1e-3);
    for np in [1usize, 2, 4] {
        let (s, stats) = sharded_rank0(np, &a, &opts);
        let o = rank0(np, &a, &opts, |c| Exec::SpmdReplicated(c));
        assert!(s.converged, "np={np}: {:?}", s.breakdown);
        assert_result_bitwise(&s, &o, &format!("lu np={np}"));
        assert_eq!(
            stats.overlap_posted, s.iterations as u64,
            "np={np}: one posted re-shard per panel iteration"
        );
        // The oracle holds the whole complement on every rank; a shard
        // is at most that.
        eprintln!("lu np={np}: sharded peak {:?}, replicated peak {:?}", s.mem, o.mem);
        assert!(s.mem.peak_rank_bytes > 0, "np={np}: sharded driver must report mem");
        assert!(
            o.mem.peak_rank_bytes >= s.mem.peak_rank_bytes
                && o.mem.peak_rank_nnz >= s.mem.peak_rank_nnz,
            "np={np}: replicated peak {:?} below the sharded peak {:?}",
            o.mem,
            s.mem
        );
    }
}

/// Also pins `Exec::Spmd`'s promise that a result is bitwise
/// independent of the intra-rank worker count: every per-rank stage,
/// the `L21` solve included, is a parallel region at `par = 2`.
#[test]
fn sharded_ilut_matches_replicated_bitwise() {
    let a = fill_heavy();
    let opts = IlutOpts::new(8, 1e-2, 4);
    let mut par2 = opts.clone();
    par2.base.par = Parallelism::new(2);
    for np in [1usize, 2, 4] {
        let (s, stats) = sharded_rank0(np, &a, &opts);
        let o = rank0(np, &a, &opts, |c| Exec::SpmdReplicated(c));
        assert!(s.converged, "np={np}: {:?}", s.breakdown);
        assert!(
            s.threshold.as_ref().unwrap().dropped > 0,
            "np={np}: expected drops"
        );
        assert_result_bitwise(&s, &o, &format!("ilut np={np}"));
        assert_eq!(
            stats.overlap_posted, s.iterations as u64,
            "np={np}: one posted re-shard per panel iteration"
        );
        let (p, _) = sharded_rank0(np, &a, &par2);
        assert_result_bitwise(&p, &s, &format!("ilut np={np} par=2"));
    }
}

#[test]
fn per_rank_memory_shrinks_with_more_ranks() {
    let a = fill_heavy();
    // k = 16 is the configuration of EXPERIMENTS.md's "Memory scaling"
    // table (3 941 -> 1 163 peak nnz).
    for k in [8usize, 16] {
        let opts = IlutOpts::new(k, 1e-2, 4);
        let peak = |np: usize| {
            rank0(np, &a, &opts, |c| Exec::Spmd(c)).mem
        };
        let p1 = peak(1);
        let p4 = peak(4);
        assert!(p1.peak_rank_nnz > 0 && p1.peak_rank_bytes > 0);
        // The tentpole claim: resident Schur storage is O(nnz/np) + panel,
        // so quadrupling the ranks must at least halve the per-rank peak.
        assert!(
            2 * p4.peak_rank_nnz < p1.peak_rank_nnz,
            "k={k}: np=4 peak nnz {} not < 0.5x np=1 peak nnz {}",
            p4.peak_rank_nnz,
            p1.peak_rank_nnz
        );
        assert!(
            p4.peak_rank_bytes < p1.peak_rank_bytes,
            "k={k}: np=4 peak bytes {} not < np=1 peak bytes {}",
            p4.peak_rank_bytes,
            p1.peak_rank_bytes
        );
    }
}

/// Every rank returns the same replicated fields (pivots, indicator,
/// trace, threshold report, memory peak); only rank 0 returns `L`/`U`,
/// the replicated oracle's bit for bit.
#[test]
fn sharded_results_identical_on_every_rank() {
    let a = fill_heavy();
    let opts = IlutOpts::new(8, 1e-2, 4);
    let results = lra_comm::run_infallible(3, |ctx| factorize(&a, &opts, Exec::Spmd(ctx), None));
    assert_factors_on_rank0_only(&results, "ilut np=3");
    let oracle = rank0(3, &a, &opts, |c| Exec::SpmdReplicated(c));
    assert_result_bitwise(&results[0], &oracle, "ilut np=3 rank 0");
}

/// Collectives per panel iteration, on the served victim's shape (two
/// ranks, ILUT with k = 2 at τ = 1e-6 on `tests/serve_soak.rs`'s victim
/// matrix, a cancel-token budget): ten per iteration — the budget
/// verdict, the two tournaments, the TSQR's two allgathers, the `L21`
/// allgather, the posted re-shard and its completion, the factor
/// `gatherv` and the one measurement — plus a few per run. An added
/// agreement fails here instead of slowing `serve_mix`.
#[test]
fn collectives_per_iteration_are_pinned() {
    let a = lra_matgen::with_decay(&lra_matgen::fem2d(24, 20, 11), 1e-6, 3);
    let opts =
        IlutOpts::new(2, 1e-6, 8).with_budget(Budget::unlimited().with_cancel(CancelToken::new()));
    let report = factorize_ranks(&a, &opts, 2, &RunConfig::default(), None).unwrap();
    let stats = report.stats.clone();
    let r = report.unwrap_all().swap_remove(0);
    assert!(r.converged, "{:?}", r.breakdown);
    for (rank, st) in stats.iter().enumerate() {
        let per_iteration = st.collectives as f64 / r.iterations as f64;
        assert!(
            per_iteration <= 10.05,
            "rank {rank}: {} collectives over {} iterations = {per_iteration:.3}",
            st.collectives,
            r.iterations
        );
    }
}
