//! The one LU_CRTP / ILUT_CRTP panel loop, seen through every engine.
//!
//! `lra-core` runs a single block iteration over three engines —
//! shared-memory, rank-owned shards, replicated storage. The engines
//! are not bitwise interchangeable (their tournaments merge in
//! different orders), but everything the loop itself decides must come
//! out the same whichever engine stores the Schur complement: why a run
//! stopped, and what a trace entry means.

use lra::core::{
    factorize, factorize_ranks, rand_qb_ei, rand_ubv, Breakdown, Budget, CheckpointStore,
    CommError, Exec, FaultPlan, IlutOpts, InvalidInput, LuCrtpCheckpoint, LuCrtpOpts, LuCrtpResult,
    Method, OrderingMode, Parallelism, QbOpts, RecoveryHooks, RunConfig, UbvOpts,
};
use lra::dense::DenseMatrix;
use lra::sparse::CscMatrix;

mod common;
use common::dist;

/// The thresholding-active matrix of `tests/spmd_sharded.rs`.
fn fill_heavy() -> CscMatrix {
    lra::matgen::with_decay(&lra::matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

/// The newest snapshot of `method` on `a`, saved after every
/// iteration, sequentially (`np = 0`) or over `np` sharded ranks.
fn newest_snapshot(a: &CscMatrix, method: Method<'_>, np: usize) -> LuCrtpCheckpoint<'static> {
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    match np {
        0 => drop(factorize(a, method, Exec::Seq, Some(&hooks))),
        _ => drop(lra::comm::run_infallible(np, |ctx| {
            factorize(a, method, Exec::Spmd(ctx), Some(&hooks))
        })),
    }
    store.load().unwrap().expect("a snapshot was taken")
}

/// `IterTrace::schur_nnz` is the Schur complement as the next
/// iteration sees it — after the ILUT drop — on every path. The
/// checkpoint of a non-final iteration holds exactly that matrix, so
/// it must agree with the last trace entry. (The SPMD loops used to
/// push the trace before thresholding.) And the traced indicator, which
/// the Schur kernel measures as it writes `A^(i+1)`, is that matrix's
/// norm before the drop: `‖S‖_F` for LU_CRTP, and for ILUT_CRTP
/// `‖S‖²_F` plus the mass the iteration's drop took, read off the
/// accumulated mass after it and after the iteration before.
#[test]
fn ilut_trace_is_post_threshold_on_every_path() {
    let a = fill_heavy();
    // Stop after three iterations so the newest snapshot is a
    // non-final iteration's, taken after its drop.
    let cap = |iters| Budget::unlimited().with_iteration_cap(iters);
    let lu = LuCrtpOpts::new(8, 1e-2).with_budget(cap(3));
    let ilut = |iters| IlutOpts::new(8, 1e-2, 4).with_budget(cap(iters));
    let (ilut3, ilut2) = (ilut(3), ilut(2));
    let close = |got: f64, want: f64, what: &str| {
        assert!((got - want).abs() <= 1e-13 * want, "{what}: {got:e} against {want:e}");
    };
    for np in [0usize, 1, 2] {
        let path = match np {
            0 => "sequential".to_string(),
            _ => format!("sharded np={np}"),
        };
        for (name, method) in [("lu", Method::from(&lu)), ("ilut", Method::from(&ilut3))] {
            let what = format!("{name} {path}");
            let ck = newest_snapshot(&a, method, np);
            assert_eq!(ck.state.iterations, 3, "{what}");
            let last = ck.state.trace.last().unwrap();
            assert_eq!(last.iteration, 3, "{what}");
            let s = ck.schur();
            assert_eq!(s.nnz(), last.schur_nnz, "{what}: schur_nnz is pre-threshold");
            assert_eq!(
                s.density().to_bits(),
                last.schur_density.to_bits(),
                "{what}: schur_density is pre-threshold"
            );
            match &ck.state.ilut {
                None => close(s.fro_norm(), last.indicator, &format!("{what}: indicator")),
                Some(th) => {
                    assert!(th.dropped > 0 && !th.control_triggered, "{what}: expected drops");
                    let before = newest_snapshot(&a, Method::from(&ilut2), np);
                    assert_eq!(before.state.iterations, 2, "{what}");
                    let earlier = before.state.ilut.as_ref().unwrap();
                    let taken = th.dropped_mass_sq - earlier.dropped_mass_sq;
                    assert!(taken > 0.0, "{what}: iteration 3 dropped nothing");
                    let pre_drop = s.fro_norm_sq() + taken;
                    close(pre_drop, last.indicator * last.indicator, &format!("{what}: indicator"));
                }
            }
        }
    }
}

/// `(converged, breakdown, tripped, trace.len() == iterations)`.
type StopClass = (bool, Option<Breakdown>, bool, bool);

fn classify(r: &LuCrtpResult) -> StopClass {
    (
        r.converged,
        r.breakdown,
        r.trip.is_some(),
        r.trace.len() == r.iterations,
    )
}

/// Every path through the one loop: sequential, sharded np ∈ {1, 3},
/// replicated np = 2 — for LU_CRTP and for ILUT_CRTP.
fn every_path(a: &CscMatrix, opts: &LuCrtpOpts) -> Vec<(String, LuCrtpResult)> {
    let mut ilut = IlutOpts::new(opts.k, opts.tau, 4);
    ilut.base = opts.clone();
    let mut out = Vec::new();
    for (name, method) in [("lu", Method::from(opts)), ("ilut", Method::from(&ilut))] {
        out.push((format!("{name} seq"), factorize(a, method, Exec::Seq, None)));
        for np in [1usize, 3] {
            out.push((format!("{name} sharded np={np}"), dist(a, method, np)));
        }
        let mut rs = lra::comm::run_infallible(2, |ctx| {
            factorize(a, method, Exec::SpmdReplicated(ctx), None)
        });
        out.push((format!("{name} replicated np=2"), rs.swap_remove(0)));
    }
    out
}

/// Why a run stops is decided by the loop, not by the engine: each
/// degenerate or bounded input must be classified identically on every
/// path, and a run that reports convergence must satisfy the
/// fixed-precision bound. On the rows no engine can certify (squared
/// norms that overflow), RandQB_EI and RandUBV, at the row's `k` and
/// `tau`, must not converge either; every method and path reports the
/// finite `||A||_F` of the scaled sum, and none an achieved tolerance
/// below `tau`.
#[test]
fn stop_reason_is_the_same_on_every_engine() {
    let smooth = lra::matgen::with_decay(&lra::matgen::fem2d(8, 6, 5), 1e-6, 3);
    let rank5 = lra::matgen::spectrum(90, 80, &[9.0, 7.0, 5.0, 3.0, 1.0], 6, 41);
    let table: Vec<(&str, CscMatrix, LuCrtpOpts, StopClass)> = vec![
        (
            "zero matrix",
            CscMatrix::zeros(30, 20),
            LuCrtpOpts::new(4, 1e-3),
            (true, None, false, true),
        ),
        (
            "max_rank before tau",
            smooth.clone(),
            LuCrtpOpts::new(4, 1e-9).with_max_rank(8),
            (false, Some(Breakdown::RankExhausted), false, true),
        ),
        (
            "exactly rank 5",
            rank5,
            LuCrtpOpts::new(5, 1e-9),
            (true, None, false, true),
        ),
        (
            "iteration cap",
            smooth,
            LuCrtpOpts::new(4, 1e-9).with_budget(Budget::unlimited().with_iteration_cap(2)),
            (false, None, true, true),
        ),
        // The pivot panel's row support is one row, so the SPMD panel
        // TSQR has one block and every rank but rank 0 holds none.
        (
            "every entry on one row",
            CscMatrix::from_dense(&DenseMatrix::from_fn(60, 40, |i, j| match i {
                17 => 1.0 + ((5 * j) % 13) as f64,
                _ => 0.0,
            })),
            LuCrtpOpts::new(4, 1e-3),
            (true, None, false, true),
        ),
        // Every entry is finite, so `validate` passes; every squared
        // column norm is not.
        (
            "entries of 1e160",
            CscMatrix::from_dense(&DenseMatrix::from_fn(40, 40, |i, j| {
                (1.0 + ((3 * i + 7 * j) % 11) as f64) * 1e160
            })),
            LuCrtpOpts::new(4, 1e-3),
            (false, Some(Breakdown::NonFinite), false, true),
        ),
        // Sparse leaves of 16 columns, where reflectors are applied
        // through their nonzeros: column 40's squared norm overflows
        // when its turn comes, and the `inf` must still reach the check
        // although a skipped `0 * inf` makes no NaN on the way.
        (
            "one column of 1e200 in a sparse panel",
            {
                let mut a = lra::matgen::circuit(96, 3, 2, 11).to_dense();
                a.col_mut(40).iter_mut().for_each(|v| *v *= 1e200);
                CscMatrix::from_dense(&a)
            },
            LuCrtpOpts::new(8, 1e-3),
            (false, Some(Breakdown::NonFinite), false, true),
        ),
    ];
    for (case, a, opts, want) in table {
        let paths = every_path(&a, &opts);
        for (path, r) in &paths {
            assert_eq!(classify(r), want, "{case}: {path}");
            if r.converged {
                let err = r.exact_error(&a, Parallelism::SEQ);
                // (`err == 0.0`: the zero matrix, where the bound is 0.)
                assert!(
                    err < opts.tau * r.a_norm_f || err == 0.0,
                    "{case}: {path}: ||A - LU||_F = {err:e} misses tau * ||A||_F = {:e}",
                    opts.tau * r.a_norm_f
                );
            }
        }
        if want.1 == Some(Breakdown::NonFinite) {
            // Every entry is finite, so `||A||_F` is too: the squares
            // overflow, the norm does not. The reference scales by a
            // power of two, which rounds nothing.
            let a_norm_f = a.fro_norm();
            let (down, up) = (2f64.powi(-600), 2f64.powi(600));
            let squares: f64 = a.values().iter().map(|v| (v * down) * (v * down)).sum();
            let reference = up * squares.sqrt();
            assert!(a_norm_f.is_finite(), "{case}: ||A||_F = {a_norm_f:e}");
            assert!((a_norm_f - reference).abs() <= 1e-14 * reference, "{case}: {a_norm_f:e}");
            let qb = rand_qb_ei(&a, &QbOpts::new(opts.k, opts.tau)).expect("tau above the floor");
            let ubv = rand_ubv(&a, &UbvOpts::new(opts.k, opts.tau));
            let mut cells = vec![
                ("rand_qb_ei", (qb.converged, qb.a_norm_f, qb.achieved_tolerance())),
                ("rand_ubv", (ubv.converged, ubv.a_norm_f, ubv.achieved_tolerance())),
            ];
            for (path, r) in &paths {
                cells.push((path, (r.converged, r.a_norm_f, r.achieved_tolerance())));
            }
            for (method, (converged, norm, achieved)) in cells {
                assert!(!converged, "{case}: {method} converged");
                assert_eq!(norm.to_bits(), a_norm_f.to_bits(), "{case}: {method} ||A||_F");
                assert!(
                    achieved >= opts.tau,
                    "{case}: {method} achieved tolerance {achieved:e} below tau"
                );
            }
        }
    }
}

/// The checked entry point answers a bad method or matrix with the
/// matching [`InvalidInput`] before any rank is spawned — for ILUT too,
/// whose `u_estimate` / `phi_factor` arms had no checked caller, and
/// for the sequential-only every-iteration ordering. Bare `factorize`
/// under SPMD refuses that ordering by panicking with the same message,
/// and the replicated oracle refuses checkpoint hooks instead of
/// dropping them.
#[test]
fn bad_input_is_typed_before_any_rank_runs_and_the_oracle_refuses_hooks() {
    let good = lra::matgen::spectrum(16, 12, &[2.0, 1.0, 0.5], 4, 7);
    let empty = CscMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
    let nan = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
    let lu = LuCrtpOpts::new(4, 1e-3);
    let every = lu.clone().with_ordering(OrderingMode::EveryIteration);
    let ilut = IlutOpts::new(4, 1e-3, 4);
    let (mut bad_tau, mut bad_u, mut bad_phi) = (ilut.clone(), ilut.clone(), ilut.clone());
    bad_tau.base.tau = -1.0;
    bad_u.u_estimate = 0;
    bad_phi.phi_factor = f64::NAN;
    type Check = fn(&InvalidInput) -> bool;
    let table: [(&str, &CscMatrix, Method<'_>, Check); 7] = [
        ("empty, lu", &empty, (&lu).into(), |e| matches!(e, InvalidInput::EmptyMatrix { .. })),
        ("empty, ilut", &empty, (&ilut).into(), |e| matches!(e, InvalidInput::EmptyMatrix { .. })),
        ("nan entry", &nan, (&lu).into(), |e| {
            matches!(e, InvalidInput::NonFiniteEntry { row: 1, col: 1, .. })
        }),
        ("tau", &good, (&bad_tau).into(), |e| matches!(e, InvalidInput::BadTau { .. })),
        ("u_estimate", &good, (&bad_u).into(), |e| {
            matches!(e, InvalidInput::ZeroIterationEstimate)
        }),
        ("phi_factor", &good, (&bad_phi).into(), |e| {
            matches!(e, InvalidInput::BadPhiFactor { .. })
        }),
        ("every-iteration ordering", &good, (&every).into(), |e| {
            *e == InvalidInput::SequentialOnly {
                option: "OrderingMode::EveryIteration",
            }
        }),
    ];
    // A plan that kills rank 0 at its first operation: had a rank been
    // spawned, the call would come back `Ok` with a failed report.
    let cfg = RunConfig::default().with_faults(FaultPlan::new().kill_rank_at_op(0, 0));
    for (case, a, method, is_expected) in table {
        match factorize_ranks(a, method, 2, &cfg, None) {
            Err(e) => assert!(is_expected(&e), "{case}: got {e:?}"),
            Ok(_) => panic!("{case}: ranks were spawned on invalid input"),
        }
    }

    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let refusals = [
        (
            "hooks on the replicated oracle",
            "Exec::SpmdReplicated is the bitwise oracle for Exec::Spmd",
            lra::comm::run(1, |ctx| {
                factorize(&good, &lu, Exec::SpmdReplicated(ctx), Some(&hooks))
            }),
        ),
        (
            "every-iteration ordering under SPMD",
            "OrderingMode::EveryIteration is sequential-only",
            lra::comm::run(1, |ctx| {
                factorize(&good, &every, Exec::Spmd(ctx), Some(&hooks))
            }),
        ),
    ];
    for (case, message, results) in refusals {
        match &results[0] {
            Err(CommError::Failed { payload, .. }) => {
                assert!(payload.contains(message), "{case}: {payload}")
            }
            other => panic!("{case} must panic, got {other:?}"),
        }
    }
    assert_eq!(store.saves(), 0);
}

/// `||A - L_l U_l||_F` for every prefix `l = 0..=rank` of a result's
/// factors, from dense residuals.
fn prefix_errors(a: &CscMatrix, r: &LuCrtpResult) -> Vec<f64> {
    let (l, u) = (r.l.to_dense(), r.u.to_dense());
    let mut res = a.to_dense();
    let mut out = vec![res.fro_norm()];
    for t in 0..r.rank {
        for j in 0..res.cols() {
            let ut = u.get(t, j);
            if ut != 0.0 {
                for (x, &lt) in res.col_mut(j).iter_mut().zip(l.col(t)) {
                    *x -= lt * ut;
                }
            }
        }
        out.push(res.fro_norm());
    }
    out
}

/// The sequential path (`np = 0`) or `np` sharded ranks.
fn on_path<'m>(a: &CscMatrix, method: impl Into<Method<'m>>, np: usize) -> LuCrtpResult {
    match np {
        0 => factorize(a, method.into(), Exec::Seq, None),
        _ => dist(a, method, np),
    }
}

/// LU_CRTP stops at the smallest prefix `l` of its last block whose
/// residual, read off the stop-time sums, is below `tau ||A||_F`. Its
/// pivots do not depend on `tau`, so one run to a small `tau` gives the
/// dense `||A - L_l U_l||_F` of every prefix a run at a larger `tau`
/// can return; `tau` is then set just above each prefix's residual in
/// blocks 2-4, so that every `l` there is tried. On every path the
/// returned prefix meets `tau`, no shorter prefix of the block does,
/// and its indicator `p_l` is the dense residual; the block's own
/// indicator `p_K = ||A^(K+1)||_F` is the dense residual at its end.
#[test]
fn lu_returns_the_smallest_certified_prefix_on_every_path() {
    let a = fill_heavy();
    let k = 8;
    let a_norm = a.fro_norm();
    for np in [0usize, 1, 2, 3] {
        let reference = on_path(&a, &LuCrtpOpts::new(k, 1e-6), np);
        let errors = prefix_errors(&a, &reference);
        assert!(reference.rank >= 4 * k, "np={np}: rank {}", reference.rank);
        let (mut cut, mut worst) = (0, 0.0f64);
        for l in k + 1..=4 * k {
            let tau = errors[l] / a_norm * (1.0 + 1e-5);
            let r = on_path(&a, &LuCrtpOpts::new(k, tau), np);
            let what = format!("np={np} tau={tau:e}");
            assert!(r.converged, "{what}");
            assert_eq!(r.pivot_cols[..], reference.pivot_cols[..r.rank], "{what}: pivots");
            let (end, stop) = (r.iterations * k, tau * a_norm);
            assert!(end - k < r.rank && r.rank <= end, "{what}: rank {}", r.rank);
            assert!(errors[r.rank] < stop, "{what}: returned prefix misses tau");
            for (shorter, &e) in errors.iter().enumerate().take(r.rank).skip(end - k) {
                assert!(e >= stop * (1.0 - 1e-6), "{what}: {shorter} passes");
            }
            worst = worst.max((r.indicator - errors[r.rank]).abs() / stop);
            let block = r.trace.last().unwrap().indicator;
            worst = worst.max((block - errors[end]).abs() / stop);
            cut += usize::from(r.rank < end);
        }
        assert!(worst < 1e-9, "np={np}: p_l off the dense residual by {worst:e} tau");
        assert!(cut > k, "np={np}: only {cut} runs were cut inside their last block");
    }
}

/// ILUT_CRTP cuts its last block only where `p_l` plus the bound on
/// the dropped norms, `sqrt((iterations - 1) Σ_j ||T_j||_F^2)`, is
/// below `tau ||A||_F`: on every path and at every cut the returned
/// factors' exact error is at most that sum, and below `tau ||A||_F`.
#[test]
fn ilut_cut_is_certified_by_the_dropped_norm_bound() {
    let a = fill_heavy();
    let k = 8;
    let a_norm = a.fro_norm();
    let mut cut = 0;
    for np in [0usize, 1, 2, 3] {
        for tau in [1e-2, 5e-3, 2e-3, 1e-3] {
            for u in [2, 4, 8] {
                let r = on_path(&a, &IlutOpts::new(k, tau, u), np);
                let what = format!("np={np} tau={tau} u={u}");
                assert!(r.converged, "{what}");
                let th = r.threshold.as_ref().unwrap();
                let dropped = ((r.iterations - 1) as f64 * th.dropped_mass_sq).sqrt();
                let exact = r.exact_error(&a, Parallelism::SEQ);
                assert!(exact <= r.indicator * (1.0 + 1e-9) + dropped, "{what}: {exact:e}");
                assert!(exact < tau * a_norm, "{what}: {exact:e}");
                if r.rank < r.iterations * k {
                    assert!(r.indicator + dropped < tau * a_norm, "{what}: uncertified cut");
                    cut += 1;
                }
            }
        }
    }
    assert!(cut > 0, "no run was cut inside its last block");
}

/// Lines 6 and 7 run over the pivot panel's row support. On a shuffled
/// `tp_sparse`-shaped input at k = 32, on every engine, each
/// iteration's pivot rows are rows where its pivot panel has a stored
/// entry, and the panel `R` diagonal the trace records (TSQR of the
/// support rows alone) is a full-height TSQR's of the same panel. An
/// iteration's complement is read off the snapshot an iteration cap
/// leaves (the first one's is the input in its fill-reducing order);
/// the replicated oracle, which takes no hooks, must pick the sharded
/// engine's pivots and `r_diag` bit for bit.
#[test]
fn row_stages_run_over_the_panel_row_support_on_every_engine() {
    use lra::matgen::{circuit, with_decay_rank};
    let a = common::shuffled(&with_decay_rank(&circuit(2400, 5, 20, 103), 1e-6, 700, 13), 7);
    let (k, iters) = (32, 4);
    let opts = |cap: u64| {
        let budget = match cap {
            0 => Budget::unlimited(),
            _ => Budget::unlimited().with_iteration_cap(cap),
        };
        LuCrtpOpts::new(k, 1e-12).with_max_rank(iters * k).with_budget(budget)
    };
    // `np = 0` sequential, otherwise `np` sharded ranks.
    let run = |opts: &LuCrtpOpts, np: usize, hooks: Option<&RecoveryHooks<'_>>| match np {
        0 => factorize(&a, opts, Exec::Seq, hooks),
        _ => lra::comm::run_infallible(np, |ctx| factorize(&a, opts, Exec::Spmd(ctx), hooks))
            .swap_remove(0),
    };
    let order = lra::ordering::fill_reducing_order(&a);
    for np in [0, 2] {
        let full = run(&opts(0), np, None);
        assert_eq!(full.iterations, iters, "np={np}");
        for i in 0..iters {
            let what = format!("np={np} iteration {}", i + 1);
            // The complement iteration i + 1 pivots on, with its maps.
            let (schur, row_map, col_map) = match i {
                0 => (a.select_columns(&order), (0..a.rows()).collect(), order.clone()),
                _ => {
                    let store = CheckpointStore::in_memory();
                    run(&opts(i as u64), np, Some(&RecoveryHooks::new(&store, 1)));
                    let ck: LuCrtpCheckpoint<'static> = store.load().unwrap().expect("a snapshot");
                    assert_eq!(ck.state.iterations, i, "{what}");
                    let state = ck.state.clone().into_owned();
                    (ck.schur().into_owned(), state.row_map, state.col_map)
                }
            };
            let at = |map: &Vec<usize>, id: usize| map.iter().position(|&x| x == id).unwrap();
            let pivots = i * k..(i + 1) * k;
            let cols: Vec<usize> =
                full.pivot_cols[pivots.clone()].iter().map(|&c| at(&col_map, c)).collect();
            let panel = schur.select_columns(&cols);
            let support = panel.row_support(&(0..k).collect::<Vec<_>>());
            assert!(support.len() < schur.rows(), "{what}: the support is every row");
            for &r in &full.pivot_rows[pivots] {
                let on_support = support.binary_search(&at(&row_map, r)).is_ok();
                assert!(on_support, "{what}: pivot row {r} off the support");
            }
            let f = lra::dense::tsqr(&panel.to_dense(), Parallelism::SEQ);
            let want: Vec<f64> = (0..k).map(|t| f.r.get(t, t).abs()).collect();
            let got = &full.trace[i].r_diag;
            let scale = want.iter().fold(0.0f64, |x, &y| x.max(y));
            assert_eq!(got.len(), k, "{what}");
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= 1e-12 * scale, "{what}: r_diag[{t}] {g} against {w}");
            }
        }
        if np == 2 {
            let oracle = lra::comm::run_infallible(2, |ctx| {
                factorize(&a, &opts(0), Exec::SpmdReplicated(ctx), None)
            })
            .swap_remove(0);
            assert_eq!(oracle.pivot_rows, full.pivot_rows);
            assert_eq!(oracle.pivot_cols, full.pivot_cols);
            for (o, s) in oracle.trace.iter().zip(&full.trace) {
                assert!(common::bits_eq(&o.r_diag, &s.r_diag), "replicated r_diag");
            }
        }
    }
}
