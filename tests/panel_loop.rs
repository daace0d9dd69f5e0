//! The one LU_CRTP / ILUT_CRTP panel loop, seen through every engine.
//!
//! `lra-core` runs a single block iteration over three engines —
//! shared-memory, rank-owned shards, replicated storage. The engines
//! are not bitwise interchangeable (their tournaments merge in
//! different orders), but everything the loop itself decides must come
//! out the same whichever engine stores the Schur complement: why a run
//! stopped, and what a trace entry means.

use lra::core::{
    factorize, factorize_ranks, Breakdown, Budget, CheckpointStore, CommError, Exec, FaultPlan,
    IlutOpts, InvalidInput, LuCrtpCheckpoint, LuCrtpOpts, LuCrtpResult, Method, Parallelism,
    RecoveryHooks, RunConfig,
};
use lra::dense::DenseMatrix;
use lra::sparse::CscMatrix;

mod common;
use common::dist;

/// The thresholding-active matrix of `tests/spmd_sharded.rs`.
fn fill_heavy() -> CscMatrix {
    lra::matgen::with_decay(&lra::matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

/// `IterTrace::schur_nnz` is the Schur complement as the next
/// iteration sees it — after the ILUT drop — on every path. The
/// checkpoint of a non-final iteration holds exactly that matrix, so
/// it must agree with the last trace entry. (The SPMD loops used to
/// push the trace before thresholding.)
#[test]
fn ilut_trace_is_post_threshold_on_every_path() {
    let a = fill_heavy();
    // Stop after three iterations so the newest snapshot is a
    // non-final iteration's, taken after its drop.
    let opts = IlutOpts::new(8, 1e-2, 4).with_budget(Budget::unlimited().with_iteration_cap(3));
    let check = |path: &str, store: &CheckpointStore| {
        let ck: LuCrtpCheckpoint = store.load().unwrap().expect("a snapshot was taken");
        assert_eq!(ck.iterations, 3, "{path}");
        assert!(ck.ilut.as_ref().unwrap().dropped > 0, "{path}: expected drops");
        let last = ck.trace.last().unwrap();
        assert_eq!(last.iteration, 3, "{path}");
        assert_eq!(ck.s.nnz(), last.schur_nnz, "{path}: schur_nnz is pre-threshold");
        assert_eq!(
            ck.s.density().to_bits(),
            last.schur_density.to_bits(),
            "{path}: schur_density is pre-threshold"
        );
    };

    let store = CheckpointStore::in_memory();
    factorize(&a, &opts, Exec::Seq, Some(&RecoveryHooks::new(&store, 1)));
    check("sequential", &store);

    for np in [1usize, 2] {
        let store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&store, 1);
        lra::comm::run_infallible(np, |ctx| factorize(&a, &opts, Exec::Spmd(ctx), Some(&hooks)));
        check(&format!("sharded np={np}"), &store);
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
/// fixed-precision bound.
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
        for (path, r) in every_path(&a, &opts) {
            assert_eq!(classify(&r), want, "{case}: {path}");
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
    }
}

/// The checked entry point answers a bad method or matrix with the
/// matching [`InvalidInput`] before any rank is spawned — for ILUT too,
/// whose `u_estimate` / `phi_factor` arms had no checked caller — and
/// the replicated oracle refuses checkpoint hooks instead of dropping
/// them.
#[test]
fn bad_input_is_typed_before_any_rank_runs_and_the_oracle_refuses_hooks() {
    let good = lra::matgen::spectrum(16, 12, &[2.0, 1.0, 0.5], 4, 7);
    let empty = CscMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
    let nan = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
    let lu = LuCrtpOpts::new(4, 1e-3);
    let ilut = IlutOpts::new(4, 1e-3, 4);
    let (mut bad_tau, mut bad_u, mut bad_phi) = (ilut.clone(), ilut.clone(), ilut.clone());
    bad_tau.base.tau = -1.0;
    bad_u.u_estimate = 0;
    bad_phi.phi_factor = f64::NAN;
    type Check = fn(&InvalidInput) -> bool;
    let table: [(&str, &CscMatrix, Method<'_>, Check); 6] = [
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
    let results = lra::comm::run(1, |ctx| {
        factorize(&good, &lu, Exec::SpmdReplicated(ctx), Some(&hooks))
    });
    match &results[0] {
        Err(CommError::Failed { payload, .. }) => assert!(
            payload.contains("Exec::SpmdReplicated is the bitwise oracle for Exec::Spmd"),
            "{payload}"
        ),
        other => panic!("hooks on the replicated oracle must panic, got {other:?}"),
    }
    assert_eq!(store.saves(), 0);
}
