//! The one LU_CRTP / ILUT_CRTP panel loop, seen through every engine.
//!
//! `lra-core` runs a single block iteration over three engines —
//! shared-memory, rank-owned shards, replicated storage. The engines
//! are not bitwise interchangeable (their tournaments merge in
//! different orders), but everything the loop itself decides must come
//! out the same whichever engine stores the Schur complement: why a run
//! stopped, and what a trace entry means.

use lra::core::{
    ilut_crtp, ilut_crtp_checkpointed, ilut_crtp_dist, ilut_crtp_spmd_checkpointed,
    ilut_crtp_spmd_replicated, lu_crtp, lu_crtp_dist, lu_crtp_spmd_replicated, Breakdown, Budget,
    CheckpointStore, IlutOpts, LuCrtpCheckpoint, LuCrtpOpts, LuCrtpResult, Parallelism,
    RecoveryHooks,
};
use lra::sparse::CscMatrix;

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
    ilut_crtp_checkpointed(&a, &opts, Some(&RecoveryHooks::new(&store, 1))).unwrap();
    check("sequential", &store);

    for np in [1usize, 2] {
        let store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&store, 1);
        lra::comm::run_infallible(np, |ctx| {
            ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks)).unwrap()
        });
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
    let mut out = vec![
        ("lu seq".to_string(), lu_crtp(a, opts)),
        ("ilut seq".to_string(), ilut_crtp(a, &ilut)),
    ];
    for np in [1usize, 3] {
        out.push((format!("lu sharded np={np}"), lu_crtp_dist(a, opts, np)));
        out.push((format!("ilut sharded np={np}"), ilut_crtp_dist(a, &ilut, np)));
    }
    let mut rs = lra::comm::run_infallible(2, |ctx| {
        (
            lu_crtp_spmd_replicated(ctx, a, opts),
            ilut_crtp_spmd_replicated(ctx, a, &ilut),
        )
    });
    let (lu, il) = rs.swap_remove(0);
    out.push(("lu replicated np=2".to_string(), lu));
    out.push(("ilut replicated np=2".to_string(), il));
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
