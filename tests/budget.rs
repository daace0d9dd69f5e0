//! Budget and cancellation acceptance for the interruptible drivers.
//!
//! The property at the heart of the tentpole: a budget trip is not a
//! failure but a *graceful degradation point*. For any trip iteration
//! the partial result must carry exactly the indicator the clean run
//! had at that iteration (so the achieved tolerance is what the
//! early-stop theory promises), the achieved tolerance must be
//! monotone non-increasing in the trip point, and resuming the trip
//! checkpoint with an unlimited budget must reproduce the
//! uninterrupted run bitwise. Deterministic companions pin each trip
//! kind — external token, wall-clock deadline, memory ceiling,
//! iteration cap — across every driver family, plus the SPMD
//! agreement invariant (all ranks observe the same merged verdict).

use std::time::Instant;

use lra::core::{
    factorize, ilut_crtp, rand_qb_ei, rand_qb_ei_checkpointed, rand_ubv, Budget, BudgetTrip,
    CancelToken, CheckpointStore, Exec, Outcome, QbOpts, RecoveryHooks, UbvOpts,
};
use proptest::prelude::*;

mod common;
use common::{assert_factors_on_rank0_only, bits_eq, fault_ilut_opts, fault_matrix};

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Satellite 3: sweep every trip point of an ILUT_CRTP run. Each
    /// cap must yield a typed `IterationCap` trip whose indicator is
    /// bit-identical to the clean trace at that iteration, achieved
    /// tolerances must not increase with later trip points, and the
    /// resumed run must match the uninterrupted one bitwise.
    #[test]
    fn any_trip_point_degrades_gracefully_and_resumes_bitwise(seed in 1..24u64) {
        let a = fault_matrix(seed);
        let opts = fault_ilut_opts();
        let clean = ilut_crtp(&a, &opts);
        prop_assert!(clean.converged && clean.iterations >= 2);

        let mut prev_tol = f64::INFINITY;
        for cap in 0..=clean.iterations as u64 {
            let store = CheckpointStore::in_memory();
            let hooks = RecoveryHooks::new(&store, 1);
            let budgeted = opts
                .clone()
                .with_budget(Budget::unlimited().with_iteration_cap(cap));
            let partial = factorize(&a, &budgeted, Exec::Seq, Some(&hooks));

            if cap >= clean.iterations as u64 {
                // The cap never fires: the budgeted run is the clean run.
                prop_assert!(partial.trip.is_none(), "cap at clean count must not trip");
                prop_assert!(bits_eq(partial.l.values(), clean.l.values()));
                prop_assert!(bits_eq(partial.u.values(), clean.u.values()));
                continue;
            }

            prop_assert_eq!(
                partial.trip.as_ref(),
                Some(&BudgetTrip::IterationCap { iterations: cap, cap })
            );
            prop_assert_eq!(partial.iterations, cap as usize);
            prop_assert!(!partial.converged);

            // The partial indicator is exactly the clean run's trace
            // value at the trip iteration — the achieved tolerance is
            // what the indicator promised, not an approximation of it.
            let expected = if cap == 0 {
                clean.a_norm_f
            } else {
                clean.trace[cap as usize - 1].indicator
            };
            prop_assert_eq!(partial.indicator.to_bits(), expected.to_bits());
            for (t, c) in partial.trace.iter().zip(clean.trace.iter()) {
                prop_assert_eq!(t.indicator.to_bits(), c.indicator.to_bits());
            }

            // Graceful degradation: a later trip point never loses
            // accuracy relative to an earlier one.
            let tol = partial.achieved_tolerance();
            prop_assert!(
                tol <= prev_tol,
                "achieved tolerance must not increase with the trip point: \
                 {} at cap-1 then {} at cap {}",
                prev_tol,
                tol,
                cap
            );
            prev_tol = tol;

            // The typed outcome folds the same facts.
            match partial.clone().into_outcome() {
                Outcome::Interrupted(i) => {
                    prop_assert_eq!(i.trip, BudgetTrip::IterationCap { iterations: cap, cap });
                    prop_assert_eq!(i.achieved_tolerance.to_bits(), tol.to_bits());
                    prop_assert_eq!(
                        i.resume.map(|h| (h.kind, h.iteration)),
                        (cap > 0).then_some(("lu_crtp", cap as usize))
                    );
                }
                Outcome::Completed(_) => prop_assert!(false, "trip must fold to Interrupted"),
            }

            // Resume with the unlimited budget: bitwise the clean run.
            let resumed = factorize(&a, &opts, Exec::Seq, Some(&hooks));
            prop_assert!(resumed.converged);
            prop_assert_eq!(resumed.iterations, clean.iterations);
            prop_assert_eq!(resumed.rank, clean.rank);
            prop_assert_eq!(&resumed.pivot_rows, &clean.pivot_rows);
            prop_assert_eq!(&resumed.pivot_cols, &clean.pivot_cols);
            prop_assert_eq!(resumed.indicator.to_bits(), clean.indicator.to_bits());
            prop_assert!(
                bits_eq(resumed.l.values(), clean.l.values()),
                "resume-from-cancel must reproduce L bitwise at cap {}",
                cap
            );
            prop_assert!(
                bits_eq(resumed.u.values(), clean.u.values()),
                "resume-from-cancel must reproduce U bitwise at cap {}",
                cap
            );
        }
    }
}

/// An already-cancelled token stops every driver family at iteration 0
/// with the typed `Cancelled` trip and an achieved tolerance of 1
/// (nothing eliminated yet, indicator == ||A||_F).
#[test]
fn cancelled_token_trips_every_driver_immediately() {
    let a = fault_matrix(5);
    let token = CancelToken::new();
    token.cancel();

    let ilut = ilut_crtp(
        &a,
        &fault_ilut_opts().with_budget(Budget::unlimited().with_cancel(token.clone())),
    );
    assert_eq!(ilut.trip, Some(BudgetTrip::Cancelled));
    assert_eq!(ilut.iterations, 0);
    assert!(!ilut.converged);
    assert_eq!(ilut.indicator.to_bits(), ilut.a_norm_f.to_bits());
    assert_eq!(ilut.achieved_tolerance(), 1.0);
    match ilut.into_outcome() {
        Outcome::Interrupted(i) => {
            assert_eq!(i.trip, BudgetTrip::Cancelled);
            assert!(i.resume.is_none(), "no iteration ran, so nothing to resume");
        }
        Outcome::Completed(_) => panic!("cancelled run must fold to Interrupted"),
    }

    let qb = rand_qb_ei(
        &a,
        &QbOpts::new(6, 1e-3).with_budget(Budget::unlimited().with_cancel(token.clone())),
    )
    .expect("cancellation is a result, not an error");
    assert_eq!(qb.trip, Some(BudgetTrip::Cancelled));
    assert_eq!(qb.iterations, 0);
    assert_eq!(qb.indicator.to_bits(), qb.a_norm_f.to_bits());

    let ubv = rand_ubv(
        &a,
        &UbvOpts::new(6, 1e-3).with_budget(Budget::unlimited().with_cancel(token)),
    );
    assert_eq!(ubv.trip, Some(BudgetTrip::Cancelled));
    assert_eq!(ubv.iterations, 0);
    assert_eq!(ubv.indicator.to_bits(), ubv.a_norm_f.to_bits());
}

/// A deadline that has already passed trips at the first boundary
/// check with the typed `DeadlineExceeded` trip, never `Cancelled`.
#[test]
fn zero_deadline_trips_at_the_first_boundary() {
    let a = fault_matrix(6);
    let opts = fault_ilut_opts().with_budget(Budget::unlimited().with_deadline(Instant::now()));
    let r = ilut_crtp(&a, &opts);
    assert!(
        matches!(r.trip, Some(BudgetTrip::DeadlineExceeded { .. })),
        "expected a deadline trip, got {:?}",
        r.trip
    );
    assert_eq!(r.iterations, 0);
}

/// A one-byte memory ceiling trips immediately and reports the
/// observed resident footprint that broke it.
#[test]
fn memory_ceiling_trip_reports_observed_bytes() {
    let a = fault_matrix(7);
    let opts = fault_ilut_opts().with_budget(Budget::unlimited().with_memory_ceiling(1));
    let r = ilut_crtp(&a, &opts);
    match r.trip {
        Some(BudgetTrip::MemoryCeiling { observed_bytes, ceiling_bytes }) => {
            assert_eq!(ceiling_bytes, 1);
            assert!(observed_bytes > 1, "a nonzero matrix is resident");
        }
        other => panic!("expected a memory trip, got {other:?}"),
    }
    assert_eq!(r.iterations, 0);
}

/// The SPMD agreement invariant: every rank of a budgeted group
/// observes the same merged trip at the same iteration — the verdict
/// is allreduced like poison, never decided locally.
#[test]
fn spmd_ranks_agree_on_the_merged_trip() {
    let a = fault_matrix(8);
    let opts = fault_ilut_opts().with_budget(Budget::unlimited().with_deadline(Instant::now()));
    for np in [2usize, 4] {
        let results =
            lra::comm::run_infallible(np, |ctx| factorize(&a, &opts, Exec::Spmd(ctx), None));
        let first = &results[0];
        assert!(
            matches!(first.trip, Some(BudgetTrip::DeadlineExceeded { .. })),
            "np={np}: expected a deadline trip, got {:?}",
            first.trip
        );
        // The verdict is a replicated field: every rank carries rank 0's
        // trip and iteration count; the partial factors are rank 0's.
        assert_factors_on_rank0_only(&results, &format!("np={np}"));
    }
}

/// RandQB_EI under an iteration cap: typed trip, indicator bitwise
/// equal to the clean history at the trip iteration, monotone
/// indicator history (guaranteed by construction, eq. 4), and a
/// bitwise-identical resume from the forced checkpoint.
#[test]
fn qb_iteration_cap_trips_and_resumes_bitwise() {
    let a = fault_matrix(10);
    let opts = QbOpts::new(6, 1e-3);
    let clean = rand_qb_ei(&a, &opts).expect("clean run");
    assert!(clean.converged && clean.iterations >= 2, "matrix too easy to sweep");

    for cap in 0..=clean.iterations as u64 {
        let store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&store, 1);
        let budgeted = opts
            .clone()
            .with_budget(Budget::unlimited().with_iteration_cap(cap));
        let partial = rand_qb_ei_checkpointed(&a, &budgeted, Some(&hooks)).expect("budgeted run");

        if cap >= clean.iterations as u64 {
            assert!(partial.trip.is_none());
            assert!(bits_eq(partial.q.as_slice(), clean.q.as_slice()));
            assert!(bits_eq(partial.b.as_slice(), clean.b.as_slice()));
            continue;
        }

        assert_eq!(partial.trip, Some(BudgetTrip::IterationCap { iterations: cap, cap }));
        assert_eq!(partial.iterations, cap as usize);
        let expected = if cap == 0 {
            clean.a_norm_f
        } else {
            clean.indicator_history[cap as usize - 1]
        };
        assert_eq!(partial.indicator.to_bits(), expected.to_bits());
        assert!(
            partial.indicator_history.windows(2).all(|w| w[1] <= w[0]),
            "QB indicator is monotone non-increasing by construction"
        );
        match partial.clone().into_outcome() {
            Outcome::Interrupted(i) => {
                assert_eq!(
                    i.resume.map(|h| (h.kind, h.iteration)),
                    (cap > 0).then_some(("rand_qb_ei", cap as usize))
                );
            }
            Outcome::Completed(_) => panic!("trip must fold to Interrupted"),
        }

        let resumed = rand_qb_ei_checkpointed(&a, &opts, Some(&hooks)).expect("resume");
        assert!(resumed.trip.is_none() && resumed.converged);
        assert_eq!(resumed.iterations, clean.iterations);
        assert_eq!(resumed.indicator.to_bits(), clean.indicator.to_bits());
        assert!(
            bits_eq(resumed.q.as_slice(), clean.q.as_slice()),
            "resume from cap {cap} must reproduce Q bitwise"
        );
        assert!(
            bits_eq(resumed.b.as_slice(), clean.b.as_slice()),
            "resume from cap {cap} must reproduce B bitwise"
        );
    }
}

/// RandUBV under an iteration cap: typed trip and a clean-prefix
/// indicator, but no resume handle — UBV has no checkpoint layer, so
/// the outcome says so instead of promising a resume that can't work.
#[test]
fn ubv_iteration_cap_trips_without_resume_handle() {
    let a = fault_matrix(11);
    let opts = UbvOpts::new(6, 1e-3);
    let clean = rand_ubv(&a, &opts);
    assert!(clean.iterations >= 2, "matrix too easy to sweep");

    let budgeted = opts.with_budget(Budget::unlimited().with_iteration_cap(1));
    let partial = rand_ubv(&a, &budgeted);
    assert_eq!(partial.trip, Some(BudgetTrip::IterationCap { iterations: 1, cap: 1 }));
    assert_eq!(partial.iterations, 1);
    assert_eq!(
        partial.indicator.to_bits(),
        clean.indicator_history[0].to_bits(),
        "the partial indicator is the clean run's value at the trip iteration"
    );
    match partial.into_outcome() {
        Outcome::Interrupted(i) => {
            assert!(i.resume.is_none(), "UBV has no checkpoint layer");
            assert_eq!(
                i.achieved_tolerance.to_bits(),
                (i.partial.indicator / i.partial.a_norm_f).to_bits()
            );
        }
        Outcome::Completed(_) => panic!("trip must fold to Interrupted"),
    }
}
