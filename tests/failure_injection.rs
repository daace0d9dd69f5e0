//! Failure-injection and pathological-input tests across the stack:
//! the library must degrade gracefully (error reports, breakdown flags)
//! rather than panic or loop.

use lra::core::{
    factorize_ranks, ilut_crtp, lu_crtp, rand_qb_ei, rand_ubv, Breakdown, CommError, FaultPlan,
    IlutOpts, LuCrtpOpts, Parallelism, QbOpts, RunConfig, UbvOpts, ALL_KERNELS,
};
use lra::sparse::{CooMatrix, CscMatrix};
use std::time::Duration;

mod common;
use common::{assert_fixed_precision, dist};

#[test]
fn qb_on_zero_matrix() {
    let a = CscMatrix::zeros(40, 30);
    let r = rand_qb_ei(&a, &QbOpts::new(8, 1e-2)).unwrap();
    // ||A||_F = 0: the indicator is 0 after the first block.
    assert!(r.converged);
    assert!(r.indicator <= 1e-12);
}

#[test]
fn ubv_on_zero_matrix() {
    let a = CscMatrix::zeros(25, 25);
    let r = rand_ubv(&a, &UbvOpts::new(4, 1e-2));
    assert!(r.converged);
}

#[test]
fn lucrtp_on_identity_terminates_quickly() {
    // Identity has no decay at all: full rank needed for tight tau.
    let a = CscMatrix::identity(64);
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-12));
    assert!(r.converged, "{:?}", r.breakdown);
    assert_eq!(r.rank, 64);
    // The factors of a permuted identity are the identity itself.
    assert_eq!(r.factor_nnz(), 128); // L has 64 unit entries, U has 64
}

#[test]
fn lucrtp_single_column_matrix() {
    let mut coo = CooMatrix::new(10, 1);
    coo.push(3, 0, 2.5);
    coo.push(7, 0, -1.0);
    let a = coo.to_csc();
    let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-10));
    assert!(r.converged);
    assert_eq!(r.rank, 1);
    let exact = r.exact_error(&a, Parallelism::SEQ);
    assert!(exact < 1e-10 * a.fro_norm());
}

#[test]
fn lucrtp_single_row_matrix() {
    let mut coo = CooMatrix::new(1, 12);
    for j in 0..12 {
        coo.push(0, j, (j + 1) as f64);
    }
    let a = coo.to_csc();
    let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-10));
    assert!(r.converged);
    assert_eq!(r.rank, 1);
}

#[test]
fn lucrtp_max_rank_reports_rank_exhausted() {
    let a = lra::matgen::banded(50, 3, 1); // no decay: needs high rank
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-10).with_max_rank(16));
    assert!(!r.converged);
    assert_eq!(r.breakdown, Some(Breakdown::RankExhausted));
    assert_eq!(r.rank, 16);
    // The partial factorization is still usable and consistent.
    let exact = r.exact_error(&a, Parallelism::SEQ);
    assert!((exact - r.indicator).abs() < 1e-9 * r.a_norm_f);
}

#[test]
fn ilut_on_matrix_with_huge_dynamic_range() {
    // Entries spanning 1e-12 .. 1e12: thresholding must respect the
    // scale through |R(1,1)| rather than absolute magnitudes.
    let mut coo = CooMatrix::new(60, 60);
    let mut s = 123u64;
    for j in 0..60 {
        for _ in 0..3 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (s % 60) as usize;
            let mag = 10f64.powf(((s >> 32) % 25) as f64 - 12.0);
            coo.push(i, j, mag);
        }
        coo.push(j, j, 1e12);
    }
    let a = coo.to_csc();
    let lu = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    let il = ilut_crtp(&a, &IlutOpts::new(8, 1e-3, lu.iterations.max(1)));
    if il.converged {
        assert_fixed_precision(&il, &a, 1e-3, "huge dynamic range");
    }
}

#[test]
fn qb_handles_k_larger_than_matrix() {
    let a = lra::matgen::banded(12, 2, 2);
    let r = rand_qb_ei(&a, &QbOpts::new(64, 1e-6)).unwrap();
    assert!(r.converged);
    assert!(r.rank <= 12);
}

#[test]
fn methods_on_rectangular_matrices() {
    // Tall.
    let tall = lra::matgen::spectrum(120, 40, &[5.0, 2.0, 1.0, 0.5, 0.2, 0.1], 8, 5);
    let qb = rand_qb_ei(&tall, &QbOpts::new(4, 1e-6)).unwrap();
    assert!(qb.converged);
    assert!(qb.exact_error(&tall, Parallelism::SEQ) <= 1e-6 * tall.fro_norm());
    let lu = lu_crtp(&tall, &LuCrtpOpts::new(4, 1e-6));
    assert!(lu.converged, "{:?}", lu.breakdown);
    // Wide.
    let wide = lra::matgen::spectrum(40, 120, &[5.0, 2.0, 1.0, 0.5, 0.2, 0.1], 8, 6);
    let lu_w = lu_crtp(&wide, &LuCrtpOpts::new(4, 1e-6));
    assert!(lu_w.converged, "{:?}", lu_w.breakdown);
    assert!(lu_w.exact_error(&wide, Parallelism::SEQ) <= 1e-6 * wide.fro_norm());
}

#[test]
fn duplicate_column_matrix() {
    // Every column identical: rank 1; the tournament must not select
    // "independent" duplicates and the methods must converge at K = 1
    // ... within one block.
    let mut coo = CooMatrix::new(30, 10);
    for j in 0..10 {
        coo.push(2, j, 1.0);
        coo.push(17, j, -0.5);
    }
    let a = coo.to_csc();
    let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-12));
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.rank <= 4);
    assert!(r.exact_error(&a, Parallelism::SEQ) <= 1e-12 * a.fro_norm() + 1e-14);
}

#[test]
fn comm_spmd_with_more_ranks_than_work() {
    let a = lra::matgen::spectrum(20, 15, &[3.0, 1.0], 4, 7);
    let r = dist(&a, &LuCrtpOpts::new(2, 1e-9), 8);
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.rank <= 4);
}

/// Sanity check used by the fault tests below: every recorded kernel
/// duration is finite and accounted for in the total.
fn assert_timers_well_formed(r: &lra::core::LuCrtpResult) {
    let total = r.timers.total();
    let mut sum = Duration::ZERO;
    for k in ALL_KERNELS {
        let d = r.timers.get(k);
        assert!(d <= total, "kernel {} exceeds total", k.label());
        sum += d;
    }
    assert_eq!(sum, total, "per-kernel durations must sum to total");
}

/// A rank chaos-killed during the distributed factorization (its op
/// counter lands inside the column-tournament reductions) must yield
/// an error *report* — victim `Failed`, survivors `PeerFailed`, nobody
/// hung past the watchdog — and any rank that did complete must carry
/// well-formed timers.
#[test]
fn lucrtp_dist_rank_killed_mid_tournament_reports_errors() {
    let a = lra::matgen::spectrum(48, 40, &[5.0, 2.0, 1.0, 0.4, 0.1], 6, 3);
    let np = 4;
    let victim = 2;
    // Op 5 sits inside the first tournament's reduction rounds (the
    // SPMD driver's first collectives): the peers are mid-collective
    // when the victim dies.
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(10))
        .with_faults(FaultPlan::new().kill_rank_at_op(victim, 5));
    let results = factorize_ranks(&a, &LuCrtpOpts::new(4, 1e-8), np, &cfg, None)
        .expect("valid input")
        .results;
    assert_eq!(results.len(), np);
    match results[victim].as_ref().unwrap_err() {
        CommError::Failed { rank, payload } => {
            assert_eq!(*rank, victim);
            assert!(payload.contains("killed at op 5"), "{payload}");
        }
        other => panic!("victim: {other:?}"),
    }
    for (r, res) in results.iter().enumerate() {
        if r == victim {
            continue;
        }
        match res {
            // The common outcome: aborted by the poison broadcast,
            // attributed to the victim.
            Err(e) => {
                assert!(e.is_peer_failure(), "rank {r}: {e:?}");
                assert_eq!(e.origin_rank(), victim, "rank {r}: {e:?}");
            }
            // A rank that raced past its last communication before the
            // poison landed still returns a usable result.
            Ok(out) => assert_timers_well_formed(out),
        }
    }
}

/// Chaos delivery delays perturb the SPMD schedule but must not change
/// the factorization: results and timers stay well-formed and the
/// factorization matches the undelayed run rank-for-rank.
#[test]
fn lucrtp_dist_survives_chaos_delays_with_wellformed_timers() {
    let a = lra::matgen::spectrum(40, 32, &[4.0, 1.5, 0.6, 0.2], 5, 11);
    let opts = LuCrtpOpts::new(4, 1e-8);
    let reference = dist(&a, &opts, 4);
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultPlan::new().delay_deliveries(99, Duration::from_micros(200)));
    let results = factorize_ranks(&a, &opts, 4, &cfg, None).expect("valid input").results;
    for (r, res) in results.iter().enumerate() {
        let out = res.as_ref().unwrap_or_else(|e| panic!("rank {r}: {e}"));
        assert_eq!(out.rank, reference.rank, "rank {r}");
        assert_eq!(out.converged, reference.converged, "rank {r}");
        assert_timers_well_formed(out);
    }
}
