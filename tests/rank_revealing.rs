//! Rank-revealing property tests: LU_CRTP's panel R diagonals
//! effectively approximate the singular values of `A` (the Section III
//! premise behind ILUT_CRTP's convergence argument), and RandQB_EI's
//! indicator history yields the approximated minimum rank of Figs. 2-3.

use lra::core::{lu_crtp, rand_qb_ei, LuCrtpOpts, QbOpts};
use lra::dense::{min_rank_for_tolerance, singular_values};

#[test]
fn lucrtp_r_diag_tracks_singular_values() {
    // Known spectrum via the generator; LU_CRTP's estimates must track
    // it within modest ratios ("on average close to one").
    let sigmas: Vec<f64> = (0..24).map(|i| 2f64.powf(-(i as f64) / 2.0)).collect();
    let a = lra::matgen::spectrum(200, 160, &sigmas, 10, 41);
    let sv = singular_values(&a.to_dense());
    let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-6));
    let est = r.singular_value_estimates();
    assert!(est.len() >= 12, "need enough estimates, got {}", est.len());
    let mut log_ratio_sum = 0.0;
    let mut count = 0;
    for (j, &e) in est.iter().take(16).enumerate() {
        let ratio = e / sv[j];
        assert!(
            ratio > 0.05 && ratio < 5.0,
            "estimate {j}: {e} vs sigma {} (ratio {ratio})",
            sv[j]
        );
        log_ratio_sum += ratio.ln().abs();
        count += 1;
    }
    // Geometric-mean deviation well under 2x.
    assert!((log_ratio_sum / count as f64).exp() < 2.0);
}

#[test]
fn lucrtp_estimates_are_roughly_decreasing() {
    let a = lra::matgen::with_decay(&lra::matgen::circuit(200, 4, 3, 43), 1e-6, 44);
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-4));
    let est = r.singular_value_estimates();
    // Monotone up to tournament noise: allow small local inversions.
    for w in est.windows(2) {
        assert!(w[1] <= w[0] * 3.0, "gross inversion: {w:?}");
    }
    assert!(est.first().unwrap() > est.last().unwrap());
}

#[test]
fn qb_min_rank_for_matches_tsvd_reference() {
    let a = lra::matgen::with_decay(&lra::matgen::economic(300, 6, 45), 1e-6, 46);
    let sv = singular_values(&a.to_dense());
    let k = 8;
    let tight = rand_qb_ei(&a, &QbOpts::new(k, 1e-3).with_power(2)).unwrap();
    for tau in [1e-1, 1e-2] {
        let exact = min_rank_for_tolerance(&sv, tau);
        let approx = tight.min_rank_for(tau).expect("tight run reached tau");
        assert!(approx >= exact, "approx cannot beat the TSVD bound");
        assert!(
            approx <= exact + 2 * k,
            "tau={tau}: approx {approx} vs exact {exact}"
        );
    }
    // A tolerance the run never reached.
    assert_eq!(tight.min_rank_for(1e-9), None);
}
