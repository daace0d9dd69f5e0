//! Rank-revealing property tests: LU_CRTP's panel R diagonals
//! effectively approximate the singular values of `A` (the Section III
//! premise behind ILUT_CRTP's convergence argument), and RandQB_EI's
//! indicator history and row identity yield the approximated minimum
//! rank of Figs. 2-3 at column resolution.

use lra::core::{lu_crtp, rand_qb_ei, LuCrtpOpts, QbOpts, QbResult};
use lra::dense::{min_rank_for_tolerance, singular_values, DenseMatrix};

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

/// `||A - Q_l B_l||_F` of the first `l` columns of `Q` and rows of `B`.
fn prefix_error(a: &lra::sparse::CscMatrix, q: &DenseMatrix, b: &DenseMatrix, l: usize) -> f64 {
    let mut r = a.to_dense();
    for t in 0..l {
        for j in 0..r.cols() {
            let bt = b.get(t, j);
            for (ri, &qi) in r.col_mut(j).iter_mut().zip(q.col(t)) {
                *ri -= qi * bt;
            }
        }
    }
    r.fro_norm()
}

#[test]
fn qb_min_rank_for_matches_tsvd_reference() {
    let a = lra::matgen::with_decay(&lra::matgen::economic(300, 6, 45), 1e-6, 46);
    let sv = singular_values(&a.to_dense());
    let k = 8;
    let tight = rand_qb_ei(&a, &QbOpts::new(k, 1e-3).with_power(2)).unwrap();
    // The rank after the first block whose indicator is below `tau`.
    let block_answer = |r: &QbResult, tau: f64, cap: usize| {
        let i = r.indicator_history.iter().position(|&e| e < tau * r.a_norm_f).unwrap();
        ((i + 1) * k).min(cap)
    };
    for tau in [1e-1, 1e-2] {
        let exact = min_rank_for_tolerance(&sv, tau);
        let approx = tight.min_rank_for(tau).expect("tight run reached tau");
        assert!(approx >= exact, "approx cannot beat the TSVD bound");
        assert!(approx <= block_answer(&tight, tau, tight.rank), "tau={tau}: {approx}");
        assert!(
            approx <= exact + 2 * k,
            "tau={tau}: approx {approx} vs exact {exact}"
        );
        // Column resolution: the prefix meets tau, one row fewer does not.
        let stop = tau * tight.a_norm_f;
        assert!(prefix_error(&a, &tight.q, &tight.b, approx) < stop, "tau={tau}");
        assert!(prefix_error(&a, &tight.q, &tight.b, approx - 1) >= stop, "tau={tau}");
    }
    // The run's own tolerance reads the returned rank.
    assert_eq!(tight.min_rank_for(1e-3), Some(tight.rank));
    // A tolerance the run never reached.
    assert_eq!(tight.min_rank_for(1e-9), None);

    // A rank cap that cuts the last block: blocks of 8 + 8 + 4 columns.
    // The indicator first falls below 0.5 ||A||_F after the first
    // block, and the rank read off it is that block's last row, 8;
    // just below the first block's indicator it is the second block's
    // first row, 9. Blocks of the average width 20 / 3 would read 7
    // and 14.
    let capped = rand_qb_ei(&a, &QbOpts::new(k, 1e-6).with_power(2).with_max_rank(20)).unwrap();
    assert_eq!((capped.rank, capped.iterations), (20, 3));
    let first = capped.indicator_history[0] / capped.a_norm_f;
    assert!(first < 0.5, "the first block reads {first} ||A||_F");
    for (tau, want) in [(0.5, k), (first * 0.999, k + 1)] {
        let got = capped.min_rank_for(tau).unwrap();
        assert_eq!(got, want, "tau={tau}");
        assert!(got >= min_rank_for_tolerance(&sv, tau));
        let stop = tau * capped.a_norm_f;
        assert!(prefix_error(&a, &capped.q, &capped.b, got) < stop, "tau={tau}");
        assert!(prefix_error(&a, &capped.q, &capped.b, got - 1) >= stop, "tau={tau}");
    }
}

/// A converged RandQB_EI run returns the smallest prefix of its last
/// block that the row identity certifies: its factors meet `tau`, one
/// row fewer does not, and its indicator is their exact error.
#[test]
fn qb_returns_the_smallest_certified_prefix() {
    let a = lra::matgen::with_decay(&lra::matgen::economic(300, 6, 45), 1e-6, 46);
    let k = 8;
    let mut cut = 0;
    for p in 0..=2 {
        for tau in [1e-1, 3e-2, 1e-2, 3e-3, 1e-3] {
            let r = rand_qb_ei(&a, &QbOpts::new(k, tau).with_power(p)).unwrap();
            let what = format!("p={p} tau={tau}");
            assert!(r.converged, "{what}");
            assert_eq!((r.q.cols(), r.b.rows()), (r.rank, r.rank), "{what}");
            let stop = tau * r.a_norm_f;
            let exact = prefix_error(&a, &r.q, &r.b, r.rank);
            assert!(exact < stop, "{what}: {exact:e} against {stop:e}");
            assert!(prefix_error(&a, &r.q, &r.b, r.rank - 1) >= stop, "{what}");
            assert!((r.indicator - exact).abs() <= 1e-6 * stop, "{what}: indicator");
            if r.rank < r.iterations * k {
                cut += 1;
                // A finer tolerance that the last block still meets
                // reads a rank off the rows the stop cut: the rank a
                // run to it returns, whose factors meet it.
                let block = r.indicator_history.last().unwrap() / r.a_norm_f;
                let finer = (block + tau) / 2.0;
                let got = r.min_rank_for(finer).expect("the last block meets it");
                let rerun = rand_qb_ei(&a, &QbOpts::new(k, finer).with_power(p)).unwrap();
                assert_eq!(got, rerun.rank, "{what}: finer {finer:e}");
                assert!(got >= r.rank, "{what}: finer {finer:e}");
                let exact = prefix_error(&a, &rerun.q, &rerun.b, got);
                assert!(exact < finer * r.a_norm_f, "{what}: finer {finer:e}");
            }
        }
    }
    assert!(cut > 0, "no run was cut inside its last block");
}
