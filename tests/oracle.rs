//! Oracle tests: the algorithms' built-in error estimators against a
//! dense SVD ground truth.
//!
//! The paper's whole accuracy-vs-cost argument rests on the cheap
//! estimators being trustworthy: RandQB_EI stops on the `E^2`
//! indicator (eq. 4), ILUT_CRTP on `||A~^(i+1)||_F` (eq. 26). Here we
//! compute, on small preset matrices where a dense SVD is affordable,
//!
//! - the *optimal* rank-K relative error `sqrt(sum_{i>=K} s_i^2)/||A||_F`
//!   from the singular values (the Eckart–Young lower bound),
//! - the *true* relative error `||A - H_K W_K||_F / ||A||_F` of the
//!   computed factors,
//! - the algorithm's own *estimate*,
//!
//! and assert the estimate is within `ORACLE_FACTOR` of the truth
//! (plus `ORACLE_ABS_SLACK` absorbing the double-precision floor of
//! the downdating indicators), and that the truth never beats the SVD
//! bound. Swept for `tau` in `{1e-2, 1e-4}`, the paper's extreme
//! tolerance grid endpoints usable above the indicator floor.

use lra::core::{ilut_crtp, lu_crtp, rand_qb_ei, IlutOpts, LuCrtpOpts, Parallelism, QbOpts};
use lra::dense::singular_values;

mod common;
use common::{assert_oracle, oracle_matrices, svd_tail_rel};

#[test]
fn qb_indicator_tracks_svd_truth() {
    for (name, a) in oracle_matrices() {
        let s = singular_values(&a.to_dense());
        let a_norm_f = a.fro_norm();
        for tau in [1e-2, 1e-4] {
            let r = rand_qb_ei(&a, &QbOpts::new(8, tau)).unwrap();
            assert!(r.converged, "rand_qb_ei on {name} (tau={tau:.0e})");
            let est = r.indicator / a_norm_f;
            let truth = r.exact_error(&a, Parallelism::SEQ) / a_norm_f;
            let opt = svd_tail_rel(&s, r.rank, a_norm_f);
            assert!(est <= tau * (1.0 + 1e-9), "converged above tau");
            assert_oracle(name, "rand_qb_ei", tau, r.rank, est, truth, opt);
        }
    }
}

#[test]
fn ilut_indicator_tracks_svd_truth() {
    for (name, a) in oracle_matrices() {
        let s = singular_values(&a.to_dense());
        let a_norm_f = a.fro_norm();
        for tau in [1e-2, 1e-4] {
            // Iteration estimate from LU_CRTP, as the paper prescribes
            // for the eq. 22 threshold budget.
            let lu = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
            let r = ilut_crtp(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)));
            assert!(r.converged, "ilut_crtp on {name} (tau={tau:.0e})");
            let est = r.indicator / a_norm_f;
            let truth = r.exact_error(&a, Parallelism::SEQ) / a_norm_f;
            let opt = svd_tail_rel(&s, r.rank, a_norm_f);
            assert!(est <= tau * (1.0 + 1e-9), "converged above tau");
            assert_oracle(name, "ilut_crtp", tau, r.rank, est, truth, opt);
        }
    }
}
