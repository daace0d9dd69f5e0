//! Shared fixtures for the integration test suite: the preset matrices,
//! option bundles, metric readers and oracle assertions that were
//! previously copy-pasted across the test files. Each test binary
//! compiles this module independently and uses a subset.
#![allow(dead_code)]

use lra::core::{factorize_ranks, IlutOpts, LuCrtpResult, Method, Parallelism, RunConfig};
use lra::obs::MetricValue;
use lra::sparse::CscMatrix;

/// Documented multiplicative accuracy of the built-in error estimators
/// vs the SVD ground truth. Empirically the estimators track the true
/// error to a few percent (they are exact identities up to
/// dropped/rounded mass); 10x leaves headroom for unlucky sketches
/// without ever accepting an estimator that is off by an order of
/// magnitude and a half.
pub const ORACLE_FACTOR: f64 = 10.0;

/// Absolute slack on relative-error oracle comparisons: the indicators
/// downdate `||A||_F^2` in double precision, so below ~1e-7 relative
/// they are noise (`QB_INDICATOR_FLOOR` guards the stopping rule the
/// same way).
pub const ORACLE_ABS_SLACK: f64 = 1e-6;

/// Current value of a global counter metric (0 when unset).
pub fn counter(name: &str) -> u64 {
    match lra::obs::metrics::global().get(name) {
        Some(MetricValue::Counter(c)) => c,
        _ => 0,
    }
}

/// Bit-for-bit equality of two f64 slices.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64: a test's own stream, so a generated case is named by
/// its seed alone.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `method` on `np` sharded ranks under the default [`RunConfig`], any
/// rank failure fatal: rank 0's result (every rank returns the same).
pub fn dist<'m>(a: &CscMatrix, method: impl Into<Method<'m>>, np: usize) -> LuCrtpResult {
    factorize_ranks(a, method, np, &RunConfig::default(), None)
        .expect("valid input")
        .unwrap_all()
        .swap_remove(0)
}

/// The small fill-bearing FEM matrix the recovery and fault-explorer
/// tests interrupt: enough iterations at `k = 4` to kill a rank
/// mid-factorization, small enough for exhaustive site enumeration.
pub fn fault_matrix(seed: u64) -> CscMatrix {
    lra::matgen::with_decay(&lra::matgen::fem2d(8, 6, seed), 1e-6, 3)
}

/// The option bundle paired with [`fault_matrix`] throughout the
/// recovery tests.
pub fn fault_ilut_opts() -> IlutOpts {
    IlutOpts::new(4, 1e-3, 8)
}

/// Small preset matrices (dense SVD affordable in a debug test run),
/// spanning the generator families with nontrivial spectral decay.
pub fn oracle_matrices() -> Vec<(&'static str, CscMatrix)> {
    vec![
        (
            "fem2d-100",
            lra::matgen::with_decay(&lra::matgen::fem2d(10, 10, 7), 1e-6, 7),
        ),
        (
            "circuit-120",
            lra::matgen::with_decay(&lra::matgen::circuit(120, 3, 2, 11), 1e-6, 11),
        ),
        (
            "economic-90",
            lra::matgen::with_decay(&lra::matgen::economic(90, 5, 13), 1e-6, 13),
        ),
    ]
}

/// `sqrt(sum_{i>=k} s_i^2) / ||A||_F` — the Eckart–Young optimum.
pub fn svd_tail_rel(s: &[f64], k: usize, a_norm_f: f64) -> f64 {
    let tail: f64 = s.iter().skip(k).map(|x| x * x).sum();
    tail.sqrt() / a_norm_f
}

/// Shared oracle assertions for one `(estimate, truth)` pair: the truth
/// never beats the SVD optimum, and the estimate brackets the truth
/// within [`ORACLE_FACTOR`] both ways.
pub fn assert_oracle(name: &str, algo: &str, tau: f64, rank: usize, est: f64, truth: f64, opt: f64) {
    assert!(
        truth >= opt * (1.0 - 1e-9) - 1e-12,
        "{algo} on {name} (tau={tau:.0e}): true error {truth:.3e} beats the \
         SVD optimum {opt:.3e} at rank {rank} — exact_error or SVD is wrong"
    );
    assert!(
        est <= ORACLE_FACTOR * truth + ORACLE_ABS_SLACK,
        "{algo} on {name} (tau={tau:.0e}): estimate {est:.3e} overshoots \
         {ORACLE_FACTOR}x true error {truth:.3e}"
    );
    assert!(
        est + ORACLE_ABS_SLACK >= truth / ORACLE_FACTOR,
        "{algo} on {name} (tau={tau:.0e}): estimate {est:.3e} undershoots \
         true error {truth:.3e} by more than {ORACLE_FACTOR}x — the stopping \
         rule would accept an approximation {ORACLE_FACTOR}x worse than reported"
    );
}

/// Assert the fixed-precision guarantee on an (I)LU_CRTP result:
/// `||A - L_K U_K||_F <= tau ||A||_F + dropped`, where `dropped` is the
/// thresholding's bounded perturbation (zero for exact LU_CRTP).
pub fn assert_fixed_precision(r: &LuCrtpResult, a: &CscMatrix, tau: f64, ctx: &str) {
    let dropped = r
        .threshold
        .as_ref()
        .map(|t| t.dropped_mass_sq.sqrt())
        .unwrap_or(0.0);
    let exact = r.exact_error(a, Parallelism::SEQ);
    assert!(
        exact <= (tau * r.a_norm_f + dropped) * 1.000001,
        "{ctx}: fixed-precision bound violated: exact {exact:e} vs \
         tau*||A||_F {:e} + dropped {dropped:e}",
        tau * r.a_norm_f
    );
}
