//! Shared fixtures for the integration test suite: the preset matrices,
//! option bundles, metric readers and oracle assertions that were
//! previously copy-pasted across the test files. Each test binary
//! compiles this module independently and uses a subset.
#![allow(dead_code)]

use lra::core::{factorize_ranks, IlutOpts, LuCrtpResult, Method, Parallelism, RunConfig};
use lra::obs::MetricValue;
use lra::sparse::{CooMatrix, CscMatrix};

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

/// `P_r A P_c`, both permutations drawn from `seed`.
pub fn shuffled(a: &CscMatrix, seed: u64) -> CscMatrix {
    let mut rng = SplitMix64(seed);
    let mut perm = |n: usize| {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.below(i + 1));
        }
        p
    };
    let (rows, cols) = (perm(a.rows()), perm(a.cols()));
    a.permute_rows(&rows).select_columns(&cols)
}

/// A `rows x cols` matrix with `per_col` random entries per column
/// (repeats summed).
pub fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
    let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut coo = CooMatrix::new(rows, cols);
    for j in 0..cols {
        for _ in 0..per_col {
            let r = (next() % rows as u64) as usize;
            let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            coo.push(r, j, v);
        }
    }
    coo.to_csc()
}

/// `method` on `np` sharded ranks under the default [`RunConfig`], any
/// rank failure fatal: rank 0's result, the one that carries `L` and
/// `U` (every other rank returns the same result with empty factors).
pub fn dist<'m>(a: &CscMatrix, method: impl Into<Method<'m>>, np: usize) -> LuCrtpResult {
    factorize_ranks(a, method, np, &RunConfig::default(), None)
        .expect("valid input")
        .unwrap_all()
        .swap_remove(0)
}

/// The SPMD result contract over one run's per-rank results: every
/// field but the factors is replicated, compared here bit for bit
/// against rank 0's, and only rank 0 carries `L`/`U` (every other
/// rank's are empty).
pub fn assert_factors_on_rank0_only(results: &[LuCrtpResult], what: &str) {
    let replicated = |r: &LuCrtpResult| {
        let trace: Vec<_> = r
            .trace
            .iter()
            .map(|t| (t.iteration, t.rank, t.indicator.to_bits(), t.schur_nnz, t.r_diag.len()))
            .collect();
        (
            (r.rank, r.iterations, r.converged, r.breakdown),
            (r.pivot_rows.clone(), r.pivot_cols.clone()),
            (r.indicator.to_bits(), r.a_norm_f.to_bits(), r.r11.to_bits()),
            (trace, r.threshold.clone(), r.mem, r.trip.clone()),
        )
    };
    let root = replicated(&results[0]);
    assert_eq!(results[0].l.cols(), results[0].rank, "{what}: rank 0 holds L");
    assert_eq!(results[0].u.rows(), results[0].rank, "{what}: rank 0 holds U");
    for (rank, r) in results.iter().enumerate().skip(1) {
        assert_eq!(replicated(r), root, "{what}: rank {rank} disagrees with rank 0");
        let shapes = (r.l.nnz(), r.l.cols(), r.u.nnz(), r.u.rows());
        assert_eq!(shapes, (0, 0, 0, 0), "{what}: rank {rank} holds factors");
    }
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
