//! Rank-revealing quality tests for tournament pivoting across many
//! seeds: the selected columns' smallest singular value must stay
//! within a bounded factor of the best achievable (the `q(m, n, k)`
//! polynomial bound of Grigori et al., eq. 16 of the paper, is loose;
//! in practice the ratio is modest, which is what these tests pin).

use lra::dense::{matmul, singular_values, DenseMatrix};
use lra::par::Parallelism;
use lra::qrtp::{tournament_columns, TournamentTree};
use lra::sparse::CscMatrix;

fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

/// sigma_min of the selected k columns, relative to the k-th singular
/// value of the whole matrix (the unbeatable reference).
fn selection_quality(a: &DenseMatrix, selected: &[usize]) -> f64 {
    let k = selected.len();
    let picked = a.select_columns(selected);
    let sv_sel = singular_values(&picked);
    let sv_all = singular_values(a);
    sv_sel[k - 1] / sv_all[k - 1].max(f64::MIN_POSITIVE)
}

#[test]
fn quality_bounded_over_many_seeds() {
    let k = 6;
    let mut worst = f64::INFINITY;
    for seed in 0..20u64 {
        // Low-rank-plus-noise: hard case for column selection.
        let base = rand_dense(80, k, seed * 3 + 1);
        let mix = rand_dense(k, 58, seed * 3 + 2);
        let mut a = matmul(&base, &mix, Parallelism::SEQ);
        let noise = rand_dense(80, 58, seed * 3 + 3);
        a.axpy(0.01, &noise);
        let sp = CscMatrix::from_dense(&a);
        let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
        let q = selection_quality(&a, &sel.selected);
        worst = worst.min(q);
        assert!(q > 0.02, "seed {seed}: quality {q} collapsed");
    }
    // Across all seeds the typical quality is far better than the
    // worst-case exponential bound suggests.
    assert!(worst > 0.02, "worst quality {worst}");
}

#[test]
fn graded_spectrum_selection() {
    // Columns scaled by a geometric sequence: the tournament must pick
    // (mostly) the heavy columns.
    for seed in [1u64, 5, 9] {
        let n = 64;
        let mut a = rand_dense(90, n, seed);
        for j in 0..n {
            let w = 0.8f64.powi(j as i32);
            for x in a.col_mut(j) {
                *x *= w;
            }
        }
        let sp = CscMatrix::from_dense(&a);
        let k = 8;
        let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
        // All winners among the heaviest 3k columns.
        assert!(
            sel.selected.iter().all(|&c| c < 3 * k),
            "picked light columns: {:?}",
            sel.selected
        );
    }
}

#[test]
fn r_diag_tracks_singular_values_loosely() {
    // The rank-revealing property: |R_ii| of the winners approximates
    // sigma_i of A within modest factors (cf. eq. 16 / Table of
    // Grigori et al.).
    let a = rand_dense(100, 60, 42);
    let sp = CscMatrix::from_dense(&a);
    let k = 10;
    let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
    let sv = singular_values(&a);
    for (i, &rd) in sel.r_diag.iter().enumerate() {
        let ratio = rd.abs() / sv[i];
        assert!(
            ratio > 0.05 && ratio < 2.0,
            "R({i},{i}) = {rd} vs sigma_{i} = {} (ratio {ratio})",
            sv[i]
        );
    }
}
