//! The run storage of the shared-memory engine's Schur complement
//! (`CscRuns`) against the `CscMatrix` its runs concatenate to: the
//! same columns, the same tournament inputs bit for bit, the same kept
//! entries after a drop, and an exact round trip — on random
//! matrices and on adversarial ones (empty columns and rows, stored
//! zeros of both signs, one-column runs, runs wider than the matrix,
//! a ragged last run).

use lra::core::Parallelism;
use lra::qrtp::{tournament_columns, ColumnSource, TournamentTree};
use lra::sparse::{CscMatrix, CscRuns};

mod common;
use common::{bits_eq, SplitMix64};

/// A value in (-2, 2), a tiny one, or a stored zero of either sign.
fn value(rng: &mut SplitMix64) -> f64 {
    match rng.below(10) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-9 * (rng.below(100) as f64 + 1.0),
        _ => (rng.next() >> 11) as f64 / (1u64 << 51) as f64 - 2.0,
    }
}

/// `rows x cols`, each position kept with chance `fill`/16, a fifth of
/// the columns left empty.
fn sparse(rng: &mut SplitMix64, rows: usize, cols: usize, fill: usize) -> CscMatrix {
    let mut colptr = vec![0];
    let mut rowidx = Vec::new();
    let mut values = Vec::new();
    for _ in 0..cols {
        if rng.below(5) > 0 {
            for r in 0..rows {
                if rng.below(16) < fill {
                    rowidx.push(r);
                    values.push(value(rng));
                }
            }
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::from_parts(rows, cols, colptr, rowidx, values)
}

fn matrices() -> Vec<(String, CscMatrix)> {
    let mut rng = SplitMix64(0xC5C);
    let mut out = vec![
        ("empty".to_string(), CscMatrix::zeros(7, 0)),
        ("no rows".to_string(), CscMatrix::zeros(0, 9)),
        ("all zero".to_string(), CscMatrix::zeros(40, 70)),
        ("identity".to_string(), CscMatrix::identity(65)),
        ("one row".to_string(), sparse(&mut rng, 1, 50, 12)),
        ("one column".to_string(), sparse(&mut rng, 90, 1, 12)),
    ];
    for (rows, cols, fill) in [(30, 33, 3), (64, 100, 8), (200, 129, 1), (17, 64, 16)] {
        out.push((format!("{rows}x{cols}/{fill}"), sparse(&mut rng, rows, cols, fill)));
    }
    out
}

const WIDTHS: [usize; 5] = [1, 3, 32, 64, 1000];

fn assert_dense_bitwise(got: &lra::dense::DenseMatrix, want: &lra::dense::DenseMatrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    assert!(bits_eq(got.as_slice(), want.as_slice()), "{what}: bits");
}

#[test]
fn runs_round_trip_to_csc_exactly() {
    for (name, a) in matrices() {
        for width in WIDTHS {
            let r = CscRuns::from_csc(&a, width);
            let back = r.to_csc();
            assert_eq!(back, a, "{name} width {width}");
            assert!(bits_eq(back.values(), a.values()), "{name} width {width}: bits");
            assert_eq!((r.rows(), r.cols(), r.nnz()), (a.rows(), a.cols(), a.nnz()));
            assert!(r.resident_bytes() >= a.nnz() as u64 * 16);
            let perm: Vec<usize> = (0..a.cols()).rev().step_by(2).collect();
            let sel = CscRuns::select_columns(&a, &perm, width);
            assert_eq!(sel.to_csc(), a.select_columns(&perm), "{name} width {width}: select");
        }
    }
}

#[test]
fn runs_are_the_same_column_source_as_the_matrix() {
    let mut rng = SplitMix64(0x50C);
    for (name, a) in matrices() {
        if a.cols() == 0 {
            continue;
        }
        for width in WIDTHS {
            let r = CscRuns::from_csc(&a, width);
            assert_eq!(ColumnSource::cols(&r), ColumnSource::cols(&a));
            for trial in 0..6 {
                // Candidate columns across run boundaries, repeats included.
                let idx: Vec<usize> = (0..1 + rng.below(40)).map(|_| rng.below(a.cols())).collect();
                let what = format!("{name} width {width} trial {trial}");
                let support = ColumnSource::row_support(&a, &idx);
                assert_eq!(ColumnSource::row_support(&r, &idx), support, "{what}: support");
                let rows: Vec<usize> = match trial % 3 {
                    0 => support,
                    1 => (0..a.rows()).collect(),
                    _ => support.iter().copied().filter(|_| rng.below(2) == 0).collect(),
                };
                assert_dense_bitwise(&r.gather_rows(&idx, &rows), &a.gather_rows(&idx, &rows), &what);
            }
            if a.rows() > 0 {
                for np in [1, 2] {
                    let par = Parallelism::new(np);
                    let k = 4.min(a.rows());
                    let on_runs = tournament_columns(&r, None, k, TournamentTree::Binary, par);
                    let on_csc = tournament_columns(&a, None, k, TournamentTree::Binary, par);
                    assert_eq!(on_runs.selected, on_csc.selected, "{name} width {width} np {np}");
                    assert!(bits_eq(&on_runs.r_diag, &on_csc.r_diag), "{name} width {width} np {np}");
                }
            }
        }
    }
}

/// The capped support count a sketched tournament node picks its path
/// by is the support's length counted no further than one row past the
/// cap, on every column source: `capped > cap` exactly when
/// `row_support(idx).len() > cap`, for every cap from 0 to the length
/// plus one.
#[test]
fn capped_support_count_decides_like_the_support_list() {
    let mut rng = SplitMix64(0xCA9);
    let check = |src: &dyn ColumnSource, idx: &[usize], what: &str| {
        let len = src.row_support(idx).len();
        for cap in 0..=len + 1 {
            let capped = src.row_support_len_capped(idx, cap);
            assert_eq!(capped, len.min(cap + 1), "{what} cap {cap}");
            assert_eq!(capped > cap, len > cap, "{what} cap {cap}");
        }
    };
    for (name, a) in matrices() {
        if a.cols() == 0 {
            continue;
        }
        let dense = a.to_dense();
        for trial in 0..6 {
            // Candidate columns across run boundaries, repeats included.
            let idx: Vec<usize> = (0..1 + rng.below(40)).map(|_| rng.below(a.cols())).collect();
            let what = format!("{name} trial {trial}");
            check(&a, &idx, &format!("{what} csc"));
            check(&dense, &idx, &format!("{what} dense"));
            for width in WIDTHS {
                check(&CscRuns::from_csc(&a, width), &idx, &format!("{what} runs width {width}"));
            }
        }
    }
}

#[test]
fn runs_measure_and_drop_like_the_matrix() {
    for (name, a) in matrices() {
        for thr in [0.0, 1e-8, 0.5, f64::INFINITY] {
            let (kept, _, _) = a.drop_below(thr);
            for width in WIDTHS {
                let what = format!("{name} width {width} thr {thr}");
                let mut r = CscRuns::from_csc(&a, width);
                r.drop_below_in_place(thr, Parallelism::new(2));
                let got = r.to_csc();
                assert_eq!(got, kept, "{what}: kept");
                assert!(bits_eq(got.values(), kept.values()), "{what}: kept bits");
            }
        }
    }
}
