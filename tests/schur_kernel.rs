//! The shared Schur-update kernel (`S <- Ā22 - X Ā12`, sequential,
//! sharded and replicated engines alike) against the gather-dot
//! formulation it replaced, bit for bit.
//!
//! The reference below forms every correction entry as one dot chain
//! `acc = 0; acc += a12[t, j] * x[q, t]` over the stored entries of the
//! `Ā12` column in ascending `t`, into fresh arrays. The crate's kernel
//! runs the same chains as contiguous axpys over the columns of `X`,
//! and in parallel assembles the result from per-chunk buffers a
//! workspace keeps between calls; neither may move a bit, whatever the
//! worker count and whatever the workspace held before.

use lra::core::{schur_update_into, Parallelism, SchurWorkspace, SCHUR_GRAIN};
use lra::dense::DenseMatrix;
use lra::sparse::CscMatrix;

mod common;
use common::{bits_eq, SplitMix64};

fn schur_reference(
    a22: &CscMatrix,
    x_rows: &[usize],
    x: &DenseMatrix,
    a12: &CscMatrix,
) -> CscMatrix {
    let nr = x_rows.len();
    let mut colptr = vec![0];
    let mut rows_out = Vec::new();
    let mut vals_out = Vec::new();
    for j in 0..a22.cols() {
        let (ti, tv) = a12.col(j);
        let (ai, av) = a22.col(j);
        if ti.is_empty() {
            rows_out.extend_from_slice(ai);
            vals_out.extend_from_slice(av);
            colptr.push(rows_out.len());
            continue;
        }
        let corr: Vec<f64> = (0..nr)
            .map(|q| {
                let mut acc = 0.0;
                for (&t, &v) in ti.iter().zip(tv) {
                    acc += v * x.get(q, t);
                }
                acc
            })
            .collect();
        let (mut p, mut q) = (0, 0);
        while p < ai.len() || q < nr {
            if q >= nr || (p < ai.len() && ai[p] < x_rows[q]) {
                rows_out.push(ai[p]);
                vals_out.push(av[p]);
                p += 1;
            } else if p >= ai.len() || x_rows[q] < ai[p] {
                let v = -corr[q];
                if v != 0.0 {
                    rows_out.push(x_rows[q]);
                    vals_out.push(v);
                }
                q += 1;
            } else {
                let v = av[p] - corr[q];
                if v != 0.0 {
                    rows_out.push(ai[p]);
                    vals_out.push(v);
                }
                p += 1;
                q += 1;
            }
        }
        colptr.push(rows_out.len());
    }
    CscMatrix::from_parts(a22.rows(), a22.cols(), colptr, rows_out, vals_out)
}

/// A value in (-2, 2), or a stored zero of either sign now and then.
fn value(rng: &mut SplitMix64) -> f64 {
    match rng.below(12) {
        0 => 0.0,
        1 => -0.0,
        _ => (rng.next() >> 11) as f64 / (1u64 << 51) as f64 - 2.0,
    }
}

/// A `rows x cols` CSC matrix keeping each position with chance
/// `fill`/16, stored zeros included, some columns left empty.
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

/// One update's operands: `m` trailing rows, `n` columns, panel width
/// `k`, about `nr_of_16`/16 of the rows touched by `X`.
struct Case {
    a22: CscMatrix,
    x_rows: Vec<usize>,
    x: DenseMatrix,
    a12: CscMatrix,
}

fn case(rng: &mut SplitMix64, m: usize, n: usize, k: usize, nr_of_16: usize, a12_fill: usize) -> Case {
    let x_rows: Vec<usize> = (0..m).filter(|_| rng.below(16) < nr_of_16).collect();
    let x = DenseMatrix::from_fn(x_rows.len(), k, |_, _| value(rng));
    let a12 = sparse(rng, k, n, a12_fill);
    // Make some updates cancel exactly: give an `a22` entry the
    // correction's own value now and then (`probe` holds `-corr`
    // wherever that is nonzero).
    let probe = schur_reference(&CscMatrix::zeros(m, n), &x_rows, &x, &a12);
    let (_, _, colptr, rowidx, mut values) = sparse(rng, m, n, 5).into_parts();
    for j in 0..n {
        for p in colptr[j]..colptr[j + 1] {
            if rng.below(4) == 0 {
                values[p] = -probe.get(rowidx[p], j);
            }
        }
    }
    let a22 = CscMatrix::from_parts(m, n, colptr, rowidx, values);
    Case {
        a22,
        x_rows,
        x,
        a12,
    }
}

fn assert_bitwise(got: &CscMatrix, want: &CscMatrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    assert_eq!(got.colptr(), want.colptr(), "{what}: colptr");
    assert_eq!(got.rowidx(), want.rowidx(), "{what}: rowidx");
    assert!(bits_eq(got.values(), want.values()), "{what}: value bits");
}

#[test]
fn kernel_matches_the_gather_dot_reference_bit_for_bit() {
    let mut rng = SplitMix64(0x5C4);
    // Column counts on both sides of one and of several chunks.
    let g = SCHUR_GRAIN;
    let shapes = [
        (1, 1, 1),
        (9, 1, 4),
        (30, g - 1, 1),
        (41, g, 3),
        (57, g + 1, 8),
        (64, 2 * g + 6, 5),
        (90, 3 * g + 1, 32),
    ];
    for &(m, n, k) in &shapes {
        for &(nr_of_16, a12_fill) in &[(0, 6), (3, 2), (9, 6), (16, 16)] {
            let c = case(&mut rng, m, n, k, nr_of_16, a12_fill);
            let want = schur_reference(&c.a22, &c.x_rows, &c.x, &c.a12);
            for np in 1..=3 {
                let mut ws = SchurWorkspace::new();
                let mut got = CscMatrix::zeros(0, 0);
                let par = Parallelism::new(np);
                schur_update_into(&c.a22, &c.x_rows, &c.x, &c.a12, &mut ws, par, &mut got);
                let what = format!("{m}x{n} k={k} nr={} np={np}", c.x_rows.len());
                assert_bitwise(&got, &want, &what);
            }
        }
    }
}

#[test]
fn a_reused_workspace_and_target_never_leak_an_earlier_call() {
    // Shrinking, then growing: every buffer the workspace and the
    // target hold is at some point larger than the call needs, and the
    // column count crosses the one-chunk boundary both ways.
    let sizes = [(80, 130, 16), (50, 70, 7), (33, 33, 4), (12, 5, 2), (6, 0, 1), (40, 64, 9), (95, 150, 32)];
    for np in 1..=3 {
        let par = Parallelism::new(np);
        let mut rng = SplitMix64(77);
        let mut ws = SchurWorkspace::new();
        let mut s = CscMatrix::zeros(0, 0);
        for &(m, n, k) in &sizes {
            let c = case(&mut rng, m, n, k, 10, 8);
            let want = schur_reference(&c.a22, &c.x_rows, &c.x, &c.a12);
            schur_update_into(&c.a22, &c.x_rows, &c.x, &c.a12, &mut ws, par, &mut s);
            assert_bitwise(&s, &want, &format!("{m}x{n} k={k} np={np} on a reused workspace"));
        }
    }
}
