//! The shared Schur-update kernel (`S <- Ā22 - X Ā12`, sequential,
//! sharded and replicated engines alike) against `split_blocks` and the
//! gather-dot formulation it replaced, bit for bit. Every engine hands
//! the kernel raw columns of `A^(i)` and the split's classification,
//! and the kernel routes each column into its `Ā12`/`Ā22` parts as it
//! reads it: `schur_update_ranged` over columns read through an
//! accessor (a complement read in place, or the raw rest columns a
//! re-shard piece carries), `schur_update_runs` in place over a
//! complement kept as runs (retiring old runs as it writes new ones).
//!
//! The reference below forms every correction entry as one dot chain
//! `acc = 0; acc += a12[t, j] * x[q, t]` over the stored entries of the
//! `Ā12` column in ascending `t`, into fresh arrays. The crate's kernel
//! runs the same chains as contiguous axpys over the columns of `X`,
//! and in parallel assembles the result from per-chunk buffers a
//! workspace keeps between calls; neither may move a bit, whatever the
//! worker count, however the columns are cut into calls, and whatever
//! the workspace held before.

use lra::core::{schur_update_ranged, schur_update_runs, Parallelism, SchurWorkspace, SCHUR_GRAIN};
use lra::dense::DenseMatrix;
use lra::sparse::{BlockSplit, CscMatrix, CscRuns};

mod common;
use common::{bits_eq, rand_sparse, SplitMix64};

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

/// A `rows x cols` CSC matrix keeping position `(r, _)` with chance
/// `fill(r)`/16, stored zeros included, some columns left empty.
fn sparse(rng: &mut SplitMix64, rows: usize, cols: usize, fill: impl Fn(usize) -> usize) -> CscMatrix {
    let mut colptr = vec![0];
    let mut rowidx = Vec::new();
    let mut values = Vec::new();
    for _ in 0..cols {
        if rng.below(5) > 0 {
            for r in 0..rows {
                if rng.below(16) < fill(r) {
                    rowidx.push(r);
                    values.push(value(rng));
                }
            }
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::from_parts(rows, cols, colptr, rowidx, values)
}

/// One update's operands: `A^(i)`, split at `k` pivot columns (leading,
/// trailing or scattered) and `k` scattered pivot rows, and `X` over
/// about `nr_of_16`/16 of the trailing rows.
struct Case {
    a: CscMatrix,
    pivot_rows: Vec<usize>,
    pivot_cols: Vec<usize>,
    split: BlockSplit,
    x_rows: Vec<usize>,
    x: DenseMatrix,
}

impl Case {
    /// `split_blocks`, then the gather-dot reference.
    fn want(&self) -> CscMatrix {
        let (_, a12, _, a22, _, _) = self.a.split_blocks(&self.pivot_rows, &self.pivot_cols);
        schur_reference(&a22, &self.x_rows, &self.x, &a12)
    }
}

/// An `A^(i)` with `m` trailing rows, `n` rest columns and `k` pivots.
/// Pivot rows keep an entry with chance `a12_fill`/16 (that is `Ā12`),
/// the others 5/16.
fn case(rng: &mut SplitMix64, m: usize, n: usize, k: usize, nr_of_16: usize, a12_fill: usize) -> Case {
    let pivot_cols = match rng.below(3) {
        0 => (0..k).collect(),
        1 => (n..n + k).rev().collect(),
        _ => pivots(rng, n + k, k),
    };
    let pivot_rows = pivots(rng, m + k, k);
    let mut fill = vec![5; m + k];
    for &r in &pivot_rows {
        fill[r] = a12_fill;
    }
    let a = sparse(rng, m + k, n + k, |r| fill[r]);
    let x_rows: Vec<usize> = (0..m).filter(|_| rng.below(16) < nr_of_16).collect();
    let x = DenseMatrix::from_fn(x_rows.len(), k, |_, _| value(rng));
    // Make some updates cancel exactly: give a trailing entry the
    // correction's own value now and then (`probe` holds `-corr`
    // wherever that is nonzero).
    let (_, a12, _, _, rest_rows, rest_cols) = a.split_blocks(&pivot_rows, &pivot_cols);
    let probe = schur_reference(&CscMatrix::zeros(m, n), &x_rows, &x, &a12);
    let (_, _, colptr, rowidx, mut values) = a.into_parts();
    for (j, &c) in rest_cols.iter().enumerate() {
        for p in colptr[c]..colptr[c + 1] {
            if let Ok(i) = rest_rows.binary_search(&rowidx[p]) {
                if rng.below(4) == 0 {
                    values[p] = -probe.get(i, j);
                }
            }
        }
    }
    Case {
        a: CscMatrix::from_parts(m + k, n + k, colptr, rowidx, values),
        split: BlockSplit::new(m + k, n + k, &pivot_rows, &pivot_cols),
        pivot_rows,
        pivot_cols,
        x_rows,
        x,
    }
}

fn assert_bitwise(got: &CscMatrix, want: &CscMatrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    assert_eq!(got.colptr(), want.colptr(), "{what}: colptr");
    assert_eq!(got.rowidx(), want.rowidx(), "{what}: rowidx");
    assert!(bits_eq(got.values(), want.values()), "{what}: value bits");
}

/// Ascending cut points of `0..n`, from 0 to `n`, at most `pieces`
/// pieces, some of them empty.
fn cuts(rng: &mut SplitMix64, n: usize, pieces: usize) -> Vec<usize> {
    let mut at: Vec<usize> = (1..pieces).map(|_| rng.below(n + 1)).collect();
    at.push(0);
    at.push(n);
    at.sort_unstable();
    at
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
            let want = c.want();
            let rest = &c.split.rest_cols;
            for np in 1..=3 {
                let par = Parallelism::new(np);
                let mut ws = SchurWorkspace::new();
                // The sharded engine's input: re-shard pieces of raw rest
                // columns, each updated as it arrives and appended (the
                // next test reads a complement in place).
                let at = cuts(&mut rng, n, 4);
                let mut got = CscMatrix::zeros(m, 0);
                for piece in at.windows(2) {
                    let part = c.a.select_columns(&rest[piece[0]..piece[1]]);
                    let col = |j| part.col(j);
                    let all = 0..part.cols();
                    schur_update_ranged(col, all, &c.split, &c.x_rows, &c.x, &mut ws, par, &mut got);
                }
                let nr = c.x_rows.len();
                let what = format!("{m}x{n} k={k} nr={nr} np={np} pivots {:?} pieces {at:?}", c.pivot_cols);
                assert_bitwise(&got, &want, &what);
            }
        }
    }
}

#[test]
fn a_reused_workspace_and_target_never_leak_an_earlier_call() {
    // Shrinking, then growing: every buffer the workspace and the
    // target hold is at some point larger than the call needs, and the
    // column count crosses the one-chunk boundary both ways. The target
    // is the last result's arrays, emptied, as the sharded engine
    // writes its new shard into the retired one's; each update comes
    // in two calls, the second appending to the first.
    let sizes = [(80, 130, 16), (50, 70, 7), (33, 33, 4), (12, 5, 2), (6, 0, 1), (40, 64, 9), (95, 150, 32)];
    for np in 1..=3 {
        let par = Parallelism::new(np);
        let mut rng = SplitMix64(77);
        let mut ws = SchurWorkspace::new();
        let mut s = CscMatrix::zeros(0, 0);
        for &(m, n, k) in &sizes {
            let c = case(&mut rng, m, n, k, 10, 8);
            let want = c.want();
            let rest = &c.split.rest_cols;
            let (_, _, mut colptr, mut rowidx, mut values) = s.into_parts();
            colptr.truncate(1);
            rowidx.clear();
            values.clear();
            s = CscMatrix::from_parts(m, 0, colptr, rowidx, values);
            let h = cuts(&mut rng, n, 2)[1];
            let col = |j: usize| c.a.col(rest[j]);
            for range in [0..h, h..n] {
                schur_update_ranged(col, range, &c.split, &c.x_rows, &c.x, &mut ws, par, &mut s);
            }
            let what = format!("{m}x{n} k={k} np={np} cut {h} on a reused workspace");
            assert_bitwise(&s, &want, &what);
        }
    }
}

/// `k` distinct positions out of `0..n`, in random (pivot) order.
fn pivots(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

#[test]
fn in_place_update_over_runs_matches_split_then_update() {
    // Pivots at the front, the back and scattered; rest columns that
    // fill whole runs, a ragged last run, or none at all; one workspace
    // reused through every shape so stale slots and pooled runs are in
    // play.
    let g = SCHUR_GRAIN;
    let shapes = [
        (40, 2 * g + 7, 5),
        (70, 3 * g, 16),
        (20, g + 1, 1),
        (33, 9, 9),
        (90, 4 * g + 16, 32),
        (12, 12, 12),
        (50, 2 * g, 3),
    ];
    for np in 1..=3 {
        let par = Parallelism::new(np);
        let mut rng = SplitMix64(0x2A0 + np as u64);
        let mut ws = SchurWorkspace::new();
        for &(m, n, k) in &shapes {
            let c = case(&mut rng, m - k, n - k, k, 11, 6);
            let mut runs = CscRuns::from_csc(&c.a, g);
            schur_update_runs(&mut runs, &c.split, &c.x_rows, &c.x, &mut ws, par);
            assert_eq!(runs.width(), g);
            let what = format!("{m}x{n} k={k} np={np} pivots {:?}", c.pivot_cols);
            assert_bitwise(&runs.to_csc(), &c.want(), &what);
        }
    }
}

#[test]
fn split_blocks_partitions_every_entry() {
    let a = rand_sparse(30, 25, 4, 9);
    let pivot_rows: Vec<usize> = vec![3, 17, 8, 22];
    let pivot_cols: Vec<usize> = vec![10, 0, 24, 5];
    let (a11, a12, a21, a22, rest_rows, rest_cols) = a.split_blocks(&pivot_rows, &pivot_cols);
    let nnz_a11 = lra_sparse::CscMatrix::from_dense(&a11).nnz();
    assert_eq!(
        nnz_a11 + a12.nnz() + a21.nnz() + a22.nnz(),
        a.nnz(),
        "entries lost or duplicated"
    );
    assert_eq!(rest_rows.len(), 26);
    assert_eq!(rest_cols.len(), 21);
    // Spot-check value mapping: a22[(i, j)] == a[rest_rows[i], rest_cols[j]].
    for i in (0..26).step_by(7) {
        for j in (0..21).step_by(5) {
            assert_eq!(a22.get(i, j), a.get(rest_rows[i], rest_cols[j]));
        }
    }
}
