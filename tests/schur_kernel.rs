//! The shared Schur-update kernel (`S <- Ā22 - X Ā12`, sequential,
//! sharded and replicated engines alike) against `split_blocks` and the
//! gather-dot formulation it replaced, bit for bit. Every engine hands
//! the kernel raw columns of `A^(i)` and the split's classification,
//! and the kernel routes each column into its `Ā12`/`Ā22` parts as it
//! reads it: `schur_update_ranged` over columns read through an
//! accessor (a complement read in place, or the raw rest columns a
//! re-shard piece carries), `schur_update_runs` in place over a
//! complement kept as runs (retiring old runs as it writes new ones).
//! Both measure each column as they write it — its squared norm, the
//! squared mass and count of its entries below a drop threshold, and its
//! length — which must equal a recomputation from the column written,
//! with `drop_below` as the reference for the mass and the count.
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
use lra::sparse::{BlockSplit, ColRun, CscMatrix, CscRuns};

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

    /// Rest columns with an empty `Ā12` part: the kernel's pure copies.
    fn pure_copies(&self) -> usize {
        let (_, a12, _, _, _, _) = self.a.split_blocks(&self.pivot_rows, &self.pivot_cols);
        (0..a12.cols()).filter(|&j| a12.col_nnz(j) == 0).count()
    }
}

/// A drop threshold that drops about half the entries of `s`: the
/// median magnitude.
fn half_mu(s: &CscMatrix) -> f64 {
    let mut mags: Vec<f64> = s.values().iter().map(|v| v.abs()).collect();
    mags.sort_unstable_by(f64::total_cmp);
    mags.get(mags.len() / 2).copied().unwrap_or(1.0)
}

/// One column's partials as the kernels record them: `(squared norm,
/// squared mass below thr, count below thr, entries)`.
type Partials = (f64, f64, u64, u64);

/// Each column's partials recomputed from the column: the squared norm
/// summed from `0.0` in row order, the mass and count `drop_below`
/// gives for the column alone, and the column's length.
fn recomputed_partials(s: &CscMatrix, thr: f64) -> Vec<Partials> {
    (0..s.cols())
        .map(|j| {
            let col = s.slice_columns(j..j + 1);
            let norm_sq = col.values().iter().fold(0.0, |acc: f64, v| acc + v * v);
            let (_, mass, count) = col.drop_below(thr);
            (norm_sq, mass, count as u64, col.nnz() as u64)
        })
        .collect()
}

/// The kernel's per-column partials, bit for bit those recomputed from
/// the columns it wrote (`want`, from [`recomputed_partials`]).
fn assert_partials(meas: &[Partials], want: &[Partials], what: &str) {
    assert_eq!(meas.len(), want.len(), "{what}: one partial per column");
    for (j, (got, want)) in meas.iter().zip(want).enumerate() {
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: column {j} norm");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: column {j} mass");
        assert_eq!((got.2, got.3), (want.2, want.3), "{what}: column {j} count, length");
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
    let mut copies = 0;
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
        // `a12_fill` 0: every column is a pure copy.
        for &(nr_of_16, a12_fill) in &[(0, 6), (3, 2), (9, 6), (16, 16), (9, 0)] {
            let c = case(&mut rng, m, n, k, nr_of_16, a12_fill);
            let want = c.want();
            let (_, want_a12, _, _, _, _) = c.a.split_blocks(&c.pivot_rows, &c.pivot_cols);
            copies += c.pure_copies();
            let rest = &c.split.rest_cols;
            for thr in [0.0, half_mu(&want)] {
                // Recomputed from the output, which must equal `want`.
                let want_meas = recomputed_partials(&want, thr);
                // The sharded engine's input: re-shard pieces of raw rest
                // columns, each updated as it arrives and appended (the
                // next test reads a complement in place). Every cut into
                // two pieces, the worker counts taking turns, then a
                // random cut into up to four pieces at every count.
                let mut runs: Vec<(usize, Vec<usize>)> =
                    (0..=n).map(|h| (1 + h % 4, vec![0, h, n])).collect();
                runs.extend((1..=4).map(|np| (np, cuts(&mut rng, n, 4))));
                for (np, at) in runs {
                    let par = Parallelism::new(np);
                    let mut ws = SchurWorkspace::new();
                    let mut got = CscMatrix::zeros(m, 0);
                    let mut top = ColRun::default();
                    let mut meas = Vec::new();
                    for piece in at.windows(2) {
                        let part = c.a.select_columns(&rest[piece[0]..piece[1]]);
                        let col = |j| part.col(j);
                        schur_update_ranged(
                            col,
                            0..part.cols(),
                            &c.split,
                            &c.x_rows,
                            &c.x,
                            thr,
                            &mut ws,
                            par,
                            &mut got,
                            &mut top,
                            &mut meas,
                        );
                    }
                    let nr = c.x_rows.len();
                    let what = format!(
                        "{m}x{n} k={k} nr={nr} np={np} thr={thr} pivots {:?} pieces {at:?}",
                        c.pivot_cols
                    );
                    assert_bitwise(&got, &want, &what);
                    assert_bitwise(&top.into_csc(k), &want_a12, &format!("{what}: Ā12"));
                    assert_partials(&meas, &want_meas, &what);
                }
            }
        }
    }
    assert!(copies > 0, "no pure-copy column was covered");
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
            let (mut top, mut meas) = (ColRun::default(), Vec::new());
            for range in [0..h, h..n] {
                let (split, xr, x, out) = (&c.split, &c.x_rows, &c.x, &mut s);
                schur_update_ranged(col, range, split, xr, x, 0.0, &mut ws, par, out, &mut top, &mut meas);
            }
            let what = format!("{m}x{n} k={k} np={np} cut {h} on a reused workspace");
            assert_bitwise(&s, &want, &what);
            assert_partials(&meas, &recomputed_partials(&s, 0.0), &what);
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
    for np in 1..=4 {
        let par = Parallelism::new(np);
        let mut rng = SplitMix64(0x2A0 + np as u64);
        let mut ws = SchurWorkspace::new();
        for &(m, n, k) in &shapes {
            // About one case in three routes no `Ā12` entry: all pure
            // copies.
            let a12_fill = [6, 2, 0][rng.below(3)];
            let c = case(&mut rng, m - k, n - k, k, 11, a12_fill);
            let want = c.want();
            for thr in [0.0, half_mu(&want)] {
                let mut runs = CscRuns::from_csc(&c.a, g);
                let mut meas = Vec::new();
                let (split, xr, x) = (&c.split, &c.x_rows, &c.x);
                schur_update_runs(&mut runs, split, xr, x, thr, &mut ws, par, &mut meas);
                assert_eq!(runs.width(), g);
                let what = format!("{m}x{n} k={k} np={np} thr={thr} pivots {:?}", c.pivot_cols);
                let got = runs.to_csc();
                assert_bitwise(&got, &want, &what);
                assert_partials(&meas, &recomputed_partials(&got, thr), &what);
            }
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
