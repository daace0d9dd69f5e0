//! Sparse kernels: sparse x dense products (the `El::Multiply`
//! substitute powering RandQB_EI sketches) and general SpGEMM
//! (Gustavson), which materializes the fill-in of LU_CRTP's Schur
//! complement updates.

use crate::{ColRun, CscMatrix};
use lra_dense::DenseMatrix;
use lra_par::{parallel_chunks_mut, parallel_for, parallel_map_fold, Parallelism};

/// `C = A * D` for sparse `A` (m x n) and dense `D` (n x k).
///
/// Parallel over output columns: each is an independent
/// scatter-accumulate over the columns of `A`, cost `O(nnz(A))` per
/// output column.
pub fn spmm_dense(a: &CscMatrix, d: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), d.rows(), "spmm_dense: dimension mismatch");
    let m = a.rows();
    let k = d.cols();
    let mut c = DenseMatrix::zeros(m, k);
    // One output column per chunk.
    parallel_chunks_mut(par, c.as_mut_slice(), m, |j, cj| {
        for (col, &w) in d.col(j).iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (ri, vs) = a.col(col);
            for (&r, &v) in ri.iter().zip(vs) {
                cj[r] += v * w;
            }
        }
    });
    c
}

/// `C = A^T * D` for sparse `A` (m x n) and dense `D` (m x k); result is
/// `n x k`. Parallel over the columns of `A` (rows of the result are
/// independent sparse dot products).
pub fn spmm_t_dense(a: &CscMatrix, d: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.rows(), d.rows(), "spmm_t_dense: dimension mismatch");
    let n = a.cols();
    let k = d.cols();
    let mut c = DenseMatrix::zeros(n, k);
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, 32, |range| {
        for col in range {
            let (ri, vs) = a.col(col);
            for j in 0..k {
                let dj = d.col(j);
                let mut dot = 0.0;
                for (&r, &v) in ri.iter().zip(vs) {
                    dot += v * dj[r];
                }
                // SAFETY: `c` is column-major `n x k`, so `j * n + col`
                // with `col < n` and `j < k` is in bounds, and it is
                // row `col` of `C`: written only by the task that owns
                // `col`, and `parallel_for` hands each index of `0..n`
                // to exactly one task. Nothing reads `c` until the
                // region has joined.
                unsafe { *(c_ptr as *mut f64).add(j * n + col) = dot };
            }
        }
    });
    c
}

/// `y = A * x` for a dense vector.
pub fn spmv(a: &CscMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len());
    let mut y = vec![0.0; a.rows()];
    for (col, &w) in x.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let (ri, vs) = a.col(col);
        for (&r, &v) in ri.iter().zip(vs) {
            y[r] += v * w;
        }
    }
    y
}

/// Reusable sparse accumulator (SPA): the dense-scratch workspace
/// behind the SpGEMM kernel.
///
/// The classic Gustavson accumulator keeps a dense value array plus a
/// pattern list and sorts the pattern before emitting each column. This
/// variant removes both the per-column sort and the per-column
/// allocation:
///
/// - a **generation-stamp array** marks which rows are live for the
///   current column (advancing the generation invalidates every stamp
///   in O(1), so nothing is cleared between columns);
/// - an **occupancy bitset** with a touched-word range yields the live
///   rows in ascending order by scanning words and their set bits — the
///   extraction order a sort used to provide, at O(span/64 + nnz)
///   instead of O(nnz log nnz).
///
/// Numerical contract: per-row accumulation replays the exact
/// floating-point chain of the reference kernels (`0.0` init followed
/// by in-visit-order adds), and extraction walks rows in the same
/// ascending order — so SPA-based kernels are **bitwise identical** to
/// their sort-based references, including the rule that a row whose
/// accumulated value is exactly zero is not emitted.
///
/// Create once, call [`SparseAccumulator::begin`] per output column,
/// scatter, then extract. Buffers grow monotonically and are reused
/// across columns.
struct SparseAccumulator {
    /// Dense value scratch, one slot per row.
    vals: Vec<f64>,
    /// Generation per row; a row is live for the current column iff its
    /// stamp matches.
    stamp: Vec<u64>,
    /// Occupancy bitset over rows, cleared lazily over the touched
    /// word range at each [`SparseAccumulator::begin`].
    occ: Vec<u64>,
    /// Current generation.
    gen: u64,
    /// Touched word range `wlo..=whi` of `occ` (`wlo > whi` = empty).
    wlo: usize,
    whi: usize,
}

impl SparseAccumulator {
    /// Empty accumulator; sized lazily by [`SparseAccumulator::begin`].
    fn new() -> Self {
        SparseAccumulator {
            vals: Vec::new(),
            stamp: Vec::new(),
            occ: Vec::new(),
            gen: 0,
            wlo: 1,
            whi: 0,
        }
    }

    /// Start a new output column of height `rows`: grow the scratch if
    /// needed, clear the previously touched bitset words, and advance
    /// the generation so every stamp from earlier columns goes stale.
    fn begin(&mut self, rows: usize) {
        if self.vals.len() < rows {
            self.vals.resize(rows, 0.0);
            self.stamp.resize(rows, 0);
            self.occ.resize(rows.div_ceil(64), 0);
        }
        if self.wlo <= self.whi {
            for w in &mut self.occ[self.wlo..=self.whi] {
                *w = 0;
            }
        }
        self.wlo = usize::MAX;
        self.whi = 0;
        self.gen += 1;
    }

    #[inline]
    fn mark(&mut self, r: usize) {
        let w = r >> 6;
        self.occ[w] |= 1u64 << (r & 63);
        if w < self.wlo {
            self.wlo = w;
        }
        if w > self.whi {
            self.whi = w;
        }
    }

    /// Gustavson scatter-add: `acc[r] += v`, first touch initializing
    /// the slot to `0.0` (the reference kernels' exact chain — note
    /// `0.0 + v` is not always bitwise `v`).
    #[inline]
    fn scatter_add(&mut self, r: usize, v: f64) {
        if self.stamp[r] == self.gen {
            self.vals[r] += v;
        } else {
            self.stamp[r] = self.gen;
            self.vals[r] = 0.0;
            self.vals[r] += v;
            self.mark(r);
        }
    }

    /// Append the live rows in ascending order to `rows`/`vals`,
    /// dropping rows whose value is exactly zero.
    fn extract_append(&self, rows: &mut Vec<usize>, vals: &mut Vec<f64>) {
        if self.wlo > self.whi {
            return;
        }
        for w in self.wlo..=self.whi {
            let mut word = self.occ[w];
            let base = w << 6;
            while word != 0 {
                let r = base + word.trailing_zeros() as usize;
                word &= word - 1;
                let v = self.vals[r];
                if v != 0.0 {
                    rows.push(r);
                    vals.push(v);
                }
            }
        }
    }
}

/// General sparse-sparse product `C = A * B` (column-wise, parallel
/// over column chunks of `B`).
///
/// Each chunk drives one reusable sparse accumulator: generation
/// stamps replace the marker clear, the occupancy bitset replaces the
/// per-column pattern sort, and no per-column allocation happens.
/// Bitwise identical to [`spgemm_reference`] (same accumulation chains,
/// same ascending emission, same drop-exact-zeros rule), pinned by a
/// property test.
pub fn spgemm(a: &CscMatrix, b: &CscMatrix, par: Parallelism) -> CscMatrix {
    assert_eq!(a.cols(), b.rows(), "spgemm: dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    // Per-chunk partial results folded in ascending chunk order.
    type Partial = (Vec<usize>, Vec<usize>, Vec<f64>); // col lens, rows, vals
    let grain = 64usize;
    let (lens, rowidx, values) = parallel_map_fold(
        par,
        n,
        grain,
        (Vec::new(), Vec::new(), Vec::new()),
        |range| -> Partial {
            let mut spa = SparseAccumulator::new();
            let mut lens = Vec::with_capacity(range.len());
            let mut rows = Vec::new();
            let mut vals = Vec::new();
            for j in range {
                spa.begin(m);
                let (bri, bvs) = b.col(j);
                for (&t, &bv) in bri.iter().zip(bvs) {
                    let (ari, avs) = a.col(t);
                    for (&r, &av) in ari.iter().zip(avs) {
                        spa.scatter_add(r, av * bv);
                    }
                }
                let before = rows.len();
                spa.extract_append(&mut rows, &mut vals);
                lens.push(rows.len() - before);
            }
            (lens, rows, vals)
        },
        |mut acc, part| {
            acc.0.extend(part.0);
            acc.1.extend(part.1);
            acc.2.extend(part.2);
            acc
        },
    );
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    let mut run = 0usize;
    for l in lens {
        run += l;
        colptr.push(run);
    }
    CscMatrix::from_parts(m, n, colptr, rowidx, values)
}

/// Original sort-based Gustavson SpGEMM, kept as the bitwise oracle for
/// [`spgemm`] and the kernel benchmark. Not part of the public API.
#[doc(hidden)]
pub fn spgemm_reference(a: &CscMatrix, b: &CscMatrix, par: Parallelism) -> CscMatrix {
    assert_eq!(a.cols(), b.rows(), "spgemm: dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    // Per-chunk partial results folded in ascending chunk order.
    type Partial = (Vec<usize>, Vec<usize>, Vec<f64>); // col lens, rows, vals
    let grain = 64usize;
    let (lens, rowidx, values) = parallel_map_fold(
        par,
        n,
        grain,
        (Vec::new(), Vec::new(), Vec::new()),
        |range| -> Partial {
            let mut acc = vec![0.0f64; m];
            let mut marker = vec![usize::MAX; m];
            let mut pattern: Vec<usize> = Vec::new();
            let mut lens = Vec::with_capacity(range.len());
            let mut rows = Vec::new();
            let mut vals = Vec::new();
            for j in range {
                pattern.clear();
                let (bri, bvs) = b.col(j);
                for (&t, &bv) in bri.iter().zip(bvs) {
                    let (ari, avs) = a.col(t);
                    for (&r, &av) in ari.iter().zip(avs) {
                        if marker[r] != j {
                            marker[r] = j;
                            acc[r] = 0.0;
                            pattern.push(r);
                        }
                        acc[r] += av * bv;
                    }
                }
                pattern.sort_unstable();
                let mut cnt = 0;
                for &r in &pattern {
                    let v = acc[r];
                    if v != 0.0 {
                        rows.push(r);
                        vals.push(v);
                        cnt += 1;
                    }
                }
                lens.push(cnt);
            }
            (lens, rows, vals)
        },
        |mut acc, part| {
            acc.0.extend(part.0);
            acc.1.extend(part.1);
            acc.2.extend(part.2);
            acc
        },
    );
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    let mut run = 0usize;
    for l in lens {
        run += l;
        colptr.push(run);
    }
    CscMatrix::from_parts(m, n, colptr, rowidx, values)
}

/// `C = A + alpha * B` (sparse-sparse merge, matching shapes).
pub fn add_scaled(a: &CscMatrix, alpha: f64, b: &CscMatrix) -> CscMatrix {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let mut out = ColRun::default();
    out.reserve(a.cols(), 0);
    for j in 0..a.cols() {
        let (ar, av) = a.col(j);
        let (br, bv) = b.col(j);
        let (mut p, mut q) = (0, 0);
        while p < ar.len() || q < br.len() {
            let (r, v) = if q >= br.len() || (p < ar.len() && ar[p] < br[q]) {
                let out = (ar[p], av[p]);
                p += 1;
                out
            } else if p >= ar.len() || br[q] < ar[p] {
                let out = (br[q], alpha * bv[q]);
                q += 1;
                out
            } else {
                let out = (ar[p], av[p] + alpha * bv[q]);
                p += 1;
                q += 1;
                out
            };
            if v != 0.0 {
                out.push_entry(r, v);
            }
        }
        out.end_col();
    }
    out.into_csc(a.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::{matmul, DenseMatrix};

    fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut coo = crate::CooMatrix::new(rows, cols);
        for j in 0..cols {
            for _ in 0..per_col {
                let r = (next() % rows as u64) as usize;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                coo.push(r, j, v);
            }
        }
        coo.to_csc()
    }

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn spmm_dense_matches_dense() {
        let a = rand_sparse(20, 15, 4, 1);
        let d = rand_dense(15, 6, 2);
        for np in [1, 4] {
            let c = spmm_dense(&a, &d, Parallelism::new(np));
            let c_ref = matmul(&a.to_dense(), &d, Parallelism::SEQ);
            assert!(c.max_abs_diff(&c_ref) < 1e-12, "np={np}");
        }
    }

    #[test]
    fn spmm_t_dense_matches_dense() {
        let a = rand_sparse(18, 12, 3, 3);
        let d = rand_dense(18, 5, 4);
        for np in [1, 3] {
            let c = spmm_t_dense(&a, &d, Parallelism::new(np));
            let c_ref = matmul(&a.to_dense().transpose(), &d, Parallelism::SEQ);
            assert!(c.max_abs_diff(&c_ref) < 1e-12, "np={np}");
        }
    }

    #[test]
    fn spmv_matches() {
        let a = rand_sparse(10, 8, 3, 7);
        let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let y = spmv(&a, &x);
        let ad = a.to_dense();
        for i in 0..10 {
            let mut s = 0.0;
            for j in 0..8 {
                s += ad.get(i, j) * x[j];
            }
            assert!((y[i] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = rand_sparse(16, 12, 4, 8);
        let b = rand_sparse(12, 10, 3, 9);
        for np in [1, 4] {
            let c = spgemm(&a, &b, Parallelism::new(np));
            let c_ref = matmul(&a.to_dense(), &b.to_dense(), Parallelism::SEQ);
            assert!(c.to_dense().max_abs_diff(&c_ref) < 1e-12, "np={np}");
        }
    }

    #[test]
    fn spgemm_identity() {
        let a = rand_sparse(9, 9, 3, 10);
        let i = CscMatrix::identity(9);
        let left = spgemm(&i, &a, Parallelism::SEQ);
        let right = spgemm(&a, &i, Parallelism::SEQ);
        assert_eq!(left.to_dense(), a.to_dense());
        assert_eq!(right.to_dense(), a.to_dense());
    }

    #[test]
    fn spgemm_result_rows_sorted() {
        let a = rand_sparse(25, 20, 5, 11);
        let b = rand_sparse(20, 15, 5, 12);
        let c = spgemm(&a, &b, Parallelism::new(4));
        for j in 0..c.cols() {
            let (ri, _) = c.col(j);
            assert!(ri.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn spgemm_matches_reference_bitwise() {
        for (seed, (m, k, n, pc)) in
            [(21, (30, 25, 20, 5)), (22, (1, 1, 1, 1)), (23, (40, 3, 17, 2))]
        {
            let a = rand_sparse(m, k, pc, seed);
            let b = rand_sparse(k, n, pc, seed + 100);
            for np in [1, 4] {
                let fast = spgemm(&a, &b, Parallelism::new(np));
                let slow = spgemm_reference(&a, &b, Parallelism::SEQ);
                assert_eq!(fast.colptr(), slow.colptr(), "colptr np={np}");
                assert_eq!(fast.rowidx(), slow.rowidx(), "rowidx np={np}");
                for (x, y) in fast.values().iter().zip(slow.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "values np={np}");
                }
            }
        }
    }

    #[test]
    fn add_scaled_matches_dense() {
        let a = rand_sparse(10, 10, 3, 13);
        let b = rand_sparse(10, 10, 3, 14);
        let c = add_scaled(&a, -2.5, &b);
        let mut ref_d = a.to_dense();
        ref_d.axpy(-2.5, &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&ref_d) < 1e-13);
    }

    #[test]
    fn add_scaled_cancellation_dropped() {
        let a = CscMatrix::identity(3);
        let c = add_scaled(&a, -1.0, &a);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn scatter_accumulates_and_extracts_sorted() {
        let mut spa = SparseAccumulator::new();
        spa.begin(200);
        spa.scatter_add(130, 1.5);
        spa.scatter_add(7, 2.0);
        spa.scatter_add(130, 0.5);
        spa.scatter_add(64, -3.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![7, 64, 130]);
        assert_eq!(vals, vec![2.0, -3.0, 2.0]);
    }

    #[test]
    fn generation_invalidates_previous_column() {
        let mut spa = SparseAccumulator::new();
        spa.begin(10);
        spa.scatter_add(3, 1.0);
        spa.begin(10);
        spa.scatter_add(5, 2.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![5]);
        assert_eq!(vals, vec![2.0]);
    }

    #[test]
    fn exact_cancellation_is_dropped() {
        let mut spa = SparseAccumulator::new();
        spa.begin(8);
        spa.scatter_add(1, 1.0);
        spa.scatter_add(1, -1.0); // cancels -> dropped
        spa.scatter_add(4, 2.5);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![4]);
        assert_eq!(vals, vec![2.5]);
    }

    #[test]
    fn grows_across_begins() {
        let mut spa = SparseAccumulator::new();
        spa.begin(4);
        spa.scatter_add(3, 1.0);
        spa.begin(1000);
        spa.scatter_add(999, 7.0);
        spa.scatter_add(3, 1.0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert_eq!(rows, vec![3, 999]);
        assert_eq!(vals, vec![1.0, 7.0]);
    }

    #[test]
    fn empty_extract_is_noop() {
        let mut spa = SparseAccumulator::new();
        spa.begin(0);
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        spa.extract_append(&mut rows, &mut vals);
        assert!(rows.is_empty() && vals.is_empty());
    }
}
