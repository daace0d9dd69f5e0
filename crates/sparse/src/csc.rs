//! Compressed sparse column matrix — the workhorse format.
//!
//! Row indices within each column are kept sorted; this invariant is
//! relied on by the split/merge kernels of LU_CRTP.

use lra_dense::DenseMatrix;
use lra_par::{parallel_map_fold, Parallelism};

/// Fixed chunk width (in columns) of the parallel threshold pass
/// ([`CscMatrix::drop_below_par`] / [`CscMatrix::dropped_mass_in_cols_par`]).
///
/// The chunk partition depends only on the column-range length and this
/// constant — never on the worker count — so the floating-point
/// grouping of the dropped-mass partial is deterministic, and two scans
/// over identical column contents (a shard's local columns vs the same
/// global column range of a replicated matrix) fold bitwise-identical
/// partials.
pub const DROP_CHUNK_COLS: usize = 64;

/// Compressed sparse column matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from raw CSC parts.
    ///
    /// Cheap structural invariants are always checked; sortedness of row
    /// indices per column is checked in debug builds.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(colptr.len(), cols + 1, "colptr length");
        assert_eq!(rowidx.len(), values.len(), "rowidx/values length");
        assert_eq!(*colptr.last().unwrap_or(&0), rowidx.len(), "colptr tail");
        assert_eq!(colptr.first().copied().unwrap_or(0), 0, "colptr head");
        debug_assert!(colptr.windows(2).all(|w| w[0] <= w[1]), "colptr monotone");
        debug_assert!(
            (0..cols).all(|j| {
                let s = colptr[j];
                let e = colptr[j + 1];
                rowidx[s..e].windows(2).all(|w| w[0] < w[1])
                    && rowidx[s..e].iter().all(|&r| r < rows)
            }),
            "rows sorted, unique, in range"
        );
        CscMatrix {
            rows,
            cols,
            colptr,
            rowidx,
            values,
        }
    }

    /// Decompose into `(rows, cols, colptr, rowidx, values)` — the
    /// inverse of [`CscMatrix::from_parts`]. Exists so hot paths can
    /// recycle the heap allocations of a matrix they are done with
    /// (see `lra_sparse::slice_columns_recycled`).
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.rows, self.cols, self.colptr, self.rowidx, self.values)
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CscMatrix {
            rows,
            cols,
            colptr: vec![0; cols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            rows: n,
            cols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Convert from dense, dropping exact zeros.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        let rows = a.rows();
        let cols = a.cols();
        let mut colptr = Vec::with_capacity(cols + 1);
        colptr.push(0);
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        for j in 0..cols {
            for (i, &v) in a.col(j).iter().enumerate() {
                if v != 0.0 {
                    rowidx.push(i);
                    values.push(v);
                }
            }
            colptr.push(rowidx.len());
        }
        CscMatrix {
            rows,
            cols,
            colptr,
            rowidx,
            values,
        }
    }

    /// Densify (intended for tests and small blocks).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let (ri, vs) = self.col(j);
            let col = out.col_mut(j);
            for (&r, &v) in ri.iter().zip(vs) {
                col[r] = v;
            }
        }
        out
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// `nnz / (rows * cols)` (0 for empty shapes) — the fill-in metric
    /// of Fig. 1.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// `nnz / rows` — the per-row density ratio of Fig. 1 (right).
    pub fn nnz_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Column `j` as `(row_indices, values)`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let s = self.colptr[j];
        let e = self.colptr[j + 1];
        (&self.rowidx[s..e], &self.values[s..e])
    }

    /// Number of entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Raw column pointer array.
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Raw row index array.
    pub fn rowidx(&self) -> &[usize] {
        &self.rowidx
    }

    /// Raw value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry lookup via binary search (O(log nnz(col))).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (ri, vs) = self.col(j);
        match ri.binary_search(&i) {
            Ok(p) => vs[p],
            Err(_) => 0.0,
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.fro_norm_sq().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn fro_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Largest absolute entry (0 when empty).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Heap bytes resident in this matrix's three CSC arrays — the
    /// quantity cache/memory accounting charges for holding it.
    pub fn resident_bytes(&self) -> u64 {
        ((self.colptr.len() + self.rowidx.len()) * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Content fingerprint: a 64-bit digest of the exact stored matrix
    /// (dimensions, column structure, and value *bits*), built from two
    /// independent CRC-32 streams — one over the structure
    /// (`rows`/`cols`/`colptr`/`rowidx`), one over the value bit
    /// patterns. Two matrices fingerprint equal iff they hold the same
    /// entries at the same positions with bitwise-identical values, so
    /// the digest is a valid cache key for factorizations (which are
    /// deterministic functions of exactly these bits): permuted,
    /// rescaled, or re-thresholded variants all fingerprint differently,
    /// while a serialization round trip that preserves the bits
    /// fingerprints identically.
    pub fn fingerprint(&self) -> u64 {
        let mut structure =
            Vec::with_capacity((2 + self.colptr.len() + self.rowidx.len()) * 8);
        structure.extend_from_slice(&(self.rows as u64).to_le_bytes());
        structure.extend_from_slice(&(self.cols as u64).to_le_bytes());
        for &p in &self.colptr {
            structure.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for &r in &self.rowidx {
            structure.extend_from_slice(&(r as u64).to_le_bytes());
        }
        let mut value_bits = Vec::with_capacity(self.values.len() * 8);
        for &v in &self.values {
            value_bits.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        (u64::from(lra_obs::crc::crc32(&structure)) << 32)
            | u64::from(lra_obs::crc::crc32(&value_bits))
    }

    /// Transposed copy (also serves as the CSR view of `self`).
    pub fn transpose(&self) -> CscMatrix {
        let mut out = CscMatrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`CscMatrix::transpose`] into a caller-owned matrix, reusing its
    /// buffers — the allocation-free form the factorization inner loops
    /// call every iteration. `out`'s previous contents are discarded.
    ///
    /// No scratch is allocated: `out.colptr` serves first as the count
    /// array, then (after a prefix sum) as the per-column write cursor,
    /// and is repaired by a right-shift afterwards.
    pub fn transpose_into(&self, out: &mut CscMatrix) {
        let nnz = self.nnz();
        out.rows = self.cols;
        out.cols = self.rows;
        out.colptr.clear();
        out.colptr.resize(self.rows + 1, 0);
        out.rowidx.clear();
        out.rowidx.resize(nnz, 0);
        out.values.clear();
        out.values.resize(nnz, 0.0);
        for &r in &self.rowidx {
            out.colptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            out.colptr[i + 1] += out.colptr[i];
        }
        // Scatter, advancing `colptr[r]` in place as the write cursor;
        // the column-major source scan produces ascending `j` per
        // target column, so rows come out sorted.
        for j in 0..self.cols {
            let (s, e) = (self.colptr[j], self.colptr[j + 1]);
            for (&r, &v) in self.rowidx[s..e].iter().zip(&self.values[s..e]) {
                let p = out.colptr[r];
                out.rowidx[p] = j;
                out.values[p] = v;
                out.colptr[r] += 1;
            }
        }
        // Each cursor now sits at the start of the next column: shift
        // right and re-anchor to restore the pointer array.
        for r in (0..self.rows).rev() {
            out.colptr[r + 1] = out.colptr[r];
        }
        out.colptr[0] = 0;
    }

    /// New matrix whose column `p` is `self` column `perm[p]`.
    pub fn select_columns(&self, perm: &[usize]) -> CscMatrix {
        let mut colptr = Vec::with_capacity(perm.len() + 1);
        colptr.push(0);
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        for &j in perm {
            let (ri, vs) = self.col(j);
            rowidx.extend_from_slice(ri);
            values.extend_from_slice(vs);
            colptr.push(rowidx.len());
        }
        CscMatrix {
            rows: self.rows,
            cols: perm.len(),
            colptr,
            rowidx,
            values,
        }
    }

    /// Apply a row permutation: row `old` of `self` becomes row
    /// `new_of_old[old]` of the result (a scatter map covering all rows).
    pub fn permute_rows(&self, new_of_old: &[usize]) -> CscMatrix {
        assert_eq!(new_of_old.len(), self.rows);
        let mut colptr = self.colptr.clone();
        let mut rowidx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut buf: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.cols {
            let (ri, vs) = self.col(j);
            buf.clear();
            buf.extend(ri.iter().zip(vs).map(|(&r, &v)| (new_of_old[r], v)));
            buf.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &buf {
                rowidx.push(r);
                values.push(v);
            }
            colptr[j + 1] = rowidx.len();
        }
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            colptr,
            rowidx,
            values,
        }
    }

    /// Gather the given columns into a dense `rows x idx.len()` panel.
    pub fn gather_columns_dense(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, idx.len());
        for (dst, &j) in idx.iter().enumerate() {
            let (ri, vs) = self.col(j);
            let col = out.col_mut(dst);
            for (&r, &v) in ri.iter().zip(vs) {
                col[r] = v;
            }
        }
        out
    }

    /// Gather rows `row_range` of the given columns into a dense panel
    /// of shape `row_range.len() x idx.len()` (the chunked densify used
    /// by R-only TSQR on sparse panels).
    pub fn gather_columns_rows_dense(
        &self,
        idx: &[usize],
        row_range: std::ops::Range<usize>,
    ) -> DenseMatrix {
        let h = row_range.len();
        let mut out = DenseMatrix::zeros(h, idx.len());
        for (dst, &j) in idx.iter().enumerate() {
            let (ri, vs) = self.col(j);
            let start = ri.partition_point(|&r| r < row_range.start);
            let col = out.col_mut(dst);
            for p in start..ri.len() {
                let r = ri[p];
                if r >= row_range.end {
                    break;
                }
                col[r - row_range.start] = vs[p];
            }
        }
        out
    }

    /// Sorted, duplicate-free list of the rows that hold a stored entry
    /// in at least one of the given columns — the only rows of the
    /// panel that can contribute to its `R` factor. One pass over the
    /// columns' row indices into an occupancy bitset plus one pass over
    /// its words: `O(nnz_panel + rows/64)`, no sort.
    pub fn row_support(&self, idx: &[usize]) -> Vec<usize> {
        let mut occupied = vec![0u64; self.rows.div_ceil(64)];
        for &j in idx {
            for &r in self.col(j).0 {
                occupied[r / 64] |= 1 << (r % 64);
            }
        }
        let count = occupied.iter().map(|w| w.count_ones() as usize).sum();
        let mut support = Vec::with_capacity(count);
        for (w, &word) in occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                support.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        support
    }

    /// Gather the given rows (strictly ascending) of the given columns
    /// into a dense `rows.len() x idx.len()` panel: row `i` of the
    /// result is row `rows[i]` of `self`; stored entries on other rows
    /// are skipped. With `rows` a chunk of [`CscMatrix::row_support`]
    /// this is the row-compressed densify of R-only TSQR on sparse
    /// panels. A column is matched against `rows` by a merge walk,
    /// `O(rows.len() + nnz)`, unless it is so short that a binary
    /// search per stored entry in what is left of `rows`,
    /// `O(nnz * log(rows.len()))`, reads less — the tournament's
    /// columns hold a handful of entries against a support of hundreds.
    pub fn gather_columns_at_rows_dense(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows strictly ascending");
        let mut out = DenseMatrix::zeros(rows.len(), idx.len());
        let Some(&first) = rows.first() else {
            return out;
        };
        let probes = rows.len().ilog2() as usize + 1;
        for (dst, &j) in idx.iter().enumerate() {
            let (ri, vs) = self.col(j);
            let col = out.col_mut(dst);
            let mut p = ri.partition_point(|&r| r < first);
            let mut q = 0;
            if (ri.len() - p) * probes <= rows.len() {
                for (&r, &v) in ri[p..].iter().zip(&vs[p..]) {
                    q += rows[q..].partition_point(|&x| x < r);
                    match rows.get(q) {
                        Some(&x) if x == r => col[q] = v,
                        Some(_) => {}
                        None => break,
                    }
                }
            } else {
                while p < ri.len() && q < rows.len() {
                    match ri[p].cmp(&rows[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            col[q] = vs[p];
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Drop every entry with `|value| < threshold`; returns the dropped
    /// squared Frobenius mass and count (the `||T̃^(i)||_F^2` bookkeeping
    /// of ILUT_CRTP, Algorithm 3, lines 8-9).
    pub fn drop_below(&self, threshold: f64) -> (CscMatrix, f64, usize) {
        let mut out = CscMatrix::zeros(0, 0);
        let (dropped_sq, dropped) = self.drop_below_into(threshold, &mut out);
        (out, dropped_sq, dropped)
    }

    /// [`CscMatrix::drop_below`] into a caller-owned matrix, reusing its
    /// buffers — the allocation-free form the ILUT drop loop calls every
    /// iteration. `out`'s previous contents are discarded; returns the
    /// dropped squared mass and count.
    pub fn drop_below_into(&self, threshold: f64, out: &mut CscMatrix) -> (f64, usize) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.colptr.clear();
        out.colptr.reserve(self.cols + 1);
        out.colptr.push(0);
        out.rowidx.clear();
        out.rowidx.reserve(self.nnz());
        out.values.clear();
        out.values.reserve(self.nnz());
        let mut dropped_sq = 0.0;
        let mut dropped = 0usize;
        for j in 0..self.cols {
            let (ri, vs) = self.col(j);
            for (&r, &v) in ri.iter().zip(vs) {
                if v.abs() < threshold {
                    dropped_sq += v * v;
                    dropped += 1;
                } else {
                    out.rowidx.push(r);
                    out.values.push(v);
                }
            }
            out.colptr.push(out.rowidx.len());
        }
        (dropped_sq, dropped)
    }

    /// Parallel [`CscMatrix::drop_below`]: the threshold pass runs over
    /// fixed `DROP_CHUNK_COLS`-wide column chunks, and the per-chunk
    /// `(kept structure, dropped mass, dropped count)` partials fold in
    /// ascending chunk order. The kept structure is a pure filter, so
    /// it is identical to the sequential result; the dropped mass is
    /// grouped per chunk, which is deterministic for a given column
    /// count regardless of the worker count and matches
    /// [`CscMatrix::dropped_mass_in_cols_par`] over the same columns.
    pub fn drop_below_par(&self, threshold: f64, par: Parallelism) -> (CscMatrix, f64, usize) {
        type Partial = (Vec<usize>, Vec<usize>, Vec<f64>, f64, usize);
        let n = self.cols;
        let (lens, rowidx, values, dropped_sq, dropped) = parallel_map_fold(
            par,
            n,
            DROP_CHUNK_COLS,
            (Vec::new(), Vec::new(), Vec::new(), 0.0, 0usize),
            |range| -> Partial {
                let mut lens = Vec::with_capacity(range.len());
                let mut rows = Vec::new();
                let mut vals = Vec::new();
                let mut mass = 0.0f64;
                let mut count = 0usize;
                for j in range {
                    let (ri, vs) = self.col(j);
                    let before = rows.len();
                    for (&r, &v) in ri.iter().zip(vs) {
                        if v.abs() < threshold {
                            mass += v * v;
                            count += 1;
                        } else {
                            rows.push(r);
                            vals.push(v);
                        }
                    }
                    lens.push(rows.len() - before);
                }
                (lens, rows, vals, mass, count)
            },
            |mut acc, part| {
                acc.0.extend(part.0);
                acc.1.extend(part.1);
                acc.2.extend(part.2);
                acc.3 += part.3;
                acc.4 += part.4;
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
        (
            CscMatrix {
                rows: self.rows,
                cols: n,
                colptr,
                rowidx,
                values,
            },
            dropped_sq,
            dropped,
        )
    }

    /// Dropped squared mass and count that [`CscMatrix::drop_below_par`]
    /// would record over columns `range` only: per-chunk partials over
    /// fixed `DROP_CHUNK_COLS`-wide chunks of `range`, folded in
    /// ascending chunk order — the exact chunk partition (relative to
    /// `range.start`) and therefore the exact floating-point grouping
    /// that `drop_below_par` uses over the same columns. This is the
    /// per-rank partial the replicated ILUT engine combines over a
    /// fixed reduction tree; the block-column shard of `range`
    /// accumulates exactly these terms in exactly this order, so
    /// replicated and sharded engines produce bitwise-identical
    /// partials.
    pub fn dropped_mass_in_cols_par(
        &self,
        threshold: f64,
        range: std::ops::Range<usize>,
        par: Parallelism,
    ) -> (f64, usize) {
        let lo = range.start;
        parallel_map_fold(
            par,
            range.len(),
            DROP_CHUNK_COLS,
            (0.0f64, 0usize),
            |r| {
                let p0 = self.colptr[lo + r.start];
                let p1 = self.colptr[lo + r.end];
                let mut mass = 0.0f64;
                let mut count = 0usize;
                for &v in &self.values[p0..p1] {
                    if v.abs() < threshold {
                        mass += v * v;
                        count += 1;
                    }
                }
                (mass, count)
            },
            |acc, part| (acc.0 + part.0, acc.1 + part.1),
        )
    }

    /// Split into the four blocks of Algorithm 2, line 8, given the
    /// pivot row positions (`k` of them, in pivot order) and pivot
    /// column positions.
    ///
    /// Returns `(a11, a12, a21, a22, rest_rows, rest_cols)` where
    /// `a11` is dense `k x k`, the other blocks are CSC with rows and
    /// columns renumbered (pivot order first, remaining order after),
    /// and `rest_rows`/`rest_cols` map the renumbered trailing indices
    /// back to positions in `self`.
    #[allow(clippy::type_complexity)]
    pub fn split_blocks(
        &self,
        pivot_rows: &[usize],
        pivot_cols: &[usize],
    ) -> (DenseMatrix, CscMatrix, CscMatrix, CscMatrix, Vec<usize>, Vec<usize>) {
        let split = BlockSplit::new(self.rows, self.cols, pivot_rows, pivot_cols);
        let (a11, a21) = split.pivot_blocks(pivot_cols.iter().map(|&c| self.col(c)));
        let rest = split.rest_cols.iter().map(|&c| self.col(c));
        let (a12, a22) = split.rest_blocks(rest, self.nnz());
        (a11, a12, a21, a22, split.rest_rows, split.rest_cols)
    }

    /// Per-column nnz counts (degree vector used by the orderings).
    pub fn col_degrees(&self) -> Vec<usize> {
        (0..self.cols).map(|j| self.col_nnz(j)).collect()
    }

    /// Scale all values by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Convert to COO, emitting one triplet per stored entry in
    /// column-major order (rows ascending within each column).
    pub fn to_coo(&self) -> crate::CooMatrix {
        let mut coo = crate::CooMatrix::new(self.rows, self.cols);
        for j in 0..self.cols {
            let (ri, vs) = self.col(j);
            for (&i, &v) in ri.iter().zip(vs) {
                coo.push(i, j, v);
            }
        }
        coo
    }
}

/// The row and column classification of a panel split (Algorithm 2,
/// line 8) and the routing of column entries into the four blocks
/// `[Ā11 Ā12; Ā21 Ā22]` — shared by [`CscMatrix::split_blocks`] and by
/// engines that hold the pivot columns and the rest columns in
/// different places (the sharded SPMD driver: a replicated pivot panel,
/// an owned run of rest columns).
///
/// Pivot rows are renumbered `0..k` in pivot order, the other rows
/// `0..m-k` in their own order; that second map is monotone, so a
/// column's trailing entries come out ascending as they are read.
pub struct BlockSplit {
    k: usize,
    /// New index per row: a pivot row's position in the pivot order,
    /// `k +` its position among the rest otherwise.
    row_new: Vec<usize>,
    /// Renumbered trailing row -> row of the source.
    pub rest_rows: Vec<usize>,
    /// Renumbered trailing column -> column of the source.
    pub rest_cols: Vec<usize>,
}

impl BlockSplit {
    /// Classify the rows and columns of a `rows x cols` matrix.
    /// Panics on a repeated pivot.
    pub fn new(rows: usize, cols: usize, pivot_rows: &[usize], pivot_cols: &[usize]) -> Self {
        let k = pivot_rows.len();
        assert_eq!(pivot_cols.len(), k);
        const UNSET: usize = usize::MAX;
        let mut row_new = vec![UNSET; rows];
        for (p, &r) in pivot_rows.iter().enumerate() {
            assert!(row_new[r] == UNSET, "duplicate pivot row");
            row_new[r] = p;
        }
        let mut rest_rows = Vec::with_capacity(rows - k);
        for (r, new) in row_new.iter_mut().enumerate() {
            if *new == UNSET {
                *new = k + rest_rows.len();
                rest_rows.push(r);
            }
        }
        let mut col_is_pivot = vec![false; cols];
        for &c in pivot_cols {
            assert!(!col_is_pivot[c], "duplicate pivot column");
            col_is_pivot[c] = true;
        }
        let rest_cols = (0..cols).filter(|&c| !col_is_pivot[c]).collect();
        BlockSplit {
            k,
            row_new,
            rest_rows,
            rest_cols,
        }
    }

    /// Route one source column: pivot-row entries go to `top` with their
    /// pivot position, the others are appended to `bottom`'s open column.
    fn route(
        &self,
        (ri, vs): (&[usize], &[f64]),
        mut top: impl FnMut(usize, f64),
        bottom: &mut SparseBuilder,
    ) {
        for (&r, &v) in ri.iter().zip(vs) {
            let new = self.row_new[r];
            if new < self.k {
                top(new, v);
            } else {
                bottom.push_entry(new - self.k, v);
            }
        }
        bottom.end_col();
    }

    /// `(Ā11, Ā21)` from the `k` pivot columns, given in pivot order.
    pub fn pivot_blocks<'a>(
        &self,
        pivot_cols: impl Iterator<Item = (&'a [usize], &'a [f64])>,
    ) -> (DenseMatrix, CscMatrix) {
        let mut a11 = DenseMatrix::zeros(self.k, self.k);
        let mut a21 = SparseBuilder::new(self.rest_rows.len(), self.k);
        for (p, col) in pivot_cols.enumerate() {
            self.route(col, |t, v| a11.set(t, p, v), &mut a21);
        }
        (a11, a21.finish())
    }

    /// `(Ā12, Ā22)` from rest columns (all of them or a run), in
    /// ascending order; `nnz` bounds their stored entries.
    pub fn rest_blocks<'a>(
        &self,
        rest_cols: impl ExactSizeIterator<Item = (&'a [usize], &'a [f64])>,
        nnz: usize,
    ) -> (CscMatrix, CscMatrix) {
        let ncols = rest_cols.len();
        let mut a12 = SparseBuilder::with_capacity(self.k, ncols, nnz.min(self.k * ncols));
        let mut a22 = SparseBuilder::with_capacity(self.rest_rows.len(), ncols, nnz);
        let mut top: Vec<(usize, f64)> = Vec::new();
        for col in rest_cols {
            top.clear();
            self.route(col, |t, v| top.push((t, v)), &mut a22);
            top.sort_unstable_by_key(|&(t, _)| t);
            a12.push_col(&top);
        }
        (a12.finish(), a22.finish())
    }
}

/// Incremental column-by-column CSC builder (rows must be pushed
/// sorted within each column).
pub struct SparseBuilder {
    rows: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
    target_cols: usize,
}

impl SparseBuilder {
    /// Builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let mut colptr = Vec::with_capacity(cols + 1);
        colptr.push(0);
        SparseBuilder {
            rows,
            colptr,
            rowidx: Vec::new(),
            values: Vec::new(),
            target_cols: cols,
        }
    }

    /// [`SparseBuilder::new`] with room for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut b = SparseBuilder::new(rows, cols);
        b.rowidx.reserve(nnz);
        b.values.reserve(nnz);
        b
    }

    /// Append one entry to the column under construction; rows must
    /// ascend within it (zero values skipped).
    pub fn push_entry(&mut self, r: usize, v: f64) {
        debug_assert!(r < self.rows);
        if v != 0.0 {
            debug_assert!(
                self.rowidx[self.colptr[self.colptr.len() - 1]..].last().is_none_or(|&l| l < r),
                "rows must ascend within a column"
            );
            self.rowidx.push(r);
            self.values.push(v);
        }
    }

    /// Close the column under construction.
    pub fn end_col(&mut self) {
        self.colptr.push(self.rowidx.len());
    }

    /// Append the next column from sorted `(row, value)` pairs
    /// (zero values skipped).
    pub fn push_col(&mut self, entries: &[(usize, f64)]) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        for &(r, v) in entries {
            self.push_entry(r, v);
        }
        self.end_col();
    }

    /// Finish; panics if the declared column count was not reached.
    pub fn finish(self) -> CscMatrix {
        assert_eq!(
            self.colptr.len() - 1,
            self.target_cols,
            "SparseBuilder: wrong number of columns pushed"
        );
        CscMatrix::from_parts(self.rows, self.target_cols, self.colptr, self.rowidx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 4.0, 3.0, 2.0, 5.0],
        )
    }

    #[test]
    fn basic_accessors() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert!((a.fro_norm_sq() - (1.0 + 16.0 + 9.0 + 4.0 + 25.0)).abs() < 1e-14);
        assert_eq!(a.max_abs(), 5.0);
        assert!((a.density() - 5.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        let d = a.to_dense();
        let back = CscMatrix::from_dense(&d);
        assert_eq!(a, back);
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_into_reuses_buffers() {
        let a = sample();
        // Reuse an `out` holding stale unrelated contents.
        let mut out = CscMatrix::identity(7);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        // Round-trip through the same buffer-owner.
        let mut back = CscMatrix::zeros(0, 0);
        out.transpose_into(&mut back);
        assert_eq!(back, a);
        // Empty source resets a previously-filled target.
        CscMatrix::zeros(2, 4).transpose_into(&mut out);
        assert_eq!(out, CscMatrix::zeros(4, 2));
    }

    #[test]
    fn drop_below_into_matches_drop_below() {
        let a = sample();
        let mut out = CscMatrix::identity(9); // stale contents
        let (mass, count) = a.drop_below_into(2.5, &mut out);
        let (expect, mass_e, count_e) = a.drop_below(2.5);
        assert_eq!(out, expect);
        assert_eq!(mass.to_bits(), mass_e.to_bits());
        assert_eq!(count, count_e);
    }

    #[test]
    fn select_columns_reorders() {
        let a = sample();
        let s = a.select_columns(&[2, 0]);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(2, 1), 4.0);
    }

    #[test]
    fn permute_rows_scatter() {
        let a = sample();
        // old row 0 -> new 2, 1 -> 0, 2 -> 1.
        let p = a.permute_rows(&[2, 0, 1]);
        assert_eq!(p.get(2, 0), 1.0);
        assert_eq!(p.get(0, 1), 3.0);
        assert_eq!(p.get(1, 2), 5.0);
        assert_eq!(p.nnz(), a.nnz());
    }

    #[test]
    fn drop_below_tracks_mass() {
        let a = sample();
        let (d, mass, count) = a.drop_below(2.5);
        assert_eq!(count, 2); // entries 1.0 and 2.0
        assert!((mass - 5.0).abs() < 1e-14);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(2, 0), 4.0);
    }

    #[test]
    fn gather_columns_rows_dense_chunk() {
        let a = sample();
        let p = a.gather_columns_rows_dense(&[0, 2], 1..3);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.get(1, 0), 4.0); // row 2 of col 0
        assert_eq!(p.get(0, 1), 0.0); // row 1 of col 2
        assert_eq!(p.get(1, 1), 5.0);
    }

    #[test]
    fn row_support_and_gather_at_rows() {
        let a = sample();
        assert_eq!(a.row_support(&[1]), vec![1]);
        assert_eq!(a.row_support(&[0, 2, 0]), vec![0, 2]);
        assert_eq!(a.row_support(&[]), Vec::<usize>::new());
        // Rows 0 and 2 of columns 2, 1: [2 0; 5 0].
        let p = a.gather_columns_at_rows_dense(&[2, 1], &[0, 2]);
        assert_eq!((p.rows(), p.cols()), (2, 2));
        assert_eq!(p.col(0), &[2.0, 5.0]);
        assert_eq!(p.col(1), &[0.0, 0.0]);
        assert_eq!(a.gather_columns_at_rows_dense(&[0], &[]).rows(), 0);
    }

    /// Short columns are located in `rows` by binary search, the others
    /// by the merge walk; both must read what `get` reads, whatever lies
    /// before, between and after the stored rows.
    #[test]
    fn gather_at_rows_matches_get_for_short_and_long_columns() {
        let m = 400;
        let mut coo = crate::CooMatrix::new(m, 6);
        for r in [3, 57, 58, 200, 399] {
            coo.push(r, 0, r as f64 + 0.5); // short
        }
        for r in (0..m).filter(|r| r % 3 != 1) {
            coo.push(r, 1, -(r as f64) - 0.25); // long
        }
        coo.push(0, 2, 7.0); // one entry, on the first row
        coo.push(m - 1, 3, 9.0); // one entry, on the last row
        coo.push(100, 4, 11.0); // no entry on any of `rows` below
        let a = coo.to_csc(); // column 5 is empty
        let idx = [5, 0, 1, 2, 3, 4, 0];
        let every_row: Vec<usize> = (0..m).collect();
        let inner: Vec<usize> = (10..390).filter(|r| r % 100 != 0).collect();
        let few = vec![57, 59, 399];
        for rows in [&every_row[..], &inner, &few, &[58], &[]] {
            let p = a.gather_columns_at_rows_dense(&idx, rows);
            assert_eq!((p.rows(), p.cols()), (rows.len(), idx.len()));
            for (dst, &j) in idx.iter().enumerate() {
                let want: Vec<f64> = rows.iter().map(|&r| a.get(r, j)).collect();
                assert_eq!(p.col(dst), &want[..], "column {j} on {} rows", rows.len());
            }
        }
    }

    #[test]
    fn split_blocks_shapes_and_values() {
        let a = sample();
        // Pivot row 2, pivot column 0 (k = 1).
        let (a11, a12, a21, a22, rest_rows, rest_cols) = a.split_blocks(&[2], &[0]);
        assert_eq!(a11.get(0, 0), 4.0);
        assert_eq!(rest_rows, vec![0, 1]);
        assert_eq!(rest_cols, vec![1, 2]);
        // a12 = row 2 of columns 1,2 = [0 5]
        assert_eq!(a12.get(0, 1), 5.0);
        assert_eq!(a12.nnz(), 1);
        // a21 = rows 0,1 of column 0 = [1; 0]
        assert_eq!(a21.get(0, 0), 1.0);
        assert_eq!(a21.nnz(), 1);
        // a22 = rows 0,1 x cols 1,2 = [0 2; 3 0]
        assert_eq!(a22.get(0, 1), 2.0);
        assert_eq!(a22.get(1, 0), 3.0);
        assert_eq!(a22.nnz(), 2);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CscMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(3, 3), 1.0);
        let z = CscMatrix::zeros(3, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.fro_norm(), 0.0);
    }

    #[test]
    fn builder_counts_columns() {
        let mut b = SparseBuilder::new(3, 2);
        b.push_col(&[(0, 1.0), (2, -1.0)]);
        b.push_col(&[]);
        let m = b.finish();
        assert_eq!(m.cols(), 2);
        assert_eq!(m.nnz(), 2);
    }

    /// A small asymmetric fixture with distinct values in every slot so
    /// permutations and value edits are all distinguishable.
    fn fingerprint_fixture() -> CscMatrix {
        let mut b = SparseBuilder::new(4, 3);
        b.push_col(&[(0, 1.5), (2, -2.25)]);
        b.push_col(&[(1, 0.125), (3, 7.0)]);
        b.push_col(&[(0, -0.5)]);
        b.finish()
    }

    #[test]
    fn fingerprint_distinguishes_matrices_and_permutations() {
        let a = fingerprint_fixture();
        let base = a.fingerprint();

        // Deterministic: same bits, same digest.
        assert_eq!(base, a.clone().fingerprint());

        // A single value-bit change must change the digest.
        let mut bumped = a.clone();
        bumped.values[0] = f64::from_bits(bumped.values[0].to_bits() ^ 1);
        assert_ne!(base, bumped.fingerprint());

        // Column and row permutations move entries: distinct digests.
        let col_perm = a.select_columns(&[1, 0, 2]);
        assert_ne!(base, col_perm.fingerprint());
        let row_perm = a.permute_rows(&[1, 0, 2, 3]);
        assert_ne!(base, row_perm.fingerprint());

        // Same values at different dimensions are different matrices.
        let padded = CscMatrix::from_parts(
            5,
            3,
            a.colptr.clone(),
            a.rowidx.clone(),
            a.values.clone(),
        );
        assert_ne!(base, padded.fingerprint());

        // Structure vs value split: swapping two values while keeping
        // the pattern fixed still changes the digest.
        let mut swapped = a.clone();
        swapped.values.swap(0, 1);
        assert_ne!(base, swapped.fingerprint());
    }

    #[test]
    fn fingerprint_survives_round_trips() {
        let a = fingerprint_fixture();
        let base = a.fingerprint();
        // Format round trips preserve the stored bits exactly.
        assert_eq!(base, a.to_coo().to_csc().fingerprint());
        assert_eq!(base, a.transpose().transpose().fingerprint());
    }

    #[test]
    fn resident_bytes_counts_all_three_arrays() {
        let a = fingerprint_fixture();
        let want = (a.colptr.len() + a.rowidx.len()) * std::mem::size_of::<usize>()
            + a.values.len() * std::mem::size_of::<f64>();
        assert_eq!(a.resident_bytes(), want as u64);
        assert!(CscMatrix::zeros(2, 2).resident_bytes() > 0); // colptr is real
    }
}
