//! Compressed sparse column matrix — the workhorse format.
//!
//! Row indices within each column are kept sorted; this invariant is
//! relied on by the split/merge kernels of LU_CRTP.

use lra_dense::DenseMatrix;
use lra_par::{parallel_chunks_mut, Parallelism};
use std::ops::Range;

/// Fixed chunk width (in columns) of the parallel in-place drop
/// ([`CscMatrix::drop_below_in_place`]).
const DROP_CHUNK_COLS: usize = 64;

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
    /// recycle the heap allocations of a matrix they are done with.
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
        let mut run = ColRun::default();
        run.reserve(a.cols(), 0);
        for j in 0..a.cols() {
            for (i, &v) in a.col(j).iter().enumerate() {
                if v != 0.0 {
                    run.push_entry(i, v);
                }
            }
            run.end_col();
        }
        run.into_csc(a.rows())
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

    /// Frobenius norm. When the plain sum of squares overflows although
    /// every entry is finite, the squares are summed scaled by the
    /// largest entry, as LAPACK's `dnrm2` scales them; otherwise it is
    /// `fro_norm_sq().sqrt()`, bit for bit.
    pub fn fro_norm(&self) -> f64 {
        let plain = self.fro_norm_sq().sqrt();
        if plain.is_finite() {
            return plain;
        }
        match self.max_abs() {
            big if big.is_finite() => {
                big * self.values.iter().map(|v| (v / big) * (v / big)).sum::<f64>().sqrt()
            }
            _ => plain,
        }
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

    /// Heap bytes reserved by the three CSC arrays: what
    /// [`CscMatrix::resident_bytes`] counts plus the spare capacity a
    /// matrix built into a recycled buffer carries.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.colptr.capacity() + self.rowidx.capacity()) * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<f64>()) as u64
    }

    /// Give the spare capacity of the three arrays back to the
    /// allocator; the entries are untouched.
    pub fn shrink_to_fit(&mut self) {
        self.colptr.shrink_to_fit();
        self.rowidx.shrink_to_fit();
        self.values.shrink_to_fit();
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
        let mut run = ColRun::default();
        run.reserve(perm.len(), 0);
        for &j in perm {
            run.push_col(self.col(j));
        }
        run.into_csc(self.rows)
    }

    /// The contiguous columns `range` as their own matrix — an exact
    /// structural copy by raw array slicing (explicit zeros kept): a
    /// rank's block-column shard of a distributed matrix.
    pub fn slice_columns(&self, range: Range<usize>) -> CscMatrix {
        assert!(range.end <= self.cols, "column range out of bounds");
        let (lo, hi) = (self.colptr[range.start], self.colptr[range.end]);
        CscMatrix {
            rows: self.rows,
            cols: range.len(),
            colptr: self.colptr[range.start..=range.end].iter().map(|&p| p - lo).collect(),
            rowidx: self.rowidx[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
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
            let dense = out.col_mut(dst);
            for (&r, &v) in ri.iter().zip(vs) {
                dense[r] = v;
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
        row_support(self.rows, idx, |j| self.col(j))
    }

    /// `min(self.row_support(idx).len(), cap + 1)`, without the list:
    /// the count stops at the first row past `cap`, so telling a
    /// support longer than `cap` reads only the entries up to that row.
    pub fn row_support_len_capped(&self, idx: &[usize], cap: usize) -> usize {
        row_support_len_capped(self.rows, idx, cap, |j| self.col(j))
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
        gather_at_rows(idx, rows, |j| self.col(j))
    }

    /// Drop every entry with `|value| < threshold`; returns the dropped
    /// squared Frobenius mass and count (the `||T̃^(i)||_F^2` bookkeeping
    /// of ILUT_CRTP, Algorithm 3, lines 8-9), summed in storage order.
    pub fn drop_below(&self, threshold: f64) -> (CscMatrix, f64, usize) {
        let mut kept = ColRun::default();
        kept.reserve(self.cols, 0);
        let mut dropped_sq = 0.0;
        let mut dropped = 0usize;
        for j in 0..self.cols {
            let (ri, vs) = self.col(j);
            for (&r, &v) in ri.iter().zip(vs) {
                if v.abs() < threshold {
                    dropped_sq += v * v;
                    dropped += 1;
                } else {
                    kept.push_entry(r, v);
                }
            }
            kept.end_col();
        }
        (kept.into_csc(self.rows), dropped_sq, dropped)
    }

    /// [`CscMatrix::drop_below`] in place: the same entries are kept, in
    /// the arrays the matrix already owns, so a drop never holds a second
    /// copy. Fixed `DROP_CHUNK_COLS`-wide column chunks each compact
    /// their own stretch of the arrays in parallel, then the kept
    /// stretches slide down in chunk order. A pure filter: what it drops
    /// is measured where the entries are written (the LU/ILUT drivers'
    /// Schur kernel). Capacity is kept.
    pub fn drop_below_in_place(&mut self, threshold: f64, par: Parallelism) {
        /// One chunk's stretch: its column ends (rewritten to kept
        /// counts, cumulative within the stretch) and its entries.
        struct Stretch<'a> {
            start: usize,
            ends: &'a mut [usize],
            rows: &'a mut [usize],
            vals: &'a mut [f64],
            kept: usize,
        }
        let mut stretches = Vec::with_capacity(self.cols.div_ceil(DROP_CHUNK_COLS));
        let (mut ends, mut rows, mut vals) =
            (&mut self.colptr[1..], &mut self.rowidx[..], &mut self.values[..]);
        let mut start = 0;
        while !ends.is_empty() {
            let width = DROP_CHUNK_COLS.min(ends.len());
            let (e, e_rest) = std::mem::take(&mut ends).split_at_mut(width);
            let len = e[e.len() - 1] - start;
            let (r, r_rest) = std::mem::take(&mut rows).split_at_mut(len);
            let (v, v_rest) = std::mem::take(&mut vals).split_at_mut(len);
            stretches.push(Stretch {
                start,
                ends: e,
                rows: r,
                vals: v,
                kept: 0,
            });
            (ends, rows, vals) = (e_rest, r_rest, v_rest);
            start += len;
        }
        parallel_chunks_mut(par, &mut stretches, 1, |_, one| {
            let st = &mut one[0];
            let (mut p, mut w) = (0, 0);
            for end in st.ends.iter_mut() {
                while p < *end - st.start {
                    let v = st.vals[p];
                    let dropped = v.abs() < threshold;
                    if !dropped {
                        st.rows[w] = st.rows[p];
                        st.vals[w] = v;
                        w += 1;
                    }
                    p += 1;
                }
                *end = w;
            }
            st.kept = w;
        });
        let chunks: Vec<(usize, usize)> =
            stretches.into_iter().map(|st| (st.start, st.kept)).collect();
        let mut w = 0;
        for (c, &(start, kept)) in chunks.iter().enumerate() {
            self.rowidx.copy_within(start..start + kept, w);
            self.values.copy_within(start..start + kept, w);
            let cols = c * DROP_CHUNK_COLS + 1..((c + 1) * DROP_CHUNK_COLS).min(self.cols) + 1;
            for e in &mut self.colptr[cols] {
                *e += w;
            }
            w += kept;
        }
        self.rowidx.truncate(w);
        self.values.truncate(w);
    }

    /// Split into the four blocks of Algorithm 2, line 8, given the
    /// pivot row positions (`k` of them, in pivot order) and pivot
    /// column positions.
    ///
    /// Returns `(a11, a12, a21, a22, rest_rows, rest_cols)` where
    /// `a11` is dense `k x k`, the other blocks are CSC with rows and
    /// columns renumbered (pivot order first, remaining order after),
    /// and `rest_rows`/`rest_cols` map the renumbered trailing indices
    /// back to positions in `self`. `Ā12`/`Ā22` are every rest column
    /// routed by [`BlockSplit::route_rest`], as the drivers' Schur
    /// updates route the columns they read; this materialized form is
    /// the reference those updates are tested against.
    #[allow(clippy::type_complexity)]
    pub fn split_blocks(
        &self,
        pivot_rows: &[usize],
        pivot_cols: &[usize],
    ) -> (DenseMatrix, CscMatrix, CscMatrix, CscMatrix, Vec<usize>, Vec<usize>) {
        let split = BlockSplit::new(self.rows, self.cols, pivot_rows, pivot_cols);
        let (a11, a21) = split.pivot_blocks(pivot_cols.iter().map(|&c| self.col(c)));
        let (mut a12, mut a22) = (ColRun::default(), ColRun::default());
        a22.reserve(split.rest_cols.len(), self.nnz());
        let mut top = Vec::new();
        for &c in &split.rest_cols {
            split.route_rest(self.col(c), &mut top, |r, v| a22.push_entry(r, v));
            a22.end_col();
            a12.push_pairs(&top);
        }
        let (a12, a22) = (a12.into_csc(split.k), a22.into_csc(split.rest_rows.len()));
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

/// Column `j` of a matrix, however it is stored, as `(row_indices, values)`.
pub(crate) trait ColumnAt<'a>: Fn(usize) -> (&'a [usize], &'a [f64]) {}
impl<'a, F: Fn(usize) -> (&'a [usize], &'a [f64])> ColumnAt<'a> for F {}

/// [`CscMatrix::row_support`] of a `rows`-row matrix, however stored.
pub(crate) fn row_support<'a>(rows: usize, idx: &[usize], col: impl ColumnAt<'a>) -> Vec<usize> {
    let mut occupied = vec![0u64; rows.div_ceil(64)];
    for &j in idx {
        for &r in col(j).0 {
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

/// [`CscMatrix::row_support_len_capped`] of a `rows`-row matrix,
/// however stored.
pub(crate) fn row_support_len_capped<'a>(
    rows: usize,
    idx: &[usize],
    cap: usize,
    col: impl ColumnAt<'a>,
) -> usize {
    let mut occupied = vec![0u64; rows.div_ceil(64)];
    let mut count = 0;
    for &j in idx {
        for &r in col(j).0 {
            let (word, bit) = (&mut occupied[r / 64], 1 << (r % 64));
            if *word & bit == 0 {
                *word |= bit;
                count += 1;
                if count > cap {
                    return count;
                }
            }
        }
    }
    count
}

/// [`CscMatrix::gather_columns_at_rows_dense`] of a matrix, however
/// stored.
pub(crate) fn gather_at_rows<'a>(idx: &[usize], rows: &[usize], col: impl ColumnAt<'a>) -> DenseMatrix {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows strictly ascending");
    let mut out = DenseMatrix::zeros(rows.len(), idx.len());
    let Some(&first) = rows.first() else {
        return out;
    };
    let probes = rows.len().ilog2() as usize + 1;
    for (dst, &j) in idx.iter().enumerate() {
        let (ri, vs) = col(j);
        let dense = out.col_mut(dst);
        let mut p = ri.partition_point(|&r| r < first);
        let mut q = 0;
        if (ri.len() - p) * probes <= rows.len() {
            for (&r, &v) in ri[p..].iter().zip(&vs[p..]) {
                q += rows[q..].partition_point(|&x| x < r);
                match rows.get(q) {
                    Some(&x) if x == r => dense[q] = v,
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
                        dense[q] = vs[p];
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
    out
}

/// The row and column classification of a panel split (Algorithm 2,
/// line 8) and the routing of column entries into the four blocks
/// `[Ā11 Ā12; Ā21 Ā22]` — shared by [`CscMatrix::split_blocks`] and by
/// the drivers' Schur updates, which route each rest column as they
/// read it, wherever it is held (column runs, a replicated complement,
/// a re-shard piece carrying raw columns to their new owner).
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
    /// pivot position, the others to `bottom` with their trailing row.
    fn route(
        &self,
        (ri, vs): (&[usize], &[f64]),
        mut top: impl FnMut(usize, f64),
        mut bottom: impl FnMut(usize, f64),
    ) {
        for (&r, &v) in ri.iter().zip(vs) {
            let new = self.row_new[r];
            if new < self.k {
                top(new, v);
            } else {
                bottom(new - self.k, v);
            }
        }
    }

    /// `(Ā11, Ā21)` from the `k` pivot columns, given in pivot order.
    pub fn pivot_blocks<'a>(
        &self,
        pivot_cols: impl Iterator<Item = (&'a [usize], &'a [f64])>,
    ) -> (DenseMatrix, CscMatrix) {
        let mut a11 = DenseMatrix::zeros(self.k, self.k);
        let mut a21 = ColRun::default();
        a21.reserve(self.k, 0);
        for (p, col) in pivot_cols.enumerate() {
            let bottom = |r, v| {
                if v != 0.0 {
                    a21.push_entry(r, v);
                }
            };
            self.route(col, |t, v| a11.set(t, p, v), bottom);
            a21.end_col();
        }
        assert_eq!(a21.cols(), self.k, "one pivot column per pivot");
        (a11, a21.into_csc(self.rest_rows.len()))
    }

    /// Route one rest column: its `Ā12` column as `(pivot position,
    /// value)` pairs in ascending position (exact zeros left out)
    /// replaces `top`'s contents, and its `Ā22` entries — rows
    /// renumbered, ascending, exact zeros left out — go to `bottom`.
    /// This is how a Schur update reads a rest column in place, without
    /// materializing `Ā12` or `Ā22`.
    pub fn route_rest(
        &self,
        col: (&[usize], &[f64]),
        top: &mut Vec<(usize, f64)>,
        mut bottom: impl FnMut(usize, f64),
    ) {
        top.clear();
        self.route(
            col,
            |t, v| {
                if v != 0.0 {
                    top.push((t, v));
                }
            },
            |r, v| {
                if v != 0.0 {
                    bottom(r, v);
                }
            },
        );
        top.sort_unstable_by_key(|&(t, _)| t);
    }
}

/// A run of CSC columns under construction: the column pointers so
/// far (from 0) and the concatenated entries. Every matrix built column
/// by column is appended here, rows ascending within each column.
pub struct ColRun {
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl Default for ColRun {
    fn default() -> Self {
        ColRun {
            colptr: vec![0],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl ColRun {
    /// The columns of `m`, open for appending.
    pub fn open(m: CscMatrix) -> Self {
        ColRun {
            colptr: m.colptr,
            rowidx: m.rowidx,
            values: m.values,
        }
    }

    /// An empty run over the allocations of a matrix that is done with.
    pub fn recycled(retired: CscMatrix) -> Self {
        let mut run = Self::open(retired);
        run.clear();
        run
    }

    /// Forget every column, keeping the allocations.
    pub fn clear(&mut self) {
        self.colptr.clear();
        self.colptr.push(0);
        self.rowidx.clear();
        self.values.clear();
    }

    /// Columns closed so far.
    pub fn cols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Room for `cols` more columns holding `nnz` entries.
    pub fn reserve(&mut self, cols: usize, nnz: usize) {
        self.colptr.reserve(cols);
        self.rowidx.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Append one entry to the open column; rows ascend within it.
    #[inline]
    pub fn push_entry(&mut self, r: usize, v: f64) {
        debug_assert!(
            self.rowidx.len() == self.colptr[self.colptr.len() - 1]
                || self.rowidx.last().is_some_and(|&l| l < r),
            "rows must ascend within a column"
        );
        self.rowidx.push(r);
        self.values.push(v);
    }

    /// Close the open column.
    #[inline]
    pub fn end_col(&mut self) {
        self.colptr.push(self.rowidx.len());
    }

    /// Append one column.
    pub fn push_col(&mut self, (ri, vs): (&[usize], &[f64])) {
        self.rowidx.extend_from_slice(ri);
        self.values.extend_from_slice(vs);
        self.end_col();
    }

    /// Append one column given as ascending `(row, value)` pairs.
    pub fn push_pairs(&mut self, col: &[(usize, f64)]) {
        debug_assert!(col.windows(2).all(|w| w[0].0 < w[1].0));
        self.rowidx.extend(col.iter().map(|&(r, _)| r));
        self.values.extend(col.iter().map(|&(_, v)| v));
        self.end_col();
    }

    /// Append the columns of `other`.
    pub fn extend(&mut self, other: &ColRun) {
        let base = self.rowidx.len();
        self.colptr.extend(other.colptr[1..].iter().map(|&p| base + p));
        self.rowidx.extend_from_slice(&other.rowidx);
        self.values.extend_from_slice(&other.values);
    }

    /// The `rows`-row matrix of these columns.
    pub fn into_csc(self, rows: usize) -> CscMatrix {
        let cols = self.cols();
        CscMatrix::from_parts(rows, cols, self.colptr, self.rowidx, self.values)
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
    fn drop_below_in_place_matches_drop_below() {
        let (expect, _, _) = sample().drop_below(2.5);
        for np in [1, 2] {
            let mut a = sample();
            a.drop_below_in_place(2.5, Parallelism::new(np));
            assert_eq!(a, expect);
        }
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
    fn col_run_counts_columns() {
        let mut b = ColRun::default();
        b.push_pairs(&[(0, 1.0), (2, -1.0)]);
        b.push_pairs(&[]);
        let m = b.into_csc(3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.nnz(), 2);
    }

    /// A small asymmetric fixture with distinct values in every slot so
    /// permutations and value edits are all distinguishable.
    fn fingerprint_fixture() -> CscMatrix {
        let mut b = ColRun::default();
        b.push_pairs(&[(0, 1.5), (2, -2.25)]);
        b.push_pairs(&[(1, 0.125), (3, 7.0)]);
        b.push_pairs(&[(0, -0.5)]);
        b.into_csc(4)
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
