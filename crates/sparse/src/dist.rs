//! Block-column distribution of a CSC matrix across SPMD ranks.
//!
//! [`ColSlice`] is one rank's owned shard of a virtual `rows x n`
//! matrix: the contiguous columns `offset .. offset + local.cols()`,
//! stored as an ordinary [`CscMatrix`] with the *full* row dimension.
//! The distributed LU_CRTP/ILUT_CRTP driver keeps the Schur complement
//! as one `ColSlice` per rank (per-rank resident storage `O(nnz/np)`),
//! and every slice-local operation here is an exact restriction of the
//! corresponding full-matrix operation — same entries, same arithmetic
//! order — so a sharded computation combined over ranks in rank order
//! reproduces the replicated computation bitwise.
//!
//! [`scatter_csc`]/[`gather_csc`] convert between the full matrix and
//! its shards by raw `colptr`/`rowidx`/`values` slicing and
//! concatenation (never through a rebuild that could drop explicit
//! zeros), so `gather_csc(scatter_csc(a, ranges)) == a` exactly —
//! the invariant the sharded checkpoint path relies on.

use crate::csc::CscMatrix;
use std::ops::Range;

/// One rank's owned block-column shard of a virtual matrix: columns
/// `offset .. offset + local.cols()`, full row dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct ColSlice {
    offset: usize,
    local: CscMatrix,
}

impl ColSlice {
    /// Wrap an already-extracted block as a shard starting at global
    /// column `offset`.
    pub fn new(offset: usize, local: CscMatrix) -> Self {
        ColSlice { offset, local }
    }

    /// Shard owning no columns (a rank past the partition when
    /// `n < np`).
    pub fn empty(rows: usize, offset: usize) -> Self {
        ColSlice {
            offset,
            local: CscMatrix::zeros(rows, 0),
        }
    }

    /// Extract the shard `range` out of a full matrix by raw array
    /// slicing — an exact structural copy of those columns (explicit
    /// zeros and all), bitwise-equal to what [`scatter_csc`] produces.
    pub fn from_full(full: &CscMatrix, range: Range<usize>) -> Self {
        ColSlice {
            offset: range.start,
            local: slice_columns(full, range),
        }
    }

    /// Global index of this shard's first column.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Global column range owned by this shard.
    #[inline]
    pub fn col_range(&self) -> Range<usize> {
        self.offset..self.offset + self.local.cols()
    }

    /// True when global column `j` lives in this shard.
    #[inline]
    pub fn owns(&self, j: usize) -> bool {
        j >= self.offset && j < self.offset + self.local.cols()
    }

    /// Full row dimension (shared with the virtual matrix).
    #[inline]
    pub fn rows(&self) -> usize {
        self.local.rows()
    }

    /// Number of columns owned.
    #[inline]
    pub fn ncols_local(&self) -> usize {
        self.local.cols()
    }

    /// Stored entries in this shard.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.local.nnz()
    }

    /// The owned block as a plain matrix (columns renumbered to
    /// `0..ncols_local`, rows untouched).
    #[inline]
    pub fn local(&self) -> &CscMatrix {
        &self.local
    }

    /// Consume the shard, yielding the owned block.
    pub fn into_local(self) -> CscMatrix {
        self.local
    }

    /// Bytes resident in this shard's CSC arrays — the quantity behind
    /// the `mem.peak_rank_bytes` metric.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.local.colptr())
            + std::mem::size_of_val(self.local.rowidx())
            + std::mem::size_of_val(self.local.values())
    }

    /// Global column `j` as `(row_indices, values)`. Panics unless
    /// `self.owns(j)`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        assert!(self.owns(j), "column {j} not owned by shard {:?}", self.col_range());
        self.local.col(j - self.offset)
    }

    /// Compact copy of the given *global* columns (all owned), in the
    /// given order — exact structural copies of each column.
    pub fn extract_columns(&self, global_idx: &[usize]) -> CscMatrix {
        let local_idx: Vec<usize> = global_idx
            .iter()
            .map(|&j| {
                assert!(self.owns(j), "column {j} not owned by shard {:?}", self.col_range());
                j - self.offset
            })
            .collect();
        self.local.select_columns(&local_idx)
    }

    /// This shard's contribution to the squared Frobenius norm of the
    /// virtual matrix, accumulated column by column (inner per-column
    /// sums first) — exactly the summation nesting of the distributed
    /// error-indicator loop, so partials combined over ranks in a fixed
    /// reduction tree are bitwise-reproducible.
    pub fn fro_norm_sq_cols(&self) -> f64 {
        let mut acc = 0.0;
        for j in 0..self.local.cols() {
            let (_, vs) = self.local.col(j);
            acc += vs.iter().map(|v| v * v).sum::<f64>();
        }
        acc
    }

    /// Slice-local [`CscMatrix::drop_below_par`]: drop entries with
    /// `|value| < threshold`, returning the thinned shard plus this
    /// shard's dropped squared mass and count. The threshold pass runs
    /// over fixed-width column chunks of the shard, so the dropped-mass
    /// partial is grouped exactly like
    /// [`CscMatrix::dropped_mass_in_cols_par`] over this shard's column
    /// range on the full matrix — the bitwise contract the replicated
    /// oracle driver relies on.
    pub fn drop_below_par(
        &self,
        threshold: f64,
        par: lra_par::Parallelism,
    ) -> (ColSlice, f64, usize) {
        let (m, mass, count) = self.local.drop_below_par(threshold, par);
        (
            ColSlice {
                offset: self.offset,
                local: m,
            },
            mass,
            count,
        )
    }

    /// Slice-local [`CscMatrix::small_entry_magnitudes`] (sorted
    /// ascending within the shard).
    pub fn small_entry_magnitudes(&self, cap: f64) -> Vec<f64> {
        self.local.small_entry_magnitudes(cap)
    }
}

/// Exact structural copy of a contiguous column range (raw array
/// slicing; explicit zeros preserved).
fn slice_columns(full: &CscMatrix, range: Range<usize>) -> CscMatrix {
    assert!(range.end <= full.cols(), "column range out of bounds");
    let cp = full.colptr();
    let lo = cp[range.start];
    let hi = cp[range.end];
    let colptr: Vec<usize> = cp[range.start..=range.end].iter().map(|&p| p - lo).collect();
    CscMatrix::from_parts(
        full.rows(),
        range.len(),
        colptr,
        full.rowidx()[lo..hi].to_vec(),
        full.values()[lo..hi].to_vec(),
    )
}

/// [`ColSlice::from_full`]`.into_local()` with buffer recycling: copy
/// columns `range` of `full` into the heap arrays of `recycled`
/// (cleared, capacity kept), producing the same exact structural copy
/// without fresh allocations once the pool buffers have grown to the
/// steady-state part size. This is the per-panel re-shard's part
/// builder — one `(dst)` part per rank per iteration, so without
/// recycling the exchange allocates `2·np` matrices every panel.
pub fn slice_columns_recycled(
    full: &CscMatrix,
    range: Range<usize>,
    recycled: CscMatrix,
) -> CscMatrix {
    assert!(range.end <= full.cols(), "column range out of bounds");
    let (_, _, mut colptr, mut rowidx, mut values) = recycled.into_parts();
    colptr.clear();
    rowidx.clear();
    values.clear();
    let cp = full.colptr();
    let lo = cp[range.start];
    let hi = cp[range.end];
    colptr.extend(cp[range.start..=range.end].iter().map(|&p| p - lo));
    rowidx.extend_from_slice(&full.rowidx()[lo..hi]);
    values.extend_from_slice(&full.values()[lo..hi]);
    CscMatrix::from_parts(full.rows(), range.len(), colptr, rowidx, values)
}

/// Split a full matrix into per-rank block-column shards (`ranges` as
/// produced by `lra_par::split_ranges`, tiling `0..cols` in order).
/// Each part is an exact structural copy; [`gather_csc`] inverts this
/// bitwise.
pub fn scatter_csc(full: &CscMatrix, ranges: &[Range<usize>]) -> Vec<CscMatrix> {
    let mut expect = 0;
    for r in ranges {
        assert_eq!(r.start, expect, "ranges must tile 0..cols in order");
        expect = r.end;
    }
    assert_eq!(expect, full.cols(), "ranges must cover all columns");
    ranges.iter().map(|r| slice_columns(full, r.clone())).collect()
}

/// Concatenate block-column shards (in rank order) back into one
/// matrix by raw array concatenation. All parts must share the row
/// dimension; `parts` must be non-empty.
pub fn gather_csc(parts: &[CscMatrix]) -> CscMatrix {
    assert!(!parts.is_empty(), "gather_csc needs at least one part");
    let rows = parts[0].rows();
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
    let mut colptr = Vec::with_capacity(cols + 1);
    colptr.push(0);
    let mut rowidx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for p in parts {
        assert_eq!(p.rows(), rows, "row dimension mismatch");
        let base = rowidx.len();
        colptr.extend(p.colptr()[1..].iter().map(|&q| q + base));
        rowidx.extend_from_slice(p.rowidx());
        values.extend_from_slice(p.values());
    }
    CscMatrix::from_parts(rows, cols, colptr, rowidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // 4 x 6 with irregular column fill.
        CscMatrix::from_parts(
            4,
            6,
            vec![0, 2, 2, 5, 6, 8, 9],
            vec![0, 3, 0, 1, 2, 3, 0, 2, 1],
            vec![1.0, -2.0, 3.0, 0.5, -4.0, 6.0, -0.25, 8.0, 0.125],
        )
    }

    #[test]
    fn recycled_slice_matches_fresh_and_reuses_capacity() {
        let a = sample();
        for range in [0..3usize, 2..6, 1..1, 0..6] {
            let fresh = ColSlice::from_full(&a, range.clone()).into_local();
            // Recycle a buffer bigger than needed: contents must be
            // identical to the fresh slice, allocation reused.
            let pool = CscMatrix::from_parts(
                9,
                2,
                vec![0, 4, 8],
                vec![0, 1, 2, 3, 4, 5, 6, 7],
                vec![9.0; 8],
            );
            let out = slice_columns_recycled(&a, range.clone(), pool);
            assert_eq!(out, fresh, "range {range:?}");
            // The donor's heap allocation survives the recycle (its
            // capacity of 8 values covers every sample range).
            let (_, _, _, _, values) = out.into_parts();
            assert!(values.capacity() >= 8, "range {range:?}");
        }
    }

    #[test]
    fn scatter_gather_roundtrip_is_exact() {
        let a = sample();
        for parts in 1..=7 {
            let ranges = lra_par_split(a.cols(), parts);
            let shards = scatter_csc(&a, &ranges);
            let back = gather_csc(&shards);
            assert_eq!(back, a, "parts={parts}");
        }
    }

    // Local re-implementation of `lra_par::split_ranges` for tests
    // (lra-sparse sits below lra-par in the crate DAG).
    fn lra_par_split(n: usize, parts: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let parts = parts.min(n).max(1);
        let (base, rem) = (n / parts, n % parts);
        let mut out = Vec::new();
        let mut start = 0;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    #[test]
    fn slice_ops_match_full_matrix() {
        let a = sample();
        let s = ColSlice::from_full(&a, 2..5);
        assert_eq!(s.offset(), 2);
        assert_eq!(s.ncols_local(), 3);
        assert!(s.owns(4) && !s.owns(5) && !s.owns(1));
        // Column access matches the full matrix.
        for j in 2..5 {
            let (ri, vs) = s.col(j);
            let (fri, fvs) = a.col(j);
            assert_eq!(ri, fri);
            assert_eq!(vs, fvs);
        }
        // Compact extraction is an exact copy.
        let c = s.extract_columns(&[3, 2]);
        assert_eq!(c, a.select_columns(&[3, 2]));
    }

    #[test]
    fn slice_norm_and_drop_match_full_matrix() {
        let a = sample();
        let ranges = lra_par_split(a.cols(), 3);
        let total: f64 = ranges
            .iter()
            .map(|r| ColSlice::from_full(&a, r.clone()).fro_norm_sq_cols())
            .sum();
        assert!((total - a.fro_norm_sq()).abs() < 1e-12);

        let thr = 1.0;
        let par = lra_par::Parallelism::new(2);
        let (full_dropped, full_mass, full_count) = a.drop_below(thr);
        let mut shards = Vec::new();
        let mut mass = 0.0;
        let mut count = 0;
        for r in &ranges {
            let (sd, sm, sc) = ColSlice::from_full(&a, r.clone()).drop_below_par(thr, par);
            // Per-shard mass equals the range-partial on the full matrix
            // bitwise (same terms, same chunk grouping).
            let (rm, rc) = a.dropped_mass_in_cols_par(thr, r.clone(), par);
            assert_eq!(sm.to_bits(), rm.to_bits());
            assert_eq!(sc, rc);
            shards.push(sd.into_local());
            mass += sm;
            count += sc;
        }
        assert_eq!(gather_csc(&shards), full_dropped);
        assert!((mass - full_mass).abs() < 1e-15);
        assert_eq!(count, full_count);
    }

    #[test]
    fn slice_small_entry_magnitudes_concat_sorts_to_full() {
        let a = sample();
        let ranges = lra_par_split(a.cols(), 4);
        let mut mags = Vec::new();
        for r in &ranges {
            mags.extend(ColSlice::from_full(&a, r.clone()).small_entry_magnitudes(5.0));
        }
        mags.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(mags, a.small_entry_magnitudes(5.0));
    }

    #[test]
    fn empty_shard_is_well_formed() {
        let s = ColSlice::empty(7, 3);
        assert_eq!(s.rows(), 7);
        assert_eq!(s.ncols_local(), 0);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.fro_norm_sq_cols(), 0.0);
        assert_eq!(s.col_range(), 3..3);
        let (d, m, c) = s.drop_below_par(1.0, lra_par::Parallelism::SEQ);
        assert_eq!((d.nnz(), m, c), (0, 0.0, 0));
    }
}
