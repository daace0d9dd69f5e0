//! Block-column distribution of a CSC matrix across SPMD ranks.
//!
//! A rank's shard of a virtual `rows x n` matrix is an ordinary
//! [`CscMatrix`] with the full row dimension: the contiguous columns it
//! owns, cut by [`CscMatrix::slice_columns`] and read at its column
//! offset. Operations on a shard are exact restrictions of the
//! full-matrix ones — same entries, same arithmetic order — so a
//! sharded computation combined over ranks in rank order reproduces
//! the replicated one bitwise.
//!
//! [`scatter_csc`]/[`gather_csc`] convert between the full matrix and
//! its shards by raw `colptr`/`rowidx`/`values` slicing and
//! concatenation (never through a rebuild that could drop explicit
//! zeros), so `gather_csc(scatter_csc(a, ranges)) == a` exactly —
//! the invariant the sharded checkpoint path relies on.

use crate::csc::CscMatrix;
use std::borrow::Borrow;
use std::ops::Range;

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
    ranges.iter().map(|r| full.slice_columns(r.clone())).collect()
}

/// Concatenate block-column shards (in rank order), owned or
/// borrowed, back into one matrix by raw array concatenation. All parts
/// must share the row dimension; `parts` must be non-empty.
pub fn gather_csc<P: Borrow<CscMatrix>>(parts: &[P]) -> CscMatrix {
    assert!(!parts.is_empty(), "gather_csc needs at least one part");
    let parts = || parts.iter().map(Borrow::borrow);
    let rows = parts().next().map_or(0, CscMatrix::rows);
    let cols: usize = parts().map(CscMatrix::cols).sum();
    let nnz: usize = parts().map(CscMatrix::nnz).sum();
    let mut colptr = Vec::with_capacity(cols + 1);
    colptr.push(0);
    let mut rowidx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for p in parts() {
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
}
