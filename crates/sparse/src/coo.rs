//! Coordinate (triplet) sparse matrix, the assembly format.

use crate::CscMatrix;

/// A sparse matrix in coordinate form: unordered `(row, col, value)`
/// triplets. Duplicate entries are summed on conversion to CSC, which
/// makes COO the natural finite-element/graph assembly format used by
/// the synthetic matrix generators.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Empty `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates not merged).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Append a triplet. Zero values are kept (they vanish in CSC
    /// conversion only if they cancel); out-of-range indices panic.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of range");
        self.entries.push((row, col, value));
    }

    /// Raw triplet access.
    pub fn triplets(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Convert to CSC, summing duplicates and dropping exact zeros.
    pub fn to_csc(&self) -> CscMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &(_, c, _) in &self.entries {
            counts[c + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let mut rowidx = vec![0usize; self.entries.len()];
        let mut values = vec![0f64; self.entries.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in &self.entries {
            let p = cursor[c];
            rowidx[p] = r;
            values[p] = v;
            cursor[c] += 1;
        }
        // Sort each column by row index, summing duplicates.
        let mut colptr = vec![0usize; self.cols + 1];
        let mut out_rows = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        for j in 0..self.cols {
            let start = counts[j];
            let end = counts[j + 1];
            let mut col: Vec<(usize, f64)> = rowidx[start..end]
                .iter()
                .copied()
                .zip(values[start..end].iter().copied())
                .collect();
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < col.len() {
                let r = col[i].0;
                let mut v = col[i].1;
                let mut k = i + 1;
                while k < col.len() && col[k].0 == r {
                    v += col[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    out_rows.push(r);
                    out_vals.push(v);
                }
                i = k;
            }
            colptr[j + 1] = out_rows.len();
        }
        CscMatrix::from_parts(self.rows, self.cols, colptr, out_rows, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 1, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(0, 2, 1.0);
        let csc = coo.to_csc();
        assert_eq!(csc.nnz(), 2);
        assert_eq!(csc.get(1, 1), 5.0);
        assert_eq!(csc.get(0, 2), 1.0);
    }

    #[test]
    fn cancelling_duplicates_vanish() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, -1.0);
        let csc = coo.to_csc();
        assert_eq!(csc.nnz(), 0);
    }

    #[test]
    fn rows_sorted_within_columns() {
        let mut coo = CooMatrix::new(4, 2);
        coo.push(3, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(2, 0, 3.0);
        let csc = coo.to_csc();
        let (rows, _) = csc.col(0);
        assert_eq!(rows, &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "triplet out of range")]
    fn out_of_range_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }
}
