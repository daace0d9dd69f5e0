//! QR with tournament pivoting (QR_TP).
//!
//! Finds the `k` "most linearly independent" columns of a matrix with a
//! reduction tree (Section V of the paper, after Grigori/Cayrols/
//! Demmel). Each node ranks its `<= 2k` candidate columns by
//! column-pivoted QR of the panel's `R` factor — valid because QRCP
//! pivots depend only on column inner products, which `R` preserves —
//! and promotes the `k` winners. The `R` factor itself is computed by a
//! chunked, memory-bounded incremental QR over the panel's *row
//! support* — the rows on which some candidate column has a stored
//! entry — which is the sparse-panel substitute for SuiteSparseQR: a
//! node costs `O(k^2 * support) <= O(k^2 * nnz(panel))`, independent of
//! the row dimension.
//!
//! Asymptotic cost matches the paper's `O(16 k^2 nnz(A))`.

use crate::source::ColumnSource;
use lra_dense::{qr, qrcp, DenseMatrix};
use lra_par::{parallel_chunks_mut, Parallelism};

/// Shape of the reduction tree (Section V). One shape is left; the type
/// and the `tree` parameters that take it stay only because
/// `benchmark/src/probes.rs` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentTree {
    /// Pairwise merges, `log2(#blocks)` levels.
    Binary,
}

/// Result of a column tournament.
#[derive(Debug, Clone)]
pub struct ColumnSelection {
    /// The `k` winning column indices (into the source), in pivot order
    /// (most independent first).
    pub selected: Vec<usize>,
    /// Diagonal of `R` from the final root QRCP over the winners;
    /// `|r_diag[0]|` is the `|R^(1)(1,1)|` estimate of `||A||_2` used by
    /// ILUT_CRTP (eq. 23-24).
    pub r_diag: Vec<f64>,
}

/// Memory-bounded `R` factor of the panel formed by columns `idx` of
/// `src`, computed over the panel's row support only: rows on which no
/// candidate column has an entry contribute nothing to `R^T R`, so the
/// support list is cut into chunks of `max(4c, 256)` rows, each chunk is
/// densified and QR-factored on its own, and the chunk `R`s are folded
/// left to right by stack-and-requalify. Never more than
/// `chunk x |idx|` dense data is live per worker, the work is
/// `O(c^2 * support)`, and a panel whose support fits one chunk is a
/// single QR. `R` has `min(support, c)` rows, so a panel supported on
/// fewer rows than it has columns cannot rank more columns than that.
pub fn panel_r<S: ColumnSource + ?Sized>(src: &S, idx: &[usize], par: Parallelism) -> DenseMatrix {
    let c = idx.len();
    if c == 0 {
        return DenseMatrix::zeros(0, 0);
    }
    let support = src.row_support(idx);
    let chunk = (4 * c).max(256);
    if support.len() <= chunk {
        return qr(&src.gather_rows(idx, &support), par).r();
    }
    // Per-chunk Rs in parallel; the fold order is ascending chunk index
    // whatever the worker count.
    let acc = lra_par::parallel_map_fold(
        par,
        support.len().div_ceil(chunk),
        1,
        None::<DenseMatrix>,
        |range| {
            let rows = &support[range.start * chunk..(range.end * chunk).min(support.len())];
            Some(qr(&src.gather_rows(idx, rows), Parallelism::SEQ).r())
        },
        |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(qr(&x.vcat(&y), Parallelism::SEQ).r()),
            (x, None) | (None, x) => x,
        },
    );
    acc.expect("a support longer than one chunk has chunks")
}

/// Rank the candidate columns `idx` at one tournament node: QRCP on the
/// panel `R`, returning up to `k` winners (in pivot order) plus the
/// QRCP `R` diagonal.
fn node_select<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    k: usize,
    par: Parallelism,
) -> (Vec<usize>, Vec<f64>) {
    let r = panel_r(src, idx, par);
    let f = qrcp(&r, k);
    let winners: Vec<usize> = f.perm[..f.steps.min(k)].iter().map(|&p| idx[p]).collect();
    (winners, f.r_diag())
}

/// Select the `k` "most linearly independent" columns among `candidates`
/// (defaults to all columns of `src` when `candidates` is `None`).
///
/// Returns fewer than `k` winners only if the candidates' numerical
/// rank is below `k` (trailing exact-zero pivots are dropped).
pub fn tournament_columns<S: ColumnSource + ?Sized>(
    src: &S,
    candidates: Option<&[usize]>,
    k: usize,
    tree: TournamentTree,
    par: Parallelism,
) -> ColumnSelection {
    let all: Vec<usize>;
    let cand: &[usize] = match candidates {
        Some(c) => c,
        None => {
            all = (0..src.cols()).collect();
            &all
        }
    };
    assert!(k > 0, "tournament with k = 0");
    if cand.len() <= k {
        // Nothing to select; still compute r_diag for the estimate.
        let (sel, rd) = node_select(src, cand, k, par);
        return ColumnSelection {
            selected: sel,
            r_diag: rd,
        };
    }
    // Leaf stage: blocks of 2k columns, selected in parallel (this is
    // the communication-free "local reduction" of Section V).
    let block = 2 * k;
    let nblocks = cand.len().div_ceil(block);
    let mut level: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    parallel_chunks_mut(par, &mut level, 1, |b, slot| {
        let hi = ((b + 1) * block).min(cand.len());
        slot[0] = node_select(src, &cand[b * block..hi], k, Parallelism::SEQ).0;
    });
    let TournamentTree::Binary = tree;
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let odd = level.len() % 2 == 1;
        let mut next: Vec<Vec<usize>> = vec![Vec::new(); pairs + usize::from(odd)];
        parallel_chunks_mut(par, &mut next[..pairs], 1, |p, slot| {
            let merged = [level[2 * p].as_slice(), &level[2 * p + 1]].concat();
            slot[0] = node_select(src, &merged, k, Parallelism::SEQ).0;
        });
        if odd {
            let last = level.len() - 1;
            next[pairs] = std::mem::take(&mut level[last]);
        }
        level = next;
    }
    // Root pass: final ranking of the winners (also yields r_diag).
    let winners = &level[0];
    let (selected, r_diag) = node_select(src, winners, k, par);
    ColumnSelection { selected, r_diag }
}

/// Row tournament: select the `k` "most linearly independent" *rows* of
/// the dense orthonormal panel `q` (`m x k`), i.e. a column tournament
/// on `q^T` (Algorithm 2, line 7).
pub fn tournament_rows_dense(
    q: &DenseMatrix,
    k: usize,
    tree: TournamentTree,
    par: Parallelism,
) -> Vec<usize> {
    let qt = q.transpose();
    tournament_columns(&qt, None, k, tree, par).selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::{matmul, singular_values};
    use lra_sparse::{CooMatrix, CscMatrix};

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut coo = CooMatrix::new(rows, cols);
        for j in 0..cols {
            for _ in 0..per_col {
                let r = (next() % rows as u64) as usize;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                coo.push(r, j, v);
            }
        }
        coo.to_csc()
    }

    #[test]
    fn panel_r_matches_direct_qr() {
        // One support chunk, then a support of several chunks so the
        // fold actually merges.
        for (a, cols) in [(rand_sparse(300, 6, 4, 1), 6), (rand_sparse(1400, 40, 20, 13), 40)] {
            let idx: Vec<usize> = (0..cols).collect();
            let direct = lra_dense::qr(&a.to_dense(), Parallelism::SEQ).r();
            let g2 = lra_dense::matmul_tn(&direct, &direct, Parallelism::SEQ);
            let r1 = panel_r(&a, &idx, Parallelism::new(1));
            for np in [1, 4] {
                let r = panel_r(&a, &idx, Parallelism::new(np));
                // R is unique up to row signs; compare Gram matrices.
                let g1 = lra_dense::matmul_tn(&r, &r, Parallelism::SEQ);
                assert!(g1.max_abs_diff(&g2) < 1e-10 * (1.0 + g2.max_abs()), "np={np}");
                // The fold order depends on the support only.
                for (x, y) in r.as_slice().iter().zip(r1.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "np={np}");
                }
            }
        }
    }

    #[test]
    fn selects_k_distinct_columns() {
        let a = rand_sparse(100, 40, 5, 2);
        let sel = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(4));
        assert_eq!(sel.selected.len(), 8);
        let mut s = sel.selected.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8, "duplicates");
        assert!(s.iter().all(|&c| c < 40));
    }

    #[test]
    fn finds_independent_columns_of_low_rank_matrix() {
        // Rank-4 matrix: 4 independent columns + 36 linear combinations.
        let base = rand_dense(60, 4, 3);
        let mix = rand_dense(4, 36, 4);
        let deps = matmul(&base, &mix, Parallelism::SEQ);
        let full = base.hcat(&deps);
        let a = CscMatrix::from_dense(&full);
        let sel = tournament_columns(&a, None, 4, TournamentTree::Binary, Parallelism::new(3));
        let picked = full.select_columns(&sel.selected);
        let sv = singular_values(&picked);
        assert!(
            sv[3] > 1e-8,
            "tournament picked dependent columns {:?} (sv={sv:?})",
            sel.selected
        );
    }

    #[test]
    fn quality_close_to_direct_qrcp() {
        let a = rand_dense(50, 32, 5);
        let k = 6;
        let f = lra_dense::qrcp(&a, k);
        let direct = a.select_columns(&f.perm[..k]);
        let sigma_direct = singular_values(&direct)[k - 1];
        let sel = tournament_columns(&a, None, k, TournamentTree::Binary, Parallelism::new(2));
        let picked = a.select_columns(&sel.selected);
        let sigma_tp = singular_values(&picked)[k - 1];
        // Tournament may lose a bounded factor vs direct QRCP.
        assert!(
            sigma_tp > 0.05 * sigma_direct,
            "tournament quality too poor: {sigma_tp} vs {sigma_direct}"
        );
    }

    #[test]
    fn r_diag_first_entry_bounds() {
        // |R(1,1)| <= ||A||_2 (eq. 23) and is within the usual sqrt(n)
        // factor of it.
        let a = rand_dense(40, 20, 6);
        let sel = tournament_columns(&a, None, 5, TournamentTree::Binary, Parallelism::SEQ);
        let norm2 = singular_values(&a)[0];
        let r11 = sel.r_diag[0].abs();
        assert!(r11 <= norm2 * (1.0 + 1e-10), "r11={r11} > ||A||_2={norm2}");
        assert!(r11 >= norm2 / (20.0f64).sqrt() * 0.9, "r11 too small");
    }

    #[test]
    fn row_tournament_selects_k_rows() {
        let q = lra_dense::orth(&rand_dense(80, 7, 7), Parallelism::SEQ);
        let rows = tournament_rows_dense(&q, 7, TournamentTree::Binary, Parallelism::new(2));
        assert_eq!(rows.len(), 7);
        let picked = q.select_rows(&rows);
        let sv = singular_values(&picked);
        // Selected k x k block of an orthonormal matrix must be well
        // conditioned (that is the point of the row tournament).
        assert!(sv[6] > 1e-3, "row block nearly singular: {sv:?}");
    }

    #[test]
    fn fewer_candidates_than_k() {
        let a = rand_sparse(20, 3, 3, 8);
        let sel = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::SEQ);
        assert_eq!(sel.selected.len(), 3);
    }

    #[test]
    fn rank_deficient_returns_fewer() {
        // Rank-2 matrix, ask for 5.
        let base = rand_dense(30, 2, 9);
        let mix = rand_dense(2, 10, 10);
        let a = CscMatrix::from_dense(&matmul(&base, &mix, Parallelism::SEQ));
        let sel = tournament_columns(&a, None, 5, TournamentTree::Binary, Parallelism::SEQ);
        assert!(
            sel.selected.len() >= 2,
            "must keep at least the independent ones"
        );
        // All trailing r_diag beyond rank are ~0, so selection is cut.
        let picked = a.to_dense().select_columns(&sel.selected);
        let sv = singular_values(&picked);
        assert!(sv[1] > 1e-10);
    }

    #[test]
    fn short_support_node_promotes_at_most_support_winners() {
        // 40 columns that live on 5 rows of a 300-row matrix: rank <= 5,
        // and R has 5 rows, so no node can promote rounding-noise pivots.
        let rows = [3usize, 77, 150, 151, 299];
        let block = rand_dense(rows.len(), 40, 15);
        let mut coo = CooMatrix::new(300, 40);
        for j in 0..40 {
            for (i, &r) in rows.iter().enumerate() {
                coo.push(r, j, block.get(i, j));
            }
        }
        let a = coo.to_csc();
        let sel = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(2));
        assert_eq!(sel.selected.len(), 5, "{:?}", sel.selected);
        assert_eq!(sel.r_diag.len(), 5);
        assert!(sel.r_diag.iter().all(|d| d.abs() > 1e-8), "{:?}", sel.r_diag);
        // An all-zero panel has an empty support: no winners, no r_diag.
        let z = CscMatrix::zeros(300, 40);
        assert_eq!(panel_r(&z, &[0, 1, 2], Parallelism::SEQ).rows(), 0);
        let sel = tournament_columns(&z, None, 8, TournamentTree::Binary, Parallelism::SEQ);
        assert!(sel.selected.is_empty() && sel.r_diag.is_empty());
    }

    #[test]
    fn candidate_subset_respected() {
        let a = rand_sparse(50, 30, 4, 11);
        let cands: Vec<usize> = (10..30).collect();
        let sel =
            tournament_columns(&a, Some(&cands), 6, TournamentTree::Binary, Parallelism::SEQ);
        assert!(sel.selected.iter().all(|c| cands.contains(c)));
    }

    #[test]
    fn deterministic_across_np() {
        let a = rand_sparse(120, 64, 5, 12);
        let s1 = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(1));
        let s2 = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(4));
        assert_eq!(s1.selected, s2.selected, "tournament must be deterministic");
        for (x, y) in s1.r_diag.iter().zip(&s2.r_diag) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
