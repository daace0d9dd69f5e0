//! QR with tournament pivoting (QR_TP).
//!
//! Finds the `k` "most linearly independent" columns of a matrix with a
//! reduction tree (Section V of the paper, after Grigori/Cayrols/
//! Demmel). Each node ranks its `<= 2k` candidate columns by
//! column-pivoted QR and promotes the `k` winners.
//!
//! An *exact* node runs QRCP on the panel's `R` factor — valid because
//! QRCP pivots depend only on column inner products, which `R`
//! preserves. The `R` factor itself is computed by a chunked,
//! memory-bounded incremental QR over the panel's *row support* — the
//! rows on which some candidate column has a stored entry — which is
//! the sparse-panel substitute for SuiteSparseQR: a node costs
//! `O(k^2 * support) <= O(k^2 * nnz(panel))`, independent of the row
//! dimension.
//!
//! Given a [`Sketch`] of the source's columns, a leaf or merge whose
//! row support has more than `max(r, 64)` rows ranks the `r x <= 2k`
//! sketch of its candidates instead, and columns with no stored entry
//! are not candidates; a node on a support no longer than that still
//! ranks its exact panel, which is then at most as tall as the sketch
//! (or 64 rows, for a sketch shorter than that). The length is counted
//! only up to the cap, so a sketched node never lists its support. The
//! root pass ranks the final winners on their exact columns either
//! way, so the selection's `r_diag` is exact.
//!
//! Asymptotic cost matches the paper's `O(16 k^2 nnz(A))`.

use crate::sketch::Sketch;
use crate::source::ColumnSource;
use lra_dense::{qr, qrcp, DenseMatrix, QrcpFactor};
use lra_par::{parallel_chunks_mut, Parallelism};

/// Shape of the reduction tree (Section V). One shape is left; the type
/// and the `tree` parameters that take it stay only because
/// `benchmark/src/probes.rs` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentTree {
    /// Pairwise merges, `log2(#blocks)` levels.
    Binary,
}

/// A sketched tree's node ranks its exact panel only when the panel's
/// row support has at most `max(r, EXACT_ROWS_FLOOR)` rows, `r` being
/// the sketch's: a taller exact panel costs more QR than the sketch the
/// node has already paid for and picks the same columns. The floor
/// keeps a small-`k` tree (a served job at k = 2 or 4 sketches onto 4
/// or 8 rows) from ranking so coarse a sketch that ILUT stops just
/// above `tau` more often.
const EXACT_ROWS_FLOOR: usize = 64;

/// The area a tournament tree factored: the sum, over its leaves and
/// merges (not the root pass), of rows ranked times columns — support
/// rows for a node that ranked its exact panel, sketch rows for one
/// that ranked its sketch. A deterministic measure of what the nodes
/// pay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeArea {
    /// Area of the nodes that ranked their exact panel.
    pub exact: u64,
    /// Area of the nodes that ranked their sketch.
    pub sketched: u64,
}

impl TreeArea {
    /// Both parts together.
    pub fn total(&self) -> u64 {
        self.exact + self.sketched
    }

    pub(crate) fn add(self, other: TreeArea) -> TreeArea {
        TreeArea {
            exact: self.exact + other.exact,
            sketched: self.sketched + other.sketched,
        }
    }
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
    /// The area the tree's leaves and merges factored on this rank.
    pub area: TreeArea,
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
    if idx.is_empty() {
        return DenseMatrix::zeros(0, 0);
    }
    panel_r_over(src, idx, &src.row_support(idx), par)
}

/// [`panel_r`] over the panel's row support `support`.
fn panel_r_over<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    support: &[usize],
    par: Parallelism,
) -> DenseMatrix {
    let c = idx.len();
    let chunk = (4 * c).max(256);
    if support.len() <= chunk {
        return qr(&src.gather_rows(idx, support), par).r();
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

/// Up to `k` winners of a node's QRCP, in pivot order, as ids of `idx`.
fn winners(f: &QrcpFactor, idx: &[usize], k: usize) -> Vec<usize> {
    f.perm[..f.steps.min(k)].iter().map(|&p| idx[p]).collect()
}

/// The root pass: rank the candidate columns `idx` by QRCP on their
/// exact panel `R`, returning up to `k` winners (in pivot order) plus
/// the QRCP `R` diagonal.
pub(crate) fn node_select<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    k: usize,
    par: Parallelism,
) -> (Vec<usize>, Vec<f64>) {
    let f = qrcp(&panel_r(src, idx, par), k);
    (winners(&f, idx, k), f.r_diag())
}

/// One leaf or merge: up to `k` winners among `idx`, and the area the
/// node factored. Without a sketch, or when the candidates' row support
/// has at most `max(r, `[`EXACT_ROWS_FLOOR`]`)` rows, it ranks the
/// exact panel (the same winners, bit for bit, as [`node_select`]);
/// otherwise it ranks the candidates' sketch columns, having counted
/// the support only as far as the cap.
pub(crate) fn rank_node<S: ColumnSource + ?Sized>(
    src: &S,
    sketch: Option<&Sketch>,
    idx: &[usize],
    k: usize,
) -> (Vec<usize>, TreeArea) {
    match sketch {
        Some(sk) if src.row_support_len_capped(idx, exact_cap(sk)) > exact_cap(sk) => {
            let f = qrcp(&sk.gather(idx), k);
            let area = TreeArea { exact: 0, sketched: (sk.r() * idx.len()) as u64 };
            (winners(&f, idx, k), area)
        }
        _ => {
            let support = src.row_support(idx);
            let f = qrcp(&panel_r_over(src, idx, &support, Parallelism::SEQ), k);
            let area = TreeArea { exact: (support.len() * idx.len()) as u64, sketched: 0 };
            (winners(&f, idx, k), area)
        }
    }
}

/// The most support rows a node of a tree sketched by `sk` ranks
/// exactly.
fn exact_cap(sk: &Sketch) -> usize {
    sk.r().max(EXACT_ROWS_FLOOR)
}

/// The candidates a sketched tree ranks: those of `cand` with a stored
/// entry.
pub(crate) fn stored<S: ColumnSource + ?Sized>(src: &S, cand: &[usize]) -> Vec<usize> {
    cand.iter().copied().filter(|&j| src.col_nnz(j) > 0).collect()
}

/// The leaves and merges of the tree over `cand` (more than `k`
/// candidates): the last merge's winners, in its pivot order, and the
/// area the nodes factored. Leaves are blocks of `2k` consecutive
/// candidates, ranked in parallel (the communication-free "local
/// reduction" of Section V); each node is sequential, so the result
/// does not depend on `par`.
pub(crate) fn reduce<S: ColumnSource + ?Sized>(
    src: &S,
    sketch: Option<&Sketch>,
    cand: &[usize],
    k: usize,
    par: Parallelism,
) -> (Vec<usize>, TreeArea) {
    let block = 2 * k;
    let nblocks = cand.len().div_ceil(block);
    let mut level: Vec<(Vec<usize>, TreeArea)> = vec![Default::default(); nblocks];
    parallel_chunks_mut(par, &mut level, 1, |b, slot| {
        let hi = ((b + 1) * block).min(cand.len());
        slot[0] = rank_node(src, sketch, &cand[b * block..hi], k);
    });
    let mut area = level.iter().fold(TreeArea::default(), |a, (_, x)| a.add(*x));
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let odd = level.len() % 2 == 1;
        let mut next: Vec<(Vec<usize>, TreeArea)> = vec![Default::default(); pairs + usize::from(odd)];
        parallel_chunks_mut(par, &mut next[..pairs], 1, |p, slot| {
            let merged = [level[2 * p].0.as_slice(), &level[2 * p + 1].0].concat();
            slot[0] = rank_node(src, sketch, &merged, k);
        });
        area = next[..pairs].iter().fold(area, |a, (_, x)| a.add(*x));
        if odd {
            let last = level.len() - 1;
            next[pairs] = (std::mem::take(&mut level[last].0), TreeArea::default());
        }
        level = next;
    }
    (std::mem::take(&mut level[0].0), area)
}

/// The tree over `cand`, then the root pass over its winners.
fn tournament<S: ColumnSource + ?Sized>(
    src: &S,
    sketch: Option<&Sketch>,
    cand: &[usize],
    k: usize,
    par: Parallelism,
) -> ColumnSelection {
    assert!(k > 0, "tournament with k = 0");
    let (winners, area) = match cand.len() <= k {
        // Nothing to select; the root pass still yields r_diag.
        true => (cand.to_vec(), TreeArea::default()),
        false => reduce(src, sketch, cand, k, par),
    };
    // Root pass: final ranking of the winners (also yields r_diag).
    let (selected, r_diag) = node_select(src, &winners, k, par);
    ColumnSelection { selected, r_diag, area }
}

/// Select the `k` "most linearly independent" columns among `candidates`
/// (defaults to all columns of `src` when `candidates` is `None`), every
/// node ranking its exact panel.
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
    let TournamentTree::Binary = tree;
    match candidates {
        Some(c) => tournament(src, None, c, k, par),
        None => tournament(src, None, &(0..src.cols()).collect::<Vec<_>>(), k, par),
    }
}

/// [`tournament_columns`] over the columns of `src` with a stored entry,
/// each leaf and merge ranking `sketch` (the sketch of every column of
/// `src`) unless its exact panel is short; the root pass ranks the
/// winners' exact columns.
pub fn tournament_columns_sketched<S: ColumnSource + ?Sized>(
    src: &S,
    sketch: &Sketch,
    k: usize,
    par: Parallelism,
) -> ColumnSelection {
    let cand = stored(src, &(0..src.cols()).collect::<Vec<_>>());
    tournament(src, Some(sketch), &cand, k, par)
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

    /// A sketched node ranks its exact panel up to `max(r, 64)` support
    /// rows and its sketch one row past that: the floor holds for a
    /// 12-row sketch, the sketch's rows for an 80-row one.
    #[test]
    fn node_is_exact_up_to_the_cap_and_sketched_past_it() {
        for (k, cap) in [(6usize, 64usize), (40, 80)] {
            let (m, c) = (400, 2 * k);
            let omega = crate::Omega::new(m, 2 * k);
            let idx: Vec<usize> = (0..c).collect();
            for support in [cap - 1, cap, cap + 1, cap + 7] {
                // Column j holds rows j, j + c, j + 2c, ... below `support`.
                let mut coo = CooMatrix::new(m, c);
                for r in 0..support {
                    coo.push(r, r % c, ((r * 7 + 3) as f64).sin() + 2.0);
                }
                let a = coo.to_csc();
                let rows: Vec<usize> = (0..m).collect();
                let mut sk = Sketch::default();
                omega.sketch(&rows, c, |j| a.col(j), &mut sk, Parallelism::SEQ);
                let (won, area) = rank_node(&a, Some(&sk), &idx, k);
                assert_eq!(won.len(), k, "k={k} support={support}");
                match support <= cap {
                    true => assert_eq!(area, TreeArea { exact: (support * c) as u64, sketched: 0 }),
                    false => assert_eq!(area, TreeArea { exact: 0, sketched: (2 * k * c) as u64 }),
                }
            }
        }
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
