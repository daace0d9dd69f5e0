//! Communication-avoiding tall-and-skinny QR (TSQR).
//!
//! This substitutes the paper's `El::qr::ExplicitTS` (Elemental). Rows
//! are split into blocks (by the shape alone, see `blocking`), each
//! block is factorized independently, the stacked `R` factors are
//! factorized once more, and (optionally) the thin `Q` is reconstructed
//! by back-propagation:
//!
//! `A = [A_1; ...; A_p] = blkdiag(Q_1..Q_p) * [R_1; ...; R_p]`
//! `[R_1; ...; R_p] = Q_s R`  =>  `Q = blkdiag(Q_i) * Q_s`.
//!
//! The root merge ([`tsqr_root`]) and one block's back-propagation
//! ([`tsqr_block_q`]) are public, so a TSQR whose blocks live on
//! different ranks (the SPMD panel TSQR of `lra-core`, which gathers
//! the local `R`s between the two) runs the same arithmetic.

use crate::qr::{qr, QrFactor};
use crate::DenseMatrix;
use lra_par::{parallel_chunks_mut, split_ranges, Parallelism};
use std::ops::Range;

/// Result of a TSQR factorization with explicit thin `Q`.
#[derive(Clone, Debug)]
pub struct Tsqr {
    /// Thin orthonormal factor, `m x min(m, n)`.
    pub q: DenseMatrix,
    /// Upper-triangular factor, `min(m, n) x n`.
    pub r: DenseMatrix,
}

/// Choose the row blocking for `m x n`: every block must have at least
/// `n` rows for its local `R` to be full size, so `m <= n` is a single
/// block. The blocking depends on the shape only — never on the worker
/// count — so TSQR results are bitwise deterministic across `np`
/// (workers merely execute the fixed block set).
fn blocking(m: usize, n: usize) -> Vec<Range<usize>> {
    if m <= n || n == 0 {
        return std::iter::once(0..m).collect();
    }
    let block_rows = (4 * n).max(256);
    split_ranges(m, (m / block_rows).clamp(1, m / n))
}

/// Per-block local QR factors of `a` (parallel over blocks), or `None`
/// when the shape gives a single block and the caller factors `a`
/// directly.
fn local_qrs(a: &DenseMatrix, par: Parallelism) -> Option<(Vec<Range<usize>>, Vec<QrFactor>)> {
    let n = a.cols();
    let blocks = blocking(a.rows(), n);
    if blocks.len() == 1 {
        return None;
    }
    let mut slots: Vec<Option<QrFactor>> = vec![None; blocks.len()];
    parallel_chunks_mut(par, &mut slots, 1, |b, slot| {
        let block = a.submatrix(blocks[b].start, 0, blocks[b].len(), n);
        slot[0] = Some(qr(&block, Parallelism::SEQ));
    });
    let locals = slots.into_iter().map(|f| f.expect("one local QR per block")).collect();
    Some((blocks, locals))
}

/// The local `R` factors `rs` stacked on top of each other, in order.
fn stacked(rs: &[DenseMatrix]) -> DenseMatrix {
    rs[1..].iter().fold(rs[0].clone(), |acc, r| acc.vcat(r))
}

/// TSQR's root merge: one QR of the local `R` factors `rs` (at least
/// one, all with the same columns) stacked in order. Returns `R` and, per local factor, its rows' slice `C_b` of
/// the root's thin `Q` — as many rows as that factor has, none for an
/// empty one.
pub fn tsqr_root(rs: &[DenseMatrix], par: Parallelism) -> (DenseMatrix, Vec<DenseMatrix>) {
    let top = qr(&stacked(rs), par);
    let qs = top.q_thin(par);
    let mut row0 = 0;
    let slices = rs
        .iter()
        .map(|r| {
            let c = qs.submatrix(row0, 0, r.rows(), qs.cols());
            row0 += r.rows();
            c
        })
        .collect();
    (top.r(), slices)
}

/// TSQR's back-propagation for one row block: the block's rows of the
/// thin `Q`, `Q_b [C_b; 0]`, from its local factor `local` and its
/// slice `c` of the root `Q` ([`tsqr_root`]). Sequential: it is one
/// block's share of the work.
pub fn tsqr_block_q(local: &QrFactor, c: &DenseMatrix) -> DenseMatrix {
    let mut piece = DenseMatrix::zeros(local.rows(), c.cols());
    piece.set_submatrix(0, 0, c);
    local.apply_q(&mut piece, Parallelism::SEQ);
    piece
}

/// Full TSQR with explicit thin `Q`: local QRs, one stacked root QR of
/// their `R`s, then each block's back-propagation (parallel over
/// blocks).
pub fn tsqr(a: &DenseMatrix, par: Parallelism) -> Tsqr {
    let Some((blocks, locals)) = local_qrs(a, par) else {
        let f = qr(a, par);
        return Tsqr {
            q: f.q_thin(par),
            r: f.r(),
        };
    };
    let rs: Vec<DenseMatrix> = locals.iter().map(QrFactor::r).collect();
    let (r, mut pieces) = tsqr_root(&rs, par);
    parallel_chunks_mut(par, &mut pieces, 1, |b, slot| {
        slot[0] = tsqr_block_q(&locals[b], &slot[0]);
    });
    let mut q = DenseMatrix::zeros(a.rows(), a.cols());
    for (rg, piece) in blocks.iter().zip(&pieces) {
        q.set_submatrix(rg.start, 0, piece);
    }
    Tsqr { q, r }
}

/// R-only TSQR: the `min(m,n) x n` triangular factor of `a`, without
/// forming `Q` — the same blocks and root as [`tsqr`]. (Tournament
/// pivoting does not come through here: `lra-qrtp`'s `panel_r` cuts a
/// panel's row support into chunks, calls [`qr`] on each and folds the
/// chunk `R`s left to right.)
pub fn tsqr_r(a: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    match local_qrs(a, par) {
        Some((_, locals)) => {
            let rs: Vec<DenseMatrix> = locals.iter().map(QrFactor::r).collect();
            qr(&stacked(&rs), par).r()
        }
        None => qr(a, par).r(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn tsqr_reconstructs() {
        let a = rand_mat(200, 8, 1);
        for np in [1, 2, 4, 7] {
            let t = tsqr(&a, Parallelism::new(np));
            let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
            assert!(prod.max_abs_diff(&a) < 1e-12, "np={np}");
            assert!(t.q.orthogonality_error() < 1e-13, "np={np}");
        }
    }

    #[test]
    fn tsqr_r_matches_qr_r_up_to_signs() {
        let a = rand_mat(150, 6, 2);
        let r_seq = qr(&a, Parallelism::SEQ).r();
        let r_par = tsqr_r(&a, Parallelism::new(4));
        assert_eq!(r_par.rows(), 6);
        assert_eq!(r_par.cols(), 6);
        // R unique up to row signs for full-rank input: compare |R|.
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (r_seq.get(i, j).abs() - r_par.get(i, j).abs()).abs() < 1e-11,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn tsqr_short_wide_falls_back() {
        let a = rand_mat(4, 9, 3);
        let t = tsqr(&a, Parallelism::new(4));
        let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
        assert!(prod.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn tsqr_r_gram_equivalence() {
        // R^T R == A^T A regardless of blocking (the invariant tournament
        // pivoting relies on).
        let a = rand_mat(97, 5, 4);
        let r = tsqr_r(&a, Parallelism::new(3));
        let gram_a = crate::blas::matmul_tn(&a, &a, Parallelism::SEQ);
        let gram_r = crate::blas::matmul_tn(&r, &r, Parallelism::SEQ);
        assert!(gram_a.max_abs_diff(&gram_r) < 1e-11);
    }

    fn assert_bits(x: &DenseMatrix, y: &DenseMatrix, what: &str) {
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{what}: shape");
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        }
    }

    #[test]
    fn entry_points_agree_bitwise_and_are_np_stable() {
        // m <= n, exactly one block, 3 blocks, 5 blocks.
        for (m, n, nb) in [(6, 8, 1), (200, 8, 1), (800, 8, 3), (1300, 8, 5)] {
            let a = rand_mat(m, n, m as u64);
            assert_eq!(blocking(m, n).len(), nb, "{m}x{n}");
            let one = Parallelism::new(1);
            let (t1, r1) = (tsqr(&a, one), tsqr_r(&a, one));
            for np in [1, 3] {
                let par = Parallelism::new(np);
                let what = format!("{m}x{n} np={np}");
                let t = tsqr(&a, par);
                let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
                assert!(prod.max_abs_diff(&a) < 1e-12, "{what}");
                assert!(t.q.orthogonality_error() < 1e-13, "{what}");
                // Worker counts only execute the shape-derived block set.
                assert_bits(&t.q, &t1.q, &what);
                assert_bits(&t.r, &t1.r, &what);
                assert_bits(&tsqr_r(&a, par), &r1, &what);
                // The R-only entry is the stacked merge without Q.
                assert_bits(&t.r, &r1, &what);
            }
        }
    }

    #[test]
    fn tsqr_more_workers_than_blocks() {
        let a = rand_mat(10, 4, 5);
        let t = tsqr(&a, Parallelism::new(16));
        let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
        assert!(prod.max_abs_diff(&a) < 1e-12);
    }
}
