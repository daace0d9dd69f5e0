//! The random sketch a column tournament's leaves and merges rank on.
//!
//! A node only needs *which* `k` of its `<= 2k` candidates QRCP would
//! keep, and QRCP of a random sketch `Y = Ω^T A` of the candidates makes
//! nearly the same choice (Duersch and Gu, "Randomized QR with column
//! pivoting", SISC 2017; Yu, Gu and Li's randomized sketches). The
//! sketch has `r` rows whatever the candidates' row support, so a node
//! costs `O(r k^2)` instead of `O(support k^2)`.
//!
//! `Ω` holds a few random signs per *original* row id, hashed from a
//! fixed internal seed, so a column's sketch is the same for every
//! engine, worker count, chunking and resumed run: it depends only on
//! the column's entries and on which rows of the input they sit on.

use lra_dense::DenseMatrix;
use lra_par::{parallel_chunks_mut, Parallelism};

/// The fixed internal seed `Ω` is hashed from.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Columns sketched per parallel chunk.
const GRAIN: usize = 64;

/// Nonzeros per row of `Ω` (all `r` when `r` is smaller). A dense
/// sign row costs `r` multiply-adds per stored entry: on `M2′`'s dense
/// LU complement (1 040², 0.94 M entries, r = 64) that sketch took 24 ms
/// of a 30 ms tournament on two vCPUs, and `M5′`'s LU τ = 1e-4 solve
/// spent 14.4 of its 21 s in the tournament; with 8 nonzeros a row it
/// spends 4.5 s, at the same ranks on Table II's rows.
const NNZ_PER_ROW: usize = 8;

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sketching matrix `Ω`, a sparse sign matrix: row `g` has one
/// entry `±1` in each of 8 contiguous blocks of its `r` columns (in
/// every column when `r < 8`), at a position and with a sign hashed
/// from the fixed seed, `g` and the block, so a row does not depend on
/// how many rows the matrix was built for. Sketching a stored entry
/// then costs 8 adds, not `r` multiply-adds (Kane and Nelson's block
/// construction; Tropp et al. recommend 8 nonzeros a row for
/// randomized range finding).
#[derive(Debug, Clone)]
pub struct Omega {
    r: usize,
    /// Per row id, per block: the column of the row's entry.
    pos: Vec<u32>,
    /// Per row id, per block: the entry, `±1`.
    sign: Vec<f64>,
}

impl Omega {
    /// `Ω` for row ids `0..rows`, `r` columns.
    pub fn new(rows: usize, r: usize) -> Self {
        assert!(r > 0, "a sketch needs at least one row");
        let s = NNZ_PER_ROW.min(r);
        let (mut pos, mut sign) = (Vec::with_capacity(rows * s), Vec::with_capacity(rows * s));
        for g in 0..rows {
            let row_seed = mix(SEED ^ g as u64);
            for t in 0..s {
                let (lo, hi) = (t * r / s, (t + 1) * r / s);
                let h = mix(row_seed.wrapping_add(t as u64));
                pos.push((lo + (h % (hi - lo) as u64) as usize) as u32);
                sign.push(if h >> 63 == 1 { 1.0 } else { -1.0 });
            }
        }
        Omega { r, pos, sign }
    }

    /// `out = Ω^T A` for the `cols` columns `col(0..cols)` of `A`, whose
    /// row `i` is the row id `row_ids[i]`: column `j` of `out` is the sum,
    /// in the column's storage order, of each stored value times its row
    /// of `Ω`. Columns are independent, so the bits do not depend on
    /// `par`. `out`'s buffer is reused.
    pub fn sketch<'a>(
        &self,
        row_ids: &[usize],
        cols: usize,
        col: impl Fn(usize) -> (&'a [usize], &'a [f64]) + Sync,
        out: &mut Sketch,
        par: Parallelism,
    ) {
        let (r, s) = (self.r, NNZ_PER_ROW.min(self.r));
        out.r = r;
        out.y.clear();
        out.y.resize(r * cols, 0.0);
        parallel_chunks_mut(par, &mut out.y, r * GRAIN, |c, ys| {
            for (j, y) in (c * GRAIN..).zip(ys.chunks_exact_mut(r)) {
                let (ri, vs) = col(j);
                for (&i, &v) in ri.iter().zip(vs) {
                    let g = row_ids[i] * s;
                    for (&p, &sg) in self.pos[g..g + s].iter().zip(&self.sign[g..g + s]) {
                        y[p as usize] += v * sg;
                    }
                }
            }
        });
    }
}

/// Sketch columns `Y = Ω^T A`, `r` values per column, column `j` at
/// `j r .. (j + 1) r`. The default is empty, a buffer to sketch into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sketch {
    r: usize,
    y: Vec<f64>,
}

impl Sketch {
    /// Rows of the sketch.
    pub(crate) fn r(&self) -> usize {
        self.r
    }

    /// Column `j`.
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.y[j * self.r..(j + 1) * self.r]
    }

    /// The columns `idx` as a dense `r x idx.len()` block.
    pub(crate) fn gather(&self, idx: &[usize]) -> DenseMatrix {
        let mut data = Vec::with_capacity(self.r * idx.len());
        for &j in idx {
            data.extend_from_slice(self.col(j));
        }
        DenseMatrix::from_column_major(self.r, idx.len(), data)
    }

    /// A compact copy of the columns `idx`, in that order.
    pub(crate) fn select(&self, idx: &[usize]) -> Sketch {
        let y = self.gather(idx).as_slice().to_vec();
        Sketch { r: self.r, y }
    }

    /// `self`'s columns followed by `other`'s.
    pub(crate) fn concat(mut self, other: &Sketch) -> Sketch {
        debug_assert!(other.y.is_empty() || other.r == self.r);
        self.y.extend_from_slice(&other.y);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_rows_depend_on_the_row_id_only() {
        let (small, big) = (Omega::new(10, 64), Omega::new(50, 64));
        assert_eq!(small.pos[..], big.pos[..small.pos.len()]);
        assert_eq!(small.sign[..], big.sign[..small.sign.len()]);
        // One entry per block of 8 columns; about half the signs +1.
        for (q, &p) in big.pos.iter().enumerate() {
            assert_eq!(p as usize / 8, q % 8);
        }
        let plus = big.sign.iter().filter(|&&s| s > 0.0).count();
        assert!((150..250).contains(&plus), "{plus}");
        // A narrow sketch has one entry in every column.
        let narrow = Omega::new(3, 4);
        for row in narrow.pos.chunks(4) {
            assert_eq!(row, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn sketch_is_omega_transpose_times_the_columns() {
        let omega = Omega::new(6, 16);
        let dense = |g: usize| {
            let mut row = vec![0.0; 16];
            for t in 0..8 {
                row[omega.pos[8 * g + t] as usize] = omega.sign[8 * g + t];
            }
            row
        };
        // Two active rows mapped to original rows 5 and 2.
        let (rows, vals) = ([0usize, 1], [2.0, -1.0]);
        let row_ids = [5usize, 2];
        let mut y = Sketch::default();
        let cols = |j: usize| match j {
            0 => (&rows[..], &vals[..]),
            _ => (&rows[..0], &vals[..0]),
        };
        omega.sketch(&row_ids, 2, cols, &mut y, Parallelism::new(2));
        assert_eq!((y.r(), y.y.len()), (16, 32));
        let (w5, w2) = (dense(5), dense(2));
        for t in 0..16 {
            assert_eq!(y.col(0)[t], 2.0 * w5[t] - w2[t]);
        }
        assert_eq!(y.col(1), &[0.0; 16]);
        let pair = y.select(&[1, 0]).concat(&y.select(&[0]));
        assert_eq!((pair.col(1), pair.col(2)), (y.col(0), y.col(0)));
    }
}
