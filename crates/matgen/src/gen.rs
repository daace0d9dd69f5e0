//! Core synthetic sparse matrix generators.
//!
//! Each generator mimics the *structural* character of one SuiteSparse
//! family used in the paper (Table I) and exposes the two knobs the
//! paper's results actually depend on: singular-value decay speed and
//! fill-in behaviour under Schur complementation. All generators are
//! deterministic in their seed.

use lra_sparse::{ColRun, CooMatrix, CscMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn unit(r: &mut SmallRng) -> f64 {
    r.gen::<f64>() * 2.0 - 1.0
}

/// 2D finite-element-style stiffness matrix on an `nx x ny` grid
/// (9-point stencil, random coefficient field) — the "Structural
/// Problem" analogue (M1 / bcsstk18).
pub fn fem2d(nx: usize, ny: usize, seed: u64) -> CscMatrix {
    let n = nx * ny;
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(n, n);
    // Random positive coefficient per cell; assemble a stencil whose
    // off-diagonals are minus coefficients and diagonal their sum
    // (diagonally dominant, SPD-like — realistic stiffness spectrum).
    let idx = |x: usize, y: usize| x + y * nx;
    let mut diag = vec![1e-3f64; n]; // regularization
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            // Each undirected edge gets one coefficient, pushed
            // symmetrically, so the assembled matrix is symmetric and
            // diagonally dominant in both rows and columns.
            for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                let xx = x as i64 + dx;
                let yy = y as i64 + dy;
                if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                    continue;
                }
                let j = idx(xx as usize, yy as usize);
                let c = 0.5 + r.gen::<f64>();
                coo.push(i, j, -c);
                coo.push(j, i, -c);
                diag[i] += c;
                diag[j] += c;
            }
        }
    }
    for (i, &d) in diag.iter().enumerate() {
        coo.push(i, i, d);
    }
    coo.to_csc()
}

/// Block-banded matrix with dense coupled blocks — the "Fluid Dynamics"
/// analogue (M2 / raefsky3): high nnz per row, strong coupling, heavy
/// fill-in under elimination.
pub fn fluid_block(nblocks: usize, bs: usize, seed: u64) -> CscMatrix {
    let n = nblocks * bs;
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(n, n);
    for b in 0..nblocks {
        let base = b * bs;
        // Dense diagonal block.
        for i in 0..bs {
            for j in 0..bs {
                let v = if i == j {
                    bs as f64 + r.gen::<f64>()
                } else {
                    unit(&mut r)
                };
                coo.push(base + i, base + j, v);
            }
        }
        // Sparse coupling to the neighbour block (about half density).
        if b + 1 < nblocks {
            for i in 0..bs {
                for j in 0..bs {
                    if r.gen::<f64>() < 0.4 {
                        coo.push(base + i, base + bs + j, 0.5 * unit(&mut r));
                        coo.push(base + bs + j, base + i, 0.5 * unit(&mut r));
                    }
                }
            }
        }
    }
    coo.to_csc()
}

/// Power-law / hub structure — the "Circuit Simulation" analogue
/// (M3, M4, M6: onetone2, rajat23, circuit5M_dc): most columns have a
/// handful of entries, a few hub nets touch many nodes.
pub fn circuit(n: usize, avg_deg: usize, n_hubs: usize, seed: u64) -> CscMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        coo.push(j, j, 2.0 + avg_deg as f64 + r.gen::<f64>());
        let deg = 1 + r.gen_range(0..avg_deg.max(1) * 2);
        for _ in 0..deg {
            // Preferential attachment flavour: bias towards low indices.
            let t = r.gen::<f64>();
            let i = ((t * t) * n as f64) as usize % n;
            if i != j {
                coo.push(i, j, unit(&mut r));
            }
        }
    }
    // Hubs: rows and columns that touch a slice of the whole circuit.
    for h in 0..n_hubs {
        let hub = (h * 977) % n;
        let span = n / 20 + 2;
        for _ in 0..span {
            let i = r.gen_range(0..n);
            coo.push(hub, i, 0.25 * unit(&mut r));
            coo.push(i, hub, 0.25 * unit(&mut r));
        }
    }
    coo.to_csc()
}

/// Block inter-industry structure — the "Economic Problem" analogue
/// (M5 / mac_econ_fwd500): moderately dense sector blocks plus sparse
/// global cross-links.
pub fn economic(n: usize, sectors: usize, seed: u64) -> CscMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(n, n);
    let per = (n / sectors.max(1)).max(1);
    for j in 0..n {
        coo.push(j, j, 4.0 + r.gen::<f64>());
        let sector = j / per;
        let lo = sector * per;
        let hi = ((sector + 1) * per).min(n);
        // Intra-sector couplings.
        for _ in 0..4 {
            let i = r.gen_range(lo..hi);
            if i != j {
                coo.push(i, j, unit(&mut r));
            }
        }
        // Cross-sector links.
        for _ in 0..2 {
            let i = r.gen_range(0..n);
            if i != j {
                coo.push(i, j, 0.3 * unit(&mut r));
            }
        }
    }
    coo.to_csc()
}

/// Random banded matrix (bandwidth `bw` each side).
pub fn banded(n: usize, bw: usize, seed: u64) -> CscMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        let lo = j.saturating_sub(bw);
        let hi = (j + bw + 1).min(n);
        for i in lo..hi {
            let v = if i == j {
                2.0 * bw as f64 + r.gen::<f64>()
            } else {
                unit(&mut r)
            };
            coo.push(i, j, v);
        }
    }
    coo.to_csc()
}

/// Sparse matrix with (approximately) prescribed singular values:
/// `A = sum_j sigma_j x_j y_j^T` with sparse random unit vectors
/// (`per_vec` nonzeros each). For well-separated `sigmas` the spectrum
/// of `A` tracks `sigmas` closely (random sparse vectors are nearly
/// orthogonal); used where experiments need a known decay profile.
pub fn spectrum(m: usize, n: usize, sigmas: &[f64], per_vec: usize, seed: u64) -> CscMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(m, n);
    let per_vec = per_vec.max(1);
    for (j, &s) in sigmas.iter().enumerate() {
        let x = sparse_unit(m, per_vec, &mut r);
        let y = sparse_unit(n, per_vec, &mut r);
        let _ = j;
        for &(xi, xv) in &x {
            for &(yi, yv) in &y {
                coo.push(xi, yi, s * xv * yv);
            }
        }
    }
    coo.to_csc()
}

fn sparse_unit(len: usize, nnz: usize, r: &mut SmallRng) -> Vec<(usize, f64)> {
    let nnz = nnz.min(len);
    let mut idx = std::collections::BTreeSet::new();
    while idx.len() < nnz {
        idx.insert(r.gen_range(0..len));
    }
    let mut v: Vec<(usize, f64)> = idx.into_iter().map(|i| (i, unit(r))).collect();
    let norm: f64 = v.iter().map(|&(_, x)| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for e in &mut v {
            e.1 /= norm;
        }
    }
    v
}

/// Diagonal matrix with geometric decay `rate^i` (exact known spectrum).
pub fn geometric_diag(n: usize, rate: f64) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut v = 1.0;
    for i in 0..n {
        coo.push(i, i, v);
        v *= rate;
    }
    coo.to_csc()
}

/// `D_r A D_c` for the diagonal weights `rw` (rows) and `cw` (columns).
fn scale_rows_cols(a: &CscMatrix, rw: &[f64], cw: &[f64]) -> CscMatrix {
    let mut out = ColRun::default();
    out.reserve(a.cols(), a.nnz());
    for (j, &c) in cw.iter().enumerate() {
        let (ri, vs) = a.col(j);
        for (&row, &v) in ri.iter().zip(vs) {
            out.push_entry(row, v * rw[row] * c);
        }
        out.end_col();
    }
    out.into_csc(a.rows())
}

/// Rescale `a` to `D_r A D_c` with exponentially decaying weights
/// assigned to a *shuffled* index order (so the decay is not aligned
/// with the structure). `target_tail` is the weight at the last index;
/// e.g. `1e-4` makes the effective numerical rank at tolerance `1e-3`
/// a modest fraction of `n`.
///
/// This is the spectral-calibration knob documented in DESIGN.md: the
/// SuiteSparse originals have decaying spectra at full scale; the scaled
/// analogues are calibrated so fixed-precision runs terminate at ranks
/// `K << l` on laptop budgets.
pub fn with_decay(a: &CscMatrix, target_tail: f64, seed: u64) -> CscMatrix {
    let m = a.rows();
    let n = a.cols();
    let mut r = rng(seed ^ 0xDECA1);
    let mut rw: Vec<f64> = decay_weights(m, target_tail, &mut r);
    let mut cw: Vec<f64> = decay_weights(n, target_tail, &mut r);
    // sqrt on each side so the combined row*col weight spans target_tail.
    for w in rw.iter_mut() {
        *w = w.sqrt();
    }
    for w in cw.iter_mut() {
        *w = w.sqrt();
    }
    scale_rows_cols(a, &rw, &cw)
}

/// Like [`with_decay`], but with a two-regime profile: weights decay
/// geometrically from `1` to `target_tail` over the first
/// `effective_rank` (shuffled) indices and stay at `target_tail`
/// beyond. This pins the *numerical rank at tolerance `tau`* to roughly
/// `effective_rank * log(tau) / log(target_tail)` independent of `n`,
/// which is how the laptop-scale analogues of the paper's large
/// matrices keep fixed-precision runs affordable (see DESIGN.md).
pub fn with_decay_rank(
    a: &CscMatrix,
    target_tail: f64,
    effective_rank: usize,
    seed: u64,
) -> CscMatrix {
    let m = a.rows();
    let n = a.cols();
    let mut r = rng(seed ^ 0xDECA2);
    let mut rw = decay_weights_ranked(m, target_tail, effective_rank, &mut r);
    let mut cw = decay_weights_ranked(n, target_tail, effective_rank, &mut r);
    for w in rw.iter_mut() {
        *w = w.sqrt();
    }
    for w in cw.iter_mut() {
        *w = w.sqrt();
    }
    scale_rows_cols(a, &rw, &cw)
}

fn decay_weights_ranked(
    len: usize,
    target_tail: f64,
    effective_rank: usize,
    r: &mut SmallRng,
) -> Vec<f64> {
    if len <= 1 {
        return vec![1.0; len];
    }
    let er = effective_rank.clamp(1, len);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = r.gen_range(0..=i);
        order.swap(i, j);
    }
    let rate = if er > 1 {
        target_tail.powf(1.0 / (er as f64 - 1.0))
    } else {
        target_tail
    };
    let mut w = vec![0.0; len];
    let mut cur = 1.0;
    for (pos, &idx) in order.iter().enumerate() {
        w[idx] = if pos < er { cur } else { target_tail };
        if pos < er {
            cur *= rate;
        }
    }
    w
}

fn decay_weights(len: usize, target_tail: f64, r: &mut SmallRng) -> Vec<f64> {
    if len <= 1 {
        return vec![1.0; len];
    }
    let mut order: Vec<usize> = (0..len).collect();
    // Fisher-Yates shuffle.
    for i in (1..len).rev() {
        let j = r.gen_range(0..=i);
        order.swap(i, j);
    }
    let rate = target_tail.powf(1.0 / (len as f64 - 1.0));
    let mut w = vec![0.0; len];
    let mut cur = 1.0;
    for &pos in &order {
        w[pos] = cur;
        cur *= rate;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fem2d_shape_and_symmetric_pattern() {
        let a = fem2d(6, 5, 1);
        assert_eq!(a.rows(), 30);
        assert_eq!(a.cols(), 30);
        assert!(a.nnz() > 30 * 4);
        // Pattern symmetry (values differ due to random coefficients).
        let t = a.transpose();
        for j in 0..30 {
            assert_eq!(a.col(j).0, t.col(j).0);
        }
        // Diagonal dominance.
        for j in 0..30 {
            let (ri, vs) = a.col(j);
            let diag = a.get(j, j);
            let off: f64 = ri
                .iter()
                .zip(vs)
                .filter(|(&r, _)| r != j)
                .map(|(_, &v)| v.abs())
                .sum();
            assert!(diag >= off - 1e-9, "col {j}");
        }
    }

    #[test]
    fn fluid_block_density() {
        let a = fluid_block(5, 8, 2);
        assert_eq!(a.rows(), 40);
        // Dense diagonal blocks alone give 8 nnz per row.
        assert!(a.nnz_per_row() >= 8.0);
    }

    #[test]
    fn circuit_has_hubs() {
        let a = circuit(200, 3, 4, 3);
        assert_eq!(a.cols(), 200);
        let degs = a.col_degrees();
        let max_deg = *degs.iter().max().unwrap();
        let mean = a.nnz() as f64 / 200.0;
        assert!(max_deg as f64 > 2.0 * mean, "hub columns expected");
    }

    #[test]
    fn economic_shape() {
        let a = economic(300, 6, 4);
        assert_eq!(a.rows(), 300);
        assert!(a.nnz() >= 300 * 3);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(circuit(100, 3, 2, 7), circuit(100, 3, 2, 7));
        assert_eq!(fem2d(8, 8, 7), fem2d(8, 8, 7));
        assert_eq!(
            spectrum(50, 40, &[3.0, 1.0, 0.1], 5, 7),
            spectrum(50, 40, &[3.0, 1.0, 0.1], 5, 7)
        );
    }

    #[test]
    fn spectrum_tracks_prescribed_sigmas() {
        let sigmas = [10.0, 5.0, 2.0, 1.0, 0.5];
        let a = spectrum(120, 100, &sigmas, 12, 5);
        let sv = lra_dense::singular_values(&a.to_dense());
        // Leading values within a modest factor; rank bounded by 5.
        for (i, &s) in sigmas.iter().enumerate() {
            assert!(
                (sv[i] - s).abs() < 0.5 * s,
                "sigma_{i}: got {} want {s}",
                sv[i]
            );
        }
        assert!(sv[5] < 1e-10);
    }

    #[test]
    fn with_decay_compresses_spectrum() {
        let a = banded(80, 3, 6);
        let d = with_decay(&a, 1e-6, 1);
        assert_eq!(d.nnz(), a.nnz());
        let sv = lra_dense::singular_values(&d.to_dense());
        // Tail must be tiny relative to the head.
        assert!(sv.last().unwrap() / sv[0] < 1e-4);
        // And the plain matrix must NOT have that property.
        let sv0 = lra_dense::singular_values(&a.to_dense());
        assert!(sv0.last().unwrap() / sv0[0] > 1e-4);
    }

    #[test]
    fn geometric_diag_exact() {
        let a = geometric_diag(5, 0.5);
        assert_eq!(a.get(4, 4), 0.0625);
        assert_eq!(a.nnz(), 5);
    }
}
