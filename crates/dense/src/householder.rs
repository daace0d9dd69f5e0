//! Householder reflectors: the one kernel under `qr`, `qrcp`, TSQR's
//! leaves and root, and the bidiagonalization of the SVD reference.
//!
//! A reflector `H = I - tau v v^T` is stored LAPACK-style: `v[0] = 1`
//! is implicit and the slot holds other data. Applying it to a column
//! `c` is one dot product `w = c[0] + sum_i v[i] c[i]` accumulated in
//! ascending `i` — a single floating-point dependency chain — followed
//! by an axpy. That order is the arithmetic of every factorization in
//! the workspace, so it never changes. [`apply_reflector`], the one
//! entry, has two ways to walk the chain and picks per reflector, from
//! the reflector:
//!
//! * the *sweep* ([`sweep_cols`]) visits every `i` and carries [`GROUP`]
//!   columns together, so that their independent chains overlap in the
//!   pipeline while every column still sees exactly the additions of
//!   [`apply`] in exactly its order;
//! * the *walk* ([`walk_cols`]) visits only the `i` with `v[i] != 0`,
//!   still ascending. A skipped term is `w + 0 * c[i] = w` and
//!   `c[i] - w * 0 = c[i]`, and a column whose chain ends at `w == 0`
//!   is `c - 0 * v = c`: the additions left out are the ones that
//!   change nothing, so the walk is the same arithmetic, not an
//!   approximation of it. A tournament node's panel (a few entries per
//!   column on its row support), two stacked triangles and the
//!   triangular `R` that `qrcp` ranks are mostly such terms.
//!
//! Neither choice can show in the bits, with two exceptions, both
//! outside what a finite computation produces from inputs without
//! `-0.0`. *Sign of a zero:* `-0.0 + 0.0 = 0.0`, so where the sweep
//! adds a zero term to a `w` (or subtracts one from a `c[i]`) that is
//! `-0.0` it stores `0.0` and the walk keeps `-0.0`; the values are
//! equal. No operation here makes a `-0.0` column entry from columns
//! that hold none. *Non-finite columns:* the sweep turns `0 * inf` into
//! NaN, the walk leaves the `inf` where it is; either way the column is
//! non-finite and the drivers' `is_finite` checks see it.

use lra_par::{parallel_chunks_mut, Parallelism};

/// Columns [`sweep_cols`] carries through one sweep. Picked once, by
/// `qr` of 4000 x 32 (the `dense.qr_s` probe's shape), interleaved
/// best-of in one process: one column 1.98 ms, two 1.37, four 1.24,
/// eight 1.33 — past four the chains no longer wait on each other and
/// a wider group only lengthens the one-column tail.
const GROUP: usize = 4;

/// Columns [`walk_cols`] carries through one dot, and the fewest
/// columns the walk is taken for. Replayed in one process on the chunk
/// panels of a `tp_sparse` solve, four and eight in flight read the
/// same (a step fetches a cache line per column; the chains are not
/// what it waits for), so the width is the guard's: under eight columns
/// (the k = 2 / k = 4 panels of the job engine) counting and collecting
/// the support costs more than the zeros it skips.
const WALK_GROUP: usize = 8;

/// Generate a Householder reflector for the vector `x` (in place).
///
/// On return `x[0]` holds `beta` (the new leading entry) and `x[1..]`
/// the reflector tail `v[1..]` (with `v[0] = 1` implicit). Returns
/// `tau`; `tau == 0` means the column was already in triangular form.
pub(crate) fn make_householder(x: &mut [f64]) -> f64 {
    let alpha = x[0];
    let tail_sq: f64 = x[1..].iter().map(|v| v * v).sum();
    if tail_sq == 0.0 {
        // Already triangular; H = I (works for alpha of any sign).
        return 0.0;
    }
    let normx = (alpha * alpha + tail_sq).sqrt();
    let beta = if alpha >= 0.0 { -normx } else { normx };
    let denom = alpha - beta;
    for v in x[1..].iter_mut() {
        *v /= denom;
    }
    x[0] = beta;
    (beta - alpha) / beta
}

/// Apply the reflector `(v, tau)` (with `v[0] = 1` implicit) to a column
/// slice `c` of equal length.
#[inline]
fn apply(v: &[f64], tau: f64, c: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let mut w = c[0];
    for (vi, ci) in v[1..].iter().zip(&c[1..]) {
        w += vi * ci;
    }
    w *= tau;
    c[0] -= w;
    for (vi, ci) in v[1..].iter().zip(c[1..].iter_mut()) {
        *ci -= w * vi;
    }
}

/// The dense sweep: apply the reflector `(v, tau)` to rows `off..` of
/// every `m`-long column of the column-major `cols`
/// (`v.len() == m - off`, `tau != 0`), [`GROUP`] columns at a time, the
/// remainder one by one through [`apply`].
fn sweep_cols(v: &[f64], tau: f64, cols: &mut [f64], m: usize, off: usize) {
    let mut groups = cols.chunks_exact_mut(GROUP * m);
    for group in groups.by_ref() {
        let mut columns = group.chunks_exact_mut(m);
        let mut c: [&mut [f64]; GROUP] =
            std::array::from_fn(|_| &mut columns.next().expect("GROUP columns")[off..]);
        let mut w: [f64; GROUP] = std::array::from_fn(|j| c[j][0]);
        for (i, vi) in v.iter().enumerate().skip(1) {
            for (wj, cj) in w.iter_mut().zip(&c) {
                *wj += vi * cj[i];
            }
        }
        for (wj, cj) in w.iter_mut().zip(&mut c) {
            *wj *= tau;
            cj[0] -= *wj;
        }
        for (i, vi) in v.iter().enumerate().skip(1) {
            for (wj, cj) in w.iter().zip(&mut c) {
                cj[i] -= wj * vi;
            }
        }
    }
    for col in groups.into_remainder().chunks_exact_mut(m) {
        apply(v, tau, &mut col[off..]);
    }
}

/// The support walk over `G` columns (`cols.len() == G * m`):
/// `support` holds the ascending `(i, v[i])` with `i >= 1` and
/// `v[i] != 0`. The `G` dot chains advance together; a column whose
/// `w` comes out exactly `0.0` is left unwritten.
fn walk_group<const G: usize>(
    support: &[(usize, f64)],
    tau: f64,
    cols: &mut [f64],
    m: usize,
    off: usize,
) {
    let mut columns = cols.chunks_exact_mut(m);
    let mut c: [&mut [f64]; G] =
        std::array::from_fn(|_| &mut columns.next().expect("G columns")[off..]);
    let mut w: [f64; G] = std::array::from_fn(|j| c[j][0]);
    for &(i, vi) in support {
        for (wj, cj) in w.iter_mut().zip(&c) {
            *wj += vi * cj[i];
        }
    }
    for (wj, cj) in w.iter().zip(&mut c) {
        let wj = wj * tau;
        if wj == 0.0 {
            continue;
        }
        cj[0] -= wj;
        for &(i, vi) in support {
            cj[i] -= wj * vi;
        }
    }
}

/// The support walk over every `m`-long column of `cols`:
/// [`WALK_GROUP`] columns at a time, the remainder one by one.
fn walk_cols(support: &[(usize, f64)], tau: f64, cols: &mut [f64], m: usize, off: usize) {
    let mut groups = cols.chunks_exact_mut(WALK_GROUP * m);
    for group in groups.by_ref() {
        walk_group::<WALK_GROUP>(support, tau, group, m, off);
    }
    for col in groups.into_remainder().chunks_exact_mut(m) {
        walk_group::<1>(support, tau, col, m, off);
    }
}

/// Collect the ascending `(i, v[i])` with `i >= 1` and `v[i] != 0` into
/// `support` — if they are at most half of `v`; otherwise leave
/// `support` alone and return `false`. Counted first, so that a full
/// reflector pays one vectorized pass and no store.
fn collect_support(v: &[f64], support: &mut Vec<(usize, f64)>) -> bool {
    let nnz = v[1..].iter().filter(|&&vi| vi != 0.0).count();
    if 2 * nnz > v.len() {
        return false;
    }
    // Branch-free compaction: every entry is written at the cursor and
    // only a nonzero advances it, so the slot past the last pair
    // absorbs the trailing zeros.
    support.clear();
    support.resize(nnz + 1, (0, 0.0));
    let mut n = 0;
    for (i, &vi) in v.iter().enumerate().skip(1) {
        support[n] = (i, vi);
        n += usize::from(vi != 0.0);
    }
    support.truncate(nnz);
    true
}

/// `body` on `cols`: one `grain`-long chunk to a parallel task of `par`,
/// or — `None` — on the calling thread as a whole, opening no region
/// (`lra-par`'s cost recording counts a region as work that scales).
fn on_chunks(
    par: Option<Parallelism>,
    cols: &mut [f64],
    grain: usize,
    body: impl Fn(&mut [f64]) + Sync,
) {
    match par {
        Some(par) => parallel_chunks_mut(par, cols, grain, |_, chunk| body(chunk)),
        None => body(cols),
    }
}

/// Apply the reflector `(v, tau)` (`v.len() == m - off`) to rows
/// `off..` of every `m`-long column of the column-major `cols`: with
/// `Some(par)` one group of columns to a parallel chunk (`qr`, `Q B`),
/// with `None` on the calling thread (`qrcp`, the SVD reference).
/// `tau == 0` (`H = I`) opens no region.
///
/// The walk is taken when at least [`WALK_GROUP`] columns are there to
/// be updated and at most half of `v` is nonzero, the sweep otherwise.
/// `support` is the caller's scratch for the walk's pairs, one
/// allocation per factorization.
pub(crate) fn apply_reflector(
    par: Option<Parallelism>,
    v: &[f64],
    tau: f64,
    cols: &mut [f64],
    m: usize,
    off: usize,
    support: &mut Vec<(usize, f64)>,
) {
    if tau == 0.0 {
        return;
    }
    if cols.len() >= WALK_GROUP * m && collect_support(v, support) {
        let support = &support[..];
        on_chunks(par, cols, WALK_GROUP * m, |chunk| walk_cols(support, tau, chunk, m, off));
    } else {
        on_chunks(par, cols, GROUP * m, |chunk| sweep_cols(v, tau, chunk, m, off));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One entry in eleven is `0.0`, one is `-0.0`.
    fn column(len: usize, salt: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + salt * 13) % 11 {
                0 => 0.0,
                1 => -0.0,
                h => h as f64 / 3.7 - 1.4,
            })
            .collect()
    }

    /// [`column`] with all but every `keep`-th entry set to `0.0`.
    fn sparse_column(len: usize, salt: usize, keep: usize) -> Vec<f64> {
        let mut c = column(len, salt);
        for (i, x) in c.iter_mut().enumerate() {
            if !(i + salt).is_multiple_of(keep) {
                *x = 0.0;
            }
        }
        c
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sweep_cols_is_apply_on_every_column_bit_for_bit() {
        for m in [2usize, 5, 40] {
            for off in [0, (m - 1) / 2, m - 2] {
                let mut v = column(m - off, 1);
                let tau = make_householder(&mut v);
                assert_ne!(tau, 0.0, "the entry never sweeps an identity");
                for ncols in 0..=2 * GROUP + 1 {
                    let cols: Vec<f64> = (0..ncols).flat_map(|j| column(m, j + 2)).collect();
                    let mut grouped = cols.clone();
                    sweep_cols(&v, tau, &mut grouped, m, off);
                    let mut single = cols.clone();
                    for col in single.chunks_exact_mut(m) {
                        apply(&v, tau, &mut col[off..]);
                    }
                    assert_eq!(bits(&grouped), bits(&single), "m={m} off={off} n={ncols}");
                }
            }
        }
    }

    /// The entry takes the walk for a sparse reflector over at least
    /// [`WALK_GROUP`] columns and the sweep otherwise; on columns free
    /// of `-0.0` both are [`apply`] bit for bit, on columns holding it
    /// the walk may keep the sign of a zero the sweep loses.
    #[test]
    fn the_entry_is_apply_on_every_column_whichever_way_it_walks() {
        let mut support = Vec::new();
        for m in [2usize, 9, 40, 130] {
            for off in [0, m / 2] {
                for keep in [1usize, 2, 3, 7] {
                    let mut v = sparse_column(m - off, 1, keep);
                    v[0] = 1.25;
                    let tau = make_householder(&mut v);
                    let nnz = v[1..].iter().filter(|&&x| x != 0.0).count();
                    for ncols in [0, 1, WALK_GROUP - 1, WALK_GROUP, 2 * WALK_GROUP + 3] {
                        let walks = tau != 0.0 && ncols >= WALK_GROUP && 2 * nnz <= v.len();
                        for negative_zeros in [false, true] {
                            let mut cols: Vec<f64> =
                                (0..ncols).flat_map(|j| sparse_column(m, j + 2, 1 + j % 3)).collect();
                            if !negative_zeros {
                                cols.iter_mut().filter(|x| **x == 0.0).for_each(|x| *x = 0.0);
                            }
                            let mut single = cols.clone();
                            for col in single.chunks_exact_mut(m) {
                                apply(&v, tau, &mut col[off..]);
                            }
                            for np in 0..=3 {
                                let mut got = cols.clone();
                                let par = (np > 0).then(|| Parallelism::new(np));
                                apply_reflector(par, &v, tau, &mut got, m, off, &mut support);
                                let tag = format!("m={m} off={off} keep={keep} n={ncols} np={np}");
                                if walks && negative_zeros {
                                    assert_eq!(got, single, "{tag}");
                                } else {
                                    assert_eq!(bits(&got), bits(&single), "{tag}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A zero term the walk skips is the one place the two differ in
    /// kind: `0 * inf` is NaN in the sweep, nothing in the walk. Either
    /// way the column stays non-finite.
    #[test]
    fn a_non_finite_column_stays_non_finite_under_the_walk() {
        let m = 16;
        let mut v = vec![0.0; m];
        (v[0], v[3]) = (1.0, 2.0);
        let tau = make_householder(&mut v);
        let mut cols = vec![1.0; WALK_GROUP * m];
        cols[5] = f64::INFINITY; // column 0, a row the reflector is zero on
        cols[m + 3] = f64::INFINITY; // column 1, a row it is nonzero on
        apply_reflector(None, &v, tau, &mut cols, m, 0, &mut Vec::new());
        assert_eq!(cols[5], f64::INFINITY, "the walk never touches the entry");
        assert!(cols[m..2 * m].iter().any(|x| !x.is_finite()));
        assert!(cols[2 * m..].iter().all(|x| x.is_finite()));
    }
}
