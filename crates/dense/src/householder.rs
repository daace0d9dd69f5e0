//! Householder reflectors: the one kernel under `qr`, `qrcp`, TSQR's
//! leaves and root, and the bidiagonalization of the SVD reference.
//!
//! A reflector `H = I - tau v v^T` is stored LAPACK-style: `v[0] = 1`
//! is implicit and the slot holds other data. Applying it to a column
//! `c` is one dot product `w = c[0] + sum_i v[i] c[i]` accumulated in
//! ascending `i` — a single floating-point dependency chain — followed
//! by an axpy. That order is the arithmetic of every factorization in
//! the workspace, so it never changes; what [`apply_cols`] changes is
//! how many *columns* are in flight: it walks [`GROUP`] columns
//! together, so that their independent chains overlap in the pipeline,
//! while every column still sees exactly the additions of [`apply`] in
//! exactly its order. Grouping therefore cannot show in the bits.

/// Columns [`apply_cols`] carries through one sweep. Picked once, by
/// `qr` of 4000 x 32 (the `dense.qr_s` probe's shape), interleaved
/// best-of in one process: one column 1.98 ms, two 1.37, four 1.24,
/// eight 1.33 — past four the chains no longer wait on each other and
/// a wider group only lengthens the one-column tail.
pub(crate) const GROUP: usize = 4;

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
pub(crate) fn apply(v: &[f64], tau: f64, c: &mut [f64]) {
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

/// Apply the reflector `(v, tau)` to rows `off..` of every `m`-long
/// column of the column-major `cols` (`v.len() == m - off`): [`GROUP`]
/// columns at a time, the remainder one by one through [`apply`].
pub(crate) fn apply_cols(v: &[f64], tau: f64, cols: &mut [f64], m: usize, off: usize) {
    if tau == 0.0 {
        return;
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn column(len: usize, salt: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + salt * 13) % 11 {
                0 => 0.0,
                1 => -0.0,
                h => h as f64 / 3.7 - 1.4,
            })
            .collect()
    }

    #[test]
    fn apply_cols_is_apply_on_every_column_bit_for_bit() {
        for m in [1usize, 2, 5, 40] {
            for off in [0, m / 2, m - 1] {
                let mut v = column(m - off, 1);
                let tau = make_householder(&mut v);
                for ncols in 0..=2 * GROUP + 1 {
                    let cols: Vec<f64> = (0..ncols).flat_map(|j| column(m, j + 2)).collect();
                    for tau in [tau, 0.0] {
                        let mut grouped = cols.clone();
                        apply_cols(&v, tau, &mut grouped, m, off);
                        let mut single = cols.clone();
                        for col in single.chunks_exact_mut(m) {
                            apply(&v, tau, &mut col[off..]);
                        }
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&grouped), bits(&single), "m={m} off={off} n={ncols}");
                    }
                }
            }
        }
    }
}
