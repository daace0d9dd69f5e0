//! Householder reflectors: the one kernel under `qr`, `qrcp`, TSQR's
//! leaves and root, and the bidiagonalization of the SVD reference.
//!
//! A reflector `H = I - tau v v^T` is stored LAPACK-style: `v[0] = 1`
//! is implicit and the slot holds other data. Applying it to a column
//! `c` is one dot product `w = c[0] + sum_i v[i] c[i]` accumulated in
//! ascending `i` — a single floating-point dependency chain — followed
//! by an axpy. That order is the arithmetic of every factorization in
//! the workspace, so it never changes.
//!
//! # The lane panel
//!
//! The columns a reflector updates live in a [`LanePanel`]: grouped in
//! fours ([`LANES`]) and interleaved by row, so that entry `(i, j)` of
//! group `g = j / 4` sits at `(g m + i) 4 + j % 4`; the ragged last group
//! is zero-padded. One row of a group is one 4-wide vector, and a step
//! of the dot is one vector multiply and a separate add (no FMA) that
//! advance four columns' chains at once — each lane running exactly the
//! one-column chain above, in its order. Up to [`IN_FLIGHT`] groups
//! advance together, so sixteen independent chains fill the pipeline
//! where one column's chain would leave both FP ports idle. The group
//! that holds the reflector's own column is updated under a lane mask:
//! its lanes at and left of that column keep their bits.
//!
//! The kernels read the reflector itself contiguously:
//! [`LanePanel::make_reflector`] copies its column into a slice the
//! caller owns and forms it there. `qr` stores it back below the
//! diagonal once it has been applied ([`LanePanel::put_reflector`]),
//! `qrcp` straight into its column-major factors. The sweep of column
//! `j`'s reflector also carries the sum of squares column `j + 1`'s
//! reflector starts from, in the same ascending order, so that chain
//! runs beside the axpy instead of after it.
//!
//! [`apply_reflector`], the one entry, has two ways to walk the chain
//! and picks per reflector, from the reflector:
//!
//! * the *sweep* visits every `i`;
//! * the *walk* visits only the `i` with `v[i] != 0`, still ascending,
//!   when at most half of `v` is nonzero and at least
//!   [`WALK_MIN_COLS`] columns are there to update. A skipped term is
//!   `w + 0 * c[i] = w` and `c[i] - w * 0 = c[i]`, and a lane whose
//!   chain ends at `w == 0` is left unwritten (`c - 0 * v = c`): the
//!   additions left out are the ones that change nothing, so the walk
//!   is the same arithmetic, not an approximation of it. A tournament
//!   node's panel (a few entries per column on its row support), two
//!   stacked triangles and the triangular `R` that `qrcp` ranks are
//!   mostly such terms.
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
//!
//! Both kernels come in two copies picked at runtime by [`TileIsa`]:
//! explicit AVX2 intrinsics, and portable source for every other CPU.
//! They issue the same multiply-then-add per lane, so they agree bit
//! for bit; the unit tests run both on every operand.

use crate::isa::TileIsa;
use crate::DenseMatrix;
use lra_par::{parallel_chunks_mut, Parallelism};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Columns interleaved in one lane group: one 4-wide vector of `f64`
/// per row.
pub(crate) const LANES: usize = 4;

/// Lane groups one kernel call carries through a reflector.
const IN_FLIGHT: usize = 4;

/// The fewest columns the walk is taken for: under eight (the k = 2 /
/// k = 4 panels of the job engine) counting and collecting the support
/// costs more than the zeros it skips.
const WALK_MIN_COLS: usize = 8;

/// One row of a lane group.
type Row = [f64; LANES];

/// Every lane of a group written.
const ALL: [bool; LANES] = [true; LANES];

/// A `rows x cols` matrix in the reflector kernels' layout: columns
/// grouped in fours and interleaved by row, entry `(i, j)` in lane
/// `j % 4` of row `(j / 4) * rows + i` of `data`. Lanes past `cols` are
/// zero-padded and never read back.
#[derive(Clone, Debug)]
pub(crate) struct LanePanel {
    rows: usize,
    cols: usize,
    data: Vec<Row>,
}

impl LanePanel {
    /// All-zero `rows x cols` panel.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        LanePanel {
            rows,
            cols,
            data: vec![[0.0; LANES]; rows * cols.div_ceil(LANES)],
        }
    }

    /// `a` in lane layout, values copied verbatim: each row of a group
    /// written whole, in one pass over the group's columns.
    pub(crate) fn from_dense(a: &DenseMatrix) -> Self {
        let (m, n) = (a.rows(), a.cols());
        if m == 0 {
            return Self::zeros(m, n);
        }
        let mut data = Vec::with_capacity(m * n.div_ceil(LANES));
        for (g, cols) in a.as_slice().chunks(LANES * m).enumerate() {
            let c = |l: usize| cols[l * m..(l + 1) * m].iter();
            match (n - g * LANES).min(LANES) {
                4 => data.extend(
                    c(0).zip(c(1))
                        .zip(c(2))
                        .zip(c(3))
                        .map(|(((&x0, &x1), &x2), &x3)| [x0, x1, x2, x3]),
                ),
                3 => data.extend(
                    c(0).zip(c(1))
                        .zip(c(2))
                        .map(|((&x0, &x1), &x2)| [x0, x1, x2, 0.0]),
                ),
                2 => data.extend(c(0).zip(c(1)).map(|(&x0, &x1)| [x0, x1, 0.0, 0.0])),
                _ => data.extend(c(0).map(|&x0| [x0, 0.0, 0.0, 0.0])),
            }
        }
        LanePanel {
            rows: m,
            cols: n,
            data,
        }
    }

    /// The column-major matrix, values copied verbatim.
    pub(crate) fn to_dense(&self) -> DenseMatrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            data.extend(self.col(j, 0));
        }
        DenseMatrix::from_column_major(self.rows, self.cols, data)
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j / LANES * self.rows + i][j % LANES]
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, x: f64) {
        self.data[j / LANES * self.rows + i][j % LANES] = x;
    }

    /// Rows `from..` of column `j`, top down.
    pub(crate) fn col(&self, j: usize, from: usize) -> impl Iterator<Item = f64> + '_ {
        let g = j / LANES * self.rows;
        self.data[g + from..g + self.rows]
            .iter()
            .map(move |row| row[j % LANES])
    }

    /// Rows `from..` of column `j`, top down, for writing.
    pub(crate) fn col_mut(&mut self, j: usize, from: usize) -> impl Iterator<Item = &mut f64> {
        let g = j / LANES * self.rows;
        self.data[g + from..g + self.rows]
            .iter_mut()
            .map(move |row| &mut row[j % LANES])
    }

    /// Exchange columns `a < b`.
    pub(crate) fn swap_cols(&mut self, a: usize, b: usize) {
        let m = self.rows;
        let (la, lb) = (a % LANES, b % LANES);
        let (head, tail) = self.data.split_at_mut(b / LANES * m);
        if a / LANES == b / LANES {
            tail[..m].iter_mut().for_each(|row| row.swap(la, lb));
        } else {
            let ga = &mut head[a / LANES * m..][..m];
            for (x, y) in ga.iter_mut().zip(&mut tail[..m]) {
                std::mem::swap(&mut x[la], &mut y[lb]);
            }
        }
    }

    /// Copy rows `j..` of column `j` into `v` (`v.len() == rows - j`)
    /// and turn them into a reflector there ([`make_householder`]); the
    /// column's leading entry becomes `beta`, the rows below it are left
    /// as they are — the kernels read the reflector contiguously from
    /// `v` ([`LanePanel::put_reflector`] stores it). Returns `tau`.
    /// `tail_sq` is the sum of squares of rows `j + 1..` when the
    /// previous reflector's sweep has already formed it
    /// ([`apply_reflector`]).
    pub(crate) fn make_reflector(&mut self, j: usize, v: &mut [f64], tail_sq: Option<f64>) -> f64 {
        for (x, y) in v.iter_mut().zip(self.col(j, j)) {
            *x = y;
        }
        let tau = match tail_sq {
            Some(tail_sq) => householder_from(v, tail_sq),
            None => make_householder(v),
        };
        self.set(j, j, v[0]);
        tau
    }

    /// Store the tail of reflector `j` (`v` as [`LanePanel::make_reflector`]
    /// left it) below the diagonal of column `j`.
    pub(crate) fn put_reflector(&mut self, j: usize, v: &[f64]) {
        for (x, &y) in self.col_mut(j, j + 1).zip(&v[1..]) {
            *x = y;
        }
    }
}

/// Generate a Householder reflector for the vector `x` (in place).
///
/// On return `x[0]` holds `beta` (the new leading entry) and `x[1..]`
/// the reflector tail `v[1..]` (with `v[0] = 1` implicit). Returns
/// `tau`; `tau == 0` means the column was already in triangular form.
pub(crate) fn make_householder(x: &mut [f64]) -> f64 {
    let tail_sq = x[1..].iter().map(|v| v * v).sum();
    householder_from(x, tail_sq)
}

/// [`make_householder`] given `tail_sq`, the sum of `x[i]^2` over
/// `i >= 1` in ascending `i`.
fn householder_from(x: &mut [f64], tail_sq: f64) -> f64 {
    let alpha = x[0];
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
/// slice `c` of equal length: the one-column formula every kernel here
/// reproduces lane by lane.
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

/// How a kernel walks the reflector's rows.
#[derive(Clone, Copy)]
enum Path<'a> {
    /// Every row of `v`.
    Sweep(&'a [f64]),
    /// The ascending `(i, v[i])` with `i >= 1` and `v[i] != 0`.
    Walk(&'a [(usize, f64)]),
}

/// Apply the reflector `(v, tau)` to rows `m - v.len()..` of columns
/// `from..` of `panel`: with `Some(par)` a run of lane groups to a
/// parallel chunk (`qr`, `Q B`), with `None` on the calling thread
/// (`qrcp`, the SVD reference). `tau == 0` (`H = I`) opens no region.
/// `support` is the caller's scratch for the walk's pairs, one
/// allocation per factorization.
///
/// `next` is set by a factorization that applies column `from - 1`'s
/// reflector (rows `from - 1..`) and generates column `from`'s next: a
/// sweep then also returns the sum of squares of rows `from + 1..` of
/// column `from`, in ascending order — the chain [`make_householder`]
/// would run, accumulated while the rows are written, where it costs no
/// latency of its own.
pub(crate) fn apply_reflector(
    par: Option<Parallelism>,
    v: &[f64],
    tau: f64,
    panel: &mut LanePanel,
    from: usize,
    next: bool,
    support: &mut Vec<(usize, f64)>,
) -> Option<f64> {
    apply_on(TileIsa::pick(), par, v, tau, panel, from, next, support)
}

/// [`apply_reflector`] on the kernel copy `isa` names.
#[allow(clippy::too_many_arguments)]
fn apply_on(
    isa: TileIsa,
    par: Option<Parallelism>,
    v: &[f64],
    tau: f64,
    panel: &mut LanePanel,
    from: usize,
    next: bool,
    support: &mut Vec<(usize, f64)>,
) -> Option<f64> {
    let (m, n) = (panel.rows, panel.cols);
    if tau == 0.0 || from >= n {
        return None;
    }
    let off = m - v.len();
    debug_assert!(
        !next || off + 1 == from,
        "the next reflector starts one row down"
    );
    let path = if n - from >= WALK_MIN_COLS && collect_support(v, support) {
        Path::Walk(support)
    } else {
        Path::Sweep(v)
    };
    let first: [bool; LANES] = std::array::from_fn(|l| l >= from % LANES);
    // Set by the one head run; the region's join orders it before the
    // read below.
    let (tail_set, tail_sq) = (AtomicBool::new(false), AtomicU64::new(0));
    let ngroups = n.div_ceil(LANES) - from / LANES;
    let groups = &mut panel.data[from / LANES * m..];
    // A chunk of `per_chunk` groups (fewer in the last): runs of up to
    // `IN_FLIGHT` of them.
    let body = |per_chunk: usize, chunk: usize, groups: &mut [Row]| {
        let count = per_chunk.min(ngroups - chunk * per_chunk);
        for r in (0..count).step_by(IN_FLIGHT) {
            let width = IN_FLIGHT.min(count - r);
            let run = &mut groups[r * m..(r + width) * m];
            // Column `from` is lane `from % 4` of the first run's group 0.
            let head = chunk == 0 && r == 0;
            let keep = if head { first } else { ALL };
            let norm = head && next;
            let sums = match width {
                1 => kernel::<1>(isa, path, tau, run, m, off, keep, norm),
                2 => kernel::<2>(isa, path, tau, run, m, off, keep, norm),
                3 => kernel::<3>(isa, path, tau, run, m, off, keep, norm),
                _ => kernel::<IN_FLIGHT>(isa, path, tau, run, m, off, keep, norm),
            };
            if let Some(sums) = sums {
                tail_sq.store(sums[from % LANES].to_bits(), Ordering::Relaxed);
                tail_set.store(true, Ordering::Relaxed);
            }
        }
    };
    match par {
        // Chunks of whole groups, as many as there are workers, at
        // most one kernel run each.
        Some(par) => {
            let per_chunk = ngroups.div_ceil(par.np()).clamp(1, IN_FLIGHT);
            parallel_chunks_mut(par, groups, per_chunk * m, |c, chunk| {
                body(per_chunk, c, chunk)
            });
        }
        // On the calling thread as a whole, opening no region
        // (`lra-par`'s cost recording counts a region as work that
        // scales).
        None => body(ngroups, 0, groups),
    }
    tail_set
        .into_inner()
        .then(|| f64::from_bits(tail_sq.into_inner()))
}

/// One kernel call over the `G` groups of `run` (rows `off..` of each),
/// on the copy `isa` names; lanes of group 0 where `keep` is false are
/// left alone. With `norm`, a sweep returns per lane of group 0 the sum
/// of squares of its rows `off + 2..` as written.
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel<const G: usize>(
    isa: TileIsa,
    path: Path<'_>,
    tau: f64,
    run: &mut [Row],
    m: usize,
    off: usize,
    keep: [bool; LANES],
    norm: bool,
) -> Option<Row> {
    assert_eq!(run.len(), G * m, "a run holds G groups of m rows");
    let v = match (isa, path) {
        // SAFETY: `isa` is `Avx2` only where the CPU has AVX2
        // (`TileIsa::pick`); `run` holds `G` groups of `m` rows (asserted
        // above); the reflector's rows, `v` and the support alike, end at
        // row `m` (`off = m - v.len()`, every support `i < v.len()`).
        #[cfg(target_arch = "x86_64")]
        (TileIsa::Avx2, Path::Walk(s)) => {
            unsafe { walk_avx2::<G>(s, tau, run, m, off, keep) };
            return None;
        }
        (_, Path::Walk(s)) => {
            walk::<G>(s, tau, run, m, off, keep);
            return None;
        }
        (_, Path::Sweep(v)) => v,
    };
    let sums = match (isa, norm) {
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        (TileIsa::Avx2, false) => unsafe { sweep_avx2::<G, false>(v, tau, run, m, keep) },
        #[cfg(target_arch = "x86_64")]
        (TileIsa::Avx2, true) => unsafe { sweep_avx2::<G, true>(v, tau, run, m, keep) },
        (_, false) => sweep::<G, false>(v, tau, run, m, keep),
        (_, true) => sweep::<G, true>(v, tau, run, m, keep),
    };
    norm.then_some(sums)
}

/// The `G` groups of `run`, each from row `off` down.
fn groups_from<const G: usize>(run: &mut [Row], m: usize, off: usize) -> [&mut [Row]; G] {
    let mut groups = run.chunks_exact_mut(m);
    std::array::from_fn(|_| &mut groups.next().expect("G groups")[off..])
}

/// The portable sweep: every row of `v` (`v.len() <= m`), each lane
/// the one-column formula; with `NORM`, the sums of squares of group
/// 0's rows `2..` (from the first row of `v`) as written.
fn sweep<const G: usize, const NORM: bool>(
    v: &[f64],
    tau: f64,
    run: &mut [Row],
    m: usize,
    keep: [bool; LANES],
) -> Row {
    // `-0.0`, where `Iterator::sum` starts.
    let mut sums = [-0.0; LANES];
    let mut c = groups_from::<G>(run, m, m - v.len());
    let mut w: [Row; G] = std::array::from_fn(|t| c[t][0]);
    for (i, &vi) in v.iter().enumerate().skip(1) {
        for (wt, ct) in w.iter_mut().zip(&c) {
            for (x, &y) in wt.iter_mut().zip(&ct[i]) {
                *x += vi * y;
            }
        }
    }
    for (t, (wt, ct)) in w.iter_mut().zip(&mut c).enumerate() {
        let keep = if t == 0 { keep } else { ALL };
        wt.iter_mut().for_each(|x| *x *= tau);
        for l in (0..LANES).filter(|&l| keep[l]) {
            ct[0][l] -= wt[l];
            for (i, (row, &vi)) in ct[1..].iter_mut().zip(&v[1..]).enumerate() {
                row[l] -= wt[l] * vi;
                if NORM && t == 0 && i >= 1 {
                    sums[l] += row[l] * row[l];
                }
            }
        }
    }
    sums
}

/// The portable walk: the rows of `support` below row `off`, each lane
/// the one-column formula; a lane whose `w` comes out `0.0` is left
/// unwritten.
fn walk<const G: usize>(
    support: &[(usize, f64)],
    tau: f64,
    run: &mut [Row],
    m: usize,
    off: usize,
    keep: [bool; LANES],
) {
    let mut c = groups_from::<G>(run, m, off);
    let mut w: [Row; G] = std::array::from_fn(|t| c[t][0]);
    for &(i, vi) in support {
        for (wt, ct) in w.iter_mut().zip(&c) {
            for (x, &y) in wt.iter_mut().zip(&ct[i]) {
                *x += vi * y;
            }
        }
    }
    for (t, (wt, ct)) in w.iter().zip(&mut c).enumerate() {
        let keep = if t == 0 { keep } else { ALL };
        for l in 0..LANES {
            let wl = wt[l] * tau;
            if !keep[l] || wl == 0.0 {
                continue;
            }
            ct[0][l] -= wl;
            for &(i, vi) in support {
                ct[i][l] -= wl * vi;
            }
        }
    }
}

/// `keep` as a blend mask: a set sign bit selects the new value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blend_mask(keep: [bool; LANES]) -> std::arch::x86_64::__m256d {
    let signs = keep.map(|k| if k { -1.0 } else { 1.0 });
    // SAFETY: `signs` holds four `f64`.
    unsafe { std::arch::x86_64::_mm256_loadu_pd(signs.as_ptr()) }
}

/// AVX2 copy of [`sweep`]: the `G` groups' `w` in one `__m256d` each,
/// one vector multiply and a *separate* add per row and group — the
/// rounding of the portable lanes, since no FMA is written — and the
/// axpy's stores to group 0 blended under `keep`; `NORM`'s sums ride
/// along in one more vector chain.
///
/// # Safety
/// The CPU must support AVX2; `run` must hold `G` groups of `m` rows
/// and `1 <= v.len() <= m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<const G: usize, const NORM: bool>(
    v: &[f64],
    tau: f64,
    run: &mut [Row],
    m: usize,
    keep: [bool; LANES],
) -> Row {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_blendv_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    debug_assert!(run.len() == G * m && !v.is_empty() && v.len() <= m);
    let len = v.len();
    let stride = m * LANES;
    let c0 = run.as_mut_ptr().add(m - len).cast::<f64>();
    let mut w = [_mm256_setzero_pd(); G];
    for (t, wt) in w.iter_mut().enumerate() {
        *wt = _mm256_loadu_pd(c0.add(t * stride));
    }
    for i in 1..len {
        let vi = _mm256_set1_pd(*v.get_unchecked(i));
        let ci = c0.add(i * LANES);
        for (t, wt) in w.iter_mut().enumerate() {
            *wt = _mm256_add_pd(*wt, _mm256_mul_pd(vi, _mm256_loadu_pd(ci.add(t * stride))));
        }
    }
    let tau = _mm256_set1_pd(tau);
    for wt in &mut w {
        *wt = _mm256_mul_pd(*wt, tau);
    }
    let keep = blend_mask(keep);
    for (t, &wt) in w.iter().enumerate() {
        let p = c0.add(t * stride);
        let old = _mm256_loadu_pd(p);
        let new = _mm256_sub_pd(old, wt);
        _mm256_storeu_pd(
            p,
            if t == 0 {
                _mm256_blendv_pd(old, new, keep)
            } else {
                new
            },
        );
    }
    let mut sums = _mm256_set1_pd(-0.0);
    for i in 1..len {
        let vi = _mm256_set1_pd(*v.get_unchecked(i));
        let ci = c0.add(i * LANES);
        for (t, &wt) in w.iter().enumerate() {
            let p = ci.add(t * stride);
            let old = _mm256_loadu_pd(p);
            let mut new = _mm256_sub_pd(old, _mm256_mul_pd(wt, vi));
            if t == 0 {
                new = _mm256_blendv_pd(old, new, keep);
                if NORM && i >= 2 {
                    sums = _mm256_add_pd(sums, _mm256_mul_pd(new, new));
                }
            }
            _mm256_storeu_pd(p, new);
        }
    }
    let mut out = [0.0; LANES];
    _mm256_storeu_pd(out.as_mut_ptr(), sums);
    out
}

/// AVX2 copy of [`walk`]: the chains as in [`sweep_avx2`] over the rows
/// of `support`; the axpy blended under `keep` (group 0) and `w != 0`,
/// and skipped for a group with no lane to write.
///
/// # Safety
/// The CPU must support AVX2; `run` must hold `G` groups of `m` rows,
/// `off < m`, and every `i` of `support` must satisfy `off + i < m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_avx2<const G: usize>(
    support: &[(usize, f64)],
    tau: f64,
    run: &mut [Row],
    m: usize,
    off: usize,
    keep: [bool; LANES],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _CMP_NEQ_UQ,
    };
    debug_assert!(run.len() == G * m && off < m);
    debug_assert!(support.iter().all(|&(i, _)| off + i < m));
    let stride = m * LANES;
    let c0 = run.as_mut_ptr().add(off).cast::<f64>();
    let mut w = [_mm256_setzero_pd(); G];
    for (t, wt) in w.iter_mut().enumerate() {
        *wt = _mm256_loadu_pd(c0.add(t * stride));
    }
    for &(i, vi) in support {
        let vi = _mm256_set1_pd(vi);
        let ci = c0.add(i * LANES);
        for (t, wt) in w.iter_mut().enumerate() {
            *wt = _mm256_add_pd(*wt, _mm256_mul_pd(vi, _mm256_loadu_pd(ci.add(t * stride))));
        }
    }
    let tau = _mm256_set1_pd(tau);
    let keep = blend_mask(keep);
    for (t, &wt) in w.iter().enumerate() {
        let wt = _mm256_mul_pd(wt, tau);
        // `!(w == 0)`: a NaN `w` writes, as the one-column walk does.
        let mut write = _mm256_cmp_pd(wt, _mm256_setzero_pd(), _CMP_NEQ_UQ);
        if t == 0 {
            write = _mm256_and_pd(write, keep);
        }
        if _mm256_movemask_pd(write) == 0 {
            continue;
        }
        let ct = c0.add(t * stride);
        let old = _mm256_loadu_pd(ct);
        _mm256_storeu_pd(ct, _mm256_blendv_pd(old, _mm256_sub_pd(old, wt), write));
        for &(i, vi) in support {
            let p = ct.add(i * LANES);
            let old = _mm256_loadu_pd(p);
            let new = _mm256_sub_pd(old, _mm256_mul_pd(wt, _mm256_set1_pd(vi)));
            _mm256_storeu_pd(p, _mm256_blendv_pd(old, new, write));
        }
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

    /// The kernel copies this CPU can run: the portable one always.
    fn isas() -> Vec<TileIsa> {
        let mut isas = vec![TileIsa::Base];
        if TileIsa::pick() == TileIsa::Avx2 {
            isas.push(TileIsa::Avx2);
        }
        isas
    }

    /// `apply_on` over the `m`-long columns of the column-major `cols`
    /// from column `from`, through a lane panel; the columns after it
    /// and the next reflector's sum of squares.
    #[allow(clippy::too_many_arguments)]
    fn through_lanes(
        isa: TileIsa,
        par: Option<Parallelism>,
        v: &[f64],
        tau: f64,
        cols: &[f64],
        m: usize,
        from: usize,
        next: bool,
    ) -> (Vec<f64>, Option<f64>) {
        let a = DenseMatrix::from_column_major(m, cols.len() / m, cols.to_vec());
        let mut panel = LanePanel::from_dense(&a);
        let tail_sq = apply_on(isa, par, v, tau, &mut panel, from, next, &mut Vec::new());
        (panel.to_dense().as_slice().to_vec(), tail_sq)
    }

    #[test]
    fn the_lane_panel_round_trips_every_value() {
        for (m, n) in [(0usize, 3usize), (3, 0), (1, 1), (5, 4), (7, 9), (2, 13)] {
            let a = DenseMatrix::from_fn(m, n, |i, j| column(m * n + 1, j)[i] + j as f64);
            let p = LanePanel::from_dense(&a);
            assert_eq!(bits(p.to_dense().as_slice()), bits(a.as_slice()), "{m}x{n}");
            for j in 0..n {
                let col: Vec<f64> = p.col(j, 0).collect();
                assert_eq!(bits(&col), bits(a.col(j)), "{m}x{n} column {j}");
            }
        }
    }

    /// Every copy of the kernels, through the entry, for every worker
    /// count, is [`apply`] on each column from `from` on and leaves the
    /// columns before it alone — across group edges (`from` inside a
    /// group is the lane mask), for one to nine groups and a ragged
    /// last one, with sparse reflectors that take the walk over eight
    /// or more columns. On columns free of `-0.0` bit for bit, on
    /// columns holding it the walk may keep the sign of a zero the
    /// sweep loses. The copies agree with each other bit for bit
    /// everywhere. Where the reflector's rows start one above column
    /// `from`'s next reflector, a sweep also hands back that reflector's
    /// sum of squares, bit for bit the one [`make_householder`] forms.
    #[test]
    fn every_kernel_copy_is_apply_on_every_column_whichever_way_it_walks() {
        for m in [2usize, 9, 40, 130] {
            for off in [0, m / 2, m - 1] {
                for keep in [1usize, 2, 3, 7] {
                    let mut v = sparse_column(m - off, 1, keep);
                    v[0] = 1.25;
                    let tau = make_householder(&mut v);
                    let nnz = v[1..].iter().filter(|&&x| x != 0.0).count();
                    for ncols in [0usize, 1, 3, 4, 5, 8, 9, 12, 16, 17, 33] {
                        let mut froms = vec![0usize, 1, 3, 4, 6, off + 1];
                        froms.retain(|&f| f <= ncols);
                        froms.dedup();
                        for from in froms {
                            let walks = tau != 0.0 && ncols - from >= 8 && 2 * nnz <= v.len();
                            let next = off + 1 == from;
                            for negative_zeros in [false, true] {
                                let mut cols: Vec<f64> = (0..ncols)
                                    .flat_map(|j| sparse_column(m, j + 2, 1 + j % 3))
                                    .collect();
                                if !negative_zeros {
                                    cols.iter_mut()
                                        .filter(|x| **x == 0.0)
                                        .for_each(|x| *x = 0.0);
                                }
                                let mut single = cols.clone();
                                for col in single.chunks_exact_mut(m).skip(from) {
                                    apply(&v, tau, &mut col[off..]);
                                }
                                let swept = next && tau != 0.0 && from < ncols && !walks;
                                let tail_sq = swept.then(|| {
                                    let col = &single[from * m..(from + 1) * m];
                                    col[from + 1..].iter().map(|x| x * x).sum::<f64>()
                                });
                                let mut first: Option<Vec<f64>> = None;
                                for isa in isas() {
                                    for np in 0..=3 {
                                        let par = (np > 0).then(|| Parallelism::new(np));
                                        let (got, got_sq) =
                                            through_lanes(isa, par, &v, tau, &cols, m, from, next);
                                        let tag = format!(
                                            "{isa:?} m={m} off={off} keep={keep} n={ncols} \
                                             from={from} np={np}"
                                        );
                                        if walks && negative_zeros {
                                            assert_eq!(got, single, "{tag}");
                                        } else {
                                            assert_eq!(bits(&got), bits(&single), "{tag}");
                                        }
                                        assert_eq!(
                                            got_sq.map(f64::to_bits),
                                            tail_sq.map(f64::to_bits),
                                            "{tag}: tail"
                                        );
                                        let first = first.get_or_insert_with(|| got.clone());
                                        assert_eq!(bits(&got), bits(first), "{tag}: copies differ");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A zero term the walk skips is the one place the two paths differ
    /// in kind: `0 * inf` is NaN in the sweep, nothing in the walk.
    /// Either way the column stays non-finite, on every copy.
    #[test]
    fn a_non_finite_column_stays_non_finite_under_the_walk() {
        let m = 16;
        let mut v = vec![0.0; m];
        (v[0], v[3]) = (1.0, 2.0);
        let tau = make_householder(&mut v);
        let mut cols = vec![1.0; WALK_MIN_COLS * m];
        cols[5] = f64::INFINITY; // column 0, a row the reflector is zero on
        cols[m + 3] = f64::INFINITY; // column 1, a row it is nonzero on
        for isa in isas() {
            let (got, _) = through_lanes(isa, None, &v, tau, &cols, m, 0, false);
            assert_eq!(
                got[5],
                f64::INFINITY,
                "{isa:?}: the walk never touches the entry"
            );
            assert!(got[m..2 * m].iter().any(|x| !x.is_finite()), "{isa:?}");
            assert!(got[2 * m..].iter().all(|x| x.is_finite()), "{isa:?}");
        }
    }
}
