//! Dense matrix-matrix products (the `El::Gemm` substitute).
//!
//! Three orientations cover every use in the low-rank algorithms:
//! `C = A B` (sketch application), `C = A^T B` (projections
//! `B_K = Q_K^T A`, Gram-type products) and `C = A B^T` (subtracting
//! `Q_K (B_K Omega)` style corrections). The `C (-)= A B'` family
//! parallelizes over *row blocks* of the output through `lra-par` —
//! the products of the algorithms are tall and skinny, so rows are the
//! only dimension with enough work to share — and `C = A^T B` over
//! output columns.
//!
//! # Blocked micro-kernels and the bitwise-summation contract
//!
//! The public kernels are cache-blocked and register-tiled: output
//! columns are processed in [`NR`]-wide tiles and output rows in
//! [`MR`]-tall blocks, with the `MR x NR` accumulator tile held in
//! registers across the whole inner-dimension sweep. Only the i/j
//! *output* dimensions are tiled — the k-accumulation of every output
//! element runs in the exact order of the naive reference
//! ([`matmul_naive`] and friends), including the skip of exactly-zero
//! `B` entries, so the blocked kernels are **bitwise identical** to the
//! naive loops for every shape and worker count. That contract is what
//! lets the SPMD drivers keep their sharded-vs-replicated bitwise
//! oracle while the kernels go fast; it is pinned by the property tests
//! in `crates/dense/tests/blocked_kernels.rs` and, for tier-1, by
//! `blocked_gemm_matches_naive_bitwise_for_every_np_and_width` in
//! `tests/properties.rs`.

use crate::isa::TileIsa;
use crate::{DenseMatrix, DenseView};
use lra_par::{parallel_chunks_mut, parallel_for, Parallelism};

/// Register-tile height: output rows accumulated per tile (one cache
/// line of `f64`, two 4-lane vector registers).
const MR: usize = 8;
/// Register-tile width: output columns sharing each loaded `A` block.
const NR: usize = 4;
/// Column-block width of the tile sweep: a row-block task runs all its
/// packed `A` panels against [`NC`] output columns before it moves to
/// the next [`NC`], so the `NC * k` doubles of packed `B` it reads stay
/// L2-resident (at the benchmarked `k = 512`) instead of the whole
/// `n * k`.
const NC: usize = 64;
/// Smallest grain (output columns per task) for the column-parallel
/// loops ([`matmul_tn`] and the naive references) — a multiple of
/// [`NR`] so full-width tiles form inside every task.
const COL_GRAIN: usize = 8;
/// Most rows of `A` a task packs at a time.
const MC: usize = 256;
/// Doubles of packed `A` a task holds at a time (512 KiB, half a small
/// L2): wide inner dimensions shrink the row block below [`MC`].
const A_PACK: usize = 64 * 1024;
/// Doubles of `B` one packing chunk handles: small right-hand factors
/// (`32 x 32` coefficients) are packed inline, without a region.
const B_PACK_GRAIN: usize = 16 * 1024;

/// Rows per task of the blocked driver: whole [`MR`] panels, at most
/// [`MC`] rows and [`A_PACK`] packed doubles, and few enough that every
/// worker finds several blocks to claim — when a worker is descheduled
/// the other takes its blocks, which one block per worker would
/// strand. Every output element is produced by one tile call that
/// sweeps the full inner dimension, so the grain never shows in the
/// bits.
fn row_block(m: usize, k: usize, par: Parallelism) -> usize {
    let fits = A_PACK / k / MR * MR;
    let share = m.div_ceil(4 * par.np()).next_multiple_of(MR);
    fits.min(share).clamp(MR, MC)
}

/// `C = A * B`.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    gemm_blocked::<false>(&mut c, a.into(), par, |l, j| b.col(j)[l]);
    c
}

/// `C = A * B^T`.
pub fn matmul_nt(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dimension mismatch");
    let mut c = DenseMatrix::zeros(a.rows(), b.rows());
    // B^T(l, j) = B(j, l): the packing pass is the only strided read.
    gemm_blocked::<false>(&mut c, a.into(), par, |l, j| b.get(j, l));
    c
}

/// `C -= A * B` in place (used for `A Omega - Q (B Omega)` updates).
/// `A` may be a column block of a wider matrix ([`DenseView`]).
pub fn matmul_sub_assign<'a>(
    c: &mut DenseMatrix,
    a: impl Into<DenseView<'a>>,
    b: &DenseMatrix,
    par: Parallelism,
) {
    let a = a.into();
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    gemm_blocked::<true>(c, a, par, |l, j| b.col(j)[l]);
}

/// The effective right-hand factor `B'` (`k x n`, entry `(l, j)` read
/// through `b_at`) packed for the tile kernels: tile `t` covers output
/// columns `t*NR..` and is stored as `k` rows of [`NR`] values (lanes
/// past `n` zero), so a sweep reads one contiguous `NR`-row per `l`,
/// followed by one flag word — nonzero when an active lane of the tile
/// holds an exact zero, which is what the bitwise kernels pick their
/// sweep from. Values are copied verbatim. Tiles are packed in
/// parallel, [`B_PACK_GRAIN`] doubles to a chunk; returns the buffer
/// and the tile stride `NR * k + 1`.
fn pack_b(
    k: usize,
    n: usize,
    par: Parallelism,
    b_at: impl Fn(usize, usize) -> f64 + Sync,
) -> (Vec<f64>, usize) {
    let stride = NR * k + 1;
    let mut packed = vec![0.0f64; n.div_ceil(NR) * stride];
    let tiles_per_chunk = (B_PACK_GRAIN / stride).max(1);
    parallel_chunks_mut(par, &mut packed, tiles_per_chunk * stride, |chunk, tiles| {
        for (t, tile) in tiles.chunks_exact_mut(stride).enumerate() {
            let j0 = (chunk * tiles_per_chunk + t) * NR;
            let mut any_zero = false;
            for jj in 0..NR.min(n - j0) {
                for l in 0..k {
                    let v = b_at(l, j0 + jj);
                    tile[l * NR + jj] = v;
                    any_zero |= v == 0.0;
                }
            }
            tile[NR * k] = f64::from(u8::from(any_zero));
        }
    });
    (packed, stride)
}

/// Shared blocked driver for the `C (-)= A * B'` family. `B'` is packed
/// once ([`pack_b`]); then every task owns [`row_block`] rows of `C`,
/// repacks *its* rows of `A` into a task-local buffer of `MR`-tall row
/// panels (`ap[p]` holds rows `p*MR..p*MR+MR` for every `l`, contiguous
/// in `l`, so a tile's k-sweep reads a sequential stream instead of
/// striding by `m`; ragged bottom panels are zero-padded, and the pad
/// lanes are never written back), and sweeps the tile kernels over it.
/// Nothing proportional to `m * k` is allocated or copied outside the
/// tasks. Packing copies values verbatim and every output element is
/// one tile call over the full inner dimension in ascending order, so
/// the blocking is pure locality — the arithmetic, and hence the
/// bitwise contract, is untouched. `SUB` selects subtract-accumulate,
/// which preloads the existing `C` tile so the update order matches
/// the naive in-place loop.
fn gemm_blocked<const SUB: bool>(
    c: &mut DenseMatrix,
    a: DenseView<'_>,
    par: Parallelism,
    b_at: impl Fn(usize, usize) -> f64 + Sync,
) {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    if m == 0 || n == 0 || k == 0 {
        // Nothing to accumulate: `C` stays zero-initialized (matmul
        // variants) or untouched (sub-assign), exactly like the naive
        // loops, whose bodies also never run.
        return;
    }
    let isa = TileIsa::pick();
    let a_data = a.as_slice();
    let (bp, stride) = pack_b(k, n, par, b_at);
    let ntiles = n.div_ceil(NR);
    let mc = row_block(m, k, par);
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, m.div_ceil(mc), 1, |blocks| {
        let mut ap = vec![0.0f64; mc * k];
        for block in blocks {
            let i0 = block * mc;
            let rows = mc.min(m - i0);
            for (l, col) in a_data.chunks_exact(m).enumerate() {
                for (p, seg) in col[i0..i0 + rows].chunks(MR).enumerate() {
                    let dst = &mut ap[p * MR * k + l * MR..][..MR];
                    dst[..seg.len()].copy_from_slice(seg);
                    dst[seg.len()..].fill(0.0);
                }
            }
            // Panel-outer sweep inside each column block: a packed A
            // panel is streamed once per NC columns and reused across
            // all their tiles.
            for tc in (0..ntiles).step_by(NC / NR) {
                let panels = ap.chunks_exact(MR * k).take(rows.div_ceil(MR));
                for (p, panel) in panels.enumerate() {
                    for t in tc..(tc + NC / NR).min(ntiles) {
                        let j0 = t * NR;
                        let (btt, flag) = bp[t * stride..(t + 1) * stride].split_at(NR * k);
                        let az = flag[0] != 0.0;
                        // SAFETY: this task owns output rows
                        // `i0..i0+rows`; the tile at (i0 + p*MR, j0)
                        // covers at most MR of them and `n - j0 <= NR`
                        // columns of the `m x n` buffer behind `c_ptr`.
                        unsafe {
                            let cp = c_ptr as *mut f64;
                            let i = i0 + p * MR;
                            match n - j0 {
                                1 => tile_dispatch::<1, SUB>(isa, cp, m, i, j0, panel, btt, az),
                                2 => tile_dispatch::<2, SUB>(isa, cp, m, i, j0, panel, btt, az),
                                3 => tile_dispatch::<3, SUB>(isa, cp, m, i, j0, panel, btt, az),
                                _ => tile_dispatch::<4, SUB>(isa, cp, m, i, j0, panel, btt, az),
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Route one tile to the copy selected by [`TileIsa::pick`]. Both
/// share one fp chain: [`tile_n`] in scalar source, [`tile_n_avx2`] in
/// explicit `f64x4` intrinsics that issue the same mul-then-add per
/// lane (no FMA contraction — this is what keeps the wide path inside
/// the bitwise contract).
///
/// # Safety
/// Same contract as [`tile_n`].
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_dispatch<const JW: usize, const SUB: bool>(
    isa: TileIsa,
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        TileIsa::Avx2 => tile_n_avx2::<JW, SUB>(c_ptr, m, i0, j0, panel, bt, any_zero),
        _ => tile_n::<JW, SUB>(c_ptr, m, i0, j0, panel, bt, any_zero),
    }
}

/// AVX2 copy of [`tile_n`] written in explicit `f64x4` intrinsics: the
/// `MR x JW` accumulator tile lives in two `__m256d` registers per
/// output column, and each k step broadcasts `B`'s scalar and issues a
/// vector multiply followed by a *separate* vector add/sub — the same
/// mul-then-add rounding per lane as the scalar source, which is what
/// keeps this copy inside the bitwise contract (no FMA contraction is
/// possible because none is written). The per-`(l, j)` zero skip stays
/// a scalar branch on the broadcast value, taken exactly when the
/// scalar zero-aware sweep would take it. Ragged bottom panels
/// (`iw < MR`) stage `C` through a zero-padded stack tile so vector
/// loads and stores never touch rows past `m`; the pad lanes carry the
/// same (discarded) values as the scalar kernel's pad slots.
///
/// # Safety
/// Same contract as [`tile_n`]; additionally the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_n_avx2<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    debug_assert_eq!(MR, 8, "two f64x4 lanes per output column");
    let iw = MR.min(m - i0);
    let mut acc: [[__m256d; 2]; JW] = [[_mm256_setzero_pd(); 2]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            if iw == MR {
                accj[0] = _mm256_loadu_pd(cj);
                accj[1] = _mm256_loadu_pd(cj.add(4));
            } else {
                let mut pad = [0.0f64; MR];
                for (ii, slot) in pad.iter_mut().take(iw).enumerate() {
                    *slot = *cj.add(ii);
                }
                accj[0] = _mm256_loadu_pd(pad.as_ptr());
                accj[1] = _mm256_loadu_pd(pad.as_ptr().add(4));
            }
        }
    }
    for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
        let a_lo = _mm256_loadu_pd(av.as_ptr());
        let a_hi = _mm256_loadu_pd(av.as_ptr().add(4));
        for (jj, accj) in acc.iter_mut().enumerate() {
            let blj = bl[jj];
            if any_zero && blj == 0.0 {
                continue;
            }
            let bv = _mm256_broadcast_sd(&blj);
            if SUB {
                accj[0] = _mm256_sub_pd(accj[0], _mm256_mul_pd(bv, a_lo));
                accj[1] = _mm256_sub_pd(accj[1], _mm256_mul_pd(bv, a_hi));
            } else {
                accj[0] = _mm256_add_pd(accj[0], _mm256_mul_pd(bv, a_lo));
                accj[1] = _mm256_add_pd(accj[1], _mm256_mul_pd(bv, a_hi));
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        if iw == MR {
            _mm256_storeu_pd(cj, accj[0]);
            _mm256_storeu_pd(cj.add(4), accj[1]);
        } else {
            let mut pad = [0.0f64; MR];
            _mm256_storeu_pd(pad.as_mut_ptr(), accj[0]);
            _mm256_storeu_pd(pad.as_mut_ptr().add(4), accj[1]);
            for (ii, &v) in pad.iter().take(iw).enumerate() {
                *cj.add(ii) = v;
            }
        }
    }
}

/// One `MR x JW` tile of the blocked `C (-)= A * B'` kernel against a
/// single packed `A` row panel (rows `i0..i0+MR`, see
/// [`gemm_blocked`]), holding the accumulator tile in registers while
/// each output element accumulates over the *full* inner dimension in
/// ascending order (the bitwise contract), with the per-`(l, j)` zero
/// skip of the naive reference. `any_zero` is the caller's pre-scan of
/// the B tile's active lanes: the zero skip only matters when a zero
/// is actually present.
///
/// # Safety
/// `c_ptr` must point to a column-major `m x >= j0+JW` buffer whose
/// rows `i0..min(i0+MR, m)` of columns `j0..j0+JW` are exclusively
/// owned by the caller (nothing else is read or written); `panel` must
/// hold one packed `MR x k` panel covering rows `i0..i0+MR` (with
/// `i0 < m`, ragged tail zero-padded) and `bt` a `k x NR` row-major B
/// tile (columns past `JW` ignored); `any_zero` must be true if any
/// active lane of `bt` is zero.
#[inline(always)]
unsafe fn tile_n<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    let iw = MR.min(m - i0);
    // Pad lanes (iw..MR) stay zero end to end: zero-initialized
    // here, fed zero-padded `A` values in the sweep, skipped on
    // write-back.
    let mut acc = [[0.0f64; MR]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            for (ii, slot) in accj.iter_mut().take(iw).enumerate() {
                *slot = *cj.add(ii);
            }
        }
    }
    if !any_zero {
        // Branch-free sweep: every `blj` is nonzero, so the naive
        // kernel would never skip — the arithmetic is identical.
        for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
            let av: &[f64; MR] = av.try_into().unwrap();
            let bl: &[f64; NR] = bl.try_into().unwrap();
            for (jj, accj) in acc.iter_mut().enumerate() {
                let blj = bl[jj];
                if SUB {
                    for ii in 0..MR {
                        accj[ii] -= blj * av[ii];
                    }
                } else {
                    for ii in 0..MR {
                        accj[ii] += blj * av[ii];
                    }
                }
            }
        }
    } else {
        // Zero-aware sweep preserving the naive kernel's exact
        // per-`(l, j)` skip (needed bitwise: `x + 0.0*a` is not
        // always `x`, e.g. for `-0.0` accumulators or non-finite
        // `a` — including the zero-padded tail panel lanes).
        for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
            let av: &[f64; MR] = av.try_into().unwrap();
            let bl: &[f64; NR] = bl.try_into().unwrap();
            for (jj, accj) in acc.iter_mut().enumerate() {
                let blj = bl[jj];
                if blj == 0.0 {
                    continue;
                }
                if SUB {
                    for ii in 0..MR {
                        accj[ii] -= blj * av[ii];
                    }
                } else {
                    for ii in 0..MR {
                        accj[ii] += blj * av[ii];
                    }
                }
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        for (ii, &v) in accj.iter().take(iw).enumerate() {
            *cj.add(ii) = v;
        }
    }
}

/// `C = A^T * B`. `A` may be a column block of a wider matrix
/// ([`DenseView`]).
pub fn matmul_tn<'a>(
    a: impl Into<DenseView<'a>>,
    b: &DenseMatrix,
    par: Parallelism,
) -> DenseMatrix {
    let a = a.into();
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dimension mismatch");
    let m = a.cols();
    let n = b.cols();
    let inner = a.rows();
    let isa = TileIsa::pick();
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        // SAFETY: this task exclusively owns output columns `range`.
        unsafe {
            match isa {
                #[cfg(target_arch = "x86_64")]
                TileIsa::Avx2 => tn_range_avx2(c_ptr as *mut f64, m, inner, a_data, b_data, range),
                _ => tn_range(c_ptr as *mut f64, m, inner, a_data, b_data, range),
            }
        }
    });
    c
}

/// AVX2-compiled copy of [`tn_range`] (lanewise mul/add only — see
/// [`tile_dispatch`] for why this stays bitwise-identical).
///
/// # Safety
/// Same contract as [`tn_range`]; additionally the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tn_range_avx2(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    tn_range(c_ptr, m, inner, a_data, b_data, range)
}

/// One task's worth of `C = A^T B` output columns.
///
/// # Safety
/// `c_ptr` must point to a column-major `m x n` buffer whose columns
/// `range` are exclusively owned by the caller, with `range.end <= n`.
#[inline(always)]
unsafe fn tn_range(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    {
        let mut j0 = range.start;
        while j0 < range.end {
            let jw = (range.end - j0).min(NR);
            let mut i0 = 0usize;
            while i0 + NR <= m && jw == NR {
                // Full 4x4 dot tile: 16 independent accumulation
                // chains hide mul/add latency; each chain runs over the
                // inner dimension in ascending order (bitwise contract).
                let mut acc = [[0.0f64; NR]; NR];
                let mut ac: [&[f64]; NR] = [&[]; NR];
                let mut bc: [&[f64]; NR] = [&[]; NR];
                for (t, (acs, bcs)) in ac.iter_mut().zip(bc.iter_mut()).enumerate() {
                    *acs = &a_data[(i0 + t) * inner..(i0 + t + 1) * inner];
                    *bcs = &b_data[(j0 + t) * inner..(j0 + t + 1) * inner];
                }
                for l in 0..inner {
                    for (ii, accrow) in acc.iter_mut().enumerate() {
                        let ail = ac[ii][l];
                        for (jj, slot) in accrow.iter_mut().enumerate() {
                            *slot += ail * bc[jj][l];
                        }
                    }
                }
                for jj in 0..NR {
                    // SAFETY: this task owns output columns `range`.
                    let cj = unsafe {
                        std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m)
                    };
                    for (ii, accrow) in acc.iter().enumerate() {
                        cj[i0 + ii] = accrow[jj];
                    }
                }
                i0 += NR;
            }
            // Tails (i remainder, or tiles narrower than NR): plain
            // dot products, same ascending-l order per element.
            for jj in 0..jw {
                // SAFETY: disjoint output columns within this task.
                let cj = unsafe {
                    std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m)
                };
                let bj = &b_data[(j0 + jj) * inner..(j0 + jj + 1) * inner];
                for (i, ci) in cj.iter_mut().enumerate().skip(i0) {
                    let ai = &a_data[i * inner..(i + 1) * inner];
                    let mut dot = 0.0;
                    for l in 0..inner {
                        dot += ai[l] * bj[l];
                    }
                    *ci = dot;
                }
            }
            j0 += jw;
        }
    }
}

// ---------------------------------------------------------------------
// Naive references. These are the semantic definition of the blocked
// kernels above: same k-accumulation order per output element, same
// zero skips. Kept callable so the bitwise property test and the
// kernel benchmark can compare against them.
// ---------------------------------------------------------------------

/// Naive axpy-ordered `C = A * B` — the bitwise reference for
/// [`matmul`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let k = a.cols();
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: each output column j is owned by exactly one task.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for l in 0..k {
                let blj = bj[l];
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci += blj * ai;
                }
            }
        }
    });
    c
}

/// Naive dot-product `C = A^T * B` — the bitwise reference for
/// [`matmul_tn`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_tn_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dimension mismatch");
    let m = a.cols();
    let n = b.cols();
    let inner = a.rows();
    let mut c = DenseMatrix::zeros(m, n);
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for (i, ci) in cj.iter_mut().enumerate() {
                let ai = a.col(i);
                let mut dot = 0.0;
                for l in 0..inner {
                    dot += ai[l] * bj[l];
                }
                *ci = dot;
            }
        }
    });
    c
}

/// Naive `C = A * B^T` — the bitwise reference for [`matmul_nt`]. Not
/// part of the supported API surface.
#[doc(hidden)]
pub fn matmul_nt_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dimension mismatch");
    let m = a.rows();
    let n = b.rows();
    let k = a.cols();
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            for l in 0..k {
                // B^T(l, j) = B(j, l)
                let blj = b.get(j, l);
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci += blj * ai;
                }
            }
        }
    });
    c
}

/// Naive in-place `C -= A * B` — the bitwise reference for
/// [`matmul_sub_assign`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_sub_assign_naive(
    c: &mut DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    par: Parallelism,
) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    let m = a.rows();
    let n = b.cols();
    let k = a.cols();
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for l in 0..k {
                let blj = bj[l];
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci -= blj * ai;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Tiny deterministic LCG so this module needs no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_bitwise_eq(a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_mat(13, 7, 1);
        let b = rand_mat(7, 9, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        let c_ref = naive_matmul(&a, &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
        let c_par = matmul(&a, &b, Parallelism::new(4));
        assert!(c_par.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn blocked_bitwise_equals_naive_reference() {
        // Shapes straddling the MR/NR tile boundaries.
        for (m, k, n, seed) in [
            (1, 1, 1, 1u64),
            (8, 4, 4, 2),
            (9, 5, 7, 3),
            (16, 16, 16, 4),
            (23, 11, 13, 5),
            (7, 3, 2, 6),
        ] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            assert_bitwise_eq(
                &matmul(&a, &b, Parallelism::new(3)),
                &matmul_naive(&a, &b, Parallelism::SEQ),
            );
            let at = rand_mat(k, m, seed + 200);
            assert_bitwise_eq(
                &matmul_tn(&at, &rand_mat(k, n, seed + 300), Parallelism::new(2)),
                &matmul_tn_naive(&at, &rand_mat(k, n, seed + 300), Parallelism::SEQ),
            );
            let bt = rand_mat(n, k, seed + 400);
            assert_bitwise_eq(
                &matmul_nt(&a, &bt, Parallelism::new(4)),
                &matmul_nt_naive(&a, &bt, Parallelism::SEQ),
            );
            let mut c1 = rand_mat(m, n, seed + 500);
            let mut c2 = c1.clone();
            matmul_sub_assign(&mut c1, &a, &b, Parallelism::new(3));
            matmul_sub_assign_naive(&mut c2, &a, &b, Parallelism::SEQ);
            assert_bitwise_eq(&c1, &c2);
        }
    }

    #[test]
    fn matmul_tn_matches_naive() {
        let a = rand_mat(11, 6, 3);
        let b = rand_mat(11, 5, 4);
        let c = matmul_tn(&a, &b, Parallelism::new(3));
        let c_ref = naive_matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn matmul_nt_matches_naive() {
        let a = rand_mat(8, 6, 5);
        let b = rand_mat(10, 6, 6);
        let c = matmul_nt(&a, &b, Parallelism::new(2));
        let c_ref = naive_matmul(&a, &b.transpose());
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn sub_assign_matches() {
        let a = rand_mat(7, 5, 8);
        let b = rand_mat(5, 6, 9);
        let mut c = rand_mat(7, 6, 10);
        let expected = {
            let mut e = c.clone();
            e.axpy(-1.0, &naive_matmul(&a, &b));
            e
        };
        matmul_sub_assign(&mut c, &a, &b, Parallelism::new(4));
        assert!(c.max_abs_diff(&expected) < 1e-13);
    }

    #[test]
    fn empty_dims() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 2);
        let a = DenseMatrix::zeros(4, 0);
        let b = DenseMatrix::zeros(0, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        assert_eq!(c.max_abs(), 0.0);
    }
}
