//! Rank-revealing quality tests for tournament pivoting across many
//! seeds: the selected columns' smallest singular value must stay
//! within a bounded factor of the best achievable (the `q(m, n, k)`
//! polynomial bound of Grigori et al., eq. 16 of the paper, is loose;
//! in practice the ratio is modest, which is what these tests pin).
//! The sketched tree (leaves and merges ranking `Ω^T A`) is held to the
//! same bound, and to the work it saves: the area its nodes factor.

use lra::dense::{matmul, singular_values, DenseMatrix};
use lra::matgen::{circuit, fluid_block, with_decay_rank};
use lra::par::Parallelism;
use lra::qrtp::{
    tournament_columns, tournament_columns_sketched, ColumnSelection, Omega, Sketch,
    TournamentTree,
};
use lra::sparse::{CooMatrix, CscMatrix};

mod common;
use common::{shuffled, SplitMix64};

fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

/// sigma_min of the selected k columns, relative to the k-th singular
/// value of the whole matrix (the unbeatable reference).
fn selection_quality(a: &DenseMatrix, selected: &[usize]) -> f64 {
    let k = selected.len();
    let picked = a.select_columns(selected);
    let sv_sel = singular_values(&picked);
    let sv_all = singular_values(a);
    sv_sel[k - 1] / sv_all[k - 1].max(f64::MIN_POSITIVE)
}

/// Low-rank-plus-noise, 80 x 58 at rank `k`: a hard case for column
/// selection.
fn low_rank_plus_noise(k: usize, seed: u64) -> DenseMatrix {
    let base = rand_dense(80, k, seed * 3 + 1);
    let mix = rand_dense(k, 58, seed * 3 + 2);
    let mut a = matmul(&base, &mix, Parallelism::SEQ);
    let noise = rand_dense(80, 58, seed * 3 + 3);
    a.axpy(0.01, &noise);
    a
}

/// The sketched tournament over all of `a`, sketched with `r = 2k` rows
/// as LU_CRTP's first iteration sketches its input.
fn sketched(a: &CscMatrix, k: usize, par: Parallelism) -> ColumnSelection {
    let row_ids: Vec<usize> = (0..a.rows()).collect();
    let mut sketch = Sketch::default();
    let omega = Omega::new(a.rows(), 2 * k);
    omega.sketch(&row_ids, a.cols(), |j| a.col(j), &mut sketch, par);
    tournament_columns_sketched(a, &sketch, k, par)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn quality_bounded_over_many_seeds() {
    let k = 6;
    let mut worst = f64::INFINITY;
    for seed in 0..20u64 {
        let a = low_rank_plus_noise(k, seed);
        let sp = CscMatrix::from_dense(&a);
        let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
        let q = selection_quality(&a, &sel.selected);
        worst = worst.min(q);
        assert!(q > 0.02, "seed {seed}: quality {q} collapsed");
    }
    // Across all seeds the typical quality is far better than the
    // worst-case exponential bound suggests.
    assert!(worst > 0.02, "worst quality {worst}");
}

/// The same seeds through the sketched tree: its 80-row leaves are
/// longer than the 64-row floor on exact panels (the sketch has 12
/// rows), so every leaf and merge ranks its sketch, and the selection
/// keeps the exact tree's bound and stays within 2 x of its median
/// quality.
#[test]
fn sketched_quality_bounded_over_many_seeds() {
    let k = 6;
    let (mut exact, mut sk) = (Vec::new(), Vec::new());
    for seed in 0..20u64 {
        let a = low_rank_plus_noise(k, seed);
        let sp = CscMatrix::from_dense(&a);
        let sel = sketched(&sp, k, Parallelism::SEQ);
        assert!(sel.area.exact == 0 && sel.area.sketched > 0, "seed {seed}: {:?}", sel.area);
        let q = selection_quality(&a, &sel.selected);
        assert!(q > 0.02, "seed {seed}: sketched quality {q} collapsed");
        sk.push(q);
        let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
        exact.push(selection_quality(&a, &sel.selected));
    }
    let (exact, sk) = (median(exact), median(sk));
    assert!(sk > exact / 2.0, "median quality: sketched {sk} against exact {exact}");
}

/// Each node of the sketched tree is sequential and the sketch's
/// columns are independent, so the selection and its `r_diag` are the
/// same bits for any worker count, on an input whose tree ranks both
/// sketches and short exact panels.
#[test]
fn sketched_selection_is_the_same_for_any_worker_count() {
    // Dense columns among the first 60, three entries a column after.
    let mut a = common::rand_sparse(400, 300, 3, 21).to_dense();
    for j in 0..30 {
        for (i, x) in rand_dense(400, 1, 100 + j as u64).col(0).iter().enumerate() {
            a.set(i, 2 * j, *x);
        }
    }
    let a = CscMatrix::from_dense(&a);
    let one = sketched(&a, 8, Parallelism::new(1));
    assert!(one.area.exact > 0 && one.area.sketched > 0, "{:?}", one.area);
    for np in 2..=4 {
        let sel = sketched(&a, 8, Parallelism::new(np));
        assert_eq!(sel.selected, one.selected, "np={np}");
        let bits = |s: &ColumnSelection| s.r_diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sel), bits(&one), "np={np}");
        assert_eq!(sel.area, one.area, "np={np}");
    }
}

/// The first tournament of a `tp_sparse`-shaped (2 400², 8 entries a
/// column) and a `fill_dense`-shaped (1 200², 71 a column) shuffled
/// input at k = 32: the sketched tree factors at most half the area
/// the exact tree does.
#[test]
fn sketched_tree_factors_at_most_half_the_exact_area() {
    let inputs = [
        ("tp_sparse", with_decay_rank(&circuit(2400, 5, 20, 103), 1e-6, 700, 13)),
        ("fill_dense", with_decay_rank(&fluid_block(30, 40, 102), 1e-6, 500, 12)),
    ];
    for (what, a) in inputs {
        let a = shuffled(&a, 7);
        let par = Parallelism::new(2);
        let exact = tournament_columns(&a, None, 32, TournamentTree::Binary, par).area;
        assert_eq!(exact.sketched, 0, "{what}");
        let sk = sketched(&a, 32, par).area;
        assert!(
            2 * sk.total() <= exact.total(),
            "{what}: sketched area {sk:?} against exact {exact:?}"
        );
    }
}

/// A nearly empty ILUT complement, as M5′'s is after its first drop
/// (about 5 000 entries over 7 900 columns, k = 64, a 128-row sketch):
/// a node ranks its exact panel only when its support has at most
/// `max(128, 64)` rows, and sketches it otherwise. The tree is replayed
/// node by node — each leaf and merge of more than k candidates as the
/// one node of a tournament over its columns — and every node's area
/// follows the rule, both kinds occur, and the nodes sum to the tree's
/// area; that tree factors no more area than the all-exact tree over
/// the same candidates.
#[test]
fn nearly_empty_complement_ranks_only_short_nodes_exactly() {
    let (m, n, k) = (8000, 7900, 64);
    let mut rng = SplitMix64(5);
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..5000 {
        let (i, j) = (rng.below(m), rng.below(n));
        coo.push(i, j, (rng.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
    }
    let a = coo.to_csc();
    let par = Parallelism::new(2);
    let sel = sketched(&a, k, par);
    assert_eq!(sel.selected.len(), k);
    // (exact area, sketched area, exact nodes, sketched nodes)
    let mut sum = (0u64, 0u64, 0, 0);
    let mut node = |cand: &[usize]| -> Vec<usize> {
        let (support, c) = (a.row_support(cand).len() as u64, cand.len() as u64);
        let want = match support <= 2 * k as u64 {
            true => (support * c, 0),
            false => (0, 2 * k as u64 * c),
        };
        let exact = usize::from(want.1 == 0);
        sum = (sum.0 + want.0, sum.1 + want.1, sum.2 + exact, sum.3 + 1 - exact);
        if cand.len() <= k {
            return cand.to_vec();
        }
        let one = sketched(&a.select_columns(cand), k, par);
        let what = format!("{} candidates, support {support}", cand.len());
        assert_eq!((one.area.exact, one.area.sketched), want, "{what}");
        one.selected.iter().map(|&p| cand[p]).collect()
    };
    let stored: Vec<usize> = (0..n).filter(|&j| !a.col(j).0.is_empty()).collect();
    let mut level: Vec<Vec<usize>> = stored.chunks(2 * k).map(&mut node).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => node(&[l.as_slice(), r].concat()),
                _ => pair[0].clone(),
            })
            .collect();
    }
    let (exact_area, sketched_area, exact_nodes, sketched_nodes) = sum;
    let nodes = format!("{exact_nodes} exact, {sketched_nodes} sketched");
    assert!(exact_nodes > 0 && sketched_nodes > 0, "{nodes}");
    assert_eq!((exact_area, sketched_area), (sel.area.exact, sel.area.sketched));
    let (mut got, mut replayed) = (sel.selected.clone(), level.swap_remove(0));
    got.sort_unstable();
    replayed.sort_unstable();
    assert_eq!(got, replayed, "the replayed tree's winners");
    let exact = tournament_columns(&a, Some(&stored), k, TournamentTree::Binary, par).area;
    assert_eq!(exact.sketched, 0);
    assert!(sel.area.total() <= exact.total(), "{:?} against all-exact {exact:?}", sel.area);
}

#[test]
fn graded_spectrum_selection() {
    // Columns scaled by a geometric sequence: the tournament must pick
    // (mostly) the heavy columns.
    for seed in [1u64, 5, 9] {
        let n = 64;
        let mut a = rand_dense(90, n, seed);
        for j in 0..n {
            let w = 0.8f64.powi(j as i32);
            for x in a.col_mut(j) {
                *x *= w;
            }
        }
        let sp = CscMatrix::from_dense(&a);
        let k = 8;
        let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
        // All winners among the heaviest 3k columns.
        assert!(
            sel.selected.iter().all(|&c| c < 3 * k),
            "picked light columns: {:?}",
            sel.selected
        );
    }
}

#[test]
fn r_diag_tracks_singular_values_loosely() {
    // The rank-revealing property: |R_ii| of the winners approximates
    // sigma_i of A within modest factors (cf. eq. 16 / Table of
    // Grigori et al.).
    let a = rand_dense(100, 60, 42);
    let sp = CscMatrix::from_dense(&a);
    let k = 10;
    let sel = tournament_columns(&sp, None, k, TournamentTree::Binary, Parallelism::SEQ);
    let sv = singular_values(&a);
    for (i, &rd) in sel.r_diag.iter().enumerate() {
        let ratio = rd.abs() / sv[i];
        assert!(
            ratio > 0.05 && ratio < 2.0,
            "R({i},{i}) = {rd} vs sigma_{i} = {} (ratio {ratio})",
            sv[i]
        );
    }
}
