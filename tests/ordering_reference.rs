//! `lra::ordering::colamd` against the plain greedy formulation it
//! replaced, permutation for permutation.
//!
//! The reference below is the earlier body, kept here verbatim: a
//! lazily invalidated `BinaryHeap` of `(score, column, stamp)` tuples,
//! and after every elimination a `retain` of each union column's row
//! list followed by a full rescoring from that list. The crate's
//! version keeps the scores current incrementally in an indexed heap;
//! both pop the live column of minimum `(score, column)`, so the two
//! permutations must agree entry for entry on every input.

use lra::ordering::colamd;
use lra::sparse::CscMatrix;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod common;
use common::SplitMix64;

struct Row {
    cols: Vec<usize>,
    alive: bool,
}

fn colamd_reference(a: &CscMatrix) -> Vec<usize> {
    let m = a.rows();
    let n = a.cols();
    if n == 0 {
        return Vec::new();
    }
    let at = a.transpose();
    let dense_row_cap = ((10.0 * (n as f64).sqrt()) as usize).max(16);
    let dense_col_cap = ((10.0 * (m as f64).sqrt()) as usize).max(16);
    let mut rows: Vec<Row> = (0..m)
        .map(|i| {
            let (ci, _) = at.col(i);
            Row {
                cols: ci.to_vec(),
                alive: ci.len() <= dense_row_cap && !ci.is_empty(),
            }
        })
        .collect();
    let mut col_rows: Vec<Vec<usize>> = (0..n).map(|j| a.col(j).0.to_vec()).collect();
    let col_dense: Vec<bool> = (0..n).map(|j| col_rows[j].len() > dense_col_cap).collect();
    let mut col_alive = vec![true; n];

    let score_of = |col_rows_j: &[usize], rows: &[Row]| -> usize {
        let mut s = 0usize;
        for &r in col_rows_j {
            if rows[r].alive {
                s += rows[r].cols.len().saturating_sub(1);
            }
        }
        s.min(usize::MAX / 2)
    };
    let mut stamp = vec![0u64; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize, u64)>> = BinaryHeap::new();
    for j in 0..n {
        let s = if col_dense[j] {
            usize::MAX / 2 + col_rows[j].len()
        } else {
            score_of(&col_rows[j], &rows)
        };
        heap.push(Reverse((s, j, 0)));
    }

    let mut perm = Vec::with_capacity(n);
    let mut mark = vec![false; n];
    while let Some(Reverse((_, c, st))) = heap.pop() {
        if !col_alive[c] || st != stamp[c] {
            continue;
        }
        col_alive[c] = false;
        perm.push(c);
        if perm.len() == n {
            break;
        }
        let mut union: Vec<usize> = Vec::new();
        let mut touched_rows: Vec<usize> = Vec::new();
        for &r in &col_rows[c] {
            if !rows[r].alive {
                continue;
            }
            touched_rows.push(r);
            for &j in &rows[r].cols {
                if col_alive[j] && !mark[j] {
                    mark[j] = true;
                    union.push(j);
                }
            }
        }
        for &j in &union {
            mark[j] = false;
        }
        if touched_rows.is_empty() {
            continue;
        }
        for &r in &touched_rows {
            rows[r].alive = false;
        }
        union.sort_unstable();
        let elem = rows.len();
        let elem_alive = union.len() <= dense_row_cap && !union.is_empty();
        rows.push(Row {
            cols: union.clone(),
            alive: elem_alive,
        });
        for &j in &union {
            let list = &mut col_rows[j];
            list.retain(|&r| rows[r].alive);
            if elem_alive {
                list.push(elem);
            }
            if !col_dense[j] {
                let s = score_of(list, &rows);
                stamp[j] += 1;
                heap.push(Reverse((s, j, stamp[j])));
            }
        }
    }
    perm
}

/// Compare without printing two whole permutations on a mismatch.
fn assert_same_order(a: &CscMatrix, what: &str) {
    let (got, want) = (colamd(a), colamd_reference(a));
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(p) = (0..got.len()).find(|&p| got[p] != want[p]) {
        panic!(
            "{what}: first difference at position {p}: column {} where the reference has {}",
            got[p], want[p]
        );
    }
}

fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// A pattern matrix (all values 1) from per-column row sets.
fn pattern(m: usize, cols: &[std::collections::BTreeSet<usize>]) -> CscMatrix {
    let mut colptr = vec![0];
    let mut rowidx = Vec::new();
    for c in cols {
        rowidx.extend(c.iter().copied());
        colptr.push(rowidx.len());
    }
    let values = vec![1.0; rowidx.len()];
    CscMatrix::from_parts(m, cols.len(), colptr, rowidx, values)
}

/// A hostile pattern: a sparse base with empty columns, then heavy rows
/// and heavy columns (over the dense caps once `m`, `n` pass ~130),
/// then copies of columns, which tie on score.
fn hostile_pattern(m: usize, n: usize, seed: u64) -> CscMatrix {
    let mut rng = SplitMix64(seed);
    let mut cols = vec![std::collections::BTreeSet::new(); n];
    if m > 0 {
        for col in cols.iter_mut() {
            for _ in 0..rng.below(5) {
                col.insert(rng.below(m));
            }
        }
        for _ in 0..rng.below(3) {
            let heavy_row = rng.below(m);
            for col in cols.iter_mut() {
                if rng.below(10) < 9 {
                    col.insert(heavy_row);
                }
            }
        }
        if n > 0 {
            for _ in 0..rng.below(3) {
                let heavy_col = rng.below(n);
                for r in 0..m {
                    if rng.below(10) < 9 {
                        cols[heavy_col].insert(r);
                    }
                }
            }
        }
    }
    if n > 1 {
        for _ in 0..rng.below(4) {
            let (from, to) = (rng.below(n), rng.below(n));
            cols[to] = cols[from].clone();
        }
    }
    pattern(m, &cols)
}

#[test]
fn colamd_equals_the_greedy_reference_on_the_presets_and_their_shuffles() {
    // The generator calls behind the Table I presets (`lra::matgen::m1`
    // … `m5`); the decay rescaling those apply on top changes values
    // only, and the ordering reads none. The two circuit sizes, the
    // fluid blocks and the economic sectors at a third of preset size
    // keep the reference affordable in a debug build.
    let presets: Vec<(&str, CscMatrix)> = vec![
        ("fem2d 38x40", lra::matgen::fem2d(38, 40, 101)),
        ("fluid_block 30x40", lra::matgen::fluid_block(30, 40, 102)),
        ("circuit 2400", lra::matgen::circuit(2400, 5, 20, 103)),
        ("circuit 2000", lra::matgen::circuit(2000, 4, 30, 104)),
        ("economic 2600", lra::matgen::economic(2600, 40, 105)),
    ];
    let mut rng = SplitMix64(20);
    for (name, a) in &presets {
        assert_same_order(a, name);
        for shuffle in 0..4 {
            let rows = shuffled(&mut rng, a.rows());
            let cols = shuffled(&mut rng, a.cols());
            let b = a.permute_rows(&rows).select_columns(&cols);
            assert_same_order(&b, &format!("{name}, shuffle {shuffle}"));
        }
    }
}

#[test]
fn colamd_equals_the_greedy_reference_on_degenerate_shapes() {
    for (m, n) in [(0, 0), (5, 0), (0, 1), (1, 1), (7, 1), (0, 6), (1, 9)] {
        for seed in 0..4 {
            let a = hostile_pattern(m, n, seed);
            assert_same_order(&a, &format!("{m}x{n}, seed {seed}"));
        }
    }
    // Every column the same: all scores tie at every step.
    let same = pattern(6, &vec![[1usize, 4].into_iter().collect(); 30]);
    assert_same_order(&same, "identical columns");
    // All columns over the dense-column cap.
    let full = pattern(300, &vec![(0..300).collect(); 5]);
    assert_same_order(&full, "dense columns only");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn colamd_equals_the_greedy_reference_on_hostile_patterns(
        m in 0usize..=180,
        n in 0usize..=180,
        seed in 0u64..u64::MAX,
    ) {
        let a = hostile_pattern(m, n, seed);
        prop_assert!(colamd(&a) == colamd_reference(&a), "{}x{}, seed {}", m, n, seed);
    }
}
