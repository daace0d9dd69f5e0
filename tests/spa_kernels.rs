//! Property tests pinning the sparse-accumulator kernels to their
//! reference implementations **bitwise**, over randomized shapes
//! (including empty matrices and single rows/columns), densities, and
//! worker counts. Explicitly stored zeros are generated with ~25%
//! probability per entry so the drop-exact-zero emission rule is
//! exercised, not just the generic accumulate path. This contract is
//! what lets the LU_CRTP drivers swap in the SPA-based kernels without
//! perturbing their sharded-vs-replicated bitwise oracle.

use lra::par::Parallelism;
use lra::sparse::{spgemm, spgemm_reference, CscMatrix};
use proptest::prelude::*;

/// Random CSC matrix built through `from_parts` (NOT the builder, which
/// skips zeros): per column up to 8 entries with sorted-deduped rows,
/// each value forced to an explicit stored `0.0` with probability
/// `~25%`.
fn sparse(rows: usize, cols: usize) -> impl Strategy<Value = CscMatrix> {
    let max_row = rows.max(1);
    let col = proptest::collection::vec((0..max_row, -4.0f64..4.0, 0u8..100), 0..8);
    proptest::collection::vec(col, cols).prop_map(move |cols_entries| {
        let mut colptr = vec![0usize];
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        for mut entries in cols_entries {
            if rows == 0 {
                entries.clear();
            }
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);
            for (r, v, w) in entries {
                rowidx.push(r);
                values.push(if w < 25 { 0.0 } else { v });
            }
            colptr.push(rowidx.len());
        }
        CscMatrix::from_parts(rows, cols, colptr, rowidx, values)
    })
}

fn assert_csc_bitwise(fast: &CscMatrix, reference: &CscMatrix) {
    assert_eq!(fast.rows(), reference.rows(), "rows");
    assert_eq!(fast.cols(), reference.cols(), "cols");
    assert_eq!(fast.colptr(), reference.colptr(), "colptr");
    assert_eq!(fast.rowidx(), reference.rowidx(), "rowidx");
    for (i, (x, y)) in fast.values().iter().zip(reference.values()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "value {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spa_spgemm_bitwise_eq_reference(
        (a, b, workers) in (0usize..24, 0usize..16, 0usize..14).prop_flat_map(|(m, k, n)| {
            (sparse(m, k), sparse(k, n), 1usize..5)
        })
    ) {
        let fast = spgemm(&a, &b, Parallelism::new(workers));
        let reference = spgemm_reference(&a, &b, Parallelism::SEQ);
        assert_csc_bitwise(&fast, &reference);
    }

    #[test]
    fn transpose_into_bitwise_eq_transpose(a in (0usize..24, 0usize..16)
        .prop_flat_map(|(m, n)| sparse(m, n)))
    {
        // Reused target primed with stale contents.
        let mut out = CscMatrix::identity(5);
        a.transpose_into(&mut out);
        assert_csc_bitwise(&out, &a.transpose());
    }

    #[test]
    fn drop_below_in_place_bitwise_eq_drop_below(
        (a, thr, workers) in (0usize..24, 0usize..16)
            .prop_flat_map(|(m, n)| (sparse(m, n), 0.0f64..5.0, 1usize..4))
    ) {
        // Fewer columns than one chunk.
        let (expect, _, _) = a.drop_below(thr);
        let mut kept = a.clone();
        kept.drop_below_in_place(thr, Parallelism::new(workers));
        assert_csc_bitwise(&kept, &expect);
    }

    #[test]
    fn drop_below_in_place_over_many_chunks(
        (a, thr, workers) in (0usize..12, 0usize..200)
            .prop_flat_map(|(m, n)| (sparse(m, n), 0.0f64..5.0, 1usize..4))
    ) {
        // Exactly `drop_below`'s entries, in the arrays the matrix owned.
        let (expect, _, _) = a.drop_below(thr);
        let mut kept = a.clone();
        kept.drop_below_in_place(thr, Parallelism::new(workers));
        assert_csc_bitwise(&kept, &expect);
    }
}

#[test]
fn spgemm_empty_and_single_column_edges() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (5, 0, 3), (5, 3, 0), (1, 1, 1), (7, 1, 1)] {
        let a = CscMatrix::zeros(m, k);
        let b = CscMatrix::zeros(k, n);
        assert_csc_bitwise(
            &spgemm(&a, &b, Parallelism::SEQ),
            &spgemm_reference(&a, &b, Parallelism::SEQ),
        );
    }
    // Single dense-ish column through both paths.
    let a = CscMatrix::from_parts(4, 2, vec![0, 2, 4], vec![0, 3, 1, 2], vec![2.0, -1.0, 0.5, 4.0]);
    let b = CscMatrix::from_parts(2, 1, vec![0, 2], vec![0, 1], vec![3.0, -2.0]);
    let fast = spgemm(&a, &b, Parallelism::new(4));
    assert_csc_bitwise(&fast, &spgemm_reference(&a, &b, Parallelism::SEQ));
    assert_eq!(fast.get(0, 0), 6.0);
}

#[test]
fn spgemm_identity_preserves_explicit_zeros_policy() {
    // A * I keeps A's computed values; explicit zeros in A become
    // computed zeros (0 * 1 accumulations) and are dropped by both
    // implementations identically.
    let a = CscMatrix::from_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.5, 0.0, -2.0]);
    let i = CscMatrix::identity(3);
    assert_csc_bitwise(
        &spgemm(&a, &i, Parallelism::SEQ),
        &spgemm_reference(&a, &i, Parallelism::SEQ),
    );
}
