//! Robustness tests: Matrix Market parser resilience, SpGEMM algebra,
//! and structural invariants under composition.

use lra_sparse::{
    add_scaled, read_matrix_market, spgemm, write_matrix_market, CooMatrix, CscMatrix,
};
use lra_par::Parallelism;

fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
    let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut coo = CooMatrix::new(rows, cols);
    for j in 0..cols {
        for _ in 0..per_col {
            let r = (next() % rows as u64) as usize;
            let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            coo.push(r, j, v);
        }
    }
    coo.to_csc()
}

#[test]
fn matrix_market_tolerates_messy_whitespace() {
    let text = "%%MatrixMarket  matrix   coordinate real general\n\
                %
                % a comment with % inside
                \n\
                \t 3   3  \t 2 \n\
                \n\
                1\t1\t1.5e0\n\
                3 2   -2.25\n";
    let a = read_matrix_market(std::io::BufReader::new(text.as_bytes())).unwrap();
    assert_eq!(a.get(0, 0), 1.5);
    assert_eq!(a.get(2, 1), -2.25);
}

#[test]
fn matrix_market_case_insensitive_header() {
    let text = "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 3.0\n";
    let a = read_matrix_market(std::io::BufReader::new(text.as_bytes())).unwrap();
    assert_eq!(a.get(0, 0), 3.0);
}

#[test]
fn matrix_market_rejects_array_format() {
    let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n";
    assert!(read_matrix_market(std::io::BufReader::new(text.as_bytes())).is_err());
}

#[test]
fn matrix_market_extreme_values_roundtrip() {
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, f64::MIN_POSITIVE);
    coo.push(1, 1, 1.797e308);
    coo.push(0, 1, -4.9e-324); // subnormal
    let a = coo.to_csc();
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &a).unwrap();
    let b = read_matrix_market(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(a, b);
}

#[test]
fn spgemm_associativity() {
    let a = rand_sparse(20, 15, 3, 1);
    let b = rand_sparse(15, 18, 3, 2);
    let c = rand_sparse(18, 12, 3, 3);
    let par = Parallelism::new(2);
    let left = spgemm(&spgemm(&a, &b, par), &c, par);
    let right = spgemm(&a, &spgemm(&b, &c, par), par);
    assert!(
        left.to_dense().max_abs_diff(&right.to_dense()) < 1e-10,
        "(AB)C != A(BC)"
    );
}

#[test]
fn spgemm_distributes_over_addition() {
    let a = rand_sparse(12, 10, 3, 4);
    let b1 = rand_sparse(10, 8, 2, 5);
    let b2 = rand_sparse(10, 8, 2, 6);
    let par = Parallelism::SEQ;
    let lhs = spgemm(&a, &add_scaled(&b1, 1.0, &b2), par);
    let rhs = add_scaled(&spgemm(&a, &b1, par), 1.0, &spgemm(&a, &b2, par));
    assert!(lhs.to_dense().max_abs_diff(&rhs.to_dense()) < 1e-11);
}

#[test]
fn transpose_of_product_is_reversed_product() {
    let a = rand_sparse(14, 9, 3, 7);
    let b = rand_sparse(9, 11, 3, 8);
    let par = Parallelism::SEQ;
    let lhs = spgemm(&a, &b, par).transpose();
    let rhs = spgemm(&b.transpose(), &a.transpose(), par);
    assert!(lhs.to_dense().max_abs_diff(&rhs.to_dense()) < 1e-11);
}

#[test]
fn drop_below_extreme_thresholds() {
    let a = rand_sparse(10, 10, 3, 10);
    let (all_kept, mass0, n0) = a.drop_below(0.0);
    assert_eq!(all_kept, a);
    assert_eq!((mass0, n0), (0.0, 0));
    let (none_kept, mass_all, n_all) = a.drop_below(f64::INFINITY);
    assert_eq!(none_kept.nnz(), 0);
    assert_eq!(n_all, a.nnz());
    assert!((mass_all - a.fro_norm_sq()).abs() < 1e-12 * a.fro_norm_sq());
}

#[test]
fn permute_rows_preserves_column_norms() {
    let a = rand_sparse(18, 12, 4, 11);
    let perm: Vec<usize> = (0..18).map(|i| (i * 7 + 3) % 18).collect();
    let p = a.permute_rows(&perm);
    for j in 0..12 {
        let n1: f64 = a.col(j).1.iter().map(|v| v * v).sum();
        let n2: f64 = p.col(j).1.iter().map(|v| v * v).sum();
        assert!((n1 - n2).abs() < 1e-14);
    }
}
