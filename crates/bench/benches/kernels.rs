//! Criterion micro-benchmarks of the hot kernels, validating the
//! asymptotic cost claims of Section IV:
//! - QR_TP column tournament ~ `O(k^2 nnz)` (flat vs binary tree
//!   ablation, TSQR vs Gram panel-R ablation);
//! - SpGEMM / SpMM (the Schur-complement and sketch engines);
//! - TSQR vs unblocked Householder QR;
//! - COLAMD-style ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lra_dense::DenseMatrix;
use lra_par::Parallelism;
use lra_qrtp::TournamentTree;
use std::hint::black_box;

fn bench_tournament(c: &mut Criterion) {
    let mut g = c.benchmark_group("qr_tp");
    g.sample_size(10);
    let a = lra_matgen::with_decay(&lra_matgen::circuit(2000, 5, 8, 1), 1e-6, 2);
    for k in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::new("binary", k), &k, |b, &k| {
            b.iter(|| {
                lra_qrtp::tournament_columns(
                    black_box(&a),
                    None,
                    k,
                    TournamentTree::Binary,
                    Parallelism::SEQ,
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("flat", k), &k, |b, &k| {
            b.iter(|| {
                lra_qrtp::tournament_columns(
                    black_box(&a),
                    None,
                    k,
                    TournamentTree::Flat,
                    Parallelism::SEQ,
                )
            })
        });
    }
    g.finish();
}

fn bench_panel_r(c: &mut Criterion) {
    let mut g = c.benchmark_group("panel_r");
    g.sample_size(10);
    let a = lra_matgen::with_decay(&lra_matgen::fluid_block(50, 40, 3), 1e-6, 4);
    let idx: Vec<usize> = (0..64).collect();
    g.bench_function("tsqr", |b| {
        b.iter(|| lra_qrtp::panel_r(black_box(&a), &idx, Parallelism::SEQ))
    });
    g.finish();
}

fn bench_spgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("spgemm");
    g.sample_size(10);
    for n in [500usize, 1000, 2000] {
        let a = lra_matgen::circuit(n, 5, 4, 7);
        let b_mat = lra_matgen::circuit(n, 5, 4, 8);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| lra_sparse::spgemm(black_box(&a), black_box(&b_mat), Parallelism::SEQ))
        });
    }
    g.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmm_dense");
    g.sample_size(10);
    let a = lra_matgen::circuit(4000, 5, 8, 9);
    for k in [16usize, 64] {
        let d = DenseMatrix::from_fn(4000, k, |i, j| ((i + j) % 13) as f64 - 6.0);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| lra_sparse::spmm_dense(black_box(&a), black_box(&d), Parallelism::SEQ))
        });
    }
    g.finish();
}

fn bench_tsqr(c: &mut Criterion) {
    let mut g = c.benchmark_group("tall_skinny_qr");
    g.sample_size(10);
    let a = DenseMatrix::from_fn(8000, 32, |i, j| ((i * 31 + j * 7) % 17) as f64 - 8.0);
    g.bench_function("tsqr", |b| {
        b.iter(|| lra_dense::tsqr(black_box(&a), Parallelism::SEQ))
    });
    g.bench_function("householder", |b| {
        b.iter(|| {
            let f = lra_dense::qr(black_box(&a), Parallelism::SEQ);
            f.q_thin(Parallelism::SEQ)
        })
    });
    g.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let mut g = c.benchmark_group("ordering");
    g.sample_size(10);
    let a = lra_matgen::fem2d(50, 50, 11);
    g.bench_function("colamd", |b| {
        b.iter(|| lra_ordering::colamd(black_box(&a)))
    });
    g.bench_function("etree_postorder", |b| {
        b.iter(|| lra_ordering::etree_postorder(black_box(&a)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tournament,
    bench_panel_r,
    bench_spgemm,
    bench_spmm,
    bench_tsqr,
    bench_ordering
);
criterion_main!(benches);
