//! The persistent `lra-par` worker pool under the conditions a
//! per-region thread spawn never met: panics that must not strand a
//! helper, regions opened from inside a region and from many OS threads
//! at once, more workers than cores, and solves at different worker
//! counts sharing one warm pool.

use lra::core::{
    ilut_crtp, lu_crtp, rand_qb_ei, rand_ubv, IlutOpts, LuCrtpOpts, LuCrtpResult, Parallelism,
    QbOpts, UbvOpts,
};
use lra::par::{parallel_chunks_mut, parallel_for, parallel_map_fold};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::ThreadId;

mod common;
use common::bits_eq;

/// `sum(0..n)` through `parallel_map_fold`.
fn pool_sum(np: usize, n: usize, grain: usize) -> usize {
    parallel_map_fold(Parallelism::new(np), n, grain, 0usize, |r| r.sum(), |a, b| a + b)
}

/// One np=2 region of `CHUNKS` chunks in which the caller and the
/// helper are each held inside a chunk at the same moment (a two-party
/// barrier the first two chunks wait on, so both threads are in the
/// body whatever the claim order), then the one selected by
/// `caller_panics` panics. Returns the panic message and how many
/// chunks completed.
fn region_with_panic(caller_panics: bool) -> (String, usize) {
    const CHUNKS: usize = 16;
    let caller: ThreadId = std::thread::current().id();
    let both_inside = Barrier::new(2);
    let completed = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        parallel_for(Parallelism::new(2), CHUNKS, 1, |r| {
            if r.start < 2 {
                both_inside.wait();
                if (std::thread::current().id() == caller) == caller_panics {
                    panic!("chunk {} failed", r.start);
                }
            }
            completed.fetch_add(1, Ordering::Relaxed);
        });
    }));
    let payload = outcome.expect_err("the chunk's panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .expect("panic! with arguments carries a String")
        .clone();
    (message, completed.load(Ordering::Relaxed))
}

#[test]
fn a_panicking_chunk_propagates_after_the_region_drains_and_the_pool_survives() {
    for caller_panics in [true, false] {
        let (message, completed) = region_with_panic(caller_panics);
        assert!(message.starts_with("chunk ") && message.ends_with(" failed"), "{message}");
        // The thread that did not panic drained every other chunk
        // before the panic was re-raised.
        assert_eq!(completed, 15, "caller_panics={caller_panics}");
        // Same pool, next region: nothing is stuck or poisoned.
        assert_eq!(pool_sum(2, 10_000, 7), 10_000 * 9_999 / 2);
    }
}

#[test]
fn a_region_inside_a_region_completes() {
    for np in 2..=4 {
        let par = Parallelism::new(np);
        let total = AtomicUsize::new(0);
        parallel_for(par, 12, 1, |outer| {
            for i in outer {
                parallel_for(par, 50, 3, |inner| {
                    total.fetch_add(inner.map(|j| i * 50 + j).sum(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 600 * 599 / 2, "np={np}");
    }
}

#[test]
fn concurrent_regions_from_many_threads_each_get_exact_sums() {
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                for i in 0..200usize {
                    let n = 100 + 13 * t + i;
                    assert_eq!(pool_sum(3, n, 5), n * (n - 1) / 2, "thread {t} region {i}");
                }
            });
        }
    });
}

#[test]
fn more_workers_than_cores() {
    let par = Parallelism::new(8);
    let n = 4_000;
    let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    parallel_for(par, n, 9, |r| {
        for i in r {
            visits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    assert_eq!(pool_sum(8, n, 9), n * (n - 1) / 2);
    let mut data = vec![0usize; 1_003];
    parallel_chunks_mut(par, &mut data, 17, |c, chunk| {
        for (off, x) in chunk.iter_mut().enumerate() {
            *x = c * 17 + off;
        }
    });
    assert!(data.iter().enumerate().all(|(i, &x)| x == i));
}

fn assert_same_lu(tag: &str, x: &LuCrtpResult, y: &LuCrtpResult) {
    assert_eq!(x.rank, y.rank, "{tag}: rank");
    assert_eq!(x.pivot_rows, y.pivot_rows, "{tag}: pivot rows");
    assert_eq!(x.pivot_cols, y.pivot_cols, "{tag}: pivot columns");
    for (name, a, b) in [("L", &x.l, &y.l), ("U", &x.u, &y.u)] {
        assert_eq!(a.colptr(), b.colptr(), "{tag}: {name} column pointers");
        assert_eq!(a.rowidx(), b.rowidx(), "{tag}: {name} row indices");
        assert!(bits_eq(a.values(), b.values()), "{tag}: {name} values");
    }
}

#[test]
fn all_four_solvers_are_bitwise_identical_across_np_on_a_warm_pool() {
    let a = lra::matgen::with_decay(&lra::matgen::economic(400, 8, 13), 1e-6, 7);
    let (k, tau) = (8, 1e-2);
    let solve = |np: usize| {
        let par = Parallelism::new(np);
        let qb = rand_qb_ei(&a, &QbOpts::new(k, tau).with_power(1).with_par(par)).unwrap();
        let mut ubv_opts = UbvOpts::new(k, tau);
        ubv_opts.par = par;
        let ubv = rand_ubv(&a, &ubv_opts);
        let lu = lu_crtp(&a, &LuCrtpOpts::new(k, tau).with_par(par));
        let mut ilut_opts = IlutOpts::new(k, tau, lu.iterations);
        ilut_opts.base.par = par;
        let ilut = ilut_crtp(&a, &ilut_opts);
        (qb, ubv, lu, ilut)
    };
    let (qb1, ubv1, lu1, ilut1) = solve(1);
    assert!(qb1.converged && ubv1.converged && lu1.converged && ilut1.converged);
    for np in [2, 3] {
        let (qb, ubv, lu, ilut) = solve(np);
        assert!(bits_eq(qb.q.as_slice(), qb1.q.as_slice()), "rand_qb_ei Q, np={np}");
        assert!(bits_eq(qb.b.as_slice(), qb1.b.as_slice()), "rand_qb_ei B, np={np}");
        assert!(bits_eq(ubv.u.as_slice(), ubv1.u.as_slice()), "rand_ubv U, np={np}");
        assert!(bits_eq(ubv.b.as_slice(), ubv1.b.as_slice()), "rand_ubv B, np={np}");
        assert!(bits_eq(ubv.v.as_slice(), ubv1.v.as_slice()), "rand_ubv V, np={np}");
        assert_same_lu(&format!("lu_crtp np={np}"), &lu, &lu1);
        assert_same_lu(&format!("ilut_crtp np={np}"), &ilut, &ilut1);
    }
}
