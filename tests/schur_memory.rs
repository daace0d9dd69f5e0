//! One Schur complement at a time: the shared-memory engine's live
//! bytes over a whole factorization stay within the factors plus a
//! small multiple of its own largest complement.
//!
//! A counting global allocator over `System` records the peak of live
//! heap bytes while `lu_crtp` / `ilut_crtp` run on a 600 x 600 matrix
//! whose Schur complement fills in to dense. The factors (`L`, `U`,
//! and the recorded columns they are assembled from) may take up to
//! twice their final size; what is left must fit in 1.75 complements,
//! the complement being the engine's own `mem.peak_rank_bytes`. A split
//! copy of `Ā22`, per-chunk output buffers appended into a second
//! target, or a dropped copy beside the complement each add a whole
//! complement and break the bound.
//!
//! This file is its own test binary with one test, so nothing else
//! allocates while it measures.

use lra::core::{ilut_crtp, lu_crtp, IlutOpts, LuCrtpOpts, LuCrtpResult, Parallelism};
use lra::matgen::{fluid_block, with_decay_rank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// `System`, counting the bytes it hands out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only record
// the sizes of the blocks that were actually handed out or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live bytes while `run` runs, above what was live before it.
fn peak_of(run: impl FnOnce() -> LuCrtpResult) -> (LuCrtpResult, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = run();
    (r, PEAK.load(Relaxed) - base)
}

#[test]
fn the_shared_memory_engine_holds_one_schur_complement() {
    let a = with_decay_rank(&fluid_block(20, 30, 102), 1e-6, 250, 12);
    assert_eq!((a.rows(), a.cols()), (600, 600));
    let (k, tau) = (16, 1e-4);
    for np in [1, 2] {
        let par = Parallelism::new(np);
        let lu = LuCrtpOpts::new(k, tau).with_par(par);
        let mut ilut = IlutOpts::new(k, tau, 8);
        ilut.base = lu.clone();
        for name in ["lu_crtp", "ilut_crtp"] {
            let (r, peak) = match name {
                "lu_crtp" => peak_of(|| lu_crtp(&a, &lu)),
                _ => peak_of(|| ilut_crtp(&a, &ilut)),
            };
            assert!(r.converged, "{name} np={np}: {r:?}");
            let mem = r.mem.expect("the shared-memory engine reports mem");
            let dense = 16 * (a.rows() * a.cols()) as u64;
            assert!(
                2 * mem.peak_rank_bytes > dense,
                "{name} np={np}: the complement should fill in, peak {} of {dense} bytes",
                mem.peak_rank_bytes
            );
            let factors = (r.l.resident_bytes() + r.u.resident_bytes()) as f64;
            let ratio = (peak as f64 - 2.0 * factors) / mem.peak_rank_bytes as f64;
            eprintln!("{name} np={np}: peak {peak} B, factors {factors} B, ratio {ratio:.2}");
            assert!(
                ratio <= 1.75,
                "{name} np={np}: peak live {peak} bytes = 2 x {factors} factor bytes + \
                 {ratio:.2} complements of {} bytes",
                mem.peak_rank_bytes
            );
        }
    }
}
