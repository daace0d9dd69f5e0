//! One Schur complement at a time: an engine's live bytes over a whole
//! factorization stay within the factors plus a small multiple of its
//! own largest Schur storage.
//!
//! A counting global allocator over `System` records the peak of live
//! heap bytes while a factorization runs on a 600 x 600 matrix whose
//! Schur complement fills in to dense. For the shared-memory engine
//! (`lu_crtp` / `ilut_crtp`) the factors (`L`, `U`, and the recorded
//! columns they are assembled from) may take up to twice their final
//! size; what is left must fit in 1.75 complements, the complement
//! being the engine's own `mem.peak_rank_bytes`. A split copy of `Ā22`,
//! per-chunk output buffers appended into a second target, or a dropped
//! copy beside the complement each add a whole complement and break the
//! bound. The sharded engine (`factorize_ranks`, two ranks) may hold
//! the factors on every rank plus rank 0's assembly, and beside them at
//! most four of its largest shards per rank: the shard, the re-shard
//! parts cut from it, and the pooled part buffers they are cut into.
//!
//! This file is its own test binary, and its tests take turns, so
//! nothing else allocates while one measures.

use lra::core::{
    factorize_ranks, ilut_crtp, lu_crtp, IlutOpts, LuCrtpOpts, LuCrtpResult, Method, Parallelism,
    RunConfig,
};
use lra::matgen::{fluid_block, with_decay_rank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

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

/// Held while a test measures.
static MEASURING: Mutex<()> = Mutex::new(());

/// Peak live bytes while `run` runs, above what was live before it.
fn peak_of<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = run();
    (r, PEAK.load(Relaxed) - base)
}

/// Asserts that `r` converged and that its run's `peak` live bytes
/// leave at most `bound` times `storage` bytes beside `copies` of the
/// factors.
fn assert_within(what: &str, r: &LuCrtpResult, peak: usize, copies: f64, storage: u64, bound: f64) {
    assert!(r.converged, "{what}: {r:?}");
    let factors = (r.l.resident_bytes() + r.u.resident_bytes()) as f64;
    let ratio = (peak as f64 - copies * factors) / storage as f64;
    eprintln!("{what}: peak {peak} B, factors {factors} B, ratio {ratio:.2}");
    assert!(
        ratio <= bound,
        "{what}: peak live {peak} bytes = {copies} x {factors} factor bytes + \
         {ratio:.2} x {storage} bytes of Schur storage"
    );
}

#[test]
fn the_shared_memory_engine_holds_one_schur_complement() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
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
            let mem = r.mem;
            let dense = 16 * (a.rows() * a.cols()) as u64;
            assert!(
                2 * mem.peak_rank_bytes > dense,
                "{name} np={np}: the complement should fill in, peak {} of {dense} bytes",
                mem.peak_rank_bytes
            );
            assert_within(&format!("{name} np={np}"), &r, peak, 2.0, mem.peak_rank_bytes, 1.75);
        }
    }
}

#[test]
fn the_sharded_engine_holds_its_shards_and_one_reshard() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let a = with_decay_rank(&fluid_block(20, 30, 102), 1e-6, 250, 12);
    let lu = LuCrtpOpts::new(16, 1e-4);
    let mut ilut = IlutOpts::new(16, 1e-4, 8);
    ilut.base = lu.clone();
    let np = 2;
    for (name, method) in [("lu_crtp", Method::from(&lu)), ("ilut_crtp", Method::from(&ilut))] {
        let (report, peak) = peak_of(|| factorize_ranks(&a, method, np, &RunConfig::default(), None));
        let r = report.expect("valid input").unwrap_all().swap_remove(0);
        let mem = r.mem;
        let shards = np as u64 * mem.peak_rank_bytes;
        assert_within(&format!("{name} ranks={np}"), &r, peak, (np + 1) as f64, shards, 4.0);
    }
}
