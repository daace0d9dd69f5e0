//! One Schur complement at a time: an engine's live bytes over a whole
//! factorization stay within the factors plus a small multiple of its
//! own largest Schur storage, and a checkpoint save adds one envelope.
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
//! the factors twice on rank 0, the only rank that assembles and
//! returns them (a broadcast of them to every rank adds two more
//! copies), and beside them at most three of its largest shards per
//! rank: the shard, whose arrays the next shard is written into, the
//! re-shard parts cut from it, and the parts received, which are
//! pooled for the next cut.
//!
//! A save every iteration may raise a run's peak by the generations
//! the store retains, the envelope being written and, under SPMD, one
//! copy of the other ranks' shards on rank 0: no joined complement, no
//! section body beside its framed copy. And once an ILUT drop has
//! thinned the complement, the sharded engine's shards and re-shard
//! buffers give their capacity back, so at its last save a run holds
//! less than one fill-peak complement beside the factors.
//!
//! This file is its own test binary, and its tests take turns, so
//! nothing else allocates while one measures.

use lra::core::{
    factorize, factorize_ranks, ilut_crtp, lu_crtp, CheckpointStore, Exec, IlutOpts, LuCrtpOpts,
    LuCrtpResult, Method, Parallelism, RecoveryHooks, RunConfig,
};
use lra::obs::Json;
use lra::matgen::{fluid_block, with_decay_rank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// An allocation size to watch for (0: none) and `LIVE` just before
/// the latest allocation of exactly that size.
static MARK: AtomicUsize = AtomicUsize::new(0);
static LIVE_AT_MARK: AtomicUsize = AtomicUsize::new(0);

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
        if layout.size() == MARK.load(Relaxed) {
            LIVE_AT_MARK.store(LIVE.load(Relaxed), Relaxed);
        }
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
        assert_within(&format!("{name} ranks={np}"), &r, peak, 2.0, shards, 3.0);
    }
}

/// The ILUT solve the save pins run: the fill-in matrix above, k = 16,
/// τ = 1e-4, sequential (`np = None`) or over `np` sharded ranks.
fn ilut_solve(np: Option<usize>, hooks: Option<&RecoveryHooks<'_>>) -> LuCrtpResult {
    let a = with_decay_rank(&fluid_block(20, 30, 102), 1e-6, 250, 12);
    let mut ilut = IlutOpts::new(16, 1e-4, 8);
    ilut.base = LuCrtpOpts::new(16, 1e-4);
    match np {
        None => factorize(&a, &ilut, Exec::Seq, hooks),
        Some(np) => factorize_ranks(&a, &ilut, np, &RunConfig::default(), hooks)
            .expect("valid input")
            .unwrap_all()
            .swap_remove(0),
    }
}

/// One saved generation: its length and the CSC bytes of the Schur
/// complement it holds (what any one shard of it is at most).
struct Saved {
    bytes: usize,
    schur_bytes: usize,
}

/// Every generation `solve` saves at a save per iteration, oldest
/// first, read back from an on-disk store that keeps them all (the
/// bytes are the same in every store).
fn saved_generations(tag: &str, solve: impl FnOnce(&RecoveryHooks<'_>)) -> Vec<Saved> {
    let dir = std::env::temp_dir().join(format!("lra_schur_memory_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::on_disk(dir.join("ckpt.bin")).with_retention(usize::MAX);
    solve(&RecoveryHooks::new(&store, 1));
    let mut out = Vec::new();
    for generation in store.generations() {
        let bytes = std::fs::read(dir.join(format!("ckpt.{generation}.bin"))).unwrap();
        let header = lra::recover::envelope_header(&bytes).expect("a valid envelope");
        let count = |name: &str| {
            let table = header.get("sections").and_then(Json::as_arr).unwrap();
            let section = table.iter().find(|t| t.get("name").and_then(Json::as_str) == Some(name));
            section.and_then(|t| t.get("count")).and_then(Json::as_usize).unwrap()
        };
        let schur_bytes = 8 * count("s.colptr") + 16 * count("s.rowidx");
        out.push(Saved {
            bytes: bytes.len(),
            schur_bytes,
        });
    }
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// A save per iteration into a store that retains one generation raises
/// the peak by at most that generation, the envelope being written and,
/// under SPMD, one shard on its way to rank 0 — taken at the save that
/// allows the most. Joining the runs or the shards into one complement
/// before writing, or writing a section body and then a framed copy of
/// it, adds a second envelope's worth and breaks the bound.
#[test]
fn a_save_adds_one_envelope_beside_the_retained_one() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    for np in [None, Some(2)] {
        let saved = saved_generations("save", |hooks| {
            ilut_solve(np, Some(hooks));
        });
        assert!(saved.len() > 8, "{np:?}: {} saves", saved.len());
        let allowed = (0..saved.len())
            .map(|i| {
                let retained = i.checked_sub(1).map_or(0, |j| saved[j].bytes);
                let in_flight = if np.is_some() { saved[i].schur_bytes } else { 0 };
                retained + saved[i].bytes + in_flight
            })
            .max()
            .unwrap();
        let (_, unsaved) = peak_of(|| ilut_solve(np, None));
        let store = CheckpointStore::in_memory().with_retention(1);
        let (r, peak) = peak_of(|| ilut_solve(np, Some(&RecoveryHooks::new(&store, 1))));
        assert!(r.converged, "{np:?}: {r:?}");
        let added = peak.saturating_sub(unsaved);
        eprintln!(
            "ranks {np:?}: peak {peak} B saving, {unsaved} B not: +{added} B of {allowed} B allowed ({:.2})",
            added as f64 / allowed as f64
        );
        assert!(
            added <= allowed,
            "ranks {np:?}: a save every iteration added {added} bytes to the peak; \
             one retained generation, one envelope and one shard allow {allowed}"
        );
    }
}

/// The sharded engine's late-iteration memory follows its current
/// shard: at the last save of a two-rank ILUT solve (read when the
/// allocator hands out that save's envelope), the ranks hold beside the
/// one retained generation and twice the factors less than one
/// fill-peak complement — the peak shard on every rank. Shards and
/// pooled re-shard buffers that keep the capacity of the fill peak hold
/// about twice that.
#[test]
fn late_iterations_hold_the_current_shard_not_the_fill_peak() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let np = 2;
    let saved = saved_generations("late", |hooks| {
        ilut_solve(Some(np), Some(hooks));
    });
    let [.., retained, last] = saved.as_slice() else {
        panic!("{} saves", saved.len())
    };
    let store = CheckpointStore::in_memory().with_retention(1);
    let base = LIVE.load(Relaxed);
    MARK.store(last.bytes, Relaxed);
    LIVE_AT_MARK.store(0, Relaxed);
    let r = ilut_solve(Some(np), Some(&RecoveryHooks::new(&store, 1)));
    MARK.store(0, Relaxed);
    let at_last_save = LIVE_AT_MARK.load(Relaxed);
    assert!(at_last_save > base, "the last save's envelope was never allocated");
    assert_eq!(store.raw().unwrap().map(|b| b.len()), Some(last.bytes));
    let factors = (r.l.resident_bytes() + r.u.resident_bytes()) as f64;
    let fill_peak = (np as u64 * r.mem.peak_rank_bytes) as f64;
    let held = (at_last_save - base - retained.bytes) as f64 - 2.0 * factors;
    eprintln!(
        "at the last save: {held} B beside the factors, {:.2} fill-peak complements",
        held / fill_peak
    );
    assert!(
        held <= fill_peak,
        "at the last save the ranks hold {held} bytes beside two factor copies; \
         the fill-peak complement is {fill_peak}"
    );
}
