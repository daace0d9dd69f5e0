//! Minimal data-parallel substrate: one persistent pool of helper
//! threads, std only.
//!
//! The paper's implementations run on MPI; this crate provides the
//! shared-memory work-sharing layer used by the dense/sparse kernels
//! (the SPMD rank model lives in `lra-comm`). Parallelism is always
//! explicit: every parallel entry point takes a [`Parallelism`] handle
//! carrying the worker count `np`, so benchmark harnesses can sweep
//! process counts deterministically (Figs. 4-6 of the paper).
//!
//! No rayon: work distribution is a shared atomic chunk counter drained
//! by the calling thread plus up to `np - 1` helpers of a lazily
//! started, process-wide pool (`pool.rs`, the only place a thread is
//! spawned), which is sufficient for the regular, coarse-grained loops
//! in this project. A region costs a queue push and a wake-up, not a
//! thread spawn, and the caller never waits for a helper to start, so
//! regions may nest and may be opened from several OS threads at once.
//!
//! A body must not depend on *which* thread runs a chunk: chunks go to
//! whoever claims them first, the caller included, and helpers outlive
//! the region. (Thread-local state set up by the caller is therefore
//! invisible to helper-run chunks.)

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod pool;
pub mod record;
pub use record::{is_recording, label_scope, Profile};

/// The result-slot and chunk-iterator locks guard a store or a
/// `next()`, neither of which can panic.
const SLOT_LOCK: &str = "lra-par data locks are never held across a panic";

/// Degree of parallelism to use for a kernel invocation.
///
/// `np == 1` executes inline on the calling thread with zero overhead,
/// so sequential baselines measured in the benchmarks are true
/// sequential runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    np: usize,
}

impl Parallelism {
    /// Sequential execution.
    pub const SEQ: Parallelism = Parallelism { np: 1 };

    /// Use exactly `np` workers (clamped to at least 1).
    pub fn new(np: usize) -> Self {
        Parallelism { np: np.max(1) }
    }

    /// Sequential execution (same as [`Parallelism::SEQ`]).
    pub fn seq() -> Self {
        Self::SEQ
    }

    /// One worker per available hardware thread.
    pub fn full() -> Self {
        Self::new(available_parallelism())
    }

    /// Number of workers.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }

    /// True if this handle requests more than one worker.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.np > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::SEQ
    }
}

/// Number of hardware threads reported by the OS (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one. Returns fewer than `parts` ranges when `n < parts`; never
/// returns empty ranges.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The range owned by `rank` in a [`split_ranges`] partition, or the
/// empty range when the rank has no share (`n < parts` leaves the high
/// ranks without one). This is the SPMD ownership lookup: every rank
/// calls it with the same `ranges` and its own id, and ranks beyond
/// `ranges.len()` simply own nothing while still participating in
/// collectives.
pub fn owned_range(ranges: &[Range<usize>], rank: usize) -> Range<usize> {
    ranges.get(rank).cloned().unwrap_or(0..0)
}

/// Run `body` over every index chunk of `0..n`, using up to `par.np()`
/// workers. Chunks have length `grain` (the final chunk may be shorter)
/// and are claimed dynamically from a shared counter, so irregular
/// per-chunk costs (e.g. sparse columns of very different lengths)
/// balance automatically.
///
/// `body` receives a half-open index range and must be safe to run
/// concurrently on disjoint ranges.
pub fn parallel_for<F>(par: Parallelism, n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    if record::is_recording() {
        let top = record::enter_region();
        let chunks = if top {
            record::run_recorded(n, grain, &body)
        } else {
            body(0..n);
            Vec::new()
        };
        record::leave_region(chunks);
        return;
    }
    let grain = grain.max(1);
    let nchunks = n.div_ceil(grain);
    let workers = par.np().min(nchunks);
    if workers <= 1 {
        body(0..n);
        return;
    }
    drain_chunks(workers, nchunks, &|c| body(chunk_range(c, grain, n)));
}

/// Index range of chunk `c` when `0..n` is cut into `grain`-long chunks.
fn chunk_range(c: usize, grain: usize, n: usize) -> Range<usize> {
    let start = c * grain;
    start..(start + grain).min(n)
}

/// Run `chunk(c)` once for every `c` in `0..nchunks` on `workers >= 2`
/// threads, the caller being one of them: indices are claimed from a
/// shared counter, so each goes to exactly one thread. A panicking
/// chunk is re-raised after the remaining chunks have drained.
fn drain_chunks(workers: usize, nchunks: usize, chunk: &(dyn Fn(usize) + Sync)) {
    let next = AtomicUsize::new(0);
    pool::region(workers - 1, &|| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= nchunks {
            break;
        }
        chunk(c);
    });
}

/// Map every chunk of `0..n` through `body` and combine the per-chunk
/// results with `fold`, starting from `init`. The combination order is
/// deterministic (ascending chunk index), so floating-point reductions
/// are reproducible for a fixed `(n, grain)` regardless of `np`.
pub fn parallel_map_fold<T, F, G>(
    par: Parallelism,
    n: usize,
    grain: usize,
    init: T,
    body: F,
    mut fold: G,
) -> T
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
    G: FnMut(T, T) -> T,
{
    if n == 0 {
        return init;
    }
    let grain = grain.max(1);
    if record::is_recording() {
        let top = record::enter_region();
        let mut chunks = Vec::new();
        let mut acc = init;
        let mut start = 0;
        while start < n {
            let end = (start + grain).min(n);
            let t = std::time::Instant::now();
            let val = body(start..end);
            if top {
                chunks.push(t.elapsed().as_secs_f64());
            }
            acc = fold(acc, val);
            start = end;
        }
        record::leave_region(chunks);
        return acc;
    }
    let nchunks = n.div_ceil(grain);
    let workers = par.np().min(nchunks);
    if workers <= 1 {
        let mut acc = init;
        let mut start = 0;
        while start < n {
            let end = (start + grain).min(n);
            acc = fold(acc, body(start..end));
            start = end;
        }
        return acc;
    }
    // One lock per chunk result, each taken once by the worker that
    // claimed the chunk and once below.
    let slots: Vec<Mutex<Option<T>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    drain_chunks(workers, nchunks, &|c| {
        let val = body(chunk_range(c, grain, n));
        *slots[c].lock().expect(SLOT_LOCK) = Some(val);
    });
    let mut acc = init;
    for slot in slots {
        let val = slot.into_inner().expect(SLOT_LOCK);
        acc = fold(acc, val.expect("chunk result missing"));
    }
    acc
}

/// Run `body` once per disjoint mutable chunk of `data` (chunk size
/// `grain`), in parallel. `body` receives the chunk index and the chunk.
pub fn parallel_chunks_mut<T, F>(par: Parallelism, data: &mut [T], grain: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let grain = grain.max(1);
    let n = data.len();
    if n == 0 {
        return;
    }
    if record::is_recording() {
        let top = record::enter_region();
        let mut chunks = Vec::new();
        for (c, chunk) in data.chunks_mut(grain).enumerate() {
            let t = std::time::Instant::now();
            body(c, chunk);
            if top {
                chunks.push(t.elapsed().as_secs_f64());
            }
        }
        record::leave_region(chunks);
        return;
    }
    let nchunks = n.div_ceil(grain);
    let workers = par.np().min(nchunks);
    if workers <= 1 {
        for (c, chunk) in data.chunks_mut(grain).enumerate() {
            body(c, chunk);
        }
        return;
    }
    // Chunks are handed out in index order from one shared iterator;
    // the lock is held for the `next()` only.
    let chunks = Mutex::new(data.chunks_mut(grain).enumerate());
    pool::region(workers - 1, &|| loop {
        let claimed = chunks.lock().expect(SLOT_LOCK).next();
        let Some((c, chunk)) = claimed else { break };
        body(c, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn split_ranges_covers_everything() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                if n > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = lens.iter().min().unwrap();
                    let max = lens.iter().max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn owned_range_covers_and_defaults_empty() {
        for n in [0usize, 1, 5, 17] {
            for parts in [1usize, 2, 4, 9] {
                let ranges = split_ranges(n, parts);
                // In-partition ranks get their exact range...
                for (rank, r) in ranges.iter().enumerate() {
                    assert_eq!(owned_range(&ranges, rank), *r);
                }
                // ...ranks past the partition own nothing.
                for rank in ranges.len()..parts + 2 {
                    assert_eq!(owned_range(&ranges, rank), 0..0);
                }
                let total: usize = (0..parts).map(|r| owned_range(&ranges, r).len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(Parallelism::new(8), n, 13, |range| {
            for i in range {
                counters[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_sequential_matches() {
        let n = 1000;
        let sum = AtomicU64::new(0);
        parallel_for(Parallelism::SEQ, n, 7, |range| {
            for i in range {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn parallel_map_fold_deterministic_order() {
        // Floating point sum must be identical across np because fold
        // order is chunk-index order.
        let n = 5000;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e-3).collect();
        let sum_with = |np: usize| {
            parallel_map_fold(
                Parallelism::new(np),
                n,
                64,
                0.0f64,
                |r| r.map(|i| data[i]).sum::<f64>(),
                |a, b| a + b,
            )
        };
        let s1 = sum_with(1);
        for np in [2, 3, 8] {
            assert_eq!(s1.to_bits(), sum_with(np).to_bits(), "np={np}");
        }
    }

    #[test]
    fn parallel_chunks_mut_writes_disjoint() {
        let mut data = vec![0usize; 1003];
        parallel_chunks_mut(Parallelism::new(4), &mut data, 17, |c, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = c * 17 + off;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn zero_length_inputs_are_noops() {
        parallel_for(Parallelism::new(4), 0, 8, |_| panic!("must not run"));
        let out = parallel_map_fold(
            Parallelism::new(4),
            0,
            8,
            42,
            |_| panic!("must not run"),
            |a: i32, b: i32| a + b,
        );
        assert_eq!(out, 42);
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(Parallelism::new(4), &mut empty, 8, |_, _| {
            panic!("must not run")
        });
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::new(0).np(), 1);
        assert!(!Parallelism::new(0).is_parallel());
        assert!(Parallelism::new(2).is_parallel());
        assert!(available_parallelism() >= 1);
    }
}
