//! Parallel-cost recording: the strong-scaling simulator.
//!
//! The paper measures strong scaling on up to 4096 MPI ranks of a
//! cluster; this reproduction may run on a host with very few (even
//! one) hardware threads. To still regenerate the *shape* of Figs. 4-6,
//! the work-sharing layer can run in recording mode: every parallel
//! region executes sequentially while the wall time of each chunk is
//! recorded. A [`Profile`] then predicts the runtime at any worker
//! count `np` by scheduling each region's chunks onto `np` virtual
//! workers (greedy LPT) and adding the serial time between regions:
//!
//! `T(np) = T_serial + sum_regions makespan_LPT(chunks, np)`
//!
//! This captures precisely the effects the paper attributes the scaling
//! knees to — regions whose chunk count falls below `np` stop scaling
//! (the tournament's global reduction levels), Amdahl serial fractions
//! dominate at large `np` — while remaining an honest measurement of
//! the real per-chunk work. Regions can be grouped under kernel labels
//! (via [`label_scope`]) so the per-kernel breakdowns of Figs. 5-6 can
//! be simulated per worker count as well. See DESIGN.md
//! ("Substitutions").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static RECORDING: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<RecState>> = Mutex::new(None);

/// Label for work outside any [`label_scope`].
pub const UNLABELED: &str = "other";

struct RecState {
    /// `(label, chunk durations)` per recorded region.
    regions: Vec<(&'static str, Vec<f64>)>,
    /// Wall time per label scope (serial portions derived later).
    label_wall: HashMap<&'static str, f64>,
    started: Instant,
    depth: usize,
    label_stack: Vec<&'static str>,
}

/// Whether cost recording is active (parallel entry points check this).
#[inline]
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Begin recording. Panics if already recording. While recording, all
/// `lra-par` parallel regions run sequentially on the calling thread.
pub fn start() {
    let mut guard = STATE.lock().unwrap();
    assert!(guard.is_none(), "cost recording already active");
    *guard = Some(RecState {
        regions: Vec::new(),
        label_wall: HashMap::new(),
        started: Instant::now(),
        depth: 0,
        label_stack: Vec::new(),
    });
    RECORDING.store(true, Ordering::SeqCst);
}

/// Stop recording and return the collected profile.
pub fn finish() -> Profile {
    RECORDING.store(false, Ordering::SeqCst);
    let state = STATE
        .lock()
        .unwrap()
        .take()
        .expect("cost recording was not active");
    Profile {
        wall: state.started.elapsed().as_secs_f64(),
        regions: state.regions,
        label_wall: state.label_wall,
    }
}

/// Attribute everything recorded inside `f` to `label` (a kernel name).
/// A no-op passthrough when not recording. Scopes may not nest.
pub fn label_scope<T>(label: &'static str, f: impl FnOnce() -> T) -> T {
    if !is_recording() {
        return f();
    }
    {
        let mut guard = STATE.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            state.label_stack.push(label);
        }
    }
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    {
        let mut guard = STATE.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            state.label_stack.pop();
            if state.label_stack.is_empty() {
                *state.label_wall.entry(label).or_insert(0.0) += dt;
            }
        }
    }
    out
}

/// Enter a would-be-parallel region; returns true when this region
/// should record chunk times (top-level region while recording).
pub(crate) fn enter_region() -> bool {
    if !is_recording() {
        return false;
    }
    let mut guard = STATE.lock().unwrap();
    if let Some(state) = guard.as_mut() {
        state.depth += 1;
        state.depth == 1
    } else {
        false
    }
}

/// Leave a region; if `chunks` is non-empty the region's chunk times are
/// stored under the current label.
pub(crate) fn leave_region(chunks: Vec<f64>) {
    let mut guard = STATE.lock().unwrap();
    if let Some(state) = guard.as_mut() {
        state.depth = state.depth.saturating_sub(1);
        if !chunks.is_empty() {
            let label = state.label_stack.last().copied().unwrap_or(UNLABELED);
            state.regions.push((label, chunks));
        }
    }
}

/// The cost profile of one recorded run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Total wall time of the recorded (sequential) run.
    pub wall: f64,
    /// Per-region `(label, chunk durations)` in execution order.
    pub regions: Vec<(&'static str, Vec<f64>)>,
    /// Wall time spent inside each label scope.
    pub label_wall: HashMap<&'static str, f64>,
}

impl Profile {
    /// Total time spent inside parallel regions.
    pub fn parallel_work(&self) -> f64 {
        self.regions.iter().map(|(_, c)| c.iter().sum::<f64>()).sum()
    }

    /// Serial remainder (never scales).
    pub fn serial_time(&self) -> f64 {
        (self.wall - self.parallel_work()).max(0.0)
    }

    /// Simulated runtime on `np` workers: serial time plus the sum of
    /// per-region LPT makespans.
    pub fn simulated_time(&self, np: usize) -> f64 {
        let np = np.max(1);
        self.serial_time()
            + self
                .regions
                .iter()
                .map(|(_, chunks)| lpt_makespan(chunks, np))
                .sum::<f64>()
    }

    /// Simulated speedup `T(1) / T(np)`.
    pub fn simulated_speedup(&self, np: usize) -> f64 {
        self.simulated_time(1) / self.simulated_time(np)
    }

    /// Simulated per-label runtime on `np` workers: each label's serial
    /// part (its scope wall minus its chunk work) plus its regions'
    /// makespans. Labels appear in first-seen order; [`UNLABELED`]
    /// covers work outside any scope.
    pub fn simulated_by_label(&self, np: usize) -> Vec<(&'static str, f64)> {
        let np = np.max(1);
        let mut order: Vec<&'static str> = Vec::new();
        let mut work: HashMap<&'static str, f64> = HashMap::new();
        let mut mkspan: HashMap<&'static str, f64> = HashMap::new();
        for (label, chunks) in &self.regions {
            if !order.contains(label) {
                order.push(label);
            }
            *work.entry(label).or_insert(0.0) += chunks.iter().sum::<f64>();
            *mkspan.entry(label).or_insert(0.0) += lpt_makespan(chunks, np);
        }
        for label in self.label_wall.keys() {
            if !order.contains(label) {
                order.push(label);
            }
        }
        let mut out = Vec::with_capacity(order.len());
        for label in order {
            let wall = self.label_wall.get(label).copied().unwrap_or_else(|| {
                // Unlabeled regions: no scope wall; treat all work as
                // parallel.
                work.get(label).copied().unwrap_or(0.0)
            });
            let serial = (wall - work.get(label).copied().unwrap_or(0.0)).max(0.0);
            out.push((label, serial + mkspan.get(label).copied().unwrap_or(0.0)));
        }
        out
    }
}

/// Greedy longest-processing-time makespan of `chunks` on `np` workers.
fn lpt_makespan(chunks: &[f64], np: usize) -> f64 {
    if chunks.is_empty() {
        return 0.0;
    }
    if np == 1 {
        return chunks.iter().sum();
    }
    let mut sorted: Vec<f64> = chunks.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut loads = vec![0.0f64; np.min(sorted.len()).max(1)];
    for c in sorted {
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        loads[idx] += c;
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// Record the chunks of one region by timing `body` per chunk.
pub(crate) fn run_recorded<F>(n: usize, grain: usize, body: F) -> Vec<f64>
where
    F: Fn(std::ops::Range<usize>),
{
    let grain = grain.max(1);
    let mut chunks = Vec::with_capacity(n.div_ceil(grain));
    let mut start = 0;
    while start < n {
        let end = (start + grain).min(n);
        let t = Instant::now();
        body(start..end);
        chunks.push(t.elapsed().as_secs_f64());
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_makespan_basics() {
        assert_eq!(lpt_makespan(&[], 4), 0.0);
        assert!((lpt_makespan(&[1.0, 1.0, 1.0, 1.0], 2) - 2.0).abs() < 1e-12);
        assert!((lpt_makespan(&[4.0, 1.0, 1.0, 1.0, 1.0], 2) - 4.0).abs() < 1e-12);
        assert!((lpt_makespan(&[3.0, 1.0], 8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn profile_speedup_monotone() {
        let p = Profile {
            wall: 10.0,
            regions: vec![("a", vec![1.0; 8]), ("b", vec![0.5; 16])],
            label_wall: HashMap::new(),
        };
        let s1 = p.simulated_speedup(1);
        let s2 = p.simulated_speedup(2);
        let s8 = p.simulated_speedup(8);
        assert!((s1 - 1.0).abs() < 1e-12);
        assert!(s2 > 1.0);
        assert!(s8 >= s2);
        let s_inf = p.simulated_speedup(1 << 20);
        assert!(s_inf <= p.wall / p.serial_time() + 1e-9);
    }

    #[test]
    fn saturation_when_chunks_run_out() {
        let p = Profile {
            wall: 4.0,
            regions: vec![("x", vec![1.0; 4])],
            label_wall: HashMap::new(),
        };
        assert!((p.simulated_time(4) - 1.0).abs() < 1e-12);
        assert!((p.simulated_time(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_recording_with_labels() {
        start();
        label_scope("kernel_a", || {
            crate::parallel_for(crate::Parallelism::new(8), 64, 8, |r| {
                // burn a little deterministic time
                let mut x = 0.0f64;
                for i in r {
                    x += (i as f64).sqrt();
                }
                std::hint::black_box(x);
            });
        });
        let profile = finish();
        assert_eq!(profile.regions.len(), 1);
        assert_eq!(profile.regions[0].0, "kernel_a");
        assert_eq!(profile.regions[0].1.len(), 8);
        let by = profile.simulated_by_label(4);
        assert!(by.iter().any(|(l, _)| *l == "kernel_a"));
        // More workers never slower in the model.
        assert!(profile.simulated_time(8) <= profile.simulated_time(1) + 1e-12);
    }

    #[test]
    fn nested_regions_count_once() {
        start();
        crate::parallel_for(crate::Parallelism::new(4), 4, 1, |_| {
            // Inner parallel call while recording must not create a
            // second region.
            crate::parallel_for(crate::Parallelism::new(4), 8, 2, |_| {});
        });
        let profile = finish();
        assert_eq!(profile.regions.len(), 1);
        assert_eq!(profile.regions[0].1.len(), 4);
    }
}
