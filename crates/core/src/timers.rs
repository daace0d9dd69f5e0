//! Per-kernel wall-clock accounting.
//!
//! Figures 5 and 6 of the paper break the runtime of LU_CRTP /
//! ILUT_CRTP and RandQB_EI into their most expensive kernels across
//! `(np, k)` sweeps; [`KernelTimers`] accumulates exactly those buckets.

use std::time::{Duration, Instant};

/// The computational kernels instrumented by the algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelId {
    /// Column tournament pivoting (`QR_TP` on the columns of `A^(i)`).
    ColTournament = 0,
    /// Dense QR of the selected column panel (sparse QR in the paper).
    PanelQr,
    /// Row tournament pivoting (`QR_TP` on `Q_k^T`).
    RowTournament,
    /// Row/column permutation and block splitting of `A^(i)`.
    Permute,
    /// Solve `Ā21 Ā11^{-1}` (the `L21` formation).
    LSolve,
    /// Schur complement update `Ā22 - L21 Ā12`, with the measurement
    /// its kernel takes of every column it writes (the indicator's
    /// square and the ILUT drop's mass).
    Schur,
    /// Threshold dropping (ILUT_CRTP only): the in-place filter of a
    /// drop the loop keeps.
    Drop,
    /// Factor concatenation / bookkeeping.
    Concat,
    /// Error indicator agreement: the SPMD group's allreduce of the
    /// measurement the Schur kernel took (nothing sequentially).
    Indicator,
    /// Randomized sketch `A Ω` (+ correction) — RandQB_EI.
    Sketch,
    /// Orthonormalization (`orth` / TSQR) — RandQB_EI, RandUBV.
    Orth,
    /// Power-scheme iterations — RandQB_EI.
    PowerIter,
    /// `B_k = Q_k^T A` update — RandQB_EI.
    BUpdate,
}

/// Number of kernel buckets.
pub const N_KERNELS: usize = 13;

/// All kernel ids, in declaration order.
pub const ALL_KERNELS: [KernelId; N_KERNELS] = [
    KernelId::ColTournament,
    KernelId::PanelQr,
    KernelId::RowTournament,
    KernelId::Permute,
    KernelId::LSolve,
    KernelId::Schur,
    KernelId::Drop,
    KernelId::Concat,
    KernelId::Indicator,
    KernelId::Sketch,
    KernelId::Orth,
    KernelId::PowerIter,
    KernelId::BUpdate,
];

impl KernelId {
    /// Human-readable label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            KernelId::ColTournament => "col_qr_tp",
            KernelId::PanelQr => "panel_qr",
            KernelId::RowTournament => "row_qr_tp",
            KernelId::Permute => "permute",
            KernelId::LSolve => "l_solve",
            KernelId::Schur => "schur",
            KernelId::Drop => "drop",
            KernelId::Concat => "concat",
            KernelId::Indicator => "indicator",
            KernelId::Sketch => "sketch",
            KernelId::Orth => "orth",
            KernelId::PowerIter => "power_iter",
            KernelId::BUpdate => "b_update",
        }
    }
}

/// Accumulated wall-clock time per kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelTimers {
    accum: [Duration; N_KERNELS],
}

impl KernelTimers {
    /// Fresh timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under the given kernel bucket. When `lra-par`
    /// cost recording is active, the closure also runs inside a
    /// [`lra_par::label_scope`] so simulated per-kernel breakdowns
    /// (Figs. 5-6) can be derived from the same run. When span tracing
    /// is enabled (`LRA_TRACE`), the same closure is also a trace span
    /// labelled with the kernel name — one instrumentation point feeds
    /// both the accumulated buckets and the per-rank timeline.
    pub fn time<T>(&mut self, id: KernelId, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = lra_obs::trace::span(id.label(), || lra_par::label_scope(id.label(), f));
        self.accum[id as usize] += start.elapsed();
        out
    }

    /// Add an externally measured duration.
    pub fn add(&mut self, id: KernelId, d: Duration) {
        self.accum[id as usize] += d;
    }

    /// Accumulated time for one kernel.
    pub fn get(&self, id: KernelId) -> Duration {
        self.accum[id as usize]
    }

    /// Total across all kernels.
    pub fn total(&self) -> Duration {
        self.accum.iter().sum()
    }

    /// `(label, seconds)` pairs for non-zero buckets, largest first.
    pub fn report(&self) -> Vec<(&'static str, f64)> {
        let mut v: Vec<(&'static str, f64)> = ALL_KERNELS
            .iter()
            .filter(|&&id| !self.get(id).is_zero())
            .map(|&id| (id.label(), self.get(id).as_secs_f64()))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    /// [`KernelTimers::report`] plus a final `other` bucket holding
    /// `wall_s - total()` (clamped at zero), so the buckets always sum
    /// to the end-to-end wall time — the invariant the `BENCH_*.json`
    /// validator checks.
    pub fn report_with_other(&self, wall_s: f64) -> Vec<(&'static str, f64)> {
        let mut v = self.report();
        v.push(("other", (wall_s - self.total().as_secs_f64()).max(0.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates() {
        let mut t = KernelTimers::new();
        let x = t.time(KernelId::Schur, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(x, 42);
        assert!(t.get(KernelId::Schur) >= Duration::from_millis(5));
        assert!(t.get(KernelId::Orth).is_zero());
        t.time(KernelId::Schur, || ());
        assert!(t.total() >= Duration::from_millis(5));
    }

    #[test]
    fn report_sorted_desc() {
        let mut t = KernelTimers::new();
        t.add(KernelId::Sketch, Duration::from_millis(10));
        t.add(KernelId::Orth, Duration::from_millis(30));
        let r = t.report();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, "orth");
        assert!(r[0].1 >= r[1].1);
    }

    #[test]
    fn report_with_other_sums_to_wall() {
        let mut t = KernelTimers::new();
        t.add(KernelId::Sketch, Duration::from_millis(40));
        t.add(KernelId::Orth, Duration::from_millis(10));
        let wall = 0.08;
        let r = t.report_with_other(wall);
        assert_eq!(r.last().unwrap().0, "other");
        let sum: f64 = r.iter().map(|(_, s)| s).sum();
        assert!((sum - wall).abs() < 1e-12, "{sum} vs {wall}");
        // Wall below the kernel total clamps `other` at zero.
        let r2 = t.report_with_other(0.01);
        assert_eq!(r2.last().unwrap().1, 0.0);
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = ALL_KERNELS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), N_KERNELS);
    }
}
