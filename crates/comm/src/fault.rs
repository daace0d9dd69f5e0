//! Chaos-injection plans for the SPMD runtime.
//!
//! A [`FaultPlan`] is threaded into [`crate::run_with`] and describes
//! failures the runtime should *inject* while the program runs:
//! killing a rank at its Nth communication operation, delaying message
//! deliveries with a seeded jitter (perturbing collective
//! interleavings deterministically), and silently dropping a sender's
//! Nth message so the receive watchdog's drop-then-detect path is
//! exercised. This is the shared-memory analogue of the MPI failure
//! modes a production deployment must tolerate: process death,
//! network-induced reordering, and message loss.
//!
//! All randomness is seeded (no wall-clock entropy), so a failing
//! chaos test reproduces exactly.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A declarative set of faults to inject into one [`crate::run_with`]
/// execution. Build with the chainable constructors:
///
/// ```
/// use lra_comm::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .kill_rank_at_op(2, 5)
///     .drop_nth_send(0, 3)
///     .delay_deliveries(42, Duration::from_micros(200));
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kills: Vec<(usize, u64)>,
    kills_iter: Vec<(usize, u64)>,
    kills_overlap: Vec<(usize, u64)>,
    drops: Vec<(usize, u64)>,
    delay: Option<DelaySpec>,
    stalls: Vec<StallSpec>,
    overlap_stalls: Vec<StallSpec>,
}

#[derive(Debug, Clone)]
struct DelaySpec {
    seed: u64,
    max: Duration,
}

/// One injected stall: the rank sleeps `stall` when it announces
/// `iteration`, once *across plan clones* — a supervisor clones the
/// plan into every retry attempt, and the stall models a transient
/// hiccup that resolves on retry.
#[derive(Debug, Clone)]
struct StallSpec {
    rank: usize,
    iteration: u64,
    stall: Duration,
    spent: Arc<AtomicBool>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `rank` when its operation counter reaches `op_index`
    /// (1-based; sends, receives and collective entries all advance
    /// the counter). The kill is reported as
    /// [`crate::CommError::Failed`] on the victim and poisons every
    /// peer.
    pub fn kill_rank_at_op(mut self, rank: usize, op_index: u64) -> Self {
        self.kills.push((rank, op_index.max(1)));
        self
    }

    /// Kill `rank` when the algorithm announces iteration `iteration`
    /// via [`crate::Ctx::begin_iteration`] (1-based). Unlike
    /// [`FaultPlan::kill_rank_at_op`], this is indexed by *algorithm*
    /// iterations, not communication operations, so recovery tests can
    /// deterministically kill a rank between two checkpoints regardless
    /// of kernel-level op-count drift.
    pub fn kill_rank_at_iteration(mut self, rank: usize, iteration: u64) -> Self {
        self.kills_iter.push((rank, iteration.max(1)));
        self
    }

    /// Kill `rank` in the window between posting a nonblocking
    /// exchange and completing it, at algorithm iteration `iteration`
    /// (1-based). The kill fires when the rank enters the completion
    /// barrier of a [`crate::PendingExchange`] while its announced
    /// iteration equals `iteration` — i.e. after its sends were posted
    /// but before the received shard pieces were consumed. This is the
    /// torn-shard hazard window the overlap chaos sites exercise: the
    /// victim must surface [`crate::CommError::Failed`] and peers
    /// blocked draining the exchange must abort typed, never hang.
    pub fn kill_rank_mid_overlap(mut self, rank: usize, iteration: u64) -> Self {
        self.kills_overlap.push((rank, iteration.max(1)));
        self
    }

    /// Stall `rank` mid-overlap (at the completion barrier of a pending
    /// exchange, while the announced iteration equals `iteration`),
    /// one-shot across clones of this plan. A stall longer than the
    /// run's watchdog makes peers blocked in their own completion
    /// drains fail with [`crate::CommError::Timeout`] — the transient
    /// (retryable) mid-overlap fault, complementing
    /// [`FaultPlan::kill_rank_mid_overlap`]'s permanent one.
    pub fn stall_rank_once_mid_overlap(
        mut self,
        rank: usize,
        iteration: u64,
        stall: Duration,
    ) -> Self {
        self.overlap_stalls.push(StallSpec {
            rank,
            iteration: iteration.max(1),
            stall,
            spent: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// A copy of this plan with every kill (op-, iteration-, and
    /// overlap-indexed) for `rank` removed. Supervisors use this
    /// between attempts: an injected kill models a one-shot crash, so a
    /// resumed execution must not re-kill the same rank at the same
    /// point forever.
    pub fn without_kills_for(mut self, rank: usize) -> Self {
        self.kills.retain(|(r, _)| *r != rank);
        self.kills_iter.retain(|(r, _)| *r != rank);
        self.kills_overlap.retain(|(r, _)| *r != rank);
        self
    }

    /// Stall `rank` for `stall` when it announces algorithm iteration
    /// `iteration` (1-based, via [`crate::Ctx::begin_iteration`]), once
    /// across clones of this plan: the first execution that reaches the
    /// iteration stalls, every later one (e.g. a supervisor's retry of
    /// the same configuration) runs clean. A stall longer than the
    /// run's watchdog makes every *peer* fail with
    /// [`crate::CommError::Timeout`] — a transient (retryable) failure
    /// at a chosen iteration, complementing
    /// [`FaultPlan::kill_rank_at_iteration`]'s permanent one.
    pub fn stall_rank_once_at_iteration(
        mut self,
        rank: usize,
        iteration: u64,
        stall: Duration,
    ) -> Self {
        self.stalls.push(StallSpec {
            rank,
            iteration: iteration.max(1),
            stall,
            spent: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Silently drop the `nth` message (0-based) sent by `rank`. The
    /// receiver is *not* notified — detection is the watchdog's job.
    pub fn drop_nth_send(mut self, rank: usize, nth: u64) -> Self {
        self.drops.push((rank, nth));
        self
    }

    /// Delay every message delivery by a seeded-uniform duration in
    /// `[0, max]`. Per-rank streams are decorrelated from `seed`, so
    /// two runs with the same plan produce the same perturbation.
    pub fn delay_deliveries(mut self, seed: u64, max: Duration) -> Self {
        self.delay = Some(DelaySpec { seed, max });
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.kills_iter.is_empty()
            && self.kills_overlap.is_empty()
            && self.drops.is_empty()
            && self.delay.is_none()
            && self.stalls.is_empty()
            && self.overlap_stalls.is_empty()
    }

    /// The op index at which `rank` must die, if any (earliest wins).
    pub(crate) fn kill_op_for(&self, rank: usize) -> Option<u64> {
        self.kills
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, op)| *op)
            .min()
    }

    /// The iteration at which `rank` must die, if any (earliest wins).
    pub(crate) fn kill_iteration_for(&self, rank: usize) -> Option<u64> {
        self.kills_iter
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, it)| *it)
            .min()
    }

    /// Sorted send indices `rank` must drop.
    pub(crate) fn drops_for(&self, rank: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .drops
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, n)| *n)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The iteration at which `rank` must die mid-overlap, if any
    /// (earliest wins).
    pub(crate) fn kill_overlap_for(&self, rank: usize) -> Option<u64> {
        self.kills_overlap
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, it)| *it)
            .min()
    }

    /// Stalls scheduled for `rank`, keyed by iteration.
    pub(crate) fn stalls_for(&self, rank: usize) -> Vec<RankStall> {
        self.stalls
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| RankStall {
                iteration: s.iteration,
                stall: s.stall,
                spent: s.spent.clone(),
            })
            .collect()
    }

    /// Mid-overlap stalls scheduled for `rank`, keyed by iteration.
    pub(crate) fn overlap_stalls_for(&self, rank: usize) -> Vec<RankStall> {
        self.overlap_stalls
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| RankStall {
                iteration: s.iteration,
                stall: s.stall,
                spent: s.spent.clone(),
            })
            .collect()
    }

    /// Per-rank delay stream, if delivery delays are enabled.
    pub(crate) fn delay_for(&self, rank: usize) -> Option<RankDelay> {
        self.delay.as_ref().map(|spec| RankDelay {
            // Decorrelate rank streams; golden-ratio increments keep
            // distinct ranks' SplitMix sequences independent.
            state: Cell::new(
                spec.seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03,
            ),
            max_nanos: spec.max.as_nanos().min(u128::from(u64::MAX)) as u64,
        })
    }
}

/// One rank's resolved stall schedule entry.
#[derive(Debug)]
pub(crate) struct RankStall {
    pub(crate) iteration: u64,
    pub(crate) stall: Duration,
    spent: Arc<AtomicBool>,
}

impl RankStall {
    /// Whether this stall should fire now (consumes the one-shot
    /// budget shared across plan clones).
    pub(crate) fn arm(&self) -> bool {
        !self.spent.swap(true, Ordering::Relaxed)
    }
}

/// Deterministic per-rank delay stream (SplitMix64 under the hood).
#[derive(Debug)]
pub(crate) struct RankDelay {
    state: Cell<u64>,
    max_nanos: u64,
}

impl RankDelay {
    /// Next delay, uniform in `[0, max]`.
    pub(crate) fn next_delay(&self) -> Duration {
        let mut s = self.state.get().wrapping_add(0x9E3779B97F4A7C15);
        self.state.set(s);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D049BB133111EB);
        s ^= s >> 31;
        if self.max_nanos == 0 {
            return Duration::ZERO;
        }
        let nanos = ((s as u128 * (self.max_nanos as u128 + 1)) >> 64) as u64;
        Duration::from_nanos(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_op_earliest_wins() {
        let p = FaultPlan::new().kill_rank_at_op(1, 9).kill_rank_at_op(1, 4);
        assert_eq!(p.kill_op_for(1), Some(4));
        assert_eq!(p.kill_op_for(0), None);
    }

    #[test]
    fn kill_iteration_independent_of_kill_op() {
        let p = FaultPlan::new()
            .kill_rank_at_iteration(2, 3)
            .kill_rank_at_iteration(2, 7)
            .kill_rank_at_op(1, 5);
        assert_eq!(p.kill_iteration_for(2), Some(3));
        assert_eq!(p.kill_iteration_for(1), None);
        assert_eq!(p.kill_op_for(2), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn without_kills_strips_both_kill_kinds() {
        let p = FaultPlan::new()
            .kill_rank_at_op(0, 4)
            .kill_rank_at_iteration(0, 2)
            .kill_rank_at_iteration(1, 2)
            .drop_nth_send(0, 1);
        let q = p.without_kills_for(0);
        assert_eq!(q.kill_op_for(0), None);
        assert_eq!(q.kill_iteration_for(0), None);
        assert_eq!(q.kill_iteration_for(1), Some(2));
        // Non-kill faults are untouched.
        assert_eq!(q.drops_for(0), vec![1]);
    }

    #[test]
    fn drops_sorted_deduped() {
        let p = FaultPlan::new()
            .drop_nth_send(2, 7)
            .drop_nth_send(2, 3)
            .drop_nth_send(2, 7);
        assert_eq!(p.drops_for(2), vec![3, 7]);
        assert!(p.drops_for(1).is_empty());
    }

    #[test]
    fn delay_streams_deterministic_and_bounded() {
        let p = FaultPlan::new().delay_deliveries(11, Duration::from_micros(50));
        let a = p.delay_for(0).unwrap();
        let b = p.delay_for(0).unwrap();
        for _ in 0..100 {
            let d = a.next_delay();
            assert_eq!(d, b.next_delay());
            assert!(d <= Duration::from_micros(50));
        }
        // Distinct ranks see distinct streams.
        let c = p.delay_for(1).unwrap();
        let a2 = p.delay_for(0).unwrap();
        assert_ne!(
            (0..8).map(|_| a2.next_delay()).collect::<Vec<_>>(),
            (0..8).map(|_| c.next_delay()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn one_shot_stall_spends_across_clones() {
        let once = FaultPlan::new().stall_rank_once_at_iteration(0, 3, Duration::from_millis(5));
        let cloned = once.clone();
        let a = &once.stalls_for(0)[0];
        assert_eq!(a.iteration, 3);
        assert!(a.arm(), "first arm fires");
        let b = &cloned.stalls_for(0)[0];
        assert!(!b.arm(), "the clone shares the spent flag");
        assert!(once.stalls_for(1).is_empty());
        assert!(!once.is_empty());
    }

    #[test]
    fn overlap_kills_resolved_and_stripped() {
        let p = FaultPlan::new()
            .kill_rank_mid_overlap(1, 4)
            .kill_rank_mid_overlap(1, 2)
            .stall_rank_once_mid_overlap(0, 3, Duration::from_millis(5));
        assert!(!p.is_empty());
        assert_eq!(p.kill_overlap_for(1), Some(2), "earliest wins");
        assert_eq!(p.kill_overlap_for(0), None);
        let q = p.clone().without_kills_for(1);
        assert_eq!(q.kill_overlap_for(1), None);
        // Stalls survive kill stripping; the one-shot flag is shared
        // across clones like iteration stalls.
        let a = &p.overlap_stalls_for(0)[0];
        assert_eq!(a.iteration, 3);
        assert!(a.arm());
        assert!(!q.overlap_stalls_for(0)[0].arm());
    }

    #[test]
    fn zero_max_delay_is_zero() {
        let p = FaultPlan::new().delay_deliveries(1, Duration::ZERO);
        assert_eq!(p.delay_for(3).unwrap().next_delay(), Duration::ZERO);
    }
}
