//! Typed outcomes for budgeted runs.
//!
//! The fixed-precision loops evaluate an error indicator every
//! iteration, so a run stopped early by a [`lra_recover::Budget`] is
//! not an error — it is a valid lower-rank approximation with a known
//! achieved tolerance. [`Outcome`] makes that contract explicit:
//! callers that only want finished factors match on
//! [`Outcome::Completed`]; callers willing to accept a
//! degraded-but-quantified approximation (a deadline-bound service, an
//! interactive cancel) get the partial factors, the typed
//! [`lra_recover::BudgetTrip`], the achieved tolerance, and a
//! [`ResumeHandle`] naming the checkpoint the driver took at the trip
//! boundary.
//!
//! Each result type converts itself via its `into_outcome()` method
//! (e.g. [`crate::LuCrtpResult::into_outcome`]); resuming is simply
//! rerunning the same checkpointed entry point against the same store
//! with a looser budget — the resumed run reproduces the uninterrupted
//! run bitwise (pinned by the explorer's cancel dimension, see
//! [`crate::explore_fault_space`]).
//!
//! The drivers know nothing about jobs. A job engine (`lra-serve`)
//! keeps its own ledger — job id, preemption count, parked state — and
//! reads one thing from an interruption: [`ResumeHandle::iteration`],
//! the iteration its trip-boundary checkpoint covers.
//!
//! # One stop contract
//!
//! The three block loops — `drive` (LU_CRTP / ILUT_CRTP on every
//! engine), `rand_qb_ei` and `rand_ubv` — stop by rules written once
//! here: [`budget_trip`] at every block boundary, [`non_finite`] on
//! every value the stop reads (an overflowed norm stops the run
//! unconverged; it never certifies), and [`achieved_tolerance`] /
//! [`classify`] behind every result's `achieved_tolerance()` and
//! `into_outcome()`, the checkpoint kind the only per-method input.

use crate::RecoveryHooks;
use lra_comm::Ctx;
use lra_recover::{Budget, BudgetTrip, RecoveryEvent};

/// Where a budget-tripped run can be picked up again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeHandle {
    /// Checkpoint kind tag (`"lu_crtp"` or `"rand_qb_ei"`) — matches
    /// the store envelope's `kind` field.
    pub kind: &'static str,
    /// The iteration the trip-boundary snapshot covers: a resumed run
    /// continues from exactly here.
    pub iteration: usize,
}

/// A budget-tripped run: the partial result plus everything a caller
/// needs to either accept it or continue it.
#[derive(Debug, Clone)]
pub struct Interrupted<T> {
    /// The partial result — valid factors at the trip iteration.
    pub partial: T,
    /// Which budget limit (or cancel token) stopped the run.
    pub trip: lra_recover::BudgetTrip,
    /// Achieved relative tolerance `indicator / ||A||_F` at the trip
    /// iteration: the quantified accuracy of the degraded result.
    pub achieved_tolerance: f64,
    /// Resume point. `Some` once at least one iteration completed;
    /// the snapshot it names exists when the run was driven with
    /// checkpoint hooks. `None` for iteration-0 trips and for drivers
    /// without a checkpoint layer (RandUBV) — resuming those means
    /// starting fresh.
    pub resume: Option<ResumeHandle>,
}

impl<T> Interrupted<T> {
    /// True when the trip was a [`lra_recover::CancelToken`] firing (a
    /// deadline trips as `DeadlineExceeded`) — what a preemptive
    /// scheduler checks, beside its own token, before parking a job.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.trip, lra_recover::BudgetTrip::Cancelled)
    }
}

/// A budgeted run either ran to its stop rule or was interrupted.
#[derive(Debug, Clone)]
pub enum Outcome<T> {
    /// The run finished on its own terms (converged, broke down, or
    /// hit its rank cap) — no budget limit fired.
    Completed(T),
    /// A budget limit or cancel token stopped the run early.
    Interrupted(Interrupted<T>),
}

impl<T> Outcome<T> {
    /// True for [`Outcome::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, Outcome::Interrupted(_))
    }

    /// The result value regardless of how the run ended.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Completed(v) => v,
            Outcome::Interrupted(i) => i.partial,
        }
    }

    /// The interruption record, or `None` if the run completed.
    pub fn interrupted(self) -> Option<Interrupted<T>> {
        match self {
            Outcome::Completed(_) => None,
            Outcome::Interrupted(i) => Some(i),
        }
    }
}

/// The block-boundary budget step of every block loop, after
/// `iterations` blocks, holding `resident` bytes of factorization
/// state. With an unlimited budget it does nothing. Otherwise a rank
/// group agrees on one verdict through a fixed allreduce (the budget is
/// replicated, so the group takes the same branch and no rank leaves
/// the collective schedule alone); on a trip, `save` snapshots the
/// boundary unless the checkpoint cadence already did, so the resume
/// handle names the trip iteration, and the root records the event.
pub(crate) fn budget_trip(
    budget: &Budget,
    comm: Option<&Ctx>,
    iterations: usize,
    resident: u64,
    hooks: Option<&RecoveryHooks<'_>>,
    save: impl FnOnce(&RecoveryHooks<'_>),
) -> Option<BudgetTrip> {
    if budget.is_unlimited() {
        return None;
    }
    let local = budget.check(iterations as u64, resident);
    let trip = match comm {
        None => local,
        Some(ctx) => ctx.allreduce_opt(local, BudgetTrip::merge),
    }?;
    if let Some(h) = hooks.filter(|h| iterations > 0 && !h.should_save(iterations)) {
        save(h);
    }
    if comm.is_none_or(|c| c.rank() == 0) {
        let event = RecoveryEvent::BudgetTrip { trip: trip.clone(), iteration: iterations };
        lra_recover::record_event(&event);
    }
    Some(trip)
}

/// The non-finite guard: `true`, after recording a guard trip, when any
/// of `values` is NaN or infinite; the loop then stops unconverged with
/// the blocks it has. Going on would corrupt every later block, and an
/// identity clamped with `max(0.0)` would read a NaN as a zero residual.
pub(crate) fn non_finite(what: &str, iteration: usize, values: &[f64]) -> bool {
    let bad = values.iter().any(|v| !v.is_finite());
    if bad {
        lra_recover::record_guard_trip(format!("{what} at iteration {iteration}"));
    }
    bad
}

/// Achieved relative tolerance `indicator / ||A||_F`, 0 for the zero
/// matrix.
pub(crate) fn achieved_tolerance(indicator: f64, a_norm_f: f64) -> f64 {
    if a_norm_f == 0.0 {
        0.0
    } else {
        indicator / a_norm_f
    }
}

/// [`Outcome::Interrupted`] exactly when a budget trip stopped the run,
/// with a resume handle when the method checkpoints (`resume_kind`) and
/// at least one of its `iterations` completed.
pub(crate) fn classify<T>(
    trip: Option<BudgetTrip>,
    achieved_tolerance: f64,
    resume_kind: Option<&'static str>,
    iterations: usize,
    partial: T,
) -> Outcome<T> {
    let Some(trip) = trip else {
        return Outcome::Completed(partial);
    };
    let resume = resume_kind.filter(|_| iterations > 0);
    Outcome::Interrupted(Interrupted {
        partial,
        trip,
        achieved_tolerance,
        resume: resume.map(|kind| ResumeHandle { kind, iteration: iterations }),
    })
}
