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
