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

/// Identity of one factorization job inside a multi-tenant engine.
///
/// The job engine (`lra-serve`) assigns these at admission; the core
/// layer threads them through [`ResumeHandle`]s and [`Parked`] records
/// so a preempted run stays attributable across park/resume cycles
/// (its trace lane, its `serve.job.<id>.*` metrics, its checkpoint
/// store) without the drivers themselves knowing about jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a budget-tripped run can be picked up again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeHandle {
    /// Checkpoint kind tag (`"lu_crtp"` or `"rand_qb_ei"`) — matches
    /// the store envelope's `kind` field.
    pub kind: &'static str,
    /// The iteration the trip-boundary snapshot covers: a resumed run
    /// continues from exactly here.
    pub iteration: usize,
    /// Owning job, when the run was driven by a job engine (`None` for
    /// direct driver calls). Stamped by [`Interrupted::for_job`].
    pub job: Option<JobId>,
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
    /// Stamp the owning job onto the resume handle (no-op when the run
    /// tripped before its first checkpointable iteration).
    pub fn for_job(mut self, job: JobId) -> Self {
        if let Some(h) = self.resume.as_mut() {
            h.job = Some(job);
        }
        self
    }

    /// True when the trip was a [`lra_recover::CancelToken`] firing —
    /// the signal a preemptive scheduler uses to distinguish "I stopped
    /// you to reclaim ranks" from the job's own budget running out.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.trip, lra_recover::BudgetTrip::Cancelled)
    }

    /// Park this interruption as a scheduler-owned record.
    pub fn park(self, job: JobId) -> Parked<T> {
        Parked {
            job,
            interrupted: self.for_job(job),
            preemptions: 1,
        }
    }
}

/// A preempted job waiting for ranks: the scheduler's ledger entry
/// between a preemption and the matching resume.
///
/// Parking is pure bookkeeping — the durable resume state lives in the
/// job's [`lra_recover::CheckpointStore`], and [`Parked::unpark`] just
/// hands back the [`Interrupted`] record so the engine can re-enter the
/// same checkpointed driver against that store. Because resume is
/// bitwise only within a rank count, the engine must redispatch on the
/// same number of ranks it originally granted.
#[derive(Debug, Clone)]
pub struct Parked<T> {
    /// The job this record belongs to.
    pub job: JobId,
    /// The interruption at the most recent preemption, resume handle
    /// stamped with [`Parked::job`].
    pub interrupted: Interrupted<T>,
    /// How many times this job has been preempted so far (≥ 1).
    pub preemptions: usize,
}

impl<T> Parked<T> {
    /// Re-park after another preemption: keep the count, adopt the new
    /// trip record (which names a later checkpoint).
    pub fn record_preemption(&mut self, interrupted: Interrupted<T>) {
        self.interrupted = interrupted.for_job(self.job);
        self.preemptions += 1;
    }

    /// The checkpoint iteration a resume would continue from, when the
    /// run got far enough to snapshot one.
    pub fn resume_iteration(&self) -> Option<usize> {
        self.interrupted.resume.as_ref().map(|h| h.iteration)
    }

    /// Consume the ledger entry for redispatch.
    pub fn unpark(self) -> Interrupted<T> {
        self.interrupted
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

    /// The completed value, or `None` if the run was interrupted.
    pub fn completed(self) -> Option<T> {
        match self {
            Outcome::Completed(v) => Some(v),
            Outcome::Interrupted(_) => None,
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
