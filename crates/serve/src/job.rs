//! Job descriptions and completion reports.
//!
//! A [`JobSpec`] is everything a tenant hands the engine: the matrix
//! (shared, never copied), which driver to run with which options, a
//! priority and a rank-group size. The tenant's resource limits are
//! the options' own [`lra_recover::Budget`]. The engine answers with a
//! [`JobReport`] once the job leaves the system.

use std::sync::Arc;
use std::time::Duration;

use lra_core::{IlutOpts, Interrupted, LuCrtpOpts, LuCrtpResult, Method, Outcome, SupervisedError};
use lra_sparse::CscMatrix;

/// Identity of one job, assigned at admission. It also names the job's
/// trace lanes (`id * 64 + rank`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Which factorization driver a job runs. Both variants execute
/// through `lra_core::factorize_supervised` with checkpoint hooks, so
/// every job is preemptible, resumable and recovered alike.
#[derive(Debug, Clone)]
pub enum Algorithm {
    /// Deterministic fixed-precision LU_CRTP (Algorithm 2).
    LuCrtp(LuCrtpOpts),
    /// Thresholded ILUT_CRTP (Algorithm 3).
    IlutCrtp(IlutOpts),
}

impl Algorithm {
    /// Stable tag naming the driver — part of the cache key.
    pub fn tag(&self) -> &'static str {
        match self {
            Algorithm::LuCrtp(_) => "lu_crtp",
            Algorithm::IlutCrtp(_) => "ilut_crtp",
        }
    }

    /// The underlying LU_CRTP options (ILUT wraps them as `base`).
    pub fn base(&self) -> &LuCrtpOpts {
        match self {
            Algorithm::LuCrtp(o) => o,
            Algorithm::IlutCrtp(o) => &o.base,
        }
    }

    /// [`Algorithm::base`], mutably (the scheduler adds each dispatch's
    /// preempt token to the budget through it).
    pub fn base_mut(&mut self) -> &mut LuCrtpOpts {
        match self {
            Algorithm::LuCrtp(o) => o,
            Algorithm::IlutCrtp(o) => &mut o.base,
        }
    }

    /// The method and options as `lra_core::factorize` takes them.
    pub fn method(&self) -> Method<'_> {
        match self {
            Algorithm::LuCrtp(o) => Method::LuCrtp(o),
            Algorithm::IlutCrtp(o) => Method::IlutCrtp(o),
        }
    }

    /// Digest of every option that determines the factor bits. Left
    /// out: the budget (it carries per-dispatch cancel tokens and does
    /// not change what a completed run computes) and `par` (factors
    /// are bitwise-independent of the intra-rank worker count). Two
    /// specs with equal digests, equal matrices and equal rank counts
    /// produce bitwise-identical completed factors, which is exactly
    /// what the factor cache needs.
    pub fn options_digest(&self) -> u64 {
        let mut s = String::new();
        let b = self.base();
        use std::fmt::Write as _;
        let _ = write!(
            s,
            "{}|k={}|tau={:016x}|ord={:?}|mr={:?}",
            self.tag(),
            b.k,
            b.tau.to_bits(),
            b.ordering,
            b.max_rank,
        );
        if let Algorithm::IlutCrtp(o) = self {
            let _ = write!(s, "|u={}|phi={:016x}", o.u_estimate, o.phi_factor.to_bits());
        }
        let lo = lra_obs::crc::crc32(s.as_bytes());
        let hi = lra_obs::crc::crc32(&s.as_bytes()[s.len() / 2..]);
        (u64::from(hi) << 32) | u64::from(lo)
    }
}

/// One tenant request: matrix + algorithm + scheduling parameters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The input matrix. `Arc` so N queued jobs over the same matrix
    /// share one copy; the fingerprint is computed once at admission.
    pub matrix: Arc<CscMatrix>,
    /// Driver and options. The options' `budget` holds the tenant's own
    /// limits (its deadline spans queueing and parks); a trip closes the
    /// job with an [`Outcome::Interrupted`] and the partial factors.
    pub algorithm: Algorithm,
    /// Scheduling priority: higher runs first, and a waiting job
    /// preempts running jobs of *strictly lower* priority when the
    /// rank pool cannot otherwise satisfy it.
    pub priority: u8,
    /// SPMD rank-group size this job runs on. Part of the job's
    /// numeric identity: tournament merge order depends on the rank
    /// count, so a preempted job always resumes on the same number of
    /// ranks and the factor cache keys on it.
    pub ranks: usize,
}

impl JobSpec {
    /// A default-priority single-rank job.
    pub fn new(matrix: Arc<CscMatrix>, algorithm: Algorithm) -> Self {
        JobSpec {
            matrix,
            algorithm,
            priority: 0,
            ranks: 1,
        }
    }

    /// Set [`JobSpec::priority`].
    pub fn with_priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Set [`JobSpec::ranks`].
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }
}

/// How a job left the system: the run's [`Outcome`] — `Interrupted`
/// only when the job's *own* budget tripped, with the partial factors
/// — or the typed error of a recovery ladder that gave up.
#[derive(Debug, Clone)]
pub struct JobOutcome(pub Result<Outcome<LuCrtpResult>, SupervisedError>);

impl JobOutcome {
    /// True when the job's own budget tripped.
    pub fn is_interrupted(&self) -> bool {
        matches!(&self.0, Ok(o) if o.is_interrupted())
    }

    /// The factors however the run ended; panics, like `unwrap`, on an error.
    pub fn into_value(self) -> LuCrtpResult {
        match self.0 {
            Ok(o) => o.into_value(),
            Err(e) => panic!("served job failed: {e}"),
        }
    }

    /// The interruption record, or `None` if the job completed or failed.
    pub fn interrupted(self) -> Option<Interrupted<LuCrtpResult>> {
        self.0.ok().and_then(Outcome::interrupted)
    }
}

/// What the engine hands back when a job leaves the system.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job this report closes out.
    pub job: JobId,
    /// The factorization outcome, or the typed failure.
    pub outcome: JobOutcome,
    /// True when the factors came out of the factor cache without
    /// running the driver at all.
    pub from_cache: bool,
    /// How many times the scheduler preempted this job to reclaim
    /// ranks for higher-priority work.
    pub preemptions: usize,
    /// Number of driver dispatches this job consumed (0 for a cache
    /// hit, 1 for an uncontended run, `1 + preemptions` when every
    /// preemption was followed by a resume).
    pub driver_calls: usize,
    /// Service latency: admission to completion, parks included.
    pub wall: Duration,
}

impl JobReport {
    /// The factors, however the run ended ([`JobOutcome::into_value`]).
    pub fn into_result(self) -> LuCrtpResult {
        self.outcome.into_value()
    }
}
