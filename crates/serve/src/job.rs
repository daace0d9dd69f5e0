//! Job descriptions and completion reports.
//!
//! A [`JobSpec`] is everything a tenant hands the engine: the matrix
//! (shared, never copied), which driver to run with which options, a
//! priority, a rank-group size, and per-job resource limits. The
//! engine answers with a [`JobReport`] once the job leaves the system.

use std::sync::Arc;
use std::time::Duration;

use lra_core::{IlutOpts, LuCrtpOpts, LuCrtpResult, Method, Outcome};
use lra_sparse::CscMatrix;

pub use lra_core::JobId;

/// Which factorization driver a job runs. Both variants execute
/// through `lra_core::factorize` on `Exec::Spmd` with checkpoint hooks,
/// so every job is preemptible and resumable regardless of algorithm.
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

    /// [`Algorithm::base`], mutably (the scheduler installs the
    /// per-dispatch budget through it).
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

    /// The relative tolerance `tau` the job targets.
    pub fn tau(&self) -> f64 {
        self.base().tau
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
    /// Driver and options.
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
    /// Service deadline measured from admission (not per dispatch): a
    /// [`lra_recover::DeadlineGuard`] armed at admission cancels the
    /// job when it expires, even across park/resume cycles. The tenant
    /// then receives an [`Outcome::Interrupted`] with the partial
    /// factors and their achieved tolerance.
    pub deadline: Option<Duration>,
    /// Per-rank resident-bytes ceiling forwarded into the driver
    /// budget ([`lra_recover::Budget::memory_ceiling_bytes`]).
    pub memory_ceiling_bytes: Option<u64>,
    /// Tenant-facing label (shows up in the scrape output).
    pub label: String,
}

impl JobSpec {
    /// A default-priority single-rank job.
    pub fn new(matrix: Arc<CscMatrix>, algorithm: Algorithm) -> Self {
        JobSpec {
            matrix,
            algorithm,
            priority: 0,
            ranks: 1,
            deadline: None,
            memory_ceiling_bytes: None,
            label: String::new(),
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

    /// Set [`JobSpec::deadline`].
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set [`JobSpec::memory_ceiling_bytes`].
    pub fn with_memory_ceiling(mut self, bytes: u64) -> Self {
        self.memory_ceiling_bytes = Some(bytes);
        self
    }

    /// Set [`JobSpec::label`].
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// What the engine hands back when a job leaves the system.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job this report closes out.
    pub job: JobId,
    /// The factorization outcome. `Completed` when the run finished on
    /// its own terms (preemptions included — a preempted job is parked
    /// and resumed, never failed); `Interrupted` only when the job's
    /// *own* limits tripped (service deadline, memory ceiling), with
    /// the partial factors and achieved tolerance attached.
    pub outcome: Outcome<LuCrtpResult>,
    /// True when the factors came out of the [`crate::FactorCache`]
    /// without running the driver at all.
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
    /// Achieved relative tolerance of the returned factors.
    pub fn achieved_tolerance(&self) -> f64 {
        match &self.outcome {
            Outcome::Completed(r) => r.achieved_tolerance(),
            Outcome::Interrupted(i) => i.achieved_tolerance,
        }
    }

    /// The factors, however the run ended.
    pub fn into_result(self) -> LuCrtpResult {
        self.outcome.into_value()
    }
}
