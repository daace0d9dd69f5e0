//! The LU_CRTP / ILUT_CRTP entry surface: *which* method
//! ([`Method`]), *where* it runs ([`Exec`]), and three functions —
//! [`factorize`] (one call, on the caller's thread or rank),
//! [`factorize_ranks`] (spawn `np` ranks, keep every rank's outcome and
//! counters) and [`factorize_supervised`] (ranks under a recovery
//! ladder). All of them run the one panel loop ([`crate::panel`]);
//! [`lu_crtp`] and [`ilut_crtp`] are the paper's names for its
//! sequential case.

use crate::checkpoint::RecoveryHooks;
use crate::lucrtp::{
    run_seq, validate_matrix, IlutOpts, InvalidInput, LuCrtpOpts, LuCrtpResult, OrderingMode,
};
use crate::spmd::{run_replicated, run_sharded};
use lra_comm::{Ctx, RunConfig, RunReport};
use lra_recover::{run_supervised, RecoveryError, RecoveryPolicy, Supervised};
use lra_sparse::CscMatrix;
use std::time::Instant;

/// Which of the paper's two deterministic methods to run, with its
/// options. `&LuCrtpOpts` and `&IlutOpts` convert into it, so callers
/// pass `&opts` of either type.
#[derive(Debug, Clone, Copy)]
pub enum Method<'a> {
    /// LU_CRTP (Algorithm 2).
    LuCrtp(&'a LuCrtpOpts),
    /// ILUT_CRTP (Algorithm 3): LU_CRTP over `opts.base` plus
    /// thresholding of the Schur complement.
    IlutCrtp(&'a IlutOpts),
}

impl<'a> From<&'a LuCrtpOpts> for Method<'a> {
    fn from(opts: &'a LuCrtpOpts) -> Self {
        Method::LuCrtp(opts)
    }
}

impl<'a> From<&'a IlutOpts> for Method<'a> {
    fn from(opts: &'a IlutOpts) -> Self {
        Method::IlutCrtp(opts)
    }
}

impl<'a> Method<'a> {
    /// The API-boundary check of the SPMD entry points
    /// ([`factorize_ranks`], [`factorize_supervised`], `lra-serve`'s
    /// admission): the options' own `validate`, then an option only
    /// [`Exec::Seq`] honours, then an empty or non-finite `a` — an
    /// [`InvalidInput`] instead of a panic deep inside a kernel.
    /// [`factorize`] itself does not call it.
    pub fn validate(&self, a: &CscMatrix) -> Result<(), InvalidInput> {
        match self {
            Method::LuCrtp(o) => o.validate()?,
            Method::IlutCrtp(o) => o.validate()?,
        }
        self.spmd_capable()?;
        validate_matrix(a)
    }

    /// [`InvalidInput::SequentialOnly`] for an option the SPMD engines
    /// do not implement: [`OrderingMode::EveryIteration`], Fig. 1
    /// (left)'s ablation, reorders a Schur complement no rank holds
    /// whole.
    fn spmd_capable(self) -> Result<(), InvalidInput> {
        match self.parts().0.ordering {
            OrderingMode::EveryIteration => Err(InvalidInput::SequentialOnly {
                option: "OrderingMode::EveryIteration",
            }),
            OrderingMode::Natural | OrderingMode::FirstIteration => Ok(()),
        }
    }

    /// `(LU_CRTP options, ILUT extras)` as the panel loop takes them.
    fn parts(self) -> (&'a LuCrtpOpts, Option<&'a IlutOpts>) {
        match self {
            Method::LuCrtp(o) => (o, None),
            Method::IlutCrtp(o) => (&o.base, Some(o)),
        }
    }
}

/// Where one [`factorize`] call runs.
#[derive(Clone, Copy)]
pub enum Exec<'a> {
    /// On the calling thread, the Schur complement as 32-column runs
    /// that each Schur update rewrites in place, so one complement is
    /// held at a time; `opts.par` threads every kernel.
    Seq,
    /// As one rank of an [`lra_comm::run`] region: every rank makes the
    /// same call, keeping only its owned block-column shard of the Schur
    /// complement resident (`mem` reports the per-rank peak), and
    /// returns the same result, except that only rank 0's carries `L`
    /// and `U` (the other ranks' are empty). `opts.par` is the
    /// intra-rank worker count; results are bitwise-independent of it.
    Spmd(&'a Ctx),
    /// [`Exec::Spmd`] with the whole Schur complement on every rank,
    /// partitioned into the same column ranges and reduction trees: the
    /// bitwise oracle for the sharded engine. Never checkpointed —
    /// [`factorize`] panics if it is handed hooks.
    #[doc(hidden)]
    SpmdReplicated(&'a Ctx),
}

/// Run `method` on `a` where `exec` says. With `hooks`, the loop state
/// is snapshotted at the end of each covered iteration (under SPMD a
/// collective boundary: the shards are gathered to rank 0, which
/// saves) and the run resumes from the store's latest snapshot when
/// one is present, re-slicing shards for the *current* rank count; an
/// ILUT snapshot carries the threshold state, so the resumed estimator
/// (eq. 26) still accounts for mass dropped before the interruption.
/// All ranks of one run must share the same store.
///
/// Panics under `Exec::Spmd*` with the [`InvalidInput::SequentialOnly`]
/// message when `method` asks for [`OrderingMode::EveryIteration`];
/// [`Method::validate`] answers the same case with the error.
pub fn factorize<'m>(
    a: &CscMatrix,
    method: impl Into<Method<'m>>,
    exec: Exec<'_>,
    hooks: Option<&RecoveryHooks<'_>>,
) -> LuCrtpResult {
    let method = method.into();
    if !matches!(exec, Exec::Seq) {
        if let Err(e) = method.spmd_capable() {
            panic!("factorize under Exec::Spmd: {e}");
        }
    }
    let (opts, ilut) = method.parts();
    match exec {
        Exec::Seq => run_seq(a, opts, ilut, hooks),
        Exec::Spmd(ctx) => run_sharded(ctx, a, opts, ilut, hooks),
        Exec::SpmdReplicated(ctx) => {
            assert!(
                hooks.is_none(),
                "Exec::SpmdReplicated is the bitwise oracle for Exec::Spmd and is never \
                 checkpointed: pass `hooks: None`"
            );
            run_replicated(ctx, a, opts, ilut)
        }
    }
}

/// LU_CRTP (Algorithm 2): deterministic fixed-precision truncated LU
/// with column and row tournament pivoting.
pub fn lu_crtp(a: &CscMatrix, opts: &LuCrtpOpts) -> LuCrtpResult {
    factorize(a, opts, Exec::Seq, None)
}

/// ILUT_CRTP (Algorithm 3): incomplete LU_CRTP with thresholding.
pub fn ilut_crtp(a: &CscMatrix, opts: &IlutOpts) -> LuCrtpResult {
    factorize(a, opts, Exec::Seq, None)
}

/// Exists only because `benchmark/src/adapter.rs:229` names it and a
/// code PR may not edit `benchmark/`; everything else calls
/// [`factorize`]. Always `Ok`.
#[doc(hidden)]
pub fn ilut_crtp_spmd_checkpointed(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &IlutOpts,
    hooks: Option<&RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    Ok(factorize(a, opts, Exec::Spmd(ctx), hooks))
}

/// [`Method::validate`], then [`factorize`] with [`Exec::Spmd`] on `np`
/// ranks under `config` (watchdog window, chaos
/// [`lra_comm::FaultPlan`]). The report keeps every rank's outcome and
/// [`lra_comm::CommStats`]: a rank killed mid-factorization surfaces as
/// [`lra_comm::CommError::Failed`] on the victim and `PeerFailed` on
/// every survivor — no hang; `report.unwrap_all().swap_remove(0)` is
/// the result when any failure is fatal.
pub fn factorize_ranks<'m>(
    a: &CscMatrix,
    method: impl Into<Method<'m>>,
    np: usize,
    config: &RunConfig,
    hooks: Option<&RecoveryHooks<'_>>,
) -> Result<RunReport<LuCrtpResult>, InvalidInput> {
    let method = method.into();
    method.validate(a)?;
    Ok(lra_comm::run_with(np, config, |ctx| {
        factorize(a, method, Exec::Spmd(ctx), hooks)
    }))
}

/// Why [`factorize_supervised`] returned no result.
#[derive(Debug, Clone)]
pub enum SupervisedError {
    /// The input failed validation before any rank was spawned.
    Invalid(InvalidInput),
    /// The recovery policy was exhausted (or its deadline passed).
    Recovery(RecoveryError),
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisedError::Invalid(e) => write!(f, "invalid input: {e}"),
            SupervisedError::Recovery(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SupervisedError {}

impl From<InvalidInput> for SupervisedError {
    fn from(e: InvalidInput) -> Self {
        SupervisedError::Invalid(e)
    }
}

/// [`factorize_ranks`] under `lra-recover`'s retry/degrade loop,
/// checkpointing through `hooks`. The store is the caller's: an
/// in-memory one per call keeps concurrent supervised runs from
/// cross-resuming, an on-disk one makes the generations durable, and
/// any [`lra_recover::StorageFaultPlan`] attached to it is exercised by
/// the recovery path. The ladder, top to bottom:
///
/// 1. **Retry** (transient failure, i.e. a watchdog timeout): same rank
///    count, exponential backoff, resume from the latest checkpoint.
/// 2. **Shrink** (permanent failure, i.e. a rank panic/kill): `np - 1`
///    ranks, resume from the latest checkpoint. Correct because the
///    loop state is replicated and the snapshot is taken at a
///    collective boundary; the shrunk grid re-runs only the interrupted
///    iteration's work.
/// 3. **Sequential fallback** (a one-rank attempt failed permanently,
///    so the grid cannot shrink): [`Exec::Seq`] resumes from the same
///    checkpoint — slower, but the fixed-precision guarantee is
///    identical.
pub fn factorize_supervised<'m>(
    a: &CscMatrix,
    method: impl Into<Method<'m>>,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    hooks: RecoveryHooks<'_>,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    let method = method.into();
    method.validate(a)?;
    let (opts, ilut) = method.parts();
    // The policy deadline joins the loop's own budget (the earlier
    // wins), so an attempt that outlives it stops at the next iteration
    // boundary with a checkpoint and partial factors. Without one the
    // budget stays as given: an unlimited run pays no agreement
    // collective.
    let bounded = |at: Option<Instant>| {
        let mut o = opts.clone();
        if let Some(at) = at {
            o.budget = o.budget.with_deadline(at);
        }
        o
    };
    run_supervised(
        np,
        config,
        policy,
        |np, cfg, _, at| {
            let o = bounded(at);
            lra_comm::run_with(np, cfg, |ctx| run_sharded(ctx, a, &o, ilut, Some(&hooks)))
        },
        |at| Some(run_seq(a, &bounded(at), ilut, Some(&hooks))),
    )
    .map_err(SupervisedError::Recovery)
}
