//! Supervised distributed factorizations: `lra-recover`'s generic
//! retry/degrade loop instantiated for LU_CRTP and ILUT_CRTP.
//!
//! The degradation ladder, top to bottom:
//!
//! 1. **Retry** (transient failure, i.e. a watchdog timeout): same rank
//!    count, exponential backoff, resume from the latest checkpoint.
//! 2. **Shrink** (permanent failure, i.e. a rank panic/kill): `np - 1`
//!    ranks, resume from the latest checkpoint. Correct because the
//!    loop state is replicated and the snapshot is taken at a
//!    collective boundary; the shrunk grid re-runs only the interrupted
//!    iteration's work.
//! 3. **Sequential fallback** (grid would drop below
//!    [`RecoveryPolicy::min_ranks`]): the thread-local driver resumes
//!    from the same checkpoint — slower, but the fixed-precision
//!    guarantee is identical.
//!
//! Each supervised call uses its own in-memory [`CheckpointStore`], so
//! concurrent supervised runs never cross-resume. The `_with_store`
//! variants accept a caller-owned store instead — for durable on-disk
//! checkpoints, for custom retention windows, and for the fault-point
//! explorer (`crate::explore`), which injects storage faults through
//! `CheckpointStore::with_faults`.

use crate::checkpoint::RecoveryHooks;
use crate::lucrtp::{run_seq, validate_matrix, IlutOpts, InvalidInput, LuCrtpOpts, LuCrtpResult};
use crate::spmd::{run_sharded, Reshard};
use lra_comm::RunConfig;
use lra_recover::{
    run_supervised, CancelToken, CheckpointStore, RecoveryError, RecoveryPolicy, Supervised,
};
use lra_sparse::CscMatrix;

/// Why a supervised factorization returned no result.
#[derive(Debug)]
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

impl From<RecoveryError> for SupervisedError {
    fn from(e: RecoveryError) -> Self {
        SupervisedError::Recovery(e)
    }
}

/// Supervised [`crate::lu_crtp_spmd`]: checkpoint every `ckpt_every`
/// iterations and recover per `policy` (retry transient faults, shrink
/// the grid on rank death, degrade to the sequential driver at the
/// bottom of the ladder).
pub fn lu_crtp_supervised(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    ckpt_every: usize,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    let store = CheckpointStore::in_memory();
    lu_crtp_supervised_with_store(a, opts, np, config, policy, ckpt_every, &store)
}

/// [`lu_crtp_supervised`] with a caller-owned [`CheckpointStore`]:
/// snapshots survive in whatever medium the store uses (memory, disk
/// generations), and any [`lra_recover::StorageFaultPlan`] attached to
/// the store is exercised by the recovery path.
pub fn lu_crtp_supervised_with_store(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    ckpt_every: usize,
    store: &CheckpointStore,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    opts.validate()?;
    supervise(a, opts, None, np, config, policy, RecoveryHooks::new(store, ckpt_every))
}

/// Supervised [`crate::ilut_crtp_spmd`] (see [`lu_crtp_supervised`]).
/// The checkpoint carries the threshold state, so the resumed error
/// estimator (eq. 26) still accounts for mass dropped before the
/// failure — the fixed-precision guarantee survives recovery.
pub fn ilut_crtp_supervised(
    a: &CscMatrix,
    opts: &IlutOpts,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    ckpt_every: usize,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    let store = CheckpointStore::in_memory();
    ilut_crtp_supervised_with_store(a, opts, np, config, policy, ckpt_every, &store)
}

/// [`ilut_crtp_supervised`] with a caller-owned [`CheckpointStore`]
/// (see [`lu_crtp_supervised_with_store`]).
pub fn ilut_crtp_supervised_with_store(
    a: &CscMatrix,
    opts: &IlutOpts,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    ckpt_every: usize,
    store: &CheckpointStore,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    opts.validate()?;
    let hooks = RecoveryHooks::new(store, ckpt_every);
    supervise(a, &opts.base, Some(opts), np, config, policy, hooks)
}

/// The recovery ladder around the panel loop: sharded SPMD attempts,
/// then the sequential engine, all resuming from `hooks`' store.
fn supervise(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    hooks: RecoveryHooks<'_>,
) -> Result<Supervised<LuCrtpResult>, SupervisedError> {
    validate_matrix(a)?;
    // The supervisor's deadline token rides into the loop's budget: a
    // deadline that expires mid-attempt stops the ranks cooperatively
    // at the next iteration boundary (checkpoint taken, partial factors
    // returned) instead of letting the attempt run to completion.
    let with_token = |token: &CancelToken| {
        let mut o = opts.clone();
        o.budget.cancel.push(token.clone());
        o
    };
    run_supervised(
        np,
        config,
        policy,
        |np, cfg, _, token| {
            let o = with_token(token);
            lra_comm::run_with(np, cfg, |ctx| {
                run_sharded(ctx, a, &o, ilut, Some(&hooks), Reshard::Overlapped)
            })
        },
        |token| Some(run_seq(a, &with_token(token), ilut, Some(&hooks))),
    )
    .map_err(SupervisedError::Recovery)
}
