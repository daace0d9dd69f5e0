#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! Fixed-precision low-rank approximation of sparse matrices — the
//! algorithms of Ernstbrunner, Mayer & Gansterer (IPDPS 2022).
//!
//! Given `A` and a tolerance `tau`, each method finds a rank `K` and
//! factors with `||A - H_K W_K||_F < tau ||A||_F`:
//!
//! - [`rand_qb_ei`] — randomized QB factorization (Algorithm 1):
//!   dense factors `Q_K B_K`, power scheme, cheap Frobenius error
//!   indicator (eq. 4, valid down to `tau ≈ 2.1e-7`).
//! - [`lu_crtp`] — truncated LU with column & row tournament pivoting
//!   (Algorithm 2): potentially sparse factors `L_K U_K`, error
//!   indicator `||A^(i+1)||_F` (eq. 9), fill-in sensitive.
//! - [`ilut_crtp`] — incomplete LU_CRTP with thresholding
//!   (Algorithm 3, the paper's contribution): drops Schur-complement
//!   entries below `mu` (eq. 24) under the control bound `phi`
//!   (eq. 22), trading a bounded perturbation for much less fill-in.
//! - [`rand_ubv`] — randomized block bidiagonalization
//!   (Hallman 2021), the sequential comparison method of Table II.
//!
//! **Execution.** LU_CRTP and ILUT_CRTP are one panel loop, so they
//! share one entry surface: a [`Method`] (either options type) run
//! where an [`Exec`] says. [`factorize`] is the single call —
//! [`Exec::Seq`] on the calling thread ([`lu_crtp`] / [`ilut_crtp`] are
//! that case by name), [`Exec::Spmd`] as one rank of an `lra-comm`
//! region, optionally checkpointing through [`RecoveryHooks`].
//! [`factorize_ranks`] validates the input, spawns the ranks and
//! returns every rank's outcome and counters; [`factorize_supervised`]
//! wraps that in the retry / shrink / sequential-fallback ladder.
//!
//! All methods report per-kernel timers ([`KernelTimers`]) so the
//! benchmark harness can regenerate the paper's Figs. 5-6 kernel
//! breakdowns, and per-iteration traces for the fill-in plots (Fig. 1).

mod checkpoint;
mod explore;
mod factorize;
mod lucrtp;
mod outcome;
mod panel;
mod qb;
mod spmd;
mod timers;
mod ubv;

pub use checkpoint::{IlutCheckpoint, LuCrtpCheckpoint, QbCheckpoint, RecoveryHooks};
pub use explore::{
    explore_fault_space, ExploreConfig, ExplorerReport, InjectionSite, SiteOutcome, SiteVerdict,
};
pub use factorize::{
    factorize, factorize_ranks, factorize_supervised, ilut_crtp, lu_crtp, Exec, Method,
    SupervisedError,
};
// Held by `benchmark/src/adapter.rs` only; goes with the benchmark-only
// PR that moves the adapter to `factorize_ranks` (ROADMAP item 1).
#[doc(hidden)]
pub use factorize::ilut_crtp_spmd_checkpointed;
pub use lucrtp::{
    Breakdown, IlutOpts, InvalidInput, IterTrace, LuCrtpOpts, LuCrtpResult, MemStats, OrderingMode,
    ThresholdReport,
};
// The shared Schur-update kernel, reachable for the root test suite's
// bitwise reference check and `kernel_bench`.
#[doc(hidden)]
pub use lucrtp::{schur_update_into, SchurWorkspace, SCHUR_GRAIN};
pub use outcome::{Interrupted, JobId, Outcome, Parked, ResumeHandle};
pub use qb::{rand_qb_ei, rand_qb_ei_checkpointed, QbError, QbOpts, QbResult, QB_INDICATOR_FLOOR};
pub use timers::{KernelId, KernelTimers, ALL_KERNELS, N_KERNELS};
pub use ubv::{rand_ubv, UbvOpts, UbvResult};

// Re-export the option types callers need alongside.
pub use lra_comm::{CommError, CommStats, Ctx, FaultPlan, RunConfig, RunReport};
pub use lra_par::Parallelism;
pub use lra_recover::{
    Budget, BudgetTrip, CancelToken, Checkpoint, CheckpointStore, RecoveryError, RecoveryEvent,
    RecoveryPolicy, SectionReader, SectionWriter, StorageFaultKind, StorageFaultPlan, Supervised,
};
