//! Exhaustive fault-point exploration of the supervised recovery path.
//!
//! The chaos tests so far sampled the fault space with seeds. This
//! module *enumerates* it: a clean probe run measures how many
//! collective iterations and checkpoint saves the factorization
//! performs, then one supervised run per **injection site** exercises
//!
//! - a rank **kill** at every iteration (permanent failure → grid
//!   shrink + resume),
//! - a watchdog **timeout** at every iteration (transient failure →
//!   same-grid retry), injected as a one-shot rank stall via
//!   [`FaultPlan::stall_rank_once_at_iteration`],
//! - a **mid-overlap kill** and a **mid-overlap stall** at every
//!   iteration — fired between posting the nonblocking re-shard
//!   exchange and completing it, the window where the wire and the
//!   factor recording run concurrently (the invariant under test: a
//!   fault with an exchange in flight yields a typed error, never a
//!   hang and never a torn shard), and
//! - every [`StorageFaultKind`] at every checkpoint save index (torn
//!   write, bit flip, ENOSPC, crash-before-rename, stale read), paired
//!   with a one-shot stall two iterations later so the recovery path
//!   actually reloads the damaged generation, and
//! - a cooperative **cancel** at every iteration boundary, injected as
//!   an [`lra_recover::Budget`] iteration cap (the cap and an external
//!   [`lra_recover::CancelToken`] share the same check machinery, and
//!   the cap makes the trip point deterministic).
//!
//! Each site run asserts the supervisor invariants:
//!
//! 1. it ends in a successful recovery or a *typed*
//!    [`RecoveryError`] — a panic is a [`SiteOutcome::Violation`];
//! 2. a successful same-grid resume reproduces the uninterrupted
//!    factors **bitwise** (grid shrinks change the tournament partition
//!    and are checked against the fixed-precision bound instead);
//! 3. every completed run converges and satisfies
//!    `||A - LU||_F ≤ tau·||A||_F + dropped`;
//! 4. (strict mode) a torn/flipped generation that recovery touched
//!    must surface as a `recover.corrupt_checkpoint` counter bump —
//!    corruption is never absorbed silently;
//! 5. a cancel site must return a typed trip whose partial factors
//!    carry the clean run's error indicator at the trip iteration
//!    (bit for bit), and resuming the trip's checkpoint with an
//!    unlimited budget must reproduce the uninterrupted factors
//!    **bitwise**.
//!
//! The per-site verdicts come back as an [`ExplorerReport`] with a
//! text table and a JSON rendering for CI artifacts.

use crate::lucrtp::{IlutOpts, LuCrtpResult};
use crate::checkpoint::RecoveryHooks;
use crate::factorize::{factorize, factorize_supervised, Exec, SupervisedError};
use lra_comm::{FaultPlan, RunConfig};
use lra_obs::{Json, MetricValue};
use lra_par::Parallelism;
use lra_recover::{
    CheckpointStore, RecoveryError, RecoveryPolicy, StorageFaultKind, StorageFaultPlan,
};
use lra_sparse::CscMatrix;
use std::path::PathBuf;
use std::time::Duration;

/// One place to inject one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionSite {
    /// Kill `rank` when it announces `iteration` (permanent failure).
    CommKill {
        /// Rank to kill.
        rank: usize,
        /// 1-based iteration at which it dies.
        iteration: u64,
    },
    /// Stall `rank` past the watchdog at `iteration` (transient
    /// failure), one-shot so the retry succeeds.
    CommTimeout {
        /// Rank to stall.
        rank: usize,
        /// 1-based iteration at which it stalls.
        iteration: u64,
    },
    /// Kill `rank` between posting a nonblocking exchange and
    /// completing it at `iteration` — the mid-overlap window where the
    /// re-shard is in flight and factor recording runs concurrently.
    OverlapKill {
        /// Rank to kill.
        rank: usize,
        /// 1-based iteration whose overlap window it dies in.
        iteration: u64,
    },
    /// Stall `rank` inside the overlap window at `iteration` (one-shot,
    /// past the watchdog): its sends are already on the wire, so peers
    /// must surface a *typed* timeout in a later collective — never a
    /// hang, never a torn shard.
    OverlapStall {
        /// Rank to stall.
        rank: usize,
        /// 1-based iteration whose overlap window it stalls in.
        iteration: u64,
    },
    /// Inject `kind` at checkpoint save index `save_index` (plus a
    /// one-shot stall two iterations later to force a reload).
    Storage {
        /// Which storage fault.
        kind: StorageFaultKind,
        /// 0-based save-call index the fault hits.
        save_index: u64,
    },
    /// Trip the budget at the boundary where `iteration` iterations
    /// have completed (0 = before any work). `iteration` equal to the
    /// clean run's total is a cap that never fires — the site checks
    /// clean completion instead.
    Cancel {
        /// Completed-iteration count at which the trip fires.
        iteration: u64,
    },
}

impl std::fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectionSite::CommKill { rank, iteration } => {
                write!(f, "kill@it{iteration}.rank{rank}")
            }
            InjectionSite::CommTimeout { rank, iteration } => {
                write!(f, "timeout@it{iteration}.rank{rank}")
            }
            InjectionSite::OverlapKill { rank, iteration } => {
                write!(f, "overlap-kill@it{iteration}.rank{rank}")
            }
            InjectionSite::OverlapStall { rank, iteration } => {
                write!(f, "overlap-stall@it{iteration}.rank{rank}")
            }
            InjectionSite::Storage { kind, save_index } => {
                write!(f, "storage:{kind}@save{save_index}")
            }
            InjectionSite::Cancel { iteration } => write!(f, "cancel@it{iteration}"),
        }
    }
}

/// How one site run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteOutcome {
    /// The supervisor absorbed the fault (≥ 1 recovery action) and the
    /// result passed every invariant.
    Recovered,
    /// The fault never fired (e.g. a storage fault at the final save
    /// that nothing reloads) and the run completed cleanly.
    CleanCompletion,
    /// The supervisor gave up with a typed [`RecoveryError`] — an
    /// acceptable ending, never a hang or a panic.
    TypedError,
    /// A cancel site ended in a typed budget trip whose partial result
    /// and checkpoint passed every invariant (indicator bits match the
    /// clean run at the trip iteration; the resumed run reproduced the
    /// uninterrupted factors bitwise).
    Interrupted,
    /// An invariant broke: a panic escaped, factors diverged bitwise,
    /// the precision bound failed, or (strict) corruption went
    /// unreported.
    Violation,
}

impl SiteOutcome {
    /// Stable lowercase label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SiteOutcome::Recovered => "recovered",
            SiteOutcome::CleanCompletion => "clean",
            SiteOutcome::TypedError => "typed_error",
            SiteOutcome::Interrupted => "interrupted",
            SiteOutcome::Violation => "VIOLATION",
        }
    }
}

/// The verdict for one injection site.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// Where the fault was injected.
    pub site: InjectionSite,
    /// How the run ended.
    pub outcome: SiteOutcome,
    /// Recovery actions the supervisor took.
    pub attempts: u64,
    /// Rank count of the successful attempt (0 when the run failed).
    pub final_np: usize,
    /// Whether the sequential fallback produced the result.
    pub degraded: bool,
    /// `Some(..)` when a same-grid bitwise comparison against the
    /// uninterrupted reference applied; `None` when the grid shrank or
    /// the run failed.
    pub bitwise_match: Option<bool>,
    /// `recover.corrupt_checkpoint` bumps observed during this site.
    pub corrupt_skips: u64,
    /// Free-text detail (error messages, violation reasons).
    pub detail: String,
}

/// Everything an exploration produced.
#[derive(Debug)]
pub struct ExplorerReport {
    /// Rank count explored.
    pub np: usize,
    /// Iterations of the clean probe run.
    pub iterations: usize,
    /// Checkpoint saves of the clean probe run.
    pub saves: u64,
    /// One verdict per enumerated site.
    pub verdicts: Vec<SiteVerdict>,
}

impl ExplorerReport {
    /// True when no site violated an invariant.
    pub fn all_ok(&self) -> bool {
        self.verdicts
            .iter()
            .all(|v| v.outcome != SiteOutcome::Violation)
    }

    /// Sites whose run ended in a given outcome.
    pub fn count(&self, outcome: &SiteOutcome) -> usize {
        self.verdicts.iter().filter(|v| &v.outcome == outcome).count()
    }

    /// Machine-readable rendering (for CI artifacts).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("np".to_string(), Json::Num(self.np as f64)),
            ("iterations".to_string(), Json::Num(self.iterations as f64)),
            ("saves".to_string(), Json::Num(self.saves as f64)),
            ("all_ok".to_string(), Json::Bool(self.all_ok())),
            (
                "verdicts".to_string(),
                Json::Arr(
                    self.verdicts
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("site".to_string(), Json::Str(v.site.to_string())),
                                (
                                    "outcome".to_string(),
                                    Json::Str(v.outcome.label().to_string()),
                                ),
                                ("attempts".to_string(), Json::Num(v.attempts as f64)),
                                ("final_np".to_string(), Json::Num(v.final_np as f64)),
                                ("degraded".to_string(), Json::Bool(v.degraded)),
                                (
                                    "bitwise_match".to_string(),
                                    match v.bitwise_match {
                                        Some(b) => Json::Bool(b),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "corrupt_skips".to_string(),
                                    Json::Num(v.corrupt_skips as f64),
                                ),
                                ("detail".to_string(), Json::Str(v.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable per-site verdict table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fault-point exploration: np={} iterations={} saves={} sites={}\n",
            self.np,
            self.iterations,
            self.saves,
            self.verdicts.len()
        ));
        out.push_str(&format!(
            "{:<28} {:<12} {:>8} {:>4} {:>8} {:>8}  detail\n",
            "site", "outcome", "attempts", "np", "bitwise", "corrupt"
        ));
        for v in &self.verdicts {
            let bitwise = match v.bitwise_match {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            };
            out.push_str(&format!(
                "{:<28} {:<12} {:>8} {:>4} {:>8} {:>8}  {}\n",
                v.site.to_string(),
                v.outcome.label(),
                v.attempts,
                v.final_np,
                bitwise,
                v.corrupt_skips,
                v.detail
            ));
        }
        out.push_str(&format!(
            "totals: recovered={} clean={} typed_error={} interrupted={} violations={}\n",
            self.count(&SiteOutcome::Recovered),
            self.count(&SiteOutcome::CleanCompletion),
            self.count(&SiteOutcome::TypedError),
            self.count(&SiteOutcome::Interrupted),
            self.count(&SiteOutcome::Violation)
        ));
        out
    }
}

/// Exploration parameters. Defaults suit tiny test matrices: a short
/// watchdog with a 3× stall, a fast-backoff policy, and both site
/// families enabled.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Grid size of every run.
    pub np: usize,
    /// Checkpoint cadence (iterations per snapshot).
    pub ckpt_every: usize,
    /// Watchdog for timeout/storage sites (kill sites use a generous
    /// 20 s watchdog — a kill is detected by poison, not the watchdog).
    pub watchdog: Duration,
    /// One-shot stall duration (must comfortably exceed the watchdog).
    pub stall: Duration,
    /// Recovery policy for every site run.
    pub policy: RecoveryPolicy,
    /// Enumerate kill/timeout sites at every iteration.
    pub comm_sites: bool,
    /// Enumerate mid-overlap kill/stall sites at every iteration — the
    /// window between posting the re-shard exchange and completing it.
    pub overlap_sites: bool,
    /// Enumerate every [`StorageFaultKind`] at every save index.
    pub storage_sites: bool,
    /// Enumerate a budget cancel at every iteration boundary
    /// (`0..=iterations`; the last is a never-firing cap that checks
    /// clean completion).
    pub cancel_sites: bool,
    /// When set, storage-site stores persist on disk under this
    /// directory (one sub-file per site) instead of in memory.
    pub on_disk: Option<PathBuf>,
    /// Additionally require torn/flipped generations that recovery
    /// touched to surface as `recover.corrupt_checkpoint` bumps.
    pub strict: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            np: 2,
            ckpt_every: 1,
            watchdog: Duration::from_millis(300),
            stall: Duration::from_millis(900),
            policy: RecoveryPolicy::default().with_backoff(Duration::from_millis(5)),
            comm_sites: true,
            overlap_sites: true,
            storage_sites: true,
            cancel_sites: true,
            on_disk: None,
            strict: false,
        }
    }
}

fn counter(name: &str) -> u64 {
    match lra_obs::metrics::global().get(name) {
        Some(MetricValue::Counter(c)) => c,
        _ => 0,
    }
}

fn csc_bits_eq(a: &CscMatrix, b: &CscMatrix) -> bool {
    a.colptr() == b.colptr()
        && a.rowidx() == b.rowidx()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn factors_bitwise_eq(a: &LuCrtpResult, b: &LuCrtpResult) -> bool {
    a.rank == b.rank
        && a.iterations == b.iterations
        && a.pivot_rows == b.pivot_rows
        && a.pivot_cols == b.pivot_cols
        && a.indicator.to_bits() == b.indicator.to_bits()
        && csc_bits_eq(&a.l, &b.l)
        && csc_bits_eq(&a.u, &b.u)
}

fn precision_bound_holds(a: &CscMatrix, tau: f64, r: &LuCrtpResult) -> bool {
    let dropped = r
        .threshold
        .as_ref()
        .map(|t| t.dropped_mass_sq.sqrt())
        .unwrap_or(0.0);
    let exact = r.exact_error(a, Parallelism::SEQ);
    exact <= (tau * r.a_norm_f + dropped) * 1.000001
}

/// Enumerate every injection site of an ILUT_CRTP run and fault each
/// one in its own supervised run (see the module docs for the
/// invariants). The probe run must complete cleanly — a matrix/config
/// that cannot even run un-faulted is reported as `Err`.
pub fn explore_fault_space(
    a: &CscMatrix,
    opts: &IlutOpts,
    cfg: &ExploreConfig,
) -> Result<ExplorerReport, String> {
    // ---- Probe: clean run fixes the reference factors and the site
    // count (iterations and checkpoint saves).
    let probe_store = CheckpointStore::in_memory();
    let clean_cfg = RunConfig::default().with_watchdog(Duration::from_secs(20));
    let probe_hooks = RecoveryHooks::new(&probe_store, cfg.ckpt_every);
    let probe = factorize_supervised(a, opts, cfg.np, &clean_cfg, &cfg.policy, probe_hooks)
        .map_err(|e| format!("probe run failed: {e}"))?;
    if probe.attempts != 0 {
        return Err(format!(
            "probe run needed {} recovery action(s) without any injected fault",
            probe.attempts
        ));
    }
    let reference = probe.value;
    if !reference.converged {
        return Err("probe run did not converge; pick a smaller tau or larger max_rank".into());
    }
    let iterations = reference.iterations;
    let saves = probe_store.saves();

    // ---- Site enumeration.
    let mut sites = Vec::new();
    if cfg.comm_sites {
        for it in 1..=iterations as u64 {
            let rank = (it as usize - 1) % cfg.np;
            sites.push(InjectionSite::CommKill { rank, iteration: it });
            sites.push(InjectionSite::CommTimeout { rank, iteration: it });
        }
    }
    if cfg.overlap_sites {
        // Rotate through a different rank than the comm sites so the
        // two families between them cover more (rank, iteration)
        // combinations of the grid.
        for it in 1..=iterations as u64 {
            let rank = it as usize % cfg.np;
            sites.push(InjectionSite::OverlapKill { rank, iteration: it });
            sites.push(InjectionSite::OverlapStall { rank, iteration: it });
        }
    }
    if cfg.storage_sites {
        for save_index in 0..saves {
            for kind in StorageFaultKind::ALL {
                sites.push(InjectionSite::Storage { kind, save_index });
            }
        }
    }
    if cfg.cancel_sites {
        for it in 0..=iterations as u64 {
            sites.push(InjectionSite::Cancel { iteration: it });
        }
    }

    // ---- One supervised run per site.
    let mut verdicts = Vec::with_capacity(sites.len());
    for site in sites {
        verdicts.push(run_site(a, opts, cfg, &reference, iterations, &site));
    }

    Ok(ExplorerReport {
        np: cfg.np,
        iterations,
        saves,
        verdicts,
    })
}

fn run_site(
    a: &CscMatrix,
    opts: &IlutOpts,
    cfg: &ExploreConfig,
    reference: &LuCrtpResult,
    iterations: usize,
    site: &InjectionSite,
) -> SiteVerdict {
    // Build the comm fault plan, the storage fault plan, and whether
    // the injected fault can actually fire in a run of `iterations`
    // iterations (a storage fault at the last save has no later
    // iteration to stall, so nothing ever reloads it).
    let (run_cfg, storage_faults, fault_reachable) = match site {
        InjectionSite::Cancel { iteration } => {
            return run_cancel_site(a, opts, cfg, reference, iterations, *iteration)
        }
        InjectionSite::CommKill { rank, iteration } => (
            RunConfig::default()
                .with_watchdog(Duration::from_secs(20))
                .with_faults(FaultPlan::new().kill_rank_at_iteration(*rank, *iteration)),
            StorageFaultPlan::new(),
            true,
        ),
        InjectionSite::CommTimeout { rank, iteration } => (
            RunConfig::default()
                .with_watchdog(cfg.watchdog)
                .with_faults(FaultPlan::new().stall_rank_once_at_iteration(
                    *rank,
                    *iteration,
                    cfg.stall,
                )),
            StorageFaultPlan::new(),
            true,
        ),
        InjectionSite::OverlapKill { rank, iteration } => (
            RunConfig::default()
                .with_watchdog(Duration::from_secs(20))
                .with_faults(FaultPlan::new().kill_rank_mid_overlap(*rank, *iteration)),
            StorageFaultPlan::new(),
            true,
        ),
        InjectionSite::OverlapStall { rank, iteration } => (
            RunConfig::default()
                .with_watchdog(cfg.watchdog)
                .with_faults(FaultPlan::new().stall_rank_once_mid_overlap(
                    *rank,
                    *iteration,
                    cfg.stall,
                )),
            StorageFaultPlan::new(),
            true,
        ),
        InjectionSite::Storage { kind, save_index } => {
            // Save index `s` is persisted at the end of iteration
            // `s*ckpt_every + ckpt_every`; a stall one iteration later
            // interrupts the run while the faulted generation is the
            // newest, forcing the resume to confront it.
            let save_iter = (*save_index as usize + 1) * cfg.ckpt_every;
            let stall_iter = (save_iter + 1) as u64;
            let reachable = save_iter < iterations;
            let comm = if reachable {
                FaultPlan::new().stall_rank_once_at_iteration(
                    *save_index as usize % cfg.np,
                    stall_iter,
                    cfg.stall,
                )
            } else {
                FaultPlan::new()
            };
            let storage = match kind {
                StorageFaultKind::TornWrite => {
                    // 97 bytes keep the magic, the version and the
                    // start of the JSON header. The tear no longer
                    // lands mid-state as it did in a text envelope (a
                    // header of about 1 KB precedes the sections), but
                    // every proper prefix fails validation alike: the
                    // trailer's length and CRC are gone.
                    StorageFaultPlan::new().torn_write_at(*save_index, 97)
                }
                StorageFaultKind::BitFlip => {
                    StorageFaultPlan::new().bit_flip_at(*save_index, 0x5A5A)
                }
                StorageFaultKind::Enospc => StorageFaultPlan::new().enospc_at(*save_index),
                StorageFaultKind::CrashBeforeRename => {
                    StorageFaultPlan::new().crash_before_rename_at(*save_index)
                }
                // Every rank loads once per attempt: indices 0..np-1
                // belong to the clean first attempt, so staleness from
                // `np` onward hits exactly the resume attempts — and
                // hits every rank of an attempt consistently.
                StorageFaultKind::StaleRead => {
                    StorageFaultPlan::new().stale_reads_from(cfg.np as u64)
                }
            };
            (
                RunConfig::default().with_watchdog(cfg.watchdog).with_faults(comm),
                storage,
                reachable,
            )
        }
    };

    let store = match (&cfg.on_disk, site) {
        (Some(dir), InjectionSite::Storage { kind, save_index }) => {
            let path = dir.join(format!("site_{}_{save_index}.json", kind.label()));
            CheckpointStore::on_disk(path)
        }
        _ => CheckpointStore::in_memory(),
    };
    let store = store.with_faults(storage_faults);

    let corrupt_before = counter("recover.corrupt_checkpoint");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let hooks = RecoveryHooks::new(&store, cfg.ckpt_every);
        factorize_supervised(a, opts, cfg.np, &run_cfg, &cfg.policy, hooks)
    }));
    let corrupt_skips = counter("recover.corrupt_checkpoint") - corrupt_before;
    store.clear();

    let mut verdict = SiteVerdict {
        site: site.clone(),
        outcome: SiteOutcome::Violation,
        attempts: 0,
        final_np: 0,
        degraded: false,
        bitwise_match: None,
        corrupt_skips,
        detail: String::new(),
    };

    match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            verdict.detail = format!("panic escaped the supervisor: {msg}");
        }
        Ok(Err(SupervisedError::Recovery(
            e @ (RecoveryError::RecoveryExhausted { .. } | RecoveryError::DeadlineExceeded { .. }),
        ))) => {
            verdict.outcome = SiteOutcome::TypedError;
            verdict.detail = e.to_string();
        }
        Ok(Err(SupervisedError::Invalid(e))) => {
            verdict.detail = format!("input invalidated mid-exploration: {e}");
        }
        Ok(Ok(out)) => {
            verdict.attempts = out.attempts;
            verdict.final_np = out.final_np;
            verdict.degraded = out.degraded;
            let r = &out.value;
            if !r.converged {
                verdict.detail = "recovered run did not converge".to_string();
            } else if !precision_bound_holds(a, opts.base.tau, r) {
                verdict.detail = "fixed-precision bound violated".to_string();
            } else {
                let same_grid = out.final_np == cfg.np && !out.degraded;
                if same_grid {
                    let eq = factors_bitwise_eq(r, reference);
                    verdict.bitwise_match = Some(eq);
                    if !eq {
                        verdict.detail =
                            "same-grid resume diverged bitwise from the reference".to_string();
                        return verdict;
                    }
                }
                let must_skip = cfg.strict
                    && fault_reachable
                    && out.attempts > 0
                    && matches!(
                        site,
                        InjectionSite::Storage {
                            kind: StorageFaultKind::TornWrite | StorageFaultKind::BitFlip,
                            ..
                        }
                    );
                if must_skip && corrupt_skips == 0 {
                    verdict.detail =
                        "corrupt generation absorbed without recover.corrupt_checkpoint".to_string();
                    return verdict;
                }
                verdict.outcome = if out.attempts == 0 {
                    SiteOutcome::CleanCompletion
                } else {
                    SiteOutcome::Recovered
                };
            }
        }
    }
    verdict
}

/// One cancel site: run the budgeted driver directly (a budget trip is
/// a *result*, not a failure, so it never enters the supervisor's
/// ladder), check the typed-trip invariants against the clean
/// reference, then resume the trip's checkpoint with an unlimited
/// budget and require bitwise identity with the uninterrupted run.
fn run_cancel_site(
    a: &CscMatrix,
    opts: &IlutOpts,
    cfg: &ExploreConfig,
    reference: &LuCrtpResult,
    iterations: usize,
    cancel_iteration: u64,
) -> SiteVerdict {
    use lra_recover::{Budget, BudgetTrip};

    let mut verdict = SiteVerdict {
        site: InjectionSite::Cancel { iteration: cancel_iteration },
        outcome: SiteOutcome::Violation,
        attempts: 0,
        final_np: cfg.np,
        degraded: false,
        bitwise_match: None,
        corrupt_skips: 0,
        detail: String::new(),
    };

    let store = match &cfg.on_disk {
        Some(dir) => {
            CheckpointStore::on_disk(dir.join(format!("site_cancel_{cancel_iteration}.json")))
        }
        None => CheckpointStore::in_memory(),
    };
    let hooks = RecoveryHooks::new(&store, cfg.ckpt_every);
    let run_cfg = RunConfig::default().with_watchdog(Duration::from_secs(20));
    // An iteration cap and an external token share the identical check
    // and agreement machinery; the cap pins the trip point exactly.
    let mut budgeted = opts.clone();
    budgeted.base.budget = Budget::unlimited().with_iteration_cap(cancel_iteration);

    let panic_detail = |panic: Box<dyn std::any::Any + Send>| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    };

    // ---- Budgeted run: every rank must return, no rank may fail.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lra_comm::run_with(cfg.np, &run_cfg, |ctx| {
            factorize(a, &budgeted, Exec::Spmd(ctx), Some(&hooks))
        })
        .results
    }));
    let partial = match ran {
        Err(panic) => {
            verdict.detail = format!("panic escaped the cancelled run: {}", panic_detail(panic));
            store.clear();
            return verdict;
        }
        Ok(results) => {
            let mut oks = Vec::with_capacity(results.len());
            for r in results {
                match r {
                    Ok(v) => oks.push(v),
                    Err(e) => {
                        verdict.detail = format!("a rank failed under cancel: {e}");
                        store.clear();
                        return verdict;
                    }
                }
            }
            oks.swap_remove(0)
        }
    };

    if cancel_iteration >= iterations as u64 {
        // The cap can never fire: this site pins the other side of the
        // contract — an unreached budget changes nothing, bit for bit.
        store.clear();
        if partial.trip.is_some() {
            verdict.detail = "a cap beyond the clean iteration count tripped".to_string();
        } else if !factors_bitwise_eq(&partial, reference) {
            verdict.bitwise_match = Some(false);
            verdict.detail = "unreached budget perturbed the factors".to_string();
        } else {
            verdict.bitwise_match = Some(true);
            verdict.outcome = SiteOutcome::CleanCompletion;
        }
        return verdict;
    }

    // ---- Trip invariants: typed verdict at the exact boundary, with
    // the clean run's indicator at that iteration, bit for bit.
    let expected_trip = BudgetTrip::IterationCap {
        iterations: cancel_iteration,
        cap: cancel_iteration,
    };
    if partial.trip.as_ref() != Some(&expected_trip) {
        verdict.detail = format!(
            "expected {expected_trip}, got {:?}",
            partial.trip.as_ref().map(ToString::to_string)
        );
        store.clear();
        return verdict;
    }
    if partial.iterations != cancel_iteration as usize {
        verdict.detail = format!(
            "tripped after {} iterations instead of {cancel_iteration}",
            partial.iterations
        );
        store.clear();
        return verdict;
    }
    let expected_indicator = if cancel_iteration == 0 {
        reference.a_norm_f
    } else {
        reference.trace[cancel_iteration as usize - 1].indicator
    };
    if partial.indicator.to_bits() != expected_indicator.to_bits() {
        verdict.detail = format!(
            "partial indicator {} != clean run's {expected_indicator} at the trip iteration",
            partial.indicator
        );
        store.clear();
        return verdict;
    }
    let achieved = partial.achieved_tolerance();
    match partial.clone().into_outcome() {
        crate::Outcome::Interrupted(i) => {
            if i.achieved_tolerance.to_bits() != achieved.to_bits()
                || i.resume.map(|h| h.iteration) != (cancel_iteration > 0)
                    .then_some(cancel_iteration as usize)
            {
                verdict.detail = "Interrupted outcome disagrees with the partial result".into();
                store.clear();
                return verdict;
            }
        }
        crate::Outcome::Completed(_) => {
            verdict.detail = "tripped result folded into Outcome::Completed".to_string();
            store.clear();
            return verdict;
        }
    }

    // ---- Resume with an unlimited budget on the same store: must
    // replay into the uninterrupted run bitwise.
    let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lra_comm::run_with(cfg.np, &run_cfg, |ctx| {
            factorize(a, opts, Exec::Spmd(ctx), Some(&hooks))
        })
        .results
    }));
    store.clear();
    let resumed = match resumed {
        Err(panic) => {
            verdict.detail = format!("panic escaped the resumed run: {}", panic_detail(panic));
            return verdict;
        }
        Ok(mut results) => match results.swap_remove(0) {
            Ok(v) => v,
            Err(e) => {
                verdict.detail = format!("a rank failed during resume: {e}");
                return verdict;
            }
        },
    };
    if !resumed.converged {
        verdict.detail = "resumed run did not converge".to_string();
        return verdict;
    }
    if !precision_bound_holds(a, opts.base.tau, &resumed) {
        verdict.detail = "fixed-precision bound violated after resume".to_string();
        return verdict;
    }
    let eq = factors_bitwise_eq(&resumed, reference);
    verdict.bitwise_match = Some(eq);
    if !eq {
        verdict.detail = "resume-from-cancel diverged bitwise from the reference".to_string();
        return verdict;
    }
    verdict.outcome = SiteOutcome::Interrupted;
    verdict.detail = format!("achieved_tol={achieved:.3e}");
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_and_outcome_render_stably() {
        let s = InjectionSite::Storage {
            kind: StorageFaultKind::TornWrite,
            save_index: 2,
        };
        assert_eq!(s.to_string(), "storage:torn_write@save2");
        assert_eq!(
            InjectionSite::CommKill { rank: 1, iteration: 3 }.to_string(),
            "kill@it3.rank1"
        );
        assert_eq!(SiteOutcome::Violation.label(), "VIOLATION");
    }

    #[test]
    fn report_json_and_table_agree_on_violations() {
        let report = ExplorerReport {
            np: 2,
            iterations: 4,
            saves: 4,
            verdicts: vec![SiteVerdict {
                site: InjectionSite::CommTimeout { rank: 0, iteration: 1 },
                outcome: SiteOutcome::Recovered,
                attempts: 1,
                final_np: 2,
                degraded: false,
                bitwise_match: Some(true),
                corrupt_skips: 0,
                detail: String::new(),
            }],
        };
        assert!(report.all_ok());
        let json = report.to_json().to_string();
        assert!(json.contains("\"all_ok\":true"), "{json}");
        assert!(json.contains("timeout@it1.rank0"), "{json}");
        let table = report.render_table();
        assert!(table.contains("recovered"), "{table}");
        assert!(table.contains("violations=0"), "{table}");
    }
}
