//! `lra-recover` — supervised recovery for the SPMD factorizations.
//!
//! The `lra-comm` runtime *contains* failures: a killed or panicking
//! rank poisons its peers and every rank comes back as a typed
//! [`CommError`] instead of a hung process. This crate adds the layer
//! above containment — *recovery*:
//!
//! - [`CheckpointStore`] / [`Checkpoint`] persist iteration state at
//!   collective boundaries so a restarted run continues from the last
//!   consistent snapshot instead of iteration 0.
//! - [`run_supervised`] wraps repeated `run_with` attempts in a
//!   [`RecoveryPolicy`]: transient failures (watchdog timeouts) are
//!   retried on the same grid with exponential backoff; permanent
//!   failures (rank death) shrink the grid by one rank and resume from
//!   checkpoint; when a one-rank attempt fails permanently, the
//!   supervisor degrades to a caller-supplied sequential fallback.
//! - [`Budget`] / [`CancelToken`] bound a run cooperatively (an
//!   absolute wall-clock deadline, iteration cap, per-rank memory
//!   ceiling, external cancellation): drivers check at panel
//!   boundaries, checkpoint, and return a typed partial result carrying
//!   its achieved tolerance instead of being killed unilaterally.
//! - Every recovery action is a [`RecoveryEvent`], mirrored into the
//!   global metrics registry and the Chrome trace by [`record_event`].
//!
//! The classification rule (see [`CommError::is_transient`]) is:
//! timeouts are transient — the stuck rank may simply have been
//! delayed, so the same grid gets another chance; panics and kills are
//! permanent — the rank's state is gone, so the grid shrinks.
//! `PeerFailed` entries are collateral, never the classification basis;
//! the supervisor always classifies on the *origin* rank's own error.

mod budget;
mod envelope;
mod events;
mod fault;
mod store;

pub use budget::{Budget, BudgetTrip, CancelToken};
pub use events::{record_event, record_guard_trip, RecoveryEvent};
pub use fault::{StorageFaultKind, StorageFaultPlan};
pub use envelope::{envelope_header, SectionReader, SectionWriter, CHECKPOINT_VERSION};
pub use store::{Checkpoint, CheckpointStore, DEFAULT_RETENTION};

use lra_comm::{CommError, CommStats, RunConfig, RunReport};
use std::time::{Duration, Instant};

/// How hard [`run_supervised`] tries before giving up.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Maximum recovery actions (retries + grid shrinks) across the
    /// whole supervised run. Default: 8.
    pub max_retries: u64,
    /// Initial backoff before retrying a transient failure; doubles on
    /// each consecutive retry, capped at 5 s. Default: 50 ms.
    pub backoff: Duration,
    /// Wall-clock budget for the whole supervised run, measured from the
    /// call: checked before each attempt and handed to every attempt as
    /// an absolute deadline. Default: none.
    pub deadline: Option<Duration>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(50),
            deadline: None,
        }
    }
}

impl RecoveryPolicy {
    /// Set [`RecoveryPolicy::max_retries`].
    pub fn with_max_retries(mut self, n: u64) -> Self {
        self.max_retries = n;
        self
    }

    /// Set [`RecoveryPolicy::backoff`].
    pub fn with_backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Set [`RecoveryPolicy::deadline`].
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Why a supervised run gave up.
#[derive(Debug, Clone)]
pub enum RecoveryError {
    /// The policy's retry budget ran out (or the degradation fallback
    /// itself declined / failed).
    RecoveryExhausted {
        /// Recovery actions taken before giving up.
        attempts: u64,
        /// Rendered error from the last failed attempt.
        last_error: String,
        /// Everything the supervisor did along the way.
        events: Vec<RecoveryEvent>,
    },
    /// The policy deadline elapsed before an attempt succeeded.
    DeadlineExceeded {
        /// Wall time spent when the deadline check fired.
        elapsed: Duration,
        /// Everything the supervisor did along the way.
        events: Vec<RecoveryEvent>,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RecoveryExhausted {
                attempts,
                last_error,
                ..
            } => write!(
                f,
                "recovery exhausted after {attempts} action(s); last error: {last_error}"
            ),
            RecoveryError::DeadlineExceeded { elapsed, .. } => write!(
                f,
                "recovery deadline exceeded after {:.3}s",
                elapsed.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl RecoveryError {
    /// The recovery events accumulated before giving up.
    pub fn events(&self) -> &[RecoveryEvent] {
        match self {
            RecoveryError::RecoveryExhausted { events, .. }
            | RecoveryError::DeadlineExceeded { events, .. } => events,
        }
    }
}

/// A successful supervised run, with its recovery history.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The algorithm's result.
    pub value: T,
    /// Recovery actions taken before success (0 = clean first attempt).
    pub attempts: u64,
    /// Rank count of the attempt that produced the value (meaningless
    /// when `degraded`).
    pub final_np: usize,
    /// True when the value came from the sequential fallback.
    pub degraded: bool,
    /// Everything the supervisor did along the way.
    pub events: Vec<RecoveryEvent>,
    /// The returning attempt's per-rank counters (empty when
    /// `degraded`).
    pub stats: Vec<CommStats>,
}

/// Pick the error that explains a fully-failed report: the first
/// non-collateral entry (every `PeerFailed` points at an origin rank
/// whose own `Failed`/`Timeout` entry is authoritative), falling back
/// to the first error if — unexpectedly — only collateral remains.
fn primary_error<T>(report: &RunReport<T>) -> Option<&CommError> {
    let errors = || report.results.iter().filter_map(|r| r.as_ref().err());
    errors().find(|e| !e.is_peer_failure()).or_else(|| errors().next())
}

/// Run `attempt` under `policy`, recovering from failures until it
/// succeeds, the policy is exhausted, or the deadline passes.
///
/// `attempt(np, config, recoveries, deadline)` runs the algorithm on an
/// `np`-rank grid (typically via [`lra_comm::run_with`], resuming from
/// the caller's [`CheckpointStore`]) and returns the raw [`RunReport`].
/// Rank 0's value is the attempt's result: the SPMD factorizations
/// return their factors on rank 0 only (every other rank returns the
/// replicated fields with empty `L`/`U`). An attempt succeeds when
/// rank 0 returned `Ok`, whatever the other ranks returned; a report
/// whose rank 0 erred is a failed attempt, even if other ranks
/// returned `Ok`.
///
/// `deadline` is [`RecoveryPolicy::deadline`] as an instant, computed
/// once from the call's start (`None` when no deadline is set or it
/// lies beyond what an [`Instant`] can represent). Attempts that put it
/// into their driver [`Budget`] with [`Budget::with_deadline`] stop
/// cooperatively at the next panel boundary and return a partial
/// result, instead of running to completion past the deadline. The
/// supervisor also checks it between attempts, so budget-unaware
/// attempts still stop there. `fallback` receives the same instant.
///
/// On total failure the supervisor classifies the primary error:
///
/// - **transient** ([`CommError::is_transient`]): sleep the current
///   backoff (doubling, capped at 5 s) and retry on the same grid;
/// - **permanent**: strip the chaos plan's kills for the dead rank
///   (a crash is one-shot — the resumed attempt must not re-kill it
///   forever), shrink the grid to `np - 1`, and resume; if the failed
///   attempt ran on one rank, call `fallback` once instead and mark the
///   result [`Supervised::degraded`].
///
/// `fallback` returning `None` means no degradation path exists; the
/// supervisor then reports [`RecoveryError::RecoveryExhausted`].
pub fn run_supervised<T, A, FB>(
    np: usize,
    config: &RunConfig,
    policy: &RecoveryPolicy,
    mut attempt: A,
    fallback: FB,
) -> Result<Supervised<T>, RecoveryError>
where
    A: FnMut(usize, &RunConfig, u64, Option<Instant>) -> RunReport<T>,
    FB: FnOnce(Option<Instant>) -> Option<T>,
{
    let start = Instant::now();
    // A far-future deadline saturates to "unbounded" instead of
    // overflowing `Instant` arithmetic.
    let deadline = policy.deadline.and_then(|d| start.checked_add(d));
    let mut np = np.max(1);
    let mut cfg = config.clone();
    let mut backoff = policy.backoff;
    let mut recoveries: u64 = 0;
    let mut events: Vec<RecoveryEvent> = Vec::new();
    let mut fallback = Some(fallback);

    loop {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            let elapsed = start.elapsed();
            return Err(RecoveryError::DeadlineExceeded { elapsed, events });
        }

        let report = attempt(np, &cfg, recoveries, deadline);
        let (origin, transient, last_error) = match primary_error(&report) {
            None => (0, false, String::new()),
            Some(e) => (e.origin_rank(), e.is_transient(), e.to_string()),
        };
        let RunReport { results, stats } = report;
        if let Some(Ok(value)) = results.into_iter().next() {
            return Ok(Supervised {
                value,
                attempts: recoveries,
                final_np: np,
                degraded: false,
                events,
                stats,
            });
        }

        if recoveries >= policy.max_retries {
            return Err(RecoveryError::RecoveryExhausted {
                attempts: recoveries,
                last_error,
                events,
            });
        }
        recoveries += 1;

        if transient {
            let ev = RecoveryEvent::Retry {
                attempt: recoveries,
                backoff,
                error: last_error,
            };
            record_event(&ev);
            events.push(ev);
            // Never sleep past the deadline: the loop-top check should
            // fire the moment the budget is spent, not a backoff later.
            let sleep_for = match deadline {
                Some(at) => backoff.min(at.saturating_duration_since(Instant::now())),
                None => backoff,
            };
            std::thread::sleep(sleep_for);
            backoff = (backoff * 2).min(Duration::from_secs(5));
        } else {
            // The dead rank's state is gone; its scheduled kills are
            // spent (one-shot crash semantics).
            cfg.faults = cfg.faults.clone().without_kills_for(origin);
            if np == 1 {
                let ev = RecoveryEvent::Degrade {
                    reason: last_error.clone(),
                };
                record_event(&ev);
                events.push(ev);
                if let Some(value) = fallback.take().and_then(|fb| fb(deadline)) {
                    return Ok(Supervised {
                        value,
                        attempts: recoveries,
                        final_np: np,
                        degraded: true,
                        events,
                        stats: Vec::new(),
                    });
                }
                return Err(RecoveryError::RecoveryExhausted {
                    attempts: recoveries,
                    last_error,
                    events,
                });
            }
            np -= 1;
            let ev = RecoveryEvent::Resume {
                np,
                failed_rank: origin,
            };
            record_event(&ev);
            events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_comm::{run_with, FaultPlan};

    fn sum_grid(ctx: &lra_comm::Ctx) -> f64 {
        let mut acc = 0.0;
        for it in 1..=3u64 {
            ctx.begin_iteration(it);
            acc += ctx.allreduce(it as f64, |a, b| a + b);
        }
        acc
    }

    #[test]
    fn clean_run_takes_zero_recovery_actions() {
        let got = run_supervised(
            3,
            &RunConfig::default(),
            &RecoveryPolicy::default(),
            |np, cfg, _, _| run_with(np, cfg, sum_grid),
            |_| None,
        )
        .unwrap();
        assert_eq!(got.attempts, 0);
        assert_eq!(got.final_np, 3);
        assert!(!got.degraded);
        assert!(got.events.is_empty());
        assert_eq!(got.value, (1.0 + 2.0 + 3.0) * 3.0);
    }

    #[test]
    fn permanent_failure_shrinks_the_grid_and_resumes() {
        let cfg = RunConfig {
            faults: FaultPlan::default().kill_rank_at_iteration(1, 2),
            ..RunConfig::default()
        };
        let got = run_supervised(
            3,
            &cfg,
            &RecoveryPolicy::default(),
            |np, cfg, _, _| run_with(np, cfg, sum_grid),
            |_| None,
        )
        .unwrap();
        assert_eq!(got.attempts, 1);
        assert_eq!(got.final_np, 2);
        assert_eq!(got.stats.len(), got.final_np);
        assert!(!got.degraded);
        assert!(matches!(
            got.events[0],
            RecoveryEvent::Resume {
                np: 2,
                failed_rank: 1
            }
        ));
        assert_eq!(got.value, (1.0 + 2.0 + 3.0) * 2.0);
    }

    #[test]
    fn transient_failure_retries_on_the_same_grid() {
        // Attempt 0 drops rank 0's first send under a tiny watchdog →
        // a Timeout (transient). The supervisor must back off and retry
        // the SAME grid; the test's closure clears the fault for
        // attempt ≥ 1, standing in for a delay that resolved.
        let faulty = RunConfig {
            watchdog: Duration::from_millis(50),
            faults: FaultPlan::default().drop_nth_send(0, 0),
            ..RunConfig::default()
        };
        let clean = RunConfig {
            watchdog: Duration::from_millis(50),
            ..RunConfig::default()
        };
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_millis(1));
        let got = run_supervised(
            2,
            &faulty,
            &policy,
            |np, _, recoveries, _| {
                let cfg = if recoveries == 0 { &faulty } else { &clean };
                run_with(np, cfg, sum_grid)
            },
            |_| None,
        )
        .unwrap();
        assert_eq!(got.attempts, 1);
        assert_eq!(got.final_np, 2, "transient retry must not shrink the grid");
        assert!(matches!(got.events[0], RecoveryEvent::Retry { .. }));
    }

    #[test]
    fn degrades_to_fallback_when_grid_cannot_shrink() {
        let cfg = RunConfig {
            faults: FaultPlan::default().kill_rank_at_iteration(0, 1),
            ..RunConfig::default()
        };
        let got = run_supervised(
            1,
            &cfg,
            &RecoveryPolicy::default(),
            |np, cfg, _, _| run_with(np, cfg, sum_grid),
            |_| Some(-1.0),
        )
        .unwrap();
        assert!(got.degraded);
        assert!(got.stats.is_empty(), "the fallback ran no rank group");
        assert_eq!(got.value, -1.0);
        assert!(matches!(got.events[0], RecoveryEvent::Degrade { .. }));
    }

    #[test]
    fn exhaustion_is_a_typed_error_carrying_the_last_failure() {
        let policy = RecoveryPolicy::default().with_max_retries(0);
        let err = run_supervised(
            1,
            &RunConfig::default(),
            &policy,
            |_, _, _, _| RunReport::<u32> {
                results: vec![Err(CommError::Failed {
                    rank: 0,
                    payload: "synthetic".to_string(),
                })],
                stats: vec![],
            },
            |_| None,
        )
        .unwrap_err();
        match &err {
            RecoveryError::RecoveryExhausted {
                attempts,
                last_error,
                ..
            } => {
                assert_eq!(*attempts, 0);
                assert!(last_error.contains("synthetic"), "{last_error}");
            }
            other => panic!("{other:?}"),
        }
        assert!(err.to_string().contains("recovery exhausted"));
    }

    #[test]
    fn deadline_zero_fires_before_the_first_attempt() {
        let policy = RecoveryPolicy::default().with_deadline(Duration::ZERO);
        let err = run_supervised(
            2,
            &RunConfig::default(),
            &policy,
            |np, cfg, _, _| run_with(np, cfg, sum_grid),
            |_| None,
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::DeadlineExceeded { .. }));
    }

    /// One attempt's report: rank 0's outcome, then rank 1's.
    fn report(rank0: Result<u32, &str>, rank1: Result<u32, &str>) -> RunReport<u32> {
        let failed = |rank| {
            move |payload: &str| CommError::Failed {
                rank,
                payload: payload.to_string(),
            }
        };
        RunReport {
            results: vec![rank0.map_err(failed(0)), rank1.map_err(failed(1))],
            stats: vec![],
        }
    }

    #[test]
    fn a_failure_off_rank_zero_still_returns_rank_zeros_value() {
        let got = run_supervised(
            2,
            &RunConfig::default(),
            &RecoveryPolicy::default(),
            |_, _, _, _| report(Ok(99), Err("late straggler")),
            |_| None,
        )
        .unwrap();
        assert_eq!(got.value, 99);
        assert_eq!(got.attempts, 0);
    }

    #[test]
    fn an_ok_rank_beside_a_failed_rank_zero_is_not_returned() {
        // Rank 1's value lacks the factors only rank 0 returns: the
        // attempt failed, and the retry's rank 0 value is the result.
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_millis(1));
        let got = run_supervised(
            2,
            &RunConfig::default(),
            &policy,
            |_, _, recoveries, _| match recoveries {
                0 => report(Err("died after the last collective"), Ok(1)),
                _ => report(Ok(7), Ok(1)),
            },
            |_| None,
        )
        .unwrap();
        assert_eq!(got.value, 7);
        assert_eq!(got.attempts, 1);

        let err = run_supervised(
            2,
            &RunConfig::default(),
            &RecoveryPolicy::default().with_max_retries(0),
            |_, _, _, _| report(Err("died after the last collective"), Ok(1)),
            |_| None,
        )
        .unwrap_err();
        match err {
            RecoveryError::RecoveryExhausted { last_error, .. } => {
                assert!(last_error.contains("died after"), "{last_error}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transient_backoff_is_clamped_to_the_deadline() {
        // A pathological backoff (1 h) with a short deadline: every
        // attempt times out, and without the clamp the supervisor would
        // sleep the full hour before noticing the deadline. With it,
        // the run must fail by deadline in well under the backoff.
        let faulty = RunConfig {
            watchdog: Duration::from_millis(50),
            faults: FaultPlan::default().drop_nth_send(0, 0),
            ..RunConfig::default()
        };
        let policy = RecoveryPolicy::default()
            .with_backoff(Duration::from_secs(3600))
            .with_deadline(Duration::from_millis(500));
        let start = Instant::now();
        let err = run_supervised(
            2,
            &faulty,
            &policy,
            |np, cfg, _, _| run_with(np, cfg, sum_grid),
            |_| None,
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::DeadlineExceeded { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "backoff overshot the deadline: slept {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn every_attempt_and_the_fallback_get_the_policy_deadline() {
        // The only rank dies and the grid cannot shrink, so the
        // supervisor degrades: the attempt and the fallback must see one
        // instant, fixed once from the call's start.
        let cfg = RunConfig {
            faults: FaultPlan::default().kill_rank_at_iteration(0, 1),
            ..RunConfig::default()
        };
        let d = Duration::from_secs(3600);
        let policy = RecoveryPolicy::default().with_deadline(d);
        let (start, mut seen) = (Instant::now(), Vec::new());
        let got = run_supervised(
            1,
            &cfg,
            &policy,
            |np, cfg, _, at| {
                seen.push(at);
                run_with(np, cfg, |ctx| {
                    sum_grid(ctx);
                    None
                })
            },
            Some,
        )
        .unwrap();
        let at = got.value.expect("a finite deadline reaches the fallback");
        assert!(got.degraded && start + d <= at && at <= Instant::now() + d);
        assert_eq!(seen, vec![Some(at)]);
    }

    #[test]
    fn a_far_future_deadline_is_unbounded_not_a_panic() {
        let policy = RecoveryPolicy::default().with_deadline(Duration::MAX);
        let got = run_supervised(
            2,
            &RunConfig::default(),
            &policy,
            |np, cfg, _, at| {
                assert_eq!(at, None, "Duration::MAX saturates to no deadline");
                run_with(np, cfg, sum_grid)
            },
            |_| None,
        )
        .unwrap();
        assert_eq!(got.attempts, 0);
        assert_eq!(got.value, (1.0 + 2.0 + 3.0) * 2.0);
    }
}
