//! The recovery event stream.
//!
//! Every recovery action — a checkpoint save, a retry after a transient
//! fault, a resume on a shrunk grid, degradation to a sequential
//! fallback, a numerical guard trip — is one [`RecoveryEvent`].
//! [`record_event`] mirrors each event into the process-global
//! [`lra_obs::metrics`] registry (as a `recover.*` counter) and into
//! the Chrome trace (as an instant marker on the current lane), so
//! recovery is visible both in `BENCH_*.json` metric snapshots and on
//! the traced timeline next to the collectives it interrupted.

use std::time::Duration;

/// One observable recovery action.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A checkpoint was persisted to a
    /// [`crate::CheckpointStore`].
    Checkpoint {
        /// [`crate::Checkpoint::KIND`] of the snapshot.
        kind: &'static str,
        /// Algorithm iteration the snapshot covers.
        iteration: usize,
    },
    /// A transient failure (watchdog timeout) is being retried on the
    /// same grid after backing off.
    Retry {
        /// 1-based recovery-action counter.
        attempt: u64,
        /// How long the supervisor slept before this retry.
        backoff: Duration,
        /// Rendered error that triggered the retry.
        error: String,
    },
    /// A permanent failure (rank panic/kill) is being resumed on a
    /// shrunk grid.
    Resume {
        /// Rank count of the next attempt (`previous - 1`).
        np: usize,
        /// The rank whose death triggered the shrink.
        failed_rank: usize,
    },
    /// A one-rank attempt failed permanently: the supervisor degraded
    /// to the sequential fallback.
    Degrade {
        /// Why (rendered last error).
        reason: String,
    },
    /// A numerical guard fired inside an iteration loop (NaN/Inf on a
    /// panel norm or error indicator).
    GuardTrip {
        /// What was non-finite, and where.
        what: String,
    },
    /// A persisted checkpoint generation failed validation at load time
    /// (torn/truncated envelope, CRC mismatch, unparseable state) and
    /// was skipped. The load scan continues to the next-older
    /// generation.
    CorruptCheckpoint {
        /// Generation number of the rejected snapshot.
        generation: u64,
        /// Why the snapshot was rejected.
        reason: String,
    },
    /// A load rolled back past one or more corrupt generations and
    /// resumed from an older valid snapshot.
    Rollback {
        /// Newest generation that existed (and was skipped).
        from: u64,
        /// Generation actually loaded.
        to: u64,
    },
    /// A [`crate::Budget`] limit or [`crate::CancelToken`] tripped at a
    /// panel boundary: the driver checkpointed (when hooks were
    /// attached) and returned a partial result with its achieved
    /// tolerance instead of running on.
    BudgetTrip {
        /// The typed verdict.
        trip: crate::BudgetTrip,
        /// Completed iterations when the trip was observed.
        iteration: usize,
    },
}

impl RecoveryEvent {
    /// Stable dotted name used for both the metric counter and the
    /// trace instant.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryEvent::Checkpoint { .. } => "recover.checkpoint",
            RecoveryEvent::Retry { .. } => "recover.retry",
            RecoveryEvent::Resume { .. } => "recover.resume",
            RecoveryEvent::Degrade { .. } => "recover.degrade",
            RecoveryEvent::GuardTrip { .. } => "recover.guard_trip",
            RecoveryEvent::CorruptCheckpoint { .. } => "recover.corrupt_checkpoint",
            RecoveryEvent::Rollback { .. } => "recover.rollback",
            // External cancellation gets its own counter so operators
            // can tell "user hit stop" from "resource limit hit".
            RecoveryEvent::BudgetTrip {
                trip: crate::BudgetTrip::Cancelled,
                ..
            } => "recover.cancelled",
            RecoveryEvent::BudgetTrip { .. } => "recover.budget_trip",
        }
    }
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryEvent::Checkpoint { kind, iteration } => {
                write!(f, "checkpoint {kind} at iteration {iteration}")
            }
            RecoveryEvent::Retry {
                attempt,
                backoff,
                error,
            } => write!(
                f,
                "retry #{attempt} after {:.3}s backoff (transient: {error})",
                backoff.as_secs_f64()
            ),
            RecoveryEvent::Resume { np, failed_rank } => {
                write!(f, "resume on np={np} after rank {failed_rank} died")
            }
            RecoveryEvent::Degrade { reason } => {
                write!(f, "degraded to sequential fallback ({reason})")
            }
            RecoveryEvent::GuardTrip { what } => write!(f, "numerical guard trip: {what}"),
            RecoveryEvent::CorruptCheckpoint { generation, reason } => {
                write!(f, "corrupt checkpoint generation {generation} skipped ({reason})")
            }
            RecoveryEvent::Rollback { from, to } => {
                write!(f, "rolled back from generation {from} to {to}")
            }
            RecoveryEvent::BudgetTrip { trip, iteration } => {
                write!(f, "budget trip at iteration {iteration}: {trip}")
            }
        }
    }
}

/// Record `event` into the global metrics registry and the trace.
pub fn record_event(event: &RecoveryEvent) {
    lra_obs::metrics::global().inc_counter(event.name(), 1);
    lra_obs::trace::instant(event.name());
}

/// Convenience for iteration loops: record a
/// [`RecoveryEvent::GuardTrip`] and return it (callers typically keep
/// it next to the `Breakdown` they escalate).
pub fn record_guard_trip(what: impl Into<String>) -> RecoveryEvent {
    let ev = RecoveryEvent::GuardTrip { what: what.into() };
    record_event(&ev);
    ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_obs::MetricValue;

    #[test]
    fn events_bump_global_counters() {
        let before = match lra_obs::metrics::global().get("recover.guard_trip") {
            Some(MetricValue::Counter(c)) => c,
            _ => 0,
        };
        record_guard_trip("indicator NaN at iteration 3");
        match lra_obs::metrics::global().get("recover.guard_trip") {
            Some(MetricValue::Counter(c)) => assert_eq!(c, before + 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn display_names_the_action() {
        let ev = RecoveryEvent::Resume {
            np: 3,
            failed_rank: 1,
        };
        assert_eq!(ev.name(), "recover.resume");
        assert!(ev.to_string().contains("np=3"));
    }
}
