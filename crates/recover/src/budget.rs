//! Cooperative cancellation and resource budgets.
//!
//! The fixed-precision loops monitor an error indicator every
//! iteration, so a run stopped early is not a failure — it is a valid
//! lower-accuracy approximation with a *known* achieved tolerance. This
//! module supplies the vocabulary for stopping early on purpose:
//!
//! - [`CancelToken`] — a shared atomic flag any thread can set; the
//!   drivers poll it at panel boundaries.
//! - [`Budget`] — declarative resource limits (an absolute wall-clock
//!   deadline, iteration cap, per-rank memory ceiling) plus any number
//!   of cancel tokens. The iteration loop calls [`Budget::check`] once
//!   per boundary.
//! - [`BudgetTrip`] — the typed verdict of a check, with a stable
//!   priority order and a combiner ([`BudgetTrip::merge`]) so an SPMD
//!   rank group can allreduce the verdicts and *agree* on a single trip
//!   at the same iteration (the same discipline as poison broadcast:
//!   never desync the group).
//!
//! Checks are *cooperative*: a trip is only observed at the loop
//! boundaries the drivers instrument, which is exactly what makes the
//! partial result consistent (maps updated, Schur complement current,
//! checkpoint saveable) and the resumed run bitwise-reproducible. A
//! deadline is an [`Instant`]: nothing watches the clock in between.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Cloning yields another handle to the *same* flag. Once cancelled it
/// stays cancelled; tokens are one-shot by design so a trip observed at
/// one boundary cannot un-happen before the next.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// Why a budgeted run stopped early.
///
/// Variants are listed in *priority order*: when several limits trip at
/// the same boundary (or on different ranks of the same SPMD group),
/// the highest-priority verdict wins, so every rank reports the same
/// reason.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetTrip {
    /// A [`CancelToken`] attached to the budget was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// How far past the deadline the check fired (group max under SPMD).
        late_by: Duration,
    },
    /// Resident factorization state exceeded the per-rank ceiling.
    MemoryCeiling {
        /// Observed per-rank resident bytes (group max under SPMD).
        observed_bytes: u64,
        /// The configured ceiling.
        ceiling_bytes: u64,
    },
    /// The iteration cap was reached.
    IterationCap {
        /// Completed iterations when the check fired.
        iterations: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl BudgetTrip {
    /// Stable short label ("cancel", "deadline", "memory",
    /// "iteration_cap") for metrics and site tables.
    pub fn label(&self) -> &'static str {
        match self {
            BudgetTrip::Cancelled => "cancel",
            BudgetTrip::DeadlineExceeded { .. } => "deadline",
            BudgetTrip::MemoryCeiling { .. } => "memory",
            BudgetTrip::IterationCap { .. } => "iteration_cap",
        }
    }

    /// Position in the priority order (0 = highest).
    fn priority(&self) -> u8 {
        match self {
            BudgetTrip::Cancelled => 0,
            BudgetTrip::DeadlineExceeded { .. } => 1,
            BudgetTrip::MemoryCeiling { .. } => 2,
            BudgetTrip::IterationCap { .. } => 3,
        }
    }

    /// Associative, commutative combiner for SPMD agreement: the
    /// higher-priority verdict wins; equal variants merge field by
    /// field by max, so e.g. the group-wide memory verdict reports the
    /// *largest* offending rank. Reducing every rank's optional verdict
    /// with this yields the same agreed trip on all ranks.
    pub fn merge(self, other: BudgetTrip) -> BudgetTrip {
        use BudgetTrip::*;
        match (self, other) {
            (DeadlineExceeded { late_by: a }, DeadlineExceeded { late_by: b }) => {
                DeadlineExceeded { late_by: a.max(b) }
            }
            (
                MemoryCeiling {
                    observed_bytes: a,
                    ceiling_bytes: c,
                },
                MemoryCeiling {
                    observed_bytes: b,
                    ceiling_bytes: d,
                },
            ) => MemoryCeiling {
                observed_bytes: a.max(b),
                ceiling_bytes: c.max(d),
            },
            (
                IterationCap {
                    iterations: a,
                    cap: c,
                },
                IterationCap {
                    iterations: b,
                    cap: d,
                },
            ) => IterationCap {
                iterations: a.max(b),
                cap: c.max(d),
            },
            (x, y) if y.priority() < x.priority() => y,
            (x, _) => x,
        }
    }
}

impl fmt::Display for BudgetTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetTrip::Cancelled => write!(f, "cancelled via token"),
            BudgetTrip::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded ({:.3}s late)", late_by.as_secs_f64())
            }
            BudgetTrip::MemoryCeiling {
                observed_bytes,
                ceiling_bytes,
            } => write!(
                f,
                "memory ceiling exceeded ({observed_bytes} B resident, ceiling {ceiling_bytes} B)"
            ),
            BudgetTrip::IterationCap { iterations, cap } => {
                write!(f, "iteration cap reached ({iterations} of {cap})")
            }
        }
    }
}

/// Declarative resource limits for one driver invocation.
///
/// The default budget is unlimited; every limit is opt-in. Cloning a
/// budget shares its cancel tokens (they are handles to shared flags).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline: an instant, so queueing, parks and
    /// retries all count against it and no clone restarts a clock.
    pub deadline: Option<Instant>,
    /// Maximum completed iterations (panels for LU_CRTP/ILUT, block
    /// steps for RandQB_EI/RandUBV).
    pub max_iterations: Option<u64>,
    /// Per-rank resident-bytes ceiling, checked against the same
    /// quantity `MemStats::peak_rank_bytes` reports.
    pub memory_ceiling_bytes: Option<u64>,
    /// External cancellation: the budget trips when *any* token fires.
    pub cancel: Vec<CancelToken>,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no limit or token is attached — drivers skip the
    /// per-iteration check (and the SPMD agreement collective) entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_iterations.is_none()
            && self.memory_ceiling_bytes.is_none()
            && self.cancel.is_empty()
    }

    /// Bound [`Budget::deadline`] by `at`: a budget keeps the earliest
    /// deadline it was given.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        self
    }

    /// Set [`Budget::max_iterations`].
    pub fn with_iteration_cap(mut self, cap: u64) -> Self {
        self.max_iterations = Some(cap);
        self
    }

    /// Set [`Budget::memory_ceiling_bytes`].
    pub fn with_memory_ceiling(mut self, bytes: u64) -> Self {
        self.memory_ceiling_bytes = Some(bytes);
        self
    }

    /// Attach a [`CancelToken`] (in addition to any already attached).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel.push(token);
        self
    }

    /// Evaluate every limit against the current state. `iterations` is
    /// the count of *completed* iterations; `resident_bytes` is this
    /// rank's resident factorization state. Returns the
    /// highest-priority trip, or `None` when the run may continue. Only
    /// a set deadline reads the clock.
    pub fn check(&self, iterations: u64, resident_bytes: u64) -> Option<BudgetTrip> {
        if self.cancel.iter().any(CancelToken::is_cancelled) {
            return Some(BudgetTrip::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Some(BudgetTrip::DeadlineExceeded {
                    late_by: now - deadline,
                });
            }
        }
        if let Some(ceiling_bytes) = self.memory_ceiling_bytes {
            if resident_bytes > ceiling_bytes {
                return Some(BudgetTrip::MemoryCeiling {
                    observed_bytes: resident_bytes,
                    ceiling_bytes,
                });
            }
        }
        if let Some(cap) = self.max_iterations {
            if iterations >= cap {
                return Some(BudgetTrip::IterationCap { iterations, cap });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.check(u64::MAX, u64::MAX), None);
    }

    #[test]
    fn token_cancel_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        let budget = Budget::unlimited().with_cancel(clone);
        assert_eq!(budget.check(0, 0), Some(BudgetTrip::Cancelled));
    }

    #[test]
    fn iteration_cap_and_memory_ceiling_trip() {
        let budget = Budget::unlimited()
            .with_iteration_cap(3)
            .with_memory_ceiling(1000);
        assert_eq!(budget.check(2, 1000), None);
        assert!(matches!(
            budget.check(3, 0),
            Some(BudgetTrip::IterationCap { iterations: 3, cap: 3 })
        ));
        // Memory outranks the iteration cap.
        assert!(matches!(
            budget.check(3, 1001),
            Some(BudgetTrip::MemoryCeiling {
                observed_bytes: 1001,
                ceiling_bytes: 1000
            })
        ));
    }

    #[test]
    fn a_passed_deadline_trips_and_the_earliest_deadline_wins() {
        let passed = Instant::now();
        let far = passed + Duration::from_secs(3600);
        let budget = Budget::unlimited().with_deadline(passed);
        assert!(matches!(
            budget.check(0, 0),
            Some(BudgetTrip::DeadlineExceeded { .. })
        ));
        assert_eq!(Budget::unlimited().with_deadline(far).check(0, 0), None);
        for b in [
            Budget::unlimited().with_deadline(far).with_deadline(passed),
            Budget::unlimited().with_deadline(passed).with_deadline(far),
        ] {
            assert_eq!(b.deadline, Some(passed));
        }
    }

    #[test]
    fn merge_prioritizes_and_takes_the_fieldwise_max() {
        let trips = [
            BudgetTrip::Cancelled,
            BudgetTrip::DeadlineExceeded {
                late_by: Duration::from_micros(1234),
            },
            BudgetTrip::MemoryCeiling {
                observed_bytes: 7,
                ceiling_bytes: 5,
            },
            BudgetTrip::IterationCap {
                iterations: 4,
                cap: 4,
            },
        ];
        // Priority: the earlier variant beats every later one, either
        // way round.
        for (i, x) in trips.iter().enumerate() {
            for y in &trips[i..] {
                assert_eq!(x.clone().merge(y.clone()), *x);
                assert_eq!(y.clone().merge(x.clone()), *x);
            }
        }
        // Equal variants take the max of each field.
        let mem = |observed_bytes, ceiling_bytes| BudgetTrip::MemoryCeiling {
            observed_bytes,
            ceiling_bytes,
        };
        assert_eq!(mem(10, 5).merge(mem(7, 8)), mem(10, 8));
        let late = |ns| BudgetTrip::DeadlineExceeded {
            late_by: Duration::from_nanos(ns),
        };
        assert_eq!(late(1_500).merge(late(2_999)), late(2_999));
        let cap = |iterations, cap| BudgetTrip::IterationCap { iterations, cap };
        assert_eq!(cap(3, 9).merge(cap(4, 4)), cap(4, 9));
    }
}
