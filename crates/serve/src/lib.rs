//! Factorization-as-a-service: a multi-tenant job engine over the
//! workspace's fixed-precision low-rank drivers.
//!
//! The lower layers already provide everything a service needs except
//! the service itself: cooperative budgets and cancellation
//! (`lra-recover`), checkpointed drivers whose resumes are bitwise
//! (`lra-core`), scoped SPMD rank groups with
//! per-group trace lanes (`lra-comm`), and matrix fingerprints
//! (`lra-sparse`). This crate composes them into a [`Server`]:
//!
//! - the wait queue + [`AdmissionPolicy`] — typed admission control
//!   (queue depth, per-job matrix-size ceiling, rank feasibility) and
//!   a strict-priority FIFO wait queue;
//! - the rank pool + the scheduler ([`Server`]) — multiplexes a fixed
//!   pool of SPMD rank slots across concurrent factorizations, each
//!   dispatch one `lra_core::factorize_supervised` call: small
//!   jobs pack onto idle ranks, and a higher-priority arrival preempts
//!   strictly-lower-priority running jobs through their per-dispatch
//!   [`lra_recover::CancelToken`], parks the `Outcome::Interrupted`,
//!   and later resumes from the trip-boundary checkpoint — on the same
//!   rank count — bitwise identically to an uninterrupted run; a failed
//!   rank is recovered, or the job ends with a typed [`JobOutcome`];
//! - the factor cache — completed factors keyed by matrix fingerprint +
//!   options digest + rank count, LRU-evicted under a byte budget, so
//!   a repeated request returns without running the driver at all
//!   (a job that needed a recovery action is never cached);
//! - observability — engine events are counted once under `serve.*`
//!   (submissions, admission rejections, driver calls, resumes,
//!   preemptions, cache hits and misses, completions); per-job wall,
//!   preemptions and achieved tolerance travel in the [`JobReport`];
//!   and [`Server::scrape`] renders those counters next to the live
//!   queue / pool / cache state as one byte-stable JSON document.

mod cache;
mod job;
mod pool;
mod queue;
mod scheduler;

pub use job::{Algorithm, JobId, JobOutcome, JobReport, JobSpec};
pub use queue::{AdmissionError, AdmissionPolicy};
pub use scheduler::{Server, ServerConfig};
