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
//! - [`JobQueue`] + [`AdmissionPolicy`] — typed admission control
//!   (queue depth, per-job matrix-size ceiling, rank feasibility) and
//!   a strict-priority FIFO wait queue;
//! - [`RankPool`] + the scheduler ([`Server`]) — multiplexes a fixed
//!   pool of SPMD rank slots across concurrent factorizations: small
//!   jobs pack onto idle ranks, and a higher-priority arrival preempts
//!   strictly-lower-priority running jobs through their per-dispatch
//!   [`lra_recover::CancelToken`], parks the `Outcome::Interrupted`,
//!   and later resumes from the trip-boundary checkpoint — on the same
//!   rank count — bitwise identically to an uninterrupted run;
//! - [`FactorCache`] — completed factors keyed by matrix fingerprint +
//!   options digest + rank count, LRU-evicted under a byte budget, so
//!   a repeated request returns without running the driver at all;
//! - observability — every engine event lands in `serve.*` metrics
//!   (queue depth, admission rejections, preemptions, cache traffic,
//!   per-job wall and achieved tolerance under `serve.job.<id>.*`),
//!   and [`Server::scrape`] renders the whole state as one byte-stable
//!   JSON document.

mod cache;
mod job;
mod pool;
mod queue;
mod scheduler;

pub use cache::{CacheKey, FactorCache};
pub use job::{Algorithm, JobId, JobReport, JobSpec};
pub use pool::RankPool;
pub use queue::{AdmissionError, AdmissionPolicy, JobQueue, QueueEntry};
pub use scheduler::{Server, ServerConfig};
