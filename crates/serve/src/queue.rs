//! Admission control and the priority wait queue.
//!
//! The queue holds *identities*, not payloads: the scheduler's job
//! table owns the specs, parked ledgers and checkpoint stores, and the
//! queue just answers "who runs next". Ordering is strict priority
//! (higher first), FIFO within a priority level (by job id — ids are
//! admission-ordered), so two submissions of equal priority never
//! reorder.

use crate::JobId;
use lra_core::InvalidInput;

/// Why a submission was refused at the door. Typed so tenants can
/// distinguish back-off-and-retry conditions (`QueueFull`) from
/// permanent ones (`Invalid`, `MatrixTooLarge`, `RanksUnavailable`).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The options or the matrix fail `lra_core::Method::validate` —
    /// what `factorize_ranks` would answer before spawning a rank.
    Invalid(InvalidInput),
    /// The wait queue is at [`AdmissionPolicy::max_depth`].
    QueueFull {
        /// Current queue depth.
        depth: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The matrix's resident bytes exceed the per-job ceiling.
    MatrixTooLarge {
        /// `CscMatrix::resident_bytes()` of the submitted matrix.
        bytes: u64,
        /// The configured ceiling.
        max: u64,
    },
    /// The job asks for more ranks than the pool has in total (or
    /// zero) — no amount of waiting or preemption can satisfy it.
    RanksUnavailable {
        /// Ranks the spec requested.
        requested: usize,
        /// Total ranks in the pool.
        pool: usize,
    },
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Invalid(e) => write!(f, "invalid job: {e}"),
            AdmissionError::QueueFull { depth, max } => {
                write!(f, "queue full: depth {depth} at ceiling {max}")
            }
            AdmissionError::MatrixTooLarge { bytes, max } => {
                write!(f, "matrix too large: {bytes} bytes over ceiling {max}")
            }
            AdmissionError::RanksUnavailable { requested, pool } => {
                write!(f, "requested {requested} ranks, pool has {pool}")
            }
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Door policy: what a submission must satisfy to enter the queue.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Maximum queued (not yet running) jobs.
    pub max_depth: usize,
    /// Per-job matrix size ceiling in resident bytes.
    pub max_matrix_bytes: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_depth: 64,
            max_matrix_bytes: 1 << 30,
        }
    }
}

/// One waiting job: enough for the scheduler to rank and place it.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    /// The job's identity in the scheduler's table.
    pub id: JobId,
    /// Scheduling priority (higher first).
    pub priority: u8,
    /// Rank-group size the job needs.
    pub ranks: usize,
}

/// Priority wait queue (fresh submissions and parked jobs waiting to
/// resume share it — a parked job re-enters at its original priority).
#[derive(Debug, Default)]
pub struct JobQueue {
    entries: Vec<QueueEntry>,
}

impl JobQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert in scheduling order: descending priority, ascending id
    /// within a priority level.
    pub fn push(&mut self, e: QueueEntry) {
        let at = self
            .entries
            .partition_point(|x| (x.priority > e.priority) || (x.priority == e.priority && x.id < e.id));
        self.entries.insert(at, e);
    }

    /// The highest-priority waiting job, if any.
    pub fn head(&self) -> Option<QueueEntry> {
        self.entries.first().copied()
    }

    /// Waiting jobs in scheduling order.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Remove a job by id (dispatch or cache-hit completion).
    pub fn remove(&mut self, id: JobId) -> Option<QueueEntry> {
        let at = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, priority: u8, ranks: usize) -> QueueEntry {
        QueueEntry {
            id: JobId(id),
            priority,
            ranks,
        }
    }

    #[test]
    fn orders_by_priority_then_fifo() {
        let mut q = JobQueue::new();
        q.push(e(3, 1, 1));
        q.push(e(1, 5, 2));
        q.push(e(2, 5, 4));
        q.push(e(4, 0, 1));
        let order: Vec<u64> = q.iter().map(|x| x.id.0).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(q.head().unwrap().id, JobId(1));
        assert!(q.remove(JobId(2)).is_some());
        assert!(q.remove(JobId(2)).is_none());
        assert_eq!(q.len(), 3);
    }
}
