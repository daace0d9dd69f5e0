//! The rank pool: a counted set of SPMD execution slots.
//!
//! Ranks here are *logical* slots — each dispatch materializes its
//! grant as one `lra_core::factorize_supervised(.., ranks, ..)` call,
//! held until it returns even if the ladder shrank the grid, so the
//! pool only has to account capacity, not bind threads. Grants are
//! tracked per job so the scrape endpoint can attribute busy ranks.

use std::collections::BTreeMap;

use crate::JobId;

/// Fixed-capacity pool of SPMD rank slots.
#[derive(Debug)]
pub struct RankPool {
    total: usize,
    grants: BTreeMap<JobId, usize>,
}

impl RankPool {
    /// A pool of `total` ranks. Panics on zero — a server with no
    /// ranks can never dispatch.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "rank pool must have at least one rank");
        RankPool {
            total,
            grants: BTreeMap::new(),
        }
    }

    /// Pool capacity.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Ranks currently granted to running jobs.
    pub fn busy(&self) -> usize {
        self.grants.values().sum()
    }

    /// Ranks available for dispatch right now.
    pub fn idle(&self) -> usize {
        self.total - self.busy()
    }

    /// Grant `ranks` slots to `job`. Returns false (and grants
    /// nothing) when the pool cannot cover the request.
    pub fn try_grant(&mut self, job: JobId, ranks: usize) -> bool {
        if ranks == 0 || ranks > self.idle() || self.grants.contains_key(&job) {
            return false;
        }
        self.grants.insert(job, ranks);
        true
    }

    /// Return `job`'s grant to the pool (no-op if it holds none).
    pub fn release(&mut self, job: JobId) -> usize {
        self.grants.remove(&job).unwrap_or(0)
    }

    /// Current grants in job order (for the scrape endpoint).
    pub fn grants(&self) -> impl Iterator<Item = (JobId, usize)> + '_ {
        self.grants.iter().map(|(j, r)| (*j, *r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_and_releases_account_capacity() {
        let mut p = RankPool::new(4);
        assert_eq!(p.idle(), 4);
        assert!(p.try_grant(JobId(1), 3));
        assert!(!p.try_grant(JobId(2), 2), "only 1 idle rank left");
        assert!(p.try_grant(JobId(2), 1));
        assert_eq!(p.busy(), 4);
        assert!(!p.try_grant(JobId(3), 0), "zero-rank grant is refused");
        assert_eq!(p.release(JobId(1)), 3);
        assert_eq!(p.release(JobId(1)), 0, "double release is a no-op");
        assert_eq!(p.idle(), 3);
    }
}
