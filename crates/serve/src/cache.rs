//! Fingerprint-keyed factor cache.
//!
//! Two requests compute the same factors exactly when they agree on
//! (a) the matrix bits — captured by `CscMatrix::fingerprint()` — and
//! (b) every result-determining option: driver, tolerance, block
//! size, ordering, … — captured by
//! [`crate::Algorithm::options_digest`] — and (c) the rank-group
//! size, because tournament merge order (and therefore pivot choice)
//! depends on how many ranks the tournament runs over. The cache key
//! is exactly that triple, so a hit is *bitwise* the same result the
//! driver would have produced — the engine can return it without
//! running anything.
//!
//! Eviction is LRU over a resident-bytes budget: each entry is
//! charged the factor storage it pins (`L`, `U`, pivot vectors), and
//! inserting over budget evicts least-recently-used entries first.
//! Only `Completed` outcomes that took no recovery action are cached:
//! a budget-tripped partial result reflects the *tenant's* limits, and
//! a shrunk grid's factors another rank count, not the request.

use std::collections::HashMap;
use std::sync::Arc;

use lra_core::LuCrtpResult;

/// Identity of a cacheable factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `CscMatrix::fingerprint()` of the input.
    pub fingerprint: u64,
    /// [`crate::Algorithm::options_digest`] of the request options.
    pub options: u64,
    /// Rank-group size the job runs on.
    pub ranks: usize,
}

#[derive(Debug)]
struct Entry {
    result: Arc<LuCrtpResult>,
    bytes: u64,
    /// Monotone recency stamp (larger = more recent).
    used: u64,
}

fn result_bytes(r: &LuCrtpResult) -> u64 {
    r.l.resident_bytes()
        + r.u.resident_bytes()
        + ((r.pivot_rows.len() + r.pivot_cols.len()) * std::mem::size_of::<usize>()) as u64
}

/// Size-bounded LRU cache of completed factorizations.
#[derive(Debug)]
pub struct FactorCache {
    map: HashMap<CacheKey, Entry>,
    capacity_bytes: u64,
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FactorCache {
    /// A cache holding at most `capacity_bytes` of factor storage.
    pub fn new(capacity_bytes: u64) -> Self {
        FactorCache {
            map: HashMap::new(),
            capacity_bytes,
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Factor bytes currently pinned.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Lifetime (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Look up a key, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<LuCrtpResult>> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&e.result))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a completed result, evicting LRU entries until the
    /// budget holds. A result larger than the whole budget is not
    /// cached at all (it would only evict everything for one use).
    pub fn insert(&mut self, key: CacheKey, result: Arc<LuCrtpResult>) {
        let bytes = result_bytes(&result);
        if bytes > self.capacity_bytes {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.capacity_bytes {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| *k)
                .expect("over budget implies at least one entry");
            let evicted = self.map.remove(&lru).expect("key came from the map");
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        self.bytes += bytes;
        self.map.insert(
            key,
            Entry {
                result,
                bytes,
                used: self.clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_core::{ilut_crtp, IlutOpts};
    use lra_matgen::fem2d;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            fingerprint: n,
            options: 7,
            ranks: 2,
        }
    }

    fn some_result() -> Arc<LuCrtpResult> {
        let a = fem2d(6, 5, 3);
        Arc::new(ilut_crtp(&a, &IlutOpts::new(4, 1e-3, 8)))
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let r = some_result();
        let per = result_bytes(&r);
        let mut c = FactorCache::new(per * 2 + per / 2);
        c.insert(key(1), Arc::clone(&r));
        c.insert(key(2), Arc::clone(&r));
        assert_eq!(c.len(), 2);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), Arc::clone(&r));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none(), "LRU entry was evicted");
        assert!(c.get(&key(3)).is_some());
        let (hits, misses, evictions) = c.stats();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
        assert!(c.bytes() <= per * 2 + per / 2);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let r = some_result();
        let mut c = FactorCache::new(result_bytes(&r) - 1);
        c.insert(key(1), r);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn keys_distinguish_options_and_ranks() {
        let r = some_result();
        let mut c = FactorCache::new(u64::MAX);
        c.insert(key(1), Arc::clone(&r));
        let other_opts = CacheKey {
            options: 8,
            ..key(1)
        };
        let other_ranks = CacheKey { ranks: 4, ..key(1) };
        assert!(c.get(&other_opts).is_none());
        assert!(c.get(&other_ranks).is_none());
        assert!(c.get(&key(1)).is_some());
    }
}
