//! The rank-pool scheduler: multiplexes SPMD rank groups across
//! concurrent factorizations.
//!
//! # Scheduling policy
//!
//! One scheduler thread owns placement; one worker thread per dispatch
//! runs one [`factorize_supervised`] call on the job's grant. Each
//! round, with the state lock held, the scheduler:
//!
//! 1. serves cache hits — a fresh job whose cache key is resident
//!    completes immediately, consuming no ranks and no driver call;
//! 2. dispatches the highest-priority waiting job whenever the pool's
//!    idle ranks cover it (repeatedly — equal-priority jobs pack side
//!    by side onto the pool);
//! 3. if the head does not fit, preempts: fires the per-dispatch
//!    cancel tokens of enough *strictly lower*-priority running jobs
//!    (lowest first) to cover the head, then waits for them to park.
//!    Strictly-lower only, so two equal-priority jobs can never
//!    preempt each other back and forth;
//! 4. otherwise backfills — smaller lower-priority jobs that do fit
//!    the idle ranks run now rather than queue behind the blocked
//!    head (the head can preempt them later if it has the priority to,
//!    so backfilling never starves it).
//!
//! # Preemption and resume
//!
//! The tenant's limits are the options' own budget; every dispatch adds
//! only a **fresh** preempt [`CancelToken`] to it. A deadline in that
//! budget is an absolute instant, so it spans queueing and parks with
//! no timer of the engine's own, and trips as `DeadlineExceeded`. When
//! a run comes back [`Outcome::Interrupted`] with a `Cancelled` trip,
//! the worker disambiguates by inspecting the tokens directly: preempt
//! fired and the tenant's own tokens silent means "the scheduler wanted
//! the ranks back" — the job parks (its trip-boundary checkpoint
//! already sits in its [`CheckpointStore`]) and re-enters the queue at
//! its priority. Anything else is the tenant's own limit and closes
//! the job with the partial factors.
//!
//! Resume is re-running the same checkpointed SPMD entry point against
//! the same store **on the same rank count** — the merge order of the
//! tournament depends on the rank count, so the grant size is part of
//! the job's numeric identity. Under that invariant the core layer's
//! resume guarantee applies transitively: a preempted-and-resumed job
//! produces factors bitwise identical to an uninterrupted run.
//!
//! # Failures
//!
//! The supervised call retries, shrinks or degrades past a failed rank
//! while the grant stays held; a preempt fired during a retry's backoff
//! lands at the next attempt's first budget check. A job that needed a
//! recovery action is never cached (a shrunk grid computes other bits);
//! one the ladder gave up on closes with a typed `SupervisedError`.
//!
//! # Locking
//!
//! Two locks, strict hierarchy: the scheduler state may be held while
//! taking the cache lock, never the reverse.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use lra_comm::RunConfig;
use lra_core::{factorize_supervised, Outcome, RecoveryHooks};
use lra_obs::metrics::MetricsRegistry;
use lra_obs::Json;
use lra_recover::{CancelToken, CheckpointStore, RecoveryPolicy};

use crate::cache::{CacheKey, FactorCache};
use crate::pool::RankPool;
use crate::queue::{JobQueue, QueueEntry};
use crate::{AdmissionError, Algorithm, JobId, JobOutcome, JobReport, JobSpec};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total SPMD ranks the pool multiplexes.
    pub ranks: usize,
    /// Door policy for submissions.
    pub admission: crate::AdmissionPolicy,
    /// Factor-cache budget in resident bytes (0 disables caching).
    pub cache_capacity_bytes: u64,
    /// Every dispatch's rank-group template: watchdog window and fault
    /// plan. The trace-lane base is set per job.
    pub run: RunConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ranks: 4,
            admission: crate::AdmissionPolicy::default(),
            cache_capacity_bytes: 64 << 20,
            run: RunConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Pool of `ranks` slots, defaults elsewhere.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Override the admission policy.
    pub fn with_admission(mut self, admission: crate::AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// A live (queued, running, or parked) job's scheduler-side record.
struct Job {
    spec: JobSpec,
    key: CacheKey,
    store: Arc<CheckpointStore>,
    /// The iteration the latest preemption's trip-boundary checkpoint
    /// covers: `None` until the first preemption, and after a trip that
    /// came before the first iteration finished.
    parked: Option<usize>,
    /// The current dispatch's preempt token, while running.
    preempt: Option<CancelToken>,
    /// Set between firing the preempt token and the park landing.
    preempt_pending: bool,
    cache_checked: bool,
    recovered: bool,
    driver_calls: usize,
    preemptions: usize,
    submitted: Instant,
}

struct State {
    queue: JobQueue,
    jobs: HashMap<JobId, Job>,
    running: BTreeSet<JobId>,
    pool: RankPool,
    done: HashMap<JobId, JobReport>,
    workers: Vec<JoinHandle<()>>,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    cv: Condvar,
    cache: Mutex<FactorCache>,
}

impl Inner {
    fn metrics(&self) -> &'static MetricsRegistry {
        lra_obs::metrics::global()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The multi-tenant factorization server.
///
/// `submit` admits jobs, `wait` blocks for their [`JobReport`],
/// `scrape` renders the observability snapshot, and `shutdown` (or
/// drop) drains everything still in flight before returning.
pub struct Server {
    inner: Arc<Inner>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Start a server: spawns the scheduler thread immediately.
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.ranks > 0, "server needs at least one rank");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: JobQueue::new(),
                jobs: HashMap::new(),
                running: BTreeSet::new(),
                pool: RankPool::new(cfg.ranks),
                done: HashMap::new(),
                workers: Vec::new(),
                next_id: 1,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cache: Mutex::new(FactorCache::new(cfg.cache_capacity_bytes)),
            cfg,
        });
        let scheduler = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || scheduler_loop(&inner))
        };
        Server {
            inner,
            scheduler: Some(scheduler),
        }
    }

    /// Admit a job. On success the job is queued (or about to be
    /// served from cache) and the returned id can be passed to
    /// [`Server::wait`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        let inner = &self.inner;
        // Validation, fingerprint and digest are O(nnz) — all outside
        // the lock.
        if let Err(e) = spec.algorithm.method().validate(&spec.matrix) {
            inner.metrics().inc_counter("serve.admission_rejected", 1);
            return Err(AdmissionError::Invalid(e));
        }
        let key = CacheKey {
            fingerprint: spec.matrix.fingerprint(),
            options: spec.algorithm.options_digest(),
            ranks: spec.ranks,
        };
        let matrix_bytes = spec.matrix.resident_bytes();
        let mut st = inner.lock();
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if spec.ranks == 0 || spec.ranks > st.pool.total() {
            inner.metrics().inc_counter("serve.admission_rejected", 1);
            return Err(AdmissionError::RanksUnavailable {
                requested: spec.ranks,
                pool: st.pool.total(),
            });
        }
        if st.queue.len() >= inner.cfg.admission.max_depth {
            inner.metrics().inc_counter("serve.admission_rejected", 1);
            return Err(AdmissionError::QueueFull {
                depth: st.queue.len(),
                max: inner.cfg.admission.max_depth,
            });
        }
        if matrix_bytes > inner.cfg.admission.max_matrix_bytes {
            inner.metrics().inc_counter("serve.admission_rejected", 1);
            return Err(AdmissionError::MatrixTooLarge {
                bytes: matrix_bytes,
                max: inner.cfg.admission.max_matrix_bytes,
            });
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        let entry = QueueEntry {
            id,
            priority: spec.priority,
            ranks: spec.ranks,
        };
        st.jobs.insert(
            id,
            Job {
                spec,
                key,
                store: Arc::new(CheckpointStore::in_memory()),
                parked: None,
                preempt: None,
                preempt_pending: false,
                cache_checked: false,
                recovered: false,
                driver_calls: 0,
                preemptions: 0,
                submitted: Instant::now(),
            },
        );
        st.queue.push(entry);
        inner.metrics().inc_counter("serve.submitted", 1);
        inner.cv.notify_all();
        Ok(id)
    }

    /// Block until `id` completes and claim its report. Panics on an
    /// id this server never admitted (or one already claimed).
    pub fn wait(&self, id: JobId) -> JobReport {
        let mut st = self.inner.lock();
        loop {
            if let Some(r) = st.done.remove(&id) {
                return r;
            }
            assert!(
                st.jobs.contains_key(&id),
                "wait({id}): job unknown or already claimed"
            );
            st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block until `id` holds ranks (its driver is being dispatched)
    /// or has already finished. Lets tests line up deterministic
    /// preemption scenarios.
    pub fn wait_until_running(&self, id: JobId) {
        let mut st = self.inner.lock();
        while !st.running.contains(&id) && !st.done.contains_key(&id) {
            assert!(
                st.jobs.contains_key(&id),
                "wait_until_running({id}): job unknown or already claimed"
            );
            st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Text scrape of the server's observable state: queue/pool/cache
    /// snapshot, every `serve.*` metric, and the `comm.bytes.*` /
    /// `comm.overlap.*` wire-traffic series accumulated by finished
    /// jobs, rendered through the byte-stable `lra_obs` JSON writer
    /// (sorted keys, compact form).
    pub fn scrape(&self) -> String {
        let (queued, running, parked, done_n, pool_total, pool_busy, grants) = {
            let st = self.inner.lock();
            let parked = st.jobs.values().filter(|j| j.preemptions > 0).count();
            let grants: Vec<Json> = st
                .pool
                .grants()
                .map(|(j, r)| {
                    lra_obs::json::obj(vec![
                        ("job", Json::Num(j.0 as f64)),
                        ("ranks", Json::Num(r as f64)),
                    ])
                })
                .collect();
            (
                st.queue.len(),
                st.running.len(),
                parked,
                st.done.len(),
                st.pool.total(),
                st.pool.busy(),
                grants,
            )
        };
        let (cache_len, cache_bytes, hits, misses, evictions) = {
            let c = self.inner.cache.lock().unwrap_or_else(|p| p.into_inner());
            let (h, m, e) = c.stats();
            (c.len(), c.bytes(), h, m, e)
        };
        let to_num = |v: lra_obs::MetricValue| match v {
            lra_obs::MetricValue::Counter(c) => Json::Num(c as f64),
            lra_obs::MetricValue::Gauge(g) => Json::Num(g),
        };
        let metrics = Json::Obj(
            self.inner
                .metrics()
                .snapshot_prefixed("serve")
                .into_iter()
                .map(|(name, v)| (name, to_num(v)))
                .collect(),
        );
        // Wire traffic per collective family plus the overlap series
        // (posted exchanges, hidden/blocked nanoseconds), exported by
        // each finished job's per-rank `CommStats`.
        let comm = Json::Obj(
            self.inner
                .metrics()
                .snapshot_prefixed("comm.bytes")
                .into_iter()
                .chain(self.inner.metrics().snapshot_prefixed("comm.overlap"))
                .map(|(name, v)| (name, to_num(v)))
                .collect(),
        );
        lra_obs::json::obj(vec![
            (
                "cache",
                lra_obs::json::obj(vec![
                    ("bytes", Json::Num(cache_bytes as f64)),
                    ("entries", Json::Num(cache_len as f64)),
                    ("evictions", Json::Num(evictions as f64)),
                    ("hits", Json::Num(hits as f64)),
                    ("misses", Json::Num(misses as f64)),
                ]),
            ),
            ("comm", comm),
            (
                "jobs",
                lra_obs::json::obj(vec![
                    ("done_unclaimed", Json::Num(done_n as f64)),
                    ("parked", Json::Num(parked as f64)),
                    ("queued", Json::Num(queued as f64)),
                    ("running", Json::Num(running as f64)),
                ]),
            ),
            ("metrics", metrics),
            (
                "pool",
                lra_obs::json::obj(vec![
                    ("busy", Json::Num(pool_busy as f64)),
                    ("grants", Json::Arr(grants)),
                    ("total", Json::Num(pool_total as f64)),
                ]),
            ),
            ("schema", Json::Str("serve_scrape_v1".to_string())),
        ])
        .to_string()
    }

    /// Stop admitting, drain every in-flight job, join all threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

/// A served job's checkpoint cadence: never. `panel::drive` forces a
/// save at the iteration a budget trips on, which is the only snapshot
/// a park reads — the per-job store is in memory and guards against no
/// crash — so a job that is never preempted gathers and encodes nothing.
const SAVE_AT_TRIP_ONLY: usize = usize::MAX;

/// Everything a worker needs, cloned out under the lock at dispatch.
struct Dispatch {
    id: JobId,
    matrix: Arc<lra_sparse::CscMatrix>,
    algorithm: Algorithm,
    ranks: usize,
    store: Arc<CheckpointStore>,
    preempt: CancelToken,
    lane_base: u64,
}

fn scheduler_loop(inner: &Arc<Inner>) {
    let mut st = inner.lock();
    loop {
        try_dispatch(inner, &mut st);
        if st.shutdown && st.jobs.is_empty() {
            break;
        }
        st = inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
    }
    let workers = std::mem::take(&mut st.workers);
    drop(st);
    for w in workers {
        let _ = w.join();
    }
}

/// One placement round. Runs with the state lock held; spawned
/// workers re-acquire it when they finish.
fn try_dispatch(inner: &Arc<Inner>, st: &mut State) {
    serve_cache_hits(inner, st);
    while let Some(head) = st.queue.head() {
        // 2. strict-priority dispatch while the head fits.
        if head.ranks <= st.pool.idle() {
            dispatch(inner, st, head);
            continue;
        }
        // Preemption already in flight: wait for the parks to land
        // before planning anything else (keeps placement stable).
        if st.jobs.values().any(|j| j.preempt_pending) {
            break;
        }
        // 3. preempt strictly-lower-priority victims, lowest first.
        let mut victims: Vec<JobId> = Vec::new();
        let mut freed = st.pool.idle();
        let mut running: Vec<(u8, JobId)> = st
            .running
            .iter()
            .map(|id| (st.jobs[id].spec.priority, *id))
            .collect();
        running.sort();
        for (priority, id) in running {
            if freed >= head.ranks {
                break;
            }
            if priority < head.priority {
                freed += st.pool.grants().find(|(j, _)| *j == id).map_or(0, |(_, r)| r);
                victims.push(id);
            }
        }
        if freed >= head.ranks && !victims.is_empty() {
            for id in victims {
                let job = st.jobs.get_mut(&id).expect("victim is running");
                job.preempt_pending = true;
                if let Some(t) = &job.preempt {
                    t.cancel();
                }
            }
            break;
        }
        // 4. backfill: the first smaller job that fits runs now.
        let fit = st
            .queue
            .iter()
            .find(|e| e.ranks <= st.pool.idle())
            .copied();
        match fit {
            Some(e) => dispatch(inner, st, e),
            None => break,
        }
    }
    // Placement changed `running`/`queue` without going through a
    // worker: wake observers blocked in `wait_until_running`. (The
    // scheduler itself is not waiting here, so it cannot self-wake.)
    inner.cv.notify_all();
}

/// Complete fresh jobs whose factors are already cached. A job's key
/// is checked once, the first time the scheduler considers it — the
/// hit/miss counters then mean "per job", not "per placement round".
fn serve_cache_hits(inner: &Arc<Inner>, st: &mut State) {
    if inner.cfg.cache_capacity_bytes == 0 {
        return;
    }
    let candidates: Vec<JobId> = st
        .queue
        .iter()
        .filter(|e| {
            let j = &st.jobs[&e.id];
            !j.cache_checked && j.driver_calls == 0
        })
        .map(|e| e.id)
        .collect();
    for id in candidates {
        let key = st.jobs[&id].key;
        let hit = {
            let mut cache = inner.cache.lock().unwrap_or_else(|p| p.into_inner());
            cache.get(&key)
        };
        st.jobs.get_mut(&id).expect("candidate is live").cache_checked = true;
        match hit {
            Some(result) => {
                inner.metrics().inc_counter("serve.cache_hit", 1);
                st.queue.remove(id);
                let outcome = Ok(Outcome::Completed((*result).clone()));
                finish(inner, st, id, JobOutcome(outcome), true);
            }
            None => {
                inner.metrics().inc_counter("serve.cache_miss", 1);
            }
        }
    }
}

fn dispatch(inner: &Arc<Inner>, st: &mut State, entry: QueueEntry) {
    let id = entry.id;
    st.queue.remove(id);
    assert!(
        st.pool.try_grant(id, entry.ranks),
        "dispatch only runs when the grant fits"
    );
    st.running.insert(id);
    let preempt = CancelToken::new();
    let job = st.jobs.get_mut(&id).expect("queued job is live");
    job.preempt = Some(preempt.clone());
    let resuming = job.preemptions > 0;
    job.driver_calls += 1;
    let mut d = Dispatch {
        id,
        matrix: Arc::clone(&job.spec.matrix),
        algorithm: job.spec.algorithm.clone(),
        ranks: entry.ranks,
        store: Arc::clone(&job.store),
        preempt,
        // Disjoint per-job trace lanes: job N's rank r traces into
        // lane N*64 + r.
        lane_base: id.0 * 64,
    };
    d.algorithm.base_mut().budget.cancel.push(d.preempt.clone());
    let m = inner.metrics();
    m.inc_counter("serve.driver_calls", 1);
    if resuming {
        m.inc_counter("serve.resumes", 1);
    }
    let worker = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || run_job(&inner, d))
    };
    st.workers.retain(|w| !w.is_finished());
    st.workers.push(worker);
}

fn run_job(inner: &Arc<Inner>, d: Dispatch) {
    let cfg = inner.cfg.run.clone().with_lane_base(d.lane_base);
    let hooks = RecoveryHooks::new(&d.store, SAVE_AT_TRIP_ONLY);
    let policy = RecoveryPolicy::default();
    let run = factorize_supervised(&d.matrix, d.algorithm.method(), d.ranks, &cfg, &policy, hooks);
    let took_action = run.as_ref().is_ok_and(|s| s.attempts > 0);
    // Fold the returning attempt's communication counters into the
    // global registry so the scrape endpoint can report wire traffic
    // per collective family (`comm.bytes.*`) and the overlap series.
    let outcome = run.map(|s| {
        for (rank, stats) in s.stats.iter().enumerate() {
            stats.export_metrics(inner.metrics(), rank);
        }
        s.value.into_outcome()
    });

    let mut st = inner.lock();
    st.running.remove(&d.id);
    st.pool.release(d.id);
    let (tenant_cancelled, recovered) = {
        let job = st.jobs.get_mut(&d.id).expect("running job is live");
        job.preempt = None;
        job.preempt_pending = false;
        job.recovered |= took_action;
        let own = &job.spec.algorithm.base().budget.cancel;
        (own.iter().any(CancelToken::is_cancelled), job.recovered)
    };
    match outcome {
        Ok(Outcome::Interrupted(i))
            if i.is_cancelled() && d.preempt.is_cancelled() && !tenant_cancelled =>
        {
            // The scheduler took the ranks back: park and requeue. The
            // trip-boundary checkpoint already lives in the job's
            // store, so the next dispatch resumes from exactly here.
            let job = st.jobs.get_mut(&d.id).expect("running job is live");
            job.preemptions += 1;
            job.parked = i.resume.map(|h| h.iteration);
            let entry = QueueEntry {
                id: d.id,
                priority: job.spec.priority,
                ranks: job.spec.ranks,
            };
            st.queue.push(entry);
            inner.metrics().inc_counter("serve.preemptions", 1);
        }
        Ok(Outcome::Completed(result)) => {
            if inner.cfg.cache_capacity_bytes > 0 && !recovered {
                let key = st.jobs[&d.id].key;
                let result = Arc::new(result.clone());
                let mut cache = inner.cache.lock().unwrap_or_else(|p| p.into_inner());
                cache.insert(key, result);
            }
            finish(inner, &mut st, d.id, JobOutcome(Ok(Outcome::Completed(result))), false);
        }
        // The job's own budget tripped (deadline, memory ceiling,
        // iteration cap, tenant cancel) and it closes with the partial
        // factors, or the recovery ladder gave up and it closes typed.
        other => finish(inner, &mut st, d.id, JobOutcome(other), false),
    }
    drop(st);
    inner.cv.notify_all();
}

/// Close a job out: build its report, count it, move it to the
/// claimable map. Caller holds the state lock.
fn finish(inner: &Arc<Inner>, st: &mut State, id: JobId, outcome: JobOutcome, from_cache: bool) {
    let job = st.jobs.remove(&id).expect("finishing a live job");
    let report = JobReport {
        job: id,
        outcome,
        from_cache,
        preemptions: job.preemptions,
        driver_calls: job.driver_calls,
        wall: job.submitted.elapsed(),
    };
    inner.metrics().inc_counter("serve.completed", 1);
    st.done.insert(id, report);
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_core::IlutOpts;
    use lra_matgen::fem2d;
    use lra_recover::Budget;
    use std::time::Duration;

    fn spec(seed: u64) -> JobSpec {
        let a = Arc::new(fem2d(6, 5, seed));
        JobSpec::new(a, Algorithm::IlutCrtp(IlutOpts::new(4, 1e-3, 8)))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn admission_rejects_typed() {
        let server = Server::new(
            ServerConfig::default()
                .with_ranks(2)
                .with_admission(crate::AdmissionPolicy {
                    max_depth: 64,
                    max_matrix_bytes: 16,
                }),
        );
        match server.submit(spec(1).with_ranks(3)) {
            Err(AdmissionError::RanksUnavailable { requested: 3, pool: 2 }) => {}
            other => panic!("expected RanksUnavailable, got {other:?}"),
        }
        match server.submit(spec(1).with_ranks(0)) {
            Err(AdmissionError::RanksUnavailable { .. }) => {}
            other => panic!("expected RanksUnavailable, got {other:?}"),
        }
        match server.submit(spec(1)) {
            Err(AdmissionError::MatrixTooLarge { max: 16, .. }) => {}
            other => panic!("expected MatrixTooLarge, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn single_job_completes_and_caches() {
        let server = Server::new(ServerConfig::default().with_ranks(2));
        let id = server.submit(spec(2).with_ranks(2)).unwrap();
        let first = server.wait(id);
        assert!(!first.from_cache);
        assert_eq!(first.driver_calls, 1);
        let r1 = first.into_result();
        assert!(r1.converged);

        let id2 = server.submit(spec(2).with_ranks(2)).unwrap();
        let second = server.wait(id2);
        assert!(second.from_cache, "identical request must hit the cache");
        assert_eq!(second.driver_calls, 0);
        let r2 = second.into_result();
        assert_eq!(r1.rank, r2.rank);
        assert_eq!(bits(r1.l.values()), bits(r2.l.values()));
        assert_eq!(bits(r1.u.values()), bits(r2.u.values()));
        server.shutdown();
    }

    #[test]
    fn own_limits_interrupt_with_partial_factors() {
        let server = Server::new(ServerConfig::default().with_ranks(1));
        let with_budget = |budget: Budget| {
            let opts = IlutOpts::new(4, 1e-3, 8).with_budget(budget);
            JobSpec::new(Arc::new(fem2d(6, 5, 3)), Algorithm::IlutCrtp(opts))
        };
        // The tenant's limits are the options' own budget. A 1-byte
        // memory ceiling trips deterministically at the first check;
        // the far deadline never does.
        let far = Instant::now() + Duration::from_secs(600);
        let memory = Budget::unlimited().with_memory_ceiling(1).with_deadline(far);
        // A tenant token that fired is the tenant's cancel, never a park.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        for (budget, label) in [(memory, "memory"), (cancelled, "cancel")] {
            let report = server.wait(server.submit(with_budget(budget)).unwrap());
            assert_eq!(report.preemptions, 0);
            assert_eq!(report.driver_calls, 1);
            match report.outcome.0 {
                Ok(Outcome::Interrupted(i)) => assert_eq!(i.trip.label(), label),
                _ => panic!("{label}: the job's own budget must trip"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn finished_workers_are_not_kept() {
        let cfg = ServerConfig { cache_capacity_bytes: 0, ..ServerConfig::default() };
        let server = Server::new(cfg.with_ranks(1));
        let unfinished = || server.inner.lock().workers.iter().any(|w| !w.is_finished());
        for seed in 0..64 {
            // Once earlier workers exit, one handle remains whatever the timing.
            while unfinished() {
                std::thread::yield_now();
            }
            server.wait(server.submit(spec(seed)).unwrap());
            assert_eq!(server.inner.lock().workers.len(), 1, "after job {seed}");
        }
    }

    #[test]
    fn a_served_job_saves_only_when_it_is_tripped() {
        let server = Server::new(ServerConfig::default().with_ranks(3));
        let store_of = |id: JobId| {
            let st = server.inner.lock();
            let job = st
                .jobs
                .get(&id)
                .expect("job finished before its store was read");
            Arc::clone(&job.store)
        };
        // 125 block iterations at k = 2: the victim is still running
        // when everything below is submitted.
        let slow = Arc::new(lra_matgen::with_decay(&fem2d(18, 14, 11), 1e-6, 3));
        let slow_opts = IlutOpts::new(2, 1e-6, 8);
        let victim = server
            .submit(
                JobSpec::new(Arc::clone(&slow), Algorithm::IlutCrtp(slow_opts.clone()))
                    .with_ranks(2),
            )
            .unwrap();
        server.wait_until_running(victim);
        let victim_store = store_of(victim);
        // A whole small job on the idle rank first, so the preemption
        // below tends to land past the victim's first iteration (the
        // ledger read keeps the assertion exact when it does not).
        server.wait(server.submit(spec(5).with_ranks(1)).unwrap());
        // Queued behind the victim at its priority: never preempted.
        let calm = server.submit(spec(6).with_ranks(3)).unwrap();
        let calm_store = store_of(calm);
        // One idle rank, two wanted: the victim parks.
        let urgent = server
            .submit(spec(4).with_ranks(2).with_priority(9))
            .unwrap();
        server.wait(urgent);
        // Whether still parked or resumed, the victim keeps its ledger
        // until it ends. A trip before the first iteration completes
        // has no state to save; any later trip saves exactly once.
        let tripped_past_start = {
            let st = server.inner.lock();
            let job = st.jobs.get(&victim).expect("the victim outlives the urgent job");
            assert_eq!(job.preemptions, 1, "the urgent job ran, so the victim was parked");
            job.parked.is_some()
        };
        let victim_report = server.wait(victim);
        let calm_report = server.wait(calm);
        server.shutdown();

        assert_eq!(calm_report.preemptions, 0);
        assert!(calm_report.into_result().iterations > 1);
        assert_eq!(
            calm_store.saves(),
            0,
            "a job that is never tripped never saves"
        );
        assert_eq!(victim_report.preemptions, 1);
        assert_eq!(
            victim_store.saves(),
            u64::from(tripped_past_start),
            "one trip-boundary save per preemption and none in between"
        );
        // Resumed from that one forced save, the victim is its solo run.
        let solo = lra_core::factorize_ranks(&slow, &slow_opts, 2, &RunConfig::default(), None)
            .expect("valid input")
            .unwrap_all()
            .swap_remove(0);
        let served = victim_report.into_result();
        assert_eq!(served.pivot_rows, solo.pivot_rows);
        assert_eq!(served.pivot_cols, solo.pivot_cols);
        assert_eq!(bits(served.l.values()), bits(solo.l.values()));
        assert_eq!(bits(served.u.values()), bits(solo.u.values()));
    }
}
