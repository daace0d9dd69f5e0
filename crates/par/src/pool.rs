//! The process-wide pool of helper threads behind every parallel region.
//!
//! [`region`] is the crate's only work-sharing primitive: it publishes
//! one job, runs the job's body on the calling thread as well, and
//! returns once every helper that entered the body has left it. A
//! region with `np` workers is the caller plus up to `np - 1` helpers,
//! and the caller never waits for a helper to *start*: a helper that
//! has not claimed its slot by the time the caller is done loses it.
//! That is what makes nested regions and concurrent regions from
//! several OS threads deadlock-free on a pool of any size — the caller
//! alone can always finish the job.
//!
//! Helpers are spawned on demand (the pool grows to the largest helper
//! count ever requested and never shrinks), poll for [`POLL`] after
//! their last job so the regions of a burst find them awake, then park
//! on a condition variable until a publish needs them.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle helper polls for the next job before it parks, and
/// a finished caller for its last helper before it sleeps. Long enough
/// to bridge the serial stretch between two regions of one kernel (tens
/// of microseconds; a futex sleep and wake-up costs about as much as
/// the regions of a Householder sweep take). Every look is followed by
/// `yield_now`, so a poller that shares its core — with the caller, on
/// a single-core or oversubscribed host — hands the core over instead
/// of burning the slice: measured with both threads pinned to one core,
/// np=2 then costs nothing over np=1, where a `spin_loop` poll cost
/// 6-22 %.
const POLL: Duration = Duration::from_micros(100);

/// Helpers catch a body's panic before they touch a lock again, and
/// the caller's own run is caught too, so no pool mutex is ever held
/// across an unwind.
const NO_POISON: &str = "lra-par pool locks are never held across a panic";

/// One published region.
struct Job {
    state: Mutex<JobState>,
    /// Signalled when `running` drops to zero.
    idle: Condvar,
}

struct JobState {
    /// The region body; `None` once the caller has withdrawn the job.
    body: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers currently inside `body`.
    running: usize,
    /// First panic payload a helper caught.
    panic: Option<Box<dyn Any + Send>>,
}

struct Queue {
    /// Published jobs with the number of helper slots still unclaimed
    /// (never zero: the last claim pops the entry).
    jobs: VecDeque<(Arc<Job>, usize)>,
    /// Helper threads spawned so far.
    threads: usize,
    /// Helpers polling `Pool::open`; each looks at the queue under the
    /// lock before it parks, so a publish need not wake anyone for them.
    searching: usize,
    /// Helpers blocked on `Pool::wake`.
    parked: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Unclaimed helper slots over all queued jobs, written under the
    /// queue lock. `Relaxed` throughout: searching helpers read it as a
    /// hint only and take the lock, which publishes the queue, before
    /// they act on it.
    open: AtomicUsize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        threads: 0,
        searching: 0,
        parked: 0,
    }),
    wake: Condvar::new(),
    open: AtomicUsize::new(0),
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(NO_POISON)
}

/// Run `body` on the calling thread and on up to `helpers` (at least
/// one) pool threads at once; return when all of them have left it.
/// `body` is expected to drain a shared work counter, so it does not
/// matter how many helpers join or when. A panic in the caller's or a
/// helper's run is re-raised here once the region has drained.
pub(crate) fn region(helpers: usize, body: &(dyn Fn() + Sync)) {
    assert!(helpers > 0, "a region without helpers is a plain call");
    // SAFETY: the erased reference lives only in `job.state.body`. A
    // helper copies it out only under the state lock, counting itself
    // into `running` in the same critical section, and never touches
    // the copy after it counts itself out. Below, the caller withdraws
    // (clears the field under that lock) and then waits for
    // `running == 0` before this frame returns or unwinds (its own run
    // of `body` is caught), so no helper can call `body` past its
    // lifetime.
    let erased =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
    let job = Arc::new(Job {
        state: Mutex::new(JobState {
            body: Some(erased),
            running: 0,
            panic: None,
        }),
        idle: Condvar::new(),
    });
    POOL.publish(&job, helpers);
    let mine = catch_unwind(AssertUnwindSafe(body));
    POOL.withdraw(&job);
    let theirs = {
        let mut state = lock(&job.state);
        state.body = None;
        // A helper still inside is usually on its last chunk: poll for
        // it (see `POLL`) before paying for a sleep and a wake-up.
        let deadline = Instant::now() + POLL;
        while state.running > 0 && Instant::now() < deadline {
            drop(state);
            std::thread::yield_now();
            state = lock(&job.state);
        }
        while state.running > 0 {
            state = job.idle.wait(state).expect(NO_POISON);
        }
        state.panic.take()
    };
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

impl Pool {
    /// Queue `job` with `helpers` open slots, grow the pool to that
    /// many threads and wake parked helpers for the slots that no
    /// searching helper will pick up.
    fn publish(&'static self, job: &Arc<Job>, helpers: usize) {
        let mut q = lock(&self.queue);
        while q.threads < helpers {
            // A refused spawn only costs parallelism: the caller drains
            // the job with whatever helpers exist.
            let spawned = std::thread::Builder::new()
                .name(format!("lra-par-{}", q.threads))
                .spawn(move || self.helper_loop());
            if spawned.is_err() {
                break;
            }
            q.threads += 1;
        }
        q.jobs.push_back((Arc::clone(job), helpers));
        let open = self.open.fetch_add(helpers, Ordering::Relaxed) + helpers;
        for _ in 0..open.saturating_sub(q.searching).min(q.parked) {
            self.wake.notify_one();
        }
    }

    /// Take `job`'s unclaimed slots back out of the queue.
    fn withdraw(&self, job: &Arc<Job>) {
        let mut q = lock(&self.queue);
        if let Some(at) = q.jobs.iter().position(|(j, _)| Arc::ptr_eq(j, job)) {
            let (_, slots) = q.jobs.remove(at).expect("position is in range");
            self.open.fetch_sub(slots, Ordering::Relaxed);
        }
    }

    /// Claim one helper slot of the oldest queued job; without one,
    /// poll for [`POLL`] and then park until a publish wakes this
    /// helper.
    fn next_job(&self) -> Arc<Job> {
        let mut q = lock(&self.queue);
        loop {
            if let Some((job, slots)) = q.jobs.front_mut() {
                let job = Arc::clone(job);
                *slots -= 1;
                if *slots == 0 {
                    q.jobs.pop_front();
                }
                self.open.fetch_sub(1, Ordering::Relaxed);
                return job;
            }
            q.searching += 1;
            drop(q);
            let deadline = Instant::now() + POLL;
            let expired = loop {
                if self.open.load(Ordering::Relaxed) > 0 {
                    break false;
                }
                if Instant::now() >= deadline {
                    break true;
                }
                std::thread::yield_now();
            };
            q = lock(&self.queue);
            q.searching -= 1;
            if expired {
                q.parked += 1;
                while q.jobs.is_empty() {
                    q = self.wake.wait(q).expect(NO_POISON);
                }
                q.parked -= 1;
            }
        }
    }

    fn helper_loop(&self) {
        loop {
            let job = self.next_job();
            let body = {
                let mut state = lock(&job.state);
                if state.body.is_some() {
                    state.running += 1;
                }
                state.body
            };
            // A withdrawn job is skipped: its caller may be gone.
            let Some(body) = body else { continue };
            let result = catch_unwind(AssertUnwindSafe(body));
            let mut state = lock(&job.state);
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
            if state.running == 0 {
                job.idle.notify_one();
            }
        }
    }
}
