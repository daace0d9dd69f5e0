//! Shared-memory SPMD runtime: the MPI substitute, with a fault model.
//!
//! The paper's parallel algorithms are written against MPI ranks and
//! collectives (broadcast, allgather, tree reductions for tournament
//! pivoting). This crate reproduces that model with one OS thread per
//! rank and typed point-to-point channels, so the Rust ports keep the
//! same SPMD structure — in particular the global reduction stages
//! whose latency causes the strong-scaling knees in Fig. 4.
//!
//! Messages are matched by `(source, tag)` with FIFO order per pair,
//! like MPI. Collectives are built from point-to-point messages; all
//! ranks must call collectives in the same program order (the usual
//! SPMD contract), and every eager collective's tag carries its
//! sequence number, so a message can only match the collective it was
//! sent in. `allgather`, `allreduce` and `barrier` finish in **one
//! round**: every rank sends its value to every peer, and `allreduce`
//! then replays the binomial tree's fold locally, so every rank holds
//! the root's bits without a broadcast. That costs each rank `P − 1`
//! sends instead of one. At `np = 2`, the only size measured, that is
//! the tree's one message per rank with a round fewer; what the extra
//! sends cost at larger `np` is not measured.
//! `broadcast`, `gatherv` and `alltoallv` keep their shapes (a
//! binomial tree, a gather to the root and a personalized exchange).
//!
//! ## Fault model
//!
//! Unlike the first-cut runtime (which hung every peer forever when a
//! single rank died), this runtime *contains* failures:
//!
//! - **Panic containment** — a panic inside the rank closure is caught
//!   at the rank boundary, recorded as [`CommError::Failed`], and a
//!   poison signal is broadcast over the control channel (a reserved
//!   control-tag namespace plus a shared poison cell). Every peer
//!   blocked in a receive or collective aborts with
//!   [`CommError::PeerFailed`] instead of hanging.
//! - **Deadlock detection** — every blocked receive carries a watchdog
//!   (default 30 s, override with `LRA_COMM_WATCHDOG_MS` or
//!   [`RunConfig::with_watchdog`]). On expiry the rank fails with
//!   [`CommError::Timeout`] carrying a [`TimeoutDiagnostics`] dump:
//!   what it was waiting for, its op counter and collective program
//!   counter, and the `(src, tag)` of every buffered non-matching
//!   message — enough to diagnose a mis-ordered collective from a
//!   single rank's report. A timeout also poisons peers, so one stuck
//!   rank cannot wedge the rest.
//! - **Chaos injection** — a [`FaultPlan`] threaded through
//!   [`run_with`] can kill a rank at its Nth operation, delay
//!   deliveries with seeded jitter, and drop individual messages
//!   (detected by the watchdog). Per-rank [`CommStats`] counters
//!   (messages and bytes sent via [`MessageSize`], collectives, injected
//!   faults) are reported alongside the results.
//!
//! ## Nonblocking collectives
//!
//! [`Ctx::post_alltoallv`] splits the size-aware exchange into a *post*
//! (all sends happen immediately — sends never block here) and a
//! deferred completion barrier on the returned [`PendingExchange`].
//! Compute run between post and [`PendingExchange::complete`] hides
//! the wire; each exchange drains under a unique tag so interleaved
//! eager collectives can never cross wires with it. Faults landing in
//! the window surface as typed [`CommError`]s at the barrier (poison
//! broadcast + watchdog, same as eager), and per-rank [`CommStats`]
//! account the hidden window (`overlap_hidden_ns`) against the blocked
//! drain time (`overlap_wait_ns`).
//!
//! [`run`] returns `Vec<Result<T, CommError>>`; [`run_infallible`]
//! unwraps for callers on the happy path.

mod error;
mod fault;
mod stats;

pub use error::{CommError, TimeoutDiagnostics};
pub use fault::FaultPlan;
pub use stats::{CommStats, MessageSize};

use fault::{RankDelay, RankStall};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Payload = Box<dyn Any + Send>;

struct Envelope {
    src: usize,
    tag: u64,
    /// `std::any::type_name` of the payload, captured at send time so
    /// type-mismatch diagnostics can name both sides.
    type_name: &'static str,
    payload: Payload,
}

/// Internal tag namespace for collectives (top bit set so user tags in
/// `0 .. 2^63` never collide). An eager collective's tag is
/// `COLL | (pc << 3) | family`, `pc` being its sequence number (see
/// [`Ctx::collective_pc`]).
const COLL: u64 = 1 << 63;
/// Control-channel namespace (top two bits): poison broadcast.
const CTRL_POISON: u64 = COLL | (1 << 62);
/// Nonblocking-exchange namespace: each posted exchange gets a unique
/// tag `PENDING | (seq << 3) | base`, where `seq` is the rank-local
/// post counter (kept in lockstep across ranks by the uniform
/// program-order contract) and `base` is the eager `alltoallv` tag (6).
/// Unique tags mean a pending exchange can never steal — or feed —
/// envelopes belonging to an eager collective or another pending
/// exchange, no matter how much compute (including other collectives)
/// runs between post and complete.
const PENDING: u64 = COLL | (1 << 61);

/// Poll quantum for blocked receives: the longest a rank can take to
/// notice an out-of-band poison flag when no wake-up envelope reaches
/// it (e.g. its inbox sender was already dropped).
const POISON_POLL: Duration = Duration::from_millis(25);

/// Shared control state: the first failure wins and is visible to all
/// ranks (the authoritative record behind the poison broadcast).
#[derive(Default)]
struct Control {
    poison: Mutex<Option<(usize, String)>>,
}

impl Control {
    /// Record a failure if none is recorded yet; returns whether this
    /// call won the race (and should send wake-up envelopes).
    fn try_poison(&self, rank: usize, payload: String) -> bool {
        let mut slot = self.poison.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some((rank, payload));
            true
        } else {
            false
        }
    }

    fn poison_info(&self) -> Option<(usize, String)> {
        self.poison
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// Configuration for one [`run_with`] execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Watchdog window for every blocked receive. Default: 30 s, or
    /// `LRA_COMM_WATCHDOG_MS` from the environment.
    pub watchdog: Duration,
    /// Faults to inject (empty by default).
    pub faults: FaultPlan,
    /// Trace-lane offset for this execution's rank threads: rank `r`
    /// traces into lane `lane_base + r`. The default (0) keeps the
    /// historical one-lane-per-rank layout; a job engine multiplexing
    /// several rank groups in one process gives each group a disjoint
    /// base so every job gets its own set of timeline lanes in the
    /// Chrome trace.
    pub lane_base: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        let watchdog = std::env::var("LRA_COMM_WATCHDOG_MS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_secs(30));
        RunConfig {
            watchdog,
            faults: FaultPlan::default(),
            lane_base: 0,
        }
    }
}

impl RunConfig {
    /// Override the watchdog window.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Attach a chaos-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Offset this execution's per-rank trace lanes (see
    /// [`RunConfig::lane_base`]).
    pub fn with_lane_base(mut self, lane_base: u64) -> Self {
        self.lane_base = lane_base;
        self
    }
}

/// Results and counters of one [`run_with`] execution, in rank order.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank outcome: the closure's value, or why the rank failed.
    pub results: Vec<Result<T, CommError>>,
    /// Per-rank communication counters (present even for failed
    /// ranks — the counters cover everything up to the failure).
    pub stats: Vec<CommStats>,
}

impl<T> RunReport<T> {
    /// True when every rank produced a value.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Unwrap all results, panicking with [`RunReport::failure_summary`]
    /// if any rank failed — the panic message names the origin rank and,
    /// for watchdog timeouts, renders the full [`TimeoutDiagnostics`]
    /// (stuck rank, op index, collective program counter, pending
    /// messages) instead of losing them to a bare `Debug` dump.
    pub fn unwrap_all(self) -> Vec<T> {
        if let Some(summary) = self.failure_summary() {
            panic!("{summary}");
        }
        self.results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| unreachable!("failure_summary was None")))
            .collect()
    }

    /// Render every failure of this run in one diagnostic string, or
    /// `None` when all ranks succeeded. The first non-collateral error
    /// (a `Failed` or `Timeout`, i.e. a failure *origin*) leads the
    /// message; collateral `PeerFailed` aborts are summarized per rank
    /// after it. Timeout entries carry the full diagnostics dump.
    pub fn failure_summary(&self) -> Option<String> {
        use std::fmt::Write as _;
        let failed: Vec<(usize, &CommError)> = self
            .results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().err().map(|e| (rank, e)))
            .collect();
        if failed.is_empty() {
            return None;
        }
        // Lead with a failure origin, not its blast radius.
        let &(first_rank, first_err) = failed
            .iter()
            .find(|(_, e)| !e.is_peer_failure())
            .unwrap_or(&failed[0]);
        let mut out = format!(
            "SPMD run failed on {}/{} ranks; first failure on rank {first_rank}: {first_err}",
            failed.len(),
            self.results.len(),
        );
        for (rank, err) in &failed {
            if *rank == first_rank {
                continue;
            }
            let _ = write!(out, "\n  rank {rank}: {err}");
        }
        Some(out)
    }
}

/// Per-rank communication context handed to the SPMD closure.
pub struct Ctx {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    pending: RefCell<Vec<Envelope>>,
    control: Arc<Control>,
    watchdog: Duration,
    // Chaos-injection state for this rank.
    kill_at: Option<u64>,
    kill_at_iter: Option<u64>,
    kill_at_overlap: Option<u64>,
    drops: Vec<u64>,
    delay: Option<RankDelay>,
    stalls: Vec<RankStall>,
    overlap_stalls: Vec<RankStall>,
    // Counters.
    stats: RefCell<CommStats>,
    op_index: Cell<u64>,
    coll_pc: Cell<u64>,
    in_collective: Cell<Option<&'static str>>,
    send_index: Cell<u64>,
    pending_seq: Cell<u64>,
}

thread_local! {
    /// Set while this thread unwinds with a runtime-raised
    /// [`CommError`]: the failure is *contained* (caught at the rank
    /// boundary and returned as a value), so the default panic hook's
    /// "thread panicked at ... Box<dyn Any>" noise is suppressed.
    /// Organic panics in rank closures keep the normal hook output.
    static QUIET_UNWIND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_UNWIND.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Raise a [`CommError`] as a rank-local panic; [`run_with`] catches
/// it at the rank boundary and converts it into the rank's result.
#[cold]
fn raise<T>(err: CommError) -> T {
    QUIET_UNWIND.with(|q| q.set(true));
    std::panic::panic_any(err)
}

fn unwrap_comm<T>(r: Result<T, CommError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => raise(e),
    }
}

impl Ctx {
    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Communication operations performed so far (sends + receives +
    /// collective entries) — the counter [`FaultPlan::kill_rank_at_op`]
    /// indexes into.
    pub fn op_index(&self) -> u64 {
        self.op_index.get()
    }

    /// Collectives entered so far (the collective program counter in
    /// [`TimeoutDiagnostics`]).
    pub fn collective_pc(&self) -> u64 {
        self.coll_pc.get()
    }

    /// Advance the op counter; fail here if the fault plan kills this
    /// rank at this operation.
    fn begin_op(&self) -> Result<(), CommError> {
        let op = self.op_index.get() + 1;
        self.op_index.set(op);
        self.stats.borrow_mut().ops += 1;
        if self.kill_at == Some(op) {
            return Err(CommError::Failed {
                rank: self.rank,
                payload: format!("fault injection: rank {} killed at op {op}", self.rank),
            });
        }
        Ok(())
    }

    /// Announce that this rank is entering algorithm iteration
    /// `iteration` (1-based). Iteration-structured algorithms call this
    /// at the top of their main loop; it is the hook
    /// [`FaultPlan::kill_rank_at_iteration`] fires on, letting chaos
    /// tests kill a rank between two checkpoints deterministically
    /// (independent of how many communication ops each iteration
    /// performs). The kill is raised as [`CommError::Failed`] and
    /// poisons peers exactly like an op-indexed kill; without a
    /// matching plan entry this is a counter update and one branch.
    pub fn begin_iteration(&self, iteration: u64) {
        self.stats.borrow_mut().iterations = iteration;
        for stall in &self.stalls {
            if stall.iteration == iteration && stall.arm() {
                // The rank is healthy but unresponsive: peers blocked
                // on its collective contributions hit their watchdog
                // (CommError::Timeout, the transient classification).
                self.stats.borrow_mut().fault_stalled += 1;
                lra_obs::trace::instant("comm.fault_stall");
                std::thread::sleep(stall.stall);
            }
        }
        if self.kill_at_iter == Some(iteration) {
            raise::<()>(CommError::Failed {
                rank: self.rank,
                payload: format!(
                    "fault injection: rank {} killed at iteration {iteration}",
                    self.rank
                ),
            });
        }
    }

    /// Map a send-to-dead-inbox failure onto the recorded poison, or
    /// onto a program-order diagnosis when the peer exited cleanly.
    fn peer_gone(&self, dst: usize) -> CommError {
        match self.control.poison_info() {
            Some((rank, payload)) => CommError::PeerFailed { rank, payload },
            None => CommError::PeerFailed {
                rank: dst,
                payload: format!(
                    "rank {dst} exited before receiving (mis-ordered send/collective?)"
                ),
            },
        }
    }

    /// Send `msg` to rank `dst` with a user `tag` (`tag < 2^63`).
    /// Panics (contained at the rank boundary) if a peer failed.
    pub fn send<M: Send + 'static>(&self, dst: usize, tag: u64, msg: M) {
        assert!(tag < COLL, "user tags must be < 2^63");
        unwrap_comm(self.send_msg(dst, tag, msg));
    }

    fn send_msg<M: Send + 'static>(&self, dst: usize, tag: u64, msg: M) -> Result<(), CommError> {
        assert!(dst < self.size, "send to invalid rank {dst}");
        self.begin_op()?;
        if let Some(delay) = &self.delay {
            let d = delay.next_delay();
            if !d.is_zero() {
                self.stats.borrow_mut().fault_delayed += 1;
                std::thread::sleep(d);
            }
        }
        let sidx = self.send_index.get();
        self.send_index.set(sidx + 1);
        if self.drops.binary_search(&sidx).is_ok() {
            // Chaos plan: silently lose the message. Detection is the
            // receiver watchdog's job.
            self.stats.borrow_mut().fault_dropped += 1;
            lra_obs::trace::instant("comm.fault_drop");
            return Ok(());
        }
        let bytes = msg.message_size();
        {
            let mut st = self.stats.borrow_mut();
            st.msgs_sent += 1;
            st.bytes_sent += bytes as u64;
            // Attribute wire traffic to the logical collective family
            // this send happens inside of, if any (nonblocking posts
            // attribute through their base family name).
            if let Some(name) = self.in_collective.get() {
                if let Some(i) = stats::family_index(name) {
                    st.bytes_on_wire[i] += bytes as u64;
                }
            }
        }
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                type_name: std::any::type_name::<M>(),
                payload: Box::new(msg),
            })
            .map_err(|_| self.peer_gone(dst))
    }

    /// Blocking receive of a message from `src` with `tag`. Messages of
    /// other `(src, tag)` pairs arriving in between are buffered.
    /// Panics (contained at the rank boundary) on peer failure or
    /// watchdog expiry; panics with both type names on a payload type
    /// mismatch.
    pub fn recv<M: Send + 'static>(&self, src: usize, tag: u64) -> M {
        assert!(tag < COLL, "user tags must be < 2^63");
        unwrap_comm(self.recv_msg(src, tag))
    }

    fn recv_msg<M: Send + 'static>(&self, src: usize, tag: u64) -> Result<M, CommError> {
        self.begin_op()?;
        // Check buffered messages first (FIFO: scan from the front).
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|e| e.src == src && e.tag == tag) {
                let env = pending.remove(pos);
                return Ok(self.consume(env));
            }
        }
        let deadline = Instant::now() + self.watchdog;
        loop {
            if let Some((rank, payload)) = self.control.poison_info() {
                return Err(CommError::PeerFailed { rank, payload });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.timeout_error(src, tag));
            }
            let tick = (deadline - now).min(POISON_POLL);
            match self.inbox.recv_timeout(tick) {
                Ok(env) if env.tag == CTRL_POISON => {
                    let (rank, payload) = self
                        .control
                        .poison_info()
                        .unwrap_or((env.src, "peer failed".to_string()));
                    return Err(CommError::PeerFailed { rank, payload });
                }
                Ok(env) if env.src == src && env.tag == tag => {
                    return Ok(self.consume(env));
                }
                Ok(env) => self.pending.borrow_mut().push(env),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Every sender (including our own loop-back clone)
                    // dropped: all peers are gone.
                    return Err(match self.control.poison_info() {
                        Some((rank, payload)) => CommError::PeerFailed { rank, payload },
                        None => CommError::PeerFailed {
                            rank: src,
                            payload: "all senders dropped while waiting".to_string(),
                        },
                    });
                }
            }
        }
    }

    /// Watchdog diagnostic for a receive stuck on `(src, tag)`.
    fn timeout_error(&self, src: usize, tag: u64) -> CommError {
        lra_obs::trace::instant("comm.watchdog_timeout");
        let pending: Vec<(usize, u64)> = self
            .pending
            .borrow()
            .iter()
            .map(|e| (e.src, e.tag))
            .collect();
        CommError::Timeout(Box::new(TimeoutDiagnostics {
            rank: self.rank,
            src,
            tag,
            waited: self.watchdog,
            op_index: self.op_index.get(),
            collective_pc: self.coll_pc.get(),
            in_collective: self.in_collective.get(),
            pending,
        }))
    }

    /// Downcast a matched envelope.
    fn consume<M: Send + 'static>(&self, env: Envelope) -> M {
        let (src, tag, sent_as) = (env.src, env.tag, env.type_name);
        *env.payload.downcast::<M>().unwrap_or_else(|_| {
            panic!(
                "message type mismatch for (src={src}, tag={}): \
                 receiver expected `{}`, sender sent `{sent_as}`",
                error::tag_repr(tag),
                std::any::type_name::<M>(),
            )
        })
    }

    /// Run a collective body with the program-counter bookkeeping the
    /// watchdog diagnostics rely on. Each collective is a trace span on
    /// this rank's lane (a relaxed atomic no-op when `LRA_TRACE` is
    /// unset), so reduction trees show up as per-rank timeline bars.
    fn collective<V>(
        &self,
        name: &'static str,
        body: impl FnOnce() -> Result<V, CommError>,
    ) -> Result<V, CommError> {
        self.coll_pc.set(self.coll_pc.get() + 1);
        self.stats.borrow_mut().collectives += 1;
        let prev = self.in_collective.replace(Some(name));
        let out = lra_obs::trace::span(name, body);
        self.in_collective.set(prev);
        out
    }

    /// Tag of the running collective's messages of `family`. The
    /// collective's sequence number rides in the tag — the way a
    /// pending exchange's `seq` does — so a rank that runs one
    /// collective ahead of a peer can never feed it: a dropped message
    /// is caught by the watchdog, not replaced by the next
    /// collective's.
    fn coll_tag(&self, family: u64) -> u64 {
        COLL | (self.coll_pc.get() << 3) | family
    }

    /// Synchronize all ranks: a one-round [`Ctx::allreduce`] of nothing.
    pub fn barrier(&self) {
        unwrap_comm(self.collective("barrier", || self.allreduce_round(0u8, |_, _| 0u8)));
    }

    /// Broadcast `value` from `root` to every rank; each rank returns
    /// the broadcast value. Non-root ranks pass their own (ignored)
    /// `value`. Binomial tree, `log2(P)` rounds.
    pub fn broadcast<M: Clone + Send + 'static>(&self, root: usize, value: M) -> M {
        unwrap_comm(self.collective("broadcast", || self.broadcast_impl(root, value)))
    }

    /// In root-relative ranks, `vrank` receives from `vrank` minus its
    /// lowest set bit, then forwards to `vrank | mask` for every `mask`
    /// below that bit, highest first.
    fn broadcast_impl<M: Clone + Send + 'static>(
        &self,
        root: usize,
        value: M,
    ) -> Result<M, CommError> {
        let size = self.size;
        let vrank = (self.rank + size - root) % size;
        let (v, lowest) = if vrank == 0 {
            (value, size.next_power_of_two())
        } else {
            let lowest = vrank & vrank.wrapping_neg();
            let parent = (vrank - lowest + root) % size;
            (self.recv_msg::<M>(parent, self.coll_tag(1))?, lowest)
        };
        let mut mask = lowest >> 1;
        while mask > 0 {
            let child = vrank | mask;
            if child < size {
                self.send_msg((child + root) % size, self.coll_tag(1), v.clone())?;
            }
            mask >>= 1;
        }
        Ok(v)
    }

    /// Gather one value from every rank onto all ranks
    /// (`out[r]` = rank `r`'s contribution), in one round: each rank
    /// sends its value to every peer.
    pub fn allgather<M: Clone + Send + 'static>(&self, mine: M) -> Vec<M> {
        unwrap_comm(self.collective("allgather", || self.exchange(mine)))
    }

    /// The one round behind `allgather` and `allreduce`: send `mine` to
    /// every peer, then receive from each peer in ascending rank order.
    /// Returns every rank's value in rank order.
    fn exchange<M: Clone + Send + 'static>(&self, mine: M) -> Result<Vec<M>, CommError> {
        let tag = self.coll_tag(2);
        for dst in (0..self.size).filter(|&d| d != self.rank) {
            self.send_msg(dst, tag, mine.clone())?;
        }
        let mut mine = Some(mine);
        (0..self.size)
            .map(|src| match mine.take_if(|_| src == self.rank) {
                Some(v) => Ok(v),
                None => self.recv_msg::<M>(src, tag),
            })
            .collect()
    }

    /// Reduction whose result is delivered to every rank, in one round:
    /// the values are exchanged as by [`Ctx::allgather`], and every rank
    /// folds them in the order a binomial tree to rank 0 combines them,
    /// so each returns the same bits — for any `op`, associative or
    /// not.
    pub fn allreduce<M, F>(&self, mine: M, op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        unwrap_comm(self.collective("allreduce", || self.allreduce_round(mine, op)))
    }

    fn allreduce_round<M, F>(&self, mine: M, op: F) -> Result<M, CommError>
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let mut v: Vec<Option<M>> = self.exchange(mine)?.into_iter().map(Some).collect();
        // The binomial tree to rank 0: at level `mask`, every multiple
        // `i` of `2·mask` absorbs the subtree rooted at `i + mask`.
        let size = v.len();
        let mut mask = 1usize;
        while mask < size {
            for i in (0..size - mask).step_by(2 * mask) {
                let (a, b) = (v[i].take(), v[i + mask].take());
                v[i] = a.zip(b).map(|(a, b)| op(a, b));
            }
            mask <<= 1;
        }
        Ok(v[0].take().expect("allreduce: the fold leaves its result at 0"))
    }

    /// Allreduce over *optional* per-rank contributions: ranks with
    /// `None` contribute nothing, and every rank returns `Some(fold)`
    /// exactly when at least one rank had a value. `op` must be
    /// associative and commutative for the result to be reduction-order
    /// independent.
    ///
    /// This is the agreement primitive behind cooperative budget trips:
    /// each rank offers its local verdict (or `None`), and the whole
    /// group observes the same folded verdict at the same iteration —
    /// the same never-desync discipline as poison broadcast, but for a
    /// voluntary stop.
    pub fn allreduce_opt<M, F>(&self, mine: Option<M>, op: F) -> Option<M>
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        self.allreduce(mine, move |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(op(x, y)),
            (some, None) => some,
            (None, some) => some,
        })
    }

    /// Gather one (arbitrarily sized) part from every rank onto `root`:
    /// the root returns `Some(parts)` with `parts[r]` = rank `r`'s
    /// contribution, every other rank returns `None`. Unlike
    /// [`Ctx::allgather`] the result stays on the root — use it when
    /// only one rank materializes the combined object (checkpoint
    /// snapshots, final factor assembly).
    pub fn gatherv<M: Send + 'static>(&self, root: usize, mine: M) -> Option<Vec<M>> {
        unwrap_comm(self.collective("gatherv", || {
            if self.rank == root {
                let mut all = Vec::with_capacity(self.size);
                for src in 0..self.size {
                    if src == self.rank {
                        // Placeholder replaced below; keeps rank order.
                        continue;
                    }
                    all.push((src, self.recv_msg::<M>(src, self.coll_tag(5))?));
                }
                let mut out: Vec<Option<M>> = (0..self.size).map(|_| None).collect();
                out[self.rank] = Some(mine);
                for (src, part) in all {
                    out[src] = Some(part);
                }
                Ok(Some(
                    out.into_iter()
                        .map(|p| p.expect("gatherv: every rank contributed"))
                        .collect(),
                ))
            } else {
                self.send_msg(root, self.coll_tag(5), mine)?;
                Ok(None)
            }
        }))
    }

    /// Personalized all-to-all exchange: rank `r` sends `parts[d]` to
    /// rank `d` and returns `out` with `out[s]` = the part rank `s`
    /// addressed to `r`. `parts` must hold exactly `size` entries; parts
    /// may differ in size per (src, dst) pair. Sends never block (the
    /// inbox channels are unbounded), so every rank posts all of its
    /// sends before draining its receives in ascending source order.
    pub fn alltoallv<M: Send + 'static>(&self, parts: Vec<M>) -> Vec<M> {
        unwrap_comm(self.collective("alltoallv", || {
            assert_eq!(
                parts.len(),
                self.size,
                "alltoallv: need one part per rank"
            );
            let mut own = None;
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == self.rank {
                    own = Some(part);
                } else {
                    self.send_msg(dst, self.coll_tag(6), part)?;
                }
            }
            let mut out = Vec::with_capacity(self.size);
            for src in 0..self.size {
                if src == self.rank {
                    out.push(own.take().expect("alltoallv: own part present"));
                } else {
                    out.push(self.recv_msg::<M>(src, self.coll_tag(6))?);
                }
            }
            Ok(out)
        }))
    }

    /// Allocate the unique tag for the next nonblocking exchange.
    /// Every rank posts exchanges in the same program order, so
    /// rank-local counters agree group-wide without communication.
    fn next_pending_tag(&self) -> u64 {
        let seq = self.pending_seq.get();
        self.pending_seq.set(seq + 1);
        PENDING | (seq << 3) | 6
    }

    /// Chaos hook at the completion barrier of a pending exchange: the
    /// window between post and complete is where a fault tears the
    /// pipeline apart, so [`FaultPlan::kill_rank_mid_overlap`] and
    /// [`FaultPlan::stall_rank_once_mid_overlap`] fire here, keyed by
    /// the iteration announced via [`Ctx::begin_iteration`].
    fn overlap_fault_point(&self) {
        let iteration = self.stats.borrow().iterations;
        if iteration == 0 {
            return;
        }
        for stall in &self.overlap_stalls {
            if stall.iteration == iteration && stall.arm() {
                self.stats.borrow_mut().fault_stalled += 1;
                lra_obs::trace::instant("comm.fault_stall");
                std::thread::sleep(stall.stall);
            }
        }
        if self.kill_at_overlap == Some(iteration) {
            raise::<()>(CommError::Failed {
                rank: self.rank,
                payload: format!(
                    "fault injection: rank {} killed mid-overlap at iteration {iteration}",
                    self.rank
                ),
            });
        }
    }

    /// Nonblocking personalized all-to-all: post every send of
    /// [`Ctx::alltoallv`] *now* (sends never block — the inbox channels
    /// are unbounded) and defer the receive drain to the returned
    /// handle's [`PendingExchange::complete`]. Compute run between the
    /// post and the completion barrier overlaps the wire: by the time
    /// `complete` drains, slower peers have long since posted, so the
    /// time left blocked in the drain (`overlap_wait_ns`) shrinks to
    /// near zero.
    ///
    /// Fault semantics are identical to the eager collective: the post
    /// performs real sends (op-indexed kills, drops, and delays apply),
    /// and the completion drain runs under the poison broadcast and the
    /// recv watchdog — a peer dying mid-overlap surfaces as a typed
    /// [`CommError`] at `complete`, never a hang or a torn result.
    pub fn post_alltoallv<M: Send + 'static>(&self, parts: Vec<M>) -> PendingExchange<'_, M> {
        let tag = self.next_pending_tag();
        let slots = unwrap_comm(self.collective("alltoallv.post", || {
            assert_eq!(
                parts.len(),
                self.size,
                "post_alltoallv: need one part per rank"
            );
            let mut slots = Vec::with_capacity(self.size);
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == self.rank {
                    slots.push(PendingSlot::Ready(part));
                } else {
                    self.send_msg(dst, tag, part)?;
                    slots.push(PendingSlot::From(dst));
                }
            }
            Ok(slots)
        }));
        self.stats.borrow_mut().overlap_posted += 1;
        lra_obs::trace::instant("comm.overlap.post");
        PendingExchange {
            ctx: self,
            tag,
            slots,
            posted_at: Instant::now(),
        }
    }

    /// After a primary failure on this rank: record it in the control
    /// cell and wake every blocked peer with a poison envelope.
    fn poison_peers(&self, payload: String) {
        if self.control.try_poison(self.rank, payload) {
            lra_obs::trace::instant("comm.poison_broadcast");
            for (dst, sender) in self.senders.iter().enumerate() {
                if dst == self.rank {
                    continue;
                }
                // A dead peer's inbox is gone; that is fine.
                let _ = sender.send(Envelope {
                    src: self.rank,
                    tag: CTRL_POISON,
                    type_name: "poison",
                    payload: Box::new(()),
                });
            }
        }
    }
}

/// One result slot of a pending exchange: either the part that never
/// touches the wire (this rank's own contribution) or the source rank
/// still owing us an envelope.
enum PendingSlot<M> {
    Ready(M),
    From(usize),
}

/// A posted-but-not-completed nonblocking exchange (see
/// [`Ctx::post_alltoallv`]). All sends already happened at post time;
/// this handle owns the receive side. Complete it with
/// [`PendingExchange::complete`] (barrier: returns every part) or
/// [`PendingExchange::complete_with`] (streaming: hands each part to a
/// callback as soon as it is drained, so per-part compute interleaves
/// with the remaining wire time).
///
/// Dropping the handle without completing abandons only the *receives*:
/// the uniquely tagged envelopes sit harmlessly in this rank's inbox
/// (they can never match another collective), which is exactly what
/// happens when a fault unwinds a rank mid-overlap. Peers blocked on
/// our part were already fed at post time or are woken by the poison
/// broadcast.
#[must_use = "a posted exchange must be completed before its results are needed"]
pub struct PendingExchange<'a, M> {
    ctx: &'a Ctx,
    tag: u64,
    slots: Vec<PendingSlot<M>>,
    posted_at: Instant,
}

impl<M: Send + 'static> PendingExchange<'_, M> {
    /// Completion barrier: drain every outstanding receive (ascending
    /// source order) and return the parts in slot order: `out[s]` =
    /// the part rank `s` addressed to us, exactly like the eager
    /// [`Ctx::alltoallv`].
    pub fn complete(self) -> Vec<M> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.complete_with(|_, m| out.push(m));
        out
    }

    /// Streaming completion: drain the slots in order, invoking
    /// `sink(slot_index, part)` for each part the moment it is
    /// available. Compute done inside the callback overlaps the drain
    /// of the *remaining* slots — the software-pipeline shape the
    /// re-shard uses to hide per-piece Schur updates behind the wire.
    ///
    /// Blocked drain time is accounted to `overlap_wait_ns` (callback
    /// time is not), and the post→complete window to
    /// `overlap_hidden_ns`.
    pub fn complete_with(mut self, mut sink: impl FnMut(usize, M)) {
        let ctx = self.ctx;
        {
            let mut st = ctx.stats.borrow_mut();
            st.overlap_hidden_ns += self
                .posted_at
                .elapsed()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
        }
        lra_obs::trace::instant("comm.overlap.complete");
        ctx.overlap_fault_point();
        let slots = std::mem::take(&mut self.slots);
        let tag = self.tag;
        unwrap_comm(ctx.collective("alltoallv.complete", || {
            for (i, slot) in slots.into_iter().enumerate() {
                match slot {
                    PendingSlot::Ready(m) => sink(i, m),
                    PendingSlot::From(src) => {
                        let wait_start = Instant::now();
                        let m = ctx.recv_msg::<M>(src, tag)?;
                        ctx.stats.borrow_mut().overlap_wait_ns +=
                            wait_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        sink(i, m);
                    }
                }
            }
            Ok(())
        }));
    }
}

/// Stringify a panic payload for failure reports.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked with a non-string payload".to_string()
    }
}

/// Convert whatever unwound out of a rank closure into this rank's
/// [`CommError`], poisoning peers when the failure originated here.
fn contain_failure(rank: usize, ctx: &Ctx, payload: Box<dyn Any + Send>) -> CommError {
    match payload.downcast::<CommError>() {
        Ok(err) => {
            let err = *err;
            match &err {
                // Secondary failure: some other rank poisoned us —
                // do not re-poison, the first failure already did.
                CommError::PeerFailed { .. } => err,
                // Primary failures raised by the runtime itself
                // (injected kill, watchdog timeout): poison peers with
                // a description of this failure. For `Failed` the bare
                // payload already names the rank — re-rendering the
                // whole error would double the "rank N failed" prefix
                // in every peer's report.
                CommError::Failed { payload, .. } => {
                    ctx.poison_peers(payload.clone());
                    err
                }
                other => {
                    ctx.poison_peers(other.to_string());
                    err
                }
            }
        }
        Err(other) => {
            // Organic panic in the rank closure (or a type-mismatch
            // assertion): this rank is the origin.
            let msg = panic_message(other.as_ref());
            ctx.poison_peers(msg.clone());
            CommError::Failed { rank, payload: msg }
        }
    }
}

/// Run `f` as an SPMD program on `np` ranks (threads) under `config`,
/// returning per-rank results *and* per-rank communication counters.
///
/// A rank that panics, is chaos-killed, or times out yields
/// `Err(CommError)`; every peer blocked on it is aborted with
/// [`CommError::PeerFailed`] rather than hanging. The call itself
/// never panics on rank failure (only on runtime-internal bugs).
pub fn run_with<T, F>(np: usize, config: &RunConfig, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&Ctx) -> T + Sync,
{
    let np = np.max(1);
    install_quiet_hook();
    lra_obs::trace::init_from_env();
    let mut senders = Vec::with_capacity(np);
    let mut receivers = Vec::with_capacity(np);
    for _ in 0..np {
        let (s, r) = channel::<Envelope>();
        senders.push(s);
        receivers.push(r);
    }
    let control = Arc::new(Control::default());
    let senders_ref = &senders;
    let f_ref = &f;
    let control_ref = &control;
    let per_rank: Vec<(Result<T, CommError>, CommStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                scope.spawn(move || {
                    // One trace lane per rank (offset by the config's
                    // lane base): SPMD runs export as one timeline lane
                    // per rank in the Chrome trace, and concurrent rank
                    // groups with disjoint bases stay disentangled.
                    lra_obs::trace::set_lane(config.lane_base + rank as u64);
                    let ctx = Ctx {
                        rank,
                        size: np,
                        senders: senders_ref.clone(),
                        inbox,
                        pending: RefCell::new(Vec::new()),
                        control: Arc::clone(control_ref),
                        watchdog: config.watchdog.max(Duration::from_millis(1)),
                        kill_at: config.faults.kill_op_for(rank),
                        kill_at_iter: config.faults.kill_iteration_for(rank),
                        kill_at_overlap: config.faults.kill_overlap_for(rank),
                        drops: config.faults.drops_for(rank),
                        delay: config.faults.delay_for(rank),
                        stalls: config.faults.stalls_for(rank),
                        overlap_stalls: config.faults.overlap_stalls_for(rank),
                        stats: RefCell::new(CommStats::default()),
                        op_index: Cell::new(0),
                        coll_pc: Cell::new(0),
                        in_collective: Cell::new(None),
                        send_index: Cell::new(0),
                        pending_seq: Cell::new(0),
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| f_ref(&ctx)));
                    let result = match outcome {
                        Ok(v) => Ok(v),
                        Err(payload) => Err(contain_failure(rank, &ctx, payload)),
                    };
                    (result, ctx.stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|_| {
                    // Unreachable in practice: the closure is fully
                    // wrapped in catch_unwind.
                    (
                        Err(CommError::Failed {
                            rank,
                            payload: "rank thread died outside containment".to_string(),
                        }),
                        CommStats::default(),
                    )
                })
            })
            .collect()
    });
    let mut results = Vec::with_capacity(np);
    let mut stats = Vec::with_capacity(np);
    for (r, s) in per_rank {
        results.push(r);
        stats.push(s);
    }
    // Flush the accumulated trace whenever LRA_TRACE is set, so any
    // SPMD program is traceable without its own harness code. The
    // writer snapshots (does not drain), so a later run — or a bench
    // harness's final flush — rewrites the file with a superset.
    let _ = lra_obs::trace::flush_to_env_path();
    RunReport { results, stats }
}

/// Run `f` as an SPMD program on `np` ranks (threads) with the default
/// configuration. Returns the per-rank results in rank order; a failed
/// rank yields `Err` and is guaranteed not to hang its peers.
pub fn run<T, F>(np: usize, f: F) -> Vec<Result<T, CommError>>
where
    T: Send,
    F: Fn(&Ctx) -> T + Sync,
{
    run_with(np, &RunConfig::default(), f).results
}

/// [`run`] for callers that treat any rank failure as fatal: unwraps
/// every per-rank result, panicking with
/// [`RunReport::failure_summary`] — the failure origin's full
/// rendering (including [`TimeoutDiagnostics`] for watchdog timeouts)
/// plus the per-rank collateral. This is the drop-in replacement for
/// the pre-fault-model `run`.
pub fn run_infallible<T, F>(np: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Ctx) -> T + Sync,
{
    run_with(np, &RunConfig::default(), f).unwrap_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_send_recv() {
        for np in [1usize, 2, 3, 5, 8] {
            let out = run_infallible(np, |ctx| {
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(next, 7, ctx.rank());
                ctx.recv::<usize>(prev, 7)
            });
            for (r, v) in out.iter().enumerate() {
                let prev = (r + np - 1) % np;
                assert_eq!(*v, prev, "np={np}");
            }
        }
    }

    #[test]
    fn allreduce_opt_folds_only_contributing_ranks() {
        for np in [1usize, 2, 3, 4, 7] {
            // Odd ranks contribute their rank; everyone must agree on
            // the max over contributors, or None when nobody offers.
            let out = run_infallible(np, |ctx| {
                let mine = (ctx.rank() % 2 == 1).then_some(ctx.rank());
                ctx.allreduce_opt(mine, std::cmp::Ord::max)
            });
            let expect = (0..np).filter(|r| r % 2 == 1).max();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(*v, expect, "np={np} rank={r}");
            }

            let none = run_infallible(np, |ctx| ctx.allreduce_opt::<usize, _>(None, |a, _| a));
            assert!(none.iter().all(Option::is_none), "np={np}");
        }
    }

    #[test]
    fn out_of_order_tags_buffer() {
        let out = run_infallible(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10, "first".to_string());
                ctx.send(1, 20, "second".to_string());
                0
            } else {
                // Receive in reverse tag order.
                let b = ctx.recv::<String>(0, 20);
                let a = ctx.recv::<String>(0, 10);
                assert_eq!(a, "first");
                assert_eq!(b, "second");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn broadcast_all_sizes_and_roots() {
        for np in [1usize, 2, 3, 4, 6, 7, 8] {
            for root in 0..np {
                let out = run_infallible(np, |ctx| {
                    let v = if ctx.rank() == root { 42u64 } else { 0 };
                    ctx.broadcast(root, v)
                });
                assert!(out.iter().all(|&v| v == 42), "np={np} root={root}");
            }
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        for np in [1usize, 3, 6] {
            let out = run_infallible(np, |ctx| ctx.allgather(ctx.rank() * 10));
            for per_rank in out {
                let expect: Vec<usize> = (0..np).map(|r| r * 10).collect();
                assert_eq!(per_rank, expect, "np={np}");
            }
        }
    }

    #[test]
    fn gatherv_collects_on_root_only() {
        for np in [1usize, 2, 4, 7] {
            for root in [0, np / 2] {
                let out = run_infallible(np, |ctx| {
                    ctx.gatherv(root, vec![ctx.rank(); ctx.rank() + 1])
                });
                for (r, v) in out.iter().enumerate() {
                    if r == root {
                        let got = v.as_ref().expect("root gets the gather");
                        let expect: Vec<Vec<usize>> =
                            (0..np).map(|s| vec![s; s + 1]).collect();
                        assert_eq!(*got, expect, "np={np} root={root}");
                    } else {
                        assert!(v.is_none(), "np={np} root={root} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_parts() {
        for np in [1usize, 2, 3, 6] {
            let out = run_infallible(np, |ctx| {
                let parts: Vec<(usize, usize, Vec<u8>)> = (0..ctx.size())
                    .map(|dst| (ctx.rank(), dst, vec![7u8; ctx.rank() + 2 * dst]))
                    .collect();
                ctx.alltoallv(parts)
            });
            for (dst, per_rank) in out.iter().enumerate() {
                for (src, got) in per_rank.iter().enumerate() {
                    assert_eq!(*got, (src, dst, vec![7u8; src + 2 * dst]), "np={np}");
                }
            }
        }
    }

    #[test]
    fn sized_collectives_compose_back_to_back() {
        // alltoallv → gatherv → post_alltoallv chained repeatedly must
        // not cross-match messages (distinct internal tags per family).
        let out = run_infallible(4, |ctx| {
            let mut acc = 0usize;
            for round in 0..5usize {
                let swapped = ctx.alltoallv(vec![ctx.rank() * 10 + round; 4]);
                let total: usize = swapped.iter().sum();
                let gathered = ctx.gatherv(3, swapped);
                let echoed = ctx.post_alltoallv(vec![total; 4]).complete();
                acc += echoed.into_iter().sum::<usize>();
                if ctx.rank() == 3 {
                    acc += gathered.unwrap().into_iter().flatten().sum::<usize>();
                }
            }
            acc
        });
        // Rank r's value in round q is 10r + q; the alltoallv hands every
        // rank all four, so the echo and the gather each sum 16 values.
        let expect: usize = (0..5).map(|q| 4 * (0..4).map(|r| r * 10 + q).sum::<usize>()).sum();
        assert_eq!(out, vec![expect, expect, expect, 2 * expect]);
    }

    #[test]
    fn post_alltoallv_matches_eager_with_interleaved_collectives() {
        for np in [1usize, 2, 3, 4] {
            let report = run_with(np, &RunConfig::default(), |ctx| {
                let parts: Vec<(usize, usize)> =
                    (0..ctx.size()).map(|dst| (ctx.rank(), dst)).collect();
                let pend = ctx.post_alltoallv(parts);
                // Overlap window: unrelated collectives (including an
                // eager alltoallv of the *same* payload type) must not
                // cross wires with the pending exchange.
                let sum = ctx.allreduce(ctx.rank(), |a, b| a + b);
                let eager = ctx.alltoallv(vec![(99usize, ctx.rank()); ctx.size()]);
                let out = pend.complete();
                (out, sum, eager)
            });
            let stats = report.stats.clone();
            for (dst, res) in report.unwrap_all().into_iter().enumerate() {
                let (out, sum, eager) = res;
                for (src, got) in out.iter().enumerate() {
                    assert_eq!(*got, (src, dst), "np={np}");
                }
                assert_eq!(sum, (0..np).sum::<usize>());
                assert!(eager.iter().all(|&(k, _)| k == 99));
            }
            for st in &stats {
                assert_eq!(st.overlap_posted, 1, "np={np}");
                let a2a = stats::family_index("alltoallv").unwrap();
                if np > 1 {
                    assert!(st.bytes_on_wire[a2a] > 0, "np={np}: post traffic attributed");
                }
            }
        }
    }

    #[test]
    fn overlapping_pending_exchanges_complete_out_of_order() {
        // Two outstanding exchanges of the same type, completed in
        // reverse post order: unique per-post tags keep them apart.
        let out = run_infallible(3, |ctx| {
            let a = ctx.post_alltoallv(vec![(b'a', ctx.rank()); 3]);
            let b = ctx.post_alltoallv(vec![(b'b', ctx.rank()); 3]);
            let got_b = b.complete();
            let got_a = a.complete();
            (got_a, got_b)
        });
        for (got_a, got_b) in out {
            assert_eq!(got_a, (0..3).map(|s| (b'a', s)).collect::<Vec<_>>());
            assert_eq!(got_b, (0..3).map(|s| (b'b', s)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn complete_with_streams_in_slot_order() {
        let out = run_infallible(4, |ctx| {
            let pend = ctx.post_alltoallv(vec![ctx.rank(); 4]);
            let mut seen = Vec::new();
            pend.complete_with(|slot, part| seen.push((slot, part)));
            seen
        });
        for per_rank in out {
            assert_eq!(per_rank, (0..4).map(|s| (s, s)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mid_overlap_kill_is_typed_on_every_rank() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_mid_overlap(1, 2));
        let report = run_with(3, &cfg, |ctx| {
            let mut acc = 0usize;
            for it in 1..=3u64 {
                ctx.begin_iteration(it);
                let pend = ctx.post_alltoallv(vec![ctx.rank(); 3]);
                acc += ctx.allreduce(1usize, |a, b| a + b);
                acc += pend.complete().into_iter().sum::<usize>();
                ctx.barrier();
            }
            acc
        });
        assert!(!report.all_ok());
        match report.results[1].as_ref().unwrap_err() {
            CommError::Failed { rank: 1, payload } => {
                assert!(payload.contains("mid-overlap"), "{payload}");
            }
            other => panic!("victim: {other:?}"),
        }
        for r in [0usize, 2] {
            assert!(
                report.results[r].as_ref().unwrap_err().is_peer_failure(),
                "rank {r}: {:?}",
                report.results[r]
            );
        }
    }

    #[test]
    fn mid_overlap_stall_times_out_peers_not_hangs() {
        // The stalled rank already posted its sends, so peers drain
        // their exchange fine — they block (and must time out, typed)
        // in the *next* collective that needs the sleeper.
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_millis(80))
            .with_faults(FaultPlan::new().stall_rank_once_mid_overlap(
                1,
                1,
                Duration::from_millis(600),
            ));
        let report = run_with(3, &cfg, |ctx| {
            ctx.begin_iteration(1);
            let pend = ctx.post_alltoallv(vec![ctx.rank(); 3]);
            let out: usize = pend.complete().into_iter().sum();
            ctx.barrier();
            out
        });
        assert!(!report.all_ok());
        let mut timeouts = 0;
        for r in &report.results {
            match r {
                Ok(_) => {}
                Err(CommError::Timeout(_)) => timeouts += 1,
                Err(e) => assert!(
                    e.is_peer_failure() || matches!(e, CommError::Failed { .. }),
                    "untyped failure: {e:?}"
                ),
            }
        }
        assert!(timeouts >= 1, "a peer watchdog must trip: {:?}", report.results);
        assert!(report.stats[1].fault_stalled >= 1);
    }

    #[test]
    fn chaos_kill_inside_sized_collective_is_typed() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_at_op(1, 1));
        let report = run_with(3, &cfg, |ctx| {
            let g = ctx.gatherv(0, ctx.rank());
            let a = ctx.alltoallv(vec![ctx.rank(); 3]);
            (g, a)
        });
        assert!(!report.all_ok());
        match report.results[1].as_ref().unwrap_err() {
            CommError::Failed { rank: 1, .. } => {}
            other => panic!("victim: {other:?}"),
        }
        for r in [0usize, 2] {
            assert!(
                report.results[r].as_ref().unwrap_err().is_peer_failure(),
                "rank {r}: {:?}",
                report.results[r]
            );
        }
    }

    #[test]
    fn allreduce_sums() {
        for np in [1usize, 2, 5, 8] {
            let out = run_infallible(np, |ctx| ctx.allreduce(ctx.rank() as u64 + 1, |a, b| a + b));
            let expect: u64 = (1..=np as u64).sum();
            assert!(out.iter().all(|&v| v == expect), "np={np}");
        }
    }

    #[test]
    fn allreduce_max() {
        for np in [1usize, 4, 7] {
            let out = run_infallible(np, |ctx| ctx.allreduce(ctx.rank(), |a, b| a.max(b)));
            assert!(out.iter().all(|&v| v == np - 1), "np={np}");
        }
    }

    #[test]
    fn barrier_completes() {
        let out = run_infallible(6, |ctx| {
            for _ in 0..10 {
                ctx.barrier();
            }
            ctx.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn collectives_interleaved_with_p2p() {
        let out = run_infallible(4, |ctx| {
            let r = ctx.rank();
            // P2P exchange between 0 and 3 straddling a collective.
            if r == 0 {
                ctx.send(3, 99, 1234u32);
            }
            let sum = ctx.allreduce(1usize, |a, b| a + b);
            assert_eq!(sum, 4);
            if r == 3 {
                assert_eq!(ctx.recv::<u32>(0, 99), 1234);
            }
            ctx.barrier();
            sum
        });
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        run_infallible(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 5u32);
            } else {
                let _ = ctx.recv::<String>(0, 1);
            }
        });
    }

    #[test]
    fn type_mismatch_names_both_types() {
        let results = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 5u32);
            } else {
                let _ = ctx.recv::<String>(0, 1);
            }
        });
        let err = results[1].as_ref().unwrap_err();
        match err {
            CommError::Failed { rank, payload } => {
                assert_eq!(*rank, 1);
                assert!(payload.contains("u32"), "missing sent type: {payload}");
                assert!(
                    payload.contains("String"),
                    "missing expected type: {payload}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn panic_is_contained_and_poisons_peers() {
        let results = run(3, |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate failure");
            }
            // Ranks 0 and 2 would block forever without containment.
            ctx.allreduce(1usize, |a, b| a + b)
        });
        match &results[1] {
            Err(CommError::Failed { rank: 1, payload }) => {
                assert!(payload.contains("deliberate failure"));
            }
            other => panic!("origin rank: {other:?}"),
        }
        for r in [0usize, 2] {
            match &results[r] {
                Err(CommError::PeerFailed { rank: 1, payload }) => {
                    assert!(payload.contains("deliberate failure"));
                }
                other => panic!("rank {r}: {other:?}"),
            }
        }
    }

    #[test]
    fn watchdog_reports_pending_and_collective_pc() {
        let cfg = RunConfig::default().with_watchdog(Duration::from_millis(150));
        let report = run_with(2, &cfg, |ctx| {
            if ctx.rank() == 0 {
                // Send a non-matching message, never enter the
                // barrier, and outlive rank 1's watchdog (exiting
                // early would trip the faster peer-gone detection
                // instead of the watchdog under test).
                ctx.send(1, 77, 1u8);
                std::thread::sleep(Duration::from_millis(800));
            } else {
                ctx.barrier();
            }
            ctx.rank()
        });
        let err = report.results[1].as_ref().unwrap_err();
        match err {
            CommError::Timeout(diag) => {
                assert_eq!(diag.rank, 1);
                assert_eq!(diag.collective_pc, 1);
                assert_eq!(diag.in_collective, Some("barrier"));
                assert!(
                    diag.pending.contains(&(0, 77)),
                    "pending: {:?}",
                    diag.pending
                );
                let rendered = err.to_string();
                assert!(rendered.contains("inside barrier"), "{rendered}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(report.results[0].is_ok());
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let report = run_with(2, &RunConfig::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 7u64);
                ctx.send(1, 2, 9u64);
            } else {
                // Reverse order forces one buffered message.
                let b = ctx.recv::<u64>(0, 2);
                let a = ctx.recv::<u64>(0, 1);
                assert_eq!((a, b), (7, 9));
            }
        });
        assert!(report.all_ok());
        assert_eq!(report.stats[0].msgs_sent, 2);
        assert_eq!(report.stats[0].bytes_sent, 16);
        assert_eq!(report.stats[0].ops, 2);
        assert_eq!(report.stats[1].ops, 2);
    }

    #[test]
    fn chaos_kill_terminates_every_rank() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_at_op(0, 1));
        let report = run_with(3, &cfg, |ctx| {
            ctx.barrier();
            ctx.rank()
        });
        match report.results[0].as_ref().unwrap_err() {
            CommError::Failed { rank: 0, payload } => {
                assert!(payload.contains("killed at op 1"), "{payload}");
            }
            other => panic!("victim: {other:?}"),
        }
        for r in [1usize, 2] {
            assert!(
                matches!(
                    report.results[r].as_ref().unwrap_err(),
                    CommError::PeerFailed { rank: 0, .. }
                ),
                "rank {r}: {:?}",
                report.results[r]
            );
        }
    }

    #[test]
    fn chaos_drop_detected_by_watchdog() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_millis(150))
            .with_faults(FaultPlan::new().drop_nth_send(0, 0));
        let report = run_with(2, &cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, 1u8);
            } else {
                let _ = ctx.recv::<u8>(0, 5);
            }
        });
        assert!(report.results[0].is_ok());
        assert!(report.results[1].as_ref().unwrap_err().is_timeout());
        assert_eq!(report.stats[0].fault_dropped, 1);
        assert_eq!(report.stats[0].msgs_sent, 0);
    }

    #[test]
    fn iteration_indexed_kill_fires_and_poisons_peers() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_at_iteration(1, 3));
        let report = run_with(3, &cfg, |ctx| {
            let mut acc = 0usize;
            for it in 1..=5u64 {
                ctx.begin_iteration(it);
                acc = ctx.allreduce(1usize, |a, b| a + b);
            }
            acc
        });
        match report.results[1].as_ref().unwrap_err() {
            CommError::Failed { rank: 1, payload } => {
                assert!(payload.contains("killed at iteration 3"), "{payload}");
            }
            other => panic!("victim: {other:?}"),
        }
        for r in [0usize, 2] {
            assert!(report.results[r].as_ref().unwrap_err().is_peer_failure());
        }
        assert_eq!(report.stats[1].iterations, 3);
        // Stripping the victim's kills makes the same plan survivable.
        let cfg2 = cfg.clone().with_faults(cfg.faults.clone().without_kills_for(1));
        let report2 = run_with(3, &cfg2, |ctx| {
            for it in 1..=5u64 {
                ctx.begin_iteration(it);
                ctx.barrier();
            }
        });
        assert!(report2.all_ok());
    }

    #[test]
    fn one_shot_stall_times_out_peers_then_resolves() {
        // A stall longer than the watchdog is a deterministic
        // transient: peers report Timeout (their own, not collateral),
        // and because the stall is one-shot the identical configuration
        // succeeds on the next execution — exactly the contract a
        // supervisor's retry path relies on.
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_millis(100))
            .with_faults(FaultPlan::new().stall_rank_once_at_iteration(
                1,
                2,
                Duration::from_millis(400),
            ));
        let grid = |ctx: &Ctx| {
            let mut acc = 0usize;
            for it in 1..=3u64 {
                ctx.begin_iteration(it);
                acc = ctx.allreduce(1usize, |a, b| a + b);
            }
            acc
        };
        let broken = run_with(2, &cfg, grid);
        assert!(!broken.all_ok());
        assert!(
            broken.results[0].as_ref().unwrap_err().is_timeout(),
            "the healthy peer must classify the stall as a timeout: {:?}",
            broken.results[0]
        );
        assert_eq!(broken.stats[1].fault_stalled, 1);
        let retried = run_with(2, &cfg, grid);
        assert!(retried.all_ok(), "{:?}", retried.failure_summary());
        assert_eq!(retried.stats[1].fault_stalled, 0);
    }

    #[test]
    fn failure_summary_leads_with_the_origin_rank() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_at_op(2, 1));
        let report = run_with(3, &cfg, |ctx| {
            ctx.barrier();
            ctx.rank()
        });
        let summary = report.failure_summary().expect("run must fail");
        assert!(
            summary.starts_with("SPMD run failed on 3/3 ranks; first failure on rank 2:"),
            "{summary}"
        );
        assert!(summary.contains("killed at op 1"), "{summary}");
        // Success path: no summary.
        let ok = run_with(2, &RunConfig::default(), |ctx| ctx.rank());
        assert!(ok.failure_summary().is_none());
    }

    #[test]
    fn unwrap_all_message_carries_timeout_diagnostics() {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_millis(150))
            .with_faults(FaultPlan::new().drop_nth_send(0, 0));
        let report = run_with(2, &cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, 1u8);
            } else {
                let _ = ctx.recv::<u8>(0, 5);
            }
        });
        let summary = report.failure_summary().expect("drop must trip the watchdog");
        // The watchdog's diagnostic fields survive into the message.
        assert!(summary.contains("receive watchdog"), "{summary}");
        assert!(summary.contains("waiting for (src=0, tag=5)"), "{summary}");
    }

    #[test]
    fn run_infallible_matches_run_on_success() {
        let a = run_infallible(4, |ctx| ctx.allreduce(ctx.rank(), |x, y| x + y));
        let b: Vec<usize> = run(4, |ctx| ctx.allreduce(ctx.rank(), |x, y| x + y))
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(a, b);
    }
}
