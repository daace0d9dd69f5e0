//! Hierarchical span tracing with per-rank timelines.
//!
//! A span is a named, timed region; spans nest per thread, and every
//! span records its parent, so the exported timeline is a tree. Each
//! thread records onto a *lane*: the SPMD runtime assigns lane = rank
//! id when it spawns rank threads ([`set_lane`]), so distributed runs
//! export one timeline lane per rank — the shape of the paper's
//! per-rank execution diagrams. Threads that never call [`set_lane`]
//! (the driver, bench harnesses) get stable fallback lanes starting at
//! [`DRIVER_LANE_BASE`].
//!
//! ## Overhead guarantee
//!
//! Tracing is off by default. Every instrumentation point first checks
//! [`enabled`] — one `Relaxed` atomic load — and returns immediately
//! without allocating, locking, or reading the clock. Hot kernels can
//! therefore stay instrumented unconditionally; the `paper` bin run with
//! and without `LRA_TRACE` must agree within measurement noise (the
//! PR's <2% acceptance bound).
//!
//! ## Usage
//!
//! ```
//! lra_obs::trace::enable();
//! let out = lra_obs::trace::span("schur", || 2 + 2);
//! assert_eq!(out, 4);
//! let events = lra_obs::trace::take_events();
//! assert_eq!(events[0].name, "schur");
//! lra_obs::trace::disable();
//! ```
//!
//! `LRA_TRACE=path.json` enables tracing process-wide
//! ([`init_from_env`] is called by the SPMD runtime and the bench
//! harness); [`flush_to_env_path`] writes the Chrome trace-event file
//! at exit.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// First lane id handed to threads that never called [`set_lane`]
/// (driver threads). Rank lanes are always below this.
pub const DRIVER_LANE_BASE: u64 = 1_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_DRIVER_LANE: AtomicU64 = AtomicU64::new(DRIVER_LANE_BASE);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static ENV_INIT: Once = Once::new();

thread_local! {
    static LANE: Cell<Option<u64>> = const { Cell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded event (a completed span or an instant marker).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span or marker label (a kernel name, collective name, …).
    pub name: Cow<'static, str>,
    /// Chrome trace-event phase: `'X'` (complete span) or `'i'`
    /// (instant).
    pub ph: char,
    /// Timeline lane (the SPMD rank id, or a driver lane).
    pub lane: u64,
    /// Start time in microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Unique span id (0 for instants).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
}

/// Whether tracing is active. A single `Relaxed` atomic load — this is
/// the entire cost of instrumentation when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on (tests and harnesses; production uses `LRA_TRACE`).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn tracing off. Already-recorded events are kept until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Enable tracing iff the `LRA_TRACE` environment variable names an
/// output path. Idempotent and cheap after the first call; the SPMD
/// runtime and bench binaries call this at entry so any binary in the
/// workspace is traceable without code changes.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if env_trace_path().is_some() {
            enable();
        }
    });
}

/// The `LRA_TRACE` output path, if configured.
pub fn env_trace_path() -> Option<String> {
    std::env::var("LRA_TRACE").ok().filter(|s| !s.is_empty())
}

/// Bind the current thread to a timeline lane (the SPMD runtime passes
/// the rank id). Cheap; safe to call when tracing is off.
pub fn set_lane(lane: u64) {
    LANE.with(|l| l.set(Some(lane)));
}

/// This thread's lane, assigning a fresh driver lane on first use.
fn current_lane() -> u64 {
    LANE.with(|l| match l.get() {
        Some(lane) => lane,
        None => {
            let lane = NEXT_DRIVER_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(lane));
            lane
        }
    })
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// RAII handle for an open span; records the event on drop.
pub struct SpanGuard {
    name: Cow<'static, str>,
    lane: u64,
    span_id: u64,
    parent: u64,
    start_us: u64,
}

impl SpanGuard {
    /// Open a span. Prefer [`span`] unless the region has no single
    /// closure boundary. Returns `None` when tracing is off.
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Option<SpanGuard> {
        if !enabled() {
            return None;
        }
        let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(span_id);
            parent
        });
        Some(SpanGuard {
            name: name.into(),
            lane: current_lane(),
            span_id,
            parent,
            start_us: now_us(),
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.span_id) {
                s.pop();
            } else {
                // Out-of-order drop (should not happen with closure
                // scoping); remove wherever it is.
                s.retain(|&id| id != self.span_id);
            }
        });
        let end = now_us();
        let event = TraceEvent {
            name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
            ph: 'X',
            lane: self.lane,
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            span_id: self.span_id,
            parent: self.parent,
        };
        EVENTS.lock().unwrap_or_else(|p| p.into_inner()).push(event);
    }
}

/// Run `f` inside a named span. When tracing is off this is exactly
/// `f()` after one relaxed atomic load.
#[inline]
pub fn span<T>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let _guard = SpanGuard::enter(name);
    f()
}

/// Record an instant marker (watchdog expiry, poison broadcast, chaos
/// injection). No-op when tracing is off.
#[inline]
pub fn instant(name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let event = TraceEvent {
        name: name.into(),
        ph: 'i',
        lane: current_lane(),
        ts_us: now_us(),
        dur_us: 0,
        span_id: 0,
        parent,
    };
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).push(event);
}

/// Drain all recorded events (oldest first).
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Copy of all recorded events without draining.
pub fn snapshot_events() -> Vec<TraceEvent> {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Render events as a Chrome trace-event JSON array (the
/// `chrome://tracing` / Perfetto "JSON Array Format"). One `tid` per
/// lane; rank lanes get `thread_name` metadata `rank N`, driver lanes
/// `driver N`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use crate::json::{obj, Json};
    let mut lanes: Vec<u64> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut items: Vec<Json> = Vec::with_capacity(events.len() + lanes.len());
    for &lane in &lanes {
        let name = if lane < DRIVER_LANE_BASE {
            format!("rank {lane}")
        } else {
            format!("driver {}", lane - DRIVER_LANE_BASE)
        };
        items.push(obj(vec![
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(lane as f64)),
            (
                "args",
                obj(vec![("name", Json::Str(name))]),
            ),
        ]));
    }
    for e in events {
        let mut pairs = vec![
            ("name", Json::Str(e.name.to_string())),
            ("ph", Json::Str(e.ph.to_string())),
            ("ts", Json::Num(e.ts_us as f64)),
        ];
        if e.ph == 'X' {
            pairs.push(("dur", Json::Num(e.dur_us as f64)));
        }
        pairs.push(("pid", Json::Num(0.0)));
        pairs.push(("tid", Json::Num(e.lane as f64)));
        if e.ph == 'i' {
            // Instant scope: thread.
            pairs.push(("s", Json::Str("t".to_string())));
        }
        pairs.push((
            "args",
            obj(vec![
                ("span", Json::Num(e.span_id as f64)),
                ("parent", Json::Num(e.parent as f64)),
                ("rank", Json::Num(e.lane as f64)),
            ]),
        ));
        items.push(obj(pairs));
    }
    Json::Arr(items).to_string()
}

/// Write all recorded events (without draining) as Chrome trace JSON.
pub fn write_chrome(path: &str) -> std::io::Result<()> {
    let events = snapshot_events();
    std::fs::write(path, chrome_trace_json(&events))
}

/// If `LRA_TRACE` is set, write the trace there and return the path.
pub fn flush_to_env_path() -> std::io::Result<Option<String>> {
    match env_trace_path() {
        Some(path) => {
            write_chrome(&path)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; every test that records events
    /// runs under this lock so drains don't interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disable();
        let _ = take_events();
        let v = span("never", || 7);
        instant("nope");
        assert_eq!(v, 7);
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _ = take_events();
        enable();
        set_lane(3);
        span("outer", || {
            span("inner", || {
                instant("mark");
            })
        });
        disable();
        let events = take_events();
        // inner closes before outer; instant recorded first.
        let mark = events.iter().find(|e| e.name == "mark").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.span_id);
        assert_eq!(mark.parent, inner.span_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.lane, 3);
        assert_eq!(mark.ph, 'i');
        assert!(outer.dur_us >= inner.dur_us);
        assert!(outer.ts_us <= inner.ts_us);
    }

    #[test]
    fn chrome_export_is_valid_json_with_lane_metadata() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _ = take_events();
        enable();
        set_lane(0);
        span("k", || {});
        disable();
        let events = take_events();
        let text = chrome_trace_json(&events);
        let parsed = crate::json::Json::parse(&text).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert!(arr
            .iter()
            .any(|e| e.get("ph").and_then(crate::Json::as_str) == Some("M")));
        let x = arr
            .iter()
            .find(|e| e.get("ph").and_then(crate::Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x.get("name").and_then(crate::Json::as_str), Some("k"));
        assert!(x.get("dur").is_some());
        assert_eq!(x.get("tid").and_then(crate::Json::as_u64), Some(0));
    }
}
