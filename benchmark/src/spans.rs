//! The benchmark's own span list: name, start, end, causing span and
//! pass id, kept in memory and written as Chrome-trace JSON when the
//! run ends. It never touches the program's global `lra_obs` tracing.

use std::cell::RefCell;
use std::time::Instant;

use crate::report::json_string;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Spans of one pass share an id (0 outside any pass).
    pub pass: u32,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct State {
    enabled: bool,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct Recorder {
    origin: Instant,
    state: RefCell<State>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            state: RefCell::new(State {
                enabled: false,
                pass: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Switch recording on or off; while off, [`Recorder::span`] only
    /// calls its closure.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    pub fn set_pass(&self, pass: u32) {
        self.state.borrow_mut().pass = pass;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, nested in whichever span is
    /// open on this recorder.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut st = self.state.borrow_mut();
            if !st.enabled {
                drop(st);
                return f();
            }
            let id = st.spans.len();
            let span = Span {
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent: st.open.last().copied(),
                pass: st.pass,
            };
            st.spans.push(span);
            st.open.push(id);
            id
        };
        let out = f();
        let end = self.now_us();
        let mut st = self.state.borrow_mut();
        st.spans[id].end_us = end;
        st.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// A span's duration minus the time its direct children cover. The
/// recorder is driven by one thread, so siblings never overlap.
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_us)
        .sum();
    spans[id].duration_us() - children
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, parent index, pass id and self time under `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":{},\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"self_us\":{}}}}}",
            json_string(&s.name),
            s.start_us,
            s.duration_us(),
            s.pass,
            self_time_us(spans, id),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0.0, 100.0, None),
            span("solve.a", 10.0, 40.0, Some(0)),
            span("verify.a", 20.0, 30.0, Some(1)),
            span("solve.b", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_time_us(&spans, 0), 30.0);
        assert_eq!(self_time_us(&spans, 1), 20.0);
        assert_eq!(self_time_us(&spans, 2), 10.0);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        let rec = Recorder::new();
        assert_eq!(rec.span("ignored", || 7), 7);
        assert!(rec.spans().is_empty());

        rec.set_enabled(true);
        rec.set_pass(3);
        rec.span("pass", || {
            rec.span("solve.x", || rec.span("verify.x", || ()));
            rec.span("solve.y", || ());
        });
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pass", "solve.x", "verify.x", "solve.y"]);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_us >= s.start_us));
        assert!(self_time_us(&spans, 0) <= spans[0].duration_us());
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("solve.\"q\"", 1.0, 4.0, Some(0)),
        ];
        let text = chrome_trace_json(&spans);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("solve.\\\"q\\\""));
        assert!(text.contains("\"self_us\":7"));
    }
}
