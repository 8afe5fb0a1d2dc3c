//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory while the benchmark runs and are written out once
//! at exit. A span's *self time* is its duration minus the time its direct
//! children cover, so the self times of one pass add up to the pass.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `start`/`end` are seconds since the tracer's origin.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// The pass this span belongs to (one pass = one run of the workload).
    run: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder. Interior mutability lets the closures that
/// `ShardedTrace::run_with` and the serve loop call back into share one tracer.
pub struct Tracer {
    origin: Instant,
    run: std::cell::Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            run: std::cell::Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Start attributing new spans to pass `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    /// The pass new spans are attributed to.
    pub fn current_run(&self) -> u32 {
        self.run.get()
    }

    fn record<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Durations of every span called `name` in pass `run`, in call order.
    pub fn durations(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total duration of the spans called `name` recorded so far.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per span name within pass `run`.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            if s.run == run {
                *out.entry(s.name).or_insert(0.0) += t;
            }
        }
        out
    }

    /// Every span as Chrome trace-event JSON (`X` events, one process per
    /// pass), loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut s = String::with_capacity(96 * spans.len() + 32);
        s.push_str("{\"traceEvents\":[");
        for (id, sp) in spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                sp.name,
                sp.start * 1e6,
                sp.secs() * 1e6,
                sp.run,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Run `f`, recording it as span `name` when tracing is on.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.record(name, f),
        None => f(),
    }
}
