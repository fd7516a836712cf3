//! Spans recorded by the benchmark around its own calls into the program.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! identifier of the workload operation it belongs to. Spans stay in
//! memory while the workload runs and are written out once, at exit.
//! Recording is off unless a traced run turns it on; end-to-end metrics
//! are never taken while it is on.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// One finished span. Times are nanoseconds since the first span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span opened on the same thread.
    pub parent: Option<u32>,
    /// Workload operation (bootstrap, execution, request) this belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// Relaxed: the flag publishes no data; a thread that reads it late records
// or skips one span.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags every span this thread opens from now on with operation `id`.
pub fn set_operation(id: u64) {
    OP.with(|op| op.set(id));
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost span open on this
/// thread. Free when recording is off.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let op = OP.with(Cell::get);
    let mut spans = SPANS.lock().expect("no span holder panics");
    let id = spans.len() as u32;
    let start_ns = now_ns();
    spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        op,
    });
    drop(spans);
    OPEN.with(|open| open.borrow_mut().push(id));
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end_ns = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Ok(mut spans) = SPANS.lock() {
            if let Some(span) = spans.get_mut(id as usize) {
                span.end_ns = end_ns;
            }
        }
    }
}

/// Records a finished interval that was timed by the caller: a request in
/// flight overlaps its neighbours on the same thread, so it cannot nest.
pub fn record(name: &'static str, start: Instant, end: Instant, op: u64) {
    if !enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    SPANS.lock().expect("no span holder panics").push(Span {
        name,
        start_ns: since(start),
        end_ns: since(end),
        parent: None,
        op,
    });
}

/// Every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("no span holder panics"))
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    /// Time between start and end, summed.
    pub busy_ns: u64,
    /// `busy_ns` minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Sums spans by name. A span's self time is its duration minus its
/// direct children's durations (children run on the parent's thread, inside
/// its interval, so they do not overlap each other).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.busy_ns += span.duration_ns();
        t.self_ns += span.duration_ns().saturating_sub(*children);
    }
    out
}

/// The spans as a JSON array, in the order they were opened.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("op", Value::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}
