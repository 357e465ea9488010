//! In-memory span tracer for the traced run.
//!
//! Spans nest on one thread: [`span`] opens a span, runs the closure
//! and closes it, even when the closure unwinds. Each closed span
//! folds into per-name aggregates at once (calls, self time, call
//! durations), so memory stays flat however many spans a pass opens;
//! raw spans are kept only up to a budget, for the Chrome trace file
//! written at exit.
//!
//! Self time is a span's duration minus its children's durations.
//! Every op runs under a root span named `op`; work inside an op that
//! no layer span covers shows up as that root's self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the Chrome trace file; later spans are still
/// aggregated but not written.
const SPAN_BUDGET: usize = 100_000;

/// One closed span, as written to the trace file.
struct RawSpan {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// An open span: where it started and what its children took.
struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    children_ns: u64,
}

/// Per-name aggregate over a pass.
#[derive(Default, Clone)]
pub struct Agg {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Every call's inclusive duration in ns, saturating at ~4.3 s
    /// (for the median; 32 bits keep a pass of millions of spans small).
    pub durs_ns: Vec<u32>,
}

/// The thread's tracer state.
struct Tracer {
    epoch: Instant,
    next_id: u32,
    op: u32,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread (clearing any earlier state).
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            next_id: 1,
            op: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            raw: Vec::new(),
            dropped: 0,
        })
    });
}

/// Closes the span when dropped, so an unwinding closure still ends it.
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.close();
                }
            });
        }
    }
}

/// Opens a span named `name` (a no-op when no tracer is installed).
pub fn enter(name: &'static str) -> Guard {
    let active = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            let id = tr.next_id;
            tr.next_id += 1;
            tr.stack.push(Open { id, name, start: Instant::now(), children_ns: 0 });
            true
        }
        None => false,
    });
    Guard { active }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

impl Tracer {
    fn close(&mut self) {
        let open = self.stack.pop().expect("span closed twice");
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.children_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        let agg = self.aggs.entry(open.name).or_default();
        agg.calls += 1;
        agg.self_ns += self_ns;
        agg.durs_ns.push(u32::try_from(dur_ns).unwrap_or(u32::MAX));
        if self.raw.len() < SPAN_BUDGET {
            self.raw.push(RawSpan {
                id: open.id,
                parent,
                op: self.op,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Name of every op's root span.
pub const OP: &str = "op";

/// Opens the root span of op number `op`; every span until the guard
/// drops carries this op id.
pub fn begin_op(op: u32) -> Guard {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.op = op;
        }
    });
    enter(OP)
}

/// What one pass recorded.
pub struct Recording {
    /// Per-name aggregates.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// The Chrome trace-event document for the kept spans.
    pub chrome: String,
}

/// Stops tracing on this thread and hands back what was recorded.
pub fn take() -> Recording {
    let tr = TRACER.with(|t| t.borrow_mut().take()).expect("tracer installed");
    let mut chrome = String::with_capacity(tr.raw.len() * 120 + 64);
    chrome.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in tr.raw.iter().enumerate() {
        let _ = write!(
            chrome,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1000.0,
            s.dur_ns as f64 / 1000.0,
            s.id,
            s.parent,
            s.op,
        );
    }
    let _ = write!(chrome, "\n],\"otherData\":{{\"spans_not_written\":{}}}}}\n", tr.dropped);
    Recording { aggs: tr.aggs, chrome }
}

impl Recording {
    /// Self time summed over every layer span (all but the op roots).
    pub fn layer_self_ns(&self) -> u64 {
        self.aggs.iter().filter(|(n, _)| **n != OP).map(|(_, a)| a.self_ns).sum()
    }
}

/// The median of `v` (0 when empty).
pub fn median_ns(v: &[u32]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    u64::from(s[s.len() / 2])
}
