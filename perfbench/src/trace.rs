//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer's
//! public functions. A span records its name, layer, start, end, parent
//! and the request id of the operation it belongs to. Spans stay in memory
//! and are written out as JSON Lines when the run ends. A disabled
//! [`Tracer`] reads no clock and stores nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `solver.sssp_exact`.
    pub name: &'static str,
    /// Layer (module) the call went into, e.g. `solver`.
    pub layer: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request id shared by every span of one operation.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder plus named counters.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// Request ids are `tag << 48 | sequence`, so tracers on different
    /// threads never hand out the same id.
    tag: u64,
    /// An earlier request being continued (see `resume_request`).
    resumed: Option<u64>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `on == false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            tag,
            resumed: None,
            counters: BTreeMap::new(),
        }
    }

    /// A tracer for another thread: same switch and epoch, its own
    /// request ids.
    pub fn child(&self, tag: u64) -> Self {
        Tracer::new(self.on, self.epoch, tag)
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later spans carry a fresh request id.
    pub fn begin_request(&mut self) -> u64 {
        self.resumed = None;
        self.request += 1;
        self.current_request()
    }

    /// The request id of the operation in progress.
    fn current_request(&self) -> u64 {
        self.resumed.unwrap_or(self.tag << 48 | self.request)
    }

    /// Continues an earlier operation until the next `begin_request` (the
    /// in-process replay of a served query joins the original's spans).
    pub fn resume_request(&mut self, request: u64) {
        self.resumed = Some(request);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before the matching [`exit`](Self::exit)
    /// become its children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.current_request(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else {
            return 0;
        };
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close in LIFO order");
        let span = &mut self.spans[idx];
        span.end = end;
        span.nanos()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `by` to the named counter (only while tracing).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += by;
        }
    }

    /// Moves every span and counter of `other` into `self`.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Mean duration of the spans called `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e6
    }

    /// Per-layer self time and span count. A span's self time is its
    /// duration minus the time its direct children cover; children run on
    /// the parent's thread one after another, so they never overlap.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            t.self_ns += s.nanos().saturating_sub(kids);
            t.spans += 1;
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.layer, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub spans: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.begin_request();
        let v = t.span("solver", "solver.mst", || 7);
        t.count("x", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("x"), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        let r = t.begin_request();
        let outer = t.enter("serve", "serve.call");
        let inner = t.enter("wire", "wire.decode");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == r));
        let layers = t.layer_self_times();
        let serve = layers["serve"];
        let wire = layers["wire"];
        assert_eq!(serve.self_ns + wire.self_ns, spans[0].nanos());
        assert!(wire.self_ns >= 2_000_000);
        assert_eq!((serve.spans, wire.spans), (1, 1));
    }

    #[test]
    fn absorb_rebases_parents_and_sums_counters() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 1);
        a.span("bench", "op", || ());
        a.count("c", 1.0);
        let mut b = Tracer::new(true, epoch, 2);
        let o = b.enter("bench", "op");
        b.span("solver", "solver.mst", || ());
        b.exit(o);
        b.count("c", 2.0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("c"), 3.0);
        assert_ne!(a.spans()[0].request >> 48, a.spans()[1].request >> 48);
    }
}
