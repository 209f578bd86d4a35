//! Spans around the calls into each layer's public API.
//!
//! The traced run records one span per call (name, start, end, the span
//! that caused it, and the id of the round / request batch / RPC batch it
//! belongs to), keeps them in memory, and writes them out when the run
//! ends. Everything here is single-threaded — the end-to-end workloads are
//! — so one recorder is shared through `Rc` by the workload driver and the
//! benchmark's own transport. With tracing off every call is a branch on a
//! `bool`: the untraced run, which produces the end-to-end metrics, pays
//! nothing else.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the part before the first dot is the layer.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round / request batch / RPC batch this call served.
    pub group: u64,
}

/// The in-memory span recorder.
pub struct Tracer {
    on: bool,
    /// Recording can be paused inside a traced run, so that a phase of
    /// hundreds of thousands of identical batches is traced by its first
    /// ones only (spans stay in memory until the run ends).
    recording: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    group: Cell<u64>,
    /// Spans kept for output (see [`Tracer::seal`]).
    sealed: Cell<Option<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: u32,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            recording: Cell::new(on),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            group: Cell::new(0),
            sealed: Cell::new(None),
        }
    }

    /// Keeps the spans recorded so far as the run's trace. Later
    /// repetitions still record (they must cost what the first one cost),
    /// but one repetition is what gets written and summed.
    pub fn seal(&self) {
        if self.sealed.get().is_none() {
            self.sealed.set(Some(self.spans.borrow().len()));
        }
    }

    /// Is this the traced run?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (no effect on an untraced run). A span
    /// open at the pause still closes when its guard drops, so the idiom is
    /// one `untraced.*` span held across the paused stretch.
    pub fn record(&self, yes: bool) {
        self.recording.set(self.on && yes);
    }

    /// Sets the id stamped on spans opened from now on.
    pub fn set_group(&self, group: u64) {
        self.group.set(group);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.recording.get() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let index = spans.len() as u32;
        let parent = stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, group: self.group.get() });
        stack.push(index);
        Some(SpanGuard { tracer: self, index })
    }

    /// The run's trace: the spans up to the seal (all of them without one).
    pub fn spans(&self) -> Vec<Span> {
        let spans = self.spans.borrow();
        spans[..self.sealed.get().unwrap_or(spans.len())].to_vec()
    }

    /// Writes the spans as JSON (one object per span).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"schema\": \"rechord-benchmark-trace/v1\", \"spans\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"group\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.group,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index as usize].end_ns = end;
        let top = self.tracer.stack.borrow_mut().pop();
        debug_assert_eq!(top, Some(self.index), "spans close in LIFO order");
    }
}

/// Total and self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part child spans cover.
    pub self_ns: u64,
}

/// A span's self time is its duration minus its direct children's
/// durations (children are nested calls on one thread, so they neither
/// overlap each other nor leave their parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut by: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = by.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by
}

/// Self time per layer (the span name up to its first dot), nanoseconds.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, t) in totals_by_name(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *by.entry(layer).or_default() += t.self_ns;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, group: 0 }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // bench.rep [0,100] ⊃ sim.round [10,60] ⊃ core.step [20,30], [35,50]
        //                   ⊃ sim.round [70,90]
        let spans = vec![
            span("bench.rep", 0, 100, NO_PARENT),
            span("sim.round", 10, 60, 0),
            span("core.step", 20, 30, 1),
            span("core.step", 35, 50, 1),
            span("sim.round", 70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 10, 15, 20]);
        let by = totals_by_name(&spans);
        assert_eq!(by["sim.round"], NameTotals { calls: 2, total_ns: 70, self_ns: 45 });
        assert_eq!(by["core.step"], NameTotals { calls: 2, total_ns: 25, self_ns: 25 });
        let layers = self_ns_by_layer(&spans);
        assert_eq!((layers["bench"], layers["sim"], layers["core"]), (30, 45, 25));
        // Self times partition the root's interval.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn guards_nest_and_record_parents_and_groups() {
        let t = Tracer::new(true);
        t.set_group(7);
        {
            let _outer = t.span("a.outer");
            t.set_group(8);
            let _inner = t.span("b.inner");
        }
        let _sibling = t.span("a.sibling");
        drop(_sibling);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].group), (NO_PARENT, 7));
        assert_eq!((spans[1].parent, spans[1].group), (0, 8));
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn an_untraced_run_records_nothing() {
        let t = Tracer::new(false);
        assert!(t.span("x.y").is_none());
        assert!(t.spans().is_empty());
    }
}
