//! Scoped spans with parent/child nesting and a per-rank ring buffer.
//!
//! A [`Span`] is an RAII timer: opening pushes onto the rank's span
//! stack, dropping pops and records a completed [`SpanEvent`]. Guards may
//! be dropped out of order (e.g. held in collections); closing a span
//! that still has open children closes the children at the same instant,
//! so the recorded event set always forms a well-formed tree — verified
//! by [`RankTrace::check_well_formed`] and the crate's proptests.

use crate::flight::FlightEventKind;
use crate::metrics::MetricsRegistry;
use crate::{now_ns, with_recorder, RankProfile, Recorder, Ring};

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"forces.solid"`).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open (0 = top level).
    pub depth: u16,
}

impl SpanEvent {
    /// End timestamp (ns since epoch).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// An open span on the stack.
struct OpenSpan {
    id: u64,
    name: &'static str,
    start_ns: u64,
}

/// One rank's span tracer: the open-span stack, the ring of completed
/// spans and the rank's metrics registry.
pub(crate) struct Tracer {
    rank: usize,
    events: Ring<SpanEvent>,
    stack: Vec<OpenSpan>,
    next_id: u64,
    pub(crate) metrics: MetricsRegistry,
}

impl Tracer {
    pub(crate) fn new(rank: usize, capacity: usize) -> Self {
        Self {
            rank,
            events: Ring::new(capacity),
            stack: Vec::new(),
            next_id: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    fn open(&mut self, name: &'static str, start_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(OpenSpan { id, name, start_ns });
        id
    }

    /// Close span `id` and any of its still-open children at `end` (they
    /// all end at the same instant, preserving tree shape under
    /// out-of-order guard drops). Ignores ids already closed by a parent.
    fn close(&mut self, id: u64, end: u64) {
        let Some(pos) = self.stack.iter().rposition(|s| s.id == id) else {
            return;
        };
        while self.stack.len() > pos {
            let open = self.stack.pop().unwrap();
            let depth = self.stack.len() as u16;
            self.events.push(SpanEvent {
                name: open.name,
                start_ns: open.start_ns,
                dur_ns: end.saturating_sub(open.start_ns),
                depth,
            });
        }
    }

    /// Close anything still open and return the rank's profile, oldest
    /// event first.
    pub(crate) fn finish(mut self) -> RankProfile {
        if let Some(bottom) = self.stack.first().map(|s| s.id) {
            self.close(bottom, now_ns());
        }
        let (events, dropped) = self.events.into_parts();
        RankProfile {
            rank: self.rank,
            trace: RankTrace {
                rank: self.rank,
                events,
                dropped,
            },
            metrics: self.metrics.snapshot(),
        }
    }
}

impl Recorder {
    /// Open a span on whatever is armed on this thread, reading the
    /// clock once for the tracer and the journal both.
    pub(crate) fn open_span(&mut self, name: &'static str) -> Span {
        if !self.armed() {
            return Span::INERT;
        }
        let start_ns = now_ns();
        let id = self.tracer.as_mut().map(|t| t.open(name, start_ns));
        let journaled = match self.journal.as_mut() {
            Some(j) => {
                j.push(start_ns, FlightEventKind::SpanEnter, name, 0, 0);
                true
            }
            None => false,
        };
        Span {
            name,
            start_ns,
            id,
            journaled,
        }
    }
}

/// RAII guard returned by [`crate::span`].
pub struct Span {
    name: &'static str,
    start_ns: u64,
    /// Tracer stack id, when the tracer was armed at open.
    id: Option<u64>,
    /// Whether the enter was journaled (the journal was armed at open).
    journaled: bool,
}

impl Span {
    pub(crate) const INERT: Span = Span {
        name: "",
        start_ns: 0,
        id: None,
        journaled: false,
    };
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id.is_none() && !self.journaled {
            return;
        }
        with_recorder(|r| {
            let end = now_ns();
            if let (Some(id), Some(t)) = (self.id, r.tracer.as_mut()) {
                t.close(id, end);
            }
            if let Some(j) = r.journal.as_mut().filter(|_| self.journaled) {
                let dur = end - self.start_ns;
                j.push(end, FlightEventKind::SpanExit, self.name, dur, 0);
            }
        });
    }
}

/// One rank's completed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank that recorded it.
    pub rank: usize,
    /// Completed spans, oldest first. Children are recorded before their
    /// parents (a span completes only after everything inside it).
    pub events: Vec<SpanEvent>,
    /// Events overwritten because the ring buffer was full.
    pub dropped: u64,
}

impl RankTrace {
    /// Total seconds per span name (durations summed over all
    /// occurrences). Nested spans contribute to their own name only, so
    /// phase names should not nest within themselves.
    pub fn phase_seconds(&self) -> Vec<(String, f64)> {
        let mut per: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for e in &self.events {
            *per.entry(e.name).or_default() += e.dur_ns as f64 * 1e-9;
        }
        per.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Verify the events form a well-formed forest: any two spans are
    /// either disjoint in time or properly nested (with the inner one
    /// deeper). Quadratic — a test/debug aid, not a hot path.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for (i, a) in self.events.iter().enumerate() {
            for b in self.events.iter().skip(i + 1) {
                let disjoint = a.end_ns() <= b.start_ns || b.end_ns() <= a.start_ns;
                let a_in_b = a.start_ns >= b.start_ns && a.end_ns() <= b.end_ns();
                let b_in_a = b.start_ns >= a.start_ns && b.end_ns() <= a.end_ns();
                if !(disjoint || a_in_b || b_in_a) {
                    return Err(format!("spans overlap without nesting: {a:?} vs {b:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{finish_rank, flight_arm, flight_harvest, init_rank, span, TraceConfig};
    use crate::{FlightEvent, FlightEventKind};

    #[test]
    fn nesting_depths_are_recorded() {
        init_rank(0, &TraceConfig::default());
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
        }
        let t = finish_rank().unwrap().trace;
        let depth_of = |n: &str| t.events.iter().find(|e| e.name == n).unwrap().depth;
        assert_eq!(depth_of("a"), 0);
        assert_eq!(depth_of("b"), 1);
        assert_eq!(depth_of("c"), 2);
        t.check_well_formed().unwrap();
    }

    #[test]
    fn out_of_order_drop_closes_children() {
        init_rank(0, &TraceConfig::default());
        let a = span("a");
        let _b = span("b"); // child of a, dropped after a below
        drop(a); // closes both a and b
        let t = finish_rank().unwrap().trace;
        assert_eq!(t.events.len(), 2);
        t.check_well_formed().unwrap();
        // b must be contained in a.
        let ea = t.events.iter().find(|e| e.name == "a").unwrap();
        let eb = t.events.iter().find(|e| e.name == "b").unwrap();
        assert!(eb.start_ns >= ea.start_ns && eb.end_ns() <= ea.end_ns());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        init_rank(0, &TraceConfig { capacity: 4 });
        for i in 0..10u64 {
            let _s = span(if i % 2 == 0 { "even" } else { "odd" });
        }
        let t = finish_rank().unwrap().trace;
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        // Oldest-first ordering survives the wrap.
        for w in t.events.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn unclosed_spans_are_closed_at_finish() {
        init_rank(3, &TraceConfig::default());
        let _leak = span("leaked");
        std::mem::forget(_leak);
        let t = finish_rank().unwrap().trace;
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "leaked");
    }

    #[test]
    fn phase_seconds_sums_by_name() {
        init_rank(0, &TraceConfig::default());
        for _ in 0..3 {
            let _s = span("x");
        }
        {
            let _s = span("y");
        }
        let t = finish_rank().unwrap().trace;
        let phases = t.phase_seconds();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn traced_and_journaled_spans_share_their_timestamps() {
        init_rank(0, &TraceConfig::default());
        flight_arm(0, 64);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let t = finish_rank().unwrap().trace;
        let j = flight_harvest().unwrap();
        assert_eq!(t.events.len(), 2);
        let find = |kind: FlightEventKind, name: &str| -> FlightEvent {
            *j.events
                .iter()
                .find(|f| f.kind == kind && f.label == name)
                .unwrap()
        };
        for e in &t.events {
            assert_eq!(find(FlightEventKind::SpanEnter, e.name).t_ns, e.start_ns);
            assert_eq!(find(FlightEventKind::SpanExit, e.name).a, e.dur_ns);
        }
    }
}
