//! `specfem-obs` — the observability subsystem (paper §5 methodology).
//!
//! The paper's scaling story rests on two instruments: **IPM**, which
//! reports per-rank communication time, byte counts, and message-size
//! distributions for the solver main loop, and the **PMaC** trace-driven
//! framework, which replays captured traces through machine models. This
//! crate is their in-process analog, shared by every other crate in the
//! workspace:
//!
//! * a **span tracer** ([`span`]) — scoped RAII timers with parent/child
//!   nesting, recorded into a fixed-capacity per-rank ring buffer;
//! * a **metrics registry** ([`metrics`]) — named counters, gauges, and
//!   log₂-bucketed histograms (message sizes, halo waits, step times);
//! * **exporters** — a Chrome/Perfetto `trace_event` JSON file per run
//!   ([`perfetto`]) and an IPM-style cross-rank report ([`report`]) with
//!   per-phase min/mean/max/imbalance, communication fractions, per-tag
//!   traffic, and top-k message sizes.
//!
//! # Threading model
//!
//! The workspace simulates MPI with one OS thread per rank, so all
//! recording state is **thread-local**: a rank thread calls
//! [`init_rank`] once, records spans and metrics while it works, and
//! harvests everything with [`finish_rank`], which returns the rank's
//! [`RankProfile`]. Threads that never call [`init_rank`] pay a single
//! relaxed atomic load per would-be span — the zero-cost-when-disabled
//! contract the hot kernels rely on.
//!
//! ```
//! use specfem_obs as obs;
//!
//! obs::init_rank(0, &obs::TraceConfig::default());
//! {
//!     let _outer = obs::span("timeloop");
//!     let _inner = obs::span("forces.solid");
//!     obs::hist_record("msg_bytes", 4096);
//!     obs::counter_add("steps", 1);
//! }
//! let profile = obs::finish_rank().unwrap();
//! assert_eq!(profile.rank, 0);
//! assert_eq!(profile.trace.events.len(), 2);
//! ```

pub mod flight;
pub mod global;
pub mod health;
pub mod ledger;
pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod span;

pub use flight::{
    flight_active, flight_arm, flight_event, flight_harvest, flight_set_step, FlightEvent,
    FlightEventKind, FlightJournal,
};
pub use global::{
    global_counter_add, global_gauge_set, global_hist_record, global_reset, global_snapshot,
    metrics_json,
};
pub use health::{HealthMonitor, HealthReport, HealthTrip};
pub use ledger::{LedgerDiff, LedgerMachine, LedgerPhase, LedgerRecord, LEDGER_SCHEMA_VERSION};
pub use metrics::{LogHistogram, MetricName, MetricsRegistry, MetricsSnapshot};
pub use perfetto::{perfetto_json, perfetto_tracks, Track, TrackEvent};
pub use report::{IpmRankInput, IpmReport, PhaseRow, RankRow, StatsSnapshot, TagTraffic};
pub use span::{RankTrace, Span, SpanEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A compact correlation id minted at the outermost entry point of a
/// piece of work (an HTTP request, a campaign job submit, a CLI run) and
/// propagated through every layer that executes on its behalf — daemon →
/// campaign → batch lanes → solver ranks. Rendered as 16 lowercase hex
/// digits everywhere it crosses a serialization boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint a fresh, non-zero id: an FNV-1a mix of the wall clock and a
    /// process-wide sequence number, so ids are unique within a process
    /// and overwhelmingly unlikely to collide across processes.
    pub fn mint() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in nanos.to_le_bytes().into_iter().chain(seq.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        if h == 0 {
            h = seq | 1;
        }
        TraceId(h)
    }

    /// The canonical wire form: 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the canonical wire form (exactly 16 hex digits).
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Configuration for one rank's tracer.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity in completed spans; when full, the oldest
    /// events are overwritten (the most recent window survives, like a
    /// flight recorder).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 8192 }
    }
}

/// Everything one rank recorded: its trace and its metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProfile {
    /// The rank id given to [`init_rank`].
    pub rank: usize,
    /// Completed spans (oldest first) and drop accounting.
    pub trace: RankTrace,
    /// Counter/gauge/histogram values at harvest time.
    pub metrics: MetricsSnapshot,
}

/// Common epoch for all ranks, so cross-rank timestamps line up in the
/// merged Perfetto timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch.
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds since the process-wide trace epoch, for callers that
/// build their own timelines (e.g. the campaign runtime's per-worker
/// tracks) and need timestamps on the same axis as rank spans.
pub fn timestamp_ns() -> u64 {
    now_ns()
}

/// Fixed-capacity ring that overwrites its oldest entry when full and
/// counts what it overwrote, so the most recent window survives (on a
/// 100k-step run you want the steady state, not the first second). It
/// holds both the tracer's completed spans and the flight journal.
pub(crate) struct Ring<T> {
    capacity: usize,
    buf: Vec<T>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    /// Entries overwritten after the ring filled.
    dropped: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn push(&mut self, e: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The surviving entries, oldest first, and how many were overwritten.
    pub(crate) fn into_parts(mut self) -> (Vec<T>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

/// One rank thread's recorder: the span tracer (with its metrics) and
/// the flight journal, each armed on its own, behind one slot and one
/// gate.
pub(crate) struct Recorder {
    pub(crate) tracer: Option<span::Tracer>,
    pub(crate) journal: Option<flight::Journal>,
}

impl Recorder {
    pub(crate) fn armed(&self) -> bool {
        self.tracer.is_some() || self.journal.is_some()
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            tracer: None,
            journal: None,
        })
    };
}

/// Number of threads with anything armed — the global fast-path gate. A
/// relaxed load of this is the *entire* cost of a span, metric or
/// journal event on an uninstrumented run.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Arm or disarm part of the current thread's recorder, keeping the gate
/// in step with whether anything is armed on it.
pub(crate) fn rearm<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    // Pin the epoch before the first event so ts 0 ≈ run start.
    let _ = now_ns();
    RECORDER.with(|slot| {
        let mut rec = slot.borrow_mut();
        let was_armed = rec.armed();
        let out = f(&mut rec);
        match (was_armed, rec.armed()) {
            (false, true) => ARMED_THREADS.fetch_add(1, Ordering::Relaxed),
            (true, false) => ARMED_THREADS.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
        out
    })
}

/// Run `f` against the current thread's recorder; `None` without a load
/// of the thread-local when no thread has anything armed.
#[inline]
pub(crate) fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    RECORDER.with(|slot| Some(f(&mut slot.borrow_mut())))
}

/// Start tracing on the current thread as `rank`. A second call on the
/// same thread replaces the previous tracer (its data is discarded).
pub fn init_rank(rank: usize, config: &TraceConfig) {
    rearm(|r| r.tracer = Some(span::Tracer::new(rank, config.capacity)));
}

/// Stop tracing on the current thread and return everything it
/// captured. Returns `None` when [`init_rank`] was never called (the
/// disabled path), so callers can write
/// `profile: specfem_obs::finish_rank()` unconditionally.
pub fn finish_rank() -> Option<RankProfile> {
    rearm(|r| r.tracer.take()).map(span::Tracer::finish)
}

/// Whether the current thread has a live tracer.
pub fn is_active() -> bool {
    with_recorder(|r| r.tracer.is_some()).unwrap_or(false)
}

/// Run `f` against the current thread's tracer, if any.
fn with_tracer(f: impl FnOnce(&mut span::Tracer)) {
    with_recorder(|r| r.tracer.as_mut().map(f));
}

/// Open a scoped span; it closes (and is recorded) when the returned
/// guard drops. A span feeds the tracer ring and, when the thread's
/// flight recorder is armed, the journal, with the same two clock
/// readings. On a thread with nothing armed this is one relaxed atomic
/// load and an inert guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return Span::INERT;
    }
    RECORDER.with(|slot| slot.borrow_mut().open_span(name))
}

/// Add `delta` to the named counter (no-op without a live tracer).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    with_tracer(|t| t.metrics.counter_add(name, delta));
}

/// Set the named gauge (no-op without a live tracer).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    with_tracer(|t| t.metrics.gauge_set(name, value));
}

/// Record `value` into the named log₂ histogram (no-op without a live
/// tracer).
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    with_tracer(|t| t.metrics.hist_record(name, value));
}

/// Escape a string for inclusion in a JSON string literal (shared by the
/// exporters; kept public so downstream report embedders reuse it).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!is_active());
        {
            let _s = span("ignored");
            counter_add("ignored", 1);
            hist_record("ignored", 2);
            gauge_set("ignored", 3.0);
        }
        assert!(finish_rank().is_none());
    }

    #[test]
    fn init_record_finish_roundtrip() {
        init_rank(7, &TraceConfig::default());
        assert!(is_active());
        {
            let _outer = span("outer");
            let _inner = span("inner");
            counter_add("n", 2);
            counter_add("n", 3);
            gauge_set("g", 1.5);
            hist_record("h", 1024);
        }
        let p = finish_rank().unwrap();
        assert!(!is_active());
        assert_eq!(p.rank, 7);
        assert_eq!(p.trace.events.len(), 2);
        assert_eq!(p.metrics.counters.get("n"), Some(&5));
        assert_eq!(p.metrics.gauges.get("g"), Some(&1.5));
        assert_eq!(p.metrics.histograms.get("h").unwrap().count(), 1);
        p.trace.check_well_formed().unwrap();
    }

    #[test]
    fn reinit_replaces_previous_recorder() {
        init_rank(0, &TraceConfig::default());
        {
            let _s = span("a");
        }
        init_rank(1, &TraceConfig::default());
        let p = finish_rank().unwrap();
        assert_eq!(p.rank, 1);
        assert!(p.trace.events.is_empty());
        assert!(finish_rank().is_none());
    }

    #[test]
    fn trace_ids_are_unique_nonzero_and_roundtrip_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        let hex = a.hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::parse_hex(&hex), Some(a));
        assert_eq!(format!("{a}"), hex);
        assert_eq!(TraceId::parse_hex("zzzz"), None);
        assert_eq!(TraceId::parse_hex("0123456789abcdeg"), None);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
