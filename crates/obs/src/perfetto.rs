//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Emits the legacy JSON trace format (`{"traceEvents": [...]}`) that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Every rank becomes a timeline row (`tid` = rank,
//! `pid` = 1) named via a `thread_name` `"M"` metadata event, the shared
//! process gets one `process_name` metadata event so the UI labels the
//! group; every completed span becomes an `"X"` complete event. Timestamps and durations are in
//! microseconds per the format spec, derived from the shared trace
//! epoch, so rank rows align on a single wall-clock axis.

use crate::json_escape;
use crate::span::RankTrace;

/// Serialize rank traces as a Perfetto-loadable JSON string: each trace
/// is the [`Track`] `rank N` with `tid` = rank, in ascending rank order
/// regardless of input order.
pub fn perfetto_json(traces: &[RankTrace]) -> String {
    let tracks: Vec<Track> = traces.iter().map(Track::from).collect();
    render("specfem solver ranks", &tracks)
}

/// One event on a named [`Track`] — like [`crate::SpanEvent`] but with an
/// owned name, for timelines whose labels are built at runtime (job
/// names, event ids) rather than `'static` span literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackEvent {
    /// Event label, e.g. `"job quake_07 (run)"`.
    pub name: String,
    /// Start, in ns since the shared trace epoch ([`crate::timestamp_ns`]).
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Nesting depth (0 = top level) — carried into `args` like rank spans.
    pub depth: u16,
}

/// A named timeline row — e.g. one campaign worker — rendered with the
/// same `pid`/`tid` scheme as rank traces so both merge on one axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Row label (`"worker 0"`, `"scheduler"`, …).
    pub name: String,
    /// Thread id for the row; keep these unique across one export.
    pub tid: usize,
    /// Events on the row, any order (emitted as given).
    pub events: Vec<TrackEvent>,
}

impl From<&RankTrace> for Track {
    /// The row `rank N` with `tid` = rank, carrying the rank's spans.
    fn from(trace: &RankTrace) -> Self {
        Self {
            name: format!("rank {}", trace.rank),
            tid: trace.rank,
            events: trace
                .events
                .iter()
                .map(|e| TrackEvent {
                    name: e.name.to_string(),
                    start_ns: e.start_ns,
                    dur_ns: e.dur_ns,
                    depth: e.depth,
                })
                .collect(),
        }
    }
}

/// Serialize named tracks as a Perfetto-loadable JSON string.
///
/// Tracks are emitted in ascending `tid` order regardless of input
/// order, so the output is deterministic for a given set of tracks.
pub fn perfetto_tracks(tracks: &[Track]) -> String {
    render("specfem campaign", tracks)
}

/// The one emitter: `process` labels the shared pid so the Perfetto UI
/// shows a named process group instead of a bare "Process 1".
fn render(process: &str, tracks: &[Track]) -> String {
    let mut sorted: Vec<&Track> = tracks.iter().collect();
    sorted.sort_by_key(|t| t.tid);

    let total_events: usize = sorted.iter().map(|t| t.events.len()).sum();
    let mut out = String::with_capacity(128 + 96 * (total_events + sorted.len()));
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, item: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(item);
    };
    if !sorted.is_empty() {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{process}\"}}}}"
            ),
        );
    }
    for t in &sorted {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                json_escape(&t.name)
            ),
        );
        for e in &t.events {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}}}}}",
                    t.tid,
                    json_escape(&e.name),
                    e.start_ns as f64 / 1e3,
                    e.dur_ns as f64 / 1e3,
                    e.depth
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn trace(rank: usize, events: Vec<SpanEvent>) -> RankTrace {
        RankTrace {
            rank,
            events,
            dropped: 0,
        }
    }

    fn ev(name: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            start_ns,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn emits_metadata_and_complete_events() {
        let json = perfetto_json(&[trace(0, vec![ev("halo", 1500, 2500, 1)])]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"halo\""));
        // 1500 ns -> 1.5 us, 2500 ns -> 2.5 us.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.ends_with("]}"));
        // Byte for byte what the dedicated rank-trace emitter wrote before
        // rank traces became tracks.
        assert_eq!(
            perfetto_json(&[
                trace(1, vec![ev("a\"b", 1, 2, 0)]),
                trace(0, vec![ev("halo", 1500, 2500, 1), ev("x", 7, 9, 2)]),
            ]),
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":[{"ph":"M","pid":1,"name":"process_name","#,
                r#""args":{"name":"specfem solver ranks"}},{"ph":"M","pid":1,"tid":0,"name":"thread_name","#,
                r#""args":{"name":"rank 0"}},{"ph":"X","pid":1,"tid":0,"name":"halo","ts":1.500,"dur":2.500,"#,
                r#""args":{"depth":1}},{"ph":"X","pid":1,"tid":0,"name":"x","ts":0.007,"dur":0.009,"#,
                r#""args":{"depth":2}},{"ph":"M","pid":1,"tid":1,"name":"thread_name","#,
                r#""args":{"name":"rank 1"}},{"ph":"X","pid":1,"tid":1,"name":"a\"b","ts":0.001,"dur":0.002,"#,
                r#""args":{"depth":0}}]}"#
            )
        );
    }

    #[test]
    fn rank_order_is_canonical() {
        let a = perfetto_json(&[trace(1, vec![]), trace(0, vec![])]);
        let b = perfetto_json(&[trace(0, vec![]), trace(1, vec![])]);
        assert_eq!(a, b);
        assert!(a.find("rank 0").unwrap() < a.find("rank 1").unwrap());
    }

    #[test]
    fn process_name_metadata_labels_the_group() {
        let json = perfetto_json(&[trace(0, vec![])]);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"specfem solver ranks\""));
        // process_name comes first, before any thread_name row.
        assert!(json.find("process_name").unwrap() < json.find("thread_name").unwrap());
        let tracks = perfetto_tracks(&[Track {
            name: "worker 0".into(),
            tid: 0,
            events: vec![],
        }]);
        assert!(tracks.contains("\"name\":\"process_name\""));
        assert!(tracks.contains("\"name\":\"specfem campaign\""));
    }

    #[test]
    fn empty_input_yields_valid_shell() {
        assert_eq!(
            perfetto_json(&[]),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn named_tracks_emit_owned_labels_in_tid_order() {
        let tracks = vec![
            Track {
                name: "worker 1".into(),
                tid: 1,
                events: vec![],
            },
            Track {
                name: "worker 0".into(),
                tid: 0,
                events: vec![TrackEvent {
                    name: "job \"q7\"".into(),
                    start_ns: 2000,
                    dur_ns: 3000,
                    depth: 0,
                }],
            },
        ];
        let json = perfetto_tracks(&tracks);
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.find("worker 0").unwrap() < json.find("worker 1").unwrap());
        assert!(json.contains("job \\\"q7\\\""));
        assert!(json.contains("\"ts\":2.000"));
        assert_eq!(
            perfetto_tracks(&[]),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }
}
