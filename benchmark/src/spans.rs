//! The benchmark's own span recorder.
//!
//! One span per call the benchmark makes into a layer: name, layer,
//! start, end, parent, thread. Spans stay in memory and are written out
//! once, when the traced pass ends, in the Chrome/Perfetto `trace_event`
//! shape the repository already uses. The recorder is off for every
//! end-to-end measurement; a disarmed [`span`] costs one relaxed load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::util::json_str;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    /// Crate the call went into (`mesh`, `solver`, …) or `bench` for the
    /// benchmark's own grouping spans.
    pub layer: &'static str,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Turn recording on (traced pass) or off (every end-to-end measurement).
pub fn arm(on: bool) {
    if on {
        epoch();
    }
    ARMED.store(on, Ordering::SeqCst);
}

fn thread_id() -> u32 {
    TID.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u32, Option<u32>, &'static str, &'static str, u64)>,
}

/// Open a span around a call into `layer`.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !ARMED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = epoch().elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, layer, name, start_ns)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, layer, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // A poisoned lock means another thread already panicked; losing
        // this span is better than a second panic inside `drop`.
        if let Ok(mut records) = RECORDS.lock() {
            records.push(SpanRecord {
                id,
                parent,
                layer,
                name,
                tid: thread_id(),
                start_ns,
                end_ns,
            });
        }
    }
}

/// Take every span recorded so far, ordered by start time.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = std::mem::take(
        &mut *RECORDS
            .lock()
            .expect("span records lock poisoned by a panicking thread"),
    );
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_s: f64,
    pub calls: u64,
}

/// Per-layer self time: each span's duration minus the part of it its
/// child spans cover, summed by the span's layer.
pub fn self_time_by_layer(records: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            *child_ns.entry(p).or_default() += r.end_ns - r.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for r in records {
        let dur = r.end_ns - r.start_ns;
        let own = dur.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        let slot = out.entry(r.layer).or_default();
        slot.self_s += own as f64 * 1e-9;
        slot.calls += 1;
    }
    out
}

/// Check that every span ends after it starts and lies inside its parent.
pub fn check_well_nested(records: &[SpanRecord]) -> Result<(), String> {
    let by_id: BTreeMap<u32, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    for r in records {
        if r.end_ns < r.start_ns {
            return Err(format!("span {} ends before it starts", r.name));
        }
        if let Some(p) = r.parent {
            let parent = by_id
                .get(&p)
                .ok_or_else(|| format!("span {} names a parent that was not recorded", r.name))?;
            if r.start_ns < parent.start_ns || r.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} is not inside its parent {}",
                    r.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Write the spans as a Perfetto `trace_event` document.
pub fn write_trace(path: &Path, workload: &str, records: &[SpanRecord]) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 + records.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{parent},\"workload\":{}}}}}",
            json_str(r.name),
            json_str(r.layer),
            r.start_ns as f64 / 1e3,
            (r.end_ns - r.start_ns) as f64 / 1e3,
            r.tid,
            r.id,
            json_str(workload),
        ));
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            layer,
            name: "t",
            tid: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let records = [
            rec(1, None, "bench", 0, 1_000_000_000),
            rec(2, Some(1), "mesh", 100_000_000, 400_000_000),
            rec(3, Some(1), "solver", 400_000_000, 900_000_000),
        ];
        let t = self_time_by_layer(&records);
        assert!((t["bench"].self_s - 0.2).abs() < 1e-9);
        assert!((t["mesh"].self_s - 0.3).abs() < 1e-9);
        assert_eq!(t["solver"].calls, 1);
        assert!(check_well_nested(&records).is_ok());
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let records = [rec(1, None, "bench", 0, 10), rec(2, Some(1), "mesh", 5, 20)];
        assert!(check_well_nested(&records).is_err());
    }
}
