//! Run-over-run performance ledger.
//!
//! The paper's §5 methodology is measure-then-predict: every run at
//! small scale feeds the model that defends the 62K-core claim. The
//! ledger is the persistence half of that discipline — each harness run
//! appends one schema-versioned [`LedgerRecord`] (wall time, per-phase
//! breakdown, comm fraction, byte/message totals, machine profile) to
//! `BENCH_<harness>.json`, so the perf trajectory of the repo is a
//! queryable artifact instead of folklore, and the `perf_ledger` bench
//! bin can diff the latest record against a committed baseline and fail
//! CI on a regression.
//!
//! Records are written with the hand-rolled JSON renderer every exporter
//! here uses and read back through the vendored `serde_json` stand-in.
//! Machine-independent metrics (bytes, messages, collectives, element
//! steps) are compared tightly; wall-clock metrics are only compared
//! when the two records come from a comparable machine (same OS, same
//! parallelism, same network profile), because a committed baseline
//! must not fail CI merely because the runner is slower than the
//! machine that committed it.

use crate::json_escape;
use crate::report::IpmReport;
use std::collections::BTreeMap;
use std::path::Path;

/// Version stamp written into every record; bump on breaking shape
/// changes so old ledgers are recognized instead of misparsed.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// One phase row in a record (from the IPM report's phase table).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerPhase {
    /// Phase name (span name, e.g. `solver.step`).
    pub name: String,
    /// Mean seconds across ranks.
    pub mean_s: f64,
    /// Max seconds across ranks.
    pub max_s: f64,
    /// Imbalance `(max − mean) / max` (0 = balanced).
    pub imbalance: f64,
}

/// Where a record was measured — gates wall-clock comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerMachine {
    /// `std::thread::available_parallelism` at record time.
    pub parallelism: usize,
    /// `std::env::consts::OS`.
    pub os: String,
    /// Modeled network profile name (or `"none"`).
    pub profile: String,
}

impl LedgerMachine {
    /// Detect the current machine.
    pub fn detect(profile: &str) -> Self {
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS.to_string(),
            profile: profile.to_string(),
        }
    }

    /// Whether wall-clock numbers from `other` are comparable to ours.
    pub fn comparable(&self, other: &Self) -> bool {
        self == other
    }
}

/// One appended harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Schema version ([`LEDGER_SCHEMA_VERSION`] when written by us).
    pub schema_version: u64,
    /// Harness name (`ipm_profile`, `campaign_throughput`, …).
    pub harness: String,
    /// Number of solver ranks.
    pub ranks: usize,
    /// Max wall seconds across ranks.
    pub wall_s: f64,
    /// Mean communication fraction across ranks.
    pub comm_fraction: f64,
    /// Cross-rank wall imbalance `(max − mean) / max`.
    pub imbalance: f64,
    /// Total bytes sent across ranks.
    pub bytes_sent: u64,
    /// Total bytes received across ranks.
    pub bytes_received: u64,
    /// Total point-to-point messages sent.
    pub messages: u64,
    /// Total collective operations.
    pub collectives: u64,
    /// Deterministic work metric: `nspec × nsteps` summed over ranks
    /// (0 when the harness has no natural element count).
    pub element_steps: u64,
    /// Per-phase breakdown.
    pub phases: Vec<LedgerPhase>,
    /// Machine the record was measured on.
    pub machine: LedgerMachine,
    /// Harness-specific extra scalars (kept sorted for stable output).
    pub extra: BTreeMap<String, f64>,
}

impl LedgerRecord {
    /// Build a record from an [`IpmReport`] plus harness identity.
    pub fn from_report(
        harness: &str,
        report: &IpmReport,
        element_steps: u64,
        profile: &str,
    ) -> Self {
        let imbalance = if report.wall_max_s > 0.0 {
            (report.wall_max_s - report.wall_mean_s) / report.wall_max_s
        } else {
            0.0
        };
        Self {
            schema_version: LEDGER_SCHEMA_VERSION,
            harness: harness.to_string(),
            ranks: report.ranks,
            wall_s: report.wall_max_s,
            comm_fraction: report.comm_fraction_mean,
            imbalance,
            bytes_sent: report.totals.bytes_sent,
            bytes_received: report.totals.bytes_received,
            messages: report.totals.messages_sent,
            collectives: report.totals.collectives,
            element_steps,
            phases: report
                .phases
                .iter()
                .map(|p| LedgerPhase {
                    name: p.name.clone(),
                    mean_s: p.mean_s,
                    max_s: p.max_s,
                    imbalance: p.imbalance,
                })
                .collect(),
            machine: LedgerMachine::detect(profile),
            extra: BTreeMap::new(),
        }
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema_version\":{},\"harness\":\"{}\",\"ranks\":{},",
            self.schema_version,
            json_escape(&self.harness),
            self.ranks
        ));
        out.push_str(&format!(
            "\"wall_s\":{:.6},\"comm_fraction\":{:.6},\"imbalance\":{:.6},",
            self.wall_s, self.comm_fraction, self.imbalance
        ));
        out.push_str(&format!(
            "\"bytes_sent\":{},\"bytes_received\":{},\"messages\":{},\"collectives\":{},\"element_steps\":{},",
            self.bytes_sent, self.bytes_received, self.messages, self.collectives, self.element_steps
        ));
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"mean_s\":{:.6},\"max_s\":{:.6},\"imbalance\":{:.4}}}",
                json_escape(&p.name),
                p.mean_s,
                p.max_s,
                p.imbalance
            ));
        }
        out.push_str("],\"machine\":");
        out.push_str(&format!(
            "{{\"parallelism\":{},\"os\":\"{}\",\"profile\":\"{}\"}}",
            self.machine.parallelism,
            json_escape(&self.machine.os),
            json_escape(&self.machine.profile)
        ));
        out.push_str(",\"extra\":{");
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.6}", json_escape(k), v));
        }
        out.push_str("}}");
        out
    }
}

fn get<'a>(v: &'a serde_json::Value, key: &str) -> Result<&'a serde_json::Value, String> {
    v.get(key).ok_or_else(|| format!("missing key: {key}"))
}

fn get_f64(v: &serde_json::Value, key: &str) -> Result<f64, String> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key}: not a number"))
}

fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| format!("{key}: not an unsigned integer"))
}

fn get_str(v: &serde_json::Value, key: &str) -> Result<String, String> {
    Ok(get(v, key)?
        .as_str()
        .ok_or_else(|| format!("{key}: not a string"))?
        .to_string())
}

impl LedgerRecord {
    /// Decode one record from a parsed JSON value.
    pub fn from_value(v: &serde_json::Value) -> Result<Self, String> {
        let schema_version = get_u64(v, "schema_version")?;
        if schema_version != LEDGER_SCHEMA_VERSION {
            return Err(format!(
                "unsupported ledger schema version {schema_version} (this build reads {LEDGER_SCHEMA_VERSION})"
            ));
        }
        let machine_v = get(v, "machine")?;
        let mut phases = Vec::new();
        let phases_v = get(v, "phases")?.as_array().ok_or("phases: not an array")?;
        for p in phases_v {
            phases.push(LedgerPhase {
                name: get_str(p, "name")?,
                mean_s: get_f64(p, "mean_s")?,
                max_s: get_f64(p, "max_s")?,
                imbalance: get_f64(p, "imbalance")?,
            });
        }
        let mut extra = BTreeMap::new();
        if let Some(obj) = v.get("extra").and_then(|e| e.as_object()) {
            for (k, val) in obj {
                extra.insert(
                    k.clone(),
                    val.as_f64()
                        .ok_or_else(|| format!("extra.{k}: not a number"))?,
                );
            }
        }
        Ok(Self {
            schema_version,
            harness: get_str(v, "harness")?,
            ranks: get_u64(v, "ranks")? as usize,
            wall_s: get_f64(v, "wall_s")?,
            comm_fraction: get_f64(v, "comm_fraction")?,
            imbalance: get_f64(v, "imbalance")?,
            bytes_sent: get_u64(v, "bytes_sent")?,
            bytes_received: get_u64(v, "bytes_received")?,
            messages: get_u64(v, "messages")?,
            collectives: get_u64(v, "collectives")?,
            element_steps: get_u64(v, "element_steps")?,
            phases,
            machine: LedgerMachine {
                parallelism: get_u64(machine_v, "parallelism")? as usize,
                os: get_str(machine_v, "os")?,
                profile: get_str(machine_v, "profile")?,
            },
            extra,
        })
    }
}

/// Parse ledger text (a JSON array of records).
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    let value = serde_json::from_str(text).map_err(|e| format!("ledger parse error: {e:?}"))?;
    let arr = value.as_array().ok_or("ledger file is not a JSON array")?;
    arr.iter().map(LedgerRecord::from_value).collect()
}

/// Load a ledger file; a missing file is an empty ledger.
pub fn load(path: &Path) -> Result<Vec<LedgerRecord>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_ledger(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Render a full ledger (array of records) as JSON text.
pub fn render_ledger(records: &[LedgerRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// Append `record` to the ledger at `path` (created if absent). The
/// rewrite is atomic: temp file in the same directory, then rename, so
/// a crash mid-write never corrupts the history.
pub fn append(path: &Path, record: &LedgerRecord) -> Result<usize, String> {
    let mut records = load(path)?;
    records.push(record.clone());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, render_ledger(&records)).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(records.len())
}

/// The result of diffing a current record against a baseline.
#[derive(Debug, Clone, Default)]
pub struct LedgerDiff {
    /// Human-readable comparison lines (always populated).
    pub lines: Vec<String>,
    /// Regressions past tolerance; empty means the diff passes.
    pub regressions: Vec<String>,
    /// Whether wall-clock metrics were compared (machines comparable).
    pub wall_checked: bool,
}

impl LedgerDiff {
    /// Whether the current record is within tolerance of the baseline.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn pct_change(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline * 100.0
    }
}

/// Diff `current` against `baseline` with a `max_regress_pct` tolerance.
///
/// Deterministic metrics (bytes, messages, collectives, element steps)
/// must match the baseline within the tolerance *in either direction* —
/// they are machine-independent, so any drift means the code changed
/// behaviour. Wall seconds are compared (one-sided: slower is a
/// regression, faster is a win) only when the machines are comparable.
pub fn diff(baseline: &LedgerRecord, current: &LedgerRecord, max_regress_pct: f64) -> LedgerDiff {
    let mut d = LedgerDiff::default();
    let counters: [(&str, u64, u64); 5] = [
        ("bytes_sent", baseline.bytes_sent, current.bytes_sent),
        (
            "bytes_received",
            baseline.bytes_received,
            current.bytes_received,
        ),
        ("messages", baseline.messages, current.messages),
        ("collectives", baseline.collectives, current.collectives),
        (
            "element_steps",
            baseline.element_steps,
            current.element_steps,
        ),
    ];
    for (name, b, c) in counters {
        let change = pct_change(b as f64, c as f64);
        d.lines
            .push(format!("{name}: baseline {b}, current {c} ({change:+.2}%)"));
        if change.abs() > max_regress_pct {
            d.regressions.push(format!(
                "{name} drifted {change:+.2}% (baseline {b} → current {c}, tolerance ±{max_regress_pct}%)"
            ));
        }
    }
    d.wall_checked = baseline.machine.comparable(&current.machine);
    let wall_change = pct_change(baseline.wall_s, current.wall_s);
    if d.wall_checked {
        d.lines.push(format!(
            "wall_s: baseline {:.4}, current {:.4} ({wall_change:+.2}%)",
            baseline.wall_s, current.wall_s
        ));
        if wall_change > max_regress_pct {
            d.regressions.push(format!(
                "wall_s regressed {wall_change:+.2}% (baseline {:.4}s → current {:.4}s, tolerance +{max_regress_pct}%)",
                baseline.wall_s, current.wall_s
            ));
        }
    } else {
        d.lines.push(format!(
            "wall_s: baseline {:.4} ({}×{} {}), current {:.4} ({}×{} {}) — machines differ, wall not compared",
            baseline.wall_s,
            baseline.machine.parallelism,
            baseline.machine.os,
            baseline.machine.profile,
            current.wall_s,
            current.machine.parallelism,
            current.machine.os,
            current.machine.profile,
        ));
    }
    d.lines.push(format!(
        "comm_fraction: baseline {:.4}, current {:.4} (informational)",
        baseline.comm_fraction, current.comm_fraction
    ));
    d
}

/// Runs whose median wall time the gate compares: each committed
/// baseline is itself the median of this many runs.
pub const GATED_RUNS: usize = 3;

/// `harness`'s newest record in `records`, with its wall time replaced by
/// the median over the harness's last [`GATED_RUNS`] records, and how
/// many records that median covers. Counters stay the newest record's.
pub fn gated_current(records: &[LedgerRecord], harness: &str) -> Option<(LedgerRecord, usize)> {
    let runs: Vec<&LedgerRecord> = records.iter().filter(|r| r.harness == harness).collect();
    let recent = &runs[runs.len().saturating_sub(GATED_RUNS)..];
    let mut latest = (*recent.last()?).clone();
    let mut walls: Vec<f64> = recent.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    latest.wall_s = if walls.len() % 2 == 1 {
        walls[mid]
    } else {
        0.5 * (walls[mid - 1] + walls[mid])
    };
    Some((latest, walls.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(harness: &str) -> LedgerRecord {
        let mut extra = BTreeMap::new();
        extra.insert("stations".to_string(), 4.0);
        LedgerRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            harness: harness.to_string(),
            ranks: 6,
            wall_s: 1.25,
            comm_fraction: 0.12,
            imbalance: 0.05,
            bytes_sent: 123_456,
            bytes_received: 123_456,
            messages: 789,
            collectives: 12,
            element_steps: 96_000,
            phases: vec![LedgerPhase {
                name: "solver.step".to_string(),
                mean_s: 1.0,
                max_s: 1.2,
                imbalance: 0.1667,
            }],
            machine: LedgerMachine {
                parallelism: 8,
                os: "linux".to_string(),
                profile: "none".to_string(),
            },
            extra,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample("roundtrip");
        let parsed = serde_json::from_str(&r.to_json()).expect("record JSON must parse");
        let back = LedgerRecord::from_value(&parsed).unwrap();
        assert_eq!(back.harness, r.harness);
        assert_eq!(back.bytes_sent, r.bytes_sent);
        assert_eq!(back.element_steps, r.element_steps);
        assert_eq!(back.phases, r.phases);
        assert_eq!(back.machine, r.machine);
        assert_eq!(back.extra, r.extra);
        assert!((back.wall_s - r.wall_s).abs() < 1e-9);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut r = sample("v");
        r.schema_version = 999;
        let parsed = serde_json::from_str(&r.to_json()).unwrap();
        let err = LedgerRecord::from_value(&parsed).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
    }

    #[test]
    fn append_accumulates_records() {
        let dir = std::env::temp_dir().join("specfem_ledger_test_append");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_demo.json");
        assert_eq!(append(&path, &sample("demo")).unwrap(), 1);
        assert_eq!(append(&path, &sample("demo")).unwrap(), 2);
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].harness, "demo");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_empty() {
        let path = std::env::temp_dir().join("specfem_ledger_test_missing/nope.json");
        assert!(load(&path).unwrap().is_empty());
    }

    #[test]
    fn identical_records_pass_the_diff() {
        let r = sample("d");
        let d = diff(&r, &r, 10.0);
        assert!(d.ok(), "{:?}", d.regressions);
        assert!(d.wall_checked);
    }

    #[test]
    fn synthetic_2x_slowdown_is_a_regression() {
        let base = sample("d");
        let mut slow = base.clone();
        slow.wall_s *= 2.0;
        let d = diff(&base, &slow, 50.0);
        assert!(!d.ok());
        assert!(d.regressions.iter().any(|r| r.contains("wall_s")));
    }

    #[test]
    fn counter_drift_fails_in_both_directions() {
        let base = sample("d");
        let mut more = base.clone();
        more.messages *= 2;
        assert!(!diff(&base, &more, 10.0).ok());
        let mut fewer = base.clone();
        fewer.messages /= 2;
        assert!(!diff(&base, &fewer, 10.0).ok());
    }

    #[test]
    fn incomparable_machines_skip_the_wall_check() {
        let base = sample("d");
        let mut other = base.clone();
        other.machine.parallelism = 2;
        other.wall_s *= 10.0; // would regress badly if compared
        let d = diff(&base, &other, 50.0);
        assert!(d.ok(), "{:?}", d.regressions);
        assert!(!d.wall_checked);
    }
}
