//! `compare <a.json> <b.json>`: apply each end-to-end metric's bound to
//! two result sets, one row per workload and metric.

use std::path::Path;

use serde_json::Value;

use crate::spec::Better;
use crate::util::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Regressed,
    Improved,
    /// The run-to-run spread is wider than the bound (or a side has no
    /// number), so neither "same" nor "regressed" can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for a single value.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Judge `b` (the change) against `a` (the parent) for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|v| !v.is_finite()) {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the parent's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse = sign * (median(b) - median(a)) / median(a).abs().max(f64::MIN_POSITIVE);
    if spread(a).max(spread(b)) > bound {
        let b_beats_all_a = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
        return if b_beats_all_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

fn values(metric: &Value) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Value::as_array)
        .map(|v| v.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect())
        .unwrap_or_default()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; `Ok(false)` when anything regressed (or, with
/// `strict`, when an exact counter differs between the two sets).
pub fn compare_files(a_path: &Path, b_path: &Path, strict: bool) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| v.get("workloads").and_then(Value::as_object).cloned();
    let (wa, wb) = (
        workloads(&a).ok_or("first file has no workloads")?,
        workloads(&b).ok_or("second file has no workloads")?,
    );
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            println!("{name:<16} missing from the second set: unresolved");
            continue;
        };
        let oversubscribed = [ra, rb].iter().any(|r| {
            r.get("oversubscribed")
                .and_then(Value::as_bool)
                .unwrap_or(false)
        });
        let metrics = ra
            .get("end_to_end")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        for (metric, ma) in &metrics {
            let Some(spec) = crate::spec::end_to_end(metric) else {
                continue;
            };
            let va = values(ma);
            let vb = rb
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .map(values)
                .unwrap_or_default();
            // More ranks than cores: wall clock measures the scheduler.
            let timed = spec.name != "peak_rss_mb";
            let verdict = if oversubscribed && timed {
                Verdict::Unresolved
            } else {
                judge(&va, &vb, spec.better, spec.bound)
            };
            ok &= verdict != Verdict::Regressed;
            let (ma_, mb_) = (
                if va.is_empty() { f64::NAN } else { median(&va) },
                if vb.is_empty() { f64::NAN } else { median(&vb) },
            );
            println!(
                "{name:<16} {metric:<16} {ma_:>14.6} {mb_:>14.6} {:>+7.2}% {:>6.1}%  {}",
                100.0 * (mb_ - ma_) / ma_,
                100.0 * spec.bound,
                verdict.as_str()
            );
        }
        // Failures: any increase of failed / attempted is a regression.
        let frac = |r: &Value| {
            let f = r.get("failed").and_then(Value::as_u64).unwrap_or(0) as f64;
            f / r
                .get("attempted")
                .and_then(Value::as_u64)
                .unwrap_or(1)
                .max(1) as f64
        };
        let (fa, fb) = (frac(ra), frac(rb));
        let verdict = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Same
        };
        ok &= verdict != Verdict::Regressed;
        println!(
            "{name:<16} {:<16} {fa:>14.6} {fb:>14.6} {:>8} {:>7}  {}",
            "failed_frac",
            "",
            "any",
            verdict.as_str()
        );
        // Counters that must repeat exactly on one commit.
        let layers = ra
            .get("per_layer")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        for (metric, la) in layers {
            if !la.get("exact").and_then(Value::as_bool).unwrap_or(false) {
                continue;
            }
            let lb = rb.get("per_layer").and_then(|p| p.get(&metric));
            let (x, y) = (
                la.get("value").and_then(Value::as_f64),
                lb.and_then(|l| l.get("value")).and_then(Value::as_f64),
            );
            if x != y {
                println!("{name:<16} {metric:<32} exact counter differs: {x:?} vs {y:?}");
                ok &= !strict;
            }
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&a, &[100.2, 100.1, 99.9, 100.0], Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.5, 110.2], Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.5, 90.2], Better::Lower, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.5, 90.2], Better::Higher, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_same() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0, 99.0, 100.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0], Better::Lower, 0.05),
            Verdict::Improved
        );
        // A missing number is never "same".
        assert_eq!(
            judge(&[f64::NAN], &[1.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.05), Verdict::Unresolved);
    }
}
