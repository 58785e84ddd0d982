//! The IPM-style cross-rank report (paper §5).
//!
//! IPM's banner for a SPECFEM run answers: how much of the main loop was
//! communication, how is it distributed over ranks (imbalance), which
//! operations dominate, and what message sizes move. [`IpmReport`]
//! reproduces that: per-rank rows, per-phase min/mean/max/imbalance
//! aggregated from span traces, per-tag traffic, and the top-k
//! message-size buckets — renderable as aligned plain text or JSON.
//! Construction is deterministic: inputs are sorted by rank and all maps
//! are ordered, so equal inputs (in any order) produce byte-identical
//! output.

use std::collections::BTreeMap;

use crate::json_escape;
use crate::metrics::LogHistogram;

/// Human-readable name for a known solver message tag (values mirror
/// `specfem_comm::tags`; this crate stays dependency-free, so they are
/// restated here and pinned by a test on the comm side). Unknown tags
/// render as an empty string.
pub fn tag_name(tag: u32) -> &'static str {
    match tag {
        100 => "halo_solid",
        101 => "halo_fluid",
        110 => "halo_batched_solid",
        111 => "halo_batched_fluid",
        200 => "reduce",
        201 => "bcast",
        202 => "barrier",
        _ => "",
    }
}

/// Traffic attributed to one message tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagTraffic {
    /// The message tag.
    pub tag: u32,
    /// Messages sent with it.
    pub messages: u64,
    /// Bytes sent with it.
    pub bytes: u64,
}

/// Everything one rank contributes to the report. The comm fields mirror
/// `specfem-comm`'s `StatsSnapshot` (this crate stays dependency-free;
/// the facade converts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IpmRankInput {
    /// Rank id.
    pub rank: usize,
    /// Wall seconds of the measured window (the solver main loop).
    pub elapsed_s: f64,
    /// Wall seconds inside communication calls.
    pub comm_wall_s: f64,
    /// Modeled (latency/bandwidth) communication seconds.
    pub modeled_comm_s: f64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Collectives entered.
    pub collectives: u64,
    /// Per-tag sent traffic.
    pub per_tag: Vec<TagTraffic>,
    /// Sent message-size distribution.
    pub size_hist: LogHistogram,
    /// Seconds per span name, from the rank's trace (empty when tracing
    /// was off — the comm columns still fill in).
    pub phase_seconds: Vec<(String, f64)>,
}

/// One rank's row in the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankRow {
    /// Rank id.
    pub rank: usize,
    /// Wall seconds of the measured window.
    pub elapsed_s: f64,
    /// Wall seconds communicating.
    pub comm_wall_s: f64,
    /// `comm_wall_s / elapsed_s`.
    pub comm_fraction: f64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
}

/// Cross-rank aggregate for one phase (span name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Fastest rank's total seconds in the phase.
    pub min_s: f64,
    /// Mean over reporting ranks.
    pub mean_s: f64,
    /// Slowest rank's total seconds.
    pub max_s: f64,
    /// Sum over ranks.
    pub total_s: f64,
    /// `max / mean` — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// Ranks that recorded the phase at all.
    pub ranks_reporting: usize,
}

/// The assembled cross-rank report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IpmReport {
    /// World size.
    pub ranks: usize,
    /// Slowest rank's wall seconds.
    pub wall_max_s: f64,
    /// Mean wall seconds.
    pub wall_mean_s: f64,
    /// Mean of per-rank comm fractions (the paper's 1.9–4.2 % numbers).
    pub comm_fraction_mean: f64,
    /// Smallest per-rank comm fraction.
    pub comm_fraction_min: f64,
    /// Largest per-rank comm fraction.
    pub comm_fraction_max: f64,
    /// Mean modeled-comm fraction (modeled seconds / wall).
    pub modeled_fraction_mean: f64,
    /// Total bytes sent over all ranks.
    pub total_bytes_sent: u64,
    /// Total bytes received over all ranks.
    pub total_bytes_received: u64,
    /// Total point-to-point messages.
    pub total_messages: u64,
    /// Total collectives entered.
    pub total_collectives: u64,
    /// One row per rank, ascending rank order.
    pub per_rank: Vec<RankRow>,
    /// Cross-rank phase table, alphabetical by name.
    pub phases: Vec<PhaseRow>,
    /// Merged per-tag traffic, ascending tag order.
    pub tags: Vec<TagTraffic>,
    /// Merged message-size distribution.
    pub size_hist: LogHistogram,
    /// Top-k `(lo, hi, count)` size buckets.
    pub top_sizes: Vec<(u64, u64, u64)>,
}

/// How many size buckets the banner lists.
const TOP_K_SIZES: usize = 8;

impl IpmReport {
    /// Aggregate per-rank inputs. Input order does not matter; the
    /// report is identical for any permutation of `inputs`.
    pub fn build(inputs: &[IpmRankInput]) -> IpmReport {
        let mut inputs: Vec<&IpmRankInput> = inputs.iter().collect();
        inputs.sort_by_key(|i| i.rank);
        let n = inputs.len();
        let nf = n.max(1) as f64;

        let mut report = IpmReport {
            ranks: n,
            comm_fraction_min: f64::INFINITY,
            ..IpmReport::default()
        };

        let mut tags: BTreeMap<u32, TagTraffic> = BTreeMap::new();
        let mut phases: BTreeMap<String, Vec<f64>> = BTreeMap::new();

        for i in &inputs {
            let frac = if i.elapsed_s > 0.0 {
                i.comm_wall_s / i.elapsed_s
            } else {
                0.0
            };
            let modeled_frac = if i.elapsed_s > 0.0 {
                i.modeled_comm_s / i.elapsed_s
            } else {
                0.0
            };
            report.wall_max_s = report.wall_max_s.max(i.elapsed_s);
            report.wall_mean_s += i.elapsed_s / nf;
            report.comm_fraction_mean += frac / nf;
            report.comm_fraction_min = report.comm_fraction_min.min(frac);
            report.comm_fraction_max = report.comm_fraction_max.max(frac);
            report.modeled_fraction_mean += modeled_frac / nf;
            report.total_bytes_sent += i.bytes_sent;
            report.total_bytes_received += i.bytes_received;
            report.total_messages += i.messages_sent;
            report.total_collectives += i.collectives;
            report.per_rank.push(RankRow {
                rank: i.rank,
                elapsed_s: i.elapsed_s,
                comm_wall_s: i.comm_wall_s,
                comm_fraction: frac,
                bytes_sent: i.bytes_sent,
                bytes_received: i.bytes_received,
                messages_sent: i.messages_sent,
            });
            for t in &i.per_tag {
                let e = tags.entry(t.tag).or_insert(TagTraffic {
                    tag: t.tag,
                    ..Default::default()
                });
                e.messages += t.messages;
                e.bytes += t.bytes;
            }
            report.size_hist.merge(&i.size_hist);
            for (name, secs) in &i.phase_seconds {
                phases.entry(name.clone()).or_default().push(*secs);
            }
        }
        if report.comm_fraction_min == f64::INFINITY {
            report.comm_fraction_min = 0.0;
        }

        report.tags = tags.into_values().collect();
        report.phases = phases
            .into_iter()
            .map(|(name, secs)| {
                let total: f64 = secs.iter().sum();
                let mean = total / secs.len() as f64;
                let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = secs.iter().cloned().fold(0.0f64, f64::max);
                PhaseRow {
                    name,
                    min_s: min,
                    mean_s: mean,
                    max_s: max,
                    total_s: total,
                    imbalance: if mean > 0.0 { max / mean } else { 1.0 },
                    ranks_reporting: secs.len(),
                }
            })
            .collect();
        report.top_sizes = report.size_hist.top_k(TOP_K_SIZES);
        report
    }

    /// The IPM-style plain-text banner.
    pub fn render_text(&self) -> String {
        let mut o = String::new();
        let bar = "#".repeat(74);
        o.push_str(&bar);
        o.push('\n');
        o.push_str("# specfem-obs IPM-style report\n");
        o.push_str(&format!("# ranks      : {}\n", self.ranks));
        o.push_str(&format!(
            "# wallclock  : max {:.6} s   mean {:.6} s\n",
            self.wall_max_s, self.wall_mean_s
        ));
        o.push_str(&format!(
            "# comm       : mean {:.2} %   min {:.2} %   max {:.2} %   (modeled mean {:.2} %)\n",
            100.0 * self.comm_fraction_mean,
            100.0 * self.comm_fraction_min,
            100.0 * self.comm_fraction_max,
            100.0 * self.modeled_fraction_mean,
        ));
        o.push_str(&format!(
            "# bytes sent : {}   recv : {}   msgs : {}   collectives : {}\n",
            self.total_bytes_sent,
            self.total_bytes_received,
            self.total_messages,
            self.total_collectives
        ));
        if !self.phases.is_empty() {
            o.push_str(
                "#\n# phase                          min(s)     mean(s)    max(s)   imbal  ranks\n",
            );
            for p in &self.phases {
                o.push_str(&format!(
                    "# {:<28} {:>9.6} {:>10.6} {:>9.6} {:>6.2} {:>6}\n",
                    p.name, p.min_s, p.mean_s, p.max_s, p.imbalance, p.ranks_reporting
                ));
            }
        }
        if !self.tags.is_empty() {
            o.push_str("#\n# tag                            messages          bytes\n");
            for t in &self.tags {
                o.push_str(&format!(
                    "# {:<8} {:<20} {:>10} {:>14}\n",
                    t.tag,
                    tag_name(t.tag),
                    t.messages,
                    t.bytes
                ));
            }
        }
        if !self.top_sizes.is_empty() {
            o.push_str("#\n# message size bucket        count\n");
            for (lo, hi, c) in &self.top_sizes {
                o.push_str(&format!("# [{lo}, {hi}] B{:>width$}\n", c, width = 12));
            }
        }
        if self.size_hist.count() > 0 {
            o.push_str(&format!(
                "# size quantiles : p50 {} B   p95 {} B   p99 {} B\n",
                self.size_hist.quantile(0.50).unwrap_or(0),
                self.size_hist.quantile(0.95).unwrap_or(0),
                self.size_hist.quantile(0.99).unwrap_or(0),
            ));
        }
        o.push_str("#\n# rank     wall(s)    comm(s)   comm%      sent B      recv B    msgs\n");
        for r in &self.per_rank {
            o.push_str(&format!(
                "# {:<5} {:>9.6} {:>10.6} {:>6.2} {:>11} {:>11} {:>7}\n",
                r.rank,
                r.elapsed_s,
                r.comm_wall_s,
                100.0 * r.comm_fraction,
                r.bytes_sent,
                r.bytes_received,
                r.messages_sent
            ));
        }
        o.push_str(&bar);
        o.push('\n');
        o
    }

    /// JSON rendering (stable key order, parseable by the vendored
    /// `serde_json` stand-in).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        o.push_str(&format!("\"ranks\":{},", self.ranks));
        o.push_str(&format!("\"wall_max_s\":{:.9},", self.wall_max_s));
        o.push_str(&format!("\"wall_mean_s\":{:.9},", self.wall_mean_s));
        o.push_str(&format!(
            "\"comm_fraction\":{{\"mean\":{:.9},\"min\":{:.9},\"max\":{:.9},\"modeled_mean\":{:.9}}},",
            self.comm_fraction_mean,
            self.comm_fraction_min,
            self.comm_fraction_max,
            self.modeled_fraction_mean
        ));
        o.push_str(&format!(
            "\"totals\":{{\"bytes_sent\":{},\"bytes_received\":{},\"messages\":{},\"collectives\":{}}},",
            self.total_bytes_sent,
            self.total_bytes_received,
            self.total_messages,
            self.total_collectives
        ));
        o.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"name\":\"{}\",\"min_s\":{:.9},\"mean_s\":{:.9},\"max_s\":{:.9},\"total_s\":{:.9},\"imbalance\":{:.9},\"ranks\":{}}}",
                json_escape(&p.name), p.min_s, p.mean_s, p.max_s, p.total_s, p.imbalance, p.ranks_reporting
            ));
        }
        o.push_str("],\"tags\":[");
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"tag\":{},\"messages\":{},\"bytes\":{}}}",
                t.tag, t.messages, t.bytes
            ));
        }
        o.push_str("],\"top_message_sizes\":[");
        for (i, (lo, hi, c)) in self.top_sizes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}"));
        }
        o.push_str(&format!(
            "],\"size_quantiles\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},",
            self.size_hist.quantile(0.50).unwrap_or(0),
            self.size_hist.quantile(0.95).unwrap_or(0),
            self.size_hist.quantile(0.99).unwrap_or(0),
        ));
        o.push_str("\"per_rank\":[");
        for (i, r) in self.per_rank.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"rank\":{},\"wall_s\":{:.9},\"comm_s\":{:.9},\"comm_fraction\":{:.9},\"bytes_sent\":{},\"bytes_received\":{},\"messages_sent\":{}}}",
                r.rank, r.elapsed_s, r.comm_wall_s, r.comm_fraction, r.bytes_sent, r.bytes_received, r.messages_sent
            ));
        }
        o.push_str("]}");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(rank: usize, elapsed: f64, comm: f64, bytes: u64) -> IpmRankInput {
        let mut size_hist = LogHistogram::default();
        size_hist.record(bytes);
        IpmRankInput {
            rank,
            elapsed_s: elapsed,
            comm_wall_s: comm,
            modeled_comm_s: comm / 2.0,
            bytes_sent: bytes,
            bytes_received: bytes,
            messages_sent: 4,
            collectives: 2,
            per_tag: vec![TagTraffic {
                tag: 100,
                messages: 4,
                bytes,
            }],
            size_hist,
            phase_seconds: vec![("forces".into(), elapsed - comm), ("halo".into(), comm)],
        }
    }

    #[test]
    fn aggregates_across_ranks() {
        let r = IpmReport::build(&[input(0, 2.0, 0.1, 1000), input(1, 2.5, 0.2, 3000)]);
        assert_eq!(r.ranks, 2);
        assert!((r.wall_max_s - 2.5).abs() < 1e-12);
        assert_eq!(r.total_bytes_sent, 4000);
        assert_eq!(r.total_messages, 8);
        assert_eq!(r.tags.len(), 1);
        assert_eq!(r.tags[0].bytes, 4000);
        assert_eq!(r.phases.len(), 2);
        let halo = r.phases.iter().find(|p| p.name == "halo").unwrap();
        assert!((halo.total_s - 0.3).abs() < 1e-12);
        assert!((halo.max_s - 0.2).abs() < 1e-12);
        assert_eq!(halo.ranks_reporting, 2);
        assert!(halo.imbalance > 1.0);
        // comm fractions: 0.05 and 0.08.
        assert!((r.comm_fraction_min - 0.05).abs() < 1e-12);
        assert!((r.comm_fraction_max - 0.08).abs() < 1e-12);
    }

    #[test]
    fn order_independent_and_deterministic() {
        let a = vec![input(0, 2.0, 0.1, 1000), input(1, 2.5, 0.2, 3000)];
        let b = vec![a[1].clone(), a[0].clone()];
        let ra = IpmReport::build(&a);
        let rb = IpmReport::build(&b);
        assert_eq!(ra, rb);
        assert_eq!(ra.render_text(), rb.render_text());
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn empty_input_is_well_defined() {
        let r = IpmReport::build(&[]);
        assert_eq!(r.ranks, 0);
        assert_eq!(r.comm_fraction_min, 0.0);
        assert!(r.render_text().contains("ranks      : 0"));
        assert!(r.to_json().starts_with('{'));
    }

    #[test]
    fn text_banner_contains_key_lines() {
        let r = IpmReport::build(&[input(0, 2.0, 0.1, 1000)]);
        let text = r.render_text();
        assert!(text.contains("comm       : mean 5.00 %"));
        assert!(text.contains("forces"));
        assert!(text.contains("message size bucket"));
        // Single recorded size (1000 B): every quantile is the value.
        assert!(text.contains("size quantiles : p50 1000 B   p95 1000 B   p99 1000 B"));
    }

    #[test]
    fn json_carries_size_quantiles() {
        let r = IpmReport::build(&[input(0, 2.0, 0.1, 1000)]);
        let json = r.to_json();
        assert!(json.contains("\"size_quantiles\":{\"p50\":1000,\"p95\":1000,\"p99\":1000}"));
        serde_json::from_str(&json).expect("valid JSON");
    }
}
