//! The campaign's cross-job report — per-job wall time, queue wait,
//! cache outcome, retries, and an aggregate element·steps/s throughput
//! number, in the same text + hand-rolled-JSON style as
//! `specfem_obs::IpmReport`. A merged Perfetto timeline with one track
//! per worker comes from [`crate::CampaignResult::perfetto_json`].

use specfem_obs::{json_escape, LogHistogram, TagTraffic};

use crate::cache::CacheStats;
use crate::JobOutcome;

/// Per-job communication and in-flight health telemetry, rolled up
/// across the job's ranks (and across retry attempts for the failure
/// fields). Comm counters are zero for jobs that never produced a
/// result.
#[derive(Debug, Clone, Default)]
pub struct JobTelemetry {
    /// Σ bytes sent over the job's ranks.
    pub bytes_sent: u64,
    /// Σ bytes received.
    pub bytes_received: u64,
    /// Σ point-to-point messages sent.
    pub messages_sent: u64,
    /// Σ collective operations entered.
    pub collectives: u64,
    /// Sent traffic per message tag, merged across ranks.
    pub per_tag: Vec<TagTraffic>,
    /// Distribution of blocking-receive wait times (ns) merged across
    /// ranks — recorded only on traced runs.
    pub recv_wait_ns: Option<LogHistogram>,
    /// Display of the numerical-health trip that aborted an attempt
    /// (`None` = no trip on any attempt; a retried job can succeed and
    /// still carry the trip that killed its first attempt).
    pub health_trip: Option<String>,
    /// Watchdog cross-rank step skew from the run's final report.
    pub watchdog_max_skew_steps: Option<u64>,
    /// Ranks the watchdog flagged as stalled across all attempts.
    pub watchdog_stalled_ranks: Vec<usize>,
    /// The job's native world size (1 for serial jobs).
    pub native_world: usize,
    /// World sizes adopted by shrink-to-survive retries, in order; empty
    /// when the job never shrank.
    pub shrink_path: Vec<usize>,
    /// World size of the final attempt when elastic retry shrank it below
    /// the native decomposition (`None` = ran at native size).
    pub final_world: Option<usize>,
    /// Lanes of the fused solve the job's last attempt rode in (0 = it
    /// ran alone, as a group of one).
    pub batch_lanes: usize,
    /// Clustered-LTS rate cap in effect on the job's run (`None` = LTS
    /// off, every element at the global minimum dt).
    pub lts_max_rate: Option<u32>,
    /// Σ element·steps the coarse LTS clusters skipped across the job's
    /// ranks (0 when LTS is off or the mesh has no dt spread).
    pub lts_element_steps_saved: u64,
    /// End-to-end correlation id (16 hex digits) the job ran under —
    /// minted at submit or adopted from the caller's request.
    pub trace_id: Option<String>,
    /// Path of the crash dossier the newest failed attempt left behind
    /// (`None` = no attempt failed with the flight recorder armed). Jobs
    /// a fused solve's one incident failed together share one dossier.
    pub dossier: Option<String>,
}

impl JobTelemetry {
    /// Merge one rank's sent-traffic tags into the rollup.
    pub fn merge_tags(&mut self, tags: &[TagTraffic]) {
        for t in tags {
            match self.per_tag.iter_mut().find(|p| p.tag == t.tag) {
                Some(p) => {
                    p.messages += t.messages;
                    p.bytes += t.bytes;
                }
                None => self.per_tag.push(*t),
            }
        }
        self.per_tag.sort_by_key(|t| t.tag);
    }
}

/// One job's row in the report.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// Job name (as submitted).
    pub name: String,
    /// Submission index.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// Total attempts (1 = no retry).
    pub attempts: usize,
    /// Seconds between submit and dispatch.
    pub queue_wait_s: f64,
    /// Seconds in the worker (mesh acquisition + all attempts).
    pub run_s: f64,
    /// How the mesh was obtained ([`crate::CacheOutcome::as_str`]).
    pub cache: &'static str,
    /// Global elements × time steps advanced.
    pub element_steps: u64,
    /// Whether the job ultimately succeeded.
    pub ok: bool,
    /// Error message of a failed job.
    pub error: Option<String>,
    /// Comm/health/watchdog rollup for this job.
    pub telemetry: JobTelemetry,
}

/// Aggregated campaign statistics.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Worker-pool size used.
    pub workers: usize,
    /// Campaign wall time, submit of the first job to completion of the
    /// last (s).
    pub total_wall_s: f64,
    /// Per-job rows, submission order.
    pub jobs: Vec<JobRow>,
    /// Mesh-cache counters.
    pub cache: CacheStats,
    /// Σ element·steps over successful jobs.
    pub total_element_steps: u64,
    /// `total_element_steps / total_wall_s` — the campaign throughput
    /// number the `campaign_throughput` harness compares against a
    /// serial loop.
    pub element_steps_per_s: f64,
    /// Σ (attempts − 1).
    pub total_retries: u64,
    /// Jobs that exhausted their retries.
    pub failed_jobs: usize,
    /// Jobs whose numerical-health monitor tripped on any attempt.
    pub health_trips: usize,
    /// Jobs on which the straggler watchdog flagged a stall.
    pub stalled_jobs: usize,
    /// Jobs that finished on a shrunken world (elastic recovery engaged).
    pub shrunk_jobs: usize,
    /// Jobs that ran fused in a multi-lane batched solve.
    pub batched_jobs: usize,
    /// Jobs that ran with clustered local time stepping engaged.
    pub lts_jobs: usize,
}

impl CampaignReport {
    /// Build the report from finished job outcomes.
    pub fn build(
        outcomes: &[JobOutcome],
        workers: usize,
        total_wall_s: f64,
        cache: CacheStats,
    ) -> Self {
        let jobs: Vec<JobRow> = outcomes
            .iter()
            .map(|o| JobRow {
                name: o.name.clone(),
                index: o.index,
                worker: o.worker,
                attempts: o.attempts,
                queue_wait_s: o.queue_wait_s,
                run_s: o.run_s,
                cache: o.cache.as_str(),
                element_steps: o.element_steps,
                ok: o.result.is_ok(),
                error: o.result.as_ref().err().cloned(),
                telemetry: o.telemetry.clone(),
            })
            .collect();
        let total_element_steps = outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| o.element_steps)
            .sum();
        let total_retries = outcomes.iter().map(|o| (o.attempts - 1) as u64).sum();
        let failed_jobs = outcomes.iter().filter(|o| o.result.is_err()).count();
        let health_trips = outcomes
            .iter()
            .filter(|o| o.telemetry.health_trip.is_some())
            .count();
        let stalled_jobs = outcomes
            .iter()
            .filter(|o| !o.telemetry.watchdog_stalled_ranks.is_empty())
            .count();
        let shrunk_jobs = outcomes
            .iter()
            .filter(|o| o.telemetry.final_world.is_some())
            .count();
        let batched_jobs = outcomes
            .iter()
            .filter(|o| o.telemetry.batch_lanes > 1)
            .count();
        let lts_jobs = outcomes
            .iter()
            .filter(|o| o.telemetry.lts_max_rate.is_some())
            .count();
        CampaignReport {
            workers,
            total_wall_s,
            jobs,
            cache,
            total_element_steps,
            element_steps_per_s: total_element_steps as f64 / total_wall_s.max(1e-12),
            total_retries,
            failed_jobs,
            health_trips,
            stalled_jobs,
            shrunk_jobs,
            batched_jobs,
            lts_jobs,
        }
    }

    /// Human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign report: {} jobs on {} workers, {:.3} s wall\n",
            self.jobs.len(),
            self.workers,
            self.total_wall_s
        ));
        out.push_str(&format!(
            "  throughput      : {:.3e} element*steps/s ({} element*steps)\n",
            self.element_steps_per_s, self.total_element_steps
        ));
        out.push_str(&format!(
            "  mesh cache      : {} hit / {} derived / {} miss / {} evicted\n",
            self.cache.hits, self.cache.derived_hits, self.cache.misses, self.cache.evictions
        ));
        out.push_str(&format!(
            "  retries, failed : {}, {}\n",
            self.total_retries, self.failed_jobs
        ));
        if self.health_trips > 0 || self.stalled_jobs > 0 {
            out.push_str(&format!(
                "  health, stalls  : {} health trip(s), {} stalled job(s)\n",
                self.health_trips, self.stalled_jobs
            ));
        }
        if self.shrunk_jobs > 0 {
            out.push_str(&format!(
                "  elastic         : {} job(s) finished on a shrunken world\n",
                self.shrunk_jobs
            ));
        }
        if self.batched_jobs > 0 {
            out.push_str(&format!(
                "  batching        : {} job(s) ran fused in multi-event solves\n",
                self.batched_jobs
            ));
        }
        if self.lts_jobs > 0 {
            out.push_str(&format!(
                "  lts             : {} job(s) ran with clustered local time stepping\n",
                self.lts_jobs
            ));
        }
        out.push_str(
            "  job                        wkr  att  cache         queue_s    run_s  status\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "  {:<26} {:>3} {:>4}  {:<12} {:>8.3} {:>8.3}  {}\n",
                j.name,
                j.worker,
                j.attempts,
                j.cache,
                j.queue_wait_s,
                j.run_s,
                if j.ok { "ok" } else { "FAILED" }
            ));
            if let Some(trip) = &j.telemetry.health_trip {
                out.push_str(&format!("    health: {trip}\n"));
            }
            if !j.telemetry.watchdog_stalled_ranks.is_empty() {
                out.push_str(&format!(
                    "    watchdog: stalled ranks {:?}\n",
                    j.telemetry.watchdog_stalled_ranks
                ));
            }
            if let Some(final_world) = j.telemetry.final_world {
                out.push_str(&format!(
                    "    elastic: shrank {} -> {} ranks (path {:?})\n",
                    j.telemetry.native_world, final_world, j.telemetry.shrink_path
                ));
            }
        }
        out
    }

    /// Machine-readable JSON (hand-rolled, like `IpmReport::to_json` —
    /// no serde in the offline workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.jobs.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"total_wall_s\": {:.6},\n", self.total_wall_s));
        out.push_str(&format!(
            "  \"total_element_steps\": {},\n",
            self.total_element_steps
        ));
        out.push_str(&format!(
            "  \"element_steps_per_s\": {:.3},\n",
            self.element_steps_per_s
        ));
        out.push_str(&format!("  \"total_retries\": {},\n", self.total_retries));
        out.push_str(&format!("  \"failed_jobs\": {},\n", self.failed_jobs));
        out.push_str(&format!("  \"health_trips\": {},\n", self.health_trips));
        out.push_str(&format!("  \"stalled_jobs\": {},\n", self.stalled_jobs));
        out.push_str(&format!("  \"shrunk_jobs\": {},\n", self.shrunk_jobs));
        out.push_str(&format!("  \"batched_jobs\": {},\n", self.batched_jobs));
        out.push_str(&format!("  \"lts_jobs\": {},\n", self.lts_jobs));
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"derived_hits\": {}, \"misses\": {}, \
             \"evictions\": {}}},\n",
            self.cache.hits, self.cache.derived_hits, self.cache.misses, self.cache.evictions
        ));
        out.push_str("  \"jobs\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"index\": {}, \"worker\": {}, \"attempts\": {}, \
                 \"queue_wait_s\": {:.6}, \"run_s\": {:.6}, \"cache\": \"{}\", \
                 \"element_steps\": {}, \"ok\": {}{}{}}}{}\n",
                json_escape(&j.name),
                j.index,
                j.worker,
                j.attempts,
                j.queue_wait_s,
                j.run_s,
                j.cache,
                j.element_steps,
                j.ok,
                match &j.error {
                    Some(e) => format!(", \"error\": \"{}\"", json_escape(e)),
                    None => String::new(),
                },
                telemetry_json(&j.telemetry),
                if i + 1 < self.jobs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Render a job's telemetry rollup as `, "comm": {...}` (plus optional
/// `"health_trip"` / `"watchdog"` members) for embedding in the job row.
fn telemetry_json(t: &JobTelemetry) -> String {
    let tags: Vec<String> = t
        .per_tag
        .iter()
        .map(|tag| {
            format!(
                "{{\"tag\": {}, \"messages\": {}, \"bytes\": {}}}",
                tag.tag, tag.messages, tag.bytes
            )
        })
        .collect();
    let recv_wait = match &t.recv_wait_ns {
        Some(h) => format!(
            ", \"recv_wait_ns\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}}}",
            h.count(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.mean()
        ),
        None => String::new(),
    };
    let mut out = format!(
        ", \"comm\": {{\"bytes_sent\": {}, \"bytes_received\": {}, \"messages_sent\": {}, \
         \"collectives\": {}, \"per_tag\": [{}]{}}}",
        t.bytes_sent,
        t.bytes_received,
        t.messages_sent,
        t.collectives,
        tags.join(", "),
        recv_wait
    );
    if let Some(trip) = &t.health_trip {
        out.push_str(&format!(", \"health_trip\": \"{}\"", json_escape(trip)));
    }
    if t.watchdog_max_skew_steps.is_some() || !t.watchdog_stalled_ranks.is_empty() {
        let ranks: Vec<String> = t
            .watchdog_stalled_ranks
            .iter()
            .map(|r| r.to_string())
            .collect();
        out.push_str(&format!(
            ", \"watchdog\": {{\"max_skew_steps\": {}, \"stalled_ranks\": [{}]}}",
            t.watchdog_max_skew_steps.unwrap_or(0),
            ranks.join(", ")
        ));
    }
    if t.batch_lanes > 1 {
        out.push_str(&format!(", \"batch_lanes\": {}", t.batch_lanes));
    }
    if let Some(cap) = t.lts_max_rate {
        out.push_str(&format!(
            ", \"lts\": {{\"max_rate\": {cap}, \"element_steps_saved\": {}}}",
            t.lts_element_steps_saved
        ));
    }
    if let Some(id) = &t.trace_id {
        out.push_str(&format!(", \"trace_id\": \"{}\"", json_escape(id)));
    }
    if let Some(dossier) = &t.dossier {
        out.push_str(&format!(", \"dossier\": \"{}\"", json_escape(dossier)));
    }
    if t.final_world.is_some() || !t.shrink_path.is_empty() {
        let path: Vec<String> = t.shrink_path.iter().map(|w| w.to_string()).collect();
        out.push_str(&format!(
            ", \"elastic\": {{\"native_world\": {}, \"final_world\": {}, \"shrink_path\": [{}]}}",
            t.native_world,
            t.final_world.unwrap_or(t.native_world),
            path.join(", ")
        ));
    }
    out
}
