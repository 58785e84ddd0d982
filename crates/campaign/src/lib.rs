//! `specfem-campaign` — the multi-event campaign runtime.
//!
//! The paper's production context is never one earthquake: §6 describes
//! catalogue sweeps where the same Earth discretization is run against
//! many CMT solutions. This crate is the job-queue runtime for that
//! workload: submit many [`Simulation`]-shaped [`Job`]s, execute them
//! concurrently over a bounded worker pool (each worker owning its own
//! in-process rank world), and share mesh builds through a
//! content-addressed [`MeshCache`] keyed by
//! [`Simulation::mesh_key`].
//!
//! * **Scheduling** — submission order within integer priorities, and
//!   submit-side backpressure via a bounded queue.
//! * **Robustness** — per-job retry with linear backoff on solver/comm
//!   failure; retries strip the job's fault plan and, when a checkpoint
//!   root is configured, resume from the newest complete checkpoint, so
//!   a fault-injected job finishes bit-identical to a clean run. Jobs
//!   fused into one solve go through the same attempt loop: a failure of
//!   the shared solve is attempt 1 of each, and they continue alone.
//! * **One sink** — each [`JobOutcome`] goes, by value, to exactly one
//!   consumer fixed at construction: [`Campaign::new`] collects them for
//!   [`Campaign::finish`]; [`Campaign::streaming`] hands each to the
//!   caller's closure on the worker thread as its job completes and
//!   keeps none (the serve daemon). The threads are the caller's and the
//!   workers'; a failure is classified by the error itself
//!   (`SolverError::{class, coordinates, peer_lost}`), not here.
//! * **Observability** — a [`CampaignReport`] (per-job wall time, queue
//!   wait, cache outcome, retries, aggregate element·steps/s) in text
//!   and JSON, plus a merged Perfetto timeline with one track per
//!   worker.
//!
//! ```no_run
//! use specfem_campaign::{Campaign, CampaignConfig, Job};
//! use specfem_core::Simulation;
//!
//! let sim = Simulation::builder().resolution(8).steps(50).build().unwrap();
//! let mut campaign = Campaign::new(CampaignConfig::default());
//! for i in 0..4 {
//!     campaign.submit(Job::new(format!("event_{i}"), sim.clone()));
//! }
//! let result = campaign.finish();
//! assert!(result.all_ok());
//! println!("{}", result.report.render_text());
//! ```

pub mod cache;
pub mod packer;
pub mod report;

pub use cache::{CacheOutcome, CacheStats, MeshCache};
pub use packer::{batch_key, claim_batch_mates, BatchKey};
pub use report::{CampaignReport, JobRow, JobTelemetry};

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use specfem_core::{NetworkProfile, RunFailure, RunOptions, Simulation, SimulationResult};
use specfem_obs::{Track, TrackEvent};

/// Retry behaviour for failed jobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = fail fast).
    pub max_retries: usize,
    /// Sleep before attempt `n + 1` is `backoff × n` (linear).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 1,
            backoff: Duration::from_millis(10),
        }
    }
}

/// How a job's solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobMode {
    /// The whole domain on one in-process rank (the merged serial path).
    /// Best campaign throughput: the worker pool, not the rank world,
    /// provides the parallelism.
    #[default]
    Serial,
    /// The full `6 × NPROC_XI²`-rank thread world per job, charged
    /// against [`CampaignConfig::profile`].
    Distributed,
}

/// One unit of campaign work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display / checkpoint-directory name; keep it unique per campaign.
    pub name: String,
    /// The simulation to run.
    pub sim: Simulation,
    /// Higher runs earlier; ties run in submission order.
    pub priority: i32,
    /// Serial or distributed execution.
    pub mode: JobMode,
    /// End-to-end correlation id. `None` at submit time gets one minted —
    /// callers that already own a request-scoped id (the serve daemon)
    /// pass it through [`Job::trace`] so the job, its solver ranks, and
    /// any crash dossier all share the caller's id.
    pub trace: Option<specfem_obs::TraceId>,
}

impl Job {
    /// A default-priority serial job.
    pub fn new(name: impl Into<String>, sim: Simulation) -> Self {
        Self {
            name: name.into(),
            sim,
            priority: 0,
            mode: JobMode::Serial,
            trace: None,
        }
    }

    /// Set the priority (higher = earlier).
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Adopt an existing end-to-end correlation id instead of minting
    /// one at submit.
    pub fn trace(mut self, id: specfem_obs::TraceId) -> Self {
        self.trace = Some(id);
        self
    }

    /// Run on the full rank world instead of the merged serial path.
    pub fn distributed(mut self) -> Self {
        self.mode = JobMode::Distributed;
        self
    }

    /// OS threads one in-flight instance of this job occupies.
    fn thread_footprint(&self) -> usize {
        match self.mode {
            JobMode::Serial => 1,
            JobMode::Distributed => self.sim.params.num_ranks(),
        }
    }
}

/// Campaign-wide configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker-pool size; 0 = auto via
    /// [`specfem_comm::recommended_workers`] (physical parallelism over
    /// the widest job's thread footprint, capped at the job count).
    pub workers: usize,
    /// Mesh-cache resident-byte ceiling; 0 = unbounded.
    pub mesh_cache_bytes: usize,
    /// Retry behaviour.
    pub retry: RetryPolicy,
    /// Network model charged to distributed jobs.
    pub profile: NetworkProfile,
    /// Root for per-job checkpoint directories
    /// (`<root>/<job name>/`). Enables checkpoint-aware retry/resume;
    /// set `config.checkpoint_every` on the jobs for it to matter.
    pub checkpoint_root: Option<PathBuf>,
    /// Bound on queued (not yet dispatched) jobs; `submit` blocks at the
    /// bound. 0 = unbounded.
    pub queue_capacity: usize,
    /// Maximum event lanes fused into one solve (the daemon's `Par_file`
    /// key `BATCH_MAX_LANES`). 1 (the default) disables fusing — every
    /// job is dispatched as a group of one. With more lanes, a worker that
    /// dequeues a batchable serial job also claims every queued job
    /// sharing its [`BatchKey`] (same mesh, same fused-loop shape) and
    /// runs the group as one solve; each job still gets its own
    /// [`JobOutcome`], bit-identical to a run alone.
    pub batch_max_lanes: usize,
    /// How long a worker holding a non-full batch waits for more
    /// batch-mates to be submitted before solving (the daemon's
    /// `Par_file` key `BATCH_WINDOW_MS`). 0 (the default) = fuse only what
    /// is already queued, never wait.
    pub batch_window_ms: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            mesh_cache_bytes: 0,
            retry: RetryPolicy::default(),
            profile: NetworkProfile::loopback(),
            checkpoint_root: None,
            queue_capacity: 0,
            batch_max_lanes: 1,
            batch_window_ms: 0,
        }
    }
}

impl CampaignConfig {
    /// Builder-style batching control: fuse up to `lanes` compatible
    /// jobs per solve, waiting up to `window` for batch-mates.
    pub fn batching(mut self, lanes: usize, window: Duration) -> Self {
        self.batch_max_lanes = lanes.max(1);
        self.batch_window_ms = window.as_millis() as u64;
        self
    }
}

/// What happened to one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Submission index.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// Attempts made (1 = first try succeeded).
    pub attempts: usize,
    /// Seconds between submit and dispatch.
    pub queue_wait_s: f64,
    /// Seconds in the worker (mesh acquisition + all attempts).
    pub run_s: f64,
    /// How the mesh was obtained.
    pub cache: CacheOutcome,
    /// Global elements × time steps advanced (0 on failure).
    pub element_steps: u64,
    /// Worker-track start, ns since the shared trace epoch.
    pub start_ns: u64,
    /// Worker-track end, ns.
    pub end_ns: u64,
    /// The run's merged result, or the final error.
    pub result: Result<SimulationResult, String>,
    /// Comm/health/watchdog rollup across the job's ranks and attempts.
    pub telemetry: JobTelemetry,
}

struct QueuedJob {
    job: Job,
    index: usize,
    submitted: Instant,
}

struct QueueState {
    queue: Vec<QueuedJob>,
    done: bool,
    outcomes: Vec<JobOutcome>,
}

/// Where a streaming campaign's outcomes go: called on the worker thread
/// that finished the job, with no campaign lock held.
type OutcomeSink = Box<dyn Fn(JobOutcome) + Send + Sync>;

struct Shared {
    cfg: CampaignConfig,
    cache: MeshCache,
    state: Mutex<QueueState>,
    cond: Condvar,
    /// The one consumer of finished outcomes, fixed at construction:
    /// `None` collects them for [`Campaign::finish`].
    sink: Option<OutcomeSink>,
}

/// The campaign runtime: submit jobs, then [`Campaign::finish`].
pub struct Campaign {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    submitted: usize,
    widest_job_threads: usize,
    started: Instant,
}

impl Campaign {
    /// Create an idle batch campaign — every outcome comes back from
    /// [`Campaign::finish`]; workers spawn lazily as jobs arrive.
    pub fn new(cfg: CampaignConfig) -> Self {
        Self::with_sink(cfg, None)
    }

    /// Create an idle campaign that hands each [`JobOutcome`] to `sink`
    /// the instant its job completes — on the worker thread, with no
    /// campaign lock held — and keeps none: [`Campaign::finish`] returns
    /// an empty backlog. A long-running caller (the serve daemon) answers
    /// its waiting connections from here and retains nothing per job.
    pub fn streaming(
        cfg: CampaignConfig,
        sink: impl Fn(JobOutcome) + Send + Sync + 'static,
    ) -> Self {
        Self::with_sink(cfg, Some(Box::new(sink)))
    }

    fn with_sink(cfg: CampaignConfig, sink: Option<OutcomeSink>) -> Self {
        let cache = MeshCache::new(cfg.mesh_cache_bytes);
        Self {
            shared: Arc::new(Shared {
                cfg,
                cache,
                state: Mutex::new(QueueState {
                    queue: Vec::new(),
                    done: false,
                    outcomes: Vec::new(),
                }),
                cond: Condvar::new(),
                sink,
            }),
            handles: Vec::new(),
            submitted: 0,
            widest_job_threads: 1,
            started: Instant::now(),
        }
    }

    /// The worker-pool size the campaign has scaled to so far.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueue a job. Blocks while the queue is at
    /// [`CampaignConfig::queue_capacity`].
    pub fn submit(&mut self, mut job: Job) {
        if self.submitted == 0 {
            self.started = Instant::now();
        }
        // The campaign is an outermost entry point: a job arriving
        // without a correlation id gets one minted here, so everything
        // downstream (solver ranks, dossiers, timelines) can be stitched
        // back to this submission.
        if job.trace.is_none() {
            job.trace = Some(specfem_obs::TraceId::mint());
        }
        self.widest_job_threads = self.widest_job_threads.max(job.thread_footprint());
        {
            let mut st = self.shared.state.lock().unwrap();
            while self.shared.cfg.queue_capacity > 0
                && st.queue.len() >= self.shared.cfg.queue_capacity
            {
                st = self.shared.cond.wait(st).unwrap();
            }
            st.queue.push(QueuedJob {
                job,
                index: self.submitted,
                submitted: Instant::now(),
            });
        }
        self.shared.cond.notify_all();
        self.submitted += 1;
        let desired = if self.shared.cfg.workers > 0 {
            self.shared.cfg.workers
        } else {
            specfem_comm::recommended_workers(self.widest_job_threads, self.submitted)
        };
        while self.handles.len() < desired {
            let shared = self.shared.clone();
            let id = self.handles.len();
            let handle = std::thread::Builder::new()
                .name(format!("campaign-worker-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("campaign: cannot spawn worker thread");
            self.handles.push(handle);
        }
    }

    /// Declare the job stream closed, wait for every job to finish, and
    /// return outcomes (submission order) plus the campaign report. A
    /// [`Campaign::streaming`] campaign has already delivered every
    /// outcome to its sink, so it returns none here.
    pub fn finish(self) -> CampaignResult {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.done = true;
        }
        self.shared.cond.notify_all();
        for h in self.handles {
            let _ = h.join();
        }
        let mut outcomes = {
            let mut st = self.shared.state.lock().unwrap();
            std::mem::take(&mut st.outcomes)
        };
        outcomes.sort_by_key(|o| o.index);
        let total_wall_s = self.started.elapsed().as_secs_f64();
        let cache = self.shared.cache.stats();
        let workers = outcomes
            .iter()
            .map(|o| o.worker + 1)
            .max()
            .unwrap_or_default();
        let report = CampaignReport::build(&outcomes, workers, total_wall_s, cache.clone());
        CampaignResult {
            outcomes,
            cache,
            report,
        }
    }
}

/// Everything [`Campaign::finish`] returns.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-job outcomes, submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Mesh-cache counters.
    pub cache: CacheStats,
    /// The aggregate report (text / JSON rendering).
    pub report: CampaignReport,
}

impl CampaignResult {
    /// Whether every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Merged Perfetto timeline: one track per worker, one event per job
    /// (timestamps share the process trace epoch, so rank-level traces
    /// recorded in the same process line up with these).
    pub fn perfetto_json(&self) -> String {
        let nworkers = self
            .outcomes
            .iter()
            .map(|o| o.worker + 1)
            .max()
            .unwrap_or_default();
        let mut tracks: Vec<Track> = (0..nworkers)
            .map(|w| Track {
                name: format!("worker {w}"),
                tid: w,
                events: Vec::new(),
            })
            .collect();
        for o in &self.outcomes {
            tracks[o.worker].events.push(TrackEvent {
                name: format!(
                    "{} [{}{}]",
                    o.name,
                    o.cache.as_str(),
                    if o.attempts > 1 {
                        format!(", {} attempts", o.attempts)
                    } else {
                        String::new()
                    }
                ),
                start_ns: o.start_ns,
                dur_ns: o.end_ns.saturating_sub(o.start_ns),
                depth: 0,
            });
        }
        specfem_obs::perfetto_tracks(&tracks)
    }
}

/// The index of the next job to dispatch — highest priority first,
/// submission order within a priority — or `None` when the queue is empty.
fn pick_index(queue: &[QueuedJob]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .min_by_key(|(_, q)| (Reverse(q.job.priority), q.index))
        .map(|(i, _)| i)
}

fn worker_loop(shared: Arc<Shared>, worker_id: usize) {
    loop {
        let batch: Vec<QueuedJob> = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(i) = pick_index(&st.queue) {
                    let primary = st.queue.remove(i);
                    let mut group = vec![primary];
                    let max_lanes = shared
                        .cfg
                        .batch_max_lanes
                        .min(specfem_core::kernels::MAX_BATCH_LANES);
                    if max_lanes > 1 {
                        if let Some(key) = packer::batch_key(&group[0].job) {
                            // Greedy pack from the live queue; with a
                            // window configured, keep the claim open for
                            // late-arriving batch-mates.
                            let deadline =
                                Instant::now() + Duration::from_millis(shared.cfg.batch_window_ms);
                            loop {
                                let room = max_lanes - group.len();
                                group.extend(claim_batch_mates(
                                    &mut st.queue,
                                    |q| packer::batch_key(&q.job),
                                    key,
                                    room,
                                ));
                                if group.len() >= max_lanes || st.done {
                                    break;
                                }
                                let now = Instant::now();
                                if now >= deadline {
                                    break;
                                }
                                let (guard, _timeout) =
                                    shared.cond.wait_timeout(st, deadline - now).unwrap();
                                st = guard;
                            }
                        }
                    }
                    // Queue slots freed: wake blocked submitters.
                    shared.cond.notify_all();
                    break group;
                }
                if st.done {
                    return;
                }
                st = shared.cond.wait(st).unwrap();
            }
        };
        let outcomes = run_group(&shared, worker_id, batch);
        match &shared.sink {
            Some(sink) => outcomes.into_iter().for_each(sink),
            None => shared.state.lock().unwrap().outcomes.extend(outcomes),
        }
        // The batch's mesh Arc is dropped: admission-control waiters may
        // now be able to evict it.
        shared.cache.notify_released();
        shared.cond.notify_all();
    }
}

/// One job of a dispatched group, from claim to outcome.
struct Member {
    queued: QueuedJob,
    queue_wait_s: f64,
    attempts: usize,
    /// Rolled up across attempts; `final_world` doubles as the
    /// shrink-to-survive world override of the next attempt.
    telemetry: JobTelemetry,
    /// `Some` once the job has succeeded or run out of attempts.
    result: Option<Result<SimulationResult, String>>,
}

impl Member {
    /// Record a failed attempt — structured cause and dossier into the
    /// telemetry — and either arm the next one (`true`: run me again) or
    /// make `message` the job's final error.
    fn failed(&mut self, message: String, failure: Option<&RunFailure>, again: bool) -> bool {
        if let Some(RunFailure { error, dossier }) = failure {
            roll_up_error(&mut self.telemetry, error);
            if let Some(path) = dossier {
                self.telemetry.dossier = Some(path.display().to_string());
            }
        }
        if !again {
            self.result = Some(Err(message));
        } else if self.queued.job.mode == JobMode::Distributed
            && failure.is_some_and(|f| f.error.peer_lost())
        {
            // Shrink-to-survive: one rank is gone, so re-admit the
            // survivors on a world one rank smaller instead of replaying
            // the same doomed decomposition. The merged checkpoint
            // container is rank-count independent — the shrunken world
            // resumes from the last good generation.
            let cur = self
                .telemetry
                .final_world
                .unwrap_or(self.telemetry.native_world);
            let next = cur.saturating_sub(1).max(1);
            if next < cur {
                self.telemetry.final_world = Some(next);
                self.telemetry.shrink_path.push(next);
                specfem_obs::counter_add("campaign.world_shrinks", 1);
            }
        }
        again
    }
}

/// The job driver, written once for any group size: run the K ≥ 1 jobs a
/// worker claimed together — one job, or K serial jobs sharing one
/// [`BatchKey`] — to one [`JobOutcome`] each.
///
/// Attempt 1 runs the whole group as the K lanes of one
/// `specfem_core::run_group` solve. A member whose lane fails (a health
/// trip poisons only its own lane) retries alone under the
/// [`RetryPolicy`]; when the solve fails *as a whole* (dead rank, comm
/// failure, panic), that was attempt 1 of every member and each continues
/// as a one-lane group from attempt 2. Every attempt after a member's
/// first runs with the fault plan stripped and, when alone under a
/// checkpoint root, resumes from its newest checkpoint. A fused whole-solve
/// failure always grants that second attempt, whatever `max_retries` says:
/// fusing is an optimization and must never cost a job that would have
/// succeeded alone.
///
/// What the fused loop physically shares is reported once: comm/flops on
/// the first healthy lane (see `specfem_core::run_group`), the real
/// mesh-cache outcome on member 0 (siblings are `Hit` — they shared its
/// acquisition), and one crash dossier per incident, which every member
/// the incident failed points at. A group's dossiers land in its first
/// member's checkpoint directory.
fn run_group(shared: &Shared, worker: usize, group: Vec<QueuedJob>) -> Vec<JobOutcome> {
    let start_ns = specfem_obs::timestamp_ns();
    let t0 = Instant::now();
    let _span = specfem_obs::span("campaign.group");
    let retry = shared.cfg.retry;
    let mut members: Vec<Member> = group
        .into_iter()
        .map(|queued| Member {
            queue_wait_s: queued.submitted.elapsed().as_secs_f64(),
            attempts: 0,
            telemetry: JobTelemetry {
                trace_id: queued.job.trace.map(|t| t.hex()),
                native_world: queued.job.thread_footprint(),
                ..JobTelemetry::default()
            },
            result: None,
            queued,
        })
        .collect();
    // Acquired inside an attempt so a panicking mesh build is caught —
    // and retried — like any other failure; every member shares the
    // lead's mesh key.
    let mut mesh: Option<(Arc<specfem_core::GlobalMesh>, CacheOutcome)> = None;
    let mut work = VecDeque::from([(0..members.len()).collect::<Vec<usize>>()]);
    while let Some(lanes) = work.pop_front() {
        let fused = lanes.len() > 1;
        let attempt = members[lanes[0]].attempts + 1;
        if attempt > 1 {
            std::thread::sleep(retry.backoff * (attempt - 1) as u32);
        }
        let sims: Vec<Simulation> = lanes
            .iter()
            .map(|&m| {
                let member = &mut members[m];
                member.attempts = attempt;
                member.telemetry.batch_lanes = if fused { lanes.len() } else { 0 };
                let job = &member.queued.job;
                let mut sim = job.sim.clone();
                sim.config.trace_id = job.trace;
                if attempt > 1 {
                    // The fault plan had its chance; retries run clean and,
                    // when checkpointing, resume where the fault struck.
                    sim.config.fault_plan = None;
                }
                sim
            })
            .collect();
        let lead = &members[lanes[0]];
        let job = &lead.queued.job;
        let dir = shared
            .cfg
            .checkpoint_root
            .as_ref()
            .map(|root| root.join(sanitize(&job.name)));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let (mesh, _) = mesh.get_or_insert_with(|| {
                shared.cache.get_or_build(
                    &job.sim.mesh_key(),
                    &job.sim.params,
                    job.sim.estimated_mesh_bytes(),
                    || {
                        #[cfg(test)]
                        tests::injected_build_failure(&job.name);
                        job.sim.build_mesh().0
                    },
                )
            });
            let opts = RunOptions {
                profile: match job.mode {
                    JobMode::Serial => None,
                    JobMode::Distributed => Some(shared.cfg.profile),
                },
                // Checkpoints hold one lane: only a job running alone
                // writes and resumes them.
                checkpoint_dir: dir.as_deref().filter(|_| !fused),
                resume: dir.is_some() && !fused,
                world: lead.telemetry.final_world,
                dossier_dir: dir.as_deref(),
            };
            specfem_core::run_group(&sims.iter().collect::<Vec<_>>(), mesh, opts, None)
        }));
        // The solve as a whole failed: the message each outcome would
        // report, plus the typed failure when the solver produced one.
        let (per_lane, whole) = match ran {
            Ok(Ok(per_lane)) => (per_lane, None),
            Ok(Err(failure)) => (Vec::new(), Some((failure.error.to_string(), Some(failure)))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".into());
                (Vec::new(), Some((format!("job panicked: {msg}"), None)))
            }
        };
        if fused {
            match &whole {
                None => specfem_obs::counter_add("campaign.batched_jobs", lanes.len() as u64),
                Some((message, _)) => {
                    specfem_obs::counter_add("campaign.batch_fallbacks", 1);
                    eprintln!(
                        "warning: fused solve of {} jobs failed, continuing them alone: {message}",
                        lanes.len()
                    );
                }
            }
        }
        let retries_left = attempt <= retry.max_retries;
        for (&m, lane) in lanes.iter().zip(per_lane) {
            let member = &mut members[m];
            match lane {
                Ok(res) => {
                    roll_up_result(&mut member.telemetry, &res);
                    member.result = Some(Ok(res));
                }
                Err(failure) => {
                    let message = failure.error.to_string();
                    if member.failed(message, Some(&failure), retries_left) {
                        work.push_back(vec![m]);
                    }
                }
            }
        }
        if let Some((message, failure)) = &whole {
            let again = retries_left || fused;
            for &m in &lanes {
                if members[m].failed(message.clone(), failure.as_ref(), again) {
                    work.push_back(vec![m]);
                }
            }
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    let end_ns = specfem_obs::timestamp_ns();
    let nspec = mesh.as_ref().map_or(0, |(mesh, _)| mesh.nspec as u64);
    members
        .into_iter()
        .enumerate()
        .map(|(m, member)| {
            let job = member.queued.job;
            let result = member.result.expect("every member ends with a result");
            specfem_obs::counter_add("campaign.jobs_finished", 1);
            JobOutcome {
                name: job.name,
                index: member.queued.index,
                worker,
                attempts: member.attempts,
                queue_wait_s: member.queue_wait_s,
                run_s,
                cache: match mesh {
                    Some((_, outcome)) if m == 0 => outcome,
                    Some(_) => CacheOutcome::Hit,
                    None => CacheOutcome::Miss,
                },
                element_steps: if result.is_ok() {
                    nspec * job.sim.config.nsteps as u64
                } else {
                    0
                },
                start_ns,
                end_ns,
                result,
                telemetry: member.telemetry,
            }
        })
        .collect()
}

/// Fold a finished run's comm counters, per-tag traffic, recv-wait
/// histogram, and watchdog report into the job's telemetry rollup.
fn roll_up_result(t: &mut JobTelemetry, res: &SimulationResult) {
    for r in &res.ranks {
        t.bytes_sent += r.comm.bytes_sent;
        t.bytes_received += r.comm.bytes_received;
        t.messages_sent += r.comm.messages_sent;
        t.collectives += r.comm.collectives;
        t.merge_tags(&r.comm.per_tag);
        if let Some(lts) = &r.lts {
            t.lts_max_rate = Some(lts.max_rate);
            t.lts_element_steps_saved += lts.element_steps_saved;
        }
        if let Some(profile) = &r.profile {
            if let Some(h) = profile.metrics.histograms.get("comm.recv_wait_ns") {
                t.recv_wait_ns.get_or_insert_with(Default::default).merge(h);
            }
        }
    }
    if let Some(wd) = &res.watchdog {
        t.watchdog_max_skew_steps = Some(wd.max_skew_steps);
        for s in &wd.stalls {
            if !t.watchdog_stalled_ranks.contains(&s.rank) {
                t.watchdog_stalled_ranks.push(s.rank);
            }
        }
    }
}

/// Record the structured cause of a failed attempt (health trip, watchdog
/// stall) before it is flattened to the outcome's error string.
fn roll_up_error(t: &mut JobTelemetry, e: &specfem_core::solver::SolverError) {
    use specfem_core::solver::FailureClass;
    match (e.class(), e.coordinates().0) {
        (FailureClass::Health, _) if t.health_trip.is_none() => {
            // A health error displays as its report.
            t.health_trip = Some(e.to_string());
        }
        (FailureClass::Stall, Some(rank)) if !t.watchdog_stalled_ranks.contains(&rank) => {
            t.watchdog_stalled_ranks.push(rank);
        }
        _ => {}
    }
}

/// Make a job name safe as a checkpoint directory component.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_core::comm::FaultPlan;
    use specfem_core::model::builtin_events;
    use specfem_core::{SourceSpec, SourceTimeFunction, StfKind};

    fn tiny_sim(nex: usize, steps: usize, event_idx: usize) -> Simulation {
        let events = builtin_events();
        let event = events[event_idx % events.len()].clone();
        Simulation::builder()
            .resolution(nex)
            .steps(steps)
            .stations(3)
            .source(SourceSpec::Cmt {
                event,
                stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn shared_mesh_catalogue_builds_once() {
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 2,
            ..CampaignConfig::default()
        });
        for i in 0..5 {
            campaign.submit(Job::new(format!("event_{i}"), tiny_sim(4, 5, i)));
        }
        // A distributed job exercises the telemetry rollup with real
        // inter-rank traffic (serial jobs legitimately report 0 bytes).
        campaign.submit(Job::new("event_dist", tiny_sim(4, 5, 5)).distributed());
        let result = campaign.finish();
        assert!(result.all_ok(), "{:#?}", result.report.render_text());
        assert_eq!(result.outcomes.len(), 6);
        assert_eq!(result.cache.misses, 1);
        assert_eq!(result.cache.hits, 5);
        assert!(result.report.total_element_steps > 0);
        let json = result.report.to_json();
        assert!(json.contains("\"element_steps_per_s\""));
        assert!(json.contains("\"cache\""));
        // Per-job comm telemetry rides along in the campaign JSON.
        assert!(json.contains("\"comm\""));
        assert!(json.contains("\"per_tag\""));
        let first = result.outcomes[0].result.as_ref().unwrap();
        let expect_bytes: u64 = first.ranks.iter().map(|r| r.comm.bytes_sent).sum();
        assert_eq!(result.outcomes[0].telemetry.bytes_sent, expect_bytes);
        let dist = &result.outcomes[5];
        let dist_res = dist.result.as_ref().unwrap();
        let dist_bytes: u64 = dist_res.ranks.iter().map(|r| r.comm.bytes_sent).sum();
        assert!(dist_bytes > 0, "distributed job must move halo bytes");
        assert_eq!(dist.telemetry.bytes_sent, dist_bytes);
        assert!(
            !dist.telemetry.per_tag.is_empty(),
            "per-tag traffic must roll up for distributed jobs"
        );
        let perfetto = result.perfetto_json();
        assert!(perfetto.contains("worker 0"));
        assert!(perfetto.contains("event_0"));
    }

    #[test]
    fn injected_kill_retries_to_bit_identical_seismograms() {
        let ckpt = std::env::temp_dir().join("specfem_campaign_retry_ckpt");
        let _ = std::fs::remove_dir_all(&ckpt);
        let clean = tiny_sim(4, 20, 0);
        let expected = clean.run_serial();

        let mut faulty = clean.clone();
        faulty.config.checkpoint_every = 5;
        faulty.config.fault_plan = Some(FaultPlan::new(7).kill(0, 12));
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 1,
            checkpoint_root: Some(ckpt.clone()),
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("faulty", faulty));
        let result = campaign.finish();
        assert!(result.all_ok(), "{}", result.report.render_text());
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.attempts, 2, "the kill must actually fire");
        let got = outcome.result.as_ref().unwrap();
        assert_eq!(got.seismograms.len(), expected.seismograms.len());
        for (g, e) in got.seismograms.iter().zip(&expected.seismograms) {
            assert_eq!(g.station, e.station);
            assert_eq!(g.data, e.data, "station {} diverged", g.station);
        }
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn dead_rank_shrinks_the_world_and_finishes() {
        // A distributed job loses a rank mid-run; shrink-to-survive must
        // re-admit the retry on a world one rank smaller, resume it from
        // the merged (rank-count-independent) checkpoint, and record the
        // degradation in the telemetry and report.
        let ckpt = std::env::temp_dir().join("specfem_campaign_shrink_ckpt");
        let _ = std::fs::remove_dir_all(&ckpt);
        let clean = tiny_sim(4, 20, 0);
        let expected = clean.run_serial();

        let mut faulty = clean.clone();
        faulty.config.checkpoint_every = 5;
        faulty.config.fault_plan = Some(FaultPlan::new(11).kill(2, 12));
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 1,
            checkpoint_root: Some(ckpt.clone()),
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("elastic", faulty).distributed());
        let result = campaign.finish();
        assert!(result.all_ok(), "{}", result.report.render_text());
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.attempts, 2, "the kill must actually fire");
        let t = &outcome.telemetry;
        assert_eq!(t.native_world, 6);
        assert_eq!(t.final_world, Some(5), "retry must re-admit on 5 ranks");
        assert_eq!(t.shrink_path, vec![5]);
        assert_eq!(result.report.shrunk_jobs, 1);
        let got = outcome.result.as_ref().unwrap();
        assert_eq!(got.ranks.len(), 5, "final attempt ran the shrunken world");
        assert_eq!(got.seismograms.len(), expected.seismograms.len());
        for (e, g) in expected.seismograms.iter().zip(&got.seismograms) {
            assert_eq!(e.station, g.station);
            let scale = e
                .data
                .iter()
                .flat_map(|v| v.iter())
                .fold(0.0f32, |m, &x| m.max(x.abs()))
                .max(1e-20);
            for (ve, vg) in e.data.iter().zip(&g.data) {
                for c in 0..3 {
                    assert!(
                        (ve[c] - vg[c]).abs() <= 2e-3 * scale,
                        "station {}: serial {} vs shrunken {} (scale {scale})",
                        e.station,
                        ve[c],
                        vg[c]
                    );
                }
            }
        }
        let json = result.report.to_json();
        assert!(json.contains("\"shrunk_jobs\": 1"));
        assert!(json.contains("\"elastic\""));
        assert!(json.contains("\"final_world\": 5"));
        assert!(result.report.render_text().contains("shrunken world"));
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn unstable_dt_trips_the_health_monitor_and_rolls_up() {
        // A dt far past the Courant bound makes the explicit scheme blow
        // up; the health monitor must abort the job and the campaign
        // report must carry the structured trip.
        let mut sim = tiny_sim(4, 500, 0);
        sim.config.dt = Some(1000.0);
        sim.config.health_every = 5;
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 0,
                backoff: Duration::from_millis(1),
            },
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("unstable", sim));
        let result = campaign.finish();
        assert!(!result.all_ok());
        assert_eq!(result.report.health_trips, 1);
        let trip = result.outcomes[0]
            .telemetry
            .health_trip
            .as_ref()
            .expect("the health monitor must have tripped");
        assert!(trip.contains("rank 0"), "{trip}");
        assert!(trip.contains("step"), "{trip}");
        let json = result.report.to_json();
        assert!(json.contains("\"health_trips\": 1"));
        assert!(json.contains("\"health_trip\""));
    }

    /// Jobs whose next mesh build panics, by name (each entry fires once).
    static FAILING_BUILDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Test seam in `run_group`'s mesh builder.
    pub(super) fn injected_build_failure(job: &str) {
        let mut failing = FAILING_BUILDS.lock().unwrap();
        if let Some(at) = failing.iter().position(|name| name == job) {
            failing.remove(at);
            drop(failing);
            panic!("injected mesh-build failure");
        }
    }

    #[test]
    fn panicking_mesh_build_is_retried_like_any_other_failure() {
        // The first build of the job's mesh panics. The cache must give the
        // key back, the job must get its second attempt, and a neighbour
        // asking for the same mesh must not sleep on the abandoned build.
        FAILING_BUILDS.lock().unwrap().push("flaky-mesh".into());
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 2,
            retry: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(1),
            },
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("flaky-mesh", tiny_sim(4, 5, 0)));
        // The injection is consumed as flaky-mesh's build starts; a
        // neighbour submitted any earlier could win the build instead and
        // leave the failure unfired.
        let submitted = Instant::now();
        while FAILING_BUILDS
            .lock()
            .unwrap()
            .iter()
            .any(|n| n == "flaky-mesh")
        {
            assert!(
                submitted.elapsed() < Duration::from_secs(120),
                "flaky-mesh never reached its mesh build"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        campaign.submit(Job::new("neighbour", tiny_sim(4, 5, 1)));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(campaign.finish()).unwrap());
        let result = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("campaign hung behind a mesh build that panicked");
        assert!(result.all_ok(), "{:?}", result.report.to_json());
        let flaky = result
            .outcomes
            .iter()
            .find(|o| o.name == "flaky-mesh")
            .unwrap();
        assert_eq!(flaky.attempts, 2);
        let cache = &result.report.cache;
        assert_eq!(
            cache.misses, 1,
            "the mesh is built once, by whoever asks next"
        );
    }

    #[test]
    fn failed_jobs_surface_without_sinking_the_campaign() {
        // A fault-injected job with retries disabled and no checkpoints
        // must fail; its neighbours must still succeed.
        let mut bad = tiny_sim(4, 20, 0);
        bad.config.fault_plan = Some(FaultPlan::new(3).kill(0, 5));
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 2,
            retry: RetryPolicy {
                max_retries: 0,
                backoff: Duration::from_millis(1),
            },
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("bad", bad));
        campaign.submit(Job::new("good", tiny_sim(4, 5, 1)));
        let result = campaign.finish();
        assert!(!result.all_ok());
        assert_eq!(result.report.failed_jobs, 1);
        let bad = result.outcomes.iter().find(|o| o.name == "bad").unwrap();
        assert!(bad.result.is_err());
        let good = result.outcomes.iter().find(|o| o.name == "good").unwrap();
        assert!(good.result.is_ok());
        let json = result.report.to_json();
        assert!(json.contains("\"error\""));
    }

    #[test]
    fn backpressure_bounds_the_queue_and_everything_completes() {
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 1,
            queue_capacity: 1,
            ..CampaignConfig::default()
        });
        for i in 0..3 {
            campaign.submit(Job::new(format!("bp{i}"), tiny_sim(4, 3, i)));
        }
        let result = campaign.finish();
        assert!(result.all_ok());
        assert_eq!(result.outcomes.len(), 3);
        // Outcomes come back in submission order regardless of execution.
        let idx: Vec<usize> = result.outcomes.iter().map(|o| o.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn streamed_outcomes_keep_the_pool_alive() {
        // The daemon's usage pattern: outcomes are consumed as they
        // complete while the worker pool stays up, more jobs are submitted
        // afterwards, and finish() is only called at shutdown.
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let mut campaign = Campaign::streaming(
            CampaignConfig {
                workers: 1,
                ..CampaignConfig::default()
            },
            move |o| tx.lock().unwrap().send(o).unwrap(),
        );
        let next = || {
            rx.recv_timeout(Duration::from_secs(120))
                .expect("jobs wedged")
        };
        campaign.submit(Job::new("d0", tiny_sim(4, 3, 0)));
        campaign.submit(Job::new("d1", tiny_sim(4, 3, 1)));
        // One worker: delivered by value, once each, in dispatch order.
        let first = [next(), next()];
        assert_eq!(first[0].name, "d0");
        assert_eq!(first[1].name, "d1");
        assert!(first.iter().all(|o| o.result.is_ok()));
        // The pool is still alive: a third job runs on the same worker.
        campaign.submit(Job::new("d2", tiny_sim(4, 3, 2)));
        let third = next();
        assert_eq!((third.name.as_str(), third.worker), ("d2", 0));
        assert_eq!(campaign.workers(), 1);
        // finish() still works; everything went to the sink, nothing is
        // kept or delivered twice.
        let result = campaign.finish();
        assert!(result.outcomes.is_empty());
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn priorities_order_the_backlog() {
        // With a saturated single worker, the high-priority job leaves
        // the queue before the earlier-submitted low-priority one.
        let mut campaign = Campaign::new(CampaignConfig {
            workers: 1,
            ..CampaignConfig::default()
        });
        campaign.submit(Job::new("first", tiny_sim(4, 10, 0)));
        campaign.submit(Job::new("low", tiny_sim(4, 3, 1)).priority(-1));
        campaign.submit(Job::new("high", tiny_sim(4, 3, 2)).priority(1));
        let result = campaign.finish();
        assert!(result.all_ok());
        let pos = |name: &str| result.outcomes.iter().position(|o| o.name == name).unwrap();
        // Outcomes are submission-ordered; compare dispatch times instead.
        let high_wait = result.outcomes[pos("high")].queue_wait_s;
        let low_wait = result.outcomes[pos("low")].queue_wait_s;
        // "high" was submitted after "low" yet dispatched no later.
        assert!(high_wait <= low_wait + 1e-3);
    }
}
