//! `specfem-serve` — synthetics as a service.
//!
//! The paper's workflow is batch: configure, mesh, solve, collect
//! seismograms. This crate wraps the same [`Simulation`] pipeline in a
//! long-running daemon so repeated queries — the common case for
//! catalogue events and fixed station networks — are answered from a
//! **content-addressed result cache** instead of re-solved:
//!
//! * requests arrive over plain HTTP/1.1 ([`http`]) as JSON bodies,
//!   validated into typed 4xx errors ([`request`]) — no payload panics
//!   the daemon or silently defaults;
//! * each request is keyed by [`Simulation::result_key`] — a fingerprint
//!   of everything that determines the answer (geometry, model, source,
//!   stations, solver knobs) and nothing that doesn't (deadlines,
//!   checkpoint cadence, telemetry);
//! * misses are admitted through `specfem-campaign`'s priority scheduler
//!   and worker pool; identical concurrent requests **single-flight**
//!   into one solve, and every waiter is answered from the same cached
//!   value;
//! * with `BATCH_MAX_LANES > 1`, *distinct* concurrent misses that share
//!   a mesh and timeloop shape (different earthquakes or station sets)
//!   fuse into the lanes of one solve via the campaign's batch packer —
//!   one mesh build and one time loop answer K requests, each lane
//!   bit-identical to its single-event answer and traced like one (the
//!   daemon's tracing and request deadlines ride along);
//! * results land in a two-tier [`ResultCache`] (LRU memory + SFCN disk
//!   containers), so repeats are O(1) and survive daemon restarts;
//! * per-request deadlines bound the wait: the connection times its own
//!   wait and gets a typed `504 {"error":{"code":"deadline"}}` instead of
//!   hanging, while the solve runs on and is cached for the next asker;
//! * `/health` and `/metrics` expose liveness, cache counters, and the
//!   process-global `specfem-obs` registry; completed solves are
//!   batched into run-ledger records.
//!
//! Threads: the accept loop, one short-lived thread per connection, and
//! the campaign's workers — nothing in between. A connection thread hands
//! its [`Job`] straight to the [`Campaign`] the daemon owns, and the
//! worker that finishes it calls the daemon back with the
//! [`JobOutcome`] by value: `GET /jobs` row, stitched timeline, ledger
//! accounting, cache put, waiters woken. The daemon keeps no outcome.
//!
//! The protocol walkthrough lives in the workspace README ("Serving");
//! the load-test harness is `specfem-bench`'s `serve_load` binary
//! (EXPERIMENTS.md E-SERVE).

pub mod http;
pub mod request;

pub use request::{parse_request, ServeError, SimRequest};

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use specfem_campaign::{Campaign, CampaignConfig, Job, JobOutcome};
use specfem_core::obs::ledger::{self, LedgerMachine, LedgerRecord, LEDGER_SCHEMA_VERSION};
use specfem_core::Simulation;
use specfem_io::{CachedResult, ResultCache, ResultCacheOutcome, ResultKey};
use specfem_obs::{
    global_counter_add, global_hist_record, global_snapshot, json_escape, metrics_json,
    perfetto_tracks, TraceId, Track, TrackEvent,
};

/// Daemon configuration. [`ServeConfig::from_parfile`] reads the Par_file
/// keys (`SERVE_ADDR`, `RESULT_CACHE_BYTES`, `REQUEST_DEADLINE_MS`,
/// `BATCH_MAX_LANES`, `BATCH_WINDOW_MS`) into it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Memory-tier budget for the result cache.
    pub result_cache_bytes: usize,
    /// Default per-request deadline (`None` = wait forever); requests
    /// can override it with `deadline_ms`.
    pub request_deadline: Option<Duration>,
    /// Campaign worker-pool size; 0 = auto.
    pub workers: usize,
    /// Root for on-disk state; the result cache lives in
    /// `<data_dir>/results`.
    pub data_dir: PathBuf,
    /// Append a run-ledger record here after every
    /// [`ServeConfig::ledger_batch`] solves (and at shutdown); `None`
    /// disables the ledger.
    pub ledger_dir: Option<PathBuf>,
    /// Solves per ledger record.
    pub ledger_batch: usize,
    /// Max event lanes per fused solve (`BATCH_MAX_LANES`); 1 keeps
    /// every solve single-lane. Requests for the same mesh and
    /// timeloop shape but different sources/stations fuse into one
    /// K-event solve (bit-identical per lane to the serial answer).
    pub batch_max_lanes: usize,
    /// How long a worker holds an underfull batch open waiting for
    /// fusable queue mates (`BATCH_WINDOW_MS`); 0 = only fuse what is
    /// already queued.
    pub batch_window_ms: u64,
}

impl ServeConfig {
    /// Read the daemon's keys from Par_file text, plus a state directory.
    /// Every key is optional; an absent one keeps its default:
    ///
    /// ```text
    /// SERVE_ADDR          = 127.0.0.1:7460  # listen address
    /// RESULT_CACHE_BYTES  = 64M             # result-cache memory tier (K/M/G ok)
    /// REQUEST_DEADLINE_MS = 30000           # per-request deadline, 0 = none
    /// BATCH_MAX_LANES     = 1               # events fused per solve, 1 = batching off
    /// BATCH_WINDOW_MS     = 0               # wait for batch-mates before solving
    /// ```
    ///
    /// Keys of other readers are ignored, so one file can configure the
    /// simulations and the daemon serving them.
    pub fn from_parfile(text: &str, data_dir: impl Into<PathBuf>) -> Result<Self, String> {
        let pairs = specfem_core::parfile::parse_pairs(text);
        let get = |key: &str| -> Option<&str> {
            pairs
                .iter()
                .rev() // last assignment wins
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        let millis = |key: &str| -> Result<Option<u64>, String> {
            get(key)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{key}: not a millisecond count: {v}"))
                })
                .transpose()
        };
        let mut cfg = Self {
            addr: "127.0.0.1:7460".to_string(),
            result_cache_bytes: 64 << 20,
            request_deadline: Some(Duration::from_millis(30_000)),
            workers: 0,
            data_dir: data_dir.into(),
            ledger_dir: None,
            ledger_batch: 32,
            batch_max_lanes: 1,
            batch_window_ms: 0,
        };
        if let Some(v) = get("SERVE_ADDR") {
            cfg.addr = v.to_string();
        }
        if let Some(v) = get("RESULT_CACHE_BYTES") {
            cfg.result_cache_bytes = parse_bytes("RESULT_CACHE_BYTES", v)?;
        }
        if let Some(ms) = millis("REQUEST_DEADLINE_MS")? {
            cfg.request_deadline = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(v) = get("BATCH_MAX_LANES") {
            let max = specfem_core::kernels::MAX_BATCH_LANES;
            cfg.batch_max_lanes = match v.parse() {
                Ok(lanes) if (1..=max).contains(&lanes) => lanes,
                Ok(_) => return Err(format!("BATCH_MAX_LANES: must be in 1..={max}, got {v}")),
                Err(_) => return Err(format!("BATCH_MAX_LANES: not a lane count: {v}")),
            };
        }
        if let Some(ms) = millis("BATCH_WINDOW_MS")? {
            cfg.batch_window_ms = ms;
        }
        Ok(cfg)
    }
}

/// Parse a byte count with an optional `K`/`M`/`G` (or `KB`/`MB`/`GB`)
/// suffix, case-insensitive: `512M` → 536870912.
fn parse_bytes(key: &str, v: &str) -> Result<usize, String> {
    let upper = v.trim().to_uppercase();
    let (digits, shift) = match upper.strip_suffix("KB").or(upper.strip_suffix('K')) {
        Some(d) => (d, 10),
        None => match upper.strip_suffix("MB").or(upper.strip_suffix('M')) {
            Some(d) => (d, 20),
            None => match upper.strip_suffix("GB").or(upper.strip_suffix('G')) {
                Some(d) => (d, 30),
                None => (upper.as_str(), 0),
            },
        },
    };
    let n: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("{key}: not a byte count: {v}"))?;
    n.checked_mul(1 << shift)
        .ok_or_else(|| format!("{key}: byte count overflows: {v}"))
}

/// What a waiter on an in-flight solve receives.
type WaitReply = Result<Arc<CachedResult>, String>;

/// One in-flight solve: the key its answer will be cached under, and
/// the connections waiting for it.
type InFlight = (ResultKey, Vec<Sender<WaitReply>>);

/// Outcome of admission: a cache hit that raced in (`Ok`), or the
/// channel this request must wait on (`Err`).
type Admission = Result<(Arc<CachedResult>, ResultCacheOutcome), Receiver<WaitReply>>;

/// Batched ledger accounting for completed solves.
struct LedgerSink {
    dir: PathBuf,
    batch: usize,
    state: Mutex<LedgerBatch>,
}

struct LedgerBatch {
    started: Instant,
    solves: u64,
    failures: u64,
    element_steps: u64,
}

/// Completed solves the `GET /jobs` endpoint remembers (newest last).
const JOB_LOG_CAPACITY: usize = 256;
/// Stitched per-request timelines `GET /trace/<id>` can answer.
const TRACE_STORE_CAPACITY: usize = 64;

/// One completed solve, as `GET /jobs` reports it.
struct JobSummary {
    name: String,
    trace_id: Option<String>,
    ok: bool,
    error: Option<String>,
    attempts: usize,
    run_s: f64,
    element_steps: u64,
    dossier: Option<String>,
}

/// Shared daemon state: the cache, the single-flight table, and the
/// worker pool.
struct Engine {
    cache: ResultCache,
    /// Single-flight table, by the name of each submitted, unfinished job.
    inflight: Mutex<HashMap<String, InFlight>>,
    /// The worker pool; `None` once shutdown has run it down. Never
    /// locked while holding `inflight`, which the workers' sink takes.
    campaign: Mutex<Option<Campaign>>,
    default_deadline: Option<Duration>,
    shutdown: AtomicBool,
    /// Where [`Engine::stop`] connects to wake the accept thread: the
    /// bound address, with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    started: Instant,
    requests: AtomicU64,
    solves: AtomicU64,
    solve_errors: AtomicU64,
    workers: usize,
    ledger: Option<LedgerSink>,
    /// Ring of recent solve outcomes (`GET /jobs`).
    jobs_log: Mutex<VecDeque<JobSummary>>,
    /// Ring of `(trace id hex, stitched Perfetto JSON)` per traced solve
    /// (`GET /trace/<id>`).
    traces: Mutex<VecDeque<(String, String)>>,
}

impl Engine {
    /// Raise the shutdown flag, then wake the accept thread out of its
    /// blocking `accept` with one throw-away connection to the daemon's
    /// own port. The loop reads the flag after every `accept` returns,
    /// so the flag is always seen, whoever the wake-up was.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Refused once the listener is closed: then nothing needs waking.
        // Any other failure (no descriptor or local port free) would leave
        // the loop blocked for good, so it is tried again.
        while let Err(e) = TcpStream::connect(self.wake_addr) {
            if e.kind() == ErrorKind::ConnectionRefused {
                break;
            }
            global_counter_add("serve.wake_retries", 1);
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The campaign's outcome sink, called on the worker thread that
    /// finished the job: remember it for `GET /jobs` and `/trace/<id>`,
    /// publish the answer to the cache, wake the connections waiting on
    /// it, and account it in the ledger. The outcome is consumed here.
    fn complete(&self, outcome: JobOutcome) {
        self.record_job(&outcome);
        let failed = outcome.result.is_err();
        let key = self.inflight.lock().unwrap()[&outcome.name].0;
        let reply = match outcome.result {
            Ok(res) => {
                self.solves.fetch_add(1, Ordering::Relaxed);
                global_counter_add("serve.solves", 1);
                let cached = CachedResult {
                    seismograms: res.seismograms,
                    element_steps: outcome.element_steps,
                };
                match self.cache.put(key, cached.clone()) {
                    Ok(arc) => Ok(arc),
                    // A full disk must not fail the request: serve the
                    // fresh result and let the next query re-solve.
                    Err(e) => {
                        global_counter_add("serve.cache_put_errors", 1);
                        eprintln!("serve: result cache put failed for {}: {e}", key.hex());
                        Ok(Arc::new(cached))
                    }
                }
            }
            Err(msg) => {
                self.solve_errors.fetch_add(1, Ordering::Relaxed);
                global_counter_add("serve.solve_errors", 1);
                Err(msg)
            }
        };
        // The put came first: a request that misses the cache from here
        // on finds either the value or — under this lock — the entry.
        let (_, waiters) = self
            .inflight
            .lock()
            .unwrap()
            .remove(&outcome.name)
            .expect("entry outlives its job");
        for tx in waiters {
            // A waiter that already timed out dropped its receiver; that
            // is its business, not an error here.
            let _ = tx.send(reply.clone());
        }
        self.record_outcome(outcome.element_steps, failed);
    }

    /// Fold one finished job into the current ledger batch, flushing a
    /// record when the batch is full.
    fn record_outcome(&self, element_steps: u64, failed: bool) {
        let Some(sink) = &self.ledger else { return };
        let mut st = sink.state.lock().unwrap();
        st.solves += 1;
        st.element_steps += element_steps;
        if failed {
            st.failures += 1;
        }
        if st.solves >= sink.batch as u64 {
            self.flush_locked(sink, &mut st);
        }
    }

    /// Write any partial batch (shutdown path).
    fn flush_ledger(&self) {
        let Some(sink) = &self.ledger else { return };
        let mut st = sink.state.lock().unwrap();
        if st.solves > 0 {
            self.flush_locked(sink, &mut st);
        }
    }

    fn flush_locked(&self, sink: &LedgerSink, st: &mut LedgerBatch) {
        let mut extra = std::collections::BTreeMap::new();
        extra.insert("solve_failures".to_string(), st.failures as f64);
        let stats = self.cache.stats();
        extra.insert("cache_mem_hits".to_string(), stats.mem_hits as f64);
        extra.insert("cache_disk_hits".to_string(), stats.disk_hits as f64);
        extra.insert("cache_misses".to_string(), stats.misses as f64);
        extra.insert(
            "requests".to_string(),
            self.requests.load(Ordering::Relaxed) as f64,
        );
        let record = LedgerRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            harness: "serve_daemon".to_string(),
            ranks: self.workers.max(1),
            wall_s: st.started.elapsed().as_secs_f64(),
            comm_fraction: 0.0,
            imbalance: 0.0,
            bytes_sent: 0,
            bytes_received: 0,
            messages: 0,
            collectives: st.solves,
            element_steps: st.element_steps,
            phases: Vec::new(),
            machine: LedgerMachine::detect("none"),
            extra,
        };
        let path = sink.dir.join("BENCH_serve_daemon.json");
        if let Err(e) = ledger::append(&path, &record) {
            eprintln!("serve: ledger append failed: {e}");
        }
        *st = LedgerBatch {
            started: Instant::now(),
            solves: 0,
            failures: 0,
            element_steps: 0,
        };
    }

    /// Remember a finished solve for `GET /jobs`, and stitch its
    /// cross-layer timeline into the trace store when it ran under a
    /// correlation id.
    fn record_job(&self, outcome: &JobOutcome) {
        let summary = JobSummary {
            name: outcome.name.clone(),
            trace_id: outcome.telemetry.trace_id.clone(),
            ok: outcome.result.is_ok(),
            error: outcome.result.as_ref().err().cloned(),
            attempts: outcome.attempts,
            run_s: outcome.run_s,
            element_steps: outcome.element_steps,
            dossier: outcome.telemetry.dossier.clone(),
        };
        {
            let mut log = self.jobs_log.lock().unwrap();
            if log.len() == JOB_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(summary);
        }
        if let Some(id) = &outcome.telemetry.trace_id {
            let json = stitch_timeline(outcome, id);
            let mut traces = self.traces.lock().unwrap();
            if traces.len() == TRACE_STORE_CAPACITY {
                traces.pop_front();
            }
            traces.push_back((id.clone(), json));
        }
    }

    /// Handle `GET /jobs`: recent solves, oldest first.
    fn jobs_json(&self) -> String {
        let log = self.jobs_log.lock().unwrap();
        let mut out = String::from("{\"jobs\":[");
        for (i, j) in log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ok\":{},\"attempts\":{},\"run_s\":{:.6},\
                 \"element_steps\":{}",
                json_escape(&j.name),
                j.ok,
                j.attempts,
                j.run_s,
                j.element_steps
            ));
            if let Some(id) = &j.trace_id {
                out.push_str(&format!(",\"trace_id\":\"{}\"", json_escape(id)));
            }
            if let Some(e) = &j.error {
                out.push_str(&format!(",\"error\":\"{}\"", json_escape(e)));
            }
            if let Some(d) = &j.dossier {
                out.push_str(&format!(",\"dossier\":\"{}\"", json_escape(d)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Handle `GET /trace/<id>`: the stitched Perfetto timeline of the
    /// solve that ran under that correlation id.
    fn trace_json(&self, id: &str) -> (u16, &'static str, String) {
        let traces = self.traces.lock().unwrap();
        match traces.iter().rev().find(|(k, _)| k == id) {
            Some((_, json)) => (200, "OK", json.clone()),
            None => {
                let e = ServeError {
                    status: 404,
                    code: "unknown_trace",
                    message: format!("no timeline stored for trace id {id}"),
                };
                (404, e.reason(), e.to_json())
            }
        }
    }

    /// Register for `key`'s in-flight solve (submitting the job when
    /// this is the first waiter), or return the cached value if the
    /// solve completed in the window since the caller's cache miss.
    fn wait_or_submit(
        &self,
        key: ResultKey,
        mut sim: Simulation,
        priority: i32,
        trace: TraceId,
    ) -> Result<Admission, ServeError> {
        let name = format!("req_{}", key.hex());
        let mut map = self.inflight.lock().unwrap();
        // Re-check under the lock: `complete` puts into the cache
        // *before* taking the waiter list, so either we see the value
        // here or our sender makes it into the list in time.
        let (hit, outcome) = self.cache.get(key);
        if let Some(value) = hit {
            return Ok(Ok((value, outcome)));
        }
        let (_, waiters) = map.entry(name.clone()).or_insert((key, Vec::new()));
        let first = waiters.is_empty();
        let (tx, rx) = unbounded();
        waiters.push(tx);
        drop(map);
        if first {
            // Traced rank spans are what `GET /trace/<id>` stitches, so
            // solves admitted by the daemon always record them (the result
            // key ignores that knob — hits and misses answer identically).
            sim.config.trace = true;
            match &mut *self.campaign.lock().unwrap() {
                Some(campaign) => {
                    campaign.submit(Job::new(name, sim).priority(priority).trace(trace))
                }
                None => {
                    self.inflight.lock().unwrap().remove(&name);
                    return Err(ServeError {
                        status: 500,
                        code: "shutting_down",
                        message: "daemon is shutting down".to_string(),
                    });
                }
            }
        }
        Ok(Err(rx))
    }

    /// Handle `POST /simulate`: returns `(status, reason, body)`.
    fn simulate(&self, body: &[u8]) -> (u16, &'static str, String) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        global_counter_add("serve.requests", 1);
        // The request is an outermost entry point: every `/simulate`
        // gets its own correlation id, echoed in the response (success
        // or error) so the caller can come back for `GET /trace/<id>`.
        let trace = TraceId::mint();
        let t0 = Instant::now();
        let reply = self.simulate_inner(body, trace);
        global_hist_record("serve.latency_ms", t0.elapsed().as_millis() as u64);
        match reply {
            Ok(body) => (200, "OK", body),
            Err(e) => {
                global_counter_add("serve.request_errors", 1);
                (e.status, e.reason(), error_json(&e, trace))
            }
        }
    }

    fn simulate_inner(&self, body: &[u8], trace: TraceId) -> Result<String, ServeError> {
        let req = parse_request(body)?;
        let sim = req.build()?;
        let key = sim.result_key();
        let (hit, outcome) = self.cache.get(key);
        if let Some(value) = hit {
            global_counter_add(outcome_counter(outcome), 1);
            return Ok(result_json(key, trace, outcome.as_str(), &value));
        }
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.default_deadline);
        let rx = match self.wait_or_submit(key, sim, req.priority, trace)? {
            Ok((value, outcome)) => {
                global_counter_add(outcome_counter(outcome), 1);
                return Ok(result_json(key, trace, outcome.as_str(), &value));
            }
            Err(rx) => rx,
        };
        let received = match deadline {
            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    global_counter_add("serve.deadline_timeouts", 1);
                    ServeError {
                        status: 504,
                        code: "deadline",
                        message: format!("no result within {} ms", d.as_millis()),
                    }
                }
                RecvTimeoutError::Disconnected => shutdown_error(),
            })?,
            None => rx.recv().map_err(|_| shutdown_error())?,
        };
        match received {
            Ok(value) => {
                global_counter_add("serve.cache_misses_solved", 1);
                Ok(result_json(
                    key,
                    trace,
                    ResultCacheOutcome::Miss.as_str(),
                    &value,
                ))
            }
            Err(message) => Err(ServeError {
                status: 500,
                code: "solver",
                message,
            }),
        }
    }

    /// Handle `GET /health`.
    fn health_json(&self) -> String {
        let stats = self.cache.stats();
        format!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"requests\":{},\"solves\":{},\
             \"solve_errors\":{},\"in_flight\":{},\"cache\":{{\"mem_hits\":{},\
             \"disk_hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\
             \"memory_bytes\":{}}}}}",
            self.started.elapsed().as_secs_f64(),
            self.requests.load(Ordering::Relaxed),
            self.solves.load(Ordering::Relaxed),
            self.solve_errors.load(Ordering::Relaxed),
            self.inflight.lock().unwrap().len(),
            stats.mem_hits,
            stats.disk_hits,
            stats.misses,
            stats.inserts,
            stats.evictions,
            self.cache.memory_bytes(),
        )
    }
}

/// Stitch one solve into a single cross-layer Perfetto timeline: a
/// `request` track spanning the job's life in the worker (queue handoff
/// to completion), plus one track per solver rank carrying its recorded
/// spans. Every layer shares the process trace epoch, so the rows line
/// up on one wall-clock axis.
fn stitch_timeline(o: &JobOutcome, trace_id: &str) -> String {
    let mut tracks = vec![Track {
        name: "request".to_string(),
        tid: 0,
        events: vec![TrackEvent {
            name: format!(
                "{} [trace {}, {}{}]",
                o.name,
                trace_id,
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
        }],
    }];
    if let Ok(res) = &o.result {
        for r in &res.ranks {
            if let Some(profile) = &r.profile {
                // Row 0 is the request; the ranks follow it.
                tracks.push(Track {
                    tid: 1 + r.rank,
                    ..Track::from(&profile.trace)
                });
            }
        }
    }
    perfetto_tracks(&tracks)
}

fn outcome_counter(outcome: ResultCacheOutcome) -> &'static str {
    match outcome {
        ResultCacheOutcome::MemHit => "serve.mem_hits",
        ResultCacheOutcome::DiskHit => "serve.disk_hits",
        ResultCacheOutcome::Miss => "serve.misses",
    }
}

/// An error response body carrying the request's correlation id.
fn error_json(e: &ServeError, trace: TraceId) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}},\"trace_id\":\"{}\"}}",
        e.code,
        json_escape(&e.message),
        trace.hex()
    )
}

fn shutdown_error() -> ServeError {
    ServeError {
        status: 500,
        code: "shutting_down",
        message: "daemon shut down before the solve finished".to_string(),
    }
}

/// Serialize one result. `f32`/`f64` `Display` is shortest-round-trip,
/// so `value → JSON → parse → cast` reproduces the exact bits — the
/// differential tests compare `to_bits` across this boundary.
fn result_json(key: ResultKey, trace: TraceId, cache: &str, r: &CachedResult) -> String {
    let mut out = String::with_capacity(256 + r.approx_bytes());
    out.push_str(&format!(
        "{{\"key\":\"{}\",\"trace_id\":\"{}\",\"cache\":\"{cache}\",\
         \"element_steps\":{},\"seismograms\":[",
        key.hex(),
        trace.hex(),
        r.element_steps
    ));
    for (i, s) in r.seismograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"station\":\"{}\",\"dt\":{},\"data\":[",
            specfem_obs::json_escape(&s.station),
            s.dt
        ));
        for (j, sample) in s.data.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{}]", sample[0], sample[1], sample[2]));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// A running daemon. Dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon stops (a `POST /shutdown` arrives), then
    /// finish cleanly: run the worker pool down and flush the ledger.
    pub fn join(mut self) {
        self.finish();
    }

    /// Stop the daemon from this side (the programmatic equivalent of
    /// `POST /shutdown`).
    pub fn shutdown(mut self) {
        self.engine.stop();
        self.finish();
    }

    fn finish(&mut self) {
        // The accept loop joins every connection, so all waiters have
        // been answered once it returns.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Wait out whatever is still solving (a request that gave up at
        // its deadline leaves its job running) and stop the workers.
        let campaign = self.engine.campaign.lock().unwrap().take();
        if let Some(campaign) = campaign {
            campaign.finish();
        }
        self.engine.flush_ledger();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // After `join` or `shutdown` the daemon has already finished.
        if self.accept.is_some() {
            self.engine.stop();
            self.finish();
        }
    }
}

/// Make the cost of a solve independent of what the daemon solved before:
/// pin glibc's mmap threshold at the 128 KiB it starts with.
///
/// Left alone, glibc raises that threshold (up to 32 MiB) the first time a
/// large block is freed, and from then on carves a solve's 8–27 MB arrays
/// out of whichever arena its worker thread was handed, reusing whatever
/// earlier solves left there. One and the same cold NEX 12 request then
/// page-faults anywhere between 35 k and 126 k pages — 0.95 to 1.12 s —
/// depending on the daemon's allocation history. With the threshold pinned,
/// every job-sized buffer is a mapping of its own, handed back to the OS
/// when dropped: a request costs what it costs, and the resident set falls
/// back to the caches after each solve. Returns whether the allocator took
/// the setting (always `false` off glibc, where there is nothing to pin).
fn pin_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's own tuning entry point, callable at
        // any time from any thread; it takes its arguments by value and
        // touches nothing but the allocator's settings under its lock.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// Bind, create the worker pool, spawn the accept thread, and return the
/// handle.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    pin_mmap_threshold();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let cache = ResultCache::new(cfg.data_dir.join("results"), cfg.result_cache_bytes)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let engine = Arc::new(Engine {
        cache,
        inflight: Mutex::new(HashMap::new()),
        campaign: Mutex::new(None),
        default_deadline: cfg.request_deadline,
        shutdown: AtomicBool::new(false),
        wake_addr: wake_addr(addr),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        solves: AtomicU64::new(0),
        solve_errors: AtomicU64::new(0),
        workers: cfg.workers,
        ledger: cfg.ledger_dir.map(|dir| LedgerSink {
            dir,
            batch: cfg.ledger_batch.max(1),
            state: Mutex::new(LedgerBatch {
                started: Instant::now(),
                solves: 0,
                failures: 0,
                element_steps: 0,
            }),
        }),
        jobs_log: Mutex::new(VecDeque::new()),
        traces: Mutex::new(VecDeque::new()),
    });

    // With `batch_max_lanes > 1`, compatible concurrent requests (same
    // mesh + timeloop shape, different sources/stations) fuse into one
    // K-event solve inside the campaign's worker pool. The queue is
    // unbounded, so `submit` never blocks a connection ahead of its
    // deadline. The sink holds the engine and the engine the campaign;
    // `ServerHandle::finish` takes the campaign out, which breaks the
    // cycle.
    let campaign_cfg = CampaignConfig {
        workers: cfg.workers,
        ..CampaignConfig::default()
    }
    .batching(
        cfg.batch_max_lanes,
        Duration::from_millis(cfg.batch_window_ms),
    );
    let sink = Arc::clone(&engine);
    *engine.campaign.lock().unwrap() = Some(Campaign::streaming(campaign_cfg, move |outcome| {
        sink.complete(outcome)
    }));
    let accept = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || accept_loop(listener, engine))
    };
    Ok(ServerHandle {
        addr,
        engine,
        accept: Some(accept),
    })
}

/// The address [`Engine::stop`] connects to: the bound one, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by the loopback address of
/// the same family, since an unspecified address names no peer.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// How long the accept loop waits before its next `accept` after this
/// one failed. A connection the peer aborted before it was accepted, or
/// a signal, costs nothing: accept the next at once. Anything else —
/// above all running out of descriptors or buffers (EMFILE, ENFILE,
/// ENOBUFS, ENOMEM) — is waited out: clients keep queueing in the
/// backlog while the pause stops the loop spinning on the shortage.
fn accept_retry_pause(e: &std::io::Error) -> Duration {
    match e.kind() {
        ErrorKind::ConnectionAborted | ErrorKind::Interrupted => Duration::ZERO,
        _ => Duration::from_millis(10),
    }
}

/// Accept connections until shutdown; one thread per connection.
///
/// `accept` blocks. Whoever raises the shutdown flag also connects to the
/// listener ([`Engine::stop`]), and the flag is read after every return,
/// so the connection that woke the loop is dropped unanswered. No error
/// ends the loop; only the flag does.
fn accept_loop(listener: TcpListener, engine: Arc<Engine>) {
    // Each live connection's thread, beside a clone of its socket that
    // shutdown uses to end a read still waiting for the client.
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if engine.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // Without the clone this connection could hold shutdown
                // forever; refuse it rather than risk that.
                let Ok(socket) = stream.try_clone() else {
                    continue;
                };
                let engine = Arc::clone(&engine);
                let thread = std::thread::spawn(move || handle_connection(stream, engine));
                conns.push((thread, socket));
                conns.retain(|(thread, _)| !thread.is_finished());
            }
            Err(e) => {
                global_counter_add("serve.accept_errors", 1);
                std::thread::sleep(accept_retry_pause(&e));
            }
        }
    }
    // A thread still waiting for its request head reads end-of-stream and
    // returns; one that has read its request still writes the answer.
    for (_, stream) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (thread, _) in conns {
        let _ = thread.join();
    }
}

/// Serve one connection: read a request, route it, answer, close.
fn handle_connection(stream: TcpStream, engine: Arc<Engine>) {
    let (status, reason, body) = match http::read_request(&mut BufReader::new(&stream)) {
        Ok(req) => route(&engine, &req),
        Err(http::HttpError::Closed) => return,
        Err(e) => {
            let err = ServeError::bad_request("http", e.to_string());
            (err.status, err.reason(), err.to_json())
        }
    };
    let _ = http::write_response(&mut &stream, status, reason, &body);
    // The accept loop's clone keeps the socket open past this thread:
    // end the reply now, so a client reading to end-of-stream is not
    // left waiting for the next connection to prune it.
    let _ = stream.shutdown(Shutdown::Write);
}

fn route(engine: &Arc<Engine>, req: &http::Request) -> (u16, &'static str, String) {
    let t0 = Instant::now();
    let reply = route_inner(engine, req);
    // Per-route × per-outcome request latency. The label set is bounded:
    // unknown paths all share the "other" row, so a scanner cannot grow
    // the registry, and hostile path bytes are escaped by `metrics_json`
    // anyway.
    let route_label = match req.path.as_str() {
        "/health" | "/metrics" | "/simulate" | "/shutdown" | "/jobs" => req.path.as_str(),
        p if p.starts_with("/trace/") => "/trace",
        _ => "other",
    };
    global_hist_record(
        format!(
            "serve.latency_ms{{route=\"{route_label}\",outcome=\"{}\"}}",
            reply.0
        ),
        t0.elapsed().as_millis() as u64,
    );
    reply
}

fn route_inner(engine: &Arc<Engine>, req: &http::Request) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (200, "OK", engine.health_json()),
        ("GET", "/metrics") => (200, "OK", metrics_json(&global_snapshot())),
        ("GET", "/jobs") => (200, "OK", engine.jobs_json()),
        ("GET", path) if path.starts_with("/trace/") => {
            engine.trace_json(path.trim_start_matches("/trace/"))
        }
        ("POST", "/simulate") => engine.simulate(&req.body),
        ("POST", "/shutdown") => {
            engine.stop();
            (200, "OK", "{\"status\":\"shutting_down\"}".to_string())
        }
        ("GET" | "POST", "/health" | "/metrics" | "/simulate" | "/shutdown" | "/jobs") => {
            let e = ServeError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} not allowed on {}", req.method, req.path),
            };
            (405, e.reason(), e.to_json())
        }
        (_, path) => {
            let e = ServeError {
                status: 404,
                code: "not_found",
                message: format!("no such endpoint: {path}"),
            };
            (404, e.reason(), e.to_json())
        }
    }
}

/// Blocking HTTP client helpers — shared by the tests, the CI smoke
/// job, and the `serve_load` harness.
pub mod client {
    use super::http::{self, HttpError};
    use std::io::{BufReader, Write};
    use std::net::{SocketAddr, TcpStream};

    fn roundtrip(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), HttpError> {
        let stream = TcpStream::connect(addr).map_err(|e| HttpError::Io(e.to_string()))?;
        // One `write`: a request written piece by piece leaves the
        // daemon's reader waking once per segment.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: specfem\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        (&stream)
            .write_all(request.as_bytes())
            .map_err(|e| HttpError::Io(e.to_string()))?;
        http::read_response(&mut BufReader::new(stream))
    }

    /// `GET` the path, returning `(status, body)`.
    pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), HttpError> {
        roundtrip(addr, "GET", path, "")
    }

    /// `POST` a JSON body, returning `(status, body)`.
    pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), HttpError> {
        roundtrip(addr, "POST", path, body)
    }
}

#[cfg(all(test, target_os = "linux", target_env = "gnu"))]
mod tests {
    use super::{client, pin_mmap_threshold, serve, ServeConfig};
    use specfem_core::Simulation;
    use specfem_obs::TraceId;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn daemon_keeps_no_outcome_of_the_solves_it_answered() {
        let data_dir = std::env::temp_dir().join("specfem_serve_no_outcomes");
        let _ = std::fs::remove_dir_all(&data_dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::from_parfile("", data_dir).unwrap()
        };
        let handle = serve(cfg).expect("daemon starts");
        for event in ["argentina_deep", "sumatra_thrust"] {
            let body =
                format!(r#"{{"resolution": 4, "steps": 5, "event": "{event}", "stations": 2}}"#);
            let (status, reply) = client::post(handle.addr(), "/simulate", &body).unwrap();
            assert_eq!(status, 200, "{reply}");
        }
        // No request body can make a solve fail, so admit one the way a
        // connection thread does: a time step far past the Courant bound
        // trips the health monitor on every attempt.
        let mut sim = Simulation::builder()
            .resolution(4)
            .steps(500)
            .catalogue_event("argentina_deep")
            .stations(2)
            .health_every(5)
            .build()
            .unwrap();
        sim.config.dt = Some(1000.0);
        let engine = &handle.engine;
        let rx = engine
            .wait_or_submit(sim.result_key(), sim, 0, TraceId::mint())
            .unwrap()
            .expect_err("nothing cached for an unstable run");
        let failure = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the failing solve answers its waiter")
            .expect_err("the unstable run must fail");
        assert!(failure.contains("numerical-health trip"), "{failure}");

        assert_eq!(engine.solves.load(Ordering::Relaxed), 2);
        assert_eq!(engine.solve_errors.load(Ordering::Relaxed), 1);
        assert!(engine.inflight.lock().unwrap().is_empty());
        // What the daemon remembers of the three solves is their `/jobs`
        // summaries; every outcome went through the sink, so the worker
        // pool's own backlog — all `finish()` returns — is empty.
        assert_eq!(engine.jobs_log.lock().unwrap().len(), 3);
        let campaign = engine.campaign.lock().unwrap().take().unwrap();
        assert!(campaign.finish().outcomes.is_empty());
        handle.shutdown();
    }

    #[test]
    fn from_parfile_reads_every_serve_key() {
        let parse = |text: &str| ServeConfig::from_parfile(text, "state");
        // Defaults when absent; keys of other readers are ignored.
        let cfg = parse("NEX_XI = 8\n").unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7460");
        assert_eq!(cfg.result_cache_bytes, 64 << 20);
        assert_eq!(cfg.request_deadline, Some(Duration::from_secs(30)));
        assert_eq!((cfg.batch_max_lanes, cfg.batch_window_ms), (1, 0));
        assert_eq!(cfg.data_dir, std::path::Path::new("state"));

        let cfg = parse(
            "SERVE_ADDR = 0.0.0.0:8080\nRESULT_CACHE_BYTES = 16M\nREQUEST_DEADLINE_MS = 500\n\
             BATCH_MAX_LANES = 4\nBATCH_WINDOW_MS = 250\n",
        )
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:8080");
        assert_eq!(cfg.result_cache_bytes, 16 << 20);
        assert_eq!(cfg.request_deadline, Some(Duration::from_millis(500)));
        assert_eq!((cfg.batch_max_lanes, cfg.batch_window_ms), (4, 250));
        // An explicit zero turns the deadline off.
        assert_eq!(
            parse("REQUEST_DEADLINE_MS = 0\n").unwrap().request_deadline,
            None
        );
        // The lane ceiling itself is accepted; bounds are enforced, not
        // clamped silently.
        let max = specfem_core::kernels::MAX_BATCH_LANES;
        let cfg = parse(&format!("BATCH_MAX_LANES = {max}\n")).unwrap();
        assert_eq!(cfg.batch_max_lanes, max);
        for bad in [
            "RESULT_CACHE_BYTES = big\n".to_string(),
            "REQUEST_DEADLINE_MS = soon\n".to_string(),
            "BATCH_MAX_LANES = 0\n".to_string(),
            format!("BATCH_MAX_LANES = {}\n", max + 1),
            "BATCH_MAX_LANES = lots\n".to_string(),
            "BATCH_WINDOW_MS = soon\n".to_string(),
        ] {
            assert!(parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn byte_counts_take_suffixes_and_refuse_to_wrap() {
        let bytes = |v: &str| super::parse_bytes("RESULT_CACHE_BYTES", v);
        assert_eq!(bytes("1234567"), Ok(1_234_567));
        assert_eq!(bytes("16kb"), Ok(16 << 10));
        assert_eq!(bytes("512M"), Ok(512 << 20));
        assert_eq!(bytes("2G"), Ok(2 << 30));
        assert!(bytes("1T").unwrap_err().contains("not a byte count"));
        // 99999999999 × 2³⁰ does not fit in 64 bits.
        assert_eq!(
            bytes("99999999999G"),
            Err("RESULT_CACHE_BYTES: byte count overflows: 99999999999G".to_string())
        );
    }

    #[test]
    fn no_accept_error_ends_the_loop_and_a_shortage_pauses_it() {
        use super::accept_retry_pause;
        use std::io::Error;
        // ECONNABORTED and EINTR: the next connection is unaffected.
        for errno in [103, 4] {
            let e = Error::from_raw_os_error(errno);
            assert_eq!(accept_retry_pause(&e), Duration::ZERO, "{e}");
        }
        // EMFILE, ENFILE, ENOBUFS, ENOMEM: wait for what ran out.
        for errno in [24, 23, 105, 12] {
            let e = Error::from_raw_os_error(errno);
            assert!(accept_retry_pause(&e) > Duration::ZERO, "{e}");
        }
    }

    #[test]
    fn the_wake_up_dials_loopback_for_an_unspecified_bind() {
        use super::wake_addr;
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7460"), "127.0.0.1:7460");
        assert_eq!(wake("[::]:7460"), "[::1]:7460");
        assert_eq!(wake("192.0.2.7:7460"), "192.0.2.7:7460");
    }

    /// Minor page faults of the calling thread so far.
    fn thread_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let after_name = &stat[stat.rfind(')').unwrap() + 2..];
        after_name
            .split_whitespace()
            .nth(7)
            .unwrap()
            .parse()
            .unwrap()
    }

    /// Allocate, touch and drop a buffer of a solve's size.
    fn touch(megabytes: usize) {
        std::hint::black_box(vec![1u8; megabytes << 20]);
    }

    #[test]
    fn a_job_sized_buffer_costs_the_same_whatever_was_freed_before() {
        assert!(pin_mmap_threshold());
        // Unpinned, the first drop raises glibc's threshold to 16 MB, the
        // 12 MB buffers come out of the arena, and the last one reuses the
        // pages of the one before it without a single fault.
        touch(16);
        touch(12);
        let before = thread_faults();
        touch(12);
        // A fresh mapping: 3072 small pages, or 6 huge ones.
        assert!(thread_faults() - before >= 6);
    }
}
