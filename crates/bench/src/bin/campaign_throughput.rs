//! Campaign throughput harness (experiment E-CAMP): run a multi-event
//! catalogue sweep through the campaign runtime and prove that
//! (a) the concurrent, mesh-cached campaign beats a naive serial loop
//! that re-meshes per event by ≥ 2× aggregate throughput,
//! (b) the mesh is built once and shared (cache hits = jobs − 1), and
//! (c) a fault-injected campaign (a seeded `FaultPlan` killing one job
//! mid-run) completes via retry/resume with seismograms bit-identical
//! to an uninjected run.
//!
//! ```text
//! campaign_throughput [--jobs N] [--workers W] [--nex NEX] [--steps S]
//!                     [--out report.json] [--min-speedup X]
//!                     [--batch] [--batch-lanes K] [--batch-window-ms MS]
//!                     [--min-batch-speedup X]
//! ```
//!
//! Exits nonzero when any acceptance check fails, so CI can run it as a
//! smoke test. `--min-speedup 0` disables the speedup gate (loaded CI
//! machines); the cache and fault-tolerance checks always run.
//!
//! The default sweep (NEX 10, few steps) sits in the mesh-dominated
//! regime — one mesh build costs more than one event's solve — so the
//! ≥ 2× gate holds from cache amortization alone even on a single-core
//! machine; extra workers stack concurrency speedup on top.
//!
//! `--batch` switches to the E-BATCH experiment: the same single-mesh
//! event sweep runs once on the single-lane path and once with
//! `--batch-lanes` events fused per solve, demands the fused results
//! stay bit-identical per event, gates the fused/unfused throughput
//! ratio, and appends the run to `BENCH_batch.json` for the
//! `perf_ledger` gate.

use std::time::Duration;

use specfem_bench::{append_ledger, ledger_dir, timed};
use specfem_campaign::{Campaign, CampaignConfig, CampaignResult, Job};
use specfem_core::comm::FaultPlan;
use specfem_core::model::builtin_events;
use specfem_core::obs::ledger::{LedgerMachine, LedgerRecord, LEDGER_SCHEMA_VERSION};
use specfem_core::{Simulation, SourceSpec, SourceTimeFunction, StfKind};

struct Args {
    jobs: usize,
    workers: usize,
    nex: usize,
    steps: usize,
    out: String,
    min_speedup: f64,
    batch: bool,
    batch_lanes: usize,
    batch_window_ms: u64,
    min_batch_speedup: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 16,
        workers: 0,
        nex: 10,
        steps: 4,
        out: "OUTPUT_FILES/campaign_report.json".into(),
        min_speedup: 2.0,
        batch: false,
        batch_lanes: 16,
        batch_window_ms: 1_000,
        min_batch_speedup: 1.5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = val().parse().expect("--jobs"),
            "--workers" => args.workers = val().parse().expect("--workers"),
            "--nex" => args.nex = val().parse().expect("--nex"),
            "--steps" => args.steps = val().parse().expect("--steps"),
            "--out" => args.out = val(),
            "--min-speedup" => args.min_speedup = val().parse().expect("--min-speedup"),
            "--batch" => args.batch = true,
            "--batch-lanes" => args.batch_lanes = val().parse().expect("--batch-lanes"),
            "--batch-window-ms" => args.batch_window_ms = val().parse().expect("--batch-window-ms"),
            "--min-batch-speedup" => {
                args.min_batch_speedup = val().parse().expect("--min-batch-speedup")
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The `i`-th catalogue event as a simulation sharing one global mesh.
fn event_sim(nex: usize, steps: usize, i: usize) -> Simulation {
    let events = builtin_events();
    let event = events[i % events.len()].clone();
    Simulation::builder()
        .resolution(nex)
        .steps(steps)
        .stations(4)
        .source(SourceSpec::Cmt {
            event,
            stf: SourceTimeFunction::new(StfKind::Ricker, 250.0),
        })
        .build()
        .expect("valid catalogue simulation")
}

/// Run the single-mesh event sweep through one campaign configuration
/// and return the result with its wall time.
fn run_sweep(args: &Args, cfg: CampaignConfig) -> (CampaignResult, f64) {
    timed(|| {
        let mut campaign = Campaign::new(cfg);
        for i in 0..args.jobs {
            campaign.submit(Job::new(
                format!("event_{i:02}"),
                event_sim(args.nex, args.steps, i),
            ));
        }
        campaign.finish()
    })
}

/// E-BATCH: fused multi-event solves vs the single-lane path on the
/// same sweep — bit-identical per event, faster in aggregate.
fn run_batch_mode(args: &Args) {
    let lanes = args.batch_lanes.max(2);
    println!(
        "== E-BATCH: {} events, NEX {}, {} lanes, {} worker(s) ==",
        args.jobs,
        args.nex,
        lanes,
        args.workers.max(1)
    );
    let mut failures = Vec::new();

    let base_cfg = || CampaignConfig {
        workers: args.workers,
        ..CampaignConfig::default()
    };
    let (unbatched, unbatched_s) = run_sweep(args, base_cfg());
    println!(
        "single-lane   : {unbatched_s:>8.3} s  ({:.3e} element*steps/s)",
        unbatched.report.element_steps_per_s
    );
    let (batched, batched_s) = run_sweep(
        args,
        base_cfg().batching(lanes, Duration::from_millis(args.batch_window_ms)),
    );
    println!(
        "batched       : {batched_s:>8.3} s  ({:.3e} element*steps/s), {} jobs fused",
        batched.report.element_steps_per_s, batched.report.batched_jobs
    );
    let speedup = unbatched_s / batched_s;
    println!("batch speedup : {speedup:>8.2}x");

    if !unbatched.all_ok() || !batched.all_ok() {
        failures.push(format!(
            "job failures: {} unbatched, {} batched",
            unbatched.report.failed_jobs, batched.report.failed_jobs
        ));
    }
    // Every job must actually have been fused (trailing groups smaller
    // than the lane cap still count — only a group of one runs alone).
    let fusable = if args.jobs % lanes.min(args.jobs) == 1 {
        args.jobs - 1
    } else {
        args.jobs
    };
    if batched.report.batched_jobs < fusable {
        failures.push(format!(
            "only {} of {} jobs ran fused",
            batched.report.batched_jobs, fusable
        ));
    }
    if batched.cache.misses != 1 {
        failures.push(format!(
            "batched sweep built the mesh {} times",
            batched.cache.misses
        ));
    }
    // Differential oracle: lane fan-out must reproduce the single-lane
    // seismograms bit for bit, event by event.
    for u in &unbatched.outcomes {
        let Some(b) = batched.outcomes.iter().find(|b| b.name == u.name) else {
            failures.push(format!("batched sweep lost job {}", u.name));
            continue;
        };
        let (ru, rb) = (u.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        if ru.dt.to_bits() != rb.dt.to_bits() {
            failures.push(format!("{}: dt diverged", u.name));
        }
        for (su, sb) in ru.seismograms.iter().zip(&rb.seismograms) {
            if su.station != sb.station || su.data != sb.data {
                failures.push(format!(
                    "{}: fused seismogram at {} differs from single-lane",
                    u.name, su.station
                ));
                break;
            }
        }
    }
    if args.min_batch_speedup > 0.0 && speedup < args.min_batch_speedup {
        failures.push(format!(
            "batch speedup {speedup:.2}x below the {:.1}x gate",
            args.min_batch_speedup
        ));
    }

    // Ledger record: deterministic counters (element·steps, solves) plus
    // the measured ratio, appended for the perf_ledger gate.
    let element_steps: u64 = batched.outcomes.iter().map(|o| o.element_steps).sum();
    let mut extra = std::collections::BTreeMap::new();
    extra.insert("batch_lanes".to_string(), lanes as f64);
    extra.insert(
        "batched_jobs".to_string(),
        batched.report.batched_jobs as f64,
    );
    extra.insert("speedup_vs_unbatched".to_string(), speedup);
    extra.insert("unbatched_wall_s".to_string(), unbatched_s);
    let record = LedgerRecord {
        schema_version: LEDGER_SCHEMA_VERSION,
        harness: "batch".to_string(),
        ranks: args.workers.max(1),
        wall_s: batched_s,
        comm_fraction: 0.0,
        imbalance: 0.0,
        bytes_sent: 0,
        bytes_received: 0,
        messages: 0,
        collectives: args.jobs as u64,
        element_steps,
        phases: Vec::new(),
        machine: LedgerMachine::detect("none"),
        extra,
    };
    let dir = ledger_dir();
    match append_ledger(&dir, "batch", &record) {
        Ok(path) => println!("ledger {} appended", path.display()),
        Err(e) => failures.push(format!("ledger append failed: {e}")),
    }

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&args.out, batched.report.to_json()).expect("write JSON report");
    println!("report        : {}", args.out);

    if failures.is_empty() {
        println!("PASS: fused sweep bit-identical and {speedup:.2}x over single-lane");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if args.batch {
        run_batch_mode(&args);
        return;
    }
    println!(
        "== campaign throughput: {} events, NEX {} ==",
        args.jobs, args.nex
    );
    let mut failures = Vec::new();

    // --- serial baseline: the naive per-event loop, re-meshing each time.
    let (baseline_steps, baseline_s) = timed(|| {
        let mut element_steps = 0u64;
        for i in 0..args.jobs {
            let sim = event_sim(args.nex, args.steps, i);
            let result = sim.run_serial();
            element_steps +=
                result.ranks.iter().map(|r| r.nspec as u64).sum::<u64>() * sim.config.nsteps as u64;
        }
        element_steps
    });
    println!(
        "serial loop   : {baseline_s:>8.3} s  ({:.3e} element*steps/s)",
        baseline_steps as f64 / baseline_s
    );

    // --- the campaign: same jobs, bounded worker pool, shared mesh.
    let mut campaign = Campaign::new(CampaignConfig {
        workers: args.workers,
        ..CampaignConfig::default()
    });
    let (result, campaign_s) = timed(|| {
        for i in 0..args.jobs {
            campaign.submit(Job::new(
                format!("event_{i:02}"),
                event_sim(args.nex, args.steps, i),
            ));
        }
        campaign.finish()
    });
    let report = &result.report;
    println!(
        "campaign      : {campaign_s:>8.3} s  ({:.3e} element*steps/s) on {} workers",
        report.element_steps_per_s, report.workers
    );
    let speedup = baseline_s / campaign_s;
    println!("speedup       : {speedup:>8.2}x");
    println!(
        "mesh cache    : {} miss, {} hit, {} derived",
        result.cache.misses, result.cache.hits, result.cache.derived_hits
    );

    if !result.all_ok() {
        failures.push(format!(
            "{} of {} jobs failed",
            report.failed_jobs, args.jobs
        ));
    }
    if result.cache.total_hits() < (args.jobs as u64).saturating_sub(1) {
        failures.push(format!(
            "expected the shared mesh to be built once ({} hits for {} jobs)",
            result.cache.total_hits(),
            args.jobs
        ));
    }
    if args.min_speedup > 0.0 && speedup < args.min_speedup {
        failures.push(format!(
            "speedup {speedup:.2}x below the {:.1}x gate",
            args.min_speedup
        ));
    }

    // --- fault-injected campaign: kill one job mid-run, demand retry +
    // checkpoint resume reproduce the clean seismograms bit-for-bit.
    println!();
    println!("-- fault-injection determinism --");
    let fault_steps = args.steps.max(16);
    let clean = {
        let mut c = Campaign::new(CampaignConfig::default());
        for i in 0..3 {
            c.submit(Job::new(format!("clean_{i}"), event_sim(4, fault_steps, i)));
        }
        c.finish()
    };
    let ckpt = std::env::temp_dir().join("specfem_campaign_throughput_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let injected = {
        let mut c = Campaign::new(CampaignConfig {
            checkpoint_root: Some(ckpt.clone()),
            ..CampaignConfig::default()
        });
        for i in 0..3 {
            let mut sim = event_sim(4, fault_steps, i);
            if i == 1 {
                sim.config.checkpoint_every = 4;
                sim.config.fault_plan = Some(FaultPlan::new(62_000).kill(0, fault_steps / 2));
            }
            c.submit(Job::new(format!("clean_{i}"), sim));
        }
        c.finish()
    };
    let _ = std::fs::remove_dir_all(&ckpt);
    if !injected.all_ok() {
        failures.push("fault-injected campaign did not complete".into());
    }
    let retried = injected
        .outcomes
        .iter()
        .map(|o| o.attempts)
        .max()
        .unwrap_or(1);
    if retried < 2 {
        failures.push("injected kill never fired (no retry recorded)".into());
    }
    let mut identical = true;
    for (a, b) in clean.outcomes.iter().zip(&injected.outcomes) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        for (sa, sb) in ra.seismograms.iter().zip(&rb.seismograms) {
            if sa.data != sb.data {
                identical = false;
            }
        }
    }
    if identical {
        println!("killed job resumed; all seismograms bit-identical to clean run");
    } else {
        failures.push("fault-injected seismograms diverge from the clean run".into());
    }

    // --- JSON report artifact.
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&args.out, report.to_json()).expect("write JSON report");
    let perfetto_out = format!("{}.perfetto.json", args.out.trim_end_matches(".json"));
    std::fs::write(&perfetto_out, result.perfetto_json()).expect("write Perfetto timeline");
    println!();
    println!("report        : {}", args.out);
    println!("timeline      : {perfetto_out}");
    println!();
    println!("{}", report.render_text());

    if failures.is_empty() {
        println!("PASS: all campaign acceptance checks hold");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
