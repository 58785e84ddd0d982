//! E-SERVE: load-test the `specfem-serve` daemon (EXPERIMENTS.md).
//!
//! Starts an in-process daemon on a loopback port, then drives it over
//! real TCP: first a cold pass that solves each distinct request once,
//! then a concurrent mixed pass with a configurable warm/cold ratio.
//! Reports p50/p99 latency per temperature, throughput, and the cache
//! hit rate, and appends the run to `BENCH_serve.json` — the counters
//! (`element_steps`, `collectives` = solves) are deterministic for
//! fixed flags, so the `perf_ledger` gate catches a broken cache (every
//! repeat re-solving inflates both).
//!
//! ```text
//! serve_load [--requests N] [--concurrency C] [--warm-pct P]
//!            [--keys K] [--resolution NEX] [--steps S] [--relax]
//!            [--event-mix] [--batch-lanes K] [--batch-window-ms MS]
//! ```
//!
//! Without `--relax`, the run asserts the tentpole latency claim: warm
//! p50 at least 10× below cold p50.
//!
//! `--event-mix` cycles the catalogue event across requests while
//! keeping the mesh and timeloop shape fixed — the duplicate-mesh /
//! different-source mix that `--batch-lanes K` (with a fuse window) can
//! coalesce into multi-event solves, so E-BATCH can measure batched
//! serving against the single-lane baseline.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use specfem_bench::{append_ledger, ledger_dir, row};
use specfem_core::obs::ledger::{LedgerMachine, LedgerRecord, LEDGER_SCHEMA_VERSION};
use specfem_serve::{client, serve, ServeConfig};

struct Flags {
    requests: usize,
    concurrency: usize,
    warm_pct: usize,
    keys: usize,
    resolution: usize,
    steps: usize,
    relax: bool,
    event_mix: bool,
    batch_lanes: usize,
    batch_window_ms: u64,
}

impl Flags {
    fn parse() -> Self {
        let mut f = Flags {
            requests: 240,
            concurrency: 16,
            warm_pct: 75,
            keys: 4,
            resolution: 4,
            steps: 10,
            relax: false,
            event_mix: false,
            batch_lanes: 1,
            batch_window_ms: 0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut num = |name: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} requires a number"))
            };
            match arg.as_str() {
                "--requests" => f.requests = num("--requests"),
                "--concurrency" => f.concurrency = num("--concurrency").max(1),
                "--warm-pct" => f.warm_pct = num("--warm-pct").min(100),
                "--keys" => f.keys = num("--keys").max(1),
                "--resolution" => f.resolution = num("--resolution"),
                "--steps" => f.steps = num("--steps"),
                "--relax" => f.relax = true,
                "--event-mix" => f.event_mix = true,
                "--batch-lanes" => f.batch_lanes = num("--batch-lanes").max(1),
                "--batch-window-ms" => f.batch_window_ms = num("--batch-window-ms") as u64,
                other => panic!("unknown flag: {other}"),
            }
        }
        f
    }
}

/// The duplicate-mesh / different-source rotation for `--event-mix`.
const MIX_EVENTS: [&str; 3] = ["argentina_deep", "sumatra_thrust", "denali_strike_slip"];

/// Request body for key index `k`: same mesh and timeloop everywhere
/// (so `element_steps` per solve is constant), distinct station sets to
/// make distinct result keys. With `event_mix`, the catalogue event also
/// rotates — distinct sources on one mesh, the mix a batched daemon can
/// fuse.
fn body(resolution: usize, steps: usize, k: usize, event_mix: bool) -> String {
    if event_mix {
        format!(
            "{{\"resolution\":{resolution},\"steps\":{steps},\"stations\":{},\"event\":\"{}\"}}",
            2 + k,
            MIX_EVENTS[k % MIX_EVENTS.len()]
        )
    } else {
        format!(
            "{{\"resolution\":{resolution},\"steps\":{steps},\"stations\":{}}}",
            2 + k
        )
    }
}

struct Sample {
    wall_us: u64,
    warm: bool,
    element_steps: u64,
}

fn fire(addr: SocketAddr, body: &str) -> Sample {
    let t0 = Instant::now();
    let (status, reply) = client::post(addr, "/simulate", body).expect("request failed");
    let wall_us = t0.elapsed().as_micros() as u64;
    assert_eq!(status, 200, "unexpected status {status}: {reply}");
    let v: Value = serde_json::from_str(&reply).expect("response is JSON");
    let cache = v.get("cache").unwrap().as_str().unwrap();
    Sample {
        wall_us,
        warm: cache != "miss",
        element_steps: v.get("element_steps").unwrap().as_u64().unwrap(),
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let flags = Flags::parse();
    let data_dir = std::env::temp_dir().join("specfem_serve_load");
    let _ = std::fs::remove_dir_all(&data_dir);

    let daemon = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        result_cache_bytes: 64 << 20,
        request_deadline: Some(Duration::from_secs(600)),
        workers: 2,
        data_dir: data_dir.clone(),
        ledger_dir: None,
        ledger_batch: 32,
        batch_max_lanes: flags.batch_lanes,
        batch_window_ms: flags.batch_window_ms,
    })
    .expect("daemon starts");
    let addr = daemon.addr();
    println!("daemon on {addr}");

    // Cold pass: each key solved exactly once, sequentially, so the
    // cold latencies are uncontended.
    let mut samples: Vec<Sample> = Vec::with_capacity(flags.keys + flags.requests);
    for k in 0..flags.keys {
        let s = fire(
            addr,
            &body(flags.resolution, flags.steps, k, flags.event_mix),
        );
        assert!(!s.warm, "first request for key {k} must be a miss");
        samples.push(s);
    }

    // Mixed pass: `concurrency` threads race through `requests`
    // requests; index i is warm (one of the pre-solved keys) when
    // `i % 100 < warm_pct`, else a brand-new key — deterministic, so
    // the solve count is too.
    let next = Arc::new(AtomicUsize::new(0));
    let collected: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let t_mixed = Instant::now();
    let threads: Vec<_> = (0..flags.concurrency)
        .map(|_| {
            let next = Arc::clone(&next);
            let collected = Arc::clone(&collected);
            let (keys, warm_pct, requests) = (flags.keys, flags.warm_pct, flags.requests);
            let (resolution, steps) = (flags.resolution, flags.steps);
            let event_mix = flags.event_mix;
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let key = if i % 100 < warm_pct {
                    i % keys
                } else {
                    keys + i
                };
                let s = fire(addr, &body(resolution, steps, key, event_mix));
                collected.lock().unwrap().push(s);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mixed_s = t_mixed.elapsed().as_secs_f64();
    samples.extend(collected.lock().unwrap().drain(..));

    let mut cold_us: Vec<u64> = samples
        .iter()
        .filter(|s| !s.warm)
        .map(|s| s.wall_us)
        .collect();
    let mut warm_us: Vec<u64> = samples
        .iter()
        .filter(|s| s.warm)
        .map(|s| s.wall_us)
        .collect();
    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let element_steps: u64 = samples
        .iter()
        .filter(|s| !s.warm)
        .map(|s| s.element_steps)
        .sum();
    let total = samples.len();
    let hit_rate = warm_us.len() as f64 / total as f64;
    let p50_cold = percentile(&cold_us, 0.50);
    let p99_cold = percentile(&cold_us, 0.99);
    let p50_warm = percentile(&warm_us, 0.50);
    let p99_warm = percentile(&warm_us, 0.99);
    let throughput = flags.requests as f64 / mixed_s.max(1e-9);

    println!(
        "{}",
        row(&["".into(), "p50".into(), "p99".into(), "n".into()])
    );
    println!(
        "{}",
        row(&[
            "cold".into(),
            format!("{:.3} ms", p50_cold as f64 / 1e3),
            format!("{:.3} ms", p99_cold as f64 / 1e3),
            cold_us.len().to_string(),
        ])
    );
    println!(
        "{}",
        row(&[
            "warm".into(),
            format!("{:.3} ms", p50_warm as f64 / 1e3),
            format!("{:.3} ms", p99_warm as f64 / 1e3),
            warm_us.len().to_string(),
        ])
    );
    println!(
        "hit rate {:.1}%  throughput {throughput:.1} req/s  solves {}",
        hit_rate * 100.0,
        cold_us.len()
    );

    daemon.shutdown();

    let mut extra = std::collections::BTreeMap::new();
    extra.insert("p50_cold_us".to_string(), p50_cold as f64);
    extra.insert("p99_cold_us".to_string(), p99_cold as f64);
    extra.insert("p50_warm_us".to_string(), p50_warm as f64);
    extra.insert("p99_warm_us".to_string(), p99_warm as f64);
    extra.insert("hit_rate".to_string(), hit_rate);
    extra.insert("throughput_rps".to_string(), throughput);
    extra.insert("requests".to_string(), total as f64);
    extra.insert("cold_solves".to_string(), cold_us.len() as f64);
    extra.insert("batch_lanes".to_string(), flags.batch_lanes as f64);
    extra.insert(
        "event_mix".to_string(),
        if flags.event_mix { 1.0 } else { 0.0 },
    );
    let record = LedgerRecord {
        schema_version: LEDGER_SCHEMA_VERSION,
        harness: "serve".to_string(),
        ranks: 2,
        wall_s: mixed_s,
        comm_fraction: 0.0,
        imbalance: 0.0,
        bytes_sent: 0,
        bytes_received: 0,
        messages: 0,
        collectives: cold_us.len() as u64,
        element_steps,
        phases: Vec::new(),
        machine: LedgerMachine::detect("none"),
        extra,
    };
    let dir: PathBuf = ledger_dir();
    let path = append_ledger(&dir, "serve", &record).expect("ledger append");
    println!("ledger {} appended", path.display());

    if !flags.relax {
        assert!(
            p50_warm.saturating_mul(10) <= p50_cold,
            "warm p50 ({p50_warm} us) is not 10x below cold p50 ({p50_cold} us)"
        );
        println!(
            "warm p50 is {:.0}x below cold p50",
            p50_cold as f64 / p50_warm.max(1) as f64
        );
    }
}
