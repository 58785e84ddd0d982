//! The five workloads: inputs made from the seed, set-up, the timed
//! closed loop, output checks, and the traced repetition.
//!
//! Every workload is closed-loop: the next operation starts when the
//! previous one has returned. The program only ever sees the generated
//! inputs, never the seed.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::{self, Event, Seismogram, Simulation, SolveSpec, Station};
use crate::probes::{self, Metrics};
use crate::spans::{self, span};
use crate::util::{
    cpu_seconds, median, peak_rss_mb, percentile, quartiles, scratch_dir, timed, SplitMix64,
};

/// Problem sizes. The full sizes are the definition of the workloads;
/// the smoke sizes only prove the harness end to end in seconds.
pub struct Sizes {
    pub smoke: bool,
    /// Solve workloads and probes: resolution and step count.
    pub nex: usize,
    pub steps: usize,
    /// Steps of the short probe solves and of the 2-rank reference prefix.
    pub short_steps: usize,
    pub batch_steps: usize,
    pub cold_nex: usize,
    pub cold_steps: usize,
    pub warm_nex: usize,
    pub warm_steps: usize,
    pub warm_keys: usize,
    /// Timed repetitions never go below this, whatever `--seconds` says.
    pub min_reps: usize,
    pub min_warm_requests: usize,
    /// Lanes of a campaign checked bit for bit against their own serial run.
    pub checked_lanes: usize,
    pub setup_runs: usize,
    pub micro_calls: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                smoke,
                nex: 4,
                steps: 10,
                short_steps: 4,
                batch_steps: 4,
                cold_nex: 6,
                cold_steps: 2,
                warm_nex: 4,
                warm_steps: 4,
                warm_keys: 4,
                min_reps: 2,
                min_warm_requests: 50,
                checked_lanes: 1,
                setup_runs: 2,
                micro_calls: 20,
            }
        } else {
            Self {
                smoke,
                nex: 8,
                // Fixed, never tuned: per-step cost at NEX 8 rises from
                // ~57 ms to ~150 ms over the first 100 steps as the
                // wavefield fills the mesh, so the count is part of what
                // `serial_solve` and `ranks2_halo` mean.
                steps: 50,
                short_steps: 10,
                batch_steps: 5,
                cold_nex: 12,
                cold_steps: 4,
                warm_nex: 4,
                warm_steps: 6,
                warm_keys: 16,
                min_reps: 4,
                min_warm_requests: 1000,
                checked_lanes: 2,
                setup_runs: 3,
                micro_calls: 200,
            }
        }
    }
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run reports on its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

// ------------------------------------------------------------- inputs

/// `n` stations from the seed: half uniform over the globe, half within
/// 25° of the event so that some record signal within a short run.
pub fn seeded_stations(seed: u64, n: usize, event: &Event) -> Vec<Station> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_57A7_1095);
    (0..n)
        .map(|i| {
            let (lat_deg, lon_deg) = if i % 2 == 0 {
                let lat = (2.0 * rng.unit() - 1.0).asin().to_degrees();
                (lat, 360.0 * rng.unit() - 180.0)
            } else {
                let lat = (event.lat_deg + 50.0 * rng.unit() - 25.0).clamp(-89.0, 89.0);
                let lon = event.lon_deg + 50.0 * rng.unit() - 25.0;
                (lat, (lon + 540.0) % 360.0 - 180.0)
            };
            Station {
                name: format!("B{i:02}"),
                lat_deg,
                lon_deg,
            }
        })
        .collect()
}

/// A `/simulate` body for the daemon.
pub fn request_body(nex: usize, steps: usize, event: &str, stations: &[Station]) -> String {
    let list: Vec<String> = stations
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"lat_deg\":{},\"lon_deg\":{}}}",
                s.name, s.lat_deg, s.lon_deg
            )
        })
        .collect();
    format!(
        "{{\"resolution\":{nex},\"steps\":{steps},\"event\":\"{event}\",\"rotation\":true,\
         \"gravity\":true,\"stations\":[{}]}}",
        list.join(",")
    )
}

// -------------------------------------------------------------- checks

fn bits(seismograms: &[Seismogram]) -> Vec<(String, Vec<[u32; 3]>)> {
    seismograms
        .iter()
        .map(|s| {
            (
                s.station.clone(),
                s.data.iter().map(|d| d.map(f32::to_bits)).collect(),
            )
        })
        .collect()
}

fn bit_identical(a: &[Seismogram], b: &[Seismogram]) -> bool {
    bits(a) == bits(b)
}

/// Largest `|a − b|` over the first `b`-length samples of each station,
/// as a share of that station's peak in `b`. Stations whose reference is
/// silent must match exactly.
pub fn misfit_of_peak(got: &[Seismogram], reference: &[Seismogram]) -> Result<f64, String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} stations recorded, {} expected",
            got.len(),
            reference.len()
        ));
    }
    let mut worst = 0.0f64;
    for (g, r) in got.iter().zip(reference) {
        if g.station != r.station || g.data.len() < r.data.len() {
            return Err(format!("station {} does not line up", r.station));
        }
        let peak = r
            .data
            .iter()
            .flatten()
            .fold(0.0f64, |p, v| p.max(f64::from(v.abs())));
        for (gs, rs) in g.data.iter().zip(&r.data) {
            for (gv, rv) in gs.iter().zip(rs) {
                if !gv.is_finite() {
                    return Err(format!("station {} recorded a non-finite value", r.station));
                }
                let diff = f64::from((gv - rv).abs());
                if peak == 0.0 {
                    if diff != 0.0 {
                        return Err(format!("station {} should be silent", r.station));
                    }
                } else {
                    worst = worst.max(diff / peak);
                }
            }
        }
    }
    Ok(worst)
}

fn golden_path() -> std::path::PathBuf {
    crate::util::bench_dir().join("golden/serial_solve.seed2008.semv")
}

/// The committed reference of `serial_solve` at the default seed: one
/// line per sample, `station step x y z`, shortest round-trip floats.
pub fn golden_text(seismograms: &[Seismogram]) -> String {
    let mut out = String::from(
        "# serial_solve, seed 2008: NEX 8 PREM, argentina_deep, 50 steps, attenuation+rotation+gravity\n\
         # station step x y z\n",
    );
    for s in seismograms {
        for (i, d) in s.data.iter().enumerate() {
            out.push_str(&format!(
                "{} {i} {:e} {:e} {:e}\n",
                s.station, d[0], d[1], d[2]
            ));
        }
    }
    out
}

fn read_golden() -> Result<Vec<Seismogram>, String> {
    let text = std::fs::read_to_string(golden_path()).map_err(|e| format!("golden file: {e}"))?;
    let mut out: Vec<Seismogram> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [station, _step, x, y, z] = f[..] else {
            return Err(format!("golden file: malformed line {line:?}"));
        };
        let parse = |v: &str| v.parse::<f32>().map_err(|e| format!("golden file: {e}"));
        let sample = [parse(x)?, parse(y)?, parse(z)?];
        match out.last_mut() {
            Some(s) if s.station == station => s.data.push(sample),
            _ => out.push(Seismogram {
                station: station.to_string(),
                dt: 0.0,
                data: vec![sample],
            }),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------- measuring

/// Run `rep` until the window is used up: at least `min_reps` times, and
/// on while one more repetition of the mean length still fits.
fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> Vec<f64> {
    let mut walls = Vec::new();
    let t0 = Instant::now();
    loop {
        let i = walls.len();
        walls.push(timed(|| rep(i)).0);
        let elapsed = t0.elapsed().as_secs_f64();
        let mean = elapsed / walls.len() as f64;
        if walls.len() >= min_reps && elapsed + mean > seconds {
            return walls;
        }
    }
}

fn print_sample(name: &str, unit: &str, values: &[f64]) {
    let [q1, q2, q3] = quartiles(values);
    println!(
        "# {name}: median {q2:.6} {unit}, quartiles {q1:.6} .. {q3:.6}, n = {}",
        values.len()
    );
    if values.len() <= 16 {
        let all: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("# {name}: in order {}", all.join(" "));
    }
}

/// The end-to-end metrics of one run. `op_walls` are the latencies of
/// the timed operations, `ops` how many operations `measured_s` of wall
/// completed, `setups` the set-up executions, and `rss_mb` the peak
/// resident set once set-up and the first operation were done — later
/// repetitions reuse freed memory in an order that differs run to run,
/// so the peak after the first is the one that repeats.
fn end_to_end(
    op_walls: &[f64],
    ops: f64,
    measured_s: f64,
    rss_mb: f64,
    setups: &[f64],
) -> BTreeMap<String, f64> {
    let ms: Vec<f64> = op_walls.iter().map(|s| s * 1e3).collect();
    print_sample("latency_ms", "ms", &ms);
    print_sample("setup_s", "s", setups);
    let mut m = BTreeMap::new();
    m.insert("latency_ms".to_string(), median(&ms));
    m.insert("ops_per_s".to_string(), ops / measured_s);
    m.insert("peak_rss_mb".to_string(), rss_mb);
    m.insert("setup_s".to_string(), median(setups));
    m
}

fn rss_now() -> f64 {
    peak_rss_mb().expect("/proc/self/status gives VmHWM on Linux")
}

/// CPU seconds per operation, printed beside the metrics (its 10 ms tick
/// is too coarse for the short operations to gate on).
fn print_cpu_per_op(cpu0: f64, ops: f64) {
    println!(
        "# cpu per operation {:.3} ms (user + system, all threads)",
        (cpu_now() - cpu0) * 1e3 / ops
    );
}

fn cpu_now() -> f64 {
    cpu_seconds().expect("/proc/self/stat gives CPU time on Linux")
}

/// Fold the traced repetition's spans and the probes into the per-layer
/// metric set, and write the trace file.
fn per_layer(
    workload: &str,
    rep_s: f64,
    mut rep: Metrics,
    probes: Metrics,
) -> Result<BTreeMap<String, f64>, String> {
    let records = spans::drain();
    spans::check_well_nested(&records)?;
    let path = crate::util::bench_dir()
        .join("out")
        .join(format!("trace_{workload}.json"));
    spans::write_trace(&path, workload, &records)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {} spans to {}", records.len(), path.display());
    let by_layer = spans::self_time_by_layer(&records);
    let mut out = BTreeMap::new();
    for layer in crate::spec::SPAN_LAYERS.iter().chain(&["bench"]) {
        let t = by_layer.get(layer).copied().unwrap_or_default();
        out.insert(format!("{layer}.self_s"), t.self_s);
        if *layer != "bench" {
            out.insert(format!("{layer}.calls"), t.calls as f64);
        }
    }
    rep.insert("bench.traced_rep_s", rep_s);
    for (k, v) in rep.into_iter().chain(probes) {
        out.insert(k.to_string(), v);
    }
    // Every per-layer metric is reported by every workload; a layer the
    // workload never enters reads 0.
    for m in crate::spec::PER_LAYER {
        out.entry(m.name.to_string()).or_insert(0.0);
    }
    if let Some(unknown) = out.keys().find(|k| crate::spec::per_layer(k).is_none()) {
        return Err(format!("metric {unknown} is not in the spec"));
    }
    Ok(out)
}

fn comm_counters(rep: &mut Metrics, s: &layers::Solved) {
    rep.insert("rep.flops", s.flops as f64);
    rep.insert("rep.comm_msgs", s.comm_msgs() as f64);
    rep.insert("rep.comm_bytes", s.comm_bytes() as f64);
    rep.insert("rep.comm_wall_frac", s.comm_wall_frac());
    rep.insert("rep.comm_post_s", s.comm_post_s());
    rep.insert("rep.comm_wait_s", s.comm_wait_s());
}

// ------------------------------------------------- serial_solve, ranks2

struct SolveInputs {
    spec: SolveSpec,
    sim: Simulation,
    mesh: layers::GlobalMesh,
    setups: Vec<f64>,
}

/// Set-up of both solve workloads: build the simulation and its mesh,
/// `setup_runs` times; the last mesh is kept.
fn solve_setup(sizes: &Sizes, seed: u64, setup_runs: usize) -> SolveInputs {
    let events = layers::catalogue();
    let spec = SolveSpec::new(
        sizes.nex,
        sizes.steps,
        &events[0].name,
        seeded_stations(seed, 6, &events[0]),
    );
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..setup_runs {
        drop(built.take());
        let (s, pair) = timed(|| {
            let _s = span("bench", "setup");
            let sim = layers::build_sim(&spec);
            let mesh = layers::build_mesh(&sim);
            (sim, mesh)
        });
        setups.push(s);
        built = Some(pair);
    }
    let (sim, mesh) = built.expect("setup_runs is at least 1");
    SolveInputs {
        spec,
        sim,
        mesh,
        setups,
    }
}

/// One untimed 3-step solve: pages in the solve path and allocates
/// everything a full solve allocates. Returns the peak resident set after
/// it: later solves reuse freed memory in an order that differs run to
/// run, so the peak after the first is the one that repeats.
fn warm_up(inputs: &SolveInputs, run: impl Fn(&Simulation)) -> f64 {
    let mut brief = inputs.spec.clone();
    brief.steps = 3;
    run(&layers::build_sim(&brief));
    rss_now()
}

fn serial_solve(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    if args.trace {
        spans::arm(true);
        let inputs = solve_setup(sizes, args.seed, 1);
        // The traced repetition is the same solve taken apart: one span
        // per solver call instead of one `run_serial`.
        let (rep_s, (mut numbers, mut solver)) = timed(|| {
            let _s = span("bench", "rep");
            probes::stepped_solve(&inputs.spec, &inputs.mesh)
        });
        spans::arm(false);
        probes::after_stepping(&mut numbers, &mut solver);
        drop((solver, inputs));
        let probes = probes::run(sizes, args.seed, Some(numbers));
        let mut rep = Metrics::new();
        rep.insert(
            "rep.flops",
            probes["solver.flops_per_step"] * sizes.steps as f64,
        );
        return Ok(Outcome {
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            metrics: per_layer(&args.workload, rep_s, rep, probes)?,
        });
    }

    let inputs = solve_setup(sizes, args.seed, sizes.setup_runs);
    let rss_mb = warm_up(&inputs, |sim| {
        layers::run_serial(sim, &inputs.mesh);
    });
    let mut first: Option<layers::Solved> = None;
    let mut failed = 0;
    let mut problems = Vec::new();
    let cpu0 = cpu_now();
    let (measured_s, walls) = timed(|| {
        timed_reps(args.seconds, sizes.min_reps, |i| {
            let solved = layers::run_serial(&inputs.sim, &inputs.mesh);
            match &first {
                None => first = Some(solved),
                Some(f) if bit_identical(&f.seismograms, &solved.seismograms) => {}
                Some(_) => {
                    failed += 1;
                    problems.push(format!("repetition {i} is not bit-identical to the first"));
                }
            }
        })
    });
    print_cpu_per_op(cpu0, walls.len() as f64);
    let first = first.expect("at least one repetition ran");
    if first.seismograms.len() != inputs.spec.stations.len() {
        failed += 1;
        problems.push("a station is missing from the result".to_string());
    }
    if args.seed == crate::spec::DEFAULT_SEED && !sizes.smoke {
        match read_golden().and_then(|g| misfit_of_peak(&first.seismograms, &g)) {
            Ok(misfit) if misfit <= 1e-3 => println!("# golden misfit {misfit:.3e} of peak"),
            Ok(misfit) => {
                failed += 1;
                problems.push(format!("golden misfit {misfit:.3e} of peak exceeds 1e-3"));
            }
            Err(e) => {
                failed += 1;
                problems.push(e);
            }
        }
    }
    println!(
        "# flops per solve {} (exact), {:.3} Gflop/s",
        first.flops,
        first.flops as f64 / median(&walls) / 1e9
    );
    Ok(Outcome {
        attempted: walls.len() as u64,
        failed,
        problems,
        metrics: end_to_end(
            &walls,
            walls.len() as f64,
            measured_s,
            rss_mb,
            &inputs.setups,
        ),
    })
}

const WORLD: usize = 2;

/// What a fresh process running `--rss-probe` does: set-up and one short
/// 2-rank solve, then print its peak resident set.
pub fn ranks2_rss_probe(seed: u64, smoke: bool) {
    let inputs = solve_setup(&Sizes::new(smoke), seed, 1);
    let rss_mb = warm_up(&inputs, |sim| {
        let _ = layers::run_ranks(sim, &inputs.mesh, WORLD);
    });
    println!("{rss_mb}");
}

/// `peak_rss_mb` of `ranks2_halo`: the smallest of three fresh processes.
/// With two rank threads allocating at once the allocator's choices are a
/// race — the same solve peaks at 182 MB or, one time in three, at 240 MB
/// — so a single reading cannot repeat; the smallest of three is the
/// footprint without the race's surcharge.
fn ranks2_fresh_process_rss(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut smallest = f64::INFINITY;
    for _ in 0..3 {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--rss-probe",
            "ranks2_halo",
            "--seed",
            &args.seed.to_string(),
        ]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("spawn the memory probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mb: f64 = text.trim().parse().map_err(|_| {
            format!(
                "memory probe printed {text:?} and exited with {}",
                out.status
            )
        })?;
        smallest = smallest.min(mb);
    }
    Ok(smallest)
}

fn ranks2_halo(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    if crate::util::nproc() < WORLD {
        println!(
            "# oversubscribed: {WORLD} ranks on {} core(s); wall metrics measure the scheduler",
            crate::util::nproc()
        );
    }
    if args.trace {
        spans::arm(true);
        let inputs = solve_setup(sizes, args.seed, 1);
        let (rep_s, solved) = timed(|| {
            let _s = span("bench", "rep");
            layers::run_ranks_by_layer(&inputs.sim, &inputs.mesh, WORLD)
        });
        spans::arm(false);
        let solved = solved?;
        let mut rep = Metrics::new();
        comm_counters(&mut rep, &solved);
        drop(inputs);
        let probes = probes::run(sizes, args.seed, None);
        return Ok(Outcome {
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            metrics: per_layer(&args.workload, rep_s, rep, probes)?,
        });
    }

    let inputs = solve_setup(sizes, args.seed, sizes.setup_runs);
    // One untimed serial reference. Samples are recorded every step and
    // do not depend on how long the run goes on, so a short serial run is
    // the exact reference for the first `short_steps` samples.
    let mut prefix = inputs.spec.clone();
    prefix.steps = sizes.short_steps;
    let reference = layers::run_serial(&layers::build_sim(&prefix), &inputs.mesh);
    warm_up(&inputs, |sim| {
        let _ = layers::run_ranks(sim, &inputs.mesh, WORLD);
    });
    let rss_mb = ranks2_fresh_process_rss(args)?;
    let mut first: Option<layers::Solved> = None;
    let mut failed = 0;
    let mut problems = Vec::new();
    let cpu0 = cpu_now();
    let (measured_s, walls) = timed(|| {
        timed_reps(args.seconds, sizes.min_reps, |i| {
            match layers::run_ranks(&inputs.sim, &inputs.mesh, WORLD) {
                Err(e) => {
                    failed += 1;
                    problems.push(format!("repetition {i}: {e}"));
                }
                Ok(solved) => match &first {
                    None => first = Some(solved),
                    Some(f) if bit_identical(&f.seismograms, &solved.seismograms) => {}
                    Some(_) => {
                        failed += 1;
                        problems.push(format!("repetition {i} is not bit-identical to the first"));
                    }
                },
            }
        })
    });
    print_cpu_per_op(cpu0, walls.len() as f64);
    if let Some(first) = &first {
        match misfit_of_peak(&first.seismograms, &reference.seismograms) {
            Ok(misfit) if misfit <= 2e-3 => {
                println!("# misfit to the serial reference {misfit:.3e} of peak")
            }
            Ok(misfit) => {
                failed += 1;
                problems.push(format!(
                    "misfit to the serial reference {misfit:.3e} of peak exceeds 2e-3"
                ));
            }
            Err(e) => {
                failed += 1;
                problems.push(e);
            }
        }
        println!(
            "# per solve: {} messages, {} bytes, {} flops (exact)",
            first.comm_msgs(),
            first.comm_bytes(),
            first.flops
        );
    }
    Ok(Outcome {
        attempted: walls.len() as u64,
        failed,
        problems,
        metrics: end_to_end(
            &walls,
            walls.len() as f64,
            measured_s,
            rss_mb,
            &inputs.setups,
        ),
    })
}

// ------------------------------------------------------ batch_campaign

const LANES: usize = 8;

fn campaign_jobs(sizes: &Sizes, seed: u64) -> Vec<SolveSpec> {
    let events = layers::catalogue();
    (0..LANES)
        .map(|i| {
            let event = &events[i % 3];
            let mut spec = SolveSpec::new(
                sizes.nex,
                sizes.batch_steps,
                &event.name,
                seeded_stations(seed.wrapping_add(i as u64), 6 + i % 3, event),
            );
            // The fused tier refuses attenuation; without it the packer
            // admits all eight jobs.
            spec.attenuation = false;
            spec
        })
        .collect()
}

fn batch_campaign(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    let specs = campaign_jobs(sizes, args.seed);
    let setup_runs = if args.trace { 1 } else { sizes.setup_runs };
    if args.trace {
        spans::arm(true);
    }
    // Set-up: the eight simulations, and the mesh the reference runs need
    // (the campaign builds its own inside the timed part: 1 miss, 7 hits).
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..setup_runs {
        drop(built.take());
        let (s, pair) = timed(|| {
            let _s = span("bench", "setup");
            let jobs: Vec<Simulation> = specs.iter().map(layers::build_sim).collect();
            let mesh = layers::build_mesh(&jobs[0]);
            (jobs, mesh)
        });
        setups.push(s);
        built = Some(pair);
    }
    let (jobs, mesh) = built.expect("setup_runs is at least 1");

    if args.trace {
        let (rep_s, run) = timed(|| {
            let _s = span("bench", "rep");
            layers::run_campaign(&jobs, LANES)
        });
        spans::arm(false);
        let mut rep = Metrics::new();
        rep.insert("rep.mesh_misses", run.mesh_misses as f64);
        rep.insert("rep.mesh_hits", run.mesh_hits as f64);
        rep.insert("rep.fused_jobs", run.batched_jobs as f64);
        let waits: Vec<f64> = run.queue_wait_s.iter().map(|s| s * 1e3).collect();
        rep.insert("rep.queue_wait_ms_p50", median(&waits));
        drop((jobs, mesh));
        let probes = probes::run(sizes, args.seed, None);
        return Ok(Outcome {
            attempted: LANES as u64,
            failed: run.results.iter().filter(|r| r.is_err()).count() as u64,
            problems: Vec::new(),
            metrics: per_layer(&args.workload, rep_s, rep, probes)?,
        });
    }

    // Lanes checked bit for bit against their own serial run; which ones
    // follows the seed, so every lane is covered across seeds.
    let mut rng = SplitMix64::new(args.seed);
    let first_checked = rng.below(LANES);
    let references: Vec<(usize, Vec<Seismogram>)> = (0..sizes.checked_lanes)
        .map(|k| {
            let lane = (first_checked + k * 3) % LANES;
            (lane, layers::run_serial(&jobs[lane], &mesh).seismograms)
        })
        .collect();
    drop(mesh);

    let mut first: Option<Vec<Vec<Seismogram>>> = None;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut campaign = |label: &str| {
        let run = layers::run_campaign(&jobs, LANES);
        let mut bad = run.results.iter().filter(|r| r.is_err()).count() as u64;
        for e in run.results.iter().filter_map(|r| r.as_ref().err()) {
            problems.push(format!("{label}: job failed: {e}"));
        }
        if run.batched_jobs != LANES || run.mesh_misses != 1 {
            bad = bad.max(1);
            problems.push(format!(
                "{label}: {} jobs fused (want {LANES}), {} mesh misses (want 1)",
                run.batched_jobs, run.mesh_misses
            ));
        }
        let lanes: Vec<Vec<Seismogram>> = run.results.into_iter().flatten().collect();
        if lanes.len() == LANES {
            for (lane, reference) in &references {
                if !bit_identical(&lanes[*lane], reference) {
                    bad = bad.max(1);
                    problems.push(format!("{label}: lane {lane} differs from its serial run"));
                }
            }
            match &first {
                None => first = Some(lanes),
                Some(f) => {
                    if f.iter().zip(&lanes).any(|(a, b)| !bit_identical(a, b)) {
                        bad = bad.max(1);
                        problems.push(format!(
                            "{label} is not bit-identical to the first campaign"
                        ));
                    }
                }
            }
        }
        failed += bad;
    };
    // One untimed campaign first: the first fused solve of a process pays
    // for paging in the lane-major banks (up to 30 % on top), and its
    // lanes are the reference the timed ones must equal bit for bit.
    campaign("warm-up campaign");
    let rss_mb = rss_now();
    let cpu0 = cpu_now();
    let (measured_s, walls) = timed(|| {
        timed_reps(args.seconds, sizes.min_reps, |i| {
            campaign(&format!("repetition {i}"))
        })
    });
    let jobs_done = (walls.len() * LANES) as f64;
    print_cpu_per_op(cpu0, jobs_done);
    Ok(Outcome {
        attempted: jobs_done as u64 + LANES as u64,
        failed,
        problems,
        metrics: end_to_end(&walls, jobs_done, measured_s, rss_mb, &setups),
    })
}

// ---------------------------------------------------------------- serve

/// A reply of `/simulate`, reduced to what the checks read.
struct Reply {
    cache: String,
    element_steps: u64,
    /// The `"seismograms":[…]` text, byte for byte.
    seismograms: String,
    stations: usize,
    samples_ok: bool,
    bytes: usize,
}

fn parse_reply(status: u16, body: &str, steps: usize) -> Result<Reply, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", &body[..body.len().min(200)]));
    }
    let v = serde_json::from_str(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let list = v
        .get("seismograms")
        .and_then(|s| s.as_array())
        .ok_or("reply has no seismograms")?;
    let samples_ok = list.iter().all(|s| {
        s.get("data").and_then(|d| d.as_array()).is_some_and(|d| {
            d.len() == steps
                && d.iter().all(|xyz| {
                    xyz.as_array().is_some_and(|c| {
                        c.len() == 3 && c.iter().all(|x| x.as_f64().is_some_and(f64::is_finite))
                    })
                })
        })
    });
    let at = body
        .find("\"seismograms\":")
        .ok_or("reply has no seismograms")?;
    Ok(Reply {
        cache: v
            .get("cache")
            .and_then(|c| c.as_str())
            .unwrap_or("")
            .to_string(),
        element_steps: v.get("element_steps").and_then(|e| e.as_u64()).unwrap_or(0),
        seismograms: body[at..].to_string(),
        stations: list.len(),
        samples_ok,
        bytes: body.len(),
    })
}

/// Send one `/simulate` and check the reply against what it must be.
fn simulate(
    addr: std::net::SocketAddr,
    body: &str,
    steps: usize,
    stations: usize,
    want_cache: &str,
) -> (f64, Result<Reply, String>) {
    let (s, reply) = timed(|| layers::http_simulate(addr, body));
    let checked = reply
        .and_then(|(status, text)| parse_reply(status, &text, steps))
        .and_then(|r| {
            if r.cache != want_cache {
                Err(format!("cache is {:?}, want {want_cache:?}", r.cache))
            } else if r.stations != stations || !r.samples_ok || r.element_steps == 0 {
                Err("reply has the wrong shape".to_string())
            } else {
                Ok(r)
            }
        });
    (s, checked)
}

fn serve_cold(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    let events = layers::catalogue();
    let event = &events[0];
    let stations = seeded_stations(args.seed, 7, event);
    let body_a = request_body(
        sizes.cold_nex,
        sizes.cold_steps,
        &event.name,
        &stations[..6],
    );
    let body_b = request_body(sizes.cold_nex, sizes.cold_steps, &event.name, &stations);
    // A different, tiny mesh: pages in the daemon's solve path without
    // touching the mesh the cold request must miss.
    let body_warm = request_body(4, 2, &event.name, &stations[..1]);
    if args.trace {
        spans::arm(true);
    }

    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut rss_mb = 0.0;
    let mut first: Option<Reply> = None;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut meshhit_ms = 0.0;
    let mut reply_bytes = 0;
    // Only request latency counts against the window; starting and
    // stopping a daemon around each repetition is not what is measured.
    while latencies.len() < sizes.min_reps.max(1)
        || latencies.iter().sum::<f64>() * (1.0 + 1.0 / latencies.len() as f64) <= args.seconds
    {
        let i = latencies.len();
        let dir = scratch_dir("cold");
        // Set-up: a fresh data directory and daemon, answering and warm.
        let (setup_s, daemon) = timed(|| {
            let _s = span("bench", "setup");
            let daemon = layers::start_daemon(&dir);
            let health = layers::http_get(daemon.addr, "/health");
            let warm = simulate(daemon.addr, &body_warm, 2, 1, "miss").1;
            if !matches!(health, Ok((200, _))) || warm.is_err() {
                problems.push(format!("repetition {i}: daemon did not come up"));
            }
            daemon
        });
        setups.push(setup_s);
        let rep_span = span("bench", "rep");
        // Request A: mesh miss, solve, serialise, cache write.
        let (latency_s, reply) = simulate(daemon.addr, &body_a, sizes.cold_steps, 6, "miss");
        if latencies.is_empty() {
            rss_mb = rss_now();
        }
        latencies.push(latency_s);
        match reply {
            Err(e) => {
                failed += 1;
                problems.push(format!("repetition {i}: {e}"));
            }
            Ok(r) => match &first {
                None => first = Some(r),
                Some(f) if f.seismograms == r.seismograms && f.element_steps == r.element_steps => {
                }
                Some(_) => {
                    failed += 1;
                    problems.push(format!("repetition {i}: reply differs from the first"));
                }
            },
        }
        if args.trace {
            // Request B: same mesh, one more station — a mesh hit.
            let (s, reply) = simulate(daemon.addr, &body_b, sizes.cold_steps, 7, "miss");
            meshhit_ms = s * 1e3;
            match reply {
                Ok(r) => reply_bytes = r.bytes,
                Err(e) => problems.push(format!("mesh-hit request: {e}")),
            }
        }
        drop(rep_span);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        if args.trace {
            break;
        }
    }

    if args.trace {
        spans::arm(false);
        let mut counters = Metrics::new();
        counters.insert("serve.cold_meshhit_ms", meshhit_ms);
        counters.insert("rep.cache_miss", 3.0);
        counters.insert("rep.reply_bytes", reply_bytes as f64);
        let probes = probes::run(sizes, args.seed, None);
        return Ok(Outcome {
            attempted: 2,
            failed,
            problems,
            metrics: per_layer(
                &args.workload,
                latencies[0] + meshhit_ms * 1e-3,
                counters,
                probes,
            )?,
        });
    }
    let measured_s: f64 = latencies.iter().sum();
    Ok(Outcome {
        attempted: latencies.len() as u64,
        failed,
        problems,
        metrics: end_to_end(
            &latencies,
            latencies.len() as f64,
            measured_s,
            rss_mb,
            &setups,
        ),
    })
}

/// Start a daemon on a fresh `dir` and ask for every key once.
fn prefill(
    dir: &std::path::Path,
    keys: &[(String, usize)],
    steps: usize,
) -> Result<(layers::Daemon, Vec<Reply>), String> {
    let _s = span("bench", "setup");
    let daemon = layers::start_daemon(dir);
    let mut cold = Vec::with_capacity(keys.len());
    for (k, (body, n)) in keys.iter().enumerate() {
        match simulate(daemon.addr, body, steps, *n, "miss").1 {
            Ok(reply) => cold.push(reply),
            Err(e) => {
                daemon.shutdown();
                return Err(format!("prefill of key {k}: {e}"));
            }
        }
    }
    Ok((daemon, cold))
}

fn serve_warm(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    const CLIENTS: usize = 2;
    let events = layers::catalogue();
    let event = &events[0];
    let keys: Vec<(String, usize)> = (0..sizes.warm_keys)
        .map(|k| {
            let stations = seeded_stations(args.seed.wrapping_add(k as u64), 8 + k, event);
            (
                request_body(sizes.warm_nex, sizes.warm_steps, &event.name, &stations),
                stations.len(),
            )
        })
        .collect();
    if args.trace {
        spans::arm(true);
    }

    // Set-up: a daemon on a fresh directory with every key answered once.
    // The last one stays up for the measurement. Peak memory is read
    // after the first, once it has also answered a round of warm requests.
    let setup_runs = if args.trace { 1 } else { sizes.setup_runs };
    let dir = scratch_dir("warm");
    let mut setups = Vec::new();
    let mut rss_mb = 0.0;
    for run in 1..setup_runs {
        let (s, filled) = timed(|| prefill(&dir, &keys, sizes.warm_steps));
        setups.push(s);
        let (daemon, _) = filled?;
        if run == 1 {
            for (body, n) in &keys {
                simulate(daemon.addr, body, sizes.warm_steps, *n, "mem_hit").1?;
            }
            rss_mb = rss_now();
        }
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let (s, filled) = timed(|| prefill(&dir, &keys, sizes.warm_steps));
    setups.push(s);
    let (daemon, cold) = filled?;
    let reply_bytes: usize = cold.iter().map(|r| r.bytes).sum::<usize>() / cold.len();

    // Warm phase: each client asks for keys in its own seeded order and
    // waits for each answer before sending the next request. It gets 30 %
    // of the run's seconds; the three set-ups need the rest.
    let window_s = if args.trace { 0.0 } else { 0.3 * args.seconds };
    let per_client = sizes.min_warm_requests / CLIENTS / if args.trace { 4 } else { 1 };
    let addr = daemon.addr;
    let cpu0 = cpu_now();
    let t0 = Instant::now();
    let warm_span = span("bench", "rep");
    let per_thread: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (keys, cold) = (&keys, &cold);
                let mut rng = SplitMix64::new(args.seed ^ (0xC11E57 + c as u64));
                scope.spawn(move || {
                    let _s = span("bench", "client");
                    let mut latencies = Vec::new();
                    let mut errors = Vec::new();
                    while latencies.len() < per_client || t0.elapsed().as_secs_f64() < window_s {
                        let k = rng.below(keys.len());
                        let (s, reply) =
                            simulate(addr, &keys[k].0, sizes.warm_steps, keys[k].1, "mem_hit");
                        latencies.push(s);
                        match reply {
                            Ok(r) if r.seismograms == cold[k].seismograms => {}
                            Ok(_) => errors
                                .push(format!("key {k}: warm reply differs from the cold one")),
                            Err(e) => errors.push(format!("key {k}: {e}")),
                        }
                    }
                    (latencies, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    drop(warm_span);
    let measured_s = t0.elapsed().as_secs_f64();
    let latencies: Vec<f64> = per_thread
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let mut problems: Vec<String> = per_thread.into_iter().flat_map(|(_, e)| e).collect();
    let failed = problems.len() as u64;
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    println!(
        "# warm: {} requests, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        ms.len(),
        percentile(&ms, 90.0),
        percentile(&ms, 99.0),
        percentile(&ms, 100.0)
    );

    if !args.trace {
        print_cpu_per_op(cpu0, latencies.len() as f64);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(Outcome {
            attempted: latencies.len() as u64,
            failed,
            problems,
            metrics: end_to_end(
                &latencies,
                latencies.len() as f64,
                measured_s,
                rss_mb,
                &setups,
            ),
        });
    }

    // Restart phase: the same directory, a new daemon, every key once.
    daemon.shutdown();
    let daemon = layers::start_daemon(&dir);
    let mut disk_ms = Vec::new();
    for (k, (body, n)) in keys.iter().enumerate() {
        let (s, reply) = simulate(daemon.addr, body, sizes.warm_steps, *n, "disk_hit");
        disk_ms.push(s * 1e3);
        match reply {
            Ok(r) if r.seismograms == cold[k].seismograms => {}
            Ok(_) => problems.push(format!("key {k}: disk-hit reply differs from the cold one")),
            Err(e) => problems.push(format!("key {k} after restart: {e}")),
        }
    }
    daemon.shutdown();
    spans::arm(false);
    let _ = std::fs::remove_dir_all(&dir);
    let mut rep = Metrics::new();
    rep.insert("serve.warm_p90_ms", percentile(&ms, 90.0));
    rep.insert("serve.warm_p99_ms", percentile(&ms, 99.0));
    rep.insert("serve.warm_max_ms", percentile(&ms, 100.0));
    rep.insert("serve.disk_hit_p50_ms", median(&disk_ms));
    rep.insert("rep.cache_miss", keys.len() as f64);
    rep.insert("rep.cache_mem_hit", ms.len() as f64);
    rep.insert("rep.cache_disk_hit", disk_ms.len() as f64);
    rep.insert("rep.reply_bytes", reply_bytes as f64);
    let probes = probes::run(sizes, args.seed, None);
    Ok(Outcome {
        attempted: (ms.len() + disk_ms.len()) as u64,
        failed: problems.len() as u64,
        problems,
        metrics: per_layer(&args.workload, measured_s, rep, probes)?,
    })
}

/// Run one workload, untraced (end-to-end metrics) or traced (per-layer).
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sizes = Sizes::new(args.smoke);
    match args.workload.as_str() {
        "serial_solve" => serial_solve(args, &sizes),
        "ranks2_halo" => ranks2_halo(args, &sizes),
        "batch_campaign" => batch_campaign(args, &sizes),
        "serve_cold" => serve_cold(args, &sizes),
        "serve_warm" => serve_warm(args, &sizes),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Regenerate the committed golden seismograms of `serial_solve`.
pub fn write_golden() -> Result<(), String> {
    let inputs = solve_setup(&Sizes::new(false), crate::spec::DEFAULT_SEED, 1);
    let solved = layers::run_serial(&inputs.sim, &inputs.mesh);
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a parent"))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, golden_text(&solved.seismograms)).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}
