//! The repository's benchmark: five workloads measured from outside.
//!
//! ```text
//! specfem-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! specfem-benchmark run [--seed <n>] [--seconds <s>] [--runs <n>] [--smoke] [--out <file>]
//! specfem-benchmark compare <a.json> <b.json>
//! specfem-benchmark selfcheck [--seed <n>] [--seconds <s>] [--runs <n>] [--smoke]
//! specfem-benchmark spec | golden
//! ```
//!
//! The first form is one run of one workload; its last line of standard
//! output is `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run` drives that form once per workload in a child
//! process each, so peak memory and the program's global metrics
//! registry are per workload.

mod compare;
mod layers;
mod probes;
mod spans;
mod spec;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use util::{json_num, json_str};
use workloads::{Outcome, RunArgs};

/// `--key value` options and bare words of a command line.
struct Cli {
    words: Vec<String>,
    options: BTreeMap<String, String>,
    smoke: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli {
            words: Vec::new(),
            options: BTreeMap::new(),
            smoke: false,
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if a == "--smoke" {
                cli.smoke = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let value = args.next().ok_or(format!("--{key} needs a value"))?;
                cli.options.insert(key.to_string(), value);
            } else {
                cli.words.push(a);
            }
        }
        Ok(cli)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

/// The root `[profile.release]` must equal the benchmark's own: a
/// standalone workspace does not inherit it, and the benchmark only means
/// something if it measures production codegen.
fn check_release_profile() -> Result<(), String> {
    fn block(path: &std::path::Path) -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines: Vec<String> = text
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        Ok(lines)
    }
    let dir = util::bench_dir();
    let (root, own) = (
        block(&dir.join("../Cargo.toml"))?,
        block(&dir.join("Cargo.toml"))?,
    );
    if root != own {
        return Err(format!(
            "[profile.release] differs: the repository has {root:?}, benchmark/Cargo.toml has {own:?}; \
             copy the root block into benchmark/Cargo.toml"
        ));
    }
    Ok(())
}

/// The result line the acceptance driver reads.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit(name).expect("every reported metric is in the spec");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// One run of one workload in this process.
fn one_run(cli: &Cli) -> Result<(), String> {
    check_release_profile()?;
    let args = RunArgs {
        workload: cli.options["workload"].clone(),
        seed: cli.number("seed", spec::DEFAULT_SEED)?,
        seconds: cli.number("seconds", spec::RUN_SECONDS as f64)?,
        trace: cli.number("trace", 0u8)? != 0,
        smoke: cli.smoke,
    };
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        if args.smoke { " (smoke sizes)" } else { "" }
    );
    let outcome = workloads::run(&args)?;
    for (name, value) in &outcome.metrics {
        let unit = spec::unit(name).unwrap_or("");
        println!("{name:<34} {value:>18.6} {unit}");
    }
    for p in &outcome.problems {
        println!("# check failed: {p}");
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

/// Values one workload reported over the runs of a result set.
#[derive(Default)]
struct WorkloadResults {
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// The result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process and read its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let v = serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or(format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(ChildResult {
        correct: v.get("correct").and_then(|c| c.as_bool()).unwrap_or(false),
        attempted: v.get("attempted").and_then(|c| c.as_u64()).unwrap_or(0),
        failed: v.get("failed").and_then(|c| c.as_u64()).unwrap_or(0),
        metrics,
    })
}

/// One full result set: every workload, `runs` untraced runs (seed,
/// seed+1, …) and one traced run each.
fn result_set(cli: &Cli) -> Result<BTreeMap<String, WorkloadResults>, String> {
    let seed: u64 = cli.number("seed", spec::DEFAULT_SEED)?;
    let default_seconds = if cli.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds: f64 = cli.number("seconds", default_seconds)?;
    let runs: u64 = cli.number("runs", 1)?;
    let mut set = BTreeMap::new();
    for w in spec::WORKLOADS {
        let mut r = WorkloadResults {
            correct: true,
            ..WorkloadResults::default()
        };
        for i in 0..runs.max(1) {
            println!("== {} (untraced, seed {})", w.name, seed + i);
            let child = child_run(w.name, seed + i, seconds, false, cli.smoke)?;
            r.correct &= child.correct;
            r.attempted += child.attempted;
            r.failed += child.failed;
            for (k, v) in child.metrics {
                r.end_to_end.entry(k).or_default().push(v);
            }
        }
        println!("== {} (traced)", w.name);
        let child = child_run(w.name, seed, seconds, true, cli.smoke)?;
        r.correct &= child.correct;
        r.per_layer = child.metrics;
        set.insert(w.name.to_string(), r);
    }
    Ok(set)
}

fn git_commit() -> String {
    // The checkout need not be a git repository; the commit is a label.
    std::fs::read_to_string(util::bench_dir().join("../.git/HEAD"))
        .ok()
        .and_then(|head| {
            let head = head.trim().to_string();
            match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(util::bench_dir().join("../.git").join(r)).ok(),
                None => Some(head),
            }
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The result set as JSON: per workload and end-to-end metric the
/// values, their median, quartiles and count.
fn results_json(cli: &Cli, set: &BTreeMap<String, WorkloadResults>) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"commit\": {},\n  \"seed\": {},\n  \"smoke\": {},\n  \"nproc\": {},\n  \"workloads\": {{\n",
        json_str(&git_commit()),
        cli.number("seed", spec::DEFAULT_SEED).unwrap_or(spec::DEFAULT_SEED),
        cli.smoke,
        util::nproc()
    ));
    let n = set.len();
    for (i, (name, r)) in set.iter().enumerate() {
        let e2e: Vec<String> = r
            .end_to_end
            .iter()
            .map(|(k, values)| {
                let [q1, q2, q3] = util::quartiles(values);
                let m = spec::end_to_end(k).expect("reported metrics are in the spec");
                format!(
                    "        {}: {{\"unit\": {}, \"better\": {}, \"bound\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                    json_str(k),
                    json_str(m.unit),
                    json_str(m.better.as_str()),
                    json_num(m.bound),
                    json_num(q2),
                    json_num(q1),
                    json_num(q3),
                    values.len(),
                    values.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", ")
                )
            })
            .collect();
        let layers: Vec<String> = r
            .per_layer
            .iter()
            .map(|(k, v)| {
                let m = spec::per_layer(k).expect("reported metrics are in the spec");
                format!(
                    "        {}: {{\"unit\": {}, \"exact\": {}, \"value\": {}}}",
                    json_str(k),
                    json_str(m.unit),
                    m.exact,
                    json_num(*v)
                )
            })
            .collect();
        out.push_str(&format!(
            "    {}: {{\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
             \"oversubscribed\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}{}\n",
            json_str(name),
            r.correct,
            r.attempted,
            r.failed,
            name == "ranks2_halo" && util::nproc() < 2,
            e2e.join(",\n"),
            layers.join(",\n"),
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn print_set(set: &BTreeMap<String, WorkloadResults>) {
    for (name, r) in set {
        println!(
            "\n{name}: {} of {} operations failed, correct: {}",
            r.failed, r.attempted, r.correct
        );
        for (k, values) in &r.end_to_end {
            let [q1, q2, q3] = util::quartiles(values);
            let unit = spec::end_to_end(k).map_or("", |m| m.unit);
            println!(
                "  {k:<32} {q2:>16.6} {unit:<8} q1 {q1:.6} q3 {q3:.6} n {}",
                values.len()
            );
        }
        for (k, v) in &r.per_layer {
            let unit = spec::per_layer(k).map_or("", |m| m.unit);
            println!("  {k:<32} {v:>16.6} {unit}");
        }
    }
    // Derived across workloads: fixed-size strong-scaling efficiency.
    let latency = |w: &str| {
        set.get(w)
            .and_then(|r| r.end_to_end.get("latency_ms"))
            .map(|v| util::median(v))
    };
    if let (Some(serial), Some(ranks2)) = (latency("serial_solve"), latency("ranks2_halo")) {
        println!(
            "\ncomm.strong_scaling_eff.w2 (serial_solve / 2 x ranks2_halo latency): {:.4}",
            serial / (2.0 * ranks2)
        );
    }
}

fn run(cli: &Cli) -> Result<bool, String> {
    check_release_profile()?;
    let set = result_set(cli)?;
    print_set(&set);
    let default_out = util::bench_dir().join("out").join("results.json");
    let out = cli.options.get("out").map_or(default_out, PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, results_json(cli, &set)).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    Ok(set.values().all(|r| r.correct))
}

fn selfcheck(cli: &Cli) -> Result<bool, String> {
    check_release_profile()?;
    let dir = util::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut paths = Vec::new();
    let mut all_correct = true;
    for tag in ["a", "b"] {
        println!("==== result set {tag}");
        let set = result_set(cli)?;
        all_correct &= set.values().all(|r| r.correct);
        let path = dir.join(format!("selfcheck_{tag}.json"));
        std::fs::write(&path, results_json(cli, &set)).map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let verdict = compare::compare_files(&paths[0], &paths[1], true)?;
    Ok(all_correct && verdict)
}

fn dispatch() -> Result<bool, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    if cli.options.contains_key("workload") {
        return one_run(&cli).map(|()| true);
    }
    if cli.options.contains_key("rss-probe") {
        // Internal: `ranks2_halo` measures its memory in fresh processes.
        workloads::ranks2_rss_probe(cli.number("seed", spec::DEFAULT_SEED)?, cli.smoke);
        return Ok(true);
    }
    match cli.words.first().map(String::as_str) {
        Some("run") => run(&cli),
        Some("selfcheck") => selfcheck(&cli),
        Some("compare") => match &cli.words[1..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref(), false),
            _ => Err("compare needs two result files".to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("golden") => workloads::write_golden().map(|()| true),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | compare <a> <b> | selfcheck | spec | golden".to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("specfem-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
