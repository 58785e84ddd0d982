//! Run-over-run performance gate: diff the newest records in a harness
//! ledger (`BENCH_<harness>.json`, appended by `ipm_profile` and
//! friends) against a committed baseline ledger and exit non-zero on
//! regression.
//!
//! Deterministic counters (bytes, messages, collectives, element·steps)
//! are compared two-sided on every machine, from each harness's newest
//! record — they must not drift at all beyond the tolerance. Wall
//! seconds are compared one-sided (slower = regression) only when the
//! baseline was measured on a comparable machine, so a committed
//! baseline never fails CI just because the runner is slower hardware.
//! Each baseline's wall time is the median of three runs, so the gated
//! wall time is too: the median over the harness's last three current
//! records (one run alone swings by more than the tolerance).
//!
//! ```text
//! perf_ledger [--ledger PATH] [--baseline PATH] [--max-regress-pct P]
//!             [--inflate FACTOR]
//! ```
//!
//! `--inflate` multiplies the current records' wall seconds and forces
//! machine comparability before diffing — the self-test hook CI uses to
//! assert that a synthetic 2× slowdown actually trips the gate.

use specfem_core::obs::ledger::{self, LedgerRecord};

fn latest_per_harness(records: &[LedgerRecord]) -> Vec<&LedgerRecord> {
    let mut latest: Vec<&LedgerRecord> = Vec::new();
    for r in records {
        match latest.iter_mut().find(|l| l.harness == r.harness) {
            Some(slot) => *slot = r, // file order = append order; last wins
            None => latest.push(r),
        }
    }
    latest
}

fn main() {
    let mut ledger_path = specfem_bench::ledger_dir().join("BENCH_ipm_profile.json");
    let mut baseline_path =
        std::path::PathBuf::from("crates/bench/baselines/BENCH_ipm_profile.json");
    let mut max_regress_pct = 10.0f64;
    let mut inflate = 1.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--ledger" => ledger_path = value("--ledger").into(),
            "--baseline" => baseline_path = value("--baseline").into(),
            "--max-regress-pct" => {
                max_regress_pct = value("--max-regress-pct")
                    .parse()
                    .expect("--max-regress-pct must be a number")
            }
            "--inflate" => {
                inflate = value("--inflate")
                    .parse()
                    .expect("--inflate must be a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let baseline = ledger::load(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot load baseline {}: {e}", baseline_path.display());
        std::process::exit(2);
    });
    let current = ledger::load(&ledger_path).unwrap_or_else(|e| {
        eprintln!("cannot load ledger {}: {e}", ledger_path.display());
        std::process::exit(2);
    });
    if baseline.is_empty() {
        eprintln!("baseline {} has no records", baseline_path.display());
        std::process::exit(2);
    }
    if current.is_empty() {
        eprintln!(
            "ledger {} has no records — run the harness first (e.g. `cargo run --release --bin ipm_profile`)",
            ledger_path.display()
        );
        std::process::exit(2);
    }

    println!(
        "== perf ledger gate: {} vs baseline {} (tolerance ±{max_regress_pct}%{}) ==",
        ledger_path.display(),
        baseline_path.display(),
        if inflate != 1.0 {
            format!(", synthetic wall ×{inflate}")
        } else {
            String::new()
        }
    );

    let mut failed = false;
    for base in latest_per_harness(&baseline) {
        let Some((mut cur, runs)) = ledger::gated_current(&current, &base.harness) else {
            eprintln!("harness {}: no current record", base.harness);
            failed = true;
            continue;
        };
        if inflate != 1.0 {
            // Self-test mode: force the wall comparison on and slow the
            // current record down synthetically.
            cur.wall_s *= inflate;
            cur.machine = base.machine.clone();
        }
        let d = ledger::diff(base, &cur, max_regress_pct);
        println!("-- {} (wall: median of {runs} runs) --", base.harness);
        for line in &d.lines {
            println!("   {line}");
        }
        if !d.ok() {
            failed = true;
            for r in &d.regressions {
                eprintln!("   REGRESSION: {r}");
            }
        }
    }

    if failed {
        eprintln!("perf ledger gate FAILED");
        std::process::exit(1);
    }
    println!("perf ledger gate passed");
}
