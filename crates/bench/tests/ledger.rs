//! Acceptance test for the run-over-run performance ledger: a full
//! harness-style run appends a schema-versioned record to
//! `BENCH_<harness>.json`, the record round-trips through the parser,
//! and the diff logic that backs the `perf_ledger` gate flags a
//! synthetic slowdown while passing an identical re-run, with the gate's
//! wall time the median of the harness's last three runs.

use specfem_bench::{append_ledger, ledger_record};
use specfem_core::obs::ledger::{self, LedgerRecord, LEDGER_SCHEMA_VERSION};
use specfem_core::Simulation;

#[test]
fn harness_run_appends_a_schema_versioned_record() {
    let dir = std::env::temp_dir().join(format!("specfem_ledger_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sim = Simulation::builder()
        .resolution(4)
        .steps(4)
        .stations(1)
        .build()
        .expect("valid configuration");
    let result = sim.run_serial();

    let record = ledger_record("ledger_roundtrip", &result, "serial");
    let path = append_ledger(&dir, "roundtrip", &record).expect("append");
    assert!(path.ends_with("BENCH_roundtrip.json"), "{}", path.display());

    let records = ledger::load(&path).expect("reload");
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!(r.schema_version, LEDGER_SCHEMA_VERSION);
    assert_eq!(r.harness, "ledger_roundtrip");
    assert_eq!(r.ranks, 1);
    assert!(r.wall_s > 0.0);
    assert!(r.element_steps > 0, "nspec × nsteps must be recorded");
    assert_eq!(r.machine.profile, "serial");

    // Appending again grows the file; the deterministic counters of the
    // two records are identical, so the diff passes...
    append_ledger(&dir, "roundtrip", &record).expect("second append");
    let records = ledger::load(&path).expect("reload");
    assert_eq!(records.len(), 2);
    let d = ledger::diff(&records[0], &records[1], 10.0);
    assert!(d.ok(), "{:?}", d.regressions);

    // ...while a synthetic 2× wall slowdown on the same machine is a
    // regression (the perf_ledger `--inflate 2.0` self-test in CI).
    let mut slow = records[1].clone();
    slow.wall_s *= 2.0;
    let d = ledger::diff(&records[0], &slow, 10.0);
    assert!(!d.ok(), "a 2x slowdown must trip the gate: {:?}", d.lines);

    // The gate compares the median wall time of a harness's last three
    // records (the baselines are medians of three) and the newest
    // record's counters.
    let run = |harness: &str, wall_s: f64, messages: u64| LedgerRecord {
        harness: harness.to_string(),
        wall_s,
        messages,
        ..record.clone()
    };
    let runs = [
        run("serve", 50.0, 1),
        run("serve", 9.06, 2),
        run("other", 99.0, 9),
        run("serve", 10.48, 3),
        run("serve", 10.15, 4),
    ];
    let (gated, n) = ledger::gated_current(&runs, "serve").expect("serve has runs");
    assert_eq!((gated.wall_s, gated.messages, n), (10.15, 4, 3));
    let (gated, n) = ledger::gated_current(&runs[..2], "serve").expect("serve has runs");
    assert_eq!((gated.wall_s, n), (0.5 * (50.0 + 9.06), 2));
    assert!(ledger::gated_current(&runs, "absent").is_none());

    let _ = std::fs::remove_dir_all(&dir);
}
