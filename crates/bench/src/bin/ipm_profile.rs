//! §5 reproduction with the `specfem-obs` subsystem: run traced
//! simulations at two rank counts, regenerate the IPM-style table
//! (communication vs computation share of the main loop), and write the
//! full artifact set — `ipm_report.txt`, `ipm_report.json`, and the
//! Perfetto timeline — under `OUTPUT_FILES/ipm_profile/`.
//!
//! The binary also self-checks the pipeline: the report JSON is parsed
//! back and every per-rank row must reproduce the communicator's own
//! byte accounting exactly, and the Perfetto export must be valid JSON.
//!
//! Each run additionally appends one schema-versioned record per rank
//! count to the run-over-run performance ledger
//! (`BENCH_ipm_profile.json`, see `specfem_obs::ledger`); the
//! `perf_ledger` binary diffs the latest records against the committed
//! baseline and fails CI on regression.

use specfem_bench::{append_ledger, ledger_dir, ledger_record};
use specfem_core::{NetworkProfile, Simulation};

fn main() {
    let out_root = std::path::PathBuf::from("OUTPUT_FILES/ipm_profile");
    println!("== IPM-style profile of the solver main loop (§5) ==");
    println!("(paper, measured with IPM on Franklin: 1.9-4.2 % comm, average 3.2 %)");
    println!();
    println!("ranks    comm%(wall)  comm%(modeled)       sent B     msgs   spans");

    for nproc in [1usize, 2] {
        let dir = out_root.join(format!("nproc{nproc}"));
        let sim = Simulation::builder()
            .resolution(4)
            .processors(nproc) // 6·nproc² ranks
            .steps(16)
            .stations(2)
            .trace_dir(&dir)
            .metrics_every(4)
            .build()
            .expect("valid configuration");
        let result = sim.run_parallel(NetworkProfile::loopback());
        let report = result.ipm_report();

        // Self-check 1: the JSON report parses and its per-rank rows match
        // CommStats byte-for-byte.
        let parsed = serde_json::from_str(&report.to_json()).expect("report JSON parses");
        let rows = parsed["per_rank"].as_array().expect("per_rank array");
        assert_eq!(rows.len(), result.ranks.len());
        for r in &result.ranks {
            let row = rows
                .iter()
                .find(|row| row["rank"].as_u64() == Some(r.rank as u64))
                .expect("every rank has a row");
            assert_eq!(
                row["bytes_sent"].as_u64(),
                Some(r.comm.bytes_sent),
                "rank {}: report bytes_sent disagrees with CommStats",
                r.rank
            );
            assert_eq!(row["bytes_received"].as_u64(), Some(r.comm.bytes_received));
            assert_eq!(row["messages_sent"].as_u64(), Some(r.comm.messages_sent));
        }

        // Self-check 2: the Perfetto artifact on disk is loadable JSON.
        let perfetto = std::fs::read_to_string(dir.join("trace.perfetto.json"))
            .expect("trace.perfetto.json written");
        let trace = serde_json::from_str(&perfetto).expect("Perfetto JSON parses");
        let span_events = trace["traceEvents"]
            .as_array()
            .expect("traceEvents array")
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .count();

        // Append this run to the performance ledger (one record per rank
        // count, shared BENCH_ipm_profile.json file).
        let record = ledger_record(&format!("ipm_profile_nproc{nproc}"), &result, "loopback");
        let path = append_ledger(&ledger_dir(), "ipm_profile", &record)
            .expect("ledger append must succeed");
        assert!(path.exists());

        // The modeled share is the dedicated-machine estimate; the wall
        // share on an oversubscribed host is dominated by recv() waits.
        let modeled_mean = result
            .ranks
            .iter()
            .map(|r| {
                let compute = (r.elapsed_s - r.comm.wall_time_s).max(1e-9);
                r.comm.modeled_time_s / (compute + r.comm.modeled_time_s)
            })
            .sum::<f64>()
            / result.ranks.len() as f64;
        println!(
            "{:>5} {:>12.2} {:>15.2} {:>12} {:>8} {:>7}",
            result.ranks.len(),
            100.0 * report.comm_fraction_mean,
            100.0 * modeled_mean,
            report.totals.bytes_sent,
            report.totals.messages_sent,
            span_events
        );
    }

    println!();
    println!("per-run artifacts (report + Perfetto timeline, load the latter");
    println!(
        "at https://ui.perfetto.dev) are under {}/",
        out_root.display()
    );
    println!();

    // Full banner for the larger run.
    let text = std::fs::read_to_string(out_root.join("nproc2/ipm_report.txt"))
        .expect("ipm_report.txt written");
    print!("{text}");
}
