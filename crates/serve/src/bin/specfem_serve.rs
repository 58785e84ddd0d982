//! `specfem_serve` — the synthetics daemon.
//!
//! ```text
//! specfem_serve [--parfile PATH] [--addr HOST:PORT] [--data-dir DIR]
//!               [--workers N] [--ledger-dir DIR] [--ledger-batch N]
//!               [--batch-lanes K] [--batch-window-ms MS]
//! ```
//!
//! Settings come from the Par_file (`SERVE_ADDR`, `RESULT_CACHE_BYTES`,
//! `REQUEST_DEADLINE_MS`, `BATCH_MAX_LANES`, `BATCH_WINDOW_MS`; see
//! `ServeConfig::from_parfile`) with flags overriding. The
//! process prints the bound address on stdout (`SERVE_LISTENING <addr>`)
//! and blocks until `POST /shutdown`.

use std::path::PathBuf;

use specfem_serve::{serve, ServeConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut parfile: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut data_dir = PathBuf::from("OUTPUT_FILES/serve");
    let mut workers = 0usize;
    let mut ledger_dir: Option<PathBuf> = None;
    let mut ledger_batch = 32usize;
    let mut batch_lanes: Option<usize> = None;
    let mut batch_window_ms: Option<u64> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--parfile" => parfile = Some(PathBuf::from(value("--parfile"))),
            "--addr" => addr = Some(value("--addr")),
            "--data-dir" => data_dir = PathBuf::from(value("--data-dir")),
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .expect("--workers must be a count")
            }
            "--ledger-dir" => ledger_dir = Some(PathBuf::from(value("--ledger-dir"))),
            "--ledger-batch" => {
                ledger_batch = value("--ledger-batch")
                    .parse()
                    .expect("--ledger-batch must be a count")
            }
            "--batch-lanes" => {
                batch_lanes = Some(
                    value("--batch-lanes")
                        .parse()
                        .expect("--batch-lanes must be a lane count"),
                )
            }
            "--batch-window-ms" => {
                batch_window_ms = Some(
                    value("--batch-window-ms")
                        .parse()
                        .expect("--batch-window-ms must be a millisecond count"),
                )
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let text = parfile.map_or_else(String::new, |path| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    });
    let mut cfg =
        ServeConfig::from_parfile(&text, data_dir).unwrap_or_else(|e| panic!("bad Par_file: {e}"));
    if let Some(addr) = addr {
        cfg.addr = addr;
    }
    cfg.workers = workers;
    cfg.ledger_dir = ledger_dir;
    cfg.ledger_batch = ledger_batch;
    if let Some(lanes) = batch_lanes {
        cfg.batch_max_lanes = lanes.max(1);
    }
    if let Some(ms) = batch_window_ms {
        cfg.batch_window_ms = ms;
    }

    let handle = serve(cfg).unwrap_or_else(|e| panic!("cannot start daemon: {e}"));
    println!("SERVE_LISTENING {}", handle.addr());
    handle.join();
    println!("SERVE_STOPPED");
}
