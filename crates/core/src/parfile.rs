//! `Par_file` parsing — the SPECFEM3D_GLOBE configuration format
//! (`KEY = value` lines with `#` comments), mapped onto the
//! [`SimulationBuilder`](crate::SimulationBuilder).
//!
//! Recognized keys (a faithful subset of the production file):
//!
//! ```text
//! # simulation type
//! NCHUNKS                = 6            # 6 = global, 1 = regional
//! NEX_XI                 = 16
//! NPROC_XI               = 2
//! MODEL                  = prem_iso     # prem | prem_iso | prem_3d | homogeneous
//! REGIONAL_MIN_RADIUS_KM = 5701.0      # only for NCHUNKS = 1
//! # physics
//! ATTENUATION            = .true.
//! ROTATION               = .false.
//! GRAVITY                = .false.
//! OCEANS                 = .false.
//! # communication
//! OVERLAP_COMM           = .true.      # overlap halo exchange with inner elements
//! # run
//! NSTEP                  = 400
//! DT                     = 0.0          # 0 = automatic (Courant)
//! LTS_MAX_RATE           = 1            # clustered-LTS rate cap (power of two), 1 = off
//! RECORD_LENGTH_STEPS    = 1
//! EVENT                  = argentina_deep
//! NSTATIONS              = 12
//! # observability
//! TRACE                  = .false.     # record spans + metrics per rank
//! TRACE_DIR              = OUTPUT_FILES/trace  # write artifacts here
//! METRICS_EVERY          = 10          # step-timing sample cadence
//! HEALTH_EVERY           = 0           # numerical-health sample cadence, 0 = off
//! WATCHDOG_TIMEOUT_MS    = 0           # straggler watchdog heartbeat deadline, 0 = off
//! FLIGHT_RECORDER        = .false.     # per-rank event journal for crash dossiers
//! FLIGHT_BUFFER_EVENTS   = 1024        # flight-journal ring capacity (>= 1)
//! CHECKPOINT_KEEP        = 2           # merged checkpoint generations kept on disk (>= 1)
//! ```
//!
//! The serve daemon reads its own keys (`SERVE_ADDR`, `RESULT_CACHE_BYTES`,
//! `REQUEST_DEADLINE_MS`, `BATCH_MAX_LANES`, `BATCH_WINDOW_MS`) from the
//! same file through `specfem_serve::ServeConfig::from_parfile`; keys a
//! reader does not know are ignored, so one file can configure both.

use crate::{ModelChoice, Simulation, SimulationBuilder};

/// Parse the `KEY = value` format into key/value pairs (upper-cased keys).
pub fn parse_pairs(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().to_uppercase();
        let value = line[eq + 1..].trim().to_string();
        if !key.is_empty() && !value.is_empty() {
            out.push((key, value));
        }
    }
    out
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v.to_lowercase().as_str() {
        ".true." | "true" | "1" | "yes" => Ok(true),
        ".false." | "false" | "0" | "no" => Ok(false),
        other => Err(format!("not a boolean: {other}")),
    }
}

/// Build a [`Simulation`] from Par_file text.
pub fn simulation_from_parfile(text: &str) -> Result<Simulation, String> {
    let pairs = parse_pairs(text);
    let get = |key: &str| -> Option<&str> {
        pairs
            .iter()
            .rev() // last assignment wins, like Fortran's re-reads
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let parse_num = |key: &str, v: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .map_err(|_| format!("{key}: not a number: {v}"))
    };
    let count = |key: &str| -> Result<Option<usize>, String> {
        get(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: not a count: {v}")))
            .transpose()
    };

    let mut builder = SimulationBuilder::default();
    if let Some(n) = count("NEX_XI")? {
        builder = builder.resolution(n);
    }
    if let Some(n) = count("NPROC_XI")? {
        builder = builder.processors(n);
    }
    match get("NCHUNKS") {
        None | Some("6") => {}
        Some("1") => {
            let r_km = get("REGIONAL_MIN_RADIUS_KM")
                .map(|v| parse_num("REGIONAL_MIN_RADIUS_KM", v))
                .transpose()?
                .unwrap_or(5_701.0);
            builder = builder.regional(r_km * 1000.0);
        }
        Some(other) => return Err(format!("NCHUNKS must be 1 or 6, got {other}")),
    }
    if let Some(v) = get("MODEL") {
        builder = builder.model(match v.to_lowercase().as_str() {
            "prem" => ModelChoice::Prem,
            "prem_iso" | "prem_isotropic" => ModelChoice::IsotropicPrem,
            "prem_3d" | "s_perturbed" => ModelChoice::Prem3D,
            "homogeneous" => ModelChoice::Homogeneous,
            other => return Err(format!("unknown MODEL: {other}")),
        });
    }
    if let Some(v) = get("ATTENUATION") {
        builder = builder.attenuation(parse_bool(v)?);
    }
    if let Some(v) = get("ROTATION") {
        builder = builder.rotation(parse_bool(v)?);
    }
    if let Some(v) = get("GRAVITY") {
        builder = builder.gravity(parse_bool(v)?);
    }
    if let Some(v) = get("OCEANS") {
        builder = builder.ocean_load(parse_bool(v)?);
    }
    if let Some(v) = get("OVERLAP_COMM") {
        builder = builder.overlap(parse_bool(v)?);
    }
    if let Some(n) = count("NSTEP")? {
        builder = builder.steps(n);
    }
    if let Some(v) = get("EVENT") {
        builder = builder.catalogue_event(v);
    }
    if let Some(n) = count("NSTATIONS")? {
        builder = builder.stations(n);
    }
    if let Some(v) = get("TRACE") {
        builder = builder.trace(parse_bool(v)?);
    }
    if let Some(v) = get("TRACE_DIR") {
        builder = builder.trace_dir(v);
    }
    if let Some(n) = count("METRICS_EVERY")? {
        builder = builder.metrics_every(n);
    }
    if let Some(n) = count("HEALTH_EVERY")? {
        builder = builder.health_every(n);
    }
    if let Some(v) = get("WATCHDOG_TIMEOUT_MS") {
        let ms = parse_num("WATCHDOG_TIMEOUT_MS", v)?;
        if ms < 0.0 {
            return Err(format!("WATCHDOG_TIMEOUT_MS: must be >= 0, got {v}"));
        }
        if ms > 0.0 {
            builder = builder.watchdog_timeout(std::time::Duration::from_millis(ms as u64));
        }
    }
    if let Some(v) = get("FLIGHT_RECORDER") {
        builder = builder.flight_recorder(parse_bool(v)?);
    }
    if let Some(events) = count("FLIGHT_BUFFER_EVENTS")? {
        if events < 1 {
            return Err(format!("FLIGHT_BUFFER_EVENTS: must be >= 1, got {events}"));
        }
        builder = builder.flight_buffer_events(events);
    }
    if let Some(v) = get("LTS_MAX_RATE") {
        let rate: usize = v
            .parse()
            .map_err(|_| format!("LTS_MAX_RATE: not a rate cap: {v}"))?;
        specfem_mesh::lts::validate_max_rate(rate)?;
        builder = builder.lts_max_rate(rate);
    }
    if let Some(keep) = count("CHECKPOINT_KEEP")? {
        if keep < 1 {
            return Err(format!("CHECKPOINT_KEEP: must be >= 1, got {keep}"));
        }
        builder = builder.checkpoint_keep(keep);
    }
    let dt = get("DT")
        .map(|v| parse_num("DT", v))
        .transpose()?
        .unwrap_or(0.0);
    let record = count("RECORD_LENGTH_STEPS")?.unwrap_or(1);
    builder = builder.configure(|c| {
        if dt > 0.0 {
            c.dt = Some(dt);
        }
        c.record_every = record.max(1);
    });
    builder.build().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_mesh::MeshMode;

    const EXAMPLE: &str = r#"
# a global run
NCHUNKS      = 6
NEX_XI       = 8
NPROC_XI     = 2     # 24 ranks
MODEL        = prem_iso
ATTENUATION  = .true.
ROTATION     = .false.
NSTEP        = 250
EVENT        = argentina_deep
NSTATIONS    = 4
"#;

    #[test]
    fn parses_the_example_parfile() {
        let sim = simulation_from_parfile(EXAMPLE).unwrap();
        assert_eq!(sim.params.nex_xi, 8);
        assert_eq!(sim.params.num_ranks(), 24);
        assert!(sim.config.attenuation);
        assert!(!sim.config.rotation);
        assert_eq!(sim.config.nsteps, 250);
        assert_eq!(sim.stations.len(), 4);
    }

    #[test]
    fn comments_and_blank_lines_ignored_last_assignment_wins() {
        let text = "NEX_XI = 4\n# NEX_XI = 99\n\nNEX_XI = 8 # final\n";
        let pairs = parse_pairs(text);
        assert_eq!(pairs.len(), 2);
        let sim = simulation_from_parfile(text).unwrap();
        assert_eq!(sim.params.nex_xi, 8);
    }

    #[test]
    fn regional_parfile() {
        let text = "NCHUNKS = 1\nNEX_XI = 8\nREGIONAL_MIN_RADIUS_KM = 5701\nNSTEP = 10\n";
        let sim = simulation_from_parfile(text).unwrap();
        assert!(matches!(sim.params.mode, MeshMode::Regional { .. }));
        assert_eq!(sim.params.num_ranks(), 1);
    }

    #[test]
    fn errors_are_reported() {
        assert!(simulation_from_parfile("NCHUNKS = 3\n").is_err());
        assert!(simulation_from_parfile("MODEL = marsquake\n").is_err());
        assert!(simulation_from_parfile("ATTENUATION = maybe\n").is_err());
        assert!(simulation_from_parfile("NEX_XI = 8\nNPROC_XI = 3\n").is_err());
    }

    #[test]
    fn observability_keys() {
        let text =
            "NEX_XI = 4\nNSTEP = 5\nTRACE = .true.\nTRACE_DIR = out/trace\nMETRICS_EVERY = 3\n";
        let sim = simulation_from_parfile(text).unwrap();
        assert!(sim.config.trace);
        assert_eq!(
            sim.config.trace_dir.as_deref(),
            Some(std::path::Path::new("out/trace"))
        );
        assert_eq!(sim.config.metrics_every, 3);
        // TRACE_DIR alone implies tracing.
        let sim = simulation_from_parfile("NEX_XI = 4\nTRACE_DIR = out\n").unwrap();
        assert!(sim.config.trace);
    }

    #[test]
    fn health_and_watchdog_keys() {
        // Both default off.
        let sim = simulation_from_parfile("NEX_XI = 4\n").unwrap();
        assert_eq!(sim.config.health_every, 0);
        assert_eq!(sim.config.watchdog_timeout, None);
        let text = "NEX_XI = 4\nHEALTH_EVERY = 25\nWATCHDOG_TIMEOUT_MS = 5000\n";
        let sim = simulation_from_parfile(text).unwrap();
        assert_eq!(sim.config.health_every, 25);
        assert_eq!(
            sim.config.watchdog_timeout,
            Some(std::time::Duration::from_millis(5000))
        );
        // Explicit zero keeps the watchdog off.
        let sim = simulation_from_parfile("NEX_XI = 4\nWATCHDOG_TIMEOUT_MS = 0\n").unwrap();
        assert_eq!(sim.config.watchdog_timeout, None);
        // Errors are reported, not swallowed.
        assert!(simulation_from_parfile("NEX_XI = 4\nHEALTH_EVERY = often\n").is_err());
        assert!(simulation_from_parfile("NEX_XI = 4\nWATCHDOG_TIMEOUT_MS = -5\n").is_err());
    }

    #[test]
    fn flight_recorder_keys() {
        // Off by default with the standard ring size.
        let sim = simulation_from_parfile("NEX_XI = 4\n").unwrap();
        assert!(!sim.config.flight_recorder);
        assert_eq!(sim.config.flight_buffer_events, 1024);
        let text = "NEX_XI = 4\nFLIGHT_RECORDER = .true.\nFLIGHT_BUFFER_EVENTS = 256\n";
        let sim = simulation_from_parfile(text).unwrap();
        assert!(sim.config.flight_recorder);
        assert_eq!(sim.config.flight_buffer_events, 256);
        // A zero-capacity journal is a config error, not a silent clamp.
        assert!(simulation_from_parfile("NEX_XI = 4\nFLIGHT_BUFFER_EVENTS = 0\n").is_err());
        assert!(simulation_from_parfile("NEX_XI = 4\nFLIGHT_RECORDER = maybe\n").is_err());
    }

    #[test]
    fn checkpoint_keep_key() {
        // Default is two generations (fallback depth 1).
        let sim = simulation_from_parfile("NEX_XI = 4\n").unwrap();
        assert_eq!(sim.config.checkpoint_keep, 2);
        let sim = simulation_from_parfile("NEX_XI = 4\nCHECKPOINT_KEEP = 5\n").unwrap();
        assert_eq!(sim.config.checkpoint_keep, 5);
        // Zero/negative/garbage are rejected, not clamped silently.
        assert!(simulation_from_parfile("NEX_XI = 4\nCHECKPOINT_KEEP = 0\n").is_err());
        assert!(simulation_from_parfile("NEX_XI = 4\nCHECKPOINT_KEEP = -1\n").is_err());
        assert!(simulation_from_parfile("NEX_XI = 4\nCHECKPOINT_KEEP = lots\n").is_err());
    }

    #[test]
    fn lts_max_rate_key_round_trips_and_rejects() {
        // Off by default: every element at the global minimum dt.
        let sim = simulation_from_parfile("NEX_XI = 4\n").unwrap();
        assert_eq!(sim.config.lts_max_rate, 1);
        let sim = simulation_from_parfile("NEX_XI = 4\nLTS_MAX_RATE = 4\n").unwrap();
        assert_eq!(sim.config.lts_max_rate, 4);
        // The ceiling itself is accepted; last assignment wins.
        let text = format!(
            "NEX_XI = 4\nLTS_MAX_RATE = 2\nLTS_MAX_RATE = {}\n",
            specfem_mesh::lts::MAX_LTS_RATE
        );
        assert_eq!(
            simulation_from_parfile(&text).unwrap().config.lts_max_rate,
            specfem_mesh::lts::MAX_LTS_RATE
        );
        // Zero / non-power-of-two / over-cap / garbage are rejected, not
        // clamped silently.
        for bad in ["0", "3", "64", "-2", "lots"] {
            assert!(
                simulation_from_parfile(&format!("NEX_XI = 4\nLTS_MAX_RATE = {bad}\n")).is_err(),
                "LTS_MAX_RATE = {bad} must be rejected"
            );
        }
    }

    /// Integer keys are read as integers: a fraction, a sign or an
    /// exponent is an error, never a truncated or saturated count.
    #[test]
    fn count_keys_accept_integers_only() {
        type Read = fn(&Simulation) -> usize;
        let keys: [(&str, Read); 9] = [
            ("NEX_XI", |s| s.params.nex_xi),
            ("NPROC_XI", |s| s.params.nproc_xi),
            ("NSTEP", |s| s.config.nsteps),
            ("NSTATIONS", |s| s.stations.len()),
            ("METRICS_EVERY", |s| s.config.metrics_every),
            ("HEALTH_EVERY", |s| s.config.health_every),
            ("RECORD_LENGTH_STEPS", |s| s.config.record_every),
            ("FLIGHT_BUFFER_EVENTS", |s| s.config.flight_buffer_events),
            ("CHECKPOINT_KEEP", |s| s.config.checkpoint_keep),
        ];
        for (key, read) in keys {
            // 4 is a legal value of every key (NEX_XI = 4 over NPROC_XI = 4
            // is one element per slice).
            let base = if key == "NPROC_XI" {
                "NEX_XI = 4\n"
            } else {
                ""
            };
            let sim = simulation_from_parfile(&format!("{base}{key} = 4\n")).unwrap();
            assert_eq!(read(&sim), 4, "{key}");
            for bad in [
                "2.7",
                "-4",
                "1e30",
                "4.0",
                "four",
                "99999999999999999999999",
            ] {
                let err = simulation_from_parfile(&format!("{base}{key} = {bad}\n")).unwrap_err();
                assert_eq!(err, format!("{key}: not a count: {bad}"));
            }
        }
    }

    #[test]
    fn overlap_comm_key_round_trips() {
        // Default on; the key can turn it off and back on (last wins).
        assert!(
            simulation_from_parfile("NEX_XI = 4\n")
                .unwrap()
                .config
                .overlap
        );
        let off = simulation_from_parfile("NEX_XI = 4\nOVERLAP_COMM = .false.\n").unwrap();
        assert!(!off.config.overlap);
        let on =
            simulation_from_parfile("NEX_XI = 4\nOVERLAP_COMM = .false.\nOVERLAP_COMM = .true.\n")
                .unwrap();
        assert!(on.config.overlap);
        assert!(simulation_from_parfile("NEX_XI = 4\nOVERLAP_COMM = maybe\n").is_err());
    }

    #[test]
    fn fortran_style_booleans() {
        assert!(parse_bool(".true.").unwrap());
        assert!(!parse_bool(".false.").unwrap());
        assert!(parse_bool("YES").unwrap());
    }
}
