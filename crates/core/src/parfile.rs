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
//! # campaign runtime (read via [`campaign_knobs_from_parfile`])
//! CAMPAIGN_WORKERS       = 0           # worker pool size, 0 = auto
//! MESH_CACHE_BYTES       = 512M        # cache ceiling, 0 = unbounded (K/M/G ok)
//! BATCH_MAX_LANES        = 1           # events fused per solve, 1 = batching off
//! BATCH_WINDOW_MS        = 0           # wait for batch-mates before solving, 0 = no wait
//! # serve daemon (read via [`serve_knobs_from_parfile`])
//! SERVE_ADDR             = 127.0.0.1:7460  # daemon listen address
//! RESULT_CACHE_BYTES     = 64M         # result-cache memory tier (K/M/G ok)
//! REQUEST_DEADLINE_MS    = 30000       # per-request deadline, 0 = none
//! ```

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

/// Campaign-runtime knobs carried in the same Par_file. Kept apart from
/// [`Simulation`] because they configure the scheduler around many
/// simulations, not any single one; `specfem-campaign` builds its
/// `CampaignConfig` from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignKnobs {
    /// `CAMPAIGN_WORKERS`: worker-pool size; 0 (the default) = auto.
    pub workers: usize,
    /// `MESH_CACHE_BYTES`: mesh-cache resident-byte ceiling; 0 (the
    /// default) = unbounded. Accepts `K`/`M`/`G` suffixes.
    pub mesh_cache_bytes: usize,
    /// `BATCH_MAX_LANES`: maximum events fused into one batched solve.
    /// 1 (the default) keeps fusing off — every job runs as a group of
    /// one. Capped at
    /// `specfem_kernels::MAX_BATCH_LANES`.
    pub batch_max_lanes: usize,
    /// `BATCH_WINDOW_MS`: how long a worker holding one batchable job
    /// waits for compatible batch-mates to arrive before solving.
    /// 0 (the default) = fuse only what is already queued, never wait.
    pub batch_window_ms: u64,
}

impl Default for CampaignKnobs {
    fn default() -> Self {
        Self {
            workers: 0,
            mesh_cache_bytes: 0,
            batch_max_lanes: 1,
            batch_window_ms: 0,
        }
    }
}

impl CampaignKnobs {
    /// Render as Par_file lines (the inverse of
    /// [`campaign_knobs_from_parfile`]).
    pub fn to_parfile(&self) -> String {
        format!(
            "CAMPAIGN_WORKERS = {}\nMESH_CACHE_BYTES = {}\nBATCH_MAX_LANES = {}\nBATCH_WINDOW_MS = {}\n",
            self.workers, self.mesh_cache_bytes, self.batch_max_lanes, self.batch_window_ms
        )
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
    n.checked_shl(shift)
        .ok_or_else(|| format!("{key}: byte count overflows: {v}"))
}

/// Serve-daemon knobs carried in the same Par_file. Like
/// [`CampaignKnobs`], these configure the runtime *around* simulations —
/// `specfem-serve` builds its listener and result cache from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeKnobs {
    /// `SERVE_ADDR`: TCP listen address for the daemon.
    pub addr: String,
    /// `RESULT_CACHE_BYTES`: memory-tier budget for the content-addressed
    /// result cache. Accepts `K`/`M`/`G` suffixes.
    pub result_cache_bytes: usize,
    /// `REQUEST_DEADLINE_MS`: per-request deadline; 0 disables it.
    pub request_deadline_ms: u64,
    /// `BATCH_MAX_LANES`: same knob as [`CampaignKnobs::batch_max_lanes`]
    /// — the daemon passes it to its internal campaign, so concurrent
    /// requests for the same mesh and timeloop shape fuse into one
    /// K-event solve. 1 (the default) = batching off.
    pub batch_max_lanes: usize,
    /// `BATCH_WINDOW_MS`: same knob as [`CampaignKnobs::batch_window_ms`]
    /// — how long an underfull batch waits for fusable requests.
    pub batch_window_ms: u64,
}

impl Default for ServeKnobs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7460".to_string(),
            result_cache_bytes: 64 << 20,
            request_deadline_ms: 30_000,
            batch_max_lanes: 1,
            batch_window_ms: 0,
        }
    }
}

impl ServeKnobs {
    /// Render as Par_file lines (the inverse of [`serve_knobs_from_parfile`]).
    /// The batching keys are shared with [`CampaignKnobs::to_parfile`]
    /// and only rendered when they differ from the defaults, so
    /// concatenating both knob sets never emits conflicting duplicates.
    pub fn to_parfile(&self) -> String {
        let mut out = format!(
            "SERVE_ADDR = {}\nRESULT_CACHE_BYTES = {}\nREQUEST_DEADLINE_MS = {}\n",
            self.addr, self.result_cache_bytes, self.request_deadline_ms
        );
        if self.batch_max_lanes != 1 {
            out.push_str(&format!("BATCH_MAX_LANES = {}\n", self.batch_max_lanes));
        }
        if self.batch_window_ms != 0 {
            out.push_str(&format!("BATCH_WINDOW_MS = {}\n", self.batch_window_ms));
        }
        out
    }
}

/// Extract the serve-daemon knobs from Par_file text. All keys are
/// optional; absent keys keep the `Default`. Unrelated keys are ignored,
/// so one file can configure the simulations, the campaign, and the
/// daemon serving them.
pub fn serve_knobs_from_parfile(text: &str) -> Result<ServeKnobs, String> {
    let pairs = parse_pairs(text);
    let get = |key: &str| -> Option<&str> {
        pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let mut knobs = ServeKnobs::default();
    if let Some(v) = get("SERVE_ADDR") {
        knobs.addr = v.to_string();
    }
    if let Some(v) = get("RESULT_CACHE_BYTES") {
        knobs.result_cache_bytes = parse_bytes("RESULT_CACHE_BYTES", v)?;
    }
    if let Some(v) = get("REQUEST_DEADLINE_MS") {
        knobs.request_deadline_ms = v
            .parse()
            .map_err(|_| format!("REQUEST_DEADLINE_MS: not a millisecond count: {v}"))?;
    }
    if let Some(v) = get("BATCH_MAX_LANES") {
        knobs.batch_max_lanes = parse_batch_max_lanes(v)?;
    }
    if let Some(v) = get("BATCH_WINDOW_MS") {
        knobs.batch_window_ms = parse_batch_window_ms(v)?;
    }
    Ok(knobs)
}

/// Validate `BATCH_MAX_LANES` (shared by the campaign and serve knob
/// readers): at least 1, at most the kernel tier's lane ceiling.
fn parse_batch_max_lanes(v: &str) -> Result<usize, String> {
    let lanes: usize = v
        .parse()
        .map_err(|_| format!("BATCH_MAX_LANES: not a lane count: {v}"))?;
    if lanes < 1 {
        return Err(format!("BATCH_MAX_LANES: must be >= 1, got {v}"));
    }
    if lanes > specfem_kernels::MAX_BATCH_LANES {
        return Err(format!(
            "BATCH_MAX_LANES: must be <= {}, got {v}",
            specfem_kernels::MAX_BATCH_LANES
        ));
    }
    Ok(lanes)
}

fn parse_batch_window_ms(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("BATCH_WINDOW_MS: not a millisecond count: {v}"))
}

/// Extract the campaign-runtime knobs from Par_file text. Both keys are
/// optional; absent keys keep the `Default` (auto workers, unbounded
/// cache). Unrelated keys are ignored, so one file can configure both
/// the simulations and the campaign around them.
pub fn campaign_knobs_from_parfile(text: &str) -> Result<CampaignKnobs, String> {
    let pairs = parse_pairs(text);
    let get = |key: &str| -> Option<&str> {
        pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let mut knobs = CampaignKnobs::default();
    if let Some(v) = get("CAMPAIGN_WORKERS") {
        knobs.workers = v
            .parse()
            .map_err(|_| format!("CAMPAIGN_WORKERS: not a count: {v}"))?;
    }
    if let Some(v) = get("MESH_CACHE_BYTES") {
        knobs.mesh_cache_bytes = parse_bytes("MESH_CACHE_BYTES", v)?;
    }
    if let Some(v) = get("BATCH_MAX_LANES") {
        knobs.batch_max_lanes = parse_batch_max_lanes(v)?;
    }
    if let Some(v) = get("BATCH_WINDOW_MS") {
        knobs.batch_window_ms = parse_batch_window_ms(v)?;
    }
    Ok(knobs)
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

    let mut builder = SimulationBuilder::default();
    if let Some(v) = get("NEX_XI") {
        builder = builder.resolution(parse_num("NEX_XI", v)? as usize);
    }
    if let Some(v) = get("NPROC_XI") {
        builder = builder.processors(parse_num("NPROC_XI", v)? as usize);
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
    if let Some(v) = get("NSTEP") {
        builder = builder.steps(parse_num("NSTEP", v)? as usize);
    }
    if let Some(v) = get("EVENT") {
        builder = builder.catalogue_event(v);
    }
    if let Some(v) = get("NSTATIONS") {
        builder = builder.stations(parse_num("NSTATIONS", v)? as usize);
    }
    if let Some(v) = get("TRACE") {
        builder = builder.trace(parse_bool(v)?);
    }
    if let Some(v) = get("TRACE_DIR") {
        builder = builder.trace_dir(v);
    }
    if let Some(v) = get("METRICS_EVERY") {
        builder = builder.metrics_every(parse_num("METRICS_EVERY", v)? as usize);
    }
    if let Some(v) = get("HEALTH_EVERY") {
        builder = builder.health_every(parse_num("HEALTH_EVERY", v)? as usize);
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
    if let Some(v) = get("FLIGHT_BUFFER_EVENTS") {
        let events = parse_num("FLIGHT_BUFFER_EVENTS", v)?;
        if events < 1.0 {
            return Err(format!("FLIGHT_BUFFER_EVENTS: must be >= 1, got {v}"));
        }
        builder = builder.flight_buffer_events(events as usize);
    }
    if let Some(v) = get("LTS_MAX_RATE") {
        let rate: usize = v
            .parse()
            .map_err(|_| format!("LTS_MAX_RATE: not a rate cap: {v}"))?;
        specfem_mesh::lts::validate_max_rate(rate)?;
        builder = builder.lts_max_rate(rate);
    }
    if let Some(v) = get("CHECKPOINT_KEEP") {
        let keep = parse_num("CHECKPOINT_KEEP", v)?;
        if keep < 1.0 {
            return Err(format!("CHECKPOINT_KEEP: must be >= 1, got {v}"));
        }
        builder = builder.checkpoint_keep(keep as usize);
    }
    let dt = get("DT")
        .map(|v| parse_num("DT", v))
        .transpose()?
        .unwrap_or(0.0);
    let record = get("RECORD_LENGTH_STEPS")
        .map(|v| parse_num("RECORD_LENGTH_STEPS", v))
        .transpose()?
        .unwrap_or(1.0) as usize;
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

    #[test]
    fn campaign_knobs_parse_and_round_trip() {
        let text = "NEX_XI = 8\nCAMPAIGN_WORKERS = 4\nMESH_CACHE_BYTES = 512M\n";
        let knobs = campaign_knobs_from_parfile(text).unwrap();
        assert_eq!(knobs.workers, 4);
        assert_eq!(knobs.mesh_cache_bytes, 512 << 20);
        // Defaults when absent; unrelated keys ignored.
        assert_eq!(
            campaign_knobs_from_parfile("NEX_XI = 8\n").unwrap(),
            CampaignKnobs::default()
        );
        // Round trip: render → parse → identical.
        let exact = CampaignKnobs {
            workers: 3,
            mesh_cache_bytes: 1_234_567,
            ..CampaignKnobs::default()
        };
        assert_eq!(
            campaign_knobs_from_parfile(&exact.to_parfile()).unwrap(),
            exact
        );
        let suffixed = campaign_knobs_from_parfile("MESH_CACHE_BYTES = 2G\n").unwrap();
        assert_eq!(suffixed.mesh_cache_bytes, 2usize << 30);
        assert_eq!(
            campaign_knobs_from_parfile(&suffixed.to_parfile()).unwrap(),
            suffixed
        );
        // Suffix variants and case-insensitivity.
        assert_eq!(
            campaign_knobs_from_parfile("MESH_CACHE_BYTES = 16kb\n")
                .unwrap()
                .mesh_cache_bytes,
            16 << 10
        );
        // Errors are reported, not swallowed.
        assert!(campaign_knobs_from_parfile("CAMPAIGN_WORKERS = many\n").is_err());
        assert!(campaign_knobs_from_parfile("MESH_CACHE_BYTES = 1T\n").is_err());
    }

    #[test]
    fn batch_knobs_parse_and_round_trip() {
        // Off by default: one lane, no window.
        let defaults = campaign_knobs_from_parfile("NEX_XI = 8\n").unwrap();
        assert_eq!(defaults.batch_max_lanes, 1);
        assert_eq!(defaults.batch_window_ms, 0);

        let text = "BATCH_MAX_LANES = 8\nBATCH_WINDOW_MS = 250\n";
        let knobs = campaign_knobs_from_parfile(text).unwrap();
        assert_eq!(knobs.batch_max_lanes, 8);
        assert_eq!(knobs.batch_window_ms, 250);
        // Round trip: render → parse → identical.
        assert_eq!(
            campaign_knobs_from_parfile(&knobs.to_parfile()).unwrap(),
            knobs
        );
        assert_eq!(
            campaign_knobs_from_parfile(&CampaignKnobs::default().to_parfile()).unwrap(),
            CampaignKnobs::default()
        );
        // Bounds are enforced, not clamped silently.
        assert!(campaign_knobs_from_parfile("BATCH_MAX_LANES = 0\n").is_err());
        assert!(campaign_knobs_from_parfile(&format!(
            "BATCH_MAX_LANES = {}\n",
            specfem_kernels::MAX_BATCH_LANES + 1
        ))
        .is_err());
        assert!(campaign_knobs_from_parfile("BATCH_MAX_LANES = lots\n").is_err());
        assert!(campaign_knobs_from_parfile("BATCH_WINDOW_MS = soon\n").is_err());
        // The ceiling itself is accepted.
        assert_eq!(
            campaign_knobs_from_parfile(&format!(
                "BATCH_MAX_LANES = {}\n",
                specfem_kernels::MAX_BATCH_LANES
            ))
            .unwrap()
            .batch_max_lanes,
            specfem_kernels::MAX_BATCH_LANES
        );
    }

    #[test]
    fn serve_knobs_parse_and_round_trip() {
        let text =
            "SERVE_ADDR = 0.0.0.0:8080\nRESULT_CACHE_BYTES = 16M\nREQUEST_DEADLINE_MS = 500\n";
        let knobs = serve_knobs_from_parfile(text).unwrap();
        assert_eq!(knobs.addr, "0.0.0.0:8080");
        assert_eq!(knobs.result_cache_bytes, 16 << 20);
        assert_eq!(knobs.request_deadline_ms, 500);
        // Defaults when absent; unrelated keys ignored.
        assert_eq!(
            serve_knobs_from_parfile("NEX_XI = 8\n").unwrap(),
            ServeKnobs::default()
        );
        // Round trip: render → parse → identical.
        assert_eq!(
            serve_knobs_from_parfile(&knobs.to_parfile()).unwrap(),
            knobs
        );
        // Errors are reported, not swallowed.
        assert!(serve_knobs_from_parfile("RESULT_CACHE_BYTES = big\n").is_err());
        assert!(serve_knobs_from_parfile("REQUEST_DEADLINE_MS = soon\n").is_err());
        // The daemon reads the same batching keys as the campaign, with
        // the same validation, and they round-trip through to_parfile.
        let batched =
            serve_knobs_from_parfile("BATCH_MAX_LANES = 4\nBATCH_WINDOW_MS = 250\n").unwrap();
        assert_eq!(batched.batch_max_lanes, 4);
        assert_eq!(batched.batch_window_ms, 250);
        assert_eq!(
            serve_knobs_from_parfile(&batched.to_parfile()).unwrap(),
            batched
        );
        assert!(serve_knobs_from_parfile("BATCH_MAX_LANES = 0\n").is_err());
        assert!(serve_knobs_from_parfile("BATCH_MAX_LANES = 1000\n").is_err());
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
