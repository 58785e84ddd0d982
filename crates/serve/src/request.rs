//! Request validation: JSON body → [`Simulation`], or a typed 4xx.
//!
//! The contract the fuzz tests enforce: **no byte sequence panics, and
//! nothing silently defaults**. Every field is either absent (documented
//! default), well-typed and in range (used), or a [`ServeError`] with a
//! machine-readable code. Unknown fields are rejected rather than
//! ignored so a typo'd knob (`"atenuation"`) fails loudly instead of
//! quietly running the wrong physics.

use serde_json::Value;
use specfem_core::{ModelChoice, Simulation, Station};
use specfem_obs::json_escape;

/// Hard ceilings on request size — a public daemon must bound the work
/// a single body can demand.
pub const MAX_RESOLUTION: usize = 512;
/// See [`MAX_RESOLUTION`].
pub const MAX_STEPS: usize = 1_000_000;
/// See [`MAX_RESOLUTION`].
pub const MAX_STATIONS: usize = 10_000;

/// A request rejection: an HTTP status plus a stable machine-readable
/// code. Serialized as `{"error":{"code":…,"message":…}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status (400 family for caller mistakes, 504 for deadlines,
    /// 500 for solver failures).
    pub status: u16,
    /// Stable identifier clients can branch on (`bad_json`,
    /// `unknown_field`, `out_of_range`, `deadline`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// A 400 with the given code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// Render as the error response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
            self.code,
            json_escape(&self.message)
        )
    }

    /// HTTP reason phrase for the status line.
    pub fn reason(&self) -> &'static str {
        match self.status {
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            504 => "Gateway Timeout",
            _ => "Error",
        }
    }
}

/// A validated `/simulate` request, ready to build.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Mesh resolution (`NEX_XI`).
    pub resolution: usize,
    /// Timeloop length.
    pub steps: usize,
    /// Earth model.
    pub model: ModelChoice,
    /// Catalogue event name, when given.
    pub event: Option<String>,
    /// Explicit station list; empty means use `nstations`.
    pub stations: Vec<Station>,
    /// Evenly-distributed station count when no explicit list came.
    pub nstations: usize,
    /// Physics toggles.
    pub attenuation: bool,
    /// See `attenuation`.
    pub rotation: bool,
    /// See `attenuation`.
    pub gravity: bool,
    /// See `attenuation`.
    pub oceans: bool,
    /// Per-request deadline override in ms (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Scheduling priority (higher runs earlier).
    pub priority: i32,
}

fn field_u64(obj: &Value, key: &'static str, max: u64) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_u64().ok_or_else(|| {
                ServeError::bad_request(
                    "bad_type",
                    format!("{key}: expected a non-negative integer"),
                )
            })?;
            if n > max {
                return Err(ServeError::bad_request(
                    "out_of_range",
                    format!("{key}: {n} exceeds the limit of {max}"),
                ));
            }
            Ok(Some(n))
        }
    }
}

fn field_bool(obj: &Value, key: &'static str) -> Result<Option<bool>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or_else(|| {
            ServeError::bad_request("bad_type", format!("{key}: expected a boolean"))
        }),
    }
}

fn field_str<'a>(obj: &'a Value, key: &'static str) -> Result<Option<&'a str>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or_else(|| {
            ServeError::bad_request("bad_type", format!("{key}: expected a string"))
        }),
    }
}

fn finite_deg(
    v: &Value,
    key: &'static str,
    lo: f64,
    hi: f64,
    station: &str,
) -> Result<f64, ServeError> {
    let x = v.as_f64().ok_or_else(|| {
        ServeError::bad_request(
            "bad_type",
            format!("station {station}: {key} must be a number"),
        )
    })?;
    if !x.is_finite() || !(lo..=hi).contains(&x) {
        return Err(ServeError::bad_request(
            "out_of_range",
            format!("station {station}: {key} = {x} outside [{lo}, {hi}]"),
        ));
    }
    Ok(x)
}

const KNOWN_FIELDS: &[&str] = &[
    "resolution",
    "steps",
    "model",
    "event",
    "stations",
    "nstations",
    "attenuation",
    "rotation",
    "gravity",
    "oceans",
    "deadline_ms",
    "priority",
];

/// Parse and validate a `/simulate` body.
pub fn parse_request(body: &[u8]) -> Result<SimRequest, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("bad_json", "body is not UTF-8"))?;
    let root = serde_json::from_str(text)
        .map_err(|e| ServeError::bad_request("bad_json", format!("invalid JSON: {e}")))?;
    let obj = root
        .as_object()
        .ok_or_else(|| ServeError::bad_request("bad_request", "body must be a JSON object"))?;
    for key in obj.keys() {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(ServeError::bad_request(
                "unknown_field",
                format!("unknown field: {key}"),
            ));
        }
    }

    let resolution = field_u64(&root, "resolution", MAX_RESOLUTION as u64)?
        .ok_or_else(|| ServeError::bad_request("missing_field", "resolution is required"))?
        as usize;
    let steps = field_u64(&root, "steps", MAX_STEPS as u64)?
        .ok_or_else(|| ServeError::bad_request("missing_field", "steps is required"))?
        as usize;
    if steps == 0 {
        return Err(ServeError::bad_request(
            "out_of_range",
            "steps must be >= 1",
        ));
    }

    let model = match field_str(&root, "model")? {
        None | Some("prem_iso") => ModelChoice::IsotropicPrem,
        Some("prem") => ModelChoice::Prem,
        Some("prem_3d") => ModelChoice::Prem3D,
        Some("homogeneous") => ModelChoice::Homogeneous,
        Some(other) => {
            return Err(ServeError::bad_request(
                "unknown_model",
                format!("unknown model: {other} (expected prem, prem_iso, prem_3d, homogeneous)"),
            ))
        }
    };

    let event = field_str(&root, "event")?.map(str::to_string);

    let mut stations = Vec::new();
    let mut nstations = 0usize;
    let stations_given = root.get("stations").is_some();
    match root.get("stations") {
        None => {}
        Some(v) => {
            if let Some(n) = v.as_u64() {
                if n > MAX_STATIONS as u64 {
                    return Err(ServeError::bad_request(
                        "out_of_range",
                        format!("stations: {n} exceeds the limit of {MAX_STATIONS}"),
                    ));
                }
                nstations = n as usize;
            } else if let Some(list) = v.as_array() {
                if list.len() > MAX_STATIONS {
                    return Err(ServeError::bad_request(
                        "out_of_range",
                        format!(
                            "stations: {} entries exceed the limit of {MAX_STATIONS}",
                            list.len()
                        ),
                    ));
                }
                for (i, entry) in list.iter().enumerate() {
                    let name = entry
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| {
                            ServeError::bad_request(
                                "bad_type",
                                format!("station {i}: name must be a string"),
                            )
                        })?
                        .to_string();
                    if name.is_empty() || name.len() > 64 {
                        return Err(ServeError::bad_request(
                            "out_of_range",
                            format!("station {i}: name must be 1..=64 bytes"),
                        ));
                    }
                    let lat = entry.get("lat_deg").ok_or_else(|| {
                        ServeError::bad_request(
                            "missing_field",
                            format!("station {name}: lat_deg is required"),
                        )
                    })?;
                    let lon = entry.get("lon_deg").ok_or_else(|| {
                        ServeError::bad_request(
                            "missing_field",
                            format!("station {name}: lon_deg is required"),
                        )
                    })?;
                    stations.push(Station {
                        lat_deg: finite_deg(lat, "lat_deg", -90.0, 90.0, &name)?,
                        lon_deg: finite_deg(lon, "lon_deg", -180.0, 360.0, &name)?,
                        name,
                    });
                }
            } else {
                return Err(ServeError::bad_request(
                    "bad_type",
                    "stations: expected a count or an array of {name, lat_deg, lon_deg}",
                ));
            }
        }
    }
    if let Some(n) = field_u64(&root, "nstations", MAX_STATIONS as u64)? {
        if stations_given {
            return Err(ServeError::bad_request(
                "bad_request",
                "give either stations or nstations, not both",
            ));
        }
        nstations = n as usize;
    }

    let priority = match root.get("priority") {
        None => 0,
        Some(v) => {
            let p = v.as_i64().ok_or_else(|| {
                ServeError::bad_request("bad_type", "priority: expected an integer")
            })?;
            i32::try_from(p).map_err(|_| {
                ServeError::bad_request("out_of_range", format!("priority: {p} outside i32"))
            })?
        }
    };

    Ok(SimRequest {
        resolution,
        steps,
        model,
        event,
        stations,
        nstations,
        attenuation: field_bool(&root, "attenuation")?.unwrap_or(false),
        rotation: field_bool(&root, "rotation")?.unwrap_or(false),
        gravity: field_bool(&root, "gravity")?.unwrap_or(false),
        oceans: field_bool(&root, "oceans")?.unwrap_or(false),
        deadline_ms: field_u64(&root, "deadline_ms", u64::MAX / 2)?,
        priority,
    })
}

impl SimRequest {
    /// Build the [`Simulation`]; builder-level rejections (resolution too
    /// low, unknown event, …) become 400s with code `build`.
    pub fn build(&self) -> Result<Simulation, ServeError> {
        let mut b = Simulation::builder()
            .resolution(self.resolution)
            .steps(self.steps)
            .model(self.model.clone())
            .attenuation(self.attenuation)
            .rotation(self.rotation)
            .gravity(self.gravity)
            .ocean_load(self.oceans);
        if let Some(event) = &self.event {
            b = b.catalogue_event(event);
        }
        b = if self.stations.is_empty() {
            b.stations(self.nstations)
        } else {
            b.station_list(self.stations.clone())
        };
        b.build()
            .map_err(|e| ServeError::bad_request("build", e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_code(body: &str) -> &'static str {
        parse_request(body.as_bytes()).unwrap_err().code
    }

    #[test]
    fn minimal_request_builds() {
        let req = parse_request(br#"{"resolution": 8, "steps": 20}"#).unwrap();
        assert_eq!(req.resolution, 8);
        assert_eq!(req.steps, 20);
        assert_eq!(req.nstations, 0);
        let sim = req.build().unwrap();
        assert_eq!(sim.config.nsteps, 20);
    }

    #[test]
    fn full_request_builds() {
        let body = br#"{
            "resolution": 8, "steps": 10, "model": "prem", "event": "argentina_deep",
            "stations": [{"name": "ANMO", "lat_deg": 34.9, "lon_deg": -106.5}],
            "attenuation": true, "deadline_ms": 2000, "priority": 5
        }"#;
        let req = parse_request(body).unwrap();
        assert_eq!(req.stations.len(), 1);
        assert_eq!(req.deadline_ms, Some(2000));
        assert_eq!(req.priority, 5);
        let sim = req.build().unwrap();
        assert!(sim.config.attenuation);
        assert_eq!(sim.stations[0].name, "ANMO");
    }

    #[test]
    fn station_count_shorthand() {
        let req = parse_request(br#"{"resolution": 8, "steps": 5, "stations": 4}"#).unwrap();
        assert_eq!(req.nstations, 4);
        assert_eq!(req.build().unwrap().stations.len(), 4);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(err_code("not json"), "bad_json");
        assert_eq!(err_code("[1,2]"), "bad_request");
        assert_eq!(err_code("{\"steps\": 5}"), "missing_field");
        assert_eq!(err_code("{\"resolution\": 8}"), "missing_field");
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 0}"),
            "out_of_range"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"atenuation\": true}"),
            "unknown_field"
        );
        // The ablation kernel is not a request field: one answer, one
        // result-cache entry, whatever the client sends.
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"kernel\": \"simd\"}"),
            "unknown_field"
        );
        assert_eq!(
            err_code("{\"resolution\": \"big\", \"steps\": 5}"),
            "bad_type"
        );
        assert_eq!(
            err_code("{\"resolution\": 9999, \"steps\": 5}"),
            "out_of_range"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"model\": \"mars\"}"),
            "unknown_model"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"stations\": [{\"name\": \"A\", \"lat_deg\": 95, \"lon_deg\": 0}]}"),
            "out_of_range"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"stations\": [{\"lat_deg\": 5, \"lon_deg\": 0}]}"),
            "bad_type"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"stations\": [{\"name\": \"A\"}]}"),
            "missing_field"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"stations\": 2, \"nstations\": 3}"),
            "bad_request"
        );
        assert_eq!(
            err_code("{\"resolution\": 8, \"steps\": 5, \"priority\": 99999999999}"),
            "out_of_range"
        );
    }

    #[test]
    fn builder_rejections_become_400s() {
        // Resolution 1 parses fine but the builder's floor rejects it.
        let req = parse_request(br#"{"resolution": 1, "steps": 5}"#).unwrap();
        let err = req.build().unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "build");
        let req =
            parse_request(br#"{"resolution": 8, "steps": 5, "event": "no_such_quake"}"#).unwrap();
        assert_eq!(req.build().unwrap_err().code, "build");
    }

    #[test]
    fn error_json_is_stable() {
        let e = ServeError::bad_request("bad_json", "oops \"quoted\"");
        assert_eq!(
            e.to_json(),
            "{\"error\":{\"code\":\"bad_json\",\"message\":\"oops \\\"quoted\\\"\"}}"
        );
        assert_eq!(e.reason(), "Bad Request");
    }
}
