//! Crash dossiers — one merged SFCN container per failed run.
//!
//! When a run dies (health trip, stalled or dead rank, torn artifact),
//! the surviving ranks' flight-recorder journals plus a typed incident
//! record are written **atomically as one container** — following the
//! merged-artifact lesson of the checkpoint and mesh stores: one file
//! per incident, not O(ranks) scattered fragments. The container reuses
//! the workspace SFCN framing (per-chunk CRCs, tmp + fsync + rename), so
//! a crash while writing the crash dossier never leaves a torn dossier
//! under the real name.
//!
//! Layout (`kind = "FLTR"`, payload version 1):
//! * `incident` — binary incident record (class, detail, rank, step,
//!   trace id, world size);
//! * `incident.json` — the same record as JSON, so CI schema checks can
//!   read it without linking this crate;
//! * `journal_<rank>` — one chunk per surviving rank's flight journal,
//!   events oldest-first with inline labels.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use specfem_obs::flight::{FlightEventKind, FlightJournal};
use specfem_obs::json_escape;

use crate::container::{
    io_err, put_u32, put_u64, put_u8, write_container_atomic, ArtifactError, ByteReader,
    ContainerReader,
};

/// Container kind tag for crash dossiers.
pub const DOSSIER_KIND: [u8; 4] = *b"FLTR";

/// Payload version of the dossier encoding.
pub const DOSSIER_PAYLOAD_VERSION: u32 = 1;

/// The typed failure a dossier documents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DossierIncident {
    /// Failure class: `health`, `stall`, `rank_dead`, `artifact`, or
    /// `comm` (the classifier in `specfem-core` assigns these).
    pub class: String,
    /// Human-readable detail (the error's `Display` text).
    pub detail: String,
    /// The failing rank, when the error names one.
    pub rank: Option<u64>,
    /// The step the failure was detected on, when known.
    pub step: Option<u64>,
    /// The trace id of the request/job the run belonged to.
    pub trace_id: Option<u64>,
    /// World size of the failed run.
    pub world: u64,
}

/// One rank's journal, as decoded from a dossier (labels owned — the
/// in-memory [`FlightJournal`] uses `&'static str` labels, which cannot
/// survive a round-trip through disk).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DossierJournal {
    /// The rank that recorded it.
    pub rank: u64,
    /// Ring capacity the journal ran with.
    pub capacity: u64,
    /// Events lost to ring overwrite before harvest.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<DossierEvent>,
}

/// One decoded journal entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DossierEvent {
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// The time step the rank was on.
    pub step: u64,
    /// Stable event-kind code (see [`FlightEventKind`]).
    pub kind: u8,
    /// Kind-specific operand.
    pub a: u64,
    /// Kind-specific operand.
    pub b: u64,
    /// Event label (span name, field name, `""`).
    pub label: String,
}

impl DossierEvent {
    /// The decoded kind, when the code is known.
    pub fn kind(&self) -> Option<FlightEventKind> {
        FlightEventKind::from_code(self.kind)
    }
}

/// A fully decoded dossier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashDossier {
    /// What failed.
    pub incident: DossierIncident,
    /// Per-rank journals, ascending rank order.
    pub journals: Vec<DossierJournal>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take_str(r: &mut ByteReader<'_>) -> Result<String, ArtifactError> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| r.format_err("non-UTF-8 string"))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_u8(out, v.is_some() as u8);
    put_u64(out, v.unwrap_or(0));
}

fn take_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, ArtifactError> {
    let present = r.u8()? != 0;
    let v = r.u64()?;
    Ok(present.then_some(v))
}

fn encode_incident(inc: &DossierIncident) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &inc.class);
    put_str(&mut out, &inc.detail);
    put_opt_u64(&mut out, inc.rank);
    put_opt_u64(&mut out, inc.step);
    put_opt_u64(&mut out, inc.trace_id);
    put_u64(&mut out, inc.world);
    out
}

fn incident_json(inc: &DossierIncident, journals: &[&FlightJournal]) -> String {
    let mut o = String::from("{");
    o.push_str(&format!("\"class\":\"{}\",", json_escape(&inc.class)));
    o.push_str(&format!("\"detail\":\"{}\",", json_escape(&inc.detail)));
    match inc.rank {
        Some(r) => o.push_str(&format!("\"rank\":{r},")),
        None => o.push_str("\"rank\":null,"),
    }
    match inc.step {
        Some(s) => o.push_str(&format!("\"step\":{s},")),
        None => o.push_str("\"step\":null,"),
    }
    match inc.trace_id {
        Some(t) => o.push_str(&format!("\"trace_id\":\"{t:016x}\",")),
        None => o.push_str("\"trace_id\":null,"),
    }
    o.push_str(&format!("\"world\":{},", inc.world));
    o.push_str("\"journal_ranks\":[");
    for (i, j) in journals.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("{}", j.rank));
    }
    o.push_str("],");
    let total: usize = journals.iter().map(|j| j.events.len()).sum();
    o.push_str(&format!("\"total_events\":{total}"));
    o.push('}');
    o
}

fn encode_journal(j: &FlightJournal) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, j.rank as u64);
    put_u64(&mut out, j.capacity as u64);
    put_u64(&mut out, j.dropped);
    put_u32(&mut out, j.events.len() as u32);
    for e in &j.events {
        put_u64(&mut out, e.t_ns);
        put_u64(&mut out, e.step);
        put_u8(&mut out, e.kind as u8);
        put_u64(&mut out, e.a);
        put_u64(&mut out, e.b);
        put_str(&mut out, e.label);
    }
    out
}

fn decode_journal(bytes: &[u8], file: &str, chunk: &str) -> Result<DossierJournal, ArtifactError> {
    let mut r = ByteReader::new(bytes, file, chunk);
    let rank = r.u64()?;
    let capacity = r.u64()?;
    let dropped = r.u64()?;
    let n = r.u32()?;
    // t_ns, step, kind, a, b, label length
    let mut events = Vec::with_capacity(r.capacity_for(u64::from(n), 8 + 8 + 1 + 8 + 8 + 4));
    for _ in 0..n {
        events.push(DossierEvent {
            t_ns: r.u64()?,
            step: r.u64()?,
            kind: r.u8()?,
            a: r.u64()?,
            b: r.u64()?,
            label: take_str(&mut r)?,
        });
    }
    r.finished()?;
    Ok(DossierJournal {
        rank,
        capacity,
        dropped,
        events,
    })
}

/// Process-wide dossier sequence number — keeps concurrent failures
/// (parallel campaign jobs) from racing to one file name.
static DOSSIER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write one crash dossier into `dir` and return its path. Journals are
/// sorted by rank; the write is atomic (tmp + fsync + rename), so
/// observers never see a partial dossier. The file is named
/// `dossier_<class>_<seq>.sfcn` with a process-unique sequence number.
pub fn write_crash_dossier(
    dir: &Path,
    incident: &DossierIncident,
    journals: &[FlightJournal],
) -> Result<PathBuf, ArtifactError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| io_err(&dir.display().to_string(), "create dossier dir", e))?;
    let mut sorted: Vec<&FlightJournal> = journals.iter().collect();
    sorted.sort_by_key(|j| j.rank);
    let seq = DOSSIER_SEQ.fetch_add(1, Ordering::Relaxed);
    let class: String = incident
        .class
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("dossier_{class}_{seq:04}.sfcn"));
    write_container_atomic(&path, DOSSIER_KIND, DOSSIER_PAYLOAD_VERSION, |w| {
        w.chunk("incident", &encode_incident(incident))?;
        w.chunk("incident.json", incident_json(incident, &sorted).as_bytes())?;
        for j in &sorted {
            w.chunk(&format!("journal_{}", j.rank), &encode_journal(j))?;
        }
        Ok(())
    })?;
    Ok(path)
}

/// Read a dossier back (tests and tooling; CI reads `incident.json`).
pub fn read_crash_dossier(path: &Path) -> Result<CrashDossier, ArtifactError> {
    let mut r = ContainerReader::open(path)?;
    if r.kind() != DOSSIER_KIND {
        return Err(ArtifactError::Format {
            file: r.file().to_string(),
            detail: format!("not a crash dossier (kind {:?})", r.kind()),
        });
    }
    if r.payload_version() != DOSSIER_PAYLOAD_VERSION {
        return Err(ArtifactError::Version {
            file: r.file().to_string(),
            found: r.payload_version(),
            supported: DOSSIER_PAYLOAD_VERSION,
        });
    }
    let file = r.file().to_string();
    let inc_bytes = r.chunk("incident")?;
    let mut br = ByteReader::new(&inc_bytes, &file, "incident");
    let incident = DossierIncident {
        class: take_str(&mut br)?,
        detail: take_str(&mut br)?,
        rank: take_opt_u64(&mut br)?,
        step: take_opt_u64(&mut br)?,
        trace_id: take_opt_u64(&mut br)?,
        world: br.u64()?,
    };
    br.finished()?;
    let mut journals = Vec::new();
    for name in r.chunk_names() {
        if let Some(rank) = name.strip_prefix("journal_") {
            let bytes = r.chunk(&name)?;
            let j = decode_journal(&bytes, &file, &name)?;
            if j.rank.to_string() != rank {
                return Err(ArtifactError::Format {
                    file,
                    detail: format!("chunk '{name}' holds journal for rank {}", j.rank),
                });
            }
            journals.push(j);
        }
    }
    journals.sort_by_key(|j| j.rank);
    Ok(CrashDossier { incident, journals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_obs::flight::FlightEvent;

    fn journal(rank: usize, n: u64) -> FlightJournal {
        FlightJournal {
            rank,
            capacity: 64,
            dropped: 1,
            events: (0..n)
                .map(|i| FlightEvent {
                    t_ns: 1000 + i,
                    step: i,
                    kind: FlightEventKind::CommSend,
                    a: 100,
                    b: 4096 * i,
                    label: "halo",
                })
                .collect(),
        }
    }

    fn incident() -> DossierIncident {
        DossierIncident {
            class: "health".into(),
            detail: "non-finite displ at step 7".into(),
            rank: Some(1),
            step: Some(7),
            trace_id: Some(0xdead_beef),
            world: 2,
        }
    }

    #[test]
    fn dossier_roundtrip_preserves_incident_and_journals() {
        let dir = tempdir("dossier_roundtrip");
        let path = write_crash_dossier(&dir, &incident(), &[journal(1, 3), journal(0, 2)]).unwrap();
        assert!(path.exists());
        let d = read_crash_dossier(&path).unwrap();
        assert_eq!(d.incident, incident());
        // Journals come back sorted by rank regardless of input order.
        assert_eq!(d.journals.len(), 2);
        assert_eq!(d.journals[0].rank, 0);
        assert_eq!(d.journals[0].events.len(), 2);
        assert_eq!(d.journals[1].rank, 1);
        assert_eq!(d.journals[1].events.len(), 3);
        let e = &d.journals[1].events[2];
        assert_eq!(e.kind(), Some(FlightEventKind::CommSend));
        assert_eq!(e.b, 8192);
        assert_eq!(e.label, "halo");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incident_json_chunk_is_valid_and_complete() {
        let dir = tempdir("dossier_json");
        let path = write_crash_dossier(&dir, &incident(), &[journal(0, 2)]).unwrap();
        let mut r = ContainerReader::open(&path).unwrap();
        assert_eq!(r.kind(), DOSSIER_KIND);
        let json = String::from_utf8(r.chunk("incident.json").unwrap()).unwrap();
        let v = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["class"].as_str(), Some("health"));
        assert_eq!(v["rank"].as_u64(), Some(1));
        assert_eq!(v["step"].as_u64(), Some(7));
        assert_eq!(v["trace_id"].as_str(), Some("00000000deadbeef"));
        assert_eq!(v["world"].as_u64(), Some(2));
        assert_eq!(v["journal_ranks"][0].as_u64(), Some(0));
        assert_eq!(v["total_events"].as_u64(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_optionals_encode_as_null() {
        let dir = tempdir("dossier_null");
        let inc = DossierIncident {
            class: "stall".into(),
            detail: "watchdog".into(),
            world: 4,
            ..Default::default()
        };
        let path = write_crash_dossier(&dir, &inc, &[]).unwrap();
        let d = read_crash_dossier(&path).unwrap();
        assert_eq!(d.incident.rank, None);
        assert_eq!(d.incident.step, None);
        assert_eq!(d.incident.trace_id, None);
        assert!(d.journals.is_empty());
        let mut r = ContainerReader::open(&path).unwrap();
        let json = String::from_utf8(r.chunk("incident.json").unwrap()).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        assert!(v["rank"].is_null());
        assert!(v["trace_id"].is_null());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_numbers_keep_names_unique() {
        let dir = tempdir("dossier_seq");
        let a = write_crash_dossier(&dir, &incident(), &[]).unwrap();
        let b = write_crash_dossier(&dir, &incident(), &[]).unwrap();
        assert_ne!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("specfem_io_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
