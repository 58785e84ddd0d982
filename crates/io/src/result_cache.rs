//! Content-addressed seismogram result cache — the serving tier's answer
//! store.
//!
//! A simulation request is fully determined by `(mesh geometry
//! fingerprint, source, station set, solver knobs)`; `specfem-core`
//! hashes exactly those into a [`ResultKey`], and this module files the
//! finished seismograms under it. Two tiers:
//!
//! * **memory** — a byte-budgeted LRU map (`RESULT_CACHE_BYTES`), so a hot
//!   repeat query never touches the filesystem;
//! * **disk** — one `result_<hex>.sfrc` SFCN container (kind `"RSLT"`)
//!   per key, written atomically like every other artifact in this crate,
//!   so results survive a daemon restart.
//!
//! Corrupt disk entries are handled by the shared
//! [`crate::generation::load_latest_good`] walk: evict, count the
//! fallback, report a miss — the caller re-solves, it never crashes or
//! serves damaged samples.

use std::collections::HashMap;
use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use specfem_comm::ArtifactFaultKind;
use specfem_solver::Seismogram;

use crate::container::{
    io_err, put_f64, put_u64, write_container_atomic, ArtifactError, ByteReader, ContainerReader,
    ContainerWriter,
};

/// Container kind tag for cached results.
pub const RESULT_KIND: [u8; 4] = *b"RSLT";

/// Version of the result payload layout.
pub const RESULT_FORMAT_VERSION: u32 = 1;

/// Content address of one simulation answer: a 64-bit FNV fingerprint over
/// the request's full identity (mesh geometry, source, stations, solver
/// knobs), computed by `specfem-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultKey(pub u64);

impl ResultKey {
    /// Lower-case hex form — the artifact file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A finished answer: the seismograms plus what the solve cost (element ×
/// step work), kept for serving-side accounting — a cache hit reports the
/// work it *avoided*.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// One record per requested station.
    pub seismograms: Vec<Seismogram>,
    /// `nspec × nsteps` of the solve that produced the records.
    pub element_steps: u64,
}

impl CachedResult {
    /// Approximate resident bytes (heap arrays only) — the LRU budget unit.
    pub fn approx_bytes(&self) -> usize {
        self.seismograms
            .iter()
            .map(|s| s.station.len() + 16 + s.data.len() * 12)
            .sum::<usize>()
            + 16
    }
}

fn write_chunks<W: std::io::Write>(
    w: &mut ContainerWriter<W>,
    key: ResultKey,
    result: &CachedResult,
) -> Result<(), ArtifactError> {
    let mut meta = Vec::new();
    put_u64(&mut meta, key.0);
    put_u64(&mut meta, result.seismograms.len() as u64);
    put_u64(&mut meta, result.element_steps);
    w.chunk("meta", &meta)?;

    let mut stations = Vec::new();
    for s in &result.seismograms {
        put_u64(&mut stations, s.station.len() as u64);
        stations.extend_from_slice(s.station.as_bytes());
        put_f64(&mut stations, s.dt);
        put_u64(&mut stations, s.data.len() as u64);
    }
    w.chunk("stations", &stations)?;

    w.chunk_f32s(
        "data",
        result
            .seismograms
            .iter()
            .flat_map(|s| s.data.iter())
            .flat_map(|v| v.iter().copied()),
    )?;
    Ok(())
}

fn read_result<R: std::io::Read + std::io::Seek>(
    r: &mut ContainerReader<R>,
    expect_key: ResultKey,
) -> Result<CachedResult, ArtifactError> {
    if r.kind() != RESULT_KIND {
        return Err(ArtifactError::Format {
            file: r.file().to_string(),
            detail: format!("container kind {:?} is not a result artifact", r.kind()),
        });
    }
    if r.payload_version() != RESULT_FORMAT_VERSION {
        return Err(ArtifactError::Version {
            file: r.file().to_string(),
            found: r.payload_version(),
            supported: RESULT_FORMAT_VERSION,
        });
    }
    let file = r.file().to_string();
    let meta = r.chunk("meta")?;
    let mut m = ByteReader::new(&meta, &file, "meta");
    let key = m.u64()?;
    let nrec = m.u64()? as usize;
    let element_steps = m.u64()?;
    m.finished()?;
    if key != expect_key.0 {
        return Err(ArtifactError::KeyMismatch {
            file,
            found: key,
            expected: expect_key.0,
        });
    }

    let stations_buf = r.chunk("stations")?;
    let mut sr = ByteReader::new(&stations_buf, &file, "stations");
    let mut headers = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        let name_len = sr.u64()? as usize;
        let name_bytes = sr.take(name_len)?;
        let station = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| sr.format_err("station name is not UTF-8"))?;
        let dt = sr.f64()?;
        let nsamp = sr.u64()? as usize;
        headers.push((station, dt, nsamp));
    }
    sr.finished()?;

    let total = headers.iter().fold(0usize, |sum, (_, _, n)| {
        sum.saturating_add(n.saturating_mul(3))
    });
    let flat = r.chunk_le("data", total, f32::from_le_bytes)?;
    let mut seismograms = Vec::with_capacity(nrec);
    let mut off = 0usize;
    for (station, dt, nsamp) in headers {
        let data: Vec<[f32; 3]> = flat[off..off + nsamp * 3]
            .chunks_exact(3)
            .map(|c| [c[0], c[1], c[2]])
            .collect();
        off += nsamp * 3;
        seismograms.push(Seismogram { station, dt, data });
    }
    Ok(CachedResult {
        seismograms,
        element_steps,
    })
}

/// Serialize a result to an in-memory container (kind `"RSLT"`).
pub fn encode_result(key: ResultKey, result: &CachedResult) -> Vec<u8> {
    let mut w = ContainerWriter::new(
        Cursor::new(Vec::new()),
        "<memory>",
        RESULT_KIND,
        RESULT_FORMAT_VERSION,
    )
    .expect("in-memory container");
    write_chunks(&mut w, key, result).expect("in-memory container");
    let (cur, _) = w.finish().expect("in-memory container");
    cur.into_inner()
}

/// Deserialize a result from bytes, rejecting bad magic, versions,
/// truncation, checksum mismatches, and mis-keyed artifacts.
pub fn decode_result(buf: &[u8], expect_key: ResultKey) -> Result<CachedResult, ArtifactError> {
    let mut r = ContainerReader::new(Cursor::new(buf), "<memory>")?;
    read_result(&mut r, expect_key)
}

/// Where a served result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultCacheOutcome {
    /// Resident in the memory tier.
    MemHit,
    /// Loaded from the disk tier (and promoted to memory).
    DiskHit,
    /// Not cached — the caller must solve.
    Miss,
}

impl ResultCacheOutcome {
    /// Stable lower-case label for reports and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResultCacheOutcome::MemHit => "mem_hit",
            ResultCacheOutcome::DiskHit => "disk_hit",
            ResultCacheOutcome::Miss => "miss",
        }
    }
}

/// Hit/miss/eviction counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Memory-tier hits.
    pub mem_hits: u64,
    /// Disk-tier hits (promoted to memory).
    pub disk_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Inserts.
    pub inserts: u64,
    /// Memory-tier evictions forced by the byte budget.
    pub evictions: u64,
}

struct MemEntry {
    value: Arc<CachedResult>,
    bytes: usize,
    tick: u64,
}

struct MemTier {
    map: HashMap<ResultKey, MemEntry>,
    bytes: usize,
    budget: usize,
    tick: u64,
    stats: ResultCacheStats,
}

impl MemTier {
    fn touch(&mut self, key: ResultKey) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.tick = tick;
            Arc::clone(&e.value)
        })
    }

    /// Insert under the byte budget, evicting least-recently-used entries.
    /// The newest entry is always admitted, even alone over budget — a
    /// cache that refuses the answer it just computed is useless.
    fn insert(&mut self, key: ResultKey, value: Arc<CachedResult>) {
        let bytes = value.approx_bytes();
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            MemEntry {
                value,
                bytes,
                tick: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.stats.inserts += 1;
        while self.bytes > self.budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if victim == key {
                break;
            }
            let gone = self.map.remove(&victim).expect("victim present");
            self.bytes -= gone.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// The two-tier content-addressed result cache.
pub struct ResultCache {
    dir: PathBuf,
    mem: Mutex<MemTier>,
}

impl ResultCache {
    /// Open (creating if needed) a cache over `dir` with a memory-tier
    /// byte budget.
    pub fn new(dir: impl Into<PathBuf>, budget_bytes: usize) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(&dir.display().to_string(), "create result cache dir", e))?;
        Ok(Self {
            dir,
            mem: Mutex::new(MemTier {
                map: HashMap::new(),
                bytes: 0,
                budget: budget_bytes.max(1),
                tick: 0,
                stats: ResultCacheStats::default(),
            }),
        })
    }

    /// The directory backing the disk tier.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the artifact for `key` lives at.
    pub fn path_for(&self, key: ResultKey) -> PathBuf {
        self.dir.join(format!("result_{}.sfrc", key.hex()))
    }

    /// Look up `key`: memory first, then disk (promoting on hit). A
    /// corrupt disk entry is evicted and reported as a miss via the shared
    /// fallback walk.
    pub fn get(&self, key: ResultKey) -> (Option<Arc<CachedResult>>, ResultCacheOutcome) {
        let _span = specfem_obs::span("io.result_cache.get");
        {
            let mut mem = self.mem.lock().unwrap();
            if let Some(v) = mem.touch(key) {
                mem.stats.mem_hits += 1;
                specfem_obs::counter_add("io.result_cache_mem_hits", 1);
                return (Some(v), ResultCacheOutcome::MemHit);
            }
        }
        let scan = crate::generation::load_latest_good(
            [key],
            "io.result_artifact_fallbacks",
            |k| self.load_disk(*k),
            |k, _| self.evict_disk(*k),
        );
        match scan.value {
            Some(result) => {
                let value = Arc::new(result);
                let mut mem = self.mem.lock().unwrap();
                mem.insert(key, Arc::clone(&value));
                mem.stats.disk_hits += 1;
                specfem_obs::counter_add("io.result_cache_disk_hits", 1);
                (Some(value), ResultCacheOutcome::DiskHit)
            }
            None => {
                self.mem.lock().unwrap().stats.misses += 1;
                specfem_obs::counter_add("io.result_cache_misses", 1);
                (None, ResultCacheOutcome::Miss)
            }
        }
    }

    /// File a freshly solved result under `key` in both tiers. Returns the
    /// shared handle the caller responds with.
    pub fn put(
        &self,
        key: ResultKey,
        result: CachedResult,
    ) -> Result<Arc<CachedResult>, ArtifactError> {
        let _span = specfem_obs::span("io.result_cache.put");
        let bytes = write_container_atomic(
            &self.path_for(key),
            RESULT_KIND,
            RESULT_FORMAT_VERSION,
            |w| write_chunks(w, key, &result),
        )?;
        specfem_obs::counter_add("io.result_artifacts_written", 1);
        specfem_obs::counter_add("io.bytes_written", bytes);
        let value = Arc::new(result);
        self.mem.lock().unwrap().insert(key, Arc::clone(&value));
        Ok(value)
    }

    /// Raw disk-tier load: `Ok(None)` when absent, typed error when bad.
    fn load_disk(&self, key: ResultKey) -> Result<Option<CachedResult>, ArtifactError> {
        let path = self.path_for(key);
        if !path.exists() {
            return Ok(None);
        }
        let mut r = ContainerReader::open(&path)?;
        specfem_obs::counter_add(
            "io.bytes_read",
            fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        );
        read_result(&mut r, key).map(Some)
    }

    /// Remove the disk artifact for `key`, if present.
    pub fn evict_disk(&self, key: ResultKey) {
        let _ = fs::remove_file(self.path_for(key));
    }

    /// Drop the memory tier (the disk tier survives) — the restart-
    /// without-re-solving scenario in tests.
    pub fn clear_memory(&self) {
        let mut mem = self.mem.lock().unwrap();
        mem.map.clear();
        mem.bytes = 0;
    }

    /// Resident bytes in the memory tier.
    pub fn memory_bytes(&self) -> usize {
        self.mem.lock().unwrap().bytes
    }

    /// Counters since construction.
    pub fn stats(&self) -> ResultCacheStats {
        self.mem.lock().unwrap().stats
    }

    /// Apply an [`ArtifactFaultKind`] to the artifact on disk (test hook).
    pub fn damage(&self, key: ResultKey, kind: ArtifactFaultKind) {
        crate::checkpoint::apply_artifact_fault(&self.path_for(key), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tag: &str, nsamp: usize) -> CachedResult {
        let data: Vec<[f32; 3]> = (0..nsamp)
            .map(|i| {
                let t = i as f32 * 0.01;
                [t.sin(), (2.0 * t).cos(), t * 1.5e-3]
            })
            .collect();
        CachedResult {
            seismograms: vec![
                Seismogram {
                    station: format!("{tag}_A"),
                    dt: 0.05,
                    data: data.clone(),
                },
                Seismogram {
                    station: format!("{tag}_B"),
                    dt: 0.05,
                    data,
                },
            ],
            element_steps: 12_345,
        }
    }

    fn tmp_cache(tag: &str, budget: usize) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("specfem_result_cache_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::new(dir, budget).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let cache = tmp_cache("roundtrip", 1 << 20);
        let key = ResultKey(0xfeed_beef_dead_cafe);
        let result = sample("RT", 200);
        cache.put(key, result.clone()).unwrap();
        // Memory tier.
        let (hit, outcome) = cache.get(key);
        assert_eq!(outcome, ResultCacheOutcome::MemHit);
        assert_eq!(*hit.unwrap(), result);
        // Disk tier: forget memory, reload, compare bit patterns.
        cache.clear_memory();
        let (hit, outcome) = cache.get(key);
        assert_eq!(outcome, ResultCacheOutcome::DiskHit);
        let back = hit.unwrap();
        for (a, b) in back.seismograms.iter().zip(&result.seismograms) {
            assert_eq!(a.station, b.station);
            assert_eq!(a.dt.to_bits(), b.dt.to_bits());
            assert_eq!(a.data.len(), b.data.len());
            for (x, y) in a.data.iter().zip(&b.data) {
                for c in 0..3 {
                    assert_eq!(x[c].to_bits(), y[c].to_bits());
                }
            }
        }
        assert_eq!(back.element_steps, result.element_steps);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn miss_then_promote() {
        let cache = tmp_cache("promote", 1 << 20);
        let key = ResultKey(7);
        assert_eq!(cache.get(key).1, ResultCacheOutcome::Miss);
        cache.put(key, sample("P", 10)).unwrap();
        cache.clear_memory();
        assert_eq!(cache.get(key).1, ResultCacheOutcome::DiskHit);
        // Promoted — second read is a memory hit.
        assert_eq!(cache.get(key).1, ResultCacheOutcome::MemHit);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.mem_hits, 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn lru_byte_budget_evicts_coldest() {
        let one = sample("L", 100).approx_bytes();
        // Room for two entries, not three.
        let cache = tmp_cache("lru", one * 2 + one / 2);
        let (k1, k2, k3) = (ResultKey(1), ResultKey(2), ResultKey(3));
        cache.put(k1, sample("L", 100)).unwrap();
        cache.put(k2, sample("L", 100)).unwrap();
        // Touch k1 so k2 is the LRU victim when k3 arrives.
        assert_eq!(cache.get(k1).1, ResultCacheOutcome::MemHit);
        cache.put(k3, sample("L", 100)).unwrap();
        assert!(cache.memory_bytes() <= one * 2 + one / 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(k1).1, ResultCacheOutcome::MemHit);
        assert_eq!(cache.get(k3).1, ResultCacheOutcome::MemHit);
        // k2 fell out of memory but survives on disk.
        assert_eq!(cache.get(k2).1, ResultCacheOutcome::DiskHit);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_disk_entry_is_evicted_and_missed() {
        let cache = tmp_cache("corrupt", 1 << 20);
        let key = ResultKey(42);
        cache.put(key, sample("C", 50)).unwrap();
        cache.clear_memory();
        for kind in [
            ArtifactFaultKind::BitFlip,
            ArtifactFaultKind::Truncate,
            ArtifactFaultKind::TornHeader,
        ] {
            cache.put(key, sample("C", 50)).unwrap();
            cache.clear_memory();
            cache.damage(key, kind);
            let (value, outcome) = cache.get(key);
            assert!(value.is_none(), "{kind:?}");
            assert_eq!(outcome, ResultCacheOutcome::Miss, "{kind:?}");
            assert!(!cache.path_for(key).exists(), "{kind:?}: must evict");
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let cache = tmp_cache("mismatch", 1 << 20);
        let key = ResultKey(1);
        let other = ResultKey(2);
        let bytes = encode_result(key, &sample("M", 10));
        fs::write(cache.path_for(other), &bytes).unwrap();
        let err = decode_result(&bytes, other).unwrap_err();
        assert!(matches!(err, ArtifactError::KeyMismatch { .. }), "{err:?}");
        // Through the cache: evicted, reported as a miss.
        let (value, outcome) = cache.get(other);
        assert!(value.is_none());
        assert_eq!(outcome, ResultCacheOutcome::Miss);
        assert!(!cache.path_for(other).exists());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
