//! On-disk mesh artifacts — a built mesh as one checksummed file.
//!
//! A built [`GlobalMesh`] becomes a first-class artifact (in the spirit of
//! Hapla et al.'s checkpointed DMPlex meshes): one container that any
//! decomposition can be re-extracted from, instead of per-rank files.
//!
//! The payload lives in the shared `"SFCN"` chunk format of
//! [`crate::container`] (kind `"MESH"`): each mesh array is its own
//! CRC-guarded chunk, so a bit flip is pinned to a named chunk with
//! expected-vs-actual checksums. Files are named by the [`MeshKey`]'s
//! fingerprint hex and carry the fingerprint in the `meta` chunk, so a
//! stale or mis-filed artifact can never be silently loaded for the wrong
//! configuration. Writes are atomic (tmp + fsync + rename), matching
//! [`super::CheckpointStore`].

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use specfem_comm::{ArtifactFaultKind, FaultPlan};
use specfem_gll::GllBasis;
use specfem_mesh::build::ElementHome;
use specfem_mesh::{
    ElementOrder, GlobalMesh, LayerPlan, MeshKey, MeshMode, MeshParams, MeshRegion, MesherReport,
    Shell,
};

use crate::container::{
    io_err, put_f64, put_u64, put_u8, write_container_atomic, ArtifactError, ByteReader,
    ContainerReader, ContainerWriter,
};

/// Container kind tag for mesh artifacts.
pub const MESH_KIND: [u8; 4] = *b"MESH";

/// Version of the mesh payload layout.
pub const MESH_FORMAT_VERSION: u32 = 3;

fn region_tag(r: MeshRegion) -> u8 {
    match r {
        MeshRegion::CrustMantle => 0,
        MeshRegion::OuterCore => 1,
        MeshRegion::InnerCore => 2,
        MeshRegion::CentralCube => 3,
    }
}

fn region_from_tag(r: &ByteReader<'_>, t: u8) -> Result<MeshRegion, ArtifactError> {
    Ok(match t {
        0 => MeshRegion::CrustMantle,
        1 => MeshRegion::OuterCore,
        2 => MeshRegion::InnerCore,
        3 => MeshRegion::CentralCube,
        _ => return Err(r.format_err(format!("bad region tag {t}"))),
    })
}

fn encode_params(out: &mut Vec<u8>, p: &MeshParams) {
    match p.mode {
        MeshMode::Global => {
            put_u8(out, 0);
            put_f64(out, 0.0);
        }
        MeshMode::Regional { r_min } => {
            put_u8(out, 1);
            put_f64(out, r_min);
        }
    }
    put_u64(out, p.nex_xi as u64);
    put_u64(out, p.nproc_xi as u64);
    put_u64(out, p.degree as u64);
    put_u8(out, p.honor_minor_discontinuities as u8);
    match p.radial_layer_nex {
        Some(n) => {
            put_u8(out, 1);
            put_u64(out, n as u64);
        }
        None => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
    }
    match p.element_order {
        ElementOrder::Natural => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
        ElementOrder::Random(seed) => {
            put_u8(out, 1);
            put_u64(out, seed);
        }
        ElementOrder::CuthillMcKee => {
            put_u8(out, 2);
            put_u64(out, 0);
        }
        ElementOrder::MultilevelCuthillMcKee { block } => {
            put_u8(out, 3);
            put_u64(out, block as u64);
        }
    }
    put_u8(out, p.legacy_two_pass_materials as u8);
}

fn decode_params(r: &mut ByteReader<'_>) -> Result<MeshParams, ArtifactError> {
    let mode_tag = r.u8()?;
    let r_min = r.f64()?;
    let mode = match mode_tag {
        0 => MeshMode::Global,
        1 => MeshMode::Regional { r_min },
        t => return Err(r.format_err(format!("bad mode tag {t}"))),
    };
    let nex_xi = r.u64()? as usize;
    let nproc_xi = r.u64()? as usize;
    let degree = r.u64()? as usize;
    let honor_minor_discontinuities = r.u8()? != 0;
    let has_radial = r.u8()? != 0;
    let radial = r.u64()? as usize;
    let radial_layer_nex = has_radial.then_some(radial);
    let order_tag = r.u8()?;
    let order_arg = r.u64()?;
    let element_order = match order_tag {
        0 => ElementOrder::Natural,
        1 => ElementOrder::Random(order_arg),
        2 => ElementOrder::CuthillMcKee,
        3 => ElementOrder::MultilevelCuthillMcKee {
            block: order_arg as usize,
        },
        t => return Err(r.format_err(format!("bad element-order tag {t}"))),
    };
    let legacy_two_pass_materials = r.u8()? != 0;
    Ok(MeshParams {
        mode,
        nex_xi,
        nproc_xi,
        degree,
        honor_minor_discontinuities,
        radial_layer_nex,
        element_order,
        legacy_two_pass_materials,
    })
}

/// Emit every chunk of a mesh payload through `w`.
fn write_chunks<W: std::io::Write>(
    w: &mut ContainerWriter<W>,
    mesh: &GlobalMesh,
    fingerprint: u64,
) -> Result<(), ArtifactError> {
    let mut meta = Vec::new();
    put_u64(&mut meta, fingerprint);
    put_u64(&mut meta, mesh.nspec as u64);
    put_u64(&mut meta, mesh.nglob as u64);
    w.chunk("meta", &meta)?;

    let mut params = Vec::new();
    encode_params(&mut params, &mesh.params);
    w.chunk("params", &params)?;

    w.chunk_le("ibool", mesh.ibool.iter().map(|x| x.to_le_bytes()))?;
    w.chunk_le(
        "coords",
        mesh.coords.iter().flatten().map(|x| x.to_le_bytes()),
    )?;
    w.chunk_le("region", mesh.region.iter().map(|&r| [region_tag(r)]))?;

    let mut home = Vec::with_capacity(mesh.home.len() * 8);
    for &h in &mesh.home {
        match h {
            ElementHome::Shell { chunk, ix, iy } => {
                home.push(0);
                home.push(chunk);
                home.extend_from_slice(&ix.to_le_bytes());
                home.extend_from_slice(&iy.to_le_bytes());
                home.extend_from_slice(&0u16.to_le_bytes());
            }
            ElementHome::Cube { i, j, k } => {
                home.push(1);
                home.push(0);
                home.extend_from_slice(&i.to_le_bytes());
                home.extend_from_slice(&j.to_le_bytes());
                home.extend_from_slice(&k.to_le_bytes());
            }
        }
    }
    w.chunk("home", &home)?;

    w.chunk_f32s("rho", mesh.rho.iter().copied())?;
    w.chunk_f32s("kappa", mesh.kappa.iter().copied())?;
    w.chunk_f32s("mu", mesh.mu.iter().copied())?;
    w.chunk_f32s("qmu", mesh.qmu.iter().copied())?;

    let mut layers = Vec::new();
    put_u64(&mut layers, mesh.layer_plan.shells.len() as u64);
    for s in &mesh.layer_plan.shells {
        put_f64(&mut layers, s.r_in);
        put_f64(&mut layers, s.r_out);
        put_u8(&mut layers, region_tag(s.region));
        put_u64(&mut layers, s.n_layers as u64);
    }
    put_f64(&mut layers, mesh.layer_plan.cube_half_width);
    w.chunk("layers", &layers)?;

    // Mesher report (provenance: what the original build cost).
    let mut report = Vec::new();
    put_f64(&mut report, mesh.report.geometry_seconds);
    put_f64(&mut report, mesh.report.material_seconds);
    put_f64(&mut report, mesh.report.numbering_seconds);
    put_u8(&mut report, mesh.report.passes);
    for &n in &mesh.report.elements_per_region {
        put_u64(&mut report, n as u64);
    }
    w.chunk("report", &report)?;
    Ok(())
}

/// Serialize a built mesh to an in-memory container (kind `"MESH"`).
/// `fingerprint` is the full [`MeshKey`] fingerprint the artifact is filed
/// under; it lives in the `meta` chunk and is re-verified at load.
pub fn encode_mesh(mesh: &GlobalMesh, fingerprint: u64) -> Vec<u8> {
    let mut w = ContainerWriter::new(
        Cursor::new(Vec::new()),
        "<memory>",
        MESH_KIND,
        MESH_FORMAT_VERSION,
    )
    .expect("in-memory container");
    write_chunks(&mut w, mesh, fingerprint).expect("in-memory container");
    let (cur, _) = w.finish().expect("in-memory container");
    cur.into_inner()
}

/// Deserialize a mesh from an already-opened container reader.
fn read_mesh<R: std::io::Read + std::io::Seek>(
    r: &mut ContainerReader<R>,
    expect_fingerprint: Option<u64>,
) -> Result<GlobalMesh, ArtifactError> {
    if r.kind() != MESH_KIND {
        return Err(ArtifactError::Format {
            file: r.file().to_string(),
            detail: format!("container kind {:?} is not a mesh artifact", r.kind()),
        });
    }
    if r.payload_version() != MESH_FORMAT_VERSION {
        return Err(ArtifactError::Version {
            file: r.file().to_string(),
            found: r.payload_version(),
            supported: MESH_FORMAT_VERSION,
        });
    }
    let file = r.file().to_string();
    let meta = r.chunk("meta")?;
    let mut m = ByteReader::new(&meta, &file, "meta");
    let fingerprint = m.u64()?;
    let nspec = m.u64()? as usize;
    let nglob = m.u64()? as usize;
    m.finished()?;
    if let Some(expect) = expect_fingerprint {
        if fingerprint != expect {
            return Err(ArtifactError::KeyMismatch {
                file,
                found: fingerprint,
                expected: expect,
            });
        }
    }

    let params_buf = r.chunk("params")?;
    let mut pr = ByteReader::new(&params_buf, &file, "params");
    let params = decode_params(&mut pr)?;
    pr.finished()?;

    // Every array is checked against the sizes `meta` and `params` claim:
    // a CRC-valid artifact with one array of another length must not load
    // into a mesh that panics on a later index.
    let per_element = params.degree.saturating_add(1).saturating_pow(3);
    let nodes = nspec.saturating_mul(per_element);
    let ibool = r.chunk_le("ibool", nodes, u32::from_le_bytes)?;
    let coords = r.chunk_le("coords", nglob, |c: [u8; 24]| {
        [0, 8, 16].map(|at| f64::from_le_bytes(c[at..at + 8].try_into().expect("8 of 24 bytes")))
    })?;

    let region_buf = r.chunk_le("region", nspec, u8::from_le_bytes)?;
    let rr = ByteReader::new(&region_buf, &file, "region");
    let region = region_buf
        .iter()
        .map(|&t| region_from_tag(&rr, t))
        .collect::<Result<Vec<_>, _>>()?;

    let home = r
        .chunk_le("home", nspec, |h: [u8; 8]| h)?
        .into_iter()
        .map(|h| {
            let word = |at: usize| u16::from_le_bytes([h[at], h[at + 1]]);
            match h[0] {
                0 => Ok(ElementHome::Shell {
                    chunk: h[1],
                    ix: word(2),
                    iy: word(4),
                }),
                1 => Ok(ElementHome::Cube {
                    i: word(2),
                    j: word(4),
                    k: word(6),
                }),
                t => Err(ArtifactError::Format {
                    file: file.clone(),
                    detail: format!("chunk 'home': bad element-home tag {t}"),
                }),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;

    let rho = r.chunk_le("rho", nodes, f32::from_le_bytes)?;
    let kappa = r.chunk_le("kappa", nodes, f32::from_le_bytes)?;
    let mu = r.chunk_le("mu", nodes, f32::from_le_bytes)?;
    let qmu = r.chunk_le("qmu", nodes, f32::from_le_bytes)?;

    let layers_buf = r.chunk("layers")?;
    let mut lr = ByteReader::new(&layers_buf, &file, "layers");
    let nshells = lr.u64()?;
    // r_in, r_out, region tag, layer count
    let mut shells = Vec::with_capacity(lr.capacity_for(nshells, 8 + 8 + 1 + 8));
    for _ in 0..nshells {
        let r_in = lr.f64()?;
        let r_out = lr.f64()?;
        let reg_tag = lr.u8()?;
        let reg = region_from_tag(&lr, reg_tag)?;
        let n_layers = lr.u64()? as usize;
        shells.push(Shell {
            r_in,
            r_out,
            region: reg,
            n_layers,
        });
    }
    let cube_half_width = lr.f64()?;
    lr.finished()?;

    let report_buf = r.chunk("report")?;
    let mut rp = ByteReader::new(&report_buf, &file, "report");
    let geometry_seconds = rp.f64()?;
    let material_seconds = rp.f64()?;
    let numbering_seconds = rp.f64()?;
    let passes = rp.u8()?;
    let mut elements_per_region = [0usize; 4];
    for slot in &mut elements_per_region {
        *slot = rp.u64()? as usize;
    }
    rp.finished()?;

    let basis = GllBasis::new(params.degree);
    Ok(GlobalMesh {
        basis,
        params,
        nspec,
        nglob,
        ibool,
        coords,
        region,
        home,
        rho,
        kappa,
        mu,
        qmu,
        layer_plan: LayerPlan {
            shells,
            cube_half_width,
        },
        report: MesherReport {
            geometry_seconds,
            material_seconds,
            numbering_seconds,
            passes,
            elements_per_region,
        },
    })
}

/// Deserialize an artifact from bytes, rejecting bad magic, unknown
/// versions, truncation, per-chunk checksum mismatches, and — when
/// `expect_fingerprint` is given — artifacts filed under a different key.
pub fn decode_mesh(
    buf: &[u8],
    expect_fingerprint: Option<u64>,
) -> Result<GlobalMesh, ArtifactError> {
    let mut r = ContainerReader::new(Cursor::new(buf), "<memory>")?;
    read_mesh(&mut r, expect_fingerprint)
}

/// A directory of content-addressed mesh artifacts, one file per
/// [`MeshKey`]: `mesh_<fingerprint hex>.sfma`.
#[derive(Debug, Clone)]
pub struct MeshArtifactStore {
    dir: PathBuf,
    faults: Arc<Mutex<(Option<FaultPlan>, usize)>>,
}

impl MeshArtifactStore {
    /// Open (creating if needed) an artifact directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(&dir.display().to_string(), "create mesh artifact dir", e))?;
        Ok(Self {
            dir,
            faults: Arc::new(Mutex::new((None, 0))),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arm artifact-corruption injection, mirroring
    /// [`super::CheckpointStore::set_fault_plan`]: the n-th completed save
    /// is damaged after it lands.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.lock().unwrap().0 = Some(plan);
    }

    /// Path the artifact for `key` lives at.
    pub fn path_for(&self, key: &MeshKey) -> PathBuf {
        self.dir.join(format!("mesh_{}.sfma", key.hex()))
    }

    /// Persist a built mesh under its key (atomic tmp + fsync + rename).
    pub fn save(&self, key: &MeshKey, mesh: &GlobalMesh) -> Result<PathBuf, ArtifactError> {
        let _span = specfem_obs::span("io.mesh_artifact.save");
        let path = self.path_for(key);
        let bytes = write_container_atomic(&path, MESH_KIND, MESH_FORMAT_VERSION, |w| {
            write_chunks(w, mesh, key.fingerprint())
        })?;
        specfem_obs::counter_add("io.mesh_artifacts_written", 1);
        specfem_obs::counter_add("io.bytes_written", bytes);
        let mut faults = self.faults.lock().unwrap();
        let seq = faults.1;
        faults.1 += 1;
        if let Some(kind) = faults.0.as_ref().and_then(|p| p.artifact_fault(seq)) {
            crate::checkpoint::apply_artifact_fault(&path, kind);
        }
        Ok(path)
    }

    /// Load the mesh filed under `key`. `Ok(None)` when no artifact exists;
    /// corrupt or mis-keyed artifacts are a typed error (callers usually
    /// [`MeshArtifactStore::evict`] and rebuild).
    pub fn load(&self, key: &MeshKey) -> Result<Option<GlobalMesh>, ArtifactError> {
        let _span = specfem_obs::span("io.mesh_artifact.load");
        let path = self.path_for(key);
        if !path.exists() {
            return Ok(None);
        }
        let mut r = ContainerReader::open(&path)?;
        specfem_obs::counter_add(
            "io.bytes_read",
            fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        );
        read_mesh(&mut r, Some(key.fingerprint())).map(Some)
    }

    /// Fallback-aware load: a corrupt, torn, or mis-keyed artifact is
    /// evicted (so it can't poison the next scan), counted under
    /// `io.mesh_artifact_fallbacks`, and reported as a clean miss — the
    /// caller rebuilds, exactly as it would on a cold cache. Shares the
    /// generation-walk logic with [`super::CheckpointStore`] and the
    /// result cache via [`crate::generation::load_latest_good`].
    pub fn load_or_evict(&self, key: &MeshKey) -> Option<GlobalMesh> {
        crate::generation::load_latest_good(
            [key],
            "io.mesh_artifact_fallbacks",
            |k| self.load(k),
            |k, _| self.evict(k),
        )
        .value
    }

    /// Remove the artifact for `key`, if present.
    pub fn evict(&self, key: &MeshKey) {
        let _ = fs::remove_file(self.path_for(key));
    }

    /// Apply an [`ArtifactFaultKind`] to the artifact on disk (test hook).
    pub fn damage(&self, key: &MeshKey, kind: ArtifactFaultKind) {
        crate::checkpoint::apply_artifact_fault(&self.path_for(key), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_model::Prem;

    fn small_mesh() -> GlobalMesh {
        let params = MeshParams::new(4, 2);
        GlobalMesh::build(&params, &Prem::isotropic_no_ocean())
    }

    fn tmp_store(tag: &str) -> MeshArtifactStore {
        let dir = std::env::temp_dir().join(format!("specfem_mesh_artifact_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        MeshArtifactStore::new(dir).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mesh = small_mesh();
        let key = MeshKey::new(&mesh.params, "prem_iso");
        let store = tmp_store("roundtrip");
        store.save(&key, &mesh).unwrap();
        let back = store.load(&key).unwrap().expect("artifact present");
        assert_eq!(back.nspec, mesh.nspec);
        assert_eq!(back.nglob, mesh.nglob);
        assert_eq!(back.ibool, mesh.ibool);
        assert_eq!(back.coords, mesh.coords);
        assert_eq!(back.rho, mesh.rho);
        assert_eq!(back.kappa, mesh.kappa);
        assert_eq!(back.mu, mesh.mu);
        assert_eq!(back.qmu, mesh.qmu);
        assert_eq!(back.region, mesh.region);
        assert_eq!(back.home, mesh.home);
        assert_eq!(back.params.nex_xi, mesh.params.nex_xi);
        assert_eq!(back.params.element_order, mesh.params.element_order);
        assert_eq!(back.layer_plan.shells.len(), mesh.layer_plan.shells.len());
        assert_eq!(
            specfem_mesh::content_hash(&back),
            specfem_mesh::content_hash(&mesh)
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_artifact_is_none() {
        let store = tmp_store("missing");
        let key = MeshKey::new(&MeshParams::new(4, 1), "prem_iso");
        assert_eq!(store.load(&key).unwrap().map(|m| m.nspec), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corruption_and_key_mismatch_are_rejected() {
        let mesh = small_mesh();
        let key = MeshKey::new(&mesh.params, "prem_iso");
        let store = tmp_store("corrupt");
        let path = store.save(&key, &mesh).unwrap();
        // Bit flip → per-chunk checksum error naming the chunk.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = store.load(&key).unwrap_err();
        match &err {
            ArtifactError::Corrupt {
                chunk,
                expected,
                actual,
                ..
            } => {
                assert!(!chunk.is_empty());
                assert_ne!(expected, actual);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(err.to_string().contains("checksum"), "{err}");
        // Valid bytes filed under the wrong key → key mismatch.
        store.evict(&key);
        let other = MeshKey::new(&MeshParams::new(8, 2), "prem_iso");
        let valid = encode_mesh(&mesh, key.fingerprint());
        fs::write(store.path_for(&other), &valid).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(matches!(err, ArtifactError::KeyMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("key mismatch"), "{err}");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// `bytes` with the last `cut` bytes of chunk `name` dropped and every
    /// checksum recomputed — damage no CRC can see.
    fn reencode_with_short_chunk(bytes: &[u8], name: &str, cut: usize) -> Vec<u8> {
        let mut r = ContainerReader::new(Cursor::new(bytes), "<memory>").unwrap();
        let out = Cursor::new(Vec::new());
        let mut w = ContainerWriter::new(out, "<memory>", MESH_KIND, MESH_FORMAT_VERSION).unwrap();
        for chunk in r.chunk_names() {
            let payload = r.chunk(&chunk).unwrap();
            let keep = payload.len() - if chunk == name { cut } else { 0 };
            w.chunk(&chunk, &payload[..keep]).unwrap();
        }
        w.finish().unwrap().0.into_inner()
    }

    #[test]
    fn array_shorter_than_meta_claims_is_a_typed_error() {
        // A CRC-valid artifact whose array disagrees with `nspec`/`nglob`
        // used to load into a mesh that panicked on a later index.
        let mesh = small_mesh();
        let valid = encode_mesh(&mesh, 7);
        assert!(decode_mesh(&valid, Some(7)).is_ok());
        for (name, element_bytes) in [
            ("rho", 4),
            ("qmu", 4),
            ("ibool", 4),
            ("coords", 24),
            ("region", 1),
            ("home", 8),
            // Still aligned to the value width, but not to a whole point.
            ("coords", 8),
        ] {
            let short = reencode_with_short_chunk(&valid, name, element_bytes);
            match decode_mesh(&short, Some(7)) {
                Err(ArtifactError::Format { detail, .. }) => {
                    assert!(
                        detail.contains(&format!("chunk '{name}' holds")),
                        "{detail}"
                    )
                }
                other => panic!("short '{name}': expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_faults_are_typed_per_kind() {
        let mesh = small_mesh();
        let key = MeshKey::new(&mesh.params, "prem_iso");
        for (kind, tag) in [
            (ArtifactFaultKind::BitFlip, "bitflip"),
            (ArtifactFaultKind::Truncate, "trunc"),
            (ArtifactFaultKind::TornHeader, "torn"),
        ] {
            let store = tmp_store(&format!("inject_{tag}"));
            store.set_fault_plan(FaultPlan::new(3).corrupt_artifact(0, kind));
            store.save(&key, &mesh).unwrap();
            let err = store.load(&key).unwrap_err();
            match kind {
                ArtifactFaultKind::BitFlip => {
                    assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}")
                }
                _ => assert!(matches!(err, ArtifactError::Format { .. }), "{err}"),
            }
            // The recovery: evict and rebuild.
            store.evict(&key);
            assert!(store.load(&key).unwrap().is_none());
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn torn_header_falls_back_to_rebuild() {
        let mesh = small_mesh();
        let key = MeshKey::new(&mesh.params, "prem_iso");
        let store = tmp_store("torn_fallback");
        let path = store.save(&key, &mesh).unwrap();
        store.damage(&key, ArtifactFaultKind::TornHeader);
        // The fallback-aware path reports a miss (rebuild) and evicts the
        // damaged file so the plain load can't trip over it either.
        assert!(store.load_or_evict(&key).is_none());
        assert!(!path.exists(), "torn artifact must be evicted");
        assert!(store.load(&key).unwrap().is_none());
        // A healthy artifact still round-trips through the same path.
        store.save(&key, &mesh).unwrap();
        let back = store.load_or_evict(&key).expect("good artifact loads");
        assert_eq!(
            specfem_mesh::content_hash(&back),
            specfem_mesh::content_hash(&mesh)
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A file written by the previous payload layout is a typed
    /// unsupported-version error, and the fallback path removes it.
    #[test]
    fn version_2_artifact_is_unsupported_and_evicted() {
        let store = tmp_store("old_version");
        let key = MeshKey::new(&MeshParams::new(4, 2), "prem_iso");
        let path = store.path_for(&key);
        write_container_atomic(&path, MESH_KIND, 2, |w| w.chunk("meta", &[0; 24])).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::Version {
                    found: 2,
                    supported: MESH_FORMAT_VERSION,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(store.load_or_evict(&key).is_none());
        assert!(!path.exists(), "an unreadable artifact must be evicted");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn evict_removes_the_file() {
        let mesh = small_mesh();
        let key = MeshKey::new(&mesh.params, "prem_iso");
        let store = tmp_store("evict");
        let path = store.save(&key, &mesh).unwrap();
        assert!(path.exists());
        store.evict(&key);
        assert!(!path.exists());
        assert!(store.load(&key).unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }
}
