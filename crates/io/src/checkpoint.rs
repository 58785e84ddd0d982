//! Merged, rank-count-independent checkpoint containers.
//!
//! Every rank's [`CheckpointState`] flows through a per-rank sink into a
//! shared collector; when the full world has reported a step, the collector
//! merges the per-rank states into **one** global container,
//! `step{step:09}.sfcc`, keyed by global point/element ids — in the spirit
//! of Hapla et al.'s DMPlex checkpoints, where a file written by W ranks is
//! consumed by R readers through an on-disk index plus redecomposition on
//! load. A campaign that loses ranks restarts on a *smaller* world from the
//! same artifact ("shrink to survive"), and the file count per generation
//! is O(1) instead of O(ranks).
//!
//! Durability: a generation only exists on disk once *every* rank's state
//! for that step has been merged and the container has been written via
//! tmp + fsync + atomic rename ([`crate::container::write_container_atomic`]),
//! so a kill mid-checkpoint can never leave a half generation under a real
//! name. The store keeps the last `keep` generations (Par_file
//! `CHECKPOINT_KEEP`, default 2); when the newest container turns out
//! corrupt at restore, the store falls back to the previous good one.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use specfem_comm::{ArtifactFaultKind, FaultPlan};
use specfem_mesh::LocalMesh;
use specfem_solver::checkpoint::{CheckpointError, CheckpointSink, CheckpointState};

use crate::container::{
    put_f64, put_u32, put_u64, write_container_atomic, ArtifactError, ByteReader, ContainerReader,
};

/// Container kind tag for merged checkpoints.
pub const CHECKPOINT_KIND: [u8; 4] = *b"CKPT";

/// Version of the merged-checkpoint payload layout.
pub const CHECKPOINT_PAYLOAD_VERSION: u32 = 1;

/// Default number of complete generations kept on disk (≥ 2 so the
/// fallback path always has somewhere to land).
pub const DEFAULT_KEEP: usize = 2;

/// Per-station seismogram records as they travel in a checkpoint.
type StationRecords = Vec<(String, Vec<[f32; 3]>)>;
/// Accessor projecting one flat field out of a rank's checkpoint state.
type FieldAccessor = fn(&CheckpointState) -> &[f32];

fn step_file(step: usize) -> String {
    format!("step{step:09}.sfcc")
}

/// Parse `step{step:09}.sfcc` back into the step (rejects `.tmp` strays).
fn parse_step(name: &str) -> Option<usize> {
    name.strip_prefix("step")?
        .strip_suffix(".sfcc")?
        .parse()
        .ok()
}

fn artifact_to_checkpoint(e: ArtifactError) -> CheckpointError {
    CheckpointError(e.to_string())
}

/// One merged generation: the whole world's time-loop state indexed by
/// global point/element ids, decomposition-free.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalCheckpoint {
    /// First step a resumed loop executes.
    pub next_step: usize,
    /// Time step (s); restore must bit-match.
    pub dt: f64,
    /// World size that wrote the generation (provenance only — any world
    /// size may consume it).
    pub world_written: usize,
    /// Global point count.
    pub nglob: usize,
    /// Global element count (0 when no element-major payload was written).
    pub nspec: usize,
    /// Attenuation floats per element (0 = elastic run).
    pub atten_per_element: usize,
    /// Solid displacement `[g·3 + c]` over global points.
    pub displ: Vec<f32>,
    /// Solid velocity.
    pub veloc: Vec<f32>,
    /// Solid acceleration.
    pub accel: Vec<f32>,
    /// Fluid potential χ.
    pub chi: Vec<f32>,
    /// χ̇.
    pub chi_dot: Vec<f32>,
    /// χ̈.
    pub chi_ddot: Vec<f32>,
    /// Attenuation memory, element-major over global elements.
    pub atten: Option<Vec<f32>>,
    /// Union of every rank's station records.
    pub records: Vec<(String, Vec<[f32; 3]>)>,
    /// Energy samples (globally reduced — identical on every rank).
    pub energy: Vec<(usize, f64, f64)>,
    /// Displacement snapshots over global points.
    pub snapshots: Vec<Vec<f32>>,
    /// Total flop count across the writing world.
    pub flops: u64,
}

/// Gather one 3-component field into global numbering. Shared (halo)
/// points can carry ULP-different copies per rank (each rank sums its
/// assembly contributions in its own order), so the caller passes states
/// sorted by rank: the highest owning rank deterministically wins.
fn gather3(
    states: &[&CheckpointState],
    nglob: usize,
    field: fn(&CheckpointState) -> &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; nglob * 3];
    for s in states {
        let f = field(s);
        for (p, &g) in s.global_ids.iter().enumerate() {
            let g = g as usize;
            out[g * 3..g * 3 + 3].copy_from_slice(&f[p * 3..p * 3 + 3]);
        }
    }
    out
}

/// Gather one scalar field into global numbering (rank-sorted states —
/// see [`gather3`] on why order matters).
fn gather1(
    states: &[&CheckpointState],
    nglob: usize,
    field: fn(&CheckpointState) -> &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; nglob];
    for s in states {
        let f = field(s);
        for (p, &g) in s.global_ids.iter().enumerate() {
            out[g as usize] = f[p];
        }
    }
    out
}

/// Pre-merge consistency checks over one generation's per-rank states.
fn check_states(states: &[CheckpointState]) -> Result<(), CheckpointError> {
    let fail = |msg: String| Err(CheckpointError(msg));
    let first = &states[0];
    for s in states {
        if s.next_step != first.next_step {
            return fail(format!(
                "generation mixes steps {} and {}",
                first.next_step, s.next_step
            ));
        }
        if s.dt.to_bits() != first.dt.to_bits() {
            return fail(format!(
                "generation mixes dt {} and {} — ranks disagree on the stable step",
                first.dt, s.dt
            ));
        }
        if s.atten_memory.is_some() != first.atten_memory.is_some() {
            return fail("generation mixes anelastic and elastic states".to_string());
        }
        if s.snapshots.len() != first.snapshots.len() {
            return fail(format!(
                "generation mixes snapshot counts {} and {}",
                first.snapshots.len(),
                s.snapshots.len()
            ));
        }
        if s.global_ids.len() != s.nglob || s.displ.len() != s.nglob * 3 {
            return fail(format!(
                "rank {} state is internally inconsistent (nglob {}, {} ids, {} displ)",
                s.rank,
                s.nglob,
                s.global_ids.len(),
                s.displ.len()
            ));
        }
    }
    Ok(())
}

fn encode_records(records: &[(String, Vec<[f32; 3]>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, records.len() as u32);
    for (name, samples) in records {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        put_u64(&mut out, samples.len() as u64);
        for s in samples {
            for &c in s {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    out
}

fn decode_records(buf: &[u8], file: &str) -> Result<StationRecords, ArtifactError> {
    let mut r = ByteReader::new(buf, file, "records");
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(r.take(2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|e| r.format_err(format!("bad station name: {e}")))?;
        let nsamp = r.u64()? as usize;
        let raw = r.take(
            nsamp
                .checked_mul(12)
                .ok_or_else(|| r.format_err("sample count overflows"))?,
        )?;
        let samples = raw
            .chunks_exact(12)
            .map(|c| {
                [
                    f32::from_le_bytes(c[0..4].try_into().unwrap()),
                    f32::from_le_bytes(c[4..8].try_into().unwrap()),
                    f32::from_le_bytes(c[8..12].try_into().unwrap()),
                ]
            })
            .collect();
        out.push((name, samples));
    }
    r.finished()?;
    Ok(out)
}

/// Merge one generation's per-rank states and stream them into a single
/// container at `path`, one global field in memory at a time. Returns the
/// container size in bytes.
fn write_merged(path: &Path, states: &[CheckpointState]) -> Result<u64, CheckpointError> {
    check_states(states)?;
    // Merge in rank order, not collector-arrival order: arrival depends
    // on thread scheduling, and shared halo points differ by ULPs across
    // ranks, so an arrival-order merge makes the container (and any
    // resumed run) nondeterministic between bit-identical runs.
    let mut order: Vec<&CheckpointState> = states.iter().collect();
    order.sort_by_key(|s| s.rank);
    let states = &order[..];
    let first = states[0];
    let nglob = states
        .iter()
        .flat_map(|s| s.global_ids.iter())
        .map(|&g| g as usize + 1)
        .max()
        .unwrap_or(0);
    let nspec = states
        .iter()
        .flat_map(|s| s.element_global.iter())
        .map(|&e| e as usize + 1)
        .max()
        .unwrap_or(0);
    let atten_per_element = match &first.atten_memory {
        Some(_) => {
            // Every element's memory block has the same width; derive it
            // from any rank that owns elements.
            let mut per = 0usize;
            for s in states {
                if let (Some(mem), n) = (&s.atten_memory, s.element_global.len()) {
                    if n > 0 {
                        if !mem.len().is_multiple_of(n) {
                            return Err(CheckpointError(format!(
                                "rank {} attenuation memory ({} floats) not element-divisible ({n} elements)",
                                s.rank,
                                mem.len()
                            )));
                        }
                        per = mem.len() / n;
                        break;
                    }
                }
            }
            per
        }
        None => 0,
    };
    let nsnap = first.snapshots.len();

    let mut meta = Vec::new();
    put_u64(&mut meta, first.next_step as u64);
    put_f64(&mut meta, first.dt);
    put_u64(&mut meta, first.nranks as u64);
    put_u64(&mut meta, nglob as u64);
    put_u64(&mut meta, nspec as u64);
    put_u64(&mut meta, atten_per_element as u64);
    put_u64(&mut meta, nsnap as u64);
    put_u64(&mut meta, states.iter().map(|s| s.flops).sum::<u64>());

    // Station ownership is disjoint across ranks; union in rank order so
    // the container is deterministic.
    let mut records: Vec<(String, Vec<[f32; 3]>)> = Vec::new();
    for s in states {
        for (name, samples) in &s.records {
            if !records.iter().any(|(n, _)| n == name) {
                records.push((name.clone(), samples.clone()));
            }
        }
    }
    let records = encode_records(&records);
    let energy = {
        let mut out = Vec::new();
        put_u64(&mut out, states[0].energy.len() as u64);
        for &(step, ke, pe) in &states[0].energy {
            put_u64(&mut out, step as u64);
            put_f64(&mut out, ke);
            put_f64(&mut out, pe);
        }
        out
    };

    let bytes = write_container_atomic(path, CHECKPOINT_KIND, CHECKPOINT_PAYLOAD_VERSION, |w| {
        w.chunk("meta", &meta)?;
        let fields3: [(&str, FieldAccessor); 3] = [
            ("displ", |s| &s.displ),
            ("veloc", |s| &s.veloc),
            ("accel", |s| &s.accel),
        ];
        for (name, field) in fields3 {
            w.chunk_f32s(name, gather3(states, nglob, field).into_iter())?;
        }
        let fields1: [(&str, FieldAccessor); 3] = [
            ("chi", |s| &s.chi),
            ("chi_dot", |s| &s.chi_dot),
            ("chi_ddot", |s| &s.chi_ddot),
        ];
        for (name, field) in fields1 {
            w.chunk_f32s(name, gather1(states, nglob, field).into_iter())?;
        }
        if atten_per_element > 0 {
            let mut atten = vec![0.0f32; nspec * atten_per_element];
            for s in states {
                let mem = s.atten_memory.as_ref().expect("checked anelastic");
                for (e, &ge) in s.element_global.iter().enumerate() {
                    let src = &mem[e * atten_per_element..(e + 1) * atten_per_element];
                    let dst = ge as usize * atten_per_element;
                    atten[dst..dst + atten_per_element].copy_from_slice(src);
                }
            }
            w.chunk_f32s("atten", atten.into_iter())?;
        }
        w.chunk("records", &records)?;
        w.chunk("energy", &energy)?;
        for k in 0..nsnap {
            let mut snap = vec![0.0f32; nglob * 3];
            for s in states {
                let f = &s.snapshots[k];
                for (p, &g) in s.global_ids.iter().enumerate() {
                    let g = g as usize;
                    snap[g * 3..g * 3 + 3].copy_from_slice(&f[p * 3..p * 3 + 3]);
                }
            }
            w.chunk_f32s(&format!("snapshot{k:03}"), snap.into_iter())?;
        }
        Ok(())
    })
    .map_err(artifact_to_checkpoint)?;
    Ok(bytes)
}

/// Load one merged generation from a container file.
pub fn load_global(path: &Path) -> Result<GlobalCheckpoint, ArtifactError> {
    let mut r = ContainerReader::open(path)?;
    if r.kind() != CHECKPOINT_KIND {
        return Err(ArtifactError::Format {
            file: r.file().to_string(),
            detail: format!("container kind {:?} is not a checkpoint", r.kind()),
        });
    }
    if r.payload_version() != CHECKPOINT_PAYLOAD_VERSION {
        return Err(ArtifactError::Version {
            file: r.file().to_string(),
            found: r.payload_version(),
            supported: CHECKPOINT_PAYLOAD_VERSION,
        });
    }
    let file = r.file().to_string();
    let meta = r.chunk("meta")?;
    let mut m = ByteReader::new(&meta, &file, "meta");
    let next_step = m.u64()? as usize;
    let dt = m.f64()?;
    let world_written = m.u64()? as usize;
    let nglob = m.u64()? as usize;
    let nspec = m.u64()? as usize;
    let atten_per_element = m.u64()? as usize;
    let nsnap = m.u64()? as usize;
    let flops = m.u64()?;
    m.finished()?;

    let displ = r.chunk_le("displ", nglob * 3, f32::from_le_bytes)?;
    let veloc = r.chunk_le("veloc", nglob * 3, f32::from_le_bytes)?;
    let accel = r.chunk_le("accel", nglob * 3, f32::from_le_bytes)?;
    let chi = r.chunk_le("chi", nglob, f32::from_le_bytes)?;
    let chi_dot = r.chunk_le("chi_dot", nglob, f32::from_le_bytes)?;
    let chi_ddot = r.chunk_le("chi_ddot", nglob, f32::from_le_bytes)?;
    let atten = if atten_per_element > 0 {
        Some(r.chunk_le("atten", nspec * atten_per_element, f32::from_le_bytes)?)
    } else {
        None
    };
    let records = decode_records(&r.chunk("records")?, &file)?;
    let energy = {
        let buf = r.chunk("energy")?;
        let mut er = ByteReader::new(&buf, &file, "energy");
        let n = er.u64()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((er.u64()? as usize, er.f64()?, er.f64()?));
        }
        er.finished()?;
        out
    };
    let mut snapshots = Vec::with_capacity(nsnap);
    for k in 0..nsnap {
        let name = format!("snapshot{k:03}");
        snapshots.push(r.chunk_le(&name, nglob * 3, f32::from_le_bytes)?);
    }
    specfem_obs::counter_add(
        "io.bytes_read",
        fs::metadata(path).map(|m| m.len()).unwrap_or(0),
    );
    Ok(GlobalCheckpoint {
        next_step,
        dt,
        world_written,
        nglob,
        nspec,
        atten_per_element,
        displ,
        veloc,
        accel,
        chi,
        chi_dot,
        chi_ddot,
        atten,
        records,
        energy,
        snapshots,
        flops,
    })
}

/// Scatter one merged generation onto a local mesh of an *arbitrary*
/// decomposition — the redecomposition-on-load half of the container
/// design. Seismogram records travel whole (the solver keeps the stations
/// it owns); the summed flop count lands on rank 0.
pub fn scatter_state(
    global: &GlobalCheckpoint,
    rank: usize,
    mesh: &LocalMesh,
) -> Result<CheckpointState, CheckpointError> {
    for &g in &mesh.global_ids {
        if g as usize >= global.nglob {
            return Err(CheckpointError(format!(
                "decomposition mismatch: mesh references global point {g} \
                 but the checkpoint holds {} — different mesh?",
                global.nglob
            )));
        }
    }
    let take3 = |field: &[f32]| -> Vec<f32> {
        let mut out = vec![0.0f32; mesh.nglob * 3];
        for (p, &g) in mesh.global_ids.iter().enumerate() {
            let g = g as usize;
            out[p * 3..p * 3 + 3].copy_from_slice(&field[g * 3..g * 3 + 3]);
        }
        out
    };
    let take1 = |field: &[f32]| -> Vec<f32> {
        mesh.global_ids.iter().map(|&g| field[g as usize]).collect()
    };
    let atten_memory = match &global.atten {
        Some(atten) => {
            let per = global.atten_per_element;
            let mut out = Vec::with_capacity(mesh.element_global.len() * per);
            for &ge in &mesh.element_global {
                let ge = ge as usize;
                if ge >= global.nspec {
                    return Err(CheckpointError(format!(
                        "decomposition mismatch: mesh references global element {ge} \
                         but the checkpoint holds {}",
                        global.nspec
                    )));
                }
                out.extend_from_slice(&atten[ge * per..(ge + 1) * per]);
            }
            Some(out)
        }
        None => None,
    };
    Ok(CheckpointState {
        rank,
        nranks: global.world_written,
        next_step: global.next_step,
        dt: global.dt,
        nglob: mesh.nglob,
        global_ids: mesh.global_ids.clone(),
        element_global: mesh.element_global.clone(),
        displ: take3(&global.displ),
        veloc: take3(&global.veloc),
        accel: take3(&global.accel),
        chi: take1(&global.chi),
        chi_dot: take1(&global.chi_dot),
        chi_ddot: take1(&global.chi_ddot),
        atten_memory,
        records: global.records.clone(),
        energy: global.energy.clone(),
        snapshots: global.snapshots.iter().map(|s| take3(s)).collect(),
        flops: if rank == 0 { global.flops } else { 0 },
    })
}

#[derive(Default)]
struct Pending {
    states: HashMap<usize, CheckpointState>,
}

struct Shared {
    keep: usize,
    fault_plan: Option<FaultPlan>,
    /// Completed artifact writes, the key [`FaultPlan::artifact_fault`]
    /// schedules against.
    writes: usize,
    pending: BTreeMap<usize, Pending>,
    /// Last generation read, so W ranks restoring don't re-read W times.
    cache: Option<(usize, Arc<GlobalCheckpoint>)>,
}

/// A directory of merged checkpoint containers, one file per generation.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    shared: Arc<Mutex<Shared>>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError(format!("create checkpoint dir: {e}")))?;
        Ok(Self {
            dir,
            shared: Arc::new(Mutex::new(Shared {
                keep: DEFAULT_KEEP,
                fault_plan: None,
                writes: 0,
                pending: BTreeMap::new(),
                cache: None,
            })),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many complete generations survive pruning (clamped to ≥ 1).
    pub fn set_keep(&self, keep: usize) {
        self.shared.lock().unwrap().keep = keep.max(1);
    }

    /// Arm artifact-corruption injection: the plan's
    /// [`FaultPlan::artifact_fault`] schedule damages the n-th completed
    /// container write *after* it lands (simulating on-media corruption).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.shared.lock().unwrap().fault_plan = Some(plan);
    }

    /// A [`CheckpointSink`] one rank writes through. All sinks feed the
    /// shared collector; the rank completing a generation pays the merge
    /// and the single container write.
    pub fn sink(&self, rank: usize) -> Box<dyn CheckpointSink> {
        let _ = rank; // identity travels inside the state itself
        Box::new(CollectorSink {
            store: self.clone(),
        })
    }

    /// Steps with a (fully renamed) container on disk, ascending.
    pub fn steps(&self) -> Result<Vec<usize>, CheckpointError> {
        let mut out = Vec::new();
        let iter = fs::read_dir(&self.dir)
            .map_err(|e| CheckpointError(format!("list checkpoint dir: {e}")))?;
        for entry in iter {
            let entry = entry.map_err(|e| CheckpointError(format!("list checkpoint dir: {e}")))?;
            if let Some(step) = entry.file_name().to_str().and_then(parse_step) {
                out.push(step);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Load one generation, memoizing the newest successful read.
    pub fn load_global(&self, step: usize) -> Result<Arc<GlobalCheckpoint>, ArtifactError> {
        if let Some((s, g)) = &self.shared.lock().unwrap().cache {
            if *s == step {
                return Ok(Arc::clone(g));
            }
        }
        let global = Arc::new(load_global(&self.dir.join(step_file(step)))?);
        self.shared.lock().unwrap().cache = Some((step, Arc::clone(&global)));
        Ok(global)
    }

    /// Restore `rank`'s state on `mesh` — any decomposition — from the
    /// newest *readable* generation. A corrupt or torn container is skipped
    /// (counted in `io.checkpoint_fallbacks`) and the previous generation
    /// is tried; `Ok(None)` means a cold start, and an error means every
    /// generation on disk failed validation.
    pub fn restore_latest_for(
        &self,
        rank: usize,
        mesh: &LocalMesh,
    ) -> Result<Option<CheckpointState>, CheckpointError> {
        let steps = self.steps()?;
        let scan = crate::generation::load_latest_good(
            steps.into_iter().rev(),
            "io.checkpoint_fallbacks",
            |&step| self.load_global(step).map(Some),
            |_, _| {},
        );
        match scan.into_result() {
            Ok(Some(global)) => scatter_state(&global, rank, mesh).map(Some),
            Ok(None) => Ok(None),
            Err(e) => Err(CheckpointError(format!(
                "no readable checkpoint generation: {e}"
            ))),
        }
    }

    /// Merge and persist one complete generation (called by the collector
    /// with the shared lock held; container writes are serialized).
    fn commit(
        &self,
        shared: &mut Shared,
        states: Vec<CheckpointState>,
    ) -> Result<(), CheckpointError> {
        let _span = specfem_obs::span("io.checkpoint.write");
        let step = states[0].next_step;
        let path = self.dir.join(step_file(step));
        let bytes = write_merged(&path, &states)?;
        specfem_obs::counter_add("io.checkpoints_written", 1);
        specfem_obs::counter_add("io.bytes_written", bytes);

        let seq = shared.writes;
        shared.writes += 1;
        if let Some(kind) = shared
            .fault_plan
            .as_ref()
            .and_then(|p| p.artifact_fault(seq))
        {
            apply_artifact_fault(&path, kind);
        }
        shared.cache = None; // never serve pre-damage bytes from memory

        // Prune old generations, newest first.
        let mut steps = self.steps()?;
        steps.sort_unstable_by(|a, b| b.cmp(a));
        for &old in steps.iter().skip(shared.keep) {
            let _ = fs::remove_file(self.dir.join(step_file(old)));
        }
        Ok(())
    }
}

/// Damage a landed container according to the injected fault kind.
pub(crate) fn apply_artifact_fault(path: &Path, kind: ArtifactFaultKind) {
    let Ok(mut bytes) = fs::read(path) else {
        return;
    };
    match kind {
        ArtifactFaultKind::BitFlip => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
        }
        ArtifactFaultKind::Truncate => {
            bytes.truncate(bytes.len() / 3);
        }
        ArtifactFaultKind::TornHeader => {
            for b in bytes.iter_mut().take(8) {
                *b = 0;
            }
        }
    }
    let _ = fs::write(path, &bytes);
}

struct CollectorSink {
    store: CheckpointStore,
}

impl CheckpointSink for CollectorSink {
    fn write(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        let expected = state.nranks.max(1);
        let store = self.store.clone();
        let mut shared = store.shared.lock().unwrap();
        let pending = shared.pending.entry(state.next_step).or_default();
        pending.states.insert(state.rank, state.clone());
        if pending.states.len() < expected {
            return Ok(());
        }
        let done = shared
            .pending
            .remove(&state.next_step)
            .expect("just inserted");
        let states: Vec<CheckpointState> = done.states.into_values().collect();
        self.store.commit(&mut shared, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_comm::FaultPlan;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::Prem;

    fn gm() -> GlobalMesh {
        GlobalMesh::build(&MeshParams::new(4, 1), &Prem::isotropic_no_ocean())
    }

    /// Deterministic per-global-point values so any decomposition can be
    /// checked against the same formula.
    fn f3(g: u32, c: usize, k: u32) -> f32 {
        g as f32 * 8.0 + c as f32 + k as f32 * 0.5
    }

    fn f1(g: u32, k: u32) -> f32 {
        g as f32 * 1.5 + k as f32
    }

    const ATTEN_PER: usize = 4;

    fn synth(mesh: &LocalMesh, world: usize, step: usize) -> CheckpointState {
        let v3 = |k: u32| -> Vec<f32> {
            let mut out = vec![0.0; mesh.nglob * 3];
            for (p, &g) in mesh.global_ids.iter().enumerate() {
                for c in 0..3 {
                    out[p * 3 + c] = f3(g, c, k);
                }
            }
            out
        };
        let v1 = |k: u32| -> Vec<f32> { mesh.global_ids.iter().map(|&g| f1(g, k)).collect() };
        let atten: Vec<f32> = mesh
            .element_global
            .iter()
            .flat_map(|&ge| (0..ATTEN_PER as u32).map(move |i| (ge * ATTEN_PER as u32 + i) as f32))
            .collect();
        CheckpointState {
            rank: mesh.rank,
            nranks: world,
            next_step: step,
            dt: 0.25,
            nglob: mesh.nglob,
            global_ids: mesh.global_ids.clone(),
            element_global: mesh.element_global.clone(),
            displ: v3(0),
            veloc: v3(1),
            accel: v3(2),
            chi: v1(0),
            chi_dot: v1(1),
            chi_ddot: v1(2),
            atten_memory: Some(atten),
            records: vec![(
                format!("ST{}", mesh.rank),
                vec![[mesh.rank as f32, 0.0, 1.0]; 2],
            )],
            energy: vec![(0, 1.0, 2.0)],
            snapshots: vec![v3(7)],
            flops: 100 + mesh.rank as u64,
        }
    }

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("specfem_ckpt_container_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn write_generation(store: &CheckpointStore, gm: &GlobalMesh, world: usize, step: usize) {
        let part = Partition::balanced(gm, world);
        for rank in 0..world {
            let mesh = part.extract(gm, rank);
            store.sink(rank).write(&synth(&mesh, world, step)).unwrap();
        }
    }

    #[test]
    fn collector_merges_one_container_and_scatters_to_any_world() {
        let gm = gm();
        let store = tmp_store("elastic");
        write_generation(&store, &gm, 2, 10);

        // One file per generation, regardless of the writing world size.
        let files: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, vec!["step000000010.sfcc"]);

        // Restore at a *different* world size and check every value.
        for restore_world in [1usize, 3, 8] {
            let part = Partition::balanced(&gm, restore_world);
            let mut total_flops = 0u64;
            for rank in 0..restore_world {
                let mesh = part.extract(&gm, rank);
                let state = store
                    .restore_latest_for(rank, &mesh)
                    .unwrap()
                    .expect("generation present");
                assert_eq!(state.next_step, 10);
                assert_eq!(state.dt.to_bits(), 0.25f64.to_bits());
                assert_eq!(state.nglob, mesh.nglob);
                for (p, &g) in mesh.global_ids.iter().enumerate() {
                    for c in 0..3 {
                        assert_eq!(state.displ[p * 3 + c].to_bits(), f3(g, c, 0).to_bits());
                        assert_eq!(state.veloc[p * 3 + c].to_bits(), f3(g, c, 1).to_bits());
                        assert_eq!(state.accel[p * 3 + c].to_bits(), f3(g, c, 2).to_bits());
                        assert_eq!(
                            state.snapshots[0][p * 3 + c].to_bits(),
                            f3(g, c, 7).to_bits()
                        );
                    }
                    assert_eq!(state.chi[p].to_bits(), f1(g, 0).to_bits());
                }
                let atten = state.atten_memory.as_ref().unwrap();
                for (e, &ge) in mesh.element_global.iter().enumerate() {
                    for i in 0..ATTEN_PER {
                        assert_eq!(
                            atten[e * ATTEN_PER + i],
                            (ge as usize * ATTEN_PER + i) as f32
                        );
                    }
                }
                // Records travel whole; the solver filters ownership.
                let names: Vec<_> = state.records.iter().map(|(n, _)| n.clone()).collect();
                assert_eq!(names, vec!["ST0", "ST1"]);
                assert_eq!(state.energy, vec![(0, 1.0, 2.0)]);
                total_flops += state.flops;
            }
            // Summed flops land once, on rank 0.
            assert_eq!(total_flops, 100 + 101);
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn keep_k_prunes_old_generations() {
        let gm = gm();
        let store = tmp_store("prune");
        store.set_keep(2);
        for step in [10, 20, 30] {
            write_generation(&store, &gm, 2, step);
        }
        assert_eq!(store.steps().unwrap(), vec![20, 30]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let gm = gm();
        let store = tmp_store("fallback");
        write_generation(&store, &gm, 2, 10);
        write_generation(&store, &gm, 2, 20);

        // Flip a byte mid-file (inside a field chunk) in the newest one.
        let path = store.dir().join(step_file(20));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        // Direct load is a typed corruption error naming the chunk.
        match load_global(&path).unwrap_err() {
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

        // The restore path silently falls back to step 10.
        let mesh = Partition::balanced(&gm, 1).extract(&gm, 0);
        let state = store.restore_latest_for(0, &mesh).unwrap().unwrap();
        assert_eq!(state.next_step, 10);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn half_written_container_is_never_selected_as_latest() {
        let gm = gm();
        let store = tmp_store("torn");
        write_generation(&store, &gm, 2, 20);

        // Simulate a kill mid-write: a stray tmp file (never renamed) and a
        // torn container that somehow landed under a real name.
        let good = fs::read(store.dir().join(step_file(20))).unwrap();
        fs::write(store.dir().join("step000000040.sfcc.tmp"), &good).unwrap();
        fs::write(store.dir().join(step_file(30)), &good[..good.len() / 2]).unwrap();

        // The tmp stray is not a generation at all; the torn container is
        // skipped with a fallback to the complete one.
        assert_eq!(store.steps().unwrap(), vec![20, 30]);
        let mesh = Partition::balanced(&gm, 1).extract(&gm, 0);
        let state = store.restore_latest_for(0, &mesh).unwrap().unwrap();
        assert_eq!(state.next_step, 20);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn injected_artifact_faults_damage_the_scheduled_write() {
        let gm = gm();
        for (kind, tag) in [
            (ArtifactFaultKind::BitFlip, "bitflip"),
            (ArtifactFaultKind::Truncate, "trunc"),
            (ArtifactFaultKind::TornHeader, "torn"),
        ] {
            let store = tmp_store(&format!("inject_{tag}"));
            // Write 0 (step 10) lands clean; write 1 (step 20) is damaged.
            store.set_fault_plan(FaultPlan::new(7).corrupt_artifact(1, kind));
            write_generation(&store, &gm, 2, 10);
            write_generation(&store, &gm, 2, 20);

            let err = load_global(&store.dir().join(step_file(20))).unwrap_err();
            match kind {
                ArtifactFaultKind::BitFlip => {
                    assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}")
                }
                _ => assert!(matches!(err, ArtifactError::Format { .. }), "{err}"),
            }

            let mesh = Partition::balanced(&gm, 1).extract(&gm, 0);
            let state = store.restore_latest_for(0, &mesh).unwrap().unwrap();
            assert_eq!(state.next_step, 10, "fallback after {tag}");
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn cold_start_is_none_and_all_corrupt_is_an_error() {
        let gm = gm();
        let store = tmp_store("cold");
        let mesh = Partition::balanced(&gm, 1).extract(&gm, 0);
        assert!(store.restore_latest_for(0, &mesh).unwrap().is_none());

        write_generation(&store, &gm, 1, 10);
        let path = store.dir().join(step_file(10));
        fs::write(&path, b"garbage").unwrap();
        let err = store.restore_latest_for(0, &mesh).unwrap_err();
        assert!(err.0.contains("no readable checkpoint"), "{err}");
        let _ = fs::remove_dir_all(store.dir());
    }
}
