//! # specfem-core — global seismic wave propagation in Rust
//!
//! A from-scratch Rust reproduction of **SPECFEM3D_GLOBE** as described in
//! *"High-Frequency Simulations of Global Seismic Wave Propagation Using
//! SPECFEM3D_GLOBE on 62K Processors"* (Carrington et al., SC 2008): a
//! spectral-element solver for 3-D anelastic, rotating, self-gravitating
//! Earth models on the cubed-sphere mesh, with the merged mesher+solver
//! pipeline, multilevel Cuthill-McKee element ordering, manual-SIMD force
//! kernels, and the paper's performance-modeling methodology.
//!
//! This crate is the high-level facade: build a [`Simulation`] with the
//! builder, run it serially or on a simulated-MPI thread world, and read
//! back seismograms and performance statistics.
//!
//! ```no_run
//! use specfem_core::Simulation;
//!
//! let sim = Simulation::builder()
//!     .resolution(8)          // NEX_XI
//!     .processors(1)          // NPROC_XI → 6·NPROC² ranks
//!     .steps(200)
//!     .catalogue_event("argentina_deep")
//!     .stations(8)
//!     .build()
//!     .unwrap();
//! let result = sim.run_serial();
//! println!("{} seismograms, {:.2} Gflop/s sustained",
//!          result.seismograms.len(), result.total_flop_rate() / 1e9);
//! ```

pub mod batch;
pub mod parfile;

pub use specfem_batch as batchlib;
pub use specfem_comm as comm;
pub use specfem_gll as gll;
pub use specfem_io as io;
pub use specfem_kernels as kernels;
pub use specfem_mesh as mesh;
pub use specfem_model as model;
pub use specfem_perf as perf;
pub use specfem_solver as solver;

pub use specfem_comm::NetworkProfile;
pub use specfem_kernels::KernelVariant;
pub use specfem_mesh::stations::{global_network, Station};
pub use specfem_mesh::{ElementOrder, GlobalMesh, MeshMode, MeshParams, Partition};
pub use specfem_model::{builtin_events, CmtSource, Prem, SourceTimeFunction, StfKind};
pub use specfem_obs as obs;
pub use specfem_solver::{RankResult, Seismogram, SolverConfig, SourceSpec};

/// Which Earth model fills the mesh.
#[derive(Debug, Clone)]
pub enum ModelChoice {
    /// Full PREM with transverse isotropy.
    Prem,
    /// Isotropic PREM without the ocean (the common meshing target).
    IsotropicPrem,
    /// PREM with a deterministic 3-D mantle perturbation (the tomographic-
    /// model stand-in).
    Prem3D,
    /// Uniform solid ball (validation runs).
    Homogeneous,
}

impl ModelChoice {
    /// Stable identifier used in mesh fingerprints and artifact names.
    /// Changing a model's physics must change its id — cached meshes are
    /// addressed by it.
    pub fn id(&self) -> &'static str {
        match self {
            ModelChoice::Prem => "prem",
            ModelChoice::IsotropicPrem => "prem_iso",
            ModelChoice::Prem3D => "prem_3d",
            ModelChoice::Homogeneous => "homogeneous",
        }
    }

    /// Instantiate the Earth model.
    fn instantiate(&self) -> Box<dyn specfem_model::EarthModel> {
        match self {
            ModelChoice::Prem => Box::new(Prem::default()),
            ModelChoice::IsotropicPrem => Box::new(Prem::isotropic_no_ocean()),
            ModelChoice::Prem3D => Box::new(specfem_model::Prem3D::default_mantle()),
            ModelChoice::Homogeneous => Box::new(specfem_model::HomogeneousModel::default()),
        }
    }
}

/// Why [`SimulationBuilder::build`] rejected a configuration. Typed (not
/// `String`) so schedulers and retry logic can match on the cause, in the
/// same direction as the typed `CommError`/`SolverError` hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `NEX_XI` below the minimum meshable resolution.
    ResolutionTooLow {
        /// The rejected `NEX_XI`.
        nex: usize,
    },
    /// `NEX_XI` not divisible by `NPROC_XI` (or `NPROC_XI` is zero).
    IndivisibleDecomposition {
        /// `NEX_XI`.
        nex: usize,
        /// `NPROC_XI`.
        nproc: usize,
    },
    /// The requested catalogue event does not exist.
    UnknownEvent {
        /// The unmatched event name.
        name: String,
    },
    /// A regional mesh may not descend into the fluid outer core.
    RegionalBelowCmb {
        /// The rejected inner radius (m).
        r_min_m: f64,
    },
    /// `LTS_MAX_RATE` outside the legal range (a power of two between 1
    /// and [`specfem_mesh::lts::MAX_LTS_RATE`]).
    InvalidLtsRate {
        /// The rejected rate cap.
        rate: usize,
    },
    /// `CHECKPOINT_EVERY` must be a multiple of `LTS_MAX_RATE`: frozen
    /// force contributions are only consistent at full-cycle boundaries,
    /// so checkpoints may only land there.
    LtsMisalignedCheckpoint {
        /// The checkpoint cadence.
        checkpoint_every: usize,
        /// The LTS rate cap.
        lts_max_rate: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ResolutionTooLow { nex } => {
                write!(f, "NEX_XI must be at least 2 (got {nex})")
            }
            BuildError::IndivisibleDecomposition { nex, nproc } => {
                write!(f, "NEX_XI ({nex}) must be divisible by NPROC_XI ({nproc})")
            }
            BuildError::UnknownEvent { name } => {
                write!(f, "unknown catalogue event '{name}'")
            }
            BuildError::RegionalBelowCmb { r_min_m } => {
                write!(
                    f,
                    "regional meshes must stay above the fluid outer core (r_min = {r_min_m} m)"
                )
            }
            BuildError::InvalidLtsRate { rate } => {
                write!(
                    f,
                    "LTS_MAX_RATE must be a power of two between 1 and {} (got {rate})",
                    specfem_mesh::lts::MAX_LTS_RATE
                )
            }
            BuildError::LtsMisalignedCheckpoint {
                checkpoint_every,
                lts_max_rate,
            } => {
                write!(
                    f,
                    "CHECKPOINT_EVERY ({checkpoint_every}) must be a multiple of \
                     LTS_MAX_RATE ({lts_max_rate}) — checkpoints may only land on \
                     full LTS cycles"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A configured simulation: mesh parameters + solver configuration +
/// station network.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Mesh parameters.
    pub params: MeshParams,
    /// Earth model.
    pub model: ModelChoice,
    /// Solver configuration.
    pub config: SolverConfig,
    /// Stations to record at.
    pub stations: Vec<Station>,
}

/// Merged result of a run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Seismograms from all ranks, station-ordered.
    pub seismograms: Vec<Seismogram>,
    /// Per-rank results (timings, comm stats, flops).
    pub ranks: Vec<RankResult>,
    /// Time step used (s).
    pub dt: f64,
    /// Spans and metrics recorded while *meshing* on the driver thread
    /// (`Some` only when `config.trace` is set). Solver-phase profiles
    /// live on the individual [`RankResult`]s.
    pub mesher_profile: Option<obs::RankProfile>,
    /// Straggler-watchdog telemetry (skew gauges, per-rank last steps,
    /// stall flags) — `Some` only on distributed runs with
    /// `config.watchdog_timeout` set.
    pub watchdog: Option<comm::WatchdogReport>,
}

impl SimulationResult {
    /// Merge per-rank results of one run (or one lane of a fused run) and
    /// auto-write its observability artifacts when `config.trace_dir`
    /// asks for them.
    fn from_ranks(
        ranks: Vec<RankResult>,
        mesher_profile: Option<obs::RankProfile>,
        watchdog: Option<comm::WatchdogReport>,
        config: &SolverConfig,
    ) -> Self {
        let out = Self {
            seismograms: specfem_solver::merge_seismograms(&ranks),
            dt: ranks.first().map_or(0.0, |r| r.dt),
            ranks,
            mesher_profile,
            watchdog,
        };
        out.autowrite_observability(config);
        out
    }

    /// Total flops over all ranks.
    pub fn total_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).sum()
    }

    /// Aggregate sustained flop rate (total flops / max wall time) — the
    /// PSiNSlight-style number the paper reports as "sustained Tflops".
    pub fn total_flop_rate(&self) -> f64 {
        let wall = self
            .ranks
            .iter()
            .map(|r| r.elapsed_s)
            .fold(0.0f64, f64::max);
        self.total_flops() as f64 / wall.max(1e-12)
    }

    /// Mean fraction of main-loop time spent in communication — the IPM
    /// measurement of paper §5 (1.9–4.2 % on Franklin).
    pub fn mean_comm_fraction(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.comm_fraction()).sum::<f64>() / self.ranks.len() as f64
    }

    /// Total core-seconds (the Figure 7 quantity).
    pub fn total_core_seconds(&self) -> f64 {
        self.ranks.iter().map(|r| r.elapsed_s).sum()
    }

    /// Build the IPM-style cross-rank report (paper §5) from this run's
    /// per-rank communication statistics and span traces. Works on
    /// untraced runs too — the phase table is simply empty.
    pub fn ipm_report(&self) -> obs::IpmReport {
        let inputs: Vec<obs::IpmRankInput> = self
            .ranks
            .iter()
            .map(|r| obs::IpmRankInput {
                rank: r.rank,
                elapsed_s: r.elapsed_s,
                comm_wall_s: r.comm.wall_time_s,
                modeled_comm_s: r.comm.modeled_time_s,
                bytes_sent: r.comm.bytes_sent,
                bytes_received: r.comm.bytes_received,
                messages_sent: r.comm.messages_sent,
                collectives: r.comm.collectives,
                per_tag: r.comm.per_tag.clone(),
                size_hist: r.comm.size_hist.clone(),
                phase_seconds: r
                    .profile
                    .as_ref()
                    .map(|p| p.trace.phase_seconds())
                    .unwrap_or_default(),
            })
            .collect();
        obs::IpmReport::build(&inputs)
    }

    /// Merge every recorded trace (solver ranks + the mesher pseudo-rank)
    /// into one Chrome/Perfetto `trace_event` JSON document. `None` when
    /// the run was untraced.
    pub fn perfetto_json(&self) -> Option<String> {
        let mut traces: Vec<obs::RankTrace> = self
            .ranks
            .iter()
            .filter_map(|r| r.profile.as_ref().map(|p| p.trace.clone()))
            .collect();
        if let Some(m) = &self.mesher_profile {
            traces.push(m.trace.clone());
        }
        if traces.is_empty() {
            return None;
        }
        Some(obs::perfetto_json(&traces))
    }

    /// Write the run's observability artifacts into `dir` (created if
    /// missing): `ipm_report.txt`, `ipm_report.json`, and — when traces
    /// were recorded — `trace.perfetto.json`.
    pub fn write_observability(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let report = self.ipm_report();
        std::fs::write(dir.join("ipm_report.txt"), report.render_text())?;
        std::fs::write(dir.join("ipm_report.json"), report.to_json())?;
        if let Some(json) = self.perfetto_json() {
            std::fs::write(dir.join("trace.perfetto.json"), json)?;
        }
        Ok(())
    }

    /// Honor `config.trace_dir`: write artifacts there, warning (not
    /// failing) on I/O errors — observability must never sink a finished
    /// simulation.
    fn autowrite_observability(&self, config: &SolverConfig) {
        if let Some(dir) = &config.trace_dir {
            if let Err(e) = self.write_observability(dir) {
                eprintln!(
                    "warning: could not write observability artifacts to {}: {e}",
                    dir.display()
                );
            }
        }
    }
}

impl Simulation {
    /// Start building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// The content-addressed identity of the mesh this simulation would
    /// build: model id plus every mesh-affecting parameter. Simulations
    /// with equal keys can share one built [`GlobalMesh`] — the campaign
    /// runtime's cache is addressed by this.
    pub fn mesh_key(&self) -> mesh::MeshKey {
        mesh::MeshKey::new(&self.params, self.model.id())
    }

    /// Estimated resident bytes of the mesh this simulation would build
    /// (without building it) — the cache's admission-control input.
    pub fn estimated_mesh_bytes(&self) -> usize {
        mesh::estimated_mesh_bytes(&self.params, self.model.instantiate().as_ref())
    }

    /// The content address of this simulation's *answer*: a fingerprint
    /// over everything that determines the output seismograms — the mesh
    /// geometry fingerprint (model id + every geometry knob, decomposition
    /// masked, because the bits are decomposition-independent), the
    /// source, the station set, and the answer-affecting solver knobs.
    ///
    /// Pure ops knobs are deliberately **excluded** — checkpoint cadence,
    /// receive/watchdog deadlines, fault plans, tracing — so a request
    /// served under a different deadline or with telemetry armed still
    /// hits the same cached result. The serve daemon keys its result
    /// cache (`specfem_io::ResultCache`) with this.
    pub fn result_key(&self) -> io::ResultKey {
        let mut h = ResultFnv::new();
        h.bytes(b"specfem-result-v2");
        h.u64(self.mesh_key().geometry_fingerprint());
        hash_shared_physics(&mut h, &self.config);
        // Station set, order included (results are station-ordered).
        h.u64(self.stations.len() as u64);
        for s in &self.stations {
            h.u64(s.name.len() as u64);
            h.bytes(s.name.as_bytes());
            h.f64(s.lat_deg);
            h.f64(s.lon_deg);
        }
        hash_source(&mut h, &self.config.source);
        io::ResultKey(h.finish())
    }

    /// Build the global mesh, recording mesher spans on the driver thread
    /// (as a pseudo-rank numbered one past the solver ranks, so its
    /// Perfetto timeline row never collides with a real rank) when
    /// tracing is on.
    pub fn build_mesh(&self) -> (GlobalMesh, Option<obs::RankProfile>) {
        if self.config.trace {
            obs::init_rank(self.params.num_ranks(), &obs::TraceConfig::default());
        }
        let mesh = GlobalMesh::build(&self.params, self.model.instantiate().as_ref());
        let profile = if self.config.trace {
            obs::finish_rank()
        } else {
            None
        };
        (mesh, profile)
    }

    /// Check that a caller-supplied mesh actually is the mesh this
    /// simulation would build: the full key on the distributed paths, the
    /// geometry alone on the serial path (which ignores the decomposition
    /// knobs). The mesh cannot prove which Earth model filled it, so model
    /// identity is the caller's responsibility (the campaign cache
    /// guarantees it by addressing meshes with [`Simulation::mesh_key`]).
    fn check_mesh_compatible(
        &self,
        mesh: &GlobalMesh,
        distributed: bool,
    ) -> Result<(), MeshMismatch> {
        let ours = self.mesh_key();
        let theirs = mesh::MeshKey::new(&mesh.params, self.model.id());
        let (simulation, mesh) = if distributed {
            (ours.fingerprint(), theirs.fingerprint())
        } else {
            (ours.geometry_fingerprint(), theirs.geometry_fingerprint())
        };
        if mesh == simulation {
            return Ok(());
        }
        Err(MeshMismatch {
            distributed,
            mesh,
            simulation,
        })
    }

    /// Run on a single rank (merged mesher+solver, no MPI).
    pub fn run_serial(&self) -> SimulationResult {
        expect_run(self.build_and_run(RunOptions::default()))
    }

    /// [`Simulation::run_serial`] against a prebuilt (typically cached and
    /// shared) mesh. The mesh must match this simulation's geometry; the
    /// decomposition knobs are ignored on the serial path.
    pub fn run_serial_with_mesh(&self, mesh: &GlobalMesh) -> SimulationResult {
        expect_run(self.try_run_with_mesh(mesh, RunOptions::default()))
    }

    /// Run on the full `6 × NPROC_XI²`-rank thread world, charging
    /// communication against `profile`.
    pub fn run_parallel(&self, profile: NetworkProfile) -> SimulationResult {
        expect_run(self.build_and_run(RunOptions {
            profile: Some(profile),
            ..RunOptions::default()
        }))
    }

    /// Fault-tolerant run against a prebuilt mesh with typed errors — the
    /// one-lane case of [`run_group`]. `opts.profile = None` runs the whole
    /// mesh on one in-process rank (the merged serial path, fault plan and
    /// checkpoints honored); `Some(profile)` runs the full thread world.
    /// With `opts.checkpoint_dir` set, ranks checkpoint every
    /// `config.checkpoint_every` steps and `opts.resume` restarts from the
    /// newest complete checkpoint (cold start when none exists). A mesh
    /// that is not this simulation's is [`solver::SolverError::Refused`].
    pub fn try_run_with_mesh(
        &self,
        mesh: &GlobalMesh,
        opts: RunOptions<'_>,
    ) -> Result<SimulationResult, solver::SolverError> {
        self.run_alone(mesh, opts, None)
    }

    fn run_alone(
        &self,
        mesh: &GlobalMesh,
        opts: RunOptions<'_>,
        mesher_profile: Option<obs::RankProfile>,
    ) -> Result<SimulationResult, solver::SolverError> {
        run_group(&[self], mesh, opts, mesher_profile)
            .and_then(|mut lanes| lanes.pop().expect("one lane in, one outcome out"))
            .map_err(|failure| failure.error)
    }

    fn build_and_run(&self, opts: RunOptions<'_>) -> Result<SimulationResult, solver::SolverError> {
        let (mesh, mesher_profile) = self.build_mesh();
        self.run_alone(&mesh, opts, mesher_profile)
    }

    /// Fault-tolerant parallel run: every rank writes a checkpoint to
    /// `checkpoint_dir` each `config.checkpoint_every` steps, honors
    /// `config.recv_timeout`, and injects `config.fault_plan` when set. A
    /// failed rank surfaces as a typed [`solver::SolverError`] instead of a
    /// process-wide panic.
    pub fn run_parallel_checkpointed(
        &self,
        profile: NetworkProfile,
        checkpoint_dir: &std::path::Path,
    ) -> Result<SimulationResult, solver::SolverError> {
        self.build_and_run(RunOptions {
            profile: Some(profile),
            checkpoint_dir: Some(checkpoint_dir),
            ..RunOptions::default()
        })
    }

    /// Resume an interrupted run from the newest *complete* checkpoint in
    /// `checkpoint_dir` (every rank's file present, CRC-valid) and carry it
    /// to `config.nsteps`. The mesh, configuration, and rank count must
    /// match the original run; the resumed run keeps checkpointing and its
    /// seismograms are bit-identical to an uninterrupted run's. With no
    /// checkpoint on disk this is a cold start.
    pub fn resume_from_checkpoint(
        &self,
        profile: NetworkProfile,
        checkpoint_dir: &std::path::Path,
    ) -> Result<SimulationResult, solver::SolverError> {
        self.build_and_run(RunOptions {
            profile: Some(profile),
            checkpoint_dir: Some(checkpoint_dir),
            resume: true,
            ..RunOptions::default()
        })
    }

    /// [`Simulation::resume_from_checkpoint`] at a *different* world size:
    /// the elastic-recovery entry point. The merged checkpoint container is
    /// rank-count independent, so a run checkpointed at `6 × NPROC_XI²`
    /// ranks can be re-admitted on `world` survivors (the campaign
    /// runtime's shrink-to-survive path) or grown onto a larger world.
    pub fn resume_elastic(
        &self,
        profile: NetworkProfile,
        checkpoint_dir: &std::path::Path,
        world: usize,
    ) -> Result<SimulationResult, solver::SolverError> {
        self.build_and_run(RunOptions {
            profile: Some(profile),
            checkpoint_dir: Some(checkpoint_dir),
            resume: true,
            world: Some(world),
            ..RunOptions::default()
        })
    }
}

/// The panicking convenience wrappers' view of a run: any failure aborts.
fn expect_run(run: Result<SimulationResult, solver::SolverError>) -> SimulationResult {
    run.unwrap_or_else(|e| match e {
        solver::SolverError::Refused(why) => panic!("{why}"),
        e => panic!("solver rank failed: {e}"),
    })
}

/// A caller-supplied mesh that is not the mesh a simulation would build
/// (the driver reports it as [`solver::SolverError::Refused`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct MeshMismatch {
    /// Whether the full mesh key (decomposition included) was compared —
    /// the distributed paths — or only the geometry (the serial path).
    distributed: bool,
    /// Fingerprint (full or geometry) of the supplied mesh.
    mesh: u64,
    /// The same fingerprint of the mesh the simulation would build.
    simulation: u64,
}

impl std::fmt::Display for MeshMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            mesh, simulation, ..
        } = self;
        if self.distributed {
            write!(
                f,
                "mesh/simulation mismatch: the supplied mesh was built for different \
                 parameters or decomposition (mesh key {mesh:016x} vs simulation key \
                 {simulation:016x})"
            )
        } else {
            write!(
                f,
                "mesh/simulation mismatch: the supplied mesh has different geometry \
                 (mesh geometry {mesh:016x} vs simulation geometry {simulation:016x})"
            )
        }
    }
}

/// A failed run, or one failed lane of a run whose siblings completed: the
/// typed error plus the crash dossier written for the incident (`None`
/// unless `config.flight_recorder` was armed and a dossier directory was
/// resolvable — see [`RunOptions::dossier_dir`]).
#[derive(Debug)]
pub struct RunFailure {
    /// The incident's primary typed error.
    pub error: solver::SolverError,
    /// Where the incident's crash dossier was written.
    pub dossier: Option<std::path::PathBuf>,
}

/// The run driver, written once for any lane count: run `sims` — one
/// simulation, or up to [`kernels::MAX_BATCH_LANES`] sharing one
/// [`batch::batch_compat_key`] — against a prebuilt `mesh` as the lanes of a
/// single solve. A plain run is the one-lane group
/// ([`Simulation::try_run_with_mesh`]). `opts.profile = None` solves on one
/// in-process rank; `Some(profile)` runs the thread world (the native
/// `6 × NPROC_XI²` decomposition, or `opts.world` balanced slices).
///
/// Returns one entry per input simulation, in order: the lane's
/// [`SimulationResult`] — bit-identical to what the simulation's own
/// one-lane run produces, carrying its own `trace_id` — or the
/// [`solver::SolverError::Health`] that poisoned that lane while its
/// siblings completed. A failure of the solve as a whole (comm error, dead
/// rank, checkpoint store, every lane poisoned, a refused mesh or lane
/// mix) is the outer `Err`, classified from the most specific error any
/// rank reported. Either kind of failure writes exactly one crash dossier
/// when the flight recorder is armed.
///
/// Accounting follows [`solver::LaneResult`]: what the fused loop
/// physically shares (communication and flop counters) is reported on the
/// first healthy lane's `RankResult`s only, so summing telemetry across
/// the returned results never double-counts; wall time, the traced rank
/// profile, `mesher_profile` and the watchdog report describe the whole
/// solve and appear on every lane.
pub fn run_group(
    sims: &[&Simulation],
    mesh: &GlobalMesh,
    opts: RunOptions<'_>,
    mesher_profile: Option<obs::RankProfile>,
) -> Result<Vec<Result<SimulationResult, RunFailure>>, RunFailure> {
    use solver::SolverError;
    use specfem_mesh::LocalMesh;
    use specfem_solver::checkpoint::CheckpointSink;

    let fail = |error: SolverError| RunFailure {
        error,
        dossier: None,
    };
    let refuse = |why: String| fail(SolverError::Refused(why));
    let lead = *sims.first().ok_or_else(|| refuse("empty group".into()))?;
    if sims.len() > kernels::MAX_BATCH_LANES {
        return Err(refuse(format!(
            "group of {} lanes exceeds MAX_BATCH_LANES = {}",
            sims.len(),
            kernels::MAX_BATCH_LANES
        )));
    }
    let lead_key = batch::batch_compat_key(lead);
    for (i, sim) in sims.iter().enumerate() {
        sim.check_mesh_compatible(mesh, opts.profile.is_some())
            .map_err(|m| refuse(m.to_string()))?;
        if sims.len() > 1 && (lead_key.is_none() || batch::batch_compat_key(sim) != lead_key) {
            return Err(refuse(format!(
                "'{}' cannot share one time loop with lane 0: not batchable, or a \
                 different batch-compat key",
                lane_name(sim, i)
            )));
        }
    }
    // The compat key pins every shared knob, so lane 0's config
    // legitimately drives the fused loop.
    let config = &lead.config;
    let lanes: Vec<solver::EventLane> = sims
        .iter()
        .enumerate()
        .map(|(i, sim)| solver::EventLane {
            name: lane_name(sim, i),
            source: sim.config.source.clone(),
            stations: sim.stations.clone(),
        })
        .collect();

    let store = opts
        .checkpoint_dir
        .map(specfem_io::CheckpointStore::new)
        .transpose()
        .map_err(|e| fail(SolverError::Checkpoint(e)))?;
    let sink_factory;
    let restore_fn;
    // Journals deposited by each rank thread (success and failure exits
    // both) — the raw material of a crash dossier.
    let journals: std::sync::Mutex<Vec<obs::FlightJournal>> = std::sync::Mutex::new(Vec::new());
    let deposit = |j: obs::FlightJournal| journals.lock().unwrap().push(j);
    let mut ft = solver::FtOptions::default();
    if config.flight_recorder {
        ft.flight = Some(&deposit);
    }
    if let Some(store) = &store {
        store.set_keep(config.checkpoint_keep);
        if let Some(plan) = &config.fault_plan {
            store.set_fault_plan(plan.clone());
        }
        sink_factory = move |rank: usize| -> Box<dyn CheckpointSink> { store.sink(rank) };
        ft.sink_factory = Some(&sink_factory);
        if opts.resume {
            // The store scatters merged global state onto whatever
            // decomposition this run uses — the checkpoint's writer
            // world size does not have to match ours (elastic resume).
            restore_fn =
                move |rank: usize, local: &LocalMesh| store.restore_latest_for(rank, local);
            ft.restore = Some(&restore_fn);
        }
    }
    let (per_rank, watchdog) = match opts.profile {
        None => (
            vec![specfem_solver::try_run_serial_lanes(
                mesh, config, &lanes, ft, false,
            )],
            None,
        ),
        Some(profile) => {
            let partition = match opts.world {
                // Elastic world override: a balanced contiguous partition
                // works for any rank count, not just the mesher's native
                // 6·NPROC² decomposition.
                Some(world) => Partition::balanced(mesh, world.max(1)),
                None => Partition::compute(mesh),
            };
            specfem_solver::try_run_partitioned_lanes(
                mesh, config, &lanes, profile, ft, &partition, false,
            )
        }
    };
    // The world is joined, so every surviving rank has deposited its
    // journal by now.
    let world = per_rank.len();
    let harvested = std::mem::take(&mut *journals.lock().unwrap());
    // One merged crash dossier per incident — its primary typed failure,
    // with every harvested journal.
    let failure = |error: SolverError, trace_id: Option<obs::TraceId>| {
        let dir = opts
            .dossier_dir
            .or(opts.checkpoint_dir)
            .or(config.trace_dir.as_deref())
            .filter(|_| config.flight_recorder);
        let dossier = dir.and_then(|dir| {
            let incident = classify_incident(&error, world, trace_id);
            match specfem_io::write_crash_dossier(dir, &incident, &harvested) {
                Ok(path) => {
                    obs::global_counter_add("dossier.written", 1);
                    eprintln!("crash dossier written: {}", path.display());
                    Some(path)
                }
                Err(we) => {
                    eprintln!("crash dossier write failed: {we}");
                    None
                }
            }
        });
        RunFailure { error, dossier }
    };

    // Transpose rank-major lane outcomes into one result per lane; a
    // health trip on any rank fails the lane (and only it). One incident
    // can surface differently on each rank: the killed rank sees
    // `RankDead`, its peers see `Disconnected`/`Timeout`. Keep the most
    // *specific* error (rank order breaks ties) — that is the one the
    // crash dossier is classified from.
    let mut primary: Option<SolverError> = None;
    let mut per_lane: Vec<Result<Vec<RankResult>, SolverError>> =
        sims.iter().map(|_| Ok(Vec::new())).collect();
    for rank in per_rank {
        match rank {
            Ok(lane_results) => {
                for (slot, lane) in per_lane.iter_mut().zip(lane_results) {
                    match (slot.as_mut(), lane) {
                        (Ok(ranks), Ok(r)) => ranks.push(r),
                        (Ok(_), Err(report)) => *slot = Err(SolverError::Health(report)),
                        (Err(_), _) => {}
                    }
                }
            }
            Err(e) => {
                if primary.as_ref().is_none_or(|p| e.class() > p.class()) {
                    primary = Some(e);
                }
            }
        }
    }
    if let Some(e) = primary {
        return Err(failure(e, config.trace_id));
    }
    Ok(per_lane
        .into_iter()
        .zip(sims)
        .map(|(ranks, sim)| {
            // Each lane keeps its *own* correlation id — the fused loop
            // shares physics knobs across lanes, but tracing identity
            // stays per-event.
            let trace_id = sim.config.trace_id;
            let mut ranks = ranks.map_err(|e| failure(e, trace_id))?;
            ranks.iter_mut().for_each(|r| r.trace_id = trace_id);
            Ok(SimulationResult::from_ranks(
                ranks,
                mesher_profile.clone(),
                watchdog.clone(),
                &sim.config,
            ))
        })
        .collect())
}

fn lane_name(sim: &Simulation, index: usize) -> String {
    match &sim.config.source {
        SourceSpec::Cmt { event, .. } => event.name.clone(),
        _ => format!("lane-{index}"),
    }
}

/// Map a run's primary typed failure onto the crash-dossier incident
/// record: the class string and whichever rank/step coordinates the error
/// carries, both decided by [`solver::SolverError`] itself.
fn classify_incident(
    e: &solver::SolverError,
    world: usize,
    trace_id: Option<obs::TraceId>,
) -> io::DossierIncident {
    let (rank, step) = e.coordinates();
    io::DossierIncident {
        class: e.class().as_str().to_string(),
        detail: e.to_string(),
        rank: rank.map(|r| r as u64),
        step: step.map(|s| s as u64),
        trace_id: trace_id.map(|t| t.0),
        world: world as u64,
    }
}

/// FNV-1a for [`Simulation::result_key`]. Same constants as the mesh
/// fingerprint hasher; kept separate because the result key hashes a
/// different universe (sources, stations, solver knobs) under its own
/// version salt.
struct ResultFnv(u64);

impl ResultFnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_stf(h: &mut ResultFnv, stf: &SourceTimeFunction) {
    h.u8(match stf.kind {
        StfKind::Gaussian => 0,
        StfKind::Ricker => 1,
        StfKind::SmoothedHeaviside => 2,
    });
    h.f64(stf.half_duration);
    h.f64(stf.t_shift);
}

/// Every answer-affecting [`SolverConfig`] field except the per-event
/// ones (source; the stations live on the [`Simulation`]) — the physics,
/// schedule and time-loop shape that fused event lanes share. The one
/// place both [`Simulation::result_key`] and
/// [`batch::batch_compat_key`] enumerate the config, so a new physics knob
/// is added to both or to neither (the `key_sensitivity` test flips every
/// field). Pure ops knobs stay out: they change how a run is supervised,
/// not what it computes.
fn hash_shared_physics(h: &mut ResultFnv, c: &SolverConfig) {
    // Exhaustive on purpose: a new `SolverConfig` field does not compile
    // until it is classified here as shared physics (hashed below) or as
    // per-event / pure ops (`_`).
    let SolverConfig {
        variant,
        attenuation,
        rotation,
        gravity,
        ocean_load,
        nsteps,
        dt,
        record_every,
        energy_every,
        snapshot_every,
        exact_station_location,
        overlap,
        lts_max_rate,
        lts_all_rate_one,
        source: _,
        checkpoint_every: _,
        checkpoint_keep: _,
        recv_timeout: _,
        fault_plan: _,
        trace: _,
        trace_dir: _,
        metrics_every: _,
        health_every: _,
        watchdog_timeout: _,
        flight_recorder: _,
        flight_buffer_events: _,
        trace_id: _,
    } = c;
    h.u8(match variant {
        KernelVariant::Reference => 0,
        KernelVariant::Simd => 1,
        KernelVariant::BlasStyle => 2,
    });
    for flag in [
        attenuation,
        rotation,
        gravity,
        ocean_load,
        overlap,
        exact_station_location,
        lts_all_rate_one,
    ] {
        h.u8(*flag as u8);
    }
    h.u8(dt.is_some() as u8);
    h.f64(dt.unwrap_or(0.0));
    for n in [
        nsteps,
        record_every,
        energy_every,
        snapshot_every,
        lts_max_rate,
    ] {
        h.u64(*n as u64);
    }
}

fn hash_source(h: &mut ResultFnv, source: &SourceSpec) {
    match source {
        SourceSpec::None => h.u8(0),
        SourceSpec::Cmt { event, stf } => {
            h.u8(1);
            h.u64(event.name.len() as u64);
            h.bytes(event.name.as_bytes());
            h.f64(event.lat_deg);
            h.f64(event.lon_deg);
            h.f64(event.depth_km);
            let t = &event.tensor;
            for m in [t.m_rr, t.m_tt, t.m_pp, t.m_rt, t.m_rp, t.m_tp] {
                h.f64(m);
            }
            h.f64(event.half_duration_s);
            hash_stf(h, stf);
        }
        SourceSpec::PointForce {
            position,
            force,
            stf,
        } => {
            h.u8(2);
            for v in position.iter().chain(force.iter()) {
                h.f64(*v);
            }
            hash_stf(h, stf);
        }
        SourceSpec::Trace {
            position,
            trace,
            trace_dt,
        } => {
            h.u8(3);
            for v in position {
                h.f64(*v);
            }
            h.f64(*trace_dt);
            h.u64(trace.len() as u64);
            for sample in trace {
                for &c in sample {
                    h.f32(c);
                }
            }
        }
    }
}

/// Options for [`run_group`] and its one-lane case,
/// [`Simulation::try_run_with_mesh`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// Network model for a distributed thread-world run; `None` runs the
    /// whole mesh on one in-process rank (the merged serial path).
    pub profile: Option<NetworkProfile>,
    /// Directory for checkpoint files; `None` disables checkpointing.
    pub checkpoint_dir: Option<&'a std::path::Path>,
    /// Restore from the newest complete checkpoint in `checkpoint_dir`
    /// before running (a cold start when the directory is empty).
    pub resume: bool,
    /// Override the distributed world size (elastic resume): partition the
    /// mesh into this many balanced contiguous slices instead of the native
    /// `6 × NPROC_XI²` decomposition. Checkpoints are rank-count
    /// independent, so a run checkpointed at one world size can resume at
    /// another. Ignored on the serial path (`profile = None`); clamped to
    /// at least 1.
    pub world: Option<usize>,
    /// Where a crash dossier lands when the run fails with
    /// `config.flight_recorder` armed. Falls back to `checkpoint_dir`,
    /// then `config.trace_dir`; with none of the three set, harvested
    /// journals are discarded on failure.
    pub dossier_dir: Option<&'a std::path::Path>,
}

/// Builder for [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    nex: usize,
    nproc: usize,
    mode: MeshMode,
    model: ModelChoice,
    config: SolverConfig,
    stations: Vec<Station>,
    event: Option<String>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self {
            nex: 8,
            nproc: 1,
            mode: MeshMode::Global,
            model: ModelChoice::IsotropicPrem,
            config: SolverConfig::default(),
            stations: Vec::new(),
            event: None,
        }
    }
}

impl SimulationBuilder {
    /// Mesh resolution `NEX_XI` (elements per chunk side).
    pub fn resolution(mut self, nex: usize) -> Self {
        self.nex = nex;
        self
    }

    /// `NPROC_XI` (slices per chunk side; 6·NPROC² ranks total).
    pub fn processors(mut self, nproc: usize) -> Self {
        self.nproc = nproc;
        self
    }

    /// Earth model.
    pub fn model(mut self, model: ModelChoice) -> Self {
        self.model = model;
        self
    }

    /// Regional single-chunk simulation from `r_min` (m) to the surface,
    /// with Stacey absorbing boundaries on the artificial faces.
    pub fn regional(mut self, r_min: f64) -> Self {
        self.mode = MeshMode::Regional { r_min };
        self
    }

    /// Number of time steps.
    pub fn steps(mut self, nsteps: usize) -> Self {
        self.config.nsteps = nsteps;
        self
    }

    /// Enable attenuation (anelastic run).
    pub fn attenuation(mut self, on: bool) -> Self {
        self.config.attenuation = on;
        self
    }

    /// Enable rotation (Coriolis).
    pub fn rotation(mut self, on: bool) -> Self {
        self.config.rotation = on;
        self
    }

    /// Enable Cowling-approximation self-gravitation.
    pub fn gravity(mut self, on: bool) -> Self {
        self.config.gravity = on;
        self
    }

    /// Enable the equivalent ocean load on the free surface.
    pub fn ocean_load(mut self, on: bool) -> Self {
        self.config.ocean_load = on;
        self
    }

    /// Kernel variant (§4.3 ablation).
    pub fn kernel(mut self, variant: KernelVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Overlap halo communication with inner-element computation
    /// (`Par_file` key `OVERLAP_COMM`). On by default; the blocking path is
    /// the bit-identical oracle for the differential harness.
    pub fn overlap(mut self, on: bool) -> Self {
        self.config.overlap = on;
        self
    }

    /// Use a built-in catalogue event by name.
    pub fn catalogue_event(mut self, name: &str) -> Self {
        self.event = Some(name.to_string());
        self
    }

    /// Explicit source.
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.config.source = source;
        self.event = None;
        self
    }

    /// Record at `n` worldwide stations (Fibonacci network).
    pub fn stations(mut self, n: usize) -> Self {
        self.stations = global_network(n);
        self
    }

    /// Record at explicit stations.
    pub fn station_list(mut self, stations: Vec<Station>) -> Self {
        self.stations = stations;
        self
    }

    /// Energy diagnostics cadence (0 = off).
    pub fn energy_every(mut self, every: usize) -> Self {
        self.config.energy_every = every;
        self
    }

    /// Record span traces and metrics on every rank (paper §5
    /// instrumentation). Off by default; disabled runs pay one relaxed
    /// atomic load per would-be span.
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Enable tracing *and* write the artifacts (Perfetto trace, IPM
    /// report) into `dir` when the run finishes.
    pub fn trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.trace = true;
        self.config.trace_dir = Some(dir.into());
        self
    }

    /// Step-timing sample cadence while tracing (0 = no step sampling).
    pub fn metrics_every(mut self, every: usize) -> Self {
        self.config.metrics_every = every;
        self
    }

    /// Numerical-health sampling cadence (`Par_file` key `HEALTH_EVERY`;
    /// 0 = off, the default): every `every` steps each rank scans its wave
    /// fields for NaN/Inf and sustained exponential growth and aborts the
    /// run with a structured [`obs::HealthReport`] on a trip. Disabled, the
    /// fields are never read, so output is bit-identical to a monitor-free
    /// build.
    pub fn health_every(mut self, every: usize) -> Self {
        self.config.health_every = every;
        self
    }

    /// Checkpoint generations retained on disk (`Par_file` key
    /// `CHECKPOINT_KEEP`, default 2, clamped to at least 1). Older merged
    /// containers are pruned after each successful write; keeping more than
    /// one generation is what lets resume fall back past a corrupt latest
    /// artifact.
    pub fn checkpoint_keep(mut self, keep: usize) -> Self {
        self.config.checkpoint_keep = keep.max(1);
        self
    }

    /// Clustered local-time-stepping rate cap (`Par_file` key
    /// `LTS_MAX_RATE`, default 1 = off): elements whose Courant-permitted
    /// `dt` allows it refresh their force contributions only every
    /// `2^k ≤ cap` fine steps. Validated at [`SimulationBuilder::build`]:
    /// the cap must be a power of two no larger than
    /// [`specfem_mesh::lts::MAX_LTS_RATE`], and any checkpoint cadence
    /// must be a multiple of it (checkpoints land on full cycles only).
    pub fn lts_max_rate(mut self, rate: usize) -> Self {
        self.config.lts_max_rate = rate;
        self
    }

    /// Arm the straggler watchdog on distributed runs (`Par_file` key
    /// `WATCHDOG_TIMEOUT_MS`; off by default): a monitor thread flags any
    /// rank whose step heartbeat ages past `timeout`, publishes skew
    /// gauges, and escalates a genuine stall to
    /// [`comm::CommError::Stalled`] instead of letting the world hang.
    pub fn watchdog_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.config.watchdog_timeout = Some(timeout);
        self
    }

    /// Arm the per-rank flight recorder (`Par_file` key `FLIGHT_RECORDER`;
    /// off by default): each rank keeps a fixed-size ring journal of
    /// recent span/comm/health/checkpoint events, and a failed run writes
    /// the surviving ranks' journals into one merged SFCN crash dossier
    /// (see [`RunOptions::dossier_dir`]). Purely observational — armed or
    /// not, seismograms and checkpoints are bit-identical
    /// (`tests/flight_recorder.rs`).
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.config.flight_recorder = on;
        self
    }

    /// Per-rank flight-journal capacity in events (`Par_file` key
    /// `FLIGHT_BUFFER_EVENTS`, default 1024, clamped to at least 16 when
    /// armed).
    pub fn flight_buffer_events(mut self, events: usize) -> Self {
        self.config.flight_buffer_events = events;
        self
    }

    /// Full solver-config access for options without a dedicated method.
    pub fn configure(mut self, f: impl FnOnce(&mut SolverConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validate and build. Rejections are typed ([`BuildError`]) so
    /// schedulers and retry logic can match on the cause.
    pub fn build(mut self) -> Result<Simulation, BuildError> {
        if self.nex < 2 {
            return Err(BuildError::ResolutionTooLow { nex: self.nex });
        }
        if self.nproc == 0 || !self.nex.is_multiple_of(self.nproc) {
            return Err(BuildError::IndivisibleDecomposition {
                nex: self.nex,
                nproc: self.nproc,
            });
        }
        if specfem_mesh::lts::validate_max_rate(self.config.lts_max_rate).is_err() {
            return Err(BuildError::InvalidLtsRate {
                rate: self.config.lts_max_rate,
            });
        }
        if self.config.checkpoint_every > 0
            && !self
                .config
                .checkpoint_every
                .is_multiple_of(self.config.lts_max_rate)
        {
            return Err(BuildError::LtsMisalignedCheckpoint {
                checkpoint_every: self.config.checkpoint_every,
                lts_max_rate: self.config.lts_max_rate,
            });
        }
        if let Some(name) = &self.event {
            let event = builtin_events()
                .into_iter()
                .find(|e| e.name == *name)
                .ok_or_else(|| BuildError::UnknownEvent { name: name.clone() })?;
            let period = specfem_mesh::nominal_shortest_period_s(self.nex);
            let stf =
                SourceTimeFunction::new(StfKind::Gaussian, event.half_duration_s.max(period / 4.0));
            self.config.source = SourceSpec::Cmt { event, stf };
        }
        let mut params = MeshParams::new(self.nex, self.nproc);
        if let MeshMode::Regional { r_min } = self.mode {
            if r_min < specfem_model::CMB_RADIUS_M {
                return Err(BuildError::RegionalBelowCmb { r_min_m: r_min });
            }
            params.mode = self.mode;
        }
        Ok(Simulation {
            params,
            model: self.model,
            config: self.config,
            stations: self.stations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_inputs() {
        assert!(Simulation::builder().resolution(1).build().is_err());
        assert!(Simulation::builder()
            .resolution(10)
            .processors(4)
            .build()
            .is_err());
        assert!(Simulation::builder()
            .catalogue_event("no_such_event")
            .build()
            .is_err());
        let sim = Simulation::builder()
            .resolution(8)
            .processors(2)
            .catalogue_event("argentina_deep")
            .stations(5)
            .build()
            .unwrap();
        assert_eq!(sim.params.num_ranks(), 24);
        assert_eq!(sim.stations.len(), 5);
        assert!(matches!(sim.config.source, SourceSpec::Cmt { .. }));
    }

    #[test]
    fn builder_validates_lts_rate_and_checkpoint_alignment() {
        // Non-power-of-two cap: a typed rejection, not a clamp.
        assert!(matches!(
            Simulation::builder().resolution(4).lts_max_rate(3).build(),
            Err(BuildError::InvalidLtsRate { rate: 3 })
        ));
        assert!(matches!(
            Simulation::builder().resolution(4).lts_max_rate(0).build(),
            Err(BuildError::InvalidLtsRate { rate: 0 })
        ));
        // Checkpoint cadence must land on full LTS cycles.
        let misaligned = Simulation::builder()
            .resolution(4)
            .lts_max_rate(4)
            .configure(|c| c.checkpoint_every = 6)
            .build();
        assert!(matches!(
            misaligned,
            Err(BuildError::LtsMisalignedCheckpoint {
                checkpoint_every: 6,
                lts_max_rate: 4,
            })
        ));
        let aligned = Simulation::builder()
            .resolution(4)
            .lts_max_rate(4)
            .configure(|c| c.checkpoint_every = 8)
            .build()
            .unwrap();
        assert_eq!(aligned.config.lts_max_rate, 4);
        assert_eq!(aligned.config.checkpoint_every, 8);
    }

    #[test]
    fn tiny_serial_simulation_end_to_end() {
        let sim = Simulation::builder()
            .resolution(4)
            .steps(10)
            .stations(2)
            .build()
            .unwrap();
        let result = sim.run_serial();
        assert_eq!(result.seismograms.len(), 2);
        assert_eq!(result.ranks.len(), 1);
        assert!(result.total_flops() > 0);
        assert!(result.dt > 0.0);
    }

    #[test]
    fn result_aggregations() {
        let sim = Simulation::builder()
            .resolution(4)
            .steps(5)
            .build()
            .unwrap();
        let r = sim.run_serial();
        assert!(r.total_flop_rate() > 0.0);
        assert!(r.total_core_seconds() > 0.0);
        assert!(r.mean_comm_fraction() >= 0.0);
    }

    fn keyed_sim() -> SimulationBuilder {
        Simulation::builder()
            .resolution(8)
            .steps(20)
            .catalogue_event("argentina_deep")
            .stations(3)
    }

    #[test]
    fn result_key_is_stable_and_answer_sensitive() {
        let base = keyed_sim().build().unwrap().result_key();
        // Deterministic: rebuilding the same simulation re-derives it.
        assert_eq!(base, keyed_sim().build().unwrap().result_key());

        // Anything that changes the seismograms changes the key.
        let variants = [
            keyed_sim().resolution(16).build().unwrap(),
            keyed_sim().steps(21).build().unwrap(),
            keyed_sim().stations(4).build().unwrap(),
            keyed_sim()
                .catalogue_event("sumatra_thrust")
                .build()
                .unwrap(),
            keyed_sim().model(ModelChoice::Prem).build().unwrap(),
            keyed_sim().kernel(KernelVariant::Simd).build().unwrap(),
            keyed_sim().attenuation(true).build().unwrap(),
            keyed_sim()
                .configure(|c| c.record_every = 2)
                .build()
                .unwrap(),
        ];
        let mut keys: Vec<u64> = variants.iter().map(|s| s.result_key().0).collect();
        keys.push(base.0);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "result keys collided");
    }

    /// The serial comparison is geometry-only, the distributed one the
    /// full key; a wrong mesh is a typed refusal for any lane count.
    #[test]
    fn wrong_mesh_is_refused_for_any_lane_count() {
        use solver::SolverError;
        let small = || keyed_sim().resolution(4).steps(3);
        let sim = small().build().unwrap();
        let mate = small().catalogue_event("sumatra_thrust").build().unwrap();
        let (own, _) = sim.build_mesh();
        let (other_geometry, _) = small().resolution(6).build().unwrap().build_mesh();
        let (other_decomposition, _) = small().processors(2).build().unwrap().build_mesh();

        assert_eq!(sim.check_mesh_compatible(&own, true), Ok(()));
        assert_eq!(
            sim.check_mesh_compatible(&other_decomposition, false),
            Ok(())
        );
        let m = sim
            .check_mesh_compatible(&other_decomposition, true)
            .unwrap_err();
        assert!(m.distributed && m.mesh != m.simulation, "{m:?}");
        let m = sim
            .check_mesh_compatible(&other_geometry, false)
            .unwrap_err();
        assert!(!m.distributed && m.mesh != m.simulation, "{m:?}");

        let distributed = || RunOptions {
            profile: Some(NetworkProfile::loopback()),
            ..RunOptions::default()
        };
        for group in [vec![&sim], vec![&sim, &mate]] {
            let refused = |mesh: &GlobalMesh, opts: RunOptions<'_>, what: &str| match run_group(
                &group, mesh, opts, None,
            ) {
                Err(RunFailure {
                    error: SolverError::Refused(why),
                    dossier: None,
                }) => assert!(why.contains(what), "{why}"),
                other => panic!("expected a refusal, got {other:?}"),
            };
            refused(&other_geometry, RunOptions::default(), "different geometry");
            refused(&other_geometry, distributed(), "decomposition");
            refused(&other_decomposition, distributed(), "decomposition");
            // The serial path ignores the decomposition knobs.
            let lanes = run_group(&group, &other_decomposition, RunOptions::default(), None)
                .expect("same geometry runs serially");
            assert!(lanes.iter().all(|lane| lane.is_ok()));
        }
        assert!(matches!(
            sim.try_run_with_mesh(&other_geometry, RunOptions::default()),
            Err(SolverError::Refused(_))
        ));
    }

    #[test]
    #[should_panic(expected = "mesh/simulation mismatch: the supplied mesh has different geometry")]
    fn panicking_wrappers_keep_the_mismatch_message() {
        let sim = keyed_sim().resolution(4).build().unwrap();
        let (other, _) = keyed_sim().resolution(6).build().unwrap().build_mesh();
        sim.run_serial_with_mesh(&other);
    }

    /// Flip every `SolverConfig` field and pin which key must move.
    #[test]
    fn key_sensitivity() {
        use std::time::Duration;
        type Flip = fn(&mut SolverConfig);
        let base = keyed_sim().build().unwrap();
        let (result0, compat0) = (base.result_key(), batch::batch_compat_key(&base));
        assert!(compat0.is_some());
        let keys_of = |sim: &Simulation| (sim.result_key(), batch::batch_compat_key(sim));
        let keys = |flip: Flip| {
            let mut sim = base.clone();
            flip(&mut sim.config);
            keys_of(&sim)
        };
        // Shared physics: the answer changes and fused lanes must agree on
        // it (a refused configuration has no compat key at all).
        let physics: [(&str, Flip); 14] = [
            ("variant", |c| c.variant = KernelVariant::Simd),
            ("attenuation", |c| c.attenuation = true),
            ("rotation", |c| c.rotation = true),
            ("gravity", |c| c.gravity = true),
            ("ocean_load", |c| c.ocean_load = true),
            ("overlap", |c| c.overlap = false),
            ("nsteps", |c| c.nsteps += 1),
            ("dt", |c| c.dt = Some(0.05)),
            ("record_every", |c| c.record_every = 2),
            ("energy_every", |c| c.energy_every = 5),
            ("snapshot_every", |c| c.snapshot_every = 5),
            ("exact_station_location", |c| {
                c.exact_station_location = true
            }),
            ("lts_max_rate", |c| c.lts_max_rate = 2),
            ("lts_all_rate_one", |c| c.lts_all_rate_one = true),
        ];
        for (name, flip) in physics {
            let (result, compat) = keys(flip);
            assert_ne!(result, result0, "{name} must change the result key");
            assert_ne!(compat, compat0, "{name} must split fused batches");
        }
        // Per-lane degrees of freedom: a different answer, the same loop.
        let mut fewer_stations = base.clone();
        fewer_stations.stations.truncate(1);
        for (name, (result, compat)) in [
            ("source", keys(|c| c.source = SourceSpec::None)),
            ("stations", keys_of(&fewer_stations)),
        ] {
            assert_ne!(result, result0, "{name} must change the result key");
            assert_eq!(compat, compat0, "{name} is what lanes vary");
        }
        // Pure ops: never the answer. `true` = supervision the fused loop
        // takes from lane 0, so it must split batches instead.
        let ops: [(&str, bool, Flip); 12] = [
            ("checkpoint_every", true, |c| c.checkpoint_every = 5),
            ("checkpoint_keep", false, |c| c.checkpoint_keep = 7),
            ("recv_timeout", true, |c| c.recv_timeout = None),
            ("fault_plan", true, |c| {
                c.fault_plan = Some(Default::default())
            }),
            ("trace", true, |c| c.trace = true),
            ("trace_dir", false, |c| c.trace_dir = Some("x".into())),
            ("metrics_every", true, |c| c.metrics_every = 3),
            ("health_every", true, |c| c.health_every = 2),
            ("watchdog_timeout", true, |c| {
                c.watchdog_timeout = Some(Duration::from_secs(1))
            }),
            ("flight_recorder", true, |c| c.flight_recorder = true),
            ("flight_buffer_events", true, |c| {
                c.flight_buffer_events = 64
            }),
            ("trace_id", false, |c| c.trace_id = Some(obs::TraceId(9))),
        ];
        for (name, splits, flip) in ops {
            let (result, compat) = keys(flip);
            assert_eq!(result, result0, "{name} must not change the result key");
            assert_eq!(compat != compat0, splits, "{name} vs the compat key");
        }
    }

    #[test]
    fn result_key_ignores_ops_knobs() {
        let base = keyed_sim().build().unwrap().result_key();
        // Deadlines, checkpoint cadence, and telemetry change how a run is
        // supervised, not what it computes — a request with a different
        // deadline must still hit the cache.
        let ops = keyed_sim()
            .watchdog_timeout(std::time::Duration::from_millis(123))
            .flight_recorder(true)
            .flight_buffer_events(64)
            .configure(|c| {
                c.checkpoint_every = 5;
                c.trace = true;
                c.metrics_every = 1;
                c.health_every = 2;
                c.trace_id = Some(obs::TraceId(0xdead_beef));
            })
            .build()
            .unwrap();
        assert_eq!(base, ops.result_key());
        // Decomposition doesn't change the answer either.
        let wide = keyed_sim().processors(2).build().unwrap();
        assert_eq!(base, wide.result_key());
    }
}
