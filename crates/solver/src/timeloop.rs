//! The time-marching driver: Newmark predictor, fluid solve, fluid→solid
//! coupling, solid solve, halo assembly, correctors — the "main loop of the
//! solver component" whose communication share the paper measures at
//! 1.9–4.2 % (§5).
//!
//! This is the only time loop in the workspace: halo schedule, local time
//! stepping and the number of fused event lanes are data to it, not
//! sibling loops (DESIGN.md, "The step pipeline").

use std::fmt;
use std::ops::Range;
use std::time::Instant;

use specfem_comm::{
    finish_halo_assembly, post_halo_exchange, tags, CommError, Communicator, FaultyComm,
    NetworkProfile, SerialComm, StatsSnapshot, ThreadWorld,
};
use specfem_kernels::{DerivOps, FlopCounter, MAX_BATCH_LANES, NGLL};
use specfem_mesh::stations::Station;
use specfem_mesh::{GlobalMesh, LocalMesh, Partition};
use specfem_obs::{HealthMonitor, HealthReport};

use crate::absorbing::AbsorbingSurface;
use crate::assemble::{region_masks, MassMatrices, PrecomputedGeometry, WaveFields};
use crate::checkpoint::{CheckpointError, CheckpointSink, CheckpointState};
use crate::coupling::CouplingSurface;
use crate::forces::{
    compute_fluid_contribs, compute_fluid_forces_range, compute_solid_contribs,
    compute_solid_forces_range, AttenuationState,
};
use crate::forces_batched::{
    compute_fluid_forces_batched, compute_solid_forces_batched, BatchScratch,
};
use crate::lts::{scatter, LtsState, LtsSummary};
use crate::source::{EventLane, ReceiverSet, Seismogram, SourceArrays};
use crate::{SolverConfig, EARTH_OMEGA_RAD_S};

/// Why a rank's run failed.
#[derive(Debug, Clone)]
pub enum SolverError {
    /// A communication operation failed (timeout, dead peer, injected
    /// fault, …).
    Comm(CommError),
    /// Checkpoint capture, storage, or restore failed.
    Checkpoint(CheckpointError),
    /// The numerical-health monitor tripped (NaN/Inf or sustained
    /// exponential growth in a wave field); the report names rank, step,
    /// field, and element so the operator knows where the blow-up started.
    Health(specfem_obs::HealthReport),
    /// The rank's thread panicked.
    RankPanicked {
        /// The rank that died.
        rank: usize,
        /// Best-effort panic message.
        message: String,
    },
    /// The run was refused before any rank started: the supplied mesh is
    /// not the one the simulation describes, or the lanes of a group
    /// cannot share one time loop. Deterministic — the same call fails
    /// the same way again.
    Refused(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Comm(e) => write!(f, "communication failure: {e}"),
            SolverError::Checkpoint(e) => write!(f, "{e}"),
            SolverError::Health(r) => write!(f, "{r}"),
            SolverError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SolverError::Refused(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// The kind of incident a [`SolverError`] reports. The names are the crash
/// dossier's class strings (part of its schema — CI validates them); the
/// order is salience, how precisely an error pins down the incident. One
/// failure fans out across a world as different errors per rank — the
/// killed rank's `RankDead` beats its peers' secondary
/// `Disconnected`/`Timeout` noise — and the greatest class names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// Raised by the driver before any rank starts, never by a rank.
    Refused,
    /// A communication failure that names no culprit.
    Comm,
    /// The checkpoint store failed.
    Artifact,
    /// The watchdog flagged a straggler.
    Stall,
    /// A rank was killed or panicked.
    RankDead,
    /// The numerical-health monitor tripped.
    Health,
}

impl FailureClass {
    /// The class string a crash dossier carries.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Refused => "refused",
            Self::Comm => "comm",
            Self::Artifact => "artifact",
            Self::Stall => "stall",
            Self::RankDead => "rank_dead",
            Self::Health => "health",
        }
    }
}

impl SolverError {
    /// What kind of failure this is — the only place that decides:
    /// `(class, rank, step, peer lost)`.
    fn classify(&self) -> (FailureClass, Option<usize>, Option<usize>, bool) {
        use FailureClass as C;
        match self {
            Self::Health(r) => (C::Health, Some(r.rank), Some(r.step), false),
            Self::Comm(CommError::RankDead { rank, step }) => {
                (C::RankDead, Some(*rank), Some(*step), true)
            }
            Self::RankPanicked { rank, .. } => (C::RankDead, Some(*rank), None, true),
            Self::Comm(CommError::Stalled { rank, .. }) => (C::Stall, Some(*rank), None, true),
            Self::Checkpoint(_) => (C::Artifact, None, None, false),
            Self::Comm(CommError::Disconnected { .. } | CommError::Timeout { .. }) => {
                (C::Comm, None, None, true)
            }
            Self::Comm(_) => (C::Comm, None, None, false),
            Self::Refused(_) => (C::Refused, None, None, false),
        }
    }

    /// The incident class; compare classes to pick the most salient of
    /// several ranks' errors.
    pub fn class(&self) -> FailureClass {
        self.classify().0
    }

    /// The `(rank, step)` the error pins the incident to, as far as it
    /// carries them.
    pub fn coordinates(&self) -> (Option<usize>, Option<usize>) {
        let (_, rank, step, _) = self.classify();
        (rank, step)
    }

    /// Whether a peer died or wedged — the kind of failure elastic
    /// recovery routes around by re-admitting the survivors on a smaller
    /// world. A dead peer presents to survivors as `RankDead`, `Stalled`,
    /// `Disconnected`, or — when the receive deadline fires before the dead
    /// rank's channel drops — a plain `Timeout`; from the receiver's seat
    /// those are the same event. Health trips, protocol corruption, and
    /// checkpoint-store failures would fail on any world size.
    pub fn peer_lost(&self) -> bool {
        self.classify().3
    }
}

impl From<CommError> for SolverError {
    fn from(e: CommError) -> Self {
        SolverError::Comm(e)
    }
}

impl From<specfem_obs::HealthReport> for SolverError {
    fn from(r: specfem_obs::HealthReport) -> Self {
        SolverError::Health(r)
    }
}

impl From<CheckpointError> for SolverError {
    fn from(e: CheckpointError) -> Self {
        SolverError::Checkpoint(e)
    }
}

/// Everything one rank returns from a run, for one event lane.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// Rank id.
    pub rank: usize,
    /// Seismograms recorded on this rank.
    pub seismograms: Vec<Seismogram>,
    /// `(step, kinetic, potential)` energy samples (global, identical on
    /// all ranks).
    pub energy: Vec<(usize, f64, f64)>,
    /// Wall-clock seconds of the main loop.
    pub elapsed_s: f64,
    /// Communication statistics of the main loop (IPM analog).
    pub comm: StatsSnapshot,
    /// Total flops executed by this rank's kernels.
    pub flops: u64,
    /// Time step used (s).
    pub dt: f64,
    /// Steps taken.
    pub nsteps: usize,
    /// Local elements / points.
    pub nspec: usize,
    pub nglob: usize,
    /// Worst station location error on this rank (m).
    pub station_error_m: f64,
    /// Displacement snapshots (when `snapshot_every > 0`).
    pub snapshots: Option<crate::adjoint::WavefieldSnapshots>,
    /// Span trace and metrics captured on this rank's thread
    /// (`Some` only when `config.trace` enabled the recorder).
    pub profile: Option<specfem_obs::RankProfile>,
    /// Clustered local-time-stepping telemetry (`Some` only when LTS ran:
    /// `lts_max_rate > 1` or the rate-1 oracle hook).
    pub lts: Option<LtsSummary>,
    /// Correlation id of the request/job this run executed for, echoed
    /// from `config.trace_id` so result consumers can stitch the rank
    /// into an end-to-end timeline.
    pub trace_id: Option<specfem_obs::TraceId>,
    /// The lane's final wavefield and records (only when the run was asked
    /// to capture it — the differential oracles compare these).
    pub final_state: Option<CheckpointState>,
}

impl RankResult {
    /// Fraction of the main loop spent communicating (wall basis).
    pub fn comm_fraction(&self) -> f64 {
        self.comm.wall_time_s / self.elapsed_s.max(1e-12)
    }
}

/// One lane's outcome on one rank: its result, or the health report that
/// poisoned it while its siblings completed.
///
/// What the fused loop physically shares — communication statistics,
/// flops, energy/snapshot series, LTS telemetry — is reported once, on
/// the first healthy lane (lane 0 of a healthy run); the other lanes
/// carry empty counters, so summing telemetry over lanes never
/// double-counts. Wall time and the rank's span profile describe the
/// whole fused solve and are reported on every lane.
pub type LaneResult = Result<RankResult, HealthReport>;

/// The lane-scoped half of the solver state.
struct Lane {
    source: SourceArrays,
    apply_source: bool,
    receivers: ReceiverSet,
    /// Numerical-health monitor (disabled when `config.health_every == 0`;
    /// the disabled path never touches the fields).
    health: HealthMonitor,
    /// The trip that poisoned this lane. Lanes never mix numerically, so
    /// a NaN stays in its own lane and the siblings keep marching.
    tripped: Option<HealthReport>,
}

/// Which of the two force phases of a step is running.
#[derive(Clone, Copy)]
enum Medium {
    Fluid,
    Solid,
}

/// One rank's solver state.
pub struct RankSolver {
    /// The rank's mesh slice.
    pub mesh: LocalMesh,
    config: SolverConfig,
    geom: PrecomputedGeometry,
    ops: DerivOps,
    mass: MassMatrices,
    /// The wave fields (public for tests and custom initial conditions).
    pub fields: WaveFields,
    coupling: CouplingSurface,
    absorbing: AbsorbingSurface,
    /// Ocean-load table: `(point, M/(M+M_ocean), outward normal)` for every
    /// free-surface point when the ocean load is on.
    ocean: Vec<(u32, f32, [f32; 3])>,
    atten: Option<AttenuationState>,
    /// Clustered local-time-stepping state (`None` runs every element
    /// every step).
    lts: Option<LtsState>,
    /// Per-lane source, receivers and health monitor (one lane for a
    /// plain run).
    lanes: Vec<Lane>,
    /// Heap scratch of the batched element kernels (`Some` iff `k > 1`;
    /// the single-lane kernels work on stack arrays).
    scratch: Option<BatchScratch>,
    owned: Vec<bool>,
    /// Time step (s).
    pub dt: f64,
    flops: FlopCounter,
    energy: Vec<(usize, f64, f64)>,
    snapshots: Vec<Vec<f32>>,
    /// First step the time loop executes (nonzero after a checkpoint
    /// restore).
    start_step: usize,
}

/// Unwrap a setup-phase collective: failures before the first step are
/// fatal (there is no earlier checkpoint to fall back to).
fn setup<T>(r: Result<T, CommError>) -> T {
    r.unwrap_or_else(|e| panic!("collective failed during solver setup: {e}"))
}

/// Whether this rank wins a best-fit election: the lowest rank whose
/// `cost` ties the global minimum (collective call).
fn elected(comm: &mut dyn Communicator, cost: f64) -> bool {
    let best = setup(comm.allreduce_min(cost));
    let mine = if (cost - best).abs() <= 1e-9 * best.max(1.0) {
        comm.rank() as f64
    } else {
        f64::INFINITY
    };
    let winner = setup(comm.allreduce_min(mine));
    best.is_finite() && winner == comm.rank() as f64
}

/// Map a health trip's flat field index back to the local element holding
/// the offending grid point. Vector fields (`displ`, `veloc`) interleave
/// `[x, y, z]` per point; the fluid potentials are scalar. The
/// O(nspec·NGLL³) `ibool` scan only runs on the (fatal) trip path.
fn attribute_element(mesh: &LocalMesh, field: &str, point: usize) -> Option<usize> {
    let pid = if matches!(field, "chi" | "chi_dot" | "chi_ddot") {
        point
    } else {
        point / 3
    } as u32;
    let npe = mesh.points_per_element();
    mesh.ibool.chunks(npe).position(|elem| elem.contains(&pid))
}

/// Can the step pipeline run `config` with `k` event lanes? One lane runs
/// everything. More lanes share the mesh, the physics and the schedule;
/// the only configurations refused are those that need per-lane *data*
/// the lane-major fields do not carry yet — each refusal names it.
pub fn lanes_supported(config: &SolverConfig, k: usize) -> Result<(), String> {
    if !(1..=MAX_BATCH_LANES).contains(&k) {
        return Err(format!("lane count {k} out of 1..={MAX_BATCH_LANES}"));
    }
    let missing = if k == 1 {
        None
    } else if config.attenuation {
        Some("attenuation needs per-lane SLS memory variables")
    } else if config.lts_max_rate > 1 || config.lts_all_rate_one {
        Some("local time stepping needs per-lane frozen force contributions")
    } else if config.checkpoint_every > 0 {
        Some("mid-run checkpoints need a per-lane field container")
    } else if config.energy_every > 0 {
        Some("energy diagnostics need a per-lane energy series")
    } else if config.snapshot_every > 0 {
        Some("wavefield snapshots need a per-lane snapshot series")
    } else {
        None
    };
    match missing {
        Some(what) => Err(format!("{k} fused lanes: {what}")),
        None => Ok(()),
    }
}

impl RankSolver {
    /// Set up one rank for a plain single-event run: the lane is
    /// `config.source` recorded at `stations` (collective call).
    pub fn new(
        mesh: LocalMesh,
        config: &SolverConfig,
        stations: &[Station],
        comm: &mut dyn Communicator,
    ) -> Self {
        Self::with_lanes(mesh, config, &[single_lane(config, stations)], comm)
    }

    /// Set up one rank for `lanes.len()` event lanes sharing the mesh:
    /// metric terms, assembled mass matrices, coupling surface once; source
    /// and receiver location per lane, in lane order, with the same
    /// ownership collectives for any lane count — so every rank agrees on
    /// who applies which lane's source and records which lane's stations
    /// (collective call). `config.source` is ignored in favour of the
    /// lanes' own sources.
    ///
    /// Panics on a lane count or configuration [`lanes_supported`] refuses —
    /// callers that fuse jobs screen with it first, so hitting one here is
    /// a driver bug.
    pub fn with_lanes(
        mesh: LocalMesh,
        config: &SolverConfig,
        lanes: &[EventLane],
        comm: &mut dyn Communicator,
    ) -> Self {
        let _span = specfem_obs::span("solver.setup");
        let k = lanes.len();
        lanes_supported(config, k).unwrap_or_else(|e| panic!("unsupported lane setup: {e}"));
        // The one degree guard of the force kernels (solid and fluid, any
        // lane count): they index 125-point element blocks unchecked.
        assert_eq!(
            mesh.basis.degree + 1,
            NGLL,
            "solver kernels are specialized to degree 4; the mesh has degree {}",
            mesh.basis.degree
        );
        let gravity_profile = if config.gravity {
            Some(specfem_model::GravityProfile::new(
                &specfem_model::Prem::isotropic_no_ocean(),
                256,
            ))
        } else {
            None
        };
        let geom = PrecomputedGeometry::compute(&mesh, gravity_profile.as_ref());
        let ops = DerivOps::from_basis(&mesh.basis);
        // Setup-phase comm failures are fatal: there is no earlier state to
        // fall back to, so a clear panic beats a half-built solver.
        let mass = MassMatrices::build(&mesh, &geom, comm)
            .unwrap_or_else(|e| panic!("mass-matrix assembly failed: {e}"));
        let coupling = CouplingSurface::build(&mesh);
        // Artificial-boundary faces (regional meshes; empty for the globe).
        let absorbing = AbsorbingSurface::build(&mesh, specfem_model::EARTH_RADIUS_M);

        // Ocean load (§3): extra water-column mass on the normal component
        // of free-surface motion. Assemble the extra mass across ranks so
        // shared edge points agree, then precompute M/(M+M_o).
        let ocean = if config.ocean_load {
            const RHO_WATER: f32 = 1020.0;
            const OCEAN_DEPTH_M: f32 = 3000.0;
            let all_faces = AbsorbingSurface::build_including_free_surface(&mesh);
            let mut extra = vec![0.0f32; mesh.nglob];
            let mut normals = vec![[0.0f32; 3]; mesh.nglob];
            for ap in &all_faces.points {
                let p = ap.point as usize;
                let c = mesh.coords[p];
                let r = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
                if (r - specfem_model::EARTH_RADIUS_M).abs() < 1.0 {
                    extra[p] += RHO_WATER * OCEAN_DEPTH_M * ap.weight;
                    normals[p] = ap.normal;
                }
            }
            specfem_comm::assemble_halo(
                comm,
                &mesh.halo,
                &mut extra,
                1,
                specfem_comm::tags::HALO_SOLID,
            )
            .unwrap_or_else(|e| panic!("ocean-load assembly failed: {e}"));
            extra
                .iter()
                .enumerate()
                .filter(|(_, &m)| m > 0.0)
                .map(|(p, &mo)| {
                    let m = mass.solid[p];
                    (p as u32, m / (m + mo), normals[p])
                })
                .collect()
        } else {
            Vec::new()
        };

        // Collective dt: local Courant bound, reduced over ranks.
        let quality = mesh.quality();
        let dt = match config.dt {
            Some(dt) => dt,
            None => setup(comm.allreduce_min(quality.dt_stable_s)),
        };

        // Attenuation band centred on what the mesh resolves.
        let atten_period = if config.attenuation {
            Some(setup(comm.allreduce_max(quality.shortest_period_s)))
        } else {
            None
        };
        let atten = atten_period.map(|period| AttenuationState::new(&mesh, dt, period));

        // Clustered LTS: off at the default cap of 1 unless the rate-1
        // differential-oracle hook forces the machinery on.
        let lts = if config.lts_max_rate > 1 || config.lts_all_rate_one {
            specfem_mesh::lts::validate_max_rate(config.lts_max_rate)
                .unwrap_or_else(|e| panic!("{e}"));
            if config.checkpoint_every > 0
                && !config.checkpoint_every.is_multiple_of(config.lts_max_rate)
            {
                panic!(
                    "CHECKPOINT_EVERY ({}) must be a multiple of LTS_MAX_RATE ({}) so every \
                     cluster refreshes its frozen forces on the first resumed step",
                    config.checkpoint_every, config.lts_max_rate
                );
            }
            let atten_params = atten_period.map(|p| (dt, p));
            Some(if config.lts_all_rate_one {
                LtsState::new(
                    &mesh,
                    vec![1; mesh.nspec],
                    config.lts_max_rate as u32,
                    atten_params,
                )
            } else {
                LtsState::from_mesh(&mesh, dt, config.lts_max_rate, atten_params)
            })
        } else {
            None
        };

        let lanes = lanes
            .iter()
            .map(|lane| {
                // Source: every rank locates; the best fit applies it.
                let source = SourceArrays::build(&mesh, &lane.source);
                let apply_source = elected(comm, source.locate_cost());
                // Receivers: per-station ownership by best location error.
                let mut receivers =
                    ReceiverSet::locate(&mesh, &lane.stations, config.exact_station_location);
                let keep: Vec<bool> = receivers
                    .errors()
                    .into_iter()
                    .map(|err| elected(comm, err))
                    .collect();
                receivers.retain(&keep);
                Lane {
                    source,
                    apply_source,
                    receivers,
                    health: HealthMonitor::new(config.health_every),
                    tripped: None,
                }
            })
            .collect();

        // Point ownership (lowest sharing rank) for global reductions.
        let mut owned = vec![true; mesh.nglob];
        for n in &mesh.halo.neighbors {
            if n.rank < mesh.rank {
                for &p in &n.points {
                    owned[p as usize] = false;
                }
            }
        }

        Self {
            fields: WaveFields::with_lanes(mesh.nglob, k),
            config: config.clone(),
            geom,
            ops,
            mass,
            coupling,
            absorbing,
            ocean,
            atten,
            lts,
            lanes,
            scratch: (k > 1).then(|| BatchScratch::new(k)),
            owned,
            dt,
            flops: FlopCounter::new(),
            energy: Vec::new(),
            snapshots: Vec::new(),
            start_step: 0,
            mesh,
        }
    }

    /// Remove the absorbing surface (test hook: compare absorbing vs
    /// reflecting behaviour on the same regional mesh).
    pub fn disable_absorbing_for_tests(&mut self) {
        self.absorbing = AbsorbingSurface::default();
    }

    /// Direct access to the LTS state (test hook: the loop-order-invariance
    /// harness splits the rate-1 level into artificial clusters swept in
    /// arbitrary order to prove the canonical scatter makes the sweep order
    /// irrelevant).
    pub fn lts_state_mut_for_tests(&mut self) -> Option<&mut LtsState> {
        self.lts.as_mut()
    }

    /// Impose an initial solid displacement field on every lane (for
    /// source-free validation runs): `f(x, y, z) → [ux, uy, uz]`.
    pub fn set_initial_displacement(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
        let (solid_mask, _) = region_masks(&self.mesh);
        let k = self.fields.k;
        for (p, coord) in self.mesh.coords.iter().enumerate() {
            if solid_mask[p] {
                let u = f(*coord);
                for c in 0..3 {
                    self.fields.displ[(p * 3 + c) * k..][..k].fill(u[c] as f32);
                }
            }
        }
    }

    /// Advance every lane one time step. `istep` is 0-based; the sources
    /// are evaluated at `t = (istep + 1)·dt`.
    ///
    /// Per-point accumulation order is the contract that keeps every
    /// schedule bit-identical: boundary terms (coupling, absorbing,
    /// sources) first, then the elements in ascending local order, then
    /// the received halo partials in ascending neighbour rank — float
    /// addition is not associative, and this order does not depend on
    /// where the halo post sits, whether LTS scatters stored contributions,
    /// or how many lanes ride along (`tests/overlap_equivalence.rs`,
    /// `tests/lts_equivalence.rs`, `crates/batch/tests/batch_oracle.rs`).
    pub fn step(&mut self, istep: usize, comm: &mut dyn Communicator) -> Result<(), SolverError> {
        comm.on_time_step(istep)?;
        let _span = specfem_obs::span("step");
        let dt = self.dt as f32;
        let t = (istep + 1) as f64 * self.dt;
        let k = self.fields.k;

        // 1. Newmark predictor on both media.
        {
            let _s = specfem_obs::span("step.predictor");
            self.fields.predictor(dt);
        }

        // 2. Fluid outer core: coupling from the *predicted solid
        //    displacement* (the displacement-based scheme of [4]), then
        //    stiffness, assemble, divide by mass.
        {
            let _s = specfem_obs::span("forces.fluid");
            self.coupling
                .add_solid_displacement_to_fluid(&mut self.fields);
        }
        self.force_phase(Medium::Fluid, istep, comm)?;
        self.fields.corrector_fluid(&self.mass.fluid, dt);

        // 3. Solid regions: coupling from the fresh fluid acceleration,
        //    absorbing boundaries and the per-lane sources (every one of
        //    these only adds into `accel` from fields the stiffness loop
        //    does not write), then stiffness (+ attenuation, gravity) and
        //    assembly.
        {
            let _s = specfem_obs::span("forces.solid");
            self.coupling.add_fluid_pressure_to_solid(&mut self.fields);
            if !self.absorbing.is_empty() {
                // Stacey condition on artificial boundaries (regional
                // runs), driven by the predicted velocity.
                self.absorbing.apply(&mut self.fields);
            }
            for (lane, ls) in self.lanes.iter().enumerate() {
                if ls.apply_source {
                    ls.source.apply(t, &mut self.fields, lane);
                }
            }
        }
        self.force_phase(Medium::Solid, istep, comm)?;
        if let Some(lts) = self.lts.as_mut() {
            lts.end_step(&self.mesh, istep, &mut self.flops);
        }

        // Ocean load: scale the normal RHS component by M/(M+M_o) so the
        // upcoming division by M yields F_n/(M+M_o) on the free surface.
        for &(p, ratio, n) in &self.ocean {
            let o = p as usize * 3 * k;
            let accel = &mut self.fields.accel;
            for x in o..o + k {
                let (y, z) = (x + k, x + 2 * k);
                let fn_dot = accel[x] * n[0] + accel[y] * n[1] + accel[z] * n[2];
                let delta = fn_dot * (ratio - 1.0);
                accel[x] += delta * n[0];
                accel[y] += delta * n[1];
                accel[z] += delta * n[2];
            }
        }

        // Energy diagnostic uses the assembled right-hand side (before the
        // mass division) so PE = −½ uᵀ(−K u) is available.
        if self.config.energy_every > 0 && istep.is_multiple_of(self.config.energy_every) {
            let _s = specfem_obs::span("diag.energy");
            let (ke, pe) = self.energy_sample(comm)?;
            self.energy.push((istep, ke, pe));
        }

        // 4. Solid corrector (with optional Coriolis term applied between
        //    the mass division and the velocity half-update).
        let span_corrector = specfem_obs::span("step.corrector");
        if self.config.rotation {
            let half_dt = 0.5 * dt;
            let om = EARTH_OMEGA_RAD_S as f32;
            let WaveFields { veloc, accel, .. } = &mut self.fields;
            for (p, &m) in self.mass.solid.iter().enumerate() {
                if m > 0.0 {
                    let inv = 1.0 / m;
                    for x in p * 3 * k..p * 3 * k + k {
                        let (y, z) = (x + k, x + 2 * k);
                        let (vx, vy) = (veloc[x], veloc[y]);
                        // Ω = Ω ẑ ⇒ −2Ω×v = (2Ω v_y, −2Ω v_x, 0).
                        let ax = accel[x] * inv + 2.0 * om * vy;
                        let ay = accel[y] * inv - 2.0 * om * vx;
                        let az = accel[z] * inv;
                        accel[x] = ax;
                        accel[y] = ay;
                        accel[z] = az;
                        veloc[x] += half_dt * ax;
                        veloc[y] += half_dt * ay;
                        veloc[z] += half_dt * az;
                    }
                }
            }
        } else {
            self.fields.corrector_solid(&self.mass.solid, dt);
        }

        // Bookkeeping flops for the update loops (≈ 50/point/step/lane).
        self.flops.add_raw((self.mesh.nglob * 50 * k) as u64);
        drop(span_corrector);

        if istep.is_multiple_of(self.config.record_every) {
            let _s = specfem_obs::span("step.record");
            for (lane, ls) in self.lanes.iter_mut().enumerate() {
                ls.receivers.record(&self.mesh, &self.fields, lane);
            }
        }
        if self.config.snapshot_every > 0 && istep.is_multiple_of(self.config.snapshot_every) {
            self.snapshots.push(self.fields.displ.clone());
        }
        Ok(())
    }

    /// One force phase, written once for both media and every schedule:
    /// stiffness forces of the elements before `split`, post the halo
    /// exchange of the right-hand side, the remaining elements while the
    /// messages are in flight, then wait and add the neighbours' partials.
    /// Overlapping puts `split` at the outer/inner boundary; the blocking
    /// exchange is the same schedule with an empty in-flight window. All K
    /// lanes of a shared point travel in one message (`ncomp = K` fluid,
    /// `3K` solid), so the posted message count does not depend on K.
    fn force_phase(
        &mut self,
        medium: Medium,
        istep: usize,
        comm: &mut dyn Communicator,
    ) -> Result<(), SolverError> {
        let nspec = self.mesh.nspec;
        let split = if self.config.overlap {
            self.mesh.nspec_outer
        } else {
            nspec
        };
        let k = self.fields.k;
        let ([outer, inner], width, tags) = match medium {
            Medium::Fluid => (
                ["forces.fluid.outer", "forces.fluid.inner"],
                1,
                [tags::HALO_FLUID, tags::HALO_BATCHED_FLUID],
            ),
            Medium::Solid => (
                ["forces.solid.outer", "forces.solid.inner"],
                3,
                [tags::HALO_SOLID, tags::HALO_BATCHED_SOLID],
            ),
        };
        // Fused runs use their own tags so per-tag accounting does not
        // misread K× larger messages as a single-lane size regression.
        let (ncomp, tag) = (width * k, tags[(k > 1) as usize]);
        {
            let _s = specfem_obs::span(outer);
            self.compute_forces(medium, istep, 0..split);
        }
        let rhs = match medium {
            Medium::Fluid => &self.fields.chi_ddot,
            Medium::Solid => &self.fields.accel,
        };
        let reqs = post_halo_exchange(comm, &self.mesh.halo, rhs, ncomp, tag)?;
        {
            let _s = specfem_obs::span(inner);
            self.compute_forces(medium, istep, split..nspec);
        }
        let rhs = match medium {
            Medium::Fluid => &mut self.fields.chi_ddot,
            Medium::Solid => &mut self.fields.accel,
        };
        finish_halo_assembly(comm, &self.mesh.halo, rhs, ncomp, reqs)?;
        Ok(())
    }

    /// Add the stiffness forces of the local elements in `range` into the
    /// right-hand side of `medium`. The element kernel follows the lane
    /// count: the stack-array single-lane kernel at `k = 1`, the batched
    /// lane-major kernel otherwise. Under LTS the clusters active on
    /// `istep` recompute their elements' contributions inside `range`
    /// (each with attenuation recursion constants fitted at its own
    /// `rate·dt`), then *every* element's fresh or frozen contribution in
    /// `range` is scattered in ascending order — the same per-point
    /// accumulation sequence as the direct kernels.
    fn compute_forces(&mut self, medium: Medium, istep: usize, range: Range<usize>) {
        let Self {
            mesh,
            geom,
            ops,
            config,
            fields,
            flops,
            atten,
            lts,
            scratch,
            ..
        } = self;
        let variant = config.variant;
        let scratch = scratch.as_mut();
        match (medium, lts.as_mut(), fields.k) {
            (Medium::Fluid, Some(lts), _) => {
                for lv in lts.levels.iter().filter(|lv| lv.active(istep)) {
                    for elems in lv.elements_in(&range) {
                        compute_fluid_contribs(
                            mesh,
                            geom,
                            ops,
                            variant,
                            &fields.chi,
                            flops,
                            elems,
                            &mut lts.fluid_contrib,
                        );
                    }
                }
                scatter(mesh, &lts.fluid_contrib, &mut fields.chi_ddot, 1, range);
            }
            (Medium::Solid, Some(lts), _) => {
                for lv in lts.levels.iter().filter(|lv| lv.active(istep)) {
                    if let (Some(att), Some((a, b))) = (atten.as_mut(), lv.atten) {
                        att.alpha = a;
                        att.beta_unit = b;
                    }
                    for elems in lv.elements_in(&range) {
                        compute_solid_contribs(
                            mesh,
                            geom,
                            ops,
                            variant,
                            &fields.displ,
                            atten.as_mut(),
                            config.gravity,
                            flops,
                            elems,
                            &mut lts.solid_contrib,
                        );
                    }
                }
                scatter(mesh, &lts.solid_contrib, &mut fields.accel, 3, range);
            }
            (Medium::Fluid, None, 1) => {
                compute_fluid_forces_range(mesh, geom, ops, variant, fields, flops, range)
            }
            (Medium::Solid, None, 1) => compute_solid_forces_range(
                mesh,
                geom,
                ops,
                variant,
                fields,
                atten.as_mut(),
                config.gravity,
                flops,
                range,
            ),
            (Medium::Fluid, None, _) => compute_fluid_forces_batched(
                mesh,
                geom,
                ops,
                variant,
                fields,
                flops,
                scratch.expect("lane scratch exists whenever k > 1"),
                range,
            ),
            (Medium::Solid, None, _) => compute_solid_forces_batched(
                mesh,
                geom,
                ops,
                variant,
                fields,
                config.gravity,
                flops,
                scratch.expect("lane scratch exists whenever k > 1"),
                range,
            ),
        }
    }

    /// Global kinetic and potential energy (collective; single-lane runs).
    fn energy_sample(&mut self, comm: &mut dyn Communicator) -> Result<(f64, f64), CommError> {
        let mut ke = 0.0f64;
        let mut pe = 0.0f64;
        for p in 0..self.mesh.nglob {
            if !self.owned[p] {
                continue;
            }
            let m = self.mass.solid[p] as f64;
            if m > 0.0 {
                let mut v2 = 0.0f64;
                let mut ua = 0.0f64;
                for c in 0..3 {
                    let v = self.fields.veloc[p * 3 + c] as f64;
                    v2 += v * v;
                    ua += self.fields.displ[p * 3 + c] as f64 * self.fields.accel[p * 3 + c] as f64;
                }
                ke += 0.5 * m * v2;
                pe -= 0.5 * ua; // accel = −K u (before mass division)
            }
            let mf = self.mass.fluid[p] as f64;
            if mf > 0.0 {
                let cd = self.fields.chi_dot[p] as f64;
                ke += 0.5 * mf * cd * cd;
            }
        }
        Ok((comm.allreduce_sum(ke)?, comm.allreduce_sum(pe)?))
    }

    /// Scan every healthy lane's fields with its own monitor. One rule for
    /// any lane count: a trip poisons its lane (the report is kept as that
    /// lane's outcome while its siblings keep marching), and the run fails
    /// once no healthy lane is left — immediately, for a single-lane run.
    fn check_health(&mut self, rank: usize, istep: usize) -> Result<(), SolverError> {
        let f = &self.fields;
        for (lane, ls) in self.lanes.iter_mut().enumerate() {
            if ls.tripped.is_some() || !ls.health.should_check(istep) {
                continue;
            }
            let _s = specfem_obs::span("health.check");
            let (displ, veloc, chi_dot) = (
                f.lane(&f.displ, lane),
                f.lane(&f.veloc, lane),
                f.lane(&f.chi_dot, lane),
            );
            let fields: [(&'static str, &[f32]); 3] =
                [("displ", &displ), ("veloc", &veloc), ("chi_dot", &chi_dot)];
            match ls.health.check(rank, istep, &fields) {
                Some(mut report) => {
                    report.element = attribute_element(&self.mesh, report.field, report.point);
                    specfem_obs::counter_add("health.trips", 1);
                    specfem_obs::flight_event(
                        specfem_obs::FlightEventKind::HealthTrip,
                        report.field,
                        report.point as u64,
                        0,
                    );
                    ls.tripped = Some(report);
                }
                None => {
                    specfem_obs::counter_add("health.samples", 1);
                    specfem_obs::flight_event(specfem_obs::FlightEventKind::HealthSample, "", 0, 0);
                }
            }
        }
        match &self.lanes[0].tripped {
            Some(first) if self.lanes.iter().all(|ls| ls.tripped.is_some()) => {
                Err(SolverError::Health(first.clone()))
            }
            _ => Ok(()),
        }
    }

    /// Capture the complete time-loop state of a single-lane run at a step
    /// boundary: `next_step` is the first step the resumed loop will
    /// execute.
    pub fn capture_checkpoint(
        &self,
        rank: usize,
        nranks: usize,
        next_step: usize,
    ) -> CheckpointState {
        self.capture_lane(0, rank, nranks, next_step)
    }

    /// [`Self::capture_checkpoint`] for one lane, in the single-lane
    /// container (whatever a fused run cannot carry — attenuation memory,
    /// energy and snapshot series — is empty there by construction).
    fn capture_lane(
        &self,
        lane: usize,
        rank: usize,
        nranks: usize,
        next_step: usize,
    ) -> CheckpointState {
        let f = &self.fields;
        let receivers = &self.lanes[lane].receivers;
        CheckpointState {
            rank,
            nranks,
            next_step,
            dt: self.dt,
            nglob: self.mesh.nglob,
            global_ids: self.mesh.global_ids.clone(),
            element_global: self.mesh.element_global.clone(),
            displ: f.lane(&f.displ, lane).into_owned(),
            veloc: f.lane(&f.veloc, lane).into_owned(),
            accel: f.lane(&f.accel, lane).into_owned(),
            chi: f.lane(&f.chi, lane).into_owned(),
            chi_dot: f.lane(&f.chi_dot, lane).into_owned(),
            chi_ddot: f.lane(&f.chi_ddot, lane).into_owned(),
            atten_memory: self.atten.as_ref().map(|a| a.memory.clone()),
            records: receivers
                .station_names()
                .into_iter()
                .zip(receivers.records().iter().cloned())
                .collect(),
            energy: self.energy.clone(),
            snapshots: self.snapshots.clone(),
            flops: self.flops.total(),
        }
    }

    /// Restore the time-loop state from a checkpoint. The state must
    /// describe *this* rank of *this* decomposition — the rank-count-
    /// independent store scatters a merged container onto the current
    /// world before calling this, so the writing world size may differ.
    /// Every consistency check failure is a typed error, never a silent
    /// mis-restore.
    pub fn restore_from(&mut self, state: CheckpointState) -> Result<(), SolverError> {
        let fail = |msg: String| Err(SolverError::Checkpoint(CheckpointError(msg)));
        if self.fields.k != 1 {
            return fail(format!(
                "a checkpoint holds one lane; this solver runs {}",
                self.fields.k
            ));
        }
        if state.nglob != self.mesh.nglob {
            return fail(format!(
                "nglob mismatch: checkpoint {} vs mesh {}",
                state.nglob, self.mesh.nglob
            ));
        }
        if state.rank != self.mesh.rank {
            return fail(format!(
                "rank mismatch: checkpoint {} vs solver {}",
                state.rank, self.mesh.rank
            ));
        }
        if state.dt.to_bits() != self.dt.to_bits() {
            return fail(format!(
                "dt mismatch: checkpoint {} vs recomputed {} — different mesh or config?",
                state.dt, self.dt
            ));
        }
        if let Some(lts) = &self.lts {
            // Frozen force contributions are never persisted; that is only
            // sound when every cluster refreshes on the first resumed step,
            // i.e. the resume step is a full-cycle boundary.
            let cap = lts.cap as usize;
            if !state.next_step.is_multiple_of(cap) {
                return fail(format!(
                    "LTS resume step {} is not a multiple of the rate cap {cap} — frozen \
                     force contributions are only valid at full-cycle boundaries",
                    state.next_step
                ));
            }
        }
        let n3 = self.mesh.nglob * 3;
        for (name, len, expect) in [
            ("displ", state.displ.len(), n3),
            ("veloc", state.veloc.len(), n3),
            ("accel", state.accel.len(), n3),
            ("chi", state.chi.len(), self.mesh.nglob),
            ("chi_dot", state.chi_dot.len(), self.mesh.nglob),
            ("chi_ddot", state.chi_ddot.len(), self.mesh.nglob),
        ] {
            if len != expect {
                return fail(format!("{name} length {len}, expected {expect}"));
            }
        }
        match (&mut self.atten, state.atten_memory) {
            (Some(att), Some(mem)) => {
                if mem.len() != att.memory.len() {
                    return fail(format!(
                        "attenuation memory length {} vs {}",
                        mem.len(),
                        att.memory.len()
                    ));
                }
                att.memory = mem;
            }
            (None, None) => {}
            (a, m) => {
                return fail(format!(
                    "attenuation mismatch: solver {}, checkpoint {}",
                    a.is_some(),
                    m.is_some()
                ))
            }
        }
        let lane = &mut self.lanes[0];
        lane.receivers
            .restore_records(state.records)
            .map_err(|e| SolverError::Checkpoint(CheckpointError(e)))?;
        self.fields.displ = state.displ;
        self.fields.veloc = state.veloc;
        self.fields.accel = state.accel;
        self.fields.chi = state.chi;
        self.fields.chi_dot = state.chi_dot;
        self.fields.chi_ddot = state.chi_ddot;
        self.energy = state.energy;
        self.snapshots = state.snapshots;
        self.flops.set_total(state.flops);
        self.start_step = state.next_step;
        // Restored fields have a fresh (possibly large) baseline norm; the
        // growth tracker must not read the jump from zero as a blow-up.
        lane.health.re_arm();
        specfem_obs::flight_event(
            specfem_obs::FlightEventKind::Restore,
            "",
            self.start_step as u64,
            0,
        );
        Ok(())
    }

    /// Run the configured number of steps and package the result. Failures
    /// panic — use [`RankSolver::try_run`] for typed errors and
    /// checkpointing.
    pub fn run(self, comm: &mut dyn Communicator) -> RankResult {
        self.try_run(comm, None)
            .unwrap_or_else(|e| panic!("solver rank failed: {e}"))
    }

    /// Run the time loop (from `start_step` after a restore), writing a
    /// checkpoint to `sink` every `config.checkpoint_every` steps, and
    /// return the first lane's result — *the* result of a single-lane run.
    pub fn try_run(
        self,
        comm: &mut dyn Communicator,
        sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<RankResult, SolverError> {
        first_lane(self.try_run_lanes(comm, sink, false))
    }

    /// [`Self::try_run`] returning every lane's outcome, in lane order.
    /// `capture_final_state` attaches each healthy lane's final wavefield
    /// to its result.
    pub fn try_run_lanes(
        mut self,
        comm: &mut dyn Communicator,
        mut sink: Option<&mut dyn CheckpointSink>,
        capture_final_state: bool,
    ) -> Result<Vec<LaneResult>, SolverError> {
        comm.barrier()?;
        comm.reset_stats(); // main-loop statistics only, like IPM (§5)
        let span_timeloop = specfem_obs::span("timeloop");
        // Per-step timing samples: only while a tracer is live, and only
        // every `metrics_every`-th step so sampling stays cheap.
        let sample_every = if specfem_obs::is_active() {
            self.config.metrics_every
        } else {
            0
        };
        let t0 = Instant::now();
        for istep in self.start_step..self.config.nsteps {
            specfem_obs::flight_set_step(istep as u64);
            let t_step =
                (sample_every > 0 && istep.is_multiple_of(sample_every)).then(Instant::now);
            self.step(istep, comm)?;
            if let Some(t) = t_step {
                specfem_obs::hist_record("solver.step_ns", t.elapsed().as_nanos() as u64);
            }
            self.check_health(comm.rank(), istep)?;
            if self.config.checkpoint_every > 0 && (istep + 1) % self.config.checkpoint_every == 0 {
                if let Some(sink) = sink.as_mut() {
                    let state = self.capture_checkpoint(comm.rank(), comm.size(), istep + 1);
                    sink.write(&state)?;
                    specfem_obs::flight_event(
                        specfem_obs::FlightEventKind::Checkpoint,
                        "",
                        (istep + 1) as u64,
                        0,
                    );
                }
            }
        }
        comm.barrier()?;
        drop(span_timeloop);
        let elapsed_s = t0.elapsed().as_secs_f64();
        let steps_run = self.config.nsteps - self.start_step;
        specfem_obs::counter_add("solver.steps", steps_run as u64);
        specfem_obs::gauge_set("solver.nspec", self.mesh.nspec as f64);
        specfem_obs::gauge_set("solver.nglob", self.mesh.nglob as f64);
        let lts = self.lts.as_ref().map(|l| {
            let s = l.summary(self.mesh.nspec, steps_run);
            specfem_obs::gauge_set("lts.max_rate", s.max_rate as f64);
            specfem_obs::gauge_set("lts.levels", s.levels.len() as f64);
            specfem_obs::counter_add("lts.element_steps_saved", s.element_steps_saved);
            s
        });
        let (rank, nranks) = (comm.rank(), comm.size());
        let final_states: Vec<Option<CheckpointState>> = (0..self.lanes.len())
            .map(|lane| {
                (capture_final_state && self.lanes[lane].tripped.is_none())
                    .then(|| self.capture_lane(lane, rank, nranks, self.config.nsteps))
            })
            .collect();
        let snapshots =
            (self.config.snapshot_every > 0).then(|| crate::adjoint::WavefieldSnapshots {
                every: self.config.snapshot_every,
                dt: self.dt,
                frames: std::mem::take(&mut self.snapshots),
            });
        // What the lanes physically share goes to the first healthy one.
        let mut shared = Some((
            comm.stats(),
            self.flops.total(),
            self.energy,
            snapshots,
            lts,
        ));
        let profile = specfem_obs::finish_rank();
        let dt_samples = self.dt * self.config.record_every as f64;
        Ok(self
            .lanes
            .into_iter()
            .zip(final_states)
            .map(|(ls, final_state)| match ls.tripped {
                Some(report) => Err(report),
                None => {
                    let (comm, flops, energy, snapshots, lts) = shared.take().unwrap_or_default();
                    Ok(RankResult {
                        rank,
                        station_error_m: ls.receivers.worst_error_m(),
                        seismograms: ls.receivers.into_seismograms(dt_samples),
                        energy,
                        elapsed_s,
                        comm,
                        flops,
                        dt: self.dt,
                        nsteps: self.config.nsteps,
                        nspec: self.mesh.nspec,
                        nglob: self.mesh.nglob,
                        snapshots,
                        profile: profile.clone(),
                        lts,
                        trace_id: self.config.trace_id,
                        final_state,
                    })
                }
            })
            .collect())
    }
}

/// The lane of a plain single-event run.
fn single_lane(config: &SolverConfig, stations: &[Station]) -> EventLane {
    EventLane {
        name: String::new(),
        source: config.source.clone(),
        stations: stations.to_vec(),
    }
}

/// The single-lane view of a run's outcome: its first lane, a poisoned
/// lane surfacing as [`SolverError::Health`].
fn first_lane(run: Result<Vec<LaneResult>, SolverError>) -> Result<RankResult, SolverError> {
    let lane = run?
        .into_iter()
        .next()
        .expect("a run has at least one lane");
    lane.map_err(SolverError::Health)
}

/// Run serially (one rank, whole mesh) — the merged mesher+solver path.
/// Any failure (including an injected fault) panics; use
/// [`try_run_serial_lanes`] for typed errors, checkpointing and resume.
pub fn run_serial(mesh: &GlobalMesh, config: &SolverConfig, stations: &[Station]) -> RankResult {
    let lanes = [single_lane(config, stations)];
    first_lane(try_run_serial_lanes(
        mesh,
        config,
        &lanes,
        FtOptions::default(),
        false,
    ))
    .unwrap_or_else(|e| panic!("solver rank failed: {e}"))
}

/// The fault-tolerant serial path: one rank, whole mesh, typed errors, K
/// event lanes fused into one solve — every lane's outcome, in lane order.
/// Honors `config.fault_plan` (wrapping the in-process communicator in a
/// [`FaultyComm`]) and the [`FtOptions`] checkpoint sink/restore hooks —
/// the single-rank analog of [`try_run_partitioned_lanes`], which the
/// campaign runtime uses so a killed job can resume from its latest
/// checkpoint.
pub fn try_run_serial_lanes(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    lanes: &[EventLane],
    opts: FtOptions<'_>,
    capture_final_state: bool,
) -> Result<Vec<LaneResult>, SolverError> {
    let partition = Partition::serial(mesh);
    let base = SerialComm::new();
    rank_main(
        base,
        mesh,
        &partition,
        config,
        lanes,
        &opts,
        capture_final_state,
    )
}

/// Run distributed over `6 × NPROC_XI²` thread-ranks (the `mpirun` analog).
/// Any rank failure panics; use [`try_run_distributed`] for typed errors.
pub fn run_distributed(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    stations: &[Station],
    profile: NetworkProfile,
) -> Vec<RankResult> {
    try_run_distributed(mesh, config, stations, profile, FtOptions::default())
        .0
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("solver rank failed: {e}")))
        .collect()
}

/// Per-rank fault-tolerance hooks for [`try_run_distributed`].
#[derive(Default)]
pub struct FtOptions<'a> {
    /// Build the checkpoint sink a rank writes to every
    /// `checkpoint_every` steps (`None` disables writing).
    pub sink_factory: Option<&'a (dyn Fn(usize) -> Box<dyn CheckpointSink> + Sync)>,
    /// Load the checkpoint a rank resumes from; `Ok(None)` is a cold
    /// start. The rank's freshly extracted [`LocalMesh`] is passed so a
    /// rank-count-independent store can scatter merged global state onto
    /// *this* decomposition (which may differ from the one that wrote it).
    #[allow(clippy::type_complexity)]
    pub restore: Option<
        &'a (dyn Fn(usize, &LocalMesh) -> Result<Option<CheckpointState>, CheckpointError> + Sync),
    >,
    /// Receive the rank's harvested flight journal when
    /// `config.flight_recorder` armed one — called from the rank's own
    /// thread on both success and failure exits, so a crash-dossier
    /// writer sees every surviving rank's journal. `None` discards
    /// harvested journals.
    pub flight: Option<&'a (dyn Fn(specfem_obs::FlightJournal) + Sync)>,
}

/// The per-rank driver, written once for every world size and lane count:
/// arm the tracer and flight recorder, wrap the communicator for fault
/// injection, extract and set up, restore, run, and hand the flight
/// journal over on success and failure exits alike.
fn rank_main(
    base: impl Communicator + 'static,
    mesh: &GlobalMesh,
    partition: &Partition,
    config: &SolverConfig,
    lanes: &[EventLane],
    opts: &FtOptions<'_>,
    capture_final_state: bool,
) -> Result<Vec<LaneResult>, SolverError> {
    let rank = base.rank();
    if config.trace {
        // Before extraction so mesh-extract and setup spans land in
        // the trace too.
        specfem_obs::init_rank(rank, &specfem_obs::TraceConfig::default());
    }
    if config.flight_recorder {
        specfem_obs::flight_arm(rank, config.flight_buffer_events);
    }
    let mut comm: Box<dyn Communicator> = match &config.fault_plan {
        Some(plan) => Box::new(FaultyComm::new(base, plan)),
        None => Box::new(base),
    };
    let local = partition.extract(mesh, rank);
    let mut solver = RankSolver::with_lanes(local, config, lanes, comm.as_mut());
    let out = (move || {
        if let Some(restore) = opts.restore {
            match restore(rank, &solver.mesh) {
                Ok(Some(state)) => solver.restore_from(state)?,
                Ok(None) => {}
                Err(e) => return Err(SolverError::Checkpoint(e)),
            }
        }
        let mut sink = opts.sink_factory.map(|f| f(rank));
        let sink_ref: Option<&mut dyn CheckpointSink> = match sink.as_mut() {
            Some(b) => Some(&mut **b),
            None => None,
        };
        solver.try_run_lanes(comm.as_mut(), sink_ref, capture_final_state)
    })();
    if out.is_err() {
        // A failed rank never reached the harvest in `try_run_lanes`;
        // drop its recorder so the global tracer gate is released.
        let _ = specfem_obs::finish_rank();
    }
    if let Some(journal) = specfem_obs::flight_harvest() {
        if let Some(deposit) = opts.flight {
            deposit(journal);
        }
    }
    out
}

/// The fault-tolerant `mpirun` analog: per-rank typed results instead of a
/// world-wide panic. Honors `config.recv_timeout` (a stalled peer surfaces
/// as `CommError::Timeout` naming the `(src, tag)` it waited on),
/// `config.fault_plan` (deterministic injection), `config.checkpoint_every`
/// together with the [`FtOptions`] hooks, and `config.watchdog_timeout`
/// (see [`try_run_partitioned_lanes`]; the report is `None` with the
/// watchdog off).
pub fn try_run_distributed(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    stations: &[Station],
    profile: NetworkProfile,
    opts: FtOptions<'_>,
) -> (
    Vec<Result<RankResult, SolverError>>,
    Option<specfem_comm::WatchdogReport>,
) {
    let lanes = [single_lane(config, stations)];
    let partition = Partition::compute(mesh);
    let (per_rank, watchdog) =
        try_run_partitioned_lanes(mesh, config, &lanes, profile, opts, &partition, false);
    (per_rank.into_iter().map(first_lane).collect(), watchdog)
}

/// The thread world over an *explicit* partition, K event lanes fused into
/// one solve: per rank, every lane's outcome in lane order. The
/// cubed-sphere assignment of [`Partition::compute`] only exists for
/// `6 × nproc²` worlds; a shrink-to-survive resume passes
/// [`Partition::balanced`] here to run the same global mesh on any world
/// size.
///
/// When `config.watchdog_timeout` is set, a monitor thread samples every
/// rank's step heartbeat, publishes skew gauges, and escalates a stall to
/// [`CommError::Stalled`] on the healthy ranks; the returned
/// [`specfem_comm::WatchdogReport`] carries the skew/stall telemetry. The
/// watchdog is built for `partition.num_ranks`, so its report and gauges
/// always reflect the world actually running — not the one that wrote the
/// checkpoint.
pub fn try_run_partitioned_lanes(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    lanes: &[EventLane],
    profile: NetworkProfile,
    opts: FtOptions<'_>,
    partition: &Partition,
    capture_final_state: bool,
) -> (
    Vec<Result<Vec<LaneResult>, SolverError>>,
    Option<specfem_comm::WatchdogReport>,
) {
    let nranks = partition.num_ranks;
    let rank_main = |mut base: specfem_comm::ThreadComm| {
        base.set_recv_timeout(config.recv_timeout);
        rank_main(
            base,
            mesh,
            partition,
            config,
            lanes,
            &opts,
            capture_final_state,
        )
    };
    let watchdog = config
        .watchdog_timeout
        .map(specfem_comm::WatchdogConfig::new);
    let (raw, watchdog) = ThreadWorld::launch(nranks, profile, watchdog, rank_main);
    let results = raw
        .into_iter()
        .map(|r| match r {
            Ok(inner) => inner,
            Err(p) => Err(SolverError::RankPanicked {
                rank: p.rank,
                message: p.message,
            }),
        })
        .collect();
    (results, watchdog)
}

/// Merge per-rank seismograms into one station-ordered list.
pub fn merge_seismograms(results: &[RankResult]) -> Vec<Seismogram> {
    let mut all: Vec<Seismogram> = results
        .iter()
        .flat_map(|r| r.seismograms.iter().cloned())
        .collect();
    all.sort_by(|a, b| a.station.cmp(&b.station));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;
    use specfem_mesh::MeshParams;
    use specfem_model::{HomogeneousModel, Prem, SourceTimeFunction, StfKind};

    fn prem_mesh(nex: usize, nproc: usize) -> GlobalMesh {
        let params = MeshParams::new(nex, nproc);
        GlobalMesh::build(&params, &Prem::isotropic_no_ocean())
    }

    fn small_config(nsteps: usize) -> SolverConfig {
        SolverConfig {
            nsteps,
            source: SourceSpec::PointForce {
                position: [0.0, 0.0, 5.8e6],
                force: [0.0, 0.0, 1.0e18],
                stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
            },
            ..SolverConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "specialized to degree 4; the mesh has degree 3")]
    fn a_degree_3_mesh_is_refused_at_solver_setup() {
        let params = MeshParams {
            degree: 3,
            ..MeshParams::new(4, 1)
        };
        let mesh = GlobalMesh::build(&params, &Prem::isotropic_no_ocean());
        let local = Partition::serial(&mesh).extract(&mesh, 0);
        RankSolver::new(local, &small_config(1), &[], &mut SerialComm::new());
    }

    #[test]
    fn serial_run_produces_motion_and_stays_finite() {
        let mesh = prem_mesh(4, 1);
        let stations = specfem_mesh::stations::global_network(3);
        let result = run_serial(&mesh, &small_config(30), &stations);
        assert_eq!(result.nsteps, 30);
        assert!(result.flops > 0);
        assert!(result.dt > 0.0);
        let max: f32 = result
            .seismograms
            .iter()
            .flat_map(|s| s.data.iter())
            .flat_map(|v| v.iter())
            .fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max.is_finite());
    }

    #[test]
    fn wave_reaches_nearby_station_before_antipode() {
        // Source under the north pole; station near the pole must move
        // long before one near the south pole.
        let mesh = prem_mesh(4, 1);
        let stations = vec![
            Station {
                name: "NEAR".into(),
                lat_deg: 80.0,
                lon_deg: 0.0,
            },
            Station {
                name: "FAR".into(),
                lat_deg: -80.0,
                lon_deg: 0.0,
            },
        ];
        let mut config = small_config(120);
        config.record_every = 1;
        let result = run_serial(&mesh, &config, &stations);
        let first_motion = |name: &str| -> usize {
            let s = result
                .seismograms
                .iter()
                .find(|s| s.station == name)
                .unwrap();
            let peak: f32 = s
                .data
                .iter()
                .flat_map(|v| v.iter())
                .fold(0.0f32, |m, &x| m.max(x.abs()));
            s.data
                .iter()
                .position(|v| v.iter().any(|&x| x.abs() > 0.05 * peak))
                .unwrap_or(usize::MAX)
        };
        let near = first_motion("NEAR");
        let far = first_motion("FAR");
        assert!(
            near < far,
            "near station must move first (near {near}, far {far})"
        );
    }

    #[test]
    fn energy_is_conserved_without_attenuation_in_solid_ball() {
        // Homogeneous solid Earth, no fluid, no source: initial bump, check
        // total energy drift stays small over many steps.
        let params = MeshParams::new(4, 1);
        let model = HomogeneousModel::default();
        let mesh = GlobalMesh::build(&params, &model);
        let local = Partition::serial(&mesh).extract(&mesh, 0);
        let config = SolverConfig {
            nsteps: 200,
            energy_every: 10,
            source: SourceSpec::None,
            ..SolverConfig::default()
        };
        let mut comm = SerialComm::new();
        let mut solver = RankSolver::new(local, &config, &[], &mut comm);
        let r0 = 5.0e6;
        solver.set_initial_displacement(|p| {
            let dx = (p[0] - r0) / 8.0e5;
            let dy = p[1] / 8.0e5;
            let dz = p[2] / 8.0e5;
            let g = (-(dx * dx + dy * dy + dz * dz)).exp();
            [0.0, 0.0, 100.0 * g]
        });
        let result = solver.run(&mut comm);
        let totals: Vec<f64> = result.energy.iter().map(|(_, ke, pe)| ke + pe).collect();
        assert!(totals.len() >= 10);
        let e0 = totals[1]; // skip step 0 (velocity still zero)
        assert!(e0 > 0.0);
        for (i, &e) in totals.iter().enumerate().skip(2) {
            let drift = (e - e0).abs() / e0;
            assert!(drift < 0.05, "energy drift {drift} at sample {i}");
        }
    }

    #[test]
    fn attenuation_dissipates_energy() {
        let params = MeshParams::new(4, 1);
        // A strongly attenuating medium (Q = 20, inner-core-like): over a
        // few hundred steps the Q=600 default would lose < 0.1 % (correct
        // physics, but unmeasurable against f32 noise).
        let model = HomogeneousModel {
            q_mu: 20.0,
            ..HomogeneousModel::default()
        };
        let mesh = GlobalMesh::build(&params, &model);
        let run = |attenuation: bool| -> Vec<f64> {
            let local = Partition::serial(&mesh).extract(&mesh, 0);
            let config = SolverConfig {
                nsteps: 400,
                energy_every: 40,
                attenuation,
                source: SourceSpec::None,
                ..SolverConfig::default()
            };
            let mut comm = SerialComm::new();
            let mut solver = RankSolver::new(local, &config, &[], &mut comm);
            solver.set_initial_displacement(|p| {
                let dz = (p[2] - 4.0e6) / 1.0e6;
                [0.0, 0.0, 100.0 * (-dz * dz).exp()]
            });
            solver
                .run(&mut comm)
                .energy
                .iter()
                .map(|(_, ke, pe)| ke + pe)
                .collect()
        };
        let elastic = run(false);
        let anelastic = run(true);
        let last = elastic.len() - 1;
        assert!(
            anelastic[last] < 0.98 * elastic[last],
            "attenuation must dissipate: {} vs {}",
            anelastic[last],
            elastic[last]
        );
        // Monotone-ish: the anelastic energy never exceeds the elastic one.
        for (e, a) in elastic.iter().zip(&anelastic).skip(1) {
            assert!(a <= &(e * 1.001), "anelastic {a} above elastic {e}");
        }
    }

    #[test]
    fn distributed_run_matches_serial_seismograms() {
        // The same physical run on 1 rank and on 24 ranks must agree to
        // f32 roundoff — the halo assembly correctness test.
        let mesh = prem_mesh(4, 2);
        let stations = vec![Station {
            name: "CHK".into(),
            lat_deg: 40.0,
            lon_deg: -30.0,
        }];
        let config = small_config(40);
        let serial = run_serial(&mesh, &config, &stations);
        let distributed = run_distributed(
            &mesh,
            &config,
            &stations,
            specfem_comm::NetworkProfile::loopback(),
        );
        let merged = merge_seismograms(&distributed);
        assert_eq!(merged.len(), 1);
        let a = &serial.seismograms[0];
        let b = &merged[0];
        assert_eq!(a.data.len(), b.data.len());
        let scale: f32 = a
            .data
            .iter()
            .flat_map(|v| v.iter())
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1e-20);
        for (va, vb) in a.data.iter().zip(&b.data) {
            for c in 0..3 {
                assert!(
                    (va[c] - vb[c]).abs() <= 2e-3 * scale,
                    "serial {} vs distributed {} (scale {scale})",
                    va[c],
                    vb[c]
                );
            }
        }
    }

    #[test]
    fn rotation_and_gravity_flags_run_stable() {
        let mesh = prem_mesh(4, 1);
        let config = SolverConfig {
            nsteps: 20,
            rotation: true,
            gravity: true,
            ..small_config(20)
        };
        let result = run_serial(&mesh, &config, &[]);
        assert!(result.flops > 0);
        assert!(result.elapsed_s > 0.0);
    }

    #[test]
    fn comm_stats_are_main_loop_only_and_nonzero_in_parallel() {
        let mesh = prem_mesh(4, 2);
        let config = small_config(10);
        let results = run_distributed(
            &mesh,
            &config,
            &[],
            specfem_comm::NetworkProfile::loopback(),
        );
        for r in &results {
            assert!(r.comm.bytes_sent > 0, "rank {} sent nothing", r.rank);
            assert!(r.comm.modeled_time_s > 0.0);
        }
    }

    #[test]
    fn main_loop_traffic_of_a_fixed_run_is_pinned() {
        // NEX 4 on 6 ranks, 5 steps, either halo schedule: two exchanges
        // per step, one message per neighbour each (26 directed neighbour
        // pairs). The literals were recorded before the comm layer was
        // reduced to one point-to-point protocol, so they assert that
        // reshaping it moved no message. Set-up traffic (mass-matrix and
        // ocean-load assembly, the dt reduction) is excluded by the stats
        // reset at loop entry.
        let mesh = prem_mesh(4, 1);
        for overlap in [true, false] {
            let config = SolverConfig {
                overlap,
                ..small_config(5)
            };
            let results = run_distributed(
                &mesh,
                &config,
                &[],
                specfem_comm::NetworkProfile::loopback(),
            );
            let snaps: Vec<_> = results.iter().map(|r| r.comm.clone()).collect();
            let total = StatsSnapshot::total(&snaps);
            assert_eq!(total.messages_sent, 260);
            assert_eq!(total.bytes_sent, 1_166_880);
            assert_eq!(total.bytes_received, 1_166_880);
            assert_eq!(total.posts, 520);
            assert_eq!(total.collectives, 6);
            assert_eq!(total.tag_traffic(tags::HALO_SOLID), (130, 875_160));
            assert_eq!(total.tag_traffic(tags::HALO_FLUID), (130, 291_720));
            assert_eq!(total.per_tag.len(), 2);
        }
    }

    #[test]
    fn every_error_variant_has_its_pinned_classification() {
        // One row per `SolverError` / `CommError` variant: (class string,
        // rank, step, salience, peer lost). The literals are the ones the
        // four separate matchers in core and campaign held before they
        // were folded into `SolverError::classify`; the class strings are
        // the crash-dossier schema.
        use std::time::Duration;
        let waited = Duration::from_secs(1);
        let health = specfem_obs::HealthReport {
            rank: 3,
            step: 40,
            field: "displ",
            point: 0,
            element: None,
            value: f64::NAN,
            norm: 0.0,
            trip: specfem_obs::HealthTrip::Nan,
        };
        let comm = SolverError::Comm;
        #[rustfmt::skip]
        let table = [
            (SolverError::Health(health), "health", Some(3), Some(40), 5, false),
            (comm(CommError::RankDead { rank: 2, step: 12 }), "rank_dead", Some(2), Some(12), 4, true),
            (SolverError::RankPanicked { rank: 4, message: "boom".into() }, "rank_dead", Some(4), None, 4, true),
            (comm(CommError::Stalled { rank: 1, last_step: Some(7), age: waited }), "stall", Some(1), None, 3, true),
            (SolverError::Checkpoint(CheckpointError("disk full".into())), "artifact", None, None, 2, false),
            (comm(CommError::Disconnected { peer: 5 }), "comm", None, None, 1, true),
            (comm(CommError::Timeout { src: 0, tag: 100, waited }), "comm", None, None, 1, true),
            (comm(CommError::PayloadType { src: 0, tag: 100 }), "comm", None, None, 1, false),
            (comm(CommError::InvalidRank { rank: 9, size: 6 }), "comm", None, None, 1, false),
            (comm(CommError::Protocol { detail: "width".into() }), "comm", None, None, 1, false),
            (SolverError::Refused("wrong mesh".into()), "refused", None, None, 0, false),
        ];
        for (error, class, rank, step, salience, peer_lost) in table {
            assert_eq!(error.class().as_str(), class, "{error}");
            assert_eq!(error.coordinates(), (rank, step), "{error}");
            assert_eq!(error.class() as u8, salience, "{error}");
            assert_eq!(error.peer_lost(), peer_lost, "{error}");
        }
    }
}
