//! The solver — the `specfem3D` analog (paper §3).
//!
//! Marches the global wave field forward in time with the explicit
//! second-order Newmark scheme on the spectral-element mesh:
//!
//! * solid regions (crust-mantle, inner core, central cube) solve the
//!   momentum equation with the two-stage cut-plane kernel of
//!   `specfem-kernels` (the >70 % hotspot of paper §4.3);
//! * the fluid outer core solves the acoustic potential equation
//!   (`u = ∇χ/ρ`, `p = −χ̈`);
//! * fluid and solid are coupled **non-iteratively through the displacement
//!   vector** at the CMB and ICB (paper §1, ref [4]);
//! * optional anelasticity via 3 standard-linear-solid memory variables
//!   (the ~1.8× runtime factor of §6), Coriolis rotation, and
//!   Cowling-approximation self-gravitation;
//! * halo assembly over `specfem-comm` after each force computation —
//!   the `assemble_MPI` step of §2.4;
//! * earthquake sources as CMT moment tensors spread through the gradient
//!   of the element basis, seismogram recording at located stations.
//!
//! The mesher and solver are *merged*: a run takes a `LocalMesh` directly
//! from `specfem-mesh` in memory (paper §4.1's I/O-bottleneck fix); the
//! legacy file-based handoff lives in `specfem-io` for the ablation.

// Numeric kernels index several arrays with one loop variable by design.
#![allow(clippy::needless_range_loop)]

pub mod absorbing;
pub mod adjoint;
pub mod assemble;
pub mod checkpoint;
pub mod coupling;
pub mod forces;
pub mod forces_batched;
pub mod lts;
pub mod source;
pub mod surface;
pub mod timeloop;

pub use absorbing::AbsorbingSurface;
pub use adjoint::{shear_kernel, WavefieldSnapshots};
pub use assemble::{MassMatrices, PrecomputedGeometry, WaveFields};
pub use checkpoint::{CheckpointError, CheckpointSink, CheckpointState, MemorySink};
pub use coupling::CouplingSurface;
pub use lts::{LtsLevel, LtsState, LtsSummary};
pub use source::{EventLane, ReceiverSet, Seismogram, SourceArrays, SourceSpec};
pub use timeloop::{
    lanes_supported, merge_seismograms, run_distributed, run_serial, try_run_distributed,
    try_run_partitioned_lanes, try_run_serial_lanes, FailureClass, FtOptions, LaneResult,
    RankResult, RankSolver, SolverError,
};
// In-flight telemetry types surfaced through the solver's API.
pub use specfem_comm::{WatchdogConfig, WatchdogReport};
pub use specfem_obs::{HealthMonitor, HealthReport, HealthTrip};

use specfem_comm::FaultPlan;
use specfem_kernels::KernelVariant;
use std::time::Duration;

/// Earth's rotation rate (rad/s).
pub const EARTH_OMEGA_RAD_S: f64 = 7.292_115e-5;

/// Solver configuration — the run-time half of the `Par_file`.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Kernel implementation (paper §4.3 ablation).
    pub variant: KernelVariant,
    /// Anelastic attenuation with 3-SLS memory variables.
    pub attenuation: bool,
    /// Coriolis term in the solid regions.
    pub rotation: bool,
    /// Cowling-approximation self-gravitation.
    pub gravity: bool,
    /// Ocean load: the 3-km global water column approximated as extra mass
    /// acting on the *normal* component of free-surface motion (exactly
    /// SPECFEM's equivalent-load treatment — the ocean is never meshed).
    pub ocean_load: bool,
    /// Number of time steps.
    pub nsteps: usize,
    /// Explicit time step (s); `None` → Courant-stable dt from the mesh.
    pub dt: Option<f64>,
    /// Record seismograms every this many steps.
    pub record_every: usize,
    /// Compute global energy diagnostics every this many steps (0 = never).
    pub energy_every: usize,
    /// Record full displacement snapshots every this many steps (0 = off)
    /// — the forward-wavefield storage adjoint kernels need (ref [13]).
    pub snapshot_every: usize,
    /// The source.
    pub source: SourceSpec,
    /// Locate stations with the exact nonlinear algorithm (true) or
    /// nearest-grid-point (false) — paper §4.4-2.
    pub exact_station_location: bool,
    /// Write a checkpoint every this many steps (0 = never). Only takes
    /// effect on the fault-tolerant run paths that supply a checkpoint
    /// store.
    pub checkpoint_every: usize,
    /// How many complete checkpoint generations the on-disk store keeps
    /// (`CHECKPOINT_KEEP`, min 1). Older generations are pruned after each
    /// successful write; the extras are the fallback when the newest
    /// container turns out corrupt.
    pub checkpoint_keep: usize,
    /// Deadline for blocking receives in the main loop; a stalled peer
    /// surfaces as `CommError::Timeout` naming `(src, tag)` instead of
    /// hanging the world. `None` waits forever.
    pub recv_timeout: Option<Duration>,
    /// Deterministic fault-injection schedule (delays, drops, corruption,
    /// rank death); `None` runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// Record span traces and metrics on every rank (the IPM/PMaC-style
    /// instrumentation of paper §5). Off by default: with tracing off a
    /// would-be span costs a single relaxed atomic load.
    pub trace: bool,
    /// Where the run's observability artifacts (Perfetto trace, IPM
    /// report) are written by the facade; `None` keeps them in memory
    /// on the `RankResult`s only.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Sample per-step timing metrics every this many steps when tracing
    /// (0 disables step sampling; spans are unaffected).
    pub metrics_every: usize,
    /// Overlap halo communication with inner-element computation: compute
    /// the outer elements, post the exchange, compute the inner elements
    /// while messages are in flight, then wait and combine. Bit-identical
    /// to the blocking path (the differential harness in
    /// `tests/overlap_equivalence.rs` enforces it), so this defaults on;
    /// turn it off to use the blocking path as the oracle.
    pub overlap: bool,
    /// Sample the numerical-health monitor every this many steps (0, the
    /// default, disables it): scans displacement/velocity/fluid fields
    /// for NaN/Inf and sustained exponential growth and aborts the run
    /// with a structured [`specfem_obs::HealthReport`] naming rank,
    /// step, element, and field. The disabled path never reads the
    /// fields, so output is bit-identical with the monitor off.
    pub health_every: usize,
    /// Arm the straggler watchdog on distributed runs: a monitor thread
    /// flags any rank whose heartbeat age exceeds this, emits skew
    /// gauges, and escalates a genuine stall to
    /// [`specfem_comm::CommError::Stalled`] instead of hanging. `None`
    /// (the default) leaves the watchdog off — the step hook stays a
    /// no-op.
    pub watchdog_timeout: Option<Duration>,
    /// `LTS_MAX_RATE`: cap on the clustered local-time-stepping rate
    /// (power of two ≤ [`specfem_mesh::MAX_LTS_RATE`]). 1 (the default)
    /// disables LTS and runs the plain timeloop; larger caps let coarse
    /// clusters refresh their stiffness forces every 2^k fine steps.
    /// When checkpointing, `checkpoint_every` must be a multiple of the
    /// cap so every cluster refreshes on the first resumed step (frozen
    /// contributions then never need to be persisted).
    pub lts_max_rate: usize,
    /// Test hook: run the clustered LTS machinery with *every* element at
    /// rate 1 — the differential oracle configuration that must be 0-ULP
    /// bit-identical to the plain timeloop (`tests/lts_equivalence.rs`).
    pub lts_all_rate_one: bool,
    /// `FLIGHT_RECORDER`: arm the per-rank flight recorder — a fixed-size
    /// ring journal of recent span/comm/health/checkpoint events kept so
    /// a failed run can write a crash dossier from its last moments. Off
    /// by default; when off a would-be journal entry costs one relaxed
    /// atomic load, and when on the recorder only reads metadata, so the
    /// physics is bit-identical either way
    /// (`tests/flight_recorder.rs`).
    pub flight_recorder: bool,
    /// `FLIGHT_BUFFER_EVENTS`: ring capacity of each rank's flight
    /// journal in events (clamped to at least 16).
    pub flight_buffer_events: usize,
    /// Correlation id of the request/job this run executes for; stamped
    /// onto each `RankResult` and any crash dossier. `None` for runs
    /// nobody is tracing end-to-end.
    pub trace_id: Option<specfem_obs::TraceId>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            variant: KernelVariant::default(),
            attenuation: false,
            rotation: false,
            gravity: false,
            ocean_load: false,
            nsteps: 100,
            dt: None,
            record_every: 1,
            energy_every: 0,
            snapshot_every: 0,
            source: SourceSpec::default(),
            exact_station_location: false,
            checkpoint_every: 0,
            checkpoint_keep: 2,
            recv_timeout: Some(Duration::from_secs(30)),
            fault_plan: None,
            trace: false,
            trace_dir: None,
            metrics_every: 10,
            overlap: true,
            health_every: 0,
            watchdog_timeout: None,
            lts_max_rate: 1,
            lts_all_rate_one: false,
            flight_recorder: false,
            flight_buffer_events: 1024,
            trace_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_production_like() {
        let c = SolverConfig::default();
        assert_eq!(c.variant, KernelVariant::Reference);
        assert!(!c.attenuation);
        assert!(c.record_every >= 1);
    }
}
