//! `specfem-batch` — the compatibility surface of the former batched
//! tier: one mesh, K earthquakes per solve.
//!
//! There is no second solver here any more. Following Yamaguchi et al.'s
//! multiple-simulation formulation, K simulations that share a mesh are
//! one `specfem_solver::RankSolver` whose fields carry an innermost
//! event-lane dimension (DESIGN.md, "The step pipeline"); this crate only
//! keeps the names the benchmark adapter and the differential oracle in
//! `tests/batch_oracle.rs` drive that solver through.
//!
//! **Differential oracle / ULP policy: zero ULP.** A K-event batch is
//! bit-identical to the K serial runs it replaces — seismograms *and*
//! final checkpointed fields — for every kernel variant, halo schedule
//! and decomposition. See `specfem_kernels::batched` for the per-variant
//! argument and `tests/batch_oracle.rs` for the enforcement.

use specfem_comm::{Communicator, NetworkProfile};
use specfem_mesh::{GlobalMesh, LocalMesh, Partition};
use specfem_solver::{
    try_run_partitioned_lanes, try_run_serial_lanes, FtOptions, LaneResult, RankSolver,
    SolverConfig, SolverError,
};

pub use specfem_solver::EventLane;

/// A `RankSolver` set up for K lanes and stepped from outside.
pub struct BatchSolver(RankSolver);

impl BatchSolver {
    /// See [`RankSolver::with_lanes`] (collective call).
    pub fn new(
        mesh: LocalMesh,
        config: &SolverConfig,
        lanes: &[EventLane],
        comm: &mut dyn Communicator,
    ) -> Self {
        Self(RankSolver::with_lanes(mesh, config, lanes, comm))
    }

    /// See [`RankSolver::step`].
    pub fn step(&mut self, istep: usize, comm: &mut dyn Communicator) -> Result<(), SolverError> {
        self.0.step(istep, comm)
    }
}

/// Run options for a batched run.
#[derive(Debug, Clone, Default)]
pub struct BatchRunOptions {
    /// Capture every healthy lane's final wavefield as its
    /// `RankResult::final_state` (the differential oracle compares these
    /// against serial runs).
    pub capture_final_state: bool,
}

/// Everything one rank returns from a batched run.
#[derive(Debug, Clone)]
pub struct BatchRankOutput {
    /// Per-lane outcome, in lane order: a healthy lane's result, or the
    /// health report that poisoned it (siblings complete regardless).
    /// What the lanes share (comm statistics, flops) is on the first
    /// healthy one.
    pub lanes: Vec<LaneResult>,
}

/// Run a batch serially (one rank, whole mesh).
pub fn try_run_batch_serial(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    lanes: &[EventLane],
    opts: &BatchRunOptions,
) -> Result<BatchRankOutput, SolverError> {
    let ft = FtOptions::default();
    let lanes = try_run_serial_lanes(mesh, config, lanes, ft, opts.capture_final_state)?;
    Ok(BatchRankOutput { lanes })
}

/// Run a batch distributed over an explicit partition (the `mpirun`
/// analog of [`try_run_batch_serial`]).
pub fn try_run_batch_partitioned(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    lanes: &[EventLane],
    profile: NetworkProfile,
    partition: &Partition,
    opts: &BatchRunOptions,
) -> Vec<Result<BatchRankOutput, SolverError>> {
    let ft = FtOptions::default();
    let capture = opts.capture_final_state;
    let (per_rank, _) =
        try_run_partitioned_lanes(mesh, config, lanes, profile, ft, partition, capture);
    per_rank
        .into_iter()
        .map(|r| r.map(|lanes| BatchRankOutput { lanes }))
        .collect()
}
