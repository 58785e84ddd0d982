//! `specfem-batch` — the compatibility surface of the former batched
//! tier: one mesh, K earthquakes per solve.
//!
//! There is no second solver here any more. Following Yamaguchi et al.'s
//! multiple-simulation formulation, K simulations that share a mesh are
//! one `specfem_solver::RankSolver` whose fields carry an innermost
//! event-lane dimension (DESIGN.md, "The step pipeline"); this crate only
//! keeps the two names the benchmark adapter steps that solver through,
//! and hosts the differential oracle (`tests/batch_oracle.rs`), which
//! calls `specfem_solver::try_run_{serial,partitioned}_lanes` directly.
//!
//! **Differential oracle / ULP policy: zero ULP.** A K-event batch is
//! bit-identical to the K serial runs it replaces — seismograms *and*
//! final checkpointed fields — for every kernel variant, halo schedule
//! and decomposition. See `specfem_kernels::batched` for the per-variant
//! argument and `tests/batch_oracle.rs` for the enforcement.

use specfem_comm::Communicator;
use specfem_mesh::LocalMesh;
use specfem_solver::{RankSolver, SolverConfig, SolverError};

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
