//! Checkpoint/restart of the time loop.
//!
//! A 62K-core run at NEX 4848 marches hundreds of thousands of steps over
//! many wall-clock hours — longer than the MTBF of the target machines — so
//! the solver must be able to come back from a kill without recomputing from
//! step 0. (The real SPECFEM3D_GLOBE of the paper had no checkpointing; see
//! DESIGN.md for the deviation note.)
//!
//! A checkpoint captures the complete per-rank time-loop state: both wave
//! fields (solid `u/v/a`, fluid `χ/χ̇/χ̈`), the attenuation memory
//! variables, the seismogram records, energy samples, wavefield snapshots,
//! the step counter and flop count. Everything else (mass matrices, metric
//! terms, source/receiver location, `dt`) is recomputed deterministically at
//! restart, and the rank-order deterministic reductions make a resumed run
//! **bit-identical** to an uninterrupted one.
//!
//! This module only defines the state and the [`CheckpointSink`] the time
//! loop hands it to; the durable format (one merged, chunk-checksummed
//! `.sfcc` container per generation) lives in `specfem-io`.

use std::fmt;

/// A checkpoint failure (capture, storage, restore, or state mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// Complete time-loop state of one rank at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Rank that wrote the state.
    pub rank: usize,
    /// World size of the run (restore must match).
    pub nranks: usize,
    /// First step the resumed loop executes (the checkpoint was taken after
    /// completing step `next_step - 1`).
    pub next_step: usize,
    /// Time step of the run (s); restore must bit-match.
    pub dt: f64,
    /// Local global-point count (consistency check against the rebuilt
    /// mesh).
    pub nglob: usize,
    /// Local point id → global point id (`LocalMesh::global_ids`) — the
    /// index that lets a merged, rank-count-independent container gather
    /// this state and scatter it back onto any decomposition.
    pub global_ids: Vec<u32>,
    /// Local element id → global element id (`LocalMesh::element_global`),
    /// the element-major analog for attenuation memory remapping.
    pub element_global: Vec<u32>,
    /// Solid displacement `[p·3 + c]`.
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
    /// Attenuation memory variables, when the run is anelastic.
    pub atten_memory: Option<Vec<f32>>,
    /// Per-station seismogram records: `(station name, velocity samples)`.
    pub records: Vec<(String, Vec<[f32; 3]>)>,
    /// `(step, kinetic, potential)` energy samples so far.
    pub energy: Vec<(usize, f64, f64)>,
    /// Displacement snapshots recorded so far (adjoint storage).
    pub snapshots: Vec<Vec<f32>>,
    /// Flop count so far.
    pub flops: u64,
}

/// Destination for checkpoints produced inside the time loop. The storage
/// backend (merged `.sfcc` containers, atomic rename) lives in `specfem-io`; the
/// solver only knows this trait so the dependency arrow keeps pointing
/// io → solver.
pub trait CheckpointSink: Send {
    /// Persist one rank's state; must be atomic (no torn files on kill).
    fn write(&mut self, state: &CheckpointState) -> Result<(), CheckpointError>;
}

/// A sink that keeps checkpoints in memory — used by tests and by the
/// ablation harness to measure pure capture cost.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every state written, in write order.
    pub written: Vec<CheckpointState>,
}

impl CheckpointSink for MemorySink {
    fn write(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        self.written.push(state.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            rank: 3,
            nranks: 24,
            next_step: 500,
            dt: 0.1625,
            nglob: 4,
            global_ids: vec![12, 7, 3, 40],
            element_global: vec![5, 9],
            displ: vec![
                1.0,
                -2.5,
                3.25,
                0.0,
                1e-30,
                f32::MIN_POSITIVE,
                7.0,
                -0.0,
                2.0,
                1.5,
                0.5,
                9.0,
            ],
            veloc: vec![0.0; 12],
            accel: vec![0.5; 12],
            chi: vec![1.0, 2.0, 3.0, 4.0],
            chi_dot: vec![-1.0; 4],
            chi_ddot: vec![0.25; 4],
            atten_memory: Some(vec![0.125; 10]),
            records: vec![
                ("STA1".into(), vec![[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                ("STA2".into(), vec![[0.0, -1.0, 1.0]]),
            ],
            energy: vec![(0, 1.5, -0.5), (10, 2.5, -1.5)],
            snapshots: vec![vec![1.0; 12]],
            flops: 123_456_789_012,
        }
    }

    #[test]
    fn memory_sink_accumulates() {
        let mut sink = MemorySink::default();
        sink.write(&sample_state()).unwrap();
        sink.write(&sample_state()).unwrap();
        assert_eq!(sink.written.len(), 2);
    }
}
