//! The batch packer: decide which queued jobs may fuse into one
//! K-lane solve.
//!
//! Fusion is legal only between jobs that would run the *same* time
//! loop — identical mesh (full [`specfem_core::Simulation::mesh_key`]
//! geometry) and identical batch-compat key
//! ([`specfem_core::batch::batch_compat_key`]: the shared-physics hash
//! `result_key` also uses, plus the supervision knobs lanes must agree
//! on). The per-lane degrees of freedom — the earthquake and the station
//! set — are exactly what the lanes vary, so they do not appear in the
//! key. The solver has one time loop for any lane count, so nothing else
//! is screened here: what still cannot fuse is decided in one place,
//! `specfem_solver::lanes_supported`.
//!
//! The worker loop packs greedily from the live queue (see
//! `worker_loop` in the crate root); [`plan_batches`] is the same
//! grouping as a pure function over a snapshot, which is what the
//! property tests drive.

use specfem_core::Simulation;

use crate::{Job, JobMode};

/// Hard ceiling on lanes per solve (the kernel tier's
/// `MAX_BATCH_LANES`); `CampaignConfig::batch_max_lanes` is clamped to
/// it at dispatch.
pub fn max_lanes() -> usize {
    specfem_core::kernels::MAX_BATCH_LANES
}

/// The fusion identity of a batchable job: jobs fuse iff their keys are
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Full mesh fingerprint (geometry + decomposition + model id).
    pub mesh: u64,
    /// [`specfem_core::batch::batch_compat_key`] over the shared-loop knobs.
    pub compat: u64,
}

/// The fusion identity of a job, or `None` when the job must run alone:
/// distributed mode (workers fuse serial jobs only), or a configuration
/// [`specfem_core::batch::batchable`] refuses (per-lane data the solver
/// does not carry yet; a deadline-armed watchdog).
pub fn batch_key(job: &Job) -> Option<BatchKey> {
    if job.mode != JobMode::Serial {
        return None;
    }
    batch_key_sim(&job.sim)
}

/// [`batch_key`] on a bare simulation (the serve daemon keys requests
/// before wrapping them in jobs).
pub fn batch_key_sim(sim: &Simulation) -> Option<BatchKey> {
    let compat = specfem_core::batch::batch_compat_key(sim)?;
    Some(BatchKey {
        mesh: sim.mesh_key().fingerprint(),
        compat,
    })
}

/// Group a queue snapshot into dispatch batches: each inner `Vec` holds
/// positions (into `keys`) of jobs that fuse into one solve, in input
/// order, capped at `max_lanes` per batch; a `None` key is a batch of
/// one. The output is a partition of `0..keys.len()` — every input
/// position appears in exactly one batch (the lane→job fan-out the
/// property tests check is a bijection).
pub fn plan_batches(keys: &[Option<BatchKey>], max_lanes: usize) -> Vec<Vec<usize>> {
    let max_lanes = max_lanes.max(1);
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut open: Vec<(BatchKey, usize)> = Vec::new(); // key → position in `batches`
    for (i, key) in keys.iter().enumerate() {
        match key {
            None => batches.push(vec![i]),
            Some(k) => match open.iter().find(|(ok, _)| ok == k) {
                Some(&(_, b)) if batches[b].len() < max_lanes => batches[b].push(i),
                _ => {
                    // No open batch with room: start a new one and make
                    // it the key's open batch.
                    open.retain(|(ok, _)| ok != k);
                    open.push((*k, batches.len()));
                    batches.push(vec![i]);
                }
            },
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(mesh: u64, compat: u64) -> Option<BatchKey> {
        Some(BatchKey { mesh, compat })
    }

    #[test]
    fn plan_groups_equal_keys_and_respects_the_cap() {
        let keys = vec![
            key(1, 1),
            key(1, 1),
            None,
            key(1, 2),
            key(1, 1),
            key(1, 1),
            key(1, 2),
        ];
        let batches = plan_batches(&keys, 3);
        assert_eq!(batches, vec![vec![0, 1, 4], vec![2], vec![3, 6], vec![5]]);
        // Cap 1 degenerates to singletons in input order.
        let singles = plan_batches(&keys, 1);
        assert_eq!(singles.len(), keys.len());
        for (i, b) in singles.iter().enumerate() {
            assert_eq!(b, &vec![i]);
        }
    }
}
