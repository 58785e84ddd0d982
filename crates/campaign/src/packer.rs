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
//! The worker loop packs greedily from the live queue: it dequeues one
//! job and [`claim_batch_mates`] takes its batch-mates (see `worker_loop`
//! in the crate root). The property tests drive the same function over
//! plain keys.

use crate::{Job, JobMode};

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
/// does not carry yet; an armed watchdog).
pub fn batch_key(job: &Job) -> Option<BatchKey> {
    if job.mode != JobMode::Serial {
        return None;
    }
    let compat = specfem_core::batch::batch_compat_key(&job.sim)?;
    Some(BatchKey {
        mesh: job.sim.mesh_key().fingerprint(),
        compat,
    })
}

/// Claim every queued item fusable with `key`, up to `room` of them, in
/// queue order; what is left keeps its order. `key_of` reads an item's
/// fusion identity — the worker hands in queued jobs, a test plain keys.
/// Caller holds the queue's lock.
pub fn claim_batch_mates<T>(
    queue: &mut Vec<T>,
    key_of: impl Fn(&T) -> Option<BatchKey>,
    key: BatchKey,
    room: usize,
) -> Vec<T> {
    let mut mates = Vec::new();
    let mut j = 0;
    while j < queue.len() && mates.len() < room {
        if key_of(&queue[j]) == Some(key) {
            mates.push(queue.remove(j));
        } else {
            j += 1;
        }
    }
    mates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(mesh: u64, compat: u64) -> Option<BatchKey> {
        Some(BatchKey { mesh, compat })
    }

    #[test]
    fn plan_groups_equal_keys_and_respects_the_cap() {
        let mut queue = vec![key(1, 1), None, key(1, 2), key(1, 1), key(1, 1), key(1, 2)];
        let wanted = BatchKey { mesh: 1, compat: 1 };
        // Room for two: the third equal key stays queued, order intact.
        let mates = claim_batch_mates(&mut queue, |k| *k, wanted, 2);
        assert_eq!(mates, vec![key(1, 1), key(1, 1)]);
        assert_eq!(queue, vec![None, key(1, 2), key(1, 1), key(1, 2)]);
        // No room claims nothing.
        assert!(claim_batch_mates(&mut queue, |k| *k, wanted, 0).is_empty());
        assert_eq!(queue.len(), 4);
    }
}
