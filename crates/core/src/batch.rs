//! Which [`Simulation`]s may share one solve: the fusion screen and the
//! batch-compatibility fingerprint the campaign packer, the serve daemon
//! and [`crate::run_group`] agree on. Running the group is `run_group`'s
//! job — a fused run is that driver with more than one lane.
//!
//! The contract is the crate-wide zero-ULP one: each lane's seismograms
//! are bit-identical to the serial run of the same job, so a fused answer
//! is cached under the same `result_key` a serial answer would be.

use crate::{hash_shared_physics, ResultFnv, Simulation};

/// May this simulation ride as one lane of a fused solve? The solver
/// states which configurations still need per-lane data it does not carry
/// (`specfem_solver::lanes_supported`); on top of that only one policy
/// remains: an armed straggler watchdog is per-solve, and a fused solve
/// must not let one lane's timeout kill its siblings. (The serve daemon's
/// request deadlines are not that: a connection times its own wait, so
/// deadline-bearing requests fuse.) Anything rejected here simply runs
/// alone — fusing is an optimization, never a requirement.
pub fn batchable(sim: &Simulation) -> bool {
    specfem_solver::lanes_supported(&sim.config, 2).is_ok() && sim.config.watchdog_timeout.is_none()
}

/// The batch-compatibility fingerprint: two simulations may share one
/// fused time loop iff they are [`batchable`] and their keys are equal.
/// Hashes everything the lanes hold in common — the mesh geometry, the
/// shared physics and schedule (the same hasher `result_key` uses), and
/// the run-supervision knobs lane 0's config would otherwise silently
/// answer for its siblings with (health cadence, tracing, flight recorder,
/// receive deadline, fault plan) — while the per-lane degrees of freedom
/// (source, stations, correlation id) are deliberately excluded; those
/// are exactly what the lanes vary.
pub fn batch_compat_key(sim: &Simulation) -> Option<u64> {
    if !batchable(sim) {
        return None;
    }
    let c = &sim.config;
    let mut h = ResultFnv::new();
    h.bytes(b"specfem-batch-compat-v2");
    h.u64(sim.mesh_key().geometry_fingerprint());
    hash_shared_physics(&mut h, c);
    h.u64(c.health_every as u64);
    h.u8(c.trace as u8);
    h.u64(c.metrics_every as u64);
    h.u8(c.flight_recorder as u8);
    h.u64(c.flight_buffer_events as u64);
    h.bytes(format!("{:?}{:?}", c.recv_timeout, c.fault_plan).as_bytes());
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_group, KernelVariant, RunOptions, SimulationBuilder};
    use specfem_solver::SolverError;

    fn batch_sim(event: &str) -> SimulationBuilder {
        Simulation::builder()
            .resolution(4)
            .steps(8)
            .catalogue_event(event)
            .stations(2)
    }

    #[test]
    fn batchable_screens_unsupported_configs() {
        assert!(batchable(&batch_sim("argentina_deep").build().unwrap()));
        // Still refused: per-lane data the solver does not carry yet, and
        // the one-watchdog-per-solve policy.
        for refused in [
            batch_sim("argentina_deep").attenuation(true),
            batch_sim("argentina_deep").lts_max_rate(2),
            batch_sim("argentina_deep").energy_every(5),
            batch_sim("argentina_deep").configure(|c| c.checkpoint_every = 5),
            batch_sim("argentina_deep").configure(|c| c.snapshot_every = 5),
            batch_sim("argentina_deep").watchdog_timeout(std::time::Duration::from_secs(1)),
        ] {
            assert!(!batchable(&refused.build().unwrap()));
        }
        // Lifted: everything the second loop merely never threaded through.
        for lifted in [
            batch_sim("argentina_deep").trace(true),
            batch_sim("argentina_deep").flight_recorder(true),
            batch_sim("argentina_deep").ocean_load(true),
            batch_sim("argentina_deep").overlap(false),
            batch_sim("argentina_deep")
                .configure(|c| c.fault_plan = Some(specfem_comm::FaultPlan::new(7))),
            Simulation::builder()
                .resolution(4)
                .regional(6_000_000.0)
                .steps(8),
        ] {
            assert!(batchable(&lifted.build().unwrap()));
        }
    }

    #[test]
    fn compat_key_separates_timeloop_shapes_but_not_sources() {
        let a = batch_sim("argentina_deep").build().unwrap();
        let b = batch_sim("sumatra_thrust").build().unwrap();
        // Different earthquakes, same fused loop.
        assert_eq!(batch_compat_key(&a), batch_compat_key(&b));
        // Different station *sets* still fuse (stations are per-lane).
        let c = batch_sim("argentina_deep").stations(5).build().unwrap();
        assert_eq!(batch_compat_key(&a), batch_compat_key(&c));
        // Anything shaping the shared loop splits the key.
        for other in [
            batch_sim("argentina_deep").steps(9).build().unwrap(),
            batch_sim("argentina_deep").resolution(6).build().unwrap(),
            batch_sim("argentina_deep")
                .kernel(KernelVariant::Simd)
                .build()
                .unwrap(),
            batch_sim("argentina_deep").rotation(true).build().unwrap(),
            batch_sim("argentina_deep").gravity(true).build().unwrap(),
            batch_sim("argentina_deep").health_every(4).build().unwrap(),
            batch_sim("argentina_deep")
                .configure(|c| c.record_every = 2)
                .build()
                .unwrap(),
        ] {
            assert_ne!(batch_compat_key(&a), batch_compat_key(&other));
        }
        // Unbatchable → no key at all.
        assert_eq!(
            batch_compat_key(
                &batch_sim("argentina_deep")
                    .attenuation(true)
                    .build()
                    .unwrap()
            ),
            None
        );
    }

    #[test]
    fn batched_results_match_serial_runs_bitwise() {
        let sims: Vec<Simulation> = ["argentina_deep", "sumatra_thrust"]
            .iter()
            .map(|e| batch_sim(e).build().unwrap())
            .collect();
        let refs: Vec<&Simulation> = sims.iter().collect();
        let (mesh, _) = sims[0].build_mesh();
        let results = run_group(&refs, &mesh, RunOptions::default(), None).unwrap();
        assert_eq!(results.len(), 2);
        for (sim, result) in sims.iter().zip(&results) {
            let batched = result.as_ref().unwrap();
            let serial = sim.run_serial_with_mesh(&mesh);
            assert_eq!(batched.seismograms.len(), serial.seismograms.len());
            assert_eq!(batched.dt.to_bits(), serial.dt.to_bits());
            for (b, s) in batched.seismograms.iter().zip(&serial.seismograms) {
                assert_eq!(b.station, s.station);
                assert_eq!(b.data.len(), s.data.len());
                for (bs, ss) in b.data.iter().zip(&s.data) {
                    for c in 0..3 {
                        assert_eq!(bs[c].to_bits(), ss[c].to_bits(), "station {}", b.station);
                    }
                }
            }
        }
        // Shared accounting lands on lane 0 only.
        let lane0 = results[0].as_ref().unwrap();
        let lane1 = results[1].as_ref().unwrap();
        assert!(lane0.total_flops() > 0);
        assert_eq!(lane1.total_flops(), 0);
    }

    #[test]
    fn mixed_batches_are_rejected_up_front() {
        let a = batch_sim("argentina_deep").build().unwrap();
        let b = batch_sim("sumatra_thrust").steps(9).build().unwrap();
        let (mesh, _) = a.build_mesh();
        let err = run_group(&[&a, &b], &mesh, RunOptions::default(), None).unwrap_err();
        assert!(
            matches!(&err.error, SolverError::Refused(why) if why.contains("batch-compat")),
            "got: {err:?}"
        );
        assert!(run_group(&[], &mesh, RunOptions::default(), None).is_err());
    }
}
