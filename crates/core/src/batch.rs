//! Facade-level glue for fused multi-event runs: decide which
//! [`Simulation`]s may share one solve, and run K of them as the K lanes
//! of one `specfem_solver` time loop, producing K ordinary
//! [`SimulationResult`]s.
//!
//! The campaign packer and the serve daemon only ever talk to this
//! module. The contract is the crate-wide zero-ULP one: each lane's
//! seismograms are bit-identical to the serial run of the same job, so a
//! fused answer is cached under the same `result_key` a serial answer
//! would be.

use specfem_comm::NetworkProfile;
use specfem_kernels::MAX_BATCH_LANES;
use specfem_mesh::{GlobalMesh, Partition};
use specfem_solver::{EventLane, FtOptions, LaneResult, RankResult, SolverError};

use crate::{hash_shared_physics, ResultFnv, Simulation, SimulationResult};

/// May this simulation ride as one lane of a fused solve? The solver
/// states which configurations still need per-lane data it does not carry
/// (`specfem_solver::lanes_supported`); on top of that only one policy
/// remains: a deadline-bearing request arms the straggler watchdog, which
/// is per-solve, and a fused solve must not let one lane's deadline kill
/// its siblings. Anything rejected here simply runs alone — fusing is an
/// optimization, never a requirement.
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

/// Why a batch could not even be attempted (a packing/validation error,
/// distinct from a per-lane [`SolverError`]). The caller's fallback is
/// always the same: run the jobs on the single-lane path instead.
pub type BatchSetupError = String;

/// Run `sims` — up to [`MAX_BATCH_LANES`] simulations sharing one mesh
/// and one [`batch_compat_key`] — as the lanes of a single solve. `profile
/// = None` solves serially on one in-process rank; `Some(profile)` runs
/// the mesh's native `6 × NPROC_XI²` thread world.
///
/// Returns one entry per input simulation, in order: the lane's
/// [`SimulationResult`] (bit-identical to what `run_serial_with_mesh` /
/// `run_parallel_with_mesh` would have produced), or the
/// [`SolverError::Health`] that poisoned that lane while its siblings
/// completed. A whole-batch failure (comm error, rank panic, lane
/// mismatch) surfaces as the outer `Err` so the caller can rerun the
/// jobs unfused.
///
/// Accounting follows [`LaneResult`]: what the fused loop physically
/// shares (communication and flop counters) is reported on lane 0's
/// `RankResult`s only, so summing telemetry across the returned results
/// never double-counts; wall time and the traced rank profile describe
/// the whole solve and appear on every lane.
pub fn try_run_batch_with_mesh(
    sims: &[&Simulation],
    mesh: &GlobalMesh,
    profile: Option<NetworkProfile>,
) -> Result<Vec<Result<SimulationResult, SolverError>>, BatchSetupError> {
    if sims.is_empty() {
        return Err("empty batch".into());
    }
    if sims.len() > MAX_BATCH_LANES {
        return Err(format!(
            "batch of {} lanes exceeds MAX_BATCH_LANES = {MAX_BATCH_LANES}",
            sims.len()
        ));
    }
    let key = batch_compat_key(sims[0])
        .ok_or_else(|| format!("'{}' is not batchable", lane_name(sims[0], 0)))?;
    for (i, sim) in sims.iter().enumerate() {
        match batch_compat_key(sim) {
            Some(k) if k == key => {}
            Some(_) => {
                return Err(format!(
                    "'{}' has a different batch-compat key than lane 0",
                    lane_name(sim, i)
                ))
            }
            None => return Err(format!("'{}' is not batchable", lane_name(sim, i))),
        }
        let theirs = specfem_mesh::MeshKey::new(&mesh.params, sim.model.id());
        let check = if profile.is_some() {
            sim.mesh_key().fingerprint() == theirs.fingerprint()
        } else {
            sim.mesh_key().geometry_fingerprint() == theirs.geometry_fingerprint()
        };
        if !check {
            return Err(format!(
                "'{}' was configured for a different mesh than the one supplied",
                lane_name(sim, i)
            ));
        }
    }

    let lanes: Vec<EventLane> = sims
        .iter()
        .enumerate()
        .map(|(i, sim)| EventLane {
            name: lane_name(sim, i),
            source: sim.config.source.clone(),
            stations: sim.stations.clone(),
        })
        .collect();
    // The compat key pins every shared knob, so lane 0's config
    // legitimately drives the fused loop.
    let config = &sims[0].config;
    let ft = FtOptions::default();
    let per_rank: Vec<Result<Vec<LaneResult>, SolverError>> = match profile {
        None => vec![specfem_solver::try_run_serial_lanes(
            mesh, config, &lanes, ft, false,
        )],
        Some(profile) => {
            let partition = Partition::compute(mesh);
            specfem_solver::try_run_partitioned_lanes(
                mesh, config, &lanes, profile, ft, &partition, false,
            )
            .0
        }
    };
    // Transpose rank-major lane outcomes into one result per lane; a
    // health trip on any rank fails the lane (and only it).
    let mut per_lane: Vec<Result<Vec<RankResult>, SolverError>> =
        sims.iter().map(|_| Ok(Vec::new())).collect();
    for rank in per_rank {
        let rank = rank.map_err(|e| format!("batched solve failed: {e}"))?;
        for (slot, lane) in per_lane.iter_mut().zip(rank) {
            match (slot.as_mut(), lane) {
                (Ok(ranks), Ok(r)) => ranks.push(r),
                (Ok(_), Err(report)) => *slot = Err(SolverError::Health(report)),
                (Err(_), _) => {}
            }
        }
    }
    Ok(per_lane
        .into_iter()
        .zip(sims)
        .map(|(ranks, sim)| {
            let mut ranks = ranks?;
            // Each lane keeps its *own* correlation id — the fused loop
            // shares physics knobs across lanes, but tracing identity
            // stays per-event.
            ranks
                .iter_mut()
                .for_each(|r| r.trace_id = sim.config.trace_id);
            Ok(SimulationResult::from_ranks(ranks, None, None, &sim.config))
        })
        .collect())
}

fn lane_name(sim: &Simulation, index: usize) -> String {
    match &sim.config.source {
        specfem_solver::SourceSpec::Cmt { event, .. } => event.name.clone(),
        _ => format!("lane-{index}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelVariant, SimulationBuilder};

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
        // the one-deadline-per-solve policy.
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
        let results = try_run_batch_with_mesh(&refs, &mesh, None).unwrap();
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
        let err = try_run_batch_with_mesh(&[&a, &b], &mesh, None).unwrap_err();
        assert!(err.contains("batch-compat"), "got: {err}");
        assert!(try_run_batch_with_mesh(&[], &mesh, None).is_err());
    }
}
