//! The batched tier's differential oracle — the crate's non-negotiable
//! contract: a K-event batch is **bit-identical** (zero ULP, every
//! kernel variant) to the K serial runs it replaces, on every
//! decomposition, for seismograms *and* final checkpointed fields; and
//! the halo message count per step does not depend on K.
//!
//! The single-lane reference is driven through `RankSolver` manually
//! (`new` → `step` loop → `capture_checkpoint`) so one pass yields both
//! the final fields and the station records. A fused run is the same
//! `RankSolver` with K lanes, so everything the single-lane loop admits —
//! either halo schedule, the ocean load, absorbing boundaries, fault
//! injection, tracing — is in scope here too.

use specfem_batch::EventLane;
use specfem_comm::{tags, Communicator, FaultPlan, NetworkProfile, SerialComm, ThreadWorld};
use specfem_kernels::KernelVariant;
use specfem_mesh::stations::global_network;
use specfem_mesh::{GlobalMesh, MeshParams, Partition};
use specfem_model::{builtin_events, Prem, SourceTimeFunction, StfKind};
use specfem_solver::{
    try_run_partitioned_lanes, try_run_serial_lanes, CheckpointState, FtOptions, LaneResult,
    RankSolver, SolverConfig, SolverError, SourceSpec,
};

#[path = "../../../tests/common/oracle.rs"]
mod oracle;
use oracle::assert_state_matches;

fn prem_mesh() -> GlobalMesh {
    GlobalMesh::build(&MeshParams::new(4, 1), &Prem::isotropic_no_ocean())
}

fn config(variant: KernelVariant, nsteps: usize) -> SolverConfig {
    SolverConfig {
        variant,
        nsteps,
        ..SolverConfig::default()
    }
}

/// Lane i: the i-th builtin CMT event, with a per-lane station set (the
/// sizes differ so per-lane receiver plumbing is actually exercised).
/// Past the catalogue's end the events repeat with a longer source time
/// function, so no two lanes of a wide batch carry the same wavefield.
fn lanes(n: usize) -> Vec<EventLane> {
    let events = builtin_events();
    (0..n)
        .map(|i| EventLane {
            name: format!("event-{i}"),
            source: SourceSpec::Cmt {
                event: events[i % events.len()].clone(),
                stf: SourceTimeFunction::new(
                    StfKind::Ricker,
                    200.0 + 10.0 * (i / events.len()) as f64,
                ),
            },
            stations: global_network(2 + (i % 2)),
        })
        .collect()
}

/// Single-lane serial reference: manual `RankSolver` loop, returning the
/// final fields + station records in one checkpoint container.
fn serial_state(mesh: &GlobalMesh, cfg: &SolverConfig, lane: &EventLane) -> CheckpointState {
    let cfg = SolverConfig {
        source: lane.source.clone(),
        ..cfg.clone()
    };
    let cfg = &cfg;
    let local = Partition::serial(mesh).extract(mesh, 0);
    let mut comm = SerialComm::new();
    let mut solver = RankSolver::new(local, cfg, &lane.stations, &mut comm);
    for istep in 0..cfg.nsteps {
        solver.step(istep, &mut comm).expect("serial step");
    }
    solver.capture_checkpoint(0, 1, cfg.nsteps)
}

/// The oracle table's one row: for every K in `ks`, fuse the first K
/// lanes on `partition` (a one-rank partition takes the serial driver)
/// and demand every lane's final state and seismograms be bit-identical,
/// rank by rank, to that lane's own single-lane run on the same
/// decomposition.
fn run_batch_and_compare(
    mesh: &GlobalMesh,
    cfg: &SolverConfig,
    ks: &[usize],
    partition: &Partition,
) {
    let all_lanes = lanes(*ks.iter().max().unwrap());
    let ranks = partition.num_ranks;
    // want[lane][rank] — and no lane may be vacuously quiet.
    let want: Vec<Vec<CheckpointState>> = all_lanes
        .iter()
        .map(|lane| match ranks {
            1 => vec![serial_state(mesh, cfg, lane)],
            _ => distributed_states(mesh, cfg, lane, partition),
        })
        .collect();
    for per_rank in &want {
        let moved = |s: &CheckpointState| s.displ.iter().any(|&x| x != 0.0);
        assert!(per_rank.iter().any(moved), "reference lane never moved");
    }
    for &k in ks {
        let lanes = &all_lanes[..k];
        let ft = FtOptions::default();
        let outs: Vec<Vec<LaneResult>> = match ranks {
            1 => vec![try_run_serial_lanes(mesh, cfg, lanes, ft, true).expect("batch run")],
            _ => try_run_partitioned_lanes(
                mesh,
                cfg,
                lanes,
                NetworkProfile::loopback(),
                ft,
                partition,
                true,
            )
            .0
            .into_iter()
            .map(|r| r.expect("rank ok"))
            .collect(),
        };
        assert_eq!(outs.len(), ranks);
        for (rank, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), k);
            for ((lane, result), want) in lanes.iter().zip(out).zip(&want) {
                let label = format!("k{k}/rank{rank}/{}", lane.name);
                let got = result.as_ref().expect("healthy lane");
                let want = &want[rank];
                assert_state_matches(&label, got.final_state.as_ref().unwrap(), want);
                // The packaged seismograms restate the records.
                assert_eq!(got.seismograms.len(), want.records.len());
                for (seis, (name, rec)) in got.seismograms.iter().zip(&want.records) {
                    assert_eq!(&seis.station, name);
                    assert_eq!(seis.data.len(), rec.len());
                    for (x, y) in seis.data.iter().zip(rec) {
                        for c in 0..3 {
                            assert_eq!(x[c].to_bits(), y[c].to_bits(), "{label}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn serial_batch_is_bit_identical_for_k_1_2_4_reference() {
    let mesh = prem_mesh();
    let cfg = config(KernelVariant::Reference, 10);
    run_batch_and_compare(&mesh, &cfg, &[1, 2, 4], &Partition::serial(&mesh));
}

#[test]
fn serial_batch_is_bit_identical_for_simd_and_blas_variants() {
    // Simd/BlasStyle dispatch gathers each lane through the unmodified
    // single-lane kernel, so identity must hold there too.
    let mesh = prem_mesh();
    for variant in [KernelVariant::Simd, KernelVariant::BlasStyle] {
        run_batch_and_compare(&mesh, &config(variant, 8), &[2], &Partition::serial(&mesh));
    }
}

#[test]
fn serial_batch_is_bit_identical_with_rotation_and_gravity() {
    let mesh = prem_mesh();
    let cfg = SolverConfig {
        rotation: true,
        gravity: true,
        ..config(KernelVariant::Reference, 6)
    };
    run_batch_and_compare(&mesh, &cfg, &[2], &Partition::serial(&mesh));
}

/// Lane counts whose chunk decompositions (2 + 1, 4 + 2 + 1, 8, 8 + 1)
/// reach every kernel width, remainders included, with every term of the
/// pointwise stage on.
#[test]
fn serial_batch_is_bit_identical_for_k_3_7_8_9_with_rotation_and_gravity() {
    let mesh = prem_mesh();
    let cfg = SolverConfig {
        rotation: true,
        gravity: true,
        ..config(KernelVariant::Reference, 4)
    };
    run_batch_and_compare(&mesh, &cfg, &[3, 7, 8, 9], &Partition::serial(&mesh));
}

#[test]
fn eight_lane_batch_is_bit_identical_on_six_ranks_with_overlap_on_and_off() {
    let mesh = prem_mesh();
    for overlap in [true, false] {
        let cfg = SolverConfig {
            overlap,
            rotation: true,
            gravity: true,
            ..config(KernelVariant::Reference, 4)
        };
        run_batch_and_compare(&mesh, &cfg, &[8], &Partition::compute(&mesh));
    }
}

/// What the shared loop newly admits at K > 1: K ∈ {1, 2, 4} × both halo
/// schedules × serial and a 4-rank partition, for one physics setup.
fn sweep_schedules_and_decompositions(mesh: &GlobalMesh, cfg: SolverConfig) {
    for overlap in [true, false] {
        let cfg = SolverConfig {
            overlap,
            ..cfg.clone()
        };
        for partition in [Partition::serial(mesh), Partition::balanced(mesh, 4)] {
            run_batch_and_compare(mesh, &cfg, &[1, 2, 4], &partition);
        }
    }
}

#[test]
fn fused_ocean_load_is_bit_identical_on_every_schedule_and_decomposition() {
    let cfg = SolverConfig {
        ocean_load: true,
        ..config(KernelVariant::Reference, 4)
    };
    sweep_schedules_and_decompositions(&prem_mesh(), cfg);
}

#[test]
fn fused_regional_absorbing_is_bit_identical_on_every_schedule_and_decomposition() {
    let regional = GlobalMesh::build(
        &MeshParams::regional(4, 1, 5_701_000.0),
        &Prem::isotropic_no_ocean(),
    );
    sweep_schedules_and_decompositions(&regional, config(KernelVariant::Reference, 4));
}

#[test]
fn fused_rotation_and_gravity_are_bit_identical_on_every_schedule_and_decomposition() {
    let cfg = SolverConfig {
        rotation: true,
        gravity: true,
        ..config(KernelVariant::Reference, 4)
    };
    sweep_schedules_and_decompositions(&prem_mesh(), cfg);
}

/// Single-lane distributed reference on an explicit partition: manual
/// per-rank `RankSolver` loops capturing each rank's final state.
fn distributed_states(
    mesh: &GlobalMesh,
    cfg: &SolverConfig,
    lane: &EventLane,
    partition: &Partition,
) -> Vec<CheckpointState> {
    let cfg = &SolverConfig {
        source: lane.source.clone(),
        ..cfg.clone()
    };
    let nranks = partition.num_ranks;
    let raw = ThreadWorld::try_run(nranks, NetworkProfile::loopback(), |mut base| {
        base.set_recv_timeout(cfg.recv_timeout);
        let rank = base.rank();
        let local = partition.extract(mesh, rank);
        let mut solver = RankSolver::new(local, cfg, &lane.stations, &mut base);
        for istep in 0..cfg.nsteps {
            solver.step(istep, &mut base).expect("distributed step");
        }
        solver.capture_checkpoint(rank, nranks, cfg.nsteps)
    });
    raw.into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("rank {} panicked: {}", p.rank, p.message)))
        .collect()
}

#[test]
fn distributed_batch_is_bit_identical_per_rank_and_per_lane() {
    let mesh = prem_mesh();
    let cfg = config(KernelVariant::Reference, 6);
    run_batch_and_compare(&mesh, &cfg, &[4], &Partition::compute(&mesh));
}

#[test]
fn halo_message_count_is_independent_of_lane_count() {
    let mesh = prem_mesh();
    let partition = Partition::compute(&mesh);
    let cfg = config(KernelVariant::Reference, 4);
    let run = |k: usize| {
        try_run_partitioned_lanes(
            &mesh,
            &cfg,
            &lanes(k),
            NetworkProfile::loopback(),
            FtOptions::default(),
            &partition,
            false,
        )
        .0
        .into_iter()
        // What the lanes share is reported on the first (healthy) lane.
        .map(|r| r.expect("rank ok")[0].as_ref().unwrap().comm.clone())
        .collect::<Vec<_>>()
    };
    let k1 = run(1);
    let k2 = run(2);
    let k4 = run(4);

    for rank in 0..partition.num_ranks {
        // Posted message count per step is independent of K...
        assert_eq!(k1[rank].messages_sent, k2[rank].messages_sent);
        assert_eq!(k2[rank].messages_sent, k4[rank].messages_sent);
        // (a one-lane run *is* the plain solver, so its halo traffic rides
        // the single-lane tags; fused runs use the batched ones)
        for (single, tag) in [
            (tags::HALO_SOLID, tags::HALO_BATCHED_SOLID),
            (tags::HALO_FLUID, tags::HALO_BATCHED_FLUID),
        ] {
            let (m1, b1) = k1[rank].tag_traffic(single);
            let (m2, b2) = k2[rank].tag_traffic(tag);
            let (m4, b4) = k4[rank].tag_traffic(tag);
            assert!(m1 > 0, "rank {rank} tag {single} sent no halo messages");
            assert_eq!(m1, m2, "rank {rank} tag {tag} message count");
            assert_eq!(m2, m4, "rank {rank} tag {tag} message count");
            // ...while the bytes scale exactly linearly with K.
            assert_eq!(b2, 2 * b1, "rank {rank} tag {tag} bytes");
            assert_eq!(b4, 2 * b2, "rank {rank} tag {tag} bytes");
            assert_eq!(k1[rank].tag_traffic(tag).0, 0);
            // The single-lane tags are silent on a fused run.
            assert_eq!(k4[rank].tag_traffic(single).0, 0);
        }
    }
}

#[test]
fn poisoned_lane_fails_alone_and_siblings_stay_bit_identical() {
    let mesh = prem_mesh();
    let cfg = SolverConfig {
        health_every: 2,
        ..config(KernelVariant::Reference, 8)
    };
    let mut batch_lanes = lanes(3);
    // Poison the middle lane: a NaN force nukes its own wavefield at the
    // first source application but must never leak into siblings.
    batch_lanes[1].source = SourceSpec::PointForce {
        position: [0.0, 0.0, 5.8e6],
        force: [f64::NAN, 0.0, 1.0e18],
        stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
    };
    let out = try_run_serial_lanes(&mesh, &cfg, &batch_lanes, FtOptions::default(), true)
        .expect("batch completes despite the poisoned lane");
    let report = out[1].as_ref().expect_err("lane 1 must trip");
    assert_eq!(report.rank, 0);
    assert!(!report.field.is_empty());
    for lane_idx in [0usize, 2] {
        let got = out[lane_idx].as_ref().expect("sibling completes");
        let want = serial_state(&mesh, &cfg, &batch_lanes[lane_idx]);
        assert_state_matches(
            &batch_lanes[lane_idx].name,
            got.final_state.as_ref().unwrap(),
            &want,
        );
    }
}

#[test]
fn rank_kill_on_a_fused_batch_is_a_typed_error_on_every_rank() {
    let mesh = prem_mesh();
    let cfg = SolverConfig {
        fault_plan: Some(FaultPlan::new(0xDEAD_BEEF).kill(1, 3)),
        recv_timeout: Some(std::time::Duration::from_secs(5)),
        ..config(KernelVariant::Reference, 8)
    };
    let (outs, _) = try_run_partitioned_lanes(
        &mesh,
        &cfg,
        &lanes(2),
        NetworkProfile::loopback(),
        FtOptions::default(),
        &Partition::balanced(&mesh, 4),
        false,
    );
    assert_eq!(outs.len(), 4);
    for (rank, out) in outs.iter().enumerate() {
        match out {
            Err(SolverError::Comm(_) | SolverError::RankPanicked { .. }) => {}
            other => panic!("rank {rank} must end in a typed comm failure, got {other:?}"),
        }
    }
}

#[test]
fn armed_tracer_and_flight_recorder_leave_a_fused_batch_bit_identical() {
    let mesh = prem_mesh();
    let run = |armed: bool| {
        let cfg = SolverConfig {
            trace: armed,
            flight_recorder: armed,
            ..config(KernelVariant::Reference, 6)
        };
        try_run_serial_lanes(&mesh, &cfg, &lanes(2), FtOptions::default(), true).expect("batch run")
    };
    let (armed, disarmed) = (run(true), run(false));
    for (a, d) in armed.iter().zip(&disarmed) {
        let (a, d) = (a.as_ref().unwrap(), d.as_ref().unwrap());
        assert!(a.profile.is_some() && d.profile.is_none());
        assert_state_matches(
            "armed vs disarmed",
            a.final_state.as_ref().unwrap(),
            d.final_state.as_ref().unwrap(),
        );
    }
}

#[test]
fn unsupported_configs_are_rejected() {
    use specfem_solver::lanes_supported;
    type Set = fn(&mut SolverConfig);
    // Every remaining refusal names the per-lane data the fields lack...
    let refused: [(Set, &str); 6] = [
        (|c| c.attenuation = true, "per-lane SLS memory"),
        (|c| c.lts_max_rate = 2, "per-lane frozen force"),
        (|c| c.lts_all_rate_one = true, "per-lane frozen force"),
        (|c| c.checkpoint_every = 5, "per-lane field container"),
        (|c| c.energy_every = 5, "per-lane energy series"),
        (|c| c.snapshot_every = 5, "per-lane snapshot series"),
    ];
    for (set, names) in refused {
        let mut cfg = SolverConfig::default();
        set(&mut cfg);
        let err = lanes_supported(&cfg, 2).expect_err(names);
        assert!(err.contains(names), "{names}: {err}");
        // ...and only applies to fused runs.
        assert!(lanes_supported(&cfg, 1).is_ok(), "{names}");
    }
    // ...each lifted one now passes the screen (and runs: see the
    // `fused_*`, `rank_kill_*` and `armed_*` cases above).
    let lifted: [Set; 5] = [
        |c| c.ocean_load = true,
        |c| c.overlap = false,
        |c| c.fault_plan = Some(FaultPlan::new(1)),
        |c| c.trace = true,
        |c| c.flight_recorder = true,
    ];
    for set in lifted {
        let mut cfg = SolverConfig::default();
        set(&mut cfg);
        assert!(lanes_supported(&cfg, 4).is_ok());
    }
    assert!(lanes_supported(&SolverConfig::default(), 0).is_err());
    assert!(lanes_supported(&SolverConfig::default(), 33).is_err());
}
