//! The clustered-LTS differential oracle (DESIGN.md §3f): with every
//! element forced to rate 1 (`lts_all_rate_one`), the LTS timeloop —
//! per-cluster contribution kernels, frozen buffers, canonical scatter —
//! must be **bit-identical** to the plain timeloop on seismograms and
//! final checkpointed fields, for both kernel families, serial and
//! partitioned, overlapped and blocking. The multi-rate path is validated
//! against the global-min-dt reference within a stated tolerance, and the
//! checkpoint alignment rules (cap divides `checkpoint_every`, resume only
//! at full-cycle boundaries) are enforced as typed failures.

use std::collections::HashMap;

use specfem_comm::SerialComm;
use specfem_core::comm::NetworkProfile;
use specfem_core::kernels::KernelVariant;
use specfem_core::mesh::stations::Station;
use specfem_core::mesh::{GlobalMesh, MeshParams, Partition};
use specfem_core::model::{Prem, SourceTimeFunction, StfKind};
use specfem_core::solver::checkpoint::{CheckpointSink, CheckpointState};
use specfem_core::solver::{
    merge_seismograms, try_run_distributed, FtOptions, RankSolver, Seismogram, SolverConfig,
    SolverError, SourceSpec,
};

#[path = "common/oracle.rs"]
mod oracle;
use oracle::FinalStates;

fn prem_mesh(nproc: usize) -> GlobalMesh {
    GlobalMesh::build(&MeshParams::new(4, nproc), &Prem::isotropic_no_ocean())
}

fn point_force() -> SourceSpec {
    SourceSpec::PointForce {
        position: [0.0, 0.0, 5.8e6],
        force: [0.0, 0.0, 1.0e18],
        stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
    }
}

fn stations() -> Vec<Station> {
    vec![
        Station {
            name: "NEAR".into(),
            lat_deg: 55.0,
            lon_deg: 15.0,
        },
        Station {
            name: "FAR".into(),
            lat_deg: -40.0,
            lon_deg: 130.0,
        },
    ]
}

fn base_config(nsteps: usize) -> SolverConfig {
    SolverConfig {
        nsteps,
        source: point_force(),
        ..SolverConfig::default()
    }
}

/// Serial manual `RankSolver` loop capturing final fields + records.
fn serial_state(mesh: &GlobalMesh, config: &SolverConfig) -> CheckpointState {
    let local = Partition::serial(mesh).extract(mesh, 0);
    let mut comm = SerialComm::new();
    let mut solver = RankSolver::new(local, config, &stations(), &mut comm);
    for istep in 0..config.nsteps {
        solver.step(istep, &mut comm).expect("serial step");
    }
    solver.capture_checkpoint(0, 1, config.nsteps)
}

/// The serial rate-1 harness: plain vs all-rate-one LTS must be 0-ULP.
fn assert_rate1_serial_identical(config: &SolverConfig, label: &str) {
    let mesh = prem_mesh(1);
    let plain = serial_state(&mesh, config);
    let lts_cfg = SolverConfig {
        lts_all_rate_one: true,
        ..config.clone()
    };
    let lts = serial_state(&mesh, &lts_cfg);
    oracle::assert_state_matches(label, &lts, &plain);
    match (&plain.atten_memory, &lts.atten_memory) {
        (Some(a), Some(b)) => oracle::assert_bits_eq(&format!("{label}.atten_memory"), a, b),
        (None, None) => {}
        _ => panic!("{label}: attenuation memory presence differs"),
    }
}

#[test]
fn rate1_lts_is_bit_identical_serial_reference_kernels() {
    let config = SolverConfig {
        attenuation: true, // memory-variable updates must move to LTS cleanly
        ..base_config(20)
    };
    assert_rate1_serial_identical(&config, "rate1/reference");
}

#[test]
fn rate1_lts_is_bit_identical_serial_simd_kernels() {
    let config = SolverConfig {
        variant: KernelVariant::Simd,
        ..base_config(20)
    };
    assert_rate1_serial_identical(&config, "rate1/simd");
}

#[test]
fn rate1_lts_is_bit_identical_with_gravity_and_rotation() {
    // Gravity exercises the `−accum + body` emit expression; rotation the
    // corrector (untouched by LTS, but the fields feeding it must match).
    let config = SolverConfig {
        gravity: true,
        rotation: true,
        ..base_config(12)
    };
    assert_rate1_serial_identical(&config, "rate1/gravity+rotation");
}

#[test]
fn rate1_lts_blocking_path_is_bit_identical() {
    let config = SolverConfig {
        overlap: false,
        ..base_config(16)
    };
    assert_rate1_serial_identical(&config, "rate1/blocking");
}

/// Distributed run returning merged seismograms, per-rank final states,
/// and per-rank posted message counts.
fn run_partitioned(
    mesh: &GlobalMesh,
    config: &SolverConfig,
) -> (Vec<Seismogram>, HashMap<usize, CheckpointState>, Vec<u64>) {
    let mut config = config.clone();
    config.checkpoint_every = config.nsteps; // exactly one final capture
    let store = FinalStates::default();
    let sink_store = store.clone();
    let sink_factory = move |rank: usize| -> Box<dyn CheckpointSink> { sink_store.sink(rank) };
    let (results, _) = try_run_distributed(
        mesh,
        &config,
        &stations(),
        NetworkProfile::loopback(),
        FtOptions {
            sink_factory: Some(&sink_factory),
            restore: None,
            flight: None,
        },
    );
    let ranks: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("every rank must finish"))
        .collect();
    let messages = ranks.iter().map(|r| r.comm.messages_sent).collect();
    (merge_seismograms(&ranks), store.collected(), messages)
}

#[test]
fn rate1_lts_is_bit_identical_partitioned_with_unchanged_message_counts() {
    let mesh = prem_mesh(1); // 6 ranks
    let config = base_config(12);
    let (seis_plain, fields_plain, msgs_plain) = run_partitioned(&mesh, &config);
    let lts_cfg = SolverConfig {
        lts_all_rate_one: true,
        ..config
    };
    let (seis_lts, fields_lts, msgs_lts) = run_partitioned(&mesh, &lts_cfg);

    oracle::assert_seismograms_bits_eq("partitioned rate1", &seis_plain, &seis_lts);
    assert_eq!(fields_plain.len(), fields_lts.len());
    for (rank, a) in &fields_plain {
        oracle::assert_fields_bits_eq(&format!("rank {rank}"), a, &fields_lts[rank]);
    }
    // LTS gates only the kernels; the halo exchange runs every fine step,
    // so the posted message count per rank must not change.
    assert_eq!(msgs_plain, msgs_lts, "LTS must not change halo traffic");
}

#[test]
fn multi_rate_lts_tracks_the_global_min_dt_reference() {
    // The real multi-rate scheme (frozen forces on coarse clusters) is an
    // approximation; it must stay within a small fraction of the peak
    // amplitude of the global-min-dt reference over a physically meaningful
    // run — the tolerance stated in EXPERIMENTS.md E-LTS.
    let mesh = prem_mesh(1);
    let config = SolverConfig {
        attenuation: true, // per-level recursion constants in play
        ..base_config(60)
    };
    let reference = serial_state(&mesh, &config);
    let lts_cfg = SolverConfig {
        lts_max_rate: 4,
        ..config
    };
    let lts = serial_state(&mesh, &lts_cfg);
    assert_eq!(reference.records.len(), lts.records.len());
    for ((name_a, rec_a), (name_b, rec_b)) in reference.records.iter().zip(&lts.records) {
        assert_eq!(name_a, name_b);
        let scale = rec_a
            .iter()
            .flat_map(|v| v.iter())
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1e-20);
        for (va, vb) in rec_a.iter().zip(rec_b) {
            for c in 0..3 {
                assert!(
                    (va[c] - vb[c]).abs() <= 0.05 * scale,
                    "station {name_a}: reference {} vs LTS {} (scale {scale})",
                    va[c],
                    vb[c]
                );
            }
        }
    }
}

#[test]
fn multi_rate_run_reports_lts_telemetry() {
    let mesh = prem_mesh(1);
    let config = SolverConfig {
        lts_max_rate: 4,
        ..base_config(8)
    };
    let (results, _) = try_run_distributed(
        &mesh,
        &config,
        &stations(),
        NetworkProfile::loopback(),
        FtOptions::default(),
    );
    let mut any_multi_rate = false;
    for r in results {
        let r = r.expect("rank ok");
        let lts = r.lts.expect("LTS telemetry present");
        assert_eq!(lts.max_rate, 4);
        assert!(!lts.levels.is_empty());
        assert!(lts
            .levels
            .iter()
            .all(|&(rate, _)| rate.is_power_of_two() && rate <= 4));
        assert_eq!(lts.element_steps_total, (r.nspec * r.nsteps) as u64);
        if lts.levels.iter().any(|&(rate, _)| rate > 1) {
            any_multi_rate = true;
            assert!(lts.element_steps_saved > 0);
            assert!(lts.theoretical_speedup > 1.0);
        }
    }
    assert!(
        any_multi_rate,
        "PREM NEX-4 must produce a multi-rate spread"
    );
}

#[test]
fn plain_runs_carry_no_lts_telemetry() {
    let mesh = prem_mesh(1);
    let local = Partition::serial(&mesh).extract(&mesh, 0);
    let mut comm = SerialComm::new();
    let solver = RankSolver::new(local, &base_config(2), &stations(), &mut comm);
    let result = solver.run(&mut comm);
    assert!(result.lts.is_none());
}

#[test]
#[should_panic(expected = "CHECKPOINT_EVERY")]
fn misaligned_checkpoint_interval_is_rejected_at_setup() {
    let mesh = prem_mesh(1);
    let local = Partition::serial(&mesh).extract(&mesh, 0);
    let config = SolverConfig {
        lts_max_rate: 4,
        checkpoint_every: 6, // not a multiple of the cap
        ..base_config(12)
    };
    let mut comm = SerialComm::new();
    let _ = RankSolver::new(local, &config, &[], &mut comm);
}

#[test]
fn misaligned_resume_step_is_a_typed_checkpoint_error() {
    let mesh = prem_mesh(1);
    let config = SolverConfig {
        lts_max_rate: 4,
        checkpoint_every: 8,
        ..base_config(16)
    };
    let local = Partition::serial(&mesh).extract(&mesh, 0);
    let mut comm = SerialComm::new();
    let mut solver = RankSolver::new(local, &config, &[], &mut comm);
    // A full-cycle boundary restores fine...
    let aligned = solver.capture_checkpoint(0, 1, 8);
    solver.restore_from(aligned).expect("aligned resume");
    // ...a mid-cycle step must be refused: the frozen contribution buffers
    // are not persisted, so resuming there would run on stale forces.
    let mut misaligned = solver.capture_checkpoint(0, 1, 8);
    misaligned.next_step = 10;
    match solver.restore_from(misaligned) {
        Err(SolverError::Checkpoint(e)) => {
            assert!(e.to_string().contains("full-cycle"), "{e}");
        }
        other => panic!("expected a typed checkpoint error, got {other:?}"),
    }
}
