//! The differential harness for the non-blocking halo exchange: the same
//! simulation run with `overlap` on and off must produce bit-identical
//! seismograms *and* bit-identical final wave fields on every rank — on a
//! fluid-coupled PREM mesh and a purely solid homogeneous mesh, at two
//! decompositions (6 and 24 ranks).
//!
//! Why this can be exact (not just "close"): float addition is not
//! associative, so the solver keeps the per-point accumulation order —
//! boundary/source terms, then outer elements, then inner elements, then
//! received halo partials in ascending neighbor order — identical in both
//! paths. Any reordering regression shows up here as a ULP-level diff.

use std::collections::HashMap;

use specfem_core::comm::NetworkProfile;
use specfem_core::mesh::stations::Station;
use specfem_core::mesh::{GlobalMesh, MeshParams};
use specfem_core::model::{HomogeneousModel, Prem, SourceTimeFunction, StfKind};
use specfem_core::solver::checkpoint::{CheckpointSink, CheckpointState};
use specfem_core::solver::{
    merge_seismograms, try_run_distributed, FtOptions, Seismogram, SolverConfig, SourceSpec,
};

#[path = "common/oracle.rs"]
mod oracle;
use oracle::FinalStates;

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

/// Run distributed with the given overlap setting; return merged
/// seismograms and every rank's full final field state.
fn run(
    mesh: &GlobalMesh,
    config: &SolverConfig,
    overlap: bool,
) -> (Vec<Seismogram>, HashMap<usize, CheckpointState>) {
    let mut config = config.clone();
    config.overlap = overlap;
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
    (merge_seismograms(&ranks), store.collected())
}

/// The harness: run both paths, demand bit-identity everywhere.
fn assert_overlap_equivalent(mesh: &GlobalMesh, config: &SolverConfig) {
    let (seis_block, fields_block) = run(mesh, config, false);
    let (seis_over, fields_over) = run(mesh, config, true);

    // Seismograms: every sample bit-identical.
    oracle::assert_seismograms_bits_eq("blocking vs overlapped", &seis_block, &seis_over);

    // Final fields: every component of every rank's state bit-identical.
    assert_eq!(fields_block.len(), fields_over.len());
    for (rank, a) in &fields_block {
        let b = &fields_over[rank];
        oracle::assert_fields_bits_eq(&format!("rank {rank}"), a, b);
    }
}

fn point_force(period_s: f64) -> SourceSpec {
    SourceSpec::PointForce {
        position: [0.0, 0.0, 5.8e6],
        force: [0.0, 0.0, 1.0e18],
        stf: SourceTimeFunction::new(StfKind::Ricker, period_s),
    }
}

#[test]
fn prem_fluid_coupled_6_ranks_bit_identical() {
    let mesh = GlobalMesh::build(&MeshParams::new(4, 1), &Prem::isotropic_no_ocean());
    let config = SolverConfig {
        nsteps: 30,
        attenuation: true, // memory-variable updates must split cleanly too
        source: point_force(200.0),
        ..SolverConfig::default()
    };
    assert_overlap_equivalent(&mesh, &config);
}

#[test]
fn prem_fluid_coupled_24_ranks_bit_identical() {
    let mesh = GlobalMesh::build(&MeshParams::new(4, 2), &Prem::isotropic_no_ocean());
    let config = SolverConfig {
        nsteps: 12,
        source: point_force(200.0),
        ..SolverConfig::default()
    };
    assert_overlap_equivalent(&mesh, &config);
}

#[test]
fn homogeneous_solid_6_ranks_bit_identical() {
    let mesh = GlobalMesh::build(&MeshParams::new(4, 1), &HomogeneousModel::default());
    let config = SolverConfig {
        nsteps: 30,
        source: point_force(200.0),
        ..SolverConfig::default()
    };
    assert_overlap_equivalent(&mesh, &config);
}

#[test]
fn homogeneous_solid_24_ranks_bit_identical() {
    let mesh = GlobalMesh::build(&MeshParams::new(4, 2), &HomogeneousModel::default());
    let config = SolverConfig {
        nsteps: 12,
        source: point_force(200.0),
        ..SolverConfig::default()
    };
    assert_overlap_equivalent(&mesh, &config);
}
