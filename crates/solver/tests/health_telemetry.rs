//! In-flight health-telemetry integration tests: an injected NaN aborts
//! the step loop with a structured [`specfem_solver::HealthReport`], an
//! injected straggler trips the watchdog's gauges and escalates to typed
//! [`CommError::Stalled`] errors instead of a hang, a killed rank under
//! an armed watchdog still surfaces typed errors, and — the differential
//! guarantee — arming the telemetry leaves the physics bit-identical.

use std::time::Duration;

use specfem_comm::{CommError, FaultPlan, NetworkProfile, SerialComm};
use specfem_mesh::stations::Station;
use specfem_mesh::{GlobalMesh, MeshParams, Partition};
use specfem_model::{Prem, SourceTimeFunction, StfKind};
use specfem_solver::{
    merge_seismograms, run_distributed, try_run_distributed, FtOptions, HealthTrip, RankSolver,
    SolverConfig, SolverError, SourceSpec,
};

fn test_mesh() -> GlobalMesh {
    let params = MeshParams::new(4, 1);
    GlobalMesh::build(&params, &Prem::isotropic_no_ocean())
}

fn test_config(nsteps: usize) -> SolverConfig {
    SolverConfig {
        nsteps,
        source: SourceSpec::PointForce {
            position: [0.0, 0.0, 5.8e6],
            force: [0.0, 0.0, 1.0e18],
            stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
        },
        ..SolverConfig::default()
    }
}

fn test_stations() -> Vec<Station> {
    vec![
        Station {
            name: "NEAR".into(),
            lat_deg: 60.0,
            lon_deg: 10.0,
        },
        Station {
            name: "FAR".into(),
            lat_deg: -45.0,
            lon_deg: 120.0,
        },
    ]
}

/// Acceptance: a NaN injected into the displacement field aborts the run
/// at the next health sample with a report naming rank, step, field, and
/// the element holding the poisoned grid point.
#[test]
fn injected_nan_aborts_with_a_structured_health_report() {
    let mesh = test_mesh();
    let stations = test_stations();
    let mut config = test_config(8);
    config.health_every = 4; // samples at steps 0 and 4

    let mut comm = SerialComm::new();
    let local = Partition::serial(&mesh).extract(&mesh, 0);
    let mut solver = RankSolver::new(local, &config, &stations, &mut comm);
    let poison = solver.fields.displ.len() / 2;
    solver.fields.displ[poison] = f32::NAN;

    let err = solver
        .try_run(&mut comm, None)
        .expect_err("a poisoned field must abort the run");
    match err {
        SolverError::Health(report) => {
            assert_eq!(report.trip, HealthTrip::Nan);
            assert_eq!(report.rank, 0);
            assert_eq!(report.step, 0, "first sample after the poisoned step");
            assert_eq!(report.field, "displ", "displ is scanned first");
            assert!(
                report.element.is_some(),
                "the trip must be attributed to a local element: {report}"
            );
            let text = report.to_string();
            assert!(text.contains("rank 0"), "{text}");
            assert!(text.contains("step 0"), "{text}");
            assert!(text.contains("NaN"), "{text}");
        }
        other => panic!("expected SolverError::Health, got: {other}"),
    }
}

/// A healthy run with the monitor armed at the same cadence finishes —
/// the monitor only trips on genuine blow-ups.
#[test]
fn healthy_run_passes_the_armed_monitor() {
    let mesh = test_mesh();
    let stations = test_stations();
    let mut config = test_config(8);
    config.health_every = 2;

    let mut comm = SerialComm::new();
    let local = Partition::serial(&mesh).extract(&mesh, 0);
    let solver = RankSolver::new(local, &config, &stations, &mut comm);
    let result = solver
        .try_run(&mut comm, None)
        .expect("a healthy run must not trip the monitor");
    assert_eq!(result.nsteps, 8);
}

/// Acceptance: a rank slowed by an injected per-message delay trips the
/// straggler watchdog — the report carries the skew/stall gauges and the
/// escalation surfaces on other ranks as typed [`CommError::Stalled`]
/// instead of a silent hang.
#[test]
fn delayed_rank_trips_the_watchdog_and_escalates() {
    let mesh = test_mesh();
    let stations = test_stations();
    let mut config = test_config(400); // far more steps than can finish
    config.watchdog_timeout = Some(Duration::from_millis(150));
    // Fallback so a watchdog bug cannot wedge the test suite.
    config.recv_timeout = Some(Duration::from_secs(10));
    // From step 2 on, every message rank 1 sends sleeps 100 ms: with
    // several halo messages per step its heartbeat age blows far past
    // the 150 ms stall threshold.
    config.fault_plan = Some(FaultPlan::new(0xC0FF_EE00).delay(1, 2, 1000, 100_000));

    let (results, report) = try_run_distributed(
        &mesh,
        &config,
        &stations,
        NetworkProfile::loopback(),
        FtOptions::default(),
    );
    let report = report.expect("an armed watchdog must produce a report");

    assert!(report.stalled(), "{report:?}");
    assert!(report.polls > 0);
    assert!(report
        .metrics
        .gauges
        .contains_key("watchdog.max_skew_steps"));
    assert!(report.metrics.gauges["watchdog.stalled_ranks"] >= 1.0);
    for rank in 0..results.len() {
        let key = format!("watchdog.rank{rank}.last_step");
        assert!(report.metrics.gauges.contains_key(key.as_str()), "{key}");
    }

    // Escalation aborts the world with typed errors — nobody finishes
    // 400 delayed steps and nobody panics.
    assert!(results.iter().all(|r| r.is_err()), "{report:?}");
    let stalled = results
        .iter()
        .filter(|r| matches!(r, Err(SolverError::Comm(CommError::Stalled { .. }))))
        .count();
    assert!(
        stalled >= 1,
        "at least one rank must surface the typed stall escalation"
    );
    assert!(
        !results
            .iter()
            .any(|r| matches!(r, Err(SolverError::RankPanicked { .. }))),
        "escalation must be typed errors, not panics"
    );
}

/// Acceptance: a rank killed mid-run under an armed watchdog surfaces as
/// typed [`CommError`]s on every rank — the world tears down instead of
/// hanging, and the report records where the dead rank stopped.
#[test]
fn killed_rank_surfaces_typed_errors_without_hanging() {
    let mesh = test_mesh();
    let stations = test_stations();
    let mut config = test_config(60);
    config.watchdog_timeout = Some(Duration::from_millis(250));
    config.recv_timeout = Some(Duration::from_secs(2));
    config.fault_plan = Some(FaultPlan::new(0xDEAD_0002).kill(2, 5));

    let (results, report) = try_run_distributed(
        &mesh,
        &config,
        &stations,
        NetworkProfile::loopback(),
        FtOptions::default(),
    );
    let report = report.expect("an armed watchdog must produce a report");

    assert!(results.iter().all(|r| r.is_err()), "{report:?}");
    for r in &results {
        match r {
            Err(SolverError::Comm(_)) => {}
            Err(other) => panic!("expected typed comm errors, got: {other}"),
            Ok(r) => panic!("rank {} must not finish a killed run", r.rank),
        }
    }
    // The dead rank's final heartbeat precedes the kill step.
    if let Some(last) = report.last_steps[2] {
        assert!(last <= 5, "rank 2 was killed at step 5, beat {last}");
    }
}

/// The differential guarantee: arming the health monitor and the
/// watchdog on a healthy run changes nothing — seismograms are
/// bit-identical to the telemetry-off run, so the monitors are provably
/// read-only observers of the physics.
#[test]
fn armed_telemetry_is_bit_identical_to_disabled() {
    let mesh = test_mesh();
    let stations = test_stations();
    let nsteps = 12;

    // Telemetry off: health_every = 0, no watchdog (the pre-PR path).
    let baseline = run_distributed(
        &mesh,
        &test_config(nsteps),
        &stations,
        NetworkProfile::loopback(),
    );
    let baseline = merge_seismograms(&baseline);

    // Telemetry armed: sampling every 3 steps plus a watchdog generous
    // enough never to fire on a healthy run.
    let mut armed_config = test_config(nsteps);
    armed_config.health_every = 3;
    armed_config.watchdog_timeout = Some(Duration::from_secs(30));
    let (armed, report) = try_run_distributed(
        &mesh,
        &armed_config,
        &stations,
        NetworkProfile::loopback(),
        FtOptions::default(),
    );
    let report = report.expect("watchdog armed");
    assert!(!report.stalled(), "{report:?}");
    let armed: Vec<_> = armed
        .into_iter()
        .map(|r| r.expect("healthy telemetry run must finish"))
        .collect();
    let armed = merge_seismograms(&armed);

    assert_eq!(baseline.len(), armed.len());
    for (a, b) in baseline.iter().zip(&armed) {
        assert_eq!(a.station, b.station);
        assert_eq!(a.data.len(), b.data.len());
        for (va, vb) in a.data.iter().zip(&b.data) {
            for c in 0..3 {
                assert_eq!(
                    va[c].to_bits(),
                    vb[c].to_bits(),
                    "station {}: telemetry must be bit-transparent ({} vs {})",
                    a.station,
                    va[c],
                    vb[c]
                );
            }
        }
    }
}
