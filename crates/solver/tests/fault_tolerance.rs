//! Fault-tolerance integration tests: a killed-then-resumed distributed run
//! reproduces the uninterrupted run bit-for-bit. (The durable checkpoint
//! format's own round-trip and corruption properties are tested next to it,
//! in `specfem-io`.)

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use specfem_comm::{FaultPlan, NetworkProfile};
use specfem_mesh::stations::Station;
use specfem_mesh::{GlobalMesh, LocalMesh, MeshParams};
use specfem_model::{Prem, SourceTimeFunction, StfKind};
use specfem_solver::checkpoint::{CheckpointError, CheckpointSink, CheckpointState};
use specfem_solver::timeloop::merge_seismograms;
use specfem_solver::{
    run_distributed, try_run_distributed, FtOptions, SolverConfig, SolverError, SourceSpec,
};

/// In-memory per-rank checkpoint store shared across the thread world —
/// the `CheckpointStore` shape without touching disk.
#[derive(Clone, Default)]
struct SharedStore {
    states: Arc<Mutex<HashMap<(usize, usize), CheckpointState>>>,
}

struct SharedSink {
    rank: usize,
    store: SharedStore,
}

impl CheckpointSink for SharedSink {
    fn write(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        self.store
            .states
            .lock()
            .unwrap()
            .insert((state.next_step, self.rank), state.clone());
        Ok(())
    }
}

impl SharedStore {
    /// Newest step all `nranks` ranks have written.
    fn latest_complete(&self, nranks: usize) -> Option<usize> {
        let states = self.states.lock().unwrap();
        let mut steps: Vec<usize> = states.keys().map(|&(s, _)| s).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
            .into_iter()
            .rev()
            .find(|&s| (0..nranks).all(|r| states.contains_key(&(s, r))))
    }

    fn load(&self, step: usize, rank: usize) -> Option<CheckpointState> {
        self.states.lock().unwrap().get(&(step, rank)).cloned()
    }
}

fn test_mesh() -> GlobalMesh {
    let params = MeshParams::new(4, 1);
    GlobalMesh::build(&params, &Prem::isotropic_no_ocean())
}

fn test_config(nsteps: usize) -> SolverConfig {
    SolverConfig {
        nsteps,
        attenuation: true, // exercise the memory-variable restore path
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

/// The acceptance test: a run killed at step 17 by a deterministic fault
/// plan, restarted from the last complete checkpoint, must reproduce the
/// uninterrupted run's seismograms bit-for-bit. The reference runs the
/// *blocking* halo path while the killed and resumed runs use the default
/// overlapped path — so the comparison also proves a checkpointed job
/// retried through the overlapped path reproduces the blocking oracle.
#[test]
fn killed_run_resumes_bit_identical() {
    let mesh = test_mesh();
    let stations = test_stations();
    let nranks = 6; // 6 cubed-sphere chunks at NPROC_XI = 1
    let nsteps = 30;

    // Reference: uninterrupted, blocking halo exchange (the oracle).
    let mut reference_config = test_config(nsteps);
    reference_config.overlap = false;
    let reference = run_distributed(
        &mesh,
        &reference_config,
        &stations,
        NetworkProfile::loopback(),
    );
    let reference = merge_seismograms(&reference);

    // Crash run: checkpoint every 10 steps, rank 2 dies at step 17.
    let store = SharedStore::default();
    let mut config = test_config(nsteps);
    config.checkpoint_every = 10;
    config.recv_timeout = Some(std::time::Duration::from_secs(2));
    config.fault_plan = Some(FaultPlan::new(0xDEAD_BEEF).kill(2, 17));
    let sink_store = store.clone();
    let sink_factory = move |rank: usize| -> Box<dyn CheckpointSink> {
        Box::new(SharedSink {
            rank,
            store: sink_store.clone(),
        })
    };
    let (results, _) = try_run_distributed(
        &mesh,
        &config,
        &stations,
        NetworkProfile::loopback(),
        FtOptions {
            sink_factory: Some(&sink_factory),
            restore: None,
            flight: None,
        },
    );
    assert!(
        results.iter().any(|r| r.is_err()),
        "the fault plan must kill the run"
    );
    let died = results.iter().filter(|r| r.is_err()).count();
    assert!(died >= 1, "at least the dead rank must error, got {died}");
    if let Some(r) = results.iter().flatten().next() {
        panic!(
            "no rank should finish a 30-step run killed at 17: {:?}",
            r.rank
        );
    }

    // The last complete checkpoint is step 10 (death at 17 precedes the
    // step-20 checkpoint everywhere, because the halo exchange couples all
    // ranks every step).
    assert_eq!(store.latest_complete(nranks), Some(10));

    // Resume: same mesh + config, no fault plan, restore from the store.
    let mut resume_config = test_config(nsteps);
    resume_config.checkpoint_every = 10;
    let restore_store = store.clone();
    let restore =
        move |rank: usize, _mesh: &LocalMesh| -> Result<Option<CheckpointState>, CheckpointError> {
            let step = restore_store
                .latest_complete(nranks)
                .ok_or_else(|| CheckpointError("no complete checkpoint".into()))?;
            Ok(Some(restore_store.load(step, rank).ok_or_else(|| {
                CheckpointError(format!("missing rank {rank} at step {step}"))
            })?))
        };
    let sink_store = store.clone();
    let sink_factory = move |rank: usize| -> Box<dyn CheckpointSink> {
        Box::new(SharedSink {
            rank,
            store: sink_store.clone(),
        })
    };
    let (resumed, _) = try_run_distributed(
        &mesh,
        &resume_config,
        &stations,
        NetworkProfile::loopback(),
        FtOptions {
            sink_factory: Some(&sink_factory),
            restore: Some(&restore),
            flight: None,
        },
    );
    let resumed: Vec<_> = resumed
        .into_iter()
        .map(|r| r.expect("resumed rank must finish"))
        .collect();
    let resumed = merge_seismograms(&resumed);

    assert_eq!(reference.len(), resumed.len());
    for (a, b) in reference.iter().zip(&resumed) {
        assert_eq!(a.station, b.station);
        assert_eq!(a.data.len(), b.data.len());
        for (va, vb) in a.data.iter().zip(&b.data) {
            for c in 0..3 {
                assert_eq!(
                    va[c].to_bits(),
                    vb[c].to_bits(),
                    "station {} must match bit-for-bit ({} vs {})",
                    a.station,
                    va[c],
                    vb[c]
                );
            }
        }
    }

    // And the resumed run kept checkpointing past the restore point.
    assert_eq!(store.latest_complete(nranks), Some(30));
}

/// A mismatched world (different rank's checkpoint) is rejected with a
/// typed error, never silently restored.
#[test]
fn mismatched_checkpoint_is_rejected() {
    let mesh = test_mesh();
    let mut config = test_config(5);
    config.checkpoint_every = 0;
    let restore = move |_rank: usize,
                        _mesh: &LocalMesh|
          -> Result<Option<CheckpointState>, CheckpointError> {
        // Hand every rank a checkpoint claiming to be rank 0's.
        Ok(Some(CheckpointState {
            rank: 0,
            nranks: 6,
            next_step: 2,
            dt: 1.0, // wrong dt too
            nglob: 1,
            global_ids: vec![0],
            element_global: vec![0],
            displ: vec![0.0; 3],
            veloc: vec![0.0; 3],
            accel: vec![0.0; 3],
            chi: vec![0.0],
            chi_dot: vec![0.0],
            chi_ddot: vec![0.0],
            atten_memory: None,
            records: vec![],
            energy: vec![],
            snapshots: vec![],
            flops: 0,
        }))
    };
    let (results, _) = try_run_distributed(
        &mesh,
        &config,
        &[],
        NetworkProfile::loopback(),
        FtOptions {
            sink_factory: None,
            restore: Some(&restore),
            flight: None,
        },
    );
    for r in results {
        match r {
            Err(SolverError::Checkpoint(e)) => {
                assert!(e.0.contains("mismatch"), "unexpected message: {e}")
            }
            other => panic!("expected a checkpoint mismatch error, got {other:?}"),
        }
    }
}
