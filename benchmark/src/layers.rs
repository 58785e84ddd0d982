//! Every call the benchmark makes into the program, in one file.
//!
//! Workloads and probes never name a `specfem_*` item themselves: they go
//! through the functions here, which take the narrowest public surface
//! (`specfem_core` re-exports first) and wrap each call in one of the
//! benchmark's spans, named after the crate the call enters. When the
//! program's `SolverConfig` or time loop is reshaped, this is the one file
//! a later benchmark change has to re-point.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use specfem_campaign::{Campaign, CampaignConfig, Job};
use specfem_core::comm::{
    assemble_halo, finish_halo_assembly, post_halo_exchange, tags, Communicator, SerialComm,
    StatsSnapshot, ThreadWorld,
};
use specfem_core::io::{CachedResult, CheckpointStore, MeshArtifactStore, ResultCache, ResultKey};
use specfem_core::kernels::{self, flops, DerivOps, FlopCounter};
use specfem_core::mesh::{self, LocalMesh};
use specfem_core::solver::{
    self, forces, forces::AttenuationState, MassMatrices, PrecomputedGeometry, RankSolver,
    WaveFields,
};
use specfem_core::{
    batchlib, builtin_events, obs, KernelVariant, NetworkProfile, Partition, RunOptions,
};
use specfem_serve::{client, ServeConfig, ServerHandle};

pub use specfem_core::{GlobalMesh, Seismogram, Simulation, Station};

use crate::spans::span;
use crate::util::{median_call_s, timed};

// ---------------------------------------------------------------- core

/// A catalogue earthquake the workloads can name.
pub struct Event {
    pub name: String,
    pub lat_deg: f64,
    pub lon_deg: f64,
}

/// The program's built-in event catalogue.
pub fn catalogue() -> Vec<Event> {
    builtin_events()
        .into_iter()
        .map(|e| Event {
            name: e.name,
            lat_deg: e.lat_deg,
            lon_deg: e.lon_deg,
        })
        .collect()
}

/// What one simulation of the benchmark looks like.
#[derive(Clone)]
pub struct SolveSpec {
    pub nex: usize,
    pub steps: usize,
    pub event: String,
    pub stations: Vec<Station>,
    /// Attenuation on top of rotation and gravity (which are always on).
    pub attenuation: bool,
    pub overlap: bool,
    pub lts_max_rate: usize,
    /// Arm the *program's* tracer (only the obs and mesher-phase probes).
    pub program_trace: bool,
}

impl SolveSpec {
    pub fn new(nex: usize, steps: usize, event: &str, stations: Vec<Station>) -> Self {
        Self {
            nex,
            steps,
            event: event.to_string(),
            stations,
            attenuation: true,
            overlap: true,
            lts_max_rate: 1,
            program_trace: false,
        }
    }
}

pub fn build_sim(spec: &SolveSpec) -> Simulation {
    let _s = span("core", "core.sim_build");
    Simulation::builder()
        .resolution(spec.nex)
        .steps(spec.steps)
        .attenuation(spec.attenuation)
        .rotation(true)
        .gravity(true)
        .overlap(spec.overlap)
        .lts_max_rate(spec.lts_max_rate)
        .trace(spec.program_trace)
        .catalogue_event(&spec.event)
        .station_list(spec.stations.clone())
        .build()
        .expect("benchmark simulations are valid by construction")
}

pub fn result_key(sim: &Simulation) -> u64 {
    let _s = span("core", "core.result_key");
    sim.result_key().0
}

/// What a finished solve hands back, reduced to what the benchmark reads.
pub struct Solved {
    pub seismograms: Vec<Seismogram>,
    pub flops: u64,
    pub nsteps: usize,
    /// Per-rank main-loop seconds.
    pub rank_elapsed_s: Vec<f64>,
    /// Per-rank communication counters.
    pub rank_comm: Vec<StatsSnapshot>,
}

impl Solved {
    pub fn comm_msgs(&self) -> u64 {
        self.rank_comm.iter().map(|c| c.messages_sent).sum()
    }

    pub fn comm_bytes(&self) -> u64 {
        self.rank_comm.iter().map(|c| c.bytes_sent).sum()
    }

    /// Mean over ranks of communication wall time ÷ main-loop time.
    pub fn comm_wall_frac(&self) -> f64 {
        let fracs = self
            .rank_comm
            .iter()
            .zip(&self.rank_elapsed_s)
            .map(|(c, e)| c.wall_time_s / e.max(1e-12));
        fracs.sum::<f64>() / self.rank_comm.len().max(1) as f64
    }

    pub fn comm_post_s(&self) -> f64 {
        self.rank_comm.iter().map(|c| c.post_time_s).sum()
    }

    pub fn comm_wait_s(&self) -> f64 {
        self.rank_comm.iter().map(|c| c.wait_time_s).sum()
    }

    /// The slowest rank's main-loop seconds.
    pub fn loop_s(&self) -> f64 {
        self.rank_elapsed_s.iter().cloned().fold(0.0, f64::max)
    }
}

fn solved(result: specfem_core::SimulationResult) -> Solved {
    Solved {
        flops: result.total_flops(),
        nsteps: result.ranks.first().map_or(0, |r| r.nsteps),
        rank_elapsed_s: result.ranks.iter().map(|r| r.elapsed_s).collect(),
        rank_comm: result.ranks.iter().map(|r| r.comm.clone()).collect(),
        seismograms: result.seismograms,
    }
}

/// The plain single-rank solve on a prebuilt mesh.
pub fn run_serial(sim: &Simulation, mesh: &GlobalMesh) -> Solved {
    let _s = span("core", "core.run_serial");
    solved(sim.run_serial_with_mesh(mesh))
}

/// The same solve on a `world`-rank balanced thread world.
pub fn run_ranks(sim: &Simulation, mesh: &GlobalMesh, world: usize) -> Result<Solved, String> {
    let _s = span("core", "core.run_ranks");
    let opts = RunOptions {
        profile: Some(NetworkProfile::loopback()),
        world: Some(world),
        ..RunOptions::default()
    };
    sim.try_run_with_mesh(mesh, opts)
        .map(solved)
        .map_err(|e| e.to_string())
}

/// The `world`-rank solve taken apart by hand so each rank's extract,
/// set-up and time loop get their own span (traced pass only).
pub fn run_ranks_by_layer(
    sim: &Simulation,
    mesh: &GlobalMesh,
    world: usize,
) -> Result<Solved, String> {
    let partition = partition(mesh, world);
    let per_rank = {
        let _s = span("comm", "comm.thread_world");
        ThreadWorld::try_run(world, NetworkProfile::loopback(), |mut comm| {
            comm.set_recv_timeout(sim.config.recv_timeout);
            let local = {
                let _s = span("mesh", "mesh.extract");
                partition.extract(mesh, comm.rank())
            };
            let solver = {
                let _s = span("solver", "solver.new");
                RankSolver::new(local, &sim.config, &sim.stations, &mut comm)
            };
            let _s = span("solver", "solver.run");
            solver.try_run(&mut comm, None)
        })
    };
    let mut ranks = Vec::with_capacity(world);
    for r in per_rank {
        ranks.push(r.map_err(|p| p.to_string())?.map_err(|e| e.to_string())?);
    }
    let seismograms = solver::merge_seismograms(&ranks);
    let dt = ranks.first().map_or(0.0, |r| r.dt);
    Ok(solved(specfem_core::SimulationResult {
        seismograms,
        ranks,
        dt,
        mesher_profile: None,
        watchdog: None,
    }))
}

// ---------------------------------------------------------------- mesh

pub fn build_mesh(sim: &Simulation) -> GlobalMesh {
    let _s = span("mesh", "mesh.build");
    sim.build_mesh().0
}

/// Build the mesh with the program's tracer armed and return the seconds
/// its own mesher spans report per phase (`mesh.numbering`, …).
pub fn build_mesh_phases(spec: &SolveSpec) -> (GlobalMesh, Vec<(String, f64)>) {
    let mut spec = spec.clone();
    spec.program_trace = true;
    let sim = build_sim(&spec);
    let _s = span("mesh", "mesh.build");
    let (mesh, profile) = sim.build_mesh();
    let phases = profile.map_or_else(Vec::new, |p| p.trace.phase_seconds());
    (mesh, phases)
}

pub fn estimated_mesh_bytes(sim: &Simulation) -> usize {
    sim.estimated_mesh_bytes()
}

pub fn partition(mesh: &GlobalMesh, world: usize) -> Partition {
    let _s = span("mesh", "mesh.partition");
    Partition::balanced(mesh, world)
}

pub fn extract_all(partition: &Partition, mesh: &GlobalMesh) -> Vec<LocalMesh> {
    let _s = span("mesh", "mesh.extract_all");
    partition.extract_all(mesh)
}

pub fn extract_serial(mesh: &GlobalMesh) -> LocalMesh {
    let _s = span("mesh", "mesh.extract");
    Partition::serial(mesh).extract(mesh, 0)
}

/// Halo size and outer-element share of a decomposition.
pub fn halo_shape(locals: &[LocalMesh]) -> (usize, f64) {
    let shared: usize = locals.iter().map(|l| l.halo.shared_point_count()).sum();
    let outer: usize = locals.iter().map(|l| l.nspec_outer).sum();
    let nspec: usize = locals.iter().map(|l| l.nspec).sum();
    (shared, outer as f64 / nspec.max(1) as f64)
}

/// Median seconds to locate one station exactly.
pub fn station_locate_s(local: &LocalMesh, stations: &[Station]) -> f64 {
    let mut it = stations.iter().cycle();
    median_call_s(stations.len().max(1), || {
        let _s = span("mesh", "mesh.station_locate");
        std::hint::black_box(mesh::stations::locate_station_exact(
            local,
            it.next().expect("cycle over a non-empty station list"),
        ));
    })
}

/// Exact share of element-steps an `LTS_MAX_RATE = max_rate` run skips.
pub fn lts_steps_saved_frac(mesh: &GlobalMesh, dt: f64, max_rate: usize, nsteps: usize) -> f64 {
    let dts = mesh::lts::global_element_dts(mesh);
    let clusters = mesh::lts::LtsClusters::assign(&dts, dt, max_rate);
    1.0 - clusters.element_steps(nsteps) as f64 / (mesh.nspec * nsteps) as f64
}

// -------------------------------------------------------------- solver

/// A single-rank solver driven one step at a time from outside.
pub struct Stepped {
    solver: RankSolver,
    comm: SerialComm,
    config: solver::SolverConfig,
}

impl Stepped {
    pub fn new(sim: &Simulation, mesh: &GlobalMesh) -> Self {
        let local = extract_serial(mesh);
        let mut comm = SerialComm::new();
        let solver = {
            let _s = span("solver", "solver.new");
            RankSolver::new(local, &sim.config, &sim.stations, &mut comm)
        };
        Self {
            solver,
            comm,
            config: sim.config.clone(),
        }
    }

    pub fn step(&mut self, istep: usize) {
        let _s = span("solver", "solver.step");
        self.solver
            .step(istep, &mut self.comm)
            .expect("a clean serial step cannot fail");
    }

    pub fn dt(&self) -> f64 {
        self.solver.dt
    }

    pub fn nspec(&self) -> usize {
        self.solver.mesh.nspec
    }

    /// Median seconds of the solid forces, the fluid forces and the
    /// Newmark update (predictor + both correctors) on a copy of the
    /// current wavefield — the live state, not zeros.
    pub fn phase_seconds(&mut self, calls: usize) -> (f64, f64, f64) {
        let local = &self.solver.mesh;
        let gravity = self.config.gravity.then(|| {
            specfem_core::model::GravityProfile::new(&specfem_core::Prem::isotropic_no_ocean(), 256)
        });
        let geom = PrecomputedGeometry::compute(local, gravity.as_ref());
        let ops = DerivOps::from_basis(&local.basis);
        let mass = MassMatrices::build(local, &geom, &mut self.comm)
            .expect("serial mass assembly cannot fail");
        let period = local.quality().shortest_period_s;
        let mut atten = self
            .config
            .attenuation
            .then(|| AttenuationState::new(local, self.solver.dt, period));
        let mut fields: WaveFields = self.solver.fields.clone();
        let mut counter = FlopCounter::new();
        let variant = self.config.variant;
        let solid = median_call_s(calls, || {
            let _s = span("solver", "solver.forces_solid");
            forces::compute_solid_forces(
                local,
                &geom,
                &ops,
                variant,
                &mut fields,
                atten.as_mut(),
                self.config.gravity,
                &mut counter,
            );
        });
        let fluid = median_call_s(calls, || {
            let _s = span("solver", "solver.forces_fluid");
            forces::compute_fluid_forces(local, &geom, &ops, variant, &mut fields, &mut counter);
        });
        let dt = self.solver.dt as f32;
        let newmark = median_call_s(calls, || {
            let _s = span("solver", "solver.newmark");
            fields.predictor(dt);
            fields.corrector_solid(&mass.solid, dt);
            fields.corrector_fluid(&mass.fluid, dt);
        });
        (solid, fluid, newmark)
    }

    /// Write the current state as one checkpoint generation, read it
    /// back, and return `(write_s, restore_s, bytes)`.
    pub fn checkpoint_roundtrip(&mut self, dir: &Path, next_step: usize) -> (f64, f64, u64) {
        let store = CheckpointStore::new(dir).expect("create checkpoint dir under benchmark/out");
        let (write_s, ()) = timed(|| {
            let _s = span("io", "io.ckpt_write");
            let state = self.solver.capture_checkpoint(0, 1, next_step);
            store
                .sink(0)
                .write(&state)
                .expect("checkpoint write under benchmark/out");
        });
        let bytes = dir_bytes(dir);
        let (restore_s, state) = timed(|| {
            let _s = span("io", "io.ckpt_restore");
            store
                .restore_latest_for(0, &self.solver.mesh)
                .expect("restore the checkpoint just written")
        });
        assert!(state.is_some(), "checkpoint just written must be found");
        (write_s, restore_s, bytes)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ------------------------------------------------------------- kernels

/// Nanoseconds per call of the 5×5 cut-plane kernels and their flop
/// model, measured on one element's worth of data.
pub struct KernelNumbers {
    pub deriv_ns_reference: f64,
    pub deriv_ns_simd: f64,
    pub transpose_ns_reference: f64,
    pub transpose_ns_simd: f64,
    pub lanes8_ns_per_lane: f64,
    /// Flops of one derivative-stage call (the kernel `deriv_ns_*` times).
    pub flops_deriv: u64,
    pub flops_solid: u64,
    pub flops_fluid: u64,
    pub flops_atten: u64,
}

pub fn kernel_numbers(local: &LocalMesh, seed_values: &[f32], calls: usize) -> KernelNumbers {
    const N: usize = kernels::layout::NGLL3_PADDED;
    let ops = DerivOps::from_basis(&local.basis);
    let mut u = [0.0f32; N];
    for (dst, src) in u.iter_mut().zip(seed_values.iter().cycle()) {
        *dst = *src;
    }
    let (mut t1, mut t2, mut t3) = ([0.0f32; N], [0.0f32; N], [0.0f32; N]);
    let mut out = [0.0f32; N];
    // A batch of calls per sample: one call is far below timer resolution.
    let ns_per_call = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                timed(|| {
                    for _ in 0..calls {
                        f();
                    }
                })
                .0
            })
            .collect();
        crate::util::median(&samples) * 1e9 / calls as f64
    };
    let mut deriv = |variant: KernelVariant| {
        ns_per_call(&mut || {
            kernels::cutplane_derivatives(
                variant,
                std::hint::black_box(&u),
                &ops,
                &mut t1,
                &mut t2,
                &mut t3,
            );
            std::hint::black_box(&t1);
        })
    };
    let deriv_ns_reference = deriv(KernelVariant::Reference);
    let deriv_ns_simd = deriv(KernelVariant::Simd);
    let mut transpose = |variant: KernelVariant| {
        ns_per_call(&mut || {
            kernels::cutplane_transpose_accumulate(
                variant,
                std::hint::black_box(&t1),
                &t2,
                &t3,
                &ops,
                &mut out,
            );
            std::hint::black_box(&out);
        })
    };
    let transpose_ns_reference = transpose(KernelVariant::Reference);
    let transpose_ns_simd = transpose(KernelVariant::Simd);

    const K: usize = 8;
    let ul: Vec<f32> = u.iter().flat_map(|&v| [v; K]).collect();
    let (mut l1, mut l2, mut l3) = (
        vec![0.0f32; N * K],
        vec![0.0f32; N * K],
        vec![0.0f32; N * K],
    );
    let lanes_ns = ns_per_call(&mut || {
        kernels::batched_cutplane_derivatives(
            KernelVariant::Reference,
            std::hint::black_box(&ul),
            K,
            &ops,
            &mut l1,
            &mut l2,
            &mut l3,
        );
        std::hint::black_box(&l1);
    });
    KernelNumbers {
        deriv_ns_reference,
        deriv_ns_simd,
        transpose_ns_reference,
        transpose_ns_simd,
        lanes8_ns_per_lane: lanes_ns / K as f64,
        flops_deriv: flops::DERIVATIVE_STAGE_FLOPS,
        flops_solid: flops::solid_element_flops(),
        flops_fluid: flops::fluid_element_flops(),
        flops_atten: flops::attenuation_element_flops(),
    }
}

// ---------------------------------------------------------------- comm

/// Median microseconds of the halo and collective primitives on the real
/// `world`-rank halo plan: `(roundtrip, post, finish, allreduce)`.
pub fn comm_micro_us(locals: &[LocalMesh], calls: usize) -> (f64, f64, f64, f64) {
    const NCOMP: usize = 3;
    let per_rank = ThreadWorld::run(locals.len(), NetworkProfile::loopback(), |mut comm| {
        let local = &locals[comm.rank()];
        let mut field = vec![1.0f32; local.nglob * NCOMP];
        let mut sample = |f: &mut dyn FnMut(&mut dyn Communicator, &mut [f32])| {
            let s: Vec<f64> = (0..calls)
                .map(|_| timed(|| f(&mut comm, &mut field)).0)
                .collect();
            crate::util::median(&s) * 1e6
        };
        let roundtrip = sample(&mut |c, f| {
            assemble_halo(c, &local.halo, f, NCOMP, tags::HALO_SOLID).expect("clean halo exchange");
        });
        let mut post_s = Vec::with_capacity(calls);
        let finish = sample(&mut |c, f| {
            let (p, reqs) = timed(|| {
                post_halo_exchange(c, &local.halo, f, NCOMP, tags::HALO_SOLID)
                    .expect("clean halo post")
            });
            post_s.push(p);
            finish_halo_assembly(c, &local.halo, f, NCOMP, reqs).expect("clean halo finish");
        });
        let post = crate::util::median(&post_s) * 1e6;
        let allreduce = sample(&mut |c, _| {
            std::hint::black_box(c.allreduce_sum(1.0).expect("clean allreduce"));
        });
        // `finish` timed post + finish together; report the finish part.
        (roundtrip, post, (finish - post).max(0.0), allreduce)
    });
    per_rank[0]
}

// --------------------------------------------------------------- batch

/// `(set-up seconds, median step seconds)` of a fused K-lane solver
/// stepped from outside; the lanes are `sims`, which share one mesh.
pub fn batch_stepped(sims: &[Simulation], mesh: &GlobalMesh, steps: usize) -> (f64, f64) {
    let local = extract_serial(mesh);
    let lanes: Vec<batchlib::EventLane> = sims
        .iter()
        .enumerate()
        .map(|(i, s)| batchlib::EventLane {
            name: format!("lane{i}"),
            source: s.config.source.clone(),
            stations: s.stations.clone(),
        })
        .collect();
    let mut comm = SerialComm::new();
    let (setup_s, mut solver) = timed(|| {
        let _s = span("batch", "batch.new");
        batchlib::BatchSolver::new(local, &sims[0].config, &lanes, &mut comm)
    });
    let mut istep = 0;
    let step_s = median_call_s(steps, || {
        let _s = span("batch", "batch.step");
        solver
            .step(istep, &mut comm)
            .expect("a clean fused step cannot fail");
        istep += 1;
    });
    (setup_s, step_s)
}

// ------------------------------------------------------------ campaign

/// What one campaign of `jobs` reported.
pub struct CampaignRun {
    /// Per job: its seismograms, or the error it ended with.
    pub results: Vec<Result<Vec<Seismogram>, String>>,
    pub queue_wait_s: Vec<f64>,
    pub batched_jobs: usize,
    pub mesh_misses: u64,
    pub mesh_hits: u64,
}

/// One fresh single-worker campaign over `jobs`, fusing up to `lanes`.
pub fn run_campaign(jobs: &[Simulation], lanes: usize) -> CampaignRun {
    // A full batch starts at once; the window only keeps the worker from
    // running the first job alone before its mates are queued.
    const WINDOW: Duration = Duration::from_secs(2);
    let cfg = CampaignConfig {
        workers: 1,
        ..CampaignConfig::default()
    }
    .batching(lanes, WINDOW);
    let mut campaign = {
        let _s = span("campaign", "campaign.new");
        Campaign::new(cfg)
    };
    for (i, sim) in jobs.iter().enumerate() {
        let _s = span("campaign", "campaign.submit");
        campaign.submit(Job::new(format!("job{i}"), sim.clone()));
    }
    let result = {
        let _s = span("campaign", "campaign.finish");
        campaign.finish()
    };
    CampaignRun {
        queue_wait_s: result.outcomes.iter().map(|o| o.queue_wait_s).collect(),
        batched_jobs: result.report.batched_jobs,
        mesh_misses: result.cache.misses,
        mesh_hits: result.cache.total_hits(),
        results: result
            .outcomes
            .into_iter()
            .map(|o| o.result.map(|r| r.seismograms))
            .collect(),
    }
}

// ------------------------------------------------------------------ io

/// `(save_s, load_s, artifact bytes)` of one mesh artifact round trip.
pub fn mesh_artifact_roundtrip(dir: &Path, sim: &Simulation, mesh: &GlobalMesh) -> (f64, f64, u64) {
    let store = MeshArtifactStore::new(dir).expect("create artifact dir under benchmark/out");
    let key = sim.mesh_key();
    let (save_s, path) = timed(|| {
        let _s = span("io", "io.mesh_save");
        store.save(&key, mesh).expect("mesh artifact write")
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (load_s, loaded) = timed(|| {
        let _s = span("io", "io.mesh_load");
        store.load(&key).expect("mesh artifact read")
    });
    assert!(loaded.is_some(), "artifact just written must load");
    (save_s, load_s, bytes)
}

/// Median microseconds of `ResultCache::put`, a memory-tier `get` and a
/// disk-tier `get` for a result shaped like `seismograms`.
pub fn result_cache_us(dir: &Path, seismograms: &[Seismogram], calls: usize) -> (f64, f64, f64) {
    let cache = ResultCache::new(dir, 256 << 20).expect("create result dir under benchmark/out");
    let value = CachedResult {
        seismograms: seismograms.to_vec(),
        element_steps: 1,
    };
    let mut next = 0u64;
    let put = median_call_s(calls, || {
        let _s = span("io", "io.result_put");
        next += 1;
        cache
            .put(ResultKey(next), value.clone())
            .expect("result artifact write");
    });
    let mut k = 0u64;
    let get_mem = median_call_s(calls, || {
        let _s = span("io", "io.result_get_mem");
        k = k % next + 1;
        assert!(
            cache.get(ResultKey(k)).0.is_some(),
            "memory tier holds the key"
        );
    });
    let disk_reads: Vec<f64> = (1..=next)
        .map(|k| {
            // Dropping the memory tier is not part of the read being timed.
            cache.clear_memory();
            let (s, hit) = timed(|| {
                let _s = span("io", "io.result_get_disk");
                cache.get(ResultKey(k)).0
            });
            assert!(hit.is_some(), "disk tier holds the key");
            s
        })
        .collect();
    let get_disk = crate::util::median(&disk_reads);
    (put * 1e6, get_mem * 1e6, get_disk * 1e6)
}

// --------------------------------------------------------------- serve

/// A running daemon and its address.
pub struct Daemon {
    handle: ServerHandle,
    pub addr: SocketAddr,
}

/// Start the daemon on a free loopback port with one worker, single-lane
/// solves and no deadline.
pub fn start_daemon(data_dir: &Path) -> Daemon {
    let _s = span("serve", "serve.start");
    let handle = specfem_serve::serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        result_cache_bytes: 256 << 20,
        request_deadline: None,
        workers: 1,
        data_dir: data_dir.to_path_buf(),
        ledger_dir: None,
        ledger_batch: 32,
        batch_max_lanes: 1,
        batch_window_ms: 0,
    })
    .expect("bind a loopback port");
    let addr = handle.addr();
    Daemon { handle, addr }
}

impl Daemon {
    pub fn shutdown(self) {
        let _s = span("serve", "serve.shutdown");
        self.handle.shutdown();
    }
}

pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let _s = span("serve", "serve.get");
    client::get(addr, path).map_err(|e| e.to_string())
}

pub fn http_simulate(addr: SocketAddr, body: &str) -> Result<(u16, String), String> {
    let _s = span("serve", "serve.simulate");
    client::post(addr, "/simulate", body).map_err(|e| e.to_string())
}

/// Median microseconds to validate one `/simulate` body.
pub fn parse_request_us(body: &str, calls: usize) -> f64 {
    median_call_s(calls, || {
        let _s = span("serve", "serve.parse");
        std::hint::black_box(
            specfem_serve::parse_request(body.as_bytes()).expect("benchmark bodies are valid"),
        );
    }) * 1e6
}

// ----------------------------------------------------------------- obs

/// Nanoseconds per `specfem_obs::span` call with the program's tracer
/// disarmed and armed.
pub fn obs_span_ns() -> (f64, f64) {
    const CALLS: usize = 200_000;
    let per_call = || {
        timed(|| {
            for _ in 0..CALLS {
                std::hint::black_box(obs::span("bench.probe"));
            }
        })
        .0 * 1e9
            / CALLS as f64
    };
    let disabled = per_call();
    obs::init_rank(0, &obs::TraceConfig::default());
    let armed = per_call();
    let _ = obs::finish_rank();
    (disabled, armed)
}
