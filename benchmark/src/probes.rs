//! Layer probes: the same direct calls into each crate in every traced
//! run, whatever the workload. They time public functions from outside
//! and read the counters those functions return; nothing here is a
//! workload, and nothing here feeds an end-to-end metric.

use std::collections::BTreeMap;

use crate::layers::{self, SolveSpec, Station};
use crate::util::{median, median_call_s, scratch_dir, timed};
use crate::workloads::{seeded_stations, Sizes};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Per-step seconds of a single-rank solve stepped from outside, plus
/// what the solver could be asked afterwards.
pub struct SteppedNumbers {
    pub setup_s: f64,
    pub step_s: Vec<f64>,
    pub dt: f64,
    pub nspec: usize,
    pub forces_solid_s: f64,
    pub forces_fluid_s: f64,
    pub newmark_s: f64,
    pub ckpt_write_s: f64,
    pub ckpt_restore_s: f64,
    pub ckpt_bytes: u64,
}

/// Set up a solver and step it `spec.steps` times, one span per call.
pub fn stepped_solve(
    spec: &SolveSpec,
    mesh: &layers::GlobalMesh,
) -> (SteppedNumbers, layers::Stepped) {
    let sim = layers::build_sim(spec);
    let (setup_s, mut stepped) = timed(|| layers::Stepped::new(&sim, mesh));
    let step_s = (0..spec.steps)
        .map(|i| timed(|| stepped.step(i)).0)
        .collect();
    let numbers = SteppedNumbers {
        setup_s,
        step_s,
        dt: stepped.dt(),
        nspec: stepped.nspec(),
        forces_solid_s: 0.0,
        forces_fluid_s: 0.0,
        newmark_s: 0.0,
        ckpt_write_s: 0.0,
        ckpt_restore_s: 0.0,
        ckpt_bytes: 0,
    };
    (numbers, stepped)
}

/// Time the force and Newmark phases on the wavefield the stepping left
/// behind, and one checkpoint round trip of that state.
pub fn after_stepping(numbers: &mut SteppedNumbers, stepped: &mut layers::Stepped) {
    (
        numbers.forces_solid_s,
        numbers.forces_fluid_s,
        numbers.newmark_s,
    ) = stepped.phase_seconds(3);
    let dir = scratch_dir("ckpt");
    (
        numbers.ckpt_write_s,
        numbers.ckpt_restore_s,
        numbers.ckpt_bytes,
    ) = stepped.checkpoint_roundtrip(&dir, numbers.step_s.len());
    let _ = std::fs::remove_dir_all(&dir);
}

fn phase(phases: &[(String, f64)], name: &str) -> f64 {
    phases
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, s)| *s)
}

/// Bytes one solid element moves per step if every array it touches is
/// read or written once: connectivity, gathered displacement, read and
/// written acceleration, nine metric terms, the Jacobian and two moduli,
/// 125 GLL points of 4 bytes each. Computed from array sizes; cache
/// misses are not in it.
const SOLID_BYTES_PER_ELEMENT: f64 = 125.0 * 4.0 * (1.0 + 3.0 + 6.0 + 9.0 + 1.0 + 2.0);

/// Sustainable memory bandwidth (GB/s) from a triad over arrays at least
/// four times the last-level cache, and a fixed integer loop (ms). Printed
/// beside every result set so a drifted machine shows before two sets are
/// compared.
fn host_canaries(smoke: bool) -> (f64, f64) {
    let llc_bytes = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .ok()
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("size")).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1usize << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
        .max()
        .unwrap_or(32 << 20);
    // Four times the cache, capped so the probe stays a fraction of a second.
    let array_bytes = if smoke {
        8 << 20
    } else {
        (4 * llc_bytes).clamp(64 << 20, 256 << 20)
    };
    let n = array_bytes / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let triad_s = median_call_s(3, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        std::hint::black_box(&a);
    });
    println!(
        "# host: triad arrays {} MiB each, last-level cache {} MiB",
        array_bytes >> 20,
        llc_bytes >> 20
    );
    let calib_s = median_call_s(3, || {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    });
    (3.0 * array_bytes as f64 / triad_s / 1e9, calib_s * 1e3)
}

/// Run every layer probe. `reuse` is the stepped solve the `serial_solve`
/// traced repetition already made; other workloads pass `None`.
pub fn run(sizes: &Sizes, seed: u64, reuse: Option<SteppedNumbers>) -> Metrics {
    let mut m = Metrics::new();
    let events = layers::catalogue();
    let stations: Vec<Station> = seeded_stations(seed, 6, &events[0]);
    let spec = SolveSpec::new(sizes.nex, sizes.steps, &events[0].name, stations.clone());
    let sim = layers::build_sim(&spec);

    // mesh
    let (build_s, (mesh, phases)) = timed(|| layers::build_mesh_phases(&spec));
    m.insert("mesh.build_s.nex8", build_s);
    m.insert(
        "mesh.numbering_frac.nex8",
        phase(&phases, "mesh.numbering") / build_s,
    );
    m.insert("mesh.geometry_s.nex8", phase(&phases, "mesh.geometry"));
    m.insert("mesh.material_s.nex8", phase(&phases, "mesh.materials"));
    m.insert("mesh.points_per_s.nex8", mesh.nglob as f64 / build_s);
    m.insert("mesh.nspec.nex8", mesh.nspec as f64);
    m.insert("mesh.nglob.nex8", mesh.nglob as f64);
    m.insert("mesh.bytes.nex8", layers::estimated_mesh_bytes(&sim) as f64);
    let (partition_s, partition) = timed(|| layers::partition(&mesh, 2));
    let (extract_s, locals) = timed(|| layers::extract_all(&partition, &mesh));
    let (halo_points, outer_frac) = layers::halo_shape(&locals);
    m.insert("mesh.partition_s.w2", partition_s);
    m.insert("mesh.extract_s.w2", extract_s);
    m.insert("mesh.halo_points.w2", halo_points as f64);
    m.insert("mesh.outer_frac.w2", outer_frac);
    let serial_local = layers::extract_serial(&mesh);
    m.insert(
        "mesh.station_locate_ms",
        layers::station_locate_s(&serial_local, &stations) * 1e3,
    );

    // kernels
    let seed_values: Vec<f32> = mesh.rho.iter().take(128).map(|r| r * 1e-3).collect();
    let k = layers::kernel_numbers(&serial_local, &seed_values, sizes.micro_calls * 100);
    drop(serial_local);
    m.insert("kernels.deriv_ns.reference", k.deriv_ns_reference);
    m.insert("kernels.deriv_ns.simd", k.deriv_ns_simd);
    m.insert("kernels.transpose_ns.reference", k.transpose_ns_reference);
    m.insert("kernels.transpose_ns.simd", k.transpose_ns_simd);
    m.insert("kernels.lanes8_ns_per_lane", k.lanes8_ns_per_lane);
    m.insert(
        "kernels.gflops.reference",
        k.flops_deriv as f64 / k.deriv_ns_reference,
    );
    m.insert("kernels.flops_per_elem.solid", k.flops_solid as f64);
    m.insert("kernels.flops_per_elem.fluid", k.flops_fluid as f64);
    m.insert("kernels.flops_per_elem.atten", k.flops_atten as f64);
    m.insert("kernels.bytes_per_elem.computed", SOLID_BYTES_PER_ELEMENT);
    m.insert(
        "kernels.flops_per_byte.computed",
        k.flops_solid as f64 / SOLID_BYTES_PER_ELEMENT,
    );

    // comm: the real 2-rank halo plan, then two short 2-rank solves whose
    // returned statistics give the per-step traffic and the comm share.
    let (roundtrip, post, finish, allreduce) = layers::comm_micro_us(&locals, sizes.micro_calls);
    drop(locals);
    m.insert("comm.halo_roundtrip_us.w2", roundtrip);
    m.insert("comm.halo_post_us.w2", post);
    m.insert("comm.halo_finish_us.w2", finish);
    m.insert("comm.allreduce_us.w2", allreduce);
    let mut short = spec.clone();
    short.steps = sizes.short_steps;
    let mut brief = spec.clone();
    brief.steps = 1;
    // Untimed: the first thread world of a process pays for its stacks.
    layers::run_ranks(&layers::build_sim(&brief), &mesh, 2).expect("clean 2-rank warm-up solve");
    let overlapped =
        layers::run_ranks(&layers::build_sim(&short), &mesh, 2).expect("clean 2-rank probe solve");
    let steps = overlapped.nsteps as f64;
    m.insert(
        "comm.msgs_per_step.w2",
        overlapped.comm_msgs() as f64 / steps,
    );
    m.insert(
        "comm.bytes_per_step.w2",
        overlapped.comm_bytes() as f64 / steps,
    );
    m.insert("comm.wall_frac.w2", overlapped.comm_wall_frac());
    m.insert("comm.post_s.w2", overlapped.comm_post_s());
    m.insert("comm.wait_s.w2", overlapped.comm_wait_s());
    let mut blocking_spec = short.clone();
    blocking_spec.overlap = false;
    let blocking = layers::run_ranks(&layers::build_sim(&blocking_spec), &mesh, 2)
        .expect("clean blocking 2-rank probe solve");
    m.insert(
        "comm.blocking_vs_overlap_ratio",
        blocking.loop_s() / overlapped.loop_s(),
    );

    // solver
    let stepped = reuse.unwrap_or_else(|| {
        let (mut numbers, mut solver) = stepped_solve(&spec, &mesh);
        after_stepping(&mut numbers, &mut solver);
        numbers
    });
    let ms = |s: &[f64]| median(s) * 1e3;
    let window = 10.min(stepped.step_s.len());
    let early = ms(&stepped.step_s[..window]);
    let p50_s = median(&stepped.step_s);
    m.insert("solver.setup_s.nex8", stepped.setup_s);
    m.insert("solver.step_ms.early", early);
    m.insert(
        "solver.step_ms.late",
        ms(&stepped.step_s[stepped.step_s.len() - window..]),
    );
    m.insert("solver.step_ms.p50", p50_s * 1e3);
    m.insert(
        "solver.step_ms.max",
        stepped.step_s.iter().cloned().fold(0.0, f64::max) * 1e3,
    );
    m.insert("solver.forces_solid_ms", stepped.forces_solid_s * 1e3);
    m.insert("solver.forces_fluid_ms", stepped.forces_fluid_s * 1e3);
    m.insert("solver.newmark_ms", stepped.newmark_s * 1e3);
    // A one-step serial solve returns exactly one step's flops.
    let flops_per_step = layers::run_serial(&layers::build_sim(&brief), &mesh).flops as f64;
    m.insert("solver.flops_per_step", flops_per_step);
    m.insert("solver.gflops", flops_per_step / p50_s / 1e9);
    m.insert("solver.elem_steps_per_s", stepped.nspec as f64 / p50_s);
    m.insert("io.ckpt_write_ms.nex8", stepped.ckpt_write_s * 1e3);
    m.insert("io.ckpt_restore_ms.nex8", stepped.ckpt_restore_s * 1e3);
    m.insert("io.ckpt_mb.nex8", stepped.ckpt_bytes as f64 / 1e6);

    // The same solver used differently: attenuation off, then LTS on.
    let mut elastic = short.clone();
    elastic.attenuation = false;
    let elastic_steps = stepped_solve(&elastic, &mesh).0.step_s;
    m.insert(
        "solver.atten_step_ratio",
        early / ms(&elastic_steps[..window.min(elastic_steps.len())]),
    );
    let mut lts = short.clone();
    lts.lts_max_rate = 8;
    let lts_steps = stepped_solve(&lts, &mesh).0.step_s;
    let same_steps: f64 = stepped.step_s[..lts_steps.len()].iter().sum();
    m.insert(
        "solver.lts8_step_ratio",
        lts_steps.iter().sum::<f64>() / same_steps,
    );
    m.insert(
        "solver.lts8_steps_saved_frac",
        layers::lts_steps_saved_frac(&mesh, stepped.dt, 8, lts_steps.len()),
    );

    // batch: a fused 8-lane solver stepped from outside, against eight
    // single-lane steps of the same (attenuation-free) configuration.
    let lanes: Vec<layers::Simulation> = (0..8)
        .map(|i| {
            let mut lane = elastic.clone();
            lane.event = events[i % events.len()].name.clone();
            lane.stations =
                seeded_stations(seed.wrapping_add(i as u64), 6, &events[i % events.len()]);
            layers::build_sim(&lane)
        })
        .collect();
    let fused_steps = sizes.short_steps.min(4);
    let (batch_setup_s, batch_step_s) = layers::batch_stepped(&lanes, &mesh, fused_steps);
    m.insert("batch.setup_s.k8", batch_setup_s);
    m.insert("batch.step_ms.k8", batch_step_s * 1e3);
    m.insert(
        "batch.lane_cost_ratio.k8",
        batch_step_s / (8.0 * median(&elastic_steps[..fused_steps])),
    );

    // io
    let dir = scratch_dir("io");
    let (save_s, load_s, artifact_bytes) =
        layers::mesh_artifact_roundtrip(&dir.join("mesh"), &sim, &mesh);
    m.insert("io.mesh_save_ms.nex8", save_s * 1e3);
    m.insert("io.mesh_load_ms.nex8", load_s * 1e3);
    m.insert("io.mesh_artifact_mb.nex8", artifact_bytes as f64 / 1e6);
    let (put, get_mem, get_disk) = layers::result_cache_us(
        &dir.join("results"),
        &overlapped.seismograms,
        sizes.micro_calls / 4,
    );
    m.insert("io.result_put_us", put);
    m.insert("io.result_get_mem_us", get_mem);
    m.insert("io.result_get_disk_us", get_disk);

    // serve
    let (start_s, daemon) = timed(|| layers::start_daemon(&dir.join("serve")));
    m.insert("serve.start_ms", start_s * 1e3);
    let addr = daemon.addr;
    m.insert(
        "serve.health_p50_ms",
        median_call_s(sizes.micro_calls / 5, || {
            let (status, _) = layers::http_get(addr, "/health").expect("daemon answers /health");
            assert_eq!(status, 200);
        }) * 1e3,
    );
    m.insert("serve.shutdown_ms", timed(|| daemon.shutdown()).0 * 1e3);
    let body = crate::workloads::request_body(4, 10, &events[0].name, &stations);
    m.insert(
        "serve.parse_us",
        layers::parse_request_us(&body, sizes.micro_calls * 10),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // core, obs, host
    m.insert(
        "core.sim_build_us",
        median_call_s(sizes.micro_calls, || {
            std::hint::black_box(layers::build_sim(&spec));
        }) * 1e6,
    );
    m.insert(
        "core.result_key_us",
        median_call_s(sizes.micro_calls, || {
            std::hint::black_box(layers::result_key(&sim));
        }) * 1e6,
    );
    let (span_disabled, span_armed) = layers::obs_span_ns();
    m.insert("obs.span_ns.disabled", span_disabled);
    m.insert("obs.span_ns.armed", span_armed);
    let (triad_gbs, calib_ms) = host_canaries(sizes.smoke);
    m.insert("host.triad_gbs", triad_gbs);
    m.insert("host.calib_ms", calib_ms);
    m
}
