//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root
//! of the repository is this table printed by the `spec` subcommand; a
//! test keeps the two equal.

use crate::util::{json_num, json_str};

/// Seconds one run measures when the caller does not say.
pub const RUN_SECONDS: u64 = 20;
/// Seed used when the caller does not give one.
pub const DEFAULT_SEED: u64 = 2008;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serial_solve",
        why: "plain single-thread NEX 8 solve, 50 steps, full physics: kernels and solver do the work; mesh, comm, campaign, serve do none",
    },
    Workload {
        name: "ranks2_halo",
        why: "the same solve on a 2-rank thread world with overlapped halo exchange: comm and partition/extract are on the path",
    },
    Workload {
        name: "batch_campaign",
        why: "8 jobs on one NEX 8 mesh fused by a campaign into one 8-lane solve: campaign, batch and the mesh cache do the work",
    },
    Workload {
        name: "serve_cold",
        why: "a mesh-miss NEX 12 request over loopback TCP to a fresh daemon: mesh build dominates, result cache is written",
    },
    Workload {
        name: "serve_warm",
        why: "2 closed-loop clients re-asking 16 cached keys over loopback TCP: the HTTP front door and result-cache reads dominate",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counters that must repeat exactly between two runs of one commit.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Layers the benchmark calls into directly; each gets a `self_s` and a
/// `calls` metric from the spans of the workload's traced repetition.
pub const SPAN_LAYERS: &[&str] = &[
    "core", "mesh", "solver", "comm", "batch", "campaign", "io", "serve",
];

pub const PER_LAYER: &[PerLayer] = &[
    // Where the traced repetition of *this* workload spent its time.
    time("core.self_s", "s"),
    count("core.calls", "count"),
    time("mesh.self_s", "s"),
    count("mesh.calls", "count"),
    time("solver.self_s", "s"),
    count("solver.calls", "count"),
    time("comm.self_s", "s"),
    count("comm.calls", "count"),
    time("batch.self_s", "s"),
    count("batch.calls", "count"),
    time("campaign.self_s", "s"),
    count("campaign.calls", "count"),
    time("io.self_s", "s"),
    count("io.calls", "count"),
    time("serve.self_s", "s"),
    count("serve.calls", "count"),
    time("bench.self_s", "s"),
    time("bench.traced_rep_s", "s"),
    // Counters the traced repetition's calls returned (0 where the
    // workload does not use the layer).
    count("rep.flops", "count"),
    count("rep.comm_msgs", "count"),
    count("rep.comm_bytes", "B"),
    time("rep.comm_wall_frac", "ratio"),
    time("rep.comm_post_s", "s"),
    time("rep.comm_wait_s", "s"),
    count("rep.mesh_misses", "count"),
    count("rep.mesh_hits", "count"),
    count("rep.fused_jobs", "count"),
    time("rep.queue_wait_ms_p50", "ms"),
    count("rep.cache_miss", "count"),
    count("rep.cache_mem_hit", "count"),
    count("rep.cache_disk_hit", "count"),
    count("rep.reply_bytes", "B"),
    time("serve.cold_meshhit_ms", "ms"),
    time("serve.warm_p90_ms", "ms"),
    time("serve.warm_p99_ms", "ms"),
    time("serve.warm_max_ms", "ms"),
    time("serve.disk_hit_p50_ms", "ms"),
    // Layer probes: the same calls in every traced run, whatever the
    // workload. All on the NEX 8 mesh unless the name says otherwise.
    time("mesh.build_s.nex8", "s"),
    time("mesh.numbering_frac.nex8", "ratio"),
    time("mesh.geometry_s.nex8", "s"),
    time("mesh.material_s.nex8", "s"),
    rate("mesh.points_per_s.nex8", "1/s"),
    count("mesh.nspec.nex8", "count"),
    count("mesh.nglob.nex8", "count"),
    count("mesh.bytes.nex8", "B"),
    time("mesh.partition_s.w2", "s"),
    time("mesh.extract_s.w2", "s"),
    count("mesh.halo_points.w2", "count"),
    count("mesh.outer_frac.w2", "ratio"),
    time("mesh.station_locate_ms", "ms"),
    time("kernels.deriv_ns.reference", "ns"),
    time("kernels.deriv_ns.simd", "ns"),
    time("kernels.transpose_ns.reference", "ns"),
    time("kernels.transpose_ns.simd", "ns"),
    time("kernels.lanes8_ns_per_lane", "ns"),
    rate("kernels.gflops.reference", "Gflop/s"),
    count("kernels.flops_per_elem.solid", "count"),
    count("kernels.flops_per_elem.fluid", "count"),
    count("kernels.flops_per_elem.atten", "count"),
    count("kernels.bytes_per_elem.computed", "B"),
    count("kernels.flops_per_byte.computed", "ratio"),
    time("solver.setup_s.nex8", "s"),
    time("solver.step_ms.early", "ms"),
    time("solver.step_ms.late", "ms"),
    time("solver.step_ms.p50", "ms"),
    time("solver.step_ms.max", "ms"),
    time("solver.forces_solid_ms", "ms"),
    time("solver.forces_fluid_ms", "ms"),
    time("solver.newmark_ms", "ms"),
    time("solver.atten_step_ratio", "ratio"),
    count("solver.flops_per_step", "count"),
    rate("solver.gflops", "Gflop/s"),
    rate("solver.elem_steps_per_s", "1/s"),
    time("solver.lts8_step_ratio", "ratio"),
    count("solver.lts8_steps_saved_frac", "ratio"),
    count("comm.msgs_per_step.w2", "count"),
    count("comm.bytes_per_step.w2", "B"),
    time("comm.halo_roundtrip_us.w2", "us"),
    time("comm.halo_post_us.w2", "us"),
    time("comm.halo_finish_us.w2", "us"),
    time("comm.allreduce_us.w2", "us"),
    time("comm.wall_frac.w2", "ratio"),
    time("comm.post_s.w2", "s"),
    time("comm.wait_s.w2", "s"),
    time("comm.blocking_vs_overlap_ratio", "ratio"),
    time("batch.setup_s.k8", "s"),
    time("batch.step_ms.k8", "ms"),
    time("batch.lane_cost_ratio.k8", "ratio"),
    time("io.mesh_save_ms.nex8", "ms"),
    time("io.mesh_load_ms.nex8", "ms"),
    count("io.mesh_artifact_mb.nex8", "MB"),
    time("io.ckpt_write_ms.nex8", "ms"),
    time("io.ckpt_restore_ms.nex8", "ms"),
    count("io.ckpt_mb.nex8", "MB"),
    time("io.result_put_us", "us"),
    time("io.result_get_mem_us", "us"),
    time("io.result_get_disk_us", "us"),
    time("serve.health_p50_ms", "ms"),
    time("serve.parse_us", "us"),
    time("serve.start_ms", "ms"),
    time("serve.shutdown_ms", "ms"),
    time("core.sim_build_us", "us"),
    time("core.result_key_us", "us"),
    time("obs.span_ns.disabled", "ns"),
    time("obs.span_ns.armed", "ns"),
    rate("host.triad_gbs", "GB/s"),
    time("host.calib_ms", "ms"),
];

/// The command the acceptance driver runs; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly as committed at the root of the repository.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                json_num(m.bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Unit of a metric of either kind.
pub fn unit(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `tests/smoke.rs` holds the committed BENCHMARK.json to the driver's
    // contract; this ties that file to the table, so the table is held too.
    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = crate::util::bench_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn setup_has_the_largest_bound_and_span_layers_have_metrics() {
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for layer in SPAN_LAYERS {
            assert!(per_layer(&format!("{layer}.self_s")).is_some());
            assert!(per_layer(&format!("{layer}.calls")).is_some());
        }
    }
}
