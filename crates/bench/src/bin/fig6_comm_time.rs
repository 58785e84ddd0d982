//! Figure 6: total MPI time for all cores vs processor count, for two
//! resolutions — measured on the simulated-MPI substrate (deterministic
//! modeled network time, charged against the XT4 profile like the paper's
//! Franklin runs), then fitted.

use specfem_bench::prem_mesh_cached;
use specfem_campaign::MeshCache;
use specfem_comm::NetworkProfile;
use specfem_perf::{CommTimeModel, Sample};
use specfem_solver::{run_distributed, SolverConfig};

fn measure(cache: &MeshCache, nex: usize, nproc: usize, nsteps: usize) -> (usize, f64, f64) {
    // One geometry build per resolution: the rank-count sweep reuses it
    // through the campaign cache (derived hits re-stamp the
    // decomposition knobs instead of re-meshing).
    let mesh = prem_mesh_cached(cache, nex, nproc, |_| {});
    let config = SolverConfig {
        nsteps,
        ..SolverConfig::default()
    };
    let results = run_distributed(&mesh, &config, &[], NetworkProfile::xt4_seastar2());
    let ranks = results.len();
    let total_modeled: f64 = results.iter().map(|r| r.comm.modeled_time_s).sum();
    let total_wall: f64 = results.iter().map(|r| r.comm.wall_time_s).sum();
    (ranks, total_modeled, total_wall)
}

fn main() {
    println!("== Figure 6: total communication time (all cores) vs processor count ==");
    let nsteps = 40;
    let cache = MeshCache::new(0);
    for (label, nex, procs) in [
        ("low res (NEX 8)", 8usize, vec![1usize, 2, 4]),
        ("high res (NEX 12)", 12, vec![1, 2, 3]),
    ] {
        println!();
        println!("--- {label} ---");
        println!(
            "{:>6} {:>18} {:>16}",
            "ranks", "modeled total (s)", "wall total (s)"
        );
        let mut samples = Vec::new();
        for nproc in procs {
            let (ranks, modeled, wall) = measure(&cache, nex, nproc, nsteps);
            println!("{ranks:>6} {modeled:>18.4} {wall:>16.4}");
            if ranks > 1 {
                samples.push(Sample {
                    x: ranks as f64,
                    y: modeled,
                });
            }
        }
        let model = CommTimeModel::fit(nex, &samples);
        println!(
            "fit: t_total(P) = c·P^{:.2}  →  per-core time ∝ P^{:.2}",
            model.exponent(),
            model.exponent() - 1.0
        );
        println!(
            "paper's observations: total grows with P{}; per-core time falls with P{}",
            if model.exponent() > 0.0 {
                " ✓"
            } else {
                " ✗"
            },
            if model.exponent() < 1.0 {
                " ✓"
            } else {
                " ✗"
            }
        );
        for p in [12_000usize, 62_000] {
            println!(
                "  extrapolated to {p} cores: total {:.3e} s, per core {:.1} s",
                model.predict_total(p),
                model.predict_per_core(p)
            );
        }
    }
    let stats = cache.stats();
    println!();
    println!(
        "mesh cache: {} builds, {} derived hits (one geometry per resolution)",
        stats.misses, stats.derived_hits
    );
}
