//! Figure 7: totaled execution time for all cores vs resolution
//! (normalized) — measured over a NEX sweep with the production-style
//! *fixed* radial layering, fitted, and validated on a held-out resolution
//! (the paper validated its NEX=1440 prediction "within 12 %").

use specfem_bench::{prem_mesh_cached, timed};
use specfem_campaign::MeshCache;
use specfem_perf::{RuntimeModel, Sample};
use specfem_solver::{run_serial, SolverConfig};

/// Steps ∝ NEX (the Courant dt shrinks with resolution); this keeps the
/// measured work ∝ NEX³ like the paper's full runs.
fn steps_for(nex: usize) -> usize {
    6 * nex
}

fn total_core_seconds(cache: &MeshCache, nex: usize) -> f64 {
    // Meshes come through the campaign cache, so any resolution measured
    // more than once (validation re-runs, repeated sweeps) meshes once.
    let mesh = prem_mesh_cached(cache, nex, 1, |p| {
        p.radial_layer_nex = Some(6); // fixed radial layering (production style)
    });
    let config = SolverConfig {
        nsteps: steps_for(nex),
        ..SolverConfig::default()
    };
    let (_, seconds) = timed(|| run_serial(&mesh, &config, &[]));
    seconds // one core → core-seconds = wall
}

fn main() {
    println!("== Figure 7: totaled execution time vs resolution (normalized) ==");
    let cache = MeshCache::new(0);
    let nexes = [4usize, 6, 8, 10, 12];
    let mut samples = Vec::new();
    println!("{:>6} {:>12} {:>14}", "NEX", "steps", "core-sec");
    for &nex in &nexes {
        let t = total_core_seconds(&cache, nex);
        println!("{nex:>6} {:>12} {t:>14.3}", steps_for(nex));
        samples.push(Sample {
            x: nex as f64,
            y: t,
        });
    }

    // Fit on all but the largest; hold the largest out for validation.
    let fit_set = &samples[..samples.len() - 1];
    let held_out = samples[samples.len() - 1];
    let model = RuntimeModel::fit(fit_set);
    println!();
    println!(
        "fit: T_total(NEX) = c·NEX^{:.2}  (paper Figure 7 shape: ≈ NEX³ growth)",
        model.exponent()
    );
    let err = model.relative_error(held_out.x as usize, held_out.y);
    println!(
        "held-out NEX={} prediction error: {:.1} % (paper: NEX=1440 within 12 %)",
        held_out.x as usize,
        err * 100.0
    );

    println!();
    println!("normalized curve over the paper's resolutions:");
    let full = RuntimeModel::fit(&samples);
    let paper_res = [96usize, 144, 288, 320, 512, 640];
    let curve = full.normalized_curve(&paper_res);
    for (nex, val) in paper_res.iter().zip(&curve) {
        println!("  NEX {nex:>4} → {val:>8.1}");
    }
    println!(
        "range 1 … {:.0} (paper Figure 7 y-axis: 1 … ~301)",
        curve.last().unwrap()
    );
}
