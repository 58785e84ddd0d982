//! §4.4-1 ablation: the legacy mesher "was actually run twice internally"
//! (geometry, then a second full pass for material properties), slowing it
//! by ~2×; the merged one-pass assignment fixed it.

use specfem_bench::{prem_mesh_with, timed};

fn main() {
    println!("== Mesher pass ablation (paper §4.4-1: legacy two-pass ≈ 2× slower) ==");
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "NEX", "one-pass (s)", "two-pass (s)", "ratio"
    );
    for nex in [6usize, 8, 12] {
        // Warm-up build to stabilize the allocator.
        let _ = prem_mesh_with(nex, 1, |_| {});
        let (m1, t1) = timed(|| prem_mesh_with(nex, 1, |p| p.legacy_two_pass_materials = false));
        let (m2, t2) = timed(|| prem_mesh_with(nex, 1, |p| p.legacy_two_pass_materials = true));
        assert_eq!(m1.rho, m2.rho, "both modes must agree");
        println!("{nex:>6} {t1:>14.3} {t2:>14.3} {:>10.2}", t2 / t1);
        // The legacy mode redoes the geometry inside the material pass and
        // nothing else, so the ratio it can show is 1 + geometry / build.
        let (r1, r2) = (&m1.report, &m2.report);
        println!(
            "       geometry {:.3}s/{:.3}s, materials {:.3}s/{:.3}s, numbering {:.3}s/{:.3}s; \
             predicted ratio 1 + geometry/build = {:.2}",
            r1.geometry_seconds,
            r2.geometry_seconds,
            r1.material_seconds,
            r2.material_seconds,
            r1.numbering_seconds,
            r2.numbering_seconds,
            1.0 + r1.geometry_seconds / t1,
        );
    }
    println!();
    println!("the two-pass mode regenerates the element geometry wholesale inside the");
    println!("material pass — the paper merged the steps ('assigning properties to each");
    println!("mesh element right after its creation').");
}
