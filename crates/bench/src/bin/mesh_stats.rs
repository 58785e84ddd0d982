//! §4 memory sizing: "the mesher and solver would each require at least
//! 37 TBs … around 62K cores having around 1.85 GB of memory per core" —
//! mesh statistics at laptop scale plus the extrapolated sizing, and the
//! seconds each set-up phase (mesher phases, serial extraction) took.

use specfem_bench::{prem_mesh, timed};
use specfem_mesh::report::{estimate_global_solver_bytes, MeshStatistics};
use specfem_mesh::Partition;

fn main() {
    println!("== Mesh statistics and the §4 memory sizing ==");
    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>12}",
        "NEX", "nspec", "nglob", "shared", "solver mem"
    );
    for nex in [4usize, 8, 12] {
        let mesh = prem_mesh(nex, 1);
        let stats = MeshStatistics::collect(&mesh);
        println!(
            "{nex:>6} {:>9} {:>9} {:>10} {:>12}",
            stats.nspec,
            stats.nglob,
            stats.shared_points,
            specfem_bench::human_bytes(stats.solver_bytes as f64)
        );
        println!(
            "       regions: crust-mantle {}, outer core {}, inner core {}, cube {}",
            stats.elements[0], stats.elements[1], stats.elements[2], stats.elements[3]
        );
        let (_, extract_s) = timed(|| Partition::serial(&mesh).extract(&mesh, 0));
        let r = &mesh.report;
        println!(
            "       set-up: geometry {:.3} s, materials {:.3} s, numbering {:.3} s, serial extract {extract_s:.3} s",
            r.geometry_seconds, r.material_seconds, r.numbering_seconds
        );
    }

    println!();
    println!("extrapolated production sizing (fixed ~100 radial layers):");
    for (label, nex) in [("3 s", 1456usize), ("2 s", 2176), ("1 s", 4352)] {
        let bytes = estimate_global_solver_bytes(nex, 100);
        let per_core_62k = bytes as f64 / 62_976.0;
        println!(
            "  T = {label:>3} (NEX {nex:>5}): total {:>10}, per core on 62,976 cores: {:>9}",
            specfem_bench::human_bytes(bytes as f64),
            specfem_bench::human_bytes(per_core_62k)
        );
    }
    println!("  paper §4: ~37 TB per application half, ~1.85 GB/core at 62K cores");
}
