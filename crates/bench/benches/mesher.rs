//! The mesher, layer by layer: one-pass vs legacy two-pass material
//! assignment (E-MESH2X, paper §4.4-1), global point numbering alone, and
//! rank extraction alone — what stands between a request and its first
//! time step, measurable in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use specfem_bench::prem_mesh;
use specfem_mesh::numbering::number_element_nodes;
use specfem_mesh::{GlobalMesh, MeshParams, Partition};
use specfem_model::Prem;

fn bench_mesher(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesher_passes");
    group.sample_size(10);
    let prem = Prem::isotropic_no_ocean();
    for (name, two_pass) in [("one_pass", false), ("legacy_two_pass", true)] {
        group.bench_function(BenchmarkId::new("mode", name), |b| {
            b.iter(|| {
                let mut params = MeshParams::new(6, 1);
                params.legacy_two_pass_materials = two_pass;
                let mesh = GlobalMesh::build(&params, &prem);
                black_box(mesh.nglob)
            })
        });
    }
    group.finish();
}

/// Numbering on the node stream of a built mesh (every element's nodes,
/// shared ones repeated), as `GlobalMesh::build` runs it.
fn bench_numbering(c: &mut Criterion) {
    let mut group = c.benchmark_group("numbering");
    group.sample_size(5);
    for nex in [8usize, 12] {
        let mesh = prem_mesh(nex, 1);
        let nodes: Vec<[f64; 3]> = (0..mesh.nspec)
            .flat_map(|e| mesh.element_nodes(e))
            .collect();
        let np = mesh.basis.npoints();
        group.bench_function(BenchmarkId::new("nex", nex), |b| {
            b.iter(|| {
                let (ibool, coords) = number_element_nodes(black_box(&nodes), np, 0.05);
                assert_eq!(coords.len(), mesh.nglob);
                black_box(ibool.len())
            })
        });
    }
    group.finish();
}

/// Extraction of every rank's local mesh from one NEX 8 global mesh.
fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract");
    group.sample_size(5);
    let mesh = prem_mesh(8, 1);
    for world in [1usize, 2, 6] {
        let partition = Partition::balanced(&mesh, world);
        group.bench_function(BenchmarkId::new("nex8_world", world), |b| {
            b.iter(|| black_box(partition.extract_all(black_box(&mesh)).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mesher, bench_numbering, bench_extract);
criterion_main!(benches);
