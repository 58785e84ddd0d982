//! E-SSE microbenchmark (paper §4.3): the cut-plane 5×5 matrix-product
//! kernel in its three implementations, streamed over a batch of elements
//! (as the solver does), plus the padded-vs-unpadded layout comparison.
//!
//! Expected shape: `simd` beats `reference` by roughly the paper's 15–20 %
//! (modern LLVM already auto-vectorizes some of the reference, exactly as
//! the paper notes compilers of its era had begun to); `blas_style` loses
//! badly to both.
//!
//! The `lanes` group is the fused tier's kernel-level number: both
//! cut-plane stages on lane-major blocks of k = 1, 2, 3, 8, 16 event
//! lanes, throughput in lane-elements per second (its inverse is the cost
//! of one lane of one element), beside the single-lane reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use specfem_gll::GllBasis;
use specfem_kernels::{
    batched_cutplane_derivatives, batched_cutplane_transpose_accumulate, blas_style, reference,
    simd, DerivOps, KernelVariant, NGLL3, NGLL3_PADDED,
};

const BATCH: usize = 512; // elements per iteration — streams like the solver

fn make_batch(pad: usize) -> Vec<f32> {
    (0..BATCH * pad)
        .map(|i| ((i as u32).wrapping_mul(2654435761) % 1000) as f32 / 500.0 - 1.0)
        .collect()
}

fn bench_derivatives(c: &mut Criterion) {
    let ops = DerivOps::from_basis(&GllBasis::new(4));
    let mut group = c.benchmark_group("cutplane_derivatives");
    group.throughput(Throughput::Elements(BATCH as u64));

    let upad = make_batch(NGLL3_PADDED);
    let unpadded = make_batch(NGLL3);

    group.bench_function(BenchmarkId::new("reference", "padded"), |b| {
        let mut t1 = vec![0.0f32; NGLL3_PADDED];
        let mut t2 = vec![0.0f32; NGLL3_PADDED];
        let mut t3 = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let u = &upad[e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED];
                reference::cutplane_derivatives(
                    black_box(u),
                    &ops.hprime,
                    &mut t1,
                    &mut t2,
                    &mut t3,
                );
            }
            black_box(t1[0])
        })
    });

    group.bench_function(BenchmarkId::new("reference", "unpadded"), |b| {
        let mut t1 = vec![0.0f32; NGLL3];
        let mut t2 = vec![0.0f32; NGLL3];
        let mut t3 = vec![0.0f32; NGLL3];
        b.iter(|| {
            for e in 0..BATCH {
                let u = &unpadded[e * NGLL3..(e + 1) * NGLL3];
                reference::cutplane_derivatives_unpadded(
                    black_box(u),
                    &ops.hprime,
                    &mut t1,
                    &mut t2,
                    &mut t3,
                );
            }
            black_box(t1[0])
        })
    });

    group.bench_function(BenchmarkId::new("simd_4plus1", "padded"), |b| {
        let mut t1 = vec![0.0f32; NGLL3_PADDED];
        let mut t2 = vec![0.0f32; NGLL3_PADDED];
        let mut t3 = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let u = &upad[e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED];
                simd::cutplane_derivatives(black_box(u), &ops.hprime, &mut t1, &mut t2, &mut t3);
            }
            black_box(t1[0])
        })
    });

    group.bench_function(BenchmarkId::new("blas_style", "padded"), |b| {
        let mut t1 = vec![0.0f32; NGLL3_PADDED];
        let mut t2 = vec![0.0f32; NGLL3_PADDED];
        let mut t3 = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let u = &upad[e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED];
                blas_style::cutplane_derivatives(
                    black_box(u),
                    &ops.hprime,
                    &mut t1,
                    &mut t2,
                    &mut t3,
                );
            }
            black_box(t1[0])
        })
    });

    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let ops = DerivOps::from_basis(&GllBasis::new(4));
    let mut group = c.benchmark_group("cutplane_transpose_accumulate");
    group.throughput(Throughput::Elements(BATCH as u64));
    let f1 = make_batch(NGLL3_PADDED);
    let f2 = make_batch(NGLL3_PADDED);
    let f3 = make_batch(NGLL3_PADDED);

    group.bench_function("reference", |b| {
        let mut out = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let s = e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED;
                reference::cutplane_transpose_accumulate(
                    black_box(&f1[s.clone()]),
                    &f2[s.clone()],
                    &f3[s],
                    &ops.hprime_wgll_t,
                    &mut out,
                );
            }
            black_box(out[0])
        })
    });

    group.bench_function("simd_4plus1", |b| {
        let mut out = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let s = e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED;
                simd::cutplane_transpose_accumulate(
                    black_box(&f1[s.clone()]),
                    &f2[s.clone()],
                    &f3[s],
                    &ops.hprime_wgll_t,
                    &mut out,
                );
            }
            black_box(out[0])
        })
    });

    group.bench_function("blas_style", |b| {
        let mut out = vec![0.0f32; NGLL3_PADDED];
        b.iter(|| {
            for e in 0..BATCH {
                let s = e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED;
                blas_style::cutplane_transpose_accumulate(
                    black_box(&f1[s.clone()]),
                    &f2[s.clone()],
                    &f3[s],
                    &ops.hprime_wgll_t,
                    &mut out,
                );
            }
            black_box(out[0])
        })
    });

    group.finish();
}

/// Lane cost (see the module header): a lane that costs less than the
/// `single` row is what makes a fused step cheaper than `k` serial ones.
fn bench_lanes(c: &mut Criterion) {
    let ops = DerivOps::from_basis(&GllBasis::new(4));
    let mut group = c.benchmark_group("lanes");

    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("single", |b| {
        let u = make_batch(NGLL3_PADDED);
        let [mut t1, mut t2, mut t3, mut out] = [(); 4].map(|_| vec![0.0f32; NGLL3_PADDED]);
        b.iter(|| {
            for e in 0..BATCH {
                let u = &u[e * NGLL3_PADDED..(e + 1) * NGLL3_PADDED];
                reference::cutplane_derivatives(
                    black_box(u),
                    &ops.hprime,
                    &mut t1,
                    &mut t2,
                    &mut t3,
                );
                reference::cutplane_transpose_accumulate(
                    &t1,
                    &t2,
                    &t3,
                    &ops.hprime_wgll_t,
                    &mut out,
                );
            }
            black_box(out[0])
        })
    });

    for k in [1usize, 2, 3, 8, 16] {
        group.throughput(Throughput::Elements((BATCH * k) as u64));
        group.bench_function(BenchmarkId::new("k", k), |b| {
            let n = NGLL3 * k;
            let u = make_batch(n);
            let [mut t1, mut t2, mut t3, mut out] = [(); 4].map(|_| vec![0.0f32; n]);
            b.iter(|| {
                for e in 0..BATCH {
                    batched_cutplane_derivatives(
                        KernelVariant::Reference,
                        black_box(&u[e * n..(e + 1) * n]),
                        k,
                        &ops,
                        &mut t1,
                        &mut t2,
                        &mut t3,
                    );
                    batched_cutplane_transpose_accumulate(
                        KernelVariant::Reference,
                        &t1,
                        &t2,
                        &t3,
                        k,
                        &ops,
                        &mut out,
                    );
                }
                black_box(out[0])
            })
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_derivatives, bench_transpose, bench_lanes
}
criterion_main!(benches);
