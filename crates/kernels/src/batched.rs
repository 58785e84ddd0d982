//! Batched (multi-event) cut-plane kernels: the 5×5 matrix products of
//! [`crate::reference`] widened to 5×5×K, with K event lanes stored
//! innermost (lane-major SoA — see [`crate::layout::lane_major`]).
//!
//! This is the transformation of Yamaguchi et al.'s multiple-simulation
//! work: K earthquakes sharing one mesh advance in a single solve, so
//! every metric term, derivative operator row, and cache line of
//! geometry is loaded once and applied to K wavefields.
//!
//! **Bit-identity contract (ULP policy: zero).** A batched solve must be
//! bit-identical to the K serial solves it replaces, per lane:
//!
//! * the lane-fused kernels in this module keep the *per-lane* sequence
//!   of f32 operations exactly equal to the single-lane reference
//!   kernel — accumulators live per lane and start at zero, the `l`
//!   contraction ascends, and the three-term accumulate expression keeps
//!   the reference's association order — so each lane reproduces the
//!   reference result bit-for-bit;
//! * the lane index is the vector dimension: one generic kernel source
//!   over `W` lanes, `W` a compile-time constant, instantiated at
//!   W ∈ {8, 4, 2, 1} by [`for_each_chunk`], which covers any lane count
//!   greedily (7 → 4 + 2 + 1). Accumulators are `[f32; W]` values, so the
//!   lane loop has a fixed trip count and no index check, and since lanes
//!   never mix the result cannot depend on the decomposition;
//! * the `Simd` / `BlasStyle` variants run the *unmodified* single-lane
//!   kernel per lane on gathered blocks (gather → kernel → scatter);
//!   copies are exact, so those variants are trivially bit-identical
//!   to their single-lane selves.

use crate::layout::{NGLL, NGLL3, NGLL3_PADDED};
use crate::{DerivOps, KernelVariant};

/// Hard cap on event lanes per batch (what the packer may fuse).
pub const MAX_BATCH_LANES: usize = 32;

/// Widest lane chunk the kernels are instantiated at.
pub const MAX_CHUNK_LANES: usize = 8;

/// `W` event lanes of one element block, `block[slot][lane]` — a
/// lane-major block whose lane count is a compile-time constant, so the
/// lane loop is the vector dimension of every operation on it.
pub type LaneBlock<const W: usize> = [[f32; W]; NGLL3];

/// Work done on one chunk of `W` lanes starting at lane `offset` — what
/// [`for_each_chunk`] instantiates at every chunk width.
pub trait ChunkFn {
    /// Process lanes `offset..offset + W`.
    fn call<const W: usize>(&mut self, offset: usize);
}

/// The chunk driver: cover lanes `0..k` greedily with chunks of 8, 4, 2
/// and 1 lanes (16 → 8 + 8, 7 → 4 + 2 + 1), ascending. Lanes never mix
/// inside a kernel, so the result cannot depend on the decomposition.
pub fn for_each_chunk(k: usize, f: &mut impl ChunkFn) {
    let mut offset = 0;
    while k - offset >= MAX_CHUNK_LANES {
        f.call::<MAX_CHUNK_LANES>(offset);
        offset += MAX_CHUNK_LANES;
    }
    if k - offset >= 4 {
        f.call::<4>(offset);
        offset += 4;
    }
    if k - offset >= 2 {
        f.call::<2>(offset);
        offset += 2;
    }
    if k - offset >= 1 {
        f.call::<1>(offset);
    }
}

/// Read access to the `W` lanes of each slot of an element block.
trait Lanes<const W: usize> {
    fn lanes(&self, slot: usize) -> [f32; W];
}

/// Write access to the `W` lanes of each slot of an element block.
trait LanesMut<const W: usize> {
    fn lanes_mut(&mut self, slot: usize) -> &mut [f32; W];
}

impl<const W: usize> Lanes<W> for LaneBlock<W> {
    #[inline(always)]
    fn lanes(&self, slot: usize) -> [f32; W] {
        self[slot]
    }
}

impl<const W: usize> LanesMut<W> for LaneBlock<W> {
    #[inline(always)]
    fn lanes_mut(&mut self, slot: usize) -> &mut [f32; W] {
        &mut self[slot]
    }
}

/// Lanes `offset..offset + W` of a `k`-lane lane-major slice: slot `s`
/// lives at `data[s·k + offset..][..W]`.
struct Strided<D> {
    data: D,
    k: usize,
    offset: usize,
}

impl<D> Strided<D> {
    fn new(data: D, k: usize, offset: usize) -> Self {
        Self { data, k, offset }
    }
}

impl<const W: usize> Lanes<W> for Strided<&[f32]> {
    #[inline(always)]
    fn lanes(&self, slot: usize) -> [f32; W] {
        let at = slot * self.k + self.offset;
        *self.data[at..at + W]
            .first_chunk()
            .expect("slice of W lanes")
    }
}

impl<const W: usize> LanesMut<W> for Strided<&mut [f32]> {
    #[inline(always)]
    fn lanes_mut(&mut self, slot: usize) -> &mut [f32; W] {
        let at = slot * self.k + self.offset;
        self.data[at..at + W]
            .first_chunk_mut()
            .expect("slice of W lanes")
    }
}

/// One direction of the derivative stage along one line of five slots
/// (`base + l·stride`): the line is loaded once and gives its five outputs,
/// `t[base + m·stride] = Σ_l h[m][l]·u[base + l·stride]` per lane.
#[inline(always)]
fn line_derivative<const W: usize>(
    u: &impl Lanes<W>,
    h: &[[f32; NGLL]; NGLL],
    t: &mut impl LanesMut<W>,
    base: usize,
    stride: usize,
) {
    let line: [[f32; W]; NGLL] = std::array::from_fn(|l| u.lanes(base + l * stride));
    for m in 0..NGLL {
        let mut a = [0.0f32; W];
        for l in 0..NGLL {
            let hml = h[m][l];
            for lane in 0..W {
                a[lane] += hml * line[l][lane];
            }
        }
        *t.lanes_mut(base + m * stride) = a;
    }
}

/// The one cut-plane derivative kernel, over `W` lanes. Per lane and per
/// output this is exactly the reference kernel's operation sequence
/// (zero-initialised accumulator, `l` ascending); the three directions
/// are independent sums, so taking them line by line changes no bit.
#[inline(always)]
fn derivatives_kernel<const W: usize>(
    u: &impl Lanes<W>,
    h: &[[f32; NGLL]; NGLL],
    t1: &mut impl LanesMut<W>,
    t2: &mut impl LanesMut<W>,
    t3: &mut impl LanesMut<W>,
) {
    for a in 0..NGLL {
        for b in 0..NGLL {
            line_derivative(u, h, t1, (a * NGLL + b) * NGLL, 1);
            line_derivative(u, h, t2, a * NGLL * NGLL + b, NGLL);
            line_derivative(u, h, t3, a * NGLL + b, NGLL * NGLL);
        }
    }
}

/// The one weighted-transpose kernel, over `W` lanes. Mirrors the
/// reference kernel per lane: one fused accumulator per point, three
/// products added per `l` in the same association order, a single `+=`
/// into `out` at the end.
#[inline(always)]
fn transpose_accumulate_kernel<const W: usize>(
    f1: &impl Lanes<W>,
    f2: &impl Lanes<W>,
    f3: &impl Lanes<W>,
    w: &[[f32; NGLL]; NGLL],
    out: &mut impl LanesMut<W>,
) {
    for kk in 0..NGLL {
        for j in 0..NGLL {
            let line: [[f32; W]; NGLL] =
                std::array::from_fn(|l| f1.lanes((kk * NGLL + j) * NGLL + l));
            for i in 0..NGLL {
                let mut acc = [0.0f32; W];
                for l in 0..NGLL {
                    let w1 = w[i][l];
                    let w2 = w[j][l];
                    let w3 = w[kk][l];
                    let g1 = line[l];
                    let g2 = f2.lanes((kk * NGLL + l) * NGLL + i);
                    let g3 = f3.lanes((l * NGLL + j) * NGLL + i);
                    for lane in 0..W {
                        acc[lane] += w1 * g1[lane] + w2 * g2[lane] + w3 * g3[lane];
                    }
                }
                let o = out.lanes_mut((kk * NGLL + j) * NGLL + i);
                for lane in 0..W {
                    o[lane] += acc[lane];
                }
            }
        }
    }
}

/// Cut-plane derivatives of one `W`-lane chunk block. `Reference` runs the
/// chunk kernel; `Simd` / `BlasStyle` run the unmodified single-lane
/// kernel per lane via gather/scatter (see [`dispatch_derivatives`]).
pub fn chunk_derivatives<const W: usize>(
    variant: KernelVariant,
    u: &LaneBlock<W>,
    ops: &DerivOps,
    t1: &mut LaneBlock<W>,
    t2: &mut LaneBlock<W>,
    t3: &mut LaneBlock<W>,
) {
    match variant {
        KernelVariant::Reference => derivatives_kernel(u, &ops.hprime, t1, t2, t3),
        KernelVariant::Simd | KernelVariant::BlasStyle => dispatch_derivatives(
            variant,
            u.as_flattened(),
            W,
            ops,
            t1.as_flattened_mut(),
            t2.as_flattened_mut(),
            t3.as_flattened_mut(),
        ),
    }
}

/// Weighted-transpose accumulation of one `W`-lane chunk block (see
/// [`chunk_derivatives`] for the per-variant strategy).
pub fn chunk_transpose_accumulate<const W: usize>(
    variant: KernelVariant,
    f1: &LaneBlock<W>,
    f2: &LaneBlock<W>,
    f3: &LaneBlock<W>,
    ops: &DerivOps,
    out: &mut LaneBlock<W>,
) {
    match variant {
        KernelVariant::Reference => {
            transpose_accumulate_kernel(f1, f2, f3, &ops.hprime_wgll_t, out)
        }
        KernelVariant::Simd | KernelVariant::BlasStyle => dispatch_transpose_accumulate(
            variant,
            f1.as_flattened(),
            f2.as_flattened(),
            f3.as_flattened(),
            W,
            ops,
            out.as_flattened_mut(),
        ),
    }
}

struct DerivativesLanes<'a> {
    u: &'a [f32],
    k: usize,
    h: &'a [[f32; NGLL]; NGLL],
    t1: &'a mut [f32],
    t2: &'a mut [f32],
    t3: &'a mut [f32],
}

impl ChunkFn for DerivativesLanes<'_> {
    fn call<const W: usize>(&mut self, offset: usize) {
        let k = self.k;
        derivatives_kernel::<W>(
            &Strided::new(self.u, k, offset),
            self.h,
            &mut Strided::new(&mut *self.t1, k, offset),
            &mut Strided::new(&mut *self.t2, k, offset),
            &mut Strided::new(&mut *self.t3, k, offset),
        );
    }
}

/// Lane-fused `t_d = ∂u/∂(ξ,η,γ)` on a lane-major block: `u[slot·k + lane]`
/// with `slot < NGLL3`. Per lane this performs exactly the reference
/// kernel's operation sequence; the lanes are covered by
/// [`for_each_chunk`], each chunk a strided view of the slices.
pub fn cutplane_derivatives_lanes(
    u: &[f32],
    k: usize,
    h: &[[f32; NGLL]; NGLL],
    t1: &mut [f32],
    t2: &mut [f32],
    t3: &mut [f32],
) {
    assert!(
        (1..=MAX_BATCH_LANES).contains(&k),
        "lane count {k} out of range"
    );
    for_each_chunk(
        k,
        &mut DerivativesLanes {
            u,
            k,
            h,
            t1,
            t2,
            t3,
        },
    );
}

struct TransposeLanes<'a> {
    f1: &'a [f32],
    f2: &'a [f32],
    f3: &'a [f32],
    k: usize,
    w: &'a [[f32; NGLL]; NGLL],
    out: &'a mut [f32],
}

impl ChunkFn for TransposeLanes<'_> {
    fn call<const W: usize>(&mut self, offset: usize) {
        let k = self.k;
        transpose_accumulate_kernel::<W>(
            &Strided::new(self.f1, k, offset),
            &Strided::new(self.f2, k, offset),
            &Strided::new(self.f3, k, offset),
            self.w,
            &mut Strided::new(&mut *self.out, k, offset),
        );
    }
}

/// Lane-fused weighted-transpose accumulation on lane-major blocks; per
/// lane the reference kernel's operation sequence, chunked like
/// [`cutplane_derivatives_lanes`].
pub fn cutplane_transpose_accumulate_lanes(
    f1: &[f32],
    f2: &[f32],
    f3: &[f32],
    k: usize,
    w: &[[f32; NGLL]; NGLL],
    out: &mut [f32],
) {
    assert!(
        (1..=MAX_BATCH_LANES).contains(&k),
        "lane count {k} out of range"
    );
    for_each_chunk(
        k,
        &mut TransposeLanes {
            f1,
            f2,
            f3,
            k,
            w,
            out,
        },
    );
}

/// Copy one lane out of a lane-major block into a padded single-lane
/// block (padding stays zero).
pub fn gather_lane(src: &[f32], k: usize, lane: usize, dst: &mut [f32; NGLL3_PADDED]) {
    for slot in 0..NGLL3 {
        dst[slot] = src[slot * k + lane];
    }
}

/// Write a padded single-lane block back into one lane of a lane-major
/// block.
pub fn scatter_lane(src: &[f32; NGLL3_PADDED], k: usize, lane: usize, dst: &mut [f32]) {
    for slot in 0..NGLL3 {
        dst[slot * k + lane] = src[slot];
    }
}

/// Dispatch: batched cut-plane derivatives on a lane-major block.
/// `Reference` runs the lane-fused kernel; `Simd` / `BlasStyle` run the
/// unmodified single-lane kernel per lane via gather/scatter.
pub fn dispatch_derivatives(
    variant: KernelVariant,
    u: &[f32],
    k: usize,
    ops: &DerivOps,
    t1: &mut [f32],
    t2: &mut [f32],
    t3: &mut [f32],
) {
    match variant {
        KernelVariant::Reference => cutplane_derivatives_lanes(u, k, &ops.hprime, t1, t2, t3),
        KernelVariant::Simd | KernelVariant::BlasStyle => {
            let mut ub = [0.0f32; NGLL3_PADDED];
            let mut b1 = [0.0f32; NGLL3_PADDED];
            let mut b2 = [0.0f32; NGLL3_PADDED];
            let mut b3 = [0.0f32; NGLL3_PADDED];
            for lane in 0..k {
                gather_lane(u, k, lane, &mut ub);
                crate::cutplane_derivatives(variant, &ub, ops, &mut b1, &mut b2, &mut b3);
                scatter_lane(&b1, k, lane, t1);
                scatter_lane(&b2, k, lane, t2);
                scatter_lane(&b3, k, lane, t3);
            }
        }
    }
}

/// Dispatch: batched weighted-transpose accumulation on lane-major
/// blocks (see [`dispatch_derivatives`] for the per-variant strategy).
pub fn dispatch_transpose_accumulate(
    variant: KernelVariant,
    f1: &[f32],
    f2: &[f32],
    f3: &[f32],
    k: usize,
    ops: &DerivOps,
    out: &mut [f32],
) {
    match variant {
        KernelVariant::Reference => {
            cutplane_transpose_accumulate_lanes(f1, f2, f3, k, &ops.hprime_wgll_t, out)
        }
        KernelVariant::Simd | KernelVariant::BlasStyle => {
            let mut g1 = [0.0f32; NGLL3_PADDED];
            let mut g2 = [0.0f32; NGLL3_PADDED];
            let mut g3 = [0.0f32; NGLL3_PADDED];
            let mut ob = [0.0f32; NGLL3_PADDED];
            for lane in 0..k {
                gather_lane(f1, k, lane, &mut g1);
                gather_lane(f2, k, lane, &mut g2);
                gather_lane(f3, k, lane, &mut g3);
                gather_lane(out, k, lane, &mut ob);
                crate::cutplane_transpose_accumulate(variant, &g1, &g2, &g3, ops, &mut ob);
                scatter_lane(&ob, k, lane, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::lane_major;
    use crate::reference;
    use specfem_gll::GllBasis;

    /// Every chunk decomposition: 1, 2, 2+1, 4, 4+1, 4+2, 4+2+1, 8, 8+1,
    /// 8+8 and 8+8+8+8.
    const LANE_COUNTS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32];

    fn hash(i: usize, seed: u32) -> u32 {
        (i as u32).wrapping_mul(2654435761).wrapping_add(seed)
    }

    fn lane_field(seed: u32) -> Vec<f32> {
        let mut v = vec![0.0f32; NGLL3_PADDED];
        for (i, x) in v.iter_mut().take(NGLL3).enumerate() {
            *x = (hash(i, seed) % 1000) as f32 / 500.0 - 1.0;
        }
        v
    }

    /// A field of the values a quiet wavefield is made of: signed zeros,
    /// subnormals, normals at the edge of the subnormal range, and
    /// ordinary values.
    fn quiet_field(seed: u32) -> Vec<f32> {
        let mut v = lane_field(seed);
        for (i, x) in v.iter_mut().take(NGLL3).enumerate() {
            let h = hash(i, seed ^ 0x9e37_79b9) >> 8;
            let tiny = (h % 997 + 1) as f32;
            match h % 7 {
                0 => *x = 0.0,
                1 => *x = -0.0,
                2 => *x = f32::from_bits(h % 0x007f_ffff + 1), // subnormal
                3 => *x = -f32::from_bits(h % 0x0000_0fff + 1), // subnormal
                4 => *x = tiny * 1.0e-38,
                5 => *x = -tiny * 1.0e-41,
                _ => {}
            }
        }
        v
    }

    /// Lane `lane` of a `k`-lane test batch: ordinary, quiet and
    /// all-negative-zero lanes interleaved.
    fn mixed_lane(lane: usize, seed: u32) -> Vec<f32> {
        let seed = seed + lane as u32 * 31;
        match lane % 4 {
            0 => lane_field(seed),
            2 => vec![-0.0; NGLL3_PADDED],
            _ => quiet_field(seed),
        }
    }

    fn interleave(lanes: &[Vec<f32>]) -> Vec<f32> {
        let k = lanes.len();
        let mut out = vec![0.0f32; NGLL3 * k];
        for (lane, f) in lanes.iter().enumerate() {
            for slot in 0..NGLL3 {
                out[lane_major(slot, lane, k)] = f[slot];
            }
        }
        out
    }

    fn assert_lane_bits(batched: &[f32], k: usize, lane: usize, single: &[f32], what: &str) {
        for slot in 0..NGLL3 {
            assert_eq!(
                batched[lane_major(slot, lane, k)].to_bits(),
                single[slot].to_bits(),
                "{what}: k={k} lane={lane} slot={slot}"
            );
        }
    }

    #[test]
    fn chunks_cover_the_lanes_greedily_and_in_order() {
        struct Record(Vec<(usize, usize)>);
        impl ChunkFn for Record {
            fn call<const W: usize>(&mut self, offset: usize) {
                self.0.push((offset, W));
            }
        }
        let chunks = |k| {
            let mut r = Record(Vec::new());
            for_each_chunk(k, &mut r);
            r.0
        };
        assert_eq!(chunks(0), []);
        assert_eq!(chunks(7), [(0, 4), (4, 2), (6, 1)]);
        assert_eq!(chunks(9), [(0, 8), (8, 1)]);
        assert_eq!(chunks(16), [(0, 8), (8, 8)]);
        for k in 1..=MAX_BATCH_LANES {
            let c = chunks(k);
            assert!(c.windows(2).all(|p| p[0].0 + p[0].1 == p[1].0), "k={k}");
            assert_eq!(c.last().map(|&(offset, w)| offset + w), Some(k));
        }
    }

    #[test]
    fn lane_fused_derivatives_are_bit_identical_to_reference_per_lane() {
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        for k in LANE_COUNTS {
            let lanes: Vec<Vec<f32>> = (0..k).map(|l| mixed_lane(l, 7)).collect();
            let u = interleave(&lanes);
            let mut t1 = vec![0.0f32; NGLL3 * k];
            let mut t2 = vec![0.0f32; NGLL3 * k];
            let mut t3 = vec![0.0f32; NGLL3 * k];
            cutplane_derivatives_lanes(&u, k, &ops.hprime, &mut t1, &mut t2, &mut t3);
            for (lane, f) in lanes.iter().enumerate() {
                let mut r1 = vec![0.0f32; NGLL3_PADDED];
                let mut r2 = vec![0.0f32; NGLL3_PADDED];
                let mut r3 = vec![0.0f32; NGLL3_PADDED];
                reference::cutplane_derivatives(f, &ops.hprime, &mut r1, &mut r2, &mut r3);
                assert_lane_bits(&t1, k, lane, &r1, "t1");
                assert_lane_bits(&t2, k, lane, &r2, "t2");
                assert_lane_bits(&t3, k, lane, &r3, "t3");
            }
        }
    }

    #[test]
    fn lane_fused_transpose_accumulate_is_bit_identical_per_lane() {
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        for k in LANE_COUNTS {
            let f1l: Vec<Vec<f32>> = (0..k).map(|l| mixed_lane(l, 1)).collect();
            let f2l: Vec<Vec<f32>> = (0..k).map(|l| mixed_lane(l, 100)).collect();
            let f3l: Vec<Vec<f32>> = (0..k).map(|l| mixed_lane(l, 200)).collect();
            // Nonzero (and negative-zero) targets: checks accumulate semantics.
            let outl: Vec<Vec<f32>> = (0..k).map(|l| mixed_lane(l + 1, 300)).collect();
            let (f1, f2, f3) = (interleave(&f1l), interleave(&f2l), interleave(&f3l));
            let mut out = interleave(&outl);
            cutplane_transpose_accumulate_lanes(&f1, &f2, &f3, k, &ops.hprime_wgll_t, &mut out);
            for lane in 0..k {
                let mut r = outl[lane].clone();
                reference::cutplane_transpose_accumulate(
                    &f1l[lane],
                    &f2l[lane],
                    &f3l[lane],
                    &ops.hprime_wgll_t,
                    &mut r,
                );
                assert_lane_bits(&out, k, lane, &r, "out");
            }
        }
    }

    /// The typed chunk entry points the solver calls agree bit for bit
    /// with the slice entry points, at every width and for every variant.
    #[test]
    fn chunk_blocks_match_the_lane_slices_bitwise() {
        fn check<const W: usize>(ops: &DerivOps) {
            let block = |seed| -> Box<LaneBlock<W>> {
                let lanes: Vec<Vec<f32>> = (0..W).map(|l| mixed_lane(l, seed)).collect();
                let flat = interleave(&lanes);
                let (slots, _) = flat.as_chunks::<W>();
                Box::new(slots.try_into().expect("NGLL3 slots"))
            };
            for variant in [
                KernelVariant::Reference,
                KernelVariant::Simd,
                KernelVariant::BlasStyle,
            ] {
                let (u, f2, f3) = (block(3), block(40), block(500));
                let mut t = [block(0), block(0), block(0)];
                let mut s = t.clone().map(|b| b.as_flattened().to_vec());
                let [t1, t2, t3] = &mut t;
                chunk_derivatives(variant, &u, ops, t1, t2, t3);
                let [s1, s2, s3] = &mut s;
                dispatch_derivatives(variant, u.as_flattened(), W, ops, s1, s2, s3);
                for (t, s) in t.iter().zip(&s) {
                    assert_eq!(t.as_flattened(), &s[..], "{variant:?} W={W}");
                }

                let mut out = block(6000);
                let mut flat = out.as_flattened().to_vec();
                chunk_transpose_accumulate(variant, &u, &f2, &f3, ops, &mut out);
                dispatch_transpose_accumulate(
                    variant,
                    u.as_flattened(),
                    f2.as_flattened(),
                    f3.as_flattened(),
                    W,
                    ops,
                    &mut flat,
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out.as_flattened()), bits(&flat), "{variant:?} W={W}");
            }
        }
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        check::<1>(&ops);
        check::<2>(&ops);
        check::<4>(&ops);
        check::<8>(&ops);
    }

    #[test]
    fn gather_scatter_dispatch_matches_single_lane_kernels_bitwise() {
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        for variant in [KernelVariant::Simd, KernelVariant::BlasStyle] {
            let k = 3;
            let lanes: Vec<Vec<f32>> = (0..k).map(|l| lane_field(l as u32 * 13 + 5)).collect();
            let u = interleave(&lanes);
            let mut t1 = vec![0.0f32; NGLL3 * k];
            let mut t2 = vec![0.0f32; NGLL3 * k];
            let mut t3 = vec![0.0f32; NGLL3 * k];
            dispatch_derivatives(variant, &u, k, &ops, &mut t1, &mut t2, &mut t3);
            for (lane, f) in lanes.iter().enumerate() {
                let mut r1 = vec![0.0f32; NGLL3_PADDED];
                let mut r2 = vec![0.0f32; NGLL3_PADDED];
                let mut r3 = vec![0.0f32; NGLL3_PADDED];
                crate::cutplane_derivatives(variant, f, &ops, &mut r1, &mut r2, &mut r3);
                assert_lane_bits(&t1, k, lane, &r1, "t1");
                assert_lane_bits(&t2, k, lane, &r2, "t2");
                assert_lane_bits(&t3, k, lane, &r3, "t3");
            }
        }
    }

    #[test]
    fn k_equals_one_matches_reference_exactly() {
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        let u = lane_field(42);
        let mut t1 = vec![0.0f32; NGLL3];
        let mut t2 = vec![0.0f32; NGLL3];
        let mut t3 = vec![0.0f32; NGLL3];
        dispatch_derivatives(
            KernelVariant::Reference,
            &u[..NGLL3],
            1,
            &ops,
            &mut t1,
            &mut t2,
            &mut t3,
        );
        let mut r1 = vec![0.0f32; NGLL3_PADDED];
        let mut r2 = vec![0.0f32; NGLL3_PADDED];
        let mut r3 = vec![0.0f32; NGLL3_PADDED];
        reference::cutplane_derivatives(&u, &ops.hprime, &mut r1, &mut r2, &mut r3);
        assert_eq!(t1, r1[..NGLL3]);
        assert_eq!(t2, r2[..NGLL3]);
        assert_eq!(t3, r3[..NGLL3]);
    }
}
