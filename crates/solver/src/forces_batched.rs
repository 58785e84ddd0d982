//! Batched internal-force kernels: the solid and fluid routines of
//! [`crate::forces`] with an innermost event-lane dimension K — what the
//! step pipeline runs when the fields carry more than one lane.
//!
//! The geometry and material terms (metric tensor, Jacobian, μ, κ, ρ,
//! gravity profile) are shared across all lanes — that sharing is the
//! entire point of batching: one load of the per-point scalars feeds K
//! lanes of stress/force arithmetic.
//!
//! The lane index is the vector dimension. The K lanes of an element are
//! covered by chunks of a compile-time width W ∈ {8, 4, 2, 1}
//! (`specfem_kernels::batched::for_each_chunk`), element loop outermost
//! and chunk loop inside it, so an element's metric and material terms
//! stay in L1 for all of its chunks. One generic source serves every
//! width: a chunk's blocks are `[[f32; W]; NGLL3]`, every per-point value
//! is a `[f32; W]` the lane loop runs over without an index check. The
//! per-lane arithmetic is a verbatim transcription of the single-lane
//! kernel (same expression tree, same evaluation order) and lanes never
//! mix, so each lane's f32 sequence is exactly the single-lane sequence
//! whatever the chunk decomposition — the zero-ULP oracle in
//! `crates/batch/tests/batch_oracle.rs` holds per lane, per variant.
//!
//! Attenuation is not offered at K > 1: the SLS memory variables are
//! per-lane data the fields do not carry yet
//! (see [`crate::timeloop::lanes_supported`]).

use specfem_kernels::batched::{
    chunk_derivatives, chunk_transpose_accumulate, for_each_chunk, ChunkFn, LaneBlock,
    MAX_CHUNK_LANES,
};
use specfem_kernels::{DerivOps, FlopCounter, KernelVariant, NGLL, NGLL3};
use specfem_mesh::LocalMesh;

use crate::assemble::{PrecomputedGeometry, WaveFields};

/// Blocks in one chunk's working set: `u[3]`, `t[3][3]`, `f[3][3]`,
/// `body[3]`, `accum`.
const SCRATCH_BLOCKS: usize = 25;

/// Heap scratch for the batched element kernels: the block set of a
/// *single* chunk, allocated once per solver. Its size follows the widest
/// chunk (100 KB from 8 lanes up), not the lane count — every chunk of
/// every element reuses it, a narrower one the front of each block.
pub struct BatchScratch {
    data: Vec<f32>,
    block_len: usize,
}

/// The scratch viewed as the typed blocks of one `W`-lane chunk. The
/// scalar fluid kernel uses component 0 of `u`, `t` and `f`.
struct ChunkBlocks<'a, const W: usize> {
    u: [&'a mut LaneBlock<W>; 3],
    t: [[&'a mut LaneBlock<W>; 3]; 3], // t[comp][dir]
    f: [[&'a mut LaneBlock<W>; 3]; 3], // f[comp][dir]
    body: [&'a mut LaneBlock<W>; 3],
    accum: &'a mut LaneBlock<W>,
}

impl BatchScratch {
    /// Scratch for `k` lanes.
    pub fn new(k: usize) -> Self {
        let block_len = NGLL3 * k.min(MAX_CHUNK_LANES);
        Self {
            data: vec![0.0; SCRATCH_BLOCKS * block_len],
            block_len,
        }
    }

    fn chunk<const W: usize>(&mut self) -> ChunkBlocks<'_, W> {
        let mut blocks = self.data.chunks_exact_mut(self.block_len);
        let mut next = || -> &mut LaneBlock<W> {
            let block = blocks.next().expect("scratch holds SCRATCH_BLOCKS blocks");
            let (slots, _) = block[..NGLL3 * W].as_chunks_mut::<W>();
            slots.try_into().expect("NGLL3 slots of W lanes")
        };
        ChunkBlocks {
            u: std::array::from_fn(|_| next()),
            t: std::array::from_fn(|_| std::array::from_fn(|_| next())),
            f: std::array::from_fn(|_| std::array::from_fn(|_| next())),
            body: std::array::from_fn(|_| next()),
            accum: next(),
        }
    }
}

/// The metric terms and Jacobian of one element, as fixed-size blocks.
struct ElementMetric<'a> {
    xi: [&'a [f32; NGLL3]; 3],
    eta: [&'a [f32; NGLL3]; 3],
    gamma: [&'a [f32; NGLL3]; 3],
    jacobian: &'a [f32; NGLL3],
}

/// The element's `NGLL3` values of a per-point array.
fn element_block<T>(v: &[T], base: usize) -> &[T; NGLL3] {
    v[base..base + NGLL3]
        .first_chunk()
        .expect("slice of NGLL3 points")
}

impl<'a> ElementMetric<'a> {
    fn new(geom: &'a PrecomputedGeometry, base: usize) -> Self {
        let at = |v: &'a [f32]| element_block(v, base);
        Self {
            xi: [at(&geom.xix), at(&geom.xiy), at(&geom.xiz)],
            eta: [at(&geom.etax), at(&geom.etay), at(&geom.etaz)],
            gamma: [at(&geom.gammax), at(&geom.gammay), at(&geom.gammaz)],
            jacobian: at(&geom.jacobian),
        }
    }
}

/// The quadrature weights in `f32`.
fn weights_f32(mesh: &LocalMesh) -> [f32; NGLL] {
    std::array::from_fn(|i| mesh.basis.weights[i] as f32)
}

/// Lanes `offset..offset + W` of a lane-major field value starting at
/// `field[at]`.
#[inline(always)]
fn lanes_at<const W: usize>(field: &[f32], at: usize, offset: usize) -> &[f32; W] {
    field[at + offset..at + offset + W]
        .first_chunk()
        .expect("slice of W lanes")
}

#[inline(always)]
fn lanes_at_mut<const W: usize>(field: &mut [f32], at: usize, offset: usize) -> &mut [f32; W] {
    field[at + offset..at + offset + W]
        .first_chunk_mut()
        .expect("slice of W lanes")
}

/// The `W` lanes of one per-point quantity. The pointwise stage is written
/// in these so every operation of the single-lane expression tree is one
/// `W`-wide vector operation, lane `i` of the result depending on lane `i`
/// of the operands only.
#[derive(Clone, Copy)]
struct V<const W: usize>([f32; W]);

impl<const W: usize> std::ops::Add for V<W> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        V(std::array::from_fn(|lane| self.0[lane] + rhs.0[lane]))
    }
}

impl<const W: usize> std::ops::Mul<f32> for V<W> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f32) -> Self {
        V(std::array::from_fn(|lane| self.0[lane] * rhs))
    }
}

impl<const W: usize> std::ops::Mul<V<W>> for f32 {
    type Output = V<W>;
    #[inline(always)]
    fn mul(self, rhs: V<W>) -> V<W> {
        V(std::array::from_fn(|lane| self * rhs.0[lane]))
    }
}

/// One solid element (`e`) awaiting its lane chunks.
struct SolidElement<'a> {
    mesh: &'a LocalMesh,
    geom: &'a PrecomputedGeometry,
    ops: &'a DerivOps,
    variant: KernelVariant,
    gravity: bool,
    wf: [f32; NGLL],
    k: usize,
    displ: &'a [f32],
    accel: &'a mut [f32],
    scratch: &'a mut BatchScratch,
    e: usize,
}

impl ChunkFn for SolidElement<'_> {
    fn call<const W: usize>(&mut self, offset: usize) {
        let Self {
            mesh,
            geom,
            ops,
            variant,
            gravity,
            wf,
            k,
            ..
        } = *self;
        let base = self.e * NGLL3;
        let ib = element_block(&mesh.ibool, base);
        let m = ElementMetric::new(geom, base);
        let mu_e = element_block(&mesh.mu, base);
        let kappa_e = element_block(&mesh.kappa, base);
        let has_g = gravity && !geom.g_at_point.is_empty();
        let ChunkBlocks {
            mut u,
            mut t,
            f,
            mut body,
            accum,
        } = self.scratch.chunk::<W>();

        // Lane-major gather: a point's K lane values are contiguous in
        // the fields, so each (l, c) slot is one copy of W floats.
        for (c, uc) in u.iter_mut().enumerate() {
            for (l, &p) in ib.iter().enumerate() {
                uc[l] = *lanes_at(self.displ, (p as usize * 3 + c) * k, offset);
            }
        }
        for (uc, [t0, t1, t2]) in u.iter().zip(&mut t) {
            chunk_derivatives(variant, uc, ops, t0, t1, t2);
        }
        for kk in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (kk * NGLL + j) * NGLL + i;
                    // Shared per-point scalars: loaded once for all W lanes.
                    let (xix, xiy, xiz) = (m.xi[0][l], m.xi[1][l], m.xi[2][l]);
                    let (etx, ety, etz) = (m.eta[0][l], m.eta[1][l], m.eta[2][l]);
                    let (gax, gay, gaz) = (m.gamma[0][l], m.gamma[1][l], m.gamma[2][l]);
                    let mu = mu_e[l];
                    let kappa = kappa_e[l];
                    let lambda = kappa - 2.0 / 3.0 * mu;
                    let jac = m.jacobian[l];
                    let w1 = (wf[j] * wf[kk]) * jac;
                    let w2 = (wf[i] * wf[kk]) * jac;
                    let w3 = (wf[i] * wf[j]) * jac;

                    // The point's nine reference derivatives in, its nine
                    // fluxes (and body force) out, `W` lanes at a time.
                    let tl: [[V<W>; 3]; 3] =
                        std::array::from_fn(|c| std::array::from_fn(|d| V(t[c][d][l])));
                    // Physical displacement gradient.
                    let dux_dx = tl[0][0] * xix + tl[0][1] * etx + tl[0][2] * gax;
                    let dux_dy = tl[0][0] * xiy + tl[0][1] * ety + tl[0][2] * gay;
                    let dux_dz = tl[0][0] * xiz + tl[0][1] * etz + tl[0][2] * gaz;
                    let duy_dx = tl[1][0] * xix + tl[1][1] * etx + tl[1][2] * gax;
                    let duy_dy = tl[1][0] * xiy + tl[1][1] * ety + tl[1][2] * gay;
                    let duy_dz = tl[1][0] * xiz + tl[1][1] * etz + tl[1][2] * gaz;
                    let duz_dx = tl[2][0] * xix + tl[2][1] * etx + tl[2][2] * gax;
                    let duz_dy = tl[2][0] * xiy + tl[2][1] * ety + tl[2][2] * gay;
                    let duz_dz = tl[2][0] * xiz + tl[2][1] * etz + tl[2][2] * gaz;

                    let div = dux_dx + duy_dy + duz_dz;
                    let eps_xy = 0.5 * (dux_dy + duy_dx);
                    let eps_xz = 0.5 * (dux_dz + duz_dx);
                    let eps_yz = 0.5 * (duy_dz + duz_dy);

                    let sig_xx = lambda * div + 2.0 * mu * dux_dx;
                    let sig_yy = lambda * div + 2.0 * mu * duy_dy;
                    let sig_zz = lambda * div + 2.0 * mu * duz_dz;
                    let sig_xy = 2.0 * mu * eps_xy;
                    let sig_xz = 2.0 * mu * eps_xz;
                    let sig_yz = 2.0 * mu * eps_yz;

                    f[0][0][l] = (w1 * (sig_xx * xix + sig_xy * xiy + sig_xz * xiz)).0;
                    f[0][1][l] = (w2 * (sig_xx * etx + sig_xy * ety + sig_xz * etz)).0;
                    f[0][2][l] = (w3 * (sig_xx * gax + sig_xy * gay + sig_xz * gaz)).0;
                    f[1][0][l] = (w1 * (sig_xy * xix + sig_yy * xiy + sig_yz * xiz)).0;
                    f[1][1][l] = (w2 * (sig_xy * etx + sig_yy * ety + sig_yz * etz)).0;
                    f[1][2][l] = (w3 * (sig_xy * gax + sig_yy * gay + sig_yz * gaz)).0;
                    f[2][0][l] = (w1 * (sig_xz * xix + sig_yz * xiy + sig_zz * xiz)).0;
                    f[2][1][l] = (w2 * (sig_xz * etx + sig_yz * ety + sig_zz * etz)).0;
                    f[2][2][l] = (w3 * (sig_xz * gax + sig_yz * gay + sig_zz * gaz)).0;

                    if has_g {
                        // Cowling buoyancy: ρ[∇(u·g) − g(∇·u)], g = −g·r̂.
                        let idx = base + l;
                        let g = geom.g_at_point[idx];
                        let rh = geom.rhat[idx];
                        let rho = mesh.rho[idx];
                        let wjac = (wf[i] * wf[j] * wf[kk]) * jac;
                        let gx = -g * (rh[0] * dux_dx + rh[1] * duy_dx + rh[2] * duz_dx);
                        let gy = -g * (rh[0] * dux_dy + rh[1] * duy_dy + rh[2] * duz_dy);
                        let gz = -g * (rh[0] * dux_dz + rh[1] * duy_dz + rh[2] * duz_dz);
                        body[0][l] = (rho * wjac * (gx + g * rh[0] * div)).0;
                        body[1][l] = (rho * wjac * (gy + g * rh[1] * div)).0;
                        body[2][l] = (rho * wjac * (gz + g * rh[2] * div)).0;
                    } else if gravity {
                        for b in body.iter_mut() {
                            b[l] = [0.0; W];
                        }
                    }
                }
            }
        }
        for c in 0..3 {
            accum.fill([0.0; W]);
            let [f0, f1, f2] = &f[c];
            chunk_transpose_accumulate(variant, f0, f1, f2, ops, accum);
            for (l, &p) in ib.iter().enumerate() {
                let dst = lanes_at_mut::<W>(self.accel, (p as usize * 3 + c) * k, offset);
                if gravity {
                    for lane in 0..W {
                        dst[lane] += -accum[l][lane] + body[c][l][lane];
                    }
                } else {
                    for lane in 0..W {
                        dst[lane] -= accum[l][lane];
                    }
                }
            }
        }
    }
}

/// Batched solid internal forces: `accel -= K·displ` on every lane, plus
/// the optional Cowling gravity body force, over the local elements in
/// `elems`. Mirrors [`crate::forces::compute_solid_forces_range`] per lane.
#[allow(clippy::too_many_arguments)]
pub fn compute_solid_forces_batched(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    gravity: bool,
    flops: &mut FlopCounter,
    s: &mut BatchScratch,
    elems: std::ops::Range<usize>,
) {
    let k = fields.k;
    let mut element = SolidElement {
        mesh,
        geom,
        ops,
        variant,
        gravity,
        wf: weights_f32(mesh),
        k,
        displ: &fields.displ,
        accel: &mut fields.accel,
        scratch: s,
        e: 0,
    };
    let mut nsolid = 0usize;
    for e in elems {
        if mesh.region[e].is_fluid() {
            continue;
        }
        nsolid += 1;
        element.e = e;
        for_each_chunk(k, &mut element);
    }
    flops.add_solid_elements(nsolid * k, false);
}

/// One fluid element (`e`) awaiting its lane chunks.
struct FluidElement<'a> {
    mesh: &'a LocalMesh,
    geom: &'a PrecomputedGeometry,
    ops: &'a DerivOps,
    variant: KernelVariant,
    wf: [f32; NGLL],
    k: usize,
    chi: &'a [f32],
    chi_ddot: &'a mut [f32],
    scratch: &'a mut BatchScratch,
    e: usize,
}

impl ChunkFn for FluidElement<'_> {
    fn call<const W: usize>(&mut self, offset: usize) {
        let Self {
            mesh,
            geom,
            ops,
            variant,
            wf,
            k,
            ..
        } = *self;
        let base = self.e * NGLL3;
        let ib = element_block(&mesh.ibool, base);
        let m = ElementMetric::new(geom, base);
        let rho_e = element_block(&mesh.rho, base);
        let ChunkBlocks {
            u: [chi, ..],
            t: [[ft1, ft2, ft3], ..],
            f: [[f1, f2, f3], ..],
            accum,
            ..
        } = self.scratch.chunk::<W>();

        for (l, &p) in ib.iter().enumerate() {
            chi[l] = *lanes_at(self.chi, p as usize * k, offset);
        }
        chunk_derivatives(variant, chi, ops, ft1, ft2, ft3);
        for kk in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (kk * NGLL + j) * NGLL + i;
                    let (xix, xiy, xiz) = (m.xi[0][l], m.xi[1][l], m.xi[2][l]);
                    let (etx, ety, etz) = (m.eta[0][l], m.eta[1][l], m.eta[2][l]);
                    let (gax, gay, gaz) = (m.gamma[0][l], m.gamma[1][l], m.gamma[2][l]);
                    let inv_rho = 1.0 / rho_e[l];
                    let jac = m.jacobian[l];
                    let wa = (wf[j] * wf[kk]) * jac;
                    let wb = (wf[i] * wf[kk]) * jac;
                    let wc = (wf[i] * wf[j]) * jac;
                    let (c1, c2, c3) = (V(ft1[l]), V(ft2[l]), V(ft3[l]));
                    let dchi_dx = c1 * xix + c2 * etx + c3 * gax;
                    let dchi_dy = c1 * xiy + c2 * ety + c3 * gay;
                    let dchi_dz = c1 * xiz + c2 * etz + c3 * gaz;
                    let gx = inv_rho * dchi_dx;
                    let gy = inv_rho * dchi_dy;
                    let gz = inv_rho * dchi_dz;
                    f1[l] = (wa * (gx * xix + gy * xiy + gz * xiz)).0;
                    f2[l] = (wb * (gx * etx + gy * ety + gz * etz)).0;
                    f3[l] = (wc * (gx * gax + gy * gay + gz * gaz)).0;
                }
            }
        }
        accum.fill([0.0; W]);
        chunk_transpose_accumulate(variant, f1, f2, f3, ops, accum);
        for (l, &p) in ib.iter().enumerate() {
            let dst = lanes_at_mut::<W>(self.chi_ddot, p as usize * k, offset);
            for lane in 0..W {
                dst[lane] -= accum[l][lane];
            }
        }
    }
}

/// Batched fluid (outer-core) internal forces: `χ̈ -= K_f·χ` per lane,
/// over the local elements in `elems`. Mirrors
/// [`crate::forces::compute_fluid_forces_range`] per lane.
#[allow(clippy::too_many_arguments)]
pub fn compute_fluid_forces_batched(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    flops: &mut FlopCounter,
    s: &mut BatchScratch,
    elems: std::ops::Range<usize>,
) {
    let k = fields.k;
    let mut element = FluidElement {
        mesh,
        geom,
        ops,
        variant,
        wf: weights_f32(mesh),
        k,
        chi: &fields.chi,
        chi_ddot: &mut fields.chi_ddot,
        scratch: s,
        e: 0,
    };
    let mut nfluid = 0usize;
    for e in elems {
        if !mesh.region[e].is_fluid() {
            continue;
        }
        nfluid += 1;
        element.e = e;
        for_each_chunk(k, &mut element);
    }
    flops.add_fluid_elements(nfluid * k);
}
