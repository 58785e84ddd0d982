//! Batched internal-force kernels: the solid and fluid routines of
//! [`crate::forces`] with an innermost event-lane dimension K — what the
//! step pipeline runs when the fields carry more than one lane.
//!
//! The geometry and material terms (metric tensor, Jacobian, μ, κ, ρ,
//! gravity profile) are shared across all lanes — that sharing is the
//! entire point of batching: one load of the per-point scalars feeds K
//! lanes of stress/force arithmetic. The per-lane arithmetic itself is
//! a verbatim transcription of the single-lane kernel (same expression
//! tree, same evaluation order), and the cut-plane products go through
//! `specfem_kernels::batched`, so each lane's f32 sequence is exactly
//! the single-lane sequence — the zero-ULP oracle in
//! `crates/batch/tests/batch_oracle.rs` holds per lane, per variant.
//!
//! Attenuation is not offered at K > 1: the SLS memory variables are
//! per-lane data the fields do not carry yet
//! (see [`crate::timeloop::lanes_supported`]).

use specfem_kernels::{
    batched_cutplane_derivatives, batched_cutplane_transpose_accumulate, DerivOps, FlopCounter,
    KernelVariant, NGLL, NGLL3,
};
use specfem_mesh::LocalMesh;

use crate::assemble::{PrecomputedGeometry, WaveFields};

/// Heap scratch for the batched element kernels (the single-lane kernels
/// use stack arrays; at K lanes the blocks are `NGLL3·K` floats and go
/// on the heap once per solver, not per element).
pub struct BatchScratch {
    // The scalar fluid kernel reuses component 0 of `u`, `t` and `f`.
    u: [Vec<f32>; 3],
    t: [[Vec<f32>; 3]; 3],
    f: [[Vec<f32>; 3]; 3],
    body: [Vec<f32>; 3],
    accum: Vec<f32>,
}

impl BatchScratch {
    /// Scratch for `k` lanes.
    pub fn new(k: usize) -> Self {
        let block = || vec![0.0f32; NGLL3 * k];
        Self {
            u: std::array::from_fn(|_| block()),
            t: std::array::from_fn(|_| std::array::from_fn(|_| block())),
            f: std::array::from_fn(|_| std::array::from_fn(|_| block())),
            body: std::array::from_fn(|_| block()),
            accum: block(),
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
    let n3 = mesh.points_per_element();
    assert_eq!(n3, NGLL3, "solver kernels are specialized to degree 4");
    let k = fields.k;
    let w = &mesh.basis.weights;
    let mut wf = [0.0f32; NGLL];
    for i in 0..NGLL {
        wf[i] = w[i] as f32;
    }

    let mut nsolid = 0usize;
    for e in elems {
        if mesh.region[e].is_fluid() {
            continue;
        }
        nsolid += 1;
        let base = e * n3;
        let ib = &mesh.ibool[base..base + n3];
        // Lane-major gather: a point's K lane values are contiguous in
        // the fields, so each (l, c) slot is one memcpy of K floats.
        for (c, uc) in s.u.iter_mut().enumerate() {
            for (l, &p) in ib.iter().enumerate() {
                let src = (p as usize * 3 + c) * k;
                uc[l * k..l * k + k].copy_from_slice(&fields.displ[src..src + k]);
            }
        }
        for (u, [t0, t1, t2]) in s.u.iter().zip(&mut s.t) {
            batched_cutplane_derivatives(variant, u, k, ops, t0, t1, t2);
        }
        if gravity {
            for b in s.body.iter_mut() {
                b.fill(0.0);
            }
        }
        for kk in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (kk * NGLL + j) * NGLL + i;
                    let idx = base + l;
                    // Shared per-point scalars: loaded once for all K lanes.
                    let (xix, xiy, xiz) = (geom.xix[idx], geom.xiy[idx], geom.xiz[idx]);
                    let (etx, ety, etz) = (geom.etax[idx], geom.etay[idx], geom.etaz[idx]);
                    let (gax, gay, gaz) = (geom.gammax[idx], geom.gammay[idx], geom.gammaz[idx]);
                    let mu = mesh.mu[idx];
                    let kappa = mesh.kappa[idx];
                    let lambda = kappa - 2.0 / 3.0 * mu;
                    let jac = geom.jacobian[idx];
                    let w1 = (wf[j] * wf[kk]) * jac;
                    let w2 = (wf[i] * wf[kk]) * jac;
                    let w3 = (wf[i] * wf[j]) * jac;
                    let o = l * k;
                    for lane in 0..k {
                        // Physical displacement gradient (per lane).
                        let dux_dx = s.t[0][0][o + lane] * xix
                            + s.t[0][1][o + lane] * etx
                            + s.t[0][2][o + lane] * gax;
                        let dux_dy = s.t[0][0][o + lane] * xiy
                            + s.t[0][1][o + lane] * ety
                            + s.t[0][2][o + lane] * gay;
                        let dux_dz = s.t[0][0][o + lane] * xiz
                            + s.t[0][1][o + lane] * etz
                            + s.t[0][2][o + lane] * gaz;
                        let duy_dx = s.t[1][0][o + lane] * xix
                            + s.t[1][1][o + lane] * etx
                            + s.t[1][2][o + lane] * gax;
                        let duy_dy = s.t[1][0][o + lane] * xiy
                            + s.t[1][1][o + lane] * ety
                            + s.t[1][2][o + lane] * gay;
                        let duy_dz = s.t[1][0][o + lane] * xiz
                            + s.t[1][1][o + lane] * etz
                            + s.t[1][2][o + lane] * gaz;
                        let duz_dx = s.t[2][0][o + lane] * xix
                            + s.t[2][1][o + lane] * etx
                            + s.t[2][2][o + lane] * gax;
                        let duz_dy = s.t[2][0][o + lane] * xiy
                            + s.t[2][1][o + lane] * ety
                            + s.t[2][2][o + lane] * gay;
                        let duz_dz = s.t[2][0][o + lane] * xiz
                            + s.t[2][1][o + lane] * etz
                            + s.t[2][2][o + lane] * gaz;

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

                        s.f[0][0][o + lane] = w1 * (sig_xx * xix + sig_xy * xiy + sig_xz * xiz);
                        s.f[0][1][o + lane] = w2 * (sig_xx * etx + sig_xy * ety + sig_xz * etz);
                        s.f[0][2][o + lane] = w3 * (sig_xx * gax + sig_xy * gay + sig_xz * gaz);
                        s.f[1][0][o + lane] = w1 * (sig_xy * xix + sig_yy * xiy + sig_yz * xiz);
                        s.f[1][1][o + lane] = w2 * (sig_xy * etx + sig_yy * ety + sig_yz * etz);
                        s.f[1][2][o + lane] = w3 * (sig_xy * gax + sig_yy * gay + sig_yz * gaz);
                        s.f[2][0][o + lane] = w1 * (sig_xz * xix + sig_yz * xiy + sig_zz * xiz);
                        s.f[2][1][o + lane] = w2 * (sig_xz * etx + sig_yz * ety + sig_zz * etz);
                        s.f[2][2][o + lane] = w3 * (sig_xz * gax + sig_yz * gay + sig_zz * gaz);

                        if gravity && !geom.g_at_point.is_empty() {
                            let g = geom.g_at_point[idx];
                            let rh = geom.rhat[idx];
                            let rho = mesh.rho[idx];
                            let wjac = (wf[i] * wf[j] * wf[kk]) * jac;
                            let gx = -g * (rh[0] * dux_dx + rh[1] * duy_dx + rh[2] * duz_dx);
                            let gy = -g * (rh[0] * dux_dy + rh[1] * duy_dy + rh[2] * duz_dy);
                            let gz = -g * (rh[0] * dux_dz + rh[1] * duy_dz + rh[2] * duz_dz);
                            s.body[0][o + lane] = rho * wjac * (gx + g * rh[0] * div);
                            s.body[1][o + lane] = rho * wjac * (gy + g * rh[1] * div);
                            s.body[2][o + lane] = rho * wjac * (gz + g * rh[2] * div);
                        }
                    }
                }
            }
        }
        for c in 0..3 {
            s.accum.fill(0.0);
            batched_cutplane_transpose_accumulate(
                variant,
                &s.f[c][0],
                &s.f[c][1],
                &s.f[c][2],
                k,
                ops,
                &mut s.accum,
            );
            if gravity {
                for (l, &p) in ib.iter().enumerate() {
                    let dst = (p as usize * 3 + c) * k;
                    for lane in 0..k {
                        fields.accel[dst + lane] +=
                            -s.accum[l * k + lane] + s.body[c][l * k + lane];
                    }
                }
            } else {
                for (l, &p) in ib.iter().enumerate() {
                    let dst = (p as usize * 3 + c) * k;
                    for lane in 0..k {
                        fields.accel[dst + lane] -= s.accum[l * k + lane];
                    }
                }
            }
        }
    }
    flops.add_solid_elements(nsolid * k, false);
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
    let n3 = mesh.points_per_element();
    let k = fields.k;
    let w = &mesh.basis.weights;
    let mut wf = [0.0f32; NGLL];
    for i in 0..NGLL {
        wf[i] = w[i] as f32;
    }

    let mut nfluid = 0usize;
    for e in elems {
        if !mesh.region[e].is_fluid() {
            continue;
        }
        nfluid += 1;
        let base = e * n3;
        let ib = &mesh.ibool[base..base + n3];
        let chi = &mut s.u[0];
        for (l, &p) in ib.iter().enumerate() {
            let src = p as usize * k;
            chi[l * k..l * k + k].copy_from_slice(&fields.chi[src..src + k]);
        }
        let [ft1, ft2, ft3] = &mut s.t[0];
        batched_cutplane_derivatives(variant, chi, k, ops, ft1, ft2, ft3);
        for kk in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (kk * NGLL + j) * NGLL + i;
                    let idx = base + l;
                    let (xix, xiy, xiz) = (geom.xix[idx], geom.xiy[idx], geom.xiz[idx]);
                    let (etx, ety, etz) = (geom.etax[idx], geom.etay[idx], geom.etaz[idx]);
                    let (gax, gay, gaz) = (geom.gammax[idx], geom.gammay[idx], geom.gammaz[idx]);
                    let inv_rho = 1.0 / mesh.rho[idx];
                    let jac = geom.jacobian[idx];
                    let wa = (wf[j] * wf[kk]) * jac;
                    let wb = (wf[i] * wf[kk]) * jac;
                    let wc = (wf[i] * wf[j]) * jac;
                    let o = l * k;
                    for lane in 0..k {
                        let dchi_dx =
                            ft1[o + lane] * xix + ft2[o + lane] * etx + ft3[o + lane] * gax;
                        let dchi_dy =
                            ft1[o + lane] * xiy + ft2[o + lane] * ety + ft3[o + lane] * gay;
                        let dchi_dz =
                            ft1[o + lane] * xiz + ft2[o + lane] * etz + ft3[o + lane] * gaz;
                        let gx = inv_rho * dchi_dx;
                        let gy = inv_rho * dchi_dy;
                        let gz = inv_rho * dchi_dz;
                        s.f[0][0][o + lane] = wa * (gx * xix + gy * xiy + gz * xiz);
                        s.f[0][1][o + lane] = wb * (gx * etx + gy * ety + gz * etz);
                        s.f[0][2][o + lane] = wc * (gx * gax + gy * gay + gz * gaz);
                    }
                }
            }
        }
        s.accum.fill(0.0);
        batched_cutplane_transpose_accumulate(
            variant,
            &s.f[0][0],
            &s.f[0][1],
            &s.f[0][2],
            k,
            ops,
            &mut s.accum,
        );
        for (l, &p) in ib.iter().enumerate() {
            let dst = p as usize * k;
            for lane in 0..k {
                fields.chi_ddot[dst + lane] -= s.accum[l * k + lane];
            }
        }
    }
    flops.add_fluid_elements(nfluid * k);
}
