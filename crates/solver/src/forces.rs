//! The internal-force kernels — "the two computational routines in which we
//! compute the internal forces and related acceleration vectors … in the
//! large solid mantle and crust, and the smaller fluid outer core" that
//! dominate >70 % of runtime (paper §4.3).

use specfem_kernels::{
    cutplane_derivatives, cutplane_transpose_accumulate, DerivOps, FlopCounter, KernelVariant,
    NGLL, NGLL3, NGLL3_PADDED,
};
use specfem_mesh::LocalMesh;
use specfem_model::attenuation::{AttenuationFit, AttenuationSpec, N_SLS};

use crate::assemble::{PrecomputedGeometry, WaveFields};

/// Per-run attenuation state: the SLS recursion constants and the memory
/// variables of every solid GLL point (5 deviatoric strain components ×
/// `N_SLS` solids).
#[derive(Debug, Clone)]
pub struct AttenuationState {
    /// `exp(−dt/τ_j)` per SLS.
    pub alpha: [f32; N_SLS],
    /// `y_j(Q=1)·(1 − α_j)` per SLS; scaled by `1/Q` per point at use (the
    /// least-squares fit is exactly linear in `1/Q`).
    pub beta_unit: [f32; N_SLS],
    /// Memory variables `[((e·n³ + l)·5 + comp)·N_SLS + j]`.
    pub memory: Vec<f32>,
}

impl AttenuationState {
    /// Build for a run with time step `dt` resolving `shortest_period_s`.
    pub fn new(mesh: &LocalMesh, dt: f64, shortest_period_s: f64) -> Self {
        let (alpha, beta_unit) = Self::update_constants(dt, shortest_period_s);
        let n3 = mesh.points_per_element();
        Self {
            alpha,
            beta_unit,
            memory: vec![0.0; mesh.nspec * n3 * 5 * N_SLS],
        }
    }

    /// The SLS recursion constants `(α, β_unit)` for step `dt` resolving
    /// `shortest_period_s`. LTS re-derives these at `rate·dt` for coarse
    /// clusters whose memory variables refresh every `rate` fine steps;
    /// at rate 1 the result is bitwise equal to what [`Self::new`] installs.
    pub fn update_constants(dt: f64, shortest_period_s: f64) -> ([f32; N_SLS], [f32; N_SLS]) {
        // Unit fit: Q = 1 reference; y scales as 1/Q.
        let fit = AttenuationFit::fit(AttenuationSpec::for_shortest_period(
            1.0 + 1e-9, // Q→1 reference (assert in fit requires > 1)
            shortest_period_s,
        ));
        let factors = fit.update_factors(dt);
        let mut alpha = [0.0f32; N_SLS];
        let mut beta_unit = [0.0f32; N_SLS];
        for j in 0..N_SLS {
            alpha[j] = factors[j].0 as f32;
            beta_unit[j] = factors[j].1 as f32;
        }
        (alpha, beta_unit)
    }
}

#[inline(always)]
fn gather_component(ibool: &[u32], field: &[f32], comp: usize, out: &mut [f32; NGLL3_PADDED]) {
    for (l, &p) in ibool.iter().enumerate() {
        out[l] = field[p as usize * 3 + comp];
    }
}

/// Destination of a solid element's accumulated force: either scattered
/// straight into the global `accel` (the plain timeloop) or written to a
/// per-element contribution buffer (the LTS timeloop, which scatters all
/// elements in one canonical ascending pass afterwards). The emitted
/// value per point is the identical f32 expression in both cases —
/// `−accum` (or `−accum + body` with gravity) — so compute-then-scatter
/// is bit-identical to the fused loop.
trait SolidSink {
    fn emit(
        &mut self,
        e: usize,
        ib: &[u32],
        c: usize,
        accum: &[f32; NGLL3_PADDED],
        body: Option<&[f32; NGLL3_PADDED]>,
    );
}

/// Scatter into the global acceleration (`accel[p·3+c] += −accum [+ body]`).
struct SolidAccelSink<'a> {
    accel: &'a mut [f32],
}

impl SolidSink for SolidAccelSink<'_> {
    #[inline(always)]
    fn emit(
        &mut self,
        _e: usize,
        ib: &[u32],
        c: usize,
        accum: &[f32; NGLL3_PADDED],
        body: Option<&[f32; NGLL3_PADDED]>,
    ) {
        match body {
            Some(body) => {
                for (l, &p) in ib.iter().enumerate() {
                    self.accel[p as usize * 3 + c] += -accum[l] + body[l];
                }
            }
            None => {
                for (l, &p) in ib.iter().enumerate() {
                    self.accel[p as usize * 3 + c] -= accum[l];
                }
            }
        }
    }
}

/// Overwrite the element's slice of a contribution buffer
/// (`out[(e·n³+l)·3+c] = −accum [+ body]`).
struct SolidContribSink<'a> {
    out: &'a mut [f32],
    n3: usize,
}

impl SolidSink for SolidContribSink<'_> {
    #[inline(always)]
    fn emit(
        &mut self,
        e: usize,
        ib: &[u32],
        c: usize,
        accum: &[f32; NGLL3_PADDED],
        body: Option<&[f32; NGLL3_PADDED]>,
    ) {
        let base = e * self.n3;
        match body {
            Some(body) => {
                for l in 0..ib.len() {
                    self.out[(base + l) * 3 + c] = -accum[l] + body[l];
                }
            }
            None => {
                for l in 0..ib.len() {
                    self.out[(base + l) * 3 + c] = -accum[l];
                }
            }
        }
    }
}

/// Solid internal forces: `accel -= K·displ` elementwise, plus optional
/// attenuation memory-variable update and Cowling gravity body force.
#[allow(clippy::too_many_arguments)]
pub fn compute_solid_forces(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    atten: Option<&mut AttenuationState>,
    gravity: bool,
    flops: &mut FlopCounter,
) {
    compute_solid_forces_range(
        mesh,
        geom,
        ops,
        variant,
        fields,
        atten,
        gravity,
        flops,
        0..mesh.nspec,
    );
}

/// Solid internal forces restricted to the local elements in `elems` —
/// the overlap building block: the solver runs it on the outer range,
/// posts the halo exchange, then runs it on the inner range. Iterating
/// `0..nspec` in one call is bit-identical to any split of the range into
/// consecutive calls, because per-point accumulation order only depends
/// on the element ordering.
#[allow(clippy::too_many_arguments)]
pub fn compute_solid_forces_range(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    atten: Option<&mut AttenuationState>,
    gravity: bool,
    flops: &mut FlopCounter,
    elems: std::ops::Range<usize>,
) {
    let WaveFields { displ, accel, .. } = fields;
    solid_forces_impl(
        mesh,
        geom,
        ops,
        variant,
        displ,
        atten,
        gravity,
        flops,
        elems,
        &mut SolidAccelSink { accel },
    );
}

/// Solid forces of the listed elements written to a per-element
/// contribution buffer (`out[(e·n³+l)·3+c]`, sized `nspec·n³·3`) instead
/// of the global field — the LTS refresh step. Elements *not* listed keep
/// their previous (frozen) contributions; the caller scatters the whole
/// buffer in ascending element order afterwards, which reproduces the
/// plain loop's per-point accumulation order exactly.
#[allow(clippy::too_many_arguments)]
pub fn compute_solid_contribs(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    displ: &[f32],
    atten: Option<&mut AttenuationState>,
    gravity: bool,
    flops: &mut FlopCounter,
    elems: &[u32],
    out: &mut [f32],
) {
    let n3 = mesh.points_per_element();
    debug_assert_eq!(out.len(), mesh.nspec * n3 * 3);
    solid_forces_impl(
        mesh,
        geom,
        ops,
        variant,
        displ,
        atten,
        gravity,
        flops,
        elems.iter().map(|&e| e as usize),
        &mut SolidContribSink { out, n3 },
    );
}

#[allow(clippy::too_many_arguments)]
fn solid_forces_impl<S: SolidSink>(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    displ: &[f32],
    mut atten: Option<&mut AttenuationState>,
    gravity: bool,
    flops: &mut FlopCounter,
    elems: impl Iterator<Item = usize>,
    sink: &mut S,
) {
    let n3 = mesh.points_per_element();
    let w = &mesh.basis.weights;
    let mut wf = [0.0f32; NGLL];
    for i in 0..NGLL {
        wf[i] = w[i] as f32;
    }

    let mut u = [[0.0f32; NGLL3_PADDED]; 3];
    let mut t = [[[0.0f32; NGLL3_PADDED]; 3]; 3]; // t[comp][dir]
    let mut f = [[[0.0f32; NGLL3_PADDED]; 3]; 3]; // f[comp][dir]
    let mut body = [[0.0f32; NGLL3_PADDED]; 3];
    let mut accum = [0.0f32; NGLL3_PADDED];

    let mut nsolid = 0usize;
    for e in elems {
        if mesh.region[e].is_fluid() {
            continue;
        }
        nsolid += 1;
        let base = e * n3;
        let ib = &mesh.ibool[base..base + n3];
        for (c, uc) in u.iter_mut().enumerate() {
            gather_component(ib, displ, c, uc);
        }
        for c in 0..3 {
            let (t0, rest) = t[c].split_at_mut(1);
            let (t1, t2) = rest.split_at_mut(1);
            cutplane_derivatives(variant, &u[c], ops, &mut t0[0], &mut t1[0], &mut t2[0]);
        }
        if gravity {
            for b in body.iter_mut() {
                b[..NGLL3].fill(0.0);
            }
        }
        for k in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (k * NGLL + j) * NGLL + i;
                    let idx = base + l;
                    let (xix, xiy, xiz) = (geom.xix[idx], geom.xiy[idx], geom.xiz[idx]);
                    let (etx, ety, etz) = (geom.etax[idx], geom.etay[idx], geom.etaz[idx]);
                    let (gax, gay, gaz) = (geom.gammax[idx], geom.gammay[idx], geom.gammaz[idx]);
                    // Physical displacement gradient.
                    let dux_dx = t[0][0][l] * xix + t[0][1][l] * etx + t[0][2][l] * gax;
                    let dux_dy = t[0][0][l] * xiy + t[0][1][l] * ety + t[0][2][l] * gay;
                    let dux_dz = t[0][0][l] * xiz + t[0][1][l] * etz + t[0][2][l] * gaz;
                    let duy_dx = t[1][0][l] * xix + t[1][1][l] * etx + t[1][2][l] * gax;
                    let duy_dy = t[1][0][l] * xiy + t[1][1][l] * ety + t[1][2][l] * gay;
                    let duy_dz = t[1][0][l] * xiz + t[1][1][l] * etz + t[1][2][l] * gaz;
                    let duz_dx = t[2][0][l] * xix + t[2][1][l] * etx + t[2][2][l] * gax;
                    let duz_dy = t[2][0][l] * xiy + t[2][1][l] * ety + t[2][2][l] * gay;
                    let duz_dz = t[2][0][l] * xiz + t[2][1][l] * etz + t[2][2][l] * gaz;

                    let mu = mesh.mu[idx];
                    let kappa = mesh.kappa[idx];
                    let lambda = kappa - 2.0 / 3.0 * mu;
                    let div = dux_dx + duy_dy + duz_dz;
                    let eps_xy = 0.5 * (dux_dy + duy_dx);
                    let eps_xz = 0.5 * (dux_dz + duz_dx);
                    let eps_yz = 0.5 * (duy_dz + duz_dy);

                    let mut sig_xx = lambda * div + 2.0 * mu * dux_dx;
                    let mut sig_yy = lambda * div + 2.0 * mu * duy_dy;
                    let mut sig_zz = lambda * div + 2.0 * mu * duz_dz;
                    let mut sig_xy = 2.0 * mu * eps_xy;
                    let mut sig_xz = 2.0 * mu * eps_xz;
                    let mut sig_yz = 2.0 * mu * eps_yz;

                    if let Some(att) = atten.as_deref_mut() {
                        // Deviatoric strain components (xx, yy, xy, xz, yz).
                        let third_div = div / 3.0;
                        let dev = [
                            dux_dx - third_div,
                            duy_dy - third_div,
                            eps_xy,
                            eps_xz,
                            eps_yz,
                        ];
                        let inv_q = {
                            let q = mesh.qmu[idx];
                            if q.is_finite() && q > 0.0 {
                                1.0 / q
                            } else {
                                0.0
                            }
                        };
                        let mbase = (idx * 5) * N_SLS;
                        let mut rsum = [0.0f32; 5];
                        for (comp, &d) in dev.iter().enumerate() {
                            let target = 2.0 * mu * d * inv_q;
                            for sls in 0..N_SLS {
                                let m = &mut att.memory[mbase + comp * N_SLS + sls];
                                *m = att.alpha[sls] * *m + att.beta_unit[sls] * target;
                                rsum[comp] += *m;
                            }
                        }
                        sig_xx -= rsum[0];
                        sig_yy -= rsum[1];
                        sig_zz += rsum[0] + rsum[1]; // R_zz = −(R_xx + R_yy)
                        sig_xy -= rsum[2];
                        sig_xz -= rsum[3];
                        sig_yz -= rsum[4];
                    }

                    let jac = geom.jacobian[idx];
                    let w1 = (wf[j] * wf[k]) * jac; // ξ-direction cross weight
                    let w2 = (wf[i] * wf[k]) * jac;
                    let w3 = (wf[i] * wf[j]) * jac;
                    // F(comp, dir) = J·σ·∇ξ_dir, with cross weights folded in.
                    f[0][0][l] = w1 * (sig_xx * xix + sig_xy * xiy + sig_xz * xiz);
                    f[0][1][l] = w2 * (sig_xx * etx + sig_xy * ety + sig_xz * etz);
                    f[0][2][l] = w3 * (sig_xx * gax + sig_xy * gay + sig_xz * gaz);
                    f[1][0][l] = w1 * (sig_xy * xix + sig_yy * xiy + sig_yz * xiz);
                    f[1][1][l] = w2 * (sig_xy * etx + sig_yy * ety + sig_yz * etz);
                    f[1][2][l] = w3 * (sig_xy * gax + sig_yy * gay + sig_yz * gaz);
                    f[2][0][l] = w1 * (sig_xz * xix + sig_yz * xiy + sig_zz * xiz);
                    f[2][1][l] = w2 * (sig_xz * etx + sig_yz * ety + sig_zz * etz);
                    f[2][2][l] = w3 * (sig_xz * gax + sig_yz * gay + sig_zz * gaz);

                    if gravity && !geom.g_at_point.is_empty() {
                        // Cowling buoyancy: ρ[∇(u·g) − g(∇·u)], g = −g·r̂.
                        let g = geom.g_at_point[idx];
                        let rh = geom.rhat[idx];
                        let rho = mesh.rho[idx];
                        let wjac = (wf[i] * wf[j] * wf[k]) * jac;
                        // u·g = −g·u_r; ∇(u·g)_i ≈ −g Σ_j rh_j ∂u_j/∂x_i.
                        let gx = -g * (rh[0] * dux_dx + rh[1] * duy_dx + rh[2] * duz_dx);
                        let gy = -g * (rh[0] * dux_dy + rh[1] * duy_dy + rh[2] * duz_dy);
                        let gz = -g * (rh[0] * dux_dz + rh[1] * duy_dz + rh[2] * duz_dz);
                        body[0][l] = rho * wjac * (gx + g * rh[0] * div);
                        body[1][l] = rho * wjac * (gy + g * rh[1] * div);
                        body[2][l] = rho * wjac * (gz + g * rh[2] * div);
                    }
                }
            }
        }
        for c in 0..3 {
            accum[..NGLL3].fill(0.0);
            cutplane_transpose_accumulate(variant, &f[c][0], &f[c][1], &f[c][2], ops, &mut accum);
            sink.emit(
                e,
                ib,
                c,
                &accum,
                if gravity { Some(&body[c]) } else { None },
            );
        }
    }
    flops.add_solid_elements(nsolid, atten.is_some());
}

/// Destination of a fluid element's accumulated force — the scalar
/// (χ̈) analog of [`SolidSink`].
trait FluidSink {
    fn emit(&mut self, e: usize, ib: &[u32], accum: &[f32; NGLL3_PADDED]);
}

struct FluidAccelSink<'a> {
    chi_ddot: &'a mut [f32],
}

impl FluidSink for FluidAccelSink<'_> {
    #[inline(always)]
    fn emit(&mut self, _e: usize, ib: &[u32], accum: &[f32; NGLL3_PADDED]) {
        for (l, &p) in ib.iter().enumerate() {
            self.chi_ddot[p as usize] -= accum[l];
        }
    }
}

struct FluidContribSink<'a> {
    out: &'a mut [f32],
    n3: usize,
}

impl FluidSink for FluidContribSink<'_> {
    #[inline(always)]
    fn emit(&mut self, e: usize, ib: &[u32], accum: &[f32; NGLL3_PADDED]) {
        let base = e * self.n3;
        for l in 0..ib.len() {
            self.out[base + l] = -accum[l];
        }
    }
}

/// Fluid (outer-core) internal forces: `χ̈ -= K_f·χ` with
/// `K_f = ∫ (1/ρ)∇w·∇χ`.
pub fn compute_fluid_forces(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    flops: &mut FlopCounter,
) {
    compute_fluid_forces_range(mesh, geom, ops, variant, fields, flops, 0..mesh.nspec);
}

/// Fluid internal forces restricted to the local elements in `elems` —
/// see [`compute_solid_forces_range`] for the overlap contract.
pub fn compute_fluid_forces_range(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    fields: &mut WaveFields,
    flops: &mut FlopCounter,
    elems: std::ops::Range<usize>,
) {
    let WaveFields { chi, chi_ddot, .. } = fields;
    fluid_forces_impl(
        mesh,
        geom,
        ops,
        variant,
        chi,
        flops,
        elems,
        &mut FluidAccelSink { chi_ddot },
    );
}

/// Fluid forces of the listed elements written to a per-element
/// contribution buffer (`out[e·n³+l]`, sized `nspec·n³`) — the fluid half
/// of the LTS refresh step; see [`compute_solid_contribs`].
#[allow(clippy::too_many_arguments)]
pub fn compute_fluid_contribs(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    chi: &[f32],
    flops: &mut FlopCounter,
    elems: &[u32],
    out: &mut [f32],
) {
    let n3 = mesh.points_per_element();
    debug_assert_eq!(out.len(), mesh.nspec * n3);
    fluid_forces_impl(
        mesh,
        geom,
        ops,
        variant,
        chi,
        flops,
        elems.iter().map(|&e| e as usize),
        &mut FluidContribSink { out, n3 },
    );
}

#[allow(clippy::too_many_arguments)]
fn fluid_forces_impl<S: FluidSink>(
    mesh: &LocalMesh,
    geom: &PrecomputedGeometry,
    ops: &DerivOps,
    variant: KernelVariant,
    chi_field: &[f32],
    flops: &mut FlopCounter,
    elems: impl Iterator<Item = usize>,
    sink: &mut S,
) {
    let n3 = mesh.points_per_element();
    let w = &mesh.basis.weights;
    let mut wf = [0.0f32; NGLL];
    for i in 0..NGLL {
        wf[i] = w[i] as f32;
    }
    let mut chi = [0.0f32; NGLL3_PADDED];
    let mut t1 = [0.0f32; NGLL3_PADDED];
    let mut t2 = [0.0f32; NGLL3_PADDED];
    let mut t3 = [0.0f32; NGLL3_PADDED];
    let mut f1 = [0.0f32; NGLL3_PADDED];
    let mut f2 = [0.0f32; NGLL3_PADDED];
    let mut f3 = [0.0f32; NGLL3_PADDED];
    let mut accum = [0.0f32; NGLL3_PADDED];

    let mut nfluid = 0usize;
    for e in elems {
        if !mesh.region[e].is_fluid() {
            continue;
        }
        nfluid += 1;
        let base = e * n3;
        let ib = &mesh.ibool[base..base + n3];
        for (l, &p) in ib.iter().enumerate() {
            chi[l] = chi_field[p as usize];
        }
        cutplane_derivatives(variant, &chi, ops, &mut t1, &mut t2, &mut t3);
        for k in 0..NGLL {
            for j in 0..NGLL {
                for i in 0..NGLL {
                    let l = (k * NGLL + j) * NGLL + i;
                    let idx = base + l;
                    let (xix, xiy, xiz) = (geom.xix[idx], geom.xiy[idx], geom.xiz[idx]);
                    let (etx, ety, etz) = (geom.etax[idx], geom.etay[idx], geom.etaz[idx]);
                    let (gax, gay, gaz) = (geom.gammax[idx], geom.gammay[idx], geom.gammaz[idx]);
                    let dchi_dx = t1[l] * xix + t2[l] * etx + t3[l] * gax;
                    let dchi_dy = t1[l] * xiy + t2[l] * ety + t3[l] * gay;
                    let dchi_dz = t1[l] * xiz + t2[l] * etz + t3[l] * gaz;
                    let inv_rho = 1.0 / mesh.rho[idx];
                    let jac = geom.jacobian[idx];
                    let gx = inv_rho * dchi_dx;
                    let gy = inv_rho * dchi_dy;
                    let gz = inv_rho * dchi_dz;
                    f1[l] = (wf[j] * wf[k]) * jac * (gx * xix + gy * xiy + gz * xiz);
                    f2[l] = (wf[i] * wf[k]) * jac * (gx * etx + gy * ety + gz * etz);
                    f3[l] = (wf[i] * wf[j]) * jac * (gx * gax + gy * gay + gz * gaz);
                }
            }
        }
        accum[..NGLL3].fill(0.0);
        cutplane_transpose_accumulate(variant, &f1, &f2, &f3, ops, &mut accum);
        sink.emit(e, ib, &accum);
    }
    flops.add_fluid_elements(nfluid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_gll::GllBasis;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::Prem;

    fn serial_setup() -> (LocalMesh, PrecomputedGeometry, DerivOps) {
        let params = MeshParams::new(4, 1);
        let prem = Prem::isotropic_no_ocean();
        let gm = GlobalMesh::build(&params, &prem);
        let mesh = Partition::serial(&gm).extract(&gm, 0);
        let geom = PrecomputedGeometry::compute(&mesh, None);
        let ops = DerivOps::from_basis(&GllBasis::new(4));
        (mesh, geom, ops)
    }

    #[test]
    fn rigid_translation_produces_no_solid_forces() {
        // A constant displacement field has zero strain → forces at f32
        // roundoff only. "Roundoff" must be judged against the RHS a
        // *deforming* field of the same amplitude produces (the raw RHS
        // carries the enormous λ·J·∇ξ scale before the mass division).
        let (mesh, geom, ops) = serial_setup();
        let mut flops = FlopCounter::new();
        let rhs_max = |fields: &mut WaveFields, flops: &mut FlopCounter| {
            compute_solid_forces(
                &mesh,
                &geom,
                &ops,
                KernelVariant::Simd,
                fields,
                None,
                false,
                flops,
            );
            fields.accel.iter().map(|a| a.abs()).fold(0.0f32, f32::max)
        };
        let mut rigid = WaveFields::zeros(mesh.nglob);
        for p in 0..mesh.nglob {
            rigid.displ[p * 3] = 1.0;
            rigid.displ[p * 3 + 1] = -0.5;
            rigid.displ[p * 3 + 2] = 0.25;
        }
        let rigid_max = rhs_max(&mut rigid, &mut flops);

        let mut wave = WaveFields::zeros(mesh.nglob);
        for (p, c) in mesh.coords.iter().enumerate() {
            wave.displ[p * 3] = (c[0] / 1.0e6).sin() as f32; // unit-amplitude wave
        }
        let wave_max = rhs_max(&mut wave, &mut flops);

        assert!(wave_max > 0.0);
        assert!(
            rigid_max < 1e-4 * wave_max,
            "rigid RHS {rigid_max} vs deforming RHS {wave_max}"
        );
        assert!(flops.total() > 0);
    }

    #[test]
    fn constant_potential_produces_no_fluid_forces() {
        let (mesh, geom, ops) = serial_setup();
        let mut fields = WaveFields::zeros(mesh.nglob);
        fields.chi.fill(7.0);
        let mut flops = FlopCounter::new();
        compute_fluid_forces(
            &mesh,
            &geom,
            &ops,
            KernelVariant::Simd,
            &mut fields,
            &mut flops,
        );
        let max = fields
            .chi_ddot
            .iter()
            .map(|a| a.abs())
            .fold(0.0f32, f32::max);
        assert!(max < 1.0, "max chi_ddot {max}");
    }

    #[test]
    fn kernel_variants_agree_on_real_mesh_forces() {
        let (mesh, geom, ops) = serial_setup();
        let mut results = Vec::new();
        for variant in [
            KernelVariant::Reference,
            KernelVariant::Simd,
            KernelVariant::BlasStyle,
        ] {
            let mut fields = WaveFields::zeros(mesh.nglob);
            // Smooth nontrivial displacement: u = sin(kx)·ŷ.
            for (p, c) in mesh.coords.iter().enumerate() {
                fields.displ[p * 3 + 1] = (c[0] / 1.0e6).sin() as f32;
            }
            let mut flops = FlopCounter::new();
            compute_solid_forces(
                &mesh,
                &geom,
                &ops,
                variant,
                &mut fields,
                None,
                false,
                &mut flops,
            );
            results.push(fields.accel);
        }
        let norm: f32 = results[0].iter().map(|a| a.abs()).fold(0.0, f32::max);
        assert!(norm > 0.0);
        for other in &results[1..] {
            let maxdiff = results[0]
                .iter()
                .zip(other)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                maxdiff < 1e-4 * norm,
                "variants differ: {maxdiff} vs {norm}"
            );
        }
    }

    #[test]
    fn stiffness_is_symmetric_negative_semidefinite() {
        // ⟨u, K u⟩ ≥ 0 for the elastic stiffness (energy), i.e. the
        // accumulated accel = −K u must satisfy −⟨u, accel⟩ ≥ 0.
        let (mesh, geom, ops) = serial_setup();
        let mut fields = WaveFields::zeros(mesh.nglob);
        for (p, c) in mesh.coords.iter().enumerate() {
            fields.displ[p * 3] = (c[1] / 2.0e6).cos() as f32;
            fields.displ[p * 3 + 2] = (c[0] / 3.0e6).sin() as f32;
        }
        let mut flops = FlopCounter::new();
        compute_solid_forces(
            &mesh,
            &geom,
            &ops,
            KernelVariant::Reference,
            &mut fields,
            None,
            false,
            &mut flops,
        );
        let mut energy = 0.0f64;
        for p in 0..mesh.nglob {
            for c in 0..3 {
                energy -= fields.displ[p * 3 + c] as f64 * fields.accel[p * 3 + c] as f64;
            }
        }
        assert!(energy > 0.0, "strain energy {energy} must be positive");
    }

    #[test]
    fn split_range_forces_are_bit_identical_to_full_pass() {
        // Computing 0..k then k..nspec must reproduce 0..nspec exactly —
        // the property the overlapped time loop's bit-identity rests on.
        let (mesh, geom, ops) = serial_setup();
        let seed_fields = |fields: &mut WaveFields| {
            for (p, c) in mesh.coords.iter().enumerate() {
                fields.displ[p * 3] = (c[0] / 1.5e6).sin() as f32;
                fields.displ[p * 3 + 2] = (c[1] / 2.5e6).cos() as f32;
                fields.chi[p] = (c[2] / 2.0e6).sin() as f32;
            }
        };
        let mut full = WaveFields::zeros(mesh.nglob);
        seed_fields(&mut full);
        let mut flops = FlopCounter::new();
        compute_solid_forces(
            &mesh,
            &geom,
            &ops,
            KernelVariant::Simd,
            &mut full,
            None,
            false,
            &mut flops,
        );
        compute_fluid_forces(
            &mesh,
            &geom,
            &ops,
            KernelVariant::Simd,
            &mut full,
            &mut flops,
        );

        for split in [0, 1, mesh.nspec / 3, mesh.nspec / 2, mesh.nspec] {
            let mut halves = WaveFields::zeros(mesh.nglob);
            seed_fields(&mut halves);
            let mut flops2 = FlopCounter::new();
            compute_solid_forces_range(
                &mesh,
                &geom,
                &ops,
                KernelVariant::Simd,
                &mut halves,
                None,
                false,
                &mut flops2,
                0..split,
            );
            compute_solid_forces_range(
                &mesh,
                &geom,
                &ops,
                KernelVariant::Simd,
                &mut halves,
                None,
                false,
                &mut flops2,
                split..mesh.nspec,
            );
            compute_fluid_forces_range(
                &mesh,
                &geom,
                &ops,
                KernelVariant::Simd,
                &mut halves,
                &mut flops2,
                0..split,
            );
            compute_fluid_forces_range(
                &mesh,
                &geom,
                &ops,
                KernelVariant::Simd,
                &mut halves,
                &mut flops2,
                split..mesh.nspec,
            );
            for (a, b) in full.accel.iter().zip(&halves.accel) {
                assert_eq!(a.to_bits(), b.to_bits(), "split at {split}");
            }
            for (a, b) in full.chi_ddot.iter().zip(&halves.chi_ddot) {
                assert_eq!(a.to_bits(), b.to_bits(), "split at {split}");
            }
            assert_eq!(flops.total(), flops2.total());
        }
    }

    #[test]
    fn attenuation_memory_variables_build_up_and_reduce_stress_work() {
        let (mesh, geom, ops) = serial_setup();
        let mut att = AttenuationState::new(&mesh, 0.5, 100.0);
        assert!(att.memory.iter().all(|&m| m == 0.0));
        let mut fields = WaveFields::zeros(mesh.nglob);
        for (p, c) in mesh.coords.iter().enumerate() {
            fields.displ[p * 3] = (c[2] / 2.0e6).sin() as f32;
        }
        let mut flops = FlopCounter::new();
        compute_solid_forces(
            &mesh,
            &geom,
            &ops,
            KernelVariant::Simd,
            &mut fields,
            Some(&mut att),
            false,
            &mut flops,
        );
        let nonzero = att.memory.iter().filter(|&&m| m != 0.0).count();
        assert!(nonzero > 0, "memory variables must respond to strain");
    }
}
