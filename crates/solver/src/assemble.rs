//! Solver setup: precomputed metric arrays, assembled (diagonal) mass
//! matrices, and the global wave-field storage.

use specfem_comm::{assemble_halo, tags, CommError, Communicator};
use specfem_mesh::{LocalMesh, MeshRegion};

/// Metric terms and material constants of every local element, flattened
/// `[e · n³ + point]` for streaming access in the force kernels.
#[derive(Debug, Clone)]
pub struct PrecomputedGeometry {
    pub xix: Vec<f32>,
    pub xiy: Vec<f32>,
    pub xiz: Vec<f32>,
    pub etax: Vec<f32>,
    pub etay: Vec<f32>,
    pub etaz: Vec<f32>,
    pub gammax: Vec<f32>,
    pub gammay: Vec<f32>,
    pub gammaz: Vec<f32>,
    pub jacobian: Vec<f32>,
    /// Radial unit vector at every GLL point (for gravity/rotation terms).
    pub rhat: Vec<[f32; 3]>,
    /// Gravitational acceleration magnitude at every GLL point (m/s²);
    /// empty unless gravity is enabled.
    pub g_at_point: Vec<f32>,
}

impl PrecomputedGeometry {
    /// Compute all metric terms of `mesh` (one pass over the elements).
    pub fn compute(mesh: &LocalMesh, gravity: Option<&specfem_model::GravityProfile>) -> Self {
        let n3 = mesh.points_per_element();
        let total = mesh.nspec * n3;
        let mut out = Self {
            xix: Vec::with_capacity(total),
            xiy: Vec::with_capacity(total),
            xiz: Vec::with_capacity(total),
            etax: Vec::with_capacity(total),
            etay: Vec::with_capacity(total),
            etaz: Vec::with_capacity(total),
            gammax: Vec::with_capacity(total),
            gammay: Vec::with_capacity(total),
            gammaz: Vec::with_capacity(total),
            jacobian: Vec::with_capacity(total),
            rhat: Vec::with_capacity(total),
            g_at_point: Vec::new(),
        };
        if gravity.is_some() {
            out.g_at_point.reserve(total);
        }
        for e in 0..mesh.nspec {
            let g = mesh.element_geometry(e);
            out.xix.extend_from_slice(&g.xix);
            out.xiy.extend_from_slice(&g.xiy);
            out.xiz.extend_from_slice(&g.xiz);
            out.etax.extend_from_slice(&g.etax);
            out.etay.extend_from_slice(&g.etay);
            out.etaz.extend_from_slice(&g.etaz);
            out.gammax.extend_from_slice(&g.gammax);
            out.gammay.extend_from_slice(&g.gammay);
            out.gammaz.extend_from_slice(&g.gammaz);
            out.jacobian.extend_from_slice(&g.jacobian);
            for &lid in &mesh.ibool[e * n3..(e + 1) * n3] {
                let p = mesh.coords[lid as usize];
                let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
                if r > 0.0 {
                    out.rhat
                        .push([(p[0] / r) as f32, (p[1] / r) as f32, (p[2] / r) as f32]);
                } else {
                    out.rhat.push([0.0, 0.0, 0.0]);
                }
                if let Some(prof) = gravity {
                    out.g_at_point.push(prof.g_at(r) as f32);
                }
            }
        }
        out
    }
}

/// Assembled diagonal mass matrices: `M_solid[p] = Σ ρ J w³` over solid
/// elements, `M_fluid[p] = Σ (1/κ) J w³` over fluid elements (paper §2.4:
/// "the mass matrix M is diagonal by construction").
#[derive(Debug, Clone)]
pub struct MassMatrices {
    /// Solid mass per local point (zero at fluid-only points).
    pub solid: Vec<f32>,
    /// Fluid "mass" per local point (zero at solid-only points).
    pub fluid: Vec<f32>,
}

impl MassMatrices {
    /// Build and globally assemble the mass matrices.
    pub fn build(
        mesh: &LocalMesh,
        geom: &PrecomputedGeometry,
        comm: &mut dyn Communicator,
    ) -> Result<Self, CommError> {
        let np = mesh.basis.npoints();
        let n3 = mesh.points_per_element();
        let w = &mesh.basis.weights;
        let mut solid = vec![0.0f32; mesh.nglob];
        let mut fluid = vec![0.0f32; mesh.nglob];
        for e in 0..mesh.nspec {
            let is_fluid = mesh.region[e].is_fluid();
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let l = (k * np + j) * np + i;
                        let idx = e * n3 + l;
                        let p = mesh.ibool[idx] as usize;
                        let w3 = (w[i] * w[j] * w[k]) as f32;
                        let jw = geom.jacobian[idx] * w3;
                        if is_fluid {
                            fluid[p] += jw / mesh.kappa[idx];
                        } else {
                            solid[p] += mesh.rho[idx] * jw;
                        }
                    }
                }
            }
        }
        // Sum shared-point contributions across ranks once, at startup.
        assemble_halo(comm, &mesh.halo, &mut solid, 1, tags::HALO_SOLID)?;
        assemble_halo(comm, &mesh.halo, &mut fluid, 1, tags::HALO_FLUID)?;
        Ok(Self { solid, fluid })
    }
}

/// The global degrees of freedom of one rank: solid displacement/velocity/
/// acceleration (3 components) and the fluid potential χ and its time
/// derivatives, for `k` event lanes sharing the mesh.
///
/// Layout is lane-major (`specfem_kernels::lane_major`): vector fields
/// store `[(p·3 + c)·k + lane]`, scalar fields `[p·k + lane]`. At `k = 1`
/// that *is* the point-major `[p·3 + c]` / `[p]` layout of a single run.
/// The `k` lane values of one slot are contiguous, which is what lets the
/// halo layer pack all lanes of a shared point into one message
/// (`ncomp = 3k` / `k`) and the batched kernels stream `k` products per
/// coefficient load. Lanes never mix: every update below is the same
/// per-lane f32 operation sequence for any `k`, so a lane of a `k`-lane
/// run is bit-identical to the single run it replaces.
#[derive(Debug, Clone)]
pub struct WaveFields {
    /// Number of event lanes.
    pub k: usize,
    pub displ: Vec<f32>,
    pub veloc: Vec<f32>,
    pub accel: Vec<f32>,
    pub chi: Vec<f32>,
    pub chi_dot: Vec<f32>,
    pub chi_ddot: Vec<f32>,
}

impl WaveFields {
    /// Zero-initialized single-lane fields for `nglob` points.
    pub fn zeros(nglob: usize) -> Self {
        Self::with_lanes(nglob, 1)
    }

    /// Zero-initialized fields for `k` event lanes over `nglob` points.
    pub fn with_lanes(nglob: usize, k: usize) -> Self {
        assert!((1..=specfem_kernels::MAX_BATCH_LANES).contains(&k));
        Self {
            k,
            displ: vec![0.0; nglob * 3 * k],
            veloc: vec![0.0; nglob * 3 * k],
            accel: vec![0.0; nglob * 3 * k],
            chi: vec![0.0; nglob * k],
            chi_dot: vec![0.0; nglob * k],
            chi_ddot: vec![0.0; nglob * k],
        }
    }

    /// One lane of `field` in the single-lane layout (health scans,
    /// checkpoints, oracles); borrowed as-is at `k = 1`.
    pub fn lane<'a>(&self, field: &'a [f32], lane: usize) -> std::borrow::Cow<'a, [f32]> {
        if self.k == 1 {
            field.into()
        } else {
            field.iter().skip(lane).step_by(self.k).copied().collect()
        }
    }

    /// Newmark predictor: `u += dt·v + dt²/2·a; v += dt/2·a; a = 0`, for
    /// both solid and fluid unknowns (element-wise, so lane order is
    /// irrelevant — each lane only reads its own slots).
    pub fn predictor(&mut self, dt: f32) {
        let half_dt = 0.5 * dt;
        let dt2_half = 0.5 * dt * dt;
        for ((u, v), a) in self
            .displ
            .iter_mut()
            .zip(self.veloc.iter_mut())
            .zip(self.accel.iter_mut())
        {
            *u += dt * *v + dt2_half * *a;
            *v += half_dt * *a;
            *a = 0.0;
        }
        for ((c, cd), cdd) in self
            .chi
            .iter_mut()
            .zip(self.chi_dot.iter_mut())
            .zip(self.chi_ddot.iter_mut())
        {
            *c += dt * *cd + dt2_half * *cdd;
            *cd += half_dt * *cdd;
            *cdd = 0.0;
        }
    }

    /// Newmark corrector for the solid: `a ← a/M; v += dt/2·a` (only where
    /// solid mass exists).
    pub fn corrector_solid(&mut self, mass: &[f32], dt: f32) {
        correct(&mut self.accel, &mut self.veloc, mass, 3 * self.k, dt);
    }

    /// Newmark corrector for the fluid potential.
    pub fn corrector_fluid(&mut self, mass: &[f32], dt: f32) {
        correct(&mut self.chi_ddot, &mut self.chi_dot, mass, self.k, dt);
    }
}

/// `a ← a/M; v += dt/2·a` on the `width` contiguous slots of every point
/// with mass (`1/M` hoisted per point).
fn correct(accel: &mut [f32], veloc: &mut [f32], mass: &[f32], width: usize, dt: f32) {
    let half_dt = 0.5 * dt;
    for (p, &m) in mass.iter().enumerate() {
        if m > 0.0 {
            let inv = 1.0 / m;
            let slots = p * width..(p + 1) * width;
            for (a, v) in accel[slots.clone()].iter_mut().zip(&mut veloc[slots]) {
                *a *= inv;
                *v += half_dt * *a;
            }
        }
    }
}

/// Which points belong to solid / fluid regions (both at interfaces).
pub fn region_masks(mesh: &LocalMesh) -> (Vec<bool>, Vec<bool>) {
    let n3 = mesh.points_per_element();
    let mut solid = vec![false; mesh.nglob];
    let mut fluid = vec![false; mesh.nglob];
    for e in 0..mesh.nspec {
        let dst = if mesh.region[e] == MeshRegion::OuterCore {
            &mut fluid
        } else {
            &mut solid
        };
        for &p in &mesh.ibool[e * n3..(e + 1) * n3] {
            dst[p as usize] = true;
        }
    }
    (solid, fluid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_comm::SerialComm;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::Prem;

    fn serial_mesh() -> LocalMesh {
        let params = MeshParams::new(4, 1);
        let prem = Prem::isotropic_no_ocean();
        let mesh = GlobalMesh::build(&params, &prem);
        Partition::serial(&mesh).extract(&mesh, 0)
    }

    #[test]
    fn mass_matrices_are_positive_where_defined_and_partition_points() {
        let mesh = serial_mesh();
        let geom = PrecomputedGeometry::compute(&mesh, None);
        let mut comm = SerialComm::new();
        let mass = MassMatrices::build(&mesh, &geom, &mut comm).unwrap();
        let (solid_mask, fluid_mask) = region_masks(&mesh);
        for p in 0..mesh.nglob {
            assert_eq!(mass.solid[p] > 0.0, solid_mask[p], "solid mass at {p}");
            assert_eq!(mass.fluid[p] > 0.0, fluid_mask[p], "fluid mass at {p}");
            assert!(
                solid_mask[p] || fluid_mask[p],
                "point {p} belongs to no region"
            );
        }
    }

    #[test]
    fn total_solid_mass_matches_model_mass_of_solid_regions() {
        // Σ M_solid = ∫ρ dV over the solid regions — compare against a
        // direct quadrature of the same elements.
        let mesh = serial_mesh();
        let geom = PrecomputedGeometry::compute(&mesh, None);
        let mut comm = SerialComm::new();
        let mass = MassMatrices::build(&mesh, &geom, &mut comm).unwrap();
        let total: f64 = mass.solid.iter().map(|&m| m as f64).sum();
        // Earth minus outer core ≈ 5.97e24 − 1.84e24 ≈ 4.1e24 kg. The
        // NEX=4 mesh is crude; accept 5 %.
        assert!(
            (total - 4.13e24).abs() < 0.05 * 4.13e24,
            "solid mass {total:.3e}"
        );
    }

    #[test]
    fn predictor_then_correctors_reproduce_newmark_free_flight() {
        // With zero forces, constant acceleration = 0: u advances linearly.
        let mut f = WaveFields::zeros(4);
        f.veloc[0] = 2.0;
        let mass = vec![1.0f32; 4];
        let dt = 0.1f32;
        for _ in 0..10 {
            f.predictor(dt);
            f.corrector_solid(&mass, dt);
        }
        assert!((f.displ[0] - 2.0).abs() < 1e-5); // 2.0 m/s × 1.0 s
        assert!((f.veloc[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fluid_corrector_skips_zero_mass() {
        let mut f = WaveFields::zeros(2);
        f.chi_ddot = vec![4.0, 4.0];
        let mass = vec![2.0f32, 0.0];
        f.corrector_fluid(&mass, 0.5);
        assert_eq!(f.chi_ddot[0], 2.0);
        assert_eq!(f.chi_ddot[1], 4.0); // untouched
        assert_eq!(f.chi_dot[0], 0.5);
    }

    #[test]
    fn predictor_and_correctors_match_single_lane_bitwise() {
        // Two different states as the lanes of one 2-lane field set and as
        // two single-lane sets: every update must agree to the bit.
        let (nglob, k) = (7, 2);
        let mut fused = WaveFields::with_lanes(nglob, k);
        let mut solo: Vec<WaveFields> = (0..k).map(|_| WaveFields::zeros(nglob)).collect();
        let mut x = 1.0f32;
        for lane in 0..k {
            for slot in 0..nglob * 3 {
                x = (x * 1.1 + 0.3).sin();
                fused.displ[slot * k + lane] = x;
                fused.veloc[slot * k + lane] = x * 0.5;
                fused.accel[slot * k + lane] = x * 0.25;
                solo[lane].displ[slot] = x;
                solo[lane].veloc[slot] = x * 0.5;
                solo[lane].accel[slot] = x * 0.25;
            }
            for p in 0..nglob {
                x = (x * 1.7 + 0.1).cos();
                fused.chi[p * k + lane] = x;
                fused.chi_dot[p * k + lane] = -x;
                fused.chi_ddot[p * k + lane] = 2.0 * x;
                solo[lane].chi[p] = x;
                solo[lane].chi_dot[p] = -x;
                solo[lane].chi_ddot[p] = 2.0 * x;
            }
        }
        let mass: Vec<f32> = (0..nglob)
            .map(|p| if p == 3 { 0.0 } else { 1.0 + p as f32 * 0.37 })
            .collect();
        let step = |f: &mut WaveFields| {
            f.predictor(0.125);
            f.corrector_solid(&mass, 0.125);
            f.corrector_fluid(&mass, 0.125);
        };
        step(&mut fused);
        solo.iter_mut().for_each(step);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (lane, s) in solo.iter().enumerate() {
            for (got, want) in [
                (&fused.displ, &s.displ),
                (&fused.veloc, &s.veloc),
                (&fused.accel, &s.accel),
                (&fused.chi, &s.chi),
                (&fused.chi_dot, &s.chi_dot),
                (&fused.chi_ddot, &s.chi_ddot),
            ] {
                assert_eq!(bits(&fused.lane(got, lane)), bits(want));
            }
        }
    }

    #[test]
    fn geometry_arrays_have_consistent_lengths_and_unit_rhat() {
        let mesh = serial_mesh();
        let geom = PrecomputedGeometry::compute(&mesh, None);
        let total = mesh.nspec * mesh.points_per_element();
        assert_eq!(geom.jacobian.len(), total);
        assert_eq!(geom.rhat.len(), total);
        assert!(geom.g_at_point.is_empty());
        for rh in geom.rhat.iter().step_by(97) {
            let n = (rh[0] * rh[0] + rh[1] * rh[1] + rh[2] * rh[2]).sqrt();
            assert!(n == 0.0 || (n - 1.0).abs() < 1e-5);
        }
    }
}
