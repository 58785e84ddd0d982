//! Fluid–solid coupling at the CMB and ICB (paper §1, ref [4]).
//!
//! The coupling is **non-iterative and displacement-based**: within one time
//! step the fluid potential equation is driven by the boundary term
//! `∮ w (u_solid · n̂) dΓ` using the freshly *predicted solid displacement*,
//! and the solid momentum equation then receives the traction
//! `t = −p n̂_s = χ̈ n̂_s` from the just-updated fluid acceleration potential.
//! (Earlier SPECFEM versions coupled through velocity and required care or
//! iteration; the displacement form is the improvement cited from Chaljub &
//! Valette.)

use specfem_mesh::{LocalMesh, MeshRegion};
use specfem_model::{CMB_RADIUS_M, ICB_RADIUS_M};

use crate::assemble::WaveFields;

/// One quadrature point of the fluid–solid interface: the local point id
/// and the fluid-outward normal scaled by `(face Jacobian · w_i · w_j)`.
#[derive(Debug, Clone, Copy)]
pub struct CouplingPoint {
    /// Local point id.
    pub point: u32,
    /// Outward-from-fluid weighted normal (m²).
    pub nw: [f32; 3],
}

/// All fluid–solid interface quadrature points of one rank (both CMB and
/// ICB), built from the *fluid* elements' boundary faces.
#[derive(Debug, Clone, Default)]
pub struct CouplingSurface {
    /// Quadrature points (a point shared by several faces appears once per
    /// face — contributions are additive quadrature pieces).
    pub points: Vec<CouplingPoint>,
}

impl CouplingSurface {
    /// Detect outer-core boundary faces and build the weighted normals.
    pub fn build(mesh: &LocalMesh) -> Self {
        let np = mesh.basis.npoints();
        let n3 = mesh.points_per_element();
        let h = &mesh.basis.hprime;
        let w = &mesh.basis.weights;
        let mut points = Vec::new();
        let tol = 10.0; // m — face-on-boundary detection
        for e in 0..mesh.nspec {
            if mesh.region[e] != MeshRegion::OuterCore {
                continue;
            }
            let nodes = mesh.element_nodes(e);
            let at = |i: usize, j: usize, k: usize| nodes[(k * np + j) * np + i];
            // Candidate faces: k = 0 (bottom, ICB) and k = np−1 (top, CMB).
            for (kface, target_r, outward_sign) in
                [(0usize, ICB_RADIUS_M, -1.0f64), (np - 1, CMB_RADIUS_M, 1.0)]
            {
                // The whole face must lie on the target radius.
                let on_boundary = (0..np).all(|j| {
                    (0..np).all(|i| {
                        let p = at(i, j, kface);
                        let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
                        (r - target_r).abs() < tol
                    })
                });
                if !on_boundary {
                    continue;
                }
                for j in 0..np {
                    for i in 0..np {
                        // Tangents ∂x/∂ξ and ∂x/∂η at the face point.
                        let mut tu = [0.0f64; 3];
                        let mut tv = [0.0f64; 3];
                        for m in 0..np {
                            let hi = h[i * np + m];
                            let hj = h[j * np + m];
                            let pu = at(m, j, kface);
                            let pv = at(i, m, kface);
                            for c in 0..3 {
                                tu[c] += hi * pu[c];
                                tv[c] += hj * pv[c];
                            }
                        }
                        // Cross product → area-weighted normal.
                        let mut n = [
                            tu[1] * tv[2] - tu[2] * tv[1],
                            tu[2] * tv[0] - tu[0] * tv[2],
                            tu[0] * tv[1] - tu[1] * tv[0],
                        ];
                        // Orient outward from the fluid: radially out at the
                        // CMB, radially in at the ICB.
                        let p = at(i, j, kface);
                        let dot = n[0] * p[0] + n[1] * p[1] + n[2] * p[2];
                        let sign = if dot * outward_sign >= 0.0 { 1.0 } else { -1.0 };
                        let ww = w[i] * w[j] * sign;
                        for c in &mut n {
                            *c *= ww;
                        }
                        points.push(CouplingPoint {
                            point: mesh.ibool[e * n3 + (kface * np + j) * np + i],
                            nw: [n[0] as f32, n[1] as f32, n[2] as f32],
                        });
                    }
                }
            }
        }
        Self { points }
    }

    /// Fluid side: `χ̈_rhs += ∮ w (u_s · n̂) dΓ` — call *before* the fluid
    /// halo assembly, using the predicted solid displacement (every lane).
    pub fn add_solid_displacement_to_fluid(&self, fields: &mut WaveFields) {
        let k = fields.k;
        for cp in &self.points {
            let o = cp.point as usize * 3 * k;
            let co = cp.point as usize * k;
            for lane in 0..k {
                let dot = fields.displ[o + lane] * cp.nw[0]
                    + fields.displ[o + k + lane] * cp.nw[1]
                    + fields.displ[o + 2 * k + lane] * cp.nw[2];
                fields.chi_ddot[co + lane] += dot;
            }
        }
    }

    /// Solid side: traction `χ̈ n̂_s = −χ̈ n̂_f` — call with the *final*
    /// fluid acceleration, before the solid halo assembly (every lane).
    pub fn add_fluid_pressure_to_solid(&self, fields: &mut WaveFields) {
        let k = fields.k;
        for cp in &self.points {
            let o = cp.point as usize * 3 * k;
            let co = cp.point as usize * k;
            for lane in 0..k {
                let chiddot = fields.chi_ddot[co + lane];
                fields.accel[o + lane] -= cp.nw[0] * chiddot;
                fields.accel[o + k + lane] -= cp.nw[1] * chiddot;
                fields.accel[o + 2 * k + lane] -= cp.nw[2] * chiddot;
            }
        }
    }

    /// Total (vector) of the weighted normals — ≈ 0 over the closed CMB+ICB
    /// surfaces; used as a mesh-quality check.
    pub fn normal_sum(&self) -> [f64; 3] {
        let mut s = [0.0f64; 3];
        for cp in &self.points {
            for c in 0..3 {
                s[c] += cp.nw[c] as f64;
            }
        }
        s
    }

    /// Total unsigned surface measure Σ|nw| (≈ area of CMB + ICB).
    pub fn total_area(&self) -> f64 {
        self.points
            .iter()
            .map(|cp| {
                let n = cp.nw;
                ((n[0] as f64).powi(2) + (n[1] as f64).powi(2) + (n[2] as f64).powi(2)).sqrt()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::Prem;

    fn serial_mesh() -> LocalMesh {
        let params = MeshParams::new(4, 1);
        let prem = Prem::isotropic_no_ocean();
        let gm = GlobalMesh::build(&params, &prem);
        Partition::serial(&gm).extract(&gm, 0)
    }

    #[test]
    fn coupling_surface_covers_cmb_and_icb_areas() {
        let mesh = serial_mesh();
        let surf = CouplingSurface::build(&mesh);
        assert!(!surf.points.is_empty());
        let area = surf.total_area();
        let expect = 4.0
            * std::f64::consts::PI
            * (CMB_RADIUS_M * CMB_RADIUS_M + ICB_RADIUS_M * ICB_RADIUS_M);
        let rel = (area - expect).abs() / expect;
        assert!(rel < 0.02, "area {area:.4e} vs {expect:.4e} (rel {rel})");
    }

    #[test]
    fn closed_surface_normals_sum_to_zero() {
        let mesh = serial_mesh();
        let surf = CouplingSurface::build(&mesh);
        let s = surf.normal_sum();
        let scale = surf.total_area();
        for c in s {
            assert!(c.abs() < 1e-6 * scale, "∮n dS = {s:?}");
        }
    }

    #[test]
    fn uniform_radial_displacement_pumps_fluid_with_correct_sign() {
        // u = r̂ everywhere: at the CMB (fluid outward = +r̂) u·n̂ > 0; at
        // the ICB (fluid outward = −r̂) u·n̂ < 0. Net: CMB area > ICB area
        // → total positive.
        let mesh = serial_mesh();
        let surf = CouplingSurface::build(&mesh);
        let mut fields = WaveFields::zeros(mesh.nglob);
        for (p, c) in mesh.coords.iter().enumerate() {
            let r = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
            if r > 0.0 {
                for d in 0..3 {
                    fields.displ[p * 3 + d] = (c[d] / r) as f32;
                }
            }
        }
        surf.add_solid_displacement_to_fluid(&mut fields);
        let total: f64 = fields.chi_ddot.iter().map(|&v| v as f64).sum();
        let cmb_area = 4.0 * std::f64::consts::PI * CMB_RADIUS_M * CMB_RADIUS_M;
        let icb_area = 4.0 * std::f64::consts::PI * ICB_RADIUS_M * ICB_RADIUS_M;
        let expect = cmb_area - icb_area;
        assert!(
            (total - expect).abs() < 0.02 * expect,
            "flux {total:.4e} vs {expect:.4e}"
        );
    }

    #[test]
    fn uniform_pressure_pushes_solid_inward_at_cmb() {
        // χ̈ = 1 (uniform "suction" p = −1): solid traction χ̈·n̂_s. At the
        // CMB n̂_s points into the fluid (−r̂): the mantle is pulled inward;
        // the reaction sum should be ≈ −(CMB area)·r̂ integrated = 0 by
        // symmetry, but each individual point force must be radial.
        let mesh = serial_mesh();
        let surf = CouplingSurface::build(&mesh);
        let mut fields = WaveFields::zeros(mesh.nglob);
        fields.chi_ddot.fill(1.0);
        surf.add_fluid_pressure_to_solid(&mut fields);
        // Global force balance by symmetry.
        let mut total = [0.0f64; 3];
        for p in 0..mesh.nglob {
            for c in 0..3 {
                total[c] += fields.accel[p * 3 + c] as f64;
            }
        }
        let scale = surf.total_area();
        for c in total {
            assert!(c.abs() < 1e-6 * scale);
        }
        // And the force at a CMB point is along −r̂ (inward for the solid).
        let cp = surf
            .points
            .iter()
            .max_by(|a, b| {
                let ra = norm(&mesh.coords[a.point as usize]);
                let rb = norm(&mesh.coords[b.point as usize]);
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        let p = cp.point as usize;
        let pos = mesh.coords[p];
        let dot = fields.accel[p * 3] as f64 * pos[0]
            + fields.accel[p * 3 + 1] as f64 * pos[1]
            + fields.accel[p * 3 + 2] as f64 * pos[2];
        assert!(dot < 0.0, "CMB traction must point inward, got dot {dot}");
    }

    fn norm(p: &[f64; 3]) -> f64 {
        (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt()
    }
}
