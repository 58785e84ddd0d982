//! Absorbing boundary conditions for regional simulations.
//!
//! Paper Figure 1: "An artificial absorbing boundary Γ is introduced if
//! the physical model is not of finite size." Regional (single-chunk)
//! meshes truncate the Earth at the chunk sides and at depth; the classic
//! first-order Stacey condition absorbs outgoing waves there by applying
//! the traction `t = −ρ [v_p (v·n̂) n̂ + v_s (v − (v·n̂) n̂)]` on the
//! artificial surface.
//!
//! Boundary faces are detected *topologically*: an element face is on the
//! domain boundary iff its interior points belong to exactly one element
//! and to no inter-rank interface. The free surface (points at the model's
//! outer radius) is excluded — a free surface is the natural boundary
//! condition of the weak form and needs no term.

use specfem_mesh::LocalMesh;

use crate::assemble::WaveFields;

/// One absorbing-boundary quadrature point.
#[derive(Debug, Clone, Copy)]
pub struct AbsorbingPoint {
    /// Local point id.
    pub point: u32,
    /// Outward unit normal.
    pub normal: [f32; 3],
    /// Face Jacobian × quadrature weight (m²).
    pub weight: f32,
    /// ρ·v_p at the point (kg·m⁻²·s⁻¹).
    pub rho_vp: f32,
    /// ρ·v_s at the point.
    pub rho_vs: f32,
}

/// All absorbing quadrature points of one rank.
#[derive(Debug, Clone, Default)]
pub struct AbsorbingSurface {
    /// Quadrature points (shared edge points appear once per face).
    pub points: Vec<AbsorbingPoint>,
}

/// The six faces of the reference cube: (fixed index, fixed value,
/// outward sign of the corresponding reference direction).
const FACES: [(usize, usize); 6] = [
    (0, 0), // ξ = −1
    (0, 1), // ξ = +1
    (1, 0), // η = −1
    (1, 1), // η = +1
    (2, 0), // γ = −1
    (2, 1), // γ = +1
];

impl AbsorbingSurface {
    /// Detect artificial-boundary faces of `mesh` and build the Stacey
    /// quadrature table. `surface_radius` identifies the free surface to
    /// exclude (pass the model's outer radius).
    pub fn build(mesh: &LocalMesh, surface_radius: f64) -> Self {
        let np = mesh.basis.npoints();
        let n3 = mesh.points_per_element();
        let h = &mesh.basis.hprime;
        let w = &mesh.basis.weights;

        // How many elements reference each local point, and whether the
        // point sits on an inter-rank interface.
        let mut refs = vec![0u8; mesh.nglob];
        for e in 0..mesh.nspec {
            let mut seen: Vec<u32> = mesh.ibool[e * n3..(e + 1) * n3].to_vec();
            seen.sort_unstable();
            seen.dedup();
            for p in seen {
                refs[p as usize] = refs[p as usize].saturating_add(1);
            }
        }
        let mut in_halo = vec![false; mesh.nglob];
        for n in &mesh.halo.neighbors {
            for &p in &n.points {
                in_halo[p as usize] = true;
            }
        }

        let face_point = |i: usize, j: usize, fixed: usize, side: usize| -> (usize, usize, usize) {
            let v = if side == 0 { 0 } else { np - 1 };
            match fixed {
                0 => (v, i, j),
                1 => (i, v, j),
                _ => (i, j, v),
            }
        };

        let mut points = Vec::new();
        for e in 0..mesh.nspec {
            let nodes = mesh.element_nodes(e);
            let at = |i: usize, j: usize, k: usize| nodes[(k * np + j) * np + i];
            for &(fixed, side) in &FACES {
                // Face-interior witness point: if it belongs to exactly one
                // element and no halo, the face is a true domain boundary.
                let (wi, wj, wk) = face_point(np / 2, np / 2, fixed, side);
                let witness = mesh.ibool[e * n3 + (wk * np + wj) * np + wi] as usize;
                if refs[witness] != 1 || in_halo[witness] {
                    continue;
                }
                // Exclude the free surface.
                let wp = at(wi, wj, wk);
                let wr = (wp[0] * wp[0] + wp[1] * wp[1] + wp[2] * wp[2]).sqrt();
                if (wr - surface_radius).abs() < 1.0e3 {
                    continue;
                }
                // Quadrature points of the face.
                for j in 0..np {
                    for i in 0..np {
                        let (pi, pj, pk) = face_point(i, j, fixed, side);
                        // Tangents along the two in-face reference
                        // directions (ξ-derivatives sum over the i index,
                        // η over j, γ over k).
                        let mut t1 = [0.0f64; 3];
                        let mut t2 = [0.0f64; 3];
                        for m in 0..np {
                            let (pa, h1, pb, h2) = match fixed {
                                // ξ fixed → tangents ∂x/∂η and ∂x/∂γ.
                                0 => (at(pi, m, pk), h[pj * np + m], at(pi, pj, m), h[pk * np + m]),
                                // η fixed → ∂x/∂ξ and ∂x/∂γ.
                                1 => (at(m, pj, pk), h[pi * np + m], at(pi, pj, m), h[pk * np + m]),
                                // γ fixed → ∂x/∂ξ and ∂x/∂η.
                                _ => (at(m, pj, pk), h[pi * np + m], at(pi, m, pk), h[pj * np + m]),
                            };
                            for c in 0..3 {
                                t1[c] += h1 * pa[c];
                                t2[c] += h2 * pb[c];
                            }
                        }
                        let mut n = [
                            t1[1] * t2[2] - t1[2] * t2[1],
                            t1[2] * t2[0] - t1[0] * t2[2],
                            t1[0] * t2[1] - t1[1] * t2[0],
                        ];
                        let area = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                        if area == 0.0 {
                            continue;
                        }
                        for c in &mut n {
                            *c /= area;
                        }
                        // Orient outward: away from the element centre.
                        let centre = at(np / 2, np / 2, np / 2);
                        let fp = at(pi, pj, pk);
                        let dir = [fp[0] - centre[0], fp[1] - centre[1], fp[2] - centre[2]];
                        if n[0] * dir[0] + n[1] * dir[1] + n[2] * dir[2] < 0.0 {
                            for c in &mut n {
                                *c = -*c;
                            }
                        }
                        let (qi, qj) = (i, j);
                        let weight = (w[qi] * w[qj]) * area;
                        let idx = e * n3 + (pk * np + pj) * np + pi;
                        let rho = mesh.rho[idx];
                        let vp = ((mesh.kappa[idx] + 4.0 / 3.0 * mesh.mu[idx]) / rho).sqrt();
                        let vs = (mesh.mu[idx] / rho).sqrt();
                        points.push(AbsorbingPoint {
                            point: mesh.ibool[idx],
                            normal: [n[0] as f32, n[1] as f32, n[2] as f32],
                            weight: weight as f32,
                            rho_vp: rho * vp,
                            rho_vs: rho * vs,
                        });
                    }
                }
            }
        }
        Self { points }
    }

    /// Apply the Stacey traction using the current (predicted) velocity:
    /// `accel −= w·ρ[v_p (v·n̂)n̂ + v_s v_t]`, on every lane.
    pub fn apply(&self, fields: &mut WaveFields) {
        let k = fields.k;
        for ap in &self.points {
            let o = ap.point as usize * 3 * k;
            for lane in 0..k {
                let v = [
                    fields.veloc[o + lane],
                    fields.veloc[o + k + lane],
                    fields.veloc[o + 2 * k + lane],
                ];
                let vn = v[0] * ap.normal[0] + v[1] * ap.normal[1] + v[2] * ap.normal[2];
                for c in 0..3 {
                    let vt = v[c] - vn * ap.normal[c];
                    let traction = ap.rho_vp * vn * ap.normal[c] + ap.rho_vs * vt;
                    fields.accel[o + c * k + lane] -= ap.weight * traction;
                }
            }
        }
    }

    /// Total absorbing area (m²) — diagnostics.
    pub fn total_area(&self) -> f64 {
        self.points.iter().map(|p| p.weight as f64).sum()
    }

    /// True when the mesh has no artificial boundary (global runs).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All boundary faces *including* the free surface (pass-through
    /// builder used by the ocean-load setup, which needs the free-surface
    /// quadrature weights and normals).
    pub fn build_including_free_surface(mesh: &LocalMesh) -> Self {
        // An excluded-surface radius no real point matches.
        Self::build(mesh, f64::MIN)
    }
}
