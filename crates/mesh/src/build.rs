//! Building the global mesh: geometry, global numbering, materials.
//!
//! The builder supports both material-assignment modes of paper §4.4-1:
//! the merged **one-pass** mode (properties assigned to each element right
//! after its creation) and the **legacy two-pass** mode in which the mesher
//! effectively runs twice — once for geometry and once more, regenerating
//! the geometry, to populate material properties. The two-pass mode exists
//! purely so the ~2× mesher slowdown the paper fixed can be measured.

use rayon::prelude::*;
use std::time::Instant;

use crate::cubed_sphere::{
    chunk_face_vector, cube_node, cube_surface_radius, lerp, tan_lattice, NCHUNKS,
};
use crate::layers::LayerPlan;
use crate::{MeshMode, MeshParams, MeshRegion, CUBE_HALF_WIDTH_M, CUBE_INFLATION};
use specfem_gll::GllBasis;
use specfem_model::{EarthModel, ICB_RADIUS_M};

/// Where an element lives in the structured decomposition — the partitioner
/// turns this into a rank id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementHome {
    /// Shell element: chunk id and lateral tile indices at the surface grid.
    Shell { chunk: u8, ix: u16, iy: u16 },
    /// Central-cube element: lattice indices.
    Cube { i: u16, j: u16, k: u16 },
}

/// Timing and size report of one mesher run.
#[derive(Debug, Clone, Default)]
pub struct MesherReport {
    /// Seconds spent generating element geometry.
    pub geometry_seconds: f64,
    /// Seconds spent assigning material properties.
    pub material_seconds: f64,
    /// Seconds spent on global numbering.
    pub numbering_seconds: f64,
    /// 1 for the merged mesher, 2 for the legacy mode.
    pub passes: u8,
    /// Elements per region (crust-mantle, outer core, inner core, cube).
    pub elements_per_region: [usize; 4],
}

/// The assembled global mesh.
#[derive(Debug, Clone)]
pub struct GlobalMesh {
    /// The parameters it was built with.
    pub params: MeshParams,
    /// GLL basis.
    pub basis: GllBasis,
    /// Number of spectral elements.
    pub nspec: usize,
    /// Number of distinct global points.
    pub nglob: usize,
    /// Local→global mapping: `ibool[e·n³ + (k·np + j)·np + i]`.
    pub ibool: Vec<u32>,
    /// Coordinates of global points (m).
    pub coords: Vec<[f64; 3]>,
    /// Region of each element.
    pub region: Vec<MeshRegion>,
    /// Structured home of each element (for partitioning).
    pub home: Vec<ElementHome>,
    /// Density at each GLL point of each element (kg/m³).
    pub rho: Vec<f32>,
    /// Bulk modulus κ (Pa).
    pub kappa: Vec<f32>,
    /// Shear modulus μ (Pa); zero in the fluid.
    pub mu: Vec<f32>,
    /// Shear quality factor at each GLL point (`f32::INFINITY` in fluid).
    pub qmu: Vec<f32>,
    /// The radial plan used.
    pub layer_plan: LayerPlan,
    /// Build report.
    pub report: MesherReport,
}

/// Description of one element before its nodes are generated.
#[derive(Debug, Clone, Copy)]
struct ElementSpec {
    home: ElementHome,
    region: MeshRegion,
    /// Radial bounds of the *shell* this element samples material from.
    mat_r_lo: f64,
    mat_r_hi: f64,
    /// Shell-element radial interpolation: fractions of the column span
    /// (inner-core shell) or absolute radii (spherical shells).
    radial: RadialSpan,
}

#[derive(Debug, Clone, Copy)]
enum RadialSpan {
    /// Spherical shell layer: absolute radii.
    Spherical { r0: f64, r1: f64 },
    /// Inner-core column layer: fractions between the cube surface (which
    /// varies laterally) and the ICB.
    Column { f0: f64, f1: f64 },
    /// Central-cube element: no radial span (fully 3-D lattice cell).
    Cube,
}

impl GlobalMesh {
    /// Number of GLL points per element.
    pub fn points_per_element(&self) -> usize {
        let np = self.basis.npoints();
        np * np * np
    }

    /// Build the global mesh for `params` over `model`.
    pub fn build(params: &MeshParams, model: &dyn EarthModel) -> GlobalMesh {
        let _span = specfem_obs::span("mesh.build");
        let basis = GllBasis::new(params.degree);
        let nex = params.nex_xi;
        let a = CUBE_HALF_WIDTH_M;
        let beta = CUBE_INFLATION;
        let radial_nex = params.radial_layer_nex.unwrap_or(nex);
        let (regional, r_base) = match params.mode {
            MeshMode::Global => (false, a),
            MeshMode::Regional { r_min } => (true, r_min),
        };
        let plan = LayerPlan::new(
            model,
            radial_nex,
            r_base,
            params.honor_minor_discontinuities,
        );
        let lattice = tan_lattice(nex);
        let np = basis.npoints();
        let n3 = np * np * np;
        // Reference abscissae as interpolation fractions in [0, 1].
        let frac: Vec<f64> = basis.points.iter().map(|&x| (x + 1.0) / 2.0).collect();

        if regional {
            assert!(
                plan.shells
                    .iter()
                    .all(|s| s.region == MeshRegion::CrustMantle),
                "regional meshes must stay in the solid mantle/crust"
            );
        }

        // ---- enumerate element specs -----------------------------------
        let span_enumerate = specfem_obs::span("mesh.enumerate");
        let mut specs: Vec<ElementSpec> = Vec::new();
        // Central cube (global mode only).
        for k in 0..if regional { 0 } else { nex } {
            for j in 0..nex {
                for i in 0..nex {
                    specs.push(ElementSpec {
                        home: ElementHome::Cube {
                            i: i as u16,
                            j: j as u16,
                            k: k as u16,
                        },
                        region: MeshRegion::CentralCube,
                        mat_r_lo: 0.0,
                        mat_r_hi: ICB_RADIUS_M,
                        radial: RadialSpan::Cube,
                    });
                }
            }
        }
        // Shells, bottom-up, chunk by chunk (regional: the +Z chunk only).
        let nchunks = if regional { 1 } else { NCHUNKS };
        for chunk in 0..nchunks {
            for shell in &plan.shells {
                let radii = shell.layer_radii();
                for l in 0..shell.n_layers {
                    let radial = if shell.region == MeshRegion::InnerCore {
                        RadialSpan::Column {
                            f0: l as f64 / shell.n_layers as f64,
                            f1: (l + 1) as f64 / shell.n_layers as f64,
                        }
                    } else {
                        RadialSpan::Spherical {
                            r0: radii[l],
                            r1: radii[l + 1],
                        }
                    };
                    let (mat_lo, mat_hi) = if shell.region == MeshRegion::InnerCore {
                        (0.0, ICB_RADIUS_M)
                    } else {
                        (shell.r_in, shell.r_out)
                    };
                    for iy in 0..nex {
                        for ix in 0..nex {
                            specs.push(ElementSpec {
                                home: ElementHome::Shell {
                                    chunk: chunk as u8,
                                    ix: ix as u16,
                                    iy: iy as u16,
                                },
                                region: shell.region,
                                mat_r_lo: mat_lo,
                                mat_r_hi: mat_hi,
                                radial,
                            });
                        }
                    }
                }
            }
        }
        let nspec = specs.len();
        assert!(
            u32::try_from(nspec).is_ok(),
            "mesh has {nspec} elements: element ids are 32-bit"
        );
        let mut report = MesherReport {
            passes: if params.legacy_two_pass_materials {
                2
            } else {
                1
            },
            ..Default::default()
        };
        for s in &specs {
            let slot = match s.region {
                MeshRegion::CrustMantle => 0,
                MeshRegion::OuterCore => 1,
                MeshRegion::InnerCore => 2,
                MeshRegion::CentralCube => 3,
            };
            report.elements_per_region[slot] += 1;
        }

        drop(span_enumerate);

        // ---- geometry pass ----------------------------------------------
        let span_geometry = specfem_obs::span("mesh.geometry");
        let gen_nodes = |spec: &ElementSpec, out: &mut Vec<[f64; 3]>| {
            element_nodes(spec, &lattice, &frac, a, beta, out)
        };
        let t0 = Instant::now();
        // One `nspec·n³` buffer, element after element.
        let mut all_nodes = Vec::with_capacity(nspec * n3);
        for spec in &specs {
            gen_nodes(spec, &mut all_nodes);
        }
        report.geometry_seconds = t0.elapsed().as_secs_f64();
        drop(span_geometry);

        // ---- material assignment ----------------------------------------
        let span_materials = specfem_obs::span("mesh.materials");
        let t0 = Instant::now();
        let materials: Vec<[Vec<f32>; 4]> = if params.legacy_two_pass_materials {
            // Legacy mode: the mesher runs again — geometry is regenerated
            // from scratch just to know where to sample the model (§4.4-1).
            specs
                .par_iter()
                .map(|spec| {
                    let mut nodes = Vec::with_capacity(n3);
                    gen_nodes(spec, &mut nodes);
                    assign_materials(spec, &nodes, model)
                })
                .collect()
        } else {
            specs
                .par_iter()
                .zip(all_nodes.chunks_exact(n3))
                .map(|(spec, nodes)| assign_materials(spec, nodes, model))
                .collect()
        };
        report.material_seconds = t0.elapsed().as_secs_f64();
        drop(span_materials);

        // ---- global numbering -------------------------------------------
        let span_numbering = specfem_obs::span("mesh.numbering");
        let t0 = Instant::now();
        // Tolerance far below the smallest GLL spacing: even a NEX=512 crust
        // layer has ~50 m spacing; roundoff differences are nanometres.
        let (ibool, coords) = crate::numbering::number_element_nodes(&all_nodes, np, 0.05);
        drop(all_nodes);
        let nglob = coords.len();
        report.numbering_seconds = t0.elapsed().as_secs_f64();
        drop(span_numbering);

        // ---- flatten materials ------------------------------------------
        let mut rho = Vec::with_capacity(nspec * n3);
        let mut kappa = Vec::with_capacity(nspec * n3);
        let mut mu = Vec::with_capacity(nspec * n3);
        let mut qmu = Vec::with_capacity(nspec * n3);
        for m in &materials {
            rho.extend_from_slice(&m[0]);
            kappa.extend_from_slice(&m[1]);
            mu.extend_from_slice(&m[2]);
            qmu.extend_from_slice(&m[3]);
        }

        GlobalMesh {
            params: params.clone(),
            basis,
            nspec,
            nglob,
            ibool,
            coords,
            region: specs.iter().map(|s| s.region).collect(),
            home: specs.iter().map(|s| s.home).collect(),
            rho,
            kappa,
            mu,
            qmu,
            layer_plan: plan,
            report,
        }
    }

    /// Nodal coordinates of element `e` (n³ points, `i` fastest).
    pub fn element_nodes(&self, e: usize) -> Vec<[f64; 3]> {
        let n3 = self.points_per_element();
        self.ibool[e * n3..(e + 1) * n3]
            .iter()
            .map(|&g| self.coords[g as usize])
            .collect()
    }

    /// Expected element count for the structured decomposition:
    /// `6·NEX²·Σlayers + NEX³` for the globe, `NEX²·Σlayers` regionally.
    pub fn expected_nspec(params: &MeshParams, plan: &LayerPlan) -> usize {
        match params.mode {
            MeshMode::Global => {
                6 * params.nex_xi * params.nex_xi * plan.total_layers()
                    + params.nex_xi * params.nex_xi * params.nex_xi
            }
            MeshMode::Regional { .. } => params.nex_xi * params.nex_xi * plan.total_layers(),
        }
    }
}

/// A point on the ray through unnormalized direction `c` at radius `r`.
#[inline]
fn ray_point(c: [f64; 3], r: f64) -> [f64; 3] {
    let norm = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
    [r * c[0] / norm, r * c[1] / norm, r * c[2] / norm]
}

/// Append the GLL nodal coordinates of one element to `out`.
fn element_nodes(
    spec: &ElementSpec,
    lattice: &[f64],
    frac: &[f64],
    a: f64,
    beta: f64,
    out: &mut Vec<[f64; 3]>,
) {
    let np = frac.len();
    match (spec.home, spec.radial) {
        (ElementHome::Cube { i, j, k }, RadialSpan::Cube) => {
            let (i, j, k) = (i as usize, j as usize, k as usize);
            for &tk in frac.iter().take(np) {
                let cz = lerp(lattice[k], lattice[k + 1], tk);
                for &tj in frac.iter().take(np) {
                    let cy = lerp(lattice[j], lattice[j + 1], tj);
                    for &ti in frac.iter().take(np) {
                        let cx = lerp(lattice[i], lattice[i + 1], ti);
                        out.push(cube_node([cx, cy, cz], a, beta));
                    }
                }
            }
        }
        (ElementHome::Shell { chunk, ix, iy }, radial) => {
            let (ix, iy) = (ix as usize, iy as usize);
            for &tk in frac.iter().take(np) {
                for &tj in frac.iter().take(np) {
                    let v = lerp(lattice[iy], lattice[iy + 1], tj);
                    for &ti in frac.iter().take(np) {
                        let u = lerp(lattice[ix], lattice[ix + 1], ti);
                        let c = chunk_face_vector(chunk as usize, u, v);
                        let r = match radial {
                            RadialSpan::Spherical { r0, r1 } => lerp(r0, r1, tk),
                            RadialSpan::Column { f0, f1 } => {
                                let r_bot = cube_surface_radius(c, a, beta);
                                lerp(
                                    lerp(r_bot, ICB_RADIUS_M, f0),
                                    lerp(r_bot, ICB_RADIUS_M, f1),
                                    tk,
                                )
                            }
                            RadialSpan::Cube => unreachable!("shell element with cube span"),
                        };
                        out.push(ray_point(c, r));
                    }
                }
            }
        }
        _ => unreachable!("inconsistent element spec"),
    }
}

/// Sample the model at every GLL point of one element, staying on the
/// element's own side of material discontinuities.
fn assign_materials(
    spec: &ElementSpec,
    nodes: &[[f64; 3]],
    model: &dyn EarthModel,
) -> [Vec<f32>; 4] {
    let n = nodes.len();
    let mut rho = Vec::with_capacity(n);
    let mut kappa = Vec::with_capacity(n);
    let mut mu = Vec::with_capacity(n);
    let mut qmu = Vec::with_capacity(n);
    let tiny = 1e-3; // metres
                     // Boundary points are pulled 1 cm *into* the shell before sampling:
                     // the model polynomials are continuous inside a region (error ~1e-9
                     // relative), and the recomputed radius of the scaled position can then
                     // never round across the discontinuity.
    let inset = 0.01;
    for p in nodes {
        let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        let r_s = if r >= spec.mat_r_hi - tiny {
            spec.mat_r_hi - inset
        } else if r <= spec.mat_r_lo + tiny {
            spec.mat_r_lo + inset
        } else {
            r
        };
        // Sample at the clamped radius along the same ray, preserving the
        // lateral position for 3-D models.
        let m = if r > tiny {
            let s = r_s / r;
            model.material_at_point([p[0] * s, p[1] * s, p[2] * s], false)
        } else {
            model.material_at(r_s, false)
        };
        rho.push(m.rho as f32);
        kappa.push(m.kappa() as f32);
        mu.push(m.mu() as f32);
        qmu.push(m.q_mu as f32);
    }
    [rho, kappa, mu, qmu]
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_model::{Prem, CMB_RADIUS_M, EARTH_RADIUS_M};

    fn small_mesh() -> GlobalMesh {
        let params = MeshParams::new(4, 2);
        let prem = Prem::isotropic_no_ocean();
        GlobalMesh::build(&params, &prem)
    }

    #[test]
    fn element_count_matches_structured_formula() {
        let mesh = small_mesh();
        let expect = GlobalMesh::expected_nspec(&mesh.params, &mesh.layer_plan);
        assert_eq!(mesh.nspec, expect);
        assert_eq!(mesh.region.len(), mesh.nspec);
        assert_eq!(mesh.ibool.len(), mesh.nspec * mesh.points_per_element());
    }

    #[test]
    fn global_numbering_shares_points_between_elements() {
        let mesh = small_mesh();
        // A conforming mesh has far fewer global points than local points.
        let nloc = mesh.nspec * mesh.points_per_element();
        assert!(mesh.nglob < nloc, "nglob {} !< nloc {nloc}", mesh.nglob);
        // For degree 4 conforming hexahedral meshes the ratio is ~0.52-0.75.
        let ratio = mesh.nglob as f64 / nloc as f64;
        assert!(ratio > 0.4 && ratio < 0.8, "suspicious ratio {ratio}");
    }

    #[test]
    fn all_points_inside_earth_and_cover_surface_and_center() {
        let mesh = small_mesh();
        let mut r_max: f64 = 0.0;
        let mut r_min = f64::INFINITY;
        for p in &mesh.coords {
            let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            r_max = r_max.max(r);
            r_min = r_min.min(r);
        }
        assert!(r_max <= EARTH_RADIUS_M * (1.0 + 1e-9));
        assert!((r_max - EARTH_RADIUS_M).abs() < 1.0, "surface not meshed");
        assert!(r_min < 1.0, "cube centre missing (r_min = {r_min})");
    }

    #[test]
    fn fluid_elements_have_zero_shear_solid_nonzero() {
        let mesh = small_mesh();
        let n3 = mesh.points_per_element();
        for e in 0..mesh.nspec {
            let is_fluid = mesh.region[e].is_fluid();
            for idx in e * n3..(e + 1) * n3 {
                if is_fluid {
                    assert_eq!(mesh.mu[idx], 0.0, "fluid with shear at elem {e}");
                } else {
                    assert!(mesh.mu[idx] > 0.0, "solid without shear at elem {e}");
                }
                assert!(mesh.rho[idx] > 0.0);
                assert!(mesh.kappa[idx] > 0.0);
            }
        }
    }

    #[test]
    fn material_sides_respect_cmb_discontinuity() {
        // GLL points exactly on the CMB belong to both an outer-core element
        // (fluid side) and a mantle element (solid side) and must carry the
        // correct one-sided material in each.
        let mesh = small_mesh();
        let n3 = mesh.points_per_element();
        let mut fluid_side = Vec::new();
        let mut solid_side = Vec::new();
        for e in 0..mesh.nspec {
            for l in 0..n3 {
                let g = mesh.ibool[e * n3 + l] as usize;
                let p = mesh.coords[g];
                let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
                if (r - CMB_RADIUS_M).abs() < 1.0 {
                    match mesh.region[e] {
                        MeshRegion::OuterCore => fluid_side.push(mesh.rho[e * n3 + l]),
                        MeshRegion::CrustMantle => solid_side.push(mesh.rho[e * n3 + l]),
                        _ => {}
                    }
                }
            }
        }
        assert!(!fluid_side.is_empty() && !solid_side.is_empty());
        for &rho in &fluid_side {
            assert!((rho - 9903.4).abs() < 50.0, "fluid-side rho {rho}");
        }
        for &rho in &solid_side {
            assert!((rho - 5566.5).abs() < 50.0, "solid-side rho {rho}");
        }
    }

    #[test]
    fn all_elements_have_positive_jacobian() {
        let mesh = small_mesh();
        for e in 0..mesh.nspec {
            let nodes = mesh.element_nodes(e);
            crate::geometry::ElementGeometry::compute(&mesh.basis, &nodes)
                .unwrap_or_else(|err| panic!("element {e} ({:?}): {err}", mesh.region[e]));
        }
    }

    #[test]
    fn mesh_volume_matches_sphere() {
        let mesh = small_mesh();
        let np = mesh.basis.npoints();
        let mut vol = 0.0f64;
        for e in 0..mesh.nspec {
            let nodes = mesh.element_nodes(e);
            let g = crate::geometry::ElementGeometry::compute(&mesh.basis, &nodes).unwrap();
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let w =
                            mesh.basis.weights[i] * mesh.basis.weights[j] * mesh.basis.weights[k];
                        vol += w * g.jacobian[(k * np + j) * np + i] as f64;
                    }
                }
            }
        }
        let exact = 4.0 / 3.0 * std::f64::consts::PI * EARTH_RADIUS_M.powi(3);
        let rel = (vol - exact).abs() / exact;
        // NEX=4 is a very coarse sphere; a percent-level error is expected,
        // but anything larger means holes or overlaps.
        assert!(rel < 0.02, "volume error {rel}");
    }

    #[test]
    fn two_pass_matches_one_pass_materials_but_is_slower() {
        let prem = Prem::isotropic_no_ocean();
        let mut p1 = MeshParams::new(4, 2);
        p1.legacy_two_pass_materials = false;
        let mut p2 = p1.clone();
        p2.legacy_two_pass_materials = true;
        let m1 = GlobalMesh::build(&p1, &prem);
        let m2 = GlobalMesh::build(&p2, &prem);
        assert_eq!(m1.rho, m2.rho);
        assert_eq!(m1.mu, m2.mu);
        assert_eq!(m1.report.passes, 1);
        assert_eq!(m2.report.passes, 2);
    }
}
