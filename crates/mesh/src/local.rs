//! The per-rank mesh slice the solver runs on.

use specfem_comm::HaloPlan;
use specfem_gll::GllBasis;

use crate::geometry::{min_gll_spacing, ElementGeometry, QualityReport, COURANT};
use crate::MeshRegion;

/// Everything one rank needs: its elements, local numbering, materials and
/// the halo plan describing shared points with neighbouring ranks.
#[derive(Debug, Clone)]
pub struct LocalMesh {
    /// Owning rank.
    pub rank: usize,
    /// GLL basis (copied; small).
    pub basis: GllBasis,
    /// Number of local elements.
    pub nspec: usize,
    /// Number of *outer* elements — elements touching at least one halo
    /// (inter-rank shared) point. The extraction orders outer elements
    /// first, so `0..nspec_outer` are outer and `nspec_outer..nspec` are
    /// inner; the solver uses the split to overlap halo communication with
    /// inner-element computation.
    pub nspec_outer: usize,
    /// Number of local points.
    pub nglob: usize,
    /// Local connectivity: `ibool[e·n³ + …] → local point id`.
    pub ibool: Vec<u32>,
    /// Local point coordinates (m).
    pub coords: Vec<[f64; 3]>,
    /// Local point id → global point id (diagnostics and tests).
    pub global_ids: Vec<u32>,
    /// Region per local element.
    pub region: Vec<MeshRegion>,
    /// Global element id per local element (diagnostics and tests).
    pub element_global: Vec<u32>,
    /// Density per GLL point (kg/m³).
    pub rho: Vec<f32>,
    /// Bulk modulus per GLL point (Pa).
    pub kappa: Vec<f32>,
    /// Shear modulus per GLL point (Pa).
    pub mu: Vec<f32>,
    /// Shear quality factor per GLL point.
    pub qmu: Vec<f32>,
    /// Communication plan for assembly.
    pub halo: HaloPlan,
}

impl LocalMesh {
    /// GLL points per element.
    pub fn points_per_element(&self) -> usize {
        let np = self.basis.npoints();
        np * np * np
    }

    /// The outer elements (touch a halo point) — computed *before* posting
    /// the halo exchange.
    pub fn outer_elements(&self) -> std::ops::Range<usize> {
        0..self.nspec_outer
    }

    /// The inner elements (touch no halo point) — computable while halo
    /// messages are in flight.
    pub fn inner_elements(&self) -> std::ops::Range<usize> {
        self.nspec_outer..self.nspec
    }

    /// Nodal coordinates of local element `e`.
    pub fn element_nodes(&self, e: usize) -> Vec<[f64; 3]> {
        let n3 = self.points_per_element();
        self.ibool[e * n3..(e + 1) * n3]
            .iter()
            .map(|&l| self.coords[l as usize])
            .collect()
    }

    /// Metric terms of local element `e`.
    pub fn element_geometry(&self, e: usize) -> ElementGeometry {
        ElementGeometry::compute(&self.basis, &self.element_nodes(e))
            .unwrap_or_else(|err| panic!("rank {} element {e}: {err}", self.rank))
    }

    /// Stability / resolution report over this rank's elements.
    ///
    /// `dt` from the Courant condition on the local P speed; shortest
    /// resolved period from the 5-points-per-wavelength rule on the local
    /// S speed (P speed in the fluid), paper §3.
    pub fn quality(&self) -> QualityReport {
        let np = self.basis.npoints();
        let n3 = self.points_per_element();
        let mut rep = QualityReport::default();
        for e in 0..self.nspec {
            let nodes = self.element_nodes(e);
            let hmin = min_gll_spacing(&self.basis, &nodes);
            // Average GLL spacing (element size / degree) for resolution.
            let mut hmax: f64 = 0.0;
            let at = |i: usize, j: usize, k: usize| nodes[(k * np + j) * np + i];
            let d = |a: [f64; 3], b: [f64; 3]| {
                ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
            };
            // Element edge lengths along the three directions.
            hmax = hmax.max(d(at(0, 0, 0), at(np - 1, 0, 0)));
            hmax = hmax.max(d(at(0, 0, 0), at(0, np - 1, 0)));
            hmax = hmax.max(d(at(0, 0, 0), at(0, 0, np - 1)));

            let mut vp_max = 0.0f64;
            let mut v_res_min = f64::INFINITY;
            for l in 0..n3 {
                let idx = e * n3 + l;
                let rho = self.rho[idx] as f64;
                let kap = self.kappa[idx] as f64;
                let mu = self.mu[idx] as f64;
                let vp = ((kap + 4.0 / 3.0 * mu) / rho).sqrt();
                let vs = (mu / rho).sqrt();
                vp_max = vp_max.max(vp);
                // Resolution is governed by the slowest wave present: S in
                // solids, P in the fluid.
                let v = if mu > 0.0 { vs } else { vp };
                v_res_min = v_res_min.min(v);
            }
            let dt = COURANT * hmin / vp_max;
            // 5 points per wavelength; one element of degree N spans N
            // average spacings, so λ_min = 5 · (element size / degree).
            let period = 5.0 * (hmax / self.basis.degree as f64) / v_res_min;

            let er = QualityReport {
                min_spacing_m: hmin,
                max_spacing_m: hmax,
                dt_stable_s: dt,
                shortest_period_s: period,
            };
            rep = if e == 0 { er } else { rep.merge(&er) };
        }
        rep
    }
}
