//! Radial layering: how many element layers each spherical shell gets and
//! at which radii the layer boundaries sit.
//!
//! Element boundaries are forced onto the model's first-order
//! discontinuities so material jumps never fall inside an element (mesh
//! "adapted to the main geological interfaces", paper Figure 2). Within a
//! shell, layers subdivide uniformly, with the layer count chosen to keep
//! element radial thickness comparable to the lateral element size at that
//! depth.

use crate::MeshRegion;
use specfem_model::{EarthModel, CMB_RADIUS_M, ICB_RADIUS_M, MOHO_RADIUS_M, R670_M};

/// One spherical shell between consecutive honoured discontinuities.
#[derive(Debug, Clone)]
pub struct Shell {
    /// Inner radius (m). For the innermost (inner-core) shell this is the
    /// nominal cube surface radius; actual element bottoms follow the cube.
    pub r_in: f64,
    /// Outer radius (m).
    pub r_out: f64,
    /// Region the shell belongs to.
    pub region: MeshRegion,
    /// Number of element layers in the shell.
    pub n_layers: usize,
}

impl Shell {
    /// Radii of the layer boundaries, ascending, `n_layers + 1` values.
    pub fn layer_radii(&self) -> Vec<f64> {
        (0..=self.n_layers)
            .map(|i| {
                crate::cubed_sphere::lerp(self.r_in, self.r_out, i as f64 / self.n_layers as f64)
            })
            .collect()
    }
}

/// The full radial plan: shells bottom-up from the cube surface.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Shells, ascending radius; `shells[0]` is the inner-core shell that
    /// starts at the central cube surface.
    pub shells: Vec<Shell>,
    /// Central-cube half width (m).
    pub cube_half_width: f64,
}

impl LayerPlan {
    /// Build the plan.
    ///
    /// `nex_xi` controls the lateral resolution that radial layer counts
    /// aim to match. When `honor_minor` is false only ICB/CMB/670/Moho are
    /// honoured (low-resolution meshes would otherwise get sliver layers).
    pub fn new(
        model: &dyn EarthModel,
        nex_xi: usize,
        cube_half_width: f64,
        honor_minor: bool,
    ) -> Self {
        let surface = model.surface_radius();
        let major = [ICB_RADIUS_M, CMB_RADIUS_M, R670_M, MOHO_RADIUS_M];
        let mut bounds: Vec<f64> = model
            .discontinuities()
            .into_iter()
            .filter(|r| honor_minor || major.iter().any(|m| (m - r).abs() < 1.0))
            .collect();
        bounds.push(surface);
        bounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bounds.dedup_by(|a, b| (*a - *b).abs() < 1.0);

        // Lateral angular size of one element at the surface of a chunk.
        let dxi = std::f64::consts::FRAC_PI_2 / nex_xi as f64;

        let mut shells = Vec::new();
        // Innermost shell: cube surface → first boundary (ICB).
        let mut r_prev = cube_half_width;
        for &r in &bounds {
            let thickness = r - r_prev;
            if thickness < 1.0 {
                continue;
            }
            let r_mid = 0.5 * (r + r_prev);
            let target_dr = (dxi * r_mid).max(1.0);
            let n_layers = ((thickness / target_dr).round() as usize).max(1);
            let region = classify_shell(model, r_prev, r);
            shells.push(Shell {
                r_in: r_prev,
                r_out: r,
                region,
                n_layers,
            });
            r_prev = r;
        }
        Self {
            shells,
            cube_half_width,
        }
    }

    /// Total number of radial element layers over all shells.
    pub fn total_layers(&self) -> usize {
        self.shells.iter().map(|s| s.n_layers).sum()
    }
}

fn classify_shell(model: &dyn EarthModel, r_in: f64, r_out: f64) -> MeshRegion {
    let r_mid = 0.5 * (r_in + r_out);
    if model.is_fluid_shell(r_in, r_out) {
        MeshRegion::OuterCore
    } else if r_mid < ICB_RADIUS_M {
        MeshRegion::InnerCore
    } else {
        MeshRegion::CrustMantle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_model::Prem;

    #[test]
    fn major_boundaries_always_honoured() {
        let prem = Prem::isotropic_no_ocean();
        let plan = LayerPlan::new(&prem, 8, 550_000.0, false);
        let radii: Vec<f64> = plan.shells.iter().map(|s| s.r_out).collect();
        for &must in &[ICB_RADIUS_M, CMB_RADIUS_M, R670_M, MOHO_RADIUS_M] {
            assert!(
                radii.iter().any(|&r| (r - must).abs() < 1.0),
                "missing {must}"
            );
        }
    }

    #[test]
    fn minor_boundaries_only_at_high_resolution() {
        let prem = Prem::isotropic_no_ocean();
        let coarse = LayerPlan::new(&prem, 8, 550_000.0, false);
        let fine = LayerPlan::new(&prem, 8, 550_000.0, true);
        assert!(fine.shells.len() > coarse.shells.len());
        // e.g. the 400-km discontinuity only in the fine plan
        let has_400 = |p: &LayerPlan| p.shells.iter().any(|s| (s.r_out - 5_971_000.0).abs() < 1.0);
        assert!(!has_400(&coarse));
        assert!(has_400(&fine));
    }

    #[test]
    fn regions_are_classified_correctly() {
        let prem = Prem::isotropic_no_ocean();
        let plan = LayerPlan::new(&prem, 8, 550_000.0, false);
        assert_eq!(plan.shells[0].region, MeshRegion::InnerCore);
        let oc: Vec<_> = plan
            .shells
            .iter()
            .filter(|s| s.region == MeshRegion::OuterCore)
            .collect();
        assert_eq!(oc.len(), 1);
        assert!((oc[0].r_in - ICB_RADIUS_M).abs() < 1.0);
        assert!((oc[0].r_out - CMB_RADIUS_M).abs() < 1.0);
        assert_eq!(plan.shells.last().unwrap().region, MeshRegion::CrustMantle);
    }

    #[test]
    fn layer_counts_scale_with_resolution() {
        let prem = Prem::isotropic_no_ocean();
        let lo = LayerPlan::new(&prem, 8, 550_000.0, false);
        let hi = LayerPlan::new(&prem, 32, 550_000.0, false);
        assert!(hi.total_layers() > 2 * lo.total_layers());
    }

    #[test]
    fn shells_are_contiguous_ascending() {
        let prem = Prem::isotropic_no_ocean();
        let plan = LayerPlan::new(&prem, 16, 550_000.0, true);
        let mut prev = plan.cube_half_width;
        for s in &plan.shells {
            assert!((s.r_in - prev).abs() < 1.0);
            assert!(s.r_out > s.r_in);
            assert!(s.n_layers >= 1);
            prev = s.r_out;
        }
        assert!((prev - prem.surface_radius()).abs() < 1.0);
    }

    #[test]
    fn layer_radii_hit_shell_bounds_exactly() {
        let s = Shell {
            r_in: 1000.0,
            r_out: 2000.0,
            region: MeshRegion::CrustMantle,
            n_layers: 4,
        };
        let r = s.layer_radii();
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], 1000.0);
        assert_eq!(r[4], 2000.0);
        for w in r.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
