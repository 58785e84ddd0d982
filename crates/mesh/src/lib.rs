//! The mesher — the `meshfem3D` analog (paper §3).
//!
//! Generates the cubed-sphere spectral-element mesh of the whole globe:
//! six gnomonic chunks from the surface down to a central cube in the inner
//! core, radial element boundaries honouring the Earth model's first-order
//! discontinuities (ICB, CMB, 670, Moho), global point numbering, material
//! assignment, reverse Cuthill-McKee element sorting (§4.2), partitioning of
//! the chunks into `6 × NPROC_XI²` slices with the central cube cut in two
//! (§1), halo communication lists, and seismic-station location (§4.4).
//!
//! Deviations from production SPECFEM3D_GLOBE are documented in DESIGN.md:
//! the mesh is radially conforming (no lateral doubling bricks) and the
//! global mesh is built once then partitioned, which makes the halo lists
//! correct by construction.

pub mod build;
pub mod cubed_sphere;
pub mod fingerprint;
pub mod geometry;
pub mod layers;
pub mod local;
pub mod lts;
pub mod numbering;
pub mod partition;
pub mod report;
pub mod stations;

pub use build::{GlobalMesh, MesherReport};
pub use cubed_sphere::{chunk_direction, cube_node, tan_lattice, NCHUNKS};
pub use fingerprint::{content_hash, estimated_mesh_bytes, MeshContentHash, MeshKey};
pub use geometry::{ElementGeometry, QualityReport};
pub use layers::{LayerPlan, Shell};
pub use local::LocalMesh;
pub use lts::{element_dts, global_element_dts, LtsClusters, MAX_LTS_RATE};
pub use numbering::ElementOrder;
pub use partition::Partition;
pub use stations::{locate_station_exact, locate_station_nearest, Station, StationLocation};

/// Which physical region an element belongs to. Mirrors SPECFEM's
/// crust_mantle / outer_core / inner_core regions, with the central cube
/// tracked separately because it is partitioned differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshRegion {
    /// Solid mantle + crust (CMB to surface).
    CrustMantle,
    /// Fluid outer core (ICB to CMB).
    OuterCore,
    /// Solid inner core between the central cube and the ICB.
    InnerCore,
    /// The central cube at the centre of the inner core.
    CentralCube,
}

impl MeshRegion {
    /// Whether the region is fluid (scalar-potential unknowns).
    pub fn is_fluid(self) -> bool {
        matches!(self, MeshRegion::OuterCore)
    }

    /// Whether the region is part of the solid inner core.
    pub fn is_inner_core(self) -> bool {
        matches!(self, MeshRegion::InnerCore | MeshRegion::CentralCube)
    }
}

/// Whole-globe or single-chunk regional meshing (paper §3: "the mesher is
/// designed to generate a spectral-element mesh for either regional or
/// entire globe simulations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeshMode {
    /// Six chunks + central cube: the full globe.
    Global,
    /// One chunk (the +Z chunk) from `r_min` to the surface; the four
    /// chunk sides and the bottom become artificial absorbing boundaries.
    /// `r_min` must not descend into the fluid outer core
    /// (≥ `specfem_model::CMB_RADIUS_M`).
    Regional {
        /// Inner radius of the regional model (m).
        r_min: f64,
    },
}

/// Central-cube inflation factor β ∈ [0, 1): 0 = flat-faced "real" cube,
/// →1 = fully inflated (spherical) cube boundary. The paper credits the
/// inflated cube with better inner-core resolution [7]. β = 1 with a
/// straight cube lattice folds the eight corner elements (negative
/// Jacobians); β ≤ 0.8 is safe.
pub(crate) const CUBE_INFLATION: f64 = 0.75;

/// Central-cube half-width (m): 0.45 of the ICB radius.
pub(crate) const CUBE_HALF_WIDTH_M: f64 = 0.45 * specfem_model::ICB_RADIUS_M;

/// Mesh generation parameters — the analog of SPECFEM's `Par_file`.
#[derive(Debug, Clone)]
pub struct MeshParams {
    /// Whole globe or regional single chunk.
    pub mode: MeshMode,
    /// `NEX_XI`: number of spectral elements along one side of each of the
    /// six chunks at the surface (paper §5). Must be divisible by
    /// `nproc_xi`.
    pub nex_xi: usize,
    /// `NPROC_XI`: number of MPI slices along one side of each chunk; total
    /// ranks = `6 × nproc_xi²` (paper §5, Figure 4).
    pub nproc_xi: usize,
    /// Polynomial degree (production: 4).
    pub degree: usize,
    /// Honour minor upper-mantle/crust discontinuities with element
    /// boundaries (true) or only ICB/CMB/670/Moho (false, for small NEX).
    pub honor_minor_discontinuities: bool,
    /// Compute radial layer counts as if `NEX_XI` were this value. Real
    /// SPECFEM3D_GLOBE has a *fixed* radial layering per configuration, so
    /// total work scales as NEX³ (NEX² elements × NEX steps — the Figure 7
    /// growth); pinning this reproduces that scaling in resolution sweeps.
    /// `None` scales the layering with `nex_xi`.
    pub radial_layer_nex: Option<usize>,
    /// Element ordering applied per rank after build.
    pub element_order: ElementOrder,
    /// Legacy two-pass material assignment (geometry first, then a second
    /// full sweep for materials — the §4.4-1 bottleneck) instead of the
    /// merged one-pass assignment.
    pub legacy_two_pass_materials: bool,
}

impl MeshParams {
    /// Sensible defaults for a given resolution/decomposition.
    pub fn new(nex_xi: usize, nproc_xi: usize) -> Self {
        assert!(nex_xi >= 2, "NEX_XI must be at least 2");
        assert!(
            nex_xi.is_multiple_of(nproc_xi),
            "NEX_XI ({nex_xi}) must be divisible by NPROC_XI ({nproc_xi})"
        );
        Self {
            mode: MeshMode::Global,
            nex_xi,
            nproc_xi,
            degree: specfem_gll::DEFAULT_DEGREE,
            honor_minor_discontinuities: nex_xi >= 32,
            radial_layer_nex: None,
            element_order: ElementOrder::MultilevelCuthillMcKee { block: 64 },
            legacy_two_pass_materials: false,
        }
    }

    /// Regional single-chunk parameters with the given inner radius (m).
    pub fn regional(nex_xi: usize, nproc_xi: usize, r_min: f64) -> Self {
        assert!(
            r_min >= specfem_model::CMB_RADIUS_M,
            "regional meshes must stay above the fluid outer core"
        );
        Self {
            mode: MeshMode::Regional { r_min },
            ..Self::new(nex_xi, nproc_xi)
        }
    }

    /// Total number of ranks: `6 × NPROC_XI²` for the globe, `NPROC_XI²`
    /// for a regional chunk.
    pub fn num_ranks(&self) -> usize {
        match self.mode {
            MeshMode::Global => 6 * self.nproc_xi * self.nproc_xi,
            MeshMode::Regional { .. } => self.nproc_xi * self.nproc_xi,
        }
    }

    /// The paper's resolution law: shortest resolved period in seconds,
    /// `T = 17 × 256 / NEX_XI` (Figure 5 caption: Resolution = 256·17 / T).
    pub fn nominal_shortest_period_s(&self) -> f64 {
        nominal_shortest_period_s(self.nex_xi)
    }
}

/// The paper's resolution law as a free function: `T(NEX) = 17·256 / NEX`.
pub fn nominal_shortest_period_s(nex_xi: usize) -> f64 {
    17.0 * 256.0 / nex_xi as f64
}

/// The inverse law: NEX needed for a target shortest period (rounded up to
/// the next multiple of 8 so standard NPROC values divide it).
pub fn nex_for_period(period_s: f64) -> usize {
    let raw = 17.0 * 256.0 / period_s;
    (raw / 8.0).ceil() as usize * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_law_matches_paper_anchor_points() {
        // Paper §5: "mesh resolution from 96 to 640 … 45.3 s to 6.8 s".
        assert!((nominal_shortest_period_s(96) - 45.33).abs() < 0.05);
        assert!((nominal_shortest_period_s(640) - 6.8).abs() < 0.01);
        // §5 predictions: NEX 1440 on 12K cores, NEX 4848 on 62K cores.
        assert!(nominal_shortest_period_s(4848) < 1.0);
        // 2-second barrier needs NEX ≥ 2176.
        assert!(nominal_shortest_period_s(2176) <= 2.0);
        assert!(nex_for_period(2.0) == 2176);
    }

    #[test]
    fn params_validate_divisibility() {
        let p = MeshParams::new(16, 4);
        assert_eq!(p.num_ranks(), 96);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn params_reject_bad_divisibility() {
        let _ = MeshParams::new(10, 4);
    }

    #[test]
    fn region_classification() {
        assert!(MeshRegion::OuterCore.is_fluid());
        assert!(!MeshRegion::CrustMantle.is_fluid());
        assert!(MeshRegion::CentralCube.is_inner_core());
        assert!(MeshRegion::InnerCore.is_inner_core());
        assert!(!MeshRegion::OuterCore.is_inner_core());
    }
}
