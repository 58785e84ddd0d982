//! Content-addressed mesh identity (campaign runtime support).
//!
//! A [`MeshKey`] is a deterministic identity over every knob that can
//! change the bits of a built [`GlobalMesh`] or of its rank slices — the
//! model plus every [`MeshParams`] field. Jobs whose simulations have the
//! same key can share one mesh build; the campaign's mesh cache is
//! addressed by it, and `specfem-io` uses its hex form to name on-disk
//! mesh artifacts.
//!
//! Two fingerprints are exposed:
//!
//! * [`MeshKey::fingerprint`] — the full identity, including the
//!   decomposition (`nproc_xi`, element order).
//! * [`MeshKey::geometry_fingerprint`] — masks the *partition-time* knobs.
//!   The global mesh geometry, numbering and materials provably do not
//!   depend on `nproc_xi`/`element_order` (only `Partition::compute` and
//!   `Partition::extract` read them), so a cached mesh built for one
//!   decomposition can serve a request for another by cloning and
//!   re-stamping `params` — a "derived hit" in cache terms.

use crate::numbering::ElementOrder;
use crate::{GlobalMesh, LayerPlan, MeshMode, MeshParams, CUBE_HALF_WIDTH_M};
use specfem_model::EarthModel;

/// Deterministic identity of a mesh build: the canonical bytes of the
/// model id and of every `MeshParams` field, split by what reads them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeshKey {
    /// Model id plus every field the built mesh depends on.
    geometry: Vec<u8>,
    /// The fields only partitioning and extraction read.
    partition: Vec<u8>,
}

impl MeshKey {
    /// Build the key for `params` over the model named `model_id`.
    pub fn new(params: &MeshParams, model_id: &str) -> MeshKey {
        // Exhaustive on purpose: a new `MeshParams` field does not compile
        // until it is filed under geometry or partition below.
        let MeshParams {
            mode,
            nex_xi,
            nproc_xi,
            degree,
            honor_minor_discontinuities,
            radial_layer_nex,
            element_order,
            legacy_two_pass_materials,
        } = params;
        let (mode_tag, r_min_bits) = match mode {
            MeshMode::Global => (0u8, 0u64),
            MeshMode::Regional { r_min } => (1u8, r_min.to_bits()),
        };
        let (order_tag, order_arg) = match *element_order {
            ElementOrder::Natural => (0u8, 0u64),
            ElementOrder::Random(seed) => (1u8, seed),
            ElementOrder::CuthillMcKee => (2u8, 0u64),
            ElementOrder::MultilevelCuthillMcKee { block } => (3u8, block as u64),
        };

        let put = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        let mut geometry = Vec::new();
        put(&mut geometry, model_id.len() as u64);
        geometry.extend_from_slice(model_id.as_bytes());
        geometry.push(mode_tag);
        put(&mut geometry, r_min_bits);
        put(&mut geometry, *nex_xi as u64);
        put(&mut geometry, *degree as u64);
        geometry.push(*honor_minor_discontinuities as u8);
        // `u64::MAX` stands in for `None` (no NEX gets near it).
        put(
            &mut geometry,
            radial_layer_nex.map_or(u64::MAX, |n| n as u64),
        );
        geometry.push(*legacy_two_pass_materials as u8);

        let mut partition = Vec::new();
        put(&mut partition, *nproc_xi as u64);
        partition.push(order_tag);
        put(&mut partition, order_arg);

        MeshKey {
            geometry,
            partition,
        }
    }

    /// Full 64-bit fingerprint, including the decomposition knobs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(&self.geometry);
        h.write(&self.partition);
        h.finish()
    }

    /// Fingerprint of the *built* mesh only: masks `nproc_xi` and
    /// `element_order`, which affect only partitioning/extraction, never
    /// the global mesh bits.
    pub fn geometry_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(&self.geometry);
        h.finish()
    }

    /// Lower-case hex form of the full fingerprint — used as the artifact
    /// file stem by the on-disk mesh store.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

/// Content hashes of a built mesh: one digest per constituent array.
/// Bit-identical meshes (the determinism contract the mesh cache relies
/// on) have equal hashes; the proptest suite checks this across repeated
/// builds and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshContentHash {
    /// FNV-1a over the `ibool` local→global mapping.
    pub ibool: u64,
    /// FNV-1a over the bit patterns of global point coordinates.
    pub coords: u64,
    /// FNV-1a over the bit patterns of rho/kappa/mu/qmu.
    pub materials: u64,
}

/// Digest the arrays of a built mesh.
pub fn content_hash(mesh: &GlobalMesh) -> MeshContentHash {
    let mut hi = Fnv::new();
    for &g in &mesh.ibool {
        hi.write(&g.to_le_bytes());
    }
    let mut hc = Fnv::new();
    for p in &mesh.coords {
        for &x in p {
            hc.write(&x.to_bits().to_le_bytes());
        }
    }
    let mut hm = Fnv::new();
    for arr in [&mesh.rho, &mesh.kappa, &mesh.mu, &mesh.qmu] {
        for &v in arr.iter() {
            hm.write(&v.to_bits().to_le_bytes());
        }
    }
    MeshContentHash {
        ibool: hi.finish(),
        coords: hc.finish(),
        materials: hm.finish(),
    }
}

impl GlobalMesh {
    /// Approximate resident size of this mesh in bytes (heap arrays only;
    /// used by the campaign cache's byte-budget admission control).
    pub fn approx_bytes(&self) -> usize {
        self.ibool.len() * 4
            + self.coords.len() * 24
            + (self.rho.len() + self.kappa.len() + self.mu.len() + self.qmu.len()) * 4
            + self.region.len()
            + self.home.len() * 8
    }
}

/// Estimate the resident bytes of the mesh `params` would build, without
/// building it. Uses the (cheap) radial layer plan and the structured
/// element-count formula; accurate to a few percent, which is all that
/// byte-budget admission control needs.
pub fn estimated_mesh_bytes(params: &MeshParams, model: &dyn EarthModel) -> usize {
    let radial_nex = params.radial_layer_nex.unwrap_or(params.nex_xi);
    let r_base = match params.mode {
        MeshMode::Global => CUBE_HALF_WIDTH_M,
        MeshMode::Regional { r_min } => r_min,
    };
    let plan = LayerPlan::new(
        model,
        radial_nex,
        r_base,
        params.honor_minor_discontinuities,
    );
    let nspec = GlobalMesh::expected_nspec(params, &plan);
    let np = params.degree + 1;
    let n3 = np * np * np;
    // nglob/nloc for conforming degree-4 hexahedral meshes sits near 0.6.
    let nglob = (nspec as f64 * n3 as f64 * 0.62) as usize;
    nspec * n3 * (4 + 16) + nglob * 24 + nspec * 9
}

/// Minimal FNV-1a 64-bit hasher — deterministic across platforms and runs,
/// with no dependency on `std::hash`'s unspecified per-process seeding.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_model::Prem;

    #[test]
    fn key_is_stable_and_nproc_sensitive() {
        let p1 = MeshParams::new(8, 2);
        let p2 = MeshParams::new(8, 4);
        let k1 = MeshKey::new(&p1, "prem");
        let k1b = MeshKey::new(&p1, "prem");
        let k2 = MeshKey::new(&p2, "prem");
        assert_eq!(k1, k1b);
        assert_eq!(k1.fingerprint(), k1b.fingerprint());
        assert_ne!(k1.fingerprint(), k2.fingerprint());
        // Geometry identity ignores the decomposition.
        assert_eq!(k1.geometry_fingerprint(), k2.geometry_fingerprint());
    }

    #[test]
    fn key_distinguishes_models_and_resolution() {
        let p = MeshParams::new(8, 2);
        let a = MeshKey::new(&p, "prem");
        let b = MeshKey::new(&p, "prem3d");
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut hi = p.clone();
        hi.nex_xi = 16;
        assert_ne!(MeshKey::new(&hi, "prem").fingerprint(), a.fingerprint());
    }

    /// Every `MeshParams` field moves the key, and only the partition-time
    /// fields leave the geometry fingerprint alone.
    #[test]
    fn mesh_key_sensitivity() {
        let base = MeshParams::new(8, 2);
        // Exhaustive: a new field does not compile until it is classified
        // as geometry (`true`) or partition-only (`false`) below.
        let MeshParams {
            mode: _,
            nex_xi: _,
            nproc_xi: _,
            degree: _,
            honor_minor_discontinuities: _,
            radial_layer_nex: _,
            element_order: _,
            legacy_two_pass_materials: _,
        } = base;
        type Flip = fn(&mut MeshParams);
        let flips: [(&str, bool, Flip); 8] = [
            ("mode", true, |p| {
                p.mode = MeshMode::Regional {
                    r_min: specfem_model::CMB_RADIUS_M,
                }
            }),
            ("nex_xi", true, |p| p.nex_xi = 16),
            ("nproc_xi", false, |p| p.nproc_xi = 4),
            ("degree", true, |p| p.degree += 1),
            ("honor_minor_discontinuities", true, |p| {
                p.honor_minor_discontinuities ^= true
            }),
            ("radial_layer_nex", true, |p| p.radial_layer_nex = Some(8)),
            ("element_order", false, |p| {
                p.element_order = ElementOrder::Natural
            }),
            ("legacy_two_pass_materials", true, |p| {
                p.legacy_two_pass_materials ^= true
            }),
        ];
        let key = MeshKey::new(&base, "prem");
        for (field, geometry, flip) in flips {
            let mut p = base.clone();
            flip(&mut p);
            let flipped = MeshKey::new(&p, "prem");
            assert_ne!(flipped, key, "{field} must move the key");
            assert_ne!(flipped.fingerprint(), key.fingerprint(), "{field}");
            assert_eq!(
                flipped.geometry_fingerprint() != key.geometry_fingerprint(),
                geometry,
                "{field}: geometry fingerprint"
            );
        }
        // A regional inner radius is part of the geometry too.
        let r1 = MeshKey::new(&MeshParams::regional(8, 2, 5.0e6), "prem");
        let r2 = MeshKey::new(&MeshParams::regional(8, 2, 5.5e6), "prem");
        assert_ne!(r1.geometry_fingerprint(), r2.geometry_fingerprint());
    }

    #[test]
    fn content_hash_detects_bit_flips() {
        let prem = Prem::isotropic_no_ocean();
        let params = MeshParams::new(4, 2);
        let mesh = GlobalMesh::build(&params, &prem);
        let h0 = content_hash(&mesh);
        assert_eq!(h0, content_hash(&mesh));
        let mut tweaked = mesh.clone();
        tweaked.rho[0] += 1.0;
        assert_ne!(h0.materials, content_hash(&tweaked).materials);
        assert_eq!(h0.ibool, content_hash(&tweaked).ibool);
    }

    #[test]
    fn byte_estimate_tracks_actual_size() {
        let prem = Prem::isotropic_no_ocean();
        let params = MeshParams::new(4, 2);
        let mesh = GlobalMesh::build(&params, &prem);
        let actual = mesh.approx_bytes();
        let est = estimated_mesh_bytes(&params, &prem);
        let rel = (est as f64 - actual as f64).abs() / actual as f64;
        assert!(rel < 0.10, "estimate {est} vs actual {actual} (rel {rel})");
    }
}
