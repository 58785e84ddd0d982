//! Pins the mesh itself — not the seismograms downstream of it.
//!
//! Global numbering and rank extraction promise *bit identity*: ids handed
//! out in first-seen order, the first-seen coordinate kept as the
//! representative, outer elements first, halo lists sorted by global id.
//! Every golden, checkpoint and cache key sits on top of that promise, so
//! a 64-bit digest of each mesh variant and of every rank's slice of it is
//! recorded here. The constants were taken from the 27-probe `HashMap`
//! numbering and the `HashMap`-based extraction this code replaced; a
//! mismatch prints the whole table as the current code computes it.

use specfem_mesh::{ElementOrder, GlobalMesh, LocalMesh, MeshParams, MeshRegion, Partition};
use specfem_model::Prem;

/// Word-wise FNV-style digest: every step is a bijection of the state for
/// a fixed word and of the word for a fixed state, so any single changed
/// word changes the result.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }
    fn u32s(&mut self, v: &[u32]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x as u64));
    }
    fn f32s(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x.to_bits() as u64));
    }
    fn coords(&mut self, v: &[[f64; 3]]) {
        self.word(v.len() as u64);
        v.iter().flatten().for_each(|&x| self.word(x.to_bits()));
    }
    fn regions(&mut self, v: &[MeshRegion]) {
        self.word(v.len() as u64);
        for r in v {
            self.word(match r {
                MeshRegion::CrustMantle => 0,
                MeshRegion::OuterCore => 1,
                MeshRegion::InnerCore => 2,
                MeshRegion::CentralCube => 3,
            });
        }
    }
}

fn digest_global(mesh: &GlobalMesh) -> u64 {
    let mut d = Digest::new();
    d.word(mesh.nspec as u64);
    d.word(mesh.nglob as u64);
    d.u32s(&mesh.ibool);
    d.coords(&mesh.coords);
    for m in [&mesh.rho, &mesh.kappa, &mesh.mu, &mesh.qmu] {
        d.f32s(m);
    }
    d.regions(&mesh.region);
    d.0
}

fn digest_locals(locals: &[LocalMesh]) -> u64 {
    let mut d = Digest::new();
    d.word(locals.len() as u64);
    for l in locals {
        for n in [l.rank, l.nspec, l.nspec_outer, l.nglob] {
            d.word(n as u64);
        }
        d.u32s(&l.ibool);
        d.coords(&l.coords);
        d.u32s(&l.global_ids);
        d.regions(&l.region);
        d.u32s(&l.element_global);
        for m in [&l.rho, &l.kappa, &l.mu, &l.qmu] {
            d.f32s(m);
        }
        d.word(l.halo.neighbors.len() as u64);
        for n in &l.halo.neighbors {
            d.word(n.rank as u64);
            d.u32s(&n.points);
        }
    }
    d.0
}

/// One mesh variant: its name, its parameters at `NPROC_XI` = 1, and the
/// recorded digests — the global mesh, then the worlds of [`WORLDS`].
type Variant = (&'static str, MeshParams, u64, [u64; 5]);

const WORLDS: [&str; 5] = ["serial", "balanced2", "balanced5", "compute1", "compute2"];

fn with(nex: usize, edit: impl FnOnce(&mut MeshParams)) -> MeshParams {
    let mut p = MeshParams::new(nex, 1);
    edit(&mut p);
    p
}

#[rustfmt::skip]
fn variants() -> Vec<Variant> {
    use ElementOrder::*;
    vec![
        ("global_nex4", with(4, |_| ()),
         0x2155b2def02d13b2,
         [0x34091f51f64a8b73, 0x90bfb55389173b0a, 0xb19094bece870a6a,
          0x2a26823ffebf3d62, 0x31206305a6dc0eb8]),
        ("global_nex6", with(6, |_| ()),
         0x903d4a99dc31cce2,
         [0x07932998811150a1, 0x21666b7f2de16843, 0x2e2388f005f35ddf,
          0x71cab908652bb06f, 0x879bdc84d776744f]),
        ("regional_nex4", MeshParams::regional(4, 1, 5_701_000.0),
         0x1c093d751792886b,
         [0x67c33b28f9517051, 0xfd6f47835944e530, 0xbed18eb2a917a6f9,
          0x67c33b28f9517051, 0x41f8d6c4aaddbd70]),
        ("minor_discontinuities_nex4", with(4, |p| p.honor_minor_discontinuities = true),
         0xd2d52f8a78558119,
         [0xd7b7502c8b3a25f7, 0xe327c9c4b0d5882d, 0x204dc560a8f89a3c,
          0xd332bcec3ecae9b1, 0xbe211a132107c355]),
        ("legacy_two_pass_nex4", with(4, |p| p.legacy_two_pass_materials = true),
         0x2155b2def02d13b2,
         [0x34091f51f64a8b73, 0x90bfb55389173b0a, 0xb19094bece870a6a,
          0x2a26823ffebf3d62, 0x31206305a6dc0eb8]),
        ("order_natural_nex4", with(4, |p| p.element_order = Natural),
         0x2155b2def02d13b2,
         [0xb1c9206037e3a910, 0x93f023b1d3c08afa, 0x1628a568a7d71764,
          0x85542634c4500b97, 0x8fd6062733a37a55]),
        ("order_random_nex4", with(4, |p| p.element_order = Random(7)),
         0x2155b2def02d13b2,
         [0xf3392d192fb4c1ca, 0x07c536c561e28149, 0x99a01e73664c1efa,
          0xe2900d8aacc254ba, 0x79213453b704ea8d]),
        ("order_cuthill_mckee_nex4", with(4, |p| p.element_order = CuthillMcKee),
         0x2155b2def02d13b2,
         [0x8256890491b214ed, 0xd791dd609154f51b, 0xa2dcf764fc5ac301,
          0x21bbeb728efe3ceb, 0x858a839aaee4b0de]),
        ("order_multilevel16_nex4", with(4, |p| p.element_order = MultilevelCuthillMcKee { block: 16 }),
         0x2155b2def02d13b2,
         [0x40df165de8a4eb92, 0xe3f61430bb741184, 0xb4a1e1a58e547798,
          0xfd7796fc09f55056, 0x0b3119eaceeac298]),
    ]
}

/// The digests of one variant as the current code computes them.
/// `compute1`/`compute2` are the cubed-sphere decomposition (`TwoRanks`
/// cube, the default) at `NPROC_XI` 1 and 2: 6 and 24 ranks for the globe,
/// 1 and 4 for a regional chunk.
fn measure(params: &MeshParams) -> (u64, [u64; 5]) {
    let mut mesh = GlobalMesh::build(params, &Prem::isotropic_no_ocean());
    let global = digest_global(&mesh);
    let world = |mesh: &GlobalMesh, part: Partition| digest_locals(&part.extract_all(mesh));
    let serial = world(&mesh, Partition::serial(&mesh));
    let balanced2 = world(&mesh, Partition::balanced(&mesh, 2));
    let balanced5 = world(&mesh, Partition::balanced(&mesh, 5));
    let compute1 = world(&mesh, Partition::compute(&mesh));
    // The mesher never reads the decomposition, so re-stamping it is what
    // the campaign cache's derived hit does too.
    mesh.params.nproc_xi = 2;
    let compute2 = world(&mesh, Partition::compute(&mesh));
    (global, [serial, balanced2, balanced5, compute1, compute2])
}

#[test]
fn meshes_and_rank_slices_are_bit_identical_to_the_recorded_digests() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (name, params, global, worlds) in variants() {
        let (got_global, got_worlds) = measure(&params);
        table.push_str(&format!(
            "{name}: {got_global:#018x}, [{}]\n",
            got_worlds.map(|w| format!("{w:#018x}")).join(", ")
        ));
        if got_global != global {
            mismatches.push(format!("{name}: global mesh"));
        }
        for ((w, got), want) in WORLDS.iter().zip(got_worlds).zip(worlds) {
            if got != want {
                mismatches.push(format!("{name}: world {w}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "mesh digests moved: {mismatches:?}\ncurrent table:\n{table}"
    );
}
