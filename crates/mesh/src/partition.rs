//! Partitioning the global mesh into `6 × NPROC_XI²` slices and extracting
//! per-rank local meshes with halo communication lists.
//!
//! Shell elements go to the slice of their chunk tile (paper Figure 4). The
//! central cube is *cut in two* across ranks of opposite chunks, the §1
//! improvement over the historical whole-cube-on-one-rank bottleneck
//! ("reduction of the central cube bottleneck by cutting the cube in two").

use specfem_comm::{HaloPlan, Neighbor};

use crate::build::{ElementHome, GlobalMesh};
use crate::local::LocalMesh;
use crate::numbering::element_permutation;

/// Element → rank assignment for a mesh.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Total ranks (= `6 × nproc_xi²`).
    pub num_ranks: usize,
    /// Rank of each global element.
    pub rank_of: Vec<u32>,
}

impl Partition {
    /// Compute the assignment from the mesh parameters.
    pub fn compute(mesh: &GlobalMesh) -> Partition {
        let _span = specfem_obs::span("mesh.partition");
        let nproc = mesh.params.nproc_xi;
        let nex_per = mesh.params.nex_xi / nproc;
        let num_ranks = mesh.params.num_ranks();
        // The two cube owners sit in opposite chunks (+Z slice 0 and −Z
        // slice 0) so the cube work rides on ranks whose shell slices are
        // far apart.
        let cube_rank_a = 0u32;
        let cube_rank_b = (nproc * nproc) as u32; // first rank of chunk 1 (−Z)
        let rank_of = mesh
            .home
            .iter()
            .map(|home| match *home {
                ElementHome::Shell { chunk, ix, iy } => {
                    let tx = ix as usize / nex_per;
                    let ty = iy as usize / nex_per;
                    (chunk as usize * nproc * nproc + ty * nproc + tx) as u32
                }
                ElementHome::Cube { k, .. } => {
                    if (k as usize) < mesh.params.nex_xi / 2 {
                        cube_rank_b
                    } else {
                        cube_rank_a
                    }
                }
            })
            .collect();
        Partition { num_ranks, rank_of }
    }

    /// A trivial single-rank partition (serial runs, reference results).
    pub fn serial(mesh: &GlobalMesh) -> Partition {
        Partition {
            num_ranks: 1,
            rank_of: vec![0; mesh.nspec],
        }
    }

    /// A balanced partition into an *arbitrary* world size: contiguous,
    /// near-equal blocks of the global element ordering. The cubed-sphere
    /// assignment of [`Partition::compute`] only exists for `6 × nproc²`
    /// ranks; elastic (shrink-to-survive) resume needs every world size in
    /// between, and the global Cuthill-McKee-style ordering keeps the
    /// blocks spatially coherent so halos stay small.
    ///
    /// # Panics
    /// When `nranks` is zero or exceeds the element count (a rank with no
    /// elements has no stable `dt` and no work).
    pub fn balanced(mesh: &GlobalMesh, nranks: usize) -> Partition {
        assert!(nranks >= 1, "balanced partition needs at least one rank");
        assert!(
            nranks <= mesh.nspec,
            "balanced partition of {} elements cannot fill {nranks} ranks",
            mesh.nspec
        );
        let n = mesh.nspec;
        let rank_of = (0..n).map(|e| ((e * nranks) / n) as u32).collect();
        Partition {
            num_ranks: nranks,
            rank_of,
        }
    }

    /// Elements per rank — the load-balance view ("excellent load
    /// balancing", paper abstract).
    pub fn load(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.num_ranks];
        for &r in &self.rank_of {
            load[r as usize] += 1;
        }
        load
    }

    /// Extract the local mesh of `rank`, applying the element ordering from
    /// the mesh parameters and building the halo plan.
    pub fn extract(&self, mesh: &GlobalMesh, rank: usize) -> LocalMesh {
        let _span = specfem_obs::span("mesh.extract");
        Extractor::new(self, mesh).extract(rank)
    }

    /// Extract every rank's local mesh.
    pub fn extract_all(&self, mesh: &GlobalMesh) -> Vec<LocalMesh> {
        let _span = specfem_obs::span("mesh.extract");
        let mut extractor = Extractor::new(self, mesh);
        (0..self.num_ranks).map(|r| extractor.extract(r)).collect()
    }
}

/// "No entry" in the dense id-indexed tables below.
const NONE: u32 = u32::MAX;

/// The ranks touching each global point, kept for the points touched by at
/// least two — the halo. Rows of a CSR table, ranks ascending in each.
struct SharedPoints {
    /// Row of each global point, `NONE` for a point of a single rank.
    row: Vec<u32>,
    offsets: Vec<u32>,
    ranks: Vec<u32>,
}

impl SharedPoints {
    fn new(part: &Partition, mesh: &GlobalMesh) -> Self {
        let n3 = mesh.points_per_element();
        // First rank seen at each point, and every (point, other rank)
        // incidence after it.
        let mut first_rank = vec![NONE; mesh.nglob];
        let mut others: Vec<(u32, u32)> = Vec::new();
        for (element, &r) in mesh.ibool.chunks_exact(n3).zip(&part.rank_of) {
            for &g in element {
                let first = &mut first_rank[g as usize];
                if *first == NONE {
                    *first = r;
                } else if *first != r {
                    others.push((g, r));
                }
            }
        }
        others.sort_unstable();
        others.dedup();
        let mut shared = SharedPoints {
            row: vec![NONE; mesh.nglob],
            offsets: vec![0],
            ranks: Vec::new(),
        };
        for group in others.chunk_by(|a, b| a.0 == b.0) {
            let g = group[0].0 as usize;
            shared.row[g] = (shared.offsets.len() - 1) as u32;
            let start = shared.ranks.len();
            shared.ranks.push(first_rank[g]);
            shared.ranks.extend(group.iter().map(|&(_, r)| r));
            shared.ranks[start..].sort_unstable();
            shared.offsets.push(shared.ranks.len() as u32);
        }
        shared
    }

    /// The ranks touching point `g` if more than one does, else nothing.
    fn ranks_of(&self, g: u32) -> &[u32] {
        match self.row[g as usize] {
            NONE => &[],
            row => {
                let row = row as usize;
                &self.ranks[self.offsets[row] as usize..self.offsets[row + 1] as usize]
            }
        }
    }
}

/// What every rank's extraction shares: the halo ownership table, computed
/// once, and a dense global→local point map that each use leaves blank.
struct Extractor<'a> {
    part: &'a Partition,
    mesh: &'a GlobalMesh,
    shared: SharedPoints,
    /// `NONE` everywhere between uses.
    local_of_global: Vec<u32>,
}

impl<'a> Extractor<'a> {
    fn new(part: &'a Partition, mesh: &'a GlobalMesh) -> Self {
        Extractor {
            part,
            mesh,
            shared: SharedPoints::new(part, mesh),
            local_of_global: vec![NONE; mesh.nglob],
        }
    }

    /// Number the points of `elements` locally by first touch: fills the
    /// local connectivity and returns the global id of each local point.
    fn number_points(&mut self, elements: &[u32], ibool: &mut Vec<u32>) -> Vec<u32> {
        let n3 = self.mesh.points_per_element();
        let mut global_ids = Vec::new();
        for &ge in elements {
            let base = ge as usize * n3;
            for &g in &self.mesh.ibool[base..base + n3] {
                let lid = &mut self.local_of_global[g as usize];
                if *lid == NONE {
                    *lid = global_ids.len() as u32;
                    global_ids.push(g);
                }
                ibool.push(*lid);
            }
        }
        for &g in &global_ids {
            self.local_of_global[g as usize] = NONE;
        }
        global_ids
    }

    /// Adjacency among `elements` (by position in the slice) via shared
    /// points: each list ascending, without duplicates.
    fn adjacency(&mut self, elements: &[u32]) -> Vec<Vec<u32>> {
        let n3 = self.mesh.points_per_element();
        let mut ibool = Vec::with_capacity(elements.len() * n3);
        let global_ids = self.number_points(elements, &mut ibool);
        // Point → elements, as a CSR table filled by counting sort.
        let mut offsets = vec![0u32; global_ids.len() + 1];
        for &p in &ibool {
            offsets[p as usize + 1] += 1;
        }
        for p in 0..global_ids.len() {
            offsets[p + 1] += offsets[p];
        }
        let mut fill = offsets.clone();
        let mut elems_of = vec![0u32; ibool.len()];
        for (e, points) in ibool.chunks_exact(n3).enumerate() {
            for &p in points {
                elems_of[fill[p as usize] as usize] = e as u32;
                fill[p as usize] += 1;
            }
        }
        // `seen_by[b] == a`: b is already on a's list.
        let mut seen_by = vec![NONE; elements.len()];
        ibool
            .chunks_exact(n3)
            .enumerate()
            .map(|(a, points)| {
                let a = a as u32;
                let mut neighbours = Vec::new();
                for &p in points {
                    let (lo, hi) = (offsets[p as usize], offsets[p as usize + 1]);
                    for &b in &elems_of[lo as usize..hi as usize] {
                        if b != a && seen_by[b as usize] != a {
                            seen_by[b as usize] = a;
                            neighbours.push(b);
                        }
                    }
                }
                neighbours.sort_unstable();
                neighbours
            })
            .collect()
    }

    fn extract(&mut self, rank: usize) -> LocalMesh {
        let mesh = self.mesh;
        let n3 = mesh.points_per_element();
        // ---- elements of this rank, natural order ------------------------
        let mine: Vec<u32> = (0..mesh.nspec as u32)
            .filter(|&e| self.part.rank_of[e as usize] == rank as u32)
            .collect();

        // ---- element ordering (paper §4.2) -------------------------------
        let order = mesh.params.element_order;
        let perm = element_permutation(order, mine.len(), &self.adjacency(&mine));
        let cm_ordered: Vec<u32> = perm.iter().map(|&le| mine[le as usize]).collect();

        // ---- outer/inner classification ----------------------------------
        // An element is *outer* iff any of its global points is shared with
        // another rank. Stable-partition the ordering so outer elements
        // come first: the solver can then compute `0..nspec_outer`, post
        // the halo exchange, and fill `nspec_outer..nspec` while messages
        // fly. The partition is stable, so within each class the
        // Cuthill-McKee relative order (and thus cache behaviour) is
        // preserved — and because the *blocking* path iterates the same
        // ordering, per-point accumulation order is identical in both paths
        // (the bit-identity requirement).
        let is_outer = |ge: u32| {
            let base = ge as usize * n3;
            mesh.ibool[base..base + n3]
                .iter()
                .any(|&g| self.shared.row[g as usize] != NONE)
        };
        let (outer, inner): (Vec<u32>, Vec<u32>) = cm_ordered.iter().partition(|&&ge| is_outer(ge));
        let nspec_outer = outer.len();
        let mut ordered = outer;
        ordered.extend_from_slice(&inner);

        // ---- local point numbering by first touch ------------------------
        let mut ibool = Vec::with_capacity(ordered.len() * n3);
        let global_ids = self.number_points(&ordered, &mut ibool);
        let gather = |field: &[f32]| -> Vec<f32> {
            let mut out = Vec::with_capacity(ordered.len() * n3);
            for &ge in &ordered {
                out.extend_from_slice(&field[ge as usize * n3..(ge as usize + 1) * n3]);
            }
            out
        };
        let coords: Vec<[f64; 3]> = global_ids
            .iter()
            .map(|&g| mesh.coords[g as usize])
            .collect();

        // ---- halo plan ----------------------------------------------------
        // For every local point shared with other ranks, record it under
        // each other rank; neighbours ascending by rank, and each one's
        // points by global id so both sides enumerate identically.
        let mut halo_points: Vec<(u32, u32, u32)> = Vec::new(); // (rank, gid, lid)
        for (lid, &g) in global_ids.iter().enumerate() {
            for &r in self.shared.ranks_of(g) {
                if r != rank as u32 {
                    halo_points.push((r, g, lid as u32));
                }
            }
        }
        halo_points.sort_unstable();
        let neighbors: Vec<Neighbor> = halo_points
            .chunk_by(|a, b| a.0 == b.0)
            .map(|of_rank| Neighbor {
                rank: of_rank[0].0 as usize,
                points: of_rank.iter().map(|&(_, _, lid)| lid).collect(),
            })
            .collect();
        let halo = HaloPlan { neighbors };
        let nglob = global_ids.len();
        halo.validate(rank, nglob).expect("halo plan invalid");

        LocalMesh {
            rank,
            basis: mesh.basis.clone(),
            nspec: ordered.len(),
            nspec_outer,
            nglob,
            ibool,
            coords,
            region: ordered.iter().map(|&ge| mesh.region[ge as usize]).collect(),
            rho: gather(&mesh.rho),
            kappa: gather(&mesh.kappa),
            mu: gather(&mesh.mu),
            qmu: gather(&mesh.qmu),
            global_ids,
            element_global: ordered,
            halo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeshParams, MeshRegion};
    use specfem_model::Prem;

    fn mesh_with(nex: usize, nproc: usize) -> GlobalMesh {
        GlobalMesh::build(&MeshParams::new(nex, nproc), &Prem::isotropic_no_ocean())
    }

    #[test]
    fn every_element_gets_exactly_one_rank() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        assert_eq!(part.rank_of.len(), mesh.nspec);
        assert_eq!(part.num_ranks, 24);
        let load = part.load();
        assert_eq!(load.iter().sum::<usize>(), mesh.nspec);
        assert!(load.iter().all(|&l| l > 0), "empty rank: {load:?}");
    }

    #[test]
    fn shell_slices_are_perfectly_balanced() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        // Count shell elements per rank: all equal by construction.
        let mut shell_load = vec![0usize; part.num_ranks];
        for (e, home) in mesh.home.iter().enumerate() {
            if matches!(home, ElementHome::Shell { .. }) {
                shell_load[part.rank_of[e] as usize] += 1;
            }
        }
        let first = shell_load[0];
        assert!(shell_load.iter().all(|&l| l == first), "{shell_load:?}");
    }

    #[test]
    fn cube_is_cut_across_two_ranks_of_opposite_chunks() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let mut cube_ranks: Vec<u32> = mesh
            .home
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, ElementHome::Cube { .. }))
            .map(|(e, _)| part.rank_of[e])
            .collect();
        cube_ranks.sort_unstable();
        cube_ranks.dedup();
        // First slice of chunk 0 (+Z) and of chunk 1 (−Z).
        assert_eq!(cube_ranks, vec![0, 4]);
    }

    #[test]
    fn local_meshes_cover_global_mesh_exactly() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let locals = part.extract_all(&mesh);
        let total: usize = locals.iter().map(|l| l.nspec).sum();
        assert_eq!(total, mesh.nspec);
        // Every global element appears exactly once.
        let mut seen = vec![false; mesh.nspec];
        for l in &locals {
            for &ge in &l.element_global {
                assert!(!seen[ge as usize], "element {ge} duplicated");
                seen[ge as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn halo_plans_are_symmetric() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let locals = part.extract_all(&mesh);
        for l in &locals {
            for n in &l.halo.neighbors {
                let other = &locals[n.rank];
                let back = other
                    .halo
                    .neighbors
                    .iter()
                    .find(|m| m.rank == l.rank)
                    .unwrap_or_else(|| panic!("rank {} missing back edge to {}", n.rank, l.rank));
                assert_eq!(n.points.len(), back.points.len());
                // Same global ids in the same order on both sides.
                let gids: Vec<u32> = n.points.iter().map(|&p| l.global_ids[p as usize]).collect();
                let back_gids: Vec<u32> = back
                    .points
                    .iter()
                    .map(|&p| other.global_ids[p as usize])
                    .collect();
                assert_eq!(gids, back_gids);
            }
        }
    }

    #[test]
    fn halo_points_lie_on_slice_boundaries() {
        // Shared points must be shared: every halo point's global id must be
        // referenced by elements of both ranks.
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let l0 = part.extract(&mesh, 0);
        assert!(!l0.halo.neighbors.is_empty(), "rank 0 must have neighbours");
        let n3 = mesh.points_per_element();
        for n in &l0.halo.neighbors {
            for &p in n.points.iter().take(5) {
                let gid = l0.global_ids[p as usize];
                let mut ranks: Vec<u32> = (0..mesh.nspec)
                    .filter(|&e| mesh.ibool[e * n3..(e + 1) * n3].contains(&gid))
                    .map(|e| part.rank_of[e])
                    .collect();
                ranks.sort_unstable();
                ranks.dedup();
                assert!(ranks.contains(&0));
                assert!(ranks.contains(&(n.rank as u32)));
            }
        }
    }

    #[test]
    fn serial_partition_has_everything_no_halo() {
        let mesh = mesh_with(4, 2);
        let part = Partition::serial(&mesh);
        let local = part.extract(&mesh, 0);
        assert_eq!(local.nspec, mesh.nspec);
        assert_eq!(local.nglob, mesh.nglob);
        assert!(local.halo.neighbors.is_empty());
        // Region totals preserved.
        let cm = local
            .region
            .iter()
            .filter(|r| **r == MeshRegion::CrustMantle)
            .count();
        let cm_global = mesh
            .region
            .iter()
            .filter(|r| **r == MeshRegion::CrustMantle)
            .count();
        assert_eq!(cm, cm_global);
    }

    #[test]
    fn outer_elements_cover_all_halo_points_and_inner_none() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        for l in part.extract_all(&mesh) {
            let n3 = l.points_per_element();
            let mut is_halo = vec![false; l.nglob];
            for n in &l.halo.neighbors {
                for &p in &n.points {
                    is_halo[p as usize] = true;
                }
            }
            assert!(l.nspec_outer <= l.nspec);
            assert!(
                l.nspec_outer > 0,
                "rank {} has neighbours but no outer elements",
                l.rank
            );
            // Outer prefix: every outer element touches a halo point; inner
            // suffix: none do.
            for e in l.outer_elements() {
                assert!(
                    l.ibool[e * n3..(e + 1) * n3]
                        .iter()
                        .any(|&p| is_halo[p as usize]),
                    "rank {} outer element {e} touches no halo point",
                    l.rank
                );
            }
            for e in l.inner_elements() {
                assert!(
                    l.ibool[e * n3..(e + 1) * n3]
                        .iter()
                        .all(|&p| !is_halo[p as usize]),
                    "rank {} inner element {e} touches a halo point",
                    l.rank
                );
            }
            // Every halo point belongs to at least one outer element.
            let mut touched = vec![false; l.nglob];
            for e in l.outer_elements() {
                for &p in &l.ibool[e * n3..(e + 1) * n3] {
                    touched[p as usize] = true;
                }
            }
            for p in 0..l.nglob {
                if is_halo[p] {
                    assert!(touched[p], "rank {} halo point {p} not outer", l.rank);
                }
            }
        }
    }

    #[test]
    fn serial_extract_has_no_outer_elements() {
        let mesh = mesh_with(4, 2);
        let local = Partition::serial(&mesh).extract(&mesh, 0);
        assert_eq!(local.nspec_outer, 0);
        assert_eq!(local.outer_elements(), 0..0);
        assert_eq!(local.inner_elements(), 0..local.nspec);
    }

    #[test]
    fn outer_inner_split_is_a_stable_partition_of_the_ordering() {
        // Re-extracting must give the identical element order (determinism),
        // and the split must preserve relative order within each class
        // versus the unsplit Cuthill-McKee ordering.
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let a = part.extract(&mesh, 5);
        let b = part.extract(&mesh, 5);
        assert_eq!(a.element_global, b.element_global);
        assert_eq!(a.nspec_outer, b.nspec_outer);
        // Stability: element_global restricted to each class is a
        // subsequence of the full ordering, so sorting the two classes by
        // their position in the concatenation reproduces the original
        // relative order. Verify outer ∪ inner is exactly the element set.
        let mut all: Vec<u32> = a.element_global.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), a.nspec);
    }

    #[test]
    fn balanced_partition_works_at_arbitrary_world_sizes() {
        let mesh = mesh_with(4, 1);
        for nranks in [1usize, 2, 3, 4, 5, 7, 8] {
            let part = Partition::balanced(&mesh, nranks);
            assert_eq!(part.num_ranks, nranks);
            let load = part.load();
            assert_eq!(load.iter().sum::<usize>(), mesh.nspec);
            let (lo, hi) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
            assert!(lo > 0, "empty rank at nranks={nranks}: {load:?}");
            assert!(hi - lo <= 1, "imbalance at nranks={nranks}: {load:?}");
            // Every element appears on exactly one rank and halos validate
            // (extract() panics on an inconsistent plan).
            let locals = part.extract_all(&mesh);
            let total: usize = locals.iter().map(|l| l.nspec).sum();
            assert_eq!(total, mesh.nspec);
        }
    }

    #[test]
    fn local_materials_match_global() {
        let mesh = mesh_with(4, 2);
        let part = Partition::compute(&mesh);
        let l = part.extract(&mesh, 3);
        let n3 = mesh.points_per_element();
        for (le, &ge) in l.element_global.iter().enumerate() {
            for i in 0..n3 {
                assert_eq!(l.rho[le * n3 + i], mesh.rho[ge as usize * n3 + i]);
                assert_eq!(l.mu[le * n3 + i], mesh.mu[ge as usize * n3 + i]);
            }
        }
    }
}
