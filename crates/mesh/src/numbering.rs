//! Global point numbering and element ordering.
//!
//! * [`PointRegistry`] / [`number_element_nodes`] — tolerance-based
//!   coordinate matching that assigns every distinct GLL location one
//!   global id (the local→global `ibool` mapping of paper §2.4 / Figure 3).
//! * [`ElementOrder`] — the element traversal orders of paper §4.2:
//!   natural, random (worst case), reverse Cuthill-McKee, and the improved
//!   *multilevel* Cuthill-McKee that groups 50–100 elements into
//!   cache-sized blocks.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// "No point": an empty table slot, the end of a cell chain.
const NONE: u32 = u32::MAX;

/// Cell edge in units of the tolerance. Large enough that a point lies
/// within tolerance of a cell face only a few percent of the time (so a
/// lookup usually reads one cell), small enough that a cell of a real mesh
/// — GLL spacing ≫ tolerance — holds a single point.
const CELL_PER_TOLERANCE: f64 = 256.0;

/// A point closer than this to a cell face (in cell units) also searches
/// the cell across it: twice the tolerance, the factor two covering the
/// roundoff of the coordinate-to-cell conversion.
const FACE_MARGIN: f64 = 2.0 / CELL_PER_TOLERANCE;

/// One slot of the open-addressing cell table.
#[derive(Clone, Copy)]
struct Slot {
    /// Hash of the cell stored here (meaningless while `head` is `NONE`).
    hash: u32,
    /// Most recently registered point of the cell, or `NONE`: empty slot.
    head: u32,
}

const EMPTY: Slot = Slot {
    hash: 0,
    head: NONE,
};

/// Tolerance-based registry of global points.
///
/// Space is cut into cubic cells much larger than the tolerance and much
/// smaller than any GLL spacing. A flat open-addressing table maps a cell's
/// hash to the chain of points registered in it (`next` links them, newest
/// first); a lookup walks the chain of the point's own cell and of those
/// neighbours whose face lies within tolerance of the point, so two
/// generations of the same point that differ by roundoff always match, even
/// straddling a cell boundary. Identity is decided by the distance test
/// alone: two cells whose hashes collide share a chain, which costs a
/// distance test and never a wrong answer.
///
/// Ids are handed out in first-seen order and a point keeps the first
/// coordinates it was seen with. Should several registered points lie
/// within tolerance of a query, the answer is the one the historical
/// 27-cell probe (cells of four tolerances, scanned in lexicographic order)
/// met first, so numberings are reproducible down to degenerate input.
pub struct PointRegistry {
    tolerance: f64,
    /// Cells per metre.
    inv_cell: f64,
    /// Power-of-two sized; at most half full.
    slots: Vec<Slot>,
    occupied: usize,
    /// `next[id]`: the point registered before `id` in the same chain.
    next: Vec<u32>,
    coords: Vec<[f64; 3]>,
}

/// Cell index along one axis of a coordinate given in cell units, and the
/// coordinate's offset from that cell's centre (in `[-0.5, 0.5]`).
#[inline]
fn cell_of(f: f64) -> (i64, f64) {
    let shifted = f + 0.5;
    let mut k = shifted as i64; // truncates toward zero …
    if k as f64 > shifted {
        k -= 1; // … so step down to the floor for negatives
    }
    (k, f - k as f64)
}

/// A cheap integer mixer over the three cell indices.
#[inline]
fn cell_hash(k: [i64; 3]) -> u32 {
    let h = (k[0] as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((k[1] as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add((k[2] as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
    ((h ^ (h >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as u32
}

impl PointRegistry {
    /// `tolerance` is the distance below which two points are "the same";
    /// it must be far below the minimum GLL spacing (metres).
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance > 0.0);
        Self {
            tolerance,
            inv_cell: 1.0 / (CELL_PER_TOLERANCE * tolerance),
            slots: vec![EMPTY; 1024],
            occupied: 0,
            next: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// Index of the slot holding cell hash `hash`, or of the empty slot
    /// where it would go.
    #[inline]
    fn slot_of(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        // Scale the hash onto the table (its top bits, for a table of up to
        // 2³² slots).
        let mut s = ((hash as u64 * self.slots.len() as u64) >> 32) as usize & mask;
        while self.slots[s].head != NONE && self.slots[s].hash != hash {
            s = (s + 1) & mask;
        }
        s
    }

    /// Walk the chain starting at `id`; return `found` updated with any
    /// point of the chain within tolerance of `p`.
    #[inline]
    fn match_in_chain(&self, mut id: u32, p: [f64; 3], mut found: u32) -> u32 {
        let tol2 = self.tolerance * self.tolerance;
        while id != NONE {
            let q = self.coords[id as usize];
            let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
            if d2 <= tol2 {
                found = if found == NONE {
                    id
                } else {
                    self.first_probed(found, id)
                };
            }
            id = self.next[id as usize];
        }
        found
    }

    /// Of two registered points, the one a lexicographic scan of cells of
    /// four tolerances meets first (ties: the older point).
    #[cold]
    fn first_probed(&self, a: u32, b: u32) -> u32 {
        let rank = |id: u32| {
            let cell = 4.0 * self.tolerance;
            let k = self.coords[id as usize].map(|x| (x / cell).round() as i64);
            (k, id)
        };
        if rank(a) <= rank(b) {
            a
        } else {
            b
        }
    }

    /// Hand out the next id for `p`, chained in front of `next`.
    fn push(&mut self, p: [f64; 3], next: u32) -> u32 {
        let id = u32::try_from(self.coords.len())
            .ok()
            .filter(|&id| id != NONE)
            .unwrap_or_else(|| {
                panic!(
                    "point registry already holds {} points: global point ids are 32-bit",
                    self.coords.len()
                )
            });
        self.coords.push(p);
        self.next.push(next);
        id
    }

    /// Get the id of `p`, registering it if unseen.
    pub fn get_or_insert(&mut self, p: [f64; 3]) -> u32 {
        let mut k = [0i64; 3];
        // Per axis: whether the cell below / above is within reach.
        let (mut below, mut above) = ([0i64; 3], [0i64; 3]);
        for a in 0..3 {
            let (cell, off) = cell_of(p[a] * self.inv_cell);
            k[a] = cell;
            below[a] = (off < -0.5 + FACE_MARGIN) as i64;
            above[a] = (off > 0.5 - FACE_MARGIN) as i64;
        }
        let hash = cell_hash(k);
        let home = self.slot_of(hash);
        let mut found = self.match_in_chain(self.slots[home].head, p, NONE);
        if below != [0; 3] || above != [0; 3] {
            for dx in -below[0]..=above[0] {
                for dy in -below[1]..=above[1] {
                    for dz in -below[2]..=above[2] {
                        if (dx, dy, dz) != (0, 0, 0) {
                            let s = self.slot_of(cell_hash([k[0] + dx, k[1] + dy, k[2] + dz]));
                            found = self.match_in_chain(self.slots[s].head, p, found);
                        }
                    }
                }
            }
        }
        if found != NONE {
            return found;
        }
        let id = self.push(p, self.slots[home].head);
        if self.slots[home].head == NONE {
            self.occupied += 1;
        }
        self.slots[home] = Slot { hash, head: id };
        if self.occupied * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Register a point the caller knows no other point can coincide with:
    /// it gets the next id without entering the table, and later lookups
    /// never return it.
    fn insert_unique(&mut self, p: [f64; 3]) -> u32 {
        self.push(p, NONE)
    }

    /// Double the table. Chains are untouched: only their heads move.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old.into_iter().filter(|s| s.head != NONE) {
            let s = self.slot_of(slot.hash);
            self.slots[s] = slot;
        }
    }

    /// Number of distinct points registered.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Consume the registry, returning the coordinates by id.
    pub fn into_coords(self) -> Vec<[f64; 3]> {
        self.coords
    }
}

/// Number the GLL nodes of a whole mesh. `nodes` holds the `np³` nodes of
/// every element (`i` fastest), element after element; nodes closer than
/// `tolerance` are one global point. Returns the local→global map `ibool`
/// and the coordinates by global id.
///
/// A node strictly inside its element cannot coincide with a node of any
/// other element, so it is given an id without a lookup.
pub fn number_element_nodes(
    nodes: &[[f64; 3]],
    np: usize,
    tolerance: f64,
) -> (Vec<u32>, Vec<[f64; 3]>) {
    let n3 = np * np * np;
    let inside = |i: usize| (1..np - 1).contains(&i);
    let interior: Vec<bool> = (0..n3)
        .map(|l| inside(l % np) && inside(l / np % np) && inside(l / (np * np)))
        .collect();
    let mut registry = PointRegistry::new(tolerance);
    let mut ibool = Vec::with_capacity(nodes.len());
    for element in nodes.chunks_exact(n3) {
        for (&p, &interior) in element.iter().zip(&interior) {
            ibool.push(if interior {
                registry.insert_unique(p)
            } else {
                registry.get_or_insert(p)
            });
        }
    }
    (ibool, registry.into_coords())
}

/// Element traversal order (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementOrder {
    /// Creation order.
    Natural,
    /// Random shuffle with the given seed — the cache-hostile baseline, and
    /// the permutation used by the loop-order-invariance check.
    Random(u64),
    /// Classical reverse Cuthill-McKee on the element adjacency graph.
    CuthillMcKee,
    /// Multilevel variant: RCM order then grouped into `block`-element
    /// chunks that fit L2 together (paper: "groups of typically 50 to 100
    /// elements").
    MultilevelCuthillMcKee {
        /// Elements per cache block.
        block: usize,
    },
}

/// Compute the permutation `perm` such that processing elements in the
/// order `perm[0], perm[1], …` realizes `order`. `adjacency(e)` must yield
/// the neighbours of element `e` (elements sharing at least one point).
pub fn element_permutation(order: ElementOrder, nspec: usize, adjacency: &[Vec<u32>]) -> Vec<u32> {
    match order {
        ElementOrder::Natural => (0..nspec as u32).collect(),
        ElementOrder::Random(seed) => {
            let mut p: Vec<u32> = (0..nspec as u32).collect();
            p.shuffle(&mut StdRng::seed_from_u64(seed));
            p
        }
        ElementOrder::CuthillMcKee => reverse_cuthill_mckee(nspec, adjacency),
        ElementOrder::MultilevelCuthillMcKee { block } => {
            // RCM first, then keep the order but materialize block grouping
            // (blocks are contiguous runs of the RCM order; within a block
            // re-sort by degree to mimic the multilevel pass).
            let rcm = reverse_cuthill_mckee(nspec, adjacency);
            let block = block.max(1);
            let mut out = Vec::with_capacity(nspec);
            for chunk in rcm.chunks(block) {
                let mut b: Vec<u32> = chunk.to_vec();
                b.sort_by_key(|&e| adjacency[e as usize].len());
                out.extend(b);
            }
            out
        }
    }
}

/// Classical reverse Cuthill-McKee on an undirected graph given as
/// adjacency lists. Handles disconnected graphs by restarting from the
/// lowest-degree unvisited vertex.
pub fn reverse_cuthill_mckee(n: usize, adjacency: &[Vec<u32>]) -> Vec<u32> {
    assert_eq!(adjacency.len(), n);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    // Vertices sorted by degree for start selection.
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| adjacency[v as usize].len());

    for &start in &by_degree {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nb: Vec<u32> = adjacency[v as usize]
                .iter()
                .copied()
                .filter(|&w| !visited[w as usize])
                .collect();
            nb.sort_by_key(|&w| adjacency[w as usize].len());
            for w in nb {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Bandwidth of the adjacency structure under a permutation: the maximum
/// |position(a) − position(b)| over all edges. RCM exists to shrink this.
pub fn graph_bandwidth(perm: &[u32], adjacency: &[Vec<u32>]) -> usize {
    let mut pos = vec![0usize; perm.len()];
    for (i, &e) in perm.iter().enumerate() {
        pos[e as usize] = i;
    }
    let mut bw = 0usize;
    for (v, nb) in adjacency.iter().enumerate() {
        for &w in nb {
            bw = bw.max(pos[v].abs_diff(pos[w as usize]));
        }
    }
    bw
}

/// Renumber global points by first touch in the (permuted) element order —
/// the "renumbering the global index table" of §4.2, which gives spatial
/// locality to the global arrays. Returns `(new_ibool, old_to_new)`.
pub fn renumber_points_first_touch(
    ibool: &[u32],
    perm: &[u32],
    points_per_element: usize,
    nglob: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut old_to_new = vec![u32::MAX; nglob];
    let mut next = 0u32;
    for &e in perm {
        let base = e as usize * points_per_element;
        for &g in &ibool[base..base + points_per_element] {
            if old_to_new[g as usize] == u32::MAX {
                old_to_new[g as usize] = next;
                next += 1;
            }
        }
    }
    assert_eq!(next as usize, nglob, "ibool does not cover all points");
    let new_ibool = ibool.iter().map(|&g| old_to_new[g as usize]).collect();
    (new_ibool, old_to_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registry_deduplicates_within_tolerance() {
        let mut reg = PointRegistry::new(0.5);
        let a = reg.get_or_insert([100.0, 200.0, 300.0]);
        let b = reg.get_or_insert([100.0 + 1e-7, 200.0, 300.0 - 1e-7]);
        let c = reg.get_or_insert([101.0, 200.0, 300.0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_matches_across_cell_boundaries() {
        // Tolerance 0.5 m: cells of 128 m centred on multiples of 128, so
        // 64 m is a cell face — and 1 m a face of the reference's 2 m cells.
        for face in [64.0, -64.0, 1.0] {
            let mut reg = PointRegistry::new(0.5);
            let a = reg.get_or_insert([face - 1e-7, face, -face]);
            let b = reg.get_or_insert([face + 1e-7, face, -face]);
            assert_eq!(a, b, "straddling the face at {face}");
            assert_eq!(reg.len(), 1);
        }
    }

    #[test]
    fn unique_points_take_the_next_id_and_are_never_matched() {
        let mut reg = PointRegistry::new(0.5);
        let a = reg.get_or_insert([1.0, 2.0, 3.0]);
        let u = reg.insert_unique([10.0, 20.0, 30.0]);
        let again = reg.get_or_insert([10.0, 20.0, 30.0]);
        assert_eq!((a, u, again), (0, 1, 2));
        assert_eq!(reg.into_coords().len(), 3);
    }

    #[test]
    fn table_growth_keeps_every_point_findable() {
        let mut reg = PointRegistry::new(0.05);
        let point = |i: u32| [i as f64 * 100.0, -(i as f64) * 37.0, (i % 97) as f64 * 50.0];
        for i in 0..5_000 {
            assert_eq!(reg.get_or_insert(point(i)), i);
        }
        assert!(reg.slots.len() > 1024, "the table must have grown");
        for i in 0..5_000 {
            assert_eq!(reg.get_or_insert(point(i)), i);
        }
    }

    /// The 27-probe `HashMap` registry the cell table replaced, kept as
    /// the oracle of the differential test below.
    struct ReferenceRegistry {
        cell: f64,
        tol2: f64,
        map: std::collections::HashMap<(i64, i64, i64), Vec<u32>>,
        coords: Vec<[f64; 3]>,
    }

    impl ReferenceRegistry {
        fn new(tolerance: f64) -> Self {
            Self {
                cell: 4.0 * tolerance,
                tol2: tolerance * tolerance,
                map: std::collections::HashMap::new(),
                coords: Vec::new(),
            }
        }

        fn get_or_insert(&mut self, p: [f64; 3]) -> u32 {
            let key = |x: f64| (x / self.cell).round() as i64;
            let (kx, ky, kz) = (key(p[0]), key(p[1]), key(p[2]));
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        if let Some(ids) = self.map.get(&(kx + dx, ky + dy, kz + dz)) {
                            for &id in ids {
                                let q = self.coords[id as usize];
                                let d2 = (p[0] - q[0]).powi(2)
                                    + (p[1] - q[1]).powi(2)
                                    + (p[2] - q[2]).powi(2);
                                if d2 <= self.tol2 {
                                    return id;
                                }
                            }
                        }
                    }
                }
            }
            let id = self.coords.len() as u32;
            self.coords.push(p);
            self.map.entry((kx, ky, kz)).or_default().push(id);
            id
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Identical id sequence, count and representative coordinates as
        /// the reference, on clouds built to hurt: several points per cell,
        /// negative coordinates, anchors within 1e-9 of the faces, edges
        /// and corners of both registries' cells, and around every anchor
        /// copies jittered below, at and beyond the tolerance (chains of
        /// near-points included, where the probe order decides the answer).
        #[test]
        fn cell_table_numbers_points_exactly_like_the_reference(
            anchors in prop::collection::vec(
                (
                    (-3i64..3, -3i64..3, -3i64..3),
                    (0u8..8, 0u8..4),
                    (-0.5f64..0.5, -0.5f64..0.5, -0.5f64..0.5),
                    -1.0f64..1.0,
                ),
                1..40,
            ),
            copies in prop::collection::vec(
                (0usize..40, (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 0.0f64..2.0),
                0..200,
            ),
        ) {
            let tol = 0.05;
            let mut points: Vec<[f64; 3]> = Vec::new();
            for &((ix, iy, iz), (on_face, grid), (fx, fy, fz), side) in &anchors {
                // Cell edge of the table (`grid` 0, 1), of the reference (2)
                // or a spacing that puts many anchors in one table cell (3).
                let cell = match grid {
                    0 | 1 => CELL_PER_TOLERANCE * tol,
                    2 => 4.0 * tol,
                    _ => 1.0,
                };
                let idx = [ix, iy, iz];
                let frac = [fx, fy, fz];
                let mut p = [0.0; 3];
                for a in 0..3 {
                    // Bit `a` of `on_face` pins this axis to a cell face,
                    // a nanometre to either side of it.
                    let off = if on_face >> a & 1 == 1 {
                        0.5 + side.signum() * 1e-9 / cell
                    } else {
                        frac[a]
                    };
                    p[a] = (idx[a] as f64 + off) * cell;
                }
                points.push(p);
            }
            for &(of, (dx, dy, dz), dist) in &copies {
                let base = points[of % points.len()];
                let norm = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-12);
                let r = dist * tol / norm;
                points.push([base[0] + dx * r, base[1] + dy * r, base[2] + dz * r]);
            }

            let mut table = PointRegistry::new(tol);
            let mut reference = ReferenceRegistry::new(tol);
            for (n, &p) in points.iter().enumerate() {
                prop_assert_eq!(
                    table.get_or_insert(p),
                    reference.get_or_insert(p),
                    "point {} = {:?}", n, p
                );
            }
            prop_assert_eq!(table.len(), reference.coords.len());
            prop_assert_eq!(table.into_coords(), reference.coords);
        }
    }

    #[test]
    fn registry_coords_roundtrip() {
        let mut reg = PointRegistry::new(0.1);
        let p = [1.0, 2.0, 3.0];
        let id = reg.get_or_insert(p);
        let coords = reg.into_coords();
        assert_eq!(coords[id as usize], p);
    }

    /// A path graph 0-1-2-…-n: RCM ordering must give bandwidth 1.
    #[test]
    fn rcm_on_path_graph_is_optimal() {
        let n = 50;
        let adjacency: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut nb = Vec::new();
                if i > 0 {
                    nb.push((i - 1) as u32);
                }
                if i + 1 < n {
                    nb.push((i + 1) as u32);
                }
                nb
            })
            .collect();
        let perm = reverse_cuthill_mckee(n, &adjacency);
        assert_eq!(perm.len(), n);
        assert_eq!(graph_bandwidth(&perm, &adjacency), 1);
    }

    #[test]
    fn rcm_beats_random_on_grid_graph() {
        // 2-D grid graph 20×20.
        let (w, h) = (20usize, 20usize);
        let n = w * h;
        let idx = |x: usize, y: usize| (y * w + x) as u32;
        let adjacency: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let (x, y) = (v % w, v / w);
                let mut nb = Vec::new();
                if x > 0 {
                    nb.push(idx(x - 1, y));
                }
                if x + 1 < w {
                    nb.push(idx(x + 1, y));
                }
                if y > 0 {
                    nb.push(idx(x, y - 1));
                }
                if y + 1 < h {
                    nb.push(idx(x, y + 1));
                }
                nb
            })
            .collect();
        let rcm = element_permutation(ElementOrder::CuthillMcKee, n, &adjacency);
        let rnd = element_permutation(ElementOrder::Random(1), n, &adjacency);
        let bw_rcm = graph_bandwidth(&rcm, &adjacency);
        let bw_rnd = graph_bandwidth(&rnd, &adjacency);
        assert!(
            bw_rcm * 4 < bw_rnd,
            "RCM bandwidth {bw_rcm} not ≪ random {bw_rnd}"
        );
        // Grid RCM bandwidth should be close to the grid width.
        assert!(bw_rcm <= 2 * w);
    }

    #[test]
    fn all_orders_are_permutations() {
        let n = 30;
        let adjacency: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..n as u32)
                    .filter(|&j| j as usize != i && (j as usize).abs_diff(i) <= 3)
                    .collect()
            })
            .collect();
        for order in [
            ElementOrder::Natural,
            ElementOrder::Random(7),
            ElementOrder::CuthillMcKee,
            ElementOrder::MultilevelCuthillMcKee { block: 8 },
        ] {
            let mut p = element_permutation(order, n, &adjacency);
            p.sort_unstable();
            let expect: Vec<u32> = (0..n as u32).collect();
            assert_eq!(p, expect, "{order:?} is not a permutation");
        }
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let adjacency = vec![vec![1], vec![0], vec![3], vec![2], vec![]];
        let mut p = reverse_cuthill_mckee(5, &adjacency);
        p.sort_unstable();
        assert_eq!(p, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn first_touch_renumbering_is_a_bijection_and_monotone() {
        // 3 elements × 2 points, 4 global points, natural order.
        let ibool = vec![2, 3, 3, 1, 1, 0];
        let perm = vec![0, 1, 2];
        let (new_ibool, old_to_new) = renumber_points_first_touch(&ibool, &perm, 2, 4);
        // First touches: 2→0, 3→1, 1→2, 0→3.
        assert_eq!(old_to_new, vec![3, 2, 0, 1]);
        assert_eq!(new_ibool, vec![0, 1, 1, 2, 2, 3]);
    }
}
