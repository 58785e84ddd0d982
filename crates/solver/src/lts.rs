//! Clustered local time stepping (LTS) — the solver half.
//!
//! `specfem_mesh::lts` buckets elements into rate-2^k clusters from their
//! per-element Courant bound; this module holds the run-time state the
//! step pipeline needs to *act* on those clusters: per-level element lists
//! split along the existing outer/inner halo boundary, frozen
//! force-contribution buffers, and per-level attenuation recursion
//! constants. LTS is not a second loop: it only changes what the
//! pipeline's `compute(range)` does — refresh the active clusters'
//! contributions inside `range`, then scatter `range` in ascending order.
//!
//! ## Force-freezing scheme
//!
//! Every fine step advances **every** grid point with the Newmark scheme at
//! the global `dt` — only the expensive stiffness kernels (>70 % of runtime,
//! paper §4.3) are gated. A cluster of rate `r` recomputes its elements'
//! force contributions only on steps with `istep % r == 0`; in between, the
//! contributions stay frozen in per-element buffers. Each fine step a single
//! canonical scatter pass — ascending local element order, the same order
//! the plain element loop uses — adds every element's (fresh or frozen)
//! contribution into the assembled `accel`/`chi_ddot`.
//!
//! ## Why rate 1 is bit-identical to the plain loop
//!
//! The kernels read only `displ`/`chi` (plus their own attenuation memory)
//! and the per-point value they emit — `−accum` (or `−accum + body` under
//! gravity) — is the identical f32 expression whether it is `+=`-ed directly
//! (plain path) or stored then `+=`-ed by the scatter (LTS path): IEEE-754
//! `a -= x` ≡ `a += (-x)`. Within one element every local node maps to a
//! distinct global point, so per (point, component) there is exactly one
//! addition per element and the scatter's loop nesting cannot reorder it;
//! across elements the scatter runs ascending, matching the plain loop.
//! `tests/lts_equivalence.rs` enforces 0-ULP equality end to end.

use specfem_kernels::FlopCounter;
use specfem_mesh::{LocalMesh, LtsClusters};
use specfem_model::attenuation::N_SLS;

use crate::forces::AttenuationState;

/// One rate-2^k cluster, its element list split along the outer/inner halo
/// boundary so the overlapped exchange can refresh outer elements before
/// posting and inner elements while messages are in flight.
#[derive(Debug, Clone)]
pub struct LtsLevel {
    /// Refresh period in fine steps (power of two).
    pub rate: u32,
    /// Cluster elements touching a halo point (ascending, `< nspec_outer`).
    pub outer: Vec<u32>,
    /// Cluster elements touching no halo point (ascending).
    pub inner: Vec<u32>,
    /// SLS recursion constants fitted at `rate·dt` (attenuation runs on the
    /// cluster's own refresh period); `None` when attenuation is off. At
    /// rate 1 these are bitwise equal to the base constants.
    pub atten: Option<([f32; N_SLS], [f32; N_SLS])>,
}

impl LtsLevel {
    /// Whether this cluster refreshes its forces on fine step `istep`.
    pub fn active(&self, istep: usize) -> bool {
        istep.is_multiple_of(self.rate as usize)
    }

    /// Local elements in this cluster.
    pub fn len(&self) -> usize {
        self.outer.len() + self.inner.len()
    }

    /// Whether the cluster is empty on this rank.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty() && self.inner.is_empty()
    }

    /// The cluster's elements inside the local element `range`, ascending
    /// (the outer part, then the inner part).
    pub fn elements_in(&self, range: &std::ops::Range<usize>) -> [&[u32]; 2] {
        [&self.outer, &self.inner].map(|list| {
            let lo = list.partition_point(|&e| (e as usize) < range.start);
            let hi = list.partition_point(|&e| (e as usize) < range.end);
            &list[lo..hi]
        })
    }
}

/// Per-rank LTS run-time state: the cluster levels plus the frozen force
/// contributions of every local element.
#[derive(Debug, Clone)]
pub struct LtsState {
    /// Refresh rate per local element.
    pub rate_of: Vec<u32>,
    /// The configured `LTS_MAX_RATE` cap — the checkpoint alignment unit:
    /// every assigned rate is a power of two dividing it.
    pub cap: u32,
    /// Clusters present on this rank, ascending rate.
    pub levels: Vec<LtsLevel>,
    /// Frozen solid force contributions, `[(e·n³ + l)·3 + c]`.
    pub solid_contrib: Vec<f32>,
    /// Frozen fluid force contributions, `[e·n³ + l]`.
    pub fluid_contrib: Vec<f32>,
    /// Element-steps whose stiffness kernel was skipped this run (the work
    /// LTS saved; a plain run computes `nspec` element-steps per step).
    pub element_steps_saved: u64,
}

impl LtsState {
    /// Build the run-time state from a per-element rate assignment.
    /// `atten` carries `(dt, shortest_period_s)` when attenuation is on so
    /// each level gets recursion constants fitted at its own `rate·dt`.
    pub fn new(mesh: &LocalMesh, rate_of: Vec<u32>, cap: u32, atten: Option<(f64, f64)>) -> Self {
        assert_eq!(rate_of.len(), mesh.nspec, "one rate per local element");
        let n3 = mesh.points_per_element();
        let mut rates: Vec<u32> = rate_of.clone();
        rates.sort_unstable();
        rates.dedup();
        let levels = rates
            .into_iter()
            .map(|rate| {
                let mut outer = Vec::new();
                let mut inner = Vec::new();
                for (e, &r) in rate_of.iter().enumerate() {
                    if r == rate {
                        if e < mesh.nspec_outer {
                            outer.push(e as u32);
                        } else {
                            inner.push(e as u32);
                        }
                    }
                }
                let atten = atten.map(|(dt, period)| {
                    AttenuationState::update_constants(rate as f64 * dt, period)
                });
                LtsLevel {
                    rate,
                    outer,
                    inner,
                    atten,
                }
            })
            .collect();
        Self {
            rate_of,
            cap,
            levels,
            solid_contrib: vec![0.0; mesh.nspec * n3 * 3],
            fluid_contrib: vec![0.0; mesh.nspec * n3],
            element_steps_saved: 0,
        }
    }

    /// Build from the mesh's per-element Courant bounds (the production
    /// path; `LtsClusters::assign` does the 2^k bucketing).
    pub fn from_mesh(mesh: &LocalMesh, dt: f64, cap: usize, atten: Option<(f64, f64)>) -> Self {
        let dts = specfem_mesh::element_dts(mesh);
        let clusters = LtsClusters::assign(&dts, dt, cap);
        Self::new(mesh, clusters.rate_of, cap as u32, atten)
    }

    /// Per-step bookkeeping once both force phases ran: the scatters'
    /// per-point adds (3 per solid point, 1 per fluid point — so flop
    /// accounting stays comparable with direct-kernel runs), and the
    /// element-steps the inactive clusters skipped (tallied once per
    /// element per fine step).
    pub fn end_step(&mut self, mesh: &LocalMesh, istep: usize, flops: &mut FlopCounter) {
        let n3 = mesh.points_per_element();
        let nfluid = mesh.region.iter().filter(|r| r.is_fluid()).count();
        flops.add_raw(((mesh.nspec - nfluid) * n3 * 3 + nfluid * n3) as u64);
        for lv in &self.levels {
            if !lv.active(istep) {
                self.element_steps_saved += lv.len() as u64;
            }
        }
    }

    /// Package the run's LTS telemetry.
    pub fn summary(&self, nspec: usize, steps_run: usize) -> LtsSummary {
        let total = nspec as u64 * steps_run as u64;
        let computed = total.saturating_sub(self.element_steps_saved);
        LtsSummary {
            max_rate: self.cap,
            levels: self.levels.iter().map(|l| (l.rate, l.len())).collect(),
            element_steps_saved: self.element_steps_saved,
            element_steps_total: total,
            theoretical_speedup: if computed > 0 {
                total as f64 / computed as f64
            } else {
                1.0
            },
        }
    }
}

/// What a rank reports about its LTS run (attached to `RankResult`).
#[derive(Debug, Clone)]
pub struct LtsSummary {
    /// Configured `LTS_MAX_RATE`.
    pub max_rate: u32,
    /// `(rate, local element count)` per cluster present on the rank.
    pub levels: Vec<(u32, usize)>,
    /// Stiffness element-steps skipped (frozen instead of recomputed).
    pub element_steps_saved: u64,
    /// Element-steps a plain run would compute (`nspec × steps`).
    pub element_steps_total: u64,
    /// Kernel-work speedup implied by the skip count
    /// (`total / (total − saved)`).
    pub theoretical_speedup: f64,
}

/// Add the frozen contribution of every element of one medium in `range`
/// into its right-hand side (`accel`, `ncomp = 3`, for the solid elements;
/// `chi_ddot`, `ncomp = 1`, for the fluid ones) — the canonical ascending
/// scatter the bit-identity argument relies on. Elements of the other
/// medium are *skipped*, not added as stored zeros: `−0.0 + 0.0` would
/// flip the sign bit of a negative zero.
pub fn scatter(
    mesh: &LocalMesh,
    contrib: &[f32],
    rhs: &mut [f32],
    ncomp: usize,
    range: std::ops::Range<usize>,
) {
    let n3 = mesh.points_per_element();
    for e in range {
        if mesh.region[e].is_fluid() != (ncomp == 1) {
            continue;
        }
        let base = e * n3;
        let ib = &mesh.ibool[base..base + n3];
        for (l, &p) in ib.iter().enumerate() {
            let (src, dst) = ((base + l) * ncomp, p as usize * ncomp);
            for c in 0..ncomp {
                rhs[dst + c] += contrib[src + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::Prem;

    fn local_mesh() -> LocalMesh {
        let params = MeshParams::new(4, 1);
        let gm = GlobalMesh::build(&params, &Prem::isotropic_no_ocean());
        Partition::serial(&gm).extract(&gm, 0)
    }

    #[test]
    fn levels_partition_the_elements_along_the_halo_split() {
        let mesh = local_mesh();
        let dts = specfem_mesh::element_dts(&mesh);
        let dt = dts.iter().cloned().fold(f64::INFINITY, f64::min);
        let state = LtsState::from_mesh(&mesh, dt, 8, None);
        let mut seen = vec![false; mesh.nspec];
        for lv in &state.levels {
            for &e in &lv.outer {
                assert!((e as usize) < mesh.nspec_outer);
                assert!(!std::mem::replace(&mut seen[e as usize], true));
            }
            for &e in &lv.inner {
                assert!((e as usize) >= mesh.nspec_outer);
                assert!(!std::mem::replace(&mut seen[e as usize], true));
            }
            assert!(lv.outer.windows(2).all(|w| w[0] < w[1]));
            assert!(lv.inner.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(lv.len(), lv.outer.len() + lv.inner.len());
            assert!(!lv.is_empty());
        }
        assert!(
            seen.iter().all(|&s| s),
            "every element in exactly one level"
        );
    }

    #[test]
    fn rate_one_attenuation_constants_match_the_base_state() {
        let mesh = local_mesh();
        let dt = 0.1;
        let period = 40.0;
        let state = LtsState::new(&mesh, vec![1; mesh.nspec], 1, Some((dt, period)));
        let base = AttenuationState::new(&mesh, dt, period);
        let (alpha, beta) = state.levels[0].atten.unwrap();
        assert_eq!(alpha.map(f32::to_bits), base.alpha.map(f32::to_bits));
        assert_eq!(beta.map(f32::to_bits), base.beta_unit.map(f32::to_bits));
    }

    #[test]
    fn activation_schedule_follows_the_rate() {
        let lv = LtsLevel {
            rate: 4,
            outer: vec![0],
            inner: vec![],
            atten: None,
        };
        let active: Vec<usize> = (0..10).filter(|&s| lv.active(s)).collect();
        assert_eq!(active, vec![0, 4, 8]);
    }

    #[test]
    fn summary_accounts_saved_steps() {
        let mesh = local_mesh();
        let mut state = LtsState::new(&mesh, vec![1; mesh.nspec], 4, None);
        state.element_steps_saved = (mesh.nspec as u64) * 5;
        let s = state.summary(mesh.nspec, 20);
        assert_eq!(s.element_steps_total, mesh.nspec as u64 * 20);
        assert_eq!(s.element_steps_saved, mesh.nspec as u64 * 5);
        assert!((s.theoretical_speedup - 20.0 / 15.0).abs() < 1e-12);
    }
}
