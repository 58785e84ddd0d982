//! Earthquake sources and seismogram receivers.
//!
//! The earthquake is the point moment tensor of paper eq. (3): in the weak
//! form its contribution to the test function `w` is `M : ∇w(x_s) S(t)`, so
//! the discrete force on element node `p`, component `c`, is
//! `F_pc = S(t) Σ_b M_cb ∂φ_p/∂x_b (ξ_s)` — SPECFEM's "source array".
//! Receivers read the wave field back out at located stations, either
//! through Lagrange interpolation at the exact reference coordinates or at
//! the nearest grid point (paper §4.4-2).

use specfem_gll::lagrange::{lagrange_deriv_weights_at, lagrange_weights_at};
use specfem_mesh::stations::{
    locate_point_exact, locate_station_exact, locate_station_nearest, Station, StationLocation,
};
use specfem_mesh::LocalMesh;
use specfem_model::{CmtSource, SourceTimeFunction, StfKind};

use crate::assemble::WaveFields;

/// What shakes the Earth.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// No source (free oscillation of initial conditions).
    None,
    /// CMT moment-tensor point source.
    Cmt {
        event: CmtSource,
        stf: SourceTimeFunction,
    },
    /// Simple point force (validation runs).
    PointForce {
        /// Position (m, Cartesian).
        position: [f64; 3],
        /// Force direction and magnitude (N).
        force: [f64; 3],
        stf: SourceTimeFunction,
    },
    /// A point force driven by a sampled time series — the adjoint source
    /// (the time-reversed seismogram injected at the receiver, ref [13]).
    Trace {
        /// Position (m, Cartesian).
        position: [f64; 3],
        /// Force samples (N) at `trace_dt` spacing.
        trace: Vec<[f32; 3]>,
        /// Sample spacing (s).
        trace_dt: f64,
    },
}

impl Default for SourceSpec {
    fn default() -> Self {
        SourceSpec::PointForce {
            position: [0.0, 0.0, 6_000_000.0],
            force: [0.0, 0.0, 1.0e15],
            stf: SourceTimeFunction::new(StfKind::Ricker, 60.0),
        }
    }
}

/// One event lane of a run: its earthquake and the stations whose
/// seismograms it owes. A plain run is one lane; a fused K-event run
/// shares the mesh, the physics and the halo exchange across K of them.
#[derive(Debug, Clone)]
pub struct EventLane {
    /// Job/event name (diagnostics only).
    pub name: String,
    /// The lane's source.
    pub source: SourceSpec,
    /// The lane's station set.
    pub stations: Vec<Station>,
}

/// Precomputed nodal force coefficients of the source on its element.
#[derive(Debug, Clone, Default)]
pub struct SourceArrays {
    /// `(local point, force per unit S(t))` — ready to add each step.
    pub entries: Vec<(u32, [f32; 3])>,
    /// The source-time function.
    pub stf: Option<SourceTimeFunction>,
    /// Sampled drive: `(per-node interpolation weights, samples, dt)` for
    /// the adjoint/trace source.
    #[allow(clippy::type_complexity)]
    pub trace: Option<(Vec<(u32, f32)>, Vec<[f32; 3]>, f64)>,
    /// Distance between requested and located source position (m).
    pub location_error_m: f64,
}

impl SourceArrays {
    /// Build the source arrays on this rank's mesh. Every rank calls this;
    /// whether *this* rank applies the source is decided collectively (see
    /// [`SourceArrays::locate_cost`]) — the rank with the best fit wins.
    pub fn build(mesh: &LocalMesh, spec: &SourceSpec) -> SourceArrays {
        match spec {
            SourceSpec::None => SourceArrays::default(),
            SourceSpec::PointForce {
                position,
                force,
                stf,
            } => {
                let loc = locate_point_exact(mesh, *position);
                let n3 = mesh.points_per_element();
                let np = mesh.basis.npoints();
                let hx = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[0]);
                let hy = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[1]);
                let hz = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[2]);
                let mut entries = Vec::with_capacity(n3);
                for k in 0..np {
                    for j in 0..np {
                        for i in 0..np {
                            let l = (k * np + j) * np + i;
                            let w = hx[i] * hy[j] * hz[k];
                            if w.abs() < 1e-14 {
                                continue;
                            }
                            let p = mesh.ibool[loc.element * n3 + l];
                            entries.push((
                                p,
                                [
                                    (w * force[0]) as f32,
                                    (w * force[1]) as f32,
                                    (w * force[2]) as f32,
                                ],
                            ));
                        }
                    }
                }
                SourceArrays {
                    entries,
                    stf: Some(*stf),
                    trace: None,
                    location_error_m: loc.position_error_m,
                }
            }
            SourceSpec::Trace {
                position,
                trace,
                trace_dt,
            } => {
                let loc = locate_point_exact(mesh, *position);
                let n3 = mesh.points_per_element();
                let np = mesh.basis.npoints();
                let hx = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[0]);
                let hy = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[1]);
                let hz = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[2]);
                let mut weights = Vec::new();
                for k in 0..np {
                    for j in 0..np {
                        for i in 0..np {
                            let w = (hx[i] * hy[j] * hz[k]) as f32;
                            if w.abs() > 1e-12 {
                                let l = (k * np + j) * np + i;
                                weights.push((mesh.ibool[loc.element * n3 + l], w));
                            }
                        }
                    }
                }
                SourceArrays {
                    entries: Vec::new(),
                    stf: None,
                    trace: Some((weights, trace.clone(), *trace_dt)),
                    location_error_m: loc.position_error_m,
                }
            }
            SourceSpec::Cmt { event, stf } => {
                let target = event.position();
                let loc = locate_point_exact(mesh, target);
                let m = event.tensor_cartesian();
                let n3 = mesh.points_per_element();
                let np = mesh.basis.npoints();
                let nodes = mesh.element_nodes(loc.element);
                let hx = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[0]);
                let hy = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[1]);
                let hz = lagrange_weights_at(&mesh.basis.points, loc.ref_coords[2]);
                let dx = lagrange_deriv_weights_at(&mesh.basis.points, loc.ref_coords[0]);
                let dy = lagrange_deriv_weights_at(&mesh.basis.points, loc.ref_coords[1]);
                let dz = lagrange_deriv_weights_at(&mesh.basis.points, loc.ref_coords[2]);
                // Jacobian ∂x/∂ξ at the source point, then invert.
                let mut jac = [[0.0f64; 3]; 3];
                for k in 0..np {
                    for j in 0..np {
                        for i in 0..np {
                            let p = nodes[(k * np + j) * np + i];
                            let wx = dx[i] * hy[j] * hz[k];
                            let wy = hx[i] * dy[j] * hz[k];
                            let wz = hx[i] * hy[j] * dz[k];
                            for c in 0..3 {
                                jac[c][0] += wx * p[c];
                                jac[c][1] += wy * p[c];
                                jac[c][2] += wz * p[c];
                            }
                        }
                    }
                }
                let inv = invert3(&jac);
                // G_pb = ∂φ_p/∂x_b = Σ_dir ∂φ_p/∂ξ_dir · ∂ξ_dir/∂x_b.
                let mut entries = Vec::with_capacity(n3);
                for k in 0..np {
                    for j in 0..np {
                        for i in 0..np {
                            let dphi_dref = [
                                dx[i] * hy[j] * hz[k],
                                hx[i] * dy[j] * hz[k],
                                hx[i] * hy[j] * dz[k],
                            ];
                            let mut g = [0.0f64; 3];
                            for (b, gb) in g.iter_mut().enumerate() {
                                for dir in 0..3 {
                                    *gb += dphi_dref[dir] * inv[dir][b];
                                }
                            }
                            // F_c = Σ_b M_cb G_b (per unit S(t)).
                            let mut fc = [0.0f32; 3];
                            for c in 0..3 {
                                let mut acc = 0.0;
                                for b in 0..3 {
                                    acc += m[c][b] * g[b];
                                }
                                fc[c] = acc as f32;
                            }
                            if fc.iter().any(|v| v.abs() > 0.0) {
                                let l = (k * np + j) * np + i;
                                entries.push((mesh.ibool[loc.element * n3 + l], fc));
                            }
                        }
                    }
                }
                SourceArrays {
                    entries,
                    stf: Some(*stf),
                    trace: None,
                    location_error_m: loc.position_error_m,
                }
            }
        }
    }

    /// The quantity minimized across ranks to pick the applying rank.
    pub fn locate_cost(&self) -> f64 {
        if self.entries.is_empty() && self.trace.is_none() {
            f64::INFINITY
        } else {
            self.location_error_m
        }
    }

    /// Add the source force at time `t` to lane `lane` of the solid
    /// acceleration RHS.
    pub fn apply(&self, t: f64, fields: &mut WaveFields, lane: usize) {
        let k = fields.k;
        if let Some((weights, samples, dt)) = &self.trace {
            let idx = (t / dt).round() as usize;
            let Some(s) = samples.get(idx) else { return };
            for &(p, w) in weights {
                let o = p as usize * 3 * k + lane;
                fields.accel[o] += w * s[0];
                fields.accel[o + k] += w * s[1];
                fields.accel[o + 2 * k] += w * s[2];
            }
            return;
        }
        let Some(stf) = &self.stf else { return };
        let s = stf.eval(t) as f32;
        if s == 0.0 {
            return;
        }
        for &(p, f) in &self.entries {
            let o = p as usize * 3 * k + lane;
            fields.accel[o] += s * f[0];
            fields.accel[o + k] += s * f[1];
            fields.accel[o + 2 * k] += s * f[2];
        }
    }
}

fn invert3(m: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    let inv = 1.0 / det;
    let mut out = [[0.0f64; 3]; 3];
    out[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv;
    out[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv;
    out[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv;
    out[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv;
    out[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv;
    out[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv;
    out[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv;
    out[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv;
    out[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv;
    out
}

/// One recorded seismogram: a 3-component time series at a station.
#[derive(Debug, Clone, PartialEq)]
pub struct Seismogram {
    /// Station name.
    pub station: String,
    /// Sample interval (s).
    pub dt: f64,
    /// Velocity samples `[vx, vy, vz]`.
    pub data: Vec<[f32; 3]>,
}

/// Located stations of one rank.
#[derive(Debug, Clone, Default)]
pub struct ReceiverSet {
    located: Vec<(Station, StationLocation)>,
    records: Vec<Vec<[f32; 3]>>,
}

impl ReceiverSet {
    /// Locate `stations` in this rank's mesh using the exact or
    /// nearest-grid-point algorithm.
    pub fn locate(mesh: &LocalMesh, stations: &[Station], exact: bool) -> Self {
        let located: Vec<(Station, StationLocation)> = stations
            .iter()
            .map(|s| {
                let loc = if exact {
                    locate_station_exact(mesh, s)
                } else {
                    locate_station_nearest(mesh, s)
                };
                (s.clone(), loc)
            })
            .collect();
        let records = vec![Vec::new(); located.len()];
        Self { located, records }
    }

    /// Number of stations in the set.
    pub fn len(&self) -> usize {
        self.located.len()
    }

    /// True when no stations are located.
    pub fn is_empty(&self) -> bool {
        self.located.is_empty()
    }

    /// Per-station location errors (m), in input order.
    pub fn errors(&self) -> Vec<f64> {
        self.located
            .iter()
            .map(|(_, l)| l.position_error_m)
            .collect()
    }

    /// Keep only the stations with `keep[i] == true` — used to assign each
    /// station to the one rank that located it best.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.located.len());
        let mut it = keep.iter();
        self.located.retain(|_| *it.next().unwrap());
        let mut it = keep.iter();
        self.records.retain(|_| *it.next().unwrap());
    }

    /// Largest location error over the set (m).
    pub fn worst_error_m(&self) -> f64 {
        self.located
            .iter()
            .map(|(_, l)| l.position_error_m)
            .fold(0.0, f64::max)
    }

    /// Record lane `lane`'s current velocity at every station.
    pub fn record(&mut self, mesh: &LocalMesh, fields: &WaveFields, lane: usize) {
        let n3 = mesh.points_per_element();
        let k = fields.k;
        for ((_, loc), rec) in self.located.iter().zip(&mut self.records) {
            let ev = loc.evaluator(&mesh.basis.points);
            let base = loc.element * n3;
            let mut v = [0.0f32; 3];
            for c in 0..3 {
                let comp: Vec<f64> = mesh.ibool[base..base + n3]
                    .iter()
                    .map(|&p| fields.veloc[(p as usize * 3 + c) * k + lane] as f64)
                    .collect();
                v[c] = ev.interpolate(&comp) as f32;
            }
            rec.push(v);
        }
    }

    /// Station names in located order (checkpoint identity check).
    pub fn station_names(&self) -> Vec<String> {
        self.located.iter().map(|(s, _)| s.name.clone()).collect()
    }

    /// The accumulated velocity records, one series per station.
    pub fn records(&self) -> &[Vec<[f32; 3]>] {
        &self.records
    }

    /// Replace the accumulated records (checkpoint restore). The checkpoint
    /// may carry a superset of this set's stations — a merged container
    /// written at a different world size holds every rank's stations — but
    /// every station this set owns must be present by name.
    pub fn restore_records(&mut self, named: Vec<(String, Vec<[f32; 3]>)>) -> Result<(), String> {
        let mut by_name: std::collections::HashMap<String, Vec<[f32; 3]>> =
            named.into_iter().collect();
        let mut records = Vec::with_capacity(self.located.len());
        for (station, _) in &self.located {
            match by_name.remove(&station.name) {
                Some(rec) => records.push(rec),
                None => {
                    return Err(format!(
                    "station mismatch: solver owns '{}' but the checkpoint has no record for it",
                    station.name
                ))
                }
            }
        }
        self.records = records;
        Ok(())
    }

    /// Finish: package the records as seismograms with sample spacing
    /// `dt_samples`.
    pub fn into_seismograms(self, dt_samples: f64) -> Vec<Seismogram> {
        self.located
            .into_iter()
            .zip(self.records)
            .map(|((s, _), data)| Seismogram {
                station: s.name,
                dt: dt_samples,
                data,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_mesh::{GlobalMesh, MeshParams, Partition};
    use specfem_model::{builtin_events, Prem};

    fn serial_mesh() -> LocalMesh {
        let params = MeshParams::new(4, 1);
        let prem = Prem::isotropic_no_ocean();
        let gm = GlobalMesh::build(&params, &prem);
        Partition::serial(&gm).extract(&gm, 0)
    }

    #[test]
    fn point_force_weights_sum_to_total_force() {
        // Σ_p φ_p = 1 at any point → the nodal forces sum to the force.
        let mesh = serial_mesh();
        let spec = SourceSpec::PointForce {
            position: [1.0e6, 2.0e6, 5.5e6],
            force: [3.0e14, -1.0e14, 2.0e14],
            stf: SourceTimeFunction::new(StfKind::Gaussian, 30.0),
        };
        let arrays = SourceArrays::build(&mesh, &spec);
        let mut total = [0.0f64; 3];
        for (_, f) in &arrays.entries {
            for c in 0..3 {
                total[c] += f[c] as f64;
            }
        }
        assert!((total[0] - 3.0e14).abs() < 1e9);
        assert!((total[1] + 1.0e14).abs() < 1e9);
        assert!((total[2] - 2.0e14).abs() < 1e9);
    }

    #[test]
    fn cmt_source_nodal_forces_sum_to_zero() {
        // A moment tensor exerts zero net force: Σ_p F_p = M·Σ_p ∇φ_p = 0
        // because Σφ_p ≡ 1.
        let mesh = serial_mesh();
        let event = builtin_events().remove(0);
        let spec = SourceSpec::Cmt {
            stf: SourceTimeFunction::new(StfKind::Gaussian, 20.0),
            event,
        };
        let arrays = SourceArrays::build(&mesh, &spec);
        assert!(!arrays.entries.is_empty());
        let mut total = [0.0f64; 3];
        let mut scale = 0.0f64;
        for (_, f) in &arrays.entries {
            for c in 0..3 {
                total[c] += f[c] as f64;
                scale += (f[c] as f64).abs();
            }
        }
        for c in total {
            assert!(c.abs() < 1e-6 * scale, "net force {total:?}, scale {scale}");
        }
    }

    #[test]
    fn source_apply_respects_stf() {
        let mesh = serial_mesh();
        let arrays = SourceArrays::build(&mesh, &SourceSpec::default());
        let mut f0 = WaveFields::zeros(mesh.nglob);
        arrays.apply(0.0, &mut f0, 0); // Ricker at t=0 ≈ 0
        let mut fpeak = WaveFields::zeros(mesh.nglob);
        let tpeak = arrays.stf.unwrap().t_shift;
        arrays.apply(tpeak, &mut fpeak, 0);
        let norm = |f: &WaveFields| {
            f.accel
                .iter()
                .map(|a| a.abs() as f64)
                .fold(0.0f64, f64::max)
        };
        assert!(norm(&fpeak) > 10.0 * norm(&f0).max(1e-12));
    }

    #[test]
    fn none_source_is_inert() {
        let mesh = serial_mesh();
        let arrays = SourceArrays::build(&mesh, &SourceSpec::None);
        assert!(arrays.entries.is_empty());
        assert!(arrays.locate_cost().is_infinite());
        let mut f = WaveFields::zeros(mesh.nglob);
        arrays.apply(5.0, &mut f, 0);
        assert!(f.accel.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn receivers_record_the_field() {
        let mesh = serial_mesh();
        let stations = vec![Station {
            name: "REC1".into(),
            lat_deg: 5.0,
            lon_deg: 5.0,
        }];
        let mut rx = ReceiverSet::locate(&mesh, &stations, true);
        let mut fields = WaveFields::zeros(mesh.nglob);
        fields.veloc.iter_mut().for_each(|v| *v = 2.0);
        rx.record(&mesh, &fields, 0);
        fields.veloc.iter_mut().for_each(|v| *v = -1.0);
        rx.record(&mesh, &fields, 0);
        let seis = rx.into_seismograms(0.1);
        assert_eq!(seis.len(), 1);
        assert_eq!(seis[0].data.len(), 2);
        // Constant field interpolates exactly.
        assert!((seis[0].data[0][0] - 2.0).abs() < 1e-4);
        assert!((seis[0].data[1][2] + 1.0).abs() < 1e-4);
    }
}
