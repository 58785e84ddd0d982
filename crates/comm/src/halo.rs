//! Halo exchange: assembling shared-point contributions across ranks.
//!
//! In the SEM the contributions from all elements sharing a global grid
//! point must be summed before the time step completes (paper §2.4, Figure
//! 3). Points on inter-slice interfaces live on several ranks; each rank
//! holds a *partial* sum. The halo exchange sends each rank's partial values
//! for the shared points to every neighbouring rank and adds the received
//! partials, after which every copy of a shared point holds the full sum —
//! exactly the `assemble_MPI_*` pattern of SPECFEM3D_GLOBE.

use crate::error::CommError;
use crate::request::Request;
use crate::Communicator;

/// One neighbouring rank and the shared points with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbor {
    /// The other rank.
    pub rank: usize,
    /// Local indices of the shared points, ordered by *global* point id so
    /// both sides enumerate identically.
    pub points: Vec<u32>,
}

/// The communication plan of one rank: its neighbours, sorted by rank so
/// that message posting order is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HaloPlan {
    /// Neighbours in ascending rank order.
    pub neighbors: Vec<Neighbor>,
}

impl HaloPlan {
    /// Total shared points over all interfaces (with multiplicity).
    pub fn shared_point_count(&self) -> usize {
        self.neighbors.iter().map(|n| n.points.len()).sum()
    }

    /// Validate internal invariants (sorted neighbours, no self edges,
    /// indices in range for a field of `npoints` points).
    pub fn validate(&self, my_rank: usize, npoints: usize) -> Result<(), String> {
        for w in self.neighbors.windows(2) {
            if w[0].rank >= w[1].rank {
                return Err(format!(
                    "neighbors not strictly ascending: {} then {}",
                    w[0].rank, w[1].rank
                ));
            }
        }
        for n in &self.neighbors {
            if n.rank == my_rank {
                return Err("self edge in halo plan".into());
            }
            if n.points.is_empty() {
                return Err(format!("empty interface with rank {}", n.rank));
            }
            for &p in &n.points {
                if p as usize >= npoints {
                    return Err(format!("point {p} out of range {npoints}"));
                }
            }
        }
        Ok(())
    }
}

/// Sum shared-point contributions of a multi-component field across ranks.
///
/// `field` is laid out `[point * ncomp + component]`. After the call every
/// copy of every shared point holds the sum of all ranks' partials. This is
/// the blocking exchange: [`post_halo_exchange`] followed at once by
/// [`finish_halo_assembly`], an empty overlap window.
pub fn assemble_halo(
    comm: &mut dyn Communicator,
    plan: &HaloPlan,
    field: &mut [f32],
    ncomp: usize,
    tag: u32,
) -> Result<(), CommError> {
    if plan.neighbors.is_empty() {
        return Ok(());
    }
    let _span = specfem_obs::span("comm.halo");
    let reqs = post_halo_exchange(comm, plan, field, ncomp, tag)?;
    finish_halo_assembly(comm, plan, field, ncomp, reqs)
}

/// Post the halo exchange for `field` without completing it: pack and
/// isend this rank's partials to every neighbour (all sends first, which
/// avoids deadlock without ordered pairwise exchanges), post matching
/// irecvs, and return the receive requests (one per neighbour, ascending
/// rank order — the order [`finish_halo_assembly`] completes them in).
///
/// Between `post` and `finish` the caller may do arbitrary computation —
/// the overlap window — **provided it does not write the shared points of
/// `field`**: their partial sums were already captured into the send
/// buffers, so later writes would diverge from what the neighbours see.
pub fn post_halo_exchange(
    comm: &mut dyn Communicator,
    plan: &HaloPlan,
    field: &[f32],
    ncomp: usize,
    tag: u32,
) -> Result<Vec<Request>, CommError> {
    if plan.neighbors.is_empty() {
        return Ok(Vec::new());
    }
    let _span = specfem_obs::span("comm.halo.post");
    for n in &plan.neighbors {
        let mut sendbuf = Vec::with_capacity(n.points.len() * ncomp);
        for &p in &n.points {
            let base = p as usize * ncomp;
            sendbuf.extend_from_slice(&field[base..base + ncomp]);
        }
        comm.isend_f32(n.rank, tag, sendbuf)?;
    }
    let mut reqs = Vec::with_capacity(plan.neighbors.len());
    for n in &plan.neighbors {
        reqs.push(comm.irecv_f32(n.rank, tag)?);
    }
    Ok(reqs)
}

/// Complete a posted halo exchange: wait for each neighbour's partials in
/// ascending rank order and add them into `field`. That fixed combine
/// order is what keeps every halo schedule bit-identical.
///
/// `reqs` must be what [`post_halo_exchange`] returned for the same
/// `plan`. A request count or payload size that does not fit the plan is a
/// [`CommError::Protocol`]; such an error (like any other returned here)
/// leaves the neighbours' not-yet-waited messages queued under their
/// `(src, tag)`, where the next receive on that tag would match them, so
/// the caller must treat it as fatal for the exchange's tag.
pub fn finish_halo_assembly(
    comm: &mut dyn Communicator,
    plan: &HaloPlan,
    field: &mut [f32],
    ncomp: usize,
    reqs: Vec<Request>,
) -> Result<(), CommError> {
    if reqs.len() != plan.neighbors.len() {
        return Err(CommError::Protocol {
            detail: format!(
                "halo finish got {} requests for a plan of {} neighbours",
                reqs.len(),
                plan.neighbors.len()
            ),
        });
    }
    if reqs.is_empty() {
        return Ok(());
    }
    let _span = specfem_obs::span("comm.halo.wait");
    for (n, req) in plan.neighbors.iter().zip(reqs) {
        let recv = comm.wait(req)?;
        if recv.len() != n.points.len() * ncomp {
            return Err(CommError::Protocol {
                detail: format!(
                    "halo size mismatch with rank {}: got {} values, expected {}",
                    n.rank,
                    recv.len(),
                    n.points.len() * ncomp
                ),
            });
        }
        for (i, &p) in n.points.iter().enumerate() {
            let base = p as usize * ncomp;
            for c in 0..ncomp {
                field[base + c] += recv[i * ncomp + c];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recv_now;
    use crate::thread::ThreadWorld;
    use crate::virtual_net::NetworkProfile;

    /// Two ranks sharing points {0, 1}; values should sum.
    #[test]
    fn two_rank_assembly_sums_partials() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            let plan = HaloPlan {
                neighbors: vec![Neighbor {
                    rank: 1 - rank,
                    points: vec![0, 1],
                }],
            };
            // 3 points, 1 component; point 2 is private.
            let mut field = vec![(rank + 1) as f32; 3];
            assemble_halo(&mut comm, &plan, &mut field, 1, 42).unwrap();
            field
        });
        // Shared points: 1 + 2 = 3 on both ranks; private points unchanged.
        assert_eq!(results[0], vec![3.0, 3.0, 1.0]);
        assert_eq!(results[1], vec![3.0, 3.0, 2.0]);
    }

    #[test]
    fn multicomponent_assembly() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            let plan = HaloPlan {
                neighbors: vec![Neighbor {
                    rank: 1 - rank,
                    points: vec![1],
                }],
            };
            // 2 points × 3 components.
            let mut field = vec![0.0f32; 6];
            field[3] = rank as f32 + 1.0; // point 1, comp x
            field[5] = 10.0 * (rank as f32 + 1.0); // point 1, comp z
            assemble_halo(&mut comm, &plan, &mut field, 3, 7).unwrap();
            field
        });
        for r in &results {
            assert_eq!(r[3], 3.0);
            assert_eq!(r[4], 0.0);
            assert_eq!(r[5], 30.0);
        }
    }

    #[test]
    fn four_rank_corner_point() {
        // A corner shared by 4 ranks: everyone must end with the 4-way sum,
        // which requires every pair to be neighbours (as SPECFEM's comm
        // lists guarantee for chunk corners).
        let results = ThreadWorld::run(4, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            let neighbors = (0..4)
                .filter(|&r| r != rank)
                .map(|r| Neighbor {
                    rank: r,
                    points: vec![0],
                })
                .collect();
            let plan = HaloPlan { neighbors };
            let mut field = vec![2.0f32.powi(rank as i32)]; // 1,2,4,8
            assemble_halo(&mut comm, &plan, &mut field, 1, 9).unwrap();
            field[0]
        });
        for v in results {
            assert_eq!(v, 15.0);
        }
    }

    #[test]
    fn plan_validation_catches_errors() {
        let bad_self = HaloPlan {
            neighbors: vec![Neighbor {
                rank: 3,
                points: vec![0],
            }],
        };
        assert!(bad_self.validate(3, 10).is_err());

        let bad_order = HaloPlan {
            neighbors: vec![
                Neighbor {
                    rank: 2,
                    points: vec![0],
                },
                Neighbor {
                    rank: 1,
                    points: vec![0],
                },
            ],
        };
        assert!(bad_order.validate(0, 10).is_err());

        let bad_range = HaloPlan {
            neighbors: vec![Neighbor {
                rank: 1,
                points: vec![99],
            }],
        };
        assert!(bad_range.validate(0, 10).is_err());

        let good = HaloPlan {
            neighbors: vec![
                Neighbor {
                    rank: 1,
                    points: vec![0, 5],
                },
                Neighbor {
                    rank: 2,
                    points: vec![5],
                },
            ],
        };
        assert!(good.validate(0, 10).is_ok());
        assert_eq!(good.shared_point_count(), 3);
    }

    #[test]
    fn empty_plan_is_noop() {
        let mut comm = crate::serial::SerialComm::new();
        let plan = HaloPlan::default();
        let mut field = vec![1.0f32, 2.0];
        assemble_halo(&mut comm, &plan, &mut field, 1, 0).unwrap();
        assert_eq!(field, vec![1.0, 2.0]);
    }

    #[test]
    fn split_halo_empty_plan_is_noop() {
        let mut comm = crate::serial::SerialComm::new();
        let plan = HaloPlan::default();
        let mut field = vec![3.0f32];
        let reqs = post_halo_exchange(&mut comm, &plan, &field, 1, 0).unwrap();
        assert!(reqs.is_empty());
        finish_halo_assembly(&mut comm, &plan, &mut field, 1, reqs).unwrap();
        assert_eq!(field, vec![3.0]);
    }

    #[test]
    fn split_halo_length_mismatch_is_protocol_error() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            if rank == 0 {
                // Send a wrong-length buffer by hand on the halo tag, then
                // stay alive until rank 1's post arrives so its isend never
                // sees a torn-down endpoint.
                comm.isend_f32(1, 9, vec![1.0, 2.0, 3.0]).unwrap();
                recv_now(&mut comm, 1, 9).unwrap();
                None
            } else {
                let plan = HaloPlan {
                    neighbors: vec![Neighbor {
                        rank: 0,
                        points: vec![0],
                    }],
                };
                let mut field = vec![0.0f32];
                let reqs = post_halo_exchange(&mut comm, &plan, &field, 1, 9).unwrap();
                Some(finish_halo_assembly(&mut comm, &plan, &mut field, 1, reqs).unwrap_err())
            }
        });
        assert!(matches!(
            results[1].clone().unwrap(),
            CommError::Protocol { .. }
        ));
    }

    #[test]
    fn truncated_request_list_is_a_protocol_error_on_both_ranks() {
        // A short request list must not zip past the missing neighbours
        // and leave their shared points unassembled.
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            let peer = 1 - comm.rank();
            let plan = HaloPlan {
                neighbors: vec![Neighbor {
                    rank: peer,
                    points: vec![0],
                }],
            };
            let mut field = vec![comm.rank() as f32 + 1.0];
            let mut reqs = post_halo_exchange(&mut comm, &plan, &field, 1, 9).unwrap();
            reqs.pop();
            let err = finish_halo_assembly(&mut comm, &plan, &mut field, 1, reqs).unwrap_err();
            // As documented, the peer's partial is still queued under
            // (peer, 9): the next receive on the tag gets it. Draining it
            // here also keeps both endpoints alive until both posts landed.
            let stale = recv_now(&mut comm, peer, 9).unwrap();
            (err, field[0], stale)
        });
        for (rank, (err, value, stale)) in results.iter().enumerate() {
            match err {
                CommError::Protocol { detail } => {
                    assert!(detail.contains("0 requests"), "{detail}");
                    assert!(detail.contains("1 neighbours"), "{detail}");
                }
                other => panic!("rank {rank}: expected Protocol, got {other:?}"),
            }
            // Nothing was combined into the field.
            assert_eq!(*value, rank as f32 + 1.0);
            assert_eq!(*stale, vec![(1 - rank) as f32 + 1.0]);
        }
    }
}
