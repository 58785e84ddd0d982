//! Property-based tests of the message-passing substrate: assembly
//! correctness on randomized topologies and payloads.
#![allow(clippy::needless_range_loop)] // rank loops double as index and identity

use proptest::prelude::*;
use specfem_comm::{
    assemble_halo, CommError, Communicator, FaultPlan, FaultyComm, HaloPlan, Neighbor,
    NetworkProfile, ThreadWorld,
};

/// Deterministic shuffle of `0..n` driven by a key slice (sort-by-key).
fn shuffled_indices(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (keys[i % keys.len()].wrapping_mul(i as u64 + 1), i));
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pairwise halo assembly sums the two partials for arbitrary values
    /// and arbitrary shared-point subsets.
    #[test]
    fn pairwise_assembly_sums(
        npoints in 2usize..30,
        shared_mask in prop::collection::vec(any::<bool>(), 2..30),
        v0 in prop::collection::vec(-100.0f32..100.0, 2..30),
        v1 in prop::collection::vec(-100.0f32..100.0, 2..30),
    ) {
        let n = npoints.min(shared_mask.len()).min(v0.len()).min(v1.len());
        let shared: Vec<u32> = (0..n as u32).filter(|&i| shared_mask[i as usize]).collect();
        if shared.is_empty() {
            return Ok(());
        }
        let v0 = v0[..n].to_vec();
        let v1 = v1[..n].to_vec();
        let shared2 = shared.clone();
        let (v0c, v1c) = (v0.clone(), v1.clone());
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), move |mut comm| {
            let rank = comm.rank();
            let plan = HaloPlan {
                neighbors: vec![Neighbor {
                    rank: 1 - rank,
                    points: shared2.clone(),
                }],
            };
            let mut field = if rank == 0 { v0c.clone() } else { v1c.clone() };
            assemble_halo(&mut comm, &plan, &mut field, 1, 5).unwrap();
            field
        });
        for (i, (&a, &b)) in v0.iter().zip(&v1).enumerate() {
            let expect_shared = a + b;
            for r in 0..2 {
                let got = results[r][i];
                if shared.contains(&(i as u32)) {
                    prop_assert!((got - expect_shared).abs() < 1e-4,
                        "rank {r} point {i}: {got} vs {expect_shared}");
                } else {
                    let own = if r == 0 { a } else { b };
                    prop_assert_eq!(got, own);
                }
            }
        }
    }

    /// Allreduce agrees with a local fold for arbitrary rank values.
    #[test]
    fn allreduce_matches_local_fold(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 2..9),
    ) {
        let n = values.len();
        let vals = values.clone();
        let results = ThreadWorld::run(n, NetworkProfile::loopback(), move |mut comm| {
            let x = vals[comm.rank()];
            (comm.allreduce_sum(x).unwrap(), comm.allreduce_min(x).unwrap(), comm.allreduce_max(x).unwrap())
        });
        let sum: f64 = values.iter().sum();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (s, mn, mx) in results {
            prop_assert!((s - sum).abs() < 1e-6 * (1.0 + sum.abs()));
            prop_assert_eq!(mn, min);
            prop_assert_eq!(mx, max);
        }
    }

    /// Non-blocking FIFO contract: for every `(src, tag)` pair, waits
    /// complete in message send order no matter how the posts and waits
    /// are interleaved across ranks and tags.
    #[test]
    fn nonblocking_fifo_order_under_arbitrary_interleavings(
        n in 2usize..4,
        ntags in 1u32..3,
        k in 1usize..4,
        post_keys in prop::collection::vec(any::<u64>(), 8),
        wait_keys in prop::collection::vec(any::<u64>(), 8),
    ) {
        let post_keys2 = post_keys.clone();
        let wait_keys2 = wait_keys.clone();
        let results = ThreadWorld::run(n, NetworkProfile::loopback(), move |mut comm| {
            let rank = comm.rank();
            // Every rank sends k numbered messages on every tag to every
            // other rank; the payload encodes (src, tag, seq).
            for dest in 0..n {
                if dest == rank {
                    continue;
                }
                for tag in 0..ntags {
                    for seq in 0..k {
                        let v = (rank * 10_000 + tag as usize * 100 + seq) as f32;
                        comm.isend_f32(dest, tag, vec![v]).unwrap();
                    }
                }
            }
            // Post the matching irecvs in a shuffled global order...
            let mut slots: Vec<(usize, u32)> = Vec::new();
            for src in 0..n {
                if src == rank {
                    continue;
                }
                for tag in 0..ntags {
                    for _ in 0..k {
                        slots.push((src, tag));
                    }
                }
            }
            let order = shuffled_indices(slots.len(), &post_keys2);
            let reqs: Vec<_> = order
                .iter()
                .map(|&i| comm.irecv_f32(slots[i].0, slots[i].1).unwrap())
                .collect();
            // ...then wait them in another shuffled order, recording what
            // each (src, tag) stream delivered, in wait order.
            let mut got: Vec<(usize, u32, f32)> = Vec::new();
            for &i in &shuffled_indices(reqs.len(), &wait_keys2) {
                let req = reqs[i].clone();
                let (src, tag) = (req.src(), req.tag());
                let data = comm.wait(req).unwrap();
                got.push((src, tag, data[0]));
            }
            got
        });
        // Per (src, tag), the seq numbers must come out 0, 1, 2, … in the
        // order the waits completed — FIFO per channel, MPI semantics.
        for (rank, got) in results.iter().enumerate() {
            for src in 0..n {
                if src == rank {
                    continue;
                }
                for tag in 0..ntags {
                    let seqs: Vec<usize> = got
                        .iter()
                        .filter(|(p, t, _)| *p == src && *t == tag)
                        .map(|(_, _, v)| *v as usize % 100)
                        .collect();
                    let expect: Vec<usize> = (0..k).collect();
                    prop_assert_eq!(&seqs, &expect,
                        "rank {} stream (src {}, tag {})", rank, src, tag);
                }
            }
        }
    }

    /// `wait` on a request posted before this rank's scheduled death
    /// surfaces `CommError::RankDead` promptly instead of hanging until
    /// the receive deadline.
    #[test]
    fn wait_after_rank_death_is_rank_dead_not_a_hang(
        death_step in 1usize..6,
        tag in 0u32..500,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed).kill(1, death_step);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), move |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            // Deadline far longer than the test budget: a wait that merely
            // timed out (rather than observing the death) would hang.
            comm.set_recv_timeout(Some(std::time::Duration::from_secs(30)));
            if rank == 0 {
                return None;
            }
            comm.on_time_step(death_step - 1).unwrap();
            let req = comm.irecv_f32(0, tag).unwrap();
            let _ = comm.on_time_step(death_step);
            let t0 = std::time::Instant::now();
            let err = comm.wait(req).unwrap_err();
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
            Some(err)
        });
        prop_assert_eq!(
            results[1].clone().unwrap(),
            CommError::RankDead { rank: 1, step: death_step }
        );
    }

    /// Messages arrive intact regardless of interleaving: each rank sends a
    /// distinct payload to every other rank with a random tag offset.
    #[test]
    fn all_to_all_payload_integrity(
        n in 2usize..6,
        base_tag in 0u32..1000,
        len in 1usize..50,
    ) {
        let results = ThreadWorld::run(n, NetworkProfile::loopback(), move |mut comm| {
            let rank = comm.rank();
            for dest in 0..n {
                if dest != rank {
                    let payload: Vec<f32> =
                        (0..len).map(|i| (rank * 1000 + i) as f32).collect();
                    comm.isend_f32(dest, base_tag + dest as u32, payload).unwrap();
                }
            }
            let mut ok = true;
            for src in 0..n {
                if src != rank {
                    let req = comm.irecv_f32(src, base_tag + rank as u32).unwrap();
                    let got = comm.wait(req).unwrap();
                    ok &= got.len() == len
                        && got.iter().enumerate().all(|(i, &v)| v == (src * 1000 + i) as f32);
                }
            }
            ok
        });
        prop_assert!(results.into_iter().all(|ok| ok));
    }
}
