//! Deterministic fault injection for the communication layer.
//!
//! At 62K cores failures are routine, not exceptional: the paper's target
//! machines lose nodes mid-run as a matter of course. [`FaultyComm`] wraps
//! any [`Communicator`] and injects the canonical failure modes — message
//! delay, message loss, payload corruption, and rank death — at chosen time
//! steps, driven by a seeded PRNG so every run of a given [`FaultPlan`] is
//! bit-identical. Per-rank fault accounting rides alongside the IPM-style
//! communication statistics, so ablation harnesses can report exactly what
//! was injected where.

use std::time::Duration;

use crate::error::CommError;
use crate::request::Request;
use crate::stats::StatsSnapshot;
use crate::Communicator;

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Stall each affected send by this many microseconds (slow link /
    /// congested switch).
    Delay {
        /// Injected per-message delay.
        micros: u64,
    },
    /// Silently drop affected outgoing messages — the receiver sees a
    /// [`CommError::Timeout`].
    Drop,
    /// Flip bits in affected outgoing payloads (undetected link or memory
    /// corruption; the receiver gets plausible-but-wrong physics).
    Corrupt,
    /// The rank dies: every communicator operation from the trigger step on
    /// fails with [`CommError::RankDead`].
    Die,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The rank the fault applies to.
    pub rank: usize,
    /// First time step (0-based) at which the fault is active.
    pub at_step: usize,
    /// How many steps it stays active; `None` means until the end of the
    /// run. Ignored for [`FaultKind::Die`] (death is permanent).
    pub duration_steps: Option<usize>,
    /// Per-message probability in `[0, 1]` that the fault fires (1.0 =
    /// every message). Ignored for [`FaultKind::Die`].
    pub probability: f64,
    /// The failure mode.
    pub kind: FaultKind,
}

impl FaultSpec {
    fn active_at(&self, step: usize) -> bool {
        if step < self.at_step {
            return false;
        }
        match self.duration_steps {
            Some(d) => step < self.at_step + d,
            None => true,
        }
    }
}

/// How an on-disk artifact (checkpoint/mesh container) gets damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFaultKind {
    /// Flip one bit in the middle of the file — a chunk CRC must catch it.
    BitFlip,
    /// Cut the file short — the footer parse must reject it.
    Truncate,
    /// Scribble over the leading magic/version words.
    TornHeader,
}

/// One scheduled artifact fault, keyed by write sequence number: the
/// `nth_write`-th artifact (0-based) a store completes gets damaged
/// immediately after it lands on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactFaultSpec {
    /// Which completed artifact write the fault hits (0-based).
    pub nth_write: usize,
    /// The damage applied.
    pub kind: ArtifactFaultKind,
}

/// A deterministic schedule of faults for a whole world.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-rank PRNGs that decide probabilistic faults.
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<FaultSpec>,
    /// Scheduled artifact (storage) faults, applied by the stores in
    /// `specfem-io` rather than the communicator.
    pub artifact_faults: Vec<ArtifactFaultSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x5eed_f417,
            faults: Vec::new(),
            artifact_faults: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            artifact_faults: Vec::new(),
        }
    }

    /// Schedule `rank` to die at `step` (builder style).
    pub fn kill(mut self, rank: usize, step: usize) -> Self {
        self.faults.push(FaultSpec {
            rank,
            at_step: step,
            duration_steps: None,
            probability: 1.0,
            kind: FaultKind::Die,
        });
        self
    }

    /// Delay every message `rank` sends from `step` on, for `steps` steps.
    pub fn delay(mut self, rank: usize, step: usize, steps: usize, micros: u64) -> Self {
        self.faults.push(FaultSpec {
            rank,
            at_step: step,
            duration_steps: Some(steps),
            probability: 1.0,
            kind: FaultKind::Delay { micros },
        });
        self
    }

    /// Drop each message `rank` sends during the window with `probability`.
    pub fn drop_messages(
        mut self,
        rank: usize,
        step: usize,
        steps: usize,
        probability: f64,
    ) -> Self {
        self.faults.push(FaultSpec {
            rank,
            at_step: step,
            duration_steps: Some(steps),
            probability,
            kind: FaultKind::Drop,
        });
        self
    }

    /// Corrupt each payload `rank` sends during the window with
    /// `probability`.
    pub fn corrupt(mut self, rank: usize, step: usize, steps: usize, probability: f64) -> Self {
        self.faults.push(FaultSpec {
            rank,
            at_step: step,
            duration_steps: Some(steps),
            probability,
            kind: FaultKind::Corrupt,
        });
        self
    }

    /// Damage the `nth_write`-th artifact a store completes (builder
    /// style). The stores in `specfem-io` consult the plan after each
    /// atomic write and apply the damage to the just-landed file, so the
    /// recovery path (typed error + fall back to the previous good
    /// generation) is exercised end to end.
    pub fn corrupt_artifact(mut self, nth_write: usize, kind: ArtifactFaultKind) -> Self {
        self.artifact_faults
            .push(ArtifactFaultSpec { nth_write, kind });
        self
    }

    /// The faults that apply to `rank`.
    pub fn for_rank(&self, rank: usize) -> Vec<FaultSpec> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .cloned()
            .collect()
    }

    /// The artifact fault scheduled for completed write number `seq`
    /// (0-based), if any.
    pub fn artifact_fault(&self, seq: usize) -> Option<ArtifactFaultKind> {
        self.artifact_faults
            .iter()
            .find(|f| f.nth_write == seq)
            .map(|f| f.kind)
    }
}

/// Per-rank accounting of injected faults, reported next to the IPM-style
/// [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages stalled by an active delay fault.
    pub delays_injected: u64,
    /// Messages silently dropped.
    pub messages_dropped: u64,
    /// Payloads bit-flipped.
    pub payloads_corrupted: u64,
    /// Step at which this rank died, if it did.
    pub died_at_step: Option<usize>,
}

/// SplitMix64 — inlined so the comm crate stays dependency-free; good
/// enough statistics for Bernoulli fault draws and fully deterministic.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Decorator injecting the faults of a [`FaultPlan`] into an inner
/// communicator. The solver drives it through
/// [`Communicator::on_time_step`]; everything else forwards.
pub struct FaultyComm<C: Communicator> {
    inner: C,
    faults: Vec<FaultSpec>,
    rng: SplitMix64,
    step: usize,
    fault_stats: FaultStats,
}

impl<C: Communicator> FaultyComm<C> {
    /// Wrap `inner`, taking this rank's slice of `plan`. The PRNG is seeded
    /// from `plan.seed` and the rank so ranks draw independent but
    /// reproducible streams.
    pub fn new(inner: C, plan: &FaultPlan) -> Self {
        let rank = inner.rank() as u64;
        Self {
            faults: plan.for_rank(inner.rank()),
            rng: SplitMix64::new(plan.seed ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            step: 0,
            fault_stats: FaultStats::default(),
            inner,
        }
    }

    /// Injected-fault accounting for this rank.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The wrapped communicator.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// `Err(RankDead)` from the step this rank died at on, checked at
    /// every entry point.
    fn alive(&self) -> Result<(), CommError> {
        match self.fault_stats.died_at_step {
            Some(step) => Err(CommError::RankDead {
                rank: self.inner.rank(),
                step,
            }),
            None => Ok(()),
        }
    }

    /// Decide what happens to one outgoing message: `None` = drop it,
    /// otherwise (delay, corrupt) directives.
    fn outgoing_action(&mut self) -> Option<(Duration, bool)> {
        let mut delay = Duration::ZERO;
        let mut corrupt = false;
        for i in 0..self.faults.len() {
            let f = self.faults[i].clone();
            if !f.active_at(self.step) {
                continue;
            }
            match f.kind {
                FaultKind::Die => {}
                FaultKind::Delay { micros } => {
                    if self.rng.next_f64() < f.probability {
                        delay += Duration::from_micros(micros);
                        self.fault_stats.delays_injected += 1;
                    }
                }
                FaultKind::Drop => {
                    if self.rng.next_f64() < f.probability {
                        self.fault_stats.messages_dropped += 1;
                        return None;
                    }
                }
                FaultKind::Corrupt => {
                    if self.rng.next_f64() < f.probability {
                        self.fault_stats.payloads_corrupted += 1;
                        corrupt = true;
                    }
                }
            }
        }
        Some((delay, corrupt))
    }
}

impl<C: Communicator> Communicator for FaultyComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend_f32(&mut self, dest: usize, tag: u32, mut data: Vec<f32>) -> Result<(), CommError> {
        // Post-time fault site, the only place a payload leaves the rank: a
        // dead rank cannot post, and active drop/delay/corrupt faults hit
        // the outgoing message.
        self.alive()?;
        let Some((delay, corrupt)) = self.outgoing_action() else {
            return Ok(()); // dropped on the (virtual) wire
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        if corrupt && !data.is_empty() {
            // Flip a mantissa+sign bit pattern in one element —
            // deterministic position from the PRNG.
            let idx = (self.rng.next_u64() as usize) % data.len();
            data[idx] = f32::from_bits(data[idx].to_bits() ^ 0x8040_0001);
        }
        self.inner.isend_f32(dest, tag, data)
    }

    fn irecv_f32(&mut self, src: usize, tag: u32) -> Result<Request, CommError> {
        self.alive()?;
        self.inner.irecv_f32(src, tag)
    }

    fn wait(&mut self, req: Request) -> Result<Vec<f32>, CommError> {
        // Wait-time fault site: a rank killed *between* post and wait (the
        // overlap window is where deaths land in practice) surfaces the
        // typed error here instead of hanging on the inner receive.
        self.alive()?;
        self.inner.wait(req)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.alive()?;
        self.inner.barrier()
    }

    fn allreduce(&mut self, x: f64, op: fn(f64, f64) -> f64) -> Result<f64, CommError> {
        self.alive()?;
        self.inner.allreduce(x, op)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout);
    }

    fn on_time_step(&mut self, istep: usize) -> Result<(), CommError> {
        self.step = istep;
        if self.fault_stats.died_at_step.is_none() {
            let death = self
                .faults
                .iter()
                .filter(|f| f.kind == FaultKind::Die && istep >= f.at_step)
                .map(|f| f.at_step)
                .min();
            if let Some(step) = death {
                self.fault_stats.died_at_step = Some(step);
            }
        }
        self.alive()?;
        self.inner.on_time_step(istep)
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recv_now;
    use crate::thread::ThreadWorld;
    use crate::virtual_net::NetworkProfile;
    use std::time::Duration;

    #[test]
    fn fault_spec_windows() {
        let f = FaultSpec {
            rank: 0,
            at_step: 10,
            duration_steps: Some(5),
            probability: 1.0,
            kind: FaultKind::Drop,
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(14));
        assert!(!f.active_at(15));
        let forever = FaultSpec {
            duration_steps: None,
            ..f
        };
        assert!(forever.active_at(1_000_000));
    }

    #[test]
    fn artifact_faults_are_keyed_by_write_sequence() {
        let plan = FaultPlan::new(1)
            .corrupt_artifact(0, ArtifactFaultKind::BitFlip)
            .corrupt_artifact(2, ArtifactFaultKind::Truncate);
        assert_eq!(plan.artifact_fault(0), Some(ArtifactFaultKind::BitFlip));
        assert_eq!(plan.artifact_fault(1), None);
        assert_eq!(plan.artifact_fault(2), Some(ArtifactFaultKind::Truncate));
        // Comm-side faulting is unaffected by artifact faults.
        assert!(plan.for_rank(0).is_empty());
    }

    #[test]
    fn killed_rank_errors_and_peer_times_out() {
        let plan = FaultPlan::new(42).kill(1, 3);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            comm.set_recv_timeout(Some(Duration::from_millis(50)));
            let mut outcome = Vec::new();
            for istep in 0..5 {
                if let Err(e) = comm.on_time_step(istep) {
                    outcome.push(format!("step {istep}: {e}"));
                    break;
                }
                if rank == 0 {
                    // Rank 0 expects a message from rank 1 each step.
                    if let Err(e) = recv_now(&mut comm, 1, 7) {
                        outcome.push(format!("step {istep}: {e}"));
                        break;
                    }
                } else {
                    comm.isend_f32(0, 7, vec![istep as f32]).unwrap();
                }
            }
            (outcome, comm.fault_stats())
        });
        // Rank 1 died at step 3 with a typed error...
        let (out1, stats1) = &results[1];
        assert_eq!(stats1.died_at_step, Some(3));
        assert!(out1[0].contains("dead"), "{out1:?}");
        // ...and rank 0 observed the death as a timeout naming (src 1, tag 7).
        let (out0, _) = &results[0];
        assert!(out0[0].contains("src 1"), "{out0:?}");
        assert!(out0[0].contains("tag 7"), "{out0:?}");
    }

    #[test]
    fn dropped_message_surfaces_as_timeout() {
        // The drop window covers step 0 only: that step's message is lost
        // (the receiver times out), the next step's gets through. The
        // barrier keeps step 1's message from standing in for the lost one.
        let plan = FaultPlan::new(7).drop_messages(0, 0, 1, 1.0);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            let mut seen = Vec::new();
            for istep in 0..2 {
                comm.on_time_step(istep).unwrap();
                if rank == 0 {
                    comm.isend_f32(1, 3, vec![istep as f32]).unwrap();
                } else {
                    let deadline = if istep == 0 { 50 } else { 10_000 };
                    comm.set_recv_timeout(Some(Duration::from_millis(deadline)));
                    seen.push(recv_now(&mut comm, 0, 3));
                    comm.set_recv_timeout(Some(Duration::from_secs(10)));
                }
                comm.barrier().unwrap();
            }
            (comm.fault_stats().messages_dropped, seen)
        });
        assert_eq!(results[0].0, 1);
        let seen = &results[1].1;
        assert!(matches!(
            seen[0],
            Err(CommError::Timeout { src: 0, tag: 3, .. })
        ));
        assert_eq!(seen[1], Ok(vec![1.0]));
    }

    #[test]
    fn corruption_changes_payload_but_not_length() {
        let plan = FaultPlan::new(9).corrupt(0, 0, 10, 1.0);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            comm.on_time_step(0).unwrap();
            if rank == 0 {
                comm.isend_f32(1, 3, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
                (comm.fault_stats().payloads_corrupted, Vec::new())
            } else {
                (0, recv_now(&mut comm, 0, 3).unwrap())
            }
        });
        assert_eq!(results[0].0, 1);
        let got = &results[1].1;
        assert_eq!(got.len(), 4);
        assert_ne!(*got, vec![1.0, 2.0, 3.0, 4.0]);
        // Exactly one element differs.
        let ndiff = got
            .iter()
            .zip([1.0f32, 2.0, 3.0, 4.0])
            .filter(|(a, b)| **a != *b)
            .count();
        assert_eq!(ndiff, 1);
    }

    #[test]
    fn injection_is_deterministic_under_fixed_seed() {
        let run_once = || {
            let plan = FaultPlan::new(1234).drop_messages(0, 0, 1000, 0.5);
            ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
                let rank = comm.rank();
                let mut comm = FaultyComm::new(comm, &plan);
                comm.set_recv_timeout(Some(Duration::from_millis(20)));
                comm.on_time_step(0).unwrap();
                if rank == 0 {
                    for i in 0..64 {
                        comm.isend_f32(1, 4, vec![i as f32]).unwrap();
                    }
                    (comm.fault_stats(), Vec::new())
                } else {
                    let mut got = Vec::new();
                    while let Ok(v) = recv_now(&mut comm, 0, 4) {
                        got.push(v[0]);
                    }
                    (comm.fault_stats(), got)
                }
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a[0].0, b[0].0, "sender fault stats must be reproducible");
        assert_eq!(a[1].1, b[1].1, "delivered message set must be reproducible");
        // Pinned, not just reproducible: one PRNG draw per outgoing
        // message, so a change in how often a post consults the plan moves
        // the drop count and the survivor set.
        assert_eq!(a[0].0.messages_dropped, 34);
        let survivors = [
            0, 1, 4, 5, 9, 12, 13, 14, 15, 16, 17, 19, 25, 26, 27, 33, 34, 35, 37, 38, 39, 40, 43,
            45, 46, 47, 52, 53, 54, 59,
        ];
        assert_eq!(a[1].1, survivors.map(|i| i as f32));
    }

    #[test]
    fn death_between_post_and_wait_is_typed_not_a_hang() {
        // Rank 1 posts its receives at step 2, then advances to step 3 where
        // the plan kills it — the wait on the already-posted request must
        // surface RankDead immediately rather than blocking on the channel.
        let plan = FaultPlan::new(11).kill(1, 3);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            comm.set_recv_timeout(Some(Duration::from_secs(10)));
            if rank == 0 {
                comm.on_time_step(2).unwrap();
                None
            } else {
                comm.on_time_step(2).unwrap();
                let req = comm.irecv_f32(0, 7).unwrap();
                let _ = comm.on_time_step(3); // death fires here
                let t0 = std::time::Instant::now();
                let err = comm.wait(req).unwrap_err();
                assert!(t0.elapsed() < Duration::from_secs(5), "wait hung");
                Some(err)
            }
        });
        assert_eq!(
            results[1].clone().unwrap(),
            CommError::RankDead { rank: 1, step: 3 }
        );
    }

    #[test]
    fn dead_rank_cannot_post() {
        let plan = FaultPlan::new(3).kill(0, 1);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            if rank == 0 {
                let _ = comm.on_time_step(1);
                (
                    Some(comm.isend_f32(1, 5, vec![1.0]).unwrap_err()),
                    Some(comm.irecv_f32(1, 5).unwrap_err()),
                )
            } else {
                (None, None)
            }
        });
        let dead = CommError::RankDead { rank: 0, step: 1 };
        assert_eq!(results[0].0.clone().unwrap(), dead);
        assert_eq!(results[0].1.clone().unwrap(), dead);
    }

    #[test]
    fn faulty_nonblocking_drop_loses_the_message() {
        let plan = FaultPlan::new(21).drop_messages(0, 0, 10, 1.0);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            comm.set_recv_timeout(Some(Duration::from_millis(50)));
            comm.on_time_step(0).unwrap();
            if rank == 0 {
                // isend "succeeds" locally but the wire eats the payload.
                comm.isend_f32(1, 6, vec![3.0]).unwrap();
                (comm.fault_stats().messages_dropped, comm.stats(), None)
            } else {
                let req = comm.irecv_f32(0, 6).unwrap();
                (0, comm.stats(), Some(comm.wait(req).unwrap_err()))
            }
        });
        assert_eq!(results[0].0, 1);
        // The inner communicator never saw the dropped message.
        assert_eq!(results[0].1.messages_sent, 0);
        assert!(matches!(
            results[1].2,
            Some(CommError::Timeout { src: 0, tag: 6, .. })
        ));
    }

    #[test]
    fn delay_injects_latency() {
        let plan = FaultPlan::new(5).delay(0, 0, 10, 2_000);
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |comm| {
            let rank = comm.rank();
            let mut comm = FaultyComm::new(comm, &plan);
            comm.on_time_step(0).unwrap();
            if rank == 0 {
                let t0 = std::time::Instant::now();
                for _ in 0..5 {
                    comm.isend_f32(1, 2, vec![0.0]).unwrap();
                }
                (comm.fault_stats().delays_injected, t0.elapsed())
            } else {
                for _ in 0..5 {
                    recv_now(&mut comm, 0, 2).unwrap();
                }
                (0, Duration::ZERO)
            }
        });
        assert_eq!(results[0].0, 5);
        assert!(
            results[0].1 >= Duration::from_millis(10),
            "{:?}",
            results[0].1
        );
    }
}
