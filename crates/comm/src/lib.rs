//! An MPI-like message-passing substrate for the solver.
//!
//! SPECFEM3D_GLOBE distributes mesh slices over MPI ranks and assembles the
//! global system by exchanging shared-point contributions (paper §2.4). This
//! crate reproduces that programming model in-process: every *rank* is an OS
//! thread, messages are typed buffers moved over lock-free channels, and the
//! solver is written against the [`Communicator`] trait exactly as it would
//! be against `MPI_Comm`.
//!
//! Two kinds of timing are recorded per rank (the paper's §5 methodology):
//!
//! * **wall time** actually spent inside communication calls — the IPM
//!   measurement ("communication time spent in the main loop of the solver");
//! * **modeled time** from a latency/bandwidth machine profile — the
//!   deterministic analog used to extrapolate to machines we do not have
//!   (62K-core Ranger and friends).
//!
//! Point-to-point traffic follows one protocol — post a send, post a
//! receive, wait on the receive — and a halo exchange is one post/finish
//! pair built on it ([`halo`]). Every operation that can block is fallible:
//! a stalled or dead peer surfaces as a typed [`CommError`] (with a
//! configurable receive deadline) instead of an infinite hang, and
//! [`fault::FaultyComm`] can deterministically inject the failures a
//! 62K-core run would see in the wild.

pub mod error;
pub mod fault;
pub mod halo;
pub mod request;
pub mod serial;
pub mod stats;
pub mod thread;
pub mod virtual_net;
pub mod watchdog;

pub use error::CommError;
pub use fault::{
    ArtifactFaultKind, ArtifactFaultSpec, FaultKind, FaultPlan, FaultSpec, FaultStats, FaultyComm,
};
pub use halo::{assemble_halo, finish_halo_assembly, post_halo_exchange, HaloPlan, Neighbor};
pub use request::Request;
pub use serial::SerialComm;
pub use stats::{CommStats, StatsSnapshot};
pub use thread::{RankPanic, ThreadComm, ThreadWorld, DEFAULT_RECV_TIMEOUT};
pub use virtual_net::NetworkProfile;
pub use watchdog::{Heartbeats, StallEvent, WatchdogConfig, WatchdogReport};
// Re-exported so downstream crates can consume `StatsSnapshot`'s per-tag
// traffic and size histogram without a direct specfem-obs dependency.
pub use specfem_obs::{LogHistogram, TagTraffic};

use std::time::Duration;

/// Message tags used by the solver (mirrors the handful of tags the Fortran
/// code uses).
pub mod tags {
    /// Halo exchange of crust-mantle/solid accelerations.
    pub const HALO_SOLID: u32 = 100;
    /// Halo exchange of fluid (outer-core) potential.
    pub const HALO_FLUID: u32 = 101;
    /// Batched (K-event-lane) solid halo exchange: one message per
    /// neighbor carries all K lanes, so it is K× the single-lane
    /// message size by design. A distinct tag keeps IPM per-tag
    /// accounting from misreading batching as a message-size
    /// regression on `HALO_SOLID`.
    pub const HALO_BATCHED_SOLID: u32 = 110;
    /// Batched (K-event-lane) fluid halo exchange.
    pub const HALO_BATCHED_FLUID: u32 = 111;
    /// Generic reduction traffic.
    pub const REDUCE: u32 = 200;
    /// Generic broadcast traffic.
    pub const BCAST: u32 = 201;
    /// Barrier entry/release traffic (message-based so it honours the recv
    /// deadline instead of hanging on a dead rank).
    pub const BARRIER: u32 = 202;
}

/// How many rank-worlds of `ranks_per_job` threads each can run
/// concurrently on this machine without oversubscribing it: at least 1,
/// at most `jobs` (no point spinning up idle workers), and otherwise
/// `available_parallelism / ranks_per_job`. This is the campaign
/// runtime's default worker-pool size.
pub fn recommended_workers(ranks_per_job: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fit = cores / ranks_per_job.max(1);
    fit.clamp(1, jobs.max(1))
}

/// The MPI-like interface the solver programs against.
///
/// There is one way to move a payload: post it with
/// [`isend_f32`](Communicator::isend_f32), post the matching receive with
/// [`irecv_f32`](Communicator::irecv_f32), and complete the receive with
/// [`wait`](Communicator::wait), which blocks until the `(src, tag)`
/// message arrives *or the configured deadline expires*. A blocking
/// exchange is the same protocol with nothing between post and wait. All
/// collective operations must be entered by every rank.
///
/// Every call that can block is fallible. A backend that cannot fail (e.g.
/// the serial world) simply always returns `Ok`; the thread backend reports
/// stalls as [`CommError::Timeout`], vanished peers as
/// [`CommError::Disconnected`], and fault injection adds
/// [`CommError::RankDead`].
pub trait Communicator: Send {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;

    /// Post an `f32` payload to `dest`. Sends are buffered (never deadlock
    /// at our message sizes), so the transfer is complete on return and
    /// there is no send request to wait on; the buffer is moved into the
    /// message, not copied. Faulty backends may fail *at post* (e.g. the
    /// local rank is dead).
    fn isend_f32(&mut self, dest: usize, tag: u32, data: Vec<f32>) -> Result<(), CommError>;

    /// Register interest in the next `(src, tag)` message and return a
    /// [`Request`] without blocking. The message is delivered by `wait`.
    /// Matching follows MPI semantics: requests for the same `(src, tag)`
    /// complete in the order the messages were sent (FIFO per channel).
    fn irecv_f32(&mut self, src: usize, tag: u32) -> Result<Request, CommError>;

    /// Complete a posted receive, subject to the recv deadline: block until
    /// the matching message arrives and return its payload. A stalled peer
    /// surfaces as [`CommError::Timeout`] naming `(src, tag)`, a dead one
    /// as [`CommError::RankDead`] — `wait` never hangs forever while a
    /// deadline is configured.
    fn wait(&mut self, req: Request) -> Result<Vec<f32>, CommError>;

    /// Barrier across all ranks.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// Reduce one `f64` over all ranks with `op`, applied in ascending
    /// rank order so every rank gets the same bits.
    fn allreduce(&mut self, x: f64, op: fn(f64, f64) -> f64) -> Result<f64, CommError>;

    /// Global sum of one `f64`.
    fn allreduce_sum(&mut self, x: f64) -> Result<f64, CommError> {
        self.allreduce(x, |a, b| a + b)
    }
    /// Global min of one `f64`.
    fn allreduce_min(&mut self, x: f64) -> Result<f64, CommError> {
        self.allreduce(x, f64::min)
    }
    /// Global max of one `f64`.
    fn allreduce_max(&mut self, x: f64) -> Result<f64, CommError> {
        self.allreduce(x, f64::max)
    }

    /// Configure the deadline applied to blocking receives. `None` waits
    /// forever (pre-fault-tolerance behaviour); backends without blocking
    /// receives may ignore it.
    fn set_recv_timeout(&mut self, _timeout: Option<Duration>) {}

    /// Solver hook announcing the start of time step `istep`. Fault
    /// injection uses it to trigger step-scheduled faults; plain backends
    /// keep the default no-op.
    fn on_time_step(&mut self, _istep: usize) -> Result<(), CommError> {
        Ok(())
    }

    /// Statistics snapshot for this rank.
    fn stats(&self) -> StatsSnapshot;

    /// Reset statistics (e.g. after the warm-up phase, so the main-loop
    /// percentages match the paper's IPM methodology).
    fn reset_stats(&mut self);
}

/// Test shorthand for a receive with an empty overlap window: post it and
/// wait at once.
#[cfg(test)]
pub(crate) fn recv_now(
    comm: &mut dyn Communicator,
    src: usize,
    tag: u32,
) -> Result<Vec<f32>, CommError> {
    let req = comm.irecv_f32(src, tag)?;
    comm.wait(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_workers_is_bounded() {
        assert_eq!(recommended_workers(1_000_000, 8), 1);
        assert_eq!(recommended_workers(1, 1), 1);
        assert!(recommended_workers(1, 4) <= 4);
        assert!(recommended_workers(0, 0) >= 1);
    }

    #[test]
    fn tags_are_distinct() {
        let all = [
            tags::HALO_SOLID,
            tags::HALO_FLUID,
            tags::HALO_BATCHED_SOLID,
            tags::HALO_BATCHED_FLUID,
            tags::REDUCE,
            tags::BCAST,
            tags::BARRIER,
        ];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn tag_names_in_obs_match_the_tag_constants() {
        // `specfem_obs::report::tag_name` restates these values (obs
        // stays dependency-free); keep the two in sync.
        use specfem_obs::report::tag_name;
        assert_eq!(tag_name(tags::HALO_SOLID), "halo_solid");
        assert_eq!(tag_name(tags::HALO_FLUID), "halo_fluid");
        assert_eq!(tag_name(tags::HALO_BATCHED_SOLID), "halo_batched_solid");
        assert_eq!(tag_name(tags::HALO_BATCHED_FLUID), "halo_batched_fluid");
        assert_eq!(tag_name(tags::REDUCE), "reduce");
        assert_eq!(tag_name(tags::BCAST), "bcast");
        assert_eq!(tag_name(tags::BARRIER), "barrier");
    }
}
