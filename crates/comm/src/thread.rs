//! The thread-backed communicator: every rank is an OS thread, messages are
//! buffers moved over crossbeam channels.
//!
//! Blocking receives honour a configurable deadline ([`DEFAULT_RECV_TIMEOUT`]
//! unless overridden), so a stalled or dead peer surfaces as
//! [`CommError::Timeout`] naming the `(src, tag)` pair instead of wedging the
//! whole world. The barrier is message-based for the same reason: a
//! `std::sync::Barrier` would hang forever on the first dead rank.

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::request::Request;
use crate::stats::{CommStats, StatsSnapshot};
use crate::virtual_net::NetworkProfile;
use crate::watchdog::{monitor_loop, Heartbeats, WatchdogConfig, WatchdogReport};
use crate::{tags, Communicator};

/// Deadline applied to blocking receives unless the caller overrides it with
/// [`Communicator::set_recv_timeout`]. Generous enough for debug-build test
/// worlds, short enough that a wedged run fails in bounded time.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// One in-flight message.
#[derive(Debug)]
pub(crate) enum Payload {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

#[derive(Debug)]
pub(crate) struct Message {
    pub(crate) src: usize,
    pub(crate) tag: u32,
    pub(crate) payload: Payload,
}

impl Message {
    fn len_bytes(&self) -> usize {
        match &self.payload {
            Payload::F32(v) => v.len() * 4,
            Payload::F64(v) => v.len() * 8,
        }
    }
}

/// A rank whose thread panicked during [`ThreadWorld::try_run`].
#[derive(Debug, Clone)]
pub struct RankPanic {
    /// The rank that died.
    pub rank: usize,
    /// Best-effort panic message.
    pub message: String,
}

impl fmt::Display for RankPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

/// Factory for a set of connected [`ThreadComm`]s — the "world".
pub struct ThreadWorld;

impl ThreadWorld {
    /// Create `size` connected communicators charged against `profile`.
    pub fn create(size: usize, profile: NetworkProfile) -> Vec<ThreadComm> {
        assert!(size >= 1);
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (s, r) = unbounded::<Message>();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadComm {
                rank,
                size,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
                recv_timeout: Some(DEFAULT_RECV_TIMEOUT),
                profile,
                stats: CommStats::default(),
                watchdog: None,
            })
            .collect()
    }

    /// Run `f` on `size` ranks (one thread each) and collect the per-rank
    /// results in rank order. This is the `mpirun` analog used by tests,
    /// examples and benchmarks. A rank panic propagates — use
    /// [`ThreadWorld::try_run`] to get per-rank errors instead.
    pub fn run<R, F>(size: usize, profile: NetworkProfile, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        Self::try_run(size, profile, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("rank panicked: {p}")))
            .collect()
    }

    /// Like [`ThreadWorld::run`], but a panicking rank yields
    /// `Err(RankPanic)` in its slot instead of tearing down the caller —
    /// the driver can report which rank died and decide to restart.
    pub fn try_run<R, F>(size: usize, profile: NetworkProfile, f: F) -> Vec<Result<R, RankPanic>>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        Self::launch(size, profile, None, f).0
    }

    /// The one launcher behind [`ThreadWorld::run`] and
    /// [`ThreadWorld::try_run`]: spawn a thread per rank, join them in
    /// rank order, and turn a panic into `Err(RankPanic)` in that rank's
    /// slot.
    ///
    /// With `watchdog` set the straggler watchdog is armed: every endpoint
    /// shares a [`Heartbeats`] board (each rank's `on_time_step` advances
    /// its heartbeat — two relaxed stores — and checks the escalation
    /// flag), and a monitor thread polls the board, tracks cross-rank step
    /// skew, flags ranks whose heartbeat age exceeds `timeout`, and (when
    /// `escalate`) makes every healthy rank's next `on_time_step` fail with
    /// [`CommError::Stalled`] naming the straggler. The monitor's
    /// [`WatchdogReport`] is returned next to the per-rank results.
    pub fn launch<R, F>(
        size: usize,
        profile: NetworkProfile,
        watchdog: Option<WatchdogConfig>,
        f: F,
    ) -> (Vec<Result<R, RankPanic>>, Option<WatchdogReport>)
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        let mut comms = Self::create(size, profile);
        let board = watchdog.map(|config| (config, Arc::new(Heartbeats::new(size))));
        if let Some((_, hb)) = &board {
            for c in &mut comms {
                c.watchdog = Some(Arc::clone(hb));
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let monitor = board.as_ref().map(|(config, hb)| {
                let stop = &stop;
                scope.spawn(move || monitor_loop(hb, config, stop))
            });
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let fref = &f;
                    scope.spawn(move || fref(comm))
                })
                .collect();
            let out = handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().map_err(|payload| RankPanic {
                        rank,
                        message: panic_message(payload.as_ref()),
                    })
                })
                .collect();
            stop.store(true, Ordering::Release);
            let report = monitor.map(|m| m.join().expect("watchdog monitor must not panic"));
            (out, report)
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A rank endpoint of the thread world.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages already pulled off the channel, in arrival
    /// order — matching receives drain FIFO per `(src, tag)`.
    pending: Vec<Message>,
    /// Deadline for blocking receives; `None` waits forever.
    recv_timeout: Option<Duration>,
    profile: NetworkProfile,
    stats: CommStats,
    /// Shared heartbeat board when this endpoint belongs to a watched
    /// world; `None` (unwatched, the default) keeps `on_time_step` a
    /// no-op, preserving the zero-cost-when-disabled contract.
    watchdog: Option<Arc<Heartbeats>>,
}

impl Drop for ThreadComm {
    fn drop(&mut self) {
        // A dropped endpoint means the rank's closure returned (success
        // or error): tell the monitor so a finished rank is never
        // flagged as a straggler while slower ranks keep stepping.
        if let Some(hb) = &self.watchdog {
            hb.mark_done(self.rank);
        }
    }
}

impl ThreadComm {
    /// The network profile messages are charged against.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// The currently configured receive deadline.
    pub fn recv_timeout(&self) -> Option<Duration> {
        self.recv_timeout
    }

    /// Send without statistics accounting: `isend_f32` adds its own, and
    /// collective-internal traffic has none (the IPM methodology charges
    /// collectives once, not per internal message).
    fn send_raw(&mut self, dest: usize, tag: u32, payload: Payload) -> Result<(), CommError> {
        if dest >= self.size {
            return Err(CommError::InvalidRank {
                rank: dest,
                size: self.size,
            });
        }
        let msg = Message {
            src: self.rank,
            tag,
            payload,
        };
        self.senders[dest]
            .send(msg)
            .map_err(|_| CommError::Disconnected { peer: dest })
    }

    fn recv_message(&mut self, src: usize, tag: u32) -> Result<Message, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        // Check the out-of-order buffer first. `remove` (not `swap_remove`)
        // keeps the buffer in arrival order, so repeated receives on the
        // same `(src, tag)` drain FIFO — swap_remove would reorder messages
        // behind the extracted one and deliver later sends first.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            return Ok(self.pending.remove(pos));
        }
        let started = Instant::now();
        let deadline = self.recv_timeout.map(|t| started + t);
        loop {
            let next = match deadline {
                Some(d) => self.receiver.recv_deadline(d),
                None => self
                    .receiver
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(msg) if msg.src == src && msg.tag == tag => return Ok(msg),
                Ok(msg) => self.pending.push(msg),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        src,
                        tag,
                        waited: started.elapsed(),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: src })
                }
            }
        }
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend_f32(&mut self, dest: usize, tag: u32, data: Vec<f32>) -> Result<(), CommError> {
        // Channels are buffered, so posting *is* completion of the local
        // transfer: there is nothing left to wait on.
        let _span = specfem_obs::span("comm.isend");
        let t0 = Instant::now();
        let bytes = data.len() * 4;
        self.send_raw(dest, tag, Payload::F32(data))?;
        let modeled = self.profile.message_time(bytes);
        self.stats.on_isend(tag, bytes, modeled, t0.elapsed());
        Ok(())
    }

    fn irecv_f32(&mut self, src: usize, tag: u32) -> Result<Request, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        self.stats.on_irecv();
        Ok(Request::recv(src, tag))
    }

    fn wait(&mut self, req: Request) -> Result<Vec<f32>, CommError> {
        let overlap = req.age();
        let (src, tag) = (req.src(), req.tag());
        let _span = specfem_obs::span("comm.wait");
        let t0 = Instant::now();
        let msg = self.recv_message(src, tag)?;
        let blocked = t0.elapsed();
        let bytes = msg.len_bytes();
        let modeled = self.profile.message_time(bytes);
        self.stats.on_wait(bytes, modeled, overlap, blocked);
        match msg.payload {
            Payload::F32(v) => Ok(v),
            _ => Err(CommError::PayloadType { src, tag }),
        }
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        // Message-based (gather to rank 0, then release) so the recv
        // deadline applies: a dead rank turns the barrier into a Timeout
        // naming the missing peer instead of an infinite hang.
        let _span = specfem_obs::span("comm.barrier");
        let t0 = Instant::now();
        if self.size > 1 {
            if self.rank == 0 {
                for src in 1..self.size {
                    self.recv_message(src, tags::BARRIER)?;
                }
                for dest in 1..self.size {
                    self.send_raw(dest, tags::BARRIER, Payload::F32(Vec::new()))?;
                }
            } else {
                self.send_raw(0, tags::BARRIER, Payload::F32(Vec::new()))?;
                self.recv_message(0, tags::BARRIER)?;
            }
        }
        let modeled = self.profile.collective_time(self.size, 0);
        self.stats.on_collective(modeled, t0.elapsed());
        Ok(())
    }

    fn allreduce(&mut self, x: f64, op: fn(f64, f64) -> f64) -> Result<f64, CommError> {
        let _span = specfem_obs::span("comm.allreduce");
        let t0 = Instant::now();
        let result = if self.size == 1 {
            x
        } else if self.rank == 0 {
            // Deterministic reduction in rank order, then broadcast.
            let mut acc = x;
            for src in 1..self.size {
                let msg = self.recv_message(src, tags::REDUCE)?;
                let v = match msg.payload {
                    Payload::F64(v) if !v.is_empty() => v[0],
                    _ => {
                        return Err(CommError::PayloadType {
                            src,
                            tag: tags::REDUCE,
                        })
                    }
                };
                acc = op(acc, v);
            }
            for dest in 1..self.size {
                self.send_raw(dest, tags::BCAST, Payload::F64(vec![acc]))?;
            }
            acc
        } else {
            self.send_raw(0, tags::REDUCE, Payload::F64(vec![x]))?;
            let msg = self.recv_message(0, tags::BCAST)?;
            match msg.payload {
                Payload::F64(v) if !v.is_empty() => v[0],
                _ => {
                    return Err(CommError::PayloadType {
                        src: 0,
                        tag: tags::BCAST,
                    })
                }
            }
        };
        // One f64 travels per hop of the reduction tree.
        let modeled = self.profile.collective_time(self.size, 8);
        self.stats.on_collective(modeled, t0.elapsed());
        Ok(result)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.recv_timeout = timeout;
    }

    fn on_time_step(&mut self, istep: usize) -> Result<(), CommError> {
        if let Some(hb) = &self.watchdog {
            // Escalated stall anywhere in the world: abort this rank
            // with the typed error instead of letting it block on a
            // halo receive from the straggler until the deadline.
            if let Some(err) = hb.stall_error() {
                return Err(err);
            }
            hb.beat(self.rank, istep);
        }
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recv_now;

    #[test]
    fn ring_exchange() {
        let results = ThreadWorld::run(4, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            let size = comm.size();
            let next = (rank + 1) % size;
            let prev = (rank + size - 1) % size;
            comm.isend_f32(next, 7, vec![rank as f32; 3]).unwrap();
            let got = recv_now(&mut comm, prev, 7).unwrap();
            (prev, got)
        });
        for (rank, (prev, got)) in results.iter().enumerate() {
            assert_eq!(got, &vec![*prev as f32; 3], "rank {rank}");
        }
    }

    #[test]
    fn allreduce_sum_min_max() {
        let results = ThreadWorld::run(6, NetworkProfile::loopback(), |mut comm| {
            let x = comm.rank() as f64 + 1.0;
            (
                comm.allreduce_sum(x).unwrap(),
                comm.allreduce_min(x).unwrap(),
                comm.allreduce_max(x).unwrap(),
            )
        });
        for (s, mn, mx) in results {
            assert_eq!(s, 21.0);
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 6.0);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.isend_f32(1, 2, vec![2.0]).unwrap();
                comm.isend_f32(1, 1, vec![1.0]).unwrap();
                vec![]
            } else {
                let a = recv_now(&mut comm, 0, 1).unwrap();
                let b = recv_now(&mut comm, 0, 2).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn pending_buffer_drains_fifo_per_src_tag() {
        // Regression test for the swap_remove bug: two tags interleaved
        // from the same source must each come out in send order, even when
        // an interleaved receive forces everything through `pending`.
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                // Interleave two tag streams; all of these get buffered on
                // the receiver while it waits for the tag-9 flush marker.
                for (tag, v) in [(1, 10.0), (2, 20.0), (1, 11.0), (2, 21.0), (1, 12.0)] {
                    comm.isend_f32(1, tag, vec![v]).unwrap();
                }
                comm.isend_f32(1, 9, vec![0.0]).unwrap();
                vec![]
            } else {
                // Force every earlier message into `pending`...
                recv_now(&mut comm, 0, 9).unwrap();
                // ...then drain both streams: order within each (src, tag)
                // must be the send order.
                let mut got = Vec::new();
                for tag in [1, 1, 1, 2, 2] {
                    got.push(recv_now(&mut comm, 0, tag).unwrap()[0]);
                }
                got
            }
        });
        assert_eq!(results[1], vec![10.0, 11.0, 12.0, 20.0, 21.0]);
    }

    #[test]
    fn requests_complete_in_post_order_per_src_tag() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                comm.isend_f32(1, 1, vec![1.0]).unwrap();
                comm.isend_f32(1, 2, vec![2.0]).unwrap();
                comm.isend_f32(1, 1, vec![1.5]).unwrap();
                vec![]
            } else {
                let reqs = vec![
                    comm.irecv_f32(0, 1).unwrap(),
                    comm.irecv_f32(0, 2).unwrap(),
                    comm.irecv_f32(0, 1).unwrap(),
                ];
                reqs.into_iter()
                    .map(|req| comm.wait(req).unwrap()[0])
                    .collect()
            }
        });
        // Same-(src, tag) requests complete in send order (FIFO).
        assert_eq!(results[1], vec![1.0, 2.0, 1.5]);
    }

    #[test]
    fn recv_times_out_naming_src_and_tag() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 1 {
                comm.set_recv_timeout(Some(Duration::from_millis(50)));
                // Nobody ever sends on tag 77.
                Some(recv_now(&mut comm, 0, 77).unwrap_err())
            } else {
                None
            }
        });
        match results[1].clone().unwrap() {
            CommError::Timeout { src, tag, waited } => {
                assert_eq!(src, 0);
                assert_eq!(tag, 77);
                assert!(waited >= Duration::from_millis(50));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn wait_honours_recv_deadline() {
        // The deadline is absolute from `wait` entry: messages on other
        // tags arriving meanwhile are buffered without restarting it, and
        // stay receivable afterwards.
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                for i in 0..4 {
                    std::thread::sleep(Duration::from_millis(30));
                    comm.isend_f32(1, 5, vec![i as f32]).unwrap();
                }
                None
            } else {
                comm.set_recv_timeout(Some(Duration::from_millis(60)));
                let req = comm.irecv_f32(0, 88).unwrap();
                let t0 = Instant::now();
                let err = comm.wait(req).unwrap_err();
                let took = t0.elapsed();
                comm.set_recv_timeout(Some(Duration::from_secs(10)));
                let other: Vec<f32> = (0..4)
                    .map(|_| recv_now(&mut comm, 0, 5).unwrap()[0])
                    .collect();
                Some((err, took, other))
            }
        });
        let (err, took, other) = results[1].clone().unwrap();
        assert!(
            matches!(
                err,
                CommError::Timeout {
                    src: 0,
                    tag: 88,
                    ..
                }
            ),
            "{err:?}"
        );
        // Four unrelated arrivals 30 ms apart would stretch a restarting
        // deadline to 180 ms.
        assert!(took < Duration::from_millis(150), "{took:?}");
        assert_eq!(other, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn wrong_payload_type_is_reported_not_panicked() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                // Hand-craft an f64 message on a tag the peer reads as f32.
                comm.send_raw(1, 5, Payload::F64(vec![1.0])).unwrap();
                None
            } else {
                Some(recv_now(&mut comm, 0, 5))
            }
        });
        assert_eq!(
            results[1].clone().unwrap().unwrap_err(),
            CommError::PayloadType { src: 0, tag: 5 }
        );
    }

    #[test]
    fn invalid_rank_is_an_error() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            comm.isend_f32(9, 0, vec![1.0]).unwrap_err()
        });
        assert_eq!(results[0], CommError::InvalidRank { rank: 9, size: 2 });
    }

    #[test]
    fn irecv_from_invalid_rank_fails_at_post() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            comm.irecv_f32(5, 0).unwrap_err()
        });
        assert_eq!(results[0], CommError::InvalidRank { rank: 5, size: 2 });
    }

    #[test]
    fn try_run_reports_rank_panics_individually() {
        let results = ThreadWorld::try_run(3, NetworkProfile::loopback(), |comm| {
            if comm.rank() == 1 {
                panic!("injected failure on rank 1");
            }
            comm.rank()
        });
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert_eq!(*results[2].as_ref().unwrap(), 2);
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(err.message.contains("injected failure"), "{}", err.message);
    }

    #[test]
    fn barrier_times_out_when_a_rank_never_arrives() {
        let results = ThreadWorld::run(3, NetworkProfile::loopback(), |mut comm| {
            comm.set_recv_timeout(Some(Duration::from_millis(50)));
            if comm.rank() == 2 {
                // Rank 2 skips the barrier entirely (a "dead" rank).
                return None;
            }
            Some(comm.barrier())
        });
        // Rank 0 gathers entries and must report the missing peer.
        match results[0].clone().unwrap() {
            Err(CommError::Timeout { src: 2, tag, .. }) => assert_eq!(tag, tags::BARRIER),
            other => panic!("expected timeout on rank 2 entry, got {other:?}"),
        }
    }

    #[test]
    fn stats_track_bytes_and_modeled_time() {
        let results = ThreadWorld::run(2, NetworkProfile::ranger_infiniband(), |mut comm| {
            if comm.rank() == 0 {
                comm.isend_f32(1, 5, vec![0.0; 1000]).unwrap();
            } else {
                recv_now(&mut comm, 0, 5).unwrap();
            }
            comm.barrier().unwrap();
            comm.stats()
        });
        assert_eq!(results[0].bytes_sent, 4000);
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[0].tag_traffic(5), (1, 4000));
        assert_eq!(results[1].bytes_received, 4000);
        assert!(results[0].modeled_time_s > 0.0);
        assert!(results[1].wall_time_s > 0.0);
    }

    #[test]
    fn reset_stats_clears() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                comm.isend_f32(1, 9, vec![1.0]).unwrap();
            } else {
                recv_now(&mut comm, 0, 9).unwrap();
            }
            comm.reset_stats();
            comm.stats()
        });
        assert_eq!(results[0].bytes_sent, 0);
        assert_eq!(results[1].bytes_received, 0);
    }

    #[test]
    fn single_rank_world_collectives_are_identity() {
        let results = ThreadWorld::run(1, NetworkProfile::loopback(), |mut comm| {
            comm.barrier().unwrap();
            comm.allreduce_sum(42.0).unwrap()
        });
        assert_eq!(results, vec![42.0]);
    }

    #[test]
    fn stats_distinguish_post_overlap_and_wait() {
        let results = ThreadWorld::run(2, NetworkProfile::loopback(), |mut comm| {
            if comm.rank() == 0 {
                comm.isend_f32(1, 3, vec![0.0; 64]).unwrap();
            } else {
                let req = comm.irecv_f32(0, 3).unwrap();
                // Simulated "inner computation" — this interval must show
                // up as overlap, not wait.
                std::thread::sleep(Duration::from_millis(20));
                comm.wait(req).unwrap();
            }
            comm.stats()
        });
        assert_eq!(results[0].posts, 1);
        assert_eq!(results[1].posts, 1);
        // The receiver slept 20 ms between post and wait; the message was
        // already in flight, so overlap dominates and wait stays small.
        assert!(results[1].overlap_time_s >= 0.02, "{:?}", results[1]);
        assert!(
            results[1].wait_time_s < results[1].overlap_time_s,
            "{:?}",
            results[1]
        );
    }

    fn watched(timeout: Duration, poll: Duration) -> Option<WatchdogConfig> {
        Some(WatchdogConfig {
            timeout,
            poll_interval: Some(poll),
            escalate: true,
        })
    }

    #[test]
    fn watched_healthy_world_reports_no_stall() {
        let config = watched(Duration::from_secs(5), Duration::from_millis(2));
        let (results, report) =
            ThreadWorld::launch(3, NetworkProfile::loopback(), config, |mut comm| {
                for istep in 0..20 {
                    comm.on_time_step(istep)?;
                    comm.barrier()?;
                }
                Ok::<usize, CommError>(comm.rank())
            });
        let report = report.expect("a watched launch returns the monitor's report");
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap().as_ref().unwrap(), rank);
        }
        assert!(!report.stalled(), "{report:?}");
        assert_eq!(report.last_steps, vec![Some(19), Some(19), Some(19)]);
        // The barrier keeps ranks in lockstep: skew stays tiny.
        assert!(report.max_skew_steps <= 1, "{report:?}");
    }

    #[test]
    fn watched_world_escalates_a_stalled_rank() {
        let config = watched(Duration::from_millis(40), Duration::from_millis(5));
        let (results, report) =
            ThreadWorld::launch(3, NetworkProfile::loopback(), config, |mut comm| {
                let rank = comm.rank();
                for istep in 0..1000 {
                    comm.on_time_step(istep)?;
                    // Healthy ranks step at a steady cadence; rank 1 is
                    // two hundred times slower — a wedged straggler.
                    let step_time = if rank == 1 { 200 } else { 1 };
                    std::thread::sleep(Duration::from_millis(step_time));
                }
                Ok::<usize, CommError>(rank)
            });
        let report = report.expect("a watched launch returns the monitor's report");
        assert!(report.stalled(), "{report:?}");
        assert_eq!(report.stalls[0].rank, 1);
        // The healthy ranks abort with the typed stall error naming the
        // straggler instead of running to completion or hanging.
        for rank in [0, 2] {
            match results[rank].as_ref().unwrap() {
                Err(CommError::Stalled { rank: culprit, .. }) => assert_eq!(*culprit, 1),
                other => panic!("rank {rank}: expected Stalled, got {other:?}"),
            }
        }
        assert!(
            report.metrics.gauges["watchdog.stalled_ranks"] >= 1.0,
            "{report:?}"
        );
    }

    #[test]
    fn unwatched_comm_on_time_step_is_a_no_op() {
        let (results, report) =
            ThreadWorld::launch(2, NetworkProfile::loopback(), None, |mut comm| {
                for istep in 0..5 {
                    comm.on_time_step(istep).unwrap();
                }
                comm.rank()
            });
        assert!(report.is_none());
        let ranks: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn many_ranks_heavy_traffic() {
        // All-to-all with distinct payload sizes; checks buffering under load.
        let n = 8;
        let results = ThreadWorld::run(n, NetworkProfile::loopback(), |mut comm| {
            let rank = comm.rank();
            for dest in 0..n {
                if dest != rank {
                    comm.isend_f32(dest, 50, vec![rank as f32; rank + 1])
                        .unwrap();
                }
            }
            let mut total = 0.0f32;
            for src in 0..n {
                if src != rank {
                    let v = recv_now(&mut comm, src, 50).unwrap();
                    assert_eq!(v.len(), src + 1);
                    total += v.iter().sum::<f32>();
                }
            }
            total
        });
        // Σ_{src≠rank} src·(src+1)
        for (rank, total) in results.iter().enumerate() {
            let expect: f32 = (0..n)
                .filter(|&s| s != rank)
                .map(|s| (s * (s + 1)) as f32)
                .sum();
            assert_eq!(*total, expect);
        }
    }
}
