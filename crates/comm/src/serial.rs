//! Single-rank communicator: the degenerate world used for serial runs and
//! as the reference in parallel-vs-serial equivalence tests.

use crate::error::CommError;
use crate::request::Request;
use crate::stats::{CommStats, StatsSnapshot};
use crate::Communicator;
use std::time::Duration;

/// A world of one. Point-to-point messaging to *any* other rank is a typed
/// error; self-sends are buffered and receivable (matching MPI semantics for
/// buffered self-communication).
#[derive(Debug, Default)]
pub struct SerialComm {
    self_queue: Vec<(u32, Vec<f32>)>,
    stats: CommStats,
}

impl SerialComm {
    /// Create the single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Communicator for SerialComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn isend_f32(&mut self, dest: usize, tag: u32, data: Vec<f32>) -> Result<(), CommError> {
        if dest != 0 {
            return Err(CommError::InvalidRank {
                rank: dest,
                size: 1,
            });
        }
        self.stats
            .on_isend(tag, data.len() * 4, 0.0, Duration::ZERO);
        self.self_queue.push((tag, data));
        Ok(())
    }

    fn irecv_f32(&mut self, src: usize, tag: u32) -> Result<Request, CommError> {
        if src != 0 {
            return Err(CommError::InvalidRank { rank: src, size: 1 });
        }
        self.stats.on_irecv();
        Ok(Request::recv(src, tag))
    }

    fn wait(&mut self, req: Request) -> Result<Vec<f32>, CommError> {
        let overlap = req.age();
        let (src, tag) = (req.src(), req.tag());
        // A receive with no buffered self-message can never complete — in a
        // world of one there is nobody else to send it.
        let pos =
            self.self_queue
                .iter()
                .position(|(t, _)| *t == tag)
                .ok_or(CommError::Timeout {
                    src,
                    tag,
                    waited: Duration::ZERO,
                })?;
        let (_, data) = self.self_queue.remove(pos);
        self.stats
            .on_wait(data.len() * 4, 0.0, overlap, Duration::ZERO);
        Ok(data)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.stats.on_collective(0.0, Duration::ZERO);
        Ok(())
    }

    fn allreduce(&mut self, x: f64, _op: fn(f64, f64) -> f64) -> Result<f64, CommError> {
        self.stats.on_collective(0.0, Duration::ZERO);
        Ok(x)
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
    fn collectives_are_identity() {
        let mut c = SerialComm::new();
        assert_eq!(c.allreduce_sum(3.5).unwrap(), 3.5);
        assert_eq!(c.allreduce_min(-1.0).unwrap(), -1.0);
        assert_eq!(c.allreduce_max(7.0).unwrap(), 7.0);
        c.barrier().unwrap();
        assert_eq!(c.stats().collectives, 4);
    }

    #[test]
    fn self_send_recv_roundtrip() {
        // Self-messages match by tag, whatever order they were sent in.
        let mut c = SerialComm::new();
        c.isend_f32(0, 3, vec![1.0, 2.0]).unwrap();
        c.isend_f32(0, 4, vec![9.0]).unwrap();
        assert_eq!(recv_now(&mut c, 0, 4).unwrap(), vec![9.0]);
        assert_eq!(recv_now(&mut c, 0, 3).unwrap(), vec![1.0, 2.0]);
        assert_eq!(c.stats().bytes_sent, 12);
        assert_eq!(c.stats().bytes_received, 12);
    }

    #[test]
    fn nonblocking_self_roundtrip() {
        // Receives posted before the sends exist; same-tag messages come
        // back in send order.
        let mut c = SerialComm::new();
        let first = c.irecv_f32(0, 3).unwrap();
        let second = c.irecv_f32(0, 3).unwrap();
        c.isend_f32(0, 3, vec![4.0, 5.0]).unwrap();
        c.isend_f32(0, 3, vec![6.0]).unwrap();
        assert_eq!(c.wait(first).unwrap(), vec![4.0, 5.0]);
        assert_eq!(c.wait(second).unwrap(), vec![6.0]);
        assert_eq!(c.stats().posts, 4);
    }

    #[test]
    fn send_to_other_rank_is_an_error() {
        let mut c = SerialComm::new();
        let invalid = CommError::InvalidRank { rank: 1, size: 1 };
        assert_eq!(c.isend_f32(1, 0, vec![0.0]).unwrap_err(), invalid);
        assert_eq!(c.irecv_f32(1, 0).unwrap_err(), invalid);
    }

    #[test]
    fn recv_with_no_buffered_message_is_a_timeout() {
        // A message under another tag does not satisfy the receive, and
        // stays queued for its own.
        let mut c = SerialComm::new();
        c.isend_f32(0, 7, vec![1.0]).unwrap();
        assert!(matches!(
            recv_now(&mut c, 0, 8).unwrap_err(),
            CommError::Timeout { src: 0, tag: 8, .. }
        ));
        assert_eq!(recv_now(&mut c, 0, 7).unwrap(), vec![1.0]);
    }

    #[test]
    fn wait_on_unmatched_recv_is_a_timeout() {
        let mut c = SerialComm::new();
        let req = c.irecv_f32(0, 9).unwrap();
        assert!(matches!(
            c.wait(req).unwrap_err(),
            CommError::Timeout { src: 0, tag: 9, .. }
        ));
    }
}
