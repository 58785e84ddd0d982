//! Per-rank communication statistics — the IPM analog (paper §5).
//!
//! Each [`crate::Communicator`] operation makes exactly one [`CommStats`]
//! call, which updates the sums and histograms and journals the
//! operation's flight-recorder event.

use std::time::Duration;

pub use specfem_obs::StatsSnapshot;
use specfem_obs::{flight_event, FlightEventKind};

/// Mutable accumulator owned by one rank's communicator: the counters,
/// modeled time and histograms kept in snapshot form, and the wall times
/// summed exactly as [`Duration`]s until a snapshot converts them.
#[derive(Debug, Default, Clone)]
pub struct CommStats {
    s: StatsSnapshot,
    wall_time: Duration,
    post_time: Duration,
    overlap_time: Duration,
    wait_time: Duration,
}

impl CommStats {
    /// An `isend` of `bytes` bytes with `tag`, charged `modeled_s` of
    /// network time, that took `elapsed` to post.
    pub fn on_isend(&mut self, tag: u32, bytes: usize, modeled_s: f64, elapsed: Duration) {
        flight_event(FlightEventKind::CommSend, "", tag as u64, bytes as u64);
        let s = &mut self.s;
        s.bytes_sent += bytes as u64;
        s.messages_sent += 1;
        s.add_tag_traffic(tag, 1, bytes as u64);
        s.size_hist.record(bytes as u64);
        s.modeled_time_s += modeled_s;
        s.posts += 1;
        self.post_time += elapsed;
        self.wall_time += elapsed;
    }

    /// An `irecv` posted (posting a receive costs nothing to time).
    pub fn on_irecv(&mut self) {
        self.s.posts += 1;
    }

    /// A completed `wait` that received `bytes` bytes, charged
    /// `modeled_s`: `overlap` is the window between post and `wait`
    /// entry, `blocked` the time spent inside `wait` itself.
    pub fn on_wait(&mut self, bytes: usize, modeled_s: f64, overlap: Duration, blocked: Duration) {
        let blocked_ns = blocked.as_nanos() as u64;
        flight_event(FlightEventKind::CommRecv, "", 0, bytes as u64);
        flight_event(
            FlightEventKind::CommWait,
            "",
            overlap.as_nanos() as u64,
            blocked_ns,
        );
        self.s.bytes_received += bytes as u64;
        self.s.modeled_time_s += modeled_s;
        self.s.wait_hist.record(blocked_ns);
        self.wall_time += blocked;
        self.overlap_time += overlap;
        self.wait_time += blocked;
    }

    /// A completed collective (barrier or reduction), charged
    /// `modeled_s`, that took `elapsed`.
    pub fn on_collective(&mut self, modeled_s: f64, elapsed: Duration) {
        self.s.collectives += 1;
        self.s.modeled_time_s += modeled_s;
        self.wall_time += elapsed;
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            wall_time_s: self.wall_time.as_secs_f64(),
            post_time_s: self.post_time.as_secs_f64(),
            overlap_time_s: self.overlap_time.as_secs_f64(),
            wait_time_s: self.wait_time.as_secs_f64(),
            ..self.s.clone()
        }
    }

    /// Zero all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_resets() {
        let mut s = CommStats::default();
        s.on_isend(100, 100, 0.0, Duration::ZERO);
        s.on_isend(101, 50, 0.0, Duration::ZERO);
        s.on_wait(100, 1.5e-6, Duration::ZERO, Duration::from_millis(5));
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_received, 100);
        assert!(snap.wall_time_s >= 0.005);
        assert!((snap.modeled_time_s - 1.5e-6).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn tracks_nonblocking_phases() {
        let mut s = CommStats::default();
        s.on_isend(100, 0, 0.0, Duration::from_micros(3));
        s.on_isend(100, 0, 0.0, Duration::from_micros(2));
        s.on_wait(0, 0.0, Duration::from_millis(4), Duration::from_millis(1));
        let snap = s.snapshot();
        assert_eq!(snap.posts, 2);
        assert!(snap.post_time_s >= 5e-6);
        assert!(snap.overlap_time_s >= 4e-3);
        assert!(snap.wait_time_s >= 1e-3);
        let t = StatsSnapshot::total(&[snap.clone(), snap.clone()]);
        assert_eq!(t.posts, 4);
        assert!((t.overlap_time_s - 2.0 * snap.overlap_time_s).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot().posts, 0);
    }

    #[test]
    fn tracks_per_tag_and_size_distribution() {
        let mut s = CommStats::default();
        s.on_isend(100, 4096, 0.0, Duration::ZERO);
        s.on_isend(100, 4096, 0.0, Duration::ZERO);
        s.on_isend(200, 8, 0.0, Duration::ZERO);
        let snap = s.snapshot();
        assert_eq!(snap.per_tag.len(), 2);
        assert_eq!(snap.per_tag[0].tag, 100);
        assert_eq!(snap.per_tag[0].messages, 2);
        assert_eq!(snap.per_tag[0].bytes, 8192);
        assert_eq!(snap.per_tag[1].tag, 200);
        assert_eq!(snap.per_tag[1].bytes, 8);
        assert_eq!(snap.size_hist.count(), 3);
        assert_eq!(snap.size_hist.sum(), 8200);
        // 4096 = 2^12 lands in the [4096, 8191] bucket, twice.
        assert_eq!(snap.size_hist.top_k(1), vec![(4096, 8191, 2)]);
        // The per-tag accessor reads the same numbers without a walk.
        assert_eq!(snap.tag_traffic(100), (2, 8192));
        assert_eq!(snap.tag_traffic(200), (1, 8));
        assert_eq!(snap.tag_traffic(999), (0, 0));
    }

    #[test]
    fn comm_edges_are_journaled_when_flight_armed() {
        specfem_obs::flight_arm(0, 64);
        let mut s = CommStats::default();
        s.on_isend(100, 4096, 0.0, Duration::ZERO);
        s.on_wait(128, 0.0, Duration::from_micros(2), Duration::from_micros(1));
        let j = specfem_obs::flight_harvest().unwrap();
        let kinds: Vec<_> = j.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightEventKind::CommSend,
                FlightEventKind::CommRecv,
                FlightEventKind::CommWait
            ]
        );
        assert_eq!(j.events[0].a, 100);
        assert_eq!(j.events[0].b, 4096);
        assert_eq!(j.events[1].b, 128);
        assert_eq!(j.events[2].a, 2_000);
        assert_eq!(j.events[2].b, 1_000);
    }

    #[test]
    fn total_sums_ranks() {
        let a = StatsSnapshot {
            bytes_sent: 10,
            messages_sent: 1,
            modeled_time_s: 0.5,
            ..Default::default()
        };
        let b = StatsSnapshot {
            bytes_sent: 20,
            messages_sent: 2,
            modeled_time_s: 0.25,
            ..Default::default()
        };
        let t = StatsSnapshot::total(&[a, b]);
        assert_eq!(t.bytes_sent, 30);
        assert_eq!(t.messages_sent, 3);
        assert!((t.modeled_time_s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn total_merges_tags_and_histograms() {
        let mut s1 = CommStats::default();
        s1.on_isend(100, 64, 0.0, Duration::ZERO);
        s1.on_isend(200, 8, 0.0, Duration::ZERO);
        let mut s2 = CommStats::default();
        s2.on_isend(100, 64, 0.0, Duration::ZERO);
        let t = StatsSnapshot::total(&[s1.snapshot(), s2.snapshot()]);
        assert_eq!(t.per_tag.len(), 2);
        assert_eq!(t.per_tag[0].tag, 100);
        assert_eq!(t.per_tag[0].messages, 2);
        assert_eq!(t.per_tag[0].bytes, 128);
        assert_eq!(t.size_hist.count(), 3);
    }

    #[test]
    fn wait_histogram_records_each_blocked_wait() {
        let mut s = CommStats::default();
        s.on_wait(8, 0.0, Duration::ZERO, Duration::from_nanos(1500));
        s.on_wait(8, 0.0, Duration::ZERO, Duration::from_nanos(3000));
        let snap = s.snapshot();
        assert_eq!(snap.wait_hist.count(), 2);
        assert_eq!(snap.wait_hist.sum(), 4500);
        let t = StatsSnapshot::total(&[snap.clone(), snap]);
        assert_eq!(t.wait_hist.count(), 4);
    }
}
