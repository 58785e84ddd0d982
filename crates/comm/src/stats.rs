//! Per-rank communication statistics — the IPM analog (paper §5).

use std::collections::BTreeMap;
use std::time::Duration;

use specfem_obs::{flight_event, FlightEventKind, LogHistogram, TagTraffic};

/// Mutable accumulator owned by one rank's communicator.
#[derive(Debug, Default, Clone)]
pub struct CommStats {
    /// Bytes sent by this rank.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Collective operations entered (barriers + reductions).
    pub collectives: u64,
    /// Wall time spent inside communication calls.
    pub wall_time: Duration,
    /// Deterministic modeled communication time (seconds) from the
    /// latency/bandwidth network profile.
    pub modeled_time_s: f64,
    /// Non-blocking operations posted (`isend` + `irecv`).
    pub posts: u64,
    /// Wall time spent posting non-blocking operations (the cheap part —
    /// should stay near zero if overlap works).
    pub post_time: Duration,
    /// Cumulative overlap window: time between posting a request and
    /// entering `wait` on it — the computation hidden behind the wire.
    pub overlap_time: Duration,
    /// Wall time blocked inside `wait` — the *exposed*
    /// communication cost an overlapped solver actually pays.
    pub wait_time: Duration,
    /// Sent traffic keyed by message tag (see [`crate::tags`]).
    per_tag: BTreeMap<u32, TagTraffic>,
    /// Distribution of sent message sizes in bytes — IPM's message-size
    /// histogram.
    size_hist: LogHistogram,
}

impl CommStats {
    /// Record a message of `bytes` bytes sent with `tag`.
    pub fn on_send(&mut self, tag: u32, bytes: usize) {
        flight_event(FlightEventKind::CommSend, "", tag as u64, bytes as u64);
        self.bytes_sent += bytes as u64;
        self.messages_sent += 1;
        let t = self.per_tag.entry(tag).or_insert(TagTraffic {
            tag,
            messages: 0,
            bytes: 0,
        });
        t.messages += 1;
        t.bytes += bytes as u64;
        self.size_hist.record(bytes as u64);
    }

    /// Record a received message.
    pub fn on_recv(&mut self, bytes: usize) {
        flight_event(FlightEventKind::CommRecv, "", 0, bytes as u64);
        self.bytes_received += bytes as u64;
    }

    /// Record wall time spent in a communication call.
    pub fn on_wall(&mut self, d: Duration) {
        self.wall_time += d;
    }

    /// Record modeled network time.
    pub fn on_modeled(&mut self, seconds: f64) {
        self.modeled_time_s += seconds;
    }

    /// Record the posting of a non-blocking operation.
    pub fn on_post(&mut self, d: Duration) {
        self.posts += 1;
        self.post_time += d;
    }

    /// Record the completion of a waited request: `overlap` is the window
    /// between post and `wait` entry, `blocked` the time spent inside
    /// `wait` itself.
    pub fn on_wait(&mut self, overlap: Duration, blocked: Duration) {
        flight_event(
            FlightEventKind::CommWait,
            "",
            overlap.as_nanos() as u64,
            blocked.as_nanos() as u64,
        );
        self.overlap_time += overlap;
        self.wait_time += blocked;
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            messages_sent: self.messages_sent,
            collectives: self.collectives,
            wall_time_s: self.wall_time.as_secs_f64(),
            modeled_time_s: self.modeled_time_s,
            posts: self.posts,
            post_time_s: self.post_time.as_secs_f64(),
            overlap_time_s: self.overlap_time.as_secs_f64(),
            wait_time_s: self.wait_time.as_secs_f64(),
            per_tag: self.per_tag.values().copied().collect(),
            size_hist: self.size_hist.clone(),
        }
    }

    /// Zero all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Immutable copy of one rank's statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub messages_sent: u64,
    pub collectives: u64,
    pub wall_time_s: f64,
    pub modeled_time_s: f64,
    /// Non-blocking operations posted.
    pub posts: u64,
    /// Seconds spent posting non-blocking operations.
    pub post_time_s: f64,
    /// Cumulative post→wait overlap window (seconds).
    pub overlap_time_s: f64,
    /// Seconds blocked inside `wait`.
    pub wait_time_s: f64,
    /// Sent traffic per message tag, ascending tag order.
    pub per_tag: Vec<TagTraffic>,
    /// Sent message-size distribution (log₂ buckets).
    pub size_hist: LogHistogram,
}

impl StatsSnapshot {
    /// Sent traffic for one message tag as `(messages, bytes)` — `(0, 0)`
    /// when the tag never appeared. Saves every per-tag assertion in the
    /// oracle suites from re-walking `per_tag` by hand.
    pub fn tag_traffic(&self, tag: u32) -> (u64, u64) {
        self.per_tag
            .iter()
            .find(|t| t.tag == tag)
            .map(|t| (t.messages, t.bytes))
            .unwrap_or((0, 0))
    }

    /// Aggregate snapshots from all ranks into "total for all cores" form —
    /// the quantity Figures 6/7 of the paper plot.
    pub fn total(all: &[StatsSnapshot]) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        let mut tags: BTreeMap<u32, TagTraffic> = BTreeMap::new();
        for s in all {
            out.bytes_sent += s.bytes_sent;
            out.bytes_received += s.bytes_received;
            out.messages_sent += s.messages_sent;
            out.collectives += s.collectives;
            out.wall_time_s += s.wall_time_s;
            out.modeled_time_s += s.modeled_time_s;
            out.posts += s.posts;
            out.post_time_s += s.post_time_s;
            out.overlap_time_s += s.overlap_time_s;
            out.wait_time_s += s.wait_time_s;
            for t in &s.per_tag {
                let e = tags.entry(t.tag).or_insert(TagTraffic {
                    tag: t.tag,
                    messages: 0,
                    bytes: 0,
                });
                e.messages += t.messages;
                e.bytes += t.bytes;
            }
            out.size_hist.merge(&s.size_hist);
        }
        out.per_tag = tags.into_values().collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_resets() {
        let mut s = CommStats::default();
        s.on_send(100, 100);
        s.on_send(101, 50);
        s.on_recv(100);
        s.on_wall(Duration::from_millis(5));
        s.on_modeled(1.5e-6);
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
        s.on_post(Duration::from_micros(3));
        s.on_post(Duration::from_micros(2));
        s.on_wait(Duration::from_millis(4), Duration::from_millis(1));
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
        s.on_send(100, 4096);
        s.on_send(100, 4096);
        s.on_send(200, 8);
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
        s.on_send(100, 4096);
        s.on_recv(128);
        s.on_wait(Duration::from_micros(2), Duration::from_micros(1));
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
        s1.on_send(100, 64);
        s1.on_send(200, 8);
        let mut s2 = CommStats::default();
        s2.on_send(100, 64);
        let t = StatsSnapshot::total(&[s1.snapshot(), s2.snapshot()]);
        assert_eq!(t.per_tag.len(), 2);
        assert_eq!(t.per_tag[0].tag, 100);
        assert_eq!(t.per_tag[0].messages, 2);
        assert_eq!(t.per_tag[0].bytes, 128);
        assert_eq!(t.size_hist.count(), 3);
    }
}
