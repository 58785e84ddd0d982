//! Straggler/stall watchdog for the thread world.
//!
//! At 62K cores the failure mode that wastes the most allocation is not
//! the crash — it is the *silent* straggler: one rank descheduled, stuck
//! in a slow I/O path, or spinning in a kernel, while every other rank
//! blocks in the next halo exchange. The watchdog is the in-flight
//! instrument for that: every rank advances a heartbeat (two relaxed
//! atomic stores — step number and timestamp — per time step, nothing
//! at all when disabled), and a monitor thread owned by
//! [`ThreadWorld::launch`](crate::ThreadWorld::launch)
//! polls the heartbeats, computes cross-rank step skew, emits gauges
//! (`watchdog.max_skew_steps`, per-rank `watchdog.rank<N>.last_step`),
//! and flags ranks whose heartbeat age exceeds the configured timeout.
//!
//! A flagged stall *escalates* instead of hanging: the shared state
//! records the stalled rank, and every healthy rank's next
//! `on_time_step` returns [`CommError::Stalled`] naming it — the same
//! typed error path rank death and receive timeouts already use, so the
//! driver's retry/checkpoint machinery handles stragglers for free.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::error::CommError;
use specfem_obs::{MetricsRegistry, MetricsSnapshot};

/// Watchdog configuration for a watched world.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Heartbeat age past which a rank counts as stalled.
    pub timeout: Duration,
    /// Monitor poll cadence; `None` derives `timeout / 4` (≥ 1 ms).
    pub poll_interval: Option<Duration>,
    /// Escalate a detected stall to [`CommError::Stalled`] on the
    /// healthy ranks (true, the default) or only observe and report.
    pub escalate: bool,
}

impl WatchdogConfig {
    /// A watchdog with the given stall threshold and default cadence.
    pub fn new(timeout: Duration) -> Self {
        Self {
            timeout,
            poll_interval: None,
            escalate: true,
        }
    }

    pub(crate) fn effective_poll(&self) -> Duration {
        self.poll_interval
            .unwrap_or_else(|| (self.timeout / 4).max(Duration::from_millis(1)))
    }
}

/// Sentinel for "no stalled rank recorded".
const NO_STALL: usize = usize::MAX;

struct HeartbeatCell {
    /// Last step beaten, stored as `step + 1` (0 = never stepped).
    step: AtomicU64,
    /// Timestamp of the last beat, ns since the shared obs epoch.
    at_ns: AtomicU64,
    /// Set when the rank's communicator is dropped (the rank returned).
    done: AtomicBool,
}

/// Shared heartbeat state between rank endpoints and the monitor.
///
/// All accesses are relaxed atomics: heartbeats are monotonic telemetry,
/// not synchronization, and a beat must cost nothing measurable on the
/// step path.
pub struct Heartbeats {
    cells: Vec<HeartbeatCell>,
    /// First stalled rank the monitor flagged ([`NO_STALL`] = none).
    stalled_rank: AtomicUsize,
    stalled_step: AtomicU64,
    stalled_age_ms: AtomicU64,
}

impl Heartbeats {
    pub(crate) fn new(size: usize) -> Self {
        let now = specfem_obs::timestamp_ns();
        Self {
            cells: (0..size)
                .map(|_| HeartbeatCell {
                    step: AtomicU64::new(0),
                    // Arm from world creation so a rank wedged in setup
                    // (never reaching step 0) still trips the timeout.
                    at_ns: AtomicU64::new(now),
                    done: AtomicBool::new(false),
                })
                .collect(),
            stalled_rank: AtomicUsize::new(NO_STALL),
            stalled_step: AtomicU64::new(0),
            stalled_age_ms: AtomicU64::new(0),
        }
    }

    /// Advance rank `rank`'s heartbeat to `istep`.
    #[inline]
    pub(crate) fn beat(&self, rank: usize, istep: usize) {
        let cell = &self.cells[rank];
        cell.step.store(istep as u64 + 1, Ordering::Relaxed);
        cell.at_ns
            .store(specfem_obs::timestamp_ns(), Ordering::Relaxed);
    }

    /// Mark rank `rank` finished (its endpoint was dropped).
    pub(crate) fn mark_done(&self, rank: usize) {
        self.cells[rank].done.store(true, Ordering::Relaxed);
    }

    /// The escalated stall, if the monitor flagged one: `(rank,
    /// last_step, age)` with `last_step == None` when the rank never
    /// completed a step.
    pub fn stall(&self) -> Option<(usize, Option<u64>, Duration)> {
        let rank = self.stalled_rank.load(Ordering::Relaxed);
        if rank == NO_STALL {
            return None;
        }
        let step = self.stalled_step.load(Ordering::Relaxed);
        Some((
            rank,
            step.checked_sub(1),
            Duration::from_millis(self.stalled_age_ms.load(Ordering::Relaxed)),
        ))
    }

    /// The [`CommError::Stalled`] for the escalated stall, if any.
    pub(crate) fn stall_error(&self) -> Option<CommError> {
        self.stall()
            .map(|(rank, last_step, age)| CommError::Stalled {
                rank,
                last_step,
                age,
            })
    }

    fn record_stall(&self, rank: usize, step_plus_one: u64, age: Duration) {
        // First stall wins; later flags keep the original culprit.
        if self
            .stalled_rank
            .compare_exchange(NO_STALL, rank, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.stalled_step.store(step_plus_one, Ordering::Relaxed);
            self.stalled_age_ms
                .store(age.as_millis() as u64, Ordering::Relaxed);
        }
    }
}

/// One stall observation from the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallEvent {
    /// The flagged rank.
    pub rank: usize,
    /// Last completed step (`None` = stalled before its first step).
    pub last_step: Option<u64>,
    /// Heartbeat age when flagged.
    pub age: Duration,
}

/// What the monitor observed over the run.
#[derive(Debug, Clone, Default)]
pub struct WatchdogReport {
    /// The world size the monitor actually watched. On an elastic
    /// (shrink-to-survive) resume this is the *post-shrink* world — the
    /// heartbeat table is rebuilt per attempt, so the report and the
    /// `watchdog.*` gauges never echo the original world size.
    pub world_size: usize,
    /// Largest cross-rank step skew seen on any poll (max − min over
    /// ranks still running).
    pub max_skew_steps: u64,
    /// Final heartbeat step per rank (`None` = never stepped).
    pub last_steps: Vec<Option<u64>>,
    /// Ranks flagged as stalled, in detection order (one entry per rank).
    pub stalls: Vec<StallEvent>,
    /// Number of monitor polls taken.
    pub polls: u64,
    /// The monitor's gauges (`watchdog.max_skew_steps`, per-rank
    /// `watchdog.rank<N>.last_step`, `watchdog.stalled_ranks`).
    pub metrics: MetricsSnapshot,
}

impl WatchdogReport {
    /// Whether any rank was flagged as stalled.
    pub fn stalled(&self) -> bool {
        !self.stalls.is_empty()
    }
}

/// The monitor loop: runs on its own thread inside the watched world's
/// scope until `stop` is set, then takes a final sample and returns the
/// report. The monitor owns its [`MetricsRegistry`] — it is not a rank,
/// so it must not touch the thread-local rank recorder.
pub(crate) fn monitor_loop(
    hb: &Heartbeats,
    config: &WatchdogConfig,
    stop: &AtomicBool,
) -> WatchdogReport {
    let size = hb.cells.len();
    // Gauge names are `&'static str` by registry contract; the per-rank
    // names are built once per world and leaked (bounded by nranks).
    let rank_gauges: Vec<&'static str> = (0..size)
        .map(|r| &*Box::leak(format!("watchdog.rank{r}.last_step").into_boxed_str()))
        .collect();
    let mut metrics = MetricsRegistry::default();
    let mut report = WatchdogReport {
        world_size: size,
        last_steps: vec![None; size],
        ..WatchdogReport::default()
    };
    metrics.gauge_set("watchdog.world_size", size as f64);
    let poll = config.effective_poll();
    let timeout_ns = config.timeout.as_nanos() as u64;
    let mut flagged = vec![false; size];
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let now = specfem_obs::timestamp_ns();
        let mut min_step = u64::MAX;
        let mut max_step = 0u64;
        let mut active = 0usize;
        for (rank, cell) in hb.cells.iter().enumerate() {
            let step = cell.step.load(Ordering::Relaxed);
            report.last_steps[rank] = step.checked_sub(1);
            metrics.gauge_set(rank_gauges[rank], step.saturating_sub(1) as f64);
            if cell.done.load(Ordering::Relaxed) {
                continue; // finished ranks are neither skewed nor stalled
            }
            active += 1;
            min_step = min_step.min(step);
            max_step = max_step.max(step);
            let age_ns = now.saturating_sub(cell.at_ns.load(Ordering::Relaxed));
            if !stopping && age_ns > timeout_ns && !flagged[rank] {
                flagged[rank] = true;
                let age = Duration::from_nanos(age_ns);
                report.stalls.push(StallEvent {
                    rank,
                    last_step: step.checked_sub(1),
                    age,
                });
                if config.escalate {
                    hb.record_stall(rank, step, age);
                }
            }
        }
        if active >= 2 {
            let skew = max_step - min_step;
            report.max_skew_steps = report.max_skew_steps.max(skew);
        }
        metrics.gauge_set("watchdog.max_skew_steps", report.max_skew_steps as f64);
        metrics.gauge_set("watchdog.stalled_ranks", report.stalls.len() as f64);
        report.polls += 1;
        if stopping {
            break;
        }
        std::thread::sleep(poll);
    }
    report.metrics = metrics.snapshot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeats_record_steps_and_stall_escalation() {
        let hb = Heartbeats::new(3);
        hb.beat(0, 5);
        hb.beat(1, 7);
        assert!(hb.stall().is_none());
        assert!(hb.stall_error().is_none());
        hb.record_stall(2, 0, Duration::from_millis(40));
        let (rank, last, age) = hb.stall().unwrap();
        assert_eq!(rank, 2);
        assert_eq!(last, None); // never stepped
        assert_eq!(age, Duration::from_millis(40));
        match hb.stall_error().unwrap() {
            CommError::Stalled {
                rank, last_step, ..
            } => {
                assert_eq!(rank, 2);
                assert_eq!(last_step, None);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        // First stall wins.
        hb.record_stall(1, 8, Duration::from_millis(99));
        assert_eq!(hb.stall().unwrap().0, 2);
    }

    #[test]
    fn monitor_observes_skew_and_stalls() {
        let hb = Heartbeats::new(2);
        let stop = AtomicBool::new(false);
        let config = WatchdogConfig {
            timeout: Duration::from_millis(30),
            poll_interval: Some(Duration::from_millis(5)),
            escalate: true,
        };
        // Rank 0 races ahead; rank 1 beats once then goes silent.
        hb.beat(1, 0);
        let report = std::thread::scope(|s| {
            let h = s.spawn(|| monitor_loop(&hb, &config, &stop));
            for step in 0..20 {
                hb.beat(0, step);
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Release);
            h.join().unwrap()
        });
        assert!(report.max_skew_steps > 0, "{report:?}");
        assert_eq!(report.world_size, 2);
        assert_eq!(report.metrics.gauges["watchdog.world_size"], 2.0);
        assert!(report.stalled());
        assert_eq!(report.stalls[0].rank, 1);
        assert_eq!(report.stalls[0].last_step, Some(0));
        assert!(hb.stall_error().is_some());
        assert!(report
            .metrics
            .gauges
            .contains_key("watchdog.max_skew_steps"));
        assert!(report
            .metrics
            .gauges
            .contains_key("watchdog.rank1.last_step"));
        assert_eq!(report.metrics.gauges["watchdog.rank0.last_step"], 19.0);
    }

    #[test]
    fn observe_only_mode_never_escalates() {
        let hb = Heartbeats::new(1);
        let stop = AtomicBool::new(false);
        let config = WatchdogConfig {
            timeout: Duration::from_millis(1),
            poll_interval: Some(Duration::from_millis(2)),
            escalate: false,
        };
        let report = std::thread::scope(|s| {
            let h = s.spawn(|| monitor_loop(&hb, &config, &stop));
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Release);
            h.join().unwrap()
        });
        assert!(report.stalled(), "the silent rank must still be flagged");
        assert!(hb.stall().is_none(), "but never escalated");
    }

    #[test]
    fn finished_ranks_are_not_flagged() {
        let hb = Heartbeats::new(2);
        hb.beat(0, 9);
        hb.beat(1, 9);
        hb.mark_done(0);
        hb.mark_done(1);
        let stop = AtomicBool::new(false);
        let config = WatchdogConfig::new(Duration::from_millis(1));
        let report = std::thread::scope(|s| {
            let h = s.spawn(|| monitor_loop(&hb, &config, &stop));
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Release);
            h.join().unwrap()
        });
        assert!(!report.stalled(), "{report:?}");
        assert_eq!(report.last_steps, vec![Some(9), Some(9)]);
    }

    #[test]
    fn default_poll_is_a_quarter_timeout() {
        let c = WatchdogConfig::new(Duration::from_millis(200));
        assert_eq!(c.effective_poll(), Duration::from_millis(50));
        let tiny = WatchdogConfig::new(Duration::from_micros(100));
        assert_eq!(tiny.effective_poll(), Duration::from_millis(1));
    }
}
