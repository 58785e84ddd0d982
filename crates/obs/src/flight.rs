//! The per-rank flight recorder — a fixed-size ring journal of recent
//! runtime events (span enter/exit, comm send/recv/wait edges, health
//! samples, checkpoint/restore marks) kept so that when a rank dies the
//! last moments before the failure survive for the crash dossier.
//!
//! The journal lives in the same thread-local recorder as the span
//! tracer, armed per rank thread with [`flight_arm`] and harvested with
//! [`flight_harvest`]. A thread with nothing armed pays one relaxed
//! atomic load per would-be event — the same zero-cost-when-disabled
//! discipline the hot kernels already rely on, which is what keeps an
//! armed recorder bit-transparent to the physics (it only ever *reads*
//! metadata, never field values).

use crate::{now_ns, rearm, with_recorder, Ring};

/// What a journal entry records. Discriminants are stable — they are the
/// on-disk codes inside crash-dossier containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEventKind {
    /// A span opened (`label` = span name).
    SpanEnter = 0,
    /// A span closed (`label` = span name, `a` = duration ns).
    SpanExit = 1,
    /// A point-to-point send (`a` = message tag, `b` = bytes).
    CommSend = 2,
    /// A point-to-point receive (`b` = bytes).
    CommRecv = 3,
    /// A completed wait on a non-blocking request (`a` = overlap ns,
    /// `b` = blocked ns).
    CommWait = 4,
    /// A clean numerical-health sample.
    HealthSample = 5,
    /// The health monitor tripped (`label` = field, `a` = flat point).
    HealthTrip = 6,
    /// A checkpoint was written (`a` = next resume step).
    Checkpoint = 7,
    /// State was restored from a checkpoint (`a` = resume step).
    Restore = 8,
}

impl FlightEventKind {
    /// Decode the stable on-disk discriminant.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::SpanEnter,
            1 => Self::SpanExit,
            2 => Self::CommSend,
            3 => Self::CommRecv,
            4 => Self::CommWait,
            5 => Self::HealthSample,
            6 => Self::HealthTrip,
            7 => Self::Checkpoint,
            8 => Self::Restore,
            _ => return None,
        })
    }

    /// Human-readable name (dossier rendering).
    pub fn name(&self) -> &'static str {
        match self {
            Self::SpanEnter => "span_enter",
            Self::SpanExit => "span_exit",
            Self::CommSend => "send",
            Self::CommRecv => "recv",
            Self::CommWait => "wait",
            Self::HealthSample => "health_sample",
            Self::HealthTrip => "health_trip",
            Self::Checkpoint => "checkpoint",
            Self::Restore => "restore",
        }
    }
}

/// One journal entry. Fixed-size except for the static label, so the
/// ring never allocates while recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// The time step the rank was on (see [`flight_set_step`]).
    pub step: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific operand (tag, duration, point, …).
    pub a: u64,
    /// Kind-specific operand (bytes, blocked ns, …).
    pub b: u64,
    /// Static label (span name, field name, `""` when irrelevant).
    pub label: &'static str,
}

/// One rank's harvested journal, oldest event first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightJournal {
    /// The rank that recorded it.
    pub rank: usize,
    /// Ring capacity the journal ran with.
    pub capacity: usize,
    /// Events overwritten after the ring filled — how much history was
    /// lost before the harvest.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// One rank's armed journal: the event ring and the step stamped onto
/// each event.
pub(crate) struct Journal {
    rank: usize,
    events: Ring<FlightEvent>,
    step: u64,
}

impl Journal {
    pub(crate) fn push(
        &mut self,
        t_ns: u64,
        kind: FlightEventKind,
        label: &'static str,
        a: u64,
        b: u64,
    ) {
        self.events.push(FlightEvent {
            t_ns,
            step: self.step,
            kind,
            a,
            b,
            label,
        });
    }
}

/// Arm the flight recorder on the current thread as `rank` with a ring
/// of `capacity` events (clamped to at least 16). A second call replaces
/// the previous journal, discarding it.
pub fn flight_arm(rank: usize, capacity: usize) {
    rearm(|r| {
        r.journal = Some(Journal {
            rank,
            events: Ring::new(capacity.max(16)),
            step: 0,
        })
    });
}

/// Disarm the current thread's journal and return it (`None` when
/// [`flight_arm`] was never called — the disabled path), so callers can
/// harvest unconditionally on both success and failure exits.
pub fn flight_harvest() -> Option<FlightJournal> {
    rearm(|r| r.journal.take()).map(|j| {
        let capacity = j.events.capacity();
        let (events, dropped) = j.events.into_parts();
        FlightJournal {
            rank: j.rank,
            capacity,
            dropped,
            events,
        }
    })
}

/// Whether the current thread has an armed journal.
pub fn flight_active() -> bool {
    with_recorder(|r| r.journal.is_some()).unwrap_or(false)
}

#[inline]
fn with_journal(f: impl FnOnce(&mut Journal)) {
    with_recorder(|r| r.journal.as_mut().map(f));
}

/// Update the step counter stamped onto subsequent events (no-op when
/// disarmed — one relaxed atomic load).
#[inline]
pub fn flight_set_step(step: u64) {
    with_journal(|j| j.step = step);
}

/// Journal one event (no-op when disarmed — one relaxed atomic load).
#[inline]
pub fn flight_event(kind: FlightEventKind, label: &'static str, a: u64, b: u64) {
    with_journal(|j| j.push(now_ns(), kind, label, a, b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_thread_records_nothing() {
        assert!(!flight_active());
        flight_event(FlightEventKind::CommSend, "", 1, 2);
        flight_set_step(5);
        assert!(flight_harvest().is_none());
    }

    #[test]
    fn arm_record_harvest_roundtrip() {
        flight_arm(3, 64);
        assert!(flight_active());
        flight_set_step(7);
        flight_event(FlightEventKind::CommSend, "", 100, 4096);
        flight_event(FlightEventKind::Checkpoint, "", 8, 0);
        let j = flight_harvest().unwrap();
        assert!(!flight_active());
        assert_eq!(j.rank, 3);
        assert_eq!(j.dropped, 0);
        assert_eq!(j.events.len(), 2);
        assert_eq!(j.events[0].kind, FlightEventKind::CommSend);
        assert_eq!(j.events[0].step, 7);
        assert_eq!(j.events[0].a, 100);
        assert_eq!(j.events[0].b, 4096);
        assert_eq!(j.events[1].kind, FlightEventKind::Checkpoint);
        assert!(flight_harvest().is_none());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        flight_arm(0, 16); // capacity clamp floor
        for i in 0..40u64 {
            flight_event(FlightEventKind::CommRecv, "", i, 0);
        }
        let j = flight_harvest().unwrap();
        assert_eq!(j.capacity, 16);
        assert_eq!(j.events.len(), 16);
        assert_eq!(j.dropped, 24);
        // Oldest-first ordering survives the wrap: the survivors are the
        // last 16 events, in emission order.
        let seen: Vec<u64> = j.events.iter().map(|e| e.a).collect();
        assert_eq!(seen, (24..40).collect::<Vec<u64>>());
        for w in j.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn spans_are_journaled_when_armed_without_a_tracer() {
        flight_arm(1, 64);
        {
            let _s = crate::span("flight.test.phase");
        }
        let j = flight_harvest().unwrap();
        let kinds: Vec<FlightEventKind> = j.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![FlightEventKind::SpanEnter, FlightEventKind::SpanExit]
        );
        assert_eq!(j.events[0].label, "flight.test.phase");
        assert_eq!(j.events[1].label, "flight.test.phase");
        // Exit carries the duration.
        assert_eq!(j.events[1].a, j.events[1].t_ns - j.events[0].t_ns);
    }

    #[test]
    fn kind_codes_roundtrip() {
        for code in 0u8..=8 {
            let k = FlightEventKind::from_code(code).unwrap();
            assert_eq!(k as u8, code);
            assert!(!k.name().is_empty());
        }
        assert_eq!(FlightEventKind::from_code(9), None);
    }
}
