//! Unbounded capture sink with an optional µ-op sequence window.

use ss_types::trace::{TraceEvent, TraceSink};
use std::ops::Range;

/// Keeps every recorded event (optionally filtered to a half-open µ-op
/// sequence window) for offline rendering through the Perfetto exporter
/// or the pipeview.
///
/// [`TraceEvent::Occupancy`] samples carry no sequence number; the
/// pipeline records one at the end of a cycle when the occupancy
/// changed. Unwindowed, every sample is kept. Windowed, the sink keeps
/// the sample in force when the first in-window event arrives and every
/// sample between that event and the last in-window event, so memory is
/// bounded by the window's span rather than by the run. Samples after
/// the last in-window event are held back until another in-window event
/// arrives; once a µ-op at or past the window's end commits (sequence
/// numbers commit in order and densely, so no in-window µ-op can appear
/// after it) they are dropped as they come.
#[derive(Debug, Clone, Default)]
pub struct CaptureSink {
    events: Vec<TraceEvent>,
    window: Option<Range<u64>>,
    /// Windowed: occupancy samples since the last kept event (before
    /// the first, only the newest).
    pending: Vec<TraceEvent>,
    /// Windowed: the window's µ-ops have all committed.
    closed: bool,
}

impl CaptureSink {
    /// Captures everything.
    pub fn new() -> Self {
        CaptureSink::default()
    }

    /// Captures only events whose µ-op sequence number falls in
    /// `window` (half-open), plus the occupancy samples over the span of
    /// those events.
    pub fn with_window(window: Range<u64>) -> Self {
        CaptureSink {
            window: Some(window),
            ..CaptureSink::default()
        }
    }

    /// The captured events in discovery order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the captured events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, ev: TraceEvent) {
        let Some(window) = &self.window else {
            self.events.push(ev);
            return;
        };
        match (ev, ev.seq()) {
            (_, Some(seq)) if window.contains(&seq.get()) => {
                self.events.append(&mut self.pending);
                self.events.push(ev);
            }
            (TraceEvent::Occupancy { .. }, _) if !self.closed => {
                if self.events.is_empty() {
                    self.pending.clear();
                }
                self.pending.push(ev);
            }
            _ => {}
        }
        if let TraceEvent::Commit { seq, .. } = ev {
            if seq.get() + 1 >= window.end {
                self.closed = true;
                self.pending = Vec::new();
            }
        }
    }

    fn recent(&self) -> Vec<TraceEvent> {
        const TAIL: usize = 4096;
        let start = self.events.len().saturating_sub(TAIL);
        self.events[start..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::{Cycle, SeqNum};

    fn commit(n: u64) -> TraceEvent {
        TraceEvent::Commit {
            cycle: Cycle::new(n),
            seq: SeqNum::new(n),
        }
    }

    #[test]
    fn unwindowed_capture_keeps_everything() {
        let mut c = CaptureSink::new();
        for n in 0..10 {
            c.record(commit(n));
        }
        assert_eq!(c.events().len(), 10);
        assert_eq!(c.recent().len(), 10);
        assert_eq!(c.into_events().len(), 10);
    }

    #[test]
    fn window_filters_by_seq_but_keeps_occupancy() {
        let mut c = CaptureSink::with_window(3..6);
        for n in 0..10 {
            c.record(commit(n));
            if n == 4 {
                c.record(occupancy(n));
            }
        }
        let seqs: Vec<_> = c
            .events()
            .iter()
            .filter_map(|e| e.seq().map(|s| s.get()))
            .collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(c.events().len(), 4, "occupancy sample retained");
    }

    fn occupancy(cycle: u64) -> TraceEvent {
        TraceEvent::Occupancy {
            cycle: Cycle::new(cycle),
            rob: cycle as u32,
            iq: 1,
            lq: 0,
            sq: 0,
            recovery: 0,
            inflight: 0,
        }
    }

    /// Windowed occupancy: the sample in force when the window opens,
    /// every sample up to the last in-window event, nothing after.
    #[test]
    fn window_keeps_only_the_occupancy_over_its_span() {
        let mut c = CaptureSink::with_window(100..102);
        let mut cycle = 0;
        let mut sample = |c: &mut CaptureSink| {
            cycle += 1;
            c.record(occupancy(cycle));
        };
        for _ in 0..1_000 {
            sample(&mut c);
        }
        c.record(commit(100));
        sample(&mut c);
        sample(&mut c);
        c.record(commit(101));
        for _ in 0..1_000 {
            sample(&mut c);
        }
        assert_eq!(
            c.events(),
            [
                occupancy(1_000),
                commit(100),
                occupancy(1_001),
                occupancy(1_002),
                commit(101),
            ]
        );
        assert!(c.pending.is_empty(), "closed window still holds samples");
    }
}
