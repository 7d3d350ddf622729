//! Reads the program's span trace: pairs begin and end events into spans and
//! sums them inside the windows the benchmark's own spans mark.

use distger_obs::{Phase, TraceEvent};

/// One closed span, timestamps in microseconds.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub pid: u32,
    pub start: i64,
    pub end: i64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Pairs every begin with its end on the same track. `events` must be sorted
/// by `(pid, tid, ts)`, as [`distger_obs::drain_all`] returns them.
pub fn pair(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut open: Vec<&TraceEvent> = Vec::new();
    let mut track = None;
    for event in events {
        if track != Some((event.pid, event.tid)) {
            track = Some((event.pid, event.tid));
            open.clear();
        }
        match event.phase {
            Phase::Begin => open.push(event),
            Phase::End => {
                if let Some(begin) = open.iter().rposition(|b| b.name == event.name) {
                    let begin = open.remove(begin);
                    spans.push(Span {
                        name: event.name.to_string(),
                        pid: event.pid,
                        start: begin.ts_micros,
                        end: event.ts_micros,
                    });
                }
            }
            Phase::Instant => {}
        }
    }
    spans
}

/// The first span called `name`, if any.
pub fn find<'a>(spans: &'a [Span], name: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name == name)
}

/// Seconds spent in spans called `name` that lie inside `window`, summed
/// over every track.
pub fn total_within(spans: &[Span], name: &str, window: &Span) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.start >= window.start && s.end <= window.end)
        .map(Span::secs)
        .sum()
}

/// Seconds from the first start to the last end of the spans called `name`
/// on process `pid`; 0 when there are none.
pub fn extent(spans: &[Span], names: &[&str], pid: u32) -> f64 {
    let chosen = spans
        .iter()
        .filter(|s| s.pid == pid && names.contains(&s.name.as_str()));
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for s in chosen {
        lo = lo.min(s.start);
        hi = hi.max(s.end);
    }
    if lo > hi {
        0.0
    } else {
        (hi - lo) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, phase: Phase, ts: i64, tid: u32) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            phase,
            ts_micros: ts,
            pid: 0,
            tid,
            machine: -1,
            round: -1,
        }
    }

    #[test]
    fn pairs_nested_spans_per_track_and_sums_inside_a_window() {
        let events = vec![
            ev("outer", Phase::Begin, 0, 0),
            ev("wait", Phase::Begin, 10, 0),
            ev("wait", Phase::End, 30, 0),
            ev("outer", Phase::End, 100, 0),
            ev("wait", Phase::Begin, 40, 1),
            ev("wait", Phase::End, 45, 1),
            ev("wait", Phase::Begin, 200, 1),
            ev("wait", Phase::End, 300, 1),
        ];
        let spans = pair(&events);
        assert_eq!(spans.len(), 4);
        let outer = find(&spans, "outer").unwrap().clone();
        assert_eq!(outer.secs(), 100e-6);
        // The last wait lies outside the outer window.
        assert!((total_within(&spans, "wait", &outer) - 25e-6).abs() < 1e-12);
        assert!((extent(&spans, &["wait"], 0) - 290e-6).abs() < 1e-12);
        assert_eq!(extent(&spans, &["none"], 0), 0.0);
    }
}
