//! Windowed stream aggregation — the "streaming processing" analytical
//! workload the paper's software layer supports (§II-C2).
//!
//! Tumbling and sliding windows over event timestamps, with per-key counts —
//! the primitive behind "traffic jams per 5 minutes per corridor" style
//! dashboards.

use std::collections::BTreeMap;

use simclock::{SimDuration, SimTime};

use crate::event::Event;

/// One aggregated window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAggregate {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Events per key within the window, sorted by key. Keyless events
    /// aggregate under `""`.
    pub counts: BTreeMap<String, u64>,
}

impl WindowAggregate {
    /// Total events in the window.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Assigns events to fixed, non-overlapping windows of `width` and counts
/// per key. Windows are emitted in time order; empty windows between
/// occupied ones are included (gaps matter on dashboards).
///
/// # Panics
///
/// Panics if `width` is zero.
///
/// # Examples
///
/// ```
/// use scstream::{Event, windows::tumbling};
/// use simclock::{SimDuration, SimTime};
///
/// let events = vec![
///     Event::with_key("jam", vec![]).at(SimTime::from_secs(10)),
///     Event::with_key("jam", vec![]).at(SimTime::from_secs(70)),
/// ];
/// let wins = tumbling(&events, SimDuration::from_secs(60));
/// assert_eq!(wins.len(), 2);
/// assert_eq!(wins[0].counts["jam"], 1);
/// ```
pub fn tumbling(events: &[Event], width: SimDuration) -> Vec<WindowAggregate> {
    assert!(width.as_micros() > 0, "window width must be positive");
    if events.is_empty() {
        return Vec::new();
    }
    let w = width.as_micros();
    let min_t = events
        .iter()
        .map(|e| e.timestamp().as_micros())
        .min()
        .expect("non-empty");
    let max_t = events
        .iter()
        .map(|e| e.timestamp().as_micros())
        .max()
        .expect("non-empty");
    let first = min_t / w;
    let last = max_t / w;
    let mut windows: Vec<WindowAggregate> = (first..=last)
        .map(|i| WindowAggregate {
            start: SimTime::from_micros(i * w),
            end: SimTime::from_micros((i + 1) * w),
            counts: BTreeMap::new(),
        })
        .collect();
    for e in events {
        let idx = (e.timestamp().as_micros() / w - first) as usize;
        let key = e.key().unwrap_or("").to_string();
        *windows[idx].counts.entry(key).or_default() += 1;
    }
    windows
}

/// Sliding windows of `width` advancing by `slide`; an event lands in every
/// window covering its timestamp. Only windows that contain at least one
/// event are returned (a fully dense sliding emission would be unbounded).
///
/// # Panics
///
/// Panics if `width` or `slide` is zero, or `slide > width`.
pub fn sliding(events: &[Event], width: SimDuration, slide: SimDuration) -> Vec<WindowAggregate> {
    assert!(
        width.as_micros() > 0 && slide.as_micros() > 0,
        "width and slide must be positive"
    );
    assert!(
        slide.as_micros() <= width.as_micros(),
        "slide must not exceed width"
    );
    if events.is_empty() {
        return Vec::new();
    }
    let w = width.as_micros();
    let s = slide.as_micros();
    let mut windows: BTreeMap<u64, WindowAggregate> = BTreeMap::new();
    for e in events {
        let t = e.timestamp().as_micros();
        // Window i covers [i*s, i*s + w); event t is in windows with
        // i in ((t - w)/s, t/s].
        let hi = t / s;
        let lo = if t >= w { (t - w) / s + 1 } else { 0 };
        for i in lo..=hi {
            let entry = windows.entry(i).or_insert_with(|| WindowAggregate {
                start: SimTime::from_micros(i * s),
                end: SimTime::from_micros(i * s + w),
                counts: BTreeMap::new(),
            });
            let key = e.key().unwrap_or("").to_string();
            *entry.counts.entry(key).or_default() += 1;
        }
    }
    windows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(key: &str, secs: u64) -> Event {
        Event::with_key(key, vec![]).at(SimTime::from_secs(secs))
    }

    #[test]
    fn tumbling_partitions_time() {
        let events = vec![at("a", 5), at("a", 30), at("b", 61), at("a", 125)];
        let wins = tumbling(&events, SimDuration::from_secs(60));
        assert_eq!(wins.len(), 3);
        assert_eq!(wins[0].counts["a"], 2);
        assert_eq!(wins[1].counts["b"], 1);
        assert_eq!(wins[2].counts["a"], 1);
        // Every event lands in exactly one window.
        let total: u64 = wins.iter().map(WindowAggregate::total).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn tumbling_includes_empty_gaps() {
        let events = vec![at("a", 0), at("a", 185)];
        let wins = tumbling(&events, SimDuration::from_secs(60));
        assert_eq!(wins.len(), 4, "windows 0..240s with two empty in between");
        assert_eq!(wins[1].total(), 0);
        assert_eq!(wins[2].total(), 0);
    }

    #[test]
    fn tumbling_boundaries_are_half_open() {
        let events = vec![at("a", 59), at("a", 60)];
        let wins = tumbling(&events, SimDuration::from_secs(60));
        assert_eq!(wins[0].total(), 1);
        assert_eq!(wins[1].total(), 1);
    }

    #[test]
    fn tumbling_empty_input() {
        assert!(tumbling(&[], SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    fn sliding_overlap_counts_twice() {
        // width 60, slide 30: an event at t=45 is in windows [0,60) and [30,90).
        let events = vec![at("a", 45)];
        let wins = sliding(
            &events,
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        );
        assert_eq!(wins.len(), 2);
        assert!(wins.iter().all(|w| w.counts["a"] == 1));
    }

    #[test]
    fn sliding_equals_tumbling_when_slide_is_width() {
        let events = vec![at("a", 5), at("b", 65), at("a", 70)];
        let t = tumbling(&events, SimDuration::from_secs(60));
        let s = sliding(
            &events,
            SimDuration::from_secs(60),
            SimDuration::from_secs(60),
        );
        // Sliding omits empty windows; here none are empty.
        assert_eq!(t.len(), s.len());
        for (a, b) in t.iter().zip(&s) {
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.start, b.start);
        }
    }

    #[test]
    fn sliding_window_membership_exact() {
        // Event at 100 with width 50, slide 10: windows starting at
        // 60, 70, 80, 90, 100 → 5 windows.
        let events = vec![at("a", 100)];
        let wins = sliding(
            &events,
            SimDuration::from_secs(50),
            SimDuration::from_secs(10),
        );
        assert_eq!(wins.len(), 5);
        assert_eq!(wins[0].start, SimTime::from_secs(60));
        assert_eq!(wins.last().unwrap().start, SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "slide must not exceed width")]
    fn sliding_rejects_big_slide() {
        let _ = sliding(&[], SimDuration::from_secs(60), SimDuration::from_secs(61));
    }

    #[test]
    fn keyless_events_bucket_under_empty_key() {
        let events = vec![Event::new(vec![]).at(SimTime::from_secs(1))];
        let wins = tumbling(&events, SimDuration::from_secs(60));
        assert_eq!(wins[0].counts[""], 1);
    }
}
