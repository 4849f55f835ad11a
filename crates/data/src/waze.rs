//! Crowd-sourced traffic reports (paper §II-A2).
//!
//! Stands in for the Waze Connected Citizens Program feed: "system-generated
//! traffic jams and user-reported traffic incidents" along highway corridors.

use scgeo::{corridor::Corridor, GeoPoint};
use simclock::{SeededRng, SimDuration, SimTime};

/// The kind of a Waze-style report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// System-generated jam (speed below free-flow threshold).
    Jam,
    /// User-reported crash.
    Accident,
    /// User-reported hazard on the roadway.
    Hazard,
    /// User-reported closure.
    RoadClosed,
}

impl ReportKind {
    /// All kinds in stable order.
    pub const ALL: [ReportKind; 4] = [
        ReportKind::Jam,
        ReportKind::Accident,
        ReportKind::Hazard,
        ReportKind::RoadClosed,
    ];
}

/// One crowd-sourced traffic report.
#[derive(Debug, Clone, PartialEq)]
pub struct WazeReport {
    /// Unique id.
    pub id: u64,
    /// Report kind.
    pub kind: ReportKind,
    /// Where on the network.
    pub location: GeoPoint,
    /// When the report arrived.
    pub time: SimTime,
    /// Current speed at the location (km/h); meaningful for jams.
    pub speed_kmh: f64,
    /// Reporter reliability score in `[0, 1]` (Waze exposes a similar
    /// notion); system-generated jams report 1.0.
    pub reliability: f64,
}

/// Generator of report streams along a corridor.
///
/// # Examples
///
/// ```
/// use scdata::waze::WazeGenerator;
/// use scgeo::corridor::Corridor;
/// use scgeo::GeoPoint;
///
/// let i10 = Corridor::new("I-10", vec![
///     GeoPoint::new(30.40, -91.30),
///     GeoPoint::new(30.47, -91.00),
/// ]);
/// let mut gen = WazeGenerator::new(9);
/// let reports = gen.stream(&i10, 100);
/// assert_eq!(reports.len(), 100);
/// ```
#[derive(Debug)]
pub struct WazeGenerator {
    rng: SeededRng,
    next_id: u64,
}

impl WazeGenerator {
    /// Creates a generator.
    pub fn new(seed: u64) -> Self {
        WazeGenerator {
            rng: SeededRng::new(seed),
            next_id: 0,
        }
    }

    /// One report at a random milepost of `corridor` at time `t`.
    fn report(&mut self, corridor: &Corridor, t: SimTime) -> WazeReport {
        let kind = *self.rng.choose(&ReportKind::ALL).expect("non-empty kinds");
        let pos = corridor.point_at(self.rng.range_f64(0.0, corridor.length_m()));
        let id = self.next_id;
        self.next_id += 1;
        WazeReport {
            id,
            kind,
            location: pos,
            time: t,
            speed_kmh: match kind {
                ReportKind::Jam => self.rng.range_f64(0.0, 30.0),
                ReportKind::RoadClosed => 0.0,
                _ => self.rng.range_f64(40.0, 110.0),
            },
            reliability: match kind {
                ReportKind::Jam => 1.0,
                _ => self.rng.range_f64(0.3, 1.0),
            },
        }
    }

    /// A stream of `n` reports with exponentially distributed inter-arrival
    /// times (mean 30 s).
    pub fn stream(&mut self, corridor: &Corridor, n: usize) -> Vec<WazeReport> {
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|_| {
                t += SimDuration::from_secs_f64(self.rng.exponential(1.0 / 30.0));
                self.report(corridor, t)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corridor() -> Corridor {
        Corridor::new(
            "I-10",
            vec![GeoPoint::new(30.40, -91.30), GeoPoint::new(30.47, -91.00)],
        )
    }

    #[test]
    fn stream_is_time_ordered() {
        let mut g = WazeGenerator::new(1);
        let reports = g.stream(&corridor(), 50);
        for w in reports.windows(2) {
            assert!(w[1].time >= w[0].time);
        }
    }

    #[test]
    fn jams_are_slow_and_reliable() {
        let mut g = WazeGenerator::new(2);
        let reports = g.stream(&corridor(), 300);
        for r in reports.iter().filter(|r| r.kind == ReportKind::Jam) {
            assert!(r.speed_kmh < 30.0);
            assert_eq!(r.reliability, 1.0);
        }
    }

    #[test]
    fn reports_lie_on_corridor() {
        let c = corridor();
        let mut g = WazeGenerator::new(3);
        for r in g.stream(&c, 100) {
            // Within 100 m of the polyline's bounding envelope (straight line).
            let d0 = c.waypoints()[0].haversine_m(r.location);
            assert!(d0 <= c.length_m() + 100.0);
        }
    }

    #[test]
    fn all_kinds_appear() {
        let mut g = WazeGenerator::new(4);
        let reports = g.stream(&corridor(), 400);
        for kind in ReportKind::ALL {
            assert!(reports.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn ids_unique() {
        let mut g = WazeGenerator::new(5);
        let reports = g.stream(&corridor(), 100);
        let mut ids: Vec<u64> = reports.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }
}
