//! The city's demand side: a seeded population model.
//!
//! A [`PopulationModel`] turns "`users` residents issuing
//! `queries_per_user` queries a day" into an exact per-window demand
//! series shaped like a real city's day (CityPulse-style diurnal traffic
//! curves): a quiet overnight floor, a morning commute peak, and a
//! broader evening peak. On top of the diurnal base, seeded
//! *flash crowds* (a match, an incident, a storm) multiply demand over a
//! few consecutive windows.
//!
//! Two exactness guarantees keep the model testable:
//!
//! 1. **The diurnal base integrates exactly.** Window allocations are
//!    computed by largest-remainder apportionment, so
//!    `sum(base) == round(users × queries_per_user)` with no float
//!    drift — the statistical suite asserts equality, not closeness.
//! 2. **Flash crowds are multiplicative and local.** Inside a crowd the
//!    extra demand is `round(base × (multiplier − 1) × shape)` with a
//!    triangular shape peaking at 1, so the peak window's total demand
//!    is the configured multiple of its base (up to rounding).

use simclock::{SeededRng, SimDuration, SimTime};

/// Demand-side knobs. Defaults model one million residents.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Simulated city residents.
    pub users: u64,
    /// Mean queries per resident per day.
    pub queries_per_user: f64,
    /// Short windows the day is divided into (96 = 15-minute windows).
    pub windows: usize,
    /// Length of the simulated day.
    pub day: SimDuration,
    /// Number of seeded flash-crowd events.
    pub flash_crowds: usize,
    /// Peak demand multiplier at a flash crowd's center window.
    pub flash_multiplier: f64,
    /// Windows a flash crowd spans (odd values center cleanly).
    pub flash_width: usize,
    /// Seed for flash-crowd placement; the diurnal base is seed-free.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            users: 1_000_000,
            queries_per_user: 4.0,
            windows: 96,
            day: SimDuration::from_secs(24 * 3600),
            flash_crowds: 2,
            flash_multiplier: 3.0,
            flash_width: 3,
            seed: 42,
        }
    }
}

/// One seeded flash-crowd event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// First window the crowd touches.
    pub start: usize,
    /// Windows it spans.
    pub width: usize,
}

impl FlashCrowd {
    /// Triangular shape factor in `[0, 1]` for window `w`: 1 at the
    /// center, falling linearly to the edges, 0 outside the crowd.
    pub fn shape(&self, w: usize) -> f64 {
        if w < self.start || w >= self.start + self.width {
            return 0.0;
        }
        let center = (self.width - 1) as f64 / 2.0;
        let d = (w - self.start) as f64 - center;
        if self.width <= 1 {
            1.0
        } else {
            1.0 - d.abs() / (center + 1.0)
        }
    }
}

/// Relative diurnal demand weight at day-fraction `x ∈ [0, 1)`: an
/// overnight floor plus morning (~08:30) and evening (~18:30) Gaussian
/// peaks. Pure, seed-free, and strictly positive.
fn diurnal_weight(x: f64) -> f64 {
    let bump = |center: f64, sigma: f64| {
        let d = x - center;
        (-d * d / (2.0 * sigma * sigma)).exp()
    };
    0.30 + bump(8.5 / 24.0, 1.75 / 24.0) + 0.85 * bump(18.5 / 24.0, 2.5 / 24.0)
}

/// Largest-remainder apportionment of `total` units across `weights`:
/// floors the proportional shares, then hands the leftover units to the
/// largest fractional parts (ties to the lower index). The result sums
/// to `total` exactly.
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "apportion needs at least one window");
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "weights must have a positive sum");
    let mut alloc: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut given = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let share = total as f64 * (w / sum);
        let floor = share.floor() as u64;
        alloc.push(floor);
        given += floor;
        fracs.push((i, share - floor as f64));
    }
    // Largest fractional part first; index breaks ties deterministically.
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = total - given;
    for (i, _) in fracs {
        if leftover == 0 {
            break;
        }
        alloc[i] += 1;
        leftover -= 1;
    }
    alloc
}

/// The materialized demand series; see the module docs.
///
/// # Examples
///
/// ```
/// use scmetro::{PopulationConfig, PopulationModel};
///
/// let pop = PopulationModel::new(PopulationConfig {
///     users: 100_000,
///     queries_per_user: 2.0,
///     ..PopulationConfig::default()
/// });
/// // The diurnal base integrates to the configured daily total, exactly.
/// assert_eq!(pop.base_total(), 200_000);
/// assert!(pop.peak_rps() >= pop.mean_rps(), "the peak window dominates the mean");
/// ```
#[derive(Debug, Clone)]
pub struct PopulationModel {
    cfg: PopulationConfig,
    base: Vec<u64>,
    flash: Vec<u64>,
    crowds: Vec<FlashCrowd>,
}

impl PopulationModel {
    /// Builds the demand series for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.windows == 0` or `cfg.users == 0`.
    pub fn new(cfg: PopulationConfig) -> Self {
        assert!(cfg.windows > 0, "population needs at least one window");
        assert!(cfg.users > 0, "population needs at least one user");
        let total = (cfg.users as f64 * cfg.queries_per_user).round() as u64;
        let weights: Vec<f64> = (0..cfg.windows)
            .map(|i| diurnal_weight((i as f64 + 0.5) / cfg.windows as f64))
            .collect();
        let base = apportion(total, &weights);

        let mut rng = SeededRng::new(cfg.seed ^ 0x0C17_9D4B);
        let width = cfg.flash_width.clamp(1, cfg.windows);
        let mut crowds = Vec::with_capacity(cfg.flash_crowds);
        for _ in 0..cfg.flash_crowds {
            let start = rng.next_bounded((cfg.windows - width + 1) as u64) as usize;
            crowds.push(FlashCrowd { start, width });
        }
        let mut flash = vec![0u64; cfg.windows];
        let boost = (cfg.flash_multiplier - 1.0).max(0.0);
        for crowd in &crowds {
            for (w, f) in flash.iter_mut().enumerate() {
                *f += (base[w] as f64 * boost * crowd.shape(w)).round() as u64;
            }
        }
        PopulationModel {
            cfg,
            base,
            flash,
            crowds,
        }
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.cfg.windows
    }

    /// Start of window `w` (exact integer split of the day).
    pub fn window_start(&self, w: usize) -> SimTime {
        SimTime::from_micros(self.cfg.day.as_micros() * w as u64 / self.cfg.windows as u64)
    }

    /// End of window `w` (== start of `w + 1`; the last ends at `day`).
    pub fn window_end(&self, w: usize) -> SimTime {
        self.window_start(w + 1)
    }

    /// Length of window `w` in seconds.
    pub fn window_secs(&self, w: usize) -> f64 {
        self.window_end(w)
            .saturating_since(self.window_start(w))
            .as_secs_f64()
    }

    /// Diurnal base demand of window `w` (queries).
    pub fn base(&self, w: usize) -> u64 {
        self.base[w]
    }

    /// Total demand of window `w`: base plus flash extras.
    pub fn demand(&self, w: usize) -> u64 {
        self.base[w] + self.flash[w]
    }

    /// Sum of the diurnal base — exactly `round(users × queries_per_user)`.
    pub fn base_total(&self) -> u64 {
        self.base.iter().sum()
    }

    /// Sum of base and flash demand across the day.
    pub fn total(&self) -> u64 {
        self.base_total() + self.flash.iter().sum::<u64>()
    }

    /// The seeded flash crowds.
    pub fn crowds(&self) -> &[FlashCrowd] {
        &self.crowds
    }

    /// `(window, demand)` of the busiest window (lowest index on ties).
    fn peak(&self) -> (usize, u64) {
        let mut best = (0usize, 0u64);
        for w in 0..self.cfg.windows {
            let d = self.demand(w);
            if d > best.1 {
                best = (w, d);
            }
        }
        best
    }

    /// Demand rate of the busiest window, queries per sim-second.
    pub fn peak_rps(&self) -> f64 {
        let (w, d) = self.peak();
        d as f64 / self.window_secs(w)
    }

    /// Mean demand rate across the day, queries per sim-second.
    pub fn mean_rps(&self) -> f64 {
        self.total() as f64 / self.cfg.day.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_exact_and_proportional() {
        let alloc = apportion(1_000, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(alloc.iter().sum::<u64>(), 1_000);
        assert_eq!(alloc, vec![100, 200, 300, 400]);
        // Awkward weights still sum exactly.
        let alloc = apportion(997, &[0.1, 0.7, 0.3]);
        assert_eq!(alloc.iter().sum::<u64>(), 997);
    }

    #[test]
    fn base_integrates_to_daily_total() {
        for users in [1_000u64, 123_457, 1_000_000] {
            let pop = PopulationModel::new(PopulationConfig {
                users,
                queries_per_user: 3.3,
                ..PopulationConfig::default()
            });
            assert_eq!(pop.base_total(), (users as f64 * 3.3).round() as u64);
        }
    }

    #[test]
    fn diurnal_curve_has_two_peaks_and_a_floor() {
        let w = |h: f64| diurnal_weight(h / 24.0);
        assert!(w(8.5) > w(3.0) * 2.0, "morning peak towers over night");
        assert!(w(18.5) > w(3.0) * 2.0, "evening peak towers over night");
        assert!(w(13.0) < w(8.5), "midday dips between peaks");
        for h in 0..24 {
            assert!(w(h as f64) > 0.0);
        }
    }

    #[test]
    fn same_seed_same_series() {
        let a = PopulationModel::new(PopulationConfig::default());
        let b = PopulationModel::new(PopulationConfig::default());
        for w in 0..a.windows() {
            assert_eq!(a.demand(w), b.demand(w));
        }
        assert_eq!(a.crowds(), b.crowds());
    }

    #[test]
    fn flash_peak_hits_the_multiplier() {
        let cfg = PopulationConfig {
            flash_crowds: 1,
            flash_multiplier: 3.0,
            flash_width: 3,
            ..PopulationConfig::default()
        };
        let pop = PopulationModel::new(cfg);
        let crowd = pop.crowds()[0];
        let center = crowd.start + crowd.width / 2;
        let ratio = pop.demand(center) as f64 / pop.base(center) as f64;
        assert!(
            (ratio - 3.0).abs() < 0.01,
            "center window multiplies by the configured factor, got {ratio}"
        );
    }

    #[test]
    fn window_boundaries_tile_the_day() {
        let pop = PopulationModel::new(PopulationConfig::default());
        assert_eq!(pop.window_start(0), SimTime::ZERO);
        assert_eq!(
            pop.window_end(pop.windows() - 1).as_micros(),
            pop.cfg.day.as_micros()
        );
        for w in 1..pop.windows() {
            assert_eq!(pop.window_end(w - 1), pop.window_start(w));
        }
    }
}
