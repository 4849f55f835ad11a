//! Statistical properties of the Metropolis population model.
//!
//! The population model is the benchmark's ground truth, so its
//! distributional claims are pinned exactly where the math allows
//! (integer apportionment) and within tight tolerances where it is
//! sampled (flash-crowd shape, Zipf key skew).

use proptest::prelude::*;
use scmetro::{MetroConfig, MetroSim, PopulationConfig, PopulationModel};
use simclock::SeededRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The diurnal curve integrates to the configured daily query count
    /// *exactly*: largest-remainder apportionment guarantees the base
    /// windows sum to `round(users × queries_per_user)` with no drift,
    /// for any population, rate, or window resolution.
    #[test]
    fn diurnal_curve_integrates_exactly_to_daily_queries(
        users in 1_000u64..5_000_000,
        qpu in 0.5f64..12.0,
        windows in 4usize..256,
        seed in 0u64..1_000,
    ) {
        let cfg = PopulationConfig {
            users,
            queries_per_user: qpu,
            windows,
            seed,
            ..PopulationConfig::default()
        };
        let pop = PopulationModel::new(cfg);
        let expected = (users as f64 * qpu).round() as u64;
        prop_assert_eq!(pop.base_total(), expected);
        // Flash crowds only ever add demand on top of the base curve.
        prop_assert!(pop.total() >= pop.base_total());
        let sum: u64 = (0..windows).map(|w| pop.demand(w)).sum();
        prop_assert_eq!(sum, pop.total());
    }

    /// Flash-crowd demand is exactly reconstructable from the spec —
    /// each crowd adds `round(base × (mult − 1) × shape(w))` on top of
    /// the base curve — and at the apex of an isolated crowd the demand
    /// ratio hits the configured multiplier within 1%.
    #[test]
    fn flash_crowd_peak_matches_the_configured_multiplier(
        seed in 0u64..2_000,
        mult in 1.5f64..6.0,
    ) {
        let cfg = PopulationConfig {
            users: 1_000_000,
            flash_multiplier: mult,
            seed,
            ..PopulationConfig::default()
        };
        let pop = PopulationModel::new(cfg);
        let boost = mult - 1.0;
        let crowds = pop.crowds();
        // Exact reconstruction of every window from the documented law.
        for w in 0..pop.windows() {
            let base = pop.base_demand(w);
            let extra: u64 = crowds
                .iter()
                .map(|c| (base as f64 * boost * c.shape(w)).round() as u64)
                .sum();
            prop_assert_eq!(pop.demand(w), base + extra, "window {}", w);
        }
        // At an apex touched by exactly ONE crowd, the ratio is the
        // configured multiplier (overlapping crowds stack additively).
        for crowd in crowds {
            let apex = crowd.start + crowd.width / 2;
            let touching = crowds.iter().filter(|c| c.shape(apex) > 0.0).count();
            if touching != 1 {
                continue;
            }
            let ratio = pop.demand(apex) as f64 / pop.base_demand(apex) as f64;
            prop_assert!(
                (ratio - mult).abs() / mult < 0.01,
                "apex window {} demand ratio {:.4} vs multiplier {:.4}",
                apex,
                ratio,
                mult,
            );
        }
    }

    /// The workload's key-rank draw matches its documented Zipf-like
    /// law: `rank = floor(n · u^(1+skew))` has CDF
    /// `P(rank ≤ r) = ((r+1)/n)^(1/(1+skew))`. An empirical CDF over
    /// 100k seeded draws must track the analytic one within 1.5%.
    #[test]
    fn key_rank_skew_matches_the_documented_zipf_law(
        seed in 0u64..10_000,
        skew in 0.5f64..2.0,
    ) {
        const N: usize = 200;
        const DRAWS: usize = 100_000;
        let mut rng = SeededRng::new(seed);
        let mut counts = [0usize; N];
        for _ in 0..DRAWS {
            let u = rng.next_f64();
            let rank = ((N as f64 * u.powf(1.0 + skew)) as usize).min(N - 1);
            counts[rank] += 1;
        }
        let mut cum = 0usize;
        for (r, &c) in counts.iter().enumerate() {
            cum += c;
            let empirical = cum as f64 / DRAWS as f64;
            let analytic = (((r + 1) as f64) / N as f64).powf(1.0 / (1.0 + skew));
            prop_assert!(
                (empirical - analytic).abs() < 0.015,
                "CDF diverges at rank {}: empirical {:.4} vs analytic {:.4} (skew {:.3})",
                r,
                empirical,
                analytic,
                skew,
            );
        }
    }
}

/// Peak demand with default flash crowds towers over the mean — the
/// static plan (sized to mean × headroom) is guaranteed to need the
/// autoscaler on a default day.
#[test]
fn default_day_peak_exceeds_static_plan_headroom() {
    let cfg = MetroConfig::default();
    let sim = MetroSim::new(cfg);
    let plan = sim.topology();
    let static_capacity = plan.initial_shards as f64 * plan.guidelines.per_shard_rps;
    assert!(
        plan.peak_rps > static_capacity,
        "peak {} rps must exceed static capacity {} rps",
        plan.peak_rps,
        static_capacity
    );
}
