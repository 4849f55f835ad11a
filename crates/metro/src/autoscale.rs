//! The closed loop: burn-rate-fed autoscaling with hysteresis.
//!
//! An [`AutoscalePolicy`] watches one demand window at a time — the
//! good/bad tallies feed an [`scobserve::BurnMeter`] (Google-SRE
//! multi-window burn rates), utilization feeds threshold rules — and
//! emits [`ScaleAction`]s: add or remove serving shards, grow or shrink
//! the compute pool, or shed at the admission door. The simulation
//! applies them to the live [`scserve::Server`] via its runtime knobs.
//!
//! Three hysteresis mechanisms keep the loop stable, and each is
//! *structural* so the property tests can quantify over arbitrary
//! telemetry streams rather than hand-picked traces:
//!
//! - **One action per window.** A single window can never both add and
//!   remove capacity.
//! - **Cooldown.** After any fleet change, further fleet changes wait
//!   `cooldown` windows.
//! - **Age-gated removal.** Only shards the policy itself added are
//!   removable, tracked in a LIFO stack with their birth window; a shard
//!   younger than `cooldown` windows cannot be removed. Add→remove
//!   flapping of the same shard inside the hysteresis window is
//!   impossible by construction.
//!
//! Every emitted action is recorded as a [`ScaleDecision`] whose
//! `Display` line uses fixed-precision formatting, so identical seeds
//! produce byte-identical decision logs at any thread count or SIMD ISA.

use std::fmt;

use scobserve::{BurnMeter, BurnSignal, SloRule};
use simclock::SimTime;

/// Closed-loop knobs.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Fleet floor; the policy never shrinks below this.
    pub min_shards: usize,
    /// Fleet ceiling; the policy never grows past this.
    pub max_shards: usize,
    /// Compute-pool floor (scpar workers).
    pub min_pool: usize,
    /// Compute-pool ceiling.
    pub max_pool: usize,
    /// Utilization at or above which the loop scales up.
    pub scale_up_util: f64,
    /// Utilization at or below which the loop may scale down.
    pub scale_down_util: f64,
    /// Windows any fleet change must wait after the previous one.
    pub cooldown: u64,
    /// Windows a scale-up must settle before voluntary shrink.
    pub settle: u64,
    /// The SLO whose burn rate drives emergency scale-ups.
    pub slo: SloRule,
    /// Admission-rate multiplier while shedding (fraction kept).
    pub shed_fraction: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_shards: 2,
            max_shards: 16,
            min_pool: 1,
            max_pool: 8,
            scale_up_util: 0.85,
            scale_down_util: 0.45,
            cooldown: 2,
            settle: 3,
            slo: SloRule::availability("metro/serve", 0.99)
                .with_windows(simclock::SimDuration::from_secs(60), 4)
                .with_burn_threshold(2.0),
            shed_fraction: 0.5,
        }
    }
}

/// One actuation the policy asks the plant to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Join a new serving shard under this node id.
    AddShard {
        /// Node id of the joining shard.
        node: u32,
    },
    /// Retire this serving shard.
    RemoveShard {
        /// Node id of the departing shard.
        node: u32,
    },
    /// Resize the compute pool up to this many workers.
    GrowPool {
        /// New worker count.
        workers: usize,
    },
    /// Resize the compute pool down to this many workers.
    ShrinkPool {
        /// New worker count.
        workers: usize,
    },
    /// Shed at the admission door, keeping this fraction of the rate.
    Shed {
        /// Admission-rate fraction kept, in thousandths (deterministic).
        keep_millis: u32,
    },
    /// Lift admission-control shedding.
    Restore,
}

impl fmt::Display for ScaleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleAction::AddShard { node } => write!(f, "add_shard({node})"),
            ScaleAction::RemoveShard { node } => write!(f, "remove_shard({node})"),
            ScaleAction::GrowPool { workers } => write!(f, "grow_pool({workers})"),
            ScaleAction::ShrinkPool { workers } => write!(f, "shrink_pool({workers})"),
            ScaleAction::Shed { keep_millis } => {
                write!(
                    f,
                    "shed(keep={}.{:03})",
                    keep_millis / 1000,
                    keep_millis % 1000
                )
            }
            ScaleAction::Restore => write!(f, "restore"),
        }
    }
}

/// One logged scaling decision: the action plus the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleDecision {
    /// Demand window index the decision was made in.
    pub window: u64,
    /// Sim-time of the window boundary.
    pub at: SimTime,
    /// The actuation emitted.
    pub action: ScaleAction,
    /// Short-window burn rate at decision time.
    pub burn_short: f64,
    /// Long-window burn rate at decision time.
    pub burn_long: f64,
    /// Plant utilization (offered load over capacity) at decision time.
    pub utilization: f64,
    /// Serving shards after the action.
    pub shards: usize,
    /// Pool workers after the action.
    pub pool: usize,
}

impl fmt::Display for ScaleDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "w{:04} t={:>12}us {:<18} burn={:.4}/{:.4} util={:.4} shards={} pool={}",
            self.window,
            self.at.as_micros(),
            self.action.to_string(),
            self.burn_short,
            self.burn_long,
            self.utilization,
            self.shards,
            self.pool,
        )
    }
}

/// The policy engine; see the module docs for the hysteresis contract.
///
/// # Examples
///
/// ```
/// use scmetro::{AutoscaleConfig, AutoscalePolicy, ScaleAction};
/// use simclock::SimTime;
///
/// let mut policy = AutoscalePolicy::new(AutoscaleConfig::default(), 4, 2, 100);
/// // A healthy, hot window forces a scale-up.
/// let actions = policy.observe(0, SimTime::ZERO, 1_000, 0, 0.95);
/// assert_eq!(actions, vec![ScaleAction::AddShard { node: 100 }]);
/// // The very next window is cool, but the cooldown holds the fleet.
/// assert!(policy.observe(1, SimTime::from_secs(60), 10, 0, 0.10).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AutoscalePolicy {
    cfg: AutoscaleConfig,
    meter: BurnMeter,
    shards: usize,
    pool: usize,
    shedding: bool,
    /// Window of the most recent fleet (shard) change.
    last_fleet_change: Option<u64>,
    /// Window of the most recent pool change.
    last_pool_change: Option<u64>,
    /// Shards this policy added, LIFO, with their birth windows.
    added: Vec<(u32, u64)>,
    next_node: u32,
    decisions: Vec<ScaleDecision>,
    /// One burn signal per observed window, in window order.
    signals: Vec<BurnSignal>,
}

impl AutoscalePolicy {
    /// A policy starting from `shards` serving shards and `pool` compute
    /// workers; new shards take node ids from `next_node` upward.
    pub fn new(cfg: AutoscaleConfig, shards: usize, pool: usize, next_node: u32) -> Self {
        let meter = BurnMeter::new(cfg.slo.clone());
        AutoscalePolicy {
            shards: shards.max(cfg.min_shards.min(shards)),
            pool: pool.clamp(cfg.min_pool, cfg.max_pool),
            cfg,
            meter,
            shedding: false,
            last_fleet_change: None,
            last_pool_change: None,
            added: Vec::new(),
            next_node,
            decisions: Vec::new(),
            signals: Vec::new(),
        }
    }

    /// Current serving-shard count as the policy believes it.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Current compute-pool worker count.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Every decision taken so far, in order.
    pub fn decisions(&self) -> &[ScaleDecision] {
        &self.decisions
    }

    /// Every burn signal observed so far, one per window in window order
    /// — the closed-loop record a flight recorder stores and the
    /// series-based batch evaluation (`scobserve::burn_over_series`) must
    /// reproduce bit for bit.
    pub fn signals(&self) -> &[BurnSignal] {
        &self.signals
    }

    /// The deterministic decision log, one `Display` line per decision.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    fn elapsed(window: u64, since: Option<u64>) -> u64 {
        match since {
            None => u64::MAX,
            Some(w) => window.saturating_sub(w),
        }
    }

    fn log(&mut self, window: u64, at: SimTime, action: ScaleAction, sig: &BurnSignal, util: f64) {
        self.decisions.push(ScaleDecision {
            window,
            at,
            action,
            burn_short: sig.burn_short,
            burn_long: sig.burn_long,
            utilization: util,
            shards: self.shards,
            pool: self.pool,
        });
    }

    /// Feeds one window's evidence and returns the actions to apply.
    ///
    /// `good`/`bad` are the window's SLO tallies (answered vs shed or
    /// degraded); `utilization` is offered load over current capacity.
    /// At most one shard action and one pool/shed action are emitted per
    /// window, and all hysteresis rules from the module docs hold.
    pub fn observe(
        &mut self,
        window: u64,
        at: SimTime,
        good: usize,
        bad: usize,
        utilization: f64,
    ) -> Vec<ScaleAction> {
        let sig = self.meter.observe(good, bad);
        self.signals.push(sig);
        let mut actions = Vec::new();
        let fleet_ok = Self::elapsed(window, self.last_fleet_change) >= self.cfg.cooldown;
        let pool_ok = Self::elapsed(window, self.last_pool_change) >= self.cfg.cooldown;
        let settled = Self::elapsed(window, self.last_fleet_change) >= self.cfg.settle
            && Self::elapsed(window, self.last_pool_change) >= self.cfg.settle;

        let up = utilization >= self.cfg.scale_up_util || sig.violating;
        let down = utilization <= self.cfg.scale_down_util && !sig.violating;

        if up {
            if self.shards < self.cfg.max_shards && fleet_ok {
                let node = self.next_node;
                self.next_node += 1;
                self.shards += 1;
                self.added.push((node, window));
                self.last_fleet_change = Some(window);
                let a = ScaleAction::AddShard { node };
                self.log(window, at, a, &sig, utilization);
                actions.push(a);
            } else if self.pool < self.cfg.max_pool && pool_ok {
                self.pool += 1;
                self.last_pool_change = Some(window);
                let a = ScaleAction::GrowPool { workers: self.pool };
                self.log(window, at, a, &sig, utilization);
                actions.push(a);
            } else if !self.shedding {
                self.shedding = true;
                let keep_millis = (self.cfg.shed_fraction * 1000.0).round() as u32;
                let a = ScaleAction::Shed { keep_millis };
                self.log(window, at, a, &sig, utilization);
                actions.push(a);
            }
        } else if down {
            if self.shedding {
                self.shedding = false;
                let a = ScaleAction::Restore;
                self.log(window, at, a, &sig, utilization);
                actions.push(a);
            } else if self.pool > self.cfg.min_pool && pool_ok && settled {
                self.pool -= 1;
                self.last_pool_change = Some(window);
                let a = ScaleAction::ShrinkPool { workers: self.pool };
                self.log(window, at, a, &sig, utilization);
                actions.push(a);
            } else if settled && fleet_ok && self.shards > self.cfg.min_shards {
                // Only a shard this policy added, and only once it has
                // outlived the hysteresis window, may be retired.
                let removable = self
                    .added
                    .last()
                    .is_some_and(|(_, born)| window.saturating_sub(*born) >= self.cfg.cooldown);
                if removable {
                    let (node, _) = self.added.pop().expect("checked non-empty");
                    self.shards -= 1;
                    self.last_fleet_change = Some(window);
                    let a = ScaleAction::RemoveShard { node };
                    self.log(window, at, a, &sig, utilization);
                    actions.push(a);
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;

    fn hot() -> (usize, usize, f64) {
        (100, 0, 0.95)
    }
    fn cold() -> (usize, usize, f64) {
        (100, 0, 0.10)
    }

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy::new(AutoscaleConfig::default(), 4, 2, 100)
    }

    fn at(w: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(60 * w)
    }

    #[test]
    fn scales_up_on_utilization_and_respects_cooldown() {
        let mut p = policy();
        let (g, b, u) = hot();
        assert_eq!(
            p.observe(0, at(0), g, b, u),
            vec![ScaleAction::AddShard { node: 100 }]
        );
        // Cooldown (2 windows) diverts pressure to the pool, not a shard.
        assert_eq!(
            p.observe(1, at(1), g, b, u),
            vec![ScaleAction::GrowPool { workers: 3 }]
        );
        assert_eq!(
            p.observe(2, at(2), g, b, u),
            vec![ScaleAction::AddShard { node: 101 }]
        );
        assert_eq!(p.shards(), 6);
    }

    #[test]
    fn sheds_when_fleet_and_pool_are_capped() {
        let cfg = AutoscaleConfig {
            max_shards: 4,
            max_pool: 2,
            ..AutoscaleConfig::default()
        };
        let mut p = AutoscalePolicy::new(cfg, 4, 2, 100);
        let (g, b, u) = hot();
        assert_eq!(
            p.observe(0, at(0), g, b, u),
            vec![ScaleAction::Shed { keep_millis: 500 }]
        );
        assert!(p.shedding);
        // Shed is latched: no duplicate shed actions while hot.
        assert!(p.observe(1, at(1), g, b, u).is_empty());
        // Cooling restores admission before anything shrinks.
        let (g, b, u) = cold();
        assert_eq!(p.observe(2, at(2), g, b, u), vec![ScaleAction::Restore]);
    }

    #[test]
    fn young_shards_are_never_removed() {
        let mut p = policy();
        let (g, b, u) = hot();
        p.observe(0, at(0), g, b, u); // adds shard 100 at window 0
        let (g, b, u) = cold();
        // Settle is 3 windows; even after it passes, removal also needs
        // the shard itself to be cooldown-old — window 1 and 2 emit nothing.
        assert!(p.observe(1, at(1), g, b, u).is_empty());
        assert!(p.observe(2, at(2), g, b, u).is_empty());
        // Window 3: settled, shard 100 is 3 ≥ cooldown windows old, but the
        // pool shrinks first (LIFO of cheapness).
        assert_eq!(
            p.observe(3, at(3), g, b, u),
            vec![ScaleAction::ShrinkPool { workers: 1 }]
        );
        // Pool at floor ⇒ window 6 (pool change re-arms settle) retires it.
        assert!(p.observe(4, at(4), g, b, u).is_empty());
        assert!(p.observe(5, at(5), g, b, u).is_empty());
        assert_eq!(
            p.observe(6, at(6), g, b, u),
            vec![ScaleAction::RemoveShard { node: 100 }]
        );
        assert_eq!(p.shards(), 4);
    }

    #[test]
    fn burn_violation_forces_scale_up_even_at_low_utilization() {
        let mut p = policy();
        // Warm the meter with healthy windows.
        for w in 0..4 {
            let acts = p.observe(w, at(w), 100, 0, 0.50);
            assert!(acts.is_empty(), "mid utilization, healthy: no action");
        }
        // A 50% failure window burns budget 50× over: both windows
        // violate immediately, and the loop scales up at mid utilization.
        let acts = p.observe(4, at(4), 50, 50, 0.50);
        assert_eq!(acts, vec![ScaleAction::AddShard { node: 100 }]);
    }

    #[test]
    fn decision_log_is_stable() {
        let run = || {
            let mut p = policy();
            for w in 0..20 {
                let (g, b, u) = if w % 5 < 3 { hot() } else { cold() };
                p.observe(w, at(w), g, b, u);
            }
            p.decision_log()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs, byte-identical log");
        assert!(a.contains("add_shard(100)"));
    }
}
