//! Deterministic SLO evaluation and alerting.
//!
//! Rules are declarative: an objective (good-event fraction), a short
//! evaluation window, and a multi-window burn-rate alert in the Google SRE
//! formulation — the alert fires only when **both** the short window and
//! the long window (short × `long_factor`) burn error budget faster than
//! `burn_threshold`. The short window makes alerts responsive; the long
//! window suppresses blips, so quiet baselines stay quiet.
//!
//! Everything is windowed on sim time aligned to `SimTime::ZERO` and
//! evaluated in a fixed order, so the resulting [`AlertReport`] is
//! byte-identical for a given seed regardless of thread count.

use sctelemetry::{Report, TraceId};
use serde_json::{json, Value};
use simclock::{SimDuration, SimTime};

use crate::tree::TraceForest;

/// What an [`SloRule`] measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Fraction of requests answered (not shed / not lost).
    Availability,
    /// Fraction of requests faster than `bound_s` seconds.
    Latency {
        /// The latency bound defining a "good" request.
        bound_s: f64,
    },
    /// Fraction of jobs that complete (fog-layer loss).
    Loss,
}

impl SloKind {
    fn label(&self) -> &'static str {
        match self {
            SloKind::Availability => "availability",
            SloKind::Latency { .. } => "latency",
            SloKind::Loss => "loss",
        }
    }
}

/// A declarative service-level objective with burn-rate alerting.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name (stable; keys the report).
    pub name: String,
    /// What is measured.
    pub kind: SloKind,
    /// Target good fraction in `(0, 1)` (e.g. `0.99`).
    pub objective: f64,
    /// Short evaluation window; evaluation happens at its boundaries.
    pub short_window: SimDuration,
    /// Long window = `short_window × long_factor` (SRE multi-window).
    pub long_factor: u32,
    /// Burn-rate threshold both windows must exceed to fire.
    pub burn_threshold: f64,
    /// Optional EWMA z-score anomaly detection on the windowed mean of
    /// the sample values (e.g. latency seconds). `None` disables it.
    pub anomaly_z: Option<f64>,
}

impl SloRule {
    /// An availability rule with SRE-ish defaults: 5 s short window,
    /// 12× long window, burn threshold 10.
    pub fn availability(name: &str, objective: f64) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::Availability,
            objective,
            short_window: SimDuration::from_secs(5),
            long_factor: 12,
            burn_threshold: 10.0,
            anomaly_z: None,
        }
    }

    /// A latency-bound rule (`objective` fraction must finish within
    /// `bound_s` seconds).
    pub fn latency(name: &str, objective: f64, bound_s: f64) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::Latency { bound_s },
            objective,
            short_window: SimDuration::from_secs(5),
            long_factor: 12,
            burn_threshold: 10.0,
            anomaly_z: None,
        }
    }

    /// A loss rule for fog jobs.
    pub fn loss(name: &str, objective: f64) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::Loss,
            objective,
            short_window: SimDuration::from_secs(5),
            long_factor: 12,
            burn_threshold: 10.0,
            anomaly_z: None,
        }
    }

    /// Enables EWMA z-score anomaly detection at threshold `z`.
    pub fn with_anomaly_z(mut self, z: f64) -> SloRule {
        self.anomaly_z = Some(z);
        self
    }

    /// Overrides the evaluation windows.
    pub fn with_windows(mut self, short: SimDuration, long_factor: u32) -> SloRule {
        self.short_window = short;
        self.long_factor = long_factor.max(1);
        self
    }

    /// Overrides the burn threshold.
    pub fn with_burn_threshold(mut self, t: f64) -> SloRule {
        self.burn_threshold = t;
        self
    }
}

/// One observed service event feeding a rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSample {
    /// When the event completed (sim time).
    pub at: SimTime,
    /// Whether it met the objective ("good event").
    pub good: bool,
    /// Measured value (latency seconds for latency rules; 0/1 otherwise).
    pub value: f64,
}

/// Why an alert fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Multi-window burn rate exceeded the rule threshold.
    BurnRate,
    /// Windowed mean deviated from the EWMA baseline by more than the
    /// configured z-score.
    Anomaly,
}

/// A fired alert (rising edge only: one alert per continuous violation).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The violated rule.
    pub rule: String,
    /// Burn-rate or anomaly.
    pub kind: AlertKind,
    /// The window boundary at which the alert fired.
    pub at: SimTime,
    /// Short-window burn rate at firing time.
    pub burn_short: f64,
    /// Long-window burn rate at firing time.
    pub burn_long: f64,
    /// Human-readable context.
    pub detail: String,
}

/// Deterministic summary of one evaluation: every fired alert plus
/// per-rule compliance, in rule order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertReport {
    /// Fired alerts in `(at, rule, kind)` order.
    pub alerts: Vec<Alert>,
    /// Per-rule `(name, kind label, overall good fraction, samples)`.
    pub compliance: Vec<(String, &'static str, f64, usize)>,
}

impl AlertReport {
    /// Number of fired alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Whether no alert fired.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Multi-line text rendering (stable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, kind, frac, n) in &self.compliance {
            out.push_str(&format!(
                "slo {name} ({kind}): good_fraction={frac:.6} samples={n}\n"
            ));
        }
        if self.alerts.is_empty() {
            out.push_str("alerts: none\n");
        } else {
            for a in &self.alerts {
                let kind = match a.kind {
                    AlertKind::BurnRate => "burn-rate",
                    AlertKind::Anomaly => "anomaly",
                };
                out.push_str(&format!(
                    "ALERT {kind} rule={} at={} burn_short={:.3} burn_long={:.3} {}\n",
                    a.rule, a.at, a.burn_short, a.burn_long, a.detail
                ));
            }
        }
        out
    }

    /// Structured JSON view (stable key order via `kv` plus alert list).
    pub fn to_json_full(&self) -> Value {
        let alerts: Vec<Value> = self
            .alerts
            .iter()
            .map(|a| {
                json!({
                    "rule": a.rule,
                    "kind": match a.kind {
                        AlertKind::BurnRate => "burn_rate",
                        AlertKind::Anomaly => "anomaly",
                    },
                    "at_us": a.at.as_micros(),
                    "burn_short": a.burn_short,
                    "burn_long": a.burn_long,
                    "detail": a.detail,
                })
            })
            .collect();
        let compliance: Vec<Value> = self
            .compliance
            .iter()
            .map(|(name, kind, frac, n)| {
                json!({
                    "rule": name,
                    "kind": kind,
                    "good_fraction": frac,
                    "samples": n,
                })
            })
            .collect();
        json!({ "alerts": alerts, "compliance": compliance })
    }
}

impl Report for AlertReport {
    fn kv(&self) -> Vec<(String, f64)> {
        let mut kv = vec![("alerts_fired".to_string(), self.alerts.len() as f64)];
        for (name, _, frac, n) in &self.compliance {
            kv.push((format!("slo_{name}_good_fraction"), *frac));
            kv.push((format!("slo_{name}_samples"), *n as f64));
        }
        kv
    }
}

/// Evaluates `rules` against their sample streams. `streams[i]` feeds
/// `rules[i]`; samples need not be sorted (they are sorted internally by
/// `(at, good, value-bits)` for determinism).
pub fn evaluate(rules: &[SloRule], streams: &[Vec<SloSample>]) -> AlertReport {
    assert_eq!(rules.len(), streams.len(), "one stream per rule");
    let mut report = AlertReport::default();
    for (rule, stream) in rules.iter().zip(streams) {
        let mut samples = stream.clone();
        samples.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| a.good.cmp(&b.good))
                .then_with(|| a.value.total_cmp(&b.value))
        });
        let good = samples.iter().filter(|s| s.good).count();
        let frac = if samples.is_empty() {
            1.0
        } else {
            good as f64 / samples.len() as f64
        };
        report
            .compliance
            .push((rule.name.clone(), rule.kind.label(), frac, samples.len()));
        evaluate_rule(rule, &samples, &mut report.alerts);
    }
    report
        .alerts
        .sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.rule.cmp(&b.rule)));
    report
}

/// Per-window tallies for one rule's stream.
struct Window {
    good: usize,
    total: usize,
    value_sum: f64,
}

fn evaluate_rule(rule: &SloRule, samples: &[SloSample], alerts: &mut Vec<Alert>) {
    if samples.is_empty() {
        return;
    }
    let w = rule.short_window.as_micros().max(1);
    let last = samples.last().expect("non-empty").at.as_micros();
    let n_windows = (last / w + 1) as usize;
    let mut windows: Vec<Window> = (0..n_windows)
        .map(|_| Window {
            good: 0,
            total: 0,
            value_sum: 0.0,
        })
        .collect();
    for s in samples {
        let i = (s.at.as_micros() / w) as usize;
        windows[i].total += 1;
        if s.good {
            windows[i].good += 1;
        }
        windows[i].value_sum += s.value;
    }

    // EWMA baseline over windowed mean values (anomaly detection).
    let mut ewma_mean = 0.0f64;
    let mut ewma_var = 0.0f64;
    let mut warm = 0usize;
    const EWMA_ALPHA: f64 = 0.3;
    const WARMUP_WINDOWS: usize = 5;

    let mut meter = BurnMeter::new(rule.clone());
    let mut anomaly_firing = false;
    for (i, short) in windows.iter().enumerate() {
        let end = SimTime::from_micros((i as u64 + 1) * w);
        let BurnSignal {
            burn_short,
            burn_long,
            fired,
            ..
        } = meter.observe(short.good, short.total - short.good);
        if fired {
            alerts.push(Alert {
                rule: rule.name.clone(),
                kind: AlertKind::BurnRate,
                at: end,
                burn_short,
                burn_long,
                detail: format!(
                    "objective={} threshold={} window={}",
                    rule.objective, rule.burn_threshold, rule.short_window
                ),
            });
        }

        if let Some(z_threshold) = rule.anomaly_z {
            if short.total > 0 {
                let mean = short.value_sum / short.total as f64;
                if warm >= WARMUP_WINDOWS {
                    let sd = ewma_var.sqrt().max(1e-9);
                    let z = (mean - ewma_mean) / sd;
                    let anomalous = z.abs() >= z_threshold;
                    if anomalous && !anomaly_firing {
                        alerts.push(Alert {
                            rule: rule.name.clone(),
                            kind: AlertKind::Anomaly,
                            at: end,
                            burn_short,
                            burn_long,
                            detail: format!("z={z:.2} mean={mean:.6} baseline={ewma_mean:.6}"),
                        });
                    }
                    anomaly_firing = anomalous;
                    // Only fold non-anomalous windows into the baseline so
                    // a sustained shift keeps registering.
                    if !anomalous {
                        let d = mean - ewma_mean;
                        ewma_mean += EWMA_ALPHA * d;
                        ewma_var = (1.0 - EWMA_ALPHA) * (ewma_var + EWMA_ALPHA * d * d);
                    }
                } else {
                    let d = mean - ewma_mean;
                    if warm == 0 {
                        ewma_mean = mean;
                    } else {
                        ewma_mean += EWMA_ALPHA * d;
                        ewma_var = (1.0 - EWMA_ALPHA) * (ewma_var + EWMA_ALPHA * d * d);
                    }
                    warm += 1;
                }
            }
        }
    }
}

/// The burn-rate signal one [`BurnMeter`] window evaluation produces.
///
/// `fired` is the rising edge — true only on the first violating window
/// of a continuous violation, exactly like the alerts [`evaluate`] emits
/// — so a closed-loop consumer (an autoscaler, say) can key one action
/// per incident while still reading the raw burn rates every window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnSignal {
    /// Short-window burn rate (bad fraction over error budget).
    pub burn_short: f64,
    /// Long-window burn rate over the trailing `long_factor` windows.
    pub burn_long: f64,
    /// Whether both windows currently exceed the rule threshold.
    pub violating: bool,
    /// Rising edge of `violating` (one per continuous violation).
    pub fired: bool,
}

/// The multi-window burn-rate engine: the one place the Google-SRE
/// budget → burn → threshold → rising-edge math lives.
///
/// It observes one short window's tallies at a time and keeps only the
/// trailing `long_factor` windows, so a control loop (the scmetro
/// autoscaler) can decide *now* without a sample store. The batch
/// entry points are drivers over it: [`evaluate`] windows its samples
/// and feeds them through a meter, [`burn_over_series`] does the same
/// with counter increases read from an [`sctsdb::Tsdb`].
///
/// # Examples
///
/// ```
/// use scobserve::{BurnMeter, SloRule};
///
/// let mut meter = BurnMeter::new(SloRule::availability("serve", 0.99));
/// // 20 healthy windows build history, then a total outage.
/// for _ in 0..20 {
///     assert!(!meter.observe(100, 0).fired);
/// }
/// // The long window vetoes the first bad window (blip suppression)…
/// assert!(!meter.observe(0, 100).violating);
/// // …then a sustained outage fires exactly one rising edge.
/// let sig = meter.observe(0, 100);
/// assert!(sig.fired && sig.violating);
/// assert!(meter.observe(0, 100).violating); // still violating…
/// assert!(!meter.observe(0, 100).fired); // …but no new rising edge
/// ```
#[derive(Debug, Clone)]
pub struct BurnMeter {
    rule: SloRule,
    /// Trailing `(good, total)` tallies, most recent last; capped at
    /// `long_factor` windows.
    trailing: std::collections::VecDeque<(usize, usize)>,
    firing: bool,
}

impl BurnMeter {
    /// A meter evaluating `rule` one short-window at a time.
    pub fn new(rule: SloRule) -> Self {
        BurnMeter {
            trailing: std::collections::VecDeque::with_capacity(rule.long_factor.max(1) as usize),
            rule,
            firing: false,
        }
    }

    /// Feeds one short window's tallies (`good` events meeting the
    /// objective, `bad` events missing it) and returns the burn signal
    /// at this window's boundary.
    pub fn observe(&mut self, good: usize, bad: usize) -> BurnSignal {
        let total = good + bad;
        if self.trailing.len() == self.rule.long_factor.max(1) as usize {
            self.trailing.pop_front();
        }
        self.trailing.push_back((good, total));

        let budget = (1.0 - self.rule.objective).max(1e-9);
        let burn = |bad: usize, total: usize| {
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let burn_short = burn(total - good, total);
        let (lg, lt) = self
            .trailing
            .iter()
            .fold((0usize, 0usize), |(g, t), (wg, wt)| (g + wg, t + wt));
        let burn_long = burn(lt - lg, lt);
        let violating = total > 0
            && burn_short >= self.rule.burn_threshold
            && burn_long >= self.rule.burn_threshold;
        let fired = violating && !self.firing;
        self.firing = violating;
        BurnSignal {
            burn_short,
            burn_long,
            violating,
            fired,
        }
    }
}

/// Evaluates a rule's multi-window burn rate over **stored series**: a
/// [`BurnMeter`] fed from an [`sctsdb::Tsdb`] instead of a live tally
/// stream.
///
/// `good` and `bad` name cumulative counter series (each should carry an
/// explicit `0` sample at the epoch, the convention every producer in
/// this stack follows). For each boundary `bᵢ` the window tallies are
/// `increase(series, bᵢ₋₁, bᵢ]` — exact counter deltas, not
/// extrapolations — handed to [`BurnMeter::observe`]. Store the day, and
/// the post-hoc verdicts equal the closed-loop ones edge for edge; E19
/// pins exactly that.
pub fn burn_over_series(
    db: &sctsdb::Tsdb,
    rule: &SloRule,
    good: &sctsdb::SeriesId,
    bad: &sctsdb::SeriesId,
    boundaries: &[SimTime],
) -> Vec<(SimTime, BurnSignal)> {
    let good_samples = db.samples(good);
    let bad_samples = db.samples(bad);
    let mut meter = BurnMeter::new(rule.clone());
    let mut prev_us = 0u64;
    boundaries
        .iter()
        .map(|&b| {
            let to_us = b.as_micros();
            let g = sctsdb::increase(&good_samples, prev_us, to_us);
            let bd = sctsdb::increase(&bad_samples, prev_us, to_us);
            prev_us = to_us;
            (b, meter.observe(g as usize, bd as usize))
        })
        .collect()
}

/// Builds availability samples from a forest's request roots plus shed
/// events: answered requests are good; each `(trace, at)` shed marker is a
/// bad sample.
pub fn availability_stream(
    forest: &TraceForest,
    prefix: &str,
    shed: &[(TraceId, SimTime)],
) -> Vec<SloSample> {
    let shed_ids: std::collections::BTreeSet<TraceId> = shed.iter().map(|(t, _)| *t).collect();
    let mut out: Vec<SloSample> = forest
        .root_durations(prefix)
        .into_iter()
        .filter(|(t, _, _)| !shed_ids.contains(t))
        .map(|(_, start, d)| SloSample {
            at: start + SimDuration::from_secs_f64(d),
            good: true,
            value: 1.0,
        })
        .collect();
    out.extend(shed.iter().map(|(_, at)| SloSample {
        at: *at,
        good: false,
        value: 0.0,
    }));
    out
}

/// Builds latency samples from a forest's request roots: good when the
/// root duration is within `bound_s`.
pub fn latency_stream(forest: &TraceForest, prefix: &str, bound_s: f64) -> Vec<SloSample> {
    forest
        .root_durations(prefix)
        .into_iter()
        .map(|(_, start, d)| SloSample {
            at: start + SimDuration::from_secs_f64(d),
            good: d <= bound_s,
            value: d,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at_s: u64, good: bool, value: f64) -> SloSample {
        SloSample {
            at: SimTime::from_secs(at_s),
            good,
            value,
        }
    }

    #[test]
    fn quiet_baseline_fires_nothing() {
        let rule = SloRule::availability("serve", 0.99);
        let stream: Vec<SloSample> = (0..600).map(|i| s(i / 10, i % 97 != 0, 1.0)).collect();
        // ~1% bad: burn rate ~1, far below threshold 10.
        let report = evaluate(&[rule], &[stream]);
        assert!(report.is_empty(), "got {:?}", report.alerts);
        assert_eq!(report.compliance.len(), 1);
    }

    #[test]
    fn sustained_outage_fires_once_per_violation() {
        let rule = SloRule::availability("serve", 0.99);
        // 120 s of traffic, total outage between 40 s and 80 s.
        let stream: Vec<SloSample> = (0..1200)
            .map(|i| {
                let at = i / 10;
                s(at, !(40..80).contains(&at), 1.0)
            })
            .collect();
        let report = evaluate(&[rule], &[stream]);
        let burn: Vec<&Alert> = report
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::BurnRate)
            .collect();
        assert_eq!(burn.len(), 1, "rising edge only: {:?}", report.alerts);
        assert!(burn[0].burn_short >= 10.0);
        assert!(burn[0].at >= SimTime::from_secs(40));
    }

    #[test]
    fn short_blip_is_suppressed_by_long_window() {
        let rule = SloRule::availability("serve", 0.99);
        // One bad 5 s window out of 300 s: short burn 100, long burn ~8.
        let stream: Vec<SloSample> = (0..3000)
            .map(|i| {
                let at = i / 10;
                s(at, !(100..105).contains(&at), 1.0)
            })
            .collect();
        let report = evaluate(&[rule], &[stream]);
        assert!(
            report.is_empty(),
            "long window must veto blips: {:?}",
            report.alerts
        );
    }

    #[test]
    fn latency_rule_counts_bound_violations() {
        let rule = SloRule::latency("p99", 0.5, 0.010);
        let stream: Vec<SloSample> = (0..1200)
            .map(|i| {
                let slow = i / 10 >= 30;
                s(i / 10, !slow, if slow { 0.050 } else { 0.001 })
            })
            .collect();
        let report = evaluate(&[rule.with_burn_threshold(1.5)], &[stream]);
        assert!(!report.is_empty());
        assert_eq!(report.alerts[0].kind, AlertKind::BurnRate);
    }

    #[test]
    fn anomaly_detector_flags_level_shift_only() {
        let rule = SloRule::latency("lat", 0.0001, 1e9).with_anomaly_z(4.0);
        // 60 windows at a steady 1 ms, then a 10× level shift.
        let stream: Vec<SloSample> = (0..4000)
            .map(|i| {
                let at = i / 10;
                let v = if at >= 300 { 0.010 } else { 0.001 };
                s(at, true, v)
            })
            .collect();
        let report = evaluate(&[rule], &[stream]);
        let anomalies: Vec<&Alert> = report
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::Anomaly)
            .collect();
        assert_eq!(anomalies.len(), 1, "{:?}", report.alerts);
        assert!(anomalies[0].at >= SimTime::from_secs(300));
    }

    /// Replays a windowed sample stream through the batch engine and the
    /// incremental meter; the burn-rate firing edges must coincide.
    #[test]
    fn burn_meter_matches_batch_evaluate() {
        // Traffic with two violation episodes and a quiet stretch.
        let good_at = |at: u64| !((40..80).contains(&at) || (160..200).contains(&at));
        let stream: Vec<SloSample> = (0..2400)
            .map(|i| {
                let at = i / 10;
                s(at, good_at(at), 1.0)
            })
            .collect();
        let rule = SloRule::availability("serve", 0.99);
        let batch = evaluate(std::slice::from_ref(&rule), std::slice::from_ref(&stream));
        let batch_edges: Vec<u64> = batch
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::BurnRate)
            .map(|a| a.at.as_micros())
            .collect();

        // Window the same stream by the rule's short window and replay.
        let w = rule.short_window.as_micros();
        let last = stream.last().unwrap().at.as_micros();
        let n_windows = (last / w + 1) as usize;
        let mut meter = BurnMeter::new(rule);
        let mut meter_edges = Vec::new();
        for i in 0..n_windows {
            let (lo, hi) = (i as u64 * w, (i as u64 + 1) * w);
            let in_win = |t: SimTime| (lo..hi).contains(&t.as_micros());
            let good = stream.iter().filter(|x| in_win(x.at) && x.good).count();
            let bad = stream.iter().filter(|x| in_win(x.at) && !x.good).count();
            if meter.observe(good, bad).fired {
                meter_edges.push(hi);
            }
        }
        assert_eq!(batch_edges, meter_edges);
        assert_eq!(meter_edges.len(), 2, "two episodes, two rising edges");
    }

    /// Records two counter series into a store, evaluates the rule over
    /// them, and replays the identical window tallies through a
    /// [`BurnMeter`]: every signal must match bit for bit.
    #[test]
    fn burn_over_series_matches_meter_bitwise() {
        use sctsdb::{SeriesId, Tsdb};

        let rule = SloRule::availability("serve", 0.99).with_windows(SimDuration::from_secs(5), 4);
        let good_id = SeriesId::new("good_total");
        let bad_id = SeriesId::new("bad_total");
        let mut db = Tsdb::new();
        db.record(&good_id, SimTime::ZERO, 0.0).unwrap();
        db.record(&bad_id, SimTime::ZERO, 0.0).unwrap();

        // Two outage episodes over 60 windows, cumulative counters
        // sampled at each window close.
        let w = rule.short_window;
        let mut tallies = Vec::new();
        let (mut cg, mut cb) = (0u64, 0u64);
        for i in 0..60u64 {
            let outage = (10..14).contains(&i) || (40..48).contains(&i);
            let (g, b) = if outage { (0, 50) } else { (50, i % 2) };
            cg += g;
            cb += b;
            let close = SimTime::from_micros(w.as_micros() * (i + 1));
            db.record(&good_id, close, cg as f64).unwrap();
            db.record(&bad_id, close, cb as f64).unwrap();
            tallies.push((close, g as usize, b as usize));
        }

        let boundaries: Vec<SimTime> = tallies.iter().map(|&(c, _, _)| c).collect();
        let from_series = burn_over_series(&db, &rule, &good_id, &bad_id, &boundaries);

        let mut meter = BurnMeter::new(rule);
        assert_eq!(from_series.len(), tallies.len());
        let mut edges = 0;
        for ((at, sig), (close, g, b)) in from_series.iter().zip(&tallies) {
            let want = meter.observe(*g, *b);
            assert_eq!(at, close);
            assert_eq!(sig.burn_short.to_bits(), want.burn_short.to_bits());
            assert_eq!(sig.burn_long.to_bits(), want.burn_long.to_bits());
            assert_eq!(sig.violating, want.violating);
            assert_eq!(sig.fired, want.fired);
            edges += sig.fired as usize;
        }
        assert_eq!(edges, 2, "two episodes, two rising edges");
    }

    #[test]
    fn burn_meter_empty_windows_never_fire() {
        let mut meter = BurnMeter::new(SloRule::availability("serve", 0.5));
        for _ in 0..20 {
            let sig = meter.observe(0, 0);
            assert!(!sig.violating && !sig.fired);
            assert_eq!(sig.burn_short, 0.0);
        }
    }

    #[test]
    fn report_renders_and_serializes_stably() {
        let rule = SloRule::availability("serve", 0.99);
        let stream: Vec<SloSample> = (0..100).map(|i| s(i, false, 0.0)).collect();
        let a = evaluate(std::slice::from_ref(&rule), std::slice::from_ref(&stream));
        let b = evaluate(&[rule], &[stream]);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_json_full()).unwrap(),
            serde_json::to_string(&b.to_json_full()).unwrap()
        );
        assert!(a.render().contains("ALERT burn-rate rule=serve"));
        assert!(a.kv()[0].0 == "alerts_fired");
    }
}
