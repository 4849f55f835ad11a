//! Recording rules: derived series materialised at each scrape window.
//!
//! A [`RecordingRule`] names an output series and an expression over the
//! stored ones; [`RuleEngine::eval_window`] evaluates every rule over one
//! closed window `(from, to]` and records the results at `to`. Rules are
//! evaluated in declaration order against the store *as it was before
//! the evaluation* (two-phase: read all, then write all), so rule order
//! can never make results racy or self-referential within a window —
//! the same discipline Prometheus applies to rule groups.

use simclock::SimTime;

use crate::query::{increase, quantile_over_time, range_agg, rate, RangeAgg};
use crate::series::SeriesId;
use crate::store::Tsdb;

/// An expression over stored series, evaluated per window.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleExpr {
    /// `rate(source[window])` — counter per-second rate.
    Rate(SeriesId),
    /// `increase(source[window])` — exact counter increase.
    Increase(SeriesId),
    /// A value-range aggregation of `source` over the window.
    Agg(SeriesId, RangeAgg),
    /// `quantile_over_time(q, source[window])` (nearest rank).
    Quantile(SeriesId, f64),
    /// `num / den`, 0 when the denominator is 0 (deterministic; mirrors
    /// `WindowStats::shed_fraction`). Missing operands evaluate as 0.
    Ratio(Box<RuleExpr>, Box<RuleExpr>),
}

impl RuleExpr {
    /// Scalar value over `(from, to]`; `None` when the window holds no
    /// contributing sample.
    fn eval(&self, tsdb: &Tsdb, from_us: u64, to_us: u64) -> Option<f64> {
        let range = |id| tsdb.range(id, from_us, to_us);
        match self {
            RuleExpr::Rate(id) => Some(rate(range(id), from_us, to_us)),
            RuleExpr::Increase(id) => Some(increase(range(id), from_us, to_us)),
            RuleExpr::Agg(id, agg) => range_agg(range(id), from_us, to_us, *agg),
            RuleExpr::Quantile(id, q) => quantile_over_time(range(id), from_us, to_us, *q),
            RuleExpr::Ratio(num, den) => {
                let n = num.eval(tsdb, from_us, to_us).unwrap_or(0.0);
                let d = den.eval(tsdb, from_us, to_us).unwrap_or(0.0);
                Some(if d == 0.0 { 0.0 } else { n / d })
            }
        }
    }
}

/// One rule: an output series fed by an expression.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingRule {
    /// Output series (conventionally `level:metric:operation`).
    pub output: SeriesId,
    /// The expression producing each window's sample.
    pub expr: RuleExpr,
}

impl RecordingRule {
    /// A rule recording `expr` into the label-less series `output`.
    pub fn new(output: &str, expr: RuleExpr) -> Self {
        RecordingRule {
            output: SeriesId::new(output),
            expr,
        }
    }
}

/// Evaluates a fixed rule set window by window.
///
/// # Examples
///
/// ```
/// use sctsdb::{RecordingRule, RuleEngine, RuleExpr, SeriesId, Tsdb};
/// use simclock::SimTime;
///
/// let mut db = Tsdb::new();
/// db.record_name("req_total", SimTime::ZERO, 0.0).unwrap();
/// db.record_name("req_total", SimTime::from_secs(60), 120.0).unwrap();
///
/// let engine = RuleEngine::new()
///     .with_rule(RecordingRule::new("job:req:rate", RuleExpr::Rate(SeriesId::new("req_total"))));
/// engine.eval_window(&mut db, SimTime::ZERO, SimTime::from_secs(60));
/// assert_eq!(db.samples_name("job:req:rate"), vec![(60_000_000, 2.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleEngine {
    rules: Vec<RecordingRule>,
}

impl RuleEngine {
    /// An empty engine.
    pub fn new() -> Self {
        RuleEngine::default()
    }

    /// Adds a rule.
    pub fn with_rule(mut self, rule: RecordingRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Evaluates every rule over `(from, to]`, recording results at `to`.
    /// Expressions yielding no sample record nothing for the window.
    pub fn eval_window(&self, tsdb: &mut Tsdb, from: SimTime, to: SimTime) {
        let (from_us, to_us) = (from.as_micros(), to.as_micros());
        let mut pending: Vec<(&RecordingRule, f64)> = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            if let Some(v) = rule.expr.eval(tsdb, from_us, to_us) {
                pending.push((rule, v));
            }
        }
        for (rule, v) in pending {
            tsdb.record(&rule.output, to, v)
                .expect("rule outputs advance with the window clock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_rule_mirrors_shed_fraction() {
        let mut db = Tsdb::new();
        for (t, bad, total) in [(0u64, 0.0, 0.0), (60, 3.0, 50.0), (120, 3.0, 90.0)] {
            db.record_name("bad_total", SimTime::from_secs(t), bad)
                .unwrap();
            db.record_name("sampled_total", SimTime::from_secs(t), total)
                .unwrap();
        }
        let engine = RuleEngine::new().with_rule(RecordingRule::new(
            "metro:shed_fraction",
            RuleExpr::Ratio(
                Box::new(RuleExpr::Increase(SeriesId::new("bad_total"))),
                Box::new(RuleExpr::Increase(SeriesId::new("sampled_total"))),
            ),
        ));
        engine.eval_window(&mut db, SimTime::ZERO, SimTime::from_secs(60));
        engine.eval_window(&mut db, SimTime::from_secs(60), SimTime::from_secs(120));
        let got = db.samples_name("metro:shed_fraction");
        assert_eq!(got[0], (60_000_000, 3.0 / 50.0));
        assert_eq!(got[1], (120_000_000, 0.0), "no bad, no shed");
    }

    #[test]
    fn quantile_rule_records_window_percentiles() {
        let mut db = Tsdb::new();
        for i in 0..100u64 {
            db.record_name("lat_ms", SimTime::from_micros(i + 1), i as f64)
                .unwrap();
        }
        let engine = RuleEngine::new().with_rule(RecordingRule::new(
            "job:lat:p99",
            RuleExpr::Quantile(SeriesId::new("lat_ms"), 0.99),
        ));
        engine.eval_window(&mut db, SimTime::ZERO, SimTime::from_micros(200));
        assert_eq!(db.samples_name("job:lat:p99"), vec![(200, 98.0)]);
    }
}
