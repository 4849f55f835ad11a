//! Opioid-epidemic factor analysis (paper §V, future work).
//!
//! The paper's conclusion plans to "uncover additional factors that explain
//! why opioid mortality rates are at epidemic levels" from prescriptions,
//! 911 calls, traffic/DOTD data, and substance-related arrests. This module
//! implements that planned analysis end-to-end on synthetic district data:
//! a generator with a known ground-truth factor model, and a fitting step on
//! the MLlib substrate that recovers it.

use sccompute::dataflow::Dataset;
use sccompute::mllib::{linear_regression, LinearModel, StandardScaler};
use simclock::SeededRng;

/// Per-district observation of the candidate factors and the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DistrictRecord {
    /// District index.
    pub district: u32,
    /// Opioid prescriptions per 1,000 residents.
    pub prescriptions_per_1k: f64,
    /// Substance-related 911 calls per month.
    pub emergency_calls: f64,
    /// Drug-related arrests per month.
    pub drug_arrests: f64,
    /// Mean daily traffic volume (thousands) — a mobility proxy.
    pub traffic_volume_k: f64,
    /// Observed overdose rate per 100k residents (the target).
    pub overdose_rate: f64,
}

impl DistrictRecord {
    /// The factor vector used by the model.
    fn features(&self) -> Vec<f64> {
        vec![
            self.prescriptions_per_1k,
            self.emergency_calls,
            self.drug_arrests,
            self.traffic_volume_k,
        ]
    }
}

/// Ground-truth coefficients used by the generator (so recovery can be
/// asserted): `overdose = 0.5·prescriptions + 0.3·calls + 0.2·arrests +
/// 0.0·traffic + noise`. Traffic is a deliberate decoy factor.
pub const TRUE_COEFFICIENTS: [f64; 4] = [0.5, 0.3, 0.2, 0.0];

/// Generates `n` synthetic district observations.
pub fn generate_districts(n: usize, noise: f64, seed: u64) -> Vec<DistrictRecord> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|i| {
            let prescriptions = rng.range_f64(20.0, 120.0);
            let calls = rng.range_f64(5.0, 80.0);
            let arrests = rng.range_f64(0.0, 40.0);
            let traffic = rng.range_f64(10.0, 200.0);
            let overdose = TRUE_COEFFICIENTS[0] * prescriptions
                + TRUE_COEFFICIENTS[1] * calls
                + TRUE_COEFFICIENTS[2] * arrests
                + TRUE_COEFFICIENTS[3] * traffic
                + rng.gaussian(0.0, noise);
            DistrictRecord {
                district: i as u32,
                prescriptions_per_1k: prescriptions,
                emergency_calls: calls,
                drug_arrests: arrests,
                traffic_volume_k: traffic,
                overdose_rate: overdose.max(0.0),
            }
        })
        .collect()
}

/// A fitted factor analysis.
#[derive(Debug, Clone)]
pub struct FactorAnalysis {
    /// The linear model over *standardized* features.
    pub model: LinearModel,
    /// The scaler used for standardization.
    pub scaler: StandardScaler,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Factor names aligned with the model weights.
    pub factor_names: [&'static str; 4],
}

impl FactorAnalysis {
    /// Predicted overdose rate for a district.
    pub fn predict(&self, record: &DistrictRecord) -> f64 {
        self.model
            .predict(&self.scaler.transform(&record.features()))
    }

    /// Factors ranked by absolute standardized weight, strongest first.
    pub fn ranked_factors(&self) -> Vec<(&'static str, f64)> {
        let mut ranked: Vec<(&'static str, f64)> = self
            .factor_names
            .iter()
            .zip(&self.model.weights)
            .map(|(n, w)| (*n, *w))
            .collect();
        ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        ranked
    }
}

/// Fits the factor model on the MLlib substrate (distributed gradient
/// descent over standardized features).
///
/// # Panics
///
/// Panics on an empty input.
pub fn analyze(records: &[DistrictRecord]) -> FactorAnalysis {
    assert!(!records.is_empty(), "no district records");
    let features: Vec<Vec<f64>> = records.iter().map(DistrictRecord::features).collect();
    let scaler = StandardScaler::fit(&Dataset::from_vec(features.clone(), 4));
    let data: Vec<(Vec<f64>, f64)> = records
        .iter()
        .map(|r| (scaler.transform(&r.features()), r.overdose_rate))
        .collect();
    let ds = Dataset::from_vec(data, 4);
    let model = linear_regression(&ds, 0.05, 3000);

    // R² on training data.
    let mean_y: f64 = records.iter().map(|r| r.overdose_rate).sum::<f64>() / records.len() as f64;
    let ss_tot: f64 = records
        .iter()
        .map(|r| (r.overdose_rate - mean_y).powi(2))
        .sum();
    let ss_res: f64 = records
        .iter()
        .map(|r| {
            let pred = model.predict(&scaler.transform(&r.features()));
            (r.overdose_rate - pred).powi(2)
        })
        .sum();
    FactorAnalysis {
        model,
        scaler,
        r_squared: if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            0.0
        },
        factor_names: [
            "prescriptions_per_1k",
            "emergency_calls",
            "drug_arrests",
            "traffic_volume_k",
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(
            generate_districts(10, 1.0, 1),
            generate_districts(10, 1.0, 1)
        );
    }

    #[test]
    fn analysis_fits_well() {
        let records = generate_districts(200, 1.0, 2);
        let analysis = analyze(&records);
        assert!(analysis.r_squared > 0.95, "R² {}", analysis.r_squared);
    }

    #[test]
    fn prescriptions_rank_first_traffic_last() {
        let records = generate_districts(300, 1.0, 3);
        let analysis = analyze(&records);
        let ranked = analysis.ranked_factors();
        assert_eq!(ranked[0].0, "prescriptions_per_1k", "{ranked:?}");
        assert_eq!(
            ranked[3].0, "traffic_volume_k",
            "decoy ranks last: {ranked:?}"
        );
    }

    #[test]
    fn predictions_track_targets() {
        let records = generate_districts(150, 0.5, 4);
        let analysis = analyze(&records);
        let record = &records[0];
        let err = (analysis.predict(record) - record.overdose_rate).abs();
        assert!(err < 6.0, "error {err}");
    }

    #[test]
    fn noisy_data_lower_r2() {
        let clean = analyze(&generate_districts(200, 0.5, 5));
        let noisy = analyze(&generate_districts(200, 20.0, 5));
        assert!(clean.r_squared > noisy.r_squared);
    }
}
